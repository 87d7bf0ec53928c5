"""Parameter and storage accounting.

Two numbers are reported side by side for the sparse memory architecture: the
closed-form total `base + 2*T*(P + P*C)*d*L`, and an exact enumeration that
walks every tensor. The closed form carries a factor 2 on the parent term even
though parents have no key/value split, so it exceeds the enumerated count;
the report surfaces the gap rather than silently reconciling it.

Shapes come from the tensor schema in `backbone`: `empty_model` builds the
configuration's shape-only model, the one the checkpoint loader checks files
against, and it is walked exactly as `iter_named_tensors` walks a real one.
Storage is what `checkpoint` counts for that model's file, backbone included.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import memory as memory_mod
from .backbone import BackboneConfig, empty_model, iter_named_tensors, plugin_config
from .checkpoint import checkpoint_bytes
from .numerics import ParameterError


@dataclass
class ParamReport:
    plugin_kind: str
    backbone_params: int
    added_params_per_task: int      # plugin tensors only
    head_params: int                # reported separately, not scaled by tasks
    num_labels: int                 # the head's rows
    num_labels_assumed: bool        # the config gave none, so 2 were counted
    tasks: int
    total_formula: int | None       # closed form; sparse-memory plugin only
    formula_added_per_task: int | None
    total_enumerated: int
    body_bytes: int                 # exact for every checkpoint of this config
    header_bytes: int               # the config echo: seed 0, no run metadata
    task_file_bytes: int            # header + body: one task's checkpoint
    all_task_files_bytes: int       # tasks x task_file_bytes
    formula_gap_fraction: float | None  # (closed form - enumerated) / enumerated, per task


def spartan_formula_total(n_base: int, t: int, p: int, c: int, d: int, l: int) -> int:
    """Closed-form total: n_base + 2*T*(P + P*C)*d*L."""
    if n_base < 0 or min(t, p, c, d, l) < 1:
        raise ParameterError("all counts must be >= 1 (n_base >= 0)")
    return n_base + 2 * t * (p + p * c) * d * l


def build_report(cfg: BackboneConfig, num_labels: int | None, plugin_kind: str, tasks: int = 1,
                 plugin_cfg=None) -> ParamReport:
    """Multi-task accounting: one frozen backbone serves `tasks` plugin copies.

    The per-task additions scale the plugin tensors only; the task head is
    reported on its own line so the plugin count stays comparable across
    architectures. The byte figures are those of the checkpoint files. A
    num_labels of None is counted as 2 labels, and the report says so. A
    plugin_cfg of None counts the kind's default config at width cfg.d.
    """
    if tasks < 1:
        raise ParameterError(f"tasks must be >= 1, got {tasks}")
    pcfg = plugin_config(plugin_kind, cfg.d, plugin_cfg)
    model = empty_model(cfg, 2 if num_labels is None else num_labels, plugin_kind, pcfg)
    backbone = added = head = 0
    for name, arr, trainable in iter_named_tensors(model):
        if not trainable:
            backbone += arr.size
        elif name.startswith("plugin."):
            added += arr.size
        else:
            head += arr.size

    total_formula = formula_added = gap = None
    if isinstance(pcfg, memory_mod.SpartanConfig):  # the closed form models the memory layer only
        total_formula = spartan_formula_total(backbone, tasks, pcfg.num_parents,
                                              pcfg.children_per_parent, pcfg.d, cfg.layers)
        formula_added = spartan_formula_total(0, 1, pcfg.num_parents,
                                              pcfg.children_per_parent, pcfg.d, cfg.layers)
        gap = (formula_added - added) / added
    header, body = checkpoint_bytes(model)
    return ParamReport(
        plugin_kind=plugin_kind,
        backbone_params=backbone,
        added_params_per_task=added,
        head_params=head,
        num_labels=model.params.num_labels,
        num_labels_assumed=num_labels is None,
        tasks=tasks,
        total_formula=total_formula,
        formula_added_per_task=formula_added,
        total_enumerated=backbone + tasks * added,
        body_bytes=body,
        header_bytes=header,
        task_file_bytes=header + body,
        all_task_files_bytes=tasks * (header + body),
        formula_gap_fraction=gap,
    )


def render_table(report: ParamReport) -> str:
    closed = report.total_formula is not None
    total = report.backbone_params + report.added_params_per_task + report.head_params
    trained = (report.added_params_per_task + report.head_params) / total
    rows = [
        ("plugin kind", report.plugin_kind),
        ("backbone (frozen)", f"{report.backbone_params:,}"),
        ("added per task (plugin, enumerated)", f"{report.added_params_per_task:,}"),
        closed and ("added per task (closed form)", f"{report.formula_added_per_task:,}"),
        ("task head (reported separately)", f"{report.head_params:,} ({report.num_labels} labels"
         f"{', assumed: the config sets none' if report.num_labels_assumed else ''})"),
        ("tasks", str(report.tasks)),
        ("total, enumerated", f"{report.total_enumerated:,}"),
        closed and ("total, closed form", f"{report.total_formula:,}"),
        ("checkpoint body", f"{report.body_bytes:,} B ({report.body_bytes // total} B/scalar, "
                            "the same in every file of this config)"),
        ("checkpoint header", f"{report.header_bytes:,} B (config echo, seed 0, no run metadata)"),
        ("one task file", f"{report.task_file_bytes:,} B"),
        (f"{report.tasks} task file(s)", f"{report.all_task_files_bytes:,} B (each repeats the "
                                          f"frozen backbone; {trained:.1%} of its scalars train)"),
        closed and ("closed form vs enumeration",
                    f"{report.formula_gap_fraction:+.1%} (the closed form doubles the parent "
                    f"term; enumeration is the ground truth)"),
    ]
    rows = [row for row in rows if row]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)
