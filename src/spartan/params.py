"""Parameter and storage accounting.

Two numbers are reported side by side for the sparse memory architecture: the
closed-form total `base + 2*T*(P + P*C)*d*L`, and an exact enumeration that
walks every tensor. The closed form carries a factor 2 on the parent term even
though parents have no key/value split, so it exceeds the enumerated count;
the report surfaces the gap rather than silently reconciling it.

Shapes come from the tensor schema in `backbone`: a model of the requested
configuration is built from zero-stride views, which cost no memory, and
walked exactly as `iter_named_tensors` walks a real one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import adapter as adapter_mod
from . import memory as memory_mod
from .backbone import BackboneConfig, empty_model, iter_named_tensors, plugin_config
from .numerics import ParameterError

BYTES_PER_SCALAR = 4


@dataclass
class ParamReport:
    plugin_kind: str
    backbone_params: int
    added_params_per_task: int      # plugin tensors only
    head_params: int                # reported separately, not scaled by tasks
    tasks: int
    total_formula: int | None       # closed form; sparse-memory plugin only
    formula_added_per_task: int | None
    total_enumerated: int
    storage_bytes: int
    manifest_overhead_bytes: int

    @property
    def formula_gap_fraction(self) -> float | None:
        if self.formula_added_per_task is None or self.added_params_per_task == 0:
            return None
        return (self.formula_added_per_task - self.added_params_per_task) / self.added_params_per_task


def spartan_formula_total(n_base: int, t: int, p: int, c: int, d: int, l: int) -> int:
    """Closed-form total: n_base + 2*T*(P + P*C)*d*L."""
    if n_base < 0 or min(t, p, c, d, l) < 1:
        raise ParameterError("all counts must be >= 1 (n_base >= 0)")
    return n_base + 2 * t * (p + p * c) * d * l


def spartan_formula_added(t: int, p: int, c: int, d: int, l: int) -> int:
    """The added term of the closed form alone: 2*T*(P + P*C)*d*L."""
    return spartan_formula_total(0, t, p, c, d, l)


def _shape_only(shape) -> np.ndarray:
    return np.broadcast_to(np.zeros(()), shape)


def iter_tensor_shapes(cfg: BackboneConfig, num_labels: int, plugin_kind: str,
                       spartan_cfg: memory_mod.SpartanConfig | None = None,
                       adapter_cfg: adapter_mod.AdapterConfig | None = None):
    """(name, shape, trainable) for every tensor a model of this configuration
    would hold, in iter_named_tensors order, without allocating it."""
    pcfg = plugin_config(plugin_kind, cfg.d, spartan_cfg, adapter_cfg)
    model = empty_model(cfg, num_labels, plugin_kind, pcfg, alloc=_shape_only)
    for name, arr, trainable in iter_named_tensors(model):
        yield name, arr.shape, trainable


def count_from_shapes(cfg: BackboneConfig, num_labels: int, plugin_kind: str,
                      spartan_cfg=None, adapter_cfg=None) -> dict:
    """Scalar counts split frozen / plugin / head, and each tensor's shape,
    computed from the configuration's shapes alone."""
    frozen = plugin = head = 0
    shapes = {}
    for name, shape, is_trainable in iter_tensor_shapes(cfg, num_labels, plugin_kind,
                                                        spartan_cfg, adapter_cfg):
        n = math.prod(shape)
        if not is_trainable:
            frozen += n
        elif name.startswith("plugin."):
            plugin += n
        else:
            head += n
        shapes[name] = list(shape)
    return {"frozen": frozen, "plugin": plugin, "head": head,
            "trainable": plugin + head, "total": frozen + plugin + head, "shapes": shapes}


def build_report(cfg: BackboneConfig, num_labels: int, plugin_kind: str, tasks: int = 1,
                 spartan_cfg=None, adapter_cfg=None) -> ParamReport:
    """Multi-task accounting: one frozen backbone serves `tasks` plugin copies.

    The per-task additions scale the plugin tensors only; the task head is
    reported on its own line so the plugin count stays comparable across
    architectures.
    """
    if tasks < 1:
        raise ParameterError(f"tasks must be >= 1, got {tasks}")
    counts = count_from_shapes(cfg, num_labels, plugin_kind, spartan_cfg, adapter_cfg)
    backbone = counts["frozen"]
    added = counts["plugin"]
    total_enum = backbone + tasks * added

    total_formula = formula_added = None
    pcfg = plugin_config(plugin_kind, cfg.d, spartan_cfg, adapter_cfg)
    if isinstance(pcfg, memory_mod.SpartanConfig):  # the closed form models the memory layer only
        total_formula = spartan_formula_total(backbone, tasks, pcfg.num_parents,
                                              pcfg.children_per_parent, pcfg.d, cfg.layers)
        formula_added = spartan_formula_added(1, pcfg.num_parents,
                                              pcfg.children_per_parent, pcfg.d, cfg.layers)
    manifest = json.dumps(counts["shapes"]).encode("utf-8")
    return ParamReport(
        plugin_kind=plugin_kind,
        backbone_params=backbone,
        added_params_per_task=added,
        head_params=counts["head"],
        tasks=tasks,
        total_formula=total_formula,
        formula_added_per_task=formula_added,
        total_enumerated=total_enum,
        storage_bytes=BYTES_PER_SCALAR * total_enum,
        manifest_overhead_bytes=len(manifest),
    )


def report_to_dict(report: ParamReport) -> dict:
    out = {k: getattr(report, k) for k in (
        "plugin_kind", "backbone_params", "added_params_per_task", "head_params",
        "tasks", "total_formula", "formula_added_per_task", "total_enumerated",
        "storage_bytes", "manifest_overhead_bytes")}
    out["formula_gap_fraction"] = report.formula_gap_fraction
    return out


def render_table(report: ParamReport) -> str:
    rows = [
        ("plugin kind", report.plugin_kind),
        ("backbone (frozen)", f"{report.backbone_params:,}"),
        ("added per task (plugin, enumerated)", f"{report.added_params_per_task:,}"),
        ("task head (reported separately)", f"{report.head_params:,}"),
        ("tasks", str(report.tasks)),
        ("total, enumerated", f"{report.total_enumerated:,}"),
        ("storage at 4 B/scalar", f"{report.storage_bytes:,} B"),
        ("manifest overhead", f"{report.manifest_overhead_bytes:,} B"),
    ]
    if report.total_formula is not None:
        gap = report.formula_gap_fraction
        rows.insert(6, ("total, closed form", f"{report.total_formula:,}"))
        rows.insert(3, ("added per task (closed form)", f"{report.formula_added_per_task:,}"))
        rows.append(("closed form vs enumeration",
                     f"{gap:+.1%} (the closed form doubles the parent term; "
                     f"enumeration is the ground truth)"))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)
