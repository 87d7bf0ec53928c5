import os
from dataclasses import asdict

import numpy as np
import pytest

import reference
from spartan.adapter import AdapterConfig
from spartan.backbone import BackboneConfig, Model, init_backbone, make_plugin
from spartan.checkpoint import save_checkpoint
from spartan.memory import SpartanConfig
from spartan.numerics import ParameterError, make_rng
from spartan.params import build_report, render_table, spartan_formula_total

PAPER_BACKBONE = BackboneConfig(d=768, layers=12, heads=12, ffn_dim=3072,
                                vocab_hash_buckets=2048, max_seq_len=128)
PAPER_SPARTAN = SpartanConfig(d=768, num_parents=16, children_per_parent=3, top_k=8)

DESK = BackboneConfig(d=32, layers=3, heads=2, ffn_dim=48, vocab_hash_buckets=128, max_seq_len=8)
DESK_SPARTAN = SpartanConfig(d=32, num_parents=4, children_per_parent=2, top_k=2)
DESK_ADAPTER = AdapterConfig(d=32, bottleneck=8)
DESK_PLUGIN = {"none": None, "spartan": DESK_SPARTAN, "adapter": DESK_ADAPTER,
               "adapterx2": DESK_ADAPTER}  # the config that fits each kind


def build_model(kind, seed=0, cfg=DESK, num_labels=3):
    rng = make_rng(seed)
    params = init_backbone(cfg, num_labels, rng)
    plugin = make_plugin(kind, cfg, rng, spartan_cfg=DESK_SPARTAN, adapter_cfg=DESK_ADAPTER)
    return Model(cfg, params, plugin)


class TestClosedForm:
    def test_added_term_at_nine_tasks(self):
        # 2 * 9 * (16 + 16*3) * 768 * 12
        assert spartan_formula_total(0, 9, 16, 3, 768, 12) == 10_616_832

    def test_minimal_case(self):
        assert spartan_formula_total(0, 1, 1, 1, 1, 1) == 4

    def test_base_term_passes_through(self):
        assert spartan_formula_total(1000, 1, 1, 1, 1, 1) == 1004

    def test_rejects_invalid_counts(self):
        with pytest.raises(ParameterError):
            spartan_formula_total(-1, 1, 1, 1, 1, 1)
        with pytest.raises(ParameterError):
            spartan_formula_total(0, 0, 1, 1, 1, 1)


class TestEnumeration:
    def test_spartan_per_task_additions_at_paper_shapes(self):
        report = build_report(PAPER_BACKBONE, 2, "spartan", plugin_cfg=PAPER_SPARTAN)
        assert report.added_params_per_task == (16 + 2 * 16 * 3) * 768 * 12 == 1_032_192
        # the closed form's per-task value differs: factor 2 on the parent term
        assert spartan_formula_total(0, 1, 16, 3, 768, 12) == 1_179_648

    def test_adapter_per_task_additions_at_paper_shapes(self):
        report = build_report(PAPER_BACKBONE, 2, "adapter",
                              plugin_cfg=AdapterConfig(d=768, bottleneck=64))
        assert report.added_params_per_task == 12 * 100_672 == 1_208_064

    def test_no_plugin_adds_head_only(self):
        report = build_report(DESK, 5, "none")
        assert report.added_params_per_task == 0
        assert report.head_params == 5 * 32 + 5
        assert report.total_enumerated == report.backbone_params

    def test_matches_real_model_walk(self):
        for kind in ("none", "spartan", "adapter", "adapterx2"):
            model = build_model(kind)
            real = reference.enumerate_params(model)
            report = build_report(DESK, 3, kind, plugin_cfg=DESK_PLUGIN[kind])
            assert real["frozen"] == report.backbone_params
            assert real["plugin"] == report.added_params_per_task
            assert real["head"] == report.head_params
            assert real["total"] == report.body_bytes // 8

    def test_second_traversal_order_agrees(self):
        from spartan.backbone import iter_named_tensors
        model = build_model("spartan")
        report = reference.enumerate_params(model)
        # independent pass: sorted by name, recomputing sizes from shapes
        named = sorted((n, a) for n, a, _ in iter_named_tensors(model))
        resummed = sum(int(np.prod(arr.shape)) for _, arr in named)
        assert resummed == report["total"]

    def test_frozen_plus_trainable_partition_total(self):
        for kind in ("spartan", "adapter"):
            model = build_model(kind)
            counts = reference.enumerate_params(model)
            assert counts["frozen"] + counts["trainable"] == counts["total"]
            assert counts["plugin"] + counts["head"] == counts["trainable"]

    def test_two_stacked_adapters_double_single_exactly(self):
        single = build_report(DESK, 3, "adapter", plugin_cfg=DESK_ADAPTER)
        double = build_report(DESK, 3, "adapterx2", plugin_cfg=DESK_ADAPTER)
        assert double.added_params_per_task == 2 * single.added_params_per_task


class TestReport:
    def test_multi_task_projection_invariant(self):
        report = build_report(PAPER_BACKBONE, 2, "spartan", tasks=9, plugin_cfg=PAPER_SPARTAN)
        assert report.total_enumerated == report.backbone_params + 9 * report.added_params_per_task
        assert report.added_params_per_task == 1_032_192
        assert report.formula_added_per_task == 1_179_648
        assert report.all_task_files_bytes == 9 * report.task_file_bytes
        assert report.formula_gap_fraction == pytest.approx(
            (1_179_648 - 1_032_192) / 1_032_192)

    def test_table_rows_are_in_order(self):
        report = build_report(PAPER_BACKBONE, 2, "spartan", tasks=9, plugin_cfg=PAPER_SPARTAN)
        labels = [line.split("  ")[0] for line in render_table(report).splitlines()]
        assert labels == [
            "plugin kind", "backbone (frozen)", "added per task (plugin, enumerated)",
            "added per task (closed form)", "task head (reported separately)", "tasks",
            "total, enumerated", "total, closed form", "checkpoint body", "checkpoint header",
            "one task file", "9 task file(s)", "closed form vs enumeration"]
        adapter = build_report(DESK, 3, "adapter", tasks=2, plugin_cfg=DESK_ADAPTER)
        labels = [line.split("  ")[0] for line in render_table(adapter).splitlines()]
        assert "closed form vs enumeration" not in labels and labels[-1] == "2 task file(s)"

    def test_table_shows_both_counts_and_flags_gap(self):
        report = build_report(PAPER_BACKBONE, 2, "spartan", tasks=9, plugin_cfg=PAPER_SPARTAN)
        table = render_table(report)
        assert "1,032,192" in table
        assert "1,179,648" in table
        assert "closed form vs enumeration" in table

    def test_adapter_report_has_no_closed_form(self):
        report = build_report(DESK, 3, "adapter", tasks=2,
                              plugin_cfg=AdapterConfig(d=32, bottleneck=8))
        assert report.total_formula is None
        assert "closed form" not in render_table(report)

    def test_json_round_trips_fields(self):
        report = build_report(DESK, 3, "spartan", tasks=1,
                              plugin_cfg=SpartanConfig(d=32, num_parents=4,
                                                       children_per_parent=2, top_k=2))
        payload = asdict(report)
        assert payload["total_enumerated"] == report.total_enumerated
        assert payload["formula_gap_fraction"] == report.formula_gap_fraction

    def test_shape_iterator_matches_model_tensor_names(self):
        model = build_model("adapterx2")
        from spartan.backbone import iter_named_tensors
        names_model = [n for n, _, _ in iter_named_tensors(model)]
        names_analytic = [n for n, _, _ in reference.iter_tensor_shapes(
            DESK, 3, "adapterx2", adapter_cfg=AdapterConfig(d=32, bottleneck=8))]
        assert names_model == names_analytic


class TestStorage:
    """The report's bytes are those of the files save_checkpoint writes."""

    @pytest.mark.parametrize("kind", ["none", "spartan", "adapter", "adapterx2"])
    def test_report_bytes_equal_the_checkpoint_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(path, build_model(kind), seed=0)
        with open(path, "rb") as fh:
            first_line = fh.readline()
        size = os.path.getsize(path)
        report = build_report(DESK, 3, kind, tasks=3, plugin_cfg=DESK_PLUGIN[kind])
        assert report.header_bytes == len(first_line)
        assert report.body_bytes == size - len(first_line)
        assert report.task_file_bytes == size
        assert report.all_task_files_bytes == 3 * size

    def test_json_carries_the_byte_figures(self):
        payload = asdict(build_report(DESK, 3, "adapter", tasks=4, plugin_cfg=DESK_ADAPTER))
        for key in ("body_bytes", "header_bytes", "task_file_bytes", "all_task_files_bytes"):
            assert isinstance(payload[key], int) and payload[key] > 0
        assert payload["all_task_files_bytes"] == 4 * payload["task_file_bytes"]
        assert "storage_bytes" not in payload and "manifest_overhead_bytes" not in payload
