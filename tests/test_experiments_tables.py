"""Shape assertions for the reproduced tables (I-IV).

Absolute numbers differ from the paper (simulated substrate); the
assertions target the qualitative claims each table supports.
"""

import pytest

from repro.experiments.table1_mapping import format_table1, run_table1
from repro.experiments.table2_op_times import format_table2, run_table2
from repro.experiments.table3_overhead import format_table3, run_table3
from repro.experiments.table4_functionality import format_table4, run_table4
from repro.workloads import SMOKE


@pytest.fixture(scope="module")
def table1():
    return run_table1(runs=12, seed=0)


class TestTable1:
    def test_loader_maps_to_decode_chain(self, table1):
        functions = table1.intel.function_names_for("Loader")
        for expected in ("decode_mcu", "jpeg_idct_islow", "ycc_rgb_convert",
                         "decompress_onepass"):
            assert expected in functions

    def test_rrc_maps_to_resample_kernels(self, table1):
        functions = table1.intel.function_names_for("RandomResizedCrop")
        assert "ImagingResampleHorizontal_8bpc" in functions
        assert "ImagingResampleVertical_8bpc" in functions

    def test_rrc_does_not_contain_decode(self, table1):
        assert "decode_mcu" not in table1.intel.function_names_for("RandomResizedCrop")

    def test_intel_specific_rows(self, table1):
        intel_only = table1.intel_specific("Loader")
        if "__libc_calloc" not in intel_only:
            # The calloc span sits near the scaled sampling interval, so
            # capture is probabilistic (exactly the paper's point); retry
            # once with the formula-derived higher run count.
            retry = run_table1(runs=20, seed=3)
            intel_only = retry.intel_specific("Loader")
        assert "__libc_calloc" in intel_only

    def test_amd_specific_rows(self, table1):
        amd_only = set()
        for op in ("Loader",):
            amd_only |= table1.amd_specific(op)
        # At least one of the Table I AMD rows shows up.
        assert amd_only & {"sep_upsample", "copy", "process_data_simple_main",
                           "__memset_avx2_unaligned"}

    def test_common_rows_exist(self, table1):
        assert "decode_mcu" in table1.common_functions("Loader")

    def test_every_ic_op_mapped(self, table1):
        for op in ("Loader", "RandomResizedCrop", "RandomHorizontalFlip",
                   "ToTensor", "Normalize", "Collation"):
            assert op in table1.intel
            assert table1.intel.function_names_for(op)

    def test_short_op_capture(self, table1):
        """Short-lived ToTensor must still be mapped (repeat-run capture)."""
        assert table1.intel.function_names_for("ToTensor")

    def test_formatting(self, table1):
        text = format_table1(table1)
        assert "Loader" in text and "RandomResizedCrop" in text


@pytest.fixture(scope="module")
def table2():
    return run_table2(profile=SMOKE, num_workers=2, seed=1)


class TestTable2:
    def test_all_pipelines_present(self, table2):
        assert set(table2.pipelines) == {"IC", "IS", "OD"}

    def test_ic_op_set(self, table2):
        ops = {row.op for row in table2.pipelines["IC"]}
        assert ops == {"Loader", "RandomResizedCrop", "RandomHorizontalFlip",
                       "ToTensor", "Normalize", "Collation"}

    def test_is_op_set(self, table2):
        ops = {row.op for row in table2.pipelines["IS"]}
        assert {"Loader", "RandBalancedCrop", "RandomFlip", "Cast",
                "RandomBrightnessAugmentation", "GaussianNoise", "Collation"} <= ops

    def test_ic_op_counts(self, table2):
        """One record per sample per op, one Collation per batch. The
        paper's Loader > RRC > RHF time ordering is a wall-clock shape:
        benchmarks/bench_table2_op_times.py asserts it, with a retry."""
        counts = {row.op: row.count for row in table2.pipelines["IC"]}
        n = SMOKE.ic_images
        assert counts == {
            "Loader": n,
            "RandomResizedCrop": n,
            "RandomHorizontalFlip": n,
            "ToTensor": n,
            "Normalize": n,
            "Collation": -(-n // SMOKE.ic_batch_size),
        }

    def test_rhf_mostly_sub_100us(self, table2):
        """Paper: 98.3% of IC RandomHorizontalFlip runs are under 100us."""
        rows = {row.op: row for row in table2.pipelines["IC"]}
        assert rows["RandomHorizontalFlip"].pct_under_100us > 50.0

    def test_sub_10ms_ops_everywhere(self, table2):
        """Takeaway 1: every pipeline has ops that sampling at 10 ms would
        miss."""
        for rows in table2.pipelines.values():
            assert any(row.pct_under_10ms > 90.0 for row in rows)

    def test_sub_100us_ops_exist(self, table2):
        for rows in table2.pipelines.values():
            assert any(row.pct_under_100us > 50.0 for row in rows)

    def test_p90_at_least_avg_for_skewed_ops(self, table2):
        rows = {row.op: row for row in table2.pipelines["IC"]}
        assert rows["Loader"].p90_ms > 0

    def test_formatting(self, table2):
        text = format_table2(table2)
        assert "IC" in text and "Loader" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def table3(self, tmp_path_factory):
        log_dir = str(tmp_path_factory.mktemp("t3logs"))
        return run_table3(profile=SMOKE, seed=2, log_dir=log_dir)

    def test_all_profilers_measured(self, table3):
        names = {row.profiler for row in table3.rows}
        assert names == {"lotus", "scalene-like", "py-spy-like", "austin-like",
                         "torch-profiler-like"}

    def test_lotus_lowest_overhead_of_heavy_tools(self, table3):
        """Paper: ~0-2% for LotusTrace. Absolute numbers are noise on a
        loaded single core (the bench measures them unloaded), so the
        test asserts the ordering that Table III establishes."""
        small = [row for row in table3.rows if row.dataset == "imagenet-small"]
        lotus = next(row for row in small if row.profiler == "lotus")
        heavy = {
            row.profiler: row.wall_overhead_pct
            for row in small
            if row.profiler in ("scalene-like", "austin-like", "torch-profiler-like")
        }
        assert all(lotus.wall_overhead_pct < value for value in heavy.values())

    def test_scalene_heaviest(self, table3):
        small = [row for row in table3.rows if row.dataset == "imagenet-small"]
        scalene = next(row for row in small if row.profiler == "scalene-like")
        assert scalene.wall_overhead_pct == max(r.wall_overhead_pct for r in small)

    def test_austin_storage_dominates(self, table3):
        small = {row.profiler: row for row in table3.rows if row.dataset == "imagenet-small"}
        assert small["austin-like"].log_bytes > 10 * small["lotus"].log_bytes

    def test_torch_profiler_oom_on_full(self, table3):
        oom_row = next(
            row for row in table3.rows
            if row.profiler == "torch-profiler-like" and row.dataset == "imagenet-full"
        )
        assert oom_row.oom

    def test_formatting(self, table3):
        text = format_table3(table3)
        assert "OOM" in text and "lotus" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def table4(self, tmp_path_factory):
        return run_table4(
            profile=SMOKE, seed=3, log_dir=str(tmp_path_factory.mktemp("t4logs"))
        )

    def test_matches_paper_matrix(self, table4):
        expected = {
            "lotus": dict(Epoch=True, Batch=True, Async=True, Wait=True, Delay=True),
            "scalene-like": dict(Epoch=False, Batch=False, Async=False,
                                 Wait=False, Delay=False),
            "py-spy-like": dict(Epoch=True, Batch=False, Async=False,
                                Wait=False, Delay=False),
            "austin-like": dict(Epoch=True, Batch=False, Async=False,
                                Wait=False, Delay=False),
            "torch-profiler-like": dict(Epoch=False, Batch=False, Async=False,
                                        Wait=True, Delay=False),
        }
        for profiler, columns in expected.items():
            for column, value in columns.items():
                assert table4.supports(profiler, column) == value, (profiler, column)

    def test_lotus_uniquely_complete(self, table4):
        complete = [
            row.profiler for row in table4.rows if all(row.supports.values())
        ]
        assert complete == ["lotus"]

    def test_formatting(self, table4):
        assert "lotus" in format_table4(table4)
