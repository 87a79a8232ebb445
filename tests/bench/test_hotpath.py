"""Hot-path wall-clock bench: smoke run, phase merging, gates."""

import json

import pytest

from repro.bench.hotpath import (_reference_lru, compute_speedups,
                                 main, merge_phase, run_hotpath_bench)
from repro.sgx.cache import CacheModel

from tests.core.test_open_call_counts import _calls
from tests.sgx.reference_lru import ReferenceLru


class TestComputeSpeedups:

    def test_ratios(self):
        baseline = {"aes_ctr_mbps": 1.0, "cmac_mbps": 2.0,
                    "envelopes_per_s": 100.0,
                    "matcher_events_per_s": 50.0}
        current = {"aes_ctr_mbps": 4.0, "cmac_mbps": 3.0,
                   "envelopes_per_s": 250.0,
                   "matcher_events_per_s": 50.0}
        speedups = compute_speedups(baseline, current)
        assert speedups["aes_ctr"] == pytest.approx(4.0)
        assert speedups["cmac"] == pytest.approx(1.5)
        assert speedups["envelopes"] == pytest.approx(2.5)
        assert speedups["matcher"] == pytest.approx(1.0)

    def test_missing_or_zero_fields_skipped(self):
        speedups = compute_speedups({"aes_ctr_mbps": 0.0},
                                    {"aes_ctr_mbps": 4.0})
        assert speedups == {}


class TestMergePhase:

    def test_baseline_then_current(self):
        record = merge_phase({}, "baseline", {"aes_ctr_mbps": 1.0},
                             reduced=True)
        assert record["baseline"]["measurements"]["aes_ctr_mbps"] == 1.0
        assert record["baseline"]["reduced"] is True
        assert "speedup" not in record
        record = merge_phase(record, "current", {"aes_ctr_mbps": 3.5},
                             reduced=True)
        # The baseline phase survives the second merge untouched.
        assert record["baseline"]["measurements"]["aes_ctr_mbps"] == 1.0
        assert record["speedup"]["aes_ctr"] == pytest.approx(3.5)

    def test_rerecording_current_updates_speedup(self):
        record = merge_phase({}, "baseline", {"aes_ctr_mbps": 1.0},
                             reduced=True)
        record = merge_phase(record, "current", {"aes_ctr_mbps": 2.0},
                             reduced=True)
        record = merge_phase(record, "current", {"aes_ctr_mbps": 5.0},
                             reduced=True)
        assert record["speedup"]["aes_ctr"] == pytest.approx(5.0)


def test_a_thrashing_batch_makes_no_python_call_per_line():
    """The LLC model's miss path, clock-free: a batch that misses on
    every line makes the same Python-level calls for 4,096 lines as
    for 8,192, where a per-line entry point (one ``access_line`` each)
    makes one or more per line."""
    def thrash_calls(n_lines):
        cache = CacheModel(64 * 1024)
        sweep = list(range(1 << 30, (1 << 30) + n_lines))
        cache.access_lines(sweep)           # places the chunks
        misses = cache.misses
        calls = _calls(cache.access_lines, sweep)
        assert cache.misses - misses == n_lines
        return calls

    assert thrash_calls(4096) == thrash_calls(8192)


def test_the_gates_reference_is_the_pinned_lru():
    """The per-line LRU the ``--require-llc-thrash-vs-reference`` gate
    times agrees, access by access, with the one the differential
    suite pins."""
    gate = _reference_lru(4 * 1024)
    pinned = ReferenceLru(4 * 1024)
    lines = [(i * 7919) % 300 for i in range(2000)]
    assert [gate(line) for line in lines] \
        == [pinned.access_line(line) for line in lines]


class TestSmokeRun:

    @pytest.fixture(scope="class")
    def measurements(self):
        return run_hotpath_bench(reduced=True)

    def test_all_metrics_present_and_positive(self, measurements):
        for key in ("aes_ctr_mbps", "reference_aes_ctr_mbps",
                    "cmac_mbps", "envelopes_per_s",
                    "matcher_events_per_s", "aes_vs_reference",
                    "llc_batch_ns_per_line", "llc_line_ns_per_line",
                    "llc_array_batch_ns_per_line",
                    "llc_thrash_ns_per_line",
                    "llc_ref_thrash_ns_per_line"):
            assert measurements[key] > 0, key

    def test_optimized_aes_beats_pinned_reference(self, measurements):
        """The in-process gate the CI smoke job enforces."""
        assert measurements["aes_vs_reference"] > 1.5

    def test_batched_llc_accounting_beats_per_line_calls(
            self, measurements):
        """The LLC-model gate of the CI smoke job. The miss path's
        wall-clock bound (at most 1.3x the per-line ``OrderedDict``
        LRU it replaced) is CI's ``--require-llc-thrash-vs-reference``
        gate; tier-1 holds it by a call count
        (``test_a_thrashing_batch_makes_no_python_call_per_line``)."""
        assert measurements["llc_batch_vs_line"] > 2.0
        assert measurements["llc_thrash_vs_reference"] == \
            pytest.approx(measurements["llc_thrash_ns_per_line"]
                          / measurements[
                              "llc_ref_thrash_ns_per_line"],
                          rel=1e-2)

    def test_workload_sizes_recorded(self, measurements):
        assert measurements["n_envelopes"] > 0
        assert measurements["matcher_events"] > 0

    def test_matcher_backends_reported_side_by_side(self,
                                                    measurements):
        """The default run carries both legs, their ratio, and a
        headline that follows the columnar (batch) path."""
        assert measurements["matcher_events_per_s_forest"] > 0
        assert measurements["matcher_events_per_s_columnar"] > 0
        assert measurements["matcher_columnar_vs_forest"] == \
            pytest.approx(
                measurements["matcher_events_per_s_columnar"]
                / measurements["matcher_events_per_s_forest"],
                rel=0.01)
        assert measurements["matcher_events_per_s"] == \
            measurements["matcher_events_per_s_columnar"]

    def test_single_backend_runs_omit_the_other_leg(self):
        forest_only = run_hotpath_bench(reduced=True,
                                        matcher_backend="forest")
        assert forest_only["matcher_events_per_s"] == \
            forest_only["matcher_events_per_s_forest"]
        assert "matcher_events_per_s_columnar" not in forest_only
        assert "matcher_columnar_vs_forest" not in forest_only
        columnar_only = run_hotpath_bench(reduced=True,
                                          matcher_backend="columnar")
        assert columnar_only["matcher_events_per_s"] == \
            columnar_only["matcher_events_per_s_columnar"]
        assert "matcher_events_per_s_forest" not in columnar_only


class TestMainGates:

    def test_record_flow_and_gate_failure(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        assert main(["--reduced", "--record", "--phase", "baseline",
                     "--out", out_dir]) == 0
        record = json.load(open(tmp_path / "BENCH_hotpath.json"))
        assert "baseline" in record and "meta" in record
        # Re-record as current: speedup block appears, ~1x on same code.
        assert main(["--reduced", "--record", "--phase", "current",
                     "--out", out_dir]) == 0
        record = json.load(open(tmp_path / "BENCH_hotpath.json"))
        assert "speedup" in record
        assert record["speedup"]["aes_ctr"] == pytest.approx(
            1.0, rel=0.6)
        capsys.readouterr()
        # Impossible requirements must fail the run, each by name.
        assert main(["--reduced", "--record", "--phase", "current",
                     "--out", out_dir,
                     "--require-aes-speedup", "1e9",
                     "--require-llc-batch-vs-line", "1e9"]) == 1
        err = capsys.readouterr().err
        assert "FAIL: aes_ctr speedup" in err
        assert "FAIL: batched LLC accounting" in err

    def test_matcher_speedup_gate(self, tmp_path, capsys):
        """The in-process columnar-vs-forest gate: impossible bars
        fail, and a forest-only run (no ratio) fails too rather than
        silently passing."""
        out_dir = str(tmp_path)
        assert main(["--reduced", "--out", out_dir,
                     "--require-matcher-speedup", "1e9"]) == 1
        assert "columnar matcher" in capsys.readouterr().err
        assert main(["--reduced", "--out", out_dir,
                     "--matcher-backend", "forest",
                     "--require-matcher-speedup", "2.0"]) == 1
        capsys.readouterr()
