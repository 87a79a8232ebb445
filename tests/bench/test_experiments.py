"""Experiment-runner tests (small sizes; shapes, not absolute values)."""

import pytest

from repro.bench.experiments import (AspeSweep, FilterSweep, bench_spec,
                                     default_subscription_sizes,
                                     measure_aspe, measure_filter,
                                     run_containment_ablation, run_fig8,
                                     run_prefilter_ablation)
from repro.bench.report import format_series_chart, format_table
from repro.sgx.cpu import scaled_spec
from repro.workloads.datasets import build_dataset

SIZES = [100, 400]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("e100a1", 400, 6)


class TestFilterSweep:

    def test_monotone_sizes_enforced(self, dataset):
        sweep = FilterSweep(dataset, enclave=False, encrypted=False)
        sweep.measure_at(200)
        with pytest.raises(ValueError):
            sweep.measure_at(100)

    def test_configuration_labels(self, dataset):
        for enclave, encrypted, label in (
                (False, False, "out-plain"), (False, True, "out-aes"),
                (True, False, "in-plain"), (True, True, "in-aes")):
            m = measure_filter(dataset, 100, enclave, encrypted)
            assert m.configuration == label
            assert m.mean_us > 0
            assert m.n_subscriptions == 100

    def test_encryption_overhead_small_and_positive(self, dataset):
        plain = measure_filter(dataset, 300, False, False)
        encrypted = measure_filter(dataset, 300, False, True)
        overhead = encrypted.mean_us - plain.mean_us
        assert 0 < overhead < 5.0  # paper: below 5 us

    def test_enclave_adds_transition_cost(self, dataset):
        out = measure_filter(dataset, 100, False, False)
        inside = measure_filter(dataset, 100, True, False)
        assert inside.mean_us > out.mean_us

    def test_more_subscriptions_cost_more(self, dataset):
        sweep = FilterSweep(dataset, enclave=False, encrypted=False)
        small = sweep.measure_at(100).mean_us
        large = sweep.measure_at(400).mean_us
        assert large > small


class TestAspeSweep:

    def test_aspe_slower_than_scbr(self, dataset):
        aspe = measure_aspe(dataset, 400)
        scbr = measure_filter(dataset, 400, False, True)
        assert aspe.mean_us > 2 * scbr.mean_us

    def test_aspe_configuration_label(self, dataset):
        assert measure_aspe(dataset, 50).configuration == "out-aspe"
        assert measure_aspe(dataset, 50, prefilter=True).configuration \
            == "out-aspe-bloom"

    def test_aspe_and_scbr_agree_on_matches(self, dataset):
        """Same match decisions through both engines."""
        import numpy as np
        from repro.aspe.matcher import AspeMatcher
        from repro.aspe.scheme import AspeScheme
        from repro.matching.poset import ContainmentForest
        scheme = AspeScheme(dataset.aspe_schema(),
                            np.random.default_rng(5), fill_missing=True)
        matcher = AspeMatcher(scheme.cipher_dimension)
        forest = ContainmentForest()
        for index, sub in enumerate(dataset.subscriptions[:150]):
            matcher.register(scheme.encrypt_subscription(sub), index)
            forest.insert(sub, index)
        for event in dataset.publications:
            encrypted = matcher.match(
                scheme.encrypt_event(event)).subscribers
            assert encrypted == forest.match(event)


class TestFig8:

    def test_paging_cliff(self):
        # An eighth of bench_spec(epc=True)'s EPC and a seventh of the
        # registrations cross the same cliff in a tenth of the time.
        spec = scaled_spec(llc_bytes=bench_spec().llc_bytes,
                           epc_bytes=768 * 1024,
                           epc_reserved_bytes=256 * 1024)
        points = run_fig8(n_subscriptions=2000, bin_count=10, spec=spec)
        assert len(points) >= 5
        below = [p for p in points
                 if p.db_bytes < spec.epc_usable_bytes * 0.8]
        above = [p for p in points
                 if p.db_bytes > spec.epc_usable_bytes * 1.2]
        assert below and above, "sweep must straddle the EPC limit"
        # Before the limit the ratio is modest; past it, it explodes.
        calm = max(p.time_ratio_in_out for p in below)
        stormy = max(p.time_ratio_in_out for p in above)
        assert stormy > 3 * calm
        assert max(p.fault_ratio_in_out for p in above) > 50


class TestAblations:

    def test_containment_beats_naive(self):
        rows = run_containment_ablation(sizes=[200, 800],
                                        n_publications=6)
        for _size, poset_us, naive_us in rows:
            assert naive_us > poset_us

    def test_prefilter_helps_equality_workload(self):
        rows = run_prefilter_ablation(sizes=[200, 800],
                                      n_publications=4)
        _size, plain, bloom = rows[-1]
        assert bloom < plain


class TestReporting:

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]],
                            title="T")
        assert "T" in text and "2.50" in text and "0.001" in text

    def test_format_chart(self):
        chart = format_series_chart(
            {"s1": {1: 10, 10: 100}, "s2": {1: 20, 10: 50}})
        assert "legend" in chart and "o=s1" in chart

    def test_empty_chart(self):
        assert format_series_chart({}) == "(no data)"

    def test_default_sizes_ascending(self):
        sizes = default_subscription_sizes()
        assert sizes == sorted(sizes)


class TestEnvironmentToggles:

    def test_full_mode_env(self, monkeypatch):
        from repro.bench import experiments
        monkeypatch.setenv("SCBR_BENCH_FULL", "1")
        assert experiments.full_mode()
        assert max(experiments.default_subscription_sizes()) == 100000
        monkeypatch.delenv("SCBR_BENCH_FULL")
        assert not experiments.full_mode()
        assert max(experiments.default_subscription_sizes()) == 10000

    def test_bench_spec_geometry(self):
        from repro.bench.experiments import (BENCH_EPC_BYTES,
                                             BENCH_EPC_RESERVED,
                                             BENCH_LLC_BYTES,
                                             bench_spec)
        spec = bench_spec()
        assert spec.llc_bytes == BENCH_LLC_BYTES
        epc_spec = bench_spec(epc=True)
        assert epc_spec.epc_usable_bytes == \
            BENCH_EPC_BYTES - BENCH_EPC_RESERVED
