"""Experiment-runner tests (small sizes; shapes, not absolute values)."""

import pytest

from repro.bench.experiments import (CONFIGURATIONS, AspeSweep,
                                     FilterSweep, bench_spec,
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
        sweep = FilterSweep(dataset, ["out-plain"])
        sweep.measure_at(200)
        with pytest.raises(ValueError):
            sweep.measure_at(100)

    def test_configuration_labels(self, dataset):
        for label in CONFIGURATIONS:
            m = measure_filter(dataset, 100, label)
            assert m.configuration == label
            assert m.mean_us > 0
            assert m.n_subscriptions == 100

    def test_unknown_configuration_rejected(self, dataset):
        with pytest.raises(ValueError):
            FilterSweep(dataset, ["in-rot13"])

    def test_one_sweep_equals_one_sweep_per_configuration(self, dataset):
        """One index paid by four platforms measures what four
        indexes, one per platform, measure (``wall_us`` aside) — on a
        geometry where the walks miss the LLC and fault the EPC."""
        spec = scaled_spec(llc_bytes=16 * 1024, epc_bytes=512 * 1024,
                           epc_reserved_bytes=400 * 1024)
        shared = FilterSweep(dataset, CONFIGURATIONS, spec, 4)
        alone = [FilterSweep(dataset, [label], spec, 4)
                 for label in CONFIGURATIONS]
        for size in SIZES:
            together = shared.measure_at(size)
            apart = [sweep.measure_at(size)[0] for sweep in alone]
            for row in together + apart:
                row.wall_us = 0.0
            assert together == apart
        assert min(row.llc_miss_rate for row in together) > 0
        assert together[-1].epc_faults > 0

    def test_encryption_overhead_small_and_positive(self, dataset):
        plain = measure_filter(dataset, 300, "out-plain")
        encrypted = measure_filter(dataset, 300, "out-aes")
        overhead = encrypted.mean_us - plain.mean_us
        assert 0 < overhead < 5.0  # paper: below 5 us

    def test_enclave_adds_transition_cost(self, dataset):
        out = measure_filter(dataset, 100, "out-plain")
        inside = measure_filter(dataset, 100, "in-plain")
        assert inside.mean_us > out.mean_us

    def test_more_subscriptions_cost_more(self, dataset):
        sweep = FilterSweep(dataset, ["out-plain"])
        small, = sweep.measure_at(100)
        large, = sweep.measure_at(400)
        assert large.mean_us > small.mean_us

    def test_each_configuration_pays_at_its_own_base(self, dataset):
        """The enclave target's EPC holds exactly the pages of its own
        arena's extent: the replayed walks were moved to its base."""
        sweep = FilterSweep(dataset, ["out-plain", "in-plain"],
                            n_publications=3)
        sweep.measure_at(200)
        inside = sweep.targets[1]
        page = sweep.spec.page_bytes
        first = inside.base // page
        last = (inside.base + sweep.arena.allocated_bytes - 1) // page
        epc = inside.memory.epc
        assert epc.is_resident(first) and epc.is_resident(last)
        assert epc.resident_pages == last - first + 1

    def test_rows_follow_the_configurations(self, dataset):
        sweep = FilterSweep(dataset, ["in-aes", "out-plain"],
                            n_publications=2)
        assert [m.configuration for m in sweep.measure_at(50)] == \
            ["in-aes", "out-plain"]


class TestAspeSweep:

    def test_aspe_slower_than_scbr(self, dataset):
        aspe = measure_aspe(dataset, 400)
        scbr = measure_filter(dataset, 400, "out-aes")
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
