"""Golden figure rows: the Fig. 5, 7 and 8 runners at micro geometry.

The memory model's own literals (``tests/sgx/test_golden_numbers.py``)
pin one engine on one platform; these pin what the figure runners
build around it — which index each configuration walks, which events
it walks, the order of the EENTER / AES / walk / compute / EEXIT
charges, the prefault and warm-up before the measured pass, and the
binning of the registration sweep. The literals were recorded from
commit 40ee70e, where every configuration still built its own index,
and are compared with exact equality: ``wall_us`` (a clock) is the
only field left out.

The three runs above fit their caches (no LLC miss, no EPC paging), so
two more cases pin the regimes the figures are about, recorded at the
same commit: a sweep of all four configurations on a 16 KiB LLC and a
112 KiB EPC (every line misses; the enclave index pages at 400
subscriptions) — recorded there as four one-configuration sweeps — and
Fig. 8 on a 512 KiB EPC, past its cliff.

A legitimate change to a runner's methodology re-records them —
deliberately, in the same commit, with the reason.
"""

from __future__ import annotations

import dataclasses

from repro.bench.experiments import (CONFIGURATIONS, FilterSweep,
                                     run_fig5, run_fig7, run_fig8)
from repro.sgx.cpu import scaled_spec
from repro.workloads.datasets import build_dataset

KIB = 1024

#: ``FilterMeasurement`` fields in declaration order, ``wall_us`` out:
#: workload, n_subscriptions, configuration, mean_us, llc_miss_rate,
#: epc_faults, index_bytes, nodes_visited.
FIG5 = [
    ('e100a1', 200, 'out-plain', 2.450705882352941, 0.0, 0, 79664, 185.0),
    ('e100a1', 400, 'out-plain', 4.650117647058824, 0.0, 0, 160288,
     352.4),
    ('e100a1', 200, 'out-aes', 2.994235294117647, 0.0, 0, 79664, 185.0),
    ('e100a1', 400, 'out-aes', 5.1936470588235295, 0.0, 0, 160288,
     352.4),
    ('e100a1', 200, 'in-plain', 7.156588235294119, 0.0, 0, 79664, 185.0),
    ('e100a1', 400, 'in-plain', 9.356, 0.0, 0, 160288, 352.4),
    ('e100a1', 200, 'in-aes', 7.700117647058823, 0.0, 0, 79664, 185.0),
    ('e100a1', 400, 'in-aes', 9.899529411764707, 0.0, 0, 160288, 352.4),
]

FIG7 = [
    ('e80a1', 200, 'out-aspe', 18.277058823529412, 0.0, 0, 114608, 0.0),
    ('e80a1', 200, 'in-aes', 7.572823529411766, 0.0, 0, 77648, 181.0),
    ('e80a1', 200, 'out-aes', 2.866941176470588, 0.0, 0, 77648, 181.0),
]

#: ``RegistrationPoint`` fields in declaration order.
FIG8 = [
    (130053, 3.8483795004279164, 1.0, 5.100112715744979,
     1.3252624163437825, 35, 35),
    (260106, 2.8850477085441653, 1.0, 5.64024024024024,
     1.9549902844020497, 34, 34),
    (390160, 2.3882773357070484, 1.0, 7.8816898395721955,
     3.300156862745099, 34, 34),
    (520213, 1.9773208561820355, 1.0, 13.347420269312538,
     6.750255138199863, 34, 34),
    (650266, 1.9097882385756682, 1.0, 15.67729236172079,
     8.208916593503064, 34, 34),
    (780320, 1.85542805958956, 1.0, 18.988214285714296,
     10.233872549019598, 34, 34),
]


#: ``FilterSweep(build_dataset("e100a1", 400, 4), CONFIGURATIONS,
#: MISSING_SPEC, 4)`` at 200 and 400 subscriptions, curve by curve.
MISSING_SPEC = scaled_spec(llc_bytes=16 * KIB, epc_bytes=512 * KIB,
                           epc_reserved_bytes=400 * KIB)
MISSING = [
    ('e100a1', 200, 'out-plain', 27.937941176470588, 1.0, 0, 79664, 185.0),
    ('e100a1', 400, 'out-plain', 53.101323529411765, 1.0, 0, 160288,
     352.5),
    ('e100a1', 200, 'out-aes', 28.47911764705882, 1.0, 0, 79664, 185.0),
    ('e100a1', 400, 'out-aes', 53.6425, 1.0, 0, 160288, 352.5),
    ('e100a1', 200, 'in-plain', 48.252647058823534, 1.0, 0, 79664, 185.0),
    ('e100a1', 400, 'in-plain', 1561.0101470588236, 1.0, 167, 160288,
     352.5),
    ('e100a1', 200, 'in-aes', 48.79382352941176, 1.0, 0, 79664, 185.0),
    ('e100a1', 400, 'in-aes', 1561.5513235294118, 1.0, 167, 160288,
     352.5),
]

#: ``run_fig8(n_subscriptions=2000, bin_count=6, spec=CLIFF_SPEC)``.
CLIFF_SPEC = scaled_spec(llc_bytes=256 * KIB, epc_bytes=768 * KIB,
                         epc_reserved_bytes=256 * KIB)
CLIFF = [
    (130053, 3.8483795004279164, 1.0, 5.100112715744979,
     1.3252624163437825, 35, 35),
    (260106, 2.8850477085441653, 1.0, 5.64024024024024,
     1.9549902844020497, 34, 34),
    (390160, 2.3882773357070484, 1.0, 7.8816898395721955,
     3.300156862745099, 34, 34),
    (520213, 31.065126026157493, 55.3235294117647, 209.6975265768959,
     6.750255138199863, 1881, 34),
    (650266, 215.89582196964372, 491.38235294117646, 1772.2707954345917,
     8.208916593503064, 16707, 34),
    (780320, 206.30705893059886, 586.8529411764706, 2111.320147058824,
     10.233872549019598, 19953, 34),
]


def _rows(measurements):
    rows = []
    for measurement in measurements:
        row = dataclasses.asdict(measurement)
        row.pop("wall_us", None)
        rows.append(tuple(row.values()))
    return rows


def test_fig5_rows_are_the_recorded_ones():
    assert _rows(run_fig5(sizes=[200, 400], n_publications=5)) == FIG5


def test_fig7_rows_are_the_recorded_ones():
    assert _rows(run_fig7(sizes=[200], n_publications=5,
                          workloads=["e80a1"])) == FIG7


def test_fig8_rows_are_the_recorded_ones():
    assert _rows(run_fig8(n_subscriptions=2000, bin_count=6)) == FIG8


def test_a_sweep_that_misses_and_pages_is_the_recorded_one():
    sweep = FilterSweep(build_dataset("e100a1", 400, 4), CONFIGURATIONS,
                        MISSING_SPEC, 4)
    by_size = [sweep.measure_at(size) for size in (200, 400)]
    assert _rows(row for curve in zip(*by_size) for row in curve) \
        == MISSING


def test_fig8_past_its_cliff_is_the_recorded_one():
    assert _rows(run_fig8(n_subscriptions=2000, bin_count=6,
                          spec=CLIFF_SPEC)) == CLIFF
