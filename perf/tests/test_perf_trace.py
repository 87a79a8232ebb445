"""The tracer: self-time arithmetic and leaving no wrapper behind."""

import pytest

from perf.harness import WORKLOADS, run_workload
from perf.trace import PROBES, Tracer, _resolve, ledger, self_times


def _span(node_id, name, parent, start, end):
    return {"id": node_id, "name": name, "parent": parent, "chunk": 0,
            "start_ns": start, "end_ns": end}


def _aggregate(node_id, name, parent, count, total):
    return {"id": node_id, "name": name, "parent": parent, "chunk": 0,
            "count": count, "total_ns": total}


# root 0..1000
#   a 100..600        nested: holds b and an aggregate
#     b 150..250
#     sends x5 = 200  aggregate under a, with its own aggregate child
#       copy x5 = 50
#   c 700..900        sibling of a
TREE = [
    _span(0, "driver:chunk", -1, 0, 1000),
    _span(1, "layer.x:a", 0, 100, 600),
    _span(2, "layer.y:b", 1, 150, 250),
    _aggregate(3, "layer.z:send", 1, 5, 200),
    _aggregate(4, "layer.y:copy", 3, 5, 50),
    _span(5, "layer.x:c", 0, 700, 900),
    _span(6, "driver:setup", -1, 2000, 2300),
    _aggregate(7, "layer.x:a", 6, 3, 120),
]


def test_self_time_is_duration_minus_children():
    own = self_times(TREE)
    assert own == {0: 1000 - 500 - 200, 1: 500 - 100 - 200, 2: 100,
                   3: 200 - 50, 4: 50, 5: 200, 6: 300 - 120, 7: 120}


def test_self_times_partition_the_traced_wall():
    rows = ledger(TREE, "chunk")
    assert rows["driver:chunk"]["total_ns"] == 1000
    assert sum(row["self_ns"] for row in rows.values()) == 1000
    assert rows["layer.x:a"] == {"calls": 1, "self_ns": 200,
                                 "total_ns": 500, "weight": 0}
    assert rows["layer.z:send"]["calls"] == 5
    # the set-up trace is a separate ledger
    setup = ledger(TREE, "setup")
    assert set(setup) == {"driver:setup", "layer.x:a"}
    assert setup["layer.x:a"]["calls"] == 3


def _installed():
    return [vars(_resolve(probe.owner))[probe.attribute]
            for probe in PROBES]


def test_install_nests_spans_and_uninstall_restores():
    from repro.crypto.cmac import AesCmac
    from repro.crypto.ctr import AesCtr

    originals = _installed()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(now is not was
                   for now, was in zip(_installed(), originals))
        with pytest.raises(RuntimeError):
            tracer.install()
        mac = AesCmac(bytes(16))
        tag = mac.tag(b"frame")
        tracer.begin("chunk", 7)
        for _ in range(3):
            mac.verify(b"frame", tag)
        AesCtr(bytes(16)).process_many([(bytes(16), b"abcdef")])
        tracer.end()
    finally:
        tracer.uninstall()
    assert all(now is was for now, was in zip(_installed(), originals))

    nodes = tracer.export()
    root, verify, ctr = nodes
    assert root["name"] == "driver:chunk" and root["parent"] == -1
    assert verify == {"id": 1, "name": "crypto.cmac:AesCmac.verify",
                      "parent": 0, "chunk": 7, "count": 3,
                      "total_ns": verify["total_ns"], "weight": 15}
    assert ctr["name"] == "crypto.ctr:AesCtr.process_many"
    assert ctr["parent"] == 0 and ctr["weight"] == 6
    assert root["start_ns"] <= ctr["start_ns"] <= ctr["end_ns"] \
        <= root["end_ns"]


def test_traced_run_leaves_the_program_untouched():
    originals = _installed()
    record = run_workload(WORKLOADS["churn_mix"], seed=3, seconds=0.5,
                          trace=True, quick=True)
    assert all(now is was for now, was in zip(_installed(), originals))
    assert record["failed"] == 0

    layers = record["per_layer"]
    rows = ledger(record["trace_nodes"], "chunk")
    wall_ms = rows["driver:chunk"]["total_ns"] / 1e6
    self_ms = sum(value for name, value in layers.items()
                  if name.endswith(".self_ms")
                  and not name.startswith("setup."))
    assert self_ms == pytest.approx(wall_ms, rel=0.01)
    assert layers["driver.self_ms"] <= 0.05 * wall_ms
    # churn: every batch of 32 is followed by writes, so the plane
    # recompiles at least once per 64 publications
    assert layers["matching.columnar.compiles"] * 64 \
        >= record["publications"] * 0.25
    assert layers["recovery.wal.appends"] > 0
    assert layers["crypto.rsa.calls"] > 0
