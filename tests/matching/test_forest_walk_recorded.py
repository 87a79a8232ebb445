"""The forest walk's answers, counts and memory trace, as recorded
before PR 24.

PR 24 replaced the root level of the walk — one closure call, one dict
probe and two list extends per root — by one pass over arrays, today
the forest's root table. An array-vs-array oracle cannot see a counting
rule both sides share, so this file pins the array pass against the
loop it *replaced*:
``fixtures/forest_walk_recorded.json`` was written by this module's
``__main__`` at the parent commit (``PYTHONPATH=<parent>/src python
tests/matching/test_forest_walk_recorded.py``), and the test replays
the same fixed subscriptions, events and churn and compares, per event,
the sorted match set, ``(visited, evaluated)`` and the exact ``(lines,
pages)`` handed to ``arena.touch_many``, plus the memory model's
counters after every pass and the forest's ``MatchCounters``.

The trace is recorded as its two lengths and a SHA-256 over the line
and page numbers relative to the arena's base (an arena's base depends
on how many arenas the process made before it; the model's set index
and page residency do not): the full sequences, ≈ 900 integers for
each of 384 walks, would make a megabyte of fixture. On a mismatch
``tests/matching/reference_walk.py`` — the replaced loop, verbatim —
produces the expected sequence to diff against.

The ≈ 300 subscriptions mix one to four constraints of every shape the
root table has to route: closed, open and half-open intervals, numeric and
string equalities (``== 50`` and ``== 50.0`` share a node), ``!=``,
bare ``exists``, ``< inf`` / ``> -inf``, int bounds past 2**53; they
nest thirteen deep, several subscribers share nodes, and some roots
require attributes (``z``, ``w``) that no or few events carry, so the
gate cuts them; 83 roots over 295 nodes. The 64 events sit on, just
below and just above the bounds, at ``±inf`` and ``-0.0``, carry ints
float64 cannot hold and strings on numeric attributes, and miss
attributes.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.stats import MatchCounters, forest_stats
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemoryArena, MemorySubsystem

FIXTURE = Path(__file__).parent / "fixtures" / "forest_walk_recorded.json"
INF = math.inf
BIG = 2 ** 53
HUGE = 2 ** 60
SYMBOLS = ("HAL", "IBM", "GE")


def _kept(numbers):
    """A copy of a ``touch_many`` argument: an array stays an array
    (its dtype is part of what was handed over), anything else becomes
    a list."""
    return numbers.copy() if type(numbers) is np.ndarray else list(numbers)


class RecordingArena(MemoryArena):
    """An arena that keeps what each ``touch_many`` was handed."""

    def __init__(self, memory, enclave, name=""):
        super().__init__(memory, enclave=enclave, name=name)
        self.batches = []

    def touch_many(self, lines, pages):
        self.batches.append((_kept(lines), _kept(pages)))
        super().touch_many(lines, pages)


def shapes():
    """Single-attribute predicate lists, as ``attribute -> [Predicate]``
    builders."""
    built = []

    def shape(*pairs):
        built.append(lambda attribute: [
            Predicate(attribute, op, *value) for op, *value in pairs])

    # a covering chain: each range contains the next
    for lo, hi in ((0, 100), (10, 90), (20, 80), (30, 70), (40, 60),
                   (45, 55)):
        shape((Op.RANGE, (lo, hi)))
    shape((Op.GT, 10), (Op.LT, 90))
    shape((Op.GE, 10), (Op.LT, 90))
    shape((Op.GT, 10), (Op.LE, 90))
    shape((Op.GT, 45), (Op.LT, 55.5))
    for key in (50, 50.0, 20, 2.5):     # 50 and 50.0: one node
        shape((Op.EQ, key))
    for op in (Op.GE, Op.GT, Op.LE, Op.LT):
        shape((op, 20))
        shape((op, 80))
    shape((Op.NE, 50))
    shape((Op.GE, 10), (Op.NE, 50))
    shape((Op.EXISTS,))
    shape((Op.LT, INF))
    shape((Op.GT, -INF))
    shape((Op.GE, 20), (Op.LT, INF))
    shape((Op.GE, -INF), (Op.LE, 80))
    # bounds float64 cannot carry, and ones at the edge it can
    shape((Op.GE, BIG + 1))
    shape((Op.LE, HUGE + 1))
    shape((Op.EQ, HUGE + 1))
    shape((Op.EQ, HUGE))
    shape((Op.GT, BIG), (Op.LT, 2 * BIG + 1))
    shape((Op.GT, BIG))
    shape((Op.GE, -HUGE - 1), (Op.LE, HUGE + 1))
    shape((Op.RANGE, (BIG - 1, BIG)))
    return built


def strings(i):
    """The ``s`` constraint of the ``i``-th conjunction."""
    symbol = SYMBOLS[i % 3]
    return [(Op.EQ, symbol), (Op.EQ, symbol), (Op.NE, symbol),
            (Op.EXISTS,)][i % 4]


def registrations():
    """``[(subscription, subscriber)]``: ≈ 300 distinct subscriptions
    of one to four constraints, plus second subscribers on some."""
    built = shapes()
    n = len(built)
    plan = []
    for i in range(n):
        op, *value = strings(i)
        on_s = [Predicate("s", op, *value)]
        a, b, c, d = (built[(i * step + shift) % n]
                      for step, shift in ((1, 0), (7, 3), (11, 5), (13, 7)))
        # single-attribute subscriptions on p only: a few roots over a
        # deep tree, the two-attribute ones nesting under them
        plan.append(a("p"))
        plan.append(a("p") + b("q"))
        # an equality on u keeps these from covering one another: many
        # roots of two to four constraints, each over a short chain
        tag = [Predicate("u", Op.EQ, i % 16)]
        if i % 3 == 0:
            plan.append(a("q") + tag)
        plan.append(a("q") + b("r") + tag)
        plan.append(a("q") + b("r") + on_s + tag)
        if i % 3:
            plan.append(a("q") + b("r") + c("t") + tag)
        plan.append(c("r") + d("t") + on_s)
        # roots the gate cuts: no event carries z, few carry w
        plan.append(d("r") + [Predicate("z", Op.EQ, i % 20)])
        plan.append(b("t") + [Predicate("w", Op.GE, i % 5)])
    plan.append([Predicate("z", Op.EQ, 1)])
    pairs = [(Subscription(predicates), subscriber)
             for subscriber, predicates in enumerate(plan)]
    # a second subscriber on every 17th registration
    pairs += [(subscription, 10_000 + subscriber)
              for subscription, subscriber in pairs[::17]]
    return pairs


def events():
    """64 headers over p, q, r, t, s, u (and sometimes w)."""
    values = []
    for key in (0, 10, 20, 45, 50, 55.5, 80, 90, 100, 2.5):
        values += [key, math.nextafter(key, -INF),
                   math.nextafter(key, INF)]
    values += [-0.0, 50.0, INF, -INF, 1e300, -1e300, 5e-324,
               BIG - 1, BIG, BIG + 1, BIG + 2, 2 * BIG, 2 * BIG + 1,
               HUGE, HUGE + 1, HUGE + 2, float(HUGE), -HUGE - 1,
               -HUGE - 2, 2 ** 70, 10 ** 400, -10 ** 400,
               "HAL", "x", None, None]
    n = len(values)
    on_s = ("HAL", "IBM", "GE", 2, None, "")
    built = []
    for i in range(64):
        header = {"p": values[i % n], "q": values[(i * 5 + 2) % n],
                  "r": values[(i * 3 + 1) % n],
                  "t": values[(i * 7 + 4) % n], "s": on_s[i % 6],
                  "u": i % 16 if i % 11 else None,
                  "w": i % 7 if i % 9 == 0 else None}
        header = {name: value for name, value in header.items()
                  if value is not None}
        built.append(Event(header or {"other": 1}, event_id=i))
    return built


def replay(root_gate):
    """Three passes of the 64 events through ``match_traced`` — over
    the forest as inserted, after 30 removals, after the same 30 are
    inserted again — as ``{"passes": [[row per event] per pass],
    "memory": [counters after each pass], "counters": MatchCounters,
    "shape": [roots, nodes, depth]}``; a row is ``[matched, visited,
    evaluated, n_lines, n_pages, digest]``."""
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = RecordingArena(memory, enclave=True, name="recorded")
    base_line, base_page = (part[0] for part in memory.span(arena.base, 1))
    forest = ContainmentForest(arena=arena, root_gate=root_gate,
                               counters=MatchCounters())
    pairs = registrations()
    for subscription, subscriber in pairs:
        forest.insert(subscription, subscriber)
    stats = forest_stats(forest)
    shape = [stats.n_roots, stats.n_nodes, stats.max_depth]
    headers = events()
    passes = []
    snapshots = []

    def sweep():
        rows = []
        for event in headers:
            arena.batches.clear()
            matched, visited, evaluated = forest.match_traced(event)
            (lines, pages), = arena.batches     # one batch per walk
            # the trace is handed over as int64 arrays, the counts as
            # Python ints
            assert lines.dtype == pages.dtype == np.int64
            assert type(visited) is int and type(evaluated) is int
            lines, pages = lines.tolist(), pages.tolist()
            digest = hashlib.sha256(repr((
                [line - base_line for line in lines],
                [page - base_page for page in pages])).encode())
            rows.append([sorted(matched), visited, evaluated,
                         len(lines), len(pages),
                         digest.hexdigest()[:32]])
        forest.check_invariants()
        passes.append(rows)
        snapshots.append(dataclasses.asdict(memory.snapshot()))

    sweep()
    churned = pairs[3:303:10]
    assert len(churned) == 30
    for subscription, subscriber in churned:
        assert forest.remove_subscriber(subscription, subscriber)
    sweep()
    for subscription, subscriber in reversed(churned):
        forest.insert(subscription, subscriber)
    sweep()
    return {"passes": passes, "memory": snapshots, "shape": shape,
            "counters": forest.counters.as_dict()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("root_gate", (True, False))
def test_walk_answers_counts_and_trace_as_recorded(recorded, root_gate):
    replayed = replay(root_gate)
    expected = recorded["gated" if root_gate else "ungated"]
    for replayed_rows, expected_rows in zip(replayed["passes"],
                                            expected["passes"]):
        for index, (row, expected_row) in enumerate(
                zip(replayed_rows, expected_rows)):
            assert row == expected_row, f"event {index}"
    assert replayed == expected


def test_the_record_covers_what_it_claims(recorded):
    gated, ungated = recorded["gated"], recorded["ungated"]
    n_roots, n_nodes, depth = gated["shape"]
    assert n_nodes >= 280 and depth >= 3 and n_roots >= 40
    for side in (gated, ungated):
        assert len(side["passes"]) == 3
        assert all(len(rows) == 64 for rows in side["passes"])
    rows = [row for rows in gated["passes"] for row in rows]
    assert sum(1 for row in rows if row[0]) > len(rows) // 2
    # visits that go past their first constraint, and descents
    assert any(evaluated > visited
               for _m, visited, evaluated, *_trace in rows)
    assert any(visited > n_roots for _m, visited, *_rest in rows)
    # the gate cut roots, and cutting them changed counts and trace but
    # not one answer
    assert gated["counters"]["roots_gated"] > 0
    assert ungated["counters"]["roots_gated"] == 0
    assert gated["counters"]["nodes_visited"] \
        < ungated["counters"]["nodes_visited"]
    for gated_rows, ungated_rows in zip(gated["passes"],
                                        ungated["passes"]):
        assert [row[0] for row in gated_rows] \
            == [row[0] for row in ungated_rows]
        assert gated_rows != ungated_rows
    # the churn moved the walk
    assert gated["passes"][0] != gated["passes"][1]


if __name__ == "__main__":
    record = {"gated": replay(True), "ungated": replay(False)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"recorded {FIXTURE}")
