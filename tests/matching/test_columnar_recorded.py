"""The plane's answers and work counters, as recorded before PR 23.

PR 23 replaced the plane's three sorted bound lists (``lower``,
``upper``, ``ranges``) and their per-row loops by one set of bound
arrays compared against a whole batch at once. The plane-vs-plane
oracles (caught-up ≡ fresh compile) cannot see a counting rule both
sides share, so this file pins the new code against the *deleted* one:
``fixtures/columnar_recorded.json`` was written by this module's
``__main__`` at the parent commit (``PYTHONPATH=<parent>/src python
tests/matching/test_columnar_recorded.py``), and the test replays the
same fixed subscriptions and events and compares match sets, the
``(visited, consulted)`` counters per event and the memory model's
counters.

The subscription set exercises all six placements of
``_AttributeTable`` — equality buckets, ``>=`` / ``>``, ``<=`` / ``<``,
two-sided intervals with every open/closed combination and ties at
equal keys, bare ``exists``, ``!=`` and string residuals, ``< inf`` /
``> -inf`` — and the events sit on, just below and just above the
bounds, at ``±inf``, carry strings on numeric attributes and miss
attributes. All numbers are float64-exact: where a bound is not, the
new plane routes it to the residual closures on purpose, and
``test_columnar_exact.py`` covers that domain against the oracle.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem

FIXTURE = Path(__file__).parent / "fixtures" / "columnar_recorded.json"
BATCH_SIZES = (1, 7, 32)
KEYS = (1, 2, 2.5, 3, 5)
INF = math.inf


def shapes():
    """Single-attribute predicate lists, as ``attribute -> [Predicate]``
    builders: every placement, every open/closed combination."""
    built = []

    def shape(*pairs):
        built.append(lambda attribute: [
            Predicate(attribute, op, *value) for op, *value in pairs])

    for key in KEYS:
        shape((Op.EQ, key))
        for op in (Op.GE, Op.GT, Op.LE, Op.LT):
            shape((op, key))
    shape((Op.EQ, 2.0))                 # int-vs-float equal keys
    for index, lo in enumerate(KEYS):
        for hi in KEYS[index + 1:]:
            for lower in (Op.GE, Op.GT):
                for upper in (Op.LE, Op.LT):
                    shape((lower, lo), (upper, hi))
    shape((Op.RANGE, (2, 3)))
    shape((Op.EXISTS,))
    shape((Op.NE, 2))
    shape((Op.NE, "HAL"))
    shape((Op.GE, 1), (Op.NE, 2.5))     # interval with an exclusion
    shape((Op.EQ, "HAL"))
    shape((Op.EQ, "IBM"))
    shape((Op.LT, INF))
    shape((Op.GT, -INF))
    shape((Op.GE, 2), (Op.LT, INF))
    shape((Op.GT, -INF), (Op.LE, 3))
    shape((Op.GE, -INF), (Op.LE, 2.5))
    shape((Op.GE, 2.5), (Op.LE, INF))
    return built


def registrations():
    """``[(subscription, subscriber)]``: ≈ 300 distinct subscriptions
    over one to three attributes, plus a few shared nodes."""
    built = shapes()
    n = len(built)
    symbols = ("HAL", "IBM", "GE")
    plan = []
    for i in range(n):
        plan.append(built[i]("p"))
        plan.append(built[i]("q") + built[(i * 7 + 3) % n]("r"))
        plan.append(built[i]("r") + built[(i * 11 + 5) % n]("p")
                    + [Predicate("s", Op.EQ, symbols[i % 3])])
        plan.append(built[(i * 13 + 1) % n]("q")
                    + [Predicate("s", Op.EXISTS) if i % 2
                       else Predicate("s", Op.NE, symbols[i % 3])])
    pairs = [(Subscription(predicates), subscriber)
             for subscriber, predicates in enumerate(plan)]
    # a second subscriber on every 17th node: slots name nodes, not
    # subscribers
    pairs += [(subscription, 10_000 + subscriber)
              for subscription, subscriber in pairs[::17]]
    return pairs


def events():
    """64 headers over p, q, r, s: on / next to the bounds, the
    infinities, strings on numeric attributes, missing attributes."""
    values = []
    for key in KEYS:
        values += [key, math.nextafter(key, -INF),
                   math.nextafter(key, INF)]
    values += [0, 6, -0.0, 2.0, 1e300, -1e300, INF, -INF, 5e-324,
               "HAL", "x", None]
    n = len(values)
    strings = ("HAL", "IBM", "GE", 2, None, "")
    built = []
    for i in range(64):
        header = {"p": values[i % n], "q": values[(i * 5 + 2) % n],
                  "r": values[(i * 3 + 1) % n], "s": strings[i % 6]}
        header = {name: value for name, value in header.items()
                  if value is not None}
        built.append(Event(header or {"other": 1}, event_id=i))
    return built


def replay(batch_size):
    """Three passes of the 64 events in batches of ``batch_size`` —
    over the compiled set, after every tenth registration is withdrawn
    (absorbed in place), after they are registered again — as
    ``([[matches, visited, consulted] per event] per pass, counters)``.
    """
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = memory.new_arena(enclave=True, name="recorded")
    forest = ContainmentForest(arena=arena)
    plane = ColumnarMatchPlane(forest, arena=arena)
    pairs = registrations()
    for subscription, subscriber in pairs:
        forest.insert(subscription, subscriber)
    headers = events()
    passes = []

    def sweep():
        rows = []
        for start in range(0, len(headers), batch_size):
            matched, visited, consulted = plane.match_batch_traced(
                headers[start:start + batch_size])
            rows += [[sorted(subscribers), touched, tests]
                     for subscribers, touched, tests
                     in zip(matched, visited, consulted)]
        plane.check_invariants()
        passes.append(rows)

    sweep()
    churned = pairs[:300:10]
    for subscription, subscriber in churned:
        assert forest.remove_subscriber(subscription, subscriber)
    sweep()
    for subscription, subscriber in churned:
        forest.insert(subscription, subscriber)
    sweep()
    assert plane.rebuilds == 1 and plane.delta_nodes > 40
    return passes, dataclasses.asdict(memory.snapshot())


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_plane_answers_and_counts_as_recorded(recorded, batch_size):
    passes, counters = replay(batch_size)
    # the per-event record does not depend on how events are batched
    assert passes == recorded["passes"]
    assert counters == recorded["counters"][str(batch_size)]


def test_the_record_covers_what_it_claims(recorded):
    rows = [row for rows in recorded["passes"] for row in rows]
    assert len(recorded["passes"]) == 3 and len(rows) == 3 * 64
    assert any(matches for matches, _visited, _consulted in rows)
    # a pass that consults more than it satisfies: two-sided rows
    assert any(consulted > visited > 0
               for _matches, visited, consulted in rows)


if __name__ == "__main__":
    record = {"passes": None, "counters": {}}
    for size in BATCH_SIZES:
        passes, counters = replay(size)
        assert record["passes"] in (None, passes)
        record["passes"] = passes
        record["counters"][str(size)] = counters
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"recorded {FIXTURE}")
