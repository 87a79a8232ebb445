"""The compiled root scan against the loop it replaced.

Since PR 24 the roots of a forest walk are one vectorised pass over
arrays compiled from ``ContainmentForest.roots``; before, each root
was one trip through the scalar walk. ``reference_walk.py`` keeps that
loop verbatim, and this file holds the scan to it on everything a walk
yields — ``(matched, visited, evaluated)``, the exact ``(lines,
pages)`` handed to ``arena.touch_many``, ``roots_gated`` — over random
forests *written between matches*, so that a scan that outlives a
re-parenting insert or a hoisting removal fails, and over the whole
value domain: ints from ±2**53 to ±2**70 as bounds and as values,
floats adjacent to a bound on either side, ``-0.0``, ``±inf``, strings
on numeric attributes, and attributes missing at the first, a middle
or the last constraint position (where a visit short-circuits is what
``evaluated`` and the trace prefix depend on).

The last test needs no oracle and no clock: under ``sys.setprofile``,
one ``match_traced`` makes the same number of Python-level calls
against 200 and against 800 roots that do not match.
"""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.stats import MatchCounters
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from tests.matching.reference_walk import reference_match_traced
from tests.matching.test_columnar_exact import (ANCHORS, WIDE, numbers,
                                                strings)
from tests.matching.test_forest_walk_recorded import RecordingArena
from tests.sgx.test_lru_differential import assert_python_counters

ATTRIBUTES = "abcd"


def recording_forest(root_gate=True):
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = RecordingArena(memory, enclave=True, name="scan")
    return ContainmentForest(arena=arena, root_gate=root_gate,
                             counters=MatchCounters())


def traced(forest, event):
    """``match_traced`` plus what it handed the arena (as lists) and
    how many roots it reports gated; asserts one batch of two int64
    arrays, counts that are Python ints, and memory counters that stay
    Python ints and floats after the array batch."""
    arena, counters = forest.arena, forest.counters
    arena.batches.clear()
    gated_before = counters.roots_gated
    matched, visited, evaluated = forest.match_traced(event)
    (lines, pages), = arena.batches
    assert lines.dtype == pages.dtype == np.int64
    assert type(visited) is int and type(evaluated) is int
    assert_python_counters(arena.memory)
    return (matched, visited, evaluated, lines.tolist(), pages.tolist(),
            counters.roots_gated - gated_before)


lower_ops = st.sampled_from((Op.GE, Op.GE, Op.GT))
upper_ops = st.sampled_from((Op.LE, Op.LE, Op.LT))


@st.composite
def predicates_on(draw, attribute, focus):
    """One constraint's predicates: mostly the shapes the scan folds
    into its arrays (closed and open intervals, equalities, string
    equalities), now and then one it leaves to the closure."""
    number = numbers(focus)
    shape = draw(st.sampled_from(
        ("eq", "eq", "lower", "lower", "upper", "upper", "both", "both",
         "both", "both", "string", "string", "ne", "exists",
         "string_ne")))
    if shape == "eq":
        return [Predicate(attribute, Op.EQ, draw(number))]
    if shape == "lower":
        return [Predicate(attribute, draw(lower_ops), draw(number))]
    if shape == "upper":
        return [Predicate(attribute, draw(upper_ops), draw(number))]
    if shape == "both":
        lo, hi = sorted((draw(number), draw(number)))
        return [Predicate(attribute, draw(lower_ops), lo),
                Predicate(attribute, draw(upper_ops), hi)]
    if shape == "ne":
        return [Predicate(attribute, Op.GE, draw(number)),
                Predicate(attribute, Op.NE, draw(number))]
    if shape == "exists":
        return [Predicate(attribute, Op.EXISTS)]
    if shape == "string":
        return [Predicate(attribute, Op.EQ, draw(strings))]
    return [Predicate(attribute, Op.NE, draw(strings))]


@st.composite
def subscriptions(draw, focus):
    """One to four constraints over a, b, c, d."""
    attributes = sorted(draw(st.sets(st.sampled_from(ATTRIBUTES),
                                     min_size=1)))
    subscription = Subscription(
        [predicate for attribute in attributes
         for predicate in draw(predicates_on(attribute, focus))])
    assume(subscription.is_satisfiable())
    return subscription


@st.composite
def events(draw, focus):
    """Numeric, string or missing, per attribute — so a visit can stop
    at any constraint position."""
    header = {}
    for attribute in ATTRIBUTES:
        kind = draw(st.sampled_from(("number",) * 6
                                    + ("string", "missing")))
        if kind == "number":
            header[attribute] = draw(numbers(focus))
        elif kind == "string":
            header[attribute] = draw(strings)
    return Event(header or {"e": 1})


@st.composite
def scripts(draw):
    """``[("insert", subscription, subscriber) | ("remove", index) |
    ("match", event)]`` around one anchor: a forest's worth of inserts,
    then writes and matches interleaved."""
    focus = draw(st.sampled_from(ANCHORS) | st.sampled_from(WIDE))
    insert = st.tuples(st.just("insert"), subscriptions(focus),
                       st.integers(0, 3))
    match = st.tuples(st.just("match"), events(focus))
    remove = st.tuples(st.just("remove"), st.integers(0, 1000))
    return draw(st.lists(insert, min_size=4, max_size=16)) + draw(
        st.lists(st.one_of(match, match, match, insert, remove),
                 min_size=4, max_size=24))


@settings(max_examples=300, deadline=None)
@given(scripts(), st.booleans())
def test_scan_is_the_replaced_loop_between_writes(script, root_gate):
    forest = recording_forest(root_gate)
    live = []
    for action, *arguments in script:
        if action == "insert":
            forest.insert(*arguments)
            if arguments not in live:
                live.append(arguments)
        elif action == "remove":
            if live:
                subscription, subscriber = live.pop(
                    arguments[0] % len(live))
                assert forest.remove_subscriber(subscription, subscriber)
        else:
            event, = arguments
            expected = reference_match_traced(forest, event)
            assert traced(forest, event) == expected
            assert forest.match(event) == expected[0]
            # answered twice from one compiled scan
            assert traced(forest, event) == expected
        forest.check_invariants()


def test_empty_forest_scans_nothing():
    forest = recording_forest()
    event = Event({"a": 1})
    assert forest.match(event) == set()
    assert traced(forest, event) == (set(), 0, 0, [], [], 0)
    forest.check_invariants()


def test_subtrees_follow_their_own_root():
    """Two matched roots with subtrees between roots that fail: each
    subtree's reads go directly after its root's."""
    forest = recording_forest()
    plan = [{"a": (0, 10)}, {"a": (2, 8)}, {"a": (3, 7), "b": 1},
            {"b": (50, 60)},
            {"c": (0, 10)}, {"c": (1, 9)},
            {"d": "HAL"}]
    for subscriber, spec in enumerate(plan):
        forest.insert(Subscription.parse(spec), subscriber)
    assert len(forest.roots) == 4
    event = Event({"a": 5, "b": 1, "c": 5, "d": "IBM"})
    expected = reference_match_traced(forest, event)
    assert expected[0] == {0, 1, 2, 4, 5} and expected[1] == 7
    assert traced(forest, event) == expected


def test_value_between_adjacent_floats_is_not_rounded():
    """2**60 + 1 rounds to 2**60; the scan must not let it pass
    ``<= 2**60`` nor fail ``> 2**60``."""
    forest = recording_forest()
    low = 2 ** 60
    plan = [[Predicate("x", Op.LE, low)],
            [Predicate("x", Op.GE, low), Predicate("x", Op.LE, low + 256)],
            [Predicate("x", Op.GT, low)],
            [Predicate("x", Op.EQ, low + 1)],
            [Predicate("x", Op.EQ, low)]]
    for subscriber, predicates in enumerate(plan):
        forest.insert(Subscription(predicates), subscriber)
    for value, matched in ((low, {0, 1, 4}), (low + 1, {1, 2, 3}),
                           (float(low), {0, 1, 4}), (low - 1, {0}),
                           (10 ** 400, {2}), (-10 ** 400, {0})):
        event = Event({"x": value})
        expected = reference_match_traced(forest, event)
        assert expected[0] == matched
        assert traced(forest, event) == expected
        assert forest.match(event) == matched


def small_forest():
    forest = recording_forest()
    for subscriber, spec in enumerate(
            [{"a": (0, 10)}, {"a": (2, 8)}, {"b": (50, 60), "d": "HAL"},
             {"c": ("!=", 3)}]):
        forest.insert(Subscription.parse(spec), subscriber)
    return forest


def test_check_invariants_holds_a_compiled_scan_to_a_fresh_compile():
    event = Event({"a": 5, "b": 55, "d": "HAL"})
    forest = small_forest()
    forest.check_invariants()           # nothing compiled: nothing to check
    assert forest._scan is None
    forest.match_traced(event)
    forest.match_traced(Event({"a": 5}))
    scan = forest._scan
    assert scan.generation == forest.generation
    assert len(scan.nodes) == len(forest.roots) == 3
    assert len(scan.masks) == 2 and len(scan.closures) == 1
    forest.check_invariants()
    # a write drops it; the next match compiles the new generation's
    forest.insert(Subscription.parse({"a": (0, 20)}), 9)
    assert forest._scan is None
    forest.match(event)
    assert forest._scan is not scan
    assert forest._scan.generation == forest.generation
    forest.check_invariants()


@pytest.mark.parametrize("damage", [
    lambda scan: scan.lo.__setitem__((0, 0), -1.0),
    lambda scan: scan.attr.__setitem__((1, 0), 0),
    lambda scan: scan.lines.lengths.__setitem__((0, 1), 1),
    lambda scan: scan.pages.lengths.__setitem__((2, 0), 1),
    lambda scan: scan.lines.numbers.__setitem__((1, 0), 7),
    lambda scan: scan.nodes.reverse(),
    lambda scan: setattr(scan, "hi", scan.hi.astype("float32")),
    lambda scan: setattr(scan, "generation", scan.generation - 1),
    lambda scan: scan.closures.clear(),
    lambda scan: scan.pins.clear(),
    lambda scan: scan.masks.__setitem__(
        frozenset("a"), (None, 0)),
])
def test_check_invariants_rejects_a_scan_that_is_not_a_fresh_compile(
        damage):
    forest = small_forest()
    forest.match_traced(Event({"a": 5, "b": 55, "d": "HAL"}))
    forest.check_invariants()
    damage(forest._scan)
    with pytest.raises(MatchingError):
        forest.check_invariants()


def call_count(forest, event):
    """Python-level calls one warm ``match_traced`` makes."""
    forest.match_traced(event)          # compiles the scan
    calls = 0

    def profiler(_frame, kind, _argument):
        nonlocal calls
        calls += kind == "call"

    sys.setprofile(profiler)
    try:
        forest.match_traced(event)
    finally:
        sys.setprofile(None)
    return calls


def test_roots_that_fail_cost_no_python_call():
    """Counts beat clocks: the same walk over 200 and over 800 roots
    that do not match makes the same Python-level calls (the replaced
    loop made two more per root: the node's closure and its first
    constraint's test)."""
    event = Event({"a": 5, "b": 1, "c": 7, "s": "HAL"})
    counts = []
    for n_failing in (200, 800):
        forest = recording_forest()
        plan = [{"a": (0, 10)}, {"a": (2, 8)}, {"a": (3, 7), "b": 1},
                {"c": (0, 10), "s": "HAL"}, {"c": (1, 9), "s": "HAL"}]
        plan += [{"b": (10 + i, 10.5 + i), "c": (0, i)}
                 for i in range(n_failing)]
        for subscriber, spec in enumerate(plan):
            forest.insert(Subscription.parse(spec), subscriber)
        assert len(forest.roots) == n_failing + 2
        matched, visited, _evaluated = forest.match_traced(event)
        assert matched == {0, 1, 2, 3, 4} and visited == n_failing + 5
        counts.append(call_count(forest, event))
    assert counts[0] == counts[1]
