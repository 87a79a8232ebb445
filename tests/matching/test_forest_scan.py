"""The root table's match path against the loop it replaced.

The roots of a forest walk are one vectorised pass over the forest's
root table, which every write edits in place; before, each root was
one trip through the scalar walk. ``reference_walk.py`` keeps that
loop verbatim, and this file holds the table to it on everything a
walk yields — ``(matched, visited, evaluated)``, the exact ``(lines,
pages)`` handed to ``arena.touch_many``, ``roots_gated`` — over random
forests *written between matches*, so that visit-order arrays or gate
masks that outlive a re-parenting insert or a hoisting removal fail,
and over the whole value domain: ints from ±2**53 to ±2**70 as bounds
and as values, floats adjacent to a bound on either side, ``-0.0``,
``±inf``, strings on numeric attributes, and attributes missing at the
first, a middle or the last constraint position (where a visit
short-circuits is what ``evaluated`` and the trace prefix depend on).
One deterministic case holds a gate mask cached before a root was
inserted to the same oracle, another the visit order to being derived
once per set of roots and dropped by each write that changes it.

The last test needs no oracle and no clock: under ``sys.setprofile``,
one ``match_traced`` makes the same number of Python-level calls
against 200 and against 800 roots that do not match.
"""

import sys

import numpy as np
from hypothesis import assume, given, settings, strategies as st

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
            # answered twice from one derivation of the visits
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


def test_a_pin_the_cover_keys_do_not_hold_is_matched_by_its_closure():
    """A row with a string pin whose cover keys are not written (an
    exclusion beside the pin, or an int float64 does not hold on
    another attribute) is decided by its node's closure."""
    forest = recording_forest()
    plan = [[Predicate("s", Op.EQ, "HAL"), Predicate("s", Op.NE, "IBM")],
            [Predicate("t", Op.EQ, "HAL"), Predicate("x", Op.GT, 2 ** 60 + 1)],
            [Predicate("u", Op.EQ, "HAL")]]
    for subscriber, predicates in enumerate(plan):
        forest.insert(Subscription(predicates), subscriber)
    table = forest._table
    assert [bool(table.inexact[table.rows[root]])
            for root in forest.roots] == [True, True, False]
    for header, matched in (
            ({"s": "HAL", "t": "HAL", "x": 2 ** 61, "u": "HAL"}, {0, 1, 2}),
            ({"s": "IBM", "t": "HAL", "x": 2 ** 60 + 1, "u": "IBM"}, set())):
        event = Event(header)
        expected = reference_match_traced(forest, event)
        assert expected[0] == matched
        assert traced(forest, event) == expected
        assert forest.match(event) == matched


def test_a_new_root_is_gated_by_a_mask_cached_before_it():
    """A header shape's gate mask holds for one set of roots: a root
    inserted after the mask was cached, requiring an attribute the
    shape lacks, is cut, not visited."""
    forest = recording_forest()
    for subscriber, spec in enumerate([{"a": (0, 10)}, {"b": (0, 10)}]):
        forest.insert(Subscription.parse(spec), subscriber)
    event = Event({"a": 5})
    assert traced(forest, event) == reference_match_traced(forest, event)
    assert forest._table.visits().masks[frozenset(event.header)][1] == 1
    forest.insert(Subscription.parse({"c": (0, 10)}), 2)
    assert len(forest.roots) == 3
    expected = reference_match_traced(forest, event)
    assert expected[0] == {0} and expected[-1] == 2
    assert traced(forest, event) == expected
    forest.check_invariants()


def test_visits_are_derived_once_per_set_of_roots():
    """The first walk after a write that changed the roots derives the
    visit order; the walks after it, and writes that only file a child,
    keep it; ``check_invariants`` holds it, and its gate masks, to a
    fresh derivation."""
    forest = recording_forest()
    for subscriber, spec in enumerate(
            [{"a": (0, 10)}, {"a": (2, 8)}, {"b": (50, 60), "d": "HAL"},
             {"c": ("!=", 3)}]):
        forest.insert(Subscription.parse(spec), subscriber)
    table = forest._table
    forest.check_invariants()           # nothing derived: nothing to check
    assert table.visited is None
    event = Event({"a": 5, "b": 55, "d": "HAL"})
    forest.match_traced(event)
    forest.match_traced(Event({"a": 5}))
    visits = table.visited
    assert [table.nodes[row] for row in visits.rows.tolist()] == \
        forest.roots[::-1]
    assert len(forest.roots) == 3 and len(visits.masks) == 2
    forest.check_invariants()
    # a child leaves the roots, and so the visits, as they were
    forest.insert(Subscription.parse({"a": (3, 7)}), 8)
    assert len(forest.roots) == 3
    assert forest.match(event) == {0, 1, 2, 8}
    assert table.visited is visits
    forest.check_invariants()
    # a new root drops them, and so does a removed one; the next walk
    # derives the new set's
    for write, n_roots in (
            (lambda: forest.insert(Subscription.parse({"e": (0, 1)}), 9), 4),
            (lambda: forest.remove_subscriber(
                Subscription.parse({"c": ("!=", 3)}), 3), 3)):
        write()
        assert table.visited is None
        assert traced(forest, event) == reference_match_traced(forest, event)
        assert table.visited is not visits
        visits = table.visited
        assert len(visits.rows) == len(forest.roots) == n_roots
        forest.check_invariants()


def call_count(forest, event):
    """Python-level calls one warm ``match_traced`` makes."""
    forest.match_traced(event)          # derives the visit order
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
