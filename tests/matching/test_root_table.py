"""The root table's covering compares against the loops they replaced.

``ContainmentForest.insert`` finds the first root that covers a new
subscription, and the roots a new root adopts, with one vectorised
compare over a table of the roots; ``_siblings_of`` asks the same table
which roots to search below. ``reference_insert.py`` keeps the
``Subscription.covers`` loops these replaced, verbatim, and this file
holds the table to them over random scripts of inserts, re-inserts and
removals — node for node and child order for child order, and, with an
arena, on every ``touch_many`` argument sequence — on the whole value
domain: open, closed and equal bounds, ``!=`` sets, string pins and
wildcards, bare ``exists``, ``> -inf`` / ``< inf``, ints from ±2**53
to ±2**70 and past the largest float, ``-0.0`` and ``±inf``. A second
property holds every verdict the table does give to
``Subscription.covers`` itself, and the last test holds
``check_invariants`` to catching a table, or the visit order derived
from it, that is not what a fresh ``add`` of every root yields.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import MatchingError
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from tests.matching.reference_insert import ReferenceForest, forest_shape
from tests.matching.test_columnar_exact import ANCHORS, WIDE, numbers, \
    strings
from tests.matching.test_forest_walk_recorded import RecordingArena

INF = math.inf
ATTRIBUTES = "abc"

lower_ops = st.sampled_from((Op.GE, Op.GT))
upper_ops = st.sampled_from((Op.LE, Op.LT))


@st.composite
def predicates_on(draw, attribute, focus):
    """One constraint's predicates, of every shape ``covers`` knows."""
    number = numbers(focus)
    shape = draw(st.sampled_from(
        ("eq", "eq", "lower", "upper", "both", "both", "both", "pinned",
         "ne", "ne_only", "exists", "open_universal", "string", "string",
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
    if shape == "pinned":       # an equality spelled as a closed range
        value = draw(number)
        return [Predicate(attribute, Op.GE, value),
                Predicate(attribute, Op.LE, value)]
    if shape == "ne":
        return [Predicate(attribute, Op.GE, draw(number))] + [
            Predicate(attribute, Op.NE, value)
            for value in draw(st.lists(number, min_size=1, max_size=2))]
    if shape == "ne_only":
        return [Predicate(attribute, Op.NE, draw(number))]
    if shape == "exists":
        return [Predicate(attribute, Op.EXISTS)]
    if shape == "open_universal":
        return [draw(st.sampled_from((Predicate(attribute, Op.GT, -INF),
                                      Predicate(attribute, Op.LT, INF))))]
    if shape == "string":
        return [Predicate(attribute, Op.EQ, draw(strings))]
    return [Predicate(attribute, Op.NE, draw(strings))]     # a wildcard


@st.composite
def subscriptions(draw, focus):
    """One to three constraints over a, b, c."""
    attributes = sorted(draw(st.sets(st.sampled_from(ATTRIBUTES),
                                     min_size=1)))
    subscription = Subscription(
        [predicate for attribute in attributes
         for predicate in draw(predicates_on(attribute, focus))])
    assume(subscription.is_satisfiable())
    return subscription


@st.composite
def scripts(draw):
    """``[("insert", subscription, subscriber) | ("again", index,
    subscriber) | ("remove", index)]`` around one anchor: inserts,
    re-inserts of a registered subscription (its own subscriber or a
    new one) and removals, interleaved."""
    focus = draw(st.sampled_from(ANCHORS) | st.sampled_from(WIDE))
    insert = st.tuples(st.just("insert"), subscriptions(focus),
                       st.integers(0, 2))
    again = st.tuples(st.just("again"), st.integers(0, 1000),
                      st.integers(0, 3))
    remove = st.tuples(st.just("remove"), st.integers(0, 1000))
    return draw(st.lists(st.one_of(insert, insert, insert, again, remove,
                                   remove),
                         min_size=4, max_size=40))


def recording_pair():
    """A forest and a reference forest, each on an arena of its own
    that keeps every ``touch_many`` batch."""
    forests = []
    for kind in (ContainmentForest, ReferenceForest):
        memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
        forest = kind(arena=RecordingArena(memory, enclave=True))
        forest.record_changes(10 ** 6)
        forests.append(forest)
    return forests


def trace(forest):
    """The arena's batches, and node addresses, relative to its base:
    the two arenas of a pair sit at different bases."""
    arena = forest.arena
    base_line, base_page = (
        part[0] for part in arena.memory.span(arena.base, 1))
    return [((np.asarray(lines, dtype=np.int64) - base_line).tolist(),
             (np.asarray(pages, dtype=np.int64) - base_page).tolist())
            for lines, pages in arena.batches]


def shape(forest):
    base = forest.arena.base
    return forest_shape(forest, lambda address: address - base)


def changes(forest):
    return [(node.subscription.key(), created)
            for node, created in forest.changes]


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_table_writes_are_the_replaced_loops(script):
    forest, reference = recording_pair()
    registered = []
    for action, *arguments in script:
        if action == "again":
            if not registered:
                continue
            subscription, _subscriber = registered[
                arguments[0] % len(registered)]
            arguments = [subscription, arguments[1]]
            action = "insert"
        if action == "insert":
            nodes = [each.insert(*arguments)
                     for each in (forest, reference)]
            assert nodes[0].subscription.key() \
                == nodes[1].subscription.key()
            if tuple(arguments) not in registered:
                registered.append(tuple(arguments))
        elif registered:
            pair = registered.pop(arguments[0] % len(registered))
            assert forest.remove_subscriber(*pair)
            assert reference.remove_subscriber(*pair)
        assert shape(forest) == shape(reference)
        assert trace(forest) == trace(reference)
        assert changes(forest) == changes(reference)
        forest.check_invariants()
    for subscription, subscriber in registered:
        assert forest.remove_subscriber(subscription, subscriber)
        assert reference.remove_subscriber(subscription, subscriber)
        assert shape(forest) == shape(reference)
    assert trace(forest) == trace(reference)
    assert forest.roots == [] and forest._table.rows == {}
    forest.check_invariants()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ANCHORS) | st.sampled_from(WIDE), st.data())
def test_every_verdict_is_covers(focus, data):
    """Rows the table decides say what ``Subscription.covers`` says, in
    both directions; it leaves undecided only rows it cannot place."""
    forest = ContainmentForest()
    for subscriber, subscription in enumerate(data.draw(st.lists(
            subscriptions(focus), min_size=1, max_size=12))):
        forest.insert(subscription, subscriber)
    table = forest._table
    for probe in data.draw(st.lists(subscriptions(focus), min_size=1,
                                    max_size=4)):
        covering, covered, undecided = table.compare(probe)
        covered = covered()
        for node, row in table.rows.items():
            if undecided[row]:
                continue
            root = node.subscription
            assert covering[row] == root.covers(probe), (root, probe)
            assert covered[row] == probe.covers(root), (root, probe)
        free = [row for row, node in enumerate(table.nodes) if node is None]
        assert not np.any(covering[free] | covered[free] | undecided[free])


def subscription(*predicates):
    return Subscription(list(predicates))


@pytest.mark.parametrize("outer, inner", [
    # equal closed floats; an open bound against the next float closed
    (subscription(Predicate("x", Op.LT, 1)),
     subscription(Predicate("x", Op.LE, math.nextafter(1, 0)))),
    (subscription(Predicate("x", Op.GE, 1)),
     subscription(Predicate("x", Op.GT, 1))),
    (subscription(Predicate("x", Op.GT, 1)),
     subscription(Predicate("x", Op.GE, math.nextafter(1, 2)))),
    (subscription(Predicate("x", Op.LE, 0.0)),
     subscription(Predicate("x", Op.LT, -0.0))),
    (subscription(Predicate("x", Op.GT, -INF)),
     subscription(Predicate("x", Op.EQ, "HAL"))),
    (subscription(Predicate("x", Op.EXISTS)),
     subscription(Predicate("x", Op.GT, -INF))),
    (subscription(Predicate("x", Op.EXISTS)),
     subscription(Predicate("x", Op.EQ, -INF))),
    (subscription(Predicate("x", Op.GE, 2 ** 60)),
     subscription(Predicate("x", Op.GT, 2 ** 60))),
])
def test_adjacent_and_open_bounds_cover_one_way(outer, inner):
    """Each pair nests one way only; a table with either as its one
    root answers both directions as ``covers`` does."""
    assert outer.covers(inner) and not inner.covers(outer)
    for root, probe, expected in ((outer, inner, (True, False)),
                                  (inner, outer, (False, True))):
        forest = ContainmentForest()
        forest.insert(root, 0)
        covering, covered, undecided = forest._table.compare(probe)
        assert (bool(covering[0]), bool(covered()[0])) == expected
        assert not undecided[0]


def test_rows_it_cannot_place_fall_back_to_covers():
    forest = ContainmentForest()
    plan = [subscription(Predicate("x", Op.NE, 3)),              # !=
            subscription(Predicate("y", Op.NE, "HAL")),          # wildcard
            subscription(Predicate("z", Op.GT, 2 ** 60 + 1)),    # wide int
            subscription(Predicate("w", Op.LE, 10 ** 400)),      # past float
            subscription(Predicate("v", Op.LE, 5))]
    for subscriber, each in enumerate(plan):
        forest.insert(each, subscriber)
    table = forest._table
    assert table.inexact.tolist()[:5] == [True] * 4 + [False]
    _covering, _covered, undecided = table.compare(
        subscription(Predicate("v", Op.LE, 4)))
    assert undecided.tolist()[:5] == [True] * 4 + [False]
    # an inexact subscription leaves every root to covers
    _covering, _covered, undecided = table.compare(
        subscription(Predicate("v", Op.NE, 4)))
    assert undecided.tolist()[:5] == [True] * 5


def churned_forest():
    """Roots adopted, hoisted and removed: rows reused out of order,
    and rows left free."""
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    forest = ContainmentForest(arena=memory.new_arena(enclave=True))
    plan = [{"b": (0, 10)}, {"a": (2, 8)}, {"c": "HAL", "a": (1, 2)},
            {"a": (0, 10)}, {"b": (3, 4)}, {"c": ("!=", "IBM")},
            {"d": (0, 1)}, {"d": (5, 6)}, {"e": "HAL"}]
    for subscriber, spec in enumerate(plan):
        forest.insert(Subscription.parse(spec), subscriber)
    for subscriber in (0, 6, 7):
        assert forest.remove_subscriber(
            Subscription.parse(plan[subscriber]), subscriber)
    return forest


def test_rows_are_reused_and_the_order_follows_the_roots():
    forest = churned_forest()
    table = forest._table
    forest.check_invariants()
    rows = [table.rows[root] for root in forest.roots]
    assert rows != sorted(rows)
    assert table.order[:len(rows)].tolist() == rows
    assert len(table.free) == len(table.nodes) - len(forest.roots) > 0


def damage_a_pin(table):
    """Another code in the one pinned cell (``{"e": "HAL"}``)."""
    (position, row), = np.argwhere(table.keys[4] >= 0)
    table.keys[4, position, row] += 1


@pytest.mark.parametrize("damage", [
    lambda table: table.keys.__setitem__((0, 0, 0), -1.0),
    lambda table: table.lo.__setitem__((0, 0), -1.0),
    lambda table: table.line_lengths.__setitem__((0, 1), 1),
    lambda table: table.pages.__setitem__((0, 0), 7),
    lambda table: setattr(table, "hi", table.hi.astype("float32")),
    lambda table: table.closure.__setitem__(0, True),
    damage_a_pin,
    lambda table: table.visits().masks.__setitem__(
        frozenset("a"), (None, 0)),
    lambda table: table.visits().lines.numbers.__setitem__((0, 0), 7),
    lambda table: table.attr.__setitem__((0, 0), 5),
    lambda table: table.order.__setitem__(
        slice(0, 2), table.order[1::-1].copy()),
    lambda table: table.inexact.__setitem__(0, True),
    lambda table: table.free.append(0),
    lambda table: table.rows.popitem(),
    lambda table: table.pins.clear(),
    lambda table: table.attr.__setitem__(
        (table.free[0], 0), 0),
    lambda table: table.keys.__setitem__(
        (5, 0, table.free[0]), 0.0),
    lambda table: table.order.__setitem__(0, table.free[0]),
    lambda table: table.live.__setitem__(table.free[0], True),
])
def test_check_invariants_rejects_a_table_that_is_not_a_fresh_add(
        damage):
    forest = churned_forest()
    forest.check_invariants()
    damage(forest._table)
    with pytest.raises(MatchingError):
        forest.check_invariants()
