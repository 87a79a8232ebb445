"""The bound arrays are exact over the whole value domain.

The plane compares a batch's values against float64 bound columns, but
headers and predicates may carry Python ints float64 cannot hold
(``core/messages.py`` encodes them at any length), and an open bound
is stored as the adjacent float. This file draws what the other
suites never do — ints from ±2**53 to ±2**70 and past the largest
float, floats adjacent to a bound on either side, ``±inf``, ``-0.0``,
subnormals, int-vs-float equal keys — as bounds *and* as event values,
and holds the plane to the linear-scan oracle (``NaiveMatcher`` →
``Constraint.admits``, exact Python comparisons). It also pins that a
batch is nothing but its events: ``match_batch`` ≡ one ``match`` per
event ≡ the same events in any order, on match sets and on the
``(visited, consulted)`` work counters, for batches that mix numeric,
string and missing values in one column.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.events import Event
from repro.matching.naive import NaiveMatcher
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem

INF = math.inf

#: Anchors the drawn numbers cluster around, so that bounds and values
#: collide, touch and interleave: small keys, the edge of float64's
#: exact ints, spacings of 2, 256 and 2**18, an int past the largest
#: float, the zeros, a subnormal, the infinities.
ANCHORS = (0, -0.0, 2, 2.0, 2.5, 5e-324, 2 ** 53, -2 ** 53, 2 ** 60,
           float(2 ** 60), -2 ** 60, 2 ** 70, 10 ** 400, -10 ** 400,
           INF, -INF)
WIDE = (2 ** 53, -2 ** 53, 2 ** 60, float(2 ** 60), -2 ** 60, 2 ** 70)


def numbers(focus):
    """Mostly ``focus``, the ints next to it and the floats next to it
    on either side — so that the bounds and values of one example
    touch and interleave; now and then another anchor."""
    near = [focus] * 4
    if focus not in (INF, -INF):
        if focus == int(focus):
            near += [int(focus) + step for step in (-2, -1, 1, 2)]
        try:
            below = above = float(focus)
        except OverflowError:
            pass
        else:
            for _ in range(2):
                below = math.nextafter(below, -INF)
                above = math.nextafter(above, INF)
                near += [below, above]
    return st.sampled_from(near * 3 + list(ANCHORS))


strings = st.sampled_from(("HAL", "IBM", ""))
lower_ops = st.sampled_from((Op.GE, Op.GT))
upper_ops = st.sampled_from((Op.LE, Op.LT))


@st.composite
def predicates_on(draw, attribute, focus):
    number = numbers(focus)
    shape = draw(st.sampled_from(
        ("eq", "lower", "lower", "upper", "upper", "both", "both",
         "both", "ne", "exists", "string", "string_ne")))
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
    attributes = sorted(draw(st.sets(st.sampled_from("ab"), min_size=1)))
    subscription = Subscription(
        [predicate for attribute in attributes
         for predicate in draw(predicates_on(attribute, focus))])
    assume(subscription.is_satisfiable())
    # "> -inf" / "< inf" alone: ``admits`` takes the open bound
    # literally, the compiled closures (forest and plane alike) call
    # the interval universal — a disagreement older than the plane.
    assume(not any(constraint.is_universal_interval()
                   and (constraint.lo_open or constraint.hi_open)
                   for _attribute, constraint in subscription.items))
    return subscription


@st.composite
def events(draw, focus):
    """Numeric, string or missing, per attribute."""
    header = {}
    for attribute in "ab":
        kind = draw(st.sampled_from(("number",) * 4
                                    + ("string", "missing")))
        if kind == "number":
            header[attribute] = draw(numbers(focus))
        elif kind == "string":
            header[attribute] = draw(strings)
    return Event(header or {"c": 1})


def worlds(min_events):
    """``(subscriptions, events)`` drawn around one anchor — half the
    time one where adjacent floats are further apart than the ints."""
    focus = st.sampled_from(ANCHORS) | st.sampled_from(WIDE)
    return focus.flatmap(lambda focus: st.tuples(
        st.lists(subscriptions(focus), min_size=1, max_size=12),
        st.lists(events(focus), min_size=min_events, max_size=8)))


def traced_plane(registered):
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = memory.new_arena(enclave=True, name="exact")
    forest = ContainmentForest(arena=arena)
    for subscriber, subscription in enumerate(registered):
        forest.insert(subscription, subscriber)
    return forest, ColumnarMatchPlane(forest, arena=arena)


@settings(max_examples=300, deadline=None)
@given(worlds(1), st.data())
def test_plane_agrees_with_the_oracle_on_the_whole_domain(world, data):
    registered, headers = world
    forest, plane = traced_plane(registered)
    naive = NaiveMatcher()
    for subscriber, subscription in enumerate(registered):
        naive.insert(subscription, subscriber)
    expected = [naive.match(event) for event in headers]
    assert plane.match_batch(headers) == expected
    assert [plane.match(event) for event in headers] == expected
    plane.check_invariants()
    # ...and after rows left the arrays, buckets and closures in place
    gone = data.draw(st.sets(st.integers(0, len(registered) - 1)))
    for subscriber in sorted(gone):
        assert forest.remove_subscriber(registered[subscriber],
                                        subscriber)
        assert naive.remove_subscriber(registered[subscriber],
                                       subscriber)
    assert plane.match_batch(headers) \
        == [naive.match(event) for event in headers]
    plane.check_invariants()


@settings(max_examples=100, deadline=None)
@given(worlds(2), st.data())
def test_a_batch_is_its_events_in_any_order(world, data):
    registered, headers = world
    _forest, plane = traced_plane(registered)
    batch = plane.match_batch_traced(headers)
    assert plane.match_batch(headers) == batch[0]
    singles = [plane.match_batch_traced([event]) for event in headers]
    assert batch == tuple([single[column][0] for single in singles]
                          for column in range(3))
    order = data.draw(st.permutations(range(len(headers))))
    shuffled = plane.match_batch_traced([headers[i] for i in order])
    assert shuffled == tuple([column[i] for i in order]
                             for column in batch)
    assert all(type(count) is int
               for column in batch[1:] for count in column)


def bound_rows(plane, attribute):
    """``(live rows of the table's region of the bound store, residual
    closures)``."""
    plane.ensure_compiled()
    table = plane._table_of[attribute]
    return int(plane._bounds.counts[table.index]), len(table.residual)


def test_value_between_adjacent_floats():
    """2**60 + 1 lies strictly between two float64s; bounds at 2**60
    and 2**60 + 256 (exact) must see it on the right side."""
    low, high = 2 ** 60, 2 ** 60 + 256
    registered = [
        Subscription.of(Predicate("x", Op.GE, low),
                        Predicate("x", Op.LE, high)),       # 0
        Subscription.of(Predicate("x", Op.GT, low),
                        Predicate("x", Op.LT, high)),       # 1
        Subscription.of(Predicate("x", Op.GE, low + 1),
                        Predicate("x", Op.LE, low + 2)),    # 2
        Subscription.of(Predicate("x", Op.LT, low + 1)),    # 3
        Subscription.of(Predicate("x", Op.GT, low + 1)),    # 4
        Subscription.of(Predicate("x", Op.LE, low)),        # 5
        Subscription.of(Predicate("x", Op.GE, high)),       # 6
    ]
    _forest, plane = traced_plane(registered)
    matches = plane.match_batch(
        [Event({"x": value}) for value in
         (low, low + 1, low + 2, float(low), high, 10 ** 400,
          -10 ** 400)])
    assert matches == [{0, 3, 5}, {0, 1, 2}, {0, 1, 2, 4}, {0, 3, 5},
                       {0, 4, 6}, {4, 6}, {3, 5}]
    # closed float64-exact bounds are rows of the store; open ones this far
    # out, and ints float64 cannot hold, are closures
    assert bound_rows(plane, "x") == (3, 4)
    plane.check_invariants()


def test_open_bounds_fold_only_where_no_int_fits_between_floats():
    inside = 2 ** 53 - 1
    registered = [
        Subscription.of(Predicate("x", Op.GT, inside)),
        Subscription.of(Predicate("x", Op.LT, -inside)),
        Subscription.of(Predicate("x", Op.GT, 2 ** 53)),
        Subscription.of(Predicate("x", Op.LT, -2 ** 53)),
        Subscription.of(Predicate("x", Op.GT, 0.5),
                        Predicate("x", Op.LT, INF)),
    ]
    _forest, plane = traced_plane(registered)
    assert bound_rows(plane, "x") == (2, 3)
    values = (inside, 2 ** 53, 2 ** 53 + 1, -inside, -2 ** 53,
              -2 ** 53 - 1, INF, -INF, 0.5, math.nextafter(0.5, INF))
    assert plane.match_batch([Event({"x": value}) for value in values]) \
        == [{4}, {0, 4}, {0, 2, 4}, set(), {1}, {1, 3}, {0, 2},
            {1, 3}, set(), {4}]
