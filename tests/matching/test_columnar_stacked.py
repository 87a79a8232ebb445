"""One pass over every bound row of the plane ≡ one pass per table.

The columnar plane keeps every table's bound constraints as rows of
one store that registrations edit in place, and meets a batch with one
pass over all of them. ``reference_columnar.py`` keeps the pass it
replaced — one ``probe`` per attribute table over that table's own
arrays — verbatim. Here Hypothesis churns a traced plane (inserts,
removals, nodes that come and go between two batches, tables emptied
and created again, subscriptions of up to six bound rows, pins,
``exists``, closures, strings and ints past ``±2**53``, attributes
some events lack) and holds every batch of 1 to 40 events to the
reference on the same plane: the match sets, the
per-event ``visited`` / ``consulted`` counters and the exact run list
handed to the memory model; to a plane compiled afresh; and to the
linear-scan oracle. ``check_invariants`` checks the store after every
catch-up.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.events import Event, EventColumns
from repro.matching.naive import NaiveMatcher
from repro.matching.poset import ContainmentForest
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemoryArena, MemorySubsystem

from .reference_columnar import reference_evaluate
from .test_columnar_exact import ANCHORS, WIDE, numbers, predicates_on

ATTRIBUTES = "abcdefg"


class RecordingArena(MemoryArena):
    """An enclave arena that keeps every run list it is handed."""

    def __init__(self, memory: MemorySubsystem) -> None:
        super().__init__(memory, enclave=True, name="stacked")
        self.runs = []

    def touch_runs(self, runs) -> None:
        self.runs.append([tuple(run) for run in runs])
        super().touch_runs(runs)


@st.composite
def subscriptions(draw, focus):
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                               max_size=6, unique=True))
    subscription = Subscription(
        [predicate for attribute in sorted(attributes)
         for predicate in draw(predicates_on(attribute, focus))])
    assume(subscription.is_satisfiable())
    assume(not any(constraint.is_universal_interval()
                   and (constraint.lo_open or constraint.hi_open)
                   for _attribute, constraint in subscription.items))
    return subscription


@st.composite
def events(draw, focus):
    header = {}
    for attribute in ATTRIBUTES:
        kind = draw(st.sampled_from(("number",) * 3
                                    + ("string", "missing", "missing")))
        if kind == "number":
            header[attribute] = draw(numbers(focus))
        elif kind == "string":
            header[attribute] = draw(st.sampled_from(("HAL", "IBM", "")))
    return Event(header or {"z": 1})


def churn(focus):
    write = st.one_of(
        st.tuples(st.just("insert"), subscriptions(focus)),
        st.tuples(st.just("remove"), st.integers(0, 10 ** 6)),
        st.tuples(st.just("transient"), subscriptions(focus)))
    match = st.tuples(st.just("match"),
                      st.lists(events(focus), min_size=1, max_size=40))
    return st.tuples(
        st.lists(subscriptions(focus), min_size=4, max_size=16),
        st.lists(st.one_of(write, write, match), min_size=1,
                 max_size=24))


def worlds():
    focus = st.sampled_from(ANCHORS) | st.sampled_from(WIDE)
    return focus.flatmap(churn)


def check_batch(forest, plane, arena, naive, headers):
    batch = EventColumns.of(headers)
    *expected, runs = reference_evaluate(plane, batch, traced=True)
    plane.check_invariants()
    arena.runs.clear()
    got = plane.match_batch_traced(batch)
    assert list(got) == expected
    assert arena.runs == [runs]
    assert all(type(count) is int
               for column in got[1:] for count in column)
    fresh = ColumnarMatchPlane(forest)
    fresh._compile()
    assert list(fresh._evaluate(batch, traced=False)) == expected
    assert got[0] == [naive.match(event) for event in headers]


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_the_stacked_pass_is_the_per_table_pass(world):
    initial, operations = world
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = RecordingArena(memory)
    forest = ContainmentForest(arena=arena)
    plane = ColumnarMatchPlane(forest, arena=arena)
    naive = NaiveMatcher()
    live = []
    for subscription in initial:
        live.append((subscription, len(live)))
        forest.insert(subscription, len(live) - 1)
        naive.insert(subscription, len(live) - 1)
    plane.ensure_compiled()
    issued = len(live)
    for operation in operations:
        kind, argument = operation
        if kind == "insert":
            live.append((argument, issued))
            forest.insert(argument, issued)
            naive.insert(argument, issued)
            issued += 1
        elif kind == "remove" and live:
            subscription, subscriber = live.pop(argument % len(live))
            assert forest.remove_subscriber(subscription, subscriber)
            assert naive.remove_subscriber(subscription, subscriber)
        elif kind == "transient":
            # created and removed before the plane catches up
            forest.insert(argument, "transient")
            assert forest.remove_subscriber(argument, "transient")
        elif kind == "match":
            check_batch(forest, plane, arena, naive, argument)
    check_batch(forest, plane, arena, naive,
                [Event({attribute: 2 for attribute in ATTRIBUTES})])


def test_a_table_emptied_and_created_again():
    """The last entry of a table leaves, the table and its region go;
    a later write brings the attribute back as a new table, at the end
    of the run list."""
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = RecordingArena(memory)
    forest = ContainmentForest(arena=arena)
    plane = ColumnarMatchPlane(forest, arena=arena)
    naive = NaiveMatcher()
    plan = [{"a": (0, 10), "b": (0, 5)}, {"a": (2, 8)}, {"b": (1, 4)},
            {"a": (3, 7), "c": (0, 1)}, {"b": (2, 9), "d": ("<", 4)}]
    plan += [{"a": (i, i + 3), "b": (i, i + 1), "c": (0, i),
              "d": (">", i), "e": (i, 40), "f": ("<=", 50 - i)}
             for i in range(12)]
    registered = [Subscription.parse(spec) for spec in plan]
    for subscriber, subscription in enumerate(registered):
        forest.insert(subscription, subscriber)
        naive.insert(subscription, subscriber)
    headers = [Event({"a": 5, "b": 3, "c": 0.5, "d": 2, "e": 20,
                      "f": 10}), Event({"a": 9, "e": 39, "z": 0})]
    check_batch(forest, plane, arena, naive, headers)
    assert len(plane._bounds.layers) == 6
    solo = Subscription.parse({"g": (0, 1)})
    forest.insert(solo, "solo")
    naive.insert(solo, "solo")
    check_batch(forest, plane, arena, naive,
                headers + [Event({"g": 1})])
    for event in ({"g": 1}, {"g": 2}):
        assert forest.remove_subscriber(solo, "solo")
        assert naive.remove_subscriber(solo, "solo")
        check_batch(forest, plane, arena, naive, [Event(event)])
        assert "g" not in plane._table_of
        forest.insert(solo, "solo")
        naive.insert(solo, "solo")
        check_batch(forest, plane, arena, naive, [Event(event)])
        assert plane._tables[-1].attribute == "g"
    assert plane.rebuilds == 1
