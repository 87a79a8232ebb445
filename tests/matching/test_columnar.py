"""Columnar match plane: compilation, catch-up, trace accounting.

The differential suite proves the plane agrees with the other six
matcher implementations (and, structurally, with a fresh compile of
the same forest); this file pins the plane's own contract — the lazy
compile / catch-up-by-delta lifecycle and its bulk threshold, the
per-shape table placement, the modelled column memory (alloc on
compile, re-homed on edit, freed on recompile and release), and the
error paths. ``test_columnar_delta.py`` holds the cost side: an edited
plane's read path does exactly the work of a rebuilt one.
"""

import sys

import pytest

from repro.errors import MatchingError
from repro.matching.columnar import (MATCHER_BACKENDS,
                                     ColumnarMatchPlane,
                                     validate_backend)
from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem


def sub(*predicates):
    return Subscription.of(*predicates)


def make_traced():
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    arena = memory.new_arena(enclave=True, name="columnar")
    forest = ContainmentForest(arena=arena)
    return memory, arena, forest, ColumnarMatchPlane(forest,
                                                     arena=arena)


class TestBackendNames:

    def test_known_backends(self):
        assert MATCHER_BACKENDS == ("forest", "columnar")
        for name in MATCHER_BACKENDS:
            assert validate_backend(name) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(MatchingError):
            validate_backend("vectorized")


def ladder(forest, n):
    """``n`` nodes ``x >= i``, subscriber ``i``: a plane big enough
    that a write or two stays under the bulk threshold (n // 4)."""
    for index in range(n):
        forest.insert(sub(Predicate("x", Op.GE, index)), index)


class TestLifecycle:
    """Lazy, and by delta: the next match after a registration change
    brings the plane up to date — from the forest's change log when
    the plane is compiled and the log intact, by one full compile
    otherwise. ``compilations`` counts both, ``rebuilds`` the full
    compiles, ``delta_nodes`` what the others absorbed."""

    def test_lazy_compile_and_generation_invalidation(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        ladder(forest, 16)
        assert plane.compilations == 0          # nothing until a match
        assert plane.match(Event({"x": 1})) == {0, 1}
        assert plane.compilations == 1
        # No registration change: further matches reuse the build.
        assert plane.match(Event({"x": 0})) == {0}
        assert (plane.rebuilds, plane.delta_nodes) == (1, 0)
        # A new node is absorbed in place by the next match...
        forest.insert(sub(Predicate("x", Op.LE, 3)), "low")
        assert plane.delta_nodes == 0           # ...not by the write
        assert plane.match(Event({"x": 1})) == {0, 1, "low"}
        assert (plane.rebuilds, plane.delta_nodes) == (1, 1)
        assert plane.compilations == 2          # one full, one by delta
        # ...and so is a removed one; its slot is parked, not counted.
        forest.remove_subscriber(sub(Predicate("x", Op.GE, 1)), 1)
        assert plane.match(Event({"x": 1})) == {0, "low"}
        assert (plane.rebuilds, plane.delta_nodes) == (1, 2)
        assert plane.n_subscription_nodes == forest.n_nodes == 16
        # The parked slot goes to the next new node.
        forest.insert(sub(Predicate("y", Op.EQ, "s")), "why")
        assert plane.match(Event({"x": 1, "y": "s"})) \
            == {0, "low", "why"}
        assert len(plane._subscribers) == 17 and not plane._free
        plane.check_invariants()

    def test_small_planes_recompile(self):
        # Under four slots a quarter is no slot at all: every write is
        # "bulk", and a rebuild of three rows is as cheap as an edit.
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.GE, 1)), "a")
        assert plane.match(Event({"x": 5})) == {"a"}
        forest.insert(sub(Predicate("x", Op.GE, 3)), "b")
        assert plane.match(Event({"x": 5})) == {"a", "b"}
        forest.remove_subscriber(sub(Predicate("x", Op.GE, 1)), "a")
        assert plane.match(Event({"x": 5})) == {"b"}
        assert (plane.rebuilds, plane.delta_nodes) == (3, 0)

    def test_bulk_writes_recompile_once(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        ladder(forest, 16)
        plane.match(Event({"x": 1}))
        # Five writes overflow a log sized for four: the forest stops
        # recording, the plane rebuilds once and arms a fresh log.
        for index in range(5):
            forest.insert(sub(Predicate("y", Op.GE, index)), "y")
        assert forest.changes is None
        assert plane.match(Event({"y": 2})) == {"y"}
        assert (plane.rebuilds, plane.delta_nodes) == (2, 0)
        assert forest.changes == []
        # Parked slots count against the same quarter: four removals
        # are absorbed one by one, the next write then finds a plane
        # one quarter garbage and rebuilds it, shedding the garbage.
        for index in range(4):
            forest.remove_subscriber(sub(Predicate("x", Op.GE, index)),
                                     index)
            plane.match(Event({"x": 1}))
        assert (plane.rebuilds, plane.delta_nodes) == (2, 4)
        assert len(plane._free) == 4
        for index in range(4, 6):
            forest.remove_subscriber(sub(Predicate("x", Op.GE, index)),
                                     index)
        assert plane.match(Event({"x": 9})) == {6, 7, 8, 9}
        assert (plane.rebuilds, plane.delta_nodes) == (3, 4)
        assert not plane._free
        plane.check_invariants()

    def test_log_has_one_reader(self):
        # Whichever plane compiled last owns the forest's log. Another
        # plane over the same forest notices (by identity) that the
        # log is not the one it armed and falls back to full compiles
        # instead of replaying changes that are not all there.
        forest = ContainmentForest()
        first = ColumnarMatchPlane(forest)
        ladder(forest, 16)
        first.match(Event({"x": 1}))
        second = ColumnarMatchPlane(forest)
        second.match(Event({"x": 1}))           # takes the log
        forest.insert(sub(Predicate("y", Op.GE, 0)), "y0")
        event = Event({"x": 0, "y": 5})
        assert second.match(event) == {0, "y0"}
        assert (second.rebuilds, second.delta_nodes) == (1, 1)
        assert first.match(event) == {0, "y0"}  # takes it back
        assert (first.rebuilds, first.delta_nodes) == (2, 0)
        forest.insert(sub(Predicate("y", Op.GE, 1)), "y1")
        assert second.match(event) == {0, "y0", "y1"}
        assert (second.rebuilds, second.delta_nodes) == (2, 1)

    def test_failed_removal_does_not_invalidate(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        ladder(forest, 16)
        plane.match(Event({"x": 5}))
        generation = plane._compiled_generation
        assert not forest.remove_subscriber(
            sub(Predicate("x", Op.GE, 1)), "ghost")
        plane.match(Event({"x": 5}))
        assert plane._compiled_generation == generation
        assert (plane.rebuilds, plane.delta_nodes) == (1, 0)

    def test_idempotent_reregistration_still_invalidates(self):
        # A second subscriber on an existing node, and an identical
        # re-registration, move the generation but log nothing: the
        # plane holds the node's live subscriber set by reference, so
        # the catch-up has no table to edit.
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        ladder(forest, 16)
        assert plane.match(Event({"x": 0})) == {0}
        forest.insert(sub(Predicate("x", Op.GE, 0)), "b")
        forest.insert(sub(Predicate("x", Op.GE, 0)), "b")
        assert plane._compiled_generation != forest.generation
        assert plane.match(Event({"x": 0})) == {0, "b"}
        assert plane._compiled_generation == forest.generation
        assert (plane.rebuilds, plane.delta_nodes) == (1, 0)
        # A subscriber leaving a node that stays: the same.
        forest.remove_subscriber(sub(Predicate("x", Op.GE, 0)), 0)
        assert plane.match(Event({"x": 0})) == {"b"}
        assert (plane.rebuilds, plane.delta_nodes) == (1, 0)

    def test_empty_forest_and_empty_batch(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        assert plane.match(Event({"x": 1})) == set()
        assert plane.match_batch([]) == []
        assert plane.n_subscription_nodes == 0
        assert plane.n_attributes == 0


class TestTablePlacement:
    """Each constraint shape must land in — and be answered by — the
    intended table, covered here via shapes that would misfire if
    placed wrong."""

    def test_equality_buckets_numeric_and_string(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.EQ, 5)), "num")
        forest.insert(sub(Predicate("x", Op.EQ, "five")), "str")
        assert plane.match(Event({"x": 5})) == {"num"}
        assert plane.match(Event({"x": 5.0})) == {"num"}
        assert plane.match(Event({"x": "five"})) == {"str"}
        assert plane.match(Event({"x": 4})) == set()

    def test_one_sided_bounds_open_and_closed(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.GE, 5)), "ge")
        forest.insert(sub(Predicate("x", Op.GT, 5)), "gt")
        forest.insert(sub(Predicate("x", Op.LE, 5)), "le")
        forest.insert(sub(Predicate("x", Op.LT, 5)), "lt")
        assert plane.match(Event({"x": 5})) == {"ge", "le"}
        assert plane.match(Event({"x": 6})) == {"ge", "gt"}
        assert plane.match(Event({"x": 4})) == {"le", "lt"}
        # A string value must not enter the numeric bound lists.
        assert plane.match(Event({"x": "5"})) == set()

    def test_two_sided_ranges(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.RANGE, (2, 8))), "wide")
        forest.insert(sub(Predicate("x", Op.RANGE, (4, 6))), "narrow")
        forest.insert(sub(Predicate("x", Op.RANGE, (7, 9))), "high")
        assert plane.match(Event({"x": 5})) == {"wide", "narrow"}
        assert plane.match(Event({"x": 8})) == {"wide", "high"}
        assert plane.match(Event({"x": 1})) == set()

    def test_exists_matches_any_present_value(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.EXISTS)), "e")
        assert plane.match(Event({"x": 3})) == {"e"}
        assert plane.match(Event({"x": "s"})) == {"e"}
        assert plane.match(Event({"y": 3})) == set()

    def test_exclusions_and_string_wildcards_via_residual(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.NE, 5)), "ne")
        forest.insert(sub(Predicate("x", Op.GE, 0),
                          Predicate("x", Op.NE, 3)), "bounded-ne")
        forest.insert(sub(Predicate("s", Op.EQ, "a"),
                          Predicate("s", Op.NE, "b")), "pin")
        assert plane.match(Event({"x": 4})) == {"ne", "bounded-ne"}
        assert plane.match(Event({"x": 5})) == {"bounded-ne"}
        assert plane.match(Event({"x": 3})) == {"ne"}
        assert plane.match(Event({"x": "s"})) == {"ne"}
        assert plane.match(Event({"s": "a"})) == {"pin"}

    def test_multi_attribute_conjunction_counts_to_arity(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("a", Op.GE, 1),
                          Predicate("b", Op.EQ, "x"),
                          Predicate("c", Op.RANGE, (0, 9))), "all3")
        assert plane.match(Event({"a": 2, "b": "x", "c": 5})) == \
            {"all3"}
        # Any one missing or failing attribute breaks the conjunction.
        assert plane.match(Event({"a": 2, "b": "x"})) == set()
        assert plane.match(Event({"a": 0, "b": "x", "c": 5})) == set()
        assert plane.match(Event({"a": 2, "b": "y", "c": 5})) == set()


class TestBatchPassIsOneCompare:
    """Counts beat clocks on this box: a table's bound rows meet a
    batch in one vectorised compare-and-scatter, so the Python lines
    the plane executes for a batch do not depend on how many rows a
    table holds. (Before PR 23 every admitted row cost two.)"""

    @staticmethod
    def plane_with(n_rows):
        """``n_rows`` two-sided rows on "a" and on "b", the same four
        equality buckets on "s" whatever ``n_rows``. An event with
        ``0 <= a, b <= 50`` is admitted by every lower bound on both
        tables, satisfies a few rows on "a" and none on "b" — so the
        matches are the buckets' alone, equal in number on any plane.
        """
        _memory, _arena, forest, plane = make_traced()
        for index in range(n_rows):
            low = index % 50
            forest.insert(sub(
                Predicate("a", Op.GE, low - index / 1000),
                Predicate("a", Op.LT, low + 5),
                Predicate("b", Op.GT, -10 - index),
                Predicate("b", Op.LE, -1)), index)
        for index, symbol in enumerate(("HAL", "IBM", "GE", "HAL")):
            forest.insert(sub(Predicate("s", Op.EQ, symbol),
                              Predicate("c", Op.EQ, index % 2)),
                          f"s{index}")
        plane.ensure_compiled()
        return plane

    @staticmethod
    def lines_executed(plane, batch):
        """``line`` events inside ``matching/columnar.py`` during one
        traced batch, and what the batch returned."""
        plane_code = sys.modules[ColumnarMatchPlane.__module__].__file__
        lines = 0

        def local_trace(_frame, event, _arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return local_trace

        def global_trace(frame, _event, _arg):
            if frame.f_code.co_filename == plane_code:
                return local_trace
            return None

        previous = sys.gettrace()
        sys.settrace(global_trace)
        try:
            result = plane.match_batch_traced(batch)
        finally:
            sys.settrace(previous)
        return lines, result

    def test_lines_executed_do_not_grow_with_the_rows(self):
        batch = [Event({"a": index % 50 + 0.5, "b": index % 7,
                        "s": ("HAL", "IBM", "x")[index % 3],
                        "c": index % 2}) for index in range(32)]
        small, large = self.plane_with(100), self.plane_with(800)
        few_lines, few = self.lines_executed(small, batch)
        many_lines, many = self.lines_executed(large, batch)
        assert few_lines == many_lines
        # the rows were there to be compared: eight times the rows
        # consulted and (beside the buckets) touched, the same matches
        assert few[0] == many[0] and any(few[0])
        assert sum(many[2]) > 7 * sum(few[2]) > 0
        assert sum(many[1]) > 6 * sum(few[1]) > 0


class TestTraceAccounting:

    def test_traced_requires_arena(self):
        plane = ColumnarMatchPlane(ContainmentForest())
        with pytest.raises(MatchingError):
            plane.match_batch_traced([Event({"x": 1})])

    def test_traced_counts_and_runs(self):
        memory, _arena, forest, plane = make_traced()
        for index in range(8):
            forest.insert(sub(Predicate("x", Op.GE, index)), index)
        before = memory.snapshot()
        sets, visited, consulted = plane.match_batch_traced(
            [Event({"x": 3}), Event({"x": 100}), Event({"y": 1})])
        delta = memory.snapshot().delta(before)
        assert sets[0] == {0, 1, 2, 3}
        assert sets[1] == set(range(8))
        assert sets[2] == set()
        assert visited[0] == 4 and visited[1] == 8 and visited[2] == 0
        # Consulted = bound rows whose lower bound admits the value;
        # the event without the attribute consults nothing.
        assert consulted[2] == 0
        assert delta.llc_misses > 0      # column + accumulator traffic

    def test_counters_leave_as_python_ints(self):
        # numpy counts them; no numpy scalar may reach a metric, a
        # snapshot or JSON
        _memory, _arena, forest, plane = make_traced()
        for index in range(8):
            forest.insert(sub(Predicate("x", Op.RANGE,
                                        (index, index + 4))), index)
        _sets, visited, consulted = plane.match_batch_traced(
            [Event({"x": 3}), Event({"x": "s"}), Event({"y": 1})])
        assert (visited, consulted) == ([4, 0, 0], [4, 0, 0])
        assert all(type(count) is int for count in visited + consulted)

    def test_column_blocks_freed_on_recompile(self):
        _memory, arena, forest, plane = make_traced()
        for index in range(16):
            forest.insert(sub(Predicate("x", Op.GE, index)), index)
        plane.match_batch_traced([Event({"x": 1})])
        held_once = arena.live_bytes
        # Churn several times, caught up in place and — after a
        # release — by recompiling: the *live* modelled footprint must
        # not grow with the number of writes either way (the freelist
        # recycles the column blocks).
        for round_ in range(4):
            forest.insert(sub(Predicate("y", Op.GE, round_)), "extra")
            forest.remove_subscriber(
                sub(Predicate("y", Op.GE, round_)), "extra")
            if round_ % 2:
                plane.release()
            plane.match_batch_traced([Event({"x": 1})])
        assert (plane.rebuilds, plane.delta_nodes) == (3, 4)
        assert arena.live_bytes == held_once
        assert arena.reused_blocks > 0

    def test_catch_up_rehomes_only_what_changed(self):
        _memory, arena, forest, plane = make_traced()
        ladder(forest, 16)
        forest.insert(sub(Predicate("z", Op.EQ, 1)), "z")
        plane.match_batch_traced([Event({"x": 1})])
        blocks = {table.attribute: table.address
                  for table in plane._tables}
        accumulator = plane._acc_address
        # One more row on "x" and a first one on "y"; "z" is untouched.
        forest.insert(sub(Predicate("x", Op.LE, 3),
                          Predicate("y", Op.EQ, "s")), "xy")
        plane.match_batch_traced([Event({"x": 1})])
        assert plane.rebuilds == 1
        after = {table.attribute: table for table in plane._tables}
        assert set(after) == {"x", "y", "z"}
        assert after["z"].address == blocks["z"]
        assert after["x"].size == after["x"].modelled_bytes()
        assert plane._acc_size == 18
        # An emptied table is dropped and its block returned.
        forest.remove_subscriber(sub(Predicate("z", Op.EQ, 1)), "z")
        plane.match_batch_traced([Event({"x": 1})])
        assert {table.attribute for table in plane._tables} \
            == {"x", "y"}
        assert not arena.holds(blocks["z"], after["z"].size)
        assert plane._acc_size == 17
        assert plane._acc_address == accumulator   # same size class
        assert arena.live_bytes == forest.index_bytes \
            + plane.column_bytes
        plane.check_invariants()

    def test_release_frees_everything_it_allocated(self):
        _memory, arena, forest, plane = make_traced()
        forest.insert(sub(Predicate("x", Op.GE, 1)), "a")
        base = arena.live_bytes            # forest nodes only
        plane.match_batch_traced([Event({"x": 2})])
        assert arena.live_bytes > base
        plane.release()
        assert arena.live_bytes == base
        # Released plane recompiles on the next use.
        assert plane.match(Event({"x": 2})) == {"a"}

    def test_column_bytes_scales_with_entries(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(sub(Predicate("x", Op.GE, 1)), "a")
        small = plane.column_bytes
        for index in range(20):
            forest.insert(sub(Predicate("x", Op.GE, index),
                              Predicate("y", Op.LE, index)), index)
        assert plane.column_bytes > small


class TestArityCap:

    #: one constraint more than a deficit byte can count down
    WIDE = Subscription.of(*[Predicate(f"a{index}", Op.GE, index)
                             for index in range(256)])

    def test_256_constraints_rejected(self):
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        forest.insert(self.WIDE, "wide")
        with pytest.raises(MatchingError):
            plane.match(Event({"a0": 1}))

    @pytest.mark.parametrize("n_nodes", [2, 16],
                             ids=["bulk", "catch-up"])
    def test_rejection_leaves_no_half_built_plane(self, n_nodes):
        """All or nothing: the write that cannot be compiled leaves
        the plane released — no table over freed blocks, no block
        still booked — and it answers again once the write is undone."""
        _memory, arena, forest, plane = make_traced()
        ladder(forest, n_nodes)
        event = Event({"x": 1, "a0": 1})
        assert plane.match_batch_traced([event])[0] == [{0, 1}]
        assert arena.live_bytes > forest.index_bytes
        forest.insert(self.WIDE, "wide")
        for _ in range(2):                  # raises again, cleanly
            with pytest.raises(MatchingError):
                plane.match_batch_traced([event])
            assert arena.live_bytes == forest.index_bytes
            assert plane._tables == [] and plane._allocated == {}
            assert forest.changes is None   # log disarmed
        assert forest.remove_subscriber(self.WIDE, "wide")
        assert plane.match_batch_traced([event])[0] == [{0, 1}]
        plane.check_invariants()
        fresh = ColumnarMatchPlane(forest, arena=arena)
        assert plane.column_bytes == fresh.column_bytes
        assert arena.live_bytes == forest.index_bytes \
            + plane.column_bytes + fresh.column_bytes
