"""Containment forest: structure invariants and matching correctness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MatchingError
from repro.matching.containment import maximal_elements
from repro.matching.events import Event
from repro.matching.naive import NaiveMatcher
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.stats import forest_stats
from repro.matching.subscriptions import Subscription


def sub(spec):
    return Subscription.parse(spec)


class TestInsert:

    def test_chain_nests(self):
        forest = ContainmentForest()
        outer = sub({"x": (0, 100)})
        middle = sub({"x": (10, 90)})
        inner = sub({"x": (20, 80)})
        forest.insert(outer, "o")
        forest.insert(middle, "m")
        forest.insert(inner, "i")
        forest.check_invariants()
        assert len(forest.roots) == 1
        assert forest.roots[0].subscription == outer
        stats = forest_stats(forest)
        assert stats.max_depth == 3

    def test_reparenting_on_general_insert(self):
        forest = ContainmentForest()
        inner = sub({"x": (20, 80)})
        forest.insert(inner, "i")
        outer = sub({"x": (0, 100)})
        forest.insert(outer, "o")
        forest.check_invariants()
        assert len(forest.roots) == 1
        assert forest.roots[0].subscription == outer

    def test_identical_subscriptions_share_node(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": (0, 10)}), "alice")
        forest.insert(sub({"x": (0, 10)}), "bob")
        assert forest.n_nodes == 1
        assert forest.n_subscriptions == 2
        matched = forest.match(Event({"x": 5}))
        assert matched == {"alice", "bob"}

    def test_incomparable_subscriptions_are_roots(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": (0, 10)}), 1)
        forest.insert(sub({"y": (0, 10)}), 2)
        assert len(forest.roots) == 2

    def test_unsatisfiable_rejected(self):
        forest = ContainmentForest()
        bottom = Subscription.of(Predicate("x", Op.EQ, 1),
                                 Predicate("x", Op.EQ, 2))
        with pytest.raises(MatchingError):
            forest.insert(bottom, "nobody")

    def test_index_bytes_tracks_nodes(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": (0, 10)}), 1)
        bytes_one = forest.index_bytes
        forest.insert(sub({"y": (0, 10)}), 2)
        assert forest.index_bytes > bytes_one


class TestMatch:

    def test_prunes_failed_subtrees_but_stays_correct(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": (0, 100)}), "broad")
        forest.insert(sub({"x": (0, 100), "y": "a"}), "narrow")
        assert forest.match(Event({"x": 5, "y": "a"})) == \
            {"broad", "narrow"}
        assert forest.match(Event({"x": 5, "y": "b"})) == {"broad"}
        assert forest.match(Event({"x": 500, "y": "a"})) == set()

    def test_match_traced_requires_arena(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": 1}), 1)
        with pytest.raises(MatchingError):
            forest.match_traced(Event({"x": 1}))


class TestRemove:

    def test_remove_leaf(self):
        forest = ContainmentForest()
        outer = sub({"x": (0, 100)})
        inner = sub({"x": (20, 80)})
        forest.insert(outer, "o")
        forest.insert(inner, "i")
        assert forest.remove_subscriber(inner, "i")
        forest.check_invariants()
        assert forest.n_nodes == 1
        assert forest.match(Event({"x": 50})) == {"o"}

    def test_remove_inner_hoists_children(self):
        forest = ContainmentForest()
        outer = sub({"x": (0, 100)})
        middle = sub({"x": (10, 90)})
        inner = sub({"x": (20, 80)})
        for s, who in ((outer, "o"), (middle, "m"), (inner, "i")):
            forest.insert(s, who)
        assert forest.remove_subscriber(middle, "m")
        forest.check_invariants()
        assert forest.match(Event({"x": 50})) == {"o", "i"}

    def test_remove_keeps_other_subscriber(self):
        forest = ContainmentForest()
        s = sub({"x": (0, 10)})
        forest.insert(s, "alice")
        forest.insert(s, "bob")
        assert forest.remove_subscriber(s, "alice")
        assert forest.n_nodes == 1
        assert forest.match(Event({"x": 5})) == {"bob"}

    def test_remove_unknown_returns_false(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": (0, 10)}), "alice")
        assert not forest.remove_subscriber(sub({"x": (0, 10)}), "bob")
        assert not forest.remove_subscriber(sub({"z": 1}), "alice")

    def test_reinsert_after_remove(self):
        forest = ContainmentForest()
        s = sub({"x": (0, 10)})
        forest.insert(s, "alice")
        forest.remove_subscriber(s, "alice")
        forest.insert(s, "alice")
        assert forest.match(Event({"x": 5})) == {"alice"}


class TestRemoveWalksOnlyToSplice:
    """``_by_key`` names the node, so a removal searches the covering
    branches only for the sibling list an *emptied* node must leave —
    counted as ``Subscription.covers`` calls, which only a walk makes.
    """

    @pytest.fixture()
    def walked(self, monkeypatch):
        calls = []
        covers = Subscription.covers

        def counting(self, other):
            calls.append(other)
            return covers(self, other)

        monkeypatch.setattr(Subscription, "covers", counting)
        return calls

    @staticmethod
    def chain():
        forest = ContainmentForest()
        outer, middle, inner = (sub({"x": (0, 100)}),
                                sub({"x": (10, 90)}),
                                sub({"x": (20, 80)}))
        for s, who in ((inner, "i"), (middle, "m"), (middle, "m2"),
                       (outer, "o")):      # re-parents on the way up
            forest.insert(s, who)
        return forest, outer, middle, inner

    def test_unknown_pair_is_refused_without_a_walk(self, walked):
        forest, _outer, middle, _inner = self.chain()
        generation = forest.generation
        del walked[:]
        assert not forest.remove_subscriber(sub({"x": (11, 89)}), "m")
        assert not forest.remove_subscriber(middle, "ghost")
        assert walked == [] and forest.generation == generation
        forest.check_invariants()

    def test_node_that_keeps_a_subscriber_is_edited_without_a_walk(
            self, walked):
        forest, _outer, middle, _inner = self.chain()
        del walked[:]
        assert forest.remove_subscriber(middle, "m")
        assert walked == []
        assert forest.n_nodes == 3 and forest.n_subscriptions == 3
        assert forest.match(Event({"x": 50})) == {"o", "m2", "i"}
        forest.check_invariants()

    def test_emptied_node_is_found_and_spliced_out(self, walked):
        forest, outer, middle, inner = self.chain()
        assert forest.remove_subscriber(middle, "m")
        del walked[:]
        assert forest.remove_subscriber(middle, "m2")
        assert walked                       # the search for its siblings
        assert forest.n_nodes == 2
        assert forest.match(Event({"x": 50})) == {"o", "i"}
        forest.check_invariants()
        by_subscription = {node.subscription: node
                           for node in forest.iter_nodes()}
        assert by_subscription[outer].children \
            == [by_subscription[inner]]
        assert not forest.remove_subscriber(middle, "m2")


class TestChangeLog:
    """The contract an in-place reader (the columnar plane) relies on:
    the log names exactly the nodes that entered and left
    ``iter_nodes()``, in order, and nothing else."""

    def test_node_leaves_exactly_when_its_last_subscriber_does(self):
        forest = ContainmentForest()
        outer, middle, inner = (sub({"x": (0, 100)}),
                                sub({"x": (10, 90)}),
                                sub({"x": (20, 80)}))
        for s, who in ((outer, "o"), (middle, "m"), (middle, "m2"),
                       (inner, "i")):
            forest.insert(s, who)
        held = {node.subscription: node for node in forest.iter_nodes()}
        log = forest.record_changes(8)
        assert forest.remove_subscriber(middle, "m")
        assert held[middle] in list(forest.iter_nodes())
        assert log == []
        # An emptied node goes even from the middle of a chain: its
        # child is hoisted, it is not kept as routing structure.
        assert forest.remove_subscriber(middle, "m2")
        assert log == [(held[middle], False)]
        assert {node.subscription for node in forest.iter_nodes()} \
            == {outer, inner}
        assert all(node.subscribers for node in forest.iter_nodes())
        assert held[outer].children == [held[inner]]
        forest.check_invariants()

    def test_reparenting_logs_only_the_new_node(self):
        forest = ContainmentForest()
        forest.insert(sub({"x": (20, 80)}), "i")
        forest.insert(sub({"x": (30, 70)}), "j")
        log = forest.record_changes(8)
        outer = forest.insert(sub({"x": (0, 100)}), "o")
        assert len(outer.children) == 1     # adopted the old root
        assert log == [(outer, True)]

    def test_writes_that_keep_the_node_set_log_nothing(self):
        forest = ContainmentForest()
        s = sub({"x": (0, 10)})
        forest.insert(s, "alice")
        log = forest.record_changes(8)
        generation = forest.generation
        forest.insert(s, "bob")             # second subscriber
        forest.insert(s, "bob")             # identical re-registration
        assert forest.generation == generation + 2
        assert not forest.remove_subscriber(s, "ghost")
        assert not forest.remove_subscriber(sub({"z": 1}), "alice")
        assert forest.generation == generation + 2
        assert log == [] and forest.changes is log

    def test_log_is_bounded_and_rearmed_by_identity(self):
        forest = ContainmentForest()
        assert forest.changes is None       # nobody asked
        forest.insert(sub({"x": 0}), 0)
        log = forest.record_changes(2)
        for value in (1, 2):
            forest.insert(sub({"x": value}), value)
        assert len(log) == 2 and forest.changes is log
        # One change past the limit the forest stops recording rather
        # than grow the log: the reader must rebuild from iter_nodes().
        forest.insert(sub({"x": 3}), 3)
        assert forest.changes is None and len(log) == 2
        forest.insert(sub({"x": 4}), 4)
        assert forest.changes is None
        # Arming again hands out a new list, not the old one emptied.
        assert forest.record_changes(2) is not log
        assert forest.changes == []
        # A reader that goes away says so, and writes are free again.
        forest.stop_recording()
        forest.insert(sub({"x": 5}), 5)
        assert forest.changes is None


# -- randomised equivalence against the naive matcher ----------------------------

values = st.integers(min_value=0, max_value=12)


@st.composite
def spec_subscription(draw):
    predicates = []
    for attr in draw(st.sets(st.sampled_from("abc"), min_size=1,
                             max_size=2)):
        lo = draw(values)
        hi = draw(values)
        if lo > hi:
            lo, hi = hi, lo
        predicates.append(Predicate(attr, Op.RANGE, (lo, hi)))
    return Subscription(predicates)


@st.composite
def spec_event(draw):
    return Event({attr: draw(values) for attr in "abc"})


class TestEquivalenceWithNaive:

    @settings(max_examples=60, deadline=None)
    @given(st.lists(spec_subscription(), min_size=1, max_size=25),
           st.lists(spec_event(), min_size=1, max_size=8))
    def test_same_results_as_linear_scan(self, subscriptions, events):
        forest = ContainmentForest()
        naive = NaiveMatcher()
        for index, subscription in enumerate(subscriptions):
            forest.insert(subscription, index)
            naive.insert(subscription, index)
        forest.check_invariants()
        for event in events:
            assert forest.match(event) == naive.match(event)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(spec_subscription(), min_size=2, max_size=20),
           st.data())
    def test_removal_keeps_equivalence(self, subscriptions, data):
        forest = ContainmentForest()
        naive_subs = {}
        for index, subscription in enumerate(subscriptions):
            forest.insert(subscription, index)
            naive_subs[index] = subscription
        # Remove a random half.
        to_remove = data.draw(st.sets(
            st.sampled_from(range(len(subscriptions))),
            max_size=len(subscriptions) // 2))
        for index in to_remove:
            assert forest.remove_subscriber(naive_subs[index], index)
            del naive_subs[index]
        forest.check_invariants()
        naive = NaiveMatcher()
        for index, subscription in naive_subs.items():
            naive.insert(subscription, index)
        event = data.draw(spec_event())
        assert forest.match(event) == naive.match(event)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(spec_subscription(), min_size=1, max_size=20))
    def test_root_count_matches_maximal_elements(self, subscriptions):
        """Roots are exactly the maximal distinct subscriptions."""
        forest = ContainmentForest()
        for index, subscription in enumerate(subscriptions):
            forest.insert(subscription, index)
        distinct = list({s.key(): s for s in subscriptions}.values())
        expected = {s.key() for s in maximal_elements(distinct)}
        got = {node.subscription.key() for node in forest.roots}
        assert got == expected
