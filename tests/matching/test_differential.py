"""Differential matcher equivalence: seven implementations, one truth.

Every matcher in the tree — the containment forest, the linear-scan
baseline, the hybrid enclave/external split, the full engine with and
without its match memo, the columnar batch plane compiled from the
forest, and the columnar-backed engine (with memo, exercising the
memo/plane interplay) — must compute the *same* match set for the same
registrations; they differ only in cost model and placement. This
file pins that property with seeded randomized scripts of
register / unregister / match operations: one shared op sequence is
applied to all implementations and the resulting subscriber sets are
compared after every query.

``derandomize=True`` makes the hypothesis runs reproducible in CI
(the example stream is derived from the test's own source, not the
wall clock), and ``max_examples`` keeps the randomized case count at
or above the coverage floor the roadmap asks for (>= 200 across the
two scripted properties).
"""

from hypothesis import given, settings, strategies as st

from repro.matching.columnar import ColumnarMatchPlane
from repro.matching.events import Event
from repro.matching.hybrid import HybridContainmentForest
from repro.matching.matcher import MatchingEngine
from repro.matching.naive import NaiveMatcher
from repro.matching.poset import ContainmentForest
from repro.matching.predicates import Op, Predicate
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import scaled_spec
from repro.sgx.memory import MemorySubsystem
from repro.sgx.platform import SgxPlatform

values = st.integers(min_value=0, max_value=9)
symbols = st.sampled_from(["HAL", "IBM", "GE"])


@st.composite
def diff_subscription(draw):
    """Mixed-shape subscriptions: ranges, ordered bounds, string
    equality — the small value domain forces heavy containment overlap,
    which is where the forest, hybrid and memo paths diverge if wrong."""
    predicates = []
    if draw(st.booleans()):
        predicates.append(Predicate("sym", Op.EQ, draw(symbols)))
    for attr in sorted(draw(st.sets(st.sampled_from("ab"),
                                    max_size=2))):
        lo = draw(values)
        hi = draw(values)
        if lo > hi:
            lo, hi = hi, lo
        predicates.append(Predicate(attr, Op.RANGE, (lo, hi)))
    if not predicates:
        predicates.append(Predicate("a", Op.GE, draw(values)))
    return Subscription(predicates)


@st.composite
def diff_event(draw):
    attributes = {"a": draw(values), "b": draw(values)}
    if draw(st.booleans()):
        attributes["sym"] = draw(symbols)
    return Event(attributes)


def trusted_arena(name):
    memory = MemorySubsystem(scaled_spec(llc_bytes=256 * 1024))
    return memory.new_arena(enclave=True, name=name)


def make_hybrid(split_depth=1):
    spec = scaled_spec(llc_bytes=256 * 1024, epc_bytes=68 * 4096,
                       epc_reserved_bytes=4 * 4096)
    platform = SgxPlatform(spec=spec)
    return HybridContainmentForest(
        platform.memory.new_arena(enclave=True),
        platform.memory.new_arena(enclave=False),
        spec.costs, split_depth=split_depth)


def churn_plan(low, high):
    """``low`` to ``high`` (subscription, subscriber) registrations."""
    return st.lists(st.tuples(diff_subscription(),
                              st.integers(min_value=0, max_value=4)),
                    min_size=low, max_size=high)


class Fleet:
    """All matcher implementations driven through one shared script."""

    def __init__(self):
        self.forest = ContainmentForest(arena=trusted_arena("diff"))
        self.naive = NaiveMatcher()
        self.hybrid = make_hybrid(split_depth=1)
        self.engine = MatchingEngine(
            SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
            enclave=True, memo_capacity=0)
        self.memoized = MatchingEngine(
            SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
            enclave=True, memo_capacity=8)
        # Columnar plane compiled straight off the shared forest: the
        # generation stamp and the forest's change log must keep it
        # fresh through every register/unregister the script performs
        # between queries.
        self.plane = ColumnarMatchPlane(self.forest)
        # Columnar-backed engine with a memo: exercises the memo ->
        # plane interplay (hits bypass the columns, misses batch).
        self.columnar = MatchingEngine(
            SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
            enclave=True, memo_capacity=8, backend="columnar")
        self.live = []  # (subscription, subscriber) currently stored

    def register(self, subscription, subscriber):
        self.forest.insert(subscription, subscriber)
        self.naive.insert(subscription, subscriber)
        self.hybrid.insert(subscription, subscriber)
        self.engine.register(subscription, subscriber)
        self.memoized.register(subscription, subscriber)
        self.columnar.register(subscription, subscriber)
        if (subscription.key(), subscriber) not in [
                (s.key(), w) for s, w in self.live]:
            self.live.append((subscription, subscriber))

    def unregister(self, subscription, subscriber):
        removed = [
            self.forest.remove_subscriber(subscription, subscriber),
            self.naive.remove_subscriber(subscription, subscriber),
            self.hybrid.remove_subscriber(subscription, subscriber),
            self.engine.unregister(subscription, subscriber),
            self.memoized.unregister(subscription, subscriber),
            self.columnar.unregister(subscription, subscriber),
        ]
        assert removed == [True] * 6
        self.live.remove((subscription, subscriber))

    def assert_agreement(self, event):
        expected = self.naive.match(event)
        assert self.forest.match(event) == expected
        assert self.hybrid.match(event) == expected
        assert self.engine.match(event).subscribers == expected
        # Twice through the memoized engine: the second query answers
        # the same header from the memo and must not drift.
        assert self.memoized.match(event).subscribers == expected
        assert set(self.memoized.match(event).subscribers) == expected
        assert self.plane.match(event) == expected
        # Twice through the columnar engine as well: first answer may
        # come from the column passes, the second from its memo.
        assert set(self.columnar.match(event).subscribers) == expected
        assert set(self.columnar.match(event).subscribers) == expected

    def check_structure(self):
        self.forest.check_invariants()
        self.engine.forest.check_invariants()
        self.memoized.forest.check_invariants()
        self.columnar.forest.check_invariants()
        n = len(self.live)
        assert self.forest.n_subscriptions == n
        assert self.naive.n_subscriptions == n
        assert self.hybrid.n_subscriptions == n
        assert self.columnar.n_subscriptions == n
        # The plane's compiled view must mirror the forest exactly.
        assert self.plane.n_subscription_nodes == self.forest.n_nodes
        self.plane.check_invariants()


class TestDifferentialChurn:

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(diff_subscription(),
                              st.integers(min_value=0, max_value=4)),
                    min_size=1, max_size=20),
           st.data())
    def test_all_matchers_agree_under_churn(self, pairs, data):
        """Interleaved register/unregister/match, every implementation
        checked against the linear-scan oracle after each query."""
        fleet = Fleet()
        for subscription, subscriber in pairs:
            action = data.draw(st.sampled_from(
                ["register", "register", "unregister", "match"]))
            if action == "register" or not fleet.live:
                fleet.register(subscription, subscriber)
            elif action == "unregister":
                victim_sub, victim = data.draw(
                    st.sampled_from(fleet.live))
                fleet.unregister(victim_sub, victim)
            else:
                fleet.assert_agreement(data.draw(diff_event()))
        fleet.check_structure()
        # Final sweep: a fixed event grid after the whole script.
        for a in (0, 4, 9):
            for sym in (None, "HAL"):
                attributes = {"a": a, "b": 9 - a}
                if sym is not None:
                    attributes["sym"] = sym
                fleet.assert_agreement(Event(attributes))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(churn_plan(16, 48),
           st.lists(st.lists(diff_event(), min_size=1, max_size=6),
                    min_size=2, max_size=8),
           st.data())
    def test_columnar_batches_between_churn(self, pairs, batches,
                                            data):
        """Whole batches through the columnar engine, churn between
        them: every batch must agree event-for-event with the linear
        oracle, across lazy plane catch-ups and recompiles and memo
        interplay (the second pass over each batch mixes memo hits
        with column passes).

        Structural oracle: after every step the long-lived plane —
        edited in place when the burst was small against its size,
        rebuilt when it was not, released outright now and then — is
        compared with a plane compiled fresh over the same forest.
        """
        self._batches_between_churn(pairs, batches, data)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(churn_plan(1, 15),
           st.lists(st.lists(diff_event(), min_size=1, max_size=6),
                    min_size=1, max_size=4),
           st.data())
    def test_columnar_batches_between_churn_on_small_planes(
            self, pairs, batches, data):
        """The same with too few subscriptions to leave the bulk path
        for long: planes of one to fifteen nodes, most writes a
        recompile."""
        self._batches_between_churn(pairs, batches, data)

    @staticmethod
    def _batches_between_churn(pairs, batches, data):
        naive = NaiveMatcher()
        engine = MatchingEngine(
            SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
            enclave=True, memo_capacity=4, backend="columnar")
        plane = engine.plane
        live = []
        queue = list(pairs)
        for batch in batches:
            # A load of 16, then a few writes or another load: the
            # steps land on both sides of the plane's bulk threshold
            # (a quarter of its slots), coming from either side.
            n_burst = 16 if not live else \
                data.draw(st.sampled_from([0, 1, 2, 3, 16]))
            burst, queue = queue[:n_burst], queue[n_burst:]
            for subscription, subscriber in burst:
                naive.insert(subscription, subscriber)
                engine.register(subscription, subscriber)
                if (subscription.key(), subscriber) not in [
                        (s.key(), w) for s, w in live]:
                    live.append((subscription, subscriber))
            if live and data.draw(st.booleans()):
                victim_sub, victim = data.draw(st.sampled_from(live))
                assert naive.remove_subscriber(victim_sub, victim)
                assert engine.unregister(victim_sub, victim)
                live.remove((victim_sub, victim))
            if data.draw(st.integers(min_value=0, max_value=5)) == 0:
                plane.release()
            for results in (engine.match_batch(batch),
                            engine.match_batch(batch)):
                for event, result in zip(batch, results):
                    assert set(result.subscribers) == naive.match(event)
            plane.check_invariants()
            fresh = ColumnarMatchPlane(engine.forest, arena=engine.arena)
            fresh._compile()    # leaves the change log with ``plane``
            assert plane.match_batch_traced(batch) \
                == fresh.match_batch_traced(batch)
            assert (plane.column_bytes, plane.n_subscription_nodes,
                    plane.n_attributes) \
                == (fresh.column_bytes, fresh.n_subscription_nodes,
                    fresh.n_attributes)
            fresh.release()
        engine.forest.check_invariants()
        assert engine.arena.live_bytes == engine.forest.index_bytes \
            + plane.column_bytes

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(diff_subscription(), min_size=1, max_size=12),
           st.lists(diff_event(), min_size=1, max_size=6),
           st.data())
    def test_memo_capacity_is_invisible(self, subscriptions, events,
                                        data):
        """A memoized engine under eviction pressure (capacity 2) and a
        memo-free engine answer identically through a register → query →
        unregister-some → re-query cycle; the memo may only change cost,
        never the match set."""
        plain = MatchingEngine(
            SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
            enclave=True, memo_capacity=0)
        tiny = MatchingEngine(
            SgxPlatform(spec=scaled_spec(llc_bytes=256 * 1024)),
            enclave=True, memo_capacity=2)
        for index, subscription in enumerate(subscriptions):
            plain.register(subscription, index)
            tiny.register(subscription, index)
        # Repeat the event list so the tiny memo both hits and evicts.
        for event in events + events:
            assert tiny.match(event).subscribers \
                == plain.match(event).subscribers
        victims = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(subscriptions) - 1),
            max_size=len(subscriptions)))
        for index in sorted(victims):
            subscription = subscriptions[index]
            assert plain.unregister(subscription, index) \
                == tiny.unregister(subscription, index)
        for event in events + events:
            assert tiny.match(event).subscribers \
                == plain.match(event).subscribers
        if tiny.memo is not None:
            assert len(tiny.memo) <= 2
