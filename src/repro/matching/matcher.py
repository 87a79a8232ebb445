"""The matching engine: containment index + platform cost accounting.

This is the component the paper runs both inside and outside the
enclave with "the same filtering code" (§4). The engine wraps a
:class:`ContainmentForest` whose nodes live in an arena of the
simulated platform; whether that arena is an *enclave* arena or an
*untrusted* arena is the only difference between the "In" and "Out"
configurations — exactly the paper's methodology.

Every operation returns the work done (nodes visited, predicates
evaluated) and charges the platform's cycle account, from which the
benchmarks read simulated matching time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.matching.columnar import ColumnarMatchPlane, validate_backend
from repro.matching.events import Event, EventColumns
from repro.matching.poset import ContainmentForest
from repro.matching.stats import MatchCounters
from repro.matching.subscriptions import Subscription
from repro.obs.metrics import MetricsRegistry
from repro.sgx.memory import MemoryArena
from repro.sgx.platform import SgxPlatform

__all__ = ["MatchResult", "MatchingEngine", "MatchMemo"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one event against the index."""

    subscribers: Set[object]
    nodes_visited: int
    predicates_evaluated: int
    simulated_us: float


class MatchMemo:
    """Generation-stamped ``event-key -> frozen subscriber set`` cache.

    Zipf-skewed event streams repeat headers heavily; a hit answers the
    event without touching the index at all. Correctness under churn is
    by *generation stamping*: every stored entry records the generation
    it was computed in, and any registration change bumps the counter
    (an O(1) invalidation — no eager scan), so stale entries simply
    stop matching on lookup and are dropped lazily. Capacity is
    enforced FIFO: dict insertion order makes the oldest entry the
    first key.

    Only :class:`MatchingEngine` holds one, and it stores the frozen
    set as matched; a host that needs another form (the enclave's
    sorted client-id list) derives it from hit and miss alike.
    """

    __slots__ = ("capacity", "generation", "_entries", "hits", "misses",
                 "evictions", "invalidation_bumps")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        self.generation = 0
        self._entries: Dict[Tuple, Tuple[int, frozenset]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidation_bumps = 0

    def __len__(self) -> int:
        return len(self._entries)

    def bump(self) -> None:
        """Invalidate every cached entry (registration changed)."""
        self.generation += 1
        self.invalidation_bumps += 1

    def lookup(self, key: Tuple) -> Optional[frozenset]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        generation, subscribers = entry
        if generation != self.generation:
            del self._entries[key]   # stale: drop lazily
            self.misses += 1
            return None
        self.hits += 1
        return subscribers

    def store(self, key: Tuple, subscribers: frozenset) -> None:
        entries = self._entries
        if key not in entries and len(entries) >= self.capacity:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[key] = (self.generation, subscribers)


class MatchingEngine:
    """Containment-based filter bound to a simulated memory arena.

    The one match loop of the repository: the routing enclave, the
    cluster slices and the Fig. 5-7 sweeps each hold an engine over
    their own ``arena`` (without one, a fresh arena is taken from
    ``platform`` in the ``enclave`` or untrusted space). An arena in
    protected memory makes traversals pay MEE costs on LLC misses and
    EPC faults when the index outgrows the protected region.

    The engine owns the forest, the optional columnar plane (compiled
    lazily from it and kept current from its change log; registration,
    covering and sealing stay on the forest), the optional memo, the
    compute-cycle charges, the :class:`MatchCounters` and the
    ``engine.*`` metrics.
    """

    def __init__(self, platform: Optional[SgxPlatform] = None,
                 enclave: bool = True,
                 name: str = "scbr-engine",
                 memo_capacity: int = 0,
                 root_gate: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 backend: str = "forest",
                 arena: Optional[MemoryArena] = None,
                 trace_inserts: bool = True) -> None:
        self.backend = validate_backend(backend)
        self.arena: MemoryArena = arena if arena is not None \
            else platform.memory.new_arena(enclave=enclave, name=name)
        self.memory = self.arena.memory
        self._root_gate = root_gate
        #: False for hosts that exclude registration from what they
        #: measure (slices, sweeps): inserts then neither touch the
        #: memory model nor charge compute cycles.
        self._trace_inserts = trace_inserts
        #: Hot-path work counters (see :class:`MatchCounters`); tests
        #: and benchmarks read them to quantify gate/memo savings.
        self.counters = MatchCounters()
        #: ``memo_capacity > 0`` enables the match memo. Off by default:
        #: a hit skips the traversal entirely (simulated time ~0), which
        #: is the point, but would silently change the figure
        #: benchmarks' latency semantics if always on.
        self.memo = MatchMemo(memo_capacity) if memo_capacity else None
        self.plane: Optional[ColumnarMatchPlane] = None
        self.reset()
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        m = self.metrics
        # Counters are pre-bound once here; the per-event path performs
        # plain attribute calls, never registry lookups.
        self._m_matches = m.counter(
            "engine.match_total", "events matched by the engine")
        self._m_visited = m.histogram(
            "engine.match_visited", "index nodes visited per match")
        self._m_memo_hits = m.counter(
            "engine.memo_hits_total",
            "events answered from the match memo")
        self._m_memo_misses = m.counter(
            "engine.memo_misses_total",
            "memo lookups that fell through to the index")
        #: Callback gauges close over this engine; :meth:`close`
        #: freezes them (engine <-> registry would otherwise be a
        #: reference cycle only the cyclic collector breaks).
        self._gauges = [
            m.gauge("engine.memo_entries",
                    "entries held in the match memo",
                    fn=lambda: len(self.memo) if self.memo else 0),
            m.gauge("engine.memo_generation",
                    "registration generation stamp",
                    fn=lambda: self.memo.generation if self.memo else 0),
            m.gauge("engine.memo_evictions",
                    "memo entries evicted by capacity",
                    fn=lambda: self.memo.evictions if self.memo else 0),
            m.gauge("engine.subscriptions", "stored subscriptions",
                    fn=lambda: self.forest.n_subscriptions),
            m.gauge("engine.index_nodes", "containment index nodes",
                    fn=lambda: self.forest.n_nodes),
            m.gauge("engine.index_bytes", "modelled index bytes",
                    fn=lambda: self.forest.index_bytes),
            # Working-set legs the EPC-aware sharding tracker samples
            # per slice — exposed on every engine so a flat (unsharded)
            # one's distance from the Fig. 8 cliff is observable the
            # same way.
            m.gauge("engine.arena_live_bytes", "live arena allocation",
                    fn=lambda: self.arena.live_bytes),
            m.gauge("engine.epc_resident_bytes",
                    "EPC-resident bytes on this engine's platform",
                    fn=lambda: self.memory.epc.resident_bytes),
            # How the columnar plane took the writes: rebuilt whole,
            # or absorbed node by node in place. Read off the plane at
            # snapshot time; nothing is counted per match.
            m.gauge("engine.plane_rebuilds",
                    "from-scratch compiles of the columnar plane",
                    fn=lambda: self.plane.rebuilds
                    if self.plane else 0),
            m.gauge("engine.plane_delta_nodes",
                    "index nodes the plane absorbed without a compile",
                    fn=lambda: self.plane.delta_nodes
                    if self.plane else 0)]

    def close(self) -> None:
        """Tear the engine down: its gauges keep their last reading
        and the index is dropped. The owner calls this when the memory
        the engine lives in goes away (enclave destroy)."""
        for gauge in self._gauges:
            gauge.freeze()
        self.forest = self.plane = self.memo = None

    # -- registration -----------------------------------------------------------

    def reset(self, entries: Iterable[Tuple[Subscription, object]] = ()
              ) -> None:
        """Replace the index with ``entries`` on the same arena.

        The restore path of a sealed snapshot: the plane holds
        compiled references into the old forest, so it releases its
        modelled memory and is rebuilt over the replacement (lazily:
        nothing compiles until a match), and the memo starts cold.
        Loading is not registration: inserts are traced like any other
        but charge no compute cycles.
        """
        if self.plane is not None:
            self.plane.release()
        self.forest = ContainmentForest(
            arena=self.arena, trace_inserts=self._trace_inserts,
            root_gate=self._root_gate, counters=self.counters)
        if self.backend == "columnar":
            self.plane = ColumnarMatchPlane(self.forest,
                                            arena=self.arena)
        for subscription, subscriber in entries:
            self.forest.insert(subscription, subscriber)
        if self.memo is not None:
            self.memo.bump()

    def register(self, subscription: Subscription,
                 subscriber: object) -> float:
        """Insert a subscription; returns simulated microseconds spent."""
        memory = self.memory
        start_cycles = memory.cycles
        self.forest.insert(subscription, subscriber)
        if self.memo is not None:
            self.memo.bump()
        if self._trace_inserts:
            # One covering check per node the descent touched is
            # already accounted via arena touches; charge the
            # constraint comparisons themselves.
            costs = memory.costs
            memory.charge(costs.node_visit_cycles
                          + costs.predicate_eval_cycles
                          * subscription.n_constraints)
        return memory.spec.cycles_to_us(memory.cycles - start_cycles)

    def unregister(self, subscription: Subscription,
                   subscriber: object) -> bool:
        """Withdraw a subscription registration."""
        removed = self.forest.remove_subscriber(subscription, subscriber)
        if removed and self.memo is not None:
            self.memo.bump()
        return removed

    # -- matching ----------------------------------------------------------------

    def match(self, event: Event) -> MatchResult:
        """Match one event: a batch of one."""
        return self._match_group(EventColumns.of([event]))[0]

    def match_batch(self, events: Union[Iterable[Event], EventColumns]
                    ) -> List[MatchResult]:
        """Match a batch of events, with full cost accounting.

        ``events`` is a sequence of events or an :class:`EventColumns`
        (what the enclave's batch decode produces). The columnar
        backend answers the whole batch with one column pass per
        attribute; the forest backend walks the index once per event,
        so an event repeated within the batch already finds its first
        occurrence in the memo.
        """
        batch = EventColumns.of(events)
        if self.plane is not None:
            return self._match_group(batch)
        return [self.match(event) for event in batch.events()]

    def _match_group(self, batch: EventColumns) -> List[MatchResult]:
        """Memo partition -> index walk over the misses -> charge.

        With the memo enabled, a repeated header is answered from the
        cached frozen subscriber set: no traversal, no predicate
        evaluations, no simulated memory traffic. The misses are
        walked together and charge simulated cycles once (memory
        touches + per-test compute); each reports the group-mean
        ``simulated_us`` — the plane evaluates all events in shared
        passes, so per-event attribution below batch granularity is
        not meaningful. Only the memo's keys and the forest walk need
        the batch as events; the plane reads its columns.
        """
        memo = self.memo
        counters = self.counters
        results: List[Optional[MatchResult]] = [None] * len(batch)
        pending, pending_slots = batch, range(len(batch))
        if memo is not None:
            events = batch.events()
            missed, pending_slots = [], []
            for slot, event in enumerate(events):
                cached = memo.lookup(event.key())
                if cached is None:
                    missed.append(event)
                    pending_slots.append(slot)
                    continue
                self._m_matches.inc()
                self._m_memo_hits.inc()
                counters.matches += 1
                counters.memo_hits += 1
                results[slot] = MatchResult(cached, 0, 0, 0.0)
            pending = EventColumns.of(missed)
        if not pending:
            return results
        memory = self.memory
        costs = memory.costs
        start_cycles = memory.cycles
        if self.plane is not None:
            matched, visited, evaluated = \
                self.plane.match_batch_traced(pending)
            counters.matches += len(pending)
            counters.nodes_visited += sum(visited)
            counters.predicates_evaluated += sum(evaluated)
        else:
            # the forest bumps the shared counters itself
            matched, visited, evaluated = zip(
                *[self.forest.match_traced(event)
                  for event in pending.events()])
        memory.charge(sum(visited) * costs.node_visit_cycles
                      + sum(evaluated) * costs.predicate_eval_cycles)
        elapsed = memory.spec.cycles_to_us(
            memory.cycles - start_cycles) / len(pending)
        for slot, subscribers, n_visited, n_evaluated in zip(
                pending_slots, matched, visited, evaluated):
            self._m_matches.inc()
            self._m_visited.observe(n_visited)
            if memo is not None:
                subscribers = frozenset(subscribers)
                memo.store(events[slot].key(), subscribers)
                self._m_memo_misses.inc()
                counters.memo_misses += 1
            results[slot] = MatchResult(subscribers, n_visited,
                                        n_evaluated, elapsed)
        return results

    # -- introspection -----------------------------------------------------------

    @property
    def index_bytes(self) -> int:
        return self.forest.index_bytes

    @property
    def n_subscriptions(self) -> int:
        return self.forest.n_subscriptions

    @property
    def n_nodes(self) -> int:
        return self.forest.n_nodes
