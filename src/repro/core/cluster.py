"""Horizontal scale-out: a StreamHub-style matcher cluster (paper §3.4).

The paper argues against broker overlays and advocates StreamHub's
architecture — specialise the components and parallelise the matching
stage — noting that "the current publisher-matcher key management
scheme could be simply replicated". This module implements exactly
that: ``MatcherCluster`` slices the subscription database across N
routing enclaves (each on its own simulated platform, each provisioned
with SK through its own attestation), fans every publication out to all
slices and unions the matches.

Because slices run on independent machines, the cluster's latency for
one publication is the *maximum* of the slice latencies, and adding
slices shrinks each slice's index — the scale-out escape hatch the
paper's conclusion offers for both the EPC limit and matching latency.
The ``ext_scaleout`` benchmark measures the resulting speedup curve.

Placement is an explicit, mutable **routing table**
(:class:`repro.core.sharding.RoutingTable`), not a hash: every
registration is assigned a slice once (round-robin, symbol-hash or
EPC-aware least-loaded) and the assignment can later be *changed* by a
live migration. Migration is stage/complete: ``stage_migration`` seals
a CMAC-tagged checkpoint of the selected source entries and opens a
registration-WAL suffix for them; writes that touch staged keys keep
landing on the source (matching never sees a partial move) while being
journalled; ``complete_migration`` replays checkpoint + WAL suffix
onto the target, atomically flips the routing table, and removes the
moved entries from the source. Because matches union slice results,
and the flip is a single synchronous commit between match batches,
match sets are byte-identical to an unsharded engine before, during
and after a migration. ``autoscale`` drives migrations from a
:class:`repro.core.sharding.ShardingPolicy` over the slices' simulated
EPC working sets — split before the Fig. 8 cliff, never fall off it.

The cluster runs one code path wherever a slice lives: each slice sits
behind a *handle* — ``apply(ops)``, ``send``/``recv`` (``call`` is
both), ``stop``, ``kill`` — and every request goes through one op table
(``apply``, ``warm``, ``sample``, ``match_batch``). ``backend`` picks
the handle type: ``"serial"`` (default) keeps the slice in this process
and runs a request when it is sent (simulated latency is still the
parallel max over slices; wall-clock time is the sum); ``"process"``
hosts it in a persistent ``multiprocessing`` worker that builds its
index in-process (compiled matchers are closures and never cross a
pipe). A worker handle owns the registration buffer: ``apply`` appends
to it and the next request ships it ahead of itself. Every fan-out
sends to all slices before receiving any reply, so workers overlap.
Writes that gate a commit are acknowledged round trips, never buffered
— a migration's target replay before the flip, its source cleanup
after it, a recovered member's replay — so a dead target fails a
migration *before* the flip. Per-slice operation order is the same on
both backends and the platforms are deterministic, so match sets *and*
simulated latencies are byte-identical; only wall-clock time changes.
"""

from __future__ import annotations

import multiprocessing
import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.sharding import (MigrationTicket, RoutingKey,
                                 RoutingTable, ScaleAction, ShardingPolicy,
                                 SliceSample)
from repro.crypto.encoding import pack_fields, unpack_fields
from repro.errors import RoutingError, WalError
from repro.matching.columnar import validate_backend
from repro.matching.events import Event
from repro.matching.matcher import MatchingEngine
from repro.matching.subscriptions import Subscription
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.wal import WriteAheadLog
from repro.sgx.cpu import PlatformSpec, SKYLAKE_I7_6700
from repro.sgx.platform import SgxPlatform

__all__ = ["MatcherSlice", "MatcherCluster", "ClusterMatchResult"]

#: One slice write: ("reg" | "unreg", subscription, subscriber).
SliceOp = Tuple[str, Subscription, object]


class MatcherSlice:
    """One matcher replica: its own platform, enclave arena and engine."""

    def __init__(self, slice_id: int, spec: PlatformSpec,
                 matcher_backend: str = "forest") -> None:
        self.slice_id = slice_id
        self.platform = SgxPlatform(spec=spec)
        self.arena = self.platform.memory.new_arena(
            enclave=True, name=f"slice-{slice_id}")
        # Registration is untraced (a slice measures matching only).
        # Matching stays one-event-per-ecall in the cluster (latency
        # is per publication), so a columnar plane runs batches of one
        # here; the compiled tables still amortise across the stream.
        self.engine = MatchingEngine(arena=self.arena,
                                     backend=matcher_backend,
                                     trace_inserts=False)

    def register(self, subscription: Subscription,
                 subscriber: object) -> None:
        self.engine.register(subscription, subscriber)

    def unregister(self, subscription: Subscription,
                   subscriber: object) -> bool:
        """Withdraw one registration; True when it was present.

        Removal goes through the forest, which frees the node's arena
        allocation when its last subscriber leaves — so a migrated-out
        or unsubscribed slice's modelled working set genuinely shrinks.
        """
        return self.engine.unregister(subscription, subscriber)

    def apply(self, ops: Sequence[SliceOp]) -> int:
        """Apply a mixed register/unregister batch in order."""
        applied = 0
        for op, subscription, subscriber in ops:
            if op == "reg":
                self.register(subscription, subscriber)
                applied += 1
            elif op == "unreg":
                if self.unregister(subscription, subscriber):
                    applied += 1
            else:
                raise RoutingError(f"unknown slice op {op!r}")
        return applied

    def warm(self) -> None:
        """Prefault the slice's index pages (post-registration state)."""
        self.platform.memory.prefault(self.arena.base,
                                      self.arena.allocated_bytes,
                                      enclave=True)

    def sample(self) -> Tuple[int, int, int, int, int, int]:
        """Working-set snapshot: (subscriptions, index bytes, arena
        live bytes, arena allocated bytes, EPC resident bytes,
        cumulative EPC faults)."""
        epc = self.platform.memory.epc
        return (self.engine.n_subscriptions, self.engine.index_bytes,
                self.arena.live_bytes, self.arena.allocated_bytes,
                epc.resident_bytes, epc.faults)

    def match(self, event: Event) -> Tuple[Set[object], float]:
        """Match one event; returns (subscribers, simulated µs).

        The engine charges the index walk; the slice adds the enclave
        transition around it.
        """
        memory = self.platform.memory
        costs = self.platform.spec.costs
        start = memory.cycles
        memory.charge(costs.eenter_cycles)
        matched = self.engine.match(event).subscribers
        memory.charge(costs.eexit_cycles)
        return matched, self.platform.spec.cycles_to_us(
            memory.cycles - start)


class ClusterMatchResult:
    """Union of slice matches plus the parallel-latency accounting."""

    __slots__ = ("subscribers", "latency_us", "slice_latencies_us")

    def __init__(self, subscribers: Set[object],
                 slice_latencies_us: List[float]) -> None:
        self.subscribers = subscribers
        self.slice_latencies_us = slice_latencies_us
        #: Slices match in parallel on separate machines: the
        #: publication is fully routed when the slowest slice finishes.
        self.latency_us = max(slice_latencies_us) \
            if slice_latencies_us else 0.0


#: The requests a slice serves — one table for both handle types (the
#: worker loop serves it on the far side of its pipe).
_OPS = {
    "apply": MatcherSlice.apply,
    "warm": lambda matcher_slice, _: matcher_slice.warm(),
    "sample": lambda matcher_slice, _: matcher_slice.sample(),
    "match_batch": lambda matcher_slice, events: [
        matcher_slice.match(event) for event in events],
}


def _serve(matcher_slice: MatcherSlice, op: str,
           payload: object) -> object:
    handler = _OPS.get(op)
    if handler is None:
        raise RoutingError(f"unknown slice op {op!r}")
    return handler(matcher_slice, payload)


class _LocalSlice:
    """Handle for a slice in this process: a request runs when sent."""

    def __init__(self, slice_id: int, spec: PlatformSpec,
                 matcher_backend: str = "forest") -> None:
        self.slice_id = slice_id
        self.matcher_slice = MatcherSlice(slice_id, spec, matcher_backend)
        self._reply: object = None

    def apply(self, ops: Sequence[SliceOp]) -> None:
        self.matcher_slice.apply(ops)

    def send(self, op: str, payload: object = None) -> None:
        self._reply = _serve(self.matcher_slice, op, payload)

    def recv(self) -> object:
        reply, self._reply = self._reply, None
        return reply

    def call(self, op: str, payload: object = None) -> object:
        self.send(op, payload)
        return self.recv()

    def stop(self, timeout: float = 5.0) -> None:
        """Nothing to tear down; :meth:`kill` is the same no-op."""

    kill = stop


def _slice_worker_main(conn, slice_id: int, spec: PlatformSpec,
                       matcher_backend: str = "forest") -> None:
    """Entry point of one persistent slice worker process.

    Hosts a real :class:`MatcherSlice` and serves a tiny request/reply
    protocol over the pipe: ``(buffered ops, op, payload)`` in — the
    ops are applied first — and ``(status, value)`` out. The slice's
    index is built *here* — subscriptions cross the pipe (they are
    plain frozen dataclasses), compiled poset nodes never do.
    """
    matcher_slice = MatcherSlice(slice_id, spec, matcher_backend)
    while True:
        try:
            ops, op, payload = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; die quietly
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            matcher_slice.apply(ops)
            conn.send(("ok", _serve(matcher_slice, op, payload)))
        except Exception as exc:  # noqa: BLE001 — reply, don't die
            conn.send(("error", repr(exc)))
    conn.close()


_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods()
    else "spawn")


class _SliceWorker:
    """Handle for a slice in a persistent worker process.

    Owns the slice's registration buffer: :meth:`apply` appends to it
    and the next request ships it in the same message, ahead of
    itself — so a registration costs no round trip of its own and the
    slice still sees every op in arrival order.
    """

    def __init__(self, slice_id: int, spec: PlatformSpec,
                 matcher_backend: str = "forest") -> None:
        self.slice_id = slice_id
        parent_conn, child_conn = _CONTEXT.Pipe()
        self._conn = parent_conn
        self._process = _CONTEXT.Process(
            target=_slice_worker_main,
            args=(child_conn, slice_id, spec, matcher_backend),
            daemon=True, name=f"matcher-slice-{slice_id}")
        self._process.start()
        child_conn.close()
        self._pending: List[SliceOp] = []

    def apply(self, ops: Sequence[SliceOp]) -> None:
        self._pending.extend(ops)

    def send(self, op: str, payload: object = None) -> None:
        try:
            self._conn.send((self._pending, op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise RoutingError(
                f"slice {self.slice_id} worker is gone") from exc
        self._pending = []

    def recv(self) -> object:
        try:
            status, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise RoutingError(
                f"slice {self.slice_id} worker died mid-request") from exc
        if status != "ok":
            raise RoutingError(
                f"slice {self.slice_id} worker error: {value}")
        return value

    def call(self, op: str, payload: object = None) -> object:
        self.send(op, payload)
        return self.recv()

    def _close_conn(self) -> None:
        # Connection.close() raises OSError on a second call; teardown
        # paths (stop after kill, cluster.close after recover_slice,
        # __del__ after an explicit close) must all be no-ops instead.
        if not self._conn.closed:
            self._conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Orderly shutdown; escalates to terminate if unresponsive.

        Idempotent, and safe on a worker that already died or was
        already killed: every step degrades to a no-op.
        """
        if self._process.is_alive() and not self._conn.closed:
            try:
                self._conn.send(((), "stop", None))
                self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)
        self._close_conn()

    def kill(self, timeout: float = 5.0) -> None:
        """Hard-kill (simulates a crashed cluster member); idempotent."""
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout)
        self._close_conn()


def _subscriber_token(subscriber: object) -> bytes:
    """Stable byte token naming a subscriber inside WAL/checkpoint
    frames. The live object never round-trips through bytes — replay
    resolves tokens back to the registered objects — the token only
    has to bind the frame to one registration for tamper evidence."""
    return repr(subscriber).encode()


class MatcherCluster:
    """N matcher slices behind one logical router.

    ``assignment`` chooses how *new* subscriptions are placed (the
    routing table owns the assignment afterwards — migrations move it):

    * ``"round-robin"`` (default) — balanced sizes, StreamHub style;
    * ``"symbol-hash"`` — subscriptions pinning an equality on
      :attr:`SYMBOL_ATTRIBUTE` are routed by its hash (keeps
      same-symbol subscriptions together, preserving containment
      density within a slice); subscriptions without one fall back to
      round-robin;
    * ``"epc-aware"`` — least-loaded by estimated working set, so new
      load drains toward the slice with the most EPC headroom.

    ``backend`` chooses where slices live (see module docstring):
    ``"serial"`` in this process, ``"process"`` each in a persistent
    worker process started by fork where the platform has it, spawn
    elsewhere. On both, ``self.slices`` is the list of slice handles;
    close the cluster via :meth:`close` or by using it as a context
    manager (a no-op for in-process slices).

    ``policy`` (a :class:`~repro.core.sharding.ShardingPolicy`) is the
    default autoscaler consulted by :meth:`autoscale`.
    """

    ASSIGNMENTS = ("round-robin", "symbol-hash", "epc-aware")
    BACKENDS = ("serial", "process")
    SYMBOL_ATTRIBUTE = "symbol"

    def __init__(self, n_slices: int,
                 spec: PlatformSpec = SKYLAKE_I7_6700,
                 assignment: str = "round-robin",
                 backend: str = "serial",
                 matcher_backend: str = "forest",
                 policy: Optional[ShardingPolicy] = None,
                 metrics=None) -> None:
        if n_slices < 1:
            raise RoutingError("cluster needs at least one slice")
        if assignment not in self.ASSIGNMENTS:
            raise RoutingError(f"unknown assignment {assignment!r}")
        if backend not in self.BACKENDS:
            raise RoutingError(f"unknown backend {backend!r}")
        self.matcher_backend = validate_backend(matcher_backend)
        self.spec = spec
        self.n_slices = n_slices
        self.assignment = assignment
        self.backend = backend
        self.policy = policy if policy is not None else ShardingPolicy()
        self._next = 0
        self.n_subscriptions = 0
        #: subscription→slice placement; :meth:`recover_slice` replays
        #: a dead member's entries from here, migrations flip it.
        self.table = RoutingTable(n_slices)
        #: live (subscription, subscriber) objects by routing key —
        #: append-only, so WAL/checkpoint replay resolves byte tokens
        #: back to the exact objects callers registered (subscribers
        #: are arbitrary hashable objects, not serialisable values).
        self._objects: Dict[RoutingKey,
                            Tuple[Subscription, object]] = {}
        #: per-slice estimated working set (sum of subscription record
        #: sizes). Placement-time signal only; policy decisions use the
        #: slices' real sampled accounting.
        self._estimated_bytes: List[int] = [0] * n_slices
        self._retired: Set[int] = set()
        self._staged_by_source: Dict[int, MigrationTicket] = {}
        self._tickets: List[MigrationTicket] = []
        self._migration_store = CheckpointStore(retain=8)
        self._next_mig_id = 1
        self.slices_recovered = 0
        self.migrations_staged = 0
        self.migrations_completed = 0
        self.migrations_aborted = 0
        self.migrated_subscriptions = 0
        self.migrated_bytes = 0
        self.splits = 0
        self.grows = 0
        self.rebalances = 0
        self.merges = 0
        #: monotonically counts state changes; derived caches (working
        #: set samples, per-slice gauges) invalidate on it.
        self._mutations = 0
        self._samples_at = -1
        self._samples: List[SliceSample] = []
        self._metrics = None
        self._closed = False
        self.slices = [self._new_slice(i) for i in range(n_slices)]
        if metrics is not None:
            self.attach_metrics(metrics)

    def _new_slice(self, slice_id: int):
        """A fresh, empty slice behind its handle — the one place that
        reads the backend."""
        handle = _SliceWorker if self.backend == "process" else _LocalSlice
        return handle(slice_id, self.spec, self.matcher_backend)

    def _fan_out(self, op: str, payload: object = None) -> List[object]:
        """One request to every slice: send to all, then receive all,
        so worker slices overlap."""
        for handle in self.slices:
            handle.send(op, payload)
        return [handle.recv() for handle in self.slices]

    # -- registration ------------------------------------------------------

    def _slice_id_for(self, subscription: Subscription) -> int:
        """Placement for a *new* registration. O(1): a crc32/modulo for
        symbol-hash, a counter for round-robin, a running-minimum scan
        over per-slice byte estimates for epc-aware (n_slices entries,
        no index walk) — existing keys never come here, they are O(1)
        routing-table hits in :meth:`register`."""
        if self.assignment == "symbol-hash":
            for attribute, constraint in subscription.items:
                if attribute == self.SYMBOL_ATTRIBUTE \
                        and constraint.is_string \
                        and constraint.equals is not None:
                    digest = zlib.crc32(constraint.equals.encode())
                    hashed = digest % self.n_slices
                    if hashed not in self._retired:
                        return hashed
        if self.assignment == "epc-aware":
            estimates = self._estimated_bytes
            best, best_bytes = -1, None
            for slice_id in range(self.n_slices):
                if slice_id in self._retired:
                    continue
                if best_bytes is None \
                        or estimates[slice_id] < best_bytes:
                    best, best_bytes = slice_id, estimates[slice_id]
            return best
        chosen = self._next % self.n_slices
        self._next += 1
        while chosen in self._retired:
            chosen = self._next % self.n_slices
            self._next += 1
        return chosen

    def register(self, subscription: Subscription,
                 subscriber: object) -> int:
        """Register into the owning slice; returns the slice id.

        Re-registering a live (subscription, subscriber) pair is
        idempotent — it stays on its current slice (matching the
        containment forest's dedup semantics) and is not re-placed.

        The write goes through the slice handle's ``apply``: a worker
        handle buffers it and ships it ahead of its next request, so
        every slice still sees its registrations before the match that
        follows them, on both backends.
        """
        key: RoutingKey = (subscription.key(), subscriber)
        existing = self.table.slice_of(key)
        if existing is not None:
            return existing
        slice_id = self._slice_id_for(subscription)
        self.table.assign(key, slice_id)
        self._objects[key] = (subscription, subscriber)
        self._estimated_bytes[slice_id] += subscription.size_bytes()
        self.n_subscriptions += 1
        self._mutations += 1
        self.slices[slice_id].apply([("reg", subscription, subscriber)])
        self._journal_window_op(slice_id, "REG", key, subscription)
        return slice_id

    def unregister(self, subscription: Subscription,
                   subscriber: object) -> bool:
        """Withdraw a registration; True when it was live.

        The routing table drops the key immediately, the owning slice
        removes (and arena-frees) the entry, and — when the key is part
        of a staged migration — the withdrawal is journalled in the
        migration's WAL suffix so completion replays it on the target.
        """
        key: RoutingKey = (subscription.key(), subscriber)
        owner = self.table.slice_of(key)
        if owner is None:
            return False
        self.table.remove(key)
        self._estimated_bytes[owner] -= subscription.size_bytes()
        self.n_subscriptions -= 1
        self._mutations += 1
        self.slices[owner].apply([("unreg", subscription, subscriber)])
        self._journal_window_op(owner, "UNREG", key, subscription)
        return True

    def _journal_window_op(self, slice_id: int, kind: str,
                           key: RoutingKey,
                           subscription: Subscription) -> None:
        """Append a REG/UNREG frame to the WAL suffix of a staged
        migration when the op lands on its source and touches one of
        its staged keys — the record set ``complete_migration``
        replays onto the target."""
        ticket = self._staged_by_source.get(slice_id)
        if ticket is None or key not in ticket.key_set:
            return
        from repro.core.messages import encode_subscription
        frame = pack_fields([encode_subscription(subscription),
                             _subscriber_token(key[1])])
        ticket.wal.append(kind, frame)

    def warm(self) -> None:
        self._fan_out("warm")

    # -- topology ----------------------------------------------------------

    def add_slice(self) -> int:
        """Provision one more (empty) slice; returns its id."""
        new_id = self.n_slices
        self.table.add_slice()
        self._estimated_bytes.append(0)
        self.slices.append(self._new_slice(new_id))
        self.n_slices += 1
        self._mutations += 1
        if self._metrics is not None:
            self._register_slice_gauges(new_id)
        return new_id

    # -- live migration ----------------------------------------------------

    def stage_migration(self, source: int, target: Optional[int] = None,
                        keys: Optional[Sequence[RoutingKey]] = None,
                        fraction: float = 0.5) -> MigrationTicket:
        """Seal a source-slice checkpoint and open the migration window.

        Selects ``keys`` (default: the newest ``fraction`` of the
        source's members), seals them into a CMAC-tagged checkpoint
        published on the migration store, and opens a fresh WAL whose
        records — appended by register/unregister while the migration
        is staged — form the replay suffix. The source keeps serving
        matches for the staged keys until :meth:`complete_migration`
        flips the routing table; ``target=None`` provisions a new
        slice. One staged migration per source at a time.
        """
        self._check_slice_id(source)
        if source in self._staged_by_source:
            raise RoutingError(
                f"slice {source} already has a staged migration")
        if target is None:
            target = self.add_slice()
        self._check_slice_id(target)
        if target == source:
            raise RoutingError("migration target equals source")
        if keys is None:
            members = self.table.members(source)
            count = max(1, int(len(members) * fraction))
            keys = members[-count:]
        else:
            keys = list(keys)
            for key in keys:
                if self.table.slice_of(key) != source:
                    raise RoutingError(
                        f"key not routed to slice {source}: {key!r}")
        if not keys:
            raise RoutingError(f"slice {source} has nothing to migrate")
        from repro.core.messages import encode_subscription
        entries = [self._objects[key] for key in keys]
        payload = pack_fields([
            pack_fields([encode_subscription(subscription),
                         _subscriber_token(subscriber)])
            for subscription, subscriber in entries])
        wal = WriteAheadLog()
        mig_id = self._next_mig_id
        self._next_mig_id += 1
        checkpoint = self._migration_store.publish(
            wal.seal_payload(payload),
            counter_id=mig_id.to_bytes(8, "big"),
            wal_seq=wal.last_seq)
        ticket = MigrationTicket(mig_id, source, target, tuple(keys),
                                 wal, checkpoint)
        self._staged_by_source[source] = ticket
        self._tickets.append(ticket)
        self.migrations_staged += 1
        return ticket

    def complete_migration(self, ticket: MigrationTicket) -> int:
        """Transfer, replay the WAL suffix, flip routing atomically.

        Replays the sealed checkpoint onto the target, then the WAL
        suffix (register/unregister ops that touched staged keys during
        the window) — the target ends at exactly the source's current
        truth for those keys. The routing-table flip is one version
        bump between match batches, and the moved entries are then
        removed from the source, so no match ever sees a key in zero
        or two slices. Returns how many registrations moved.

        Fail-before-flip: the target replay is acknowledged, so a dead
        target raises :class:`RoutingError` with the ticket staged, the
        table unflipped and the source serving every staged key;
        :meth:`recover_slice` on the target, then completing again,
        finishes the move.
        """
        if ticket.state != "staged":
            raise RoutingError(
                f"migration {ticket.mig_id} is {ticket.state}, "
                "not staged")
        from repro.core.messages import decode_subscription
        try:
            payload = ticket.wal.open_payload(
                ticket.checkpoint.sealed_bytes)
        except WalError as exc:
            raise RoutingError(
                f"migration {ticket.mig_id} checkpoint failed "
                "verification") from exc
        by_token = {(key[0], _subscriber_token(key[1])): key
                    for key in ticket.keys}
        target_ops: List[SliceOp] = []
        sealed_fields = unpack_fields(payload)
        if len(sealed_fields) != len(ticket.keys):
            raise RoutingError(
                f"migration {ticket.mig_id} checkpoint entry count "
                "does not match the staged key set")
        for field_blob, key in zip(sealed_fields, ticket.keys):
            sub_blob, token = unpack_fields(field_blob)
            subscription = decode_subscription(sub_blob)
            if (subscription.key(), token) != (key[0],
                                               _subscriber_token(key[1])):
                raise RoutingError(
                    f"migration {ticket.mig_id} checkpoint entry "
                    "disagrees with the staged key set")
            target_ops.append(("reg",) + self._objects[key])
        for record in ticket.wal.records_after(0):
            sub_blob, token = unpack_fields(record.frame)
            subscription = decode_subscription(sub_blob)
            key = by_token.get((subscription.key(), token))
            if key is None:
                raise RoutingError(
                    f"migration {ticket.mig_id} WAL suffix names an "
                    "unstaged key")
            op = "reg" if record.kind == "REG" else "unreg"
            target_ops.append((op,) + self._objects[key])
        self.slices[ticket.target].call("apply", target_ops)
        alive = [key for key in ticket.keys
                 if self.table.slice_of(key) == ticket.source]
        self.table.flip({key: ticket.target for key in alive})
        moved_bytes = 0
        for key in alive:
            size = self._objects[key][0].size_bytes()
            moved_bytes += size
            self._estimated_bytes[ticket.source] -= size
            self._estimated_bytes[ticket.target] += size
        self.slices[ticket.source].call(
            "apply", [("unreg",) + self._objects[key] for key in alive])
        ticket.state = "completed"
        ticket.moved = len(alive)
        del self._staged_by_source[ticket.source]
        self.migrations_completed += 1
        self.migrated_subscriptions += len(alive)
        self.migrated_bytes += moved_bytes
        self._mutations += 1
        return len(alive)

    def abort_migration(self, ticket: MigrationTicket) -> None:
        """Drop a staged migration; the source keeps everything (it
        never stopped serving the staged keys, so aborting is purely
        bookkeeping)."""
        if ticket.state != "staged":
            raise RoutingError(
                f"migration {ticket.mig_id} is {ticket.state}, "
                "not staged")
        ticket.state = "aborted"
        del self._staged_by_source[ticket.source]
        self.migrations_aborted += 1

    def migrate(self, source: int, target: Optional[int] = None,
                keys: Optional[Sequence[RoutingKey]] = None,
                fraction: float = 0.5) -> MigrationTicket:
        """Stage and immediately complete one migration."""
        ticket = self.stage_migration(source, target, keys=keys,
                                      fraction=fraction)
        self.complete_migration(ticket)
        return ticket

    # -- autoscaling -------------------------------------------------------

    def autoscale(self, policy: Optional[ShardingPolicy] = None
                  ) -> List[ScaleAction]:
        """Sample working sets, ask the policy, apply its actions.

        Returns the actions (planned-only under ``policy.dry_run``).
        Splits/grows provision new slices; rebalances/merges move
        between existing ones; a merged-out slice is retired from
        placement so it drains for good.
        """
        policy = policy if policy is not None else self.policy
        actions = policy.decide(self.slice_samples(refresh=True))
        if policy.dry_run:
            return actions
        for action in actions:
            if action.kind == "split":
                members = self.table.members(action.source)
                self.migrate(action.source,
                             keys=members[-action.move:])
                self.splits += 1
            elif action.kind == "grow":
                self.add_slice()
                self.grows += 1
            elif action.kind == "rebalance":
                members = self.table.members(action.source)
                self.migrate(action.source, action.target,
                             keys=members[-action.move:])
                self.rebalances += 1
            elif action.kind == "merge":
                members = self.table.members(action.source)
                if members:
                    self.migrate(action.source, action.target,
                                 keys=members)
                self._retired.add(action.source)
                self.merges += 1
            else:  # pragma: no cover — policy emits known kinds
                raise RoutingError(
                    f"unknown scale action {action.kind!r}")
        return actions

    # -- member recovery ---------------------------------------------------

    def recover_slice(self, slice_id: int) -> int:
        """Rebuild one member after its enclave died; returns how many
        subscriptions were re-registered.

        The cluster's peers are unaffected (their platforms are
        independent machines); the dead member is replaced by a fresh
        slice — new platform, new arena, empty index — and its routing-
        table membership is replayed into it in original registration
        order, exactly the peer re-registration step a supervised
        restart performs for a cluster member. Ownership is read from
        the routing table, not re-derived, so neither round-robin state
        nor past migrations can skew the rebuilt placement — and a
        migration staged *from* this slice stays staged: its checkpoint
        and WAL suffix live in the parent, so completion still works
        against the recovered member.

        The member's handle is killed and replaced; the replay, an
        acknowledged round trip, supersedes anything the old handle
        still buffered.
        """
        self._check_slice_id(slice_id)
        replay = [("reg",) + self._objects[key]
                  for key in self.table.members(slice_id)]
        self._mutations += 1
        self.slices[slice_id].kill()
        self.slices[slice_id] = self._new_slice(slice_id)
        self.slices[slice_id].call("apply", replay)
        self.slices_recovered += 1
        return len(replay)

    # -- matching -------------------------------------------------------------

    def match(self, event: Event) -> ClusterMatchResult:
        """Fan the publication out to every slice; union the matches."""
        return self.match_batch([event])[0]

    def match_batch(self,
                    events: Sequence[Event]) -> List[ClusterMatchResult]:
        """Match a batch of publications against every slice.

        The whole batch goes to *all* slices before any reply is
        collected, so worker slices' wall-clock work overlaps; results
        are unioned per event here. Both backends return identical
        match sets and identical simulated latencies.
        """
        events = list(events)
        if not events:
            return []
        self._mutations += 1
        per_slice = self._fan_out("match_batch", events)
        results: List[ClusterMatchResult] = []
        for index in range(len(events)):
            subscribers: Set[object] = set()
            latencies: List[float] = []
            for slice_results in per_slice:
                matched, elapsed = slice_results[index]
                subscribers |= matched
                latencies.append(elapsed)
            results.append(ClusterMatchResult(subscribers, latencies))
        return results

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop every slice handle (a no-op for in-process slices)."""
        if self._closed:
            return
        self._closed = True
        for handle in self.slices:
            try:
                handle.stop()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass

    def __enter__(self) -> "MatcherCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC timing varies
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # -- introspection -----------------------------------------------------------

    def _check_slice_id(self, slice_id: int) -> None:
        if not 0 <= slice_id < self.n_slices:
            raise RoutingError(f"no slice {slice_id} in this cluster")

    def slice_samples(self, refresh: bool = False) -> List[SliceSample]:
        """Per-slice working-set snapshot (cached until state changes).

        One ``sample`` request per slice. The cache key is the
        cluster's mutation counter, so gauge snapshots that read
        several fields of several slices cost one sampling pass, not
        one request per gauge."""
        if not refresh and self._samples_at == self._mutations:
            return self._samples
        raw = self._fan_out("sample")
        self._samples = [
            SliceSample(slice_id=i, subscriptions=subs,
                        index_bytes=index_bytes, live_bytes=live,
                        allocated_bytes=allocated,
                        resident_bytes=resident,
                        epc_faults=faults)
            for i, (subs, index_bytes, live, allocated, resident,
                    faults) in enumerate(raw)]
        self._samples_at = self._mutations
        return self._samples

    def slice_sizes(self) -> List[int]:
        return [sample.subscriptions for sample in self.slice_samples()]

    def slice_index_bytes(self) -> List[int]:
        return [sample.index_bytes for sample in self.slice_samples()]

    def working_set_bytes(self) -> List[int]:
        """Per-slice working sets, the autoscaler's split signal."""
        return [sample.working_set_bytes
                for sample in self.slice_samples()]

    # -- metrics -----------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Expose occupancy and migration state as callback gauges.

        Per-slice occupancy (``cluster.slice_bytes.N``,
        ``cluster.slice_subscriptions.N``,
        ``cluster.slice_resident_pages.N``) plus cluster-wide totals
        and ``cluster.*`` migration/autoscaler counts. Callback-backed:
        the register/match hot paths pay nothing until a snapshot is
        taken (one working-set sampling pass serves every gauge).
        """
        self._metrics = registry
        registry.gauge("cluster.slices", "provisioned matcher slices",
                       fn=lambda: self.n_slices)
        registry.gauge("cluster.subscriptions",
                       "live registrations across all slices",
                       fn=lambda: self.n_subscriptions)
        registry.gauge("cluster.routing_version",
                       "routing-table flips applied",
                       fn=lambda: self.table.version)
        registry.gauge("cluster.epc_resident_pages",
                       "EPC-resident pages summed over slices",
                       fn=lambda: sum(s.resident_bytes
                                      for s in self.slice_samples())
                       // self.spec.page_bytes)
        registry.gauge("cluster.migrations_staged",
                       "migrations staged (checkpoint sealed)",
                       fn=lambda: self.migrations_staged)
        registry.gauge("cluster.migrations_completed",
                       "migrations completed (routing flipped)",
                       fn=lambda: self.migrations_completed)
        registry.gauge("cluster.migrations_aborted",
                       "staged migrations dropped before the flip",
                       fn=lambda: self.migrations_aborted)
        registry.gauge("cluster.migrated_subscriptions",
                       "registrations moved by completed migrations",
                       fn=lambda: self.migrated_subscriptions)
        registry.gauge("cluster.migrated_bytes",
                       "modelled bytes moved by completed migrations",
                       fn=lambda: self.migrated_bytes)
        registry.gauge("cluster.splits", "autoscaler splits applied",
                       fn=lambda: self.splits)
        registry.gauge("cluster.grows", "autoscaler grows applied",
                       fn=lambda: self.grows)
        registry.gauge("cluster.rebalances",
                       "autoscaler rebalances applied",
                       fn=lambda: self.rebalances)
        registry.gauge("cluster.merges", "autoscaler merges applied",
                       fn=lambda: self.merges)
        for slice_id in range(self.n_slices):
            self._register_slice_gauges(slice_id)

    def _register_slice_gauges(self, slice_id: int) -> None:
        registry = self._metrics

        def _sample(index: int = slice_id) -> SliceSample:
            return self.slice_samples()[index]

        registry.gauge(f"cluster.slice_bytes.{slice_id}",
                       "modelled index bytes of this slice",
                       fn=lambda: _sample().index_bytes)
        registry.gauge(f"cluster.slice_subscriptions.{slice_id}",
                       "live registrations on this slice",
                       fn=lambda: _sample().subscriptions)
        registry.gauge(f"cluster.slice_resident_pages.{slice_id}",
                       "EPC-resident pages on this slice's platform",
                       fn=lambda: _sample().resident_bytes
                       // self.spec.page_bytes)
