"""Columnar batch matcher: attribute-indexed predicate tables.

The containment forest answers one event per tree walk; profiles after
the PR 5 crypto overhaul show that walk is now the wall-clock
bottleneck of the whole pipeline. This module trades the per-event walk
for a *batch* plane compiled from the registered subscription set:

* per attribute, the constraints of every stored subscription are
  compiled into an :class:`_AttributeTable` — a hash bucket per
  equality pin, sorted lower/upper bound lists and sorted interval
  lists for the numeric range ops, an "always" list for bare
  ``exists`` constraints, and a residual list of compiled closures for
  the rare shapes (exclusion sets, string wildcards);
* a batch of events is evaluated column-wise, one pass per attribute:
  each event's value probes the table once and *decrements a
  per-event deficit byte* for every subscription whose constraint on
  that attribute it satisfies;
* a subscription matches an event exactly when its deficit reaches
  zero — every one of its constraints was satisfied by a distinct
  attribute pass — and the zero bytes are found with C-speed
  ``bytearray.find`` scans, so emission cost is proportional to the
  matches, not to the stored set.

The poset (:class:`~repro.matching.poset.ContainmentForest`) remains
the authoritative registration and covering structure — insertion,
removal, covering antichains for overlay adverts, and invariants all
live there. The plane is a *match-time* projection of it, brought up
to date lazily by the next match after a registration change
(:attr:`ContainmentForest.generation` moved), in one of two ways:

* **by delta** — a compiled plane arms the forest's change log
  (:meth:`ContainmentForest.record_changes`), which names the nodes
  created and spliced out since, and replays it in place: a write
  costs a few bisects and list edits, not a rebuild of every table;
* **in bulk** — one :meth:`ColumnarMatchPlane._compile` from
  ``iter_nodes()`` when the plane was never compiled (or was
  released), when the log is missing (it overflowed its bound, or
  another reader armed it), or when the pending changes plus the slots
  parked by earlier removals exceed a quarter of the slots. Set-up,
  state restore and migration replay are bulk by construction.

The two agree exactly. A removed subscription's entries are *deleted*,
never tombstoned, so every probe consults exactly the rows a fresh
compile would hold; and a slot only *names* a subscription, so match
sets and the ``(touched, consulted)`` work counters are invariant
under the renaming of slots and the order of tied keys that separate
an edited plane from a rebuilt one.

Memory-trace fidelity: when built over an arena the plane allocates
one column block per attribute plus one accumulator block, and traced
batch matching reports *coalesced runs* over exactly the column bytes
each pass consulted — the LLC/EPC/MEE models keep observing the real
access pattern (sequential column streams, one accumulator sweep per
event) instead of the forest's pointer-chasing node touches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.poset import ContainmentForest
from repro.sgx.memory import MemoryArena

__all__ = ["ColumnarMatchPlane", "MATCHER_BACKENDS",
           "validate_backend"]

#: Matcher backends selectable wherever the plane is wired in
#: (:class:`~repro.matching.matcher.MatchingEngine`, the enclave
#: library, the cluster slices, the overlay network).
MATCHER_BACKENDS = ("forest", "columnar")

#: Modelled bytes per compiled table entry (a bound or bucket slot:
#: packed value, flags, subscription index).
COLUMN_ENTRY_BYTES = 16
#: Modelled bytes per hash bucket header.
BUCKET_HEADER_BYTES = 8
#: Modelled per-column header (lengths, offsets, attribute id).
COLUMN_BASE_BYTES = 64
#: A subscription's deficit is one byte.
MAX_CONSTRAINTS = 255
#: Deficit byte of a slot whose node was removed: no table names the
#: slot any more, so no pass decrements it and it never reads zero.
FREE_SLOT_ARITY = 1
#: A plane is rebuilt, not edited, once the writes it has to absorb
#: plus the slots it has parked pass this share of its slots: by then
#: a rebuild costs no more than the edits, and sheds the parked slots.
BULK_SHARE = 1 / 4


def _too_wide() -> MatchingError:
    return MatchingError(
        f"columnar deficit bytes cap subscriptions at {MAX_CONSTRAINTS} "
        "constraints")


def validate_backend(backend: str) -> str:
    """Reject unknown matcher backend names early and loudly."""
    if backend not in MATCHER_BACKENDS:
        raise MatchingError(
            f"unknown matcher backend {backend!r} "
            f"(expected one of {MATCHER_BACKENDS})")
    return backend


class _AttributeTable:
    """Compiled constraint tables for one attribute.

    Placement is decided per constraint shape, most specific first;
    every stored constraint lands in exactly one of:

    * ``eq_buckets`` — single admitted value (numeric or string pin):
      ``value -> [subscription indexes]``, an O(1) probe;
    * ``lower`` — one-sided ``v >= lo`` / ``v > lo``: entries sorted by
      ``(lo, lo_open)`` so the satisfied set is a prefix found by one
      bisect;
    * ``upper`` — one-sided ``v <= hi`` / ``v < hi``: entries sorted by
      ``(hi, closedness)`` so the satisfied set is a suffix;
    * ``ranges`` — two-sided intervals, sorted by the lower bound:
      bisect limits the scan to entries whose lower bound admits ``v``,
      each checked against its upper bound;
    * ``always`` — bare ``exists`` constraints (satisfied by any
      present value of any type);
    * ``residual`` — compiled closures for exclusion sets and string
      wildcards (exact but rare; kept off the fast paths).
    """

    __slots__ = ("attribute", "eq_buckets", "lower_keys", "lower_subs",
                 "upper_keys", "upper_subs", "range_keys", "range_rows",
                 "always", "residual", "n_entries", "n_buckets",
                 "address", "size")

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self.eq_buckets: Dict[object, List[int]] = {}
        self.lower_keys: List[Tuple[float, bool]] = []
        self.lower_subs: List[int] = []
        self.upper_keys: List[Tuple[float, int]] = []
        self.upper_subs: List[int] = []
        self.range_keys: List[Tuple[float, bool]] = []
        self.range_rows: List[Tuple[float, bool, int]] = []
        self.always: List[int] = []
        self.residual: List[Tuple[object, int]] = []
        self.n_entries = 0
        self.n_buckets = 0
        self.address = 0
        self.size = 0

    def add(self, constraint, sub_index: int) -> None:
        self.n_entries += 1
        if constraint.is_equality():
            # Satisfiability was enforced at registration, so the
            # pinned value is never excluded and the bucket is exact.
            key = constraint.equals if constraint.is_string \
                else constraint.lo
            bucket = self.eq_buckets.get(key)
            if bucket is None:
                self.eq_buckets[key] = [sub_index]
                self.n_buckets += 1
            else:
                bucket.append(sub_index)
            return
        if not constraint.is_string and not constraint.excluded:
            if constraint.is_universal_interval():
                self.always.append(sub_index)
                return
            lo, hi = constraint.lo, constraint.hi
            if hi == float("inf") and not constraint.hi_open:
                self.lower_keys.append((lo, constraint.lo_open))
                self.lower_subs.append(sub_index)
                return
            if lo == float("-inf") and not constraint.lo_open:
                # Closed bounds sort after open ones at the same hi, so
                # the satisfied suffix starts right after (v, open).
                self.upper_keys.append(
                    (hi, 0 if constraint.hi_open else 1))
                self.upper_subs.append(sub_index)
                return
            if hi != float("inf") and lo != float("-inf"):
                self.range_keys.append((lo, constraint.lo_open))
                self.range_rows.append(
                    (hi, constraint.hi_open, sub_index))
                return
            # Open bound at an infinity ("< inf", "> -inf"): the
            # compiled closures give these exact (if degenerate)
            # semantics — keep the fast lists free of the special case.
        self.residual.append((constraint.compile(), sub_index))

    def seal(self) -> None:
        """Sort the bound lists after all constraints are placed."""
        if self.lower_keys:
            order = sorted(range(len(self.lower_keys)),
                           key=self.lower_keys.__getitem__)
            self.lower_keys = [self.lower_keys[i] for i in order]
            self.lower_subs = [self.lower_subs[i] for i in order]
        if self.upper_keys:
            order = sorted(range(len(self.upper_keys)),
                           key=self.upper_keys.__getitem__)
            self.upper_keys = [self.upper_keys[i] for i in order]
            self.upper_subs = [self.upper_subs[i] for i in order]
        if self.range_keys:
            order = sorted(range(len(self.range_keys)),
                           key=self.range_keys.__getitem__)
            self.range_keys = [self.range_keys[i] for i in order]
            self.range_rows = [self.range_rows[i] for i in order]

    # -- edits of a sealed table (the plane's catch-up) ---------------------

    def _place(self, constraint) -> Tuple[Optional[list], object, object]:
        """``(keys, rows, key)``: where :meth:`add` stores ``constraint``.

        The same decision as :meth:`add`, which keeps its own inline
        copy because it is a compile's inner loop (one call per stored
        constraint). ``rows`` is ``eq_buckets`` (the bucket is
        ``rows[key]``), an unordered list (``keys`` and ``key`` are
        None) or a list parallel to the sorted ``keys``, where ``key``
        is the constraint's sort key.
        """
        if constraint.is_equality():
            return None, self.eq_buckets, constraint.equals \
                if constraint.is_string else constraint.lo
        if not constraint.is_string and not constraint.excluded:
            if constraint.is_universal_interval():
                return None, self.always, None
            lo, hi = constraint.lo, constraint.hi
            if hi == float("inf") and not constraint.hi_open:
                return (self.lower_keys, self.lower_subs,
                        (lo, constraint.lo_open))
            if lo == float("-inf") and not constraint.lo_open:
                return (self.upper_keys, self.upper_subs,
                        (hi, 0 if constraint.hi_open else 1))
            if hi != float("inf") and lo != float("-inf"):
                return (self.range_keys, self.range_rows,
                        (lo, constraint.lo_open))
        return None, self.residual, None

    def insert(self, constraint, sub_index: int) -> None:
        """:meth:`add` to a sealed table: a sorted list takes the entry
        by bisect, after its ties; elsewhere an append is in place."""
        keys, rows, key = self._place(constraint)
        if keys is None:
            self.add(constraint, sub_index)
            return
        self.n_entries += 1
        at = bisect_right(keys, key)
        keys.insert(at, key)
        rows.insert(at, sub_index if rows is not self.range_rows else
                    (constraint.hi, constraint.hi_open, sub_index))

    def discard(self, constraint, sub_index: int) -> None:
        """Delete the entry :meth:`add` stored — no tombstone is left,
        so a probe consults exactly the rows a fresh compile would."""
        self.n_entries -= 1
        keys, rows, key = self._place(constraint)
        if rows is self.eq_buckets:
            bucket = rows[key]
            bucket.remove(sub_index)
            if not bucket:
                del rows[key]
                self.n_buckets -= 1
        elif rows is self.always:
            rows.remove(sub_index)
        elif rows is self.residual:
            del rows[[sub for _test, sub in rows].index(sub_index)]
        else:
            # Bisect to the key, then scan its ties for the slot (a
            # subscription has one constraint per attribute).
            row = sub_index if rows is not self.range_rows else \
                (constraint.hi, constraint.hi_open, sub_index)
            at = rows.index(row, bisect_left(keys, key))
            del keys[at]
            del rows[at]

    def modelled_bytes(self) -> int:
        return (COLUMN_BASE_BYTES
                + COLUMN_ENTRY_BYTES * self.n_entries
                + BUCKET_HEADER_BYTES * self.n_buckets)

    def probe(self, value, deficit: bytearray) -> Tuple[int, int]:
        """Decrement ``deficit`` for every constraint ``value``
        satisfies; returns ``(subs_touched, tests_consulted)``."""
        touched = 0
        consulted = 0
        always = self.always
        if always:
            for sub in always:
                deficit[sub] -= 1
            touched += len(always)
        bucket = self.eq_buckets.get(value)
        if self.eq_buckets:
            consulted += 1
        if bucket is not None:
            for sub in bucket:
                deficit[sub] -= 1
            touched += len(bucket)
        if not isinstance(value, str):
            lower_keys = self.lower_keys
            if lower_keys:
                stop = bisect_right(lower_keys, (value, False))
                consulted += stop
                for sub in self.lower_subs[:stop]:
                    deficit[sub] -= 1
                touched += stop
            upper_keys = self.upper_keys
            if upper_keys:
                start = bisect_right(upper_keys, (value, 0))
                n = len(upper_keys) - start
                consulted += n
                for sub in self.upper_subs[start:]:
                    deficit[sub] -= 1
                touched += n
            range_keys = self.range_keys
            if range_keys:
                stop = bisect_right(range_keys, (value, False))
                consulted += stop
                for hi, hi_open, sub in self.range_rows[:stop]:
                    if value < hi or (value == hi and not hi_open):
                        deficit[sub] -= 1
                        touched += 1
        for test, sub in self.residual:
            consulted += 1
            if test(value):
                deficit[sub] -= 1
                touched += 1
        return touched, consulted


class ColumnarMatchPlane:
    """Lazy columnar projection of a containment forest.

    The plane never owns registrations: it reads the forest's nodes
    (all of them at a compile, the logged ones at a catch-up) and
    keeps *references* to their live subscriber sets, so a subscriber
    joining or leaving a node that stays needs no edit at all. Column
    blocks are allocated from ``arena``: a recompile frees and
    re-allocates all of them, a catch-up only those of the tables
    whose modelled size changed, so churn does not grow the modelled
    working set either way; with no arena the plane is untraced —
    correctness tests use it that way.
    """

    def __init__(self, forest: ContainmentForest,
                 arena: Optional[MemoryArena] = None) -> None:
        self.forest = forest
        self.arena = arena
        self._compiled_generation: Optional[int] = None
        #: The forest change log :meth:`ensure_compiled` armed when it
        #: last brought the plane up to date; None before, and after
        #: :meth:`release`.
        self._changes: Optional[list] = None
        self._tables: List[_AttributeTable] = []
        #: Slot -> the live subscriber set of the node compiled there.
        #: A slot is a subscription's index in every table and in the
        #: deficit bytes; ``_free`` lists the slots of removed nodes.
        self._subscribers: List[Set[object]] = []
        self._arity = b""
        self._free: List[int] = []
        #: ``attribute -> table``: ``_tables`` by name.
        self._table_of: Dict[str, _AttributeTable] = {}
        #: ``id(subscriber set) -> slot``, built by the first catch-up
        #: after a compile: a plane that is never edited never pays for
        #: it. Every set named is kept alive by ``_subscribers``, so no
        #: id can be recycled.
        self._slot_of: Optional[Dict[int, int]] = None
        #: Modelled blocks held in the arena: ``address -> size``.
        self._allocated: Dict[int, int] = {}
        self._acc_address = 0
        self._acc_size = 0
        #: Write telemetry (read by tests, benchmarks and the engine's
        #: snapshot gauges): the times :meth:`ensure_compiled` found
        #: the plane stale and brought it up to date — an incremental
        #: compile is a compile; how many of those rebuilt every table
        #: from scratch; and the forest nodes the others absorbed in
        #: place.
        self.compilations = 0
        self.rebuilds = 0
        self.delta_nodes = 0

    # -- compilation -------------------------------------------------------

    def _release_blocks(self) -> None:
        if self.arena is not None:
            for address, size in self._allocated.items():
                self.arena.free(address, size)
        self._allocated = {}

    def _compile(self) -> None:
        self._release_blocks()
        tables: Dict[str, _AttributeTable] = {}
        subscribers: List[Set[object]] = []
        arity = bytearray()
        for node in self.forest.iter_nodes():
            sub_index = len(subscribers)
            subscribers.append(node.subscribers)
            subscription = node.subscription
            n_constraints = subscription.n_constraints
            if n_constraints > MAX_CONSTRAINTS:
                raise _too_wide()
            arity.append(n_constraints)
            for attribute, constraint in subscription.items:
                table = tables.get(attribute)
                if table is None:
                    table = tables[attribute] = \
                        _AttributeTable(attribute)
                table.add(constraint, sub_index)
        for table in tables.values():
            table.seal()
        self._tables = list(tables.values())
        self._table_of = tables
        self._subscribers = subscribers
        self._arity = bytes(arity)
        self._free = []
        self._slot_of = None
        if self.arena is not None:
            for table in self._tables:
                table.size = table.modelled_bytes()
                table.address = self.arena.alloc(table.size)
                self._allocated[table.address] = table.size
            self._acc_size = max(1, len(subscribers))
            self._acc_address = self.arena.alloc(self._acc_size)
            self._allocated[self._acc_address] = self._acc_size
        self._compiled_generation = self.forest.generation
        self.compilations += 1
        self.rebuilds += 1

    def _reallocate(self, address: int, size: int, new_size: int) -> int:
        """Swap one modelled block for one of ``new_size`` bytes (0:
        the block is only freed, or there was none); its address."""
        if size:
            self.arena.free(address, size)
            del self._allocated[address]
        if new_size:
            address = self.arena.alloc(new_size)
            self._allocated[address] = new_size
        return address

    def _catch_up(self, changes) -> None:
        """Apply the forest's logged node changes to the tables in place.

        What is left is what :meth:`_compile` would build over the same
        forest, up to a renaming of slots and the order of ties: a new
        node takes a free slot (or a new one) and each of its
        constraints is bisected into its attribute's table; a removed
        node's entries are deleted, not tombstoned, and its slot is
        parked with an arity no pass can count down to zero.
        """
        for node, created in changes:
            if created and node.subscription.n_constraints \
                    > MAX_CONSTRAINTS:
                raise _too_wide()   # before any table is touched
        if self._slot_of is None:
            self._slot_of = {id(subscribers): slot for slot, subscribers
                             in enumerate(self._subscribers)}
        slot_of, table_of = self._slot_of, self._table_of
        subscribers, free = self._subscribers, self._free
        arity = bytearray(self._arity)
        edited: Dict[_AttributeTable, None] = {}   # in first-edit order
        for node, created in changes:
            items = node.subscription.items
            if created:
                if free:
                    slot = free.pop()
                    subscribers[slot] = node.subscribers
                    arity[slot] = len(items)
                else:
                    slot = len(subscribers)
                    subscribers.append(node.subscribers)
                    arity.append(len(items))
                slot_of[id(node.subscribers)] = slot
            else:
                slot = slot_of.pop(id(node.subscribers))
                subscribers[slot] = set()
                arity[slot] = FREE_SLOT_ARITY
                free.append(slot)
            for attribute, constraint in items:
                table = table_of.get(attribute)
                if created:
                    if table is None:
                        table = table_of[attribute] = \
                            _AttributeTable(attribute)
                        self._tables.append(table)
                    table.insert(constraint, slot)
                else:
                    table.discard(constraint, slot)
                edited[table] = None
        self._arity = bytes(arity)
        # The modelled memory follows: an emptied table is dropped, a
        # resized one moves to a block of its new size, and the
        # accumulator is as long as the live nodes are many.
        traced = self.arena is not None
        for table in edited:
            if not table.n_entries:
                self._tables.remove(table)
                del table_of[table.attribute]
            size = table.modelled_bytes() \
                if traced and table.n_entries else 0
            if size != table.size:
                table.address = self._reallocate(table.address,
                                                 table.size, size)
                table.size = size
        size = max(1, len(subscribers) - len(free)) if traced else 0
        if size != self._acc_size:
            self._acc_address = self._reallocate(
                self._acc_address, self._acc_size, size)
            self._acc_size = size
        self._compiled_generation = self.forest.generation
        self.compilations += 1
        self.delta_nodes += len(changes)

    def ensure_compiled(self) -> None:
        """Bring the plane up to the forest's generation, lazily.

        A compiled plane whose change log is intact replays the log in
        place (:meth:`_catch_up`). Anything bulk is one
        :meth:`_compile`, exactly as if no log existed: the log is
        gone (never compiled, released, overflowed, or armed by
        another reader), or the pending changes plus the parked slots
        exceed a quarter of the slots — where a rebuild is no dearer
        than the edits and sheds the garbage. Either way the log is
        armed afresh, sized to that same quarter. All or nothing: an
        exception leaves the plane released, so the next match
        compiles from scratch or raises again.
        """
        forest = self.forest
        if self._compiled_generation == forest.generation:
            return
        changes = forest.changes
        try:
            if changes is None or changes is not self._changes \
                    or len(changes) + len(self._free) \
                    > BULK_SHARE * len(self._subscribers):
                self._compile()
            else:
                self._catch_up(changes)
        except BaseException:
            self.release()
            raise
        self._changes = forest.record_changes(
            int(BULK_SHARE * len(self._subscribers)))

    def release(self) -> None:
        """Free the plane's arena blocks and force a recompile.

        Called when the owning engine discards the underlying forest
        (state restore): the compiled tables reference nodes of an
        index that no longer exists, and their modelled memory must be
        returned to the arena.
        """
        self._release_blocks()
        self._tables = []
        self._table_of = {}
        self._subscribers = []
        self._arity = b""
        self._free = []
        self._slot_of = None
        self._compiled_generation = None
        if self.forest.changes is self._changes:
            self.forest.stop_recording()   # nobody left to read it
        self._changes = None

    # -- introspection -----------------------------------------------------

    @property
    def n_subscription_nodes(self) -> int:
        self.ensure_compiled()
        return len(self._subscribers) - len(self._free)

    @property
    def n_attributes(self) -> int:
        self.ensure_compiled()
        return len(self._tables)

    @property
    def column_bytes(self) -> int:
        """Modelled footprint of the compiled plane."""
        self.ensure_compiled()
        return sum(self._allocated.values()) \
            if self.arena is not None \
            else sum(t.modelled_bytes() for t in self._tables)

    def check_invariants(self) -> None:
        """Verify the compiled structures (used by property tests).

        Edits in place are where a stale row, an unsorted key or a
        leaked block would creep in: the parallel lists must agree and
        be sorted, no bucket or table may be empty, the tables must
        name exactly the live slots — each as often as its arity —
        the live slots must hold the forest's subscriber sets, and the
        blocks booked must be the arena's.
        """
        self.ensure_compiled()
        n_slots = len(self._subscribers)
        if len(self._arity) != n_slots:
            raise MatchingError("arity bytes out of step with the slots")
        named = [0] * n_slots
        for table in self._tables:
            slots = list(table.always)
            for keys, rows in ((table.lower_keys, table.lower_subs),
                               (table.upper_keys, table.upper_subs),
                               (table.range_keys, table.range_rows)):
                if len(keys) != len(rows):
                    raise MatchingError("key and row lists differ in "
                                        f"length on {table.attribute!r}")
                if any(a > b for a, b in zip(keys, keys[1:])):
                    raise MatchingError(
                        f"unsorted bound list on {table.attribute!r}")
            for bucket in table.eq_buckets.values():
                if not bucket:
                    raise MatchingError(
                        f"empty bucket on {table.attribute!r}")
                slots += bucket
            slots += table.lower_subs + table.upper_subs
            slots += [row[2] for row in table.range_rows]
            slots += [sub for _test, sub in table.residual]
            if not slots:
                raise MatchingError(
                    f"empty table kept for {table.attribute!r}")
            if table.n_entries != len(slots) \
                    or table.n_buckets != len(table.eq_buckets):
                raise MatchingError(
                    f"entry counts drifted on {table.attribute!r}")
            for slot in slots:
                named[slot] += 1
        free = set(self._free)
        if len(free) != len(self._free):
            raise MatchingError("slot parked twice")
        live: Dict[int, int] = {}
        for slot, subscribers in enumerate(self._subscribers):
            if slot in free:
                if named[slot] or subscribers \
                        or not self._arity[slot]:
                    raise MatchingError(f"parked slot {slot} is in use")
            elif named[slot] != self._arity[slot]:
                raise MatchingError(
                    f"slot {slot} named {named[slot]} times, arity "
                    f"{self._arity[slot]}")
            else:
                live[id(subscribers)] = slot
        if set(live) != {id(node.subscribers)
                         for node in self.forest.iter_nodes()}:
            raise MatchingError("live slots are not the forest's nodes")
        if self._slot_of not in (None, live):
            raise MatchingError("slot map out of sync with the slots")
        if self._table_of != {table.attribute: table
                              for table in self._tables}:
            raise MatchingError("table map out of sync with the tables")
        booked = {}
        if self.arena is not None:
            booked = {table.address: table.size for table in self._tables}
            booked[self._acc_address] = self._acc_size
            if self._acc_size != max(1, len(live)) or any(
                    table.size != table.modelled_bytes()
                    for table in self._tables):
                raise MatchingError("modelled sizes drifted")
            if not all(self.arena.holds(address, size)
                       for address, size in booked.items()):
                raise MatchingError("a booked block is not the arena's")
        if booked != self._allocated:
            raise MatchingError("booked blocks out of sync with tables")

    # -- matching ----------------------------------------------------------

    def _evaluate(self, events: Sequence[Event], traced: bool
                  ) -> Tuple[List[Set[object]], List[int], List[int]]:
        self.ensure_compiled()
        n_events = len(events)
        base = self._arity
        deficits = [bytearray(base) for _ in range(n_events)]
        visited = [0] * n_events
        consulted = [0] * n_events
        headers = [event.header for event in events]
        runs: List[Tuple[int, int]] = []
        for table in self._tables:
            attribute = table.attribute
            probe = table.probe
            consulted_bytes = 0
            for index in range(n_events):
                value = headers[index].get(attribute)
                if value is None:
                    continue
                touched, tests = probe(value, deficits[index])
                visited[index] += touched
                consulted[index] += tests
                # Each probe streams the consulted entries of this
                # column; the batch pass coalesces them into one run.
                consulted_bytes = max(
                    consulted_bytes,
                    COLUMN_BASE_BYTES + COLUMN_ENTRY_BYTES * tests)
            if traced and consulted_bytes:
                runs.append((table.address,
                             min(table.size, consulted_bytes)))
        matched: List[Set[object]] = []
        subscribers = self._subscribers
        acc_address = self._acc_address
        acc_size = self._acc_size
        for index in range(n_events):
            deficit = deficits[index]
            result: Set[object] = set()
            position = deficit.find(0)
            while position != -1:
                result |= subscribers[position]
                position = deficit.find(0, position + 1)
            matched.append(result)
            if traced:
                # One accumulator sweep per event: the deficit array is
                # written by every pass and scanned once for zeros.
                runs.append((acc_address, acc_size))
        if traced:
            self.arena.touch_runs(runs)
        return matched, visited, consulted

    def match(self, event: Event) -> Set[object]:
        """Untraced single-event matching (correctness tests)."""
        return self._evaluate([event], traced=False)[0][0]

    def match_batch(self, events: Sequence[Event]) -> List[Set[object]]:
        """Untraced batch matching: one column pass per attribute."""
        if not events:
            return []
        return self._evaluate(events, traced=False)[0]

    def match_batch_traced(self, events: Sequence[Event]
                           ) -> Tuple[List[Set[object]],
                                      List[int], List[int]]:
        """Batch matching with coalesced memory-trace accounting.

        Returns ``(match sets, subscriptions touched, constraint tests
        consulted)`` — the per-event work counters callers charge
        compute cycles from, in the same currency as
        ``(nodes_visited, predicates_evaluated)`` on the forest path.
        """
        if self.arena is None:
            raise MatchingError(
                "match_batch_traced requires an arena-backed plane")
        if not events:
            return [], [], []
        return self._evaluate(events, traced=True)
