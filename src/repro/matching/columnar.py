"""Columnar batch matcher: attribute-indexed predicate tables.

The containment forest answers one event per tree walk. This module
trades the per-event walk for a *batch* plane compiled from the
registered subscription set:

* per attribute, the constraints of every stored subscription are
  placed in an :class:`_AttributeTable` as their
  :class:`~repro.matching.predicates.ConstraintForm` says — a hash
  bucket per pin, an "always" list for bare ``exists`` constraints,
  *bound arrays* for the other numeric intervals (one row per
  constraint: closed float64 ``lo`` and ``hi`` columns and the slot),
  and a residual list of compiled closures for the rest (exclusion
  sets, string wildcards, bounds float64 cannot carry);
* a batch's deficits are one ``n_events x n_slots`` grid of bytes,
  each row starting as the subscriptions' constraint counts, and the
  batch is evaluated column-wise, one pass per attribute: the batch
  arrives as one value column per attribute
  (:class:`~repro.matching.events.EventColumns`, what the wire decoder
  writes; a list of events is transposed into it), and a column's
  float64 form (:func:`~repro.matching.predicates.encode_values`)
  meets the table's bound arrays in one vectorised compare (``lo <=
  v`` and ``v <= hi``, an ``n_events x n_rows`` boolean matrix) that
  is subtracted from the grid's slot columns in one scatter; buckets,
  "always" and closures decrement single bytes of the same grid, per
  event;
* a subscription matches an event exactly when its deficit reaches
  zero — every one of its constraints was satisfied by a distinct
  attribute pass — and the zero bytes of an event's row are found with
  C-speed ``bytearray.find`` scans, so emission cost is proportional
  to the matches, not to the stored set.

There is one representation of a bound and one path over it, no
crossover constant: one event against a table of a few dozen rows
pays numpy's fixed price (measured in EXPERIMENTS.md).

The poset (:class:`~repro.matching.poset.ContainmentForest`) remains
the authoritative registration and covering structure. The plane is a
*match-time* projection of it, brought up to date by the next match
after a registration change — by replaying the forest's change log in
place (:meth:`ColumnarMatchPlane._catch_up`: a write costs a few row
appends and deletions), or in bulk by the same replay over every node
of a reset plane (:meth:`ColumnarMatchPlane._compile`); see
:meth:`ColumnarMatchPlane.ensure_compiled` for which. The two agree
exactly: a removed subscription's entries are *deleted*, never
tombstoned, and a slot only *names* a subscription, so match sets and
the ``(touched, consulted)`` work counters are invariant under what
separates an edited plane from a rebuilt one — the renaming of slots
and the order of rows.

Memory-trace fidelity: when built over an arena the plane allocates
one column block per attribute plus one accumulator block, and traced
batch matching reports *coalesced runs* over exactly the column bytes
each pass consulted — the LLC/EPC/MEE models keep observing the real
access pattern (sequential column streams, one accumulator sweep per
event) instead of the forest's pointer-chasing node touches.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import MatchingError
from repro.matching.events import Event, EventColumns
from repro.matching.poset import ContainmentForest, PosetNode
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

_INF = math.inf


def validate_backend(backend: str) -> str:
    """Reject unknown matcher backend names early and loudly."""
    if backend not in MATCHER_BACKENDS:
        raise MatchingError(
            f"unknown matcher backend {backend!r} "
            f"(expected one of {MATCHER_BACKENDS})")
    return backend


class _AttributeTable:
    """Compiled constraint tables for one attribute.

    Every stored constraint lands in exactly one placement, read off
    its :class:`~repro.matching.predicates.ConstraintForm`:

    * ``eq_buckets`` — a pin (numeric or string): ``value ->
      [subscription indexes]``, an O(1) probe per event;
    * ``always`` — bare ``exists`` constraints (satisfied by any
      present value of any type);
    * the **bound arrays** — every other constraint with bounds, one
      row per constraint in three parallel columns: ``lo`` and ``hi``
      (float64, both *closed*) and ``sub`` (the slot). One-sided and
      two-sided constraints are rows of the same arrays, in no
      particular order, and ``sub`` holds no slot twice (a
      subscription has one constraint per attribute);
    * ``residual`` — compiled closures for every constraint of no
      other form (exact but rare; kept off the arrays).

    Rows are placed into ``_pending`` and moved into the arrays by
    :meth:`seal` — once per compile or catch-up, so a compile builds
    each column with one numpy call.
    """

    __slots__ = ("attribute", "eq_buckets", "lo", "hi", "sub",
                 "_pending", "always", "residual", "n_entries",
                 "n_buckets", "address", "size")

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self.eq_buckets: Dict[object, List[int]] = {}
        self.lo = np.empty(0, dtype=np.float64)
        self.hi = np.empty(0, dtype=np.float64)
        self.sub = np.empty(0, dtype=np.intp)
        #: ``(lo, hi, sub)`` rows not yet in the arrays.
        self._pending: List[Tuple[float, float, int]] = []
        self.always: List[int] = []
        self.residual: List[Tuple[object, int]] = []
        self.n_entries = 0
        self.n_buckets = 0
        self.address = 0
        self.size = 0

    def add(self, constraint, sub_index: int) -> None:
        """Store one constraint; :meth:`seal` before the next probe."""
        self.n_entries += 1
        pin, bounds, always = constraint.form
        if pin is not None:
            bucket = self.eq_buckets.get(pin)
            if bucket is None:
                self.eq_buckets[pin] = [sub_index]
                self.n_buckets += 1
            else:
                bucket.append(sub_index)
        elif always:
            self.always.append(sub_index)
        elif bounds is not None:
            self._pending.append(bounds + (sub_index,))
        else:
            self.residual.append((constraint.compile(), sub_index))

    def seal(self) -> None:
        """Append the pending rows to the bound arrays."""
        if self._pending:
            self.lo, self.hi, self.sub = (
                np.concatenate((column, np.array(new, dtype=column.dtype)))
                for column, new in zip((self.lo, self.hi, self.sub),
                                       zip(*self._pending)))
            self._pending = []

    def discard(self, constraint, sub_index: int) -> None:
        """Delete the entry :meth:`add` stored — no tombstone is left,
        so a probe consults exactly the rows a fresh compile would."""
        self.n_entries -= 1
        pin, bounds, always = constraint.form
        if pin is not None:
            bucket = self.eq_buckets[pin]
            bucket.remove(sub_index)
            if not bucket:
                del self.eq_buckets[pin]
                self.n_buckets -= 1
        elif always:
            self.always.remove(sub_index)
        elif bounds is not None:
            # The arrays keep no order: the last row takes the place
            # of the one that names the slot.
            self.seal()
            columns = (self.lo, self.hi, self.sub)
            row = int(np.flatnonzero(self.sub == sub_index)[0])
            last = len(self.sub) - 1
            for column in columns:
                column[row] = column[last]
            self.lo, self.hi, self.sub = (
                column[:last] for column in columns)
        else:
            residual = self.residual
            del residual[[sub for _test, sub in residual].index(sub_index)]

    def bound_slots(self) -> List[int]:
        """The slots the bound arrays name, after checking the arrays:
        sealed, parallel, of the dtypes the pass relies on, every row a
        non-empty closed interval (so no NaN), no slot named twice."""
        columns = (self.lo, self.hi, self.sub)
        dtypes = (np.float64, np.float64, np.intp)
        if self._pending or any(
                column.dtype != dtype or column.shape != self.sub.shape
                for column, dtype in zip(columns, dtypes)):
            raise MatchingError(
                f"bound arrays out of step on {self.attribute!r}")
        if not (self.lo <= self.hi).all():
            raise MatchingError(
                f"bound row is no closed interval on {self.attribute!r}")
        slots = self.sub.tolist()
        if len(set(slots)) != len(slots):
            raise MatchingError(
                f"slot named twice in the bounds of {self.attribute!r}")
        return slots

    def modelled_bytes(self) -> int:
        return (COLUMN_BASE_BYTES
                + COLUMN_ENTRY_BYTES * self.n_entries
                + BUCKET_HEADER_BYTES * self.n_buckets)

    def probe(self, values: list, batch: EventColumns, cells: bytearray,
              grid, visited: list, consulted: list, counts) -> int:
        """One pass of a batch's value column over this table.

        ``values`` is ``batch``'s column of the attribute: one entry
        per event, None where the header lacks it. Every constraint an
        event's value satisfies costs its slot one decrement in that
        event's row of the grid (``cells`` is the grid's buffer: the
        scalar placements address it directly). Subscriptions touched
        and tests consulted are added per event — to the lists
        ``visited`` / ``consulted`` for the scalar placements, to the
        two rows of the array ``counts`` for the bound arrays. Returns
        the most tests any one event consulted, -1 if no event carries
        the attribute.

        The bound arrays take the whole batch in one compare: ``lo <=
        v`` and ``v <= hi`` as ``n_events x n_rows`` booleans, their
        conjunction subtracted from the grid's ``sub`` columns. A row
        with a finite lower bound counts as consulted when that bound
        admits the value and as touched when the upper one does too; a
        row without one is consulted only where it is satisfied (the
        counts of a bisect to the admitted prefix, resp. suffix, of a
        list sorted by that bound). The column is
        :func:`~repro.matching.predicates.encode_values`'s, from
        :meth:`EventColumns.encoded`.
        """
        n_slots = grid.shape[1]
        always, buckets, residual = \
            self.always, self.eq_buckets, self.residual
        fixed = (1 if buckets else 0) + len(residual)
        most = -1
        for index, value in enumerate(values):
            if value is None:
                continue
            most = fixed
            start = index * n_slots
            touched = len(always)
            for sub in always:
                cells[start + sub] -= 1
            bucket = buckets.get(value)
            if bucket is not None:
                for sub in bucket:
                    cells[start + sub] -= 1
                touched += len(bucket)
            for test, sub in residual:
                if test(value):
                    cells[start + sub] -= 1
                    touched += 1
            visited[index] += touched
            consulted[index] += fixed
        if most < 0 or not len(self.sub):
            return most
        down, up = batch.encoded(self.attribute)
        admit = self.lo <= down[:, None]
        satisfied = admit & (up[:, None] <= self.hi)
        tests = (admit & (satisfied | (self.lo > -_INF))).sum(axis=1)
        counts[0] += satisfied.sum(axis=1)
        counts[1] += tests
        grid[:, self.sub] -= satisfied
        return fixed + int(tests.max())


class ColumnarMatchPlane:
    """Lazy columnar projection of a containment forest.

    The plane never owns registrations: it reads the forest's nodes
    (all of them at a compile, the logged ones at a catch-up) and
    keeps *references* to their live subscriber sets, so a subscriber
    joining or leaving a node that stays needs no edit at all. Column
    blocks are allocated from ``arena``: a recompile frees all of them
    and allocates them anew, a catch-up moves only the tables whose
    modelled size changed, so churn does not grow the modelled working
    set either way; with no arena the plane is untraced — correctness
    tests use it that way.
    """

    def __init__(self, forest: ContainmentForest,
                 arena: Optional[MemoryArena] = None) -> None:
        self.forest = forest
        self.arena = arena
        #: The forest change log :meth:`ensure_compiled` armed when it
        #: last brought the plane up to date; None before, and after
        #: :meth:`release`.
        self._changes: Optional[list] = None
        self._allocated: Dict[int, int] = {}
        self._reset()
        #: Write telemetry (tests, benchmarks, the engine's gauges): the
        #: passes that brought a stale plane up to date, those of them
        #: that were :meth:`_compile`, and the nodes the others absorbed.
        self.compilations = 0
        self.rebuilds = 0
        self.delta_nodes = 0

    # -- compilation -------------------------------------------------------

    def _reset(self) -> None:
        """Return every block to the arena and drop every table."""
        if self.arena is not None:
            for address, size in self._allocated.items():
                self.arena.free(address, size)
        #: Modelled blocks held in the arena: ``address -> size``.
        self._allocated: Dict[int, int] = {}
        self._tables: List[_AttributeTable] = []
        #: ``attribute -> table``: ``_tables`` by name.
        self._table_of: Dict[str, _AttributeTable] = {}
        #: Slot -> the live subscriber set of the node compiled there.
        #: A slot is a subscription's index in every table and in the
        #: deficit bytes; ``_free`` lists the slots of removed nodes.
        self._subscribers: List[Set[object]] = []
        self._arity = b""
        self._free: List[int] = []
        #: ``node -> slot`` for every node compiled in.
        self._slot_of: Dict[PosetNode, int] = {}
        self._acc_address = self._acc_size = 0
        self._compiled_generation: Optional[int] = None

    def _compile(self) -> None:
        """Rebuild every table: a catch-up of a reset plane, with every
        node of the forest created."""
        self._reset()
        self._catch_up(zip(self.forest.iter_nodes(), repeat(True)))
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
        forest, up to a renaming of slots and the order of rows: a new
        node takes a free slot (or a new one) and each of its
        constraints is added to its attribute's table; a removed
        node's entries are deleted, not tombstoned, and its slot is
        parked with an arity no pass can count down to zero. An
        exception leaves the plane half edited: the caller releases it.
        """
        slot_of, table_of = self._slot_of, self._table_of
        subscribers, free = self._subscribers, self._free
        arity = bytearray(self._arity)
        edited: Dict[_AttributeTable, None] = {}   # in first-edit order
        for node, created in changes:
            items = node.subscription.items
            if created:
                n_constraints = len(items)
                if n_constraints > MAX_CONSTRAINTS:
                    raise MatchingError(
                        "columnar deficit bytes cap subscriptions at "
                        f"{MAX_CONSTRAINTS} constraints")
                if free:
                    slot = free.pop()
                    subscribers[slot] = node.subscribers
                    arity[slot] = n_constraints
                else:
                    slot = len(subscribers)
                    subscribers.append(node.subscribers)
                    arity.append(n_constraints)
                slot_of[node] = slot
            else:
                slot = slot_of.pop(node)
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
                    table.add(constraint, slot)
                else:
                    table.discard(constraint, slot)
                edited[table] = None
        self._arity = bytes(arity)
        # The modelled memory follows: an emptied table is dropped, a
        # resized one moves to a block of its new size, and the
        # accumulator is as long as the live nodes are many.
        traced = self.arena is not None
        for table in edited:
            table.seal()
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
                self.delta_nodes += len(changes)
        except BaseException:
            self.release()
            raise
        self._changes = forest.record_changes(
            int(BULK_SHARE * len(self._subscribers)))

    def release(self) -> None:
        """Free the plane's arena blocks, disarm its change log, and
        force a recompile: the owning engine discards the forest (state
        restore), or an exception left the plane half edited."""
        self._reset()
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

        Edits in place are where a stale row, a lopsided array or a
        leaked block would creep in: the bound arrays must be parallel
        and well-formed (:meth:`_AttributeTable.bound_slots`), no
        bucket or table may be empty, the tables must name exactly the
        live slots — each as often as its arity — the live slots must
        hold the forest's subscriber sets, and the blocks booked must
        be the arena's.
        """
        self.ensure_compiled()
        n_slots = len(self._subscribers)
        if len(self._arity) != n_slots:
            raise MatchingError("arity bytes out of step with the slots")
        named = [0] * n_slots
        for table in self._tables:
            slots = table.always + table.bound_slots()
            for bucket in table.eq_buckets.values():
                if not bucket:
                    raise MatchingError(
                        f"empty bucket on {table.attribute!r}")
                slots += bucket
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
        for slot, subscribers in enumerate(self._subscribers):
            if slot in free:
                if named[slot] or subscribers \
                        or not self._arity[slot]:
                    raise MatchingError(f"parked slot {slot} is in use")
            elif named[slot] != self._arity[slot]:
                raise MatchingError(
                    f"slot {slot} named {named[slot]} times, arity "
                    f"{self._arity[slot]}")
        slot_of = self._slot_of
        if slot_of.keys() != set(self.forest.iter_nodes()) \
                or len(slot_of) + len(free) != n_slots \
                or any(slot in free
                       or self._subscribers[slot] is not node.subscribers
                       for node, slot in slot_of.items()):
            raise MatchingError("live slots are not the forest's nodes")
        if self._table_of != {table.attribute: table
                              for table in self._tables}:
            raise MatchingError("table map out of sync with the tables")
        booked = {}
        if self.arena is not None:
            booked = {table.address: table.size for table in self._tables}
            booked[self._acc_address] = self._acc_size
            if self._acc_size != max(1, len(slot_of)) or any(
                    table.size != table.modelled_bytes()
                    for table in self._tables):
                raise MatchingError("modelled sizes drifted")
            if not all(self.arena.holds(address, size)
                       for address, size in booked.items()):
                raise MatchingError("a booked block is not the arena's")
        if booked != self._allocated:
            raise MatchingError("booked blocks out of sync with tables")

    # -- matching ----------------------------------------------------------

    def _evaluate(self, batch: EventColumns, traced: bool
                  ) -> Tuple[List[Set[object]], List[int], List[int]]:
        self.ensure_compiled()
        n_events = len(batch)
        n_slots = len(self._arity)
        # The batch's deficits: one row of slot bytes per event, in
        # one buffer — numpy subtracts whole columns of it, the scalar
        # placements and the zero scan address the bytes.
        cells = bytearray(self._arity * n_events)
        grid = np.frombuffer(cells, dtype=np.uint8).reshape(
            n_events, n_slots)
        visited = [0] * n_events
        consulted = [0] * n_events
        counts = np.zeros((2, n_events), dtype=np.intp)
        columns = batch.columns
        runs: List[Tuple[int, int]] = []
        for table in self._tables:
            values = columns.get(table.attribute)
            if values is None:
                continue    # no event carries the attribute
            most = table.probe(values, batch, cells, grid, visited,
                               consulted, counts)
            # Each event streams the entries it consulted of this
            # column; the batch pass coalesces them into one run.
            if traced and most >= 0:
                runs.append((table.address, min(
                    table.size,
                    COLUMN_BASE_BYTES + COLUMN_ENTRY_BYTES * most)))
        # Counts leave the plane as Python ints, never numpy scalars.
        bound_visited, bound_consulted = counts.tolist()
        visited = [a + b for a, b in zip(visited, bound_visited)]
        consulted = [a + b for a, b in zip(consulted, bound_consulted)]
        matched: List[Set[object]] = []
        subscribers = self._subscribers
        acc_address = self._acc_address
        acc_size = self._acc_size
        for index in range(n_events):
            start = index * n_slots
            end = start + n_slots
            result: Set[object] = set()
            position = cells.find(0, start, end)
            while position != -1:
                result |= subscribers[position - start]
                position = cells.find(0, position + 1, end)
            matched.append(result)
            if traced:
                # One accumulator sweep per event: the deficit row is
                # written by every pass and scanned once for zeros.
                runs.append((acc_address, acc_size))
        if traced:
            self.arena.touch_runs(runs)
        return matched, visited, consulted

    def match(self, event: Event) -> Set[object]:
        """Untraced single-event matching (correctness tests)."""
        return self._evaluate(EventColumns.of([event]),
                              traced=False)[0][0]

    def match_batch(self, events: Union[Iterable[Event], EventColumns]
                    ) -> List[Set[object]]:
        """Untraced batch matching: one column pass per attribute.
        ``events`` is a sequence of events or an :class:`EventColumns`."""
        batch = EventColumns.of(events)
        if not batch:
            return []
        return self._evaluate(batch, traced=False)[0]

    def match_batch_traced(self,
                           events: Union[Iterable[Event], EventColumns]
                           ) -> Tuple[List[Set[object]],
                                      List[int], List[int]]:
        """Batch matching with coalesced memory-trace accounting.

        ``events`` is a sequence of events or an
        :class:`EventColumns`. Returns ``(match sets, subscriptions
        touched, constraint tests consulted)`` — the per-event work
        counters callers charge compute cycles from, in the same
        currency as ``(nodes_visited, predicates_evaluated)`` on the
        forest path.
        """
        if self.arena is None:
            raise MatchingError(
                "match_batch_traced requires an arena-backed plane")
        batch = EventColumns.of(events)
        if not batch:
            return [], [], []
        return self._evaluate(batch, traced=True)
