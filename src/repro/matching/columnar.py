"""Columnar batch matcher: attribute-indexed predicate tables.

The containment forest answers one event per tree walk. This module
trades the per-event walk for a *batch* plane compiled from the
registered subscription set:

* per attribute, the constraints of every stored subscription are
  placed as their :class:`~repro.matching.predicates.ConstraintForm`
  says — in the attribute's :class:`_AttributeTable`, a hash bucket per
  pin, an "always" list for bare ``exists`` constraints and a residual
  list of compiled closures for the rest (exclusion sets, string
  wildcards, bounds float64 cannot carry); every other numeric interval
  is a *bound row* (closed float64 ``lo`` and ``hi``, the slot, the
  table) of :class:`_BoundRows`, one store for all tables, a region
  per table;
* a batch's deficits are one ``n_events x n_slots`` grid of bytes,
  each row starting as the subscriptions' constraint counts. The batch
  arrives as one value column per attribute
  (:class:`~repro.matching.events.EventColumns`, what the wire decoder
  writes; a list of events is transposed into it). Buckets, "always"
  and closures decrement single bytes of the grid, per event, on the
  tables that hold some. Every bound row of the plane then meets the
  batch in one pass, whatever the number of tables: the columns'
  float64 form (:meth:`~repro.matching.events.EventColumns.
  encoded_rows`) is repeated onto the rows, one compare per side
  (``lo <= v`` and ``v <= hi``, an ``n_rows x n_events`` boolean
  matrix) says which rows each event satisfies, a slot's satisfied
  rows are summed by one gather per *layer* (a subscription has at most
  one row per table, so a handful), and the sums are subtracted from
  the grid at once;
* a subscription matches an event exactly when its deficit reaches
  zero — every one of its constraints was satisfied — and one
  ``nonzero`` over the grid finds the zeros, event by event, so
  emission cost is proportional to the matches, not to the stored set.

There is one representation of a bound and one path over it, no
crossover constant: a batch costs a fixed set of numpy calls plus work
proportional to its rows times its events, not a price per table
(measured in EXPERIMENTS.md).

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
the batch consulted, one per table in table order and then one
accumulator sweep per event — the LLC/EPC/MEE models keep observing
the real access pattern (sequential column streams) instead of the
forest's pointer-chasing node touches;
:meth:`~repro.sgx.memory.MemoryArena.touch_runs` hands them to the
memory model as int64 arrays of lines and pages.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import MatchingError
from repro.matching.events import Event, EventColumns
from repro.matching.poset import ContainmentForest, PosetNode
from repro.sgx.memory import MemoryArena, concat_ranges

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
_NAN = math.nan


def validate_backend(backend: str) -> str:
    """Reject unknown matcher backend names early and loudly."""
    if backend not in MATCHER_BACKENDS:
        raise MatchingError(
            f"unknown matcher backend {backend!r} "
            f"(expected one of {MATCHER_BACKENDS})")
    return backend


class _AttributeTable:
    """The scalar placements and the modelled block of one attribute.

    Every stored constraint is counted here (``n_entries``, which
    sizes the modelled block) and lands in exactly one placement, read
    off its :class:`~repro.matching.predicates.ConstraintForm`:

    * ``eq_buckets`` — a pin (numeric or string): ``value ->
      [subscription indexes]``, an O(1) probe per event;
    * ``always`` — bare ``exists`` constraints (satisfied by any
      present value of any type);
    * a **bound row** of the plane's :class:`_BoundRows` — every other
      constraint with bounds; :meth:`add` hands its closed bounds back
      to the plane, which keeps them in region ``index`` of the store;
    * ``residual`` — compiled closures for every constraint of no
      other form (exact but rare; kept off the store).
    """

    __slots__ = ("attribute", "index", "eq_buckets", "always",
                 "residual", "n_entries", "n_buckets", "address", "size")

    def __init__(self, attribute: str, index: int) -> None:
        self.attribute = attribute
        #: The table's place in the plane's ``_tables``, and so its
        #: region of the bound store.
        self.index = index
        self.eq_buckets: Dict[object, List[int]] = {}
        self.always: List[int] = []
        self.residual: List[Tuple[object, int]] = []
        self.n_entries = 0
        self.n_buckets = 0
        self.address = 0
        self.size = 0

    def add(self, constraint, sub_index: int
            ) -> Optional[Tuple[float, float]]:
        """Store one constraint; its closed ``(lo, hi)`` if it is a
        bound row, which the caller places in the store."""
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
            return bounds
        else:
            self.residual.append((constraint.compile(), sub_index))
        return None

    def discard(self, constraint, sub_index: int) -> None:
        """Delete the entry :meth:`add` stored — no tombstone is left,
        so a pass consults exactly the entries a fresh compile would.
        A bound row is the store's to delete."""
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
        elif bounds is None:
            residual = self.residual
            del residual[[sub for _test, sub in residual].index(sub_index)]

    def modelled_bytes(self) -> int:
        return (COLUMN_BASE_BYTES
                + COLUMN_ENTRY_BYTES * self.n_entries
                + BUCKET_HEADER_BYTES * self.n_buckets)

    def scan(self, values: list, cells: bytearray, n_slots: int,
             visited: list, consulted: list) -> None:
        """The scalar placements' pass over a batch's value column.

        ``values`` holds one entry per event, None where the header
        lacks the attribute. Every pin, ``always`` entry and closure
        an event's value satisfies costs its slot one decrement in
        that event's row of the deficit bytes ``cells``; subscriptions
        touched and tests consulted are added to ``visited`` /
        ``consulted`` per event.
        """
        always, buckets, residual = \
            self.always, self.eq_buckets, self.residual
        fixed = (1 if buckets else 0) + len(residual)
        for index, value in enumerate(values):
            if value is None:
                continue
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


class _BoundRows:
    """Every table's bound constraints, as the rows of one store.

    Five parallel columns, one entry per row: ``lo`` and ``hi``
    (float64, both *closed*), ``slot`` (the subscription), ``table``
    and ``layer``. Row 0 is the *sentinel*; after it comes one region
    per table, in the plane's ``_tables`` order: region ``k`` is
    ``caps[k + 1]`` rows from ``starts[k]``, of which the first
    ``counts[k]`` are live and the rest inert padding; no region is
    empty, not even a table's without bound rows. The sentinel and the
    padding have NaN bounds, which no value meets, and slot and layer
    0. ``table`` is ``k + 1`` on every row of region ``k`` and 0 on the
    sentinel: the row of the batch's value matrix the row meets.

    A subscription has at most one constraint per attribute, so at
    most ``len(layers)`` bound rows: ``layers[l, s]`` is the row of
    slot ``s``'s ``l``-th, and ``layer`` that ``l``; past a slot's
    last row ``layers`` names the sentinel. ``layers`` grows on
    demand, in depth and in slots.

    New rows wait in ``pending`` until :meth:`seal` writes them, all at
    once. A delete moves its region's last live row into the hole. A
    region with no room left, or a table created or dropped, lays every
    region out anew (:meth:`_relayout`) with an eighth of its rows
    spare, so writes that come and go stay in place.
    """

    __slots__ = ("lo", "hi", "slot", "table", "layer", "caps", "starts",
                 "counts", "layers", "pending")

    def __init__(self) -> None:
        self.lo = np.full(1, _NAN)
        self.hi = np.full(1, _NAN)
        self.slot = np.zeros(1, dtype=np.intp)
        self.table = np.zeros(1, dtype=np.intp)
        self.layer = np.zeros(1, dtype=np.intp)
        #: Rows per region, the sentinel's first.
        self.caps = np.ones(1, dtype=np.intp)
        self.starts = np.zeros(0, dtype=np.intp)
        self.counts = np.zeros(0, dtype=np.intp)
        self.layers = np.zeros((1, 0), dtype=np.intp)
        #: ``(lo, hi, slot, table index)`` rows not yet written, each
        #: slot's consecutive.
        self.pending: List[Tuple[float, float, int, int]] = []

    def _write(self, rows: np.ndarray, lo, hi, slot, layer) -> None:
        self.lo[rows] = lo
        self.hi[rows] = hi
        self.slot[rows] = slot
        self.layer[rows] = layer
        self.layers[layer, slot] = rows

    def _grow_layers(self, depth: int, width: int) -> None:
        layers = self.layers
        old_depth, old_width = layers.shape
        if depth > old_depth or width > old_width:
            self.layers = np.zeros(
                (max(depth, old_depth), max(width, 2 * old_width)),
                dtype=np.intp)
            self.layers[:old_depth, :old_width] = layers

    def _relayout(self, keep: np.ndarray, needed: np.ndarray) -> None:
        """Lay the regions out afresh: new region ``j`` takes the live
        rows of old region ``keep[j]`` (none where that is -1), with
        room for ``needed[j]`` rows and spare ones."""
        kept = keep >= 0
        counts = np.zeros(len(keep), dtype=np.intp)
        counts[kept] = self.counts[keep[kept]]
        rows = concat_ranges(self.starts[keep[kept]], counts[kept])
        moved = (self.lo[rows], self.hi[rows], self.slot[rows],
                 self.layer[rows])
        caps = np.ones(len(keep) + 1, dtype=np.intp)
        caps[1:] += needed + needed // 8
        ends = np.cumsum(caps)
        size = int(ends[-1])
        self.lo = np.full(size, _NAN)
        self.hi = np.full(size, _NAN)
        self.slot = np.zeros(size, dtype=np.intp)
        self.layer = np.zeros(size, dtype=np.intp)
        self.table = np.repeat(np.arange(len(caps)), caps)
        self.caps, self.starts, self.counts = caps, ends[:-1], counts
        self._write(concat_ranges(self.starts[kept], counts[kept]), *moved)

    def seal(self, n_tables: int, n_slots: int) -> None:
        """Write the pending rows, with a region for each of
        ``n_tables`` tables and layers for ``n_slots`` slots."""
        self._grow_layers(0, n_slots)
        pending = self.pending
        n_regions = len(self.counts)
        if not pending and n_regions == n_tables:
            return
        rows = np.fromiter(chain.from_iterable(pending), np.float64,
                           count=4 * len(pending)).reshape(-1, 4)
        pending.clear()
        slots = rows[:, 2].astype(np.intp)
        tables = rows[:, 3].astype(np.intp)
        needed = np.bincount(tables, minlength=n_tables)
        needed[:n_regions] += self.counts
        if n_regions < n_tables or (needed > self.caps[1:]).any():
            keep = np.arange(n_tables)
            keep[n_regions:] = -1
            self._relayout(keep, needed)
        # A row goes to its region's first free rows, in pending order,
        number = np.arange(len(rows))
        order = np.argsort(tables, kind="stable")
        ranked = tables[order]
        target = np.empty(len(rows), dtype=np.intp)
        target[order] = self.starts[ranked] + self.counts[ranked] \
            + number - np.searchsorted(ranked, ranked)
        # and to its slot's next layer: a slot had no rows before.
        first = np.ones(len(rows), dtype=bool)
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        layer = number - np.maximum.accumulate(np.where(first, number, 0))
        self._grow_layers(int(layer.max(initial=-1)) + 1, n_slots)
        self.counts = needed
        self._write(target, rows[:, 0], rows[:, 1], slots, layer)

    def delete(self, slot: int) -> None:
        """Delete every row of ``slot``: the last live row of each
        row's region takes its place."""
        layers = self.layers
        if slot >= layers.shape[1]:
            return              # a slot that never held a row
        lo, hi, slots, layer = self.lo, self.hi, self.slot, self.layer
        starts, counts, table = self.starts, self.counts, self.table
        for row in layers[:, slot].tolist():
            if not row:
                break
            region = table[row] - 1
            last = starts[region] + counts[region] - 1
            counts[region] -= 1
            if row != last:
                lo[row], hi[row] = lo[last], hi[last]
                moved, depth = slots[last], layer[last]
                slots[row], layer[row] = moved, depth
                layers[depth, moved] = row
            lo[last] = hi[last] = _NAN
            slots[last] = layer[last] = 0
        layers[:, slot] = 0

    def drop(self, regions: List[int]) -> None:
        """Drop the regions of emptied tables; the later ones move up."""
        keep = np.delete(np.arange(len(self.counts)), regions)
        self._relayout(keep, self.counts[keep])

    def check(self, n_tables: int, n_slots: int) -> List[int]:
        """The slots the live rows name, after checking the store: no
        row pending; the columns parallel and of the dtypes the pass
        relies on; the regions where ``caps`` puts them, non-empty,
        and every row's ``table`` its region's; the live rows closed
        intervals (so no NaN); the sentinel and the padding inert;
        ``layers`` naming exactly the live rows, each at its
        ``layer``, a slot's rows its first layers; no slot twice in a
        region."""
        columns = (self.lo, self.hi, self.slot, self.table, self.layer)
        dtypes = (np.float64, np.float64, np.intp, np.intp, np.intp)
        size = int(self.caps.sum())
        if self.pending or len(self.caps) != n_tables + 1 \
                or len(self.counts) != n_tables \
                or self.layers.shape[1] < n_slots or any(
                    column.dtype != dtype or column.shape != (size,)
                    for column, dtype in zip(columns, dtypes)):
            raise MatchingError("bound store out of step")
        if self.caps[0] != 1 or (self.caps[1:] < self.counts).any() \
                or (self.caps < 1).any() \
                or (self.starts != np.cumsum(self.caps)[:-1]).any() \
                or (self.table != np.repeat(np.arange(n_tables + 1),
                                            self.caps)).any():
            raise MatchingError("bound store regions drifted")
        live = np.zeros(size, dtype=bool)
        live[concat_ranges(self.starts, self.counts)] = True
        if not (self.lo[live] <= self.hi[live]).all():
            raise MatchingError("bound row is no closed interval")
        inert = ~live
        if not (np.isnan(self.lo[inert]).all()
                and np.isnan(self.hi[inert]).all()) \
                or self.slot[inert].any() or self.layer[inert].any():
            raise MatchingError("sentinel or padding row is not inert")
        rows = np.flatnonzero(live)
        slots = self.slot[rows]
        filled = self.layers != 0
        if (self.layers[self.layer[rows], slots] != rows).any() \
                or np.count_nonzero(filled) != len(rows) \
                or (filled[1:] & ~filled[:-1]).any():
            raise MatchingError("layers out of step with the rows")
        slots = slots.tolist()
        if len(set(zip(slots, self.table[rows].tolist()))) != len(slots):
            raise MatchingError("slot named twice in a table's rows")
        return slots


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
        #: Every table's bound constraints, one region per table.
        self._bounds = _BoundRows()
        #: Slot -> the live subscriber set of the node compiled there.
        #: A slot is a subscription's index in every table, in the
        #: bound store and in the deficit bytes; ``_free`` lists the
        #: slots of removed nodes.
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
        tables, store = self._tables, self._bounds
        pending = store.pending
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
                for attribute, constraint in items:
                    table = table_of.get(attribute)
                    if table is None:
                        table = table_of[attribute] = \
                            _AttributeTable(attribute, len(tables))
                        tables.append(table)
                    bounds = table.add(constraint, slot)
                    if bounds is not None:
                        pending.append(bounds + (slot, table.index))
                    edited[table] = None
            else:
                slot = slot_of.pop(node)
                subscribers[slot] = set()
                arity[slot] = FREE_SLOT_ARITY
                free.append(slot)
                for attribute, constraint in items:
                    table = table_of[attribute]
                    table.discard(constraint, slot)
                    edited[table] = None
                if pending:     # the node may be this catch-up's own
                    store.seal(len(tables), len(subscribers))
                store.delete(slot)
        self._arity = bytes(arity)
        store.seal(len(tables), len(subscribers))
        emptied = [table for table in edited if not table.n_entries]
        if emptied:
            store.drop([table.index for table in emptied])
            for table in emptied:
                del table_of[table.attribute]
            tables[:] = [table for table in tables if table.n_entries]
            for index, table in enumerate(tables):
                table.index = index
        # The modelled memory follows: an emptied table is dropped, a
        # resized one moves to a block of its new size, and the
        # accumulator is as long as the live nodes are many.
        traced = self.arena is not None
        for table in edited:
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
        leaked block would creep in: the bound store must be well
        formed (:meth:`_BoundRows.check`) with one region per table, no
        bucket or table may be empty, the tables and the store must
        name exactly the live slots — each as often as its arity — the
        live slots must hold the forest's subscriber sets, and the
        blocks booked must be the arena's.
        """
        self.ensure_compiled()
        n_slots = len(self._subscribers)
        if len(self._arity) != n_slots:
            raise MatchingError("arity bytes out of step with the slots")
        named = [0] * n_slots
        for slot in self._bounds.check(len(self._tables), n_slots):
            named[slot] += 1
        counts = self._bounds.counts.tolist()
        for index, table in enumerate(self._tables):
            if table.index != index:
                raise MatchingError(
                    f"table {table.attribute!r} lost its region")
            slots = list(table.always)
            for bucket in table.eq_buckets.values():
                if not bucket:
                    raise MatchingError(
                        f"empty bucket on {table.attribute!r}")
                slots += bucket
            slots += [sub for _test, sub in table.residual]
            if not slots and not counts[index]:
                raise MatchingError(
                    f"empty table kept for {table.attribute!r}")
            if table.n_entries != len(slots) + counts[index] \
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
        # one buffer — the scalar placements address its bytes, numpy
        # subtracts the bound rows' counts from all of it at once.
        cells = bytearray(self._arity * n_events)
        grid = np.frombuffer(cells, dtype=np.uint8).reshape(
            n_events, n_slots)
        visited = [0] * n_events
        consulted = [0] * n_events
        columns = batch.columns
        tables = self._tables
        for table in tables:
            if table.always or table.eq_buckets or table.residual:
                column = columns.get(table.attribute)
                if column is not None:
                    table.scan(column, cells, n_slots, visited, consulted)
        # Every bound row meets its table's value column in one pass:
        # ``lo <= v`` and ``v <= hi``, ``n_rows x n_events`` booleans.
        # (Array methods and ufunc reductions throughout: numpy's
        # module-level wrappers such as ``np.take`` are Python calls.)
        store = self._bounds
        down, up = batch.encoded_rows([None] + [
            table.attribute if count else None
            for table, count in zip(tables, store.counts.tolist())])
        lo = store.lo[:, None]
        values = down.repeat(store.caps, axis=0)
        admit = np.less_equal(lo, values)
        if up is not down:
            values = up.repeat(store.caps, axis=0)
        satisfied = np.less_equal(values, store.hi[:, None])
        del values      # the batch's largest temporary
        satisfied &= admit
        # A row with a finite lower bound counts as consulted when
        # that bound admits the value, one without only where it is
        # satisfied (the counts of a bisect to the admitted prefix,
        # resp. suffix, of a list sorted by that bound); the tests per
        # table and event are sums over its region.
        admit &= lo > -_INF
        admit |= satisfied
        tests = np.add.reduceat(admit.view(np.uint8), store.starts,
                                axis=0, dtype=np.int32)
        # A slot's satisfied rows: one gather per layer, the sentinel's
        # row false.
        met = np.add.reduce(satisfied.view(np.uint8).take(
            store.layers[:, :n_slots], axis=0), axis=0, dtype=np.uint8)
        grid -= met.T
        # Counts leave the plane as Python ints, never numpy scalars.
        visited = [a + b for a, b in zip(
            visited, np.add.reduce(met, axis=0, dtype=np.intp).tolist())]
        consulted = [a + b for a, b in zip(
            consulted, np.add.reduce(tests, axis=0).tolist())]
        # A subscription matches where its deficit reached zero.
        matched: List[Set[object]] = [set() for _ in range(n_events)]
        subscribers = self._subscribers
        hit_events, hit_slots = (grid == 0).nonzero()
        for index, slot in zip(hit_events.tolist(), hit_slots.tolist()):
            matched[index] |= subscribers[slot]
        if traced:
            # Each event streams the entries it consulted of a column;
            # the batch pass coalesces them into one run per table.
            # Then one accumulator sweep per event: the deficit row is
            # written by every pass and scanned once for zeros.
            runs = [(table.address, min(
                table.size, COLUMN_BASE_BYTES + COLUMN_ENTRY_BYTES * (
                    (1 if table.eq_buckets else 0) + len(table.residual)
                    + most)))
                for table, most in zip(
                    tables, np.maximum.reduce(tests, axis=1).tolist())
                if table.attribute in columns]
            runs += [(self._acc_address, self._acc_size)] * n_events
            self.arena.touch_runs(runs)
        return matched, visited, consulted

    def match(self, event: Event) -> Set[object]:
        """Untraced single-event matching (correctness tests)."""
        return self._evaluate(EventColumns.of([event]),
                              traced=False)[0][0]

    def match_batch(self, events: Union[Iterable[Event], EventColumns]
                    ) -> List[Set[object]]:
        """Untraced batch matching: one pass over the plane's bound
        rows. ``events`` is a sequence of events or an
        :class:`EventColumns`."""
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
