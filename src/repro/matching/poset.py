"""Containment forest: the subscription index of the routing engine.

Pioneered by Siena (Carzaniga et al. [5]), the index arranges
subscriptions so that a parent *covers* each of its children. Matching
then prunes aggressively: if an event fails a node's subscription, no
descendant can match (they are all more specific) and the whole subtree
is skipped. How much that prunes depends on how much the subscriptions
nest: the Zipf-skewed variants (``e100a1zz100`` and its kin) draw the
same values again and again and nest — the fast end of Fig. 6 — while
wide many-attribute workloads (``e80a4``, ``extsub4``) yield many
shallow roots and approach a linear scan. Uniformly drawn
``e100a1`` is flat too at the geometry the pipeline benchmark runs:
1,200 subscriptions make 871 roots over 287 / 39 / 3 nodes at depths
1 / 2 / 3, and 871 of the 874 nodes a publication visits are roots.

Identical subscriptions share a node (the "reduction of the number of
subscriptions stored" the paper credits containment with), keeping the
in-enclave footprint small.

Nodes are arena-allocated: the index takes an optional
:class:`~repro.sgx.memory.MemoryArena`, and every traversal during
insert/match reports its touches, which is how the enclave-vs-native
curves of Figs 5/7/8 are produced from one code path.

**The root table.** The roots are laid out once, in
:class:`_RootTable`, and every write edits that layout in place: a root
is one row, with per constraint position its attribute's index, the
closed float64 match bounds ``lo`` / ``hi`` and the six cover keys read
off the constraint (:func:`_cover_cell`; the fifth is the string pin's
code), and the whole node's line and page numbers with the prefix of
them a visit that evaluated ``n`` constraints reads; beside the rows,
``order`` lists them in ``roots`` order. A write takes a free row, or
returns one, inert again, and edits ``order`` to match; it never
re-lays-out the roots.

The first level of a walk is one pass over the table. The header
becomes a value column (a missing attribute, or a string, is NaN, which
no bound admits) and its strings the codes of their pins; one gather,
one compare of the bounds, one of the pin codes per string and one
first-failure search along the positions give ``lead[r]``, the
constraints root ``r`` passes before its first failure, which is
everything the walk needs of a root:

* it matches where ``lead == n``;
* it evaluated ``n_evals = min(lead + 1, n)`` constraints — a missing
  attribute, or a string on a numeric constraint, fails *at its
  position*, exactly as the node's closure short-circuits — and 0
  where the attribute gate cut it (one boolean mask per header shape;
  a root cut is not visited);
* its visit reads the first ``lengths[n_evals]`` of its line and page
  numbers, so the roots' part of the memory trace is two gathers, in
  visit order.

Only the roots that match descend, through the scalar loop over their
children; a stack explores a matched root's subtree before it pops the
next root, so each subtree's reads are spliced in directly after its
root's, and the walk reaches the memory model as one ``touch_many`` of
two int64 arrays. A root with a constraint that has neither bounds nor
a string pin, or one the cover keys cannot hold, keeps its closure,
whose answer is written into the same ``lead`` column. The only state
derived from the table is its live rows in visit order (``order``
reversed, as a stack pops ``roots``) with their reads gathered in that
order (:class:`_Visits`), redone by the first walk after a write that
changed ``roots``.

An insert meets the roots in one compare of the same rows: the cover
keys make ``Constraint.covers`` a plain ``<=`` on each, so the first
root, in ``roots`` order, that covers the new subscription, and the
roots a new root adopts, come from one gather; a row the keys cannot
decide is left to its ``Subscription.covers``. Below the roots the
descent is the scalar loop it was, and a removal searches only below
the roots the table says cover the node. The descent's trace — each
compared root whole, in ``roots`` order, then the scalar levels — is a
gather of the compared prefix of ``order`` from the same reads. Counts
and traces are those of the loops this replaced (``tests/matching/
reference_walk.py`` and ``reference_insert.py`` keep them).
"""

from __future__ import annotations

import math
from itertools import filterfalse
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import MatchingError
from repro.matching.events import Event
from repro.matching.predicates import encode_values
from repro.matching.subscriptions import Subscription
from repro.sgx.memory import MemoryArena

__all__ = ["PosetNode", "ContainmentForest", "walk_traced"]

_INF = math.inf
#: The bounds of a cell no value passes: padding, string pins, and the
#: rows only a closure decides.
_NEVER = (_INF, -_INF)
#: A string pin's bound keys (:func:`_cover_cell`): ``(-inf, inf)``,
#: both ends open.
_STRING_KEYS = (-_INF, math.nextafter(-_INF, _INF), -_INF,
                math.nextafter(-_INF, _INF))


class PosetNode:
    """One stored subscription plus the subscribers interested in it."""

    __slots__ = ("subscription", "children", "subscribers", "address",
                 "size", "count", "required_attributes", "spans")

    def __init__(self, subscription: Subscription,
                 arena: Optional[MemoryArena] = None) -> None:
        self.subscription = subscription
        self.children: List[PosetNode] = []
        self.subscribers: Set[object] = set()
        self.size = size = subscription.size_bytes()
        self.address = address = \
            arena.alloc(size) if arena is not None else 0
        #: Compiled ``header-dict -> +-constraints evaluated`` closure
        #: (positive = match); the per-predicate interpretation is
        #: paid once here, at node creation, instead of on every event
        #: the traversal tests against this node.
        self.count = subscription.compiled()
        #: Attributes an event must carry for this node (and, by
        #: covering, its whole subtree) to possibly match — the
        #: per-root gate consults this before descending.
        self.required_attributes = subscription.required_attributes()
        #: ``spans[n]``: the ``(lines, pages)`` a visit that evaluated
        #: ``n`` constraints reads; ``spans[0]``: the whole node, what
        #: an insert's covering check reads. Address and size are fixed
        #: for the node's lifetime, so they are computed once; None
        #: without a memory model to report to.
        self.spans = None
        if arena is not None:
            memory = arena.memory
            lines, pages = map(tuple, memory.span(address, size))
            # a visit reads a prefix of the node: slices share the ints
            self.spans = ((lines, pages),) + tuple(
                (lines[:len(read_lines)], pages[:len(read_pages)])
                for read_lines, read_pages in (
                    memory.span(address, subscription.visit_bytes(n))
                    for n in range(1, subscription.n_constraints + 1)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PosetNode({self.subscription!r}, "
                f"children={len(self.children)})")


def _walk(stack: List[PosetNode], header: dict, matched: Set[object],
          lines: List[int], pages: List[int]) -> Tuple[int, int]:
    """Depth-first walk from ``stack``: adds the subscribers to
    ``matched`` and each visit's reads to ``lines`` / ``pages`` in
    visit order; returns ``(nodes_visited, predicates_evaluated)``."""
    visited = 0
    evaluated = 0
    pop = stack.pop
    while stack:
        node = pop()
        visited += 1
        n_evals = node.count(header)
        if n_evals > 0:
            matched |= node.subscribers
            stack.extend(node.children)
        else:
            n_evals = -n_evals
        evaluated += n_evals
        node_lines, node_pages = node.spans[n_evals]
        lines += node_lines
        pages += node_pages
    return visited, evaluated


def walk_traced(stack: List[PosetNode], header: dict,
                arena: MemoryArena) -> Tuple[Set[object], int, int]:
    """Depth-first walk from ``stack`` with memory accounting.

    Each visit reads what its node's ``spans`` say for the number of
    constraints evaluated (short-circuiting included); the whole walk
    reaches the memory model as one batch in visit order. Returns
    ``(subscribers, nodes_visited, predicates_evaluated)``.
    """
    matched: Set[object] = set()
    lines: List[int] = []
    pages: List[int] = []
    visited, evaluated = _walk(stack, header, matched, lines, pages)
    arena.touch_many(lines, pages)
    return matched, visited, evaluated


def _cover_cell(constraint) -> Optional[Tuple[Tuple[float, ...],
                                             Optional[str]]]:
    """``constraint`` as a cell of the root table — its four bound
    keys and its string pin — or None when the arrays cannot decide
    :meth:`~repro.matching.predicates.Constraint.covers` on it exactly:
    exclusions, a string wildcard, a bound float64 does not hold.

    The keys are ``(lo, up(lo), -hi, -down(hi))``: the raw bounds, and
    beside each the float it closes to — the next float inward where
    the bound is open, itself where it is closed. Raw bounds alone miss
    the open flags, closed ones alone are not enough either (``x <
    1`` and ``x <= nextafter(1, 0)`` close alike, yet only the first
    covers the other); the two together are exact. For float64 bounds
    ``a``, ``b`` with open flags ``p``, ``q``, ``a <= b and up(a) <=
    up(b)`` holds exactly when ``(a, p) <= (b, q)`` in ``covers``'s
    lexicographic order, closed before open: if ``a < b``, then
    ``up(a) <= b``; if ``a == b``, ``up(a) <= up(b)`` fails only for
    ``p`` open and ``q`` closed — save at an infinity a satisfiable
    constraint never has open on that side. The upper bound is the
    mirror image, negated so that every key of a covering cell is the
    smaller. A string pin's bounds are ``(-inf, inf)``, both open:
    against a numeric cell they pass exactly when that cell is the
    universal interval, the one numeric constraint that covers across
    types.
    """
    if constraint.excluded:
        return None
    if constraint.is_string:
        pin = constraint.equals
        return None if pin is None else (_STRING_KEYS, pin)
    lo, hi = constraint.lo, constraint.hi
    try:
        lo_value, hi_value = float(lo), float(hi)
    except OverflowError:
        return None
    if lo_value != lo or hi_value != hi:
        return None
    lo_up = math.nextafter(lo_value, _INF) if constraint.lo_open \
        else lo_value
    hi_down = math.nextafter(hi_value, -_INF) if constraint.hi_open \
        else hi_value
    return (lo_value, lo_up, -hi_value, -hi_down), None


def _cover_cells(subscription: Subscription):
    """The cells of ``subscription``'s constraints, in ``items`` order,
    or None if one of them is not exact."""
    cells = []
    for _attribute, constraint in subscription.items:
        cell = _cover_cell(constraint)
        if cell is None:
            return None
        cells.append(cell)
    return cells


def _pin_keys(code: Optional[float]) -> Tuple[float, float]:
    """A cell's pin keys: ``(code, -code)``, or ``(-inf, -inf)`` — at
    most any other pair's — for a cell with no pin."""
    return (-_INF, -_INF) if code is None else (code, -code)


#: The root table's per-row arrays: the fill of an inert cell, the
#: dtype, and the axes — ``r`` the rows, ``w`` the table's width, ``l``
#: / ``p`` the most line / page numbers a root reads, ``6`` the cover
#: keys. A walk searches each row's cells for its first failure, so
#: they are a row's run; a covering compare reduces the cover keys
#: position by position, so their row axis is the last.
_FIELDS = {
    "attr": (-1, np.int64, "rw"),
    "lo": (_INF, np.float64, "rw"),
    "hi": (-_INF, np.float64, "rw"),
    "keys": (-_INF, np.float64, "6wr"),
    "lines": (-1, np.int64, "rl"),
    "line_lengths": (0, np.int64, "rw"),
    "pages": (-1, np.int64, "rp"),
    "page_lengths": (0, np.int64, "rw"),
    "live": (False, bool, "r"),
    "n": (0, np.int64, "r"),
    "inexact": (False, bool, "r"),
    "closure": (False, bool, "r"),
}


class _RootTable:
    """A forest's roots laid out for the walk's first level and for the
    covering compares of a write.

    Row ``r`` holds one root, in every array of :data:`_FIELDS`; per
    constraint position ``p``:

    * ``attr[r, p]``, the index of the constraint's attribute in
      ``columns``;
    * ``lo[r, p]`` / ``hi[r, p]``, its closed float64 match bounds
      (``ConstraintForm.bounds``; ``_NEVER`` for a string pin);
    * ``keys[:, p, r]``, six float64 cover keys — the four bound keys of
      :func:`_cover_cell` and the pin's, ``(code, -code)`` with ``code``
      its number in ``pins`` (keyed by attribute and value), or ``(-inf,
      -inf)`` for no pin: one cell covers another exactly when each of
      its keys is the smaller or equal one, and a string matches a cell
      whose pin code is its own.

    ``n[r]`` counts the root's constraints; the cells past them are
    inert (``attr`` -1, which reads the last entry of a column indexed
    by attribute, match bounds ``_NEVER``, keys -inf), and the table is
    one cell wider than its widest root, so every row ends in a cell
    that fails. ``lines[r]`` / ``pages[r]`` are the whole node's line
    and page numbers (``spans[0]``), padded with -1 (no number is
    negative), and ``line_lengths[r, k]`` / ``page_lengths[r, k]`` how
    many of them ``spans[k]`` holds, 0 for ``k = 0``: a root not
    visited reads nothing. ``live[r]`` marks a row that holds a root;
    ``inexact[r]`` marks a row with
    a constraint :func:`_cover_cell` cannot place, whose
    ``Subscription.covers`` decides it instead, and ``closure[r]`` one
    with a constraint that has neither bounds nor a string pin. Those
    two kinds of row are matched by their node's closure.

    ``order[:len(rows)]`` is the live rows in ``roots`` order (the
    entries past them mean nothing).

    Rows are edited in place: a new root takes a free row, or the next
    one, and the next place in ``order``; a root that stops being one
    returns its row, inert again, to ``free`` and leaves ``order``, the
    places after its own moving up by one.
    """

    __slots__ = ("columns", "pins", "nodes", "rows", "free", "order",
                 "visited", *_FIELDS)

    #: A compare or a walk spans the rows in use rounded up to whole
    #: blocks of this many: its arrays then come in a few lengths, not
    #: one per root count, which would fill numpy's small-buffer cache
    #: (one bucket per byte size under 1 KiB, ≈ 2 MB of peak RSS on the
    #: benchmark's 1,200 subscriptions).
    BLOCK = 256

    def __init__(self) -> None:
        self.columns: Dict[str, int] = {}
        self.pins: Dict[Tuple[str, str], float] = {}
        #: ``nodes[r]``: the root in row ``r``, None where it is free;
        #: ``rows``: the inverse map.
        self.nodes: List[Optional[PosetNode]] = []
        self.rows: Dict[PosetNode, int] = {}
        self.free: List[int] = []
        self.order = np.zeros(0, dtype=np.int64)
        #: :meth:`visits`: None until asked for after a write that
        #: changed the roots.
        self.visited: Optional[_Visits] = None
        self._fit(8, 1, 0, 0)

    def _fit(self, capacity: int, width: int, lines: int,
             pages: int) -> None:
        """Room for ``capacity`` rows of ``width`` cells that read up to
        ``lines`` line and ``pages`` page numbers, new cells inert."""
        sizes = {"6": 6, "r": capacity, "w": width, "l": lines, "p": pages}
        for name, (fill, dtype, axes) in _FIELDS.items():
            old = getattr(self, name, np.empty((0,) * len(axes)))
            shape = tuple(map(max, old.shape,
                              [sizes[axis] for axis in axes]))
            if shape != old.shape:
                new = np.full(shape, fill, dtype=dtype)
                new[tuple(map(slice, old.shape))] = old
                setattr(self, name, new)
        self.order = np.concatenate(
            (self.order, np.zeros(len(self.n) - len(self.order), np.int64)))

    def _by_row(self, name: str):
        """Field ``name`` with its row axis first (a view)."""
        return getattr(self, name).swapaxes(0, _FIELDS[name][2].index("r"))

    def used(self) -> int:
        """The rows in use, rounded up to whole blocks (see the class)."""
        return min(len(self.n),
                   -(-len(self.nodes) // self.BLOCK) * self.BLOCK)

    def add(self, node: PosetNode) -> None:
        """``node`` becomes the last root."""
        if self.free:
            row = self.free.pop()
        else:
            row = len(self.nodes)
            self.nodes.append(None)
        items = node.subscription.items
        n = len(items)
        spans = node.spans or (((), ()),) * (n + 1)
        lines, pages = spans[0]
        capacity = len(self.n)
        if row >= capacity or n >= self.attr.shape[1] \
                or len(lines) > self.lines.shape[1] \
                or len(pages) > self.pages.shape[1]:
            self._fit(capacity if row < capacity else 2 * row,
                      n + 1, len(lines), len(pages))
        columns = self.columns
        self.attr[row, :n] = [columns.setdefault(attribute, len(columns))
                              for attribute, _constraint in items]
        forms = [constraint.form for _attribute, constraint in items]
        if any(form.bounds is None and type(form.pin) is not str
               for form in forms):
            self.closure[row] = True
        else:
            self.lo[row, :n], self.hi[row, :n] = zip(
                *(form.bounds or _NEVER for form in forms))
        cells = _cover_cells(node.subscription)
        if cells is None:
            self.inexact[row] = True
        else:
            pins = self.pins
            codes = [None if pin is None
                     else pins.setdefault((attribute, pin), float(len(pins)))
                     for (attribute, _constraint), (_bounds, pin)
                     in zip(items, cells)]
            self.keys[:, :n, row] = np.array(
                [bounds + _pin_keys(code)
                 for (bounds, _pin), code in zip(cells, codes)]).T
        self.lines[row, :len(lines)] = lines
        self.pages[row, :len(pages)] = pages
        self.line_lengths[row, 1:n + 1], self.page_lengths[row, 1:n + 1] = \
            zip(*((len(span_lines), len(span_pages))
                  for span_lines, span_pages in spans[1:]))
        self.n[row] = n
        self.live[row] = True
        self.order[len(self.rows)] = row
        self.nodes[row] = node
        self.rows[node] = row
        self.visited = None

    def discard(self, node: PosetNode) -> None:
        """``node`` is no longer a root: its row goes back, inert, and
        leaves ``order``."""
        row = self.rows.pop(node)
        order = self.order[:len(self.rows) + 1]
        place = int((order == row).argmax())
        order[place:-1] = order[place + 1:]
        for name, (fill, _dtype, _axes) in _FIELDS.items():
            self._by_row(name)[row] = fill
        self.nodes[row] = None
        self.free.append(row)
        self.visited = None

    def visits(self) -> _Visits:
        """The live rows in visit order, derived once per set of roots."""
        visited = self.visited
        if visited is None:
            visited = self.visited = _Visits(self)
        return visited

    def read_whole(self, compared: int) -> Tuple[object, object]:
        """What reading the first ``compared`` roots whole reads, as
        ``(lines, pages)`` int64 arrays in ``roots`` order: one gather
        of their rows from the padded reads."""
        rows = self.order[:compared]
        return tuple(numbers[numbers >= 0] for numbers in (
            self.lines.take(rows, 0), self.pages.take(rows, 0)))

    def lead(self, header: dict):
        """Per root, in visit order, the constraints ``header`` passes
        before the first it fails: a root matches where this reaches
        ``n``, and a visit evaluates one more than this, ``n`` at most.

        One value column (:func:`~repro.matching.predicates.
        encode_values`: a missing attribute, or a string, is NaN, which
        no bound admits), one gather, one compare of the bounds, one of
        the pin codes per string of the header, and per row the first
        position that fails (``argmin``: every row ends in padding,
        which fails). The rows only a closure decides take its answer.
        """
        columns = self.columns
        pins = self.pins
        values = [None] * (len(columns) + 1)
        codes = []
        for name, value in header.items():
            column = columns.get(name)
            if column is not None:
                values[column] = value
                if isinstance(value, str) and (name, value) in pins:
                    codes.append(pins[name, value])
        down, up = encode_values(values)
        used = self.used()
        attr = self.attr[:used]
        column = down[attr]
        passes = self.lo[:used] <= column
        passes &= (column if up is down else up[attr]) <= self.hi[:used]
        for code in codes:
            passes |= self.keys[4, :, :used].T == code
        lead = passes.argmin(axis=1)    # padding ends every row
        nodes = self.nodes
        for row in np.flatnonzero(self.closure[:used]
                                  | self.inexact[:used]).tolist():
            n_evals = nodes[row].count(header)
            lead[row] = n_evals if n_evals > 0 else -n_evals - 1
        return lead[self.visits().rows]

    def gate(self, present: frozenset) -> Tuple[object, int]:
        """The attribute gate for one header shape: ``(mask, cut)``,
        ``mask[i]`` true where the header carries every attribute the
        ``i``-th root visited requires, None when it cuts no root."""
        visits = self.visits()
        masks = visits.masks
        cached = masks.get(present)
        if cached is None:
            if len(masks) >= visits.MAX_MASKS:
                masks.clear()
            columns = self.columns
            carried = np.zeros(len(columns) + 1, dtype=bool)
            carried[-1] = True      # what padding (attr -1) reads
            for name in present:
                column = columns.get(name)
                if column is not None:
                    carried[column] = True
            mask = carried[self.attr[visits.rows]].all(axis=1)
            cut = len(mask) - int(np.count_nonzero(mask))
            cached = masks[present] = (mask if cut else None, cut)
        return cached

    def compare(self, subscription: Subscription):
        """Both directions of covering between ``subscription`` and
        every row, from one gather: ``(covering, covered, undecided)``
        over the rows in use, in whole blocks (a free row is in none) —
        ``covering[r]``: root ``r`` covers ``subscription``;
        ``covered()[r]``: ``subscription`` covers root ``r``, compared
        when called (only an insert that makes a new root asks);
        ``undecided[r]``: root ``r`` is live and the arrays cannot
        tell, so its ``Subscription.covers`` must (an inexact row, or
        every root when the subscription is inexact).

        The subscription becomes one column of keys per attribute — NaN,
        which no compare passes, where it has no constraint, and +inf
        in the last column, which padding reads — gathered onto every
        cell. A row covers the subscription when every cell's keys are
        at most the gathered ones (padding passes, a cell on an
        attribute the subscription lacks fails); the subscription
        covers a row when as many of its cells as it has constraints
        hold keys at most the row's (padding and those cells never do).
        """
        used = self.used()
        live = self.live[:used]
        cells = _cover_cells(subscription)
        if cells is None:
            nothing = np.zeros_like(live)
            return nothing, lambda: nothing, live
        columns = self.columns
        theirs = np.full((6, len(columns) + 1), math.nan)
        theirs[:, -1] = _INF
        pins = self.pins
        unheld = float(len(pins))   # the code of a pin no row holds
        for (attribute, _constraint), (bounds, pin) in zip(
                subscription.items, cells):
            column = columns.get(attribute)
            if column is not None:
                theirs[:, column] = bounds + _pin_keys(
                    None if pin is None
                    else pins.get((attribute, pin), unheld))
        # the last position is padding in every row, which a compare
        # need not read (see the class)
        keys = self.keys[:, :-1, :used]
        gathered = np.take(theirs, self.attr[:used, :-1].T, axis=1)
        undecided = self.inexact[:used]
        decided = live & ~undecided
        covering = (keys <= gathered).all(axis=0).all(axis=0)
        covering &= decided

        def covered():
            rows = (gathered <= keys).all(axis=0).sum(axis=0) \
                == len(cells)
            rows &= decided
            return rows
        return covering, covered, undecided

    def check(self, roots: List[PosetNode]) -> None:
        """Raise unless the live rows are ``roots``, in ``order`` as in
        the list, each what a fresh ``add`` of its node writes, every other
        row inert, and the visits, once derived, what a fresh derivation
        yields, with each cached mask what the attribute gate says."""
        rows = self.rows
        if len(rows) != len(roots) or not all(map(rows.__contains__,
                                                  roots)):
            raise MatchingError("root table rows are not the roots")
        ordered = [rows[root] for root in roots]
        if any(self.nodes[row] is not root
               for row, root in zip(ordered, roots)):
            raise MatchingError("root table row map out of sync")
        if self.order[:len(roots)].tolist() != ordered:
            raise MatchingError("root table order is not the roots'")
        free = self.free
        if sorted(free + ordered) != list(range(len(self.nodes))) \
                or any(self.nodes[row] is not None for row in free):
            raise MatchingError("root table free list out of sync")
        fresh = _RootTable()
        fresh.columns, fresh.pins = dict(self.columns), dict(self.pins)
        for root in roots:
            fresh.add(root)
        # as wide as this table: its cells past a fresh add's are inert
        fresh._fit(len(fresh.n), self.attr.shape[1], self.lines.shape[1],
                   self.pages.shape[1])
        if fresh.columns != self.columns or fresh.pins != self.pins:
            raise MatchingError("root table row is not a fresh add")
        inert = np.ones(len(self.n), dtype=bool)
        inert[ordered] = False
        for name, (fill, dtype, _axes) in _FIELDS.items():
            mine, theirs = self._by_row(name), fresh._by_row(name)
            if mine.dtype != dtype or not np.array_equal(
                    mine[ordered], theirs[:len(roots)]):
                raise MatchingError("root table row is not a fresh add")
            if np.any(mine[inert] != fill):
                raise MatchingError("a free root table row is not inert")
        visited = self.visited
        if visited is None:
            return
        mine, theirs = (
            [visits.rows, visits.n] + [
                getattr(reads, name) for reads in (visits.lines, visits.pages)
                for name in _Reads.__slots__]
            for visits in (visited, _Visits(self)))
        if any(a.dtype != b.dtype or not np.array_equal(a, b)
               for a, b in zip(mine, theirs)):
            raise MatchingError("root visits are not the table's")
        for present, (mask, cut) in visited.masks.items():
            passes = [node.required_attributes <= present
                      for node in reversed(roots)]
            if cut != passes.count(False) or (mask is None) != (not cut) \
                    or (mask is not None and mask.tolist() != passes):
                raise MatchingError(
                    "cached gate mask disagrees with the attribute gate")


class _Reads:
    """What the roots' visits read, of one kind (lines, or pages), in
    visit order.

    ``numbers[i]`` are the ``i``-th visited root's line (page) numbers,
    an int64 row padded with -1; ``lengths[starts[i] + n]`` says how
    many of them a visit that evaluated ``n`` constraints reads — 0 for
    ``n = 0``, a root not visited.
    """

    __slots__ = ("numbers", "lengths", "starts", "prefixes")

    def __init__(self, numbers, lengths) -> None:
        # ``numbers`` and ``lengths``: a gather of the table's rows
        self.numbers = numbers
        self.lengths = lengths.ravel()
        self.starts = np.arange(len(lengths)) * lengths.shape[1]
        #: ``prefixes[k]`` masks a row's first ``k`` numbers (a gather
        #: of its rows beats a broadcast compare along the short axis)
        width = numbers.shape[1]
        self.prefixes = np.arange(width + 1)[:, None] > np.arange(width)

    def of(self, n_evals) -> Tuple[object, object]:
        """The roots' part of a walk's trace — each root's first
        ``lengths[n_evals[i]]`` numbers, concatenated in visit order
        into one int64 array — and those per-root counts."""
        counts = self.lengths[self.starts + n_evals]
        return self.numbers[self.prefixes.take(counts, 0)], counts


class _Visits:
    """A root table's live rows in visit order — ``roots`` reversed, as
    a stack pops them — with their reads gathered in that order, and
    the attribute gate's masks for that order.

    Derived by one gather per array, from the table's ``order``, by the
    first walk after a write that changed the roots, and dropped with its
    masks by the next such write.
    """

    __slots__ = ("rows", "n", "lines", "pages", "masks")

    #: Header shapes whose gate mask is kept (a stream repeats a
    #: handful; names arrive from outside, so the cache is bounded).
    MAX_MASKS = 64

    def __init__(self, table: _RootTable) -> None:
        self.rows = rows = table.order[:len(table.rows)][::-1].copy()
        self.n = table.n[rows]
        self.lines = _Reads(table.lines[rows], table.line_lengths[rows])
        self.pages = _Reads(table.pages[rows], table.page_lengths[rows])
        self.masks: Dict[frozenset, Tuple[object, int]] = {}


class ContainmentForest:
    """Covering-based subscription index with arena-traced traversals."""

    def __init__(self, arena: Optional[MemoryArena] = None,
                 trace_inserts: bool = True,
                 root_gate: bool = True,
                 counters=None) -> None:
        self.roots: List[PosetNode] = []
        self.arena = arena
        #: When False, insertions allocate addresses but do not touch
        #: the memory model (used by sweeps that only measure matching;
        #: the Fig. 8 registration experiment keeps this True).
        self.trace_inserts = trace_inserts
        #: When True (default), matching skips any root tree whose
        #: required attribute set is not contained in the event header.
        #: Exact: a missing attribute fails the root's conjunction, and
        #: covering forces every descendant to require at least the
        #: root's attributes, so the whole tree is a guaranteed miss.
        self.root_gate = root_gate
        #: Optional :class:`repro.matching.stats.MatchCounters` bumped
        #: by every match call (one add per field per event).
        self.counters = counters
        #: Registration generation stamp: bumped on every insert and
        #: every successful removal. Derived match-time structures (the
        #: match memo, the columnar match plane) compare it against the
        #: generation they were built from — an O(1) invalidation with
        #: no eager rebuild, same discipline as
        #: :class:`repro.matching.matcher.MatchMemo`.
        self.generation = 0
        #: Node-level change log for a derived structure that edits
        #: itself in place instead of rebuilding (the columnar plane
        #: arms it with :meth:`record_changes`): ``(node, True)`` when
        #: an insert *creates* a node, ``(node, False)`` when a removal
        #: *splices one out*, in order. Nothing else is logged — a
        #: node's ``subscribers`` set is shared by reference and
        #: re-parenting moves nodes without creating or destroying any.
        #: None: not recording (never armed, or the log outgrew its
        #: limit and a reader must rebuild from :meth:`iter_nodes`).
        self.changes: Optional[List[Tuple[PosetNode, bool]]] = None
        self._change_limit = 0
        self.n_nodes = 0
        self.n_subscriptions = 0
        self._bytes = 0
        # Authoritative key -> node map: identical subscriptions must
        # share a node even when the first-cover descent, after
        # re-parenting, would not walk past the existing copy.
        self._by_key: dict = {}
        #: The roots laid out for the walk's first level and the
        #: covering compares of a write (:class:`_RootTable`): edited
        #: by every write that changes ``roots``.
        self._table = _RootTable()

    # -- memory model ----------------------------------------------------------

    def _new_node(self, subscription: Subscription) -> PosetNode:
        node = PosetNode(subscription, self.arena)
        self.n_nodes += 1
        self._bytes += node.size
        return node

    @property
    def index_bytes(self) -> int:
        """Modelled memory footprint of the stored index."""
        return self._bytes

    def record_changes(self, limit: int
                       ) -> List[Tuple[PosetNode, bool]]:
        """Start a fresh change log holding at most ``limit`` entries.

        Returns the list that :attr:`changes` now names. The log has
        one reader: arming it again replaces the list, which is how an
        earlier reader can tell (by identity) that it lost the log.
        One change past ``limit`` the forest stops recording, so a
        write-only phase cannot grow the log without bound.
        """
        self.changes = []
        self._change_limit = limit
        return self.changes

    def stop_recording(self) -> None:
        """Drop the change log: its reader is gone, or must rebuild
        from :meth:`iter_nodes` anyway."""
        self.changes = None

    def _log_change(self, node: PosetNode, created: bool) -> None:
        if len(self.changes) < self._change_limit:
            self.changes.append((node, created))
        else:
            self.stop_recording()

    def _add_subscriber(self, node: PosetNode,
                        subscriber: object) -> None:
        # Re-registering an identical (subscription, subscriber) pair is
        # idempotent: the subscriber set deduplicates, and the count
        # must agree with the sets or check_invariants flags it.
        if subscriber not in node.subscribers:
            node.subscribers.add(subscriber)
            self.n_subscriptions += 1

    # -- insertion ---------------------------------------------------------------

    def insert(self, subscription: Subscription,
               subscriber: object) -> PosetNode:
        """Register ``subscriber``'s interest in ``subscription``.

        Descends to the most specific stored subscription covering the
        new one; if an identical subscription exists the subscriber is
        added to it, otherwise a new node is created there and any
        now-covered siblings are re-parented beneath it.
        """
        if not subscription.is_satisfiable():
            raise MatchingError("refusing to index an unsatisfiable "
                                "subscription")
        # Even an idempotent re-registration may extend a subscriber
        # set, so every insert invalidates derived match planes.
        self.generation += 1
        arena = self.arena if self.trace_inserts else None
        key = subscription.key()
        roots = self.roots
        # The root level is one compare against the root table: the
        # descent takes the first root, in ``roots`` order, that covers
        # the subscription; a new root adopts the roots it covers.
        covering, covered, undecided = self._table.compare(subscription)
        container = next(self._roots_where(
            covering, undecided,
            lambda root: root.subscription.covers(subscription)), None)
        # The descent reads every node it compares against whole — at
        # the root level, the roots up to the first that covers — and
        # the model gets the reads as one batch (all resident,
        # typically) and the new node's first write as another.
        if arena is not None:
            compared = len(roots) if container is None \
                else roots.index(container) + 1
            lines, pages = self._table.read_whole(compared)
        below_lines: List[int] = []
        below_pages: List[int] = []
        siblings = roots
        while container is not None \
                and container.subscription.key() != key:
            siblings = container.children
            container = None
            for node in siblings:
                if arena is not None:
                    node_lines, node_pages = node.spans[0]
                    below_lines += node_lines
                    below_pages += node_pages
                if node.subscription.covers(subscription):
                    container = node
                    break
        if arena is not None:
            if below_lines:
                lines = np.concatenate((lines, below_lines))
                pages = np.concatenate((pages, below_pages))
            arena.touch_many(lines, pages)

        # the descent ended on the identical subscription or on none
        existing = container if container is not None \
            else self._by_key.get(key)
        if existing is not None:
            self._add_subscriber(existing, subscriber)
            return existing

        new_node = self._new_node(subscription)
        new_node.subscribers.add(subscriber)
        self.n_subscriptions += 1
        # Adopt siblings that the new subscription covers.
        if siblings is roots:
            adopted = list(self._roots_where(
                covered(), undecided,
                lambda root: subscription.covers(root.subscription)))
            if adopted:
                roots[:] = filterfalse(set(adopted).__contains__, roots)
                for node in adopted:
                    self._table.discard(node)
                new_node.children = adopted
            roots.append(new_node)
            self._table.add(new_node)
        else:
            kept = []
            for node in siblings:
                if subscription.covers(node.subscription):
                    new_node.children.append(node)
                else:
                    kept.append(node)
            siblings[:] = kept
            siblings.append(new_node)
        self._by_key[key] = new_node
        if self.changes is not None:
            self._log_change(new_node, True)
        if arena is not None:
            arena.touch_many(*new_node.spans[0])
        return new_node

    def _roots_where(self, verdict, undecided, covers
                     ) -> Iterator[PosetNode]:
        """The roots a :meth:`_RootTable.compare` verdict names, and
        the undecided ones ``covers`` accepts, lazily in ``roots``
        order (``covers`` runs only on the undecided ones reached)."""
        table = self._table
        rows = table.order[:len(table.rows)]
        nodes = table.nodes
        for row in rows[(verdict | undecided)[rows]].tolist():
            node = nodes[row]
            if not undecided[row] or covers(node):
                yield node

    def remove_subscriber(self, subscription: Subscription,
                          subscriber: object) -> bool:
        """Withdraw one subscriber's interest; prunes emptied nodes.

        Returns True if the (subscription, subscriber) pair was found.
        A node leaves the forest exactly when its last subscriber
        does: it is spliced out wherever it sits and its children are
        hoisted to its former siblings (each is covered by whatever
        covered the node), so :meth:`iter_nodes` never yields a node
        with an empty subscriber set.
        """
        # ``_by_key`` names the node: an unknown pair costs no walk,
        # and neither does a node that keeps other subscribers.
        node = self._by_key.get(subscription.key())
        if node is None or subscriber not in node.subscribers:
            return False
        self.generation += 1
        node.subscribers.discard(subscriber)
        self.n_subscriptions -= 1
        if not node.subscribers:
            # Splice the node out, hoisting its children.
            siblings = self._siblings_of(node)
            siblings.remove(node)
            siblings.extend(node.children)
            if siblings is self.roots:
                self._table.discard(node)
                for child in node.children:
                    self._table.add(child)
            node.children = []
            del self._by_key[node.subscription.key()]
            self.n_nodes -= 1
            self._bytes -= node.size
            if self.changes is not None:
                self._log_change(node, False)
            # Release the arena allocation so subscribe/unsubscribe
            # churn does not grow the modelled EPC working set forever.
            if self.arena is not None:
                self.arena.free(node.address, node.size)
        return True

    def _siblings_of(self, node: PosetNode) -> List[PosetNode]:
        """The child list (or the roots) that holds ``node``.

        The node's ancestors all cover it, so only covering branches
        are explored — but *every* covering branch, since re-parenting
        may have moved the node away from the first-cover path its
        insertion took. A root needs no search (the root table holds
        it), and the root table names the covering roots.
        """
        if node in self._table.rows:
            return self.roots
        subscription = node.subscription
        covering, _covered, undecided = self._table.compare(subscription)
        stack: List[Tuple[List[PosetNode], PosetNode]] = [
            (root.children, child)
            for root in self._roots_where(
                covering, undecided,
                lambda root: root.subscription.covers(subscription))
            for child in root.children]
        while stack:
            siblings, candidate = stack.pop()
            if candidate is node:
                return siblings
            if candidate.subscription.covers(subscription):
                stack.extend((candidate.children, child)
                             for child in candidate.children)
        raise MatchingError("indexed node is not in the forest")

    # -- matching -----------------------------------------------------------------

    def match(self, event: Event) -> Set[object]:
        """All subscribers whose subscription matches ``event``.

        Untraced (no memory accounting) — used by wall-clock
        benchmarks and by correctness tests. The roots are answered by
        one pass over the root table (a root the attribute gate would
        cut fails that pass too, so the gate is not consulted), the
        subtrees of the roots that match by their nodes' compiled
        closures.
        """
        header = event.header
        table = self._table
        roots = self.roots
        matched: Set[object] = set()
        stack: List[PosetNode] = []
        # the i-th root visited is roots[~i]
        for index in np.flatnonzero(
                table.lead(header) == table.visits().n).tolist():
            node = roots[~index]
            matched |= node.subscribers
            stack += node.children
        pop = stack.pop
        while stack:
            node = pop()
            if node.count(header) > 0:
                matched |= node.subscribers
                stack.extend(node.children)
        return matched

    def match_traced(self, event: Event) -> Tuple[Set[object], int, int]:
        """Matching with full memory/compute accounting.

        Touches each visited node's arena allocation and returns
        ``(subscribers, nodes_visited, predicates_evaluated)`` so the
        caller can charge per-evaluation cycles to the platform. The
        roots are one pass over the root table, the subtrees of the
        roots that match go through :func:`_walk`, each subtree's reads
        directly after its root's, and the whole walk reaches the
        memory model as one batch (see the module docstring).
        """
        if self.arena is None:
            raise MatchingError("match_traced requires an arena-backed "
                                "index")
        header = event.header
        table = self._table
        visits = table.visits()
        lead = table.lead(header)
        n_evals = np.minimum(lead + 1, visits.n)
        gated = 0
        if self.root_gate:
            mask, gated = table.gate(frozenset(header))
            if gated:
                n_evals *= mask     # not visited: evaluates, reads none
        lines, line_counts = visits.lines.of(n_evals)
        pages, page_counts = visits.pages.of(n_evals)
        visited = len(n_evals) - gated
        evaluated = int(n_evals.sum())
        roots = self.roots
        matched: Set[object] = set()
        descents = []
        # the i-th root visited is roots[~i]
        for index in np.flatnonzero(lead == visits.n).tolist():
            node = roots[~index]
            matched |= node.subscribers
            if node.children:
                descents.append(index)
        if descents:
            # each subtree's reads right after its root's, front to back
            line_parts = []
            page_parts = []
            line_start = page_start = 0
            for index, line_end, page_end in zip(
                    descents, line_counts.cumsum()[descents].tolist(),
                    page_counts.cumsum()[descents].tolist()):
                below_lines: List[int] = []
                below_pages: List[int] = []
                below_visited, below_evaluated = _walk(
                    list(roots[~index].children), header, matched,
                    below_lines, below_pages)
                visited += below_visited
                evaluated += below_evaluated
                line_parts += (lines[line_start:line_end], below_lines)
                page_parts += (pages[page_start:page_end], below_pages)
                line_start, page_start = line_end, page_end
            line_parts.append(lines[line_start:])
            page_parts.append(pages[page_start:])
            lines = np.concatenate(line_parts, dtype=np.int64)
            pages = np.concatenate(page_parts, dtype=np.int64)
        self.arena.touch_many(lines, pages)
        counters = self.counters
        if counters is not None:
            counters.matches += 1
            counters.nodes_visited += visited
            counters.predicates_evaluated += evaluated
            counters.roots_gated += gated
        return matched, visited, evaluated

    # -- introspection ---------------------------------------------------------------

    def iter_nodes(self) -> Iterable[PosetNode]:
        """Depth-first iteration over all stored nodes."""
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def check_invariants(self) -> None:
        """Verify structural invariants (used by property tests).

        Every child must be strictly covered by its parent, no node may
        appear twice in the forest, and the bookkeeping the removal
        path maintains (key map, node/subscription counts, modelled
        bytes) must agree with the structure — removals hoist children
        and splice nodes, so churn is exactly where stale counters and
        dangling key-map entries would creep in. The root table must
        hold the roots as a fresh write of each would, and its visits,
        once derived, what a fresh derivation yields
        (:meth:`_RootTable.check`).
        """
        seen = set()
        seen_keys = set()
        walked_nodes = 0
        walked_subscriptions = 0
        walked_bytes = 0
        stack = [(None, root) for root in self.roots]
        while stack:
            parent, node = stack.pop()
            if id(node) in seen:
                raise MatchingError("node linked twice in the forest")
            seen.add(id(node))
            key = node.subscription.key()
            if key in seen_keys:
                raise MatchingError(
                    "identical subscription stored in two nodes")
            seen_keys.add(key)
            if self._by_key.get(key) is not node:
                raise MatchingError("key map out of sync with forest")
            walked_nodes += 1
            walked_subscriptions += len(node.subscribers)
            walked_bytes += node.size
            if len(node.children) != len(set(map(id, node.children))):
                raise MatchingError("duplicate child link")
            if parent is not None:
                if not parent.subscription.covers(node.subscription):
                    raise MatchingError(
                        "child not covered by its parent")
                if parent.subscription.key() == node.subscription.key():
                    raise MatchingError("duplicate subscription nodes")
            stack.extend((node, child) for child in node.children)
        if walked_nodes != self.n_nodes:
            raise MatchingError(
                f"n_nodes={self.n_nodes} but forest holds "
                f"{walked_nodes}")
        if walked_subscriptions != self.n_subscriptions:
            raise MatchingError(
                f"n_subscriptions={self.n_subscriptions} but forest "
                f"holds {walked_subscriptions}")
        if walked_bytes != self._bytes:
            raise MatchingError(
                f"index_bytes={self._bytes} out of sync with stored "
                f"nodes ({walked_bytes})")
        if len(self._by_key) != walked_nodes:
            raise MatchingError(
                "key map holds entries for nodes not in the forest")
        self._table.check(self.roots)
