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

**The root scan.** The first level of a walk is not a loop: the
constraints of ``roots``, in the order a stack pops them, are compiled
into arrays (:class:`_RootScan` — an attribute index and closed float64
``lo`` / ``hi`` per ``(root, constraint position)``, string pins as a
``(attribute, value) -> cells`` dict, both read off each constraint's
:class:`~repro.matching.predicates.ConstraintForm`) and one publication
meets all of them in one gather, one compare and one first-failure
search along the positions. ``lead[r]``, the constraints root ``r``
passes before its first failure, is everything the walk needs of a
root:

* it matches where ``lead == n_constraints``;
* it evaluated ``n_evals = min(lead + 1, n_constraints)`` constraints —
  a missing attribute, or a string on a numeric constraint, fails *at
  its position*, exactly as the node's closure short-circuits — and 0
  where the attribute gate cut it (one boolean row mask per header
  shape; a root cut is not visited);
* the lines and pages its visit reads are the first ``lengths[r,
  n_evals]`` of the node's (:class:`_Reads` — the prefix lengths
  ``spans[n]`` encodes, tabulated) — so the roots' part of the memory
  trace is two gathers, in visit order, of the nodes' own Python ints.

Only the roots that match descend, through the scalar loop over their
children; a stack explores a matched root's subtree before it pops the
next root, so each subtree's reads are spliced in directly after its
root's, and the walk reaches the memory model as one ``touch_many``.
Counts and trace are those of the per-root loop this replaced
(``tests/matching/reference_walk.py`` keeps it). Exactness is the
columnar plane's — the forms' bounds against
:func:`~repro.matching.predicates.encode_values`'s column — and a root
with a constraint that has neither bounds nor a string pin keeps its
closure, whose answer is written into the same ``lead`` column.

The scan is compiled by the first match after a write and dropped by
the next write, from rows packed once per node (:func:`_scan_rows`).
There is one path and no threshold: a forest of a few dozen roots pays
numpy's fixed price where the loop paid a few closures (EXPERIMENTS.md,
PR 24).

**Insertion.** The root level of an insert is not a loop either. An
insert descends to the first root, in ``roots`` order, that covers the
new subscription, and a subscription that stays a root adopts the roots
it covers; both come from one compare against :class:`_RootTable`, a
table of the roots kept up to date by every write — one row per root,
per constraint position an attribute index and six float64 keys read
off the constraint (:func:`_cover_cell`), an insertion-order key that
puts the rows in ``roots`` order, freed rows on a freelist. The keys
make ``Constraint.covers`` a plain ``<=`` on each: the raw bounds and
the floats they close to together give its lexicographic ``(value,
open)`` order exactly, and a string pin is a second interval. A
constraint the keys cannot hold — an exclusion, a string wildcard, a
bound float64 does not hold — leaves its row (or, in the subscription,
every row) undecided, for that row's ``Subscription.covers``. Below the
roots the descent is the scalar loop it was, and a removal searches
only below the roots the table says cover the node. The descent's
trace is what the loop read — each compared root whole, in ``roots``
order, then the scalar levels — sliced from the roots' reads the table
keeps flat (``tests/matching/reference_insert.py`` keeps the loop).
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, filterfalse
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

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

    #: ``scan_rows`` is not set at construction: the first root scan
    #: that meets the node fills it (:func:`_scan_rows`), so a node
    #: that never becomes a root of a matched forest never pays for it.
    __slots__ = ("subscription", "children", "subscribers", "address",
                 "size", "count", "required_attributes", "spans",
                 "scan_rows")

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


class _ScanRows(NamedTuple):
    """One node's rows of a root scan, packed once and kept on the node
    (``float64`` / ``int64`` bytes, so a compile joins buffers instead
    of converting numbers)."""

    #: The constrained attributes, in ``subscription.items`` order.
    attributes: Tuple[str, ...]
    #: Closed bounds per constraint (``_NEVER`` where there are none).
    lo: bytes
    hi: bytes
    #: String pins: their positions, and ``(attribute, value)``.
    pin_positions: bytes
    pin_keys: Tuple[Tuple[str, str], ...]
    #: The node's closure when the arrays cannot decide the node.
    count: object
    #: The whole node's line and page numbers (``spans[0]``, the
    #: tuples themselves), and how many of them a visit that evaluated
    #: ``n`` constraints reads (``spans[n]``), 0 for ``n = 0``: a root
    #: not visited.
    lines: Tuple[int, ...]
    line_lens: bytes
    pages: Tuple[int, ...]
    page_lens: bytes


def _packed(typecode: str, numbers: Iterable) -> bytes:
    return array(typecode, numbers).tobytes()


def _scan_rows(node: PosetNode) -> _ScanRows:
    """``node``'s rows, packed the first time a scan meets the node."""
    try:
        return node.scan_rows
    except AttributeError:
        rows = node.scan_rows = _pack_rows(node)
        return rows


def _pack_rows(node: PosetNode) -> _ScanRows:
    items = node.subscription.items
    forms = [constraint.form for _attribute, constraint in items]
    bounds = [form.bounds or _NEVER for form in forms]
    pinned = [position for position, form in enumerate(forms)
              if type(form.pin) is str]
    count = None
    if bounds.count(_NEVER) != len(pinned):     # neither bounds nor a pin
        bounds, pinned, count = [_NEVER] * len(forms), [], node.count
    spans = node.spans or (((), ()),) * (len(items) + 1)
    (lines, line_lens), (pages, page_lens) = (
        (spans[0][part],
         _packed("q", [0] + [len(span[part]) for span in spans[1:]]))
        for part in (0, 1))
    los, his = zip(*bounds)
    return _ScanRows(
        tuple(attribute for attribute, _constraint in items),
        _packed("d", los), _packed("d", his),
        _packed("q", pinned),
        tuple((items[position][0], forms[position].pin)
              for position in pinned),
        count,
        lines, line_lens, pages, page_lens)


def _prefixes(width: int):
    """``table[k]``: the mask of the first ``k`` of ``width`` cells."""
    return np.arange(width + 1)[:, None] > np.arange(width)


def _padded(rows: Iterable[bytes], held, fill, dtype):
    """The ragged rows packed in ``rows`` as one array of ``held``'s
    shape — ``held[i]`` masks the cells row ``i`` fills, first to
    last — the other cells holding ``fill``."""
    table = np.full(held.shape, fill, dtype=dtype)
    table[held] = np.frombuffer(b"".join(rows), dtype=dtype)
    return table


def _lengths(rows: Iterable):
    return np.fromiter(map(len, rows), dtype=np.int64)


class _Reads:
    """What the roots' visits read, of one kind (lines, or pages).

    ``numbers[r]`` are root ``r``'s line (page) numbers, padded — an
    object array of the nodes' own ``int`` objects, the ones the memory
    model's tables are keyed by: a trace gathered from it makes no new
    ints, and a dict probe with the key's own object skips the
    compare. ``lengths[r, n]`` says how many of them a visit that
    evaluated ``n`` constraints reads — the prefix length ``spans[n]``
    encodes, 0 for ``n = 0``, a root not visited.
    """

    __slots__ = ("numbers", "lengths", "rows", "prefix")

    def __init__(self, numbers: Tuple[Tuple[int, ...], ...],
                 lengths: Tuple[bytes, ...], counted) -> None:
        whole = _lengths(numbers)
        #: ``prefix[k]``: the mask of a row's first ``k`` numbers.
        self.prefix = _prefixes(int(whole.max()) if len(whole) else 0)
        held = self.prefix[whole]
        self.numbers = np.zeros(held.shape, dtype=object)
        self.numbers[held] = list(chain.from_iterable(numbers))
        self.lengths = _padded(lengths, counted, 0, np.int64)
        self.rows = np.arange(len(whole))

    def of(self, n_evals) -> Tuple[List[int], object]:
        """The roots' part of a walk's trace — each root's first
        ``lengths[r, n_evals[r]]`` numbers, concatenated in visit
        order as Python ints — and those per-root counts."""
        counts = self.lengths[self.rows, n_evals]
        return self.numbers[self.prefix[counts]].tolist(), counts


class _RootScan:
    """A forest's roots laid out for one vectorised pass per event.

    Row ``r`` is the ``r``-th root the walk visits — ``roots``
    reversed, as a stack pops them. ``attr`` / ``lo`` / ``hi`` hold one
    entry per ``(root, constraint position)``, row-major and padded to
    one column past the widest root: the index of the constraint's
    attribute in ``columns`` and its closed float64 bounds. Padding
    carries ``_NEVER`` on an attribute index one past the last column,
    so every row ends in a cell that fails. ``pins[attribute, value]``
    are the flat cells a string satisfies, ``closures`` the ``(row,
    count)`` of the roots only their closure decides, ``lines`` /
    ``pages`` what the visits read (:class:`_Reads`), ``masks`` the
    attribute gate per header shape.
    """

    __slots__ = ("generation", "nodes", "n", "columns", "attr", "lo",
                 "hi", "pins", "closures", "lines", "pages", "masks")

    #: Header shapes whose gate mask is kept (a stream repeats a
    #: handful; names arrive from outside, so the cache is bounded).
    MAX_MASKS = 64

    def __init__(self, roots: List[PosetNode], generation: int) -> None:
        self.generation = generation
        self.nodes = nodes = roots[::-1]
        rows = _ScanRows(*zip(*map(_scan_rows, nodes))) if nodes \
            else _ScanRows(*[()] * len(_ScanRows._fields))
        self.n = n = _lengths(rows.attributes)
        # one column more than the widest root: every row ends in padding
        width = int(n.max()) + 1 if nodes else 1
        prefix = _prefixes(width)
        held = prefix[n]        # the cells that hold a constraint
        names = list(chain.from_iterable(rows.attributes))
        self.columns = columns = {
            name: column
            for column, name in enumerate(dict.fromkeys(names))}
        self.attr = np.full(held.shape, len(columns), dtype=np.int64)
        self.attr[held] = np.fromiter(
            map(columns.__getitem__, names), dtype=np.int64,
            count=len(names))
        self.lo = _padded(rows.lo, held, _INF, np.float64)
        self.hi = _padded(rows.hi, held, -_INF, np.float64)
        # group the pinned cells by (attribute, value) without a Python
        # step per root: number the keys, sort the cells by number
        keys = list(chain.from_iterable(rows.pin_keys))
        numbers = {key: number
                   for number, key in enumerate(dict.fromkeys(keys))}
        number = np.fromiter(map(numbers.__getitem__, keys),
                             dtype=np.int64, count=len(keys))
        cells = np.repeat(np.arange(len(nodes)) * width,
                          _lengths(rows.pin_keys)) \
            + np.frombuffer(b"".join(rows.pin_positions), dtype=np.int64)
        cells = cells[np.argsort(number, kind="stable")]
        ends = np.bincount(number).cumsum().tolist()
        self.pins = {key: cells[start:end] for key, start, end
                     in zip(numbers, [0] + ends, ends)}
        self.closures = [(row, count)
                         for row, count in enumerate(rows.count)
                         if count is not None]
        counted = prefix[n + 1]     # a length for each of 0 .. n
        self.lines = _Reads(rows.lines, rows.line_lens, counted)
        self.pages = _Reads(rows.pages, rows.page_lens, counted)
        self.masks: Dict[frozenset, Tuple[object, int]] = {}

    def check(self, roots: List[PosetNode], generation: int) -> None:
        """Raise unless this scan is what a fresh compile of ``roots``
        at ``generation`` yields — the roots in visit order, rows that
        are not stale, every array equal to a fresh compile's and of
        its dtype — and unless each cached mask says what the
        attribute gate says."""
        if self.generation != generation:
            raise MatchingError("root scan outlived its generation")
        nodes = self.nodes
        if nodes != roots[::-1]:
            raise MatchingError(
                "root scan rows are not the roots in visit order")
        if any(node.scan_rows != _pack_rows(node) for node in nodes):
            raise MatchingError("a node's cached scan rows went stale")
        fresh = _RootScan(roots, generation)
        mine, theirs = ((scan.n, scan.attr, scan.lo, scan.hi,
                         scan.lines.numbers, scan.lines.lengths,
                         scan.pages.numbers, scan.pages.lengths,
                         *scan.pins.values()) for scan in (self, fresh))
        if self.columns != fresh.columns \
                or self.closures != fresh.closures \
                or list(self.pins) != list(fresh.pins) \
                or any(a.dtype != b.dtype or not np.array_equal(a, b)
                       for a, b in zip(mine, theirs)):
            raise MatchingError("root scan is not a fresh compile")
        for present, (mask, cut) in self.masks.items():
            passes = [node.required_attributes <= present
                      for node in nodes]
            if cut != passes.count(False) or (mask is None) != (not cut) \
                    or (mask is not None and mask.tolist() != passes):
                raise MatchingError(
                    "cached gate mask disagrees with the attribute gate")

    def lead(self, header: dict):
        """Per root, the constraints ``header`` passes before the
        first it fails: a root matches where this reaches ``n``, and a
        visit evaluates one more than this, ``n`` at most.

        One value column (:func:`~repro.matching.predicates.
        encode_values`: a missing attribute, or a string, is NaN, which
        no bound admits), one gather, one compare, the pinned cells of
        the header's strings set true, and per row the first position
        that fails (``argmin``: every row ends in padding, which fails).
        """
        columns = self.columns
        pins = self.pins
        values = [None] * (len(columns) + 1)
        pinned = []
        for name, value in header.items():
            column = columns.get(name)
            if column is not None:
                values[column] = value
                if isinstance(value, str):
                    flat = pins.get((name, value))
                    if flat is not None:
                        pinned.append(flat)
        down, up = encode_values(values)
        attr = self.attr
        column = down[attr]
        passes = self.lo <= column
        passes &= (column if up is down else up[attr]) <= self.hi
        for flat in pinned:
            passes.reshape(-1)[flat] = True
        lead = passes.argmin(axis=1)    # padding ends every row
        for row, count in self.closures:
            n_evals = count(header)
            lead[row] = n_evals if n_evals > 0 else -n_evals - 1
        return lead

    def gate(self, present: frozenset) -> Tuple[object, int]:
        """The attribute gate for one header shape: ``(mask, cut)``,
        ``mask[r]`` true where the header carries every attribute root
        ``r`` requires, None when it cuts no root."""
        cached = self.masks.get(present)
        if cached is None:
            if len(self.masks) >= self.MAX_MASKS:
                self.masks.clear()
            columns = self.columns
            carried = np.zeros(len(columns) + 1, dtype=bool)
            carried[-1] = True      # the padding's column
            for name in present:
                column = columns.get(name)
                if column is not None:
                    carried[column] = True
            mask = carried[self.attr].all(axis=1)
            cut = len(mask) - int(np.count_nonzero(mask))
            cached = self.masks[present] = (mask if cut else None, cut)
        return cached


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


class _RootTable:
    """A forest's roots laid out for the covering compares of a write.

    Row ``r`` holds one root, one cell per constraint position ``p``:
    ``attr[p, r]``, the index of the constraint's attribute in
    ``columns``, and ``keys[:, p, r]``, six float64 keys — the four
    bound keys of :func:`_cover_cell` and the pin's, ``(code, -code)``
    with ``code`` its number in ``pins``, or ``(-inf, -inf)`` for no
    pin: one cell covers another exactly when each of its keys is the
    smaller or equal one. Narrower roots are padded to the widest with
    inert cells (``attr`` -1, every key -inf). ``key[r]`` orders the
    rows (``roots`` is the live rows in ascending key order), and
    ``inexact[r]`` marks a row with a constraint :func:`_cover_cell`
    cannot place, whose ``Subscription.covers`` decides it instead.

    Rows are edited in place: a new root takes a free row, or the next
    one, and the next key; a root that stops being one returns its row,
    inert again, to ``free``. The table also keeps, in ``roots`` order,
    what reading each root whole reads (:meth:`whole_reads`), so that
    an insert's trace of the roots it compared is two list slices.
    """

    __slots__ = ("columns", "pins", "attr", "keys", "key", "inexact",
                 "nodes", "rows", "free", "next_key", "reads")

    #: A compare spans the rows in use rounded up to whole blocks of
    #: this many: its arrays then come in a few lengths, not one per
    #: root count, which would fill numpy's small-buffer cache (one
    #: bucket per byte size under 1 KiB, ≈ 2 MB of peak RSS on the
    #: benchmark's 1,200 subscriptions).
    BLOCK = 256

    def __init__(self) -> None:
        self.columns: Dict[str, int] = {}
        self.pins: Dict[str, float] = {}
        #: ``nodes[r]``: the root in row ``r``, None where it is free;
        #: ``rows``: the inverse map.
        self.nodes: List[Optional[PosetNode]] = []
        self.rows: Dict[PosetNode, int] = {}
        self.free: List[int] = []
        self.next_key = 0
        self.attr = np.full((1, 0), -1, dtype=np.int64)
        self.keys = np.full((6, 1, 0), -_INF)
        self.key = np.full(0, -1, dtype=np.int64)
        self.inexact = np.zeros(0, dtype=bool)
        #: :meth:`whole_reads`: None until first asked for, then kept.
        self.reads = None

    def _grow(self, width: int, capacity: int) -> None:
        """Room for ``capacity`` rows of ``width`` cells, new ones
        inert."""
        held_width, held = self.attr.shape
        attr = np.full((width, capacity), -1, dtype=np.int64)
        attr[:held_width, :held] = self.attr
        keys = np.full((6, width, capacity), -_INF)
        keys[:, :held_width, :held] = self.keys
        self.attr, self.keys = attr, keys
        for name, fill in (("key", -1), ("inexact", False)):
            old = getattr(self, name)
            new = np.full(capacity, fill, dtype=old.dtype)
            new[:held] = old
            setattr(self, name, new)

    def add(self, node: PosetNode) -> None:
        """``node`` becomes the last root."""
        if self.free:
            row = self.free.pop()
        else:
            row = len(self.nodes)
            self.nodes.append(None)
        items = node.subscription.items
        width, capacity = self.attr.shape
        if row >= capacity or len(items) > width:
            self._grow(max(width, len(items)),
                       capacity if row < capacity else max(2 * row, 8))
        columns = self.columns
        self.attr[:len(items), row] = [
            columns.setdefault(attribute, len(columns))
            for attribute, _constraint in items]
        cells = _cover_cells(node.subscription)
        if cells is None:
            self.inexact[row] = True
        else:
            pins = self.pins
            codes = [None if pin is None
                     else pins.setdefault(pin, float(len(pins)))
                     for _bounds, pin in cells]
            self.keys[:, :len(items), row] = np.array(
                [bounds + _pin_keys(code)
                 for (bounds, _pin), code in zip(cells, codes)]).T
        self.key[row] = self.next_key
        self.next_key += 1
        self.nodes[row] = node
        self.rows[node] = row
        if self.reads is not None:
            for (numbers, lengths), part in zip(self.reads, node.spans[0]):
                numbers += part
                lengths.append(len(part))

    def discard(self, node: PosetNode) -> None:
        """``node`` is no longer a root: its row goes back, inert."""
        row = self.rows.pop(node)
        if self.reads is not None:
            key = self.key
            position = int(np.count_nonzero((key >= 0)
                                            & (key < key[row])))
            for numbers, lengths in self.reads:
                start = sum(lengths[:position])
                del numbers[start:start + lengths.pop(position)]
        self.nodes[row] = None
        self.attr[:, row] = -1
        self.keys[:, :, row] = -_INF
        self.key[row] = -1
        self.inexact[row] = False
        self.free.append(row)

    def whole_reads(self, roots: List[PosetNode]):
        """What reading each of ``roots`` whole (``spans[0]``) reads, in
        order: ``((lines, line_counts), (pages, page_counts))``, the
        numbers flat and how many of them each root reads. Built from
        ``roots`` the first time it is asked for (a forest with no
        memory model never is), then edited by :meth:`add` and
        :meth:`discard`."""
        if self.reads is None:
            # per root its line tuple, and its page tuple
            kinds = tuple(zip(*(root.spans[0] for root in roots))) \
                or ((), ())
            self.reads = tuple(
                (list(chain.from_iterable(parts)), list(map(len, parts)))
                for parts in kinds)
        return self.reads

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
        # the rows in use, rounded up to whole blocks (see the class)
        used = min(len(self.key),
                   -(-len(self.nodes) // self.BLOCK) * self.BLOCK)
        live = self.key[:used] >= 0
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
                    None if pin is None else pins.get(pin, unheld))
        keys = self.keys[:, :, :used]
        gathered = np.take(theirs, self.attr[:, :used], axis=1)
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
        """Raise unless the live rows are ``roots``, keyed in list
        order, each what a fresh ``add`` of its node writes, every other
        row inert, and the reads, once built, what a fresh build
        yields."""
        rows = self.rows
        if len(rows) != len(roots) or not all(map(rows.__contains__,
                                                  roots)):
            raise MatchingError("root table rows are not the roots")
        ordered = [rows[root] for root in roots]
        if any(self.nodes[row] is not root
               for row, root in zip(ordered, roots)):
            raise MatchingError("root table row map out of sync")
        keys = self.key[ordered]
        if len(keys) and (keys[0] < 0 or np.any(keys[1:] <= keys[:-1])
                          or keys[-1] >= self.next_key):
            raise MatchingError(
                "root table keys are not ascending in roots order")
        fresh = _RootTable()
        fresh.columns, fresh.pins = dict(self.columns), dict(self.pins)
        for root in roots:
            fresh.add(root)
        width = fresh.attr.shape[0]
        count = len(roots)
        if fresh.columns != self.columns or fresh.pins != self.pins \
                or not np.array_equal(self.attr[:width, ordered],
                                      fresh.attr[:, :count]) \
                or not np.array_equal(self.keys[:, :width, ordered],
                                      fresh.keys[:, :, :count]) \
                or not np.array_equal(self.inexact[ordered],
                                      fresh.inexact[:count]) \
                or np.any(self.attr[width:, ordered] != -1) \
                or np.any(self.keys[:, width:, ordered] != -_INF):
            raise MatchingError("root table row is not a fresh add")
        if self.reads is not None \
                and self.reads != fresh.whole_reads(roots):
            raise MatchingError("root table reads are not the roots'")
        free = self.free
        if sorted(free + ordered) != list(range(len(self.nodes))) \
                or any(self.nodes[row] is not None for row in free):
            raise MatchingError("root table free list out of sync")
        inert = np.ones(len(self.key), dtype=bool)
        inert[ordered] = False
        if np.any(self.attr[:, inert] != -1) \
                or np.any(self.keys[:, :, inert] != -_INF) \
                or np.any(self.key[inert] != -1) \
                or np.any(self.inexact[inert]):
            raise MatchingError("a free root table row is not inert")


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
        #: The roots compiled for the walk's first level
        #: (:class:`_RootScan`): built by the first match after a
        #: write, dropped by the next write.
        self._scan: Optional[_RootScan] = None
        #: The roots laid out for the covering compares of a write
        #: (:class:`_RootTable`): edited by every write that changes
        #: ``roots``.
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
        self._scan = None
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
            lines, pages = (numbers[:sum(counts[:compared])]
                            for numbers, counts
                            in self._table.whole_reads(roots))
        siblings = roots
        while container is not None \
                and container.subscription.key() != key:
            siblings = container.children
            container = None
            for node in siblings:
                if arena is not None:
                    node_lines, node_pages = node.spans[0]
                    lines += node_lines
                    pages += node_pages
                if node.subscription.covers(subscription):
                    container = node
                    break
        if arena is not None:
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
        rows = np.flatnonzero(verdict | undecided)
        if not len(rows):
            return
        table = self._table
        nodes = table.nodes
        for row in rows[np.argsort(table.key[rows])].tolist():
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
        self._scan = None
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

    def _root_scan(self) -> _RootScan:
        """The roots compiled at the current generation."""
        scan = self._scan
        if scan is None:
            scan = self._scan = _RootScan(self.roots, self.generation)
        return scan

    def match(self, event: Event) -> Set[object]:
        """All subscribers whose subscription matches ``event``.

        Untraced (no memory accounting) — used by wall-clock
        benchmarks and by correctness tests. The roots are answered by
        the compiled scan (a root the attribute gate would cut fails
        its scan too, so the gate is not consulted), the subtrees of
        the roots that match by their nodes' compiled closures.
        """
        header = event.header
        scan = self._root_scan()
        nodes = scan.nodes
        matched: Set[object] = set()
        stack: List[PosetNode] = []
        for row in np.flatnonzero(scan.lead(header) == scan.n).tolist():
            node = nodes[row]
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
        roots are one pass of the compiled scan, the subtrees of the
        roots that match go through :func:`_walk`, each subtree's reads
        directly after its root's, and the whole walk reaches the
        memory model as one batch (see the module docstring).
        """
        if self.arena is None:
            raise MatchingError("match_traced requires an arena-backed "
                                "index")
        header = event.header
        scan = self._root_scan()
        nodes = scan.nodes
        lead = scan.lead(header)
        n_evals = np.minimum(lead + 1, scan.n)
        gated = 0
        if self.root_gate:
            mask, gated = scan.gate(frozenset(header))
            if gated:
                n_evals *= mask     # not visited: evaluates, reads none
        lines, line_counts = scan.lines.of(n_evals)
        pages, page_counts = scan.pages.of(n_evals)
        visited = len(nodes) - gated
        evaluated = int(n_evals.sum())
        matched: Set[object] = set()
        descents = []
        for row in np.flatnonzero(lead == scan.n).tolist():
            node = nodes[row]
            matched |= node.subscribers
            if node.children:
                descents.append(row)
        if descents:
            # back to front, so the earlier offsets stay good
            for row, line_end, page_end in zip(
                    descents[::-1],
                    line_counts.cumsum()[descents].tolist()[::-1],
                    page_counts.cumsum()[descents].tolist()[::-1]):
                below_lines: List[int] = []
                below_pages: List[int] = []
                below_visited, below_evaluated = _walk(
                    list(nodes[row].children), header, matched,
                    below_lines, below_pages)
                visited += below_visited
                evaluated += below_evaluated
                lines[line_end:line_end] = below_lines
                pages[page_end:page_end] = below_pages
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
        hold the roots as a fresh write of each would
        (:meth:`_RootTable.check`), and a root scan compiled since the
        last write must be what a fresh compile yields
        (:meth:`_RootScan.check`).
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
        if self._scan is not None:
            self._scan.check(self.roots, self.generation)
