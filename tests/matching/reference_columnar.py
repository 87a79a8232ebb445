"""Pinned reference: the columnar plane's batch pass as it stood
before every table's bound rows moved into one store.

Then each attribute table held its bound rows as three arrays of its
own (``lo``, ``hi``, ``sub``) and the batch made one pass per table,
``_AttributeTable.probe``; both are kept here verbatim — ``probe`` as
:meth:`ReferenceTable.probe`, ``_evaluate`` as
:func:`reference_evaluate` — but for three seams: a table is read off a
live plane (its scalar placements as they stand, its bound rows copied
out of the plane's store), the value column is encoded by
``encode_values`` (what ``EventColumns.encoded`` returned), and the
traced runs are returned instead of touched. The suite in
``test_columnar_stacked.py`` compares the plane's one pass against
this code, which a change to ``src/`` cannot move.
"""

from __future__ import annotations

import math
from typing import List, Set, Tuple

import numpy as np

from repro.matching.columnar import COLUMN_BASE_BYTES, COLUMN_ENTRY_BYTES
from repro.matching.events import EventColumns
from repro.matching.predicates import encode_values

_INF = math.inf


class ReferenceTable:
    """One table of ``plane`` as the per-table pass saw it."""

    def __init__(self, plane, table) -> None:
        store = plane._bounds
        start = int(store.starts[table.index])
        rows = slice(start, start + int(store.counts[table.index]))
        self.attribute = table.attribute
        self.eq_buckets = table.eq_buckets
        self.always = table.always
        self.residual = table.residual
        self.lo = store.lo[rows].copy()
        self.hi = store.hi[rows].copy()
        self.sub = store.slot[rows].copy()
        self.address = table.address
        self.size = table.size

    def probe(self, values: list, batch: EventColumns, cells: bytearray,
              grid, visited: list, consulted: list, counts) -> int:
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
        down, up = encode_values(batch.columns[self.attribute])
        admit = self.lo <= down[:, None]
        satisfied = admit & (up[:, None] <= self.hi)
        tests = (admit & (satisfied | (self.lo > -_INF))).sum(axis=1)
        counts[0] += satisfied.sum(axis=1)
        counts[1] += tests
        grid[:, self.sub] -= satisfied
        return fixed + int(tests.max())


def reference_evaluate(plane, batch: EventColumns, traced: bool
                       ) -> Tuple[List[Set[object]], List[int], List[int],
                                  List[Tuple[int, int]]]:
    """``(match sets, visited, consulted, runs)`` of ``batch`` on a
    compiled ``plane``, by one pass per table."""
    plane.ensure_compiled()
    n_events = len(batch)
    n_slots = len(plane._arity)
    cells = bytearray(plane._arity * n_events)
    grid = np.frombuffer(cells, dtype=np.uint8).reshape(
        n_events, n_slots)
    visited = [0] * n_events
    consulted = [0] * n_events
    counts = np.zeros((2, n_events), dtype=np.intp)
    columns = batch.columns
    runs: List[Tuple[int, int]] = []
    for table in [ReferenceTable(plane, table) for table in plane._tables]:
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
    subscribers = plane._subscribers
    acc_address = plane._acc_address
    acc_size = plane._acc_size
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
    return matched, visited, consulted, runs
