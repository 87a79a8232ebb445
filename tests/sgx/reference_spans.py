"""Pinned reference: the run expansion as it stood before
``MemoryArena.touch_runs`` expanded its runs with array arithmetic.

``spans`` is the old ``MemorySubsystem.spans``, verbatim but for the
subsystem passed in: ``MemorySubsystem.span`` of each ``(address,
n_bytes)`` run, flattened in order into two Python lists. It lives
under ``tests/`` on purpose: the memory tests compare ``src/`` against
code that a change to ``src/`` cannot move.
"""


def spans(memory, runs):
    """``memory.span`` of each ``(address, n_bytes)`` run, flattened
    in order: the two arguments ``touch_many`` takes."""
    lines = []
    pages = []
    for address, n_bytes in runs:
        run_lines, run_pages = memory.span(address, n_bytes)
        lines += run_lines
        pages += run_pages
    return lines, pages
