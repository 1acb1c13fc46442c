"""Generic associative scan, run level by level as batched combines.

The schedule is the work-efficient inclusive up-sweep/down-sweep of
Blelloch ("Prefix sums and their applications", 1990), whose critical path
is at most 2*ceil(log2 n) combine applications.  The operations of one
level touch disjoint destinations, so each level runs as a single
``combine`` call on strided slices of the stacked elements.  Operands are
never swapped, so non-commutative combines are safe.  Suffix scans run the
same plan on the reversed stack with the operands of the combine flipped.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, TypeVar

import numpy as np

from .exceptions import EmptySequenceError

E = TypeVar("E")


class ScanDirection(Enum):
    FORWARD = "forward"   # out[t] = a_0 * ... * a_t
    REVERSE = "reverse"   # out[t] = a_t * ... * a_{n-1}


def scan_plan(n: int) -> list[tuple[range, range]]:
    """Combine schedule of :func:`scan` for ``n`` elements.

    Returns one ``(src, dst)`` pair of equally long index ranges per level,
    meaning ``buf[dst[i]] = combine(buf[src[i]], buf[dst[i]])`` with
    ``src[i] < dst[i]``.  Destinations within a level are disjoint, and
    :func:`scan` executes each level as one batched ``combine`` call.
    """
    if n < 1:
        raise EmptySequenceError("scan plan requires at least one element")
    n_levels = math.ceil(math.log2(n)) if n > 1 else 0
    levels = []
    for lev in range(n_levels):  # up-sweep
        dk = 1 << lev
        dst = range(2 * dk - 1, n, 2 * dk)
        if dst:
            levels.append((range(dk - 1, n - dk, 2 * dk), dst))
    for lev in range(n_levels - 2, -1, -1):  # down-sweep
        dk = 1 << lev
        dst = range(3 * dk - 1, n, 2 * dk)
        if dst:
            levels.append((range(2 * dk - 1, n - dk, 2 * dk), dst))
    return levels


def scan_depth_probe(n: int) -> int:
    """Critical-path length (dependent combines) of :func:`scan` on ``n``.

    This is the checkable form of the logarithmic-span property: the result
    is bounded by ``2 * ceil(log2 n)`` for every ``n >= 1``.  It walks the
    same :func:`scan_plan` that the engine executes.
    """
    if n < 1:
        raise EmptySequenceError("depth probe requires n >= 1")
    depth = np.zeros(n, dtype=int)
    for src, dst in scan_plan(n):
        depth[_slice(dst)] = np.maximum(depth[_slice(src)], depth[_slice(dst)]) + 1
    return int(depth.max())


def _slice(r: range) -> slice:
    return slice(r.start, r.stop, r.step)


def _map(fn, elements):
    """Apply ``fn`` to an array, or to each field of a NamedTuple of arrays."""
    if isinstance(elements, tuple):
        return elements._make(map(fn, elements))
    return fn(elements)


def scan(
    elements: E,
    combine: Callable[[E, E], E],
    direction: ScanDirection = ScanDirection.FORWARD,
) -> E:
    """All partial folds of stacked ``elements`` under an associative ``combine``.

    ``elements`` is an array, or a NamedTuple of arrays, whose leading axis
    indexes the sequence; the result has the same structure.  ``combine``
    receives two such stacks of equal length and combines them row by row;
    ``combine(a, b)`` is always called with ``a`` preceding ``b`` in
    sequence order, for both directions, so non-commutative operators are
    safe.  The input is not modified.

    Raises:
        EmptySequenceError: if ``elements`` is empty.
    """
    if direction is ScanDirection.REVERSE:
        flipped = scan(_map(lambda a: a[::-1], elements),
                       lambda a, b: combine(b, a))
        return _map(lambda a: a[::-1], flipped)
    buf = _map(np.array, elements)
    n = len(buf[0] if isinstance(buf, tuple) else buf)
    if n == 0:
        raise EmptySequenceError("cannot scan an empty sequence")
    for src, dst in scan_plan(n):
        src, dst = _slice(src), _slice(dst)
        out = combine(_map(lambda a: a[src], buf), _map(lambda a: a[dst], buf))
        if isinstance(buf, tuple):
            for field, value in zip(buf, out):
                field[dst] = value
        else:
            buf[dst] = out
    return buf
