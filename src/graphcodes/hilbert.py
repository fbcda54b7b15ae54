"""The Hilbert function of C_X(d): dimension and regularity index, in
exact Python ints and without numpy.

X is a finite abelian group, written by `ToricSet.point_group` as a grid
Z/d_1 + ... + Z/d_k of |X| cells (`toric._point_grid`), and the same grid
indexes its characters (the dual of a finite abelian group is isomorphic
to it).  Each function
t^a / t_1^d on X is a character: with w_j the cell of P -> P_j / P_s
(w_s = 0), it is the cell sum_j a_j w_j - d w_1.  Distinct characters are
linearly independent (Dedekind-Artin), so dim C_X(d) is the number of
distinct such cells.  They are counted as a set over the grid, held as one
Python int with a bit per cell: T_0 = {0} and T_{d+1} is the union of the
translates T_d + (w_k - w_1), a sumset iteration that is the single source
of the Hilbert function (`dimension`, `regularity_index`,
`hilbert_function`, `code_instance`, and `codes.profile_rows`, which takes
every degree of a profile from one pass).  A translate along one axis is
two shifts and a masked select of the int, and translates that agree on
their first axes share that work.  The iteration builds no evaluation
matrix, lists no point and reads no field table, so neither numpy nor the
tables are loaded for it.  Its work, a few |X|-bit operations per step and
degree, is bounded by the point cap `parameterize` enforces on |X|, and it
stops at the plateau, so a degree past it costs no more than the plateau
itself.  The generator of C_X(d), and the distance, are in `codes`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import count

from .errors import MonotonicityViolation


class CodeInstance(namedtuple("CodeInstance", "X d bits k")):
    """C_X(d) by its characters, before any matrix is built: `bits` is the
    set T_d of degree-d characters (bit i is grid cell i, C order) and
    k = |T_d| = dim C_X(d)."""

    __slots__ = ()

    @property
    def m(self):
        return self.X.m


def _tiled(pattern, period, size):
    """The int of `size` bits that repeats `pattern` every `period` bits
    (size a multiple of period), built by doubling over the binary digits
    of the count so that no intermediate exceeds `size` bits."""
    tiles, n = 0, 0
    for digit in bin(size // period)[2:]:
        tiles, n = tiles | tiles << n * period, 2 * n
        if digit == "1":
            tiles, n = tiles << period | pattern, n + 1
    return tiles


def _translations(steps, orders):
    """The translations of a bitset over the grid Z/d_1 + ... + Z/d_k by
    each vector in `steps` (sorted, none zero), as (depth, shift, back,
    mask, last) operations in the preorder of a trie over the vectors'
    per-axis parts.

    In C order cell x is bit sum_i x_i st_i, so translating axis i by c
    moves a cell by c st_i, less d_i st_i when x_i + c wraps: with
    t = S << c st_i and b = t >> d_i st_i, the translate takes t on the
    cells with x_i >= c and b on the others, b ^ ((t ^ b) & mask).  There
    is one operation per distinct prefix (b_1, ..., b_i) with b_i != 0, so
    vectors that agree on their first axes share those operations; each
    translates the partial result at depth - 1 and leaves its own at depth,
    and `last` marks the one that completes a vector.  The masks of equal
    (i, c) are one int."""
    k = len(orders)
    strides = [math.prod(orders[i + 1 :]) for i in range(k)]
    size = math.prod(orders)
    masks, ops, done = {}, [], set()
    for b in steps:
        axes = [i for i in range(k) if b[i]]
        for depth, i in enumerate(axes, 1):
            if b[: i + 1] in done:
                continue
            done.add(b[: i + 1])
            c, st, block = b[i], strides[i], orders[i] * strides[i]
            if (i, c) not in masks:
                masks[i, c] = _tiled((1 << block) - (1 << c * st), block, size)
            ops.append((depth, c * st, block, masks[i, c], i == axes[-1]))
    return ops


def _sumsets(X):
    """Yield (T_d, |T_d|) for d = 0, 1, ...; from the plateau |T_d| = |X|
    on, T_d is every cell and is yielded unchanged.

    T_d is an int whose bit sum_i x_i st_i (st the C-order strides) marks
    the cell x of the point grid of X when x is a degree-d character
    t^a / t_1^d (|a| = d) of X, the grid being its own dual (see
    `ToricSet`): w_j = embed_j is the character P -> P_j / P_s, and
    w_s = 0.  T_0 = {0}, and T_{d+1} is the union of the translates
    T_d + (w_k - w_1) (`_translations`).  Raises MonotonicityViolation when
    a step fails to grow the set before it reaches |X|."""
    group = X.point_group
    orders = group.orders
    w = [*group.embed, (0,) * len(orders)]
    steps = {tuple((a - b) % n for a, b, n in zip(row, w[0], orders)) for row in w}
    ops = _translations(sorted(steps - {(0,) * len(orders)}), orders)
    T = k = 1
    for d in count(1):
        yield T, k
        if k == X.m:
            continue
        grown, path = T, [T]  # the partial translates from the root to this operation
        for depth, shift, back, mask, last in ops:
            del path[depth:]
            t = path[-1] << shift
            b = t >> back
            t ^= b  # b ^ ((t ^ b) & mask), one temporary at a time
            t &= mask
            t ^= b
            path.append(t)
            del t, b  # freed before the next operation allocates its own
            if last:
                grown |= path[-1]
        previous, k = k, grown.bit_count()
        if k <= previous:
            raise MonotonicityViolation(
                f"dimension {k} at degree {d} does not exceed {previous}"
            )
        T = grown


def hilbert_function(X):
    """[dim C_X(0), ..., dim C_X(reg)]: the Hilbert function up to and
    including its first value |X|."""
    dims = []
    for _, k in _sumsets(X):
        dims.append(k)
        if k == X.m:
            return dims


def dimension(X, d):
    """dim C_X(d): the number of distinct degree-d characters of X."""
    return code_instance(X, d).k


def regularity_index(X):
    """Smallest d at which the dimension reaches |X|; asserts the Hilbert
    function is strictly increasing before the plateau."""
    return len(hilbert_function(X)) - 1


def code_instance(X, d):
    """C_X(d), with the sumset iterated up to d or to the plateau, whose
    set, every cell, serves every degree past it."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    for e, (T, k) in enumerate(_sumsets(X)):
        if e == d or k == X.m:
            return CodeInstance(X, d, T, k)
