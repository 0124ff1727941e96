"""Truncated multivariate Taylor arithmetic over a layout of chart variables.

A :class:`TSeries` holds the Taylor coefficients of a smooth function of
(x0..x3, y0..y3) around a base point, truncated at total degree ``order``
(hard cap ``MAX_ORDER``).  All arithmetic propagates coefficients exactly, so partial
derivatives read off a series are exact derivatives of the closed-form
expression, not numerical approximations.

A series is expanded in a *layout*: the sorted tuple of chart variables
it may depend on.  Terms in any other variable are exactly zero and are
not stored.  The tables (terms, product triples, derivative maps) depend
only on the number n of variables and the order, and are built with
numpy on first use.  At order 4 a product runs 4845 index triples over
all 8 variables, 1820 over 6, 1001 over 5 and 495 over 4.  The 8-variable
layout ``ALL`` is the default and is the same code with every variable
active.  Series in different layouts combine in the union of the two.
The readers that take exponent multi-indices (``TSeries.partial``,
``jet_tensor``) speak 8-tuples and read zero for a variable outside the
layout.

Terms are ordered by (total degree, lexicographic exponent tuple).  With
that ordering the degree<=k terms are a prefix of the degree<=m list for
k < m, so truncation is a slice and no reindexing is ever needed; the
terms of a smaller layout keep their relative order in a larger one.

Coefficient arrays have shape ``(*tensor, nterms, *batch)``: ``rank``
leading tensor axes (none for a scalar quantity), the term axis, then no
batch axis for a single base point or one of B points.  Every operation
is agnostic to the trailing batch axis, and a 4x4 block of series is one
rank-2 series, so a tensor stage is a few whole-array calls.  Output
term K of a product sums the segment of pairs a_I b_J with I + J = K,
by rising I; a pair is multiplied elementwise, or summed over a
contracted tensor index in :func:`contract`.  A narrow product gathers
both factors along the term axis and sums every segment with one
``np.add.reduceat``; a wide one is peeled (:func:`_product`).  An array
of values that a contraction reads (the constant factor of
:func:`contract`, the inverse value of :func:`solve`) is best C-ordered
with its batch axis last: einsum runs several times slower over a view
whose batch axis strides across a stack of tensors.

The kernels work on bare coefficient arrays, and so do the analytic
functions (:func:`sqrt`, :func:`reciprocal`, :func:`sin`, ... in
``FUNCTIONS``), which take the order and the product as arguments.
The ``TSeries`` methods and the compiled programs of
:mod:`finslerem.expr` both call them, so each has one implementation;
a program wraps only its results in ``TSeries``.  :func:`jets` reads
several derivative tensors of a series with one ``take``.

``np.add.reduceat`` sums a segment as its first summand plus a pairwise
sum of the rest, whatever the array's shape.  numpy adds a rest of fewer
than ``PAIRWISE_BLOCK`` terms one after the other, from -0.0, and a rest
of 8 to 128 terms in eight running sums, which it adds as a tree before
the last m % 8 terms in order.  A segment holds at most 2^MAX_ORDER = 32
summands, and the peeled kernel (:func:`_peeled_product`) reproduces
both orders.  Dropping exact zeros from a segment with three or more
nonzero summands would regroup it and can move a rounding, so products
are never pruned by degree.  A segment with at most two nonzero summands
sums to the same value in any grouping (up to the sign of a zero), and
two products have only such segments: a product with a chart coordinate
(:func:`_coordinate_product`) and the first Horner step of a
composition (:func:`_compose`).  Both skip the product kernel, and so
does the contraction with the fibre coordinates
(:func:`coordinate_contraction`), which adds its nonzero summands in
the order of their segment.

A series that does not use some variables of its layout has exact zeros
at every term in them, as long as its coefficients are finite (a
non-finite one times such a zero is NaN).  Two more identities follow,
with that caveat and up to the sign of a zero:

- the product of two factors in disjoint sets of variables has one
  nonzero summand per segment: term K is the first factor at K's
  exponents in its variables times the second at the rest of K
  (:func:`_outer_product`, two ``take`` and one multiply);
- a composition of a series in a subset S of the layout can run in the
  layout S and be scattered back (:func:`_restricted`): a term in S
  splits only into terms in S, so each product segment holds the same
  summands in the same order as in the full layout, and a term outside
  S is exactly zero.

A coefficient of degree d sums the same segment at every truncation
order >= d, so a product need not run above the order its result is
read to (truncated Taylor propagation).  From order 3, Horner step m of a
composition multiplies at order k - m (:func:`_compose`): the padded
terms meet only the zero constant of h = u - u0, so on finite
coefficients the result is the full-order loop's up to the sign of a
zero.  :func:`solve` finds the series x of a x = b degree by degree
from a's inverse value, each step summing only the degree-d segments of
the product (``top`` in :func:`_product`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError

NVARS = 8
MAX_ORDER = 5

VAR_NAMES = ("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")

#: the layout of every chart variable
ALL = tuple(range(NVARS))
#: the base (x) and fibre (y) chart variables
BASE_VARS = (0, 1, 2, 3)
FIBRE_VARS = (4, 5, 6, 7)

#: exponents are digits of a base-_BASE code, so adding codes adds exponents
_BASE = MAX_ORDER + 1
_FACTORIALS = np.array([math.factorial(e) for e in range(MAX_ORDER + 1)], dtype=float)

#: largest gathered block of a product, in bytes (below malloc's mmap threshold)
BLOCK_BYTES = 128 * 1024

#: fewest batch columns of a product that sums its segments without
#: ``reduceat`` (:func:`_peeled_product`); a narrower one runs faster with
#: ``reduceat``, which takes fewer numpy calls
PEEL_COLUMNS = 48

#: numpy's pairwise sum adds fewer terms than this one after the other, and
#: more in this many running sums
PAIRWISE_BLOCK = 8

#: the order of numpy's eight running sums in a block of :func:`_peel_plan`,
#: which pairs them as the halves of each level of their add tree
_TREE = (0, 4, 2, 6, 1, 5, 3, 7)

#: most plans a cache keyed by batch width keeps (:func:`jets`, :func:`_mul_blocks`)
PLAN_CACHE = 32


def _remember(cache, key, value):
    """Store ``value`` under ``key``; a full cache first drops its oldest
    entries.  Each step is one dict call, so threads may share the cache."""
    excess = len(cache) + 1 - PLAN_CACHE
    if excess > 0:
        for old in list(cache)[:excess]:
            cache.pop(old, None)
    cache[key] = value
    return value


def _codes(exps):
    """Base-_BASE codes of exponent rows, first variable most significant."""
    return exps @ (_BASE ** np.arange(exps.shape[1] - 1, -1, -1, dtype=np.int64))


def _compositions(deg, n):
    """Exponent n-tuples of total degree ``deg`` in lexicographic order."""
    if n == 0:
        return [()] if deg == 0 else []
    if n == 1:
        return [(deg,)]
    return [(e,) + rest for e in range(deg + 1) for rest in _compositions(deg - e, n - 1)]


class _Terms:
    """The monomials in n variables up to ``MAX_ORDER`` and their tables."""

    def __init__(self, n):
        rows = [t for deg in range(MAX_ORDER + 1) for t in _compositions(deg, n)]
        self.rows = rows
        self.terms = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        self.index = {t: i for i, t in enumerate(rows)}
        self.degree = self.terms.sum(axis=1)
        #: number of terms in the degree<=k prefix
        self.nterms = [int(np.sum(self.degree <= k)) for k in range(MAX_ORDER + 1)]
        #: product of factorials of the exponents, converts coefficients to partials
        self.fact = np.prod(_FACTORIALS[self.terms], axis=1)
        self.codes = _codes(self.terms)
        self._sorter = np.argsort(self.codes)
        self._sorted = self.codes[self._sorter]
        self.mul = {}
        self.blocks = {}
        self.peel = {}
        self.deriv = {}

    def lookup(self, codes):
        """Term indices of exponent codes (every code must be a term)."""
        return self._sorter[np.searchsorted(self._sorted, codes)]


_terms_cache = {}


def _terms(n):
    """The tables for layouts of n variables, built on first use."""
    t = _terms_cache.get(n)
    if t is None:
        t = _terms_cache[n] = _Terms(n)
    return t


_T8 = _terms(NVARS)
#: all 8-variable multi-indices with total degree <= MAX_ORDER, degree-major order
TERMS = _T8.rows
INDEX = _T8.index
DEGREE = _T8.degree
NTERMS = _T8.nterms
FACT = _T8.fact

_lift_cache = {}
_jet_tensor_cache = {}


def _mul_tables(k, n=NVARS):
    """(I, J, K-sorted starts) index arrays for products truncated at degree k."""
    t = _terms(n)
    if k not in t.mul:
        size = t.nterms[k]
        deg = t.degree[:size]
        I, J = np.nonzero(deg[:, None] + deg[None, :] <= k)  # row-major: by I, then J
        K = t.lookup(t.codes[I] + t.codes[J])
        by_k = np.argsort(K, kind="stable")
        I, J = I[by_k], J[by_k]
        starts = np.searchsorted(K[by_k], np.arange(size))
        t.mul[k] = (I, J, starts)
    return t.mul[k]


def _mul_blocks(k, n, width):
    """The order-k product tables cut at output-term boundaries.

    Each block gathers at most ``BLOCK_BYTES`` per temporary for ``width``
    columns (but always holds at least one whole output term), so every
    term's segment is summed exactly as in one unblocked reduceat.  No
    block straddles the first term of degree k, so the degree-k terms
    have blocks of their own (``top`` in :func:`_product`).
    Returns a list of ``(t0, t1, I, J, starts)`` with block-local starts.
    """
    t = _terms(n)
    cache = t.blocks
    key = (k, width)
    blocks = cache.get(key)
    if blocks is None:
        I, J, starts = _mul_tables(k, n)
        rows = BLOCK_BYTES // (8 * width)
        bounds = np.append(starts, len(I))
        top = t.nterms[k - 1] if k else 0
        blocks = []
        t0 = 0
        while t0 < len(starts):
            t1 = t0 + 1
            while t1 < len(starts) and t1 != top and bounds[t1 + 1] - bounds[t0] <= rows:
                t1 += 1
            s0, s1 = bounds[t0], bounds[t1]
            blocks.append((t0, t1, I[s0:s1], J[s0:s1], starts[t0:t1] - s0))
            t0 = t1
        _remember(cache, key, blocks)
    return blocks


def _slots(lo, counts):
    """(offset, rows) of :func:`_peel_plan`'s slots: slot s holds row
    ``lo[t] + s`` of each term t with ``counts[t] > s``, which must be the
    first ones."""
    slots = [int(np.count_nonzero(counts > s)) for s in range(counts.max(initial=0))]
    rows = [lo[:m] + s for s, m in enumerate(slots)]
    return (tuple(itertools.accumulate(slots, initial=0)),
            np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64))


def _peel_plan(k, n, first=0):
    """The summands after the first of each segment of the order-k product
    tables from output term ``first`` on (:func:`_peeled_product`).

    Segment K lists its pairs by rising I: (0, K), the interior pairs,
    then (K, 0).  Its rest, the segment after (0, K), is short when it
    holds fewer than ``PAIRWISE_BLOCK`` summands and long otherwise.
    Terms are counted from ``first``, and the plan does not depend on the
    batch width.  Returns ``(short, long)``.

    ``short`` is ``(terms, offset, I, J)``: the short terms with an
    interior, sorted by falling interior count, and their interior pairs
    slot by slot.  Slot s, ``I[offset[s]:offset[s + 1]]`` (and J), holds
    the (s+1)-th interior pair of each term with more than s of them,
    which are the first terms of ``terms``.

    ``long`` is None or ``(terms, blocks, perm, offset, I, J)``.  Sorted
    by falling rest length m, the long terms run blocks of eight running
    sums over the first m - m % 8 summands of their rests: block b,
    ``(count, I, J)`` with I and J shaped ``(8, count)``, holds summand
    8b + j of the first ``count`` terms in row ``_TREE.index(j)``.
    ``perm`` sorts them by falling m % 8, into ``terms``, and slot s of
    ``offset``, I and J holds summand m - m % 8 + s of each term with
    m % 8 > s.  The pair (K, 0) is among the blocks or the slots.
    """
    t = _terms(n)
    key = (k, first)
    if key not in t.peel:
        I, J, starts = _mul_tables(k, n)
        bounds = np.append(starts, len(I))[first:]
        counts = np.diff(bounds)
        # a segment holds at most 2^MAX_ORDER = 32 summands, and numpy
        # splits only a rest of more than 16 * PAIRWISE_BLOCK = 128
        rest = counts - 1
        inner = np.where(rest < PAIRWISE_BLOCK, np.maximum(rest - 1, 0), 0)
        terms = np.argsort(-inner, kind="stable")[:np.count_nonzero(inner)]
        offset, rows = _slots(bounds[terms] + 1, inner[terms])
        short = (terms, offset, I[rows], J[rows])
        long = None
        if rest.max() >= PAIRWISE_BLOCK:
            terms = np.argsort(-rest, kind="stable")[:np.count_nonzero(rest >= PAIRWISE_BLOCK)]
            full = rest[terms] - rest[terms] % PAIRWISE_BLOCK
            blocks = []
            for b in range(0, full[0], PAIRWISE_BLOCK):
                count = int(np.count_nonzero(full > b))
                rows = bounds[terms[:count]] + 1 + b + np.array(_TREE)[:, None]
                blocks.append((count, I[rows], J[rows]))
            perm = np.argsort(full - rest[terms], kind="stable")
            terms, full = terms[perm], full[perm]
            offset, rows = _slots(bounds[terms] + 1 + full, rest[terms] - full)
            long = (terms, blocks, perm, offset, I[rows], J[rows])
        t.peel[key] = (short, long)
    return t.peel[key]


def _peeled_product(a, b, k, n, ranks, axis, combine, first, width):
    """The product of :func:`_product`, its segments summed without
    ``reduceat``.

    ``np.add.reduceat`` sums a segment s0, s1, ..., s_last as s0 plus a
    pairwise sum of the rest.  A rest of fewer than ``PAIRWISE_BLOCK``
    summands is added in order from -0.0, which changes no summand:
    s0 + (((s1 + s2) + ...) + s_last).  Here s0 = a_0 b_K and
    s_last = a_K b_0 are broadcast products with no gather; only the
    interior pairs are gathered and summed slot by slot with prefix-slice
    additions.  A longer rest of m summands is summed in eight running
    sums r_j of its summands j, j + 8, ... below m - m % 8, added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then its last
    m % 8 summands in order (:func:`_long_rests`).  Gathers run in pieces
    of at most ``BLOCK_BYTES`` per temporary.  Every sum is bit for bit
    that of ``reduceat``, the sign of a zero and of an infinity included.
    Which NaN a sum of two NaNs returns is not fixed: numpy's own add
    loops differ in it.
    """
    (terms, offset, I, J), long = _peel_plan(k, n, first)
    nterms = _terms(n).nterms[k]
    ra, rb = ranks
    ia, ib, head = (slice(None),) * ra, (slice(None),) * rb, (slice(None),) * axis
    out = combine(a[ia + (slice(0, 1),)], b[ib + (slice(first, nterms),)])
    one = max(first, 1)
    if one == nterms:
        return out
    rest = combine(a[ia + (slice(one, nterms),)], b[ib + (slice(0, 1),)])
    step = max(BLOCK_BYTES // (8 * width), 1)
    if len(terms):
        acc = _add_slots(a, b, ranks, axis, combine, step, offset, I, J)
        idx = terms + (first - one)
        acc += rest.take(idx, axis=axis)
        rest[head + (idx,)] = acc
    if long is not None:
        terms, blocks, perm, offset, I, J = long
        acc = _long_rests(a, b, ranks, axis, combine, step, blocks).take(perm, axis=axis)
        rest[head + (terms + (first - one),)] = _add_slots(a, b, ranks, axis, combine, step,
                                                           offset, I, J, acc)
    out[head + (slice(one - first, None),)] += rest
    return out


def _add_slots(a, b, ranks, axis, combine, step, offset, I, J, acc=None):
    """``acc`` plus, slot after slot, the products of the pairs of each
    slot of a :func:`_peel_plan`, slot s onto the first ``offset[s + 1] -
    offset[s]`` entries; with no ``acc``, slot 0 starts the sums."""
    ra, rb = ranks
    head = (slice(None),) * axis
    start = acc is None
    for p0 in range(0, len(I), step):
        p1 = min(p0 + step, len(I))
        g = combine(a.take(I[p0:p1], axis=ra), b.take(J[p0:p1], axis=rb))
        for s in range(len(offset) - 1):
            lo, hi = max(p0, offset[s]), min(p1, offset[s + 1])
            if lo >= hi:
                continue
            part = g[head + (slice(lo - p0, hi - p0),)]
            if acc is None and hi - lo == offset[1]:  # all of slot 0 in one run
                acc = part
                continue
            if acc is None:
                acc = np.empty(part.shape[:axis] + (offset[1],) + part.shape[axis + 1:])
            at = head + (slice(lo - offset[s], hi - offset[s]),)
            if s or not start:
                acc[at] += part
            else:
                acc[at] = part
    return acc


def _long_rests(a, b, ranks, axis, combine, step, blocks):
    """The tree sums of the eight running sums of :func:`_peeled_product`
    over the ``blocks`` of the long rests of a :func:`_peel_plan`, term by
    term, in runs of as many terms as one gathered temporary holds.

    The running sums lie in the order ``_TREE`` along a leading axis of
    eight, so each level of the tree adds the two halves of the last:
    (r0+r1, r4+r5, r2+r3, r6+r7), then ((r0+r1)+(r2+r3), (r4+r5)+(r6+r7)).
    """
    ra, rb = ranks
    head = (slice(None),) * axis
    per = max(step // PAIRWISE_BLOCK, 1)
    count = blocks[0][0]
    out = None
    for c0 in range(0, count, per):
        c1 = min(c0 + per, count)
        acc = None
        for m, I, J in blocks:
            if m <= c0:
                break
            g = combine(a.take(I[:, c0:c1], axis=ra), b.take(J[:, c0:c1], axis=rb))
            if acc is None:
                acc = g
            else:
                acc[head + (slice(None), slice(0, g.shape[axis + 1]))] += g
        for half in (4, 2):
            acc = acc[head + (slice(0, half),)] + acc[head + (slice(half, 2 * half),)]
        if out is None:
            out = np.empty(acc.shape[:axis] + (count,) + acc.shape[axis + 2:])
        np.add(acc[head + (0,)], acc[head + (1,)], out=out[head + (slice(c0, c1),)])
    return out


def _product(a, b, k, n=NVARS, ranks=(0, 0), out_tensor=(), combine=np.multiply, top=False):
    """Coefficients of the truncated product of two coefficient arrays.

    The term axes of ``a`` and ``b`` follow their ``ranks`` tensor axes.
    ``combine`` multiplies the two gathered arrays into one whose term
    axis follows the ``out_tensor`` axes: elementwise with broadcasting
    by default, an einsum in :func:`contract`.  With ``top`` (k >= 1)
    only the terms of degree k are summed and returned, bit for bit those
    terms of the full product.

    Two kernels give the same bits.  A product of at least
    ``PEEL_COLUMNS`` batch columns is peeled (:func:`_peeled_product`):
    the first and last summands of a short segment need no gather, and
    a segment of more than ``PAIRWISE_BLOCK`` summands (order 4 and up
    in two or more variables) sums in numpy's eight running sums.  A
    narrower product gathers both factors (``take``, about twice as fast
    as fancy indexing on a few batch columns), combines them and sums
    each segment with ``np.add.reduceat``, in one go or, when wide,
    block by block (:func:`_mul_blocks`).  Either way the width counts
    tensor and batch axes and no gathered temporary outgrows
    ``BLOCK_BYTES``.
    """
    first = _terms(n).nterms[k - 1] if top else 0
    ra, rb = ranks
    width = max(a.size // a.shape[ra], b.size // b.shape[rb])
    if out_tensor:
        batch = max(a.size // math.prod(a.shape[:ra + 1]), b.size // math.prod(b.shape[:rb + 1]))
        width = max(width, batch * math.prod(out_tensor))
    # a batch of B points is one trailing axis of B columns
    wide = ((a.ndim > ra + 1 and a.shape[-1] >= PEEL_COLUMNS)
            or (b.ndim > rb + 1 and b.shape[-1] >= PEEL_COLUMNS))
    if wide:
        return _peeled_product(a, b, k, n, ranks, len(out_tensor), combine, first, width)
    return _reduceat_product(a, b, k, n, ranks, out_tensor, combine, first, width)


def _reduceat_product(a, b, k, n, ranks, out_tensor, combine, first, width):
    """The product of :func:`_product` summed by ``np.add.reduceat``, in
    one go or block by block (:func:`_mul_blocks`)."""
    I, J, starts = _mul_tables(k, n)
    if first:
        s0 = starts[first]
        I, J, starts = I[s0:], J[s0:], starts[first:] - s0
    ra, rb = ranks
    axis = len(out_tensor)
    if len(I) * width * 8 <= BLOCK_BYTES:
        return np.add.reduceat(combine(a.take(I, axis=ra), b.take(J, axis=rb)), starts,
                               axis=axis)
    batch = np.broadcast_shapes(a.shape[ra + 1:], b.shape[rb + 1:])
    out = np.empty(out_tensor + (len(starts),) + batch)
    head = (slice(None),) * axis
    for t0, t1, I, J, starts in _mul_blocks(k, n, width):
        if t0 >= first:
            np.add.reduceat(combine(a.take(I, axis=ra), b.take(J, axis=rb)), starts,
                            axis=axis, out=out[head + (slice(t0 - first, t1 - first),)])
    return out


def _coordinate_product(a, v0, src):
    """Coefficients of the truncated product of ``a`` with a chart coordinate.

    The coordinate's series is v0 plus one degree-1 term e of coefficient
    1, so output term K is fl(a_K v0 + a_{K-e}), as in :func:`_product`
    wherever ``a`` is finite.  ``src`` maps each term T of degree < k to
    T + e (the ``src`` of :func:`_deriv_tables`).
    """
    c = a * v0
    c[src] = c.take(src, axis=0) + a[:len(src)]
    return c


def _coordinate_shifts(k, positions, n):
    """(dst, src) of :func:`_coordinate_rows`: flat indices into m rows of
    order-k coefficients in a layout of n variables, whose coordinates sit
    at ``positions``.  Row i reads term T at ``src`` and adds it at T + e_i
    (``dst``), for each term T of degree < k, both offset by i rows."""
    nterms = _terms(n).nterms[k]
    dst, src = [], []
    for i, pos in enumerate(positions):
        shift = _deriv_tables(k, pos, n)[0]
        dst.append(i * nterms + shift)
        src.append(i * nterms + np.arange(len(shift)))
    return np.concatenate(dst), np.concatenate(src)


def _coordinate_rows(a, v0, dst, src):
    """The :func:`_coordinate_product` of each row of ``a``, shaped
    ``(m, nterms, *batch)``, with the coordinate of values ``v0[i]``, as
    one step: the same sums, term by term.  ``dst`` and ``src`` are the
    flat shifts of :func:`_coordinate_shifts`, fixed for every batch
    shape.  The rows run in pieces of at most ``BLOCK_BYTES`` (but at
    least one row); returns the m products."""
    m = len(a)
    per = max(BLOCK_BYTES * m // (8 * a.size), 1) if a.size else m
    if per >= m:
        return _shifted_rows(a, v0, dst, src)
    nterms, step = a.shape[1], len(dst) // m
    out = []
    for r0 in range(0, m, per):
        r1 = min(r0 + per, m)
        out.extend(_shifted_rows(a[r0:r1], v0[r0:r1], dst[r0 * step:r1 * step] - r0 * nterms,
                                 src[r0 * step:r1 * step] - r0 * nterms))
    return out


def _shifted_rows(a, v0, dst, src):
    """One piece of :func:`_coordinate_rows`, as one array."""
    batch = a.shape[2:]
    c = a * v0[:, None]
    flat = c.reshape((-1,) + batch)
    if batch:  # a take beats fancy indexing on a few columns
        t = flat.take(dst, axis=0)
        t += a.reshape(flat.shape).take(src, axis=0)
        flat[dst] = t
    else:
        flat[dst] += a.reshape(-1)[src]
    return c


def coordinate_contraction(a, values):
    """The series of ``contract("lk,k->l", a, y)`` for the fibre coordinate
    series y^k of base values ``values`` (shaped ``(4, *batch)``), without
    a product.

    Output term K of the product sums a_{K-e_k} (times the degree-1
    coefficient 1 of y^k) for each fibre variable k in K, by rising I and
    so by rising k, then a_K y as its last summand; every other summand
    is an exact zero.  Here the same summands are added in the same
    order, from -0.0, each read off with a shift (the ``src`` of
    :func:`_deriv_tables`).  To order 3, where a segment's rest is added
    in order, the terms are those of the product wherever ``a`` is finite.
    """
    n, k = len(a.layout), a.order
    c = np.einsum("lk...,k...->l...", a.coeffs, np.expand_dims(values, 1))
    out = np.full(c.shape, -0.0)
    for i, v in enumerate(FIBRE_VARS):
        src, _ = _deriv_tables(k, a.layout.index(v), n)
        out[:, src] += a.coeffs[:, i, :len(src)]
    out += c
    return TSeries(out, k, a.layout, 1)


def _outer_product(a, b, ia, ib):
    """Coefficients of the truncated product of ``a`` and ``b``, whose
    variables are disjoint (see the module notes): term K is a at
    ``ia[K]`` times b at ``ib[K]`` (:func:`_outer_index`)."""
    return a.take(ia, axis=0) * b.take(ib, axis=0)


def _outer_index(positions, n, k):
    """(ia, ib) of :func:`_outer_product` at order k in a layout of n
    variables, the first factor using the variables at ``positions``: each
    term's exponents restricted to them, and those of the rest of the term.
    A term in a variable neither factor uses reads an exact zero of b."""
    key = (positions, n, k)
    if key not in _outer_cache:
        t = _terms(n)
        terms = t.terms[:t.nterms[k]]
        inside = np.zeros(n, dtype=np.int64)
        inside[list(positions)] = 1
        _outer_cache[key] = (t.lookup(_codes(terms * inside)),
                             t.lookup(_codes(terms * (1 - inside))))
    return _outer_cache[key]


_outer_cache = {}


def _restricted(fn, idx, c, gather=True, size=None):
    """``fn`` of the coefficients ``c`` run on the terms at ``idx`` alone,
    the terms of a smaller layout (:func:`_lift_index`) outside which
    ``c`` is zero, and scattered back into ``size`` terms (``c``'s).  A
    chain of such steps skips the scatter (``size`` 0) and the next
    gather (``gather`` False): the same bits."""
    r = fn(c.take(idx, axis=0) if gather else c)
    if size == 0:
        return r
    out = np.zeros((c.shape[0] if size is None else size,) + r.shape[1:])
    out[idx] = r
    return out


def _deriv_tables(k, pos, n):
    """(src, fac): d/d(variable ``pos``) maps degree<=k onto degree<=k-1
    (empty at k = 0)."""
    t = _terms(n)
    key = (k, pos)
    if key not in t.deriv:
        nout = t.nterms[k - 1] if k else 0
        src = t.lookup(t.codes[:nout] + _BASE ** (n - 1 - pos))
        fac = (t.terms[:nout, pos] + 1).astype(float)
        t.deriv[key] = (src, fac)
    return t.deriv[key]


def _grad_tables(k, variables, layout):
    """(src, fac, rows): :func:`_deriv_tables` stacked for each of
    ``variables`` in the layout, and their rows among ``variables``, or
    None if every one is in it (the partial by any other is zero)."""
    key = (k, variables, layout)
    if key not in _grad_cache:
        n = len(layout)
        rows = [r for r, v in enumerate(variables) if v in layout]
        tables = [_deriv_tables(k, layout.index(variables[r]), n) for r in rows]
        nout = _terms(n).nterms[k - 1]
        _grad_cache[key] = (np.array([src for src, _ in tables], dtype=np.int64).reshape(-1, nout),
                            np.array([fac for _, fac in tables]).reshape(-1, nout),
                            None if len(rows) == len(variables) else np.array(rows, dtype=np.int64))
    return _grad_cache[key]


_grad_cache = {}


def _lift_index(small, large, order):
    """Positions of the terms of layout ``small`` among those of ``large``."""
    key = (small, large, order)
    if key not in _lift_cache:
        ts, tl = _terms(len(small)), _terms(len(large))
        size = ts.nterms[order]
        exps = np.zeros((size, len(large)), dtype=np.int64)
        exps[:, [large.index(v) for v in small]] = ts.terms[:size]
        _lift_cache[key] = tl.lookup(_codes(exps))
    return _lift_cache[key]


def _jet_tables(layout, pattern):
    """(idx, fac, inactive) of :func:`jet_tensor`: the term index and
    factorial of each entry, and the entries that differentiate by a
    variable outside the layout (None if there are none)."""
    key = (layout, pattern)
    if key not in _jet_tensor_cache:
        t = _terms(len(layout))
        axes = len(pattern)
        idx = np.zeros((4,) * axes, dtype=int)
        fac = np.zeros((4,) * axes)
        inactive = np.zeros((4,) * axes, dtype=bool)
        for combo in itertools.product(range(4), repeat=axes):
            alpha = [0] * len(layout)
            for ch, ax in zip(pattern, combo):
                var = ax + (4 if ch == "y" else 0)
                if var not in layout:
                    inactive[combo] = True
                    break
                alpha[layout.index(var)] += 1
            else:
                i = t.index[tuple(alpha)]
                idx[combo] = i
                fac[combo] = t.fact[i]
        _jet_tensor_cache[key] = (idx, fac, inactive if inactive.any() else None)
    return _jet_tensor_cache[key]


def jet_tensor(series, pattern):
    """Gather a partial-derivative tensor out of a series in one indexing op.

    ``pattern`` is a string over {'x', 'y'}; e.g. ``"yyx"`` returns
    T[a, b, k] = d^3 f / dy^a dy^b dx^k with shape (4, 4, 4), after the
    series' own tensor axes and before its batch axes.  Entries that
    differentiate by a variable outside the layout are zero.
    """
    idx, fac, inactive = _jet_tables(series.layout, pattern)
    if len(pattern) > series.order:
        raise ValueError(f"pattern {pattern!r} beyond trusted order {series.order}")
    fac = fac.reshape(fac.shape + (1,) * len(series.batch))
    out = series.coeffs.take(idx, axis=series.rank) * fac
    if inactive is not None:
        out[series._at(inactive)] = 0.0
    return out


_jets_cache = {}


def jets(series, patterns):
    """The :func:`jet_tensor` of a scalar series for each of ``patterns``,
    read with one ``take``.

    Each tensor has its batch axes first, ``(*batch, 4, ...)``, and is
    C-contiguous: a batch of B points gives B stacked tensors, which
    batched linear algebra takes as they are.  The values are those of
    ``jet_tensor`` moved to that layout.
    """
    if max(map(len, patterns)) > series.order:
        raise ValueError(f"patterns {patterns!r} beyond trusted order {series.order}")
    return _read_jets(series.coeffs, jets_plan(series.layout, patterns, series.batch))


def jets_plan(layout, patterns, batch):
    """The plan of :func:`jets` for scalar series in ``layout`` at a batch
    of shape ``batch``, built on first use (:func:`_jets_plan`)."""
    key = (layout, patterns, batch)
    plan = _jets_cache.get(key)
    if plan is None:
        plan = _remember(_jets_cache, key, _jets_plan(*key))
    return plan


def _read_jets(coeffs, plan):
    """The tensors of :func:`jets` by a plan of :func:`_jets_plan`."""
    idx, fac, inactive, blocks = plan
    out = coeffs.take(idx)
    out *= fac
    if inactive is not None:
        out[inactive] = 0.0
    return [out[a:b].reshape(shape) for a, b, shape in blocks]


def _jets_plan(layout, patterns, batch):
    """Flat indices into (nterms, *batch) coefficients, their factorials,
    the entries to zero and each pattern's (start, stop, shape)."""
    width = math.prod(batch)
    cols = np.arange(width)[:, None]
    idx, fac, inactive, blocks = [], [], [], []
    start = 0
    for pattern in patterns:
        i, f, off = _jet_tables(layout, pattern)
        # entry (b, j) of a block reads term i[j] of batch column b
        idx.append((i.reshape(1, -1) * width + cols).ravel())
        fac.append(np.tile(f.ravel(), width))
        inactive.append(np.tile(np.zeros(f.size, dtype=bool) if off is None else off.ravel(),
                                width))
        stop = start + width * f.size
        blocks.append((start, stop, batch + f.shape))
        start = stop
    inactive = np.concatenate(inactive)
    return (np.concatenate(idx), np.concatenate(fac),
            np.flatnonzero(inactive) if inactive.any() else None, blocks)


def contract(spec, a, b):
    """The series of ``einsum(spec, a, b)``: products summed over tensor indices.

    ``spec`` names the tensor axes only, e.g. ``"im,mj->ij"`` for the
    matrix product of two rank-2 series.  Either factor may instead be an
    array of values shaped ``(*tensor, *batch)``: a series with only a
    constant term, which needs no product table.
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    full, ranks = f"{sa}...,{sb}...->{out}...", (len(sa), len(sb))
    if not (isinstance(a, TSeries) and isinstance(b, TSeries)):
        # einsum runs several times faster on a C-ordered constant
        s = a if isinstance(a, TSeries) else b
        ca = a.coeffs if a is s else np.expand_dims(np.ascontiguousarray(a), ranks[0])
        cb = b.coeffs if b is s else np.expand_dims(np.ascontiguousarray(b), ranks[1])
        return TSeries(np.einsum(full, ca, cb), s.order, s.layout, len(out))
    a, b, k = TSeries._align(a, b)
    dims = dict(zip(sa + sb, a.shape + b.shape))
    out_tensor = tuple(dims[c] for c in out)
    coeffs = _product(a.coeffs, b.coeffs, k, len(a.layout), ranks, out_tensor,
                      functools.partial(np.einsum, full))
    return TSeries(coeffs, k, a.layout, len(out))


def solve(a, b, a0inv):
    """The vector series x with ``contract("ij,j->i", a, x) == b``, for a
    matrix series ``a`` whose value has the inverse ``a0inv``, an array
    shaped ``(m, m, *batch)``.

    x is found degree by degree: x_0 = a0inv b_0, and for d >= 1
    x_d = a0inv (b_d - (a x)_d), where (a x)_d are the degree-d terms of
    the product with x known below degree d and still zero from it on
    (:func:`_product` with ``top``).  Step d sums only the degree-d
    segments, and its a_0 x_d summands are zero, so no inverse series of
    ``a`` is formed.  The result is ``contract("ij,j->i", ainv, b)`` for
    the series inverse ``ainv`` of ``a``, up to rounding.
    """
    a, b, k = TSeries._align(a, b)
    n = len(a.layout)
    nterms = _terms(n).nterms
    dot = functools.partial(np.einsum, "ij...,j...->i...")
    inv = np.expand_dims(a0inv, 2)  # a term axis, broadcast over each degree's terms
    x = np.zeros(b.coeffs.shape)
    for d in range(k + 1):
        lo, hi = nterms[d - 1] if d else 0, nterms[d]
        rhs = b.coeffs[:, lo:hi]
        if d:
            rhs = rhs - _product(a.coeffs[:, :, :hi], x[:, :hi], d, n, (2, 1), x.shape[:1],
                                 dot, top=True)
        x[:, lo:hi] = dot(inv, rhs)
    return TSeries(x, k, a.layout, 1)


class TSeries:
    """Taylor coefficients of a scalar or tensor quantity, trusted to ``order``.

    ``rank`` counts the leading tensor axes of ``coeffs``.  ``s[i]`` is
    the series of the components with first index i, so ``g[i][j]`` reads
    one entry of a rank-2 series, and ``value()`` is shaped
    ``(*tensor, *batch)``.  Sums and ``*`` broadcast the tensor axes like
    numpy arrays (a scalar series scales every component);
    :func:`contract` sums over an index.
    """

    __slots__ = ("coeffs", "order", "layout", "rank")

    def __init__(self, coeffs, order, layout=ALL, rank=0):
        self.coeffs = coeffs
        self.order = order
        self.layout = layout
        self.rank = rank

    # ------------------------------------------------------------------
    # constructors
    @staticmethod
    def constant(value, order, batch=(), layout=ALL):
        c = np.zeros((_terms(len(layout)).nterms[order],) + tuple(batch))
        c[0] = value
        return TSeries(c, order, layout)

    @staticmethod
    def zeros(shape, order, batch=(), layout=ALL):
        """The zero series of a tensor of the given shape."""
        size = _terms(len(layout)).nterms[order]
        return TSeries(np.zeros(tuple(shape) + (size,) + tuple(batch)), order, layout, len(shape))

    @staticmethod
    def coordinate(var, value, order, batch=(), layout=ALL):
        """Series of the chart variable ``var`` with base-point value ``value``."""
        s = TSeries.constant(value, order, batch, layout)
        if order >= 1:
            # the degree-1 terms run from the last variable to the first
            s.coeffs[len(layout) - layout.index(var)] = 1.0
        return s

    @staticmethod
    def stack(series):
        """The tensor series whose first-index components are ``series``."""
        k = min(s.order for s in series)
        return TSeries(np.stack([s.truncate(k).coeffs for s in series]), k,
                       series[0].layout, series[0].rank + 1)

    @property
    def shape(self):
        """The tensor shape; () for a scalar series."""
        return self.coeffs.shape[:self.rank]

    @property
    def batch(self):
        return self.coeffs.shape[self.rank + 1:]

    def _at(self, term):
        """Index of one term (or a slice or mask of terms) in every component."""
        return (slice(None),) * self.rank + (term,)

    def __getitem__(self, index):
        """The components at ``index`` of the tensor axes, as a series."""
        if not self.rank:
            raise TypeError("a scalar series has no components")
        c = self.coeffs[index]
        return TSeries(c, self.order, self.layout, self.rank - self.coeffs.ndim + c.ndim)

    def transpose(self, *axes):
        """The series with its tensor axes permuted (numpy's ``transpose``)."""
        rest = tuple(range(self.rank, self.coeffs.ndim))
        return TSeries(self.coeffs.transpose(axes + rest), self.order, self.layout, self.rank)

    def truncate(self, order):
        if order >= self.order:
            return self
        size = _terms(len(self.layout)).nterms[order]
        return TSeries(self.coeffs[self._at(slice(size))], order, self.layout, self.rank)

    def lift(self, layout):
        """The same series expanded in ``layout``, a superset of its own."""
        if layout == self.layout:
            return self
        t = _terms(len(layout))
        c = np.zeros(self.shape + (t.nterms[self.order],) + self.batch)
        c[self._at(_lift_index(self.layout, layout, self.order))] = self.coeffs
        return TSeries(c, self.order, layout, self.rank)

    def copy(self):
        return TSeries(self.coeffs.copy(), self.order, self.layout, self.rank)

    # ------------------------------------------------------------------
    # readers
    def value(self):
        return self.coeffs[self._at(0)]

    def grad(self, variables):
        """Series of the partials by each of ``variables``, stacked as a new
        last tensor axis; drops one trusted order."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        variables = tuple(variables)
        src, fac, rows = _grad_tables(self.order, variables, self.layout)
        c = self.coeffs.take(src, axis=self.rank) * fac.reshape(fac.shape + (1,) * len(self.batch))
        if rows is not None:  # the other partials are +0
            full = np.zeros(self.shape + (len(variables),) + c.shape[self.rank + 1:])
            full[self._at(rows)] = c
            c = full
        return TSeries(c, self.order - 1, self.layout, self.rank + 1)

    def deriv(self, var):
        """Series of the partial derivative; drops one trusted order."""
        d = self.grad((var,))
        return TSeries(d.coeffs[self._at(0)], d.order, d.layout, self.rank)

    def partial(self, alpha):
        """Exact mixed partial for an 8-tuple exponent ``alpha`` (sum <= order)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise ValueError(f"partial {alpha} beyond trusted order {self.order}")
        if any(e for v, e in enumerate(alpha) if v not in self.layout):
            return np.zeros(self.shape + self.batch)[()]
        t = _terms(len(self.layout))
        i = t.index[tuple(alpha[v] for v in self.layout)]
        return self.coeffs[self._at(i)] * t.fact[i]

    # ------------------------------------------------------------------
    # ring operations
    @staticmethod
    def _align(a, b):
        if a.order == b.order and a.layout is b.layout:
            return a, b, a.order
        k = min(a.order, b.order)
        a, b = a.truncate(k), b.truncate(k)
        if a.layout is not b.layout and a.layout != b.layout:
            layout = tuple(sorted(set(a.layout) | set(b.layout)))
            a, b = a.lift(layout), b.lift(layout)
        return a, b, k

    def __add__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            return TSeries(a.coeffs + b.coeffs, k, a.layout, max(a.rank, b.rank))
        c = self.coeffs.copy()
        i = self._at(0)
        c[i] = c[i] + other
        return TSeries(c, self.order, self.layout, self.rank)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            return TSeries(a.coeffs - b.coeffs, k, a.layout, max(a.rank, b.rank))
        c = self.coeffs.copy()
        i = self._at(0)
        c[i] = c[i] - other
        return TSeries(c, self.order, self.layout, self.rank)

    def __rsub__(self, other):
        c = -self.coeffs
        i = self._at(0)
        c[i] = c[i] + other
        return TSeries(c, self.order, self.layout, self.rank)

    def __neg__(self):
        return TSeries(-self.coeffs, self.order, self.layout, self.rank)

    def __mul__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            tensor = ()
            if a.rank or b.rank:
                tensor = ((a.rank, b.rank), np.broadcast_shapes(a.shape, b.shape))
            return TSeries(_product(a.coeffs, b.coeffs, k, len(a.layout), *tensor), k,
                           a.layout, max(a.rank, b.rank))
        return TSeries(self.coeffs * other, self.order, self.layout, self.rank)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            return a * b.reciprocal()
        return TSeries(self.coeffs / other, self.order, self.layout, self.rank)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
            return self.ipow(int(p))
        return self.powf(float(p))

    def ipow(self, p):
        if p == 0:
            c = np.zeros(self.coeffs.shape)
            c[self._at(0)] = 1.0
            return TSeries(c, self.order, self.layout, self.rank)
        if p < 0:
            return self.reciprocal().ipow(-p)
        result = None
        base = self
        while p:
            if p & 1:
                result = base if result is None else result * base
            p >>= 1
            if p:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # analytic functions: the array-level compositions below
    def _apply(self, fn, *args):
        return TSeries(fn(self.coeffs, self.order, len(self.layout), self.rank, *args),
                       self.order, self.layout, self.rank)

    def reciprocal(self):
        return self._apply(reciprocal)

    def sqrt(self):
        return self._apply(sqrt)

    def exp(self):
        return self._apply(exp)

    def log(self):
        return self._apply(log)

    def sin(self):
        return self._apply(sin)

    def cos(self):
        return self._apply(cos)

    def abs(self):
        return self._apply(absolute)

    def powf(self, p):
        return self._apply(powf, p)


# ----------------------------------------------------------------------
# analytic functions on coefficient arrays, via univariate composition
# (Horner in h = u - u0).  Each takes the coefficients ``c`` (term axis
# after ``rank`` tensor axes), the order k and the number n of variables
# of their layout.


@functools.cache
def _mul_fn(k, n):
    """The order-k product of two coefficient arrays in a layout of n
    variables.  It looks :func:`_product` up at each call."""
    return lambda a, b: _product(a, b, k, n)


def _u0(c, rank):
    """The value row; a numpy scalar for one unbatched component."""
    return c[(slice(None),) * rank + (0,)]


def _power(u0, e):
    """u0 ** e, rounded as in a batch column: a numpy scalar's ``**`` calls
    libm's ``pow``, which can round apart from numpy's array loop, so a lone
    point raises a 0-d array, one exponent a call (a vector of exponents
    takes other loops)."""
    return np.asarray(u0) ** e


def _compose(c, cs, n, rank=0):
    """sum_m cs[m] h^m for h = c - u0 in a layout of n variables: r_0 of
    Horner's rule r_m = r_{m+1} h + cs[m], down from r_k = cs[k].

    The first step is a scaling of h by cs[k]: each segment of the
    product with the series of cs[k] holds cs[k] h_K and exact zeros.
    h has no constant term, so r_m is read only to order k - m, and from
    order 3 each step runs at that order: the first scales h to order 1,
    and step m multiplies at order k - m, its accumulator r_{m+1}
    zero-padded by one degree.  A padded term r_K meets only h_0 = 0, in
    the last summand of its segment, where a full-order step adds
    r_K h_0, so on finite coefficients every term is that of full-order
    steps up to the sign of a zero (see the module notes).  Orders 0-2
    run every step at order k.
    """
    k = len(cs) - 1
    head = (slice(None),) * rank
    i = head + (0,)
    ranks, shape = (rank, rank), c.shape[:rank]
    h = c.copy()
    h[i] = 0.0
    scale = np.expand_dims(cs[-1], rank) if rank else cs[-1]
    if k < 3:
        r = h * scale
        if k:
            r[i] += cs[-2]
        else:
            r[i] = cs[-1]
        if k == 2:
            r = _product(r, h, k, n, ranks, shape)
            r[i] += cs[0]
        return r
    nterms = _terms(n).nterms
    r = h[head + (slice(nterms[1]),)] * scale
    r[i] += cs[-2]
    for m in range(k - 2, -1, -1):
        d = k - m
        acc = np.zeros(shape + (nterms[d],) + c.shape[rank + 1:])
        acc[head + (slice(nterms[d - 1]),)] = r
        r = _product(acc, h[head + (slice(nterms[d]),)], d, n, ranks, shape)
        r[i] += cs[m]
    return r


def reciprocal(c, k, n, rank=0):
    u0 = _u0(c, rank)
    if np.count_nonzero(u0 == 0.0):
        raise DomainError("division by zero")
    cs = [1.0 / u0]
    for _ in range(k):
        cs.append(-cs[-1] / u0)
    return _compose(c, cs, n, rank)


def sqrt(c, k, n, rank=0):
    u0 = _u0(c, rank)
    if np.count_nonzero(u0 <= 0.0):
        raise DomainError("sqrt of a nonpositive value")
    cs = [np.sqrt(u0)]
    # d^m sqrt / m! = binom(1/2, m) u0^(1/2 - m)
    coef = 1.0
    for m in range(1, k + 1):
        coef *= (0.5 - (m - 1)) / m
        cs.append(coef * _power(u0, 0.5 - m))
    return _compose(c, cs, n, rank)


def _taylor_row(d0, d1, k):
    """d_m / m! for m <= k, the derivatives d_m cycling through d0, d1,
    -d0, -d1, each negation taken where it is read; d_0 and d_1 are not
    divided, which changes no bit."""
    row = []
    for m in range(k + 1):
        d = (d0, d1)[m % 2]
        if m % 4 > 1:
            d = -d
        row.append(d if m < 2 else d / math.factorial(m))
    return row


def exp(c, k, n, rank=0):
    e = np.exp(_u0(c, rank))
    return _compose(c, [e if m < 2 else e / math.factorial(m) for m in range(k + 1)], n, rank)


def log(c, k, n, rank=0):
    u0 = _u0(c, rank)
    if np.count_nonzero(u0 <= 0.0):
        raise DomainError("log of a nonpositive value")
    cs = [np.log(u0)]
    for m in range(1, k + 1):
        cs.append((-1.0) ** (m - 1) / (m * _power(u0, m)))
    return _compose(c, cs, n, rank)


def sin(c, k, n, rank=0):
    u0 = _u0(c, rank)
    return _compose(c, _taylor_row(np.sin(u0), np.cos(u0), k), n, rank)


def cos(c, k, n, rank=0):
    u0 = _u0(c, rank)
    s, co = np.sin(u0), np.cos(u0)
    return _compose(c, _taylor_row(co, -s, k), n, rank)


def absolute(c, k, n, rank=0):
    u0 = _u0(c, rank)
    if k >= 1 and np.count_nonzero(u0 == 0.0):
        raise DomainError("abs is not differentiable at 0")
    return c * (np.expand_dims(np.sign(u0), rank) if rank else np.sign(u0))


def powf(c, k, n, rank, p):
    u0 = _u0(c, rank)
    if np.count_nonzero(u0 <= 0.0):
        raise DomainError("non-integer power of a nonpositive value")
    cs = [_power(u0, p)]
    coef = 1.0
    for m in range(1, k + 1):
        coef *= (p - (m - 1)) / m
        cs.append(coef * _power(u0, p - m))
    return _compose(c, cs, n, rank)


#: the array-level function of each analytic operation of an expression
FUNCTIONS = {"reciprocal": reciprocal, "sqrt": sqrt, "exp": exp, "log": log, "sin": sin,
             "cos": cos, "abs": absolute, "powf": powf}
#: the operations that run a Horner loop of products (:func:`_compose`)
COMPOSITIONS = frozenset(FUNCTIONS) - {"abs"}
