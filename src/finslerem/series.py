"""Truncated multivariate Taylor arithmetic over the 8 chart variables.

A :class:`TSeries` holds the Taylor coefficients of a smooth function of
(x0..x3, y0..y3) around a base point, truncated at total degree ``order``
(hard cap 4).  All arithmetic propagates coefficients exactly, so partial
derivatives read off a series are exact derivatives of the closed-form
expression, not numerical approximations.

Terms are ordered by (total degree, lexicographic exponent tuple).  With
that ordering the degree<=k terms are a prefix of the degree<=m list for
k < m, so truncation is a slice and no reindexing is ever needed.

Coefficient arrays have shape ``(nterms,)`` for a single base point or
``(nterms, B)`` for a batch of B points; every operation is agnostic to
the trailing batch axis.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError

NVARS = 8
MAX_ORDER = 4

VAR_NAMES = ("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")


def _build_terms():
    terms = []
    for deg in range(MAX_ORDER + 1):
        block = [
            t
            for t in itertools.product(range(deg + 1), repeat=NVARS)
            if sum(t) == deg
        ]
        block.sort()
        terms.extend(block)
    return terms


#: all multi-indices with total degree <= MAX_ORDER, degree-major order
TERMS = _build_terms()
INDEX = {t: i for i, t in enumerate(TERMS)}
DEGREE = np.array([sum(t) for t in TERMS])
#: number of terms in the degree<=k prefix
NTERMS = [int(np.sum(DEGREE <= k)) for k in range(MAX_ORDER + 1)]
#: product of factorials of the exponents, converts coefficients to partials
FACT = np.array([math.prod(math.factorial(e) for e in t) for t in TERMS], dtype=float)

_mul_cache = {}
_deriv_cache = {}
_jet_tensor_cache = {}


def _mul_tables(k):
    """(I, J, K-sorted starts) index arrays for products truncated at degree k."""
    if k not in _mul_cache:
        n = NTERMS[k]
        triples = []
        for i in range(n):
            ti = TERMS[i]
            di = DEGREE[i]
            for j in range(n):
                if di + DEGREE[j] > k:
                    continue
                tj = TERMS[j]
                tk = tuple(a + b for a, b in zip(ti, tj))
                triples.append((INDEX[tk], i, j))
        triples.sort()
        K = np.array([t[0] for t in triples])
        I = np.array([t[1] for t in triples])
        J = np.array([t[2] for t in triples])
        starts = np.searchsorted(K, np.arange(n))
        _mul_cache[k] = (I, J, starts)
    return _mul_cache[k]


def _deriv_tables(k, var):
    """(src, fac): d/dvar maps the degree<=k space onto the degree<=k-1 space."""
    if (k, var) not in _deriv_cache:
        if k < 1:
            raise ValueError("cannot differentiate an order-0 series")
        nout = NTERMS[k - 1]
        src = np.empty(nout, dtype=int)
        fac = np.empty(nout)
        for t in range(nout):
            beta = list(TERMS[t])
            fac[t] = beta[var] + 1
            beta[var] += 1
            src[t] = INDEX[tuple(beta)]
        _deriv_cache[(k, var)] = (src, fac)
    return _deriv_cache[(k, var)]


def jet_tensor(series, pattern):
    """Gather a partial-derivative tensor out of a series in one indexing op.

    ``pattern`` is a string over {'x', 'y'}; e.g. ``"yyx"`` returns
    T[a, b, k] = d^3 f / dy^a dy^b dx^k with shape (4, 4, 4).
    """
    key = pattern
    if key not in _jet_tensor_cache:
        axes = len(pattern)
        idx = np.empty((4,) * axes, dtype=int)
        fac = np.empty((4,) * axes)
        for combo in itertools.product(range(4), repeat=axes):
            alpha = [0] * NVARS
            for ch, ax in zip(pattern, combo):
                alpha[ax + (4 if ch == "y" else 0)] += 1
            i = INDEX[tuple(alpha)]
            idx[combo] = i
            fac[combo] = FACT[i]
        _jet_tensor_cache[key] = (idx, fac)
    idx, fac = _jet_tensor_cache[key]
    if len(pattern) > series.order:
        raise ValueError(f"pattern {pattern!r} beyond trusted order {series.order}")
    if series.coeffs.ndim > 1:
        shaped = fac.reshape(fac.shape + (1,) * (series.coeffs.ndim - 1))
        return series.coeffs[idx] * shaped
    return series.coeffs[idx] * fac


class TSeries:
    """Taylor coefficients of one scalar quantity, trusted to ``order``."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        self.coeffs = coeffs
        self.order = order

    # ------------------------------------------------------------------
    # constructors
    @staticmethod
    def constant(value, order, batch=()):
        c = np.zeros((NTERMS[order],) + tuple(batch))
        c[0] = value
        return TSeries(c, order)

    @staticmethod
    def coordinate(var, value, order, batch=()):
        """Series of the chart variable ``var`` with base-point value ``value``."""
        c = np.zeros((NTERMS[order],) + tuple(batch))
        c[0] = value
        if order >= 1:
            e = [0] * NVARS
            e[var] = 1
            c[INDEX[tuple(e)]] = 1.0
        return TSeries(c, order)

    @property
    def batch(self):
        return self.coeffs.shape[1:]

    def truncate(self, order):
        if order >= self.order:
            return self
        return TSeries(self.coeffs[: NTERMS[order]], order)

    def copy(self):
        return TSeries(self.coeffs.copy(), self.order)

    # ------------------------------------------------------------------
    # readers
    def value(self):
        return self.coeffs[0]

    def deriv(self, var):
        """Series of the partial derivative; drops one trusted order."""
        src, fac = _deriv_tables(self.order, var)
        if self.coeffs.ndim > 1:
            return TSeries(self.coeffs[src] * fac[:, None], self.order - 1)
        return TSeries(self.coeffs[src] * fac, self.order - 1)

    def partial(self, alpha):
        """Exact mixed partial for exponent tuple ``alpha`` (sum <= order)."""
        i = INDEX[tuple(alpha)]
        if DEGREE[i] > self.order:
            raise ValueError(f"partial {alpha} beyond trusted order {self.order}")
        return self.coeffs[i] * FACT[i]

    # ------------------------------------------------------------------
    # ring operations
    @staticmethod
    def _align(a, b):
        k = min(a.order, b.order)
        return a.truncate(k), b.truncate(k), k

    def __add__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            return TSeries(a.coeffs + b.coeffs, k)
        c = self.coeffs.copy()
        c[0] = c[0] + other
        return TSeries(c, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            return TSeries(a.coeffs - b.coeffs, k)
        c = self.coeffs.copy()
        c[0] = c[0] - other
        return TSeries(c, self.order)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] = c[0] + other
        return TSeries(c, self.order)

    def __neg__(self):
        return TSeries(-self.coeffs, self.order)

    def __mul__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            I, J, starts = _mul_tables(k)
            prod = a.coeffs[I] * b.coeffs[J]
            return TSeries(np.add.reduceat(prod, starts, axis=0), k)
        return TSeries(self.coeffs * other, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TSeries):
            a, b, k = TSeries._align(self, other)
            return a * b.reciprocal()
        return TSeries(self.coeffs / other, self.order)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
            return self.ipow(int(p))
        return self.powf(float(p))

    def ipow(self, p):
        if p == 0:
            return TSeries.constant(1.0, self.order, self.batch)
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
    # analytic functions via univariate composition (Horner in h = u - u0)
    def _compose(self, cs):
        h = self.copy()
        h.coeffs[0] = 0.0
        r = TSeries.constant(0.0, self.order, self.batch)
        r.coeffs[0] = cs[-1]
        for m in range(len(cs) - 2, -1, -1):
            r = r * h
            r.coeffs[0] = r.coeffs[0] + cs[m]
        return r

    def _u0(self):
        return self.coeffs[0]

    def reciprocal(self):
        u0 = self._u0()
        if np.any(u0 == 0.0):
            raise DomainError("division by zero")
        cs = [1.0 / u0]
        for _ in range(self.order):
            cs.append(-cs[-1] / u0)
        return self._compose(cs)

    def sqrt(self):
        u0 = self._u0()
        if np.any(u0 <= 0.0):
            raise DomainError("sqrt of a nonpositive value")
        cs = [np.sqrt(u0)]
        # d^m sqrt / m! = binom(1/2, m) u0^(1/2 - m)
        coef = 1.0
        for m in range(1, self.order + 1):
            coef *= (0.5 - (m - 1)) / m
            cs.append(coef * u0 ** (0.5 - m))
        return self._compose(cs)

    def exp(self):
        e = np.exp(self._u0())
        cs = [e / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(cs)

    def log(self):
        u0 = self._u0()
        if np.any(u0 <= 0.0):
            raise DomainError("log of a nonpositive value")
        cs = [np.log(u0)]
        for m in range(1, self.order + 1):
            cs.append((-1.0) ** (m - 1) / (m * u0**m))
        return self._compose(cs)

    def sin(self):
        u0 = self._u0()
        s, c = np.sin(u0), np.cos(u0)
        cycle = [s, c, -s, -c]
        cs = [cycle[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(cs)

    def cos(self):
        u0 = self._u0()
        s, c = np.sin(u0), np.cos(u0)
        cycle = [c, -s, -c, s]
        cs = [cycle[m % 4] / math.factorial(m) for m in range(self.order + 1)]
        return self._compose(cs)

    def abs(self):
        u0 = self._u0()
        if self.order >= 1 and np.any(u0 == 0.0):
            raise DomainError("abs is not differentiable at 0")
        return self * np.sign(u0)

    def powf(self, p):
        u0 = self._u0()
        if np.any(u0 <= 0.0):
            raise DomainError("non-integer power of a nonpositive value")
        cs = [u0**p]
        coef = 1.0
        for m in range(1, self.order + 1):
            coef *= (p - (m - 1)) / m
            cs.append(coef * u0 ** (p - m))
        return self._compose(cs)
