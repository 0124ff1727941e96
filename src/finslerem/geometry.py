"""Metric tower of a pseudo-Finsler space at a sample point.

Everything downstream (field tensors, currents, particle dynamics) is
assembled from the Taylor tower built here: the generating function F is
expanded once around the sample point and the metric, spray, nonlinear
connection, Chern coefficients, curvature and volume factor fall out as
truncated series whose low coefficients are exact.

Sample points may be batched: pass ``x``/``y`` of shape (4, B) and every
returned array grows a trailing batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from . import expr
from .errors import DegenerateMetricError, DomainError, SignatureMismatchError
from .expr import ScalarField
from .series import (BASE_VARS, FIBRE_VARS, TSeries, contract, coordinate_contraction, jet_tensor,
                     jets, solve)

DEGENERACY_THRESHOLD = 1e-12

LORENTZ = (1, -1, -1, -1)

#: einsum labels of a series' own tensor axes in the adapted derivative
_INDICES = "bcdefghij"


@dataclass(frozen=True)
class SpaceDef:
    """A scene's geometry and couplings; the single source of truth.

    F is the 1-homogeneous generating function, L1 the 1-homogeneous
    potential generator (zero field when absent).  ``coupling`` is the
    single scalar multiplying the current (the two action constants only
    ever occur in this ratio).  ``H`` rescales the fibre coordinate so
    both field blocks carry identical measurement units.
    """

    F: ScalarField
    L1: ScalarField = field(default_factory=ScalarField.zero)
    q: float = 1.0
    c: float = 1.0
    H: float = 1.0
    coupling: float = 1.0
    signature: tuple = LORENTZ

    def qc(self):
        return self.q / self.c

    @cached_property
    def layout(self):
        """The chart variables every series of the space is expanded in:
        y0..y3 and the x variables that F or L1 use."""
        used = self.F.variables() | self.L1.variables()
        return tuple(v for v in range(4) if v in used) + (4, 5, 6, 7)

    @cached_property
    def flat_x(self):
        """True when F does not use x: spray, connection and curvature vanish."""
        return not any(v < 4 for v in self.F.variables())

    @cached_property
    def has_field(self):
        """False when L1 is zero, and with it the potential and the field."""
        return not self.L1.is_zero()

    @cached_property
    def program(self):
        """One program over F and the parts of L1, for the Towers that
        expand both to one order."""
        return expr.program(self.F, *self.L1.parts)


@dataclass
class GeometrySample:
    """All geometric quantities at one (x, y), as plain arrays."""

    x: np.ndarray
    y: np.ndarray
    g: np.ndarray            # g_ij
    g_inv: np.ndarray        # g^ij
    F_value: np.ndarray
    G_spray: np.ndarray      # G^i
    N: np.ndarray            # N[a, j] = N^a_j
    L_chern: np.ndarray      # L[i, j, k] = L^i_jk
    R_curv: np.ndarray       # R[a, j, k] = R^a_jk
    sqrtG: np.ndarray        # |det g|, volume factor of the lifted metric
    N_trace_dot: np.ndarray  # dN^a_j/dy^a


def check_det(det, what, error):
    """Raise ``error`` for the first member whose |det| is below the threshold
    or NaN, naming it when the batch holds more than one."""
    ok = np.abs(det) >= DEGENERACY_THRESHOLD
    if not ok.all():
        b = int(np.argmin(ok))
        member = f"member {b}: " if det.size > 1 else ""
        raise error(f"{member}|{what}| = {np.abs(det).flat[b]:.3e}")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


#: ``np.linalg``'s error state for inv and solve: a singular matrix raises
#: LinAlgError, with no warning
LAPACK_ERRSTATE = dict(call=_singular, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def lapack(gufunc, *args):
    """``np.linalg``'s inv or solve of float stacks by its ``gufunc``, under
    its error state (``LAPACK_ERRSTATE``)."""
    with np.errstate(**LAPACK_ERRSTATE):
        return gufunc(*args, signature="d" * len(args) + "->d")


class _stage(cached_property):
    """cached_property without the lock Python < 3.12 takes on a first access;
    on Python 3.11 that lock cost a lone-point force call (one Tower, a dozen
    stages) about 3%."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _batch_last(stack):
    """A member-first stack moved to the batch axis last, C-ordered: an
    einsum over a view whose batch axis strides across the members runs
    several times slower."""
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def _trailing(name):
    """The member-first value stage ``name`` with its batch axis last (a
    lone point's stage as it is)."""
    return _stage(lambda t: _batch_last(getattr(t, name)) if t.batch else getattr(t, name))


def _connection(series_name, rank):
    """The values of the spray (rank 1) or the connection (rank 2), batch
    axis last: zero where F does not use x, else read off the series stage
    ``series_name``."""
    def values(t):
        if t.flat_x:
            return np.zeros((4,) * rank + t.batch)
        return np.ascontiguousarray(getattr(t, series_name).value())
    return _stage(values)


class Tower:
    """Lazy cache of the series tower at one (possibly batched) point.

    ``order_f`` is the ambient truncation order for F (4 covers every
    formula in the package but the continuity residual, which takes 5),
    ``order_l1`` the one for the potential generator.  Lower orders make
    value extraction cheap (``metric`` takes F to order 2).
    A flat F (``space.flat_x``) is expanded to ``min(order_f,
    max(order_l1, 3))``: with no connection, F's highest reader is the
    inverse metric of the field blocks (order ``order_l1 - 2``) and
    ``det_series`` (order at least 1), two below F's order.  A
    coefficient does not depend on the order a series is truncated at, so
    every stage reads the same values as at ``order_f``.
    When the two orders are equal and L1 is not zero, F's and L1's series
    come from one program (``space.program``), which runs every
    subexpression they share once (``fused``; a Tower whose L1 is never
    read clears it before its first stage, and F runs alone).

    The values of the spray G and the connection N are read off their
    series.  (The Lorentz force gathers its own from the jets of F^2, in
    :mod:`finslerem.dynamics`.)
    """

    def __init__(self, space, x, y, order_f=4, order_l1=3):
        if space.flat_x:
            order_f = min(order_f, max(order_l1, 3))
        self.space = space
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.point = np.concatenate([self.x, self.y], axis=0)
        self.batch = self.point.shape[1:]
        self.kf = order_f
        self.kl = order_l1
        self.layout = space.layout
        self.flat_x = space.flat_x
        self.fused = order_f == order_l1 and space.has_field
        self.cache = {}

    #: the stages :meth:`tiled` repeats: those the field blocks and the
    #: currents read that depend on F alone
    _F_ONLY = ("det_values", "det_series", "ginv", "nonlinear")

    def tiled(self, reps, space):
        """The Tower of ``space`` at this batch of points repeated ``reps``
        times along the batch axis.

        ``space`` has this Tower's F and layout and may have another L1,
        such as an ensemble's with one member per copy.  The F-only stages
        in ``_F_ONLY`` (and the F tape, metric and inverse they come from)
        are computed once, here, and every copy holds them bit for bit.
        So are the series of the ``parts`` of ``space.L1``, whose program
        runs once at these points; ``combine`` blends the copies into the
        L1 of every column.  The field blocks and the currents run over
        all the columns.
        """
        if space.F is not self.space.F or space.layout != self.layout:
            raise ValueError("a tiled Tower keeps the F and the layout of its points")
        t = type(self)(space, np.tile(self.x, reps), np.tile(self.y, reps), self.kf, self.kl)

        def tile(s):
            return TSeries(np.tile(s.coeffs, (1,) * (s.coeffs.ndim - 1) + (reps,)),
                           s.order, s.layout, s.rank)

        for name in self._F_ONLY:
            v = getattr(self, name)
            if isinstance(v, TSeries):
                v = tile(v)
            else:  # a member-first stack
                v = np.tile(v, (reps,) + (1,) * (v.ndim - 1))
            t.__dict__[name] = v
        parts = space.L1._tape.run(self.point, self.kl, self.layout)
        t.__dict__["l1_series"] = space.L1.combine([tile(p) for p in parts], t.batch)
        return t

    # -- scalars -------------------------------------------------------
    @_stage
    def _generators(self):
        """The series of F and L1 from their one program."""
        f, *parts = self.space.program.run(self.point, self.kf, self.layout)
        return f, self.space.L1.combine(parts, self.batch)

    @_stage
    def f_series(self):
        if self.fused:
            return self._generators[0]
        return expr.eval_series(self.space.F, self.point, self.kf, self.layout)

    @_stage
    def e(self):
        """Series of F^2, the quadratic generator of the metric."""
        return self.f_series * self.f_series

    @_stage
    def f_value(self):
        return self.f_series.value()

    @_stage
    def l1_series(self):
        if self.fused:
            return self._generators[1]
        return expr.eval_series(self.space.L1, self.point, self.kl, self.layout)

    # -- value stages ----------------------------------------------------
    # The metric is gathered from the jets of e = F^2 as a member-first
    # stack, (B, 4, 4) for a batch of B, which batched det/inv take as it
    # is; the *_values views have the batch axis trailing.
    @_stage
    def g_stack(self):
        return 0.5 * jets(self.e, ("yy",))[0]

    @_stage
    def det_values(self):
        return _umath_linalg.det(self.g_stack, signature="d->d")

    @_stage
    def ginv_stack(self):
        check_det(self.det_values, "det g", DegenerateMetricError)
        return lapack(_umath_linalg.inv, self.g_stack)

    g_values = _trailing("g_stack")
    ginv_values = _trailing("ginv_stack")
    spray_values = _connection("spray", 1)
    nonlinear_values = _connection("nonlinear", 2)

    # -- series stages ---------------------------------------------------
    # Tensor series, (*tensor, nterms, *batch): a tensor stage is a few
    # whole-array products and contractions.
    @_stage
    def g(self):
        return self.e.grad(FIBRE_VARS).grad(FIBRE_VARS) * 0.5

    @_stage
    def ginv(self):
        """Series inverse of g: the Neumann sum (sum_m T^m) g0^{-1}, T = -g0^{-1} (g - g0).

        It runs to the order of the field blocks and the currents that
        read it, max(1, order_l1 - 2), as ``det_series`` does; the spray
        solves with g instead (``spray``).  T has no constant term, so a
        longer sum changes a term of degree <= k only by ±0 summands
        (T_0 times a term of its own degree): on finite coefficients the
        terms are those of the sum at g's full order, up to the sign of
        a zero."""
        g0inv = self.ginv_values
        h = self.g.truncate(max(1, self.kl - 2)).copy()
        h.value()[...] = 0.0
        T = -contract("im,mj->ij", g0inv, h)
        eye = np.eye(4).reshape((4, 4) + (1,) * len(self.batch))
        acc = T + eye
        for _ in range(1, h.order):
            acc = contract("im,mj->ij", T, acc) + eye
        return contract("im,mj->ij", acc, g0inv)

    @_stage
    def det_series(self):
        """det g by the Laplace expansion in complementary 2x2 minors, to
        the order of the field densities of the currents (at least 1).

        A term of degree <= k sums the same pairs in the same order
        whatever the order of g above k."""
        g = self.g.truncate(max(1, self.kl - 2))
        p, q = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]
        # the complementary pairs, each minus sign folded into a column swap
        r, s = [2, 3, 1, 0, 2, 0], [3, 1, 2, 3, 0, 1]
        m01 = g[0][p] * g[1][q] - g[0][q] * g[1][p]
        m23 = g[2][r] * g[3][s] - g[2][s] * g[3][r]
        return contract("m,m->", m01, m23)

    @_stage
    def sqrt_g(self):
        """Volume factor of the lifted block metric: |det g| as a series."""
        return self.det_series * np.sign(self.det_values)

    @_stage
    def spray(self):
        """G^i = 1/4 g^{il} b_l with b_l = (F^2)_{.l,k} y^k - (F^2)_{,l}: the
        series solution of g_il G^l = 1/4 b_l, degree by degree
        (``series.solve``, with g0^{-1} = ``ginv_values``).  The
        contraction with the coordinate series y^k runs no product
        (``series.coordinate_contraction``)."""
        if self.flat_x:
            return TSeries.zeros((4,), self.kf, self.batch, self.layout)
        e_yx = self.e.grad(FIBRE_VARS).grad(BASE_VARS)
        b = coordinate_contraction(e_yx, self.y) - self.e.grad(BASE_VARS)
        return solve(self.g, b * 0.25, self.ginv_values)

    @_stage
    def nonlinear(self):
        """N[a, j] = dG^a/dy^j."""
        if self.flat_x:
            return TSeries.zeros((4, 4), self.kf, self.batch, self.layout)
        return self.spray.grad(FIBRE_VARS)

    # -- adapted derivative ---------------------------------------------
    def delta(self, s):
        """Series of the adapted derivatives delta_k s = s_{,k} - N^a_k s_{.a},
        as a new last tensor axis k."""
        out = s.grad(BASE_VARS)
        if self.flat_x:
            return out
        idx = _INDICES[:s.rank]
        return out - contract(f"{idx}a,ak->{idx}k", s.grad(FIBRE_VARS), self.nonlinear)

    def delta_value(self, s, k=slice(None)):
        """Values of delta_k s, the new last tensor axis k (all four by default)."""
        out = jet_tensor(s, "x")
        if not self.flat_x:
            idx = _INDICES[:s.rank]
            out = out - np.einsum(f"{idx}a...,ak...->{idx}k...", jet_tensor(s, "y"),
                                  self.nonlinear_values)
        return out[s._at(k)]

    # -- value-only stages: coefficient reads of the series stages ---------
    @_stage
    def n_trace_dot_values(self):
        """dN^a_j/dy^a, the fibre-divergence trace of the connection."""
        return np.einsum("aja...->j...", self.berwald_values)

    @_stage
    def chern(self):
        """L[i, j, k] = 1/2 g^{ih} (dg_hj;k + dg_hk;j - dg_jk;h), symmetric in jk."""
        if self.flat_x:
            return np.zeros((4, 4, 4) + self.batch)
        dg = self.delta_value(self.g)  # dg[h, j, k] = delta_k g_hj
        t = dg + dg.swapaxes(1, 2) - np.einsum("jkh...->hjk...", dg)
        return 0.5 * np.einsum("ih...,hjk...->ijk...", self.ginv_values, t)

    @_stage
    def chern_values(self):
        """The Chern values under the name the samples read."""
        return self.chern

    @_stage
    def curvature_values(self):
        """R[a, j, k] = delta_k N^a_j - delta_j N^a_k, antisymmetric in (j, k)."""
        if self.flat_x:
            return np.zeros((4, 4, 4) + self.batch)
        dn = self.delta_value(self.nonlinear)
        return dn - dn.swapaxes(1, 2)

    # -- Berwald coefficients (vertical-index transport in the identities)
    @_stage
    def berwald_values(self):
        """B[a, j, b] = dN^a_j/dy^b = d^2 G^a/dy^j dy^b."""
        if self.flat_x:
            return np.zeros((4, 4, 4) + self.batch)
        return jet_tensor(self.nonlinear, "y")


# ----------------------------------------------------------------------
# public operations


def metric(space, x, y, check_signature=True):
    """Metric, its inverse and the F value at (x, y)."""
    t = Tower(space, x, y, order_f=2, order_l1=0)
    ginv = t.ginv_values  # raises DegenerateMetricError below threshold
    if check_signature:
        n_pos = np.sum(np.linalg.eigvalsh(t.g_stack) > 0, axis=-1)
        if np.any(n_pos != sum(1 for s in space.signature if s > 0)):
            raise SignatureMismatchError(
                f"metric eigenvalue signs do not match signature {space.signature}"
            )
    return t.g_values, ginv, t.f_value


def geometry_sample(space, x, y, tower=None):
    """Everything geometric at one (x, y) in a single pass."""
    t = tower if tower is not None else Tower(space, x, y)
    return GeometrySample(
        x=t.x,
        y=t.y,
        g=t.g_values,
        g_inv=t.ginv_values,
        F_value=t.f_value,
        G_spray=t.spray_values,
        N=t.nonlinear_values,
        L_chern=t.chern_values,
        R_curv=t.curvature_values,
        sqrtG=np.abs(t.det_values),
        N_trace_dot=t.n_trace_dot_values,
    )


def divergence(space, v_horizontal, v_vertical, x, y, tower=None):
    """Divergence of the TM field (V^i, Vt^a) at (x, y), exactly.

    div V = (1/S) delta_i(V^i S) - N^a_{i.a} V^i + (1/S) (Vt^a S)_{.a}

    with S the volume factor.  The components come as their densities
    V^i S and Vt^a S: vector series at the points of ``tower``, a Tower at
    (x, y) (by default one with F to order 4, the least that gives
    N^a_{i.a}; 3 for a flat F, where N is zero), trusted to order 1 in
    any layout.
    """
    t = tower if tower is not None else Tower(space, x, y, order_f=4, order_l1=0)
    total = (np.einsum("ii...->...", t.delta_value(v_horizontal))
             - np.einsum("i...,i...->...", t.n_trace_dot_values, v_horizontal.value())
             + np.einsum("aa...->...", jet_tensor(v_vertical, "y")))
    return total / t.sqrt_g.value()


# ----------------------------------------------------------------------
# admissible sampling

DEFAULT_X_BOX = np.array([[-1.0, 1.0]] * 4)
DEFAULT_Y_BOX = np.array([[0.9, 1.1], [-0.15, 0.15], [-0.15, 0.15], [-0.15, 0.15]])


def draw_admissible(space, rng, count, x_box=None, y_box=None, margin=1e-3,
                    max_tries=200):
    """Seeded draws with y timelike and bounded away from the null cone.

    Keeps (x, y) with F^2 >= margin * |y|^2 (Euclidean norm) and all
    expressions finite.  Returns arrays of shape (4, count).
    """
    x_box = DEFAULT_X_BOX if x_box is None else np.asarray(x_box, dtype=float)
    y_box = DEFAULT_Y_BOX if y_box is None else np.asarray(y_box, dtype=float)
    xs = np.empty((4, 0))
    ys = np.empty((4, 0))
    for _ in range(max_tries):
        need = count - xs.shape[1]
        if need <= 0:
            break
        n = max(2 * need, 16)
        xd = rng.uniform(x_box[:, 0], x_box[:, 1], size=(n, 4)).T
        yd = rng.uniform(y_box[:, 0], y_box[:, 1], size=(n, 4)).T
        fvals = expr.eval_values(space.F, np.concatenate([xd, yd], axis=0))
        f2 = fvals * fvals
        ok = np.isfinite(fvals) & (f2 >= margin * np.sum(yd * yd, axis=0))
        xs = np.concatenate([xs, xd[:, ok]], axis=1)
        ys = np.concatenate([ys, yd[:, ok]], axis=1)
    if xs.shape[1] < count:
        raise DomainError(
            f"could not draw {count} admissible samples (got {xs.shape[1]})"
        )
    return xs[:, :count], ys[:, :count]
