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

from . import expr
from .errors import DegenerateMetricError, DomainError, SignatureMismatchError
from .expr import ScalarField
from .series import TSeries

DEGENERACY_THRESHOLD = 1e-12

LORENTZ = (1, -1, -1, -1)


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


def _mat_values(m):
    return np.array([[m[i][j].value() for j in range(4)] for i in range(4)])


def _vec_values(v):
    return np.array([v[i].value() for i in range(4)])


def _batched_inv(g0):
    if g0.ndim == 2:
        return np.linalg.inv(g0)
    moved = np.moveaxis(g0, (0, 1), (-2, -1))
    return np.moveaxis(np.linalg.inv(moved), (-2, -1), (0, 1))


def _batched_det(g0):
    if g0.ndim == 2:
        return np.linalg.det(g0)
    return np.linalg.det(np.moveaxis(g0, (0, 1), (-2, -1)))


class Tower:
    """Lazy cache of the series tower at one (possibly batched) point.

    ``order_f`` is the ambient truncation order for F (4 covers every
    formula in the package), ``order_l1`` the one for the potential
    generator.  Lower orders make dynamics-style value extraction cheap.
    """

    def __init__(self, space, x, y, order_f=4, order_l1=3):
        self.space = space
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.point = np.concatenate([self.x, self.y], axis=0)
        self.batch = self.point.shape[1:]
        self.kf = order_f
        self.kl = order_l1
        # x-independent F means vanishing spray, connection and curvature
        self.flat_x = not any(v < 4 for v in space.F.variables())
        self.cache = {}

    # -- scalars -------------------------------------------------------
    @cached_property
    def f_series(self):
        return expr.eval_series(self.space.F, self.point, self.kf)

    @cached_property
    def e(self):
        """Series of F^2, the quadratic generator of the metric."""
        return self.f_series * self.f_series

    @cached_property
    def f_value(self):
        return self.f_series.value()

    def coord(self, var, order):
        return TSeries.coordinate(var, self.point[var], order, self.batch)

    def zero(self, order):
        return TSeries.constant(0.0, order, self.batch)

    # -- metric --------------------------------------------------------
    @cached_property
    def g(self):
        e = self.e
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            dei = e.deriv(4 + i)
            for j in range(i, 4):
                gij = dei.deriv(4 + j) * 0.5
                rows[i][j] = gij
                rows[j][i] = gij
        return rows

    @cached_property
    def g_values(self):
        return _mat_values(self.g)

    @cached_property
    def det_values(self):
        return _batched_det(self.g_values)

    @cached_property
    def ginv_values(self):
        if np.any(np.abs(self.det_values) < DEGENERACY_THRESHOLD):
            raise DegenerateMetricError(
                f"|det g| = {np.min(np.abs(self.det_values)):.3e} below threshold"
            )
        return _batched_inv(self.g_values)

    @cached_property
    def ginv(self):
        """Series inverse of g via the Neumann sum around the value inverse."""
        g = self.g
        k = g[0][0].order
        g0inv = self.ginv_values
        if k == 0:
            return [
                [TSeries(np.broadcast_to(g0inv[i, j], (1,) + self.batch).copy(), 0)
                 for j in range(4)]
                for i in range(4)
            ]
        # T = -g0inv (g - g0); entries of (g - g0) have zero constant term
        h = [[g[i][j].copy() for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(4):
                h[i][j].coeffs[0] = 0.0
        T = [
            [sum((h[m][j] * (-g0inv[i, m]) for m in range(4)), self.zero(k))
             for j in range(4)]
            for i in range(4)
        ]
        acc = [[T[i][j].copy() for j in range(4)] for i in range(4)]
        for i in range(4):
            acc[i][i] = acc[i][i] + 1.0
        power = T
        for _ in range(2, k + 1):
            power = [
                [sum((power[i][m] * T[m][j] for m in range(4)), self.zero(k))
                 for j in range(4)]
                for i in range(4)
            ]
            for i in range(4):
                for j in range(4):
                    acc[i][j] = acc[i][j] + power[i][j]
        return [
            [sum((acc[i][m] * g0inv[m, j] for m in range(4)), self.zero(k))
             for j in range(4)]
            for i in range(4)
        ]

    @cached_property
    def det_series(self):
        """det g as a series, by complementary 2x2 minors."""
        g = self.g
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        m01 = {pq: g[0][pq[0]] * g[1][pq[1]] - g[0][pq[1]] * g[1][pq[0]] for pq in pairs}
        m23 = {pq: g[2][pq[0]] * g[3][pq[1]] - g[2][pq[1]] * g[3][pq[0]] for pq in pairs}
        return (
            m01[(0, 1)] * m23[(2, 3)]
            - m01[(0, 2)] * m23[(1, 3)]
            + m01[(0, 3)] * m23[(1, 2)]
            + m01[(1, 2)] * m23[(0, 3)]
            - m01[(1, 3)] * m23[(0, 2)]
            + m01[(2, 3)] * m23[(0, 1)]
        )

    @cached_property
    def sqrt_g(self):
        """Volume factor of the lifted block metric: |det g| as a series."""
        return self.det_series * np.sign(self.det_values)

    # -- spray and nonlinear connection ---------------------------------
    @cached_property
    def spray(self):
        """G^i = 1/4 g^{il} ((F^2)_{.l,k} y^k - (F^2)_{,l})."""
        if self.flat_x:
            return [self.zero(self.kf) for _ in range(4)]
        e = self.e
        ginv = self.ginv
        k_out = self.kf - 2
        b = []
        for l in range(4):
            el = e.deriv(4 + l)
            acc = self.zero(k_out)
            for k in range(4):
                acc = acc + el.deriv(k) * self.coord(4 + k, k_out)
            b.append(acc - e.deriv(l))
        return [
            sum((ginv[i][l] * b[l] for l in range(4)), self.zero(k_out)) * 0.25
            for i in range(4)
        ]

    @cached_property
    def spray_values(self):
        return _vec_values(self.spray)

    @cached_property
    def nonlinear(self):
        """N[a][j] = dG^a/dy^j."""
        if self.flat_x:
            return [[self.zero(self.kf) for _ in range(4)] for _ in range(4)]
        return [[self.spray[a].deriv(4 + j) for j in range(4)] for a in range(4)]

    @cached_property
    def nonlinear_values(self):
        return _mat_values(self.nonlinear)

    @cached_property
    def n_trace_dot_values(self):
        """dN^a_j/dy^a, the fibre-divergence trace of the connection."""
        if self.flat_x:
            return np.zeros((4,) + self.batch)
        N = self.nonlinear
        return np.array(
            [sum(N[a][j].deriv(4 + a).value() for a in range(4)) for j in range(4)]
        )

    # -- adapted derivative ---------------------------------------------
    def delta(self, s, i):
        """Series of the adapted derivative d/dx^i - N^a_i d/dy^a."""
        out = s.deriv(i)
        if self.flat_x:
            return out
        N = self.nonlinear
        for a in range(4):
            out = out - N[a][i] * s.deriv(4 + a)
        return out

    def delta_value(self, s, i):
        out = s.deriv(i).value()
        if self.flat_x:
            return out
        N = self.nonlinear_values
        for a in range(4):
            out = out - N[a, i] * s.deriv(4 + a).value()
        return out

    # -- Chern coefficients and curvature --------------------------------
    @cached_property
    def chern(self):
        """L[i][j][k] = 1/2 g^{ih} (dg_hj;k + dg_hk;j - dg_jk;h), symmetric in jk."""
        if self.flat_x:
            z = self.zero(self.kf)
            return [[[z for _ in range(4)] for _ in range(4)] for _ in range(4)]
        g = self.g
        ginv = self.ginv
        dg = [[[self.delta(g[h][j], k) for k in range(4)] for j in range(4)] for h in range(4)]
        k_out = dg[0][0][0].order
        L = [[[None] * 4 for _ in range(4)] for _ in range(4)]
        for j in range(4):
            for k in range(j, 4):
                for i in range(4):
                    acc = self.zero(k_out)
                    for h in range(4):
                        acc = acc + ginv[i][h] * (dg[h][j][k] + dg[h][k][j] - dg[j][k][h])
                    Lijk = acc * 0.5
                    L[i][j][k] = Lijk
                    L[i][k][j] = Lijk
        return L

    @cached_property
    def chern_values(self):
        return np.array(
            [[[self.chern[i][j][k].value() for k in range(4)] for j in range(4)]
             for i in range(4)]
        )

    @cached_property
    def curvature_values(self):
        """R[a, j, k] = delta_k N^a_j - delta_j N^a_k, antisymmetric in (j, k)."""
        if self.flat_x:
            return np.zeros((4, 4, 4) + self.batch)
        N = self.nonlinear
        R = np.zeros((4, 4, 4) + self.batch)
        for a in range(4):
            for j in range(4):
                for k in range(j + 1, 4):
                    r = self.delta_value(N[a][j], k) - self.delta_value(N[a][k], j)
                    R[a, j, k] = r
                    R[a, k, j] = -r
        return R

    # -- Berwald coefficients (vertical-index transport in the identities)
    @cached_property
    def berwald_values(self):
        """B[a, j, b] = dN^a_j/dy^b = d^2 G^a/dy^j dy^b."""
        if self.flat_x:
            return np.zeros((4, 4, 4) + self.batch)
        N = self.nonlinear
        return np.array(
            [[[N[a][j].deriv(4 + b).value() for b in range(4)] for j in range(4)]
             for a in range(4)]
        )


# ----------------------------------------------------------------------
# public operations


def _check_signature(space, g_values):
    moved = g_values if g_values.ndim == 2 else np.moveaxis(g_values, (0, 1), (-2, -1))
    eig = np.linalg.eigvalsh(moved)
    want_pos = sum(1 for s in space.signature if s > 0)
    n_pos = np.sum(eig > 0, axis=-1)
    if np.any(n_pos != want_pos):
        raise SignatureMismatchError(
            f"metric eigenvalue signs do not match signature {space.signature}"
        )


def metric(space, x, y, check_signature=True):
    """Metric, its inverse and the F value at (x, y)."""
    t = Tower(space, x, y, order_f=2, order_l1=0)
    g = t.g_values
    ginv = t.ginv_values  # raises DegenerateMetricError below threshold
    if check_signature:
        _check_signature(space, g)
    return g, ginv, t.f_value


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


def divergence(space, v_horizontal, v_vertical, x, y, step=1e-3):
    """Divergence of the TM field (V^i, Vt^a) at (x, y).

    div V = (1/S) delta_i(V^i S) - N^a_{i.a} V^i + (1/S) (Vt^a S)_{.a}

    with S the volume factor.  Components given as ScalarFields are
    differentiated exactly through the series tower; callables
    ``f(x, y) -> (4, ...) array`` are differentiated by central differences
    with the given step, evaluated once on all 16 stencil points as a
    (4, 16) batch and once at (x, y).
    """
    t = Tower(space, x, y, order_f=4, order_l1=0)
    S = t.sqrt_g
    s0 = S.value()
    ntr = t.n_trace_dot_values
    nvals = t.nonlinear_values

    def is_fields(comp):
        return comp is not None and not callable(comp) and all(
            isinstance(c, ScalarField) for c in comp
        )

    exact_ok = (v_horizontal is None or is_fields(v_horizontal)) and (
        v_vertical is None or is_fields(v_vertical)
    )
    if exact_ok:
        total = 0.0
        if v_horizontal is not None:
            for i in range(4):
                vi = expr.eval_series(v_horizontal[i], t.point, 1)
                total += t.delta_value(vi * S.truncate(1), i) / s0
                total -= ntr[i] * vi.value()
        if v_vertical is not None:
            for a in range(4):
                va = expr.eval_series(v_vertical[a], t.point, 1)
                total += (va * S.truncate(1)).deriv(4 + a).value() / s0
        return float(total)

    # callable path: central differences of the component*volume products;
    # stencil column d steps +step along chart axis d, column 8 + d steps -step
    def as_callable(comp):
        if comp is None:
            return lambda xs, ys: np.zeros((4,) + xs.shape[1:])
        if is_fields(comp):
            return lambda xs, ys: np.array(
                [expr.eval_value(c, np.concatenate([xs, ys])) for c in comp]
            )
        return comp

    fh = as_callable(v_horizontal)
    fv = as_callable(v_vertical)

    axes = np.arange(8)
    p = np.repeat(t.point[:, None], 16, axis=1)
    p[axes, axes] += step
    p[axes, 8 + axes] -= step
    xs, ys = p[:4], p[4:]
    s_val = np.abs(Tower(space, xs, ys, order_f=2, order_l1=0).det_values)
    hs = np.asarray(fh(xs, ys)) * s_val
    vs = np.asarray(fv(xs, ys)) * s_val
    dh = ((hs[:, :8] - hs[:, 8:]) / (2 * step)).T  # dh[d, i] = d(V^i S)/dz^d
    dv = ((vs[:, :8] - vs[:, 8:]) / (2 * step)).T

    total = 0.0
    h_vals = fh(t.x, t.y)
    for i in range(4):
        delta_i = dh[i, i] - sum(nvals[a, i] * dh[4 + a, i] for a in range(4))
        total += delta_i / s0
        total -= ntr[i] * h_vals[i]
    for a in range(4):
        total += dv[4 + a, a] / s0
    return float(total)


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
