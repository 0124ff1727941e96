"""Charged-particle worldlines under the direction-dependent Lorentz force.

The equation of motion is implicit in the covariant acceleration because
the mixed field block multiplies it:

    a^i = (q/c) F^i_h y^h + (q/c) Ft^i_a a^a,      a = delta y / dt,

so each force evaluation solves the 4x4 system (I - (q/c) Ft) a = rhs
exactly.  The coordinate acceleration is then dy/dt = a - 2 G.

Per accepted step the integrator records the generating-function value
and the two orthogonality monitors g(F, y) and g(Ft-correction, y),
plus the residual of the 2-form writing of the equations of motion,
unless it is asked for none.
The force call that records them also gives the next step its first
stage, so rk4 makes 4 force calls per step and rk45 6 per attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateMetricError,
    DomainError,
    SingularForceMatrixError,
    StepRejectionLimitError,
)
from . import series
from .geometry import LAPACK_ERRSTATE, check_det
from .scene import MAX_RK4_STEPS
from .series import TSeries

__all__ = [
    "TrajectoryState",
    "Trajectory",
    "ForceEvaluator",
    "integrate",
    "MAX_RK4_STEPS",
]

_EYE = np.eye(4)

#: the jets of F^2 that the force reads when F uses x: the spray's three,
#: then the connection's two from order 3
_CURVED_JETS = ("yy", "yx", "x", "yyx", "yyy")


@dataclass
class TrajectoryState:
    """One recorded step; an ensemble's arrays have a trailing member axis."""

    t: float
    x: np.ndarray
    y: np.ndarray
    delta_y_dt: np.ndarray
    F_value: float
    ortho_F: float
    ortho_Ftilde: float
    eq_motion_residual: float


@dataclass
class Trajectory:
    states: list = field(default_factory=list)
    method: str = "rk4-fixed"
    dt: float | None = None
    abs_tol: float | None = None
    rel_tol: float | None = None

    @property
    def endpoint(self):
        s = self.states[-1]
        return s.x, s.y

    def max_monitor(self, name):
        return max(float(np.max(np.abs(getattr(s, name)))) for s in self.states)

    def column(self, name):
        return np.array([getattr(s, name) for s in self.states])


class ForceEvaluator:
    """The Lorentz solve of one scene, by its compiled force (:func:`_compiled`).

    Takes one point, x and y of shape (4,), or the member points of an
    ensemble, shape (4, B).  The members run as (B, 4, 4) stacks with
    batched det/inv/solve, and no step mixes members, so a member's
    column is bit for bit its lone point's call.  A degenerate metric or
    singular force matrix raises for the first failing member, naming it
    when there is more than one, and its ``columns`` are every failing
    member.  The monitors are computed only when asked for.
    """

    def __init__(self, space):
        self.space = space
        self.qc = space.qc()
        self._by_rank = {}  # the compiled force of each batch rank

    def __call__(self, x, y, monitors=False):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        force = self._by_rank.get(x.ndim)
        if force is None:
            force = self._by_rank[x.ndim] = _compiled(self.space, x.ndim - 1)
        a, dydt, solved = force(self.space.L1, self.qc, x, y)
        if not monitors:
            return a, dydt
        mon = _monitors(self.qc, *solved)
        if x.ndim == 1:
            mon = {k: float(v) for k, v in mon.items()}
        return a, dydt, mon


#: the compiled force of each (program tapes, order, batch rank, layout)
#: lately, by the ids of its tapes; an entry holds its tapes
_forces = {}


def _compiled(space, ndim):
    """The :class:`_Force` of ``space`` at points of batch rank ``ndim``,
    compiled on first use and shared by every space of the same programs.

    F and L1 run to order 2, F to 3 when the field reads the connection
    (F uses x); at one order they run as one program (``space.program``).
    """
    order = 3 if (space.has_field and not space.flat_x) else 2
    if not space.has_field:
        tapes = (space.F._tape,)
    elif order == 2:
        tapes = (space.program,)
    else:
        tapes = (space.F._tape, space.L1._tape)
    key = tuple(map(id, tapes)) + (order, ndim, space.layout)
    force = _forces.get(key)
    if force is None:
        force = series._remember(_forces, key, _Force(tapes, order, ndim, space))
    return force


class _Force:
    """The force of the generators that ``tapes`` compute, at points of
    one batch rank: their built programs, then the jets of F^2 and L1,
    det g, inv g, the field blocks, det M and the solve, in the arithmetic
    of the series tower, bit for bit.  Every array is member-first,
    (..., 4, ...), with batched det/inv/solve, and the linear algebra from
    inv g to the solve runs under one ``np.errstate``.

    ``tapes`` is F's program (its first root F) and, with a field, L1's
    (the ``parts`` of L1) or one program of both.  A call returns a,
    dy/dt and the values the monitors read (:func:`_monitors`).
    """

    def __init__(self, tapes, order, ndim, space):
        self.tapes = tapes
        self.order = order
        self.layout = space.layout
        self.flat = space.flat_x
        self.has_field = space.has_field
        self.programs = [tape.built(k, ndim, self.layout)
                         for tape, k in zip(tapes, (order, 2))]
        # the connection reads two more jets of F^2, from order 3
        self.patterns = ("yy",) if self.flat else _CURVED_JETS[:5 if order > 2 else 3]
        self._plans = {}  # the jet plans of F^2 and L1 by batch shape

    def _jet_plans(self, batch):
        plans = self._plans.get(batch)
        if plans is None:
            plans = series._remember(self._plans, batch, (
                series.jets_plan(self.layout, self.patterns, batch),
                series.jets_plan(self.layout, ("yy", "yx"), batch)))
        return plans

    def __call__(self, L1, qc, x, y):
        point = np.concatenate([x, y])
        batch = point.shape[1:]
        e_plan, l1_plan = self._jet_plans(batch)
        f, *parts = self.tapes[0].arrays(point, self.programs[0])
        e = series._product(f, f, self.order, len(self.layout))
        e_jets = series._read_jets(e, e_plan)
        g = 0.5 * e_jets[0]
        check_det(_umath_linalg.det(g, signature="d->d"), "det g", DegenerateMetricError)
        yv = y.T.copy()[..., None] if batch else y[:, None]
        spray = N = None
        if self.has_field:
            if not parts:
                parts = self.tapes[1].arrays(point, self.programs[1])
            parts = [TSeries(c, 2, self.layout) for c in parts]
            ay, dA = series._read_jets(L1.combine(parts, batch).coeffs, l1_plan)
            dA = dA.mT  # dA[i, j] = dA_j/dx^i, ay[a, j] = A_{j.a}
        with np.errstate(**LAPACK_ERRSTATE):
            if self.has_field or not self.flat:
                ginv = _umath_linalg.inv(g, signature="d->d")
            if not self.flat:
                spray, N = _connection(e_jets, ginv, yv, self.has_field)
            if self.has_field:
                if N is not None:
                    dA = dA - np.einsum("...ai,...aj->...ij", N, ay)  # delta_i A_j
                F, Ft = dA - dA.mT, -ay
                F_mix_h = ginv @ F
                F_mix_v = ginv @ Ft
                M = _EYE - qc * F_mix_v
                det = _umath_linalg.det(M, signature="d->d")
                check_det(det, "det(I - (q/c)Ft)", SingularForceMatrixError)
                force_h = F_mix_h @ yv
                a = _umath_linalg.solve(M, qc * force_h, signature="dd->d")
        if not self.has_field:
            F = Ft = F_mix_v = force_h = None
            a = np.zeros(yv.shape)
        # a flat F has no spray, and a - 2 * 0 is a, bit for bit
        dydt = a.copy() if spray is None else a - 2.0 * spray[..., None]
        return a[..., 0].T, dydt[..., 0].T, (f[0], g, yv, a, F, Ft, F_mix_v, force_h)


def _connection(e_jets, ginv, yv, with_n):
    """The spray G^i = 1/4 g^{il} b_l, b_l = (F^2)_{.l,k} y^k - (F^2)_{,l},
    and with ``with_n`` the connection N^a_j = dG^a/dy^j, with
    d(g^{-1})/dy = -g^{-1} (dg/dy) g^{-1}, from the jets of F^2."""
    e_yx, e_x = e_jets[1:3]
    b = e_yx @ yv - e_x[..., None]
    spray = (0.25 * (ginv @ b))[..., 0]
    if not with_n:
        return spray, None
    e_yyx, e_yyy = e_jets[3:]
    db = np.einsum("...ljk,...k->...lj", e_yyx, yv[..., 0]) + e_yx - e_yx.mT
    dginv = -np.einsum("...ia,...abj,...bl->...ilj", ginv, 0.5 * e_yyy, ginv)
    return spray, 0.25 * (np.einsum("...ilj,...l->...ij", dginv, b[..., 0]) + ginv @ db)


def _monitors(qc, f_value, g, yv, a, F, Ft, F_mix_v, force_h):
    """The monitors of one force call from the values its solve left; a
    call without a field reads zero field blocks."""
    if F is None:
        F = Ft = F_mix_h = F_mix_v = np.zeros(g.shape)
        force_h = F_mix_h @ yv
    res = qc * (F @ yv) + (qc * Ft - g) @ a
    # one einsum rounds a (4, 4) and a (B, 4, 4) operand alike; a matmul
    # chain does not
    ortho = "...i,...ij,...j->..."
    return {
        "F_value": f_value,
        "ortho_F": np.einsum(ortho, force_h[..., 0], g, yv[..., 0]),
        "ortho_Ftilde": np.einsum(ortho, (F_mix_v @ a)[..., 0], g, yv[..., 0]),
        "eq_motion_residual": np.maximum.reduce(np.abs(res), axis=(-2, -1)),
    }


def _record(states, t, x, y, a, mon):
    mon = mon or dict.fromkeys(("F_value", "ortho_F", "ortho_Ftilde", "eq_motion_residual"))
    states.append(TrajectoryState(t=t, x=x.copy(), y=y.copy(), delta_y_dt=a.copy(), **mon))


def integrate(space, x0, y0, t_end, method="rk4", dt=1e-3,
              abs_tol=1e-9, rel_tol=1e-8, max_rejections=30, monitors=True):
    """Integrate the worldline from (x0, y0) to t_end.

    method "rk4": classic fixed-step with step dt; "rk45": Dormand-Prince
    embedded pair at the given tolerances, with dt seeding the first
    step.  Monitors are recorded at every accepted step (None for each
    without ``monitors``, and then none is computed) and integration
    aborts with the failing t on per-sample errors.  dt and t_end must be
    finite and > 0, and either method takes at most MAX_RK4_STEPS steps:
    rk4 refuses a longer run at once, and rk45 raises
    StepRejectionLimitError when it has accepted that many short of
    t_end.  An rk45 step below 16 units in the last place of t no longer
    advances time reliably and raises StepRejectionLimitError too.

    rk4 also integrates an ensemble: x0 and y0 of shape (4, B) run B
    worldlines in lockstep through one batched force, each member as it
    would run alone.  rk45 takes one worldline, because a step size
    shared by several would change every member's output.
    """
    for name, v in (("dt", dt), ("t_end", t_end)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    if method == "rk4" and not t_end / dt <= MAX_RK4_STEPS:
        raise ValueError(
            f"rk4 t_end/dt = {t_end / dt:.3g} exceeds {MAX_RK4_STEPS} steps"
        )
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    if method == "rk45" and x.ndim > 1 and x.shape[1] > 1:
        raise ValueError("rk45 integrates one worldline at a time")
    evaluator = ForceEvaluator(space)

    def force(z, monitors=False):
        """The force at state z; a per-point error names the time t."""
        try:
            return evaluator(z[:4], z[4:], monitors=monitors)
        except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
            raise type(e)(f"at t={t:.6g}: {e}", columns=e.columns) from e

    def f(z):
        a, dydt = force(z)
        return np.concatenate([z[4:], dydt])

    def recorded(z):
        """(a, dy/dt, monitors or None) of a state the run records."""
        out = force(z, monitors)
        return out if monitors else out + (None,)

    states = []
    t = 0.0
    z = np.concatenate([x, y])
    a, dydt, mon = recorded(z)
    _record(states, t, x, y, a, mon)
    k1 = np.concatenate([y, dydt])  # f(z), from the call that took the monitors

    if method == "rk4":
        nsteps = max(1, int(round(t_end / dt)))
        h = t_end / nsteps
        for n in range(nsteps):
            k2 = f(z + 0.5 * h * k1)
            k3 = f(z + 0.5 * h * k2)
            k4 = f(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = (n + 1) * h
            a, dydt, mon = recorded(z)
            _record(states, t, z[:4], z[4:], a, mon)
            k1 = np.concatenate([z[4:], dydt])
        return Trajectory(states=states, method="rk4-fixed", dt=h)

    if method != "rk45":
        raise ValueError(f"unknown method {method!r}")

    # Dormand-Prince 5(4) coefficients.  The last stage point is the
    # 5th-order solution (A[6] holds its weights, and its weight of k7 is
    # 0), so stage 7 is the force at the new point: first same as last.
    A = [
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
    B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

    h = min(dt, t_end)
    rejections = 0
    while t < t_end - 1e-14:
        if len(states) > MAX_RK4_STEPS:
            raise StepRejectionLimitError(
                f"rk45 stopped at t={t:.6g} after {MAX_RK4_STEPS} accepted steps"
            )
        h_min = 16 * np.spacing(t)
        if h < h_min:
            raise StepRejectionLimitError(
                f"step {h:.3g} below the minimum {h_min:.3g} at t={t:.6g}"
            )
        h = min(h, t_end - t)
        k = [k1]
        for s in range(1, 6):
            zs = z + h * sum(A[s][m] * k[m] for m in range(s))
            k.append(f(zs))
        z5 = z + h * sum(A[6][m] * k[m] for m in range(6))
        a5, dydt5, mon5 = recorded(z5)
        k.append(np.concatenate([z5[4:], dydt5]))
        z4 = z + h * sum(B4[m] * k[m] for m in range(7))
        scale = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z5))
        err = np.sqrt(np.mean(((z5 - z4) / scale) ** 2))
        if err <= 1.0:
            t += h
            z = z5
            k1 = k[6]
            _record(states, t, z[:4], z[4:], a5, mon5)
            rejections = 0
        else:
            rejections += 1
            if rejections > max_rejections:
                raise StepRejectionLimitError(
                    f"{rejections} consecutive rejections at t={t:.6g}"
                )
        factor = 0.9 * (err + 1e-16) ** (-0.2)
        h *= min(5.0, max(0.2, factor))
    return Trajectory(states=states, method="rk45-adaptive",
                      abs_tol=abs_tol, rel_tol=rel_tol)
