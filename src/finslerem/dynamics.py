"""Charged-particle worldlines under the direction-dependent Lorentz force.

The equation of motion is implicit in the covariant acceleration because
the mixed field block multiplies it:

    a^i = (q/c) F^i_h y^h + (q/c) Ft^i_a a^a,      a = delta y / dt,

so each force evaluation solves the 4x4 system (I - (q/c) Ft) a = rhs
exactly.  The coordinate acceleration is then dy/dt = a - 2 G.

Per accepted step the integrator records the generating-function value
and the two orthogonality monitors g(F, y) and g(Ft-correction, y),
plus the residual of the 2-form writing of the equations of motion.
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
from .geometry import Tower, check_det, lapack

__all__ = [
    "TrajectoryState",
    "Trajectory",
    "ForceEvaluator",
    "integrate",
    "MAX_RK4_STEPS",
]

#: most fixed steps an rk4 run may take (the fixture scenes take at most 1e4)
MAX_RK4_STEPS = 10**6

_EYE = np.eye(4)


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
    """The Lorentz solve on the value stages of one low-order Tower.

    Takes one point, x and y of shape (4,), or the member points of an
    ensemble, shape (4, B).  The members run as the Tower's (B, 4, 4)
    stacks with batched det/inv/solve, and no step mixes members, so a
    member's column is bit for bit its lone point's call.  A degenerate
    metric or singular force matrix raises for the first failing member
    and names its index when there is more than one.

    A flat F is expanded to order 2 like L1, so the Tower runs the two
    generators as one program.
    """

    def __init__(self, space):
        self.space = space
        self.qc = space.qc()
        self.has_em = space.has_field
        # the connection, which needs F to order 3, enters only through the field
        self.order_f = 3 if (self.has_em and not space.flat_x) else 2

    def __call__(self, x, y, monitors=False):
        t = Tower(self.space, x, y, order_f=self.order_f, order_l1=2)
        # every array below is (..., 4, ...), with the member axis first
        # for an ensemble
        g, ginv, yv = t.g_stack, t.ginv_stack, t.y_stack
        qc = self.qc
        if self.has_em:
            F, Ft = t.field_stack
            F_mix_h = ginv @ F
            F_mix_v = ginv @ Ft
            M = _EYE - qc * F_mix_v
            det = _umath_linalg.det(M, signature="d->d")
            check_det(det, "det(I - (q/c)Ft)", SingularForceMatrixError)
            force_h = F_mix_h @ yv
            a = lapack(_umath_linalg.solve, M, qc * force_h)
        else:
            F = Ft = F_mix_h = F_mix_v = np.zeros(g.shape)
            force_h = F_mix_h @ yv
            a = np.zeros(yv.shape)

        # a flat F has no spray, and a - 2 * 0 is a, bit for bit
        dydt = a.copy() if self.space.flat_x else a - 2.0 * t.spray_stack[..., None]
        a_out, dydt_out = a[..., 0].T, dydt[..., 0].T
        if not monitors:
            return a_out, dydt_out
        res = qc * (F @ yv) + (qc * Ft - g) @ a
        # one einsum rounds a (4, 4) and a (B, 4, 4) operand alike; a matmul
        # chain does not
        ortho = "...i,...ij,...j->..."
        mon = {
            "F_value": t.f_value,
            "ortho_F": np.einsum(ortho, force_h[..., 0], g, yv[..., 0]),
            "ortho_Ftilde": np.einsum(ortho, (F_mix_v @ a)[..., 0], g, yv[..., 0]),
            "eq_motion_residual": np.maximum.reduce(np.abs(res), axis=(-2, -1)),
        }
        if np.ndim(x) == 1:
            mon = {k: float(v) for k, v in mon.items()}
        return a_out, dydt_out, mon


def _record(states, t, x, y, a, mon):
    states.append(
        TrajectoryState(
            t=t, x=x.copy(), y=y.copy(), delta_y_dt=a.copy(),
            F_value=mon["F_value"], ortho_F=mon["ortho_F"],
            ortho_Ftilde=mon["ortho_Ftilde"],
            eq_motion_residual=mon["eq_motion_residual"],
        )
    )


def _wrap_err(e, t):
    raise type(e)(f"at t={t:.6g}: {e}") from e


def integrate(space, x0, y0, t_end, method="rk4", dt=1e-3,
              abs_tol=1e-9, rel_tol=1e-8, max_rejections=30):
    """Integrate the worldline from (x0, y0) to t_end.

    method "rk4": classic fixed-step with step dt; "rk45": Dormand-Prince
    embedded pair at the given tolerances, with dt seeding the first
    step.  Monitors are recorded at every accepted step and integration
    aborts with the failing t on per-sample errors.  dt and t_end must be
    finite and > 0, and rk4 takes at most MAX_RK4_STEPS steps.  An rk45
    step below 16 units in the last place of t no longer advances time
    reliably and raises StepRejectionLimitError.

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
    force = ForceEvaluator(space)

    def f(z):
        a, dydt = force(z[:4], z[4:])
        return np.concatenate([z[4:], dydt])

    states = []
    t = 0.0
    try:
        a, dydt, mon = force(x, y, monitors=True)
    except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
        _wrap_err(e, t)
    _record(states, t, x, y, a, mon)
    z = np.concatenate([x, y])
    k1 = np.concatenate([y, dydt])  # f(z), from the call that took the monitors

    if method == "rk4":
        nsteps = max(1, int(round(t_end / dt)))
        h = t_end / nsteps
        for n in range(nsteps):
            try:
                k2 = f(z + 0.5 * h * k1)
                k3 = f(z + 0.5 * h * k2)
                k4 = f(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t = (n + 1) * h
                a, dydt, mon = force(z[:4], z[4:], monitors=True)
            except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
                _wrap_err(e, t)
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
        h_min = 16 * np.spacing(t)
        if h < h_min:
            raise StepRejectionLimitError(
                f"step {h:.3g} below the minimum {h_min:.3g} at t={t:.6g}"
            )
        h = min(h, t_end - t)
        try:
            k = [k1]
            for s in range(1, 6):
                zs = z + h * sum(A[s][m] * k[m] for m in range(s))
                k.append(f(zs))
            z5 = z + h * sum(A[6][m] * k[m] for m in range(6))
            a5, dydt5, mon5 = force(z5[:4], z5[4:], monitors=True)
            k.append(np.concatenate([z5[4:], dydt5]))
            z4 = z + h * sum(B4[m] * k[m] for m in range(7))
        except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
            _wrap_err(e, t)
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
