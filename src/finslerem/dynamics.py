"""Charged-particle worldlines under the direction-dependent Lorentz force.

The equation of motion is implicit in the covariant acceleration because
the mixed field block multiplies it:

    a^i = (q/c) F^i_h y^h + (q/c) Ft^i_a a^a,      a = delta y / dt,

so each force evaluation solves the 4x4 system (I - (q/c) Ft) a = rhs
exactly.  The coordinate acceleration is then dy/dt = a - 2 G.

Per accepted step the integrator records the generating-function value
and the two orthogonality monitors g(F, y) and g(Ft-correction, y),
plus the residual of the 2-form writing of the equations of motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import (
    DegenerateMetricError,
    DomainError,
    SingularForceMatrixError,
    StepRejectionLimitError,
)
from .series import jet_tensor

__all__ = [
    "TrajectoryState",
    "Trajectory",
    "ForceEvaluator",
    "integrate",
    "MAX_RK4_STEPS",
]

#: most fixed steps an rk4 run may take (the fixture scenes take at most 1e4)
MAX_RK4_STEPS = 10**6


@dataclass
class TrajectoryState:
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
        return max(abs(getattr(s, name)) for s in self.states)

    def column(self, name):
        return np.array([getattr(s, name) for s in self.states])


class ForceEvaluator:
    """Lean per-point force assembly straight from expression jets.

    Avoids the full series tower in the hot loop; the geometry tower
    cross-validates it in the test suite.
    """

    def __init__(self, space):
        self.space = space
        self.qc = space.qc()
        self.has_em = not space.L1.is_zero()
        self.flat_x = not any(v < 4 for v in space.F.variables())

    def __call__(self, x, y, monitors=False):
        pt = np.concatenate([x, y])
        order = 2 if (self.flat_x or not self.has_em) else 3
        fs = expr.eval_series(self.space.F, pt, order, self.space.layout)
        e = fs * fs
        g = 0.5 * jet_tensor(e, "yy")
        det = np.linalg.det(g)
        if abs(det) < 1e-12:
            raise DegenerateMetricError(f"|det g| = {abs(det):.3e}")
        ginv = np.linalg.inv(g)

        if self.flat_x:
            G = np.zeros(4)
            N = np.zeros((4, 4))
        else:
            e_x = jet_tensor(e, "x")
            e_yx = jet_tensor(e, "yx")
            b = e_yx @ y - e_x
            G = 0.25 * (ginv @ b)
            if self.has_em:
                e_yyy = jet_tensor(e, "yyy")
                e_yyx = jet_tensor(e, "yyx")
                db = np.einsum("ljk,k->lj", e_yyx, y) + e_yx - e_yx.T
                dginv = -np.einsum("ia,abj,bl->ilj", ginv, 0.5 * e_yyy, ginv)
                N = 0.25 * (np.einsum("ilj,l->ij", dginv, b) + ginv @ db)
            else:
                N = None  # not needed: vacuum motion only uses N y^j = 2 G

        if self.has_em:
            ls = expr.eval_series(self.space.L1, pt, 2, self.space.layout)
            ay = jet_tensor(ls, "yy")           # ay[a, j] = dA_j/dy^a, symmetric
            ax = jet_tensor(ls, "yx")           # ax[j, i] = dA_j/dx^i
            if self.flat_x:
                dA = ax.T
            else:
                dA = ax.T - np.einsum("ai,aj->ij", N, ay)  # delta_i A_j
            F = dA - dA.T                        # F[i, j] = F_ij
            Ft = -ay                             # Ft[i, a] = -A_{i.a}
            F_mix_h = ginv @ F
            F_mix_v = ginv @ Ft
            M = np.eye(4) - self.qc * F_mix_v
            det_m = np.linalg.det(M)
            if abs(det_m) < 1e-12:
                raise SingularForceMatrixError(f"|det(I - (q/c)Ft)| = {abs(det_m):.3e}")
            a = np.linalg.solve(M, self.qc * (F_mix_h @ y))
        else:
            F = Ft = np.zeros((4, 4))
            F_mix_h = F_mix_v = np.zeros((4, 4))
            a = np.zeros(4)

        dydt = a - 2.0 * G
        if not monitors:
            return a, dydt
        force_h = F_mix_h @ y
        force_v = F_mix_v @ a
        qc = self.qc
        res = qc * (F @ y) + (qc * Ft - g) @ a
        return a, dydt, {
            "F_value": float(fs.value()),
            "ortho_F": float(force_h @ g @ y),
            "ortho_Ftilde": float(force_v @ g @ y),
            "eq_motion_residual": float(np.max(np.abs(res))),
        }


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
    """
    for name, v in (("dt", dt), ("t_end", t_end)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    if method == "rk4" and not t_end / dt <= MAX_RK4_STEPS:
        raise ValueError(
            f"rk4 t_end/dt = {t_end / dt:.3g} exceeds {MAX_RK4_STEPS} steps"
        )
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    force = ForceEvaluator(space)

    def f(z):
        a, dydt = force(z[:4], z[4:])
        return np.concatenate([z[4:], dydt])

    states = []
    t = 0.0
    try:
        a0, _, mon = force(x, y, monitors=True)
    except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
        _wrap_err(e, t)
    _record(states, t, x, y, a0, mon)

    if method == "rk4":
        nsteps = max(1, int(round(t_end / dt)))
        h = t_end / nsteps
        z = np.concatenate([x, y])
        for n in range(nsteps):
            try:
                k1 = f(z)
                k2 = f(z + 0.5 * h * k1)
                k3 = f(z + 0.5 * h * k2)
                k4 = f(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t = (n + 1) * h
                a, _, mon = force(z[:4], z[4:], monitors=True)
            except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
                _wrap_err(e, t)
            _record(states, t, z[:4], z[4:], a, mon)
        return Trajectory(states=states, method="rk4-fixed", dt=h)

    if method != "rk45":
        raise ValueError(f"unknown method {method!r}")

    # Dormand-Prince 5(4) coefficients
    C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
    A = [
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
    B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
    B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

    z = np.concatenate([x, y])
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
            k = [f(z)]
            for s in range(1, 7):
                zs = z + h * sum(A[s][m] * k[m] for m in range(s))
                k.append(f(zs))
            z5 = z + h * sum(B5[m] * k[m] for m in range(7))
            z4 = z + h * sum(B4[m] * k[m] for m in range(7))
        except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
            _wrap_err(e, t)
        scale = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z5))
        err = np.sqrt(np.mean(((z5 - z4) / scale) ** 2))
        if err <= 1.0:
            t += h
            z = z5
            try:
                a, _, mon = force(z[:4], z[4:], monitors=True)
            except (DomainError, DegenerateMetricError, SingularForceMatrixError) as e:
                _wrap_err(e, t)
            _record(states, t, z[:4], z[4:], a, mon)
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
