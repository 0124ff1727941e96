"""Sourceless identity residuals and the generalized currents.

The field tensor built from a potential is exact, so the three cyclic
residual sets below must vanish to rounding; evaluating them is the
strongest internal consistency check of the whole tower.  The transport
terms use the Chern coefficients on horizontal indices and the fibre
derivative of the nonlinear connection on vertical ones; the latter is
forced by writing out the closedness of the field 2-form in the adapted
frame (for a quadratic F^2 both transports collapse to the Christoffel
coefficients, so the distinction only matters on genuinely anisotropic
metrics).

The horizontal current is the variational one; the coupling constant
divides the current, while the anisotropy term zeta is reported raw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import em_series
from .geometry import Tower, divergence


@dataclass
class MaxwellResiduals:
    """Residual arrays of the three cyclic identity sets at one (x, y)."""

    hhh: np.ndarray  # [i, j, k]
    hhv: np.ndarray  # [a, j, k]
    hvv: np.ndarray  # [k, a, b]
    max_abs: float


@dataclass
class CurrentSample:
    x: np.ndarray
    y: np.ndarray
    J_h: np.ndarray       # horizontal current J^i
    J_v: np.ndarray       # vertical current Jt^a
    zeta: np.ndarray      # anisotropy term (1/S)(Ft^{ia} S)_{.a}, coupling-free
    continuity: float     # div J, None when not requested


def _fibre_tower(space, x, y, order_f=4, order_l1=3):
    """Tower at (x, u) with u = y/H; identity when H == 1."""
    y = np.asarray(y, dtype=float)
    if space.H != 1.0:
        y = y / space.H
    return Tower(space, x, y, order_f=order_f, order_l1=order_l1)


def homogeneous_residuals(space, x, y, tower=None):
    """Cyclic residuals of the closed-field identities at (x, y)."""
    t = tower if tower is not None else _fibre_tower(space, x, y)
    em = em_series(t)
    F_hh, F_hv = em["F_hh"], em["F_hv"]

    Fv = np.array([[F_hh[i][j].value() for j in range(4)] for i in range(4)])
    Ftv = np.array([[F_hv[i][a].value() for a in range(4)] for i in range(4)])
    DF = np.array(
        [[[t.delta_value(F_hh[i][j], k) for k in range(4)] for j in range(4)]
         for i in range(4)]
    )  # DF[i, j, k] = delta_k F_ij
    DFt = np.array(
        [[[t.delta_value(F_hv[i][a], k) for k in range(4)] for a in range(4)]
         for i in range(4)]
    )  # DFt[i, a, k] = delta_k Ft_ia
    Fdot = np.array(
        [[[F_hh[i][j].deriv(4 + a).value() for a in range(4)] for j in range(4)]
         for i in range(4)]
    )  # Fdot[i, j, a] = F_{ij.a}
    Ftdot = np.array(
        [[[F_hv[i][a].deriv(4 + b).value() for b in range(4)] for a in range(4)]
         for i in range(4)]
    )  # Ftdot[i, a, b] = Ft_{ia.b}
    L = t.chern_values
    R = t.curvature_values
    B = t.berwald_values  # B[m, j, a] = dN^m_j/dy^a, symmetric in (j, a)

    def F_cov(i, j, k):
        # F_{ij|k} = delta_k F_ij - L^m_ik F_mj - L^m_jk F_im
        out = DF[i, j, k]
        for m in range(4):
            out = out - L[m, i, k] * Fv[m, j] - L[m, j, k] * Fv[i, m]
        return out

    def Ft_vh_cov(a, j, k):
        # Ft_{aj|k}, vertical index transported by the Berwald coefficients
        out = -DFt[j, a, k]
        for m in range(4):
            out = out + B[m, a, k] * Ftv[j, m] + L[m, j, k] * Ftv[m, a]
        return out

    def Ft_hv_cov(k, a, j):
        # Ft_{ka|j}
        out = DFt[k, a, j]
        for m in range(4):
            out = out - L[m, k, j] * Ftv[m, a] - B[m, a, j] * Ftv[k, m]
        return out

    batch = t.batch
    hhh = np.zeros((4, 4, 4) + batch)
    hhv = np.zeros((4, 4, 4) + batch)
    hvv = np.zeros((4, 4, 4) + batch)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                r = F_cov(i, j, k) + F_cov(k, i, j) + F_cov(j, k, i)
                for b in range(4):
                    r = r + R[b, j, k] * Ftv[i, b] + R[b, k, i] * Ftv[j, b] \
                        + R[b, i, j] * Ftv[k, b]
                hhh[i, j, k] = r
    for a in range(4):
        for j in range(4):
            for k in range(4):
                hhv[a, j, k] = Ft_vh_cov(a, j, k) + Ft_hv_cov(k, a, j) + Fdot[j, k, a]
    for k in range(4):
        for a in range(4):
            for b in range(4):
                hvv[k, a, b] = Ftdot[k, a, b] - Ftdot[k, b, a]
    max_abs = float(max(np.max(np.abs(hhh)), np.max(np.abs(hhv)), np.max(np.abs(hvv))))
    return MaxwellResiduals(hhh=hhh, hhv=hhv, hvv=hvv, max_abs=max_abs)


def horizontal_current(space, x, y, tower=None):
    """J^i from the generalized inhomogeneous equation, and the raw zeta term.

    coupling * J^i = (1/S){(F^{ij}S)_{;j} - F^{ij} N^a_{j.a} S} + zeta^i,
    zeta^i = (1/S)(Ft^{ia} S)_{.a}.
    """
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else _fibre_tower(space, x, y)
    em = em_series(t)
    S = t.sqrt_g.truncate(1)
    s0 = S.value()
    ntr = t.n_trace_dot_values
    up_hh, up_hv = em["up_hh"], em["up_hv"]

    zeta = np.zeros((4,) + t.batch)
    classical = np.zeros((4,) + t.batch)
    for i in range(4):
        for a in range(4):
            zeta[i] += (up_hv[i][a] * S).deriv(4 + a).value()
        zeta[i] /= s0
        for j in range(4):
            classical[i] += t.delta_value(up_hh[i][j] * S, j) / s0
            classical[i] -= up_hh[i][j].value() * ntr[j]
    J_h = (classical + zeta) / space.coupling
    return J_h, zeta


def vertical_current(space, x, y, tower=None):
    """Jt^a = (1/(coupling S)) delta_i(Ft^{ai} S), with Ft^{ai} = -Ft^{ia}."""
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else _fibre_tower(space, x, y)
    em = em_series(t)
    S = t.sqrt_g.truncate(1)
    s0 = S.value()
    up_hv = em["up_hv"]
    J_v = np.zeros((4,) + t.batch)
    for a in range(4):
        for i in range(4):
            J_v[a] -= t.delta_value(up_hv[i][a] * S, i)
        J_v[a] /= s0 * space.coupling
    return J_v


def continuity_residual(space, x, y, step=1e-3):
    """div J for the full current (J^i, Jt^a); finite differences outermost.

    The truncation of the outer central difference is the documented
    error floor of this residual.  A non-unit fibre constant is folded
    into the sample point once, so the divergence and the nested current
    evaluations see the same chart.

    With the adapted-frame component form of the vertical current used
    here, the residual vanishes (to fd truncation) whenever the
    connection curvature or the mixed field block vanishes, which covers
    flat anisotropic and curved isotropic scenes; on scenes that are
    both curved and anisotropic it reports the genuine defect of that
    component form.
    """
    y = np.asarray(y, dtype=float)
    if space.H != 1.0:
        from dataclasses import replace

        y = y / space.H
        space = replace(space, H=1.0)

    def v_h(xs, ys):
        return horizontal_current(space, xs, ys)[0]

    def v_v(xs, ys):
        return vertical_current(space, xs, ys)

    return divergence(space, v_h, v_v, x, y, step=step)


def current_sample(space, x, y, with_continuity=False, step=1e-3):
    """Currents (and optionally div J) at one point, from one shared Tower."""
    t = _fibre_tower(space, x, y)
    J_h, zeta = horizontal_current(space, x, y, tower=t)
    J_v = vertical_current(space, x, y, tower=t)
    cont = continuity_residual(space, x, y, step=step) if with_continuity else None
    return CurrentSample(
        x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
        J_h=J_h, J_v=J_v, zeta=zeta, continuity=cont,
    )
