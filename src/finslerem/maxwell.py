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
from .series import jet_tensor


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


def fibre_tower(space, x, y, order_f=4, order_l1=3):
    """Tower at (x, u) with u = y/H; identity when H == 1."""
    y = np.asarray(y, dtype=float)
    if space.H != 1.0:
        y = y / space.H
    return Tower(space, x, y, order_f=order_f, order_l1=order_l1)


def homogeneous_residuals(space, x, y, tower=None):
    """Cyclic residuals of the closed-field identities at (x, y)."""
    t = tower if tower is not None else fibre_tower(space, x, y)
    em = em_series(t)
    F_hh, F_hv = em["F_hh"], em["F_hv"]
    Fv, Ftv = F_hh.value(), F_hv.value()
    DF = t.delta_value(F_hh)  # DF[i, j, k] = delta_k F_ij
    DFt = t.delta_value(F_hv)  # DFt[i, a, k] = delta_k Ft_ia
    Fdot = jet_tensor(F_hh, "y")  # Fdot[i, j, a] = F_{ij.a}
    Ftdot = jet_tensor(F_hv, "y")  # Ftdot[i, a, b] = Ft_{ia.b}
    L = t.chern_values
    R = t.curvature_values
    B = t.berwald_values  # B[m, j, a] = dN^m_j/dy^a, symmetric in (j, a)

    # C[i, j, k] = F_{ij|k} + R^b_jk Ft_ib, with
    # F_{ij|k} = delta_k F_ij - L^m_ik F_mj - L^m_jk F_im
    C = (DF - np.einsum("mik...,mj...->ijk...", L, Fv)
         - np.einsum("mjk...,im...->ijk...", L, Fv)
         + np.einsum("bjk...,ib...->ijk...", R, Ftv))
    hhh = C + np.einsum("kij...->ijk...", C) + np.einsum("jki...->ijk...", C)
    # Ft_{aj|k} (vertical index transported by the Berwald coefficients)
    # + Ft_{ka|j} + F_{jk.a}
    hhv = (-np.einsum("jak...->ajk...", DFt)
           + np.einsum("mak...,jm...->ajk...", B, Ftv)
           + np.einsum("mjk...,ma...->ajk...", L, Ftv)
           + np.einsum("kaj...->ajk...", DFt)
           - np.einsum("mkj...,ma...->ajk...", L, Ftv)
           - np.einsum("maj...,km...->ajk...", B, Ftv)
           + np.einsum("jka...->ajk...", Fdot))
    hvv = Ftdot - Ftdot.swapaxes(1, 2)
    max_abs = float(max(np.max(np.abs(hhh)), np.max(np.abs(hhv)), np.max(np.abs(hvv))))
    return MaxwellResiduals(hhh=hhh, hhv=hhv, hvv=hvv, max_abs=max_abs)


def _densities(t):
    """(up_hh S, up_hv S, S value): the raised blocks times the volume factor."""
    if "densities" not in t.cache:
        em = em_series(t)
        S = t.sqrt_g.truncate(1)
        t.cache["densities"] = em["up_hh"] * S, em["up_hv"] * S, S.value()
    return t.cache["densities"]


def horizontal_current(space, x, y, tower=None):
    """J^i from the generalized inhomogeneous equation, and the raw zeta term.

    coupling * J^i = (1/S){(F^{ij}S)_{;j} - F^{ij} N^a_{j.a} S} + zeta^i,
    zeta^i = (1/S)(Ft^{ia} S)_{.a}.
    """
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else fibre_tower(space, x, y)
    up_hh_s, up_hv_s, s0 = _densities(t)
    zeta = np.einsum("iaa...->i...", jet_tensor(up_hv_s, "y")) / s0
    classical = (np.einsum("ijj...->i...", t.delta_value(up_hh_s)) / s0
                 - np.einsum("ij...,j...->i...", em_series(t)["up_hh"].value(),
                             t.n_trace_dot_values))
    J_h = (classical + zeta) / space.coupling
    return J_h, zeta


def vertical_current(space, x, y, tower=None):
    """Jt^a = (1/(coupling S)) delta_i(Ft^{ai} S), with Ft^{ai} = -Ft^{ia}."""
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else fibre_tower(space, x, y)
    _, up_hv_s, s0 = _densities(t)
    return -np.einsum("iai...->a...", t.delta_value(up_hv_s)) / (s0 * space.coupling)


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
    t = fibre_tower(space, x, y)
    J_h, zeta = horizontal_current(space, x, y, tower=t)
    J_v = vertical_current(space, x, y, tower=t)
    cont = continuity_residual(space, x, y, step=step) if with_continuity else None
    return CurrentSample(
        x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
        J_h=J_h, J_v=J_v, zeta=zeta, continuity=cont,
    )
