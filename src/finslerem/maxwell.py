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
Both currents are read off series of their terms on one Tower, so the
continuity residual div J is the exact divergence of the same series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import em_series
from .geometry import Tower, divergence
from .series import FIBRE_VARS, TSeries, contract, jet_tensor


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


def _trace(s, spec):
    """The series of ``einsum(spec)`` over the tensor axes of ``s``, e.g. a trace."""
    ins, out = spec.split("->")
    return TSeries(np.einsum(f"{ins}...->{out}...", s.coeffs), s.order, s.layout, len(out))


def _anisotropy_terms(t):
    """(Q^ia, (Q^ia)_{.a}), with Q^ia = Ft^ia S, cached on the tower."""
    if "anisotropy" not in t.cache:
        Q = em_series(t)["up_hv"] * t.sqrt_g
        t.cache["anisotropy"] = Q, _trace(Q.grad(FIBRE_VARS), "iaa->i")
    return t.cache["anisotropy"]


def anisotropy_zeta(t):
    """zeta^i = (1/S)(Ft^{ia} S)_{.a} at the points of Tower ``t``, coupling-free;
    it builds none of the other series of the currents."""
    return _anisotropy_terms(t)[1].value() / t.sqrt_g.value()


def _current_terms(t):
    """The series the currents are made of, cached on the tower:
    (P^ij, delta_j P^ij, (Q^ia)_{.a}, delta_i Q^ia, n_j).

    P^ij = F^ij S and Q^ia = Ft^ia S are the raised blocks times the
    volume factor S, and n_j = N^a_{j.a} (None where F does not use x, so
    the connection is zero).  The default Tower gives the derivative
    terms to order 0, the values of the currents; one with F to order 5
    (4 for a flat F, see ``Tower``) and L1 to order 4 gives them to
    order 1, which their divergence reads.
    """
    if "currents" not in t.cache:
        P = em_series(t)["up_hh"] * t.sqrt_g
        Q, dQy = _anisotropy_terms(t)
        n = None if t.flat_x else _trace(t.nonlinear.grad(FIBRE_VARS), "aja->j")
        t.cache["currents"] = (P, _trace(t.delta(P), "ijj->i"), dQy,
                               _trace(t.delta(Q), "iai->a"), n)
    return t.cache["currents"]


def horizontal_current(space, x, y, tower=None):
    """J^i from the generalized inhomogeneous equation, and the raw zeta term.

    coupling * J^i = (1/S){(F^{ij}S)_{;j} - F^{ij} N^a_{j.a} S} + zeta^i,
    zeta^i = (1/S)(Ft^{ia} S)_{.a}.
    """
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else fibre_tower(space, x, y)
    _, dP, _, _, n = _current_terms(t)
    zeta = anisotropy_zeta(t)
    classical = dP.value() / t.sqrt_g.value()
    if n is not None:
        classical = classical - np.einsum("ij...,j...->i...", em_series(t)["up_hh"].value(),
                                          n.value())
    J_h = (classical + zeta) / space.coupling
    return J_h, zeta


def vertical_current(space, x, y, tower=None):
    """Jt^a = (1/(coupling S)) delta_i(Ft^{ai} S), with Ft^{ai} = -Ft^{ia}."""
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else fibre_tower(space, x, y)
    dQx = _current_terms(t)[3]
    return -dQx.value() / (t.sqrt_g.value() * space.coupling)


def continuity_residual(space, x, y, tower=None):
    """div J for the full current (J^i, Jt^a), exactly.

    It is the ``divergence`` of the current densities coupling J^i S and
    coupling Jt^a S, read off the series of ``_current_terms`` on one
    Tower with F to order 5 (4 when flat) and L1 to order 4: the
    densities need one order beyond the currents for the outer delta_i
    and d/dy^a.

    The residual is exactly zero where F does not use x or L1 is zero.
    On a curved anisotropic scene it is the defect of this component form
    of the currents: coupling S div J = 1/2 (R^a_ij P^ij)_{.a}
    + N^b_{i.a} Q^ia_{.b} - N^b_{i.b} Q^ia_{.a}, with R the curvature of
    the connection and P, Q the densities of ``_current_terms``.
    """
    if space.coupling == 0.0:
        raise ValueError("coupling must be nonzero to extract currents")
    t = tower if tower is not None else fibre_tower(space, x, y, order_f=5, order_l1=4)
    P, dP, dQy, dQx, n = _current_terms(t)
    h = dP + dQy
    if n is not None:
        h = h - contract("ij,j->i", P, n)
    return divergence(space, h, -dQx, t.x, t.y, tower=t) / space.coupling


def current_sample(space, x, y, with_continuity=False):
    """Currents (and optionally div J) at one point, from one shared Tower.

    With the continuity, the Tower expands F to order 5 (4 when flat) and
    L1 to order 4, and the currents are read from it too."""
    orders = (5, 4) if with_continuity else (4, 3)
    t = fibre_tower(space, x, y, *orders)
    J_h, zeta = horizontal_current(space, x, y, tower=t)
    J_v = vertical_current(space, x, y, tower=t)
    cont = continuity_residual(space, x, y, tower=t) if with_continuity else None
    return CurrentSample(
        x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
        J_h=J_h, J_v=J_v, zeta=zeta, continuity=cont,
    )
