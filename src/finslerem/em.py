"""Direction-dependent potential and the two-block field tensor.

The potential covector is the fibre gradient of the 1-homogeneous
generator L1, which pins the Euler identities A_i y^i = L1 and
A_{i.k} y^k = 0 by construction.  The field tensor splits into the
antisymmetric horizontal block F_ij and the mixed block Ft_ia = -A_{i.a};
the mixed block vanishes identically whenever L1 is linear in y.

Index raising on the mixed block uses Ft^i_a = g^{ik} Ft_{ka}; with that
choice the lowered equations of motion, their 2-form rewriting and the
Euler-Lagrange reduction of the particle Lagrangian agree term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr
from .expr import BinOp, Num, ScalarField, Var, diff_ast, subst_ast
from .geometry import SpaceDef, Tower


@dataclass
class EMSample:
    """Potential, field blocks and raised variants at one (x, y)."""

    x: np.ndarray
    y: np.ndarray
    A: np.ndarray            # A_i
    A_hderiv: np.ndarray     # [i, j] = A_{j|i}
    A_vderiv: np.ndarray     # [i, a] = A_{i.a}
    F_hh: np.ndarray         # [i, j] = F_ij, antisymmetric
    F_hv: np.ndarray         # [i, a] = Ft_ia
    F_mixed_up_h: np.ndarray  # [i, h] = F^i_h = g^{ik} F_kh
    F_mixed_up_v: np.ndarray  # [i, a] = Ft^i_a = g^{ik} Ft_ka
    F_up_hh: np.ndarray      # [i, j] = F^{ij}
    F_up_hv: np.ndarray      # [i, a] = Ft^{ia}
    omega_hh: np.ndarray     # (q/c) F_ij
    omega_hv: np.ndarray     # (q/c) Ft_ia - g_ia


def em_series(tower):
    """Series of the potential and field blocks, cached on the tower.

    Orders (with the default tower): A to 2, all blocks to 1, which is
    exactly what the identity residuals and currents read off.
    """
    if "em" in tower.cache:
        return tower.cache["em"]
    space = tower.space
    l1 = expr.eval_series(space.L1, tower.point, tower.kl)
    A = [l1.deriv(4 + i) for i in range(4)]
    dA = [[tower.delta(A[j], i) for j in range(4)] for i in range(4)]
    F_hh = [[None] * 4 for _ in range(4)]
    for i in range(4):
        F_hh[i][i] = tower.zero(dA[0][0].order)
        for j in range(i + 1, 4):
            fij = dA[i][j] - dA[j][i]
            F_hh[i][j] = fij
            F_hh[j][i] = -fij
    F_hv = [[-A[i].deriv(4 + a) for a in range(4)] for i in range(4)]

    ginv = tower.ginv
    k = F_hh[0][1].order
    z = tower.zero(k)
    mix_h = [
        [sum((ginv[i][m] * F_hh[m][h] for m in range(4)), z) for h in range(4)]
        for i in range(4)
    ]
    mix_v = [
        [sum((ginv[i][m] * F_hv[m][a] for m in range(4)), z) for a in range(4)]
        for i in range(4)
    ]
    up_hh = [
        [sum((mix_h[i][m] * ginv[j][m] for m in range(4)), z) for j in range(4)]
        for i in range(4)
    ]
    up_hv = [
        [sum((mix_v[i][m] * ginv[a][m] for m in range(4)), z) for a in range(4)]
        for i in range(4)
    ]
    out = {
        "l1": l1, "A": A, "F_hh": F_hh, "F_hv": F_hv,
        "mix_h": mix_h, "mix_v": mix_v, "up_hh": up_hh, "up_hv": up_hv,
    }
    tower.cache["em"] = out
    return out


def _mat(series_mat):
    return np.array([[series_mat[i][j].value() for j in range(4)] for i in range(4)])


def em_sample(space, x, y, tower=None):
    """Field blocks, raised variants and the 2-form blocks at (x, y)."""
    t = tower if tower is not None else Tower(space, x, y, order_f=3, order_l1=2)
    em = em_series(t)
    A = np.array([em["A"][i].value() for i in range(4)])
    A_v = np.array(
        [[em["A"][i].deriv(4 + a).value() for a in range(4)] for i in range(4)]
    )
    L = t.chern_values
    # A_{j|i} = delta_i A_j - L^m_{ji} A_m
    A_h = np.array(
        [
            [
                t.delta_value(em["A"][j], i)
                - sum(L[m, j, i] * A[m] for m in range(4))
                for j in range(4)
            ]
            for i in range(4)
        ]
    )
    g = t.g_values
    qc = space.qc()
    F_hh = _mat(em["F_hh"])
    F_hv = _mat(em["F_hv"])
    return EMSample(
        x=t.x,
        y=t.y,
        A=A,
        A_hderiv=A_h,
        A_vderiv=A_v,
        F_hh=F_hh,
        F_hv=F_hv,
        F_mixed_up_h=_mat(em["mix_h"]),
        F_mixed_up_v=_mat(em["mix_v"]),
        F_up_hh=_mat(em["up_hh"]),
        F_up_hv=_mat(em["up_hv"]),
        omega_hh=qc * F_hh,
        omega_hv=qc * F_hv - g,
    )


def gauge_shift(space, lam):
    """New space with L1 shifted by the total derivative of lambda(x).

    The shift adds lambda_{,i}(x) y^i, so the potential moves by an exact
    form and every field block is unchanged.
    """
    if any(v >= 4 for v in lam.variables()):
        raise ValueError("gauge function must depend on x only")
    shift = None
    for i in range(4):
        d = diff_ast(lam.ast, i)
        if isinstance(d, Num) and d.value == 0.0:
            continue
        term = BinOp("*", d, Var(4 + i))
        shift = term if shift is None else BinOp("+", shift, term)
    if shift is None:
        return replace(space)
    if space.L1.is_zero():
        new_l1 = ScalarField(shift)
    else:
        new_l1 = ScalarField(BinOp("+", space.L1.ast, shift))
    return replace(space, L1=new_l1)


def isotropic_truncation(space, y_ref):
    """Replace L1 by its fibre linearization A_i(x, y_ref) y^i.

    The truncated generator is linear in y, so the mixed field block and
    the anisotropy current vanish identically; comparing a scene to its
    truncation isolates every anisotropy effect.
    """
    y_ref = np.asarray(y_ref, dtype=float)
    if space.L1.is_zero():
        return replace(space)
    ref = {4 + i: float(y_ref[i]) for i in range(4)}
    lin = None
    for i in range(4):
        coef = subst_ast(diff_ast(space.L1.ast, 4 + i), ref)
        if isinstance(coef, Num) and coef.value == 0.0:
            continue
        term = BinOp("*", coef, Var(4 + i))
        lin = term if lin is None else BinOp("+", lin, term)
    new_l1 = ScalarField(lin) if lin is not None else ScalarField.zero()
    return replace(space, L1=new_l1)


def blend_anisotropy(space, y_ref, kappa):
    """Interpolate between the isotropic truncation (0) and the scene (1).

    L1_k = L1_lin + kappa (L1 - L1_lin); used for anisotropy sweeps.
    """
    iso = isotropic_truncation(space, y_ref)
    if space.L1.is_zero() or kappa == 1.0:
        return replace(space) if kappa == 1.0 else iso
    diff = BinOp("-", space.L1.ast, iso.L1.ast)
    blended = BinOp("+", iso.L1.ast, BinOp("*", Num(float(kappa)), diff))
    return replace(space, L1=ScalarField(blended))
