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
from functools import cached_property

import numpy as np

from . import expr
from .expr import BinOp, Num, ScalarField, Var, diff_ast, subst_ast
from .geometry import SpaceDef, Tower
from .series import FIBRE_VARS, TSeries, _remember, contract


@dataclass
class EMSample:
    """Potential, field blocks and raised variants at one (x, y)."""

    x: np.ndarray
    y: np.ndarray
    A: np.ndarray            # A_i
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
    exactly what the identity residuals and currents read off.  Each
    block is one tensor series: A[i], F_hh[i, j], F_hv[i, a] and the
    raised mix_h, mix_v, up_hh, up_hv.
    """
    if "em" in tower.cache:
        return tower.cache["em"]
    A = tower.l1_series.grad(FIBRE_VARS)
    dA = tower.delta(A)  # dA[j, i] = delta_i A_j
    F_hh = dA.transpose(1, 0) - dA
    F_hv = -A.grad(FIBRE_VARS)
    ginv = tower.ginv
    mix = contract("im,smh->sih", ginv, TSeries.stack([F_hh, F_hv]))
    up = contract("sim,jm->sij", mix, ginv)
    out = {
        "A": A, "F_hh": F_hh, "F_hv": F_hv,
        "mix_h": mix[0], "mix_v": mix[1], "up_hh": up[0], "up_hv": up[1],
    }
    tower.cache["em"] = out
    return out


def em_sample(space, x, y, tower=None):
    """Field blocks, raised variants and the 2-form blocks at (x, y)."""
    t = tower if tower is not None else Tower(space, x, y, order_f=3, order_l1=2)
    em = {name: s.value() for name, s in em_series(t).items()}
    qc = space.qc()
    return EMSample(
        x=t.x,
        y=t.y,
        A=em["A"],
        A_vderiv=-em["F_hv"],  # Ft_ia = -A_{i.a}
        F_hh=em["F_hh"],
        F_hv=em["F_hv"],
        F_mixed_up_h=em["mix_h"],
        F_mixed_up_v=em["mix_v"],
        F_up_hh=em["up_hh"],
        F_up_hv=em["up_hv"],
        omega_hh=qc * em["F_hh"],
        omega_hv=qc * em["F_hv"] - t.g_values,
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


#: the truncation of each (L1, y_ref) lately, keyed by the id of L1 and the
#: shape and bytes of y_ref (so -0.0 is not 0.0); an entry holds its L1
_truncations = {}


def isotropic_truncation(space, y_ref):
    """Replace L1 by its fibre linearization A_i(x, y_ref) y^i.

    The truncated generator is linear in y, so the mixed field block and
    the anisotropy current vanish identically; comparing a scene to its
    truncation isolates every anisotropy effect.  The same L1 and y_ref
    give the same field while :data:`_truncations` holds it.
    """
    y_ref = np.asarray(y_ref, dtype=float)
    if space.L1.is_zero():
        return replace(space)
    key = (id(space.L1), y_ref.shape, y_ref.tobytes())
    hit = _truncations.get(key)
    if hit is None:
        ref = {4 + i: float(y_ref[i]) for i in range(4)}
        lin = None
        for i in range(4):
            coef = subst_ast(diff_ast(space.L1.ast, 4 + i), ref)
            if isinstance(coef, Num) and coef.value == 0.0:
                continue
            term = BinOp("*", coef, Var(4 + i))
            lin = term if lin is None else BinOp("+", lin, term)
        new_l1 = ScalarField(lin) if lin is not None else ScalarField.zero()
        hit = _remember(_truncations, key, (space.L1, new_l1))
    return replace(space, L1=hit[1])


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


@dataclass(frozen=True)
class AnisotropyBlend:
    """The L1 generator of an ensemble that sweeps the anisotropy scale.

    Batch column b of a point is member b.  Its series is the truncation's
    ``s_iso`` when ``kappas[b]`` is None, the scene's ``s_full`` when it
    is 1, and otherwise ``s_iso + (s_full - s_iso) kappa_b``, with both
    series from one program (``expr.program``).  That is the series
    arithmetic of the tape of ``blend_anisotropy(space, y_ref, kappa_b)``,
    which scales by the number kappa_b as this does.  When the scene's L1
    is zero, every member is the (zero) truncation.  Build it with
    :func:`anisotropy_ensemble`.
    """

    iso: ScalarField
    full: ScalarField
    kappas: tuple

    def __post_init__(self):
        if not all(k is None or np.isfinite(k) for k in self.kappas):
            raise ValueError(f"every kappa must be finite, got {self.kappas}")

    @property
    def ast(self):
        """The scene's L1 expression, which every member blends toward.

        It is no member's value: the evaluators that walk an AST
        (``expr.eval_values`` and those built on it) refuse a blend.
        """
        return self.full.ast

    def source(self):
        raise TypeError("an AnisotropyBlend is one L1 per member and has no single source")

    def variables(self):
        return self.iso.variables() | self.full.variables()

    def is_zero(self):
        truncation_only = all(k is None for k in self.kappas)
        return self.full.is_zero() or (truncation_only and self.iso.is_zero())

    @cached_property
    def parts(self):
        """The fields the members read: the truncation, the scene's L1 or both."""
        if all(k == 1.0 for k in self.kappas):
            return (self.full,)
        if self.full.is_zero() or all(k is None for k in self.kappas):
            return (self.iso,)
        return (self.iso, self.full)

    @cached_property
    def _masks(self):
        """kappa (0 for the truncation), kappa == 1, the truncation: a mask None if empty."""
        kappa = np.array([0.0 if k is None else k for k in self.kappas])
        one, iso = kappa == 1.0, np.array([k is None for k in self.kappas])
        return kappa, one if one.any() else None, iso if iso.any() else None

    @cached_property
    def _tape(self):
        if len(self.parts) == 1:
            return self.parts[0]._tape
        return expr.program(*self.parts)

    def combine(self, parts, batch):
        """The members' series from the series of :attr:`parts`."""
        if len(parts) == 1:
            return parts[0]
        s_iso, s_full = parts
        kappa, one, iso = self._masks
        coeffs = s_iso.coeffs + (s_full.coeffs - s_iso.coeffs) * kappa.reshape(batch)
        for mask, s in ((one, s_full), (iso, s_iso)):
            if mask is not None:
                coeffs = np.where(mask.reshape(batch), s.coeffs, coeffs)
        return TSeries(coeffs, s_iso.order, s_iso.layout)

    def series(self, point, order, layout):
        return self.combine(self._tape.run(point, order, layout), point.shape[1:])

    def tiled(self, n):
        """The same members, each repeated over n consecutive batch columns."""
        return replace(self, kappas=tuple(k for k in self.kappas for _ in range(n)))


def anisotropy_ensemble(space, y_ref, kappas):
    """``space`` with an L1 whose batch columns are its blends at ``kappas``.

    A None in ``kappas`` is the isotropic truncation itself and a 1 the
    scene; column b follows ``blend_anisotropy(space, y_ref, kappas[b])``.
    """
    iso = isotropic_truncation(space, y_ref)
    return replace(space, L1=AnisotropyBlend(iso.L1, space.L1, tuple(kappas)))
