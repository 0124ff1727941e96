"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the package's Taylor tower: values
come from plain finite differences of the raw expressions or from
hand-derived closed forms, so agreement with the tower is a two-sided
check.  ``same_bits`` compares arrays bit for bit, signs of zeros
included.  There are thirteen exceptions.  ``reduceat_product`` is the series
product summed by one ``np.add.reduceat`` over the package's product
table, the reference for the peeled kernel.  ``tree_series`` walks an expression
with the package's series arithmetic but none of the compiled tape's
sharing or rewriting.  ``full_horner`` composes a series with a full
product at every Horner step, and ``full_order_compose`` is the Horner
loop of ``series._compose`` with every product at the full order.
``neumann_inverse`` is the series inverse of a metric by its Neumann sum
at the metric's full order, the reference for the spray's degree-by-
degree solve.  The scalar identity oracle reads the
tower entry by entry, in the order of evaluation that its whole-tensor
contractions replaced.  ``reference_force`` is the Lorentz solve read
off separately evaluated generators with ``jet_tensor``, the arithmetic
that ``ForceEvaluator`` had before it shared one program and one take,
and ``tower_force`` the force as it ran on the stages of a Tower before
it was compiled.
``fd_divergence`` takes central differences of the components but reads
the volume factor and the connection off a Tower.  ``continuity_defect``
is the closed form of div J in terms of the Tower's connection, its
curvature and the field densities, a different formula from the
divergence of the currents that ``continuity_residual`` takes.
``grad_every_row`` is ``TSeries.grad`` as it took and scaled
the rows of every variable, then zeroed those outside the layout.
``UncappedTower`` is a Tower that expands a flat F to the order it is
asked for, as every Tower did before a flat F was capped at L1's order.
``validate_space_loop`` is the scene load probe as a loop over probes
and scalings, which ``scene.validate_space`` ran before it checked them
as arrays.
"""

import itertools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from finslerem import expr, geometry
from finslerem.em import em_series
from finslerem.errors import DomainError, HomogeneityViolationError, SingularForceMatrixError
from finslerem.expr import (BinOp, Call, Jet, Neg, Num, ScalarField, Var, eval_series, eval_value,
                            eval_values)
from finslerem.geometry import Tower
from finslerem.maxwell import fibre_tower
from finslerem.scene import HOMOGENEITY_TOL
from finslerem.series import (NTERMS, TERMS, TSeries, _deriv_tables, _mul_tables, _product, _terms,
                              contract, jet_tensor, jets)


def same_bits(got, want):
    """Equal values, NaN where ``want`` is NaN, and the same sign on every
    other entry (zeros and infinities included).  Which NaN a sum of two
    NaNs returns is not compared: numpy's own add loops do not fix it (a
    vectorized body and its scalar tail may pick different operands)."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got)[~nan], np.signbit(want)[~nan]))


def tree_series(node, point, order, layout):
    """Taylor series of an AST by a plain recursive walk with TSeries arithmetic.

    The reference for the compiled tape of ``eval_series``: no slot is
    shared and no product is turned into a scaling.  It takes the tape's
    operations: a quotient is a product with the reciprocal, an exponent
    written as a number is ``TSeries ** p``, any other power is
    ``exp(b log a)``, and a subtree of numbers only is evaluated without
    the batch axes, which it gains (as size 1) where it meets a variable.
    """
    point = np.asarray(point, dtype=float)
    batch = point.shape[1:]

    def widen(*series):
        return [s if s.coeffs.ndim > 1 or not batch else
                TSeries(s.coeffs.reshape(s.coeffs.shape + (1,) * len(batch)), order, layout)
                for s in series]

    def power(a, exponent):
        if isinstance(exponent, Num):
            return a ** exponent.value
        if isinstance(exponent, Neg) and isinstance(exponent.arg, Num):
            return a ** -exponent.arg.value
        b, log = widen(walk(exponent), a.log())
        return (b * log).exp()

    def walk(n):
        if isinstance(n, Num):
            return TSeries.constant(n.value, order, layout=layout)
        if isinstance(n, Var):
            return TSeries.coordinate(n.index, point[n.index], order, batch, layout)
        if isinstance(n, Neg):
            return -walk(n.arg)
        if isinstance(n, Call):
            if n.func == "pow":
                return power(walk(n.args[0]), n.args[1])
            return getattr(walk(n.args[0]), n.func)()
        if n.op == "^":
            return power(walk(n.left), n.right)
        a, b = widen(walk(n.left), walk(n.right))
        if n.op == "+":
            return a + b
        if n.op == "-":
            return a - b
        return a * b if n.op == "*" else a * b.reciprocal()

    out, = widen(walk(node))
    return TSeries(np.broadcast_to(out.coeffs, out.coeffs.shape[:1] + batch), order, layout)


def reduceat_product(a, b, k, n=8, ranks=(0, 0), out_tensor=(), combine=np.multiply, top=False):
    """``series._product`` as one ``np.add.reduceat`` over the whole product
    table: gather both factors, ``combine`` them and sum each output
    term's segment (with ``top``, only the segments of the degree-k
    terms).  It was the product kernel of every width before wide
    products summed their segments without ``reduceat``."""
    I, J, starts = _mul_tables(k, n)
    if top:
        first = _terms(n).nterms[k - 1]
        I, J, starts = I[starts[first]:], J[starts[first]:], starts[first:] - starts[first]
    ra, rb = ranks
    return np.add.reduceat(combine(a.take(I, axis=ra), b.take(J, axis=rb)), starts,
                           axis=len(out_tensor))


def full_horner(u, cs):
    """sum_m cs[m] (u - u0)^m by Horner's rule with a full series product at
    every step: the reference for ``series._compose``, whose first step
    is a scaling."""
    i = u._at(0)
    h = u.copy()
    h.coeffs[i] = 0.0
    r = TSeries(np.zeros(u.coeffs.shape), u.order, u.layout, u.rank)
    r.coeffs[i] = cs[-1]
    for m in range(len(cs) - 2, -1, -1):
        r = r * h
        r.coeffs[i] = r.coeffs[i] + cs[m]
    return r


def full_order_compose(c, cs, n, rank=0):
    """``series._compose`` with every Horner step at the full order k: the
    first step scales h by cs[k], and each later one multiplies the
    full-order accumulator by h at order k."""
    k = len(cs) - 1
    i = (slice(None),) * rank + (0,)
    h = c.copy()
    h[i] = 0.0
    r = h * (np.expand_dims(cs[-1], rank) if rank else cs[-1])
    r[i] = cs[-1] if len(cs) == 1 else r[i] + cs[-2]
    for m in range(len(cs) - 3, -1, -1):
        r = _product(r, h, k, n, (rank, rank), c.shape[:rank])
        r[i] = r[i] + cs[m]
    return r


def grad_every_row(s, variables):
    """``s.grad(variables)`` with a row taken and scaled for every variable,
    a zero map standing in for one outside the layout, whose rows are
    then set to 0.0."""
    n = len(s.layout)
    nout = _terms(n).nterms[s.order - 1]
    rows = [_deriv_tables(s.order, s.layout.index(v), n) if v in s.layout
            else (np.zeros(nout, dtype=np.int64), np.zeros(nout)) for v in variables]
    src, fac = np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])
    c = s.coeffs.take(src, axis=s.rank) * fac.reshape(fac.shape + (1,) * len(s.batch))
    absent = [r for r, v in enumerate(variables) if v not in s.layout]
    if absent:
        c[s._at(absent)] = 0.0
    return TSeries(c, s.order - 1, s.layout, s.rank + 1)


def neumann_inverse(g, g0inv):
    """Series inverse of the rank-2 series g at its full order: the
    Neumann sum (sum_m T^m) g0^{-1} with T = -g0^{-1} (g - g0)."""
    h = g.copy()
    h.value()[...] = 0.0
    T = -contract("im,mj->ij", g0inv, h)
    eye = np.eye(4).reshape((4, 4) + (1,) * len(g.batch))
    acc = T + eye
    for _ in range(1, g.order):
        acc = contract("im,mj->ij", T, acc) + eye
    return contract("im,mj->ij", acc, g0inv)


def f_squared(space):
    return ScalarField(BinOp("*", space.F.ast, space.F.ast))


# central stencils per differentiation order: (offset, weight), divide by h^m
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _multi_indices(order):
    return TERMS[1:NTERMS[order]]


def fd_jet(field, point, order, step=1e-3):
    """Central-difference jet; truncation is O(step^2) per differentiation level.

    Independent of the Taylor engine: uses only plain evaluations of the
    field on tensor-product stencils, which go up to order 4.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not 0 <= order <= max(_STENCILS):
        raise ValueError(f"derivative order must be in 0..{max(_STENCILS)}, got {order}")
    point = np.asarray(point, dtype=float)
    alphas = _multi_indices(order)

    # build one flat batch of sample points covering all stencils
    offsets = []
    weights = []
    slices = []
    for alpha in alphas:
        grids = [_STENCILS[a] if a else ((0, 1.0),) for a in alpha]
        combo_off = []
        combo_w = []
        for combo in itertools.product(*grids):
            off = np.array([c[0] for c in combo], dtype=float)
            w = math.prod(c[1] for c in combo)
            combo_off.append(off)
            combo_w.append(w)
        start = len(offsets)
        offsets.extend(combo_off)
        weights.extend(combo_w)
        slices.append((start, len(offsets)))

    if offsets:
        pts = point[:, None] + step * np.array(offsets).T
        vals = eval_values(field, pts)
        if not np.all(np.isfinite(vals)):
            raise DomainError("stencil left the field domain", field.source())
    value = eval_value(field, point)

    partials = {}
    for alpha, (a, b) in zip(alphas, slices):
        h_pow = step ** sum(alpha)
        acc = float(np.dot(np.array(weights[a:b]), vals[a:b])) / h_pow
        partials[alpha] = acc
    return Jet(value=value, partials=partials, order=order)


def richardson_jet(field, point, order, step):
    """fd_jet at two steps, Richardson-combined to kill the h^2 term."""
    j1 = fd_jet(field, point, order, step)
    j2 = fd_jet(field, point, order, step / 2)
    partials = {
        a: (4.0 * j2.partials[a] - j1.partials[a]) / 3.0 for a in j1.partials
    }
    j1.partials = partials
    return j1


def fd_vec(fn, p8, step=1e-3):
    """Central-difference gradient of a vector-valued fn(p8) -> (k,) array."""
    p8 = np.asarray(p8, dtype=float)
    f0 = np.asarray(fn(p8))
    out = np.zeros((8,) + f0.shape)
    for d in range(8):
        pp, pm = p8.copy(), p8.copy()
        pp[d] += step
        pm[d] -= step
        out[d] = (np.asarray(fn(pp)) - np.asarray(fn(pm))) / (2 * step)
    return out


# ----------------------------------------------------------------------
# quadratic-metric scene: hand-derived Christoffel/Riemann closed forms
# for a = diag(1 + 0.2 x1^2, -(1 + 0.1 x0^2), -1, -1)


def pr_metric(x):
    return np.diag([1 + 0.2 * x[1] ** 2, -(1 + 0.1 * x[0] ** 2), -1.0, -1.0])


def pr_christoffel(x):
    A = 1 + 0.2 * x[1] ** 2
    B = 1 + 0.1 * x[0] ** 2
    dA = 0.4 * x[1]
    dB = 0.2 * x[0]
    gam = np.zeros((4, 4, 4))
    gam[0, 0, 1] = gam[0, 1, 0] = dA / (2 * A)
    gam[0, 1, 1] = dB / (2 * A)
    gam[1, 0, 0] = dA / (2 * B)
    gam[1, 0, 1] = gam[1, 1, 0] = dB / (2 * B)
    return gam


def pr_christoffel_grad(x):
    """dGamma[l, i, j, k] = d(gam^i_jk)/dx^l, from the closed forms."""
    A = 1 + 0.2 * x[1] ** 2
    B = 1 + 0.1 * x[0] ** 2
    dA, ddA = 0.4 * x[1], 0.4
    dB, ddB = 0.2 * x[0], 0.2
    out = np.zeros((4, 4, 4, 4))
    # gam^0_{01} = dA/(2A): depends on x1
    v = (ddA * A - dA * dA) / (2 * A * A)
    out[1, 0, 0, 1] = out[1, 0, 1, 0] = v
    # gam^0_{11} = dB/(2A): x0 via dB, x1 via A
    out[0, 0, 1, 1] = ddB / (2 * A)
    out[1, 0, 1, 1] = -dB * dA / (2 * A * A)
    # gam^1_{00} = dA/(2B)
    out[1, 1, 0, 0] = ddA / (2 * B)
    out[0, 1, 0, 0] = -dA * dB / (2 * B * B)
    # gam^1_{01} = dB/(2B)
    v = (ddB * B - dB * dB) / (2 * B * B)
    out[0, 1, 0, 1] = out[0, 1, 1, 0] = v
    return out


def pr_riemann(x):
    """R[r, s, m, n] = d_m gam^r_ns - d_n gam^r_ms + gam gam - gam gam."""
    gam = pr_christoffel(x)
    dgam = pr_christoffel_grad(x)
    term1 = np.einsum("mrns->rsmn", dgam) - np.einsum("nrms->rsmn", dgam)
    term2 = np.einsum("rml,lns->rsmn", gam, gam) - np.einsum("rnl,lms->rsmn", gam, gam)
    return term1 + term2


def levi_civita_divergence(space, x, y_ref, step=1e-3):
    """Classical nabla_j F^{ij} for a y-independent metric and potential.

    Assembled purely from finite-difference jets of F^2 and L1g; used as
    the isotropic-reduction oracle.
    """
    pt = np.concatenate([x, y_ref])
    e_jet = richardson_jet(f_squared(space), pt, 3, 4e-3)
    l_jet = richardson_jet(space.L1, pt, 3, 4e-3)

    def mi(*pairs):
        alpha = [0] * 8
        for v in pairs:
            alpha[v] += 1
        return tuple(alpha)

    g = np.array([[0.5 * e_jet.partial(mi(4 + i, 4 + j)) for j in range(4)]
                  for i in range(4)])
    dg = np.array(
        [[[0.5 * e_jet.partial(mi(4 + i, 4 + j, k)) for k in range(4)]
          for j in range(4)] for i in range(4)]
    )  # dg[i, j, k] = g_{ij,k}
    ginv = np.linalg.inv(g)
    # T[l, j, k] = g_{lj,k} + g_{lk,j} - g_{jk,l}
    T = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)
    gam = 0.5 * np.einsum("il,ljk->ijk", ginv, T)
    # F_{ij} = d_i A_j - d_j A_i with A_j = dL1/dy^j
    dA = np.array(
        [[l_jet.partial(mi(4 + j, i)) for j in range(4)] for i in range(4)]
    )  # dA[i, j] = d_i A_j
    ddA = np.array(
        [[[l_jet.partial(mi(4 + j, i, k)) for k in range(4)] for j in range(4)]
         for i in range(4)]
    )  # ddA[i, j, k] = d_k d_i A_j
    F_low = dA - dA.T
    dF_low = ddA.transpose(0, 1, 2) - ddA.transpose(1, 0, 2)  # d_k F_ij -> [i, j, k]
    dginv = -np.einsum("im,mnk,nj->ijk", ginv, dg, ginv)      # d_k g^{ij}
    F_up = ginv @ F_low @ ginv.T
    dF_up = (
        np.einsum("ikq,kl,jl->ijq", dginv, F_low, ginv)
        + np.einsum("ik,klq,jl->ijq", ginv, dF_low, ginv)
        + np.einsum("ik,kl,jlq->ijq", ginv, F_low, dginv)
    )
    div = np.einsum("ijj->i", dF_up)
    div += np.einsum("ijl,lj->i", gam, F_up)
    div += np.einsum("jjl,il->i", gam, F_up)
    return div


def plain_coordinate_currents(space, x, y, step=1e-3):
    """Currents from exterior calculus in plain chart coordinates.

    For an x-independent generating function the nonlinear connection
    vanishes, the adapted and plain components coincide, and the full
    current (horizontal and vertical) is the divergence of the raised
    field bivector against the volume density:

        J^A = (1/S) d_B (S P^{AB}),   P = dA as a 2-form on TM.

    Returns (J_h, J_v); only valid for flat (x-independent F) scenes.
    """
    assert not any(v < 4 for v in space.F.variables())

    def a_cov(p8):
        """A_i = dL1/dy^i by central differences."""
        out = np.zeros(4)
        for i in range(4):
            pp, pm = p8.copy(), p8.copy()
            pp[4 + i] += step
            pm[4 + i] -= step
            out[i] = (eval_values(space.L1, pp) - eval_values(space.L1, pm)) / (2 * step)
        return out

    def metric_at(p8):
        e = f_squared(space)
        g = np.zeros((4, 4))
        for i in range(4):
            for j in range(i, 4):
                pts = []
                for si in (+1, -1):
                    for sj in (+1, -1):
                        q = p8.copy()
                        q[4 + i] += si * step
                        q[4 + j] += sj * step
                        pts.append(q)
                vals = eval_values(e, np.array(pts).T)
                if i == j:
                    q0 = p8.copy()
                    qp, qm = p8.copy(), p8.copy()
                    qp[4 + i] += step
                    qm[4 + i] -= step
                    vv = eval_values(e, np.array([qp, q0, qm]).T)
                    g[i, i] = 0.5 * (vv[0] - 2 * vv[1] + vv[2]) / step**2
                else:
                    g[i, j] = g[j, i] = 0.5 * (
                        vals[0] - vals[1] - vals[2] + vals[3]
                    ) / (4 * step**2)
        return g

    def p_upper_density(p8):
        """S * P^{AB} in plain coordinates (8x8 antisymmetric)."""
        da = fd_vec(a_cov, p8, step)  # da[B, i] = d_B A_i
        # P_{AB} = d_A cal(A)_B - d_B cal(A)_A with cal(A) = (A_i, 0)
        P = np.zeros((8, 8))
        for A in range(8):
            for i in range(4):
                P[A, i] = da[A, i]
        P = P - P.T
        g = metric_at(p8)
        ginv = np.linalg.inv(g)
        Ginv = np.zeros((8, 8))
        Ginv[:4, :4] = ginv
        Ginv[4:, 4:] = ginv
        S = abs(np.linalg.det(g))
        return S * (Ginv @ P @ Ginv.T)

    p0 = np.concatenate([x, y])
    dP = np.zeros((8, 8, 8))  # dP[B, A, C] = d_B (S P^{AC})
    for d in range(8):
        pp, pm = p0.copy(), p0.copy()
        pp[d] += step
        pm[d] -= step
        dP[d] = (p_upper_density(pp) - p_upper_density(pm)) / (2 * step)
    g0 = metric_at(p0)
    S0 = abs(np.linalg.det(g0))
    J = np.array([sum(dP[B, A, B] for B in range(8)) for A in range(8)]) / S0
    return J[:4], J[4:]


# ----------------------------------------------------------------------
# scalar identity suite: the entry-by-entry loops the tensor stages replaced


def _delta_value(t, s, k):
    """delta_k s = s_{,k} - N^a_k s_{.a} at the Tower's point, one entry."""
    out = s.deriv(k).value()
    if t.flat_x:
        return out
    N = t.nonlinear_values
    for a in range(4):
        out = out - N[a, k] * s.deriv(4 + a).value()
    return out


def scalar_identity_oracle(t):
    """Chern, curvature and Berwald values and the cyclic residuals, entry by entry.

    Every entry is read off one component series of the Tower through
    ``s[i][j]`` indexing and combined in scalar loops, the order of
    evaluation the whole-tensor contractions of the package replaced.
    Returns value arrays with the batch axis trailing.
    """
    from finslerem.em import em_series

    batch = t.batch
    L = np.zeros((4, 4, 4) + batch)
    R = np.zeros((4, 4, 4) + batch)
    B = np.zeros((4, 4, 4) + batch)
    if not t.flat_x:
        g, ginv, N = t.g, t.ginv, t.nonlinear
        dg = [[[_delta_value(t, g[h][j], k) for k in range(4)] for j in range(4)]
              for h in range(4)]
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    acc = 0.0
                    for h in range(4):
                        acc = acc + ginv[i][h].value() * (dg[h][j][k] + dg[h][k][j]
                                                          - dg[j][k][h])
                    L[i, j, k] = 0.5 * acc
        for a in range(4):
            for j in range(4):
                for k in range(4):
                    R[a, j, k] = _delta_value(t, N[a][j], k) - _delta_value(t, N[a][k], j)
                    B[a, j, k] = N[a][j].deriv(4 + k).value()

    em = em_series(t)
    F_hh, F_hv = em["F_hh"], em["F_hv"]
    Fv = np.array([[F_hh[i][j].value() for j in range(4)] for i in range(4)])
    Ftv = np.array([[F_hv[i][a].value() for a in range(4)] for i in range(4)])
    DF = np.array([[[_delta_value(t, F_hh[i][j], k) for k in range(4)] for j in range(4)]
                   for i in range(4)])  # DF[i, j, k] = delta_k F_ij
    DFt = np.array([[[_delta_value(t, F_hv[i][a], k) for k in range(4)] for a in range(4)]
                    for i in range(4)])  # DFt[i, a, k] = delta_k Ft_ia
    Fdot = np.array([[[F_hh[i][j].deriv(4 + a).value() for a in range(4)] for j in range(4)]
                     for i in range(4)])  # Fdot[i, j, a] = F_{ij.a}
    Ftdot = np.array([[[F_hv[i][a].deriv(4 + b).value() for b in range(4)]
                       for a in range(4)] for i in range(4)])  # Ftdot[i, a, b] = Ft_{ia.b}

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
                hhv[i, j, k] = Ft_vh_cov(i, j, k) + Ft_hv_cov(k, i, j) + Fdot[j, k, i]
                hvv[i, j, k] = Ftdot[i, j, k] - Ftdot[i, k, j]
    return {"chern": L, "curvature": R, "berwald": B, "hhh": hhh, "hhv": hhv, "hvv": hvv}


# ----------------------------------------------------------------------
# reference Lorentz force


def _stack(series, pattern):
    """jet_tensor with the member axis first, each member's tensor C-ordered."""
    t = jet_tensor(series, pattern)
    if t.ndim == len(pattern):
        return t
    return np.ascontiguousarray(t.transpose((t.ndim - 1,) + tuple(range(t.ndim - 1))))


def reference_force(space, x, y):
    """(a, dy/dt, monitors) of ``ForceEvaluator(space)(x, y, monitors=True)``,
    from F and L1 evaluated apart and every jet gathered by its own
    ``jet_tensor`` call.  A degenerate metric or singular force matrix is
    not checked."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    point = np.concatenate([x, y])
    yv = y.T.copy()[..., None] if point.ndim > 1 else y[:, None]
    qc = space.qc()
    has_em = not space.L1.is_zero()
    flat = space.flat_x
    f = eval_series(space.F, point, 3 if (has_em and not flat) else 2, space.layout)
    e = f * f
    g = 0.5 * _stack(e, "yy")
    ginv = np.linalg.inv(g)
    if flat:
        spray = np.zeros(yv.shape[:-1])
        N = np.zeros(g.shape)
    else:
        e_yx = _stack(e, "yx")
        b = e_yx @ yv - _stack(e, "x")[..., None]
        spray = (0.25 * (ginv @ b))[..., 0]
    if has_em:
        if not flat:
            db = (np.einsum("...ljk,...k->...lj", _stack(e, "yyx"), yv[..., 0])
                  + e_yx - e_yx.mT)
            dginv = -np.einsum("...ia,...abj,...bl->...ilj", ginv, 0.5 * _stack(e, "yyy"), ginv)
            N = 0.25 * (np.einsum("...ilj,...l->...ij", dginv, b[..., 0]) + ginv @ db)
        ls = eval_series(space.L1, point, 2, space.layout)
        ay = _stack(ls, "yy")
        dA = _stack(ls, "yx").mT
        if not flat:
            dA = dA - np.einsum("...ai,...aj->...ij", N, ay)
        F, Ft = dA - dA.mT, -ay
        F_mix_h = ginv @ F
        F_mix_v = ginv @ Ft
        M = np.eye(4) - qc * F_mix_v
        a = np.linalg.solve(M, qc * (F_mix_h @ yv))
    else:
        F = Ft = F_mix_h = F_mix_v = np.zeros(g.shape)
        a = np.zeros(yv.shape)
    dydt = a - 2.0 * spray[..., None]
    a_out, dydt_out = a[..., 0].T, dydt[..., 0].T
    res = qc * (F @ yv) + (qc * Ft - g) @ a
    ortho = "...i,...ij,...j->..."
    mon = {
        "F_value": f.value(),
        "ortho_F": np.einsum(ortho, (F_mix_h @ yv)[..., 0], g, yv[..., 0]),
        "ortho_Ftilde": np.einsum(ortho, (F_mix_v @ a)[..., 0], g, yv[..., 0]),
        "eq_motion_residual": np.max(np.abs(res), axis=(-2, -1)),
    }
    if np.ndim(x) == 1:
        mon = {k: float(v) for k, v in mon.items()}
    return a_out, dydt_out, mon


def tower_force(space, x, y, monitors=False):
    """``ForceEvaluator(space)(x, y, monitors)`` as it ran on the value
    stages of one low-order Tower, before the force was compiled: F to
    order 2 (3 when the field reads the connection), L1 to 2, the spray,
    the connection and the field blocks gathered from the jets of F^2 and
    L1 as member-first stacks, and inv and solve each under
    ``geometry.lapack``.  The same bits are the compiled force's gate."""
    has_em = space.has_field
    order_f = 3 if (has_em and not space.flat_x) else 2
    t = Tower(space, x, y, order_f=order_f, order_l1=2)
    patterns = ("yy",) if t.flat_x else ("yy", "yx", "x", "yyx", "yyy")[:5 if t.kf > 2 else 3]
    e_jets = dict(zip(patterns, jets(t.e, patterns)))
    g, ginv = t.g_stack, t.ginv_stack
    yv = t.y.T.copy()[..., None] if t.batch else t.y[:, None]
    qc = space.qc()
    if not t.flat_x:
        e_yx = e_jets["yx"]
        b = e_yx @ yv - e_jets["x"][..., None]
    if has_em:
        ay, dA = jets(t.l1_series, ("yy", "yx"))  # ay[a, j] = A_{j.a}, symmetric
        dA = dA.mT  # dA[i, j] = dA_j/dx^i
        if not t.flat_x:
            db = (np.einsum("...ljk,...k->...lj", e_jets["yyx"], yv[..., 0]) + e_yx - e_yx.mT)
            dginv = -np.einsum("...ia,...abj,...bl->...ilj", ginv, 0.5 * e_jets["yyy"], ginv)
            N = 0.25 * (np.einsum("...ilj,...l->...ij", dginv, b[..., 0]) + ginv @ db)
            dA = dA - np.einsum("...ai,...aj->...ij", N, ay)  # delta_i A_j
        F, Ft = dA - dA.mT, -ay
        F_mix_h = ginv @ F
        F_mix_v = ginv @ Ft
        M = np.eye(4) - qc * F_mix_v
        det = _umath_linalg.det(M, signature="d->d")
        geometry.check_det(det, "det(I - (q/c)Ft)", SingularForceMatrixError)
        force_h = F_mix_h @ yv
        a = geometry.lapack(_umath_linalg.solve, M, qc * force_h)
    else:
        F = Ft = F_mix_h = F_mix_v = np.zeros(g.shape)
        force_h = F_mix_h @ yv
        a = np.zeros(yv.shape)
    dydt = a.copy() if t.flat_x else a - 2.0 * (0.25 * (ginv @ b))[..., 0][..., None]
    a_out, dydt_out = a[..., 0].T, dydt[..., 0].T
    if not monitors:
        return a_out, dydt_out
    res = qc * (F @ yv) + (qc * Ft - g) @ a
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


# ----------------------------------------------------------------------
# divergence and continuity


def fd_divergence(space, fh, fv, x, y, step=1e-3):
    """div V of the TM field (V^i, Vt^a) at (x, y) with the outer derivatives
    of V^i S and Vt^a S by central differences: the reference for
    ``geometry.divergence``.

    The components ``fh`` (V^i) and ``fv`` (Vt^a) are callables
    ``f(x, y) -> (4, ...) array``, evaluated once on all 16 stencil points
    as a (4, 16) batch and once at (x, y); S and the connection are a
    Tower's values.
    """
    t = Tower(space, x, y, order_f=4, order_l1=0)

    # stencil column d steps +step along chart axis d, column 8 + d steps -step
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

    # sum_i delta_i(V^i S) = sum_i d_i(V^i S) - N^a_i d_a(V^i S)
    delta = np.trace(dh[:4]) - np.einsum("ai,ai->", t.nonlinear_values, dh[4:])
    s0 = t.sqrt_g.value()
    return float((delta + np.trace(dv[4:])) / s0 - t.n_trace_dot_values @ fh(t.x, t.y))


def continuity_defect(space, x, y):
    """The closed form of div J, from the commutators of the adapted frame:

        coupling S div J = 1/2 (R^a_ij P^ij)_{.a} + N^b_{i.a} Q^ia_{.b} - N^b_{i.b} Q^ia_{.a}

    with P^ij = F^ij S, Q^ia = Ft^ia S and R^a_jk = delta_k N^a_j - delta_j N^a_k.
    It uses [delta_j, delta_k] = R^a_jk d_a, [delta_i, d_a] = N^b_{i.a} d_b
    and (R^a_jk)_{.a} = delta_k n_j - delta_j n_k with n_j = N^a_{j.a}.
    Read off an order-(5, 4) Tower: R as the series of delta N, the Berwald
    values, and the fibre jets of the densities.
    """
    t = fibre_tower(space, x, y, order_f=5, order_l1=4)
    em = em_series(t)
    S = t.sqrt_g
    P, Q = em["up_hh"] * S, em["up_hv"] * S
    dn = t.delta(t.nonlinear)  # dn[a, j, k] = delta_k N^a_j
    R = dn - dn.transpose(0, 2, 1)
    curl = 0.5 * np.einsum("aa...->...", jet_tensor(contract("aij,ij->a", R, P), "y"))
    B = t.berwald_values  # B[b, i, a] = N^b_{i.a}
    dQ = jet_tensor(Q, "y")  # dQ[i, a, b] = Q^ia_{.b}
    twist = np.einsum("bia...,iab...->...", B, dQ) - np.einsum("bib...,iaa...->...", B, dQ)
    return (curl + twist) / (space.coupling * S.value())


class UncappedTower(Tower):
    """A Tower with F to ``order_f`` even when F is flat: the reference of
    the flat-F cap, whose stages must read the same coefficients."""

    def __init__(self, space, x, y, order_f=4, order_l1=3):
        super().__init__(space, x, y, order_f, order_l1)
        self.kf = order_f
        self.fused = order_f == order_l1 and space.has_field


def validate_space_loop(scene, probes=8):
    """The load checks of ``scene.validate_space``, probe by probe and
    each probe scaling by scaling, in numpy scalars: the first failing
    (field, probe, lam) raises."""
    xs, ys = geometry.draw_admissible(
        scene.space, scene.rng(), probes, scene.sampling.x_box, scene.sampling.y_box
    )
    lams = (0.5, 1.7)
    pts = np.concatenate([xs, ys])
    stacked = np.concatenate(
        [pts] + [np.concatenate([xs, lam * ys]) for lam in lams], axis=1
    )
    for name, fld in (("F", scene.space.F), ("L1", scene.space.L1)):
        if fld.is_zero():
            continue
        vals = expr.eval_values(fld, stacked).reshape(1 + len(lams), -1)
        for k in range(pts.shape[1]):
            f0 = vals[0, k]
            for m, lam in enumerate(lams, start=1):
                if not (np.isfinite(f0) and np.isfinite(vals[m, k])):
                    raise DomainError("field not finite at point", fld.source())
                r = abs(vals[m, k] - lam * f0)
                if r / max(1.0, abs(f0)) > HOMOGENEITY_TOL:
                    raise HomogeneityViolationError(name, r, point=pts[:, k])
    geometry.metric(scene.space, xs, ys, check_signature=True)
