from dataclasses import replace

import numpy as np
import pytest

from finslerem import dynamics
from finslerem.em import anisotropy_ensemble, em_series
from finslerem.errors import DegenerateMetricError, SignatureMismatchError
from finslerem.expr import ScalarField, _Tape, eval_jet, eval_series, parse
from finslerem.geometry import (
    SpaceDef,
    Tower,
    check_det,
    divergence,
    draw_admissible,
    geometry_sample,
    metric,
)
from finslerem.maxwell import (
    _current_terms,
    continuity_residual,
    homogeneous_residuals,
    horizontal_current,
    vertical_current,
)
from finslerem.scene import load_scene
from finslerem import series
from finslerem.series import BASE_VARS, FIBRE_VARS, TSeries, contract

from conftest import FIXTURES, PR_F, density
from oracles import (
    UncappedTower,
    f_squared,
    fd_divergence,
    neumann_inverse,
    pr_christoffel,
    pr_metric,
    pr_riemann,
    richardson_jet,
    tree_values,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def mi(*vars_):
    alpha = [0] * 8
    for v in vars_:
        alpha[v] += 1
    return tuple(alpha)


def adapted(space, f, x, y):
    """delta_i f = f_{,i} - N^a_i f_{.a}, read off the Tower at (x, y)."""
    t = Tower(space, x, y, order_f=3, order_l1=0)
    s = eval_series(f, t.point, 1)
    return np.array([t.delta_value(s, i) for i in range(4)])


class TestMetric:
    def test_minkowski_constant(self, minkowski, probe_point):
        x, y = probe_point
        g, ginv, f = metric(minkowski, x, y)
        assert np.allclose(g, ETA, atol=1e-14)
        assert np.allclose(ginv, ETA, atol=1e-14)
        assert f == pytest.approx(np.sqrt(y @ ETA @ y))

    def test_quadratic_generator_reproduces_coefficients(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse("sqrt((1 + x1^2)*y0^2 - y1^2 - y2^2 - y3^2)"))
        g, _, _ = metric(space, x, y)
        assert np.allclose(g, np.diag([1 + x[1] ** 2, -1, -1, -1]), atol=1e-12)
        # y-independence of a quadratic generator
        g2, _, _ = metric(space, x, y + np.array([0.05, 0.02, 0.0, 0.01]))
        assert np.allclose(g, g2, atol=1e-12)

    def test_randers_matches_fd_hessian(self, randers, probe_point):
        x, y = probe_point
        g, _, _ = metric(randers, x, y)
        jet = richardson_jet(f_squared(randers), np.concatenate([x, y]), 2, 2e-3)
        g_fd = np.array(
            [[0.5 * jet.partial(mi(4 + i, 4 + j)) for j in range(4)] for i in range(4)]
        )
        assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-8)

    def test_degenerate_metric_raises(self, probe_point):
        x, _ = probe_point
        space = SpaceDef(F=parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2)"))
        # on the null cone g degenerates before F does: craft a degenerate
        # quadratic instead
        flat = SpaceDef(F=parse("sqrt((y0 - y1)^2)"), signature=(1, -1, -1, -1))
        with pytest.raises((DegenerateMetricError, SignatureMismatchError)):
            metric(flat, x, np.array([1.0, 0.2, 0.0, 0.0]))

    def test_signature_mismatch(self, minkowski, probe_point):
        x, y = probe_point
        space = SpaceDef(F=minkowski.F, signature=(1, 1, -1, -1))
        with pytest.raises(SignatureMismatchError):
            metric(space, x, y)


class TestSpray:
    def test_minkowski_zero(self, minkowski, probe_point):
        x, y = probe_point
        assert np.allclose(geometry_sample(minkowski, x, y).G_spray, 0.0, atol=1e-15)

    def test_pseudo_riemannian_christoffel(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(PR_F))
        gam = pr_christoffel(x)
        want = 0.5 * np.einsum("ijk,j,k->i", gam, y, y)
        assert np.allclose(geometry_sample(space, x, y).G_spray, want, rtol=1e-12, atol=1e-13)

    def test_two_homogeneous(self, randers_aniso, probe_point):
        x, y = probe_point
        g1 = geometry_sample(randers_aniso, x, y).G_spray
        g2 = geometry_sample(randers_aniso, x, 2.0 * y).G_spray
        assert np.allclose(g2, 4.0 * g1, rtol=1e-10, atol=1e-12)

    def test_geodesic_euler_lagrange_residual(self, probe_point):
        """Integrating xdd = -2G satisfies the raw variational equations."""
        from finslerem.dynamics import integrate

        space = SpaceDef(F=parse(PR_F))
        x0 = np.zeros(4)
        y0 = np.array([1.0, 0.15, -0.05, 0.02])
        tr = integrate(space, x0, y0, 0.4, method="rk4", dt=1e-3)
        xs = tr.column("x")
        ys = tr.column("y")
        e_field = f_squared(space)
        h = tr.states[1].t - tr.states[0].t

        def p_cov(k):
            jet = eval_jet(e_field, np.concatenate([xs[k], ys[k]]), 1)
            return 0.5 * np.array([jet.partial(mi(4 + i)) for i in range(4)])

        k = len(xs) // 2
        dpdt = (p_cov(k + 1) - p_cov(k - 1)) / (2 * h)
        jet = eval_jet(e_field, np.concatenate([xs[k], ys[k]]), 1)
        dldx = 0.5 * np.array([jet.partial(mi(i)) for i in range(4)])
        assert np.abs(dpdt - dldx).max() < 1e-6


class TestNonlinearConnection:
    def test_minkowski_zero(self, minkowski, probe_point):
        x, y = probe_point
        gs = geometry_sample(minkowski, x, y)
        N, ntr = gs.N, gs.N_trace_dot
        assert np.allclose(N, 0.0)
        assert np.allclose(ntr, 0.0)

    def test_pseudo_riemannian_form(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(PR_F))
        gs = geometry_sample(space, x, y)
        N, ntr = gs.N, gs.N_trace_dot
        gam = pr_christoffel(x)
        assert np.allclose(N, np.einsum("ajk,k->aj", gam, y), rtol=1e-11, atol=1e-12)
        assert np.allclose(ntr, np.einsum("aja->j", gam), rtol=1e-11, atol=1e-12)

    def test_euler_identity_random_spaces(self, curved_aniso):
        rng = np.random.default_rng(2)
        xs, ys = draw_admissible(curved_aniso, rng, 50)
        t = Tower(curved_aniso, xs, ys)
        ny = np.einsum("aj...,j...->a...", t.nonlinear_values, t.y)
        scale = np.maximum(np.abs(t.spray_values).max(axis=0), 1e-3)
        assert (np.abs(ny - 2 * t.spray_values) / scale).max() < 1e-10


class TestAdaptedDerivative:
    def test_flat_space_reduces_to_partial(self, minkowski, probe_point):
        x, y = probe_point
        f = parse("sin(x0)*x1 + y1^2/y0")
        d = adapted(minkowski, f, x, y)
        jet = eval_jet(f, np.concatenate([x, y]), 1)
        want = np.array([jet.partial(mi(i)) for i in range(4)])
        assert np.allclose(d, want, atol=1e-14)

    def test_f_squared_is_horizontally_constant(self, curved_aniso, probe_point):
        x, y = probe_point
        d = adapted(curved_aniso, f_squared(curved_aniso), x, y)
        assert np.abs(d).max() < 1e-8

    def test_x_independent_function(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(PR_F))
        f = parse("y1^2/y0")
        d = adapted(space, f, x, y)
        N = geometry_sample(space, x, y).N
        jet = eval_jet(f, np.concatenate([x, y]), 1)
        fy = np.array([jet.partial(mi(4 + a)) for a in range(4)])
        assert np.allclose(d, -N.T @ fy, atol=1e-12)


class TestChern:
    def test_minkowski_zero(self, minkowski, probe_point):
        x, y = probe_point
        assert np.allclose(geometry_sample(minkowski, x, y).L_chern, 0.0)

    def test_pseudo_riemannian_equals_christoffel(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(PR_F))
        L = geometry_sample(space, x, y).L_chern
        assert np.allclose(L, pr_christoffel(x), rtol=1e-10, atol=1e-11)

    def test_h_metricity_randers(self, curved_aniso):
        rng = np.random.default_rng(4)
        xs, ys = draw_admissible(curved_aniso, rng, 100)
        t = Tower(curved_aniso, xs, ys)
        g = t.g_values
        L = t.chern_values
        dg = np.array(
            [[[t.delta_value(t.g[i][j], k) for k in range(4)] for j in range(4)]
             for i in range(4)]
        )
        resid = dg - np.einsum("mik...,mj...->ijk...", L, g) \
            - np.einsum("mjk...,im...->ijk...", L, g)
        assert np.abs(resid).max() < 1e-9

    def test_deflection_free(self, curved_aniso):
        rng = np.random.default_rng(5)
        xs, ys = draw_admissible(curved_aniso, rng, 100)
        t = Tower(curved_aniso, xs, ys)
        y_low = [t.e.deriv(4 + i) * 0.5 for i in range(4)]
        y_low_v = np.array([s.value() for s in y_low])
        defl = np.array(
            [[t.delta_value(y_low[i], j) for j in range(4)] for i in range(4)]
        ) - np.einsum("mij...,m...->ij...", t.chern_values, y_low_v)
        assert np.abs(defl).max() < 1e-9


class TestCurvature:
    def test_minkowski_zero(self, minkowski, probe_point):
        x, y = probe_point
        assert np.allclose(geometry_sample(minkowski, x, y).R_curv, 0.0)

    def test_pseudo_riemannian_riemann_oracle(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(PR_F))
        R = geometry_sample(space, x, y).R_curv
        want = -np.einsum("abjk,b->ajk", pr_riemann(x), y)
        assert np.allclose(R, want, rtol=1e-9, atol=1e-10)

    def test_antisymmetry(self, curved_aniso, probe_point):
        x, y = probe_point
        R = geometry_sample(curved_aniso, x, y).R_curv
        assert np.allclose(R, -R.transpose(0, 2, 1))
        assert np.abs(R).max() > 1e-3  # the probe scene is genuinely curved


class TestDivergence:
    def test_constant_field_flat(self, minkowski, probe_point):
        x, y = probe_point
        vh = density(minkowski, x, y, [parse("1"), parse("2"), parse("0"), parse("1")])
        vv = density(minkowski, x, y, [parse("0")] * 4)
        assert divergence(minkowski, vh, vv, x, y) == pytest.approx(0.0, abs=1e-14)

    def test_vertical_euler_field(self, minkowski, probe_point):
        x, y = probe_point
        vh = density(minkowski, x, y, [parse("0")] * 4)
        vv = density(minkowski, x, y, [parse("y0"), parse("y1"), parse("y2"), parse("y3")])
        assert divergence(minkowski, vh, vv, x, y) == pytest.approx(4.0, abs=1e-12)

    def test_callable_matches_fields(self, curved_aniso, probe_point):
        x, y = probe_point
        fields_h = [parse("sin(x0)*y1"), parse("y0"), parse("0"), parse("x1")]
        fields_v = [parse("y1*y0/y0"), parse("0.5*y2"), parse("0"), parse("0")]
        exact = divergence(curved_aniso, density(curved_aniso, x, y, fields_h),
                           density(curved_aniso, x, y, fields_v), x, y)

        def fh(xs, ys):
            p = np.concatenate([xs, ys])
            return np.array([tree_values(f, p) for f in fields_h])

        def fv(xs, ys):
            p = np.concatenate([xs, ys])
            return np.array([tree_values(f, p) for f in fields_v])

        fd = fd_divergence(curved_aniso, fh, fv, x, y, step=1e-3)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-6)


class TestGeometrySampleInvariants:
    def test_full_suite_on_random_points(self, curved_aniso):
        rng = np.random.default_rng(6)
        xs, ys = draw_admissible(curved_aniso, rng, 100)
        t = Tower(curved_aniso, xs, ys)
        s = geometry_sample(curved_aniso, xs, ys, tower=t)
        assert np.abs(s.g - s.g.transpose(1, 0, 2)).max() == 0.0
        gg = np.einsum("ij...,jk...->ik...", s.g, s.g_inv)
        assert np.abs(gg - np.eye(4)[:, :, None]).max() < 1e-10
        gyy = np.einsum("ij...,i...,j...->...", s.g, s.y, s.y)
        assert (np.abs(gyy - s.F_value**2) / s.F_value**2).max() < 1e-10
        assert np.abs(s.L_chern - s.L_chern.transpose(0, 2, 1, 3)).max() == 0.0
        assert np.abs(s.R_curv + s.R_curv.transpose(0, 2, 1, 3)).max() == 0.0
        assert np.allclose(s.sqrtG, np.abs(np.linalg.det(np.moveaxis(s.g, 2, 0))))
        # lowered velocity equals the fibre gradient of F^2 / 2
        y_low = np.einsum("ij...,j...->i...", s.g, s.y)
        grad = np.array([t.e.deriv(4 + i).value() for i in range(4)]) * 0.5
        assert (np.abs(y_low - grad) / np.abs(grad).max(axis=0)).max() < 1e-10

    def test_inverse_metric_series_derivatives(self, curved_aniso, probe_point):
        """First derivatives of the Neumann-series inverse vs fd of inv(g)."""
        x, y = probe_point
        t = Tower(curved_aniso, x, y)
        ginv_series = t.ginv
        h = 1e-4
        for d in [1, 5]:  # one base direction, one fibre direction
            pp = np.concatenate([x, y])
            pm = pp.copy()
            pp[d] += h
            pm[d] -= h
            gp = np.linalg.inv(Tower(curved_aniso, pp[:4], pp[4:], order_f=2).g_values)
            gm = np.linalg.inv(Tower(curved_aniso, pm[:4], pm[4:], order_f=2).g_values)
            fd = (gp - gm) / (2 * h)
            got = np.array(
                [[ginv_series[i][j].deriv(d).value() for j in range(4)]
                 for i in range(4)]
            )
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-7)

    def test_metric_zero_homogeneity(self, curved_aniso):
        rng = np.random.default_rng(7)
        xs, ys = draw_admissible(curved_aniso, rng, 30)
        g = Tower(curved_aniso, xs, ys).g_values
        for lam in (0.5, 2.0, 10.0):
            g2 = Tower(curved_aniso, xs, lam * ys).g_values
            assert np.abs(g2 - g).max() / np.abs(g).max() < 1e-9

    def test_geodesic_norm_conservation_short(self, randers):
        from finslerem.dynamics import integrate

        tr = integrate(randers, np.zeros(4), np.array([1.0, 0.1, 0.0, 0.0]),
                       1.0, method="rk4", dt=1e-3)
        f_vals = tr.column("F_value")
        assert np.abs(f_vals - f_vals[0]).max() / f_vals[0] < 1e-8


class TestDrawAdmissible:
    def test_samples_are_timelike(self, randers_aniso):
        rng = np.random.default_rng(8)
        xs, ys = draw_admissible(randers_aniso, rng, 64)
        from finslerem.expr import eval_values

        f = eval_values(randers_aniso.F, np.concatenate([xs, ys], axis=0))
        assert np.all(np.isfinite(f))
        assert np.all(f**2 >= 1e-3 * np.sum(ys * ys, axis=0))

    def test_deterministic_given_seed(self, randers_aniso):
        a = draw_admissible(randers_aniso, np.random.default_rng(9), 16)
        b = draw_admissible(randers_aniso, np.random.default_rng(9), 16)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestValueStages:
    """Each value stage of the Tower equals the value of its series stage."""

    @staticmethod
    def _close(got, want):
        scale = max(1.0, float(np.abs(want).max()))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("cols", [0, slice(1), slice(8)], ids=["lone", "b1", "b8"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_values_match_series(self, name, cols):
        scene = load_scene(FIXTURES / f"{name}.scene")
        xs, ys = draw_admissible(scene.space, scene.rng(), 8, scene.sampling.x_box,
                                 scene.sampling.y_box)
        x, y = xs[:, cols], ys[:, cols]
        t = Tower(scene.space, x, y)

        def values(m):
            return np.array([[s.value() for s in row] for row in m])

        def trailing(stack):
            return np.moveaxis(stack, 0, -1) if t.batch else stack

        self._close(t.g_values, values(t.g))
        self._close(t.ginv_values, values(t.ginv))
        self._close(t.det_values, t.det_series.value())
        self._close(t.spray_values, np.array([s.value() for s in t.spray]))
        self._close(t.nonlinear_values, values(t.nonlinear))
        # the force gathers G and N from the jets of F^2 (to order 3) and
        # the field blocks from those of L1; a Tower reads them off its series
        e_jets = series.jets(Tower(scene.space, x, y, order_f=3, order_l1=2).e,
                             dynamics._CURVED_JETS)
        ginv = np.linalg.inv(0.5 * e_jets[0])
        spray, N = dynamics._connection(e_jets, ginv, y.T[..., None] if t.batch else y[:, None],
                                        True)
        self._close(trailing(spray), np.array([s.value() for s in t.spray]))
        self._close(trailing(N), values(t.nonlinear))
        *_, solved = dynamics._compiled(scene.space, y.ndim - 1)(scene.space.L1,
                                                                 scene.space.qc(), x, y)
        em = em_series(t)
        for stack, block in zip(solved[4:6], ("F_hh", "F_hv")):
            if stack is None:  # no field
                assert not values(em[block]).any()
            else:
                self._close(trailing(stack), values(em[block]))

    #: the value stages a Tower with F to order 3 (``em_sample``'s) can read
    GATHERED = ("g_values", "ginv_values", "det_values", "spray_values", "nonlinear_values")

    @pytest.mark.parametrize("orders", [(4, 3), (5, 4), (3, 2)])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_batched_values_are_c_ordered(self, name, orders):
        """Every value stage of a batched Tower, gathered or read off a
        series, is C-contiguous with its batch axis last, so the einsums
        that read it run over unit-stride columns."""
        scene = load_scene(FIXTURES / f"{name}.scene")
        xs, ys = draw_admissible(scene.space, scene.rng(), 8, scene.sampling.x_box,
                                 scene.sampling.y_box)
        t = Tower(scene.space, xs, ys, *orders)
        names = [n for n in dir(Tower) if n.endswith("_values")]
        assert len(names) == 9 and set(self.GATHERED) <= set(names)
        for n in names if orders[0] >= 4 else self.GATHERED:
            v = getattr(t, n)
            assert v.flags.c_contiguous and v.shape[-1] == 8, n

    def test_degenerate_member_is_named(self):
        # g_11 = -x1^2 vanishes at x1 = 0, so det g is exactly 0 there
        space = SpaceDef(F=parse("sqrt(y0^2 - x1^2*y1^2 - y2^2 - y3^2)"))
        xs = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
        ys = np.tile([[1.0], [0.1], [0.0], [0.0]], 2)
        with pytest.raises(DegenerateMetricError, match=r"^member 1: \|det g\| = 0\.000e\+00$"):
            Tower(space, xs, ys).ginv_values
        with pytest.raises(DegenerateMetricError, match=r"^\|det g\| = 0\.000e\+00$"):
            Tower(space, xs[:, 1], ys[:, 1]).ginv_values

    def test_nan_determinant_is_degenerate(self):
        # |nan| < threshold is False: the check must not read it as regular
        with pytest.raises(DegenerateMetricError, match=r"^\|det g\| = nan$"):
            check_det(np.float64("nan"), "det g", DegenerateMetricError)
        det = np.array([1.0, -2.0, np.nan, 0.5])
        with pytest.raises(DegenerateMetricError, match=r"^member 2: \|det g\| = nan$"):
            check_det(det, "det g", DegenerateMetricError)
        check_det(det[:2], "det g", DegenerateMetricError)


class TestSpraySolve:
    """The spray is the series solution of g G = b / 4, degree by degree."""

    @pytest.mark.parametrize("orders", [(4, 3), (5, 4), (4, 0)])
    @pytest.mark.parametrize("cols", [0, slice(16)], ids=["lone", "b16"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_solves_the_spray_equation(self, name, cols, orders):
        scene = load_scene(FIXTURES / f"{name}.scene")
        xs, ys = draw_admissible(scene.space, scene.rng(), 16, scene.sampling.x_box,
                                 scene.sampling.y_box)
        t = Tower(scene.space, xs[:, cols], ys[:, cols], *orders)
        e = t.e
        y = TSeries.stack([TSeries.coordinate(v, t.point[v], t.kf - 2, t.batch, t.layout)
                           for v in FIBRE_VARS])
        b = contract("lk,k->l", e.grad(FIBRE_VARS).grad(BASE_VARS), y) - e.grad(BASE_VARS)
        G = t.spray
        if not t.flat_x:  # a flat F's spray is zero at F's order
            assert G.order == t.g.order == t.kf - 2
        residual = (contract("ij,j->i", t.g, G) - b * 0.25).coeffs
        assert np.abs(residual).max() <= 1e-13 * max(1.0, np.abs(b.coeffs).max())
        want = contract("il,l->i", neumann_inverse(t.g, t.ginv_values), b) * 0.25
        assert np.abs((G - want).coeffs).max() <= 1e-13 * max(1.0, np.abs(G.coeffs).max())

    @pytest.mark.parametrize("orders", [(4, 3), (5, 4)])
    @pytest.mark.parametrize("cols", [0, slice(7), slice(64)], ids=["lone", "b7", "b64"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_b_is_the_contraction_with_y_bit_for_bit(self, name, cols, orders):
        """The spray's (F^2)_{.l,k} y^k, summed without a product, has the
        bits of the product with the coordinate series, zero signs included."""
        scene = load_scene(FIXTURES / f"{name}.scene")
        xs, ys = draw_admissible(scene.space, scene.rng(), 64, scene.sampling.x_box,
                                 scene.sampling.y_box)
        t = Tower(scene.space, xs[:, cols], ys[:, cols], *orders)
        e_yx = t.e.grad(FIBRE_VARS).grad(BASE_VARS)
        y = TSeries.stack([TSeries.coordinate(v, t.point[v], e_yx.order, t.batch, t.layout)
                           for v in FIBRE_VARS])
        want = contract("lk,k->l", e_yx, y).coeffs
        got = series.coordinate_contraction(e_yx, t.y)
        assert (got.order, got.rank, got.layout) == (e_yx.order, 1, t.layout)
        assert np.array_equal(got.coeffs, want)
        assert np.array_equal(np.signbit(got.coeffs), np.signbit(want))

    def test_solve_is_exact_on_a_triangular_system(self):
        """With powers of two for coefficients, each degree step is exact:
        x_d = a0^{-1} (b_d - (a x)_d)."""
        a = TSeries.zeros((2, 2), 2, layout=(4, 5))
        a.coeffs[:, :, 0] = np.eye(2)
        a.coeffs[0, 1, 1] = 0.5  # a term in y1
        b = TSeries.zeros((2,), 2, layout=(4, 5))
        b.coeffs[1, 0] = 2.0
        x = series.solve(a, b, np.eye(2)).coeffs
        # component 1 is 2; component 0 is -0.5 y1 * 2 = -y1, all at degree 1
        want = np.zeros((2, 6))
        want[1, 0], want[0, 1] = 2.0, -1.0
        assert np.array_equal(x, want)


class TestTiledTower:
    @pytest.mark.parametrize("name", ["curved-aniso", "aniso-wave"])
    def test_repeats_the_f_only_stages(self, name, monkeypatch):
        scene = load_scene(FIXTURES / f"{name}.scene")
        space = scene.space
        xs, ys = draw_admissible(space, scene.rng(), 5, scene.sampling.x_box,
                                 scene.sampling.y_box)
        whole = Tower(space, np.tile(xs, 3), np.tile(ys, 3))
        want_em = em_series(whole)
        base = Tower(space, xs, ys)
        for stage in Tower._F_ONLY:
            getattr(base, stage)
        runs = []
        run = _Tape.run

        def counting(tape, point, order, layout):
            runs.append(point.shape)
            return run(tape, point, order, layout)

        monkeypatch.setattr(_Tape, "run", counting)
        tiled = base.tiled(3, space)
        for stage in Tower._F_ONLY:
            got, want = getattr(tiled, stage), getattr(whole, stage)
            if hasattr(got, "coeffs"):
                got, want = got.coeffs, want.coeffs
            assert np.array_equal(got, want), stage
        em = em_series(tiled)
        for block, s in want_em.items():
            assert np.array_equal(em[block].coeffs, s.coeffs), block
        # F ran before tiling; the tiled Tower ran L1's program once, on the
        # 5 points, and never F's (aniso-wave's Tower is fused)
        assert runs == [(8, 5)]
        assert tiled.fused == (name == "aniso-wave")

    def test_keeps_f(self, curved_aniso, aniso_wave):
        xs, ys = draw_admissible(curved_aniso, np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="keeps the F"):
            Tower(curved_aniso, xs, ys).tiled(2, aniso_wave)


FLAT = ["aniso-wave", "minkowski-efield", "minkowski-vacuum", "planewave", "randers-aniso",
        "randers-efield"]


def _same(a, b):
    """Bit-equal values, or bit-equal coefficients of two series up to the
    lower of their orders."""
    if isinstance(a, TSeries):
        k = min(a.order, b.order)
        a, b = a.truncate(k).coeffs, b.truncate(k).coeffs
    return np.array_equal(a, b)


def _readings(t):
    """What em_sample reads off the Tower t, and from L1 order 3 on what the
    identity suite and the currents read (and their divergence, from L1
    order 4)."""
    space = t.space
    out = {stage: getattr(t, stage) for stage in (
        "f_value", "g_values", "ginv_values", "det_values", "spray_values",
        "nonlinear_values", "chern_values", "curvature_values", "berwald_values",
        "n_trace_dot_values", "e", "g", "ginv", "l1_series", "spray", "nonlinear")}
    out.update(em_series(t))
    if t.kl < 3:
        return out
    out.update(det_series=t.det_series, sqrt_g=t.sqrt_g)
    out.update(zip(("P", "dP", "dQy", "dQx"), _current_terms(t)))
    r = homogeneous_residuals(space, None, None, tower=t)
    out.update(hhh=r.hhh, hhv=r.hhv, hvv=r.hvv, dg=t.delta_value(t.g),
               deflection=t.delta_value(t.e.grad(FIBRE_VARS) * 0.5),
               adapted_f2=t.delta_value(t.e))
    out["J"], out["zeta"] = horizontal_current(space, None, None, tower=t)
    out["Jt"] = vertical_current(space, None, None, tower=t)
    if t.kl >= 4:
        out["divJ"] = continuity_residual(space, None, None, tower=t)
    return out


class TestFlatCap:
    """A flat F is expanded to max(order_l1, 3) at most, and every stage its
    readers use holds the bits of an uncapped Tower."""

    def test_the_flat_fixtures(self):
        flat = [p.stem for p in sorted(FIXTURES.glob("*.scene")) if load_scene(p).space.flat_x]
        assert flat == FLAT

    @pytest.mark.parametrize("orders, capped", [((4, 3), 3), ((5, 4), 4), ((3, 2), 3),
                                                ((2, 2), 2), ((2, 0), 2), ((4, 0), 3)])
    def test_order(self, aniso_wave, curved_aniso, orders, capped):
        x, y = np.zeros(4), np.array([1.0, 0.1, 0.0, 0.0])
        assert Tower(aniso_wave, x, y, *orders).kf == capped
        assert Tower(curved_aniso, x, y, *orders).kf == orders[0]

    @pytest.mark.parametrize("name", FLAT)
    @pytest.mark.parametrize("orders", [(4, 3), (5, 4), (3, 2)])
    def test_stages_read_the_uncapped_coefficients(self, name, orders):
        # (4, 3): the identity suite and current_sample; (5, 4): current_sample
        # with continuity; (3, 2): em_sample
        space = load_scene(FIXTURES / f"{name}.scene").space
        xs, ys = draw_admissible(space, np.random.default_rng(8), 7)
        for x, y in ((xs[:, 0], ys[:, 0]), (xs, ys)):
            capped = Tower(space, x, y, *orders)
            assert capped.fused == (capped.kf == capped.kl and space.has_field)
            want = _readings(UncappedTower(space, x, y, *orders))
            for stage, got in _readings(capped).items():
                assert _same(got, want[stage]), stage

    @pytest.mark.parametrize("name", FLAT)
    def test_tiled_ensemble_reads_the_uncapped_coefficients(self, name):
        # compare's currents: a Tower at the draws tiled for an ensemble
        scene = load_scene(FIXTURES / f"{name}.scene")
        xs, ys = draw_admissible(scene.space, scene.rng(), 5)
        kappas = (None, 0.0, 0.5, 1.0)
        ens = anisotropy_ensemble(scene.space, scene.particle.y0, kappas)
        ens = replace(ens, L1=ens.L1.tiled(5))
        got = Tower(scene.space, xs, ys).tiled(len(kappas), ens)
        want = UncappedTower(scene.space, xs, ys).tiled(len(kappas), ens)
        assert got.kf == 3 and want.kf == 4
        for block, s in em_series(want).items():
            assert _same(em_series(got)[block], s), block
        for current in (horizontal_current, vertical_current):
            for a, b in zip(np.atleast_2d(current(ens, None, None, tower=got)),
                            np.atleast_2d(current(ens, None, None, tower=want))):
                assert np.array_equal(a, b)
