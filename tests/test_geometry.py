import numpy as np
import pytest

from finslerem.errors import DegenerateMetricError, SignatureMismatchError
from finslerem.expr import ScalarField, eval_jet, eval_series, parse
from finslerem.geometry import (
    SpaceDef,
    Tower,
    divergence,
    draw_admissible,
    geometry_sample,
    metric,
)

from conftest import PR_F
from oracles import (
    f_squared,
    pr_christoffel,
    pr_metric,
    pr_riemann,
    richardson_jet,
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
        vh = [parse("1"), parse("2"), parse("0"), parse("1")]
        assert divergence(minkowski, vh, None, x, y) == pytest.approx(0.0, abs=1e-14)

    def test_vertical_euler_field(self, minkowski, probe_point):
        x, y = probe_point
        vv = [parse("y0"), parse("y1"), parse("y2"), parse("y3")]
        assert divergence(minkowski, None, vv, x, y) == pytest.approx(4.0, abs=1e-12)

    def test_callable_matches_fields(self, curved_aniso, probe_point):
        from finslerem.expr import eval_value

        x, y = probe_point
        fields_h = [parse("sin(x0)*y1"), parse("y0"), parse("0"), parse("x1")]
        fields_v = [parse("y1*y0/y0"), parse("0.5*y2"), parse("0"), parse("0")]
        exact = divergence(curved_aniso, fields_h, fields_v, x, y)

        def fh(xs, ys):
            p = np.concatenate([xs, ys])
            return np.array([eval_value(f, p) for f in fields_h])

        def fv(xs, ys):
            p = np.concatenate([xs, ys])
            return np.array([eval_value(f, p) for f in fields_v])

        fd = divergence(curved_aniso, fh, fv, x, y, step=1e-3)
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
