import numpy as np
import pytest

from finslerem.dynamics import ForceEvaluator, integrate
from finslerem.em import em_sample, gauge_shift, blend_anisotropy
from finslerem.errors import SingularForceMatrixError, StepRejectionLimitError
from finslerem.expr import eval_jet, parse
from finslerem.geometry import SpaceDef, geometry_sample

from conftest import MINKOWSKI_F
from oracles import f_squared

X0 = np.zeros(4)
Y0 = np.array([1.0, 0.1, 0.0, 0.0])


def efield_exact(E, t, y0):
    """Closed-form velocity/position for the constant-field linear system."""
    ch, sh = np.cosh(E * t), np.sinh(E * t)
    y = np.array([ch * y0[0] - sh * y0[1], -sh * y0[0] + ch * y0[1], y0[2], y0[3]])
    x = np.array(
        [
            (sh * y0[0] - (ch - 1) * y0[1]) / E,
            (-(ch - 1) * y0[0] + sh * y0[1]) / E,
            y0[2] * t,
            y0[3] * t,
        ]
    )
    return x, y


class TestLorentzAcceleration:
    def test_vacuum_zero(self, randers, probe_point):
        x, y = probe_point
        a, _ = ForceEvaluator(randers)(x, y)
        assert np.allclose(a, 0.0)

    def test_isotropic_classical_force(self, efield, probe_point):
        x, y = probe_point
        a, _ = ForceEvaluator(efield)(x, y)
        s = em_sample(efield, x, y)
        # mixed block vanishes, so the system matrix is the identity
        assert np.allclose(s.F_mixed_up_v, 0.0, atol=1e-14)
        assert np.allclose(a, s.F_mixed_up_h @ y, atol=1e-13)

    def test_fixed_point_oracle_small_anisotropy(self, probe_point):
        x, y = probe_point
        space = SpaceDef(
            F=parse(MINKOWSKI_F),
            L1=parse("0.05*sin(x0)*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
        )
        a, _ = ForceEvaluator(space)(x, y)
        s = em_sample(space, x, y)
        a_fp = np.zeros(4)
        for _ in range(80):
            a_fp = s.F_mixed_up_h @ y + s.F_mixed_up_v @ a_fp
        assert np.allclose(a, a_fp, atol=1e-10)

    def test_matches_series_tower(self, curved_aniso, probe_point):
        x, y = probe_point
        s = em_sample(curved_aniso, x, y)
        gs = geometry_sample(curved_aniso, x, y)
        M = np.eye(4) - s.F_mixed_up_v
        want = np.linalg.solve(M, s.F_mixed_up_h @ y)
        a, dydt = ForceEvaluator(curved_aniso)(x, y)
        assert np.allclose(a, want, atol=1e-13)
        assert np.allclose(dydt, want - 2 * gs.G_spray, atol=1e-13)

    def test_singular_force_matrix(self, probe_point):
        x, y = probe_point
        space = SpaceDef(
            F=parse(MINKOWSKI_F),
            L1=parse("0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
        )
        s = em_sample(space, x, y)
        eig = np.linalg.eigvals(s.F_mixed_up_v)
        real = [v.real for v in eig if abs(v.imag) < 1e-12 and abs(v.real) > 1e-6]
        assert real, "test scene must give a real eigenvalue"
        from dataclasses import replace

        singular = replace(space, q=1.0 / real[0], c=1.0)
        with pytest.raises(SingularForceMatrixError):
            ForceEvaluator(singular)(x, y)


class TestIntegrate:
    def test_straight_line_in_vacuum(self, minkowski):
        tr = integrate(minkowski, X0, Y0, 1.0, method="rk4", dt=1e-2)
        xe, ye = tr.endpoint
        assert np.abs(xe - (X0 + 1.0 * Y0)).max() < 1e-12
        assert np.abs(ye - Y0).max() < 1e-12

    def test_constant_field_matches_closed_form(self, efield):
        tr = integrate(efield, X0, Y0, 10.0, method="rk4", dt=1e-3)
        xe, ye = tr.endpoint
        x_ref, y_ref = efield_exact(0.1, 10.0, Y0)
        scale = np.abs(x_ref).max()
        assert np.abs(xe - x_ref).max() / scale < 1e-6
        assert np.abs(ye - y_ref).max() / np.abs(y_ref).max() < 1e-6

    def test_rk4_order_ratio(self):
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("1.0*x1*y0"))
        t_end = 2.0
        x_ref, y_ref = efield_exact(1.0, t_end, Y0)

        def endpoint_error(dt):
            tr = integrate(space, X0, Y0, t_end, method="rk4", dt=dt)
            xe, ye = tr.endpoint
            return np.abs(np.concatenate([xe - x_ref, ye - y_ref])).max()

        e1 = endpoint_error(0.05)
        e2 = endpoint_error(0.025)
        assert 12.0 < e1 / e2 < 20.0

    def test_rk45_adaptive_matches_rk4(self, curved_aniso):
        y0 = np.array([1.0, 0.12, -0.03, 0.02])
        a = integrate(curved_aniso, X0, y0, 1.0, method="rk4", dt=5e-4)
        b = integrate(curved_aniso, X0, y0, 1.0, method="rk45", dt=1e-2,
                      abs_tol=1e-11, rel_tol=1e-10)
        xa, ya = a.endpoint
        xb, yb = b.endpoint
        assert np.abs(xa - xb).max() < 1e-7
        assert np.abs(ya - yb).max() < 1e-7
        assert b.method == "rk45-adaptive"

    def test_adaptive_rejection_limit(self, curved_aniso):
        with pytest.raises(StepRejectionLimitError):
            integrate(curved_aniso, X0, Y0, 1.0, method="rk45", dt=1.0,
                      abs_tol=1e-16, rel_tol=1e-16, max_rejections=2)

    def test_unknown_method(self, minkowski):
        with pytest.raises(ValueError):
            integrate(minkowski, X0, Y0, 1.0, method="euler")

    def test_integration_error_carries_time(self):
        # the worldline crosses the null cone of the root expression
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("3.0*x1*y0"))
        from finslerem.errors import FinslerEMError

        with pytest.raises(FinslerEMError) as ei:
            integrate(space, X0, np.array([1.0, 0.99, 0.0, 0.0]), 5.0,
                      method="rk4", dt=1e-2)
        assert "at t=" in str(ei.value)


class TestMonitors:
    def test_orthogonality_every_step_every_scene(
        self, minkowski, efield, pr_curved, randers, randers_aniso, aniso_wave
    ):
        for space in (minkowski, efield, pr_curved, randers, randers_aniso, aniso_wave):
            tr = integrate(space, X0, Y0, 1.0, method="rk4", dt=5e-3)
            assert tr.max_monitor("ortho_F") < 1e-8
            assert tr.max_monitor("ortho_Ftilde") < 1e-8

    def test_equations_of_motion_residual(self, curved_aniso):
        tr = integrate(curved_aniso, X0, Y0, 1.0, method="rk4", dt=5e-3)
        assert tr.max_monitor("eq_motion_residual") < 1e-8

    def test_euler_lagrange_residual_along_path(self, curved_aniso):
        """Direct variational check: d/dt(dL/dy) - dL/dx = 0 on the worldline.

        Pins the sign of both force terms independently of the tensor
        machinery (the mixed-block term flips this residual to O(force)
        if its sign is wrong).
        """
        space = curved_aniso
        tr = integrate(space, X0, np.array([1.0, 0.15, -0.05, 0.02]), 0.5,
                       method="rk4", dt=1e-3)
        xs, ys, ts = tr.column("x"), tr.column("y"), tr.column("t")
        e_field = f_squared(space)
        qc = space.qc()

        def dl_dy(k):
            pt = np.concatenate([xs[k], ys[k]])
            ej = eval_jet(e_field, pt, 1)
            lj = eval_jet(space.L1, pt, 1)
            return np.array(
                [0.5 * ej.partial(_mi(4 + i)) + qc * lj.partial(_mi(4 + i))
                 for i in range(4)]
            )

        def dl_dx(k):
            pt = np.concatenate([xs[k], ys[k]])
            ej = eval_jet(e_field, pt, 1)
            lj = eval_jet(space.L1, pt, 1)
            return np.array(
                [0.5 * ej.partial(_mi(i)) + qc * lj.partial(_mi(i)) for i in range(4)]
            )

        h = ts[1] - ts[0]
        for k in (100, 250, 400):
            resid = (dl_dy(k + 1) - dl_dy(k - 1)) / (2 * h) - dl_dx(k)
            assert np.abs(resid).max() < 1e-6

    def test_gauge_invariant_trajectories(self, curved_aniso):
        lams = [parse("x0*x1"), parse("sin(x2)"), parse("0.2*x0^2")]
        base = integrate(curved_aniso, X0, Y0, 1.0, method="rk4", dt=2e-3)
        xb, yb = base.endpoint
        for lam in lams:
            tr = integrate(gauge_shift(curved_aniso, lam), X0, Y0, 1.0,
                           method="rk4", dt=2e-3)
            xe, ye = tr.endpoint
            assert np.abs(xe - xb).max() < 1e-7
            assert np.abs(ye - yb).max() < 1e-7

    def test_isotropic_limit_linear_in_kappa(self, aniso_wave):
        """Endpoints converge linearly to the isotropic trajectory."""
        from finslerem.em import isotropic_truncation

        iso = isotropic_truncation(aniso_wave, Y0)
        base = integrate(iso, X0, Y0, 1.0, method="rk4", dt=5e-3)
        xb, yb = base.endpoint

        def delta(kappa):
            sp = blend_anisotropy(aniso_wave, Y0, kappa)
            tr = integrate(sp, X0, Y0, 1.0, method="rk4", dt=5e-3)
            xe, ye = tr.endpoint
            return np.linalg.norm(xe - xb) + np.linalg.norm(ye - yb)

        d1, d2 = delta(0.1), delta(0.05)
        assert d1 > 0
        assert d1 / d2 == pytest.approx(2.0, rel=0.15)


class TestHelpers:
    def test_trajectory_columns(self, minkowski):
        tr = integrate(minkowski, X0, Y0, 0.1, method="rk4", dt=1e-2)
        assert len(tr.states) == 11
        ts = tr.column("t")
        assert np.all(np.diff(ts) > 0)
        assert tr.dt == pytest.approx(1e-2)


def _mi(*vars_):
    alpha = [0] * 8
    for v in vars_:
        alpha[v] += 1
    return tuple(alpha)
