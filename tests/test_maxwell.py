import numpy as np
import pytest

from finslerem.em import em_sample
from finslerem.expr import eval_values, parse
from finslerem import geometry
from finslerem.geometry import SpaceDef, Tower, draw_admissible
from finslerem.maxwell import (
    continuity_residual,
    current_sample,
    homogeneous_residuals,
    horizontal_current,
    vertical_current,
)

from finslerem.scene import load_scene

from conftest import FIXTURES, MINKOWSKI_F, PR_F
from oracles import (continuity_defect, levi_civita_divergence, plain_coordinate_currents,
                     scalar_identity_oracle)


class TestHomogeneousResiduals:
    @pytest.mark.parametrize("cols", [slice(1), slice(8)], ids=["b1", "b8"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_tensor_stages_match_scalar_oracle(self, name, cols):
        scene = load_scene(FIXTURES / f"{name}.scene")
        xs, ys = draw_admissible(scene.space, scene.rng(), 8, scene.sampling.x_box,
                                 scene.sampling.y_box)
        t = Tower(scene.space, xs[:, cols], ys[:, cols])
        want = scalar_identity_oracle(t)
        r = homogeneous_residuals(scene.space, None, None, tower=t)
        got = {"chern": t.chern_values, "curvature": t.curvature_values,
               "berwald": t.berwald_values, "hhh": r.hhh, "hhv": r.hhv, "hvv": r.hvv}
        for key, w in want.items():
            assert got[key].shape == w.shape, key
            scale = max(1.0, float(np.abs(w).max()))
            assert np.abs(got[key] - w).max() <= 1e-14 * scale, key

    def test_closed_field_on_all_scene_families(
        self, minkowski, efield, pr_curved, randers, randers_aniso, curved_aniso
    ):
        for space in (minkowski, efield, pr_curved, randers, randers_aniso, curved_aniso):
            rng = np.random.default_rng(31)
            xs, ys = draw_admissible(space, rng, 100)
            r = homogeneous_residuals(space, xs, ys)
            assert r.max_abs < 1e-8

    def test_isotropic_scene_kills_mixed_sets(self, pr_curved, probe_point):
        x, y = probe_point
        r = homogeneous_residuals(pr_curved, x, y)
        assert np.abs(r.hhv).max() < 1e-12
        assert np.abs(r.hvv).max() == 0.0

    def test_max_abs_is_max_over_blocks(self, curved_aniso, probe_point):
        x, y = probe_point
        r = homogeneous_residuals(curved_aniso, x, y)
        assert r.max_abs == max(
            np.abs(r.hhh).max(), np.abs(r.hhv).max(), np.abs(r.hvv).max()
        )

    def test_flat_cyclic_sum_detects_tampered_field(self, probe_point):
        """Hand-built flat cyclic-sum oracle on a tampered F.

        On a flat isotropic scene the residual reduces to the plain
        cyclic derivative sum.  A constant perturbation of F_12 dies
        under differentiation; an x1-dependent one shows up with the
        perturbation's gradient magnitude.
        """
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("sin(x1)*y0"))
        x, y = probe_point
        h = 1e-4

        def f_of_x(pert):
            def fn(xv):
                s = em_sample(space, xv, y)
                F = s.F_hh.copy()
                F[1, 2] += pert(xv)
                F[2, 1] -= pert(xv)
                return F
            return fn

        def cyclic(fn, xv):
            dF = np.zeros((4, 4, 4))
            for k in range(4):
                xp, xm = xv.copy(), xv.copy()
                xp[k] += h
                xm[k] -= h
                dF[..., k] = (fn(xp) - fn(xm)) / (2 * h)
            out = np.zeros((4, 4, 4))
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        out[i, j, k] = dF[i, j, k] + dF[k, i, j] + dF[j, k, i]
            return out

        base = cyclic(f_of_x(lambda xv: 0.0), x)
        const = cyclic(f_of_x(lambda xv: 0.1), x)
        lin_in_plane = cyclic(f_of_x(lambda xv: 0.1 * xv[1]), x)
        lin = cyclic(f_of_x(lambda xv: 0.1 * xv[0]), x)
        assert np.abs(base).max() < 1e-8
        assert np.abs(const - base).max() < 1e-8  # constants die exactly
        # an x1-gradient on F_12 is still a closed perturbation
        assert np.abs(lin_in_plane).max() < 1e-8
        # an x0-gradient is not: it lands in the (0,1,2) cyclic slot
        assert lin[0, 1, 2] == pytest.approx(0.1, abs=1e-6)
        assert np.abs(lin).max() == pytest.approx(0.1, abs=1e-6)


class TestHorizontalCurrent:
    def test_flat_space_static_charge(self, probe_point):
        """A_0 = sin(x1): the only current component is J^0 = -sin(x1)."""
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("sin(x1)*y0"))
        x, y = probe_point
        J, zeta = horizontal_current(space, x, y)
        assert J[0] == pytest.approx(-np.sin(x[1]), rel=1e-12)
        assert np.abs(J[1:]).max() < 1e-13
        assert np.abs(zeta).max() < 1e-13

    def test_isotropic_curved_levi_civita_oracle(self, pr_curved):
        rng = np.random.default_rng(32)
        xs, ys = draw_admissible(pr_curved, rng, 5)
        for k in range(5):
            x, y = xs[:, k], ys[:, k]
            J, zeta = horizontal_current(pr_curved, x, y)
            want = levi_civita_divergence(pr_curved, x, y)
            assert np.allclose(J, want, rtol=1e-6, atol=1e-7)
            assert np.abs(zeta).max() < 1e-10

    def test_bookkeeping_decomposition(self, aniso_wave, probe_point):
        x, y = probe_point
        J, zeta = horizontal_current(aniso_wave, x, y)
        assert np.abs(zeta).max() > 1e-3
        # with unit coupling the classical part is exactly J - zeta
        t = Tower(aniso_wave, x, y)
        J2, zeta2 = horizontal_current(aniso_wave, x, y, tower=t)
        assert np.array_equal(J, J2) and np.array_equal(zeta, zeta2)

    def test_coupling_linearity(self, aniso_wave, probe_point):
        from dataclasses import replace

        x, y = probe_point
        J1, z1 = horizontal_current(aniso_wave, x, y)
        v1 = vertical_current(aniso_wave, x, y)
        scaled = replace(aniso_wave, coupling=4.0)
        J4, z4 = horizontal_current(scaled, x, y)
        v4 = vertical_current(scaled, x, y)
        assert np.allclose(J4, J1 / 4.0, rtol=1e-14)
        assert np.allclose(v4, v1 / 4.0, rtol=1e-14)
        assert np.array_equal(z4, z1)  # zeta reported raw


class TestVerticalCurrent:
    def test_isotropic_zero(self, pr_curved, probe_point):
        x, y = probe_point
        assert np.abs(vertical_current(pr_curved, x, y)).max() < 1e-10

    def test_fd_oracle_on_defining_formula(self, aniso_wave, probe_point):
        """Jt^a = (1/S) d_i (Ft^{ai} S) recomputed by finite differences."""
        x, y = probe_point
        space = aniso_wave

        def psi(xv):
            s = em_sample(space, xv, y)
            g = Tower(space, xv, y, order_f=2, order_l1=0).g_values
            S = abs(np.linalg.det(g))
            return -s.F_up_hv * S  # [i, a] -> Ft^{ai} S = -Ft^{ia} S

        h = 1e-4
        div = np.zeros(4)
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            div += (psi(xp)[i] - psi(xm)[i]) / (2 * h)
        g0 = Tower(space, x, y, order_f=2, order_l1=0).g_values
        S0 = abs(np.linalg.det(g0))
        want = div / S0
        got = vertical_current(space, x, y)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-8)
        assert np.abs(got).max() > 1e-3

    def test_homogeneity_degree_in_y(self, aniso_wave):
        # A is 0-homogeneous, so its fibre derivative Ft drops one degree
        # and the vertical current scales as 1/lambda
        rng = np.random.default_rng(33)
        xs, ys = draw_admissible(aniso_wave, rng, 30)
        v1 = vertical_current(aniso_wave, xs, ys)
        for lam in (0.5, 2.0):
            v2 = vertical_current(aniso_wave, xs, lam * ys)
            assert np.abs(lam * v2 - v1).max() / max(np.abs(v1).max(), 1e-9) < 1e-8


class TestExteriorCalculusOracle:
    """Both current blocks against plain-coordinate exterior calculus.

    On x-independent generating functions the adapted and plain
    components coincide, so (1/S) d_B (S P^{AB}) built purely from
    finite differences of L1 and F must reproduce both currents,
    including all signs.
    """

    @pytest.mark.parametrize("scene", ["aniso_wave", "randers_aniso_xdep"])
    def test_currents_match_plain_divergence(self, scene, aniso_wave, probe_point):
        if scene == "aniso_wave":
            space = aniso_wave
        else:
            space = SpaceDef(
                F=parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1"),
                L1=parse("0.2*sin(x0)*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
            )
        x, y = probe_point
        J_h, _ = horizontal_current(space, x, y)
        J_v = vertical_current(space, x, y)
        oh, ov = plain_coordinate_currents(space, x, y, step=2e-3)
        assert np.allclose(J_h, oh, rtol=2e-4, atol=2e-6)
        assert np.allclose(J_v, ov, rtol=2e-4, atol=2e-6)


class TestContinuity:
    def test_isotropic_vacuum(self, minkowski, probe_point):
        x, y = probe_point
        assert abs(continuity_residual(minkowski, x, y)) < 1e-14

    def test_isotropic_plane_wave(self, probe_point):
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("sin(x0 - x1)*y0"))
        x, y = probe_point
        r = continuity_residual(space, x, y)
        assert abs(r) < 1e-5
        # and the current itself is nonzero
        J, _ = horizontal_current(space, x, y)
        assert np.abs(J).max() > 0.1

    def test_anisotropic_scene(self, aniso_wave, probe_point):
        x, y = probe_point
        r = continuity_residual(aniso_wave, x, y)
        assert abs(r) < 1e-4

    def test_curved_isotropic_scene(self, pr_curved, probe_point):
        x, y = probe_point
        r = continuity_residual(pr_curved, x, y)
        assert abs(r) < 1e-4


    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_exact_continuity_balance(self, name, batch):
        """div J equals the closed-form defect of the adapted-frame currents,
        and is exactly zero where F does not use x or L1 is zero.  The
        currents read from the continuity's Tower are those of the default
        one, bit for bit."""
        space = load_scene(FIXTURES / f"{name}.scene").space
        xs, ys = draw_admissible(space, np.random.default_rng(41), batch)
        if batch == 1:
            xs, ys = xs[:, 0], ys[:, 0]
        cs = current_sample(space, xs, ys, with_continuity=True)
        base = current_sample(space, xs, ys)
        for got, want in ((cs.J_h, base.J_h), (cs.J_v, base.J_v), (cs.zeta, base.zeta)):
            assert np.array_equal(got, want)
        scale = max(1.0, float(np.abs(cs.J_h).max()), float(np.abs(cs.J_v).max()))
        assert np.abs(cs.continuity - continuity_defect(space, xs, ys)).max() <= 1e-10 * scale
        if space.flat_x or not space.has_field:
            assert np.all(cs.continuity == 0.0)


class TestCurrentSample:
    def test_fields_populated(self, aniso_wave, probe_point):
        x, y = probe_point
        cs = current_sample(aniso_wave, x, y, with_continuity=True)
        assert cs.J_h.shape == (4,)
        assert cs.J_v.shape == (4,)
        assert cs.zeta.shape == (4,)
        assert cs.continuity is not None
        cs2 = current_sample(aniso_wave, x, y)
        assert cs2.continuity is None

    def test_fibre_unit_rescaling(self, aniso_wave, probe_point):
        from dataclasses import replace

        x, y = probe_point
        scaled = replace(aniso_wave, H=2.0)
        a = horizontal_current(scaled, x, y)[0]
        b = horizontal_current(aniso_wave, x, y / 2.0)[0]
        assert np.allclose(a, b, atol=1e-14)
        ca = continuity_residual(scaled, x, y)
        cb = continuity_residual(aniso_wave, x, y / 2.0)
        assert ca == pytest.approx(cb, abs=1e-14)


class TestOneTowerPerSample:
    @pytest.fixture
    def tower_count(self, monkeypatch):
        count = [0]
        init = geometry.Tower.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(geometry.Tower, "__init__", counting_init)
        return count

    def test_current_sample_builds_one_tower(self, curved_aniso, probe_point, tower_count):
        x, y = probe_point
        current_sample(curved_aniso, x, y)
        assert tower_count[0] == 1

    def test_continuity_tower_budget(self, curved_aniso, probe_point, tower_count):
        x, y = probe_point
        current_sample(curved_aniso, x, y, with_continuity=True)
        assert tower_count[0] == 1

    @pytest.mark.parametrize("batch", [1, 16])
    def test_shared_tower_is_bit_identical(self, curved_aniso, batch):
        xs, ys = draw_admissible(curved_aniso, np.random.default_rng(34), batch)
        if batch == 1:
            xs, ys = xs[:, 0], ys[:, 0]
        cs = current_sample(curved_aniso, xs, ys)
        J_h, zeta = horizontal_current(curved_aniso, xs, ys)
        J_v = vertical_current(curved_aniso, xs, ys)
        assert np.array_equal(cs.J_h, J_h)
        assert np.array_equal(cs.zeta, zeta)
        assert np.array_equal(cs.J_v, J_v)
