from dataclasses import replace

import numpy as np
import pytest

from finslerem.em import (
    AnisotropyBlend,
    anisotropy_ensemble,
    blend_anisotropy,
    em_sample,
    gauge_shift,
    isotropic_truncation,
)
from finslerem.expr import (ScalarField, _exact, _Tape, eval_series, eval_value, eval_values,
                            parse)
from finslerem.geometry import SpaceDef, draw_admissible, metric

from conftest import MINKOWSKI_F
from oracles import richardson_jet

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def mi(*vars_):
    alpha = [0] * 8
    for v in vars_:
        alpha[v] += 1
    return tuple(alpha)


class TestPotential:
    def test_linear_generator(self, probe_point):
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("2*x1*y0"))
        x = np.array([0.0, 3.0, 0.0, 0.0])
        y = np.array([1.0, 0.1, 0.0, 0.0])
        s = em_sample(space, x, y)
        A, Av = s.A, s.A_vderiv
        assert np.allclose(A, [6.0, 0.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(Av, 0.0, atol=1e-14)

    def test_position_dependent_linear(self, pr_curved, probe_point):
        x, y = probe_point
        s = em_sample(pr_curved, x, y)
        A, Av = s.A, s.A_vderiv
        want = np.array([0.3 * np.sin(x[1]), 0.0, 0.1 * x[0], 0.0])
        assert np.allclose(A, want, atol=1e-13)
        assert np.allclose(Av, 0.0, atol=1e-14)

    def test_anisotropic_generator_fd_oracle(self, randers_aniso, probe_point):
        x, y = probe_point
        s = em_sample(randers_aniso, x, y)
        A, Av = s.A, s.A_vderiv
        pt = np.concatenate([x, y])
        jet = richardson_jet(randers_aniso.L1, pt, 2, 2e-3)
        want = np.array([jet.partial(mi(4 + i)) for i in range(4)])
        assert np.allclose(A, want, rtol=1e-7, atol=1e-8)
        l1 = eval_value(randers_aniso.L1, pt)
        assert A @ y == pytest.approx(l1, rel=1e-12)
        assert np.allclose(Av @ y, 0.0, atol=1e-12)
        assert np.abs(Av).max() > 1e-2  # genuinely direction-dependent


class TestEMTensor:
    def test_isotropic_efield_components(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("2*x1*y0"))
        s = em_sample(space, x, y)
        want = np.zeros((4, 4))
        want[1, 0] = 2.0
        want[0, 1] = -2.0
        assert np.allclose(s.F_hh, want, atol=1e-13)
        assert np.allclose(s.F_hv, 0.0, atol=1e-14)

    def test_pure_gauge_gives_zero_field(self, probe_point):
        x, y = probe_point
        # L1 = d(lambda)/dx^i y^i for lambda = sin(x0) x2
        space = SpaceDef(
            F=parse(MINKOWSKI_F),
            L1=parse("cos(x0)*x2*y0 + sin(x0)*y2"),
        )
        s = em_sample(space, x, y)
        assert np.abs(s.F_hh).max() < 1e-10
        assert np.abs(s.F_hv).max() < 1e-10

    def test_anisotropic_fd_oracle(self, aniso_wave, probe_point):
        x, y = probe_point
        s = em_sample(aniso_wave, x, y)
        # flat space: F_ij = d_i A_j - d_j A_i, A = fibre gradient of L1
        pt = np.concatenate([x, y])
        jet = richardson_jet(aniso_wave.L1, pt, 3, 2e-3)
        dA = np.array(
            [[jet.partial(mi(4 + j, i)) for j in range(4)] for i in range(4)]
        )
        want_hh = dA - dA.T
        want_hv = -np.array(
            [[jet.partial(mi(4 + i, 4 + a)) for a in range(4)] for i in range(4)]
        )
        assert np.allclose(s.F_hh, want_hh, rtol=1e-6, atol=1e-7)
        assert np.allclose(s.F_hv, want_hv, rtol=1e-6, atol=1e-7)
        assert np.abs(s.F_hv @ y).max() < 1e-10
        assert np.abs(y @ s.F_hv).max() < 1e-10

    def test_em_tensor_tuple_surface(self, randers_aniso, probe_point):
        x, y = probe_point
        s = em_sample(randers_aniso, x, y)
        F_hh, F_hv, mix_h, mix_v, up_hh, up_hv = (
            s.F_hh, s.F_hv, s.F_mixed_up_h, s.F_mixed_up_v, s.F_up_hh, s.F_up_hv
        )
        g, ginv, _ = metric(randers_aniso, x, y)
        assert np.allclose(mix_h, ginv @ F_hh, atol=1e-12)
        assert np.allclose(mix_v, ginv @ F_hv, atol=1e-12)
        assert np.allclose(up_hh, ginv @ F_hh @ ginv.T, atol=1e-12)
        # lowering the raised block reproduces the original
        assert np.allclose(g @ up_hh @ g.T, F_hh, atol=1e-10)
        assert np.allclose(g @ up_hv @ g.T, F_hv, atol=1e-10)

    def test_antisymmetry_exact(self, curved_aniso, probe_point):
        x, y = probe_point
        s = em_sample(curved_aniso, x, y)
        assert np.abs(s.F_hh + s.F_hh.T).max() == 0.0


class TestGravitoEMForm:
    def test_vacuum_gives_fundamental_form(self, randers, probe_point):
        x, y = probe_point
        s = em_sample(randers, x, y)
        o_hh, o_hv = s.omega_hh, s.omega_hv
        g, _, _ = metric(randers, x, y)
        assert np.allclose(o_hh, 0.0, atol=1e-14)
        assert np.allclose(o_hv, -g, atol=1e-14)

    def test_minkowski_vacuum(self, minkowski, probe_point):
        x, y = probe_point
        o_hv = em_sample(minkowski, x, y).omega_hv
        assert np.allclose(o_hv, -ETA, atol=1e-14)

    def test_charged_scene_composition(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("2*x1*y0"), q=1.0, c=1.0)
        s = em_sample(space, x, y)
        assert np.allclose(s.omega_hh, s.F_hh, atol=1e-14)
        assert np.allclose(s.omega_hv, -ETA, atol=1e-13)

    def test_charge_scaling(self, probe_point):
        x, y = probe_point
        space = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("2*x1*y0"), q=3.0, c=2.0)
        s = em_sample(space, x, y)
        assert np.allclose(s.omega_hh, 1.5 * s.F_hh, atol=1e-14)


class TestGaugeShift:
    def test_constant_gauge_is_identity(self, randers_aniso, probe_point):
        x, y = probe_point
        shifted = gauge_shift(randers_aniso, parse("42"))
        a = em_sample(randers_aniso, x, y)
        b = em_sample(shifted, x, y)
        assert np.array_equal(a.F_hh, b.F_hh)
        assert np.array_equal(a.F_hv, b.F_hv)

    def test_gauge_invariance_random_samples(self, curved_aniso):
        rng = np.random.default_rng(21)
        xs, ys = draw_admissible(curved_aniso, rng, 100)
        lams = [parse("x0*x1"), parse("sin(x2)"), parse("exp(0.3*x0) + x3^2")]
        base = em_sample(curved_aniso, xs, ys)
        for lam in lams:
            shifted = gauge_shift(curved_aniso, lam)
            s = em_sample(shifted, xs, ys)
            assert np.abs(s.F_hh - base.F_hh).max() < 1e-9
            assert np.abs(s.F_hv - base.F_hv).max() < 1e-9

    def test_gauge_of_zero_potential_stays_zero_field(self, minkowski, probe_point):
        x, y = probe_point
        shifted = gauge_shift(minkowski, parse("sin(x2)"))
        s = em_sample(shifted, x, y)
        assert np.abs(s.F_hh).max() < 1e-14
        assert np.abs(s.F_hv).max() < 1e-14
        # but the potential itself moved by d(lambda)
        assert s.A[2] == pytest.approx(np.cos(x[2]), abs=1e-14)

    def test_rejects_y_dependent_gauge(self, minkowski):
        with pytest.raises(ValueError):
            gauge_shift(minkowski, parse("y0*x1"))


class TestIsotropicCollapse:
    def test_linear_generator_kills_mixed_block(self, pr_curved):
        rng = np.random.default_rng(22)
        xs, ys = draw_admissible(pr_curved, rng, 50)
        s = em_sample(pr_curved, xs, ys)
        assert np.abs(s.F_hv).max() < 1e-12

    def test_potential_zero_homogeneous_in_y(self, randers_aniso):
        rng = np.random.default_rng(23)
        xs, ys = draw_admissible(randers_aniso, rng, 50)
        a1 = em_sample(randers_aniso, xs, ys).A
        for lam in (0.5, 2.0):
            a2 = em_sample(randers_aniso, xs, lam * ys).A
            assert np.abs(a2 - a1).max() / max(np.abs(a1).max(), 1e-6) < 1e-9


class TestIsotropicTruncation:
    def test_truncation_of_isotropic_scene_is_identity(self, pr_curved, probe_point):
        x, y = probe_point
        iso = isotropic_truncation(pr_curved, np.array([1.0, 0.1, 0.0, 0.0]))
        pts = np.concatenate([x, y])
        assert eval_value(iso.L1, pts) == pytest.approx(
            eval_value(pr_curved.L1, pts), rel=1e-12
        )

    def test_truncation_is_linear_with_matching_potential(self, randers_aniso):
        y_ref = np.array([1.0, 0.1, 0.0, 0.0])
        iso = isotropic_truncation(randers_aniso, y_ref)
        x = np.array([0.2, -0.1, 0.4, 0.0])
        s_iso = em_sample(iso, x, y_ref)
        A_iso, Av_iso = s_iso.A, s_iso.A_vderiv
        A_orig = em_sample(randers_aniso, x, y_ref).A
        assert np.allclose(A_iso, A_orig, atol=1e-12)
        assert np.allclose(Av_iso, 0.0, atol=1e-13)

    def test_blend_endpoints(self, randers_aniso, probe_point):
        x, y = probe_point
        y_ref = np.array([1.0, 0.1, 0.0, 0.0])
        pt = np.concatenate([x, y])
        full = blend_anisotropy(randers_aniso, y_ref, 1.0)
        zero = blend_anisotropy(randers_aniso, y_ref, 0.0)
        iso = isotropic_truncation(randers_aniso, y_ref)
        assert eval_value(full.L1, pt) == pytest.approx(
            eval_value(randers_aniso.L1, pt), rel=1e-12
        )
        assert eval_value(zero.L1, pt) == pytest.approx(
            eval_value(iso.L1, pt), rel=1e-12
        )


class TestAnisotropyBlend:
    """The ensemble's L1 reads, column by column, the tapes of blend_anisotropy."""

    Y_REF = np.array([1.0, 0.1, 0.0, 0.0])

    @staticmethod
    def points(n=5):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, (4, n))
        y = np.vstack([rng.uniform(0.9, 1.1, (1, n)), rng.uniform(-0.15, 0.15, (3, n))])
        return np.concatenate([x, y])

    @pytest.mark.parametrize("order", [0, 2, 3])
    @pytest.mark.parametrize("kappa", [None, 0.0, 0.35, 1.0])
    def test_columns_are_the_blend_tapes(self, curved_aniso, kappa, order):
        pts = self.points()
        ens = anisotropy_ensemble(curved_aniso, self.Y_REF, [kappa] * pts.shape[1])
        assert ens.layout == curved_aniso.layout
        got = eval_series(ens.L1, pts, order, ens.layout)
        if kappa is None:
            want_space = isotropic_truncation(curved_aniso, self.Y_REF)
        else:
            want_space = blend_anisotropy(curved_aniso, self.Y_REF, kappa)
        want = eval_series(want_space.L1, pts, order, ens.layout)
        assert np.array_equal(got.coeffs, want.coeffs)

    def test_mixed_members_do_not_mix(self, curved_aniso):
        pts = self.points(1)
        kappas = [None, 0.0, 0.35, 1.0]
        ens = anisotropy_ensemble(curved_aniso, self.Y_REF, kappas)
        got = eval_series(ens.L1, np.tile(pts, len(kappas)), 3, ens.layout)
        for b, kappa in enumerate(kappas):
            one = replace(ens.L1, kappas=(kappa,))
            assert np.array_equal(got.coeffs[:, b:b + 1],
                                  eval_series(one, pts, 3, ens.layout).coeffs)

    def test_tiled_repeats_each_member(self, curved_aniso):
        ens = anisotropy_ensemble(curved_aniso, self.Y_REF, [None, 0.5])
        assert ens.L1.tiled(3).kappas == (None, None, None, 0.5, 0.5, 0.5)

    def test_zero_potential(self):
        space = SpaceDef(F=parse(MINKOWSKI_F))
        ens = anisotropy_ensemble(space, self.Y_REF, [None, 0.5, 1.0])
        assert ens.L1.is_zero()
        s = eval_series(ens.L1, self.points(3), 2, ens.layout)
        assert not s.coeffs.any()

    def test_truncation_only_is_zero_when_the_truncation_is(self, aniso_wave):
        blend = AnisotropyBlend(ScalarField.zero(), aniso_wave.L1, (None, None))
        assert blend.is_zero()
        assert not replace(blend, kappas=(None, 0.0)).is_zero()

    @pytest.mark.parametrize("kappa, tapes", [(None, "iso"), (1.0, "full"), (0.5, "both")])
    def test_uniform_members_run_one_tape(self, curved_aniso, kappa, tapes, monkeypatch,
                                          fresh_caches):
        ran = []
        run = _Tape.run
        monkeypatch.setattr(_Tape, "run",
                            lambda tape, *args: ran.append(tape.asts) or run(tape, *args))
        ens = anisotropy_ensemble(curved_aniso, self.Y_REF, [kappa] * 3)
        eval_series(ens.L1, self.points(3), 2, ens.layout)
        want = {"iso": [ens.L1.iso], "full": [ens.L1.full],
                "both": [ens.L1.iso, ens.L1.full]}[tapes]
        # one program, over the tapes the members read; a tape is shared by
        # every field of its exact structure, so it may hold another's AST
        assert [[_exact(a) for a in asts] for asts in ran] == [[_exact(f.ast) for f in want]]

    def test_ast_evaluators_refuse_a_blend(self, curved_aniso):
        ens = anisotropy_ensemble(curved_aniso, self.Y_REF, [None, 1.0])
        pts = self.points(2)
        with pytest.raises(TypeError, match="ScalarField"):
            eval_values(ens.L1, pts)
        with pytest.raises(TypeError, match="ScalarField"):
            eval_value(ens.L1, pts[:, 0])
        with pytest.raises(TypeError, match="no single source"):
            ens.L1.source()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_kappa(self, randers_aniso, bad):
        with pytest.raises(ValueError, match="finite"):
            anisotropy_ensemble(randers_aniso, self.Y_REF, [None, 0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            AnisotropyBlend(randers_aniso.L1, randers_aniso.L1, (bad,))
