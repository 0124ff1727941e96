import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import finslerem
from finslerem import dynamics, series
from finslerem.dynamics import ForceEvaluator, integrate
from finslerem.em import (
    anisotropy_ensemble,
    blend_anisotropy,
    em_sample,
    gauge_shift,
    isotropic_truncation,
)
from finslerem.errors import (DegenerateMetricError, SingularForceMatrixError,
                              StepRejectionLimitError)
from finslerem.expr import eval_jet, parse
from finslerem.geometry import SpaceDef, draw_admissible, geometry_sample
from finslerem.scene import load_scene

from conftest import FIXTURES, MINKOWSKI_F
from oracles import f_squared, reference_force, same_bits, tower_force

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


class TestBatchedForce:
    """(4, B) member points run as one batch without mixing members."""

    @pytest.mark.parametrize(
        "name", ["minkowski", "efield", "pr_curved", "randers", "randers_aniso",
                 "curved_aniso", "aniso_wave"],
    )
    def test_batch_of_one_is_the_single_call(self, name, request, probe_point):
        space = request.getfixturevalue(name)
        x, y = probe_point
        force = ForceEvaluator(space)
        a, dydt, mon = force(x, y, monitors=True)
        a1, dydt1, mon1 = force(x[:, None], y[:, None], monitors=True)
        assert a1.shape == dydt1.shape == (4, 1)
        assert np.array_equal(a1[:, 0], a) and np.array_equal(dydt1[:, 0], dydt)
        assert mon1.keys() == mon.keys()
        assert all(mon1[k].shape == (1,) and mon1[k][0] == mon[k] for k in mon)

    def test_identical_members_give_identical_columns(self, curved_aniso, probe_point):
        x, y = probe_point
        other = np.array([1.05, -0.1, 0.05, 0.02])
        xs = np.stack([x, x + 0.1, x], axis=1)
        ys = np.stack([y, other, y], axis=1)
        a, dydt, mon = ForceEvaluator(curved_aniso)(xs, ys, monitors=True)
        assert np.array_equal(a[:, 0], a[:, 2]) and np.array_equal(dydt[:, 0], dydt[:, 2])
        assert all(v[0] == v[2] for v in mon.values())
        # and equal the single calls
        for b in range(3):
            a1, dydt1 = ForceEvaluator(curved_aniso)(xs[:, b], ys[:, b])
            assert np.array_equal(a[:, b], a1)
            assert np.array_equal(dydt[:, b], dydt1)

    def test_singular_member_is_named(self, probe_point):
        x, y = probe_point
        space = SpaceDef(
            F=parse(MINKOWSKI_F),
            L1=parse("0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
        )
        s = em_sample(space, x, y)
        eig = np.linalg.eigvals(s.F_mixed_up_v)
        real = [v.real for v in eig if abs(v.imag) < 1e-12 and abs(v.real) > 1e-6]
        from dataclasses import replace

        singular = replace(space, q=1.0 / real[0], c=1.0)
        xs = np.stack([x, x], axis=1)
        ys = np.stack([np.array([1.0, 0.0, 0.0, 0.0]), y], axis=1)
        with pytest.raises(SingularForceMatrixError, match=r"^member 1: \|det"):
            ForceEvaluator(singular)(xs, ys)
        # a batch of one fails with its lone point's message
        for args in ((x, y), (xs[:, 1:], ys[:, 1:])):
            with pytest.raises(SingularForceMatrixError, match=r"^\|det"):
                ForceEvaluator(singular)(*args)

    def test_nan_metric_raises(self, pr_curved, probe_point):
        # a NaN chart coordinate makes det g NaN: an error, not a NaN force
        x, y = probe_point
        bad = x.copy()
        bad[1] = np.nan
        force = ForceEvaluator(pr_curved)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateMetricError, match=r"^\|det g\| = nan$"):
                force(bad, y)
            with pytest.raises(DegenerateMetricError, match=r"^member 1: \|det g\| = nan$"):
                force(np.stack([x, bad, x], axis=1), np.tile(y[:, None], 3))


class TestReferenceForce:
    """The force, with its shared program and one take per generator, is
    bit-equal to the reference arithmetic (oracles.reference_force)."""

    @staticmethod
    def check(space, x, y):
        a, dydt, mon = ForceEvaluator(space)(x, y, monitors=True)
        ra, rdydt, rmon = reference_force(space, x, y)
        assert np.array_equal(a, ra) and np.array_equal(dydt, rdydt)
        assert mon.keys() == rmon.keys()
        assert all(np.array_equal(mon[k], rmon[k]) for k in mon)

    @pytest.mark.parametrize("members", [0, 3, 6], ids=["lone", "blend3", "blend6"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_fixture_scenes(self, name, members):
        scene = load_scene(FIXTURES / f"{name}.scene")
        space = scene.space
        xs, ys = draw_admissible(space, np.random.default_rng(5), max(members, 2),
                                 scene.sampling.x_box, scene.sampling.y_box)
        if not members:
            for b in range(xs.shape[1]):
                self.check(space, xs[:, b], ys[:, b])
            return
        kappas = [None, 0.0, 0.4, 1.0, 0.25, 0.9][:members]
        ens = anisotropy_ensemble(space, scene.particle.y0, kappas)
        self.check(ens, xs, ys)


class TestCompiledForceIsTheTowerForce:
    """The compiled force is bit for bit the force as it ran on the stages
    of a Tower (oracles.tower_force): a, dy/dt and every monitor, signs of
    zeros included, with and without the monitors."""

    @staticmethod
    def check(space, x, y):
        a, dydt, mon = ForceEvaluator(space)(x, y, monitors=True)
        ra, rdydt, rmon = tower_force(space, x, y, monitors=True)
        assert same_bits(a, ra) and same_bits(dydt, rdydt)
        assert mon.keys() == rmon.keys()
        for k in mon:
            assert same_bits(np.asarray(mon[k]), np.asarray(rmon[k])), k
        a, dydt = ForceEvaluator(space)(x, y)
        assert same_bits(a, ra) and same_bits(dydt, rdydt)

    @pytest.mark.parametrize("width", [0, 1, 7, 64], ids=["lone", "w1", "w7", "w64"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_fixture_scenes(self, name, width):
        scene = load_scene(FIXTURES / f"{name}.scene")
        space = scene.space
        xs, ys = draw_admissible(space, np.random.default_rng(21), max(width, 3),
                                 scene.sampling.x_box, scene.sampling.y_box)
        if width:
            self.check(space, xs[:, :width], ys[:, :width])
        else:
            for b in range(xs.shape[1]):
                self.check(space, xs[:, b], ys[:, b])

    def test_aniso_wave_ensemble(self):
        """The 5 members that compare integrates, at nearby points."""
        scene = load_scene(FIXTURES / "aniso-wave.scene")
        x, y = scene.particle.x0, scene.particle.y0
        space = anisotropy_ensemble(scene.space, y, [None, 0.0, 0.1, 0.2, 0.3])
        self.check(space, np.tile(x[:, None], 5) + 0.01 * np.arange(5),
                   np.tile(y[:, None], 5) + 0.002 * np.arange(5))


@pytest.fixture
def force_calls(monkeypatch):
    """Records the ``monitors`` flag of every ForceEvaluator call."""
    calls = []
    original = dynamics.ForceEvaluator.__call__

    def counted(self, x, y, monitors=False):
        calls.append(monitors)
        return original(self, x, y, monitors=monitors)

    monkeypatch.setattr(dynamics.ForceEvaluator, "__call__", counted)
    return calls


class TestForceCalls:
    """The call that takes a step's monitors is the next step's first stage."""

    def test_rk4_four_calls_per_step(self, curved_aniso, force_calls):
        tr = integrate(curved_aniso, X0, Y0, 0.05, method="rk4", dt=0.01)
        assert len(tr.states) == 6
        assert len(force_calls) == 1 + 4 * 5
        assert sum(force_calls) == 1 + 5

    @pytest.mark.parametrize("members", [1, 2, 5])
    def test_ensemble_four_calls_per_step(self, curved_aniso, force_calls, members):
        ys = np.tile(Y0[:, None], members)
        ys[1] += 0.01 * np.arange(members)
        tr = integrate(curved_aniso, np.zeros((4, members)), ys, 0.05, method="rk4",
                       dt=0.01)
        assert tr.states[-1].x.shape == (4, members)
        assert len(force_calls) == 1 + 4 * 5

    def test_rk45_six_calls_per_attempt(self, curved_aniso, force_calls):
        tr = integrate(curved_aniso, X0, Y0, 0.3, method="rk45", dt=0.2,
                       abs_tol=1e-12, rel_tol=1e-12)
        attempts = sum(force_calls) - 1    # stage 7 of every attempt takes monitors
        accepted = len(tr.states) - 1
        assert attempts > accepted > 0     # some steps were rejected
        assert len(force_calls) == 1 + 6 * attempts

    def test_rk45_one_worldline(self, curved_aniso):
        with pytest.raises(ValueError, match="one worldline"):
            integrate(curved_aniso, np.zeros((4, 2)), np.tile(Y0[:, None], 2), 0.1,
                      method="rk45")


class TestForceCallWork:
    """The work of one force call, on the 5-member aniso-wave ensemble
    that ``compare`` integrates and on a curved-aniso lone point: the
    steps of each program it runs and its series products by (order,
    number of layout variables).  A change that runs more of them raises
    a count.  No composition of order <= 2 runs in a smaller layout
    (``series._restricted``), and the 4x4 linear algebra calls the
    gufuncs beneath ``np.linalg``, not its Python wrappers."""

    # before order-2 compositions ran in the full layout the steps were the
    # same, and the products of sqrt, sin and the reciprocal ran in 4, 1
    # and 4 variables: aniso-wave {(2, 1): 1, (2, 4): 2, (2, 5): 2},
    # curved-aniso {(2, 1): 1, (2, 4): 2, (2, 5): 2, (3, 5): 2}.
    # Before the leaf squares ran as one grouped step (4 of aniso-wave's,
    # 5 of F's and 4 of L1's on curved-aniso) and three of the truncation's
    # four coordinate steps as one stacked step (the y2 and y3 terms share
    # their factor), the steps were
    # aniso-wave {("program", 2): 32}, curved-aniso {("F", 3): 14, ("L1", 2): 15}
    STEPS = {"aniso-wave": {("program", 2): 26}, "curved-aniso": {("F", 3): 9, ("L1", 2): 11}}
    PRODUCTS = {"aniso-wave": {(2, 5): 5}, "curved-aniso": {(2, 5): 5, (3, 5): 2}}

    @staticmethod
    def _case(name):
        scene = load_scene(FIXTURES / f"{name}.scene")
        x, y, space = scene.particle.x0, scene.particle.y0, scene.space
        if name == "aniso-wave":
            space = anisotropy_ensemble(space, y, [None, 0.0, 0.1, 0.2, 0.3])
            x, y = np.tile(x[:, None], 5) + 0.01 * np.arange(5), np.tile(y[:, None], 5)
        tapes = {"program": space.program, "F": space.F._tape, "L1": space.L1._tape}
        return ForceEvaluator(space), x, y, tapes

    @pytest.mark.parametrize("name", list(STEPS))
    def test_steps_and_products(self, name, monkeypatch, fresh_caches):
        force, x, y, tapes = self._case(name)
        force(x, y, monitors=True)  # programs and tables built
        products = []
        product = series._product
        monkeypatch.setattr(series, "_product", lambda a, b, k, n, *rest, **kw:
                            products.append((k, n)) or product(a, b, k, n, *rest, **kw))
        for fn in ("det", "inv", "solve"):
            monkeypatch.setattr(np.linalg, fn, lambda *a: pytest.fail("np.linalg wrapper"))
        force(x, y)
        force(x, y, monitors=True)
        assert {p: products.count(p) for p in set(products)} == {
            p: 2 * count for p, count in self.PRODUCTS[name].items()}
        steps = {(which, order): program[3] for which, tape in tapes.items()
                 for (order, _, _), program in tape._programs.items()
                 if (which, order) in self.STEPS[name]}
        assert {key: len(s) for key, s in steps.items()} == self.STEPS[name]
        for (_, order), program in steps.items():
            restricted = [fn for _, fn, *_ in program if getattr(fn, "func", None)
                          is series._restricted]
            assert not restricted or order >= 3


class TestEnsemble:
    """One rk4 ensemble gives every member's serial worldline."""

    Y_REF = np.array([1.0, 0.1, 0.0, 0.0])

    def test_members_follow_their_blends(self, curved_aniso):
        members = [None, 0.0, 0.4, 1.0, 0.4]
        space = anisotropy_ensemble(curved_aniso, self.Y_REF, members)
        nb = len(members)
        ens = integrate(space, np.zeros((4, nb)), np.tile(Y0[:, None], nb), 0.1, dt=5e-3)
        x_ens, y_ens = ens.endpoint
        for b, kappa in enumerate(members):
            if kappa is None:
                serial_space = isotropic_truncation(curved_aniso, self.Y_REF)
            else:
                serial_space = blend_anisotropy(curved_aniso, self.Y_REF, kappa)
            xe, ye = integrate(serial_space, X0, Y0, 0.1, dt=5e-3).endpoint
            assert np.array_equal(x_ens[:, b], xe)
            assert np.array_equal(y_ens[:, b], ye)
        # kappa = 0 reads s_iso + 0 (s_full - s_iso): the truncation's worldline
        assert np.array_equal(x_ens[:, 1], x_ens[:, 0])
        assert np.array_equal(y_ens[:, 1], y_ens[:, 0])
        # equal members stay equal, bit for bit
        assert np.array_equal(x_ens[:, 2], x_ens[:, 4])
        assert np.array_equal(y_ens[:, 2], y_ens[:, 4])


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

    def test_step_inputs_and_floor(self):
        """dt and t_end must be finite and > 0; a collapsing rk45 step stops.

        Runs in a subprocess with a timeout, because a missing floor shows
        as a hang.  The blow-up y' = y^2, y(0) = 1 (singular at t = 1)
        stands in for the force, so only the step control is under test.
        """
        script = textwrap.dedent("""
            import numpy as np
            from finslerem import dynamics
            from finslerem.errors import StepRejectionLimitError
            from finslerem.expr import parse
            from finslerem.geometry import SpaceDef

            space = SpaceDef(F=parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2)"))
            x0, y0 = np.zeros(4), np.array([1.0, 0.1, 0.0, 0.0])
            for method, dt, t_end in [("rk45", 0.0, 1.0), ("rk4", 0.0, 1.0),
                                      ("rk45", -0.1, 1.0), ("rk4", 1e-3, np.nan),
                                      ("rk45", 1e-3, 0.0), ("rk4", np.inf, 1.0)]:
                try:
                    dynamics.integrate(space, x0, y0, t_end, method=method, dt=dt)
                except ValueError:
                    continue
                raise SystemExit(f"accepted {method} dt={dt} t_end={t_end}")

            class BlowUp:
                def __init__(self, space):
                    pass

                def __call__(self, x, y, monitors=False):
                    a = np.zeros(4)
                    if monitors:
                        mon = dict(F_value=0.0, ortho_F=0.0, ortho_Ftilde=0.0,
                                   eq_motion_residual=0.0)
                        return a, y * y, mon
                    return a, y * y

            dynamics.ForceEvaluator = BlowUp
            try:
                dynamics.integrate(space, x0, np.ones(4), 2.0, method="rk45",
                                   dt=1e-3, abs_tol=1e-9, rel_tol=1e-9)
            except StepRejectionLimitError as e:
                assert "below the minimum" in str(e), e
                print("ok")
        """)
        src = str(pathlib.Path(finslerem.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_rk4_step_bound(self):
        """An rk4 run asking for more than MAX_RK4_STEPS steps is refused at once."""
        script = textwrap.dedent("""
            import numpy as np
            from finslerem.dynamics import MAX_RK4_STEPS, integrate
            from finslerem.expr import parse
            from finslerem.geometry import SpaceDef

            space = SpaceDef(F=parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2)"))
            x0, y0 = np.zeros(4), np.array([1.0, 0.1, 0.0, 0.0])
            for dt, t_end in [(1e-320, 1.0), (1e-9, 1.0), (1e-3, 1e4)]:
                try:
                    integrate(space, x0, y0, t_end, method="rk4", dt=dt)
                except ValueError as e:
                    assert str(MAX_RK4_STEPS) in str(e), e
                    continue
                raise SystemExit(f"accepted rk4 dt={dt} t_end={t_end}")
            tr = integrate(space, x0, y0, 1e-3, method="rk45", dt=1e-9)
            assert tr.states[-1].t == 1e-3
            print("ok")
        """)
        src = str(pathlib.Path(finslerem.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_rk45_step_bound(self, curved_aniso, monkeypatch):
        """An rk45 run stops after MAX_RK4_STEPS accepted steps, naming t
        and the bound; a run that ends within the bound is untouched."""
        monkeypatch.setattr(dynamics, "MAX_RK4_STEPS", 20)
        short = integrate(curved_aniso, X0, Y0, 1e-3, method="rk45", dt=1e-4)
        assert len(short.states) <= 21 and short.states[-1].t == 1e-3
        with pytest.raises(StepRejectionLimitError) as ei:
            integrate(curved_aniso, X0, Y0, 1e9, method="rk45", dt=1e-3)
        t = float(str(ei.value).split("t=")[1].split()[0])
        assert 0 < t < 1e9
        assert "after 20 accepted steps" in str(ei.value)

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
