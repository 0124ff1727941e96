"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from finslerem.dynamics import integrate
from finslerem.em import em_sample, gauge_shift
from finslerem.expr import ScalarField, eval_jet, eval_values, parse
from finslerem.geometry import SpaceDef, Tower, draw_admissible
from finslerem.maxwell import (
    continuity_residual,
    homogeneous_residuals,
    horizontal_current,
    vertical_current,
)
from finslerem.scene import load_scene

from conftest import FIXTURES, MINKOWSKI_F
from oracles import f_squared, levi_civita_divergence, richardson_jet
from test_dynamics import efield_exact

CORE_SCENES = [
    "minkowski-vacuum.scene",
    "minkowski-efield.scene",
    "pr-curved.scene",
    "randers-vacuum.scene",
    "randers-aniso.scene",
]
EXTRA_SCENES = ["planewave.scene", "aniso-wave.scene", "curved-aniso.scene"]


def _verdict(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _scene(name):
    return load_scene(FIXTURES / name)


@pytest.fixture(scope="module")
def efield_full_run():
    scene = _scene("minkowski-efield.scene")
    it = scene.integrate
    return integrate(scene.space, scene.particle.x0, scene.particle.y0,
                     it.t_end, method="rk4", dt=it.dt)


@pytest.fixture(scope="module")
def randers_full_run():
    scene = _scene("randers-vacuum.scene")
    it = scene.integrate
    return integrate(scene.space, scene.particle.x0, scene.particle.y0,
                     it.t_end, method="rk4", dt=it.dt)


def test_criterion_1_closed_field_identity_suite():
    """dF = 0 residuals <= 1e-8 at 100 seeded samples per fixture, < 10 s."""
    start = time.time()
    worst = {}
    for name in CORE_SCENES:
        scene = _scene(name)
        xs, ys = draw_admissible(
            scene.space, scene.rng(), 100, scene.sampling.x_box, scene.sampling.y_box
        )
        worst[name] = homogeneous_residuals(scene.space, xs, ys).max_abs
    elapsed = time.time() - start
    ok = all(v <= 1e-8 for v in worst.values()) and elapsed < 10.0
    _verdict(
        1, ok,
        f"max residual {max(worst.values()):.2e} over 5 scenes x 100 samples "
        f"in {elapsed:.1f} s",
    )


def test_criterion_2_isotropic_reduction():
    """Curved isotropic scene: J_h matches the Levi-Civita oracle; no anisotropy."""
    scene = _scene("pr-curved.scene")
    space = scene.space
    xs, ys = draw_admissible(space, scene.rng(), 100,
                             scene.sampling.x_box, scene.sampling.y_box)
    s = em_sample(space, xs, ys)
    _, zeta = horizontal_current(space, xs, ys)
    jv = vertical_current(space, xs, ys)
    aniso_max = max(np.abs(s.F_hv).max(), np.abs(zeta).max(), np.abs(jv).max())

    rel_err = 0.0
    for k in range(5):
        x, y = xs[:, k], ys[:, k]
        J, _ = horizontal_current(space, x, y)
        want = levi_civita_divergence(space, x, y)
        rel_err = max(rel_err, np.abs(J - want).max() / max(np.abs(want).max(), 1.0))
    ok = rel_err <= 1e-6 and aniso_max <= 1e-10
    _verdict(
        2, ok,
        f"oracle deviation {rel_err:.2e}, anisotropy leakage {aniso_max:.2e}",
    )


def test_criterion_3_lorentz_trajectory_vs_closed_form(efield_full_run):
    """Constant-field endpoint within rel 1e-6; RK4 order ratio in [12, 20]."""
    xe, ye = efield_full_run.endpoint
    x_ref, y_ref = efield_exact(0.1, 10.0, np.array([1.0, 0.1, 0.0, 0.0]))
    err = max(
        np.abs(xe - x_ref).max() / np.abs(x_ref).max(),
        np.abs(ye - y_ref).max() / np.abs(y_ref).max(),
    )

    strong = SpaceDef(F=parse(MINKOWSKI_F), L1=parse("1.0*x1*y0"))
    x_r, y_r = efield_exact(1.0, 2.0, np.array([1.0, 0.1, 0.0, 0.0]))

    def endpoint_error(dt):
        tr = integrate(strong, np.zeros(4), np.array([1.0, 0.1, 0.0, 0.0]),
                       2.0, method="rk4", dt=dt)
        xa, ya = tr.endpoint
        return np.abs(np.concatenate([xa - x_r, ya - y_r])).max()

    ratio = endpoint_error(0.05) / endpoint_error(0.025)
    ok = err <= 1e-6 and 12.0 <= ratio <= 20.0
    _verdict(3, ok, f"endpoint rel err {err:.2e}, halving ratio {ratio:.1f}")


def test_criterion_4_orthogonality_monitors(efield_full_run, randers_full_run):
    """Both force terms orthogonal to the velocity at every accepted step."""
    worst = max(
        efield_full_run.max_monitor("ortho_F"),
        efield_full_run.max_monitor("ortho_Ftilde"),
        randers_full_run.max_monitor("ortho_F"),
        randers_full_run.max_monitor("ortho_Ftilde"),
    )
    for name in CORE_SCENES[:1] + CORE_SCENES[2:3] + CORE_SCENES[4:] + EXTRA_SCENES:
        scene = _scene(name)
        tr = integrate(scene.space, scene.particle.x0, scene.particle.y0,
                       min(scene.integrate.t_end, 1.0), method="rk4",
                       dt=scene.integrate.dt)
        worst = max(worst, tr.max_monitor("ortho_F"), tr.max_monitor("ortho_Ftilde"))
    ok = worst <= 1e-8
    _verdict(4, ok, f"max |g(force, y)| over all fixtures {worst:.2e}")


def test_criterion_5_gauge_invariance():
    """Three gauge shifts per scene: fields to 1e-9, endpoints to 1e-7."""
    lams = [parse("x0*x1"), parse("sin(x2)"), parse("0.3*x0^2 + x3")]
    worst_f = 0.0
    worst_traj = 0.0
    for name in ["minkowski-efield.scene", "pr-curved.scene",
                 "randers-aniso.scene", "curved-aniso.scene"]:
        scene = _scene(name)
        space = scene.space
        xs, ys = draw_admissible(space, scene.rng(), 100,
                                 scene.sampling.x_box, scene.sampling.y_box)
        base = em_sample(space, xs, ys)
        tr0 = integrate(space, scene.particle.x0, scene.particle.y0, 1.0,
                        method="rk4", dt=5e-3)
        xb, yb = tr0.endpoint
        for lam in lams:
            shifted = gauge_shift(space, lam)
            s = em_sample(shifted, xs, ys)
            worst_f = max(worst_f, np.abs(s.F_hh - base.F_hh).max(),
                          np.abs(s.F_hv - base.F_hv).max())
            tr = integrate(shifted, scene.particle.x0, scene.particle.y0, 1.0,
                           method="rk4", dt=5e-3)
            xe, ye = tr.endpoint
            worst_traj = max(worst_traj, np.abs(xe - xb).max(), np.abs(ye - yb).max())
    ok = worst_f <= 1e-9 and worst_traj <= 1e-7
    _verdict(5, ok, f"field shift {worst_f:.2e}, endpoint shift {worst_traj:.2e}")


def test_criterion_6_euler_homogeneity_suite():
    """Potential/field contractions and the connection trace identity."""
    worst = 0.0
    for name in CORE_SCENES + EXTRA_SCENES:
        scene = _scene(name)
        space = scene.space
        xs, ys = draw_admissible(space, scene.rng(), 100,
                                 scene.sampling.x_box, scene.sampling.y_box)
        t = Tower(space, xs, ys)
        s = em_sample(space, xs, ys, tower=t)
        l1 = eval_values(space.L1, t.point)
        scale = np.maximum(np.abs(l1), 1.0)
        worst = max(worst, (np.abs(np.einsum("i...,i...->...", s.A, ys) - l1) / scale).max())
        worst = max(worst, np.abs(np.einsum("ia...,a...->i...", s.A_vderiv, ys)).max())
        worst = max(worst, np.abs(np.einsum("ia...,i...->a...", s.F_hv, ys)).max())
        worst = max(worst, np.abs(np.einsum("ia...,a...->i...", s.F_hv, ys)).max())
        ny = np.einsum("aj...,j...->a...", t.nonlinear_values, ys)
        gscale = np.maximum(np.abs(t.spray_values).max(axis=0), 1.0)
        worst = max(worst, (np.abs(ny - 2 * t.spray_values) / gscale).max())
    ok = worst <= 1e-9
    _verdict(6, ok, f"max Euler/contraction residual {worst:.2e} over 8 scenes")


def test_criterion_7_continuity():
    """|div J| small at all interior grid points.  The tolerances were set for
    a finite-difference div J; the exact one is 0 on both scenes."""
    grids = {
        "aniso-wave.scene": (1e-4, [(x0, 0.0, 0.0, 0.0, y0v, y1v, 0.0, 0.0)
                                    for x0 in (0.2, 0.5, 0.8)
                                    for y0v in (0.95, 1.05)
                                    for y1v in (0.05, 0.12)]),
        "planewave.scene": (1e-5, [(x0, x1, 0.0, 0.0, y0v, 0.1, 0.0, 0.0)
                                   for x0 in (0.0, 0.4)
                                   for x1 in (0.1, 0.7)
                                   for y0v in (0.95, 1.05)]),
    }
    report = []
    ok = True
    for name, (tol, points) in grids.items():
        space = _scene(name).space
        worst = 0.0
        for p in points:
            p = np.asarray(p)
            worst = max(worst, abs(continuity_residual(space, p[:4], p[4:])))
        report.append(f"{name.split('.')[0]} {worst:.2e} (tol {tol:.0e})")
        ok = ok and worst <= tol
    _verdict(7, ok, "max |div J|: " + ", ".join(report))


def test_criterion_8_ad_vs_fd():
    """All jets the tower consumes vs the fd oracle, 1000 seeded draws.

    Orders 1..3 carry the strict 1e-6 bound; order-4 coefficients are
    checked against the oracle at the central-difference floor (the
    closed-field suite pins them far tighter than fd ever could).
    """
    rng = np.random.default_rng(2024)
    pool = []
    for name in CORE_SCENES + EXTRA_SCENES:
        scene = _scene(name)
        pool.append((f_squared(scene.space), scene))
        if not scene.space.L1.is_zero():
            pool.append((scene.space.L1, scene))

    worst_low = 0.0
    worst4 = 0.0
    n4 = 0
    for k in range(1000):
        field, scene = pool[int(rng.integers(0, len(pool)))]
        xs, ys = draw_admissible(scene.space, rng, 1,
                                 scene.sampling.x_box, scene.sampling.y_box)
        pt = np.concatenate([xs[:, 0], ys[:, 0]])
        order = int(rng.integers(1, 4))
        exact = eval_jet(field, pt, order)
        ref = richardson_jet(field, pt, order, 4e-3)
        scale = max(1.0, abs(exact.value),
                    *(abs(v) for v in exact.partials.values()))
        err = max(abs(ref.partials[a] - v) for a, v in exact.partials.items())
        worst_low = max(worst_low, err / scale)
        if k % 20 == 0:  # order-4 spot checks at the fd floor
            exact4 = eval_jet(field, pt, 4)
            ref4 = richardson_jet(field, pt, 4, 5e-3)
            scale4 = max(1.0, *(abs(v) for v in exact4.partials.values()))
            err4 = max(abs(ref4.partials[a] - v) for a, v in exact4.partials.items())
            worst4 = max(worst4, err4 / scale4)
            n4 += 1
    ok = worst_low <= 1e-6 and worst4 <= 1e-3
    _verdict(
        8, ok,
        f"orders 1-3: {worst_low:.2e} (1000 draws); order 4: {worst4:.2e} "
        f"fd-floor ({n4} draws)",
    )


def test_criterion_9_geodesic_conservation(randers_full_run):
    """Generating-function drift < 1e-6 over 1e4 fixed steps, vacuum Randers."""
    f_vals = randers_full_run.column("F_value")
    assert len(f_vals) == 10001
    drift = np.abs(f_vals - f_vals[0]).max() / f_vals[0]
    ok = drift < 1e-6
    _verdict(9, ok, f"relative drift {drift:.2e} over {len(f_vals) - 1} steps")
