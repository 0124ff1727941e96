"""Per-layer micro rows at batch 1 and batch 100.

Each row times one layer call on seeded admissible points of the
curved-aniso scene, with tracing off, as the median of repeated calls.
Tower stages are timed incrementally on a fresh tower in dependency
order, so a stage's row is the work that stage adds to the ones before
it.  Together the rows reproduce the per-layer lines of the ROADMAP
baseline table.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from workloads import SCENES

# Tower stages in dependency order, each with the lazy properties it fills.
STAGES = (
    ("f_series", ("f_series",)),
    ("g", ("e", "g", "g_values")),
    ("det", ("det_values", "det_series", "sqrt_g")),
    ("ginv", ("ginv_values", "ginv")),
    ("spray", ("spray", "spray_values", "nonlinear", "nonlinear_values",
               "n_trace_dot_values")),
    ("chern", ("chern", "chern_values")),
    ("curvature", ("curvature_values", "berwald_values")),
)
BATCHES = (1, 100)


def _points(rng, batch):
    """Admissible (x, y) draws: |spatial y| <= 0.26 < y0 keeps F^2 > 0.5 |y|^2."""
    x = np.array([[rng.uniform(-1.0, 1.0) for _ in range(batch)] for _ in range(4)])
    y = np.array([[rng.uniform(0.9, 1.1) for _ in range(batch)]]
                 + [[rng.uniform(-0.15, 0.15) for _ in range(batch)] for _ in range(3)])
    if batch == 1:
        return x[:, 0], y[:, 0]
    return x, y


def _median_time(fn, min_reps=5, budget=0.15, max_reps=200):
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < budget and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def run(seed):
    """Return {metric name: seconds per call}."""
    from finslerem import cli, em, expr, maxwell
    from finslerem.dynamics import ForceEvaluator
    from finslerem.geometry import SpaceDef, Tower
    from finslerem.series import NTERMS, TSeries

    rng = random.Random(f"micro:{seed}")
    f_src, l1_src = SCENES["curved-aniso"]
    space = SpaceDef(F=expr.parse(f_src), L1=expr.parse(l1_src))
    out = {}
    for b in BATCHES:
        sfx = f"-b{b}"
        x, y = _points(rng, b)
        point = np.concatenate([x, y])
        shape = () if b == 1 else (b,)

        for k in range(1, 5):
            np_rng = np.random.default_rng(rng.randrange(2**31))
            s1 = TSeries(np_rng.standard_normal((NTERMS[k],) + shape), k)
            s2 = TSeries(np_rng.standard_normal((NTERMS[k],) + shape), k)
            name = "series.mul_s" if k == 4 else f"series.mul_o{k}_s"
            out[name + sfx] = _median_time(lambda: s1 * s2, budget=0.05)

        out["expr.eval_series_s" + sfx] = _median_time(
            lambda: expr.eval_series(space.F, point, 4))
        out["expr.eval_series_L1_s" + sfx] = _median_time(
            lambda: expr.eval_series(space.L1, point, 3))

        stage_times = {name: [] for name, _ in STAGES}
        em_times, res_times = [], []
        for _ in range(5):
            t = Tower(space, x, y)
            for name, props in STAGES:
                t0 = time.perf_counter()
                for p in props:
                    getattr(t, p)
                stage_times[name].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            em.em_series(t)
            em_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            maxwell.homogeneous_residuals(space, x, y, tower=t)
            res_times.append(time.perf_counter() - t0)
        for name, _ in STAGES[1:]:
            out[f"geometry.{name}_s{sfx}"] = statistics.median(stage_times[name])
        out["em.em_series_s" + sfx] = statistics.median(em_times)
        out["maxwell.residuals_s" + sfx] = statistics.median(res_times)
        out["maxwell.currents_s" + sfx] = _median_time(
            lambda: maxwell.current_sample(space, x, y), min_reps=3)
        # the identity suite takes batched (4, B) points only
        xb, yb = (x[:, None], y[:, None]) if b == 1 else (x, y)
        out["cli.identity_suite_s" + sfx] = _median_time(
            lambda: cli.identity_residuals(space, xb, yb), min_reps=3)

    x, y = _points(rng, 1)
    out["maxwell.continuity_s"] = _median_time(
        lambda: maxwell.continuity_residual(space, x, y), min_reps=3, budget=0.0)
    force = ForceEvaluator(space)
    out["dynamics.force_s"] = _median_time(lambda: force(x, y), min_reps=20)
    kappa = rng.uniform(0.05, 0.95)
    out["em.blend_s"] = _median_time(
        lambda: em.blend_anisotropy(space, y, kappa), min_reps=20)
    return out
