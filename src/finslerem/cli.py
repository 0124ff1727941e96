"""Command-line front end: validate / trajectory / currents / compare.

Exit codes are a stable contract: 0 all good, 1 identity failure or
runtime error, 2 scene load error.  Output is deterministic for a fixed
scene and seed; floats are printed with 17 significant digits so runs
can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import expr
from .dynamics import integrate
from .em import em_sample, isotropic_truncation, blend_anisotropy
from .errors import (
    DegenerateMetricError,
    FinslerEMError,
    HomogeneityViolationError,
    SceneParseError,
    SignatureMismatchError,
)
from .geometry import Tower, draw_admissible, geometry_sample
from .maxwell import current_sample, homogeneous_residuals, horizontal_current
from .scene import load_scene

LOAD_ERRORS = (
    SceneParseError,
    HomogeneityViolationError,
    SignatureMismatchError,
    DegenerateMetricError,
)


class _LoadFailure(Exception):
    """Wrapper distinguishing load-phase failures from run-phase ones."""


def _load(path):
    try:
        return load_scene(path)
    except LOAD_ERRORS as e:
        raise _LoadFailure(str(e)) from e


def _fmt(v):
    return f"{float(v):.17g}"


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ----------------------------------------------------------------------
# identity suite


def identity_residuals(space, xs, ys):
    """Named max-residuals of the full invariant suite over a batch.

    Residuals tagged relative in their contracts are normalized before
    aggregation, so a single tolerance applies across the report.
    """
    t = Tower(space, xs, ys)
    gs = geometry_sample(space, xs, ys, tower=t)
    es = em_sample(space, xs, ys, tower=t)
    mr = homogeneous_residuals(space, xs, ys, tower=t)
    _, zeta = horizontal_current(space, xs, ys, tower=t)

    g, ginv, y = gs.g, gs.g_inv, t.y
    L = gs.L_chern
    e = t.e
    f2 = gs.F_value**2

    out = {}
    out["metric_symmetry"] = np.abs(g - g.transpose(1, 0, 2)).max()
    gg = np.einsum("ij...,jk...->ik...", g, ginv)
    out["metric_inverse"] = np.abs(gg - np.eye(4)[:, :, None]).max()
    gyy = np.einsum("ij...,i...,j...->...", g, y, y)
    out["finsler_norm"] = (np.abs(gyy - f2) / np.abs(f2)).max()
    ny = np.einsum("aj...,j...->a...", gs.N, y)
    scale_g = np.maximum(np.abs(gs.G_spray).max(axis=0), 1.0)
    out["connection_euler"] = (np.abs(ny - 2 * gs.G_spray) / scale_g).max()
    out["chern_symmetry"] = np.abs(L - L.transpose(0, 2, 1, 3)).max()
    out["curvature_antisymmetry"] = np.abs(
        gs.R_curv + gs.R_curv.transpose(0, 2, 1, 3)
    ).max()

    dg = np.array(
        [[[t.delta_value(t.g[i][j], k) for k in range(4)] for j in range(4)]
         for i in range(4)]
    )  # dg[i, j, k] = delta_k g_ij
    hmet = dg - np.einsum("mik...,mj...->ijk...", L, g) \
        - np.einsum("mjk...,im...->ijk...", L, g)
    out["h_metricity"] = np.abs(hmet).max()

    y_low_series = [e.deriv(4 + i) * 0.5 for i in range(4)]
    y_low = np.array([s.value() for s in y_low_series])
    defl = np.array(
        [[t.delta_value(y_low_series[i], j) for j in range(4)] for i in range(4)]
    ) - np.einsum("mij...,m...->ij...", L, y_low)
    out["deflection"] = np.abs(defl).max()

    out["adapted_f2"] = (
        np.abs(np.array([t.delta_value(e, i) for i in range(4)])) / np.abs(f2)
    ).max()

    t2 = Tower(space, xs, 2.0 * ys, order_f=2, order_l1=0)
    out["metric_y_homogeneity"] = (
        np.abs(t2.g_values - g).max() / max(np.abs(g).max(), 1.0)
    )

    l1v = expr.eval_values(space.L1, t.point)
    ay = np.einsum("i...,i...->...", es.A, y)
    out["potential_euler"] = (np.abs(ay - l1v) / np.maximum(np.abs(l1v), 1.0)).max()
    out["potential_vertical_euler"] = np.abs(
        np.einsum("ia...,a...->i...", es.A_vderiv, y)
    ).max()
    out["ft_velocity_h"] = np.abs(np.einsum("ia...,i...->a...", es.F_hv, y)).max()
    out["ft_velocity_v"] = np.abs(np.einsum("ia...,a...->i...", es.F_hv, y)).max()
    out["f_antisymmetry"] = np.abs(es.F_hh + es.F_hh.transpose(1, 0, 2)).max()
    lowered = np.einsum("ik...,kl...,jl...->ij...", g, es.F_up_hh, g)
    out["raise_lower_roundtrip"] = np.abs(lowered - es.F_hh).max()

    out["closed_field_hhh"] = np.abs(mr.hhh).max()
    out["closed_field_hhv"] = np.abs(mr.hhv).max()
    out["closed_field_hvv"] = np.abs(mr.hvv).max()

    info = {"anisotropy_current_zeta": np.abs(zeta).max()}
    return {k: float(v) for k, v in out.items()}, {k: float(v) for k, v in info.items()}


def run_validation(scene, samples, seed, tol):
    rng = np.random.default_rng(seed)
    xs, ys = draw_admissible(
        scene.space, rng, samples, scene.sampling.x_box, scene.sampling.y_box
    )
    errors = 0
    try:
        residuals, info = identity_residuals(scene.space, xs, ys)
    except FinslerEMError:
        # batch hit a bad point: fall back to per-sample, tally failures
        residuals, info = {}, {}
        used = 0
        for k in range(xs.shape[1]):
            try:
                r, inf = identity_residuals(
                    scene.space, xs[:, k : k + 1], ys[:, k : k + 1]
                )
            except FinslerEMError:
                errors += 1
                continue
            used += 1
            for name, v in r.items():
                residuals[name] = max(residuals.get(name, 0.0), v)
            for name, v in inf.items():
                info[name] = max(info.get(name, 0.0), v)
        if used == 0:
            raise
    rows = [(name, v, v <= tol) for name, v in residuals.items()]
    rows += [(name, v, None) for name, v in info.items()]
    return rows, errors


def _emit_report(rows, errors, samples, fmt, out):
    ok = all(p for _, _, p in rows if p is not None)
    if fmt == "json":
        payload = {
            "identities": [
                {"name": n, "max_residual": v, "pass": p} for n, v, p in rows
            ],
            "samples": samples,
            "sample_errors": errors,
            "pass": bool(ok),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        out.write("identity,max_residual,status\n")
        for n, v, p in rows:
            status = "info" if p is None else ("pass" if p else "FAIL")
            out.write(f"{n},{_fmt(v)},{status}\n")
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, v, p in rows:
            status = "info" if p is None else ("pass" if p else "FAIL")
            out.write(f"{n:<{width}}  {_fmt(v):>24}  {status}\n")
        out.write(f"samples: {samples}  per-sample errors: {errors}\n")
        out.write("overall: " + ("PASS" if ok else "FAIL") + "\n")
    return ok


def cmd_validate(args):
    scene = _load(args.scene)
    samples = args.samples if args.samples is not None else scene.sampling.count
    seed = args.seed if args.seed is not None else scene.sampling.seed
    rows, errors = run_validation(scene, samples, seed, args.tol)
    ok = _emit_report(rows, errors, samples, args.format, sys.stdout)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# trajectory


def cmd_trajectory(args):
    scene = _load(args.scene)
    it = scene.integrate
    traj = integrate(
        scene.space, scene.particle.x0, scene.particle.y0, it.t_end,
        method=it.method, dt=it.dt, abs_tol=it.abs_tol, rel_tol=it.rel_tol,
    )
    path = args.out if args.out is not None else scene.output.path
    out, close = _open_out(path)
    try:
        cols = (
            ["t"]
            + [f"x{i}" for i in range(4)]
            + [f"y{i}" for i in range(4)]
            + [f"ay{i}" for i in range(4)]
            + ["F_value", "ortho_F", "ortho_Ftilde"]
        )
        out.write(",".join(cols) + "\n")
        for s in traj.states:
            vals = (
                [s.t] + list(s.x) + list(s.y) + list(s.delta_y_dt)
                + [s.F_value, s.ortho_F, s.ortho_Ftilde]
            )
            out.write(",".join(_fmt(v) for v in vals) + "\n")
    finally:
        if close:
            out.close()
    return 0


# ----------------------------------------------------------------------
# currents


def _parse_grid(spec):
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 8:
        raise SceneParseError(
            f"grid spec needs 8 entries (x0..x3,y0..y3), got {len(parts)}"
        )
    axes = []
    for p in parts:
        bits = p.split(":")
        if len(bits) != 3:
            raise SceneParseError(f"grid entry {p!r} is not min:max:count")
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        if n < 1:
            raise SceneParseError(f"grid count must be >= 1 in {p!r}")
        axes.append(np.linspace(lo, hi, n))
    return axes


def cmd_currents(args):
    scene = _load(args.scene)
    axes = _parse_grid(args.grid)
    path = args.out if args.out is not None else scene.output.path
    out, close = _open_out(path)
    max_div = 0.0
    n_err = 0
    try:
        cols = (
            [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]
            + [f"J{i}" for i in range(4)] + [f"Jt{i}" for i in range(4)]
            + [f"zeta{i}" for i in range(4)] + ["divJ", "status"]
        )
        out.write(",".join(cols) + "\n")
        for combo in itertools.product(*axes):
            x = np.array(combo[:4])
            y = np.array(combo[4:])
            try:
                cs = current_sample(
                    scene.space, x, y, with_continuity=True, step=args.step
                )
            except FinslerEMError as e:
                n_err += 1
                row = [_fmt(v) for v in combo] + ["nan"] * 13
                out.write(",".join(row) + f",error:{type(e).__name__}\n")
                continue
            max_div = max(max_div, abs(cs.continuity))
            vals = list(combo) + list(cs.J_h) + list(cs.J_v) + list(cs.zeta) \
                + [cs.continuity]
            out.write(",".join(_fmt(v) for v in vals) + ",ok\n")
    finally:
        if close:
            out.close()
    print(
        f"currents: max |div J| = {_fmt(max_div)}  point errors: {n_err}",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# anisotropy comparison


def _endpoint(space, scene):
    it = scene.integrate
    tr = integrate(
        space, scene.particle.x0, scene.particle.y0, it.t_end,
        method=it.method, dt=it.dt, abs_tol=it.abs_tol, rel_tol=it.rel_tol,
    )
    return tr.endpoint


def cmd_compare(args):
    scene = _load(args.scene)
    y_ref = (
        np.array([float(v) for v in args.ref.split(",")])
        if args.ref
        else scene.particle.y0
    )
    iso = isotropic_truncation(scene.space, y_ref)
    kappas = (
        [float(k) for k in args.kappa_sweep.split(",")] if args.kappa_sweep else [1.0]
    )
    x_iso, v_iso = _endpoint(iso, scene)
    n = min(scene.sampling.count, 16)
    xs, ys = draw_admissible(
        scene.space, scene.rng(), n, scene.sampling.x_box, scene.sampling.y_box
    )
    cur_iso = current_sample(iso, xs, ys)
    print("reference direction: " + " ".join(_fmt(v) for v in y_ref))
    print("kappa,endpoint_delta,dJ_h,dzeta,dJ_v")
    for kappa in kappas:
        space_k = blend_anisotropy(scene.space, y_ref, kappa)
        xk, vk = _endpoint(space_k, scene)
        de = float(np.linalg.norm(xk - x_iso) + np.linalg.norm(vk - v_iso))
        cur_k = current_sample(space_k, xs, ys)
        print(",".join([
            _fmt(kappa), _fmt(de),
            _fmt(np.abs(cur_k.J_h - cur_iso.J_h).max()),
            _fmt(np.abs(cur_k.zeta - cur_iso.zeta).max()),
            _fmt(np.abs(cur_k.J_v - cur_iso.J_v).max()),
        ]))
    return 0


# ----------------------------------------------------------------------
# entry point


def build_parser():
    p = argparse.ArgumentParser(
        prog="finslerem",
        description="Direction-dependent electromagnetism on pseudo-Finsler spacetimes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run the identity suite on a scene")
    v.add_argument("scene")
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--format", choices=("text", "csv", "json"), default="text")
    v.set_defaults(func=cmd_validate)

    t = sub.add_parser("trajectory", help="integrate the scene's worldline")
    t.add_argument("scene")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_trajectory)

    c = sub.add_parser("currents", help="currents and continuity on a grid")
    c.add_argument("scene")
    c.add_argument("--grid", required=True,
                   help="8 comma-separated min:max:count entries (x0..x3,y0..y3)")
    c.add_argument("--out", default=None)
    c.add_argument("--step", type=float, default=1e-3)
    c.set_defaults(func=cmd_currents)

    m = sub.add_parser("compare", help="scene vs isotropic truncation")
    m.add_argument("scene")
    m.add_argument("--kappa-sweep", default=None,
                   help="comma-separated anisotropy scales")
    m.add_argument("--ref", default=None,
                   help="reference direction y0,y1,y2,y3 for the truncation")
    m.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _LoadFailure as e:
        print(f"load error: {e}", file=sys.stderr)
        return 2
    except SceneParseError as e:
        print(f"load error: {e}", file=sys.stderr)
        return 2
    except FinslerEMError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
