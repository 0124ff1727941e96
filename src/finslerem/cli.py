"""Command-line front end: validate / trajectory / currents / compare.

Exit codes are a stable contract: 0 all good, 1 identity failure or
runtime error, 2 scene load error or bad flag value.  Output is deterministic for a fixed
scene and seed; floats are printed with 17 significant digits so runs
can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import expr
from .dynamics import integrate
from .em import anisotropy_ensemble, em_sample
from .errors import (
    DegenerateMetricError,
    DomainError,
    FinslerEMError,
    HomogeneityViolationError,
    SceneParseError,
    SignatureMismatchError,
)
from .geometry import Tower, draw_admissible, geometry_sample
from .maxwell import (
    anisotropy_zeta,
    current_sample,
    fibre_tower,
    homogeneous_residuals,
    horizontal_current,
    vertical_current,
)
from .scene import MAX_SAMPLES, load_scene
from .series import FIBRE_VARS

#: most points a currents grid may have; a point costs tens of milliseconds
MAX_GRID_POINTS = 10**5

LOAD_ERRORS = (
    SceneParseError,
    HomogeneityViolationError,
    SignatureMismatchError,
    DegenerateMetricError,
    DomainError,
)


class _LoadFailure(Exception):
    """Wrapper distinguishing load-phase failures from run-phase ones."""


class _FlagError(Exception):
    """A command-line value out of range: exit 2 with one line."""


def _flag(parse, name):
    """An argparse type that reports a bad value of flag ``name`` as a _FlagError."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as e:
            raise _FlagError(f"{name}: {e}") from None
    return convert


def _integer(lo, hi=None):
    """A parser of one integer n >= lo, and n <= hi if hi is given."""
    def parse(text):
        n = int(text)
        if n < lo:
            raise ValueError(f"must be >= {lo}, got {n}")
        if hi is not None and n > hi:
            raise ValueError(f"must be <= {hi}, got {n}")
        return n
    return parse


_count = _integer(1)


def _finite(rule, ok):
    """A parser of one finite number v with ok(v); ``rule`` words ok."""
    def parse(text):
        v = float(text)
        if not (np.isfinite(v) and ok(v)):
            raise ValueError(f"must be finite and {rule}, got {text!r}")
        return v
    return parse


def _finite_list(text):
    """Comma-separated finite numbers."""
    out = [float(part) for part in text.split(",")]
    if not np.all(np.isfinite(out)):
        raise ValueError(f"every entry must be finite, got {text!r}")
    return out


def _direction(text):
    """Exactly four finite numbers y0,y1,y2,y3."""
    v = _finite_list(text)
    if len(v) != 4:
        raise ValueError(f"needs 4 numbers y0,y1,y2,y3, got {len(v)}")
    return np.array(v)


def _load(path):
    try:
        return load_scene(path)
    except LOAD_ERRORS as e:
        raise _LoadFailure(str(e)) from e


def _fmt(v):
    return f"{float(v):.17g}"


def _open_out(flag, scene):
    """The output stream, opened before any work: ``--out`` if given, else
    the scene's ``[output] path``, "-" being stdout.  A path that cannot
    be opened is a bad flag or a load error, and a run that fails removes
    the file it opened."""
    path = flag if flag is not None else scene.output.path
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return _kept_if_done(open(path, "w", encoding="utf-8"))
    except OSError as e:
        if flag is not None:
            raise _FlagError(f"--out: {e}") from None
        raise _LoadFailure(f"[output] path: {e}") from None


@contextlib.contextmanager
def _kept_if_done(out):
    """The opened file ``out``, closed at the end and removed if the run fails."""
    with out:
        try:
            yield out
        except BaseException:
            out.close()
            with contextlib.suppress(OSError):
                os.remove(out.name)
            raise


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
    zeta = anisotropy_zeta(t)

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

    dg = t.delta_value(t.g)  # dg[i, j, k] = delta_k g_ij
    hmet = dg - np.einsum("mik...,mj...->ijk...", L, g) \
        - np.einsum("mjk...,im...->ijk...", L, g)
    out["h_metricity"] = np.abs(hmet).max()

    y_low = e.grad(FIBRE_VARS) * 0.5
    defl = t.delta_value(y_low) - np.einsum("mij...,m...->ij...", L, y_low.value())
    out["deflection"] = np.abs(defl).max()

    out["adapted_f2"] = (np.abs(t.delta_value(e)) / np.abs(f2)).max()

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
    with _open_out(args.out, scene) as out:
        traj = integrate(
            scene.space, scene.particle.x0, scene.particle.y0, it.t_end,
            method=it.method, dt=it.dt, abs_tol=it.abs_tol, rel_tol=it.rel_tol,
        )
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
    return 0


# ----------------------------------------------------------------------
# currents


def _grid(spec):
    """8 comma-separated min:max:count entries: finite bounds, counts >= 1,
    at most MAX_GRID_POINTS points in all."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 8:
        raise ValueError(f"needs 8 entries (x0..x3,y0..y3), got {len(parts)}")
    entries = []
    for p in parts:
        bits = p.split(":")
        if len(bits) != 3:
            raise ValueError(f"entry {p!r} is not min:max:count")
        try:
            lo, hi, n = float(bits[0]), float(bits[1]), _count(bits[2])
        except ValueError as e:
            raise ValueError(f"entry {p!r}: {e}") from None
        if not np.isfinite([lo, hi]).all():
            raise ValueError(f"entry {p!r}: bounds must be finite")
        entries.append((lo, hi, n))
    points = math.prod(n for _, _, n in entries)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{points} points exceed the limit of {MAX_GRID_POINTS}")
    return [np.linspace(lo, hi, n) for lo, hi, n in entries]


def cmd_currents(args):
    scene = _load(args.scene)
    max_div = 0.0
    n_err = 0
    with _open_out(args.out, scene) as out:
        cols = (
            [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]
            + [f"J{i}" for i in range(4)] + [f"Jt{i}" for i in range(4)]
            + [f"zeta{i}" for i in range(4)] + ["divJ", "status"]
        )
        out.write(",".join(cols) + "\n")
        for combo in itertools.product(*args.grid):
            x = np.array(combo[:4])
            y = np.array(combo[4:])
            try:
                # a point that overflows is this row's error, not a warning
                with np.errstate(all="ignore"):
                    cs = current_sample(scene.space, x, y, with_continuity=True)
                vals = list(combo) + list(cs.J_h) + list(cs.J_v) + list(cs.zeta) \
                    + [cs.continuity]
                if not np.all(np.isfinite(vals)):
                    raise DomainError("current not finite at grid point")
            except FinslerEMError as e:
                n_err += 1
                row = [_fmt(v) for v in combo] + ["nan"] * 13
                out.write(",".join(row) + f",error:{type(e).__name__}\n")
                continue
            max_div = max(max_div, abs(cs.continuity))
            out.write(",".join(_fmt(v) for v in vals) + ",ok\n")
    print(
        f"currents: max |div J| = {_fmt(max_div)}  point errors: {n_err}",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# anisotropy comparison


#: members that ``compare`` integrates and takes currents of together; a
#: sweep runs in chunks of this many, so its memory stays flat in the
#: number of kappas
MEMBER_CHUNK = 8


def _run_members(scene, space, members, draws):
    """(endpoint x, endpoint y, J_h, zeta, J_v) of each member, in order.

    ``space`` is an ensemble of the scene (``anisotropy_ensemble``) and
    ``draws`` the Tower of the scene at the draws.  rk4 integrates every
    member in one batched worldline ensemble; rk45 runs them in turn.  The
    currents of all members come from one Tower over a copy of the draws
    per member, which holds the F-only stages of ``draws`` (``Tower.tiled``).
    """
    space = replace(space, L1=replace(space.L1, kappas=tuple(members)))
    it = scene.integrate
    nb = len(members)

    def run(space, x0, y0):
        return integrate(space, x0, y0, it.t_end, method=it.method, dt=it.dt,
                         abs_tol=it.abs_tol, rel_tol=it.rel_tol, monitors=False).endpoint

    x0, y0 = scene.particle.x0, scene.particle.y0
    if it.method == "rk4":
        xe, ye = run(space, np.tile(x0[:, None], nb), np.tile(y0[:, None], nb))
        ends = [(xe[:, b], ye[:, b]) for b in range(nb)]
    else:
        ends = [run(replace(space, L1=replace(space.L1, kappas=(m,))), x0, y0)
                for m in members]
    n = draws.x.shape[1]
    tiled = replace(space, L1=space.L1.tiled(n))
    tower = draws.tiled(nb, tiled)
    J_h, zeta = horizontal_current(tiled, None, None, tower=tower)
    J_v = vertical_current(tiled, None, None, tower=tower)
    cols = [slice(b * n, (b + 1) * n) for b in range(nb)]
    return [(xk, vk, J_h[:, c], zeta[:, c], J_v[:, c]) for (xk, vk), c in zip(ends, cols)]


def _member_runs(scene, y_ref, members, xs, ys):
    """Yield each member's run, MEMBER_CHUNK members at a time; each chunk
    is one ensemble, or one member at a time if that fails.  A member's
    column rounds as it would alone, so the chunking does not show.

    The fallback reproduces a serial sweep: every member before the
    failing one, then the failing member's error.
    """
    space = anisotropy_ensemble(scene.space, y_ref, members)
    draws = fibre_tower(scene.space, xs, ys)
    draws.fused = False  # ``tiled`` reads only its F-only stages: F runs alone
    for a in range(0, len(members), MEMBER_CHUNK):
        chunk = members[a:a + MEMBER_CHUNK]
        try:
            runs = _run_members(scene, space, chunk, draws)
        except FinslerEMError:
            runs = None
        if runs is not None:
            yield from runs
            continue
        for m in chunk:
            yield _run_members(scene, space, [m], draws)[0]


def cmd_compare(args):
    scene = _load(args.scene)
    y_ref = scene.particle.y0
    if args.ref is not None:
        y_ref = args.ref
        f_ref = expr.eval_values(scene.space.F, np.concatenate([scene.particle.x0, y_ref]))
        if not f_ref > 0:
            raise _FlagError(f"--ref: F(x0, y_ref) = {_fmt(f_ref)} must be > 0")
    kappas = args.kappa_sweep if args.kappa_sweep is not None else [1.0]
    n = min(scene.sampling.count, 16)
    xs, ys = draw_admissible(
        scene.space, scene.rng(), n, scene.sampling.x_box, scene.sampling.y_box
    )
    # member 0 is the isotropic truncation itself
    runs = _member_runs(scene, y_ref, [None] + kappas, xs, ys)
    x_iso, v_iso, jh_iso, zeta_iso, jv_iso = next(runs)
    print("reference direction: " + " ".join(_fmt(v) for v in y_ref))
    print("kappa,endpoint_delta,dJ_h,dzeta,dJ_v")
    for kappa, (xk, vk, jh, zeta, jv) in zip(kappas, runs):
        de = float(np.linalg.norm(xk - x_iso) + np.linalg.norm(vk - v_iso))
        print(",".join([
            _fmt(kappa), _fmt(de),
            _fmt(np.abs(jh - jh_iso).max()),
            _fmt(np.abs(zeta - zeta_iso).max()),
            _fmt(np.abs(jv - jv_iso).max()),
        ]))
    return 0


# ----------------------------------------------------------------------
# entry point


@functools.cache
def build_parser():
    """The command-line parser, built once: parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="finslerem",
        description="Direction-dependent electromagnetism on pseudo-Finsler spacetimes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run the identity suite on a scene")
    v.add_argument("scene")
    v.add_argument("--samples", type=_flag(_integer(1, MAX_SAMPLES), "--samples"), default=None)
    v.add_argument("--seed", type=_flag(_integer(0), "--seed"), default=None)
    v.add_argument("--tol", type=_flag(_finite(">= 0", lambda v: v >= 0), "--tol"),
                   default=1e-8)
    v.add_argument("--format", choices=("text", "csv", "json"), default="text")
    v.set_defaults(func=cmd_validate)

    t = sub.add_parser("trajectory", help="integrate the scene's worldline")
    t.add_argument("scene")
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_trajectory)

    c = sub.add_parser("currents", help="currents and continuity on a grid")
    c.add_argument("scene")
    c.add_argument("--grid", type=_flag(_grid, "--grid"), required=True,
                   help="8 comma-separated min:max:count entries (x0..x3,y0..y3)")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_currents)

    m = sub.add_parser("compare", help="scene vs isotropic truncation")
    m.add_argument("scene")
    m.add_argument("--kappa-sweep", type=_flag(_finite_list, "--kappa-sweep"), default=None,
                   help="comma-separated anisotropy scales")
    m.add_argument("--ref", type=_flag(_direction, "--ref"), default=None,
                   help="reference direction y0,y1,y2,y3 for the truncation")
    m.set_defaults(func=cmd_compare)
    return p


def _drop_stdout():
    """Point the stdout file descriptor at devnull, so that what is still
    buffered for a closed stdout goes nowhere at exit instead of failing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as e:
        _drop_stdout()
        print(f"error: cannot write output: {e.strerror}", file=sys.stderr)
        return 1
    except _FlagError as e:
        print(f"bad flag: {e}", file=sys.stderr)
        return 2
    except _LoadFailure as e:
        print(f"load error: {e}", file=sys.stderr)
        return 2
    except FinslerEMError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
