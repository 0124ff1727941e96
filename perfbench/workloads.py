"""Seeded inputs, jobs and output checks of the four benchmark workloads.

A workload is a fixed cycle of CLI invocations ("jobs").  Everything a
job receives -- scene files and argv -- is generated here from the
workload seed; the program under test sees nothing else.  The seed
changes values (initial directions, sample seeds, grid offsets, kappa
lists), never the amount of work: sizes that set the cost of a job
(sample counts, step counts, grid shape, compare's t_end) are fixed, so
runs with different seeds measure the same work.

Each workload also owns the check of its jobs' output.  A check returns
an :class:`Outcome`; a job counts as failed when its exit code is not 0
or its check rejects the output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Generators of the fixture scenes the workloads use, (F, L1).
SCENES = {
    "curved-aniso": (
        "sqrt((1 + 0.2*x1^2)*y0^2 - y1^2 - y2^2 - y3^2) + 0.05*y1",
        "0.1*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.3*sin(x1)*y0",
    ),
    "randers-aniso": (
        "sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1",
        "0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)",
    ),
    "pr-curved": (
        "sqrt((1 + 0.2*x1^2)*y0^2 - (1 + 0.1*x0^2)*y1^2 - y2^2 - y3^2)",
        "0.3*sin(x1)*y0 + 0.1*x0*y2",
    ),
    "aniso-wave": (
        "sqrt(y0^2 - y1^2 - y2^2 - y3^2)",
        "0.2*sin(x0)*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)",
    ),
}

VALIDATE_SCENES = ("curved-aniso", "randers-aniso", "pr-curved", "aniso-wave")
VALIDATE_SAMPLES = 100
RK4_DT = 1e-3
RK4_T_END = 1.0
RK4_STEPS = 1000
COMPARE_T_END = 0.005      # 5 rk4 steps: jobs under a second, 60+ per run for the tail
# kappa values per job over one cycle, one of them 0 in each job; jobs of
# unlike size spread job times, so the median does not jump between the
# few speed levels of a shared machine
COMPARE_KAPPAS = (2, 3, 4, 5)
ORTHO_BOUND = 1e-8          # monitor bound of the dynamics tests
DIV_J_BOUND = 1e-4          # acceptance criterion 7
ADMISSIBLE_MARGIN = 1e-3    # F^2 >= margin |y|^2, as in the engine's sampler
TAIL_BEYOND = 10            # the tail percentile has at least this many jobs beyond it


@dataclass(frozen=True)
class Job:
    """One CLI invocation: argv for ``finslerem.cli.main`` plus check data."""

    kind: str
    scene: str
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    ok: bool
    work: int               # units of the workload's throughput metric
    reason: str = ""
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str               # what one unit of work is
    rate_name: str          # name of the throughput metric
    cycle: int              # jobs per cycle; runs time whole cycles
    min_cycles: int         # fewest cycles a run makes; fixes the tail percentile
    build: object           # (rng, workdir) -> list[Job]
    check: object           # (job, rc, stdout, stderr) -> Outcome

    def __post_init__(self):
        if self.min_cycles * self.cycle <= TAIL_BEYOND:
            raise ValueError(f"{self.name}: the tail needs more than {TAIL_BEYOND} jobs")


# ----------------------------------------------------------------------
# scene generation


def _num(v):
    return repr(float(v))


def _vec(v):
    return " ".join(_num(c) for c in v)


def scene_text(name, *, x0=(0, 0, 0, 0), y0=(1, 0.1, 0, 0), method="rk4",
               dt=RK4_DT, t_end=RK4_T_END, abs_tol=1e-9, rel_tol=1e-8,
               seed=0, count=100):
    f, l1 = SCENES[name]
    return (
        f"# generated {name} variant\n"
        f'[space]\nF = "{f}"\nL1 = "{l1}"\n\n'
        f"[particle]\nx0 = {_vec(x0)}\ny0 = {_vec(y0)}\n\n"
        f"[integrate]\nmethod = {method}\ndt = {_num(dt)}\nt_end = {_num(t_end)}\n"
        f"abs_tol = {_num(abs_tol)}\nrel_tol = {_num(rel_tol)}\n\n"
        f"[sampling]\nseed = {seed}\ncount = {count}\n"
    )


def _f_value(name, x, y):
    """Independent plain-Python evaluation of the scene's F."""
    src = SCENES[name][0].replace("^", "**")
    env = {"sqrt": math.sqrt, "sin": math.sin}
    env.update({f"x{i}": x[i] for i in range(4)})
    env.update({f"y{i}": y[i] for i in range(4)})
    return eval(src, {"__builtins__": {}}, env)  # noqa: S307 - own constant text


def admissible(name, x, y):
    try:
        f = _f_value(name, x, y)
    except ValueError:
        return False
    return f * f >= ADMISSIBLE_MARGIN * sum(c * c for c in y)


def draw_state(rng, name, x_span=0.3, v_span=0.12, v_min=None):
    """Seeded admissible initial position and direction.

    Spatial direction components lie in [-v_span, v_span], or in
    [v_min, v_span] when ``v_min`` is given.
    """
    lo = -v_span if v_min is None else v_min
    while True:
        x = [rng.uniform(-x_span, x_span) for _ in range(4)]
        y = [rng.uniform(0.95, 1.05)] + [rng.uniform(lo, v_span) for _ in range(3)]
        if admissible(name, x, y):
            return x, y


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# output parsing helpers


def _csv_rows(stdout):
    lines = stdout.splitlines()
    if not lines:
        return None, []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def _floats(row):
    try:
        vals = [float(v) for v in row]
    except ValueError:
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


# ----------------------------------------------------------------------
# validate-batch


def _validate_jobs(rng, workdir):
    paths = {
        name: _write(workdir / f"validate-{name}.scene",
                     scene_text(name, seed=rng.randrange(2**31)))
        for name in VALIDATE_SCENES
    }
    jobs = []
    for _ in range(100):
        for name in VALIDATE_SCENES:
            argv = ("validate", paths[name], "--samples", str(VALIDATE_SAMPLES),
                    "--seed", str(rng.randrange(2**31)))
            jobs.append(Job("validate", name, argv))
    return jobs


def check_validate(job, rc, stdout, stderr):
    """Exit 0 and ``overall: PASS`` at the CLI's default 1e-8 tolerance."""
    lines = stdout.splitlines()
    if rc != 0:
        return Outcome(False, 0, f"exit code {rc}")
    if not lines or lines[-1] != "overall: PASS":
        return Outcome(False, 0, "no 'overall: PASS' line")
    counts = lines[-2].split()
    if len(counts) != 5 or counts[0] != "samples:" or counts[2] != "per-sample":
        return Outcome(False, 0, "no sample count line")
    samples, errors = int(counts[1]), int(counts[4])
    if samples != VALIDATE_SAMPLES:
        return Outcome(False, 0, f"{samples} samples, expected {VALIDATE_SAMPLES}")
    return Outcome(True, samples - errors, info={"sample_errors": errors})


# ----------------------------------------------------------------------
# worldline


def _worldline_jobs(rng, workdir):
    jobs = []
    for c in range(12):
        for name in ("curved-aniso", "randers-aniso"):
            x0, y0 = draw_state(rng, name)
            path = _write(workdir / f"rk4-{c}-{name}.scene",
                          scene_text(name, x0=x0, y0=y0))
            jobs.append(Job("rk4", name, ("trajectory", path),
                            {"rows": RK4_STEPS + 1}))
        name = "curved-aniso"
        x0, y0 = draw_state(rng, name)
        rel_tol = 10 ** rng.uniform(-13.0, -12.7)
        path = _write(workdir / f"rk45-{c}-{name}.scene",
                      scene_text(name, x0=x0, y0=y0, method="rk45",
                                 rel_tol=rel_tol, abs_tol=0.1 * rel_tol))
        jobs.append(Job("rk45", name, ("trajectory", path), {"t_end": RK4_T_END}))
    return jobs


def check_worldline(job, rc, stdout, stderr):
    """Finite rows, the right step count, orthogonality monitors <= 1e-8."""
    if rc != 0:
        return Outcome(False, 0, f"exit code {rc}")
    header, rows = _csv_rows(stdout)
    if header is None or header[0] != "t" or header[-2:] != ["ortho_F", "ortho_Ftilde"]:
        return Outcome(False, 0, "bad header")
    vals = []
    for row in rows:
        v = _floats(row)
        if v is None or len(v) != len(header):
            return Outcome(False, 0, "non-finite or malformed row")
        vals.append(v)
    if "rows" in job.expect and len(vals) != job.expect["rows"]:
        return Outcome(False, 0, f"{len(vals)} rows, expected {job.expect['rows']}")
    if "t_end" in job.expect:
        ts = [v[0] for v in vals]
        if len(ts) < 2 or ts[0] != 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            return Outcome(False, 0, "times not increasing from 0")
        if abs(ts[-1] - job.expect["t_end"]) > 1e-12:
            return Outcome(False, 0, f"ends at t={ts[-1]!r}")
    worst = max(max(abs(v[-2]), abs(v[-1])) for v in vals)
    if worst > ORTHO_BOUND:
        return Outcome(False, 0, f"orthogonality monitor {worst:.3g} > {ORTHO_BOUND}")
    return Outcome(True, len(vals) - 1, info={"max_ortho": worst})


# ----------------------------------------------------------------------
# currents-grid


def _grid(rng):
    """Seeded grid shaped like the README's: 3 x0 values times 2 y0 values."""
    a = rng.uniform(-0.5, 0.5)
    p = rng.uniform(0.95, 1.05)

    def one(v):
        return f"{_num(v)}:{_num(v)}:1"

    parts = [f"{_num(a)}:{_num(a + 1.0)}:3"]
    parts += [one(rng.uniform(-0.5, 0.5)) for _ in range(3)]
    parts.append(f"{_num(p)}:{_num(p + 0.1)}:2")
    parts += [one(rng.uniform(-0.12, 0.12)) for _ in range(3)]
    return ",".join(parts)


def _currents_jobs(rng, workdir):
    paths = {
        name: _write(workdir / f"currents-{name}.scene", scene_text(name))
        for name in ("aniso-wave", "curved-aniso")
    }
    jobs = []
    for _ in range(40):
        for name in ("aniso-wave", "curved-aniso"):
            jobs.append(Job("currents", name,
                            ("currents", paths[name], "--grid=" + _grid(rng)),
                            {"points": 6, "gate_div": name == "aniso-wave"}))
    return jobs


def check_currents(job, rc, stdout, stderr):
    """No ``error:`` rows; |div J| <= 1e-4 where continuity is exact.

    On curved-aniso the residual carries a known defect of the current's
    component form (about 4.5e-3); it is recorded, not gated.
    """
    if rc != 0:
        return Outcome(False, 0, f"exit code {rc}")
    header, rows = _csv_rows(stdout)
    if header is None or header[-2:] != ["divJ", "status"]:
        return Outcome(False, 0, "bad header")
    errors = sum(1 for r in rows if r and r[-1].startswith("error:"))
    if len(rows) != job.expect["points"]:
        return Outcome(False, 0, f"{len(rows)} rows, expected {job.expect['points']}",
                       {"error_rows": errors})
    max_div = 0.0
    for row in rows:
        if row[-1] != "ok":
            return Outcome(False, 0, f"row status {row[-1]!r}", {"error_rows": errors})
        v = _floats(row[:-1])
        if v is None or len(v) != len(header) - 1:
            return Outcome(False, 0, "non-finite or malformed row", {"error_rows": errors})
        max_div = max(max_div, abs(v[-1]))
    info = {"error_rows": 0, "max_div_j": max_div}
    if job.expect["gate_div"] and max_div > DIV_J_BOUND:
        return Outcome(False, 0, f"|div J| = {max_div:.3g} > {DIV_J_BOUND}", info)
    return Outcome(True, len(rows), info=info)


# ----------------------------------------------------------------------
# compare-sweep


def _compare_jobs(rng, workdir):
    name = "aniso-wave"
    # The truncation writes the reference direction into L1's AST, and a
    # negative component adds a node: fixed signs keep the work fixed.
    x0, y0 = draw_state(rng, name, v_min=0.02)
    path = _write(workdir / f"compare-{name}.scene",
                  scene_text(name, x0=x0, y0=y0, t_end=COMPARE_T_END,
                             seed=rng.randrange(2**31), count=16))
    jobs = []
    for _ in range(25):
        for n in COMPARE_KAPPAS:
            kappas = [0.0] + [rng.uniform(0.05, 0.95) for _ in range(n - 1)]
            rng.shuffle(kappas)
            argv = ("compare", path, "--kappa-sweep", ",".join(_num(k) for k in kappas))
            jobs.append(Job("compare", name, argv, {"kappas": len(kappas)}))
    return jobs


def check_compare(job, rc, stdout, stderr):
    """Finite rows, one per kappa, and the kappa=0 row exactly zero."""
    if rc != 0:
        return Outcome(False, 0, f"exit code {rc}")
    lines = stdout.splitlines()
    try:
        start = lines.index("kappa,endpoint_delta,dJ_h,dzeta,dJ_v") + 1
    except ValueError:
        return Outcome(False, 0, "no result header")
    rows = [ln.split(",") for ln in lines[start:] if ln]
    if len(rows) != job.expect["kappas"]:
        return Outcome(False, 0, f"{len(rows)} rows, expected {job.expect['kappas']}")
    zero_rows = 0
    for row in rows:
        v = _floats(row)
        if v is None or len(v) != 5:
            return Outcome(False, 0, "non-finite or malformed row")
        if v[0] == 0.0:
            zero_rows += 1
            if row[1:] != ["0", "0", "0", "0"]:
                return Outcome(False, 0, f"kappa=0 row is {','.join(row)}")
    if zero_rows != 1:
        return Outcome(False, 0, f"{zero_rows} kappa=0 rows")
    return Outcome(True, len(rows))


# ----------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate-batch",
            "batch-100 identity suite: product kernel, eval_series and Tower "
            "stages take almost all the time; dynamics is not touched",
            "samples", "samples_per_s", len(VALIDATE_SCENES), 25,
            _validate_jobs, check_validate,
        ),
        Workload(
            "worldline",
            "batch-1 Python-dispatch regime: ~5 ForceEvaluator calls per rk4 step, "
            "no Tower, no order-4 product; a batched-kernel change should not move it",
            "steps", "steps_per_s", 3, 5, _worldline_jobs, check_worldline,
        ),
        Workload(
            "currents-grid",
            "same layers as validate-batch but point by point: ~32 finite-difference "
            "batch-1 Towers per point, so tower changes show with the opposite sign",
            "grid points", "grid_points_per_s", 2, 10, _currents_jobs, check_currents,
        ),
        Workload(
            "compare-sweep",
            "expression size, not batch size, sets the cost: blend_anisotropy splices "
            "ASTs and L1 grows ~20x, so expr CSE and hash-consing show here",
            "kappa values", "kappa_per_s", len(COMPARE_KAPPAS), 15, _compare_jobs,
            check_compare,
        ),
    )
}


def build(name, seed, workdir):
    """Generate the workload's inputs under ``workdir``; returns its jobs."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return w.build(rng, Path(workdir))
