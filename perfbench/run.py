"""Benchmark of the finslerem CLI: seeded workloads run in-process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload validate-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client calls ``finslerem.cli.main(argv)`` in this process and sends
the next job only when the previous one has finished.  Jobs run in whole
cycles until ``--seconds`` have passed.  Every job's output is checked.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
fresh interpreters), throughput, median and tail job time, and peak
resident memory.  Each time is scaled to a reference speed by a reference
operation timed just before and after it, so that the host's drifting
speed cancels.  ``--trace 1`` reports the per-layer metrics: micro
rows per layer at batch 1 and 100, then the same jobs run untraced and
traced, the traced ones recording a span at every layer entry point.
Spans and a summary go to ``.perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import TAIL_BEYOND  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 7
# Seconds the reference operation takes at the reference speed; a host
# running at that speed reports every time as measured.
REF_NOMINAL_S = 1.25e-3
SETUP_TIMEOUT_S = 60


@dataclass
class Record:
    job: object
    rc: object
    dur: float
    outcome: object


# ----------------------------------------------------------------------
# provenance


def provenance():
    import numpy as np

    digest = hashlib.sha256()
    for p in sorted((SRC / "finslerem").glob("*.py")):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }


def _git_sha():
    """HEAD commit read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ----------------------------------------------------------------------
# running jobs


class Sink(io.StringIO):
    """Captured stdout; a Python subclass so tracing can wrap its write."""


class Client:
    """Runs jobs through ``finslerem.cli.main`` and checks their output."""

    def __init__(self, workload):
        from finslerem import cli

        self.cli = cli
        self.workload = workload
        self.out = Sink()
        self.err = io.StringIO()

    def run(self, job, tracer=None, root=None):
        for s in (self.out, self.err):
            s.seek(0)
            s.truncate(0)
        idx = tracer.begin(root) if tracer is not None else None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                rc = self.cli.main(list(job.argv))
            except SystemExit as e:
                rc = e.code
            except Exception:  # noqa: BLE001 - the loop must go on; the job fails
                rc = "exception"
                self.err.write(traceback.format_exc())
        dur = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(idx)
        out, err = self.out.getvalue(), self.err.getvalue()
        outcome = self.workload.check(job, rc, out, err)
        if not outcome.ok and rc not in (0, 1, 2) and err.strip():
            outcome.reason += " | " + err.strip().splitlines()[-1]
        return Record(job, rc, dur, outcome)

    def loop(self, jobs, seconds, between=None, min_cycles=1, ref=None):
        """Whole cycles of jobs until ``seconds`` of job time have passed.

        Runs at least ``min_cycles`` cycles.  ``between(fraction_done)``
        runs after each cycle, off the clock.  When ``ref`` is a list, the
        reference operation is timed into it before the first job and
        after every job, off the clock.
        """
        cycle = self.workload.cycle
        records = []
        i = 0
        spent = 0.0
        if ref is not None:
            ref.append(time_reference())
        while True:
            if i + cycle > len(jobs):
                i = 0
            for job in jobs[i:i + cycle]:
                records.append(self.run(job))
                spent += records[-1].dur
                if ref is not None:
                    ref.append(time_reference())
            i += cycle
            if spent >= seconds and len(records) >= min_cycles * cycle:
                return records
            if between is not None:
                between(spent / seconds if seconds > 0 else 1.0)


def time_reference():
    """Seconds one run of a fixed reference operation takes right now.

    The operation mixes small numpy array operations with dict and float
    work in the interpreter, as the CLI's batch-1 and batch-100 paths do,
    and uses nothing of finslerem.  Its garbage collection is held off so
    that objects the program left alive do not change its cost.
    """
    import numpy as np

    gc.disable()
    t0 = time.perf_counter()
    a = np.arange(35.0)
    d = {}
    for i in range(400):
        d[i] = float((a * i + 1.0).sum())
    sum(d.values())
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def to_reference_speed(secs, ref_before, ref_after):
    """``secs`` as they would read on a host at the reference speed.

    The shared host's speed drifts, by up to half, over seconds to
    minutes.  The reference operation timed just before and just after
    the measured interval slows with it.
    """
    return secs * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def tail(durs, min_jobs):
    """Job time at the highest percentile with TAIL_BEYOND jobs beyond it.

    The percentile is fixed by ``min_jobs``, the fewest jobs a run makes,
    so it is the same in every run; longer runs only add jobs beyond it.
    Returns (value, percentile, jobs beyond).
    """
    ordered = sorted(durs)
    # nearest rank, in integers: k = ceil(n * (m - beyond) / m) - 1
    k = -(-len(ordered) * (min_jobs - TAIL_BEYOND) // min_jobs) - 1
    return ordered[k], 100.0 * (min_jobs - TAIL_BEYOND) / min_jobs, len(ordered) - 1 - k


def measure_setup(scene_path):
    """Seconds of set-up in one fresh interpreter."""
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), scene_path],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        env=dict(os.environ),
    )
    if res.returncode != 0:
        raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-500:]}")
    return float(res.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# end-to-end run


def run_e2e(workload, jobs, seconds):
    scene = jobs[0].argv[1]
    setup = []   # (measured, at reference speed), one per fresh interpreter

    def probe():
        before = time_reference()
        secs = measure_setup(scene)
        setup.append((secs, to_reference_speed(secs, before, time_reference())))

    def between(done):
        # spread the set-up probes over the run, so a slow spell hits few
        if len(setup) < SETUP_REPS and done >= len(setup) / SETUP_REPS:
            probe()

    probe()
    client = Client(workload)
    warm = [client.run(jobs[-1])]
    ref = []
    timed = client.loop(jobs, seconds, between, workload.min_cycles, ref)
    while len(setup) < SETUP_REPS:
        probe()
    work = [r.outcome.work for r in timed]
    min_jobs = workload.min_cycles * workload.cycle

    def summary(setup_s, durs):
        # work per second is total over total: a percentile of job times
        # jumps between the few speed levels of a shared host, where the
        # total follows their shares smoothly
        return {
            "setup_s": statistics.median(setup_s),
            "work_per_s": sum(work) / sum(durs),
            "job_s_p50": statistics.median(durs),
            "job_s_tail": tail(durs, min_jobs)[0],
        }

    # job k ran between reference timings k and k + 1
    scaled = [to_reference_speed(r.dur, a, b) for r, a, b in zip(timed, ref, ref[1:])]
    units = {"setup_s": "s", "work_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s"}
    metrics = {k: (v, units[k]) for k, v in summary([s for _, s in setup], scaled).items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    _, tail_pct, beyond = tail(scaled, min_jobs)
    notes = {
        "measured": summary([m for m, _ in setup], [r.dur for r in timed]),
        "host_speed": REF_NOMINAL_S / statistics.mean(ref),
        "reference_s": ref,
        "setup_runs_s": [m for m, _ in setup],
        "jobs_timed": len(timed),
        "tail_percentile": tail_pct,
        "tail_jobs_beyond": beyond,
        "work": sum(work),
    }
    return warm + timed, metrics, notes


def print_e2e(workload, records, metrics, notes):
    n = len(records)
    failed = sum(not r.outcome.ok for r in records)
    rows = [
        ("setup_s", "setup_s", "s", f"median of {SETUP_REPS} fresh interpreters"),
        (workload.rate_name, "work_per_s", workload.unit.replace(" ", "_") + "/s",
         f"JSON work_per_s; {notes['work']} {workload.unit} "
         f"in {notes['jobs_timed']} jobs"),
        ("job_s_p50", "job_s_p50", "s", f"{notes['jobs_timed']} jobs"),
        ("job_s_tail", "job_s_tail", "s",
         f"p{notes['tail_percentile']:.1f} of {notes['jobs_timed']} jobs, "
         f"{notes['tail_jobs_beyond']} beyond"),
        ("peak_rss_mb", "peak_rss_mb", "MB", "this process"),
    ]
    print(f"# times scaled to the reference speed; the host ran at {notes['host_speed']:.4g} "
          f"of it on average (reference operation {statistics.mean(notes['reference_s']) * 1e3:.4g} ms "
          f"over {len(notes['reference_s'])} timings, nominal {REF_NOMINAL_S * 1e3:.4g} ms)")
    for name, key, unit, note in rows:
        if key in notes["measured"]:
            note += f"; measured {notes['measured'][key]:.6g}"
        print(f"{name:<20} {metrics[key][0]:>14.6g} {unit:<16} {note}")
    print(f"{'failed_frac':<20} {failed / n:>14.6g} {'ratio':<16} "
          f"{failed} of {n} jobs incl. warm-up")


# ----------------------------------------------------------------------
# traced run


def run_traced(workload, jobs, seconds, seed):
    client = Client(workload)
    warm = [client.run(jobs[-1])]
    rows = micro.run(seed)
    plain = client.loop(jobs, seconds / 2.0)

    tracer = tracing.Tracer()
    root = tracer.intern(tracing.ROOT)
    restore = tracing.instrument(tracer, client.out)
    traced = []
    try:
        for k, rec in enumerate(plain):
            tracer.current_job = k
            traced.append(client.run(rec.job, tracer, root))
    finally:
        restore()

    spans = tracing.Spans(tracer)
    overhead = sum(r.dur for r in traced) / sum(r.dur for r in plain) - 1.0
    metrics = layer_metrics(spans, traced, rows, overhead)
    breakdown = spans.breakdown()
    worst = max(abs(sum(b["self_s"].values()) - b["job_s"]) for b in breakdown)

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"{workload.name}-spans.npz"
    tracer.save(span_path)
    tracing.write_summary(OUT / f"{workload.name}-trace.json", {
        "workload": workload.name, "seed": seed, "provenance": provenance(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": [{"argv": list(r.job.argv), "traced_s": r.dur, "untraced_s": p.dur,
                  "ok": r.outcome.ok, "info": r.outcome.info}
                 for r, p in zip(traced, plain)],
        "breakdown": breakdown,
        "calls": spans.call_table(),
    })
    notes = {"spans": len(tracer), "jobs_traced": len(traced),
             "breakdown_residual_s": worst, "span_file": str(span_path.relative_to(ROOT))}
    return warm + plain + traced, metrics, notes, breakdown


def layer_metrics(spans, traced, micro_rows, overhead):
    """Per-layer metrics: span-derived per-job means, plus the micro rows."""
    import numpy as np
    from finslerem.series import NTERMS

    ones = np.ones(len(spans.dur))
    out = {}

    def per_job(mask, values=ones):
        return spans.per_job(values, mask)

    def mean_job(mask, values=ones):
        v = per_job(mask, values)
        return float(v.mean()) if len(v) else 0.0

    def layer_self(layer):
        if layer not in spans.layers:
            return 0.0
        return mean_job(spans.layer == spans.layers.index(layer), spans.self_time)

    m = spans.mask
    out["scene.load_s"] = (mean_job(m("scene.load_scene"), spans.dur), "s")

    ev = m("expr.eval_series")
    out["expr.eval_series_calls"] = (mean_job(ev), "count")
    out["expr.ast_nodes"] = (float(spans.tag[ev].mean()) if ev.any() else 0.0, "count")
    out["expr.self_s"] = (layer_self("expr"), "s")

    mul = m("series.mul")
    prod = mul & (spans.tag >= 0)
    terms = np.zeros(len(spans.dur))
    terms[prod] = np.asarray(NTERMS, dtype=float)[spans.tag[prod]]
    out["series.mul_calls"] = (mean_job(mul), "count")
    out["series.terms"] = (mean_job(prod, terms), "count")
    out["series.self_s"] = (layer_self("series"), "s")

    out["geometry.towers_built"] = (mean_job(m("geometry.tower_init")), "count")
    out["geometry.self_s"] = (layer_self("geometry"), "s")
    out["em.self_s"] = (layer_self("em"), "s")
    out["maxwell.self_s"] = (layer_self("maxwell"), "s")

    force = m("dynamics.force")
    monitor = force & (spans.tag == 1)
    integ = m("dynamics.integrate")
    n_force, n_mon, n_int = (per_job(x) for x in (force, monitor, integ))
    accepted = n_mon - n_int          # one monitor call per accepted step, plus the start
    out["dynamics.force_calls"] = (
        float(n_force.sum() / accepted.sum()) if accepted.sum() else 0.0, "count")
    rk45 = np.array([r.job.kind == "rk45" for r in traced])  # traced job k has id k
    if rk45.any():
        attempts = (n_force - n_mon)[rk45] / 7.0   # 7 stages per Dormand-Prince attempt
        acc = accepted[rk45]
        out["dynamics.rk45_accepted"] = (float(acc.mean()), "count")
        out["dynamics.rk45_rejected"] = (float((attempts - acc).mean()), "count")
        out["dynamics.rk45_accept_ratio"] = (float(acc.sum() / attempts.sum()), "ratio")
    else:
        for name, unit in (("accepted", "count"), ("rejected", "count"),
                           ("accept_ratio", "ratio")):
            out[f"dynamics.rk45_{name}"] = (0.0, unit)
    out["dynamics.self_s"] = (mean_job(integ, spans.self_time), "s")

    ident = m("cli.identity_residuals")
    out["cli.identity_self_s"] = (mean_job(ident, spans.self_time), "s")
    out["cli.write_s"] = (
        mean_job(m("cli.emit_report", "cli.fmt", "cli.write"), spans.self_time), "s")
    out["cli.validate_fallbacks"] = (
        mean_job(ident & (spans.batch > 1) & (spans.err == 1)), "count")
    out["cli.error_rows"] = (
        statistics.mean(r.outcome.info.get("error_rows", 0) for r in traced), "count")

    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.job_s"] = (mean_job(m(tracing.ROOT), spans.dur), "s")
    out["trace.unattributed_s"] = (layer_self(tracing.UNATTRIBUTED), "s")

    for name, value in micro_rows.items():
        out[name] = (value, "s")
    return out


def print_traced(metrics, notes, breakdown):
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(f"# spans: {notes['spans']} over {notes['jobs_traced']} traced jobs, "
          f"written to {notes['span_file']}")
    layers = sorted({k for b in breakdown for k in b["self_s"]})
    print("# per-job self time by layer (s); the columns add up to job_s:")
    print("# " + " ".join(f"{x:>12}" for x in ["job_s"] + layers))
    for b in breakdown[:8]:
        print("# " + " ".join(f"{v:>12.6f}" for v in [b["job_s"]]
                              + [b["self_s"].get(x, 0.0) for x in layers]))
    print(f"# max |sum of layer self times - job_s| = {notes['breakdown_residual_s']:.3g} s")


# ----------------------------------------------------------------------
# entry point


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]
    prov = provenance()
    print(f"# finslerem benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# why: {workload.why}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    jobs = workloads.build(workload.name, args.seed, OUT / f"inputs-{workload.name}")
    if args.trace:
        records, metrics, notes, breakdown = run_traced(workload, jobs, args.seconds, args.seed)
        print_traced(metrics, notes, breakdown)
    else:
        records, metrics, notes = run_e2e(workload, jobs, args.seconds)
        print_e2e(workload, records, metrics, notes)

    failed = [r for r in records if not r.outcome.ok]
    for r in failed[:5]:
        print(f"# FAILED {' '.join(r.job.argv)}: {r.outcome.reason}")
    div = [r.outcome.info["max_div_j"] for r in records
           if r.job.scene == "curved-aniso" and "max_div_j" in r.outcome.info]
    if div:
        print(f"# curved-aniso max |div J| = {max(div):.6g} (known defect, not gated)")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"{workload.name}-trace{args.trace}-result.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "seed": args.seed, "seconds": args.seconds,
                   "provenance": prov, "notes": notes,
                   "jobs": [{"kind": r.job.kind, "scene": r.job.scene, "s": r.dur,
                             "rc": r.rc, "ok": r.outcome.ok, "work": r.outcome.work,
                             "reason": r.outcome.reason} for r in records]},
                  fh, indent=1)
    print(f"# result with every job written to {path.relative_to(ROOT)}")
    return result


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = res.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            print(res.stderr, file=sys.stderr)
            raise SystemExit(f"workload {name} failed with exit code {res.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}:{k}"] = v
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "finslerem" / "__init__.py").is_file():
        print(f"error: no finslerem package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
