"""Smoke test of the benchmark itself.

Run from the repository root:  python3 perfbench/smoke.py

1. Runs every workload for one cycle, traced and untraced, and checks
   that every metric named in BENCHMARK.json is reported with its unit,
   and that the human-readable report names each end-to-end metric.
2. Feeds every output check a real output, which it must accept, and
   deliberately corrupted copies, which it must reject.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

FAILURES = []


def expect(cond, what):
    if not cond:
        FAILURES.append(what)
        print(f"FAIL {what}")


def bench(workload, trace):
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, check=False)
    expect(res.returncode == 0, f"{workload} trace={trace} exits 0 ({res.stderr[-300:]})")
    lines = res.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1]) if lines else {}


def check_metric_names(spec):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, w in workloads.WORKLOADS.items():
        for trace, want in ((0, e2e), (1, per_layer)):
            report, result = bench(name, trace)
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(got == want, f"{name} trace={trace} reports exactly the spec's metrics")
            expect(result.get("correct") is True and result.get("failed") == 0,
                   f"{name} trace={trace} outputs pass their checks")
            if trace == 0:
                printed = {ln.split()[0]: ln.split()[2] for ln in report
                           if ln and not ln.startswith("#")}
                for metric, unit in (("setup_s", "s"), (w.rate_name, None),
                                     ("job_s_p50", "s"), ("job_s_tail", "s"),
                                     ("failed_frac", "ratio"), ("peak_rss_mb", "MB")):
                    expect(metric in printed and (unit is None or printed[metric] == unit),
                           f"{name} prints {metric} with its unit")


# ----------------------------------------------------------------------
# corrupted outputs


def _replace_field(stdout, row, col, value):
    lines = stdout.splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _drop_line(stdout, row):
    lines = stdout.splitlines()
    del lines[row]
    return "\n".join(lines) + "\n"


def corruptions(job, stdout):
    """(description, rc, stdout) variants that a correct check must reject."""
    kind = job.kind
    out = [("exit code 1", 1, stdout)]
    if kind == "validate":
        out += [
            ("overall FAIL", 0, stdout.replace("overall: PASS", "overall: FAIL")),
            ("missing verdict", 0, _drop_line(stdout, -1)),
            ("wrong sample count", 0, stdout.replace("samples: 100", "samples: 99")),
        ]
    elif kind in ("rk4", "rk45"):
        # rk45 has no step count to compare with: drop its final row instead
        out += [
            ("nan state", 0, _replace_field(stdout, 3, 2, "nan")),
            ("ortho_F above bound", 0, _replace_field(stdout, 5, -2, "1e-7")),
            ("ortho_Ftilde above bound", 0, _replace_field(stdout, 5, -1, "-1e-7")),
            ("missing row", 0, _drop_line(stdout, 4 if kind == "rk4" else -1)),
        ]
    elif kind == "currents":
        out += [
            ("error row", 0, _replace_field(stdout, 2, -1, "error:DomainError")),
            ("inf current", 0, _replace_field(stdout, 1, 8, "inf")),
            ("missing row", 0, _drop_line(stdout, 3)),
        ]
        if job.expect["gate_div"]:
            out.append(("|div J| above 1e-4", 0, _replace_field(stdout, 1, -2, "0.001")))
    elif kind == "compare":
        lines = stdout.splitlines()
        zero = next(i for i, ln in enumerate(lines) if ln.startswith("0,"))
        other = next(i for i, ln in enumerate(lines)
                     if ln[:1].isdigit() and not ln.startswith("0,"))
        out += [
            ("kappa=0 row not exactly zero", 0, _replace_field(stdout, zero, 2, "1e-300")),
            ("nan delta", 0, _replace_field(stdout, other, 1, "nan")),
            ("missing row", 0, _drop_line(stdout, other)),
        ]
    return out


def check_checks():
    for name, w in workloads.WORKLOADS.items():
        jobs = workloads.build(name, 11, run.OUT / "smoke" / name)
        client = run.Client(w)
        kinds = {}
        for job in jobs:
            kinds.setdefault((job.kind, job.scene), job)
        for job in kinds.values():
            rec = client.run(job)
            expect(rec.outcome.ok, f"{name}/{job.kind}/{job.scene} real output accepted "
                                   f"({rec.outcome.reason})")
            stdout = client.out.getvalue()
            for what, rc, bad in corruptions(job, stdout):
                outcome = w.check(job, rc, bad, "")
                expect(not outcome.ok, f"{name}/{job.kind}/{job.scene} rejects {what}")


def main():
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_checks()
    check_metric_names(spec)
    print("smoke: " + ("OK" if not FAILURES else f"{len(FAILURES)} failures"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
