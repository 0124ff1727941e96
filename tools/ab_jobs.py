"""A/B of one benchmark workload's jobs between two source trees.

Usage::

    python tools/ab_jobs.py OLD_TREE NEW_TREE [--workload compare-sweep] [--rounds 10]
        [--jobs 60] [--seed 1]

Each round runs one fresh interpreter per tree, the order alternating
from round to round.  An interpreter imports ``finslerem`` from its
tree's ``src`` and the benchmark from its tree's ``perfbench``, builds
the workload's seeded jobs (``perfbench/workloads.py``, seed ``--seed``
plus the round, so both trees run the same jobs in a round), runs one
warm-up job and then the first ``--jobs`` jobs through the benchmark's
client, which checks every output.  Each job time is scaled by the
benchmark's reference operation timed just before and just after it
(``perfbench/run.py``: ``time_reference``, ``to_reference_speed``).  A
round's figure for a tree is the sum of its scaled job times.  Prints,
per tree, the median over the rounds, the ratio new/old and the rounds
the new tree won, and the number of failed jobs.  Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, sys, tempfile
tree, workload, seed, count = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import run, workloads
with tempfile.TemporaryDirectory() as workdir:
    jobs = workloads.build(workload, seed, workdir)
    client = run.Client(workloads.WORKLOADS[workload])
    client.run(jobs[-1])
    times, failed = [], 0
    for job in jobs[:count]:
        before = run.time_reference()
        record = client.run(job)
        times.append(run.to_reference_speed(record.dur, before, run.time_reference()))
        failed += not record.outcome.ok
print(json.dumps({"times": times, "failed": failed}))
"""


def round_of(tree, workload, seed, count):
    """(sum of scaled job times, failed jobs) of one fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", CHILD, str(Path(tree).resolve()), workload,
                          str(seed), str(count)], capture_output=True, text=True, check=True)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    return sum(out["times"]), out["failed"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", default="compare-sweep")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--jobs", type=int, default=60, help="timed jobs per interpreter")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    totals = {"old": [], "new": []}
    failed = {"old": 0, "new": 0}
    for r in range(args.rounds):
        sides = ("old", "new") if r % 2 == 0 else ("new", "old")
        for side in sides:
            total, bad = round_of(getattr(args, side), args.workload, args.seed + r, args.jobs)
            totals[side].append(total)
            failed[side] += bad
        print(f"round {r + 1}: old {totals['old'][-1]:.4f} s  new {totals['new'][-1]:.4f} s",
              flush=True)
    old, new = totals["old"], totals["new"]
    mo, mn = statistics.median(old), statistics.median(new)
    won = sum(n < o for o, n in zip(old, new))
    print(f"{args.workload}, {args.jobs} jobs a round (s, at reference speed):")
    print(f"  old median {mo:.4f}  new median {mn:.4f}  new/old {mn / mo:.3f}  "
          f"new won {won}/{len(old)}  failed jobs old {failed['old']} new {failed['new']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
