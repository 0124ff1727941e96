"""A/B of the cold start between two source trees.

Usage::

    python tools/ab_setup.py OLD_TREE NEW_TREE [--rounds 10] [--scene curved-aniso]

Each round runs one fresh interpreter per tree, the order alternating
from round to round.  An interpreter times the three steps of the
benchmark's set-up probe (``perfbench/setup_probe.py``) separately:
``import finslerem`` from its tree's ``src``, ``load_scene`` of the
fixture scene with its load-time checks, and the series product tables
of orders 1..``MAX_ORDER`` in the default (8-variable) layout.  Each
round also times one cold ``validate --samples 100`` of the scene per
tree, wall clock from process start.  Prints, per case, the median over
the rounds for each tree, their ratio and the rounds the new tree won.

The import includes compiling the sources wherever no bytecode is
cached, for instance with ``PYTHONDONTWRITEBYTECODE`` set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import finslerem
t1 = time.perf_counter()
finslerem.load_scene(sys.argv[2])
t2 = time.perf_counter()
from finslerem.series import MAX_ORDER, TSeries
for k in range(1, MAX_ORDER + 1):
    TSeries.constant(1.0, k) * TSeries.constant(1.0, k)
t3 = time.perf_counter()
print(json.dumps({"import": t1 - t0, "load_scene": t2 - t1, "tables": t3 - t2,
                  "probe": t3 - t0}))
"""


def probe_times(tree, scene):
    res = subprocess.run([sys.executable, "-c", CHILD, str(tree), str(scene)],
                         capture_output=True, text=True, check=True)
    return {f"{step} (ms)": 1e3 * t for step, t in json.loads(res.stdout).items()}


def validate_time(tree, scene):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "finslerem.cli", "validate", str(scene),
                    "--samples", "100"], env=env, check=True, capture_output=True)
    return 1e3 * (time.perf_counter() - t0)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--scene", default="curved-aniso", help="fixture scene name")
    args = p.parse_args(argv)
    scene = FIXTURES / f"{args.scene}.scene"
    runs = {"old": {}, "new": {}}
    for r in range(args.rounds):
        sides = ("old", "new") if r % 2 == 0 else ("new", "old")
        for side in sides:
            tree = getattr(args, side)
            times = probe_times(tree, scene)
            times["cold validate --samples 100 (ms)"] = validate_time(tree, scene)
            for case, t in times.items():
                runs[side].setdefault(case, []).append(t)
    print(f"{'case':<36} {'old':>10} {'new':>10} {'new/old':>8}  new won")
    for case, old in runs["old"].items():
        new = runs["new"][case]
        won = sum(n < o for o, n in zip(old, new))
        mo, mn = statistics.median(old), statistics.median(new)
        print(f"{case:<36} {mo:>10.4g} {mn:>10.4g} {mn / mo:>8.3f}  {won}/{len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
