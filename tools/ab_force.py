"""A/B of the Lorentz force call between two source trees.

Usage::

    python tools/ab_force.py OLD_TREE NEW_TREE [--rounds 10] [--scenes a,b,c]
                             [--trajectory SCENE | --trajectory '']

Each round runs one fresh interpreter per tree, the order alternating
from round to round.  An interpreter imports ``finslerem`` from its
tree's ``src`` and times ``ForceEvaluator`` calls without monitors: at
the particle point of each fixture scene (lone), and on the 5-member
anisotropy ensemble that ``compare --kappa-sweep 0,0.1,0.2,0.3``
integrates (kappas None, 0, 0.1, 0.2, 0.3 at nearby points).  A time is
the least mean over 7 batches of calls, in microseconds.  With
``--trajectory`` each round also times one ``trajectory`` run of that
scene in each tree, wall clock from process start, output to a
temporary file.  Prints, per case, the median over the rounds for each
tree, their ratio and the rounds the new tree won.

It resolves changes of a few percent in one call, which a traced
benchmark run (one pass, many layers) does not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

CHILD = r"""
import json, sys, timeit
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from finslerem.dynamics import ForceEvaluator
from finslerem.em import anisotropy_ensemble
from finslerem.scene import load_scene

def per_call(fn, number):
    fn()
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6

out = {}
for path in sys.argv[2:]:
    scene = load_scene(path)
    name = path.rsplit("/", 1)[-1].removesuffix(".scene")
    x, y = scene.particle.x0, scene.particle.y0
    force = ForceEvaluator(scene.space)
    out[name + " lone"] = per_call(lambda: force(x, y), 300)
    ens = ForceEvaluator(anisotropy_ensemble(scene.space, y, [None, 0.0, 0.1, 0.2, 0.3]))
    xs = np.tile(x[:, None], 5) + 0.01 * np.arange(5)
    ys = np.tile(y[:, None], 5)
    out[name + " ensemble"] = per_call(lambda: ens(xs, ys), 300)
print(json.dumps(out))
"""


def force_times(tree, scenes):
    res = subprocess.run([sys.executable, "-c", CHILD, str(tree), *map(str, scenes)],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def trajectory_time(tree, scene):
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "finslerem.cli", "trajectory", str(scene),
                        "--out", str(Path(tmp) / "out.csv")], env=env, check=True)
        return time.perf_counter() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--scenes", default="minkowski-efield,aniso-wave,curved-aniso",
                   help="fixture scene names, comma-separated")
    p.add_argument("--trajectory", default="minkowski-efield",
                   help="fixture scene whose trajectory run is timed ('' for none)")
    args = p.parse_args(argv)
    scenes = [FIXTURES / f"{name}.scene" for name in args.scenes.split(",")]
    runs = {"old": {}, "new": {}}
    for r in range(args.rounds):
        sides = ("old", "new") if r % 2 == 0 else ("new", "old")
        for side in sides:
            tree = getattr(args, side)
            times = force_times(tree, scenes)
            if args.trajectory:
                times[f"trajectory {args.trajectory} (s)"] = trajectory_time(
                    tree, FIXTURES / f"{args.trajectory}.scene")
            for case, t in times.items():
                runs[side].setdefault(case, []).append(t)
    print(f"{'case':<36} {'old':>10} {'new':>10} {'new/old':>8}  new won")
    for case, old in runs["old"].items():
        new = runs["new"][case]
        won = sum(n < o for o, n in zip(old, new))
        mo, mn = statistics.median(old), statistics.median(new)
        label = case if case.endswith("(s)") else f"{case} (us)"
        print(f"{label:<36} {mo:>10.4g} {mn:>10.4g} {mn / mo:>8.3f}  {won}/{len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
