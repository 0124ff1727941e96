"""Byte-identity sweep of the CLI outputs between two source trees.

Usage::

    python tools/diff_outputs.py OLD_TREE NEW_TREE [--only COMMAND ...] [--grid SPEC ...]
        [--scene PATH ...]

Runs, in one fresh interpreter per command and tree, on every fixture
scene of ``tests/fixtures`` and on each ``--scene``:

- ``validate --samples 100``,
- ``compare --kappa-sweep 0,0.1,0.2,0.3``, and ``compare --ref R`` at
  each reference direction of ``REFS`` (the origin, the light cone and a
  timelike direction of a Minkowski-like F),
- ``trajectory --out FILE``,
- ``currents --out FILE`` on the README grid, and on each ``--grid``;

and ``trajectory`` and ``compare`` on a copy of curved-aniso that
integrates with rk45.  Each tree runs ``python -m finslerem.cli`` from
its own ``src``, in its own temporary directory.  Compares exit code,
stdout, stderr and the output file byte for byte, and prints each line
that differs with both values.  Exits 0 when every output is identical,
1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
README_GRID = "0:1:3,0:0:1,0:0:1,0:0:1,1:1.1:2,0.1:0.1:1,0:0:1,0:0:1"
COMMANDS = ("validate", "compare", "trajectory", "currents")
REFS = ("0,0,0,0", "1,1,0,0", "1,0.1,0,0")


def cases(scenes, only, grids):
    """(name, argv with "{out}" for the output file) of every run."""
    for name, path in scenes:
        rk45 = name.endswith("-rk45")
        if "validate" in only and not rk45:
            yield f"validate {name}", ["validate", path, "--samples", "100"]
        if "compare" in only:
            yield f"compare {name}", ["compare", path, "--kappa-sweep", "0,0.1,0.2,0.3"]
            for ref in REFS if not rk45 else ():
                yield f"compare {name} --ref {ref}", ["compare", path, "--ref", ref]
        if "trajectory" in only:
            yield f"trajectory {name}", ["trajectory", path, "--out", "{out}"]
        if "currents" in only and not rk45:
            for i, grid in enumerate(grids):
                yield f"currents {name} grid {i}", ["currents", path, "--grid", grid,
                                                    "--out", "{out}"]


def run(tree, argv, workdir):
    """(exit code, stdout, stderr, output file bytes or None) of one command."""
    out = Path(workdir) / "out.csv"
    if out.exists():
        out.unlink()
    argv = [str(out) if a == "{out}" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    p = subprocess.run([sys.executable, "-m", "finslerem.cli", *argv], cwd=workdir, env=env,
                       capture_output=True)
    return p.returncode, p.stdout, p.stderr, out.read_bytes() if out.exists() else None


def differences(old, new):
    """Lines of a report on how two results of :func:`run` differ."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"  exit code: old {old[0]} | new {new[0]}")
    for what, a, b in zip(("stdout", "stderr", "output file"), old[1:], new[1:]):
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {what}: old {'none' if a is None else 'written'}"
                         f" | new {'none' if b is None else 'written'}")
            continue
        la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
        for i in range(max(len(la), len(lb))):
            va = la[i] if i < len(la) else "<missing>"
            vb = lb[i] if i < len(lb) else "<missing>"
            if va != vb:
                lines.append(f"  {what} line {i + 1}:\n    old: {va}\n    new: {vb}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--only", action="append", choices=COMMANDS,
                   help="run only this command (repeatable; default all)")
    p.add_argument("--grid", action="append", default=[],
                   help="a further currents grid, 8 min:max:count entries (repeatable)")
    p.add_argument("--scene", action="append", default=[], type=Path,
                   help="a further scene file (repeatable)")
    args = p.parse_args(argv)
    only = set(args.only or COMMANDS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenes = []
        for path in sorted(FIXTURES.glob("*.scene")) + args.scene:
            copy = tmp / path.name
            copy.write_text(path.read_text())
            scenes.append((path.stem, str(copy)))
        rk45 = tmp / "curved-aniso-rk45.scene"
        rk45.write_text((FIXTURES / "curved-aniso.scene").read_text()
                        .replace("method = rk4", "method = rk45"))
        scenes.append(("curved-aniso-rk45", str(rk45)))
        dirs = {side: tmp / side for side in ("old", "new")}
        for d in dirs.values():
            d.mkdir()
        total = differing = 0
        for name, cmd in cases(scenes, only, [README_GRID] + args.grid):
            total += 1
            old = run(args.old, cmd, dirs["old"])
            new = run(args.new, cmd, dirs["new"])
            report = differences(old, new)
            differing += bool(report)
            print(f"{name}: {'differs' if report else 'identical'}", flush=True)
            for line in report:
                print(line)
    print(f"{total - differing} of {total} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
