"""Property test of the input contract over mutated scene text and flags.

Whatever the scene file and flags, a run ends in exit 0, 1 or 2 without
a traceback, and a run that exits 0 prints only finite numbers (rows of
``currents`` marked ``error:`` excepted, which hold ``nan`` by design).
Runs are in-process through ``cli.main``; the worldline of ``compare``
and ``trajectory`` is cut to two steps so each example stays short.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finslerem
from finslerem.cli import main

from conftest import FIXTURES

NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e-?\d+)?(?![\w.])")
NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "abc", "", "2.5", "1e6"]
EXPRESSIONS = [
    '"y0"', '"log(x1)*y0"', '"sqrt(y0^2)"', '"1/0*y0"', '"sin("', '"y0^2"', '"x9*y0"',
    '"0"', '"y0*y1/y2"', '"sqrt(y0^2 - y1^2 - y2^2 - y3^2)^3"', '"exp(x0)*y1"',
]


@st.composite
def scene_texts(draw):
    text = (FIXTURES / draw(st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.scene"))))
            ).read_text()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["number", "expression", "drop", "repeat", "cut",
                                     "output", "undecodable"]))
        lines = text.splitlines(keepends=True)
        if not lines:
            break
        if kind == "number":
            spans = [m.span() for m in NUMBER.finditer(text)]
            if spans:
                a, b = draw(st.sampled_from(spans))
                text = text[:a] + draw(st.sampled_from(NUMBERS)) + text[b:]
        elif kind == "expression":
            key = draw(st.sampled_from(["F", "L1"]))
            value = draw(st.sampled_from(EXPRESSIONS))
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        elif kind == "drop":
            del lines[draw(st.integers(0, len(lines) - 1))]
            text = "".join(lines)
        elif kind == "repeat":
            i = draw(st.integers(0, len(lines) - 1))
            text = "".join(lines[:i + 1] + lines[i:])
        elif kind == "output":
            text += f"\n[output]\npath = {draw(st.sampled_from(OUT_PATHS))}\n"
        elif kind == "undecodable":
            text = BYTE_ORDER_MARK + text
        else:
            text = text[:draw(st.integers(0, len(text)))]
    return text


def _short_worldline(text):
    """The text with t_end and dt set so a worldline takes two steps."""
    text = re.sub(r"^(t_end|dt) = .*\n", "", text, flags=re.M)
    if "[integrate]\n" in text:
        return text.replace("[integrate]\n", "[integrate]\nt_end = 0.01\ndt = 0.005\n")
    return text + "\n[integrate]\nt_end = 0.01\ndt = 0.005\n"


# stand-ins for an output path in a missing directory and for a directory,
# made real under each example's own temporary directory
OUT_PATHS = ("@missing", "@dir")
# the bytes ff fe, a UTF-16 byte-order mark that is not UTF-8, written
# through surrogateescape
BYTE_ORDER_MARK = "\udcff\udcfe"

GOOD_GRID = "0:1:2,0:0:1,0:0:1,0:0:1,1:1.1:1,0.1:0.1:1,0:0:1,0:0:1"
# good flag values come up most often, so most runs get past the parser
OUT_FLAGS = st.sampled_from([["--out", "-"], ["--out", "-"], [], ["--out", "@missing"],
                             ["--out", "@dir"]])
COMMANDS = st.one_of(
    st.tuples(st.just("validate"),
              st.sampled_from([["--samples", v] for v in ("1", "2", "3", "3", "0", "x")]),
              st.sampled_from([[], [], ["--tol", "1"], ["--tol", "nan"], ["--seed", "-1"]]),
              st.sampled_from([[], [], ["--format", "csv"], ["--format", "json"]])),
    st.tuples(st.just("currents"),
              st.sampled_from([
                  ["--grid", GOOD_GRID], ["--grid", GOOD_GRID],
                  ["--grid", "0:0:1,0:0:1,0:0:1,0:0:1,1e200:1e200:1,0:0:1,0:0:1,0:0:1"],
                  ["--grid", "0:0:1,0:0:1,0:0:1,0:0:1,0.1:0.1:1,1:1:1,0:0:1,0:0:1"],
                  ["--grid", "0:1:1000,0:1:1000,0:0:1,0:0:1,1:1:1,0:0:1,0:0:1,0:0:1"],
                  ["--grid", "nan:1:2"],
              ]),
              st.just([]),
              OUT_FLAGS),
    st.tuples(st.just("compare"),
              st.sampled_from([["--kappa-sweep", v]
                               for v in ("0,0.5", "0,0.5", "1", "1", "nan", "0,,1", "4")]),
              st.sampled_from([[], [], [], ["--ref", "1,0.1,0,0"], ["--ref", "0,0,0,0"]]),
              st.just([])),
    st.tuples(st.just("trajectory"), OUT_FLAGS, st.just([]), st.just([])),
)


def _finite_output(command, argv, stdout):
    if "--format" in argv and "json" in argv:
        values = [row["max_residual"] for row in json.loads(stdout)["identities"]]
        return bool(np.all(np.isfinite(values)))
    for line in stdout.splitlines():
        if command == "currents" and ",error:" in line:
            continue
        for token in re.split(r"[\s,]+", line):
            try:
                v = float(token)
            except ValueError:
                continue
            if not np.isfinite(v):
                return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=scene_texts(), command=COMMANDS)
def test_every_run_ends_in_a_contract_exit(text, command, tmp_path_factory):
    name, *flag_groups = command
    if name in ("compare", "trajectory"):
        text = _short_worldline(text)
    tmp = tmp_path_factory.mktemp("contract")
    real = {"@missing": str(tmp / "missing" / "out.csv"), "@dir": str(tmp)}
    for stand_in, out_path in real.items():
        text = text.replace(stand_in, out_path)
    path = tmp / "mutated.scene"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = [name, str(path)] + [real.get(f, f) for group in flag_groups for f in group]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's own usage errors
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert _finite_output(name, argv, out.getvalue()), (argv, text, out.getvalue())


@pytest.mark.parametrize("command", [["trajectory", "--out", "-"], ["currents", "--grid", GOOD_GRID]],
                         ids=["trajectory", "currents"])
def test_closed_stdout_is_one_line_and_exit_1(command, tmp_path):
    """A reader that closes stdout before the rows arrive (``| head -1``
    that has read its line) ends the run with exit 1 and at most one
    stderr line: no traceback, and no "Exception ignored" at exit."""
    path = tmp_path / "short.scene"
    path.write_text(_short_worldline((FIXTURES / "curved-aniso.scene").read_text()))
    src = str(pathlib.Path(finslerem.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "finslerem.cli", command[0], str(path),
                             *command[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()  # no reader is left, so every write fails
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1, err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


FAILING_RUN = """[space]
F = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"
L1 = "0.1*y0*log(1 - x1)"

[particle]
x0 = 0 0 0 0
y0 = 1 0.5 0 0

[integrate]
method = rk4
dt = 0.01
t_end = 5
"""


@pytest.mark.parametrize("where", ["flag", "scene", "stdout"])
def test_failed_run_removes_its_output_file(where, tmp_path):
    """A trajectory that fails part way (x1 reaches 1, where log(1 - x1)
    has no value) exits 1 with one line and leaves no output file behind,
    whether ``--out`` or the scene's ``[output] path`` named it; a run
    writing to stdout writes nothing there."""
    out_path = tmp_path / "out.csv"
    text = FAILING_RUN + (f"\n[output]\npath = {out_path}\n" if where == "scene" else "")
    path = tmp_path / "failing.scene"
    path.write_text(text)
    argv = ["trajectory", str(path)] + {"flag": ["--out", str(out_path)], "scene": [],
                                        "stdout": ["--out", "-"]}[where]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue() == (
        "error: at t=1.55: log of a nonpositive value in 'log(1 - x1)'\n")
    assert out.getvalue() == ""
    assert not out_path.exists()


def test_endless_rk45_run_stops_at_the_step_bound(tmp_path, monkeypatch):
    """An rk45 trajectory that would take more than MAX_RK4_STEPS accepted
    steps exits 1 with one line naming t and the bound, and leaves no
    output file behind."""
    from finslerem import dynamics

    monkeypatch.setattr(dynamics, "MAX_RK4_STEPS", 20)
    path = tmp_path / "endless.scene"
    path.write_text((FIXTURES / "curved-aniso.scene").read_text()
                    .replace("method = rk4", "method = rk45").replace("t_end = 1\n", "t_end = 1e9\n"))
    out_path = tmp_path / "out.csv"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["trajectory", str(path), "--out", str(out_path)]) == 1
    assert re.fullmatch(r"error: rk45 stopped at t=\S+ after 20 accepted steps\n", err.getvalue())
    assert out.getvalue() == ""
    assert not out_path.exists()
