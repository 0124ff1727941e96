import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import finslerem
from finslerem.cli import main, run_validation
from finslerem.errors import (
    HomogeneityViolationError,
    SceneParseError,
    SignatureMismatchError,
)
from finslerem.scene import load_scene, parse_scene_text, scene_to_text

from conftest import FIXTURES

ALL_FIXTURES = [
    "minkowski-vacuum.scene",
    "minkowski-efield.scene",
    "pr-curved.scene",
    "randers-vacuum.scene",
    "randers-efield.scene",
    "randers-aniso.scene",
    "planewave.scene",
    "aniso-wave.scene",
    "curved-aniso.scene",
]


class TestLoadScene:
    def test_default_l1_is_zero_field(self):
        scene = load_scene(FIXTURES / "minkowski-vacuum.scene")
        assert scene.space.L1.is_zero()
        assert scene.space.signature == (1, -1, -1, -1)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_all_fixtures_load_and_validate(self, name):
        scene = load_scene(FIXTURES / name)
        assert scene.sampling.count == 100

    def test_homogeneity_violation_reported(self, tmp_path):
        bad = tmp_path / "bad.scene"
        bad.write_text('[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\nL1 = "x1*y0^2"\n')
        with pytest.raises(HomogeneityViolationError) as ei:
            load_scene(bad)
        assert ei.value.field_name == "L1"
        assert ei.value.residual > 0

    def test_corrupted_signature_rejected_at_load(self, tmp_path):
        bad = tmp_path / "sig.scene"
        bad.write_text(
            '[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\nsignature = ++--\n'
        )
        with pytest.raises(SignatureMismatchError):
            load_scene(bad)

    def test_parse_error_on_bad_expression(self, tmp_path):
        bad = tmp_path / "expr.scene"
        bad.write_text('[space]\nF = "sqrt(y5)"\n')
        with pytest.raises(SceneParseError):
            load_scene(bad)

    def test_missing_space_section(self, tmp_path):
        bad = tmp_path / "empty.scene"
        bad.write_text("[particle]\nx0 = 0 0 0 0\n")
        with pytest.raises(SceneParseError):
            load_scene(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneParseError):
            load_scene(tmp_path / "nope.scene")

    def test_bad_number_is_load_error(self, tmp_path):
        bad = tmp_path / "num.scene"
        bad.write_text('[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\nq = abc\n')
        with pytest.raises(SceneParseError):
            load_scene(bad)

    def test_round_trip_stable(self):
        scene = load_scene(FIXTURES / "randers-aniso.scene")
        text1 = scene_to_text(scene)
        again = parse_scene_text(text1)
        assert scene_to_text(again) == text1
        assert again.space == scene.space
        assert np.array_equal(again.particle.x0, scene.particle.x0)
        assert np.array_equal(again.particle.y0, scene.particle.y0)

    def test_output_format_key_is_ignored(self):
        # [output] format is no longer read; configparser skips unread keys
        text = (FIXTURES / "minkowski-vacuum.scene").read_text()
        scene = parse_scene_text(text + "\n[output]\nformat = json\npath = out.csv\n")
        assert scene.output.path == "out.csv"
        assert "format" not in scene_to_text(scene)

    def test_seed_determines_draws(self):
        scene = load_scene(FIXTURES / "randers-aniso.scene")
        from finslerem.geometry import draw_admissible

        a = draw_admissible(scene.space, scene.rng(), 8)
        b = draw_admissible(scene.space, scene.rng(), 8)
        assert np.array_equal(a[0], b[0])


class TestValidateCommand:
    @pytest.mark.parametrize(
        "name",
        ["minkowski-vacuum.scene", "randers-aniso.scene", "curved-aniso.scene"],
    )
    def test_exit_zero_on_clean_scene(self, name, capsys):
        rc = main(["validate", str(FIXTURES / name), "--samples", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out

    def test_zeta_reported_on_anisotropic_scene(self, capsys):
        rc = main(["validate", str(FIXTURES / "randers-aniso.scene"),
                   "--samples", "40", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        zeta = [r for r in payload["identities"]
                if r["name"] == "anisotropy_current_zeta"][0]
        assert zeta["pass"] is None
        assert zeta["max_residual"] > 1e-3
        closed = [r for r in payload["identities"]
                  if r["name"].startswith("closed_field")]
        assert all(r["pass"] for r in closed)

    def test_exit_one_on_failed_tolerance(self, capsys):
        rc = main(["validate", str(FIXTURES / "curved-aniso.scene"),
                   "--samples", "10", "--tol", "1e-30"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_exit_two_on_load_error(self, tmp_path, capsys):
        bad = tmp_path / "sig.scene"
        bad.write_text(
            '[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\nsignature = ++--\n'
        )
        rc = main(["validate", str(bad)])
        assert rc == 2
        assert "load error" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        rc = main(["validate", str(FIXTURES / "minkowski-vacuum.scene"),
                   "--samples", "10", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "identity,max_residual,status"
        assert any(line.startswith("closed_field_hhh,") for line in lines)

    def test_determinism(self, capsys):
        args = ["validate", str(FIXTURES / "randers-aniso.scene"),
                "--samples", "20", "--seed", "5", "--format", "csv"]
        main(args)
        out1 = capsys.readouterr().out
        main(args)
        out2 = capsys.readouterr().out
        assert out1 == out2


def coarse_copy(name, tmp_path, dt=0.01, t_end=1.0):
    """Fixture copy with a coarser integration grid, for fast CLI runs."""
    scene = load_scene(FIXTURES / name)
    scene.integrate.dt = dt
    scene.integrate.t_end = t_end
    p = tmp_path / name
    p.write_text(scene_to_text(scene))
    return str(p)


class TestTrajectoryCommand:
    def test_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        scene = coarse_copy("minkowski-efield.scene", tmp_path)
        assert main(["trajectory", scene, "--out", str(out1)]) == 0
        assert main(["trajectory", scene, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0].split(",")
        assert header[:5] == ["t", "x0", "x1", "x2", "x3"]
        assert "ortho_F" in header and "F_value" in header

    def test_straight_line_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["trajectory", str(FIXTURES / "minkowski-vacuum.scene"), "--out", str(out)])
        rows = out.read_text().splitlines()
        last = [float(v) for v in rows[-1].split(",")]
        assert last[0] == pytest.approx(1.0)
        assert last[1] == pytest.approx(1.0, abs=1e-12)   # x0 = t * y0[0]
        assert last[2] == pytest.approx(0.1, abs=1e-12)


class TestCurrentsCommand:
    GRID = "0:1:2,0:0:1,0:0:1,0:0:1,1:1:1,0.1:0.1:1,0:0:1,0:0:1"

    def test_plane_wave_zeta_column_zero(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["currents", str(FIXTURES / "planewave.scene"),
                   "--grid", self.GRID, "--out", str(out)])
        assert rc == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        hdr = out.read_text().splitlines()[0].split(",")
        z_cols = [hdr.index(f"zeta{i}") for i in range(4)]
        for row in rows:
            assert row[-1] == "ok"
            assert all(float(row[c]) == 0.0 for c in z_cols)
        err = capsys.readouterr().err
        assert "max |div J|" in err

    def test_vacuum_currents_vanish(self, tmp_path):
        out = tmp_path / "v.csv"
        main(["currents", str(FIXTURES / "minkowski-vacuum.scene"),
              "--grid", self.GRID, "--out", str(out)])
        hdr, *rows = out.read_text().splitlines()
        cols = hdr.split(",")
        for r in rows:
            vals = r.split(",")
            for name in ("J0", "Jt0", "zeta0", "divJ"):
                assert abs(float(vals[cols.index(name)])) < 1e-12

    def test_anisotropic_divergence_within_tolerance(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        rc = main(["currents", str(FIXTURES / "aniso-wave.scene"),
                   "--grid", self.GRID, "--out", str(out)])
        assert rc == 0
        hdr, *rows = out.read_text().splitlines()
        cols = hdr.split(",")
        divs = [abs(float(r.split(",")[cols.index("divJ")])) for r in rows]
        assert max(divs) < 1e-4

    def test_bad_point_emits_flagged_row(self, tmp_path):
        out = tmp_path / "bad.csv"
        # y on the null cone: per-point domain error, not a crash
        grid = "0:0:1,0:0:1,0:0:1,0:0:1,1:1:1,1:1:1,0:0:1,0:0:1"
        rc = main(["currents", str(FIXTURES / "randers-aniso.scene"),
                   "--grid", grid, "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[1].endswith("error:DomainError")

    def test_bad_grid_spec(self, capsys):
        rc = main(["currents", str(FIXTURES / "planewave.scene"), "--grid", "0:1:2"])
        assert rc == 2


class TestCompareCommand:
    def test_isotropic_scene_all_deltas_zero(self, tmp_path, capsys):
        rc = main(["compare", coarse_copy("planewave.scene", tmp_path)])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            assert all(abs(v) < 1e-10 for v in vals[1:])

    def test_kappa_sweep_monotone(self, tmp_path, capsys):
        rc = main(["compare", coarse_copy("aniso-wave.scene", tmp_path),
                   "--kappa-sweep", "0.1,0.2,0.3"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        table = np.array([[float(v) for v in r.split(",")] for r in rows])
        for col in range(1, 4):  # endpoint, dJ_h, dzeta all grow with kappa
            assert np.all(np.diff(table[:, col]) > 0)

    def test_reference_direction_flag(self, tmp_path, capsys):
        rc = main(["compare", coarse_copy("randers-aniso.scene", tmp_path),
                   "--ref", "1,0.2,0,0"])
        assert rc == 0
        assert "reference direction: 1 0.2" in capsys.readouterr().out


class TestRunValidation:
    def test_clean_batch_path(self):
        text = (
            '[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1"\n'
            "[sampling]\nseed = 3\ncount = 8\n"
            "y_box = 0.9:1.1, -0.15:0.15, -0.15:0.15, -0.15:0.15\n"
        )
        scene = parse_scene_text(text)
        rows, errors = run_validation(scene, 8, 3, 1e-8)
        assert errors == 0
        assert all(p for _, _, p in rows if p is not None)

    def test_per_sample_fallback_tallies_domain_errors(self):
        # admissibility screens F only; this L1 is undefined on part of
        # the admissible box, so the batch fails and the per-sample path
        # must tally the bad points while validating the rest
        text = (
            '[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\n'
            'L1 = "0.1*y1^2/sqrt(y0^2 - 60*y1^2)"\n'
            "[sampling]\nseed = 5\ncount = 24\n"
        )
        scene = parse_scene_text(text)
        rows, errors = run_validation(scene, 24, 5, 1e-8)
        assert 0 < errors < 24
        assert all(p for _, _, p in rows if p is not None)

    def test_zero_coupling_rejected(self, probe_point):
        from finslerem.maxwell import horizontal_current
        from finslerem.expr import parse as eparse
        from finslerem.geometry import SpaceDef

        x, y = probe_point
        space = SpaceDef(F=eparse("sqrt(y0^2 - y1^2 - y2^2 - y3^2)"), coupling=0.0)
        with pytest.raises(ValueError):
            horizontal_current(space, x, y)


def _with_entry(text, section, key, value):
    """Scene text with ``key`` set to ``value`` in ``[section]``."""
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


class TestInputContract:
    """Bad integration or sampling settings fail at load: exit 2, one line."""

    @pytest.mark.parametrize(
        "edits",
        [
            [("integrate", "method", "rk45"), ("integrate", "dt", "0")],
            [("integrate", "dt", "0")],
            [("integrate", "dt", "-0.1")],
            [("integrate", "t_end", "nan")],
            [("integrate", "t_end", "inf")],
            [("integrate", "abs_tol", "0")],
            [("integrate", "rel_tol", "-1e-8")],
            [("sampling", "count", "0")],
            [("sampling", "count", "-5")],
        ],
        ids=["rk45-dt-0", "rk4-dt-0", "dt-negative", "t_end-nan", "t_end-inf",
             "abs_tol-0", "rel_tol-negative", "count-0", "count-negative"],
    )
    def test_rejected_at_load(self, edits, tmp_path):
        text = (FIXTURES / "minkowski-efield.scene").read_text()
        for section, key, value in edits:
            text = _with_entry(text, section, key, value)
        with pytest.raises(SceneParseError):
            parse_scene_text(text)
        path = tmp_path / "bad.scene"
        path.write_text(text)
        src = str(pathlib.Path(finslerem.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "finslerem.cli", "trajectory", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("load error:")
