import argparse
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import finslerem
from finslerem import dynamics, em, expr, series
from finslerem.cli import identity_residuals, main, run_validation
from finslerem.dynamics import ForceEvaluator
from finslerem.errors import (
    HomogeneityViolationError,
    SceneParseError,
    SignatureMismatchError,
)
from finslerem.geometry import Tower, draw_admissible
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


class TestIdentitySuiteWork:
    """The series products of one batch-100 identity suite on the four
    validate-batch scenes, by order.  The counts are the work the suite
    does; a change that expands terms known to be zero again raises one."""

    # before the flat-F cap, outer products and one-variable compositions:
    # 30, 21, 27 and 24 products, of them 5, 4, 6 and 4 at order 4.  Before
    # each Horner step ran at the order its result is read to and the spray
    # was solved degree by degree (which adds the degree-1 and degree-2
    # steps of the solve and drops the order-2 products of the inverse):
    # curved-aniso {0: 2, 1: 10, 2: 5, 3: 7, 4: 4}, randers-aniso
    # {1: 9, 2: 2, 3: 6}, pr-curved {0: 2, 1: 10, 2: 5, 3: 2, 4: 4},
    # aniso-wave {1: 9, 2: 2, 3: 8}.  Before the spray's contraction with
    # the coordinate series ran without a product: curved-aniso
    # {0: 2, 1: 11, 2: 8, 3: 5, 4: 2}, pr-curved {0: 2, 1: 11, 2: 6, 3: 2, 4: 2}.
    # Before zeta was read without the other current terms (the product
    # P = F^ij S and the connection's products of delta P and delta Q):
    # curved-aniso {0: 2, 1: 11, 2: 7, 3: 5, 4: 2}, randers-aniso
    # {1: 9, 2: 4, 3: 4}, pr-curved {0: 2, 1: 11, 2: 5, 3: 2, 4: 2},
    # aniso-wave {1: 9, 2: 5, 3: 5}
    COUNTS = {
        "curved-aniso": {1: 10, 2: 7, 3: 5, 4: 2},
        "randers-aniso": {1: 8, 2: 4, 3: 4},
        "pr-curved": {1: 10, 2: 5, 3: 2, 4: 2},
        "aniso-wave": {1: 8, 2: 5, 3: 5},
    }

    @pytest.mark.parametrize("name", list(COUNTS))
    def test_products_by_order(self, name, monkeypatch):
        space = load_scene(FIXTURES / f"{name}.scene").space
        xs, ys = draw_admissible(space, np.random.default_rng(13), 100)
        identity_residuals(space, xs, ys)  # programs and tables built
        orders = []
        product = series._product

        def counting(a, b, k, *rest, **kw):
            orders.append(k)
            return product(a, b, k, *rest, **kw)

        monkeypatch.setattr(series, "_product", counting)
        identity_residuals(space, xs, ys)
        assert {k: orders.count(k) for k in sorted(set(orders))} == self.COUNTS[name]

    @staticmethod
    def _kernels(monkeypatch):
        """Record the (k, n, first term) of each product by the kernel that
        sums it: ``reduceat`` (one-shot or, with a "blocked" entry, block by
        block) or peeled."""
        calls = {"reduceat": [], "blocked": [], "peeled": []}

        def recording(kind, fn):
            def wrapper(*args):
                a, b, k, n, ranks, out, combine, first, width = args
                calls[kind].append((k, n, first))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(series, "_reduceat_product",
                            recording("reduceat", series._reduceat_product))
        monkeypatch.setattr(series, "_peeled_product", recording("peeled", series._peeled_product))
        blocks = series._mul_blocks
        monkeypatch.setattr(series, "_mul_blocks",
                            lambda k, n, width: calls["blocked"].append((k, n)) or blocks(k, n, width))
        return calls

    @pytest.mark.parametrize("name", list(COUNTS))
    def test_wide_products_never_reach_reduceat(self, name, monkeypatch):
        """At batch 100 every product is peeled, whatever its segments
        hold; at batch PEEL_COLUMNS - 1 every product takes
        ``np.add.reduceat``, and those of order 4 run block by block.  A
        lone-point force call runs only the one-shot ``reduceat``, so a
        silent fallback shows."""
        space = load_scene(FIXTURES / f"{name}.scene").space
        xs, ys = draw_admissible(space, np.random.default_rng(13), 100)
        narrow = series.PEEL_COLUMNS - 1
        force = ForceEvaluator(space)
        identity_residuals(space, xs, ys)  # programs and tables built
        identity_residuals(space, xs[:, :narrow], ys[:, :narrow])
        force(xs[:, 0], ys[:, 0])
        calls = self._kernels(monkeypatch)
        identity_residuals(space, xs, ys)
        assert calls["peeled"] and not calls["reduceat"]
        assert len(calls["peeled"]) == sum(self.COUNTS[name].values())

        for kernel in calls.values():
            kernel.clear()
        identity_residuals(space, xs[:, :narrow], ys[:, :narrow])
        assert calls["reduceat"] and not calls["peeled"]
        assert len(calls["reduceat"]) == sum(self.COUNTS[name].values())
        long = {(k, n) for k, n, first in calls["reduceat"] if k >= 4}
        assert len(long) == (4 in self.COUNTS[name])
        assert long <= set(calls["blocked"])

        for kernel in calls.values():
            kernel.clear()
        force(xs[:, 0], ys[:, 0])
        assert calls["reduceat"] and not calls["blocked"] and not calls["peeled"]

    @pytest.mark.parametrize("name", [f[:-len(".scene")] for f in ALL_FIXTURES])
    def test_full_tower_reads_the_connection_off_its_series(self, name, monkeypatch):
        """The identity suite's two Towers stop their inverse metric at the
        order of the field blocks."""
        space = load_scene(FIXTURES / f"{name}.scene").space
        xs, ys = draw_admissible(space, np.random.default_rng(13), 20)
        towers = []
        init = Tower.__init__

        def recording(t, *args, **kw):
            towers.append(t)
            init(t, *args, **kw)

        monkeypatch.setattr(Tower, "__init__", recording)
        identity_residuals(space, xs, ys)
        assert len(towers) == 2
        for t in towers:
            if "ginv" in t.__dict__:
                assert t.ginv.order == max(1, t.kl - 2)
        assert "ginv" in towers[0].__dict__


class TestCompileWork:
    """Parsing and compilation per job of the benchmark's scenes: a cold
    job compiles each expression once, and a repeat of the same scene in
    the same process compiles nothing: no tape, program or force."""

    # before the caches every job made the cold job's calls, a repeat too;
    # two builds are F's and L1's order-0 programs, which the load probe
    # and the admissible draws run (``expr.eval_values``)
    COLD = {
        "validate-curved-aniso": {"parse": 2, "tape": 2, "build": 5},
        "validate-randers-aniso": {"parse": 2, "tape": 3, "build": 4},
        "validate-pr-curved": {"parse": 2, "tape": 2, "build": 5},
        "validate-aniso-wave": {"parse": 2, "tape": 3, "build": 4},
        "compare-aniso-wave": {"parse": 2, "tape": 5, "build": 6, "diff_ast": 4, "force": 1},
    }

    @pytest.mark.parametrize("job", list(COLD))
    def test_repeat_compiles_nothing(self, job, tmp_path, monkeypatch, capsys, fresh_caches):
        command, name = job.split("-", 1)
        if command == "validate":
            argv = ["validate", str(FIXTURES / f"{name}.scene"), "--samples", "100"]
        else:  # the compare-sweep scene: 5 rk4 steps
            path = tmp_path / f"{name}.scene"
            path.write_text((FIXTURES / f"{name}.scene").read_text()
                            .replace("t_end = 1", "t_end = 0.005"))
            argv = ["compare", str(path), "--kappa-sweep", "0,0.1,0.2,0.3"]
        counts = {}

        def counting(owner, attr, tag):
            fn = getattr(owner, attr)

            def wrapper(*args, **kw):
                counts[tag] = counts.get(tag, 0) + 1
                return fn(*args, **kw)
            monkeypatch.setattr(owner, attr, wrapper)

        counting(expr._Parser, "parse", "parse")
        counting(expr._Tape, "__init__", "tape")
        counting(expr._Tape, "_build", "build")
        counting(em, "diff_ast", "diff_ast")
        counting(dynamics._Force, "__init__", "force")
        assert main(argv) == 0
        assert counts == self.COLD[job]
        cold = capsys.readouterr()
        counts.clear()
        assert main(argv) == 0
        assert counts == {}
        assert capsys.readouterr() == cold


class TestMonitorsWhereRead:
    """``compare`` reads only the endpoints of its member runs and computes
    no monitor; ``trajectory`` writes them and computes one per row."""

    @pytest.mark.parametrize("command", [["compare", "--kappa-sweep", "0,0.5"], ["trajectory"]])
    def test_monitor_calls(self, command, tmp_path, monkeypatch, capsys):
        path = tmp_path / "short.scene"
        path.write_text((FIXTURES / "aniso-wave.scene").read_text()
                        .replace("t_end = 1", "t_end = 0.005"))
        calls = []
        monitors = dynamics._monitors
        monkeypatch.setattr(dynamics, "_monitors", lambda *a: calls.append(1) or monitors(*a))
        assert main([command[0], str(path), *command[1:]]) == 0
        if command[0] == "compare":
            assert calls == []
        else:  # a header, then t = 0 and 5 rk4 steps
            assert len(capsys.readouterr().out.splitlines()) == 7
            assert len(calls) == 6


class TestRoundingGate:
    """``validate --samples 100`` keeps every gated identity at rounding
    level on every fixture, far below the CLI's default tolerance of 1e-8:
    a change to the engine's arithmetic must not lose accuracy that the
    default would hide."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_gated_residuals_at_rounding(self, name, capsys):
        assert main(["validate", str(FIXTURES / name), "--samples", "100",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sample_errors"] == 0
        gated = {r["name"]: r["max_residual"] for r in payload["identities"]
                 if r["pass"] is not None}
        assert len(gated) == 19
        worst = max(gated, key=gated.get)
        assert gated[worst] <= 1e-13, (worst, gated[worst])


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

    def test_calls_share_the_parser_and_no_flag_carries_over(self, capsys, monkeypatch):
        """``main`` builds its parser once per process, and a flag of one
        call is not read by the next: without ``--samples`` (and
        ``--format``) it takes the scene's sample count."""
        scene = FIXTURES / "minkowski-vacuum.scene"
        assert main(["validate", str(scene), "--samples", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 3
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        assert main(["validate", str(scene)]) == 0
        count = load_scene(scene).sampling.count
        assert f"samples: {count}  " in capsys.readouterr().out and count != 3
        assert built == []

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

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("name, grid", [
        # F leaves its domain from x0 = 5.5 on: DomainError rows
        ("pr-curved.scene", "0:30:{n},0:0:1,0:0:1,0:0:1,1:1:1,0.5:0.5:1,0:0:1,0:0:1"),
        # y0 overflows F^2 from the second point on: DegenerateMetricError rows
        ("curved-aniso.scene", "0:0:1,0:1:1,0:0:1,0:0:1,1:1e200:{n},0.1:0.1:1,0:0:1,0:0:1"),
    ], ids=["domain", "overflow"])
    def test_chunked_rows_are_the_per_point_rows(self, name, grid, offset, tmp_path, capsys):
        from finslerem.cli import GRID_CHUNK, _fmt, _grid

        spec = grid.format(n=GRID_CHUNK + offset)
        out = tmp_path / "c.csv"
        assert main(["currents", str(FIXTURES / name), "--grid", spec, "--out", str(out)]) == 0
        want, n_err = _per_point_currents(load_scene(FIXTURES / name).space, _grid(spec), _fmt)
        assert out.read_text().splitlines()[1:] == want
        assert 0 < n_err < GRID_CHUNK + offset
        assert f"point errors: {n_err}" in capsys.readouterr().err


def _per_point_currents(space, grid, fmt):
    """The rows of ``currents`` as it ran one point at a time, its reference,
    and their number of errors."""
    from finslerem.maxwell import current_sample

    rows, n_err = [], 0
    for combo in itertools.product(*grid):
        try:
            with np.errstate(all="ignore"):
                cs = current_sample(space, np.array(combo[:4]), np.array(combo[4:]),
                                    with_continuity=True)
            vals = list(combo) + list(cs.J_h) + list(cs.J_v) + list(cs.zeta) + [cs.continuity]
            if not np.all(np.isfinite(vals)):
                raise finslerem.DomainError("current not finite at grid point")
        except finslerem.FinslerEMError as e:
            n_err += 1
            rows.append(",".join([fmt(v) for v in combo] + ["nan"] * 13)
                        + f",error:{type(e).__name__}")
            continue
        rows.append(",".join(fmt(v) for v in vals) + ",ok")
    return rows, n_err


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

    def test_computed_exponent_reads_as_its_number(self):
        # an exponent of numbers only compiles as the number: y1^(1+1) is
        # y1^2, defined where y1 <= 0, not exp((1+1) log y1)
        text = (
            '[space]\nF = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\n'
            'L1 = "0.1*y1^{}/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"\n'
            "[sampling]\nseed = 5\ncount = 24\n"
        )
        computed = run_validation(parse_scene_text(text.format("(1+1)")), 24, 5, 1e-8)
        literal = run_validation(parse_scene_text(text.format("2")), 24, 5, 1e-8)
        assert computed == literal and computed[1] == 0

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
            [("integrate", "dt", "1e-320")],
            [("integrate", "dt", "1e-9")],
        ],
        ids=["rk45-dt-0", "rk4-dt-0", "dt-negative", "t_end-nan", "t_end-inf",
             "abs_tol-0", "rel_tol-negative", "count-0", "count-negative",
             "rk4-dt-denormal", "rk4-too-many-steps"],
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


def test_rk4_step_bound_at_parse():
    from finslerem.dynamics import MAX_RK4_STEPS

    text = (FIXTURES / "minkowski-efield.scene").read_text()
    text = _with_entry(text, "integrate", "t_end", "2")
    at_bound = _with_entry(text, "integrate", "dt", repr(2.0 / MAX_RK4_STEPS))
    assert parse_scene_text(at_bound).integrate.dt == 2.0 / MAX_RK4_STEPS
    over = _with_entry(text, "integrate", "dt", repr(2.0 / (MAX_RK4_STEPS + 1)))
    with pytest.raises(SceneParseError, match="rk4"):
        parse_scene_text(over)
    # rk45 takes its own steps; dt only seeds the first one
    rk45 = _with_entry(_with_entry(text, "integrate", "dt", "1e-9"),
                       "integrate", "method", "rk45")
    assert parse_scene_text(rk45).integrate.method == "rk45"


def _validate_space_reference(scene, probes=8):
    """The single-point load checks, probe by probe, as they were first written."""
    from finslerem import expr, geometry
    from finslerem.scene import HOMOGENEITY_TOL

    xs, ys = geometry.draw_admissible(
        scene.space, scene.rng(), probes, scene.sampling.x_box, scene.sampling.y_box
    )
    for name, fld in (("F", scene.space.F), ("L1", scene.space.L1)):
        if fld.is_zero():
            continue
        for k in range(xs.shape[1]):
            pt = np.concatenate([xs[:, k], ys[:, k]])
            for lam in (0.5, 1.7):
                r = expr.check_homogeneity(fld, 1.0, pt, lam)
                scale = max(1.0, abs(expr.eval_value(fld, pt)))
                if r / scale > HOMOGENEITY_TOL:
                    raise HomogeneityViolationError(name, r, point=pt)
    geometry.metric(scene.space, xs, ys, check_signature=True)


class TestBatchedLoadChecks:
    """validate_space reports the first failing probe of the single-point checks."""

    ROOT = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"

    @pytest.mark.parametrize(
        "F, L1",
        [
            (ROOT + " + 0.01*y1^2", None),
            (ROOT + " + 0.01*(x1 + abs(x1))*y0^2", None),
            (ROOT, "x1*y0^2"),
            (ROOT, "log(x1)*y0"),
            (ROOT, "0.3*y1^2/" + ROOT + " + 0.2*sin(x0)*y0"),
        ],
        ids=["F-quadratic-term", "F-fails-where-x1-positive", "L1-quadratic",
             "L1-not-finite-where-x1-negative", "homogeneous"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_same_first_failure_as_single_point_checks(self, F, L1, seed):
        from finslerem.errors import FinslerEMError
        from finslerem.scene import validate_space

        text = f'[space]\nF = "{F}"\n' + (f'L1 = "{L1}"\n' if L1 else "")
        scene = parse_scene_text(text + f"[sampling]\nseed = {seed}\n")
        errors = []
        for check in (_validate_space_reference, validate_space):
            try:
                check(scene)
                errors.append(None)
            except FinslerEMError as e:
                errors.append(e)
        ref, got = errors
        if ref is None:
            assert got is None
            return
        assert type(got) is type(ref) and str(got) == str(ref)
        if isinstance(ref, HomogeneityViolationError):
            assert np.array_equal(got.point, ref.point)
            assert got.field_name == ref.field_name

    def test_every_failure_kind_is_covered(self):
        from finslerem.errors import DomainError
        from finslerem.scene import validate_space

        root = self.ROOT
        bad_f = parse_scene_text(f'[space]\nF = "{root} + 0.01*y1^2"\n')
        with pytest.raises(HomogeneityViolationError, match="F violates"):
            validate_space(bad_f)
        nan_l1 = parse_scene_text(f'[space]\nF = "{root}"\nL1 = "log(x1)*y0"\n')
        with pytest.raises(DomainError, match="not finite"):
            validate_space(nan_l1)


class TestLoadProbeInjection:
    """validate_space checks its probes as arrays; with violations
    injected into the probe values it raises for the same first (field,
    probe, lam) as the probe-by-probe loop (``oracles.validate_space_loop``),
    with the same exception and message."""

    PROBES = 8

    @staticmethod
    def _inject(monkeypatch, space, faults):
        """Make expr.eval_values return the load probe's values with
        ``faults`` applied: (field, probe, row, value), row 0 being the
        probe and row m its y scaled by the m-th lam; a value of None
        scales the entry by 1 + 1e-6."""
        evaluate = expr.eval_values

        def injected(fld, points):
            vals = evaluate(fld, points)
            if points.shape[1] != 3 * TestLoadProbeInjection.PROBES:
                return vals  # the admissible draws, not the probe
            vals = vals.reshape(3, -1).copy()
            for name, probe, row, value in faults:
                if fld is getattr(space, name):
                    vals[row, probe] = vals[row, probe] * (1 + 1e-6) if value is None else value
            return vals.ravel()

        monkeypatch.setattr(expr, "eval_values", injected)

    @pytest.mark.parametrize("faults", [
        [("F", 0, 1, None)],
        [("L1", 3, 2, None), ("L1", 5, 1, None)],
        [("L1", 5, 1, None), ("L1", 3, 2, np.nan)],
        [("L1", 4, 0, np.inf), ("L1", 4, 1, None)],
        [("L1", 6, 2, None), ("F", 7, 2, None)],
        [("F", 2, 1, -np.inf), ("F", 2, 2, np.nan), ("L1", 0, 1, None)],
        [("F", 7, 2, 1e308)],
        [],
    ], ids=["F-homogeneity", "L1-later-probe-second", "L1-nan-first", "L1-inf-base",
            "F-before-L1", "F-not-finite", "F-overflow", "none"])
    def test_first_failure_matches_the_loop(self, faults, monkeypatch):
        from finslerem.errors import FinslerEMError
        from finslerem.scene import validate_space

        from oracles import validate_space_loop

        scene = load_scene(FIXTURES / "curved-aniso.scene", validate=False)
        self._inject(monkeypatch, scene.space, faults)
        errors = []
        for check in (validate_space_loop, validate_space):
            try:
                check(scene, self.PROBES)
                errors.append(None)
            except FinslerEMError as e:
                errors.append(e)
        ref, got = errors
        assert (ref is None) == (not faults)
        if ref is None:
            assert got is None
            return
        assert type(got) is type(ref) and str(got) == str(ref)
        if isinstance(ref, HomogeneityViolationError):
            assert np.array_equal(got.point, ref.point)
            assert got.field_name == ref.field_name


class TestSceneValueContract:
    """Bad values in the scene fail at load: exit 2, one line, no traceback."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sampling", "x_box", "1:-1, 0:0, 0:0, 0:0"),
            ("sampling", "x_box", "a:1, 0:0, 0:0, 0:0"),
            ("particle", "y0", "nan 0.1 0 0"),
            ("space", "L1", '"1e999*y0"'),
            ("space", "c", "0"),
            ("space", "coupling", "0"),
            ("space", "H", "0"),
            ("sampling", "seed", "-3"),
            ("sampling", "count", "10001"),
        ],
        ids=["x_box-reversed", "x_box-not-a-number", "y0-nan", "literal-overflow",
             "c-zero", "coupling-zero", "H-zero", "seed-negative", "count-above-limit"],
    )
    def test_rejected_at_load(self, section, key, value, tmp_path):
        text = _with_entry((FIXTURES / "aniso-wave.scene").read_text(), section, key, value)
        with pytest.raises(SceneParseError):
            parse_scene_text(text)
        path = tmp_path / "bad.scene"
        path.write_text(text)
        src = str(pathlib.Path(finslerem.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "finslerem.cli", "compare", str(path),
             "--kappa-sweep", "0,0.5"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("load error:")


def _run_cli(*argv):
    src = str(pathlib.Path(finslerem.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "finslerem.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


README_GRID = "0:1:3,0:0:1,0:0:1,0:0:1,1:1.1:2,0.1:0.1:1,0:0:1,0:0:1"


class TestFlagContract:
    """Bad flag values fail before any work: exit 2, one line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "aniso-wave.scene", "--kappa-sweep", "nan"],
            ["compare", "aniso-wave.scene", "--kappa-sweep", "0,inf"],
            ["compare", "aniso-wave.scene", "--kappa-sweep", "0,,1"],
            ["compare", "aniso-wave.scene", "--kappa-sweep", "0,a"],
            ["compare", "aniso-wave.scene", "--ref", "1,2"],
            ["compare", "aniso-wave.scene", "--ref", "1,0.1,0,nan"],
            ["compare", "aniso-wave.scene", "--ref", "0,0,0,0"],
            ["compare", "aniso-wave.scene", "--ref", "0.1,1,0,0"],
            ["validate", "minkowski-vacuum.scene", "--samples", "0"],
            ["validate", "minkowski-vacuum.scene", "--samples", "-5"],
            ["validate", "minkowski-vacuum.scene", "--samples", "2.5"],
            ["validate", "minkowski-vacuum.scene", "--samples", "10001"],
            ["validate", "curved-aniso.scene", "--seed", "-1"],
            ["validate", "minkowski-vacuum.scene", "--tol", "nan"],
            ["validate", "minkowski-vacuum.scene", "--tol", "-1"],
            ["currents", "aniso-wave.scene", "--grid", README_GRID.replace("0:1:3", "a:1:3")],
            ["currents", "aniso-wave.scene", "--grid", README_GRID.replace("0:1:3", "0:1:x")],
            ["currents", "aniso-wave.scene", "--grid", README_GRID.replace("0:1:3", "nan:1:3")],
            ["currents", "aniso-wave.scene", "--grid", README_GRID.replace("0:1:3", "0:1:0")],
            ["currents", "aniso-wave.scene", "--grid", "0:1:2"],
            ["currents", "aniso-wave.scene", "--grid",
             "0:1:100,0:1:100,0:1:100,0:1:100,1:1.1:2,0:0:1,0:0:1,0:0:1"],
            ["trajectory", "minkowski-efield.scene", "--out",
             str(FIXTURES / "no-such-dir" / "out.csv")],
            ["currents", "aniso-wave.scene", "--grid", README_GRID, "--out", str(FIXTURES)],
        ],
        ids=["kappa-nan", "kappa-inf", "kappa-empty", "kappa-not-a-number", "ref-two",
             "ref-nan", "ref-zero", "ref-spacelike", "samples-0", "samples-negative",
             "samples-not-an-integer", "samples-above-limit", "seed-negative", "tol-nan", "tol-negative",
             "grid-bound-not-a-number", "grid-count-not-an-integer", "grid-bound-nan",
             "grid-count-0", "grid-too-few-entries", "grid-too-many-points",
             "out-missing-dir", "out-a-directory"],
    )
    def test_rejected(self, argv):
        argv = [argv[0], str(FIXTURES / argv[1]), *argv[2:]]
        proc = _run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("bad flag:"), proc.stderr

    @pytest.mark.parametrize("ref, value", [("0,0,0,0", "0"), ("1,1,0,0", "0"),
                                            ("0.1,1,0,0", "nan")])
    def test_ref_prints_f(self, ref, value):
        # F's value at the reference direction, 0 on the light cone
        proc = _run_cli("compare", str(FIXTURES / "aniso-wave.scene"), "--ref", ref)
        assert proc.returncode == 2
        assert proc.stderr == f"bad flag: --ref: F(x0, y_ref) = {value} must be > 0\n"


@pytest.mark.parametrize("name", ["aniso-wave.scene", "curved-aniso.scene"])
def test_non_finite_currents_row_is_an_error(name):
    # finite flags, but y0 = 1e200 overflows F^2, so det g is NaN: no NaN
    # may be written as ok, and a NaN determinant is a degenerate metric
    grid = "0:0:1,0:0:1,0:0:1,0:0:1,1e200:1e200:1,0:0:1,0:0:1,0:0:1"
    proc = _run_cli("currents", str(FIXTURES / name), "--grid", grid)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 2
    assert rows[1] == "0,0,0,0,9.9999999999999997e+199,0,0,0," + "nan," * 13 \
        + "error:DegenerateMetricError"
    assert proc.stderr.splitlines()[-1] == "currents: max |div J| = 0  point errors: 1"


@pytest.mark.parametrize("name", ["aniso-wave.scene", "curved-aniso.scene"])
def test_overflowing_currents_point_prints_only_the_summary(name):
    # the overflow is the row's error, and no numpy warning
    grid = "0:0:1,0:0:1,0:0:1,0:0:1,1e200:1e200:1,0:0:1,0:0:1,0:0:1"
    proc = _run_cli("currents", str(FIXTURES / name), "--grid", grid)
    assert proc.returncode == 0
    assert proc.stderr == "currents: max |div J| = 0  point errors: 1\n"


def test_spacelike_particle_without_ref_fails_at_t0(tmp_path):
    # only a given --ref is checked at parse; the particle's y0 fails in the run
    text = (FIXTURES / "aniso-wave.scene").read_text()
    path = tmp_path / "spacelike.scene"
    path.write_text(_with_entry(text, "particle", "y0", "0.1 1 0 0"))
    proc = _run_cli("compare", str(path), "--kappa-sweep", "0.5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: at t=0: sqrt of a nonpositive value in "
                           "'sqrt(y0^2 - y1^2 - y2^2 - y3^2)'\n")


def test_potential_not_finite_at_load_probe_is_load_error(tmp_path):
    text = (FIXTURES / "minkowski-vacuum.scene").read_text()
    path = tmp_path / "log.scene"
    path.write_text(_with_entry(text, "space", "L1", '"log(x1)*y0"'))
    proc = _run_cli("validate", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("load error:"), proc.stderr
    assert "not finite" in lines[0]


@pytest.mark.parametrize("command", [["trajectory"], ["currents", "--grid", README_GRID]])
def test_unopenable_output_path_is_load_error(command, tmp_path):
    text = (FIXTURES / "minkowski-efield.scene").read_text() + f"\n[output]\npath = {tmp_path}\n"
    path = tmp_path / "out-dir.scene"
    path.write_text(text)
    proc = _run_cli(command[0], str(path), *command[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("load error: [output] path:"), proc.stderr


def test_scene_not_utf8_is_load_error(tmp_path):
    path = tmp_path / "utf16.scene"
    path.write_bytes(b"\xff\xfe" + (FIXTURES / "minkowski-vacuum.scene").read_bytes())
    proc = _run_cli("validate", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("load error: cannot read"), proc.stderr


def _serial_compare(path, kappas):
    """Rows of a serial sweep: one blend_anisotropy worldline and Tower per kappa.

    This is how ``compare`` ran before the ensemble, kept as its reference.
    """
    from finslerem.dynamics import integrate
    from finslerem.em import blend_anisotropy, isotropic_truncation
    from finslerem.geometry import draw_admissible
    from finslerem.maxwell import current_sample

    scene = load_scene(path)
    y_ref = scene.particle.y0
    it = scene.integrate

    def endpoint(space):
        return integrate(space, scene.particle.x0, scene.particle.y0, it.t_end,
                         method=it.method, dt=it.dt, abs_tol=it.abs_tol,
                         rel_tol=it.rel_tol).endpoint

    iso = isotropic_truncation(scene.space, y_ref)
    x_iso, v_iso = endpoint(iso)
    xs, ys = draw_admissible(scene.space, scene.rng(), min(scene.sampling.count, 16),
                             scene.sampling.x_box, scene.sampling.y_box)
    cur_iso = current_sample(iso, xs, ys)
    for kappa in kappas:
        space = blend_anisotropy(scene.space, y_ref, kappa)
        xk, vk = endpoint(space)
        cur = current_sample(space, xs, ys)
        yield [kappa, np.linalg.norm(xk - x_iso) + np.linalg.norm(vk - v_iso),
               np.abs(cur.J_h - cur_iso.J_h).max(), np.abs(cur.zeta - cur_iso.zeta).max(),
               np.abs(cur.J_v - cur_iso.J_v).max()]


class TestCompareEnsemble:
    """compare runs every kappa as one ensemble and prints the serial sweep's rows."""

    @pytest.mark.parametrize(
        "name, method, kappas",
        [
            ("curved-aniso.scene", "rk4", [0.0, 0.3, 1.0]),
            ("curved-aniso.scene", "rk4", [0.7, 0.0, 0.2]),
            ("aniso-wave.scene", "rk4", [1.0, 0.5, 0.0]),
            ("randers-aniso.scene", "rk4", [0.25, 1.0]),
            ("curved-aniso.scene", "rk45", [0.0, 0.6, 1.0]),
            ("aniso-wave.scene", "rk4", [0.1 * i for i in range(9)]),
            ("aniso-wave.scene", "rk4", [0.1 * i for i in range(8)]),
        ],
        ids=["zero-first", "zero-middle", "zero-last", "flat-randers", "rk45", "two-chunks",
             "lone-last-chunk"],
    )
    def test_rows_match_serial_sweep(self, name, method, kappas, tmp_path, capsys):
        path = coarse_copy(name, tmp_path, dt=5e-3, t_end=0.1)
        if method == "rk45":
            text = _with_entry(pathlib.Path(path).read_text(), "integrate", "method", "rk45")
            pathlib.Path(path).write_text(text)
        sweep = ",".join(repr(k) for k in kappas)
        assert main(["compare", path, "--kappa-sweep", sweep]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "kappa,endpoint_delta,dJ_h,dzeta,dJ_v"
        got = [[float(v) for v in line.split(",")] for line in lines[2:]]
        want = list(_serial_compare(path, kappas))
        assert len(got) == len(want) == len(kappas)
        for row, ref, line in zip(got, want, lines[2:]):
            assert row == ref
            if row[0] == 0.0:
                assert line == "0,0,0,0,0"

    @pytest.mark.parametrize("name, method", [("curved-aniso.scene", "rk4"),
                                              ("aniso-wave.scene", "rk4"),
                                              ("curved-aniso.scene", "rk45")])
    def test_shared_geometry_currents_are_each_members_own(self, name, method, tmp_path):
        # members share the draws' F-only stages; each one's currents are
        # still those of its own Tower over the draws, bit for bit
        from finslerem.cli import _member_runs
        from finslerem.em import anisotropy_ensemble
        from finslerem.geometry import draw_admissible
        from finslerem.maxwell import current_sample

        path = coarse_copy(name, tmp_path, dt=5e-3, t_end=0.02)
        if method == "rk45":
            text = _with_entry(pathlib.Path(path).read_text(), "integrate", "method", "rk45")
            pathlib.Path(path).write_text(text)
        scene = load_scene(path)
        y_ref = scene.particle.y0
        xs, ys = draw_admissible(scene.space, scene.rng(), min(scene.sampling.count, 16),
                                 scene.sampling.x_box, scene.sampling.y_box)
        members = [None, 0.0, 0.35, 1.0]
        runs = _member_runs(scene, y_ref, members, xs, ys)
        for m, (_, _, jh, zeta, jv) in zip(members, runs):
            own = current_sample(anisotropy_ensemble(scene.space, y_ref, [m] * xs.shape[1]),
                                 xs, ys)
            assert np.array_equal(jh, own.J_h)
            assert np.array_equal(zeta, own.zeta)
            assert np.array_equal(jv, own.J_v)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", ["aniso-wave.scene", "curved-aniso.scene"])
    def test_zero_member_is_exact_at_every_position(self, name, size, tmp_path, capsys):
        # identical batch columns must round identically wherever they sit
        path = coarse_copy(name, tmp_path, dt=5e-3, t_end=0.02)
        others = [0.3, 1.0, 0.15, 0.7, 0.45][:size - 1]

        def rows(kappas):
            assert main(["compare", path, "--kappa-sweep", ",".join(map(repr, kappas))]) == 0
            return capsys.readouterr().out.splitlines()[2:]

        alone = {k: rows([k])[0] for k in others}
        alone[0.0] = "0,0,0,0,0"
        for pos in range(size):
            kappas = others[:pos] + [0.0] + others[pos:]
            assert rows(kappas) == [alone[k] for k in kappas]

    def test_failing_member_falls_back_to_serial(self, tmp_path, capsys):
        # kappa = 5 drives the worldline onto the null cone at t = 0.46
        path = coarse_copy("aniso-wave.scene", tmp_path)
        kappas = [1.0, 5.0, 0.5]
        assert main(["compare", path, "--kappa-sweep", "1,5,0.5"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        want = _serial_compare(path, kappas)
        first = next(want)
        assert lines[2:] == [",".join(f"{float(v):.17g}" for v in first)]
        with pytest.raises(finslerem.FinslerEMError) as ei:
            next(want)
        assert err == f"error: {ei.value}\n"
        assert "at t=0.46" in err

    def test_first_failing_member_in_order_not_in_time(self, tmp_path, capsys):
        # kappa = 3.5 leaves the cone later than kappa = 12; the serial
        # sweep stops at 3.5, the first failing member in order
        path = coarse_copy("aniso-wave.scene", tmp_path)
        kappas = [1.0, 3.5, 0.2, 12.0, 0.5]
        when = {}
        for k in (3.5, 12.0):
            assert main(["compare", path, "--kappa-sweep", repr(k)]) == 1
            when[k] = float(re.search(r"at t=(\S+):", capsys.readouterr().err).group(1))
        assert when[12.0] < when[3.5]
        assert main(["compare", path, "--kappa-sweep", "1,3.5,0.2,12,0.5"]) == 1
        out, err = capsys.readouterr()
        want = _serial_compare(path, kappas)
        first = next(want)
        assert out.splitlines()[2:] == [",".join(f"{float(v):.17g}" for v in first)]
        with pytest.raises(finslerem.FinslerEMError) as ei:
            next(want)
        assert err == f"error: {ei.value}\n"
        assert f"at t={when[3.5]:.6g}:" in err
