"""What importing the package and running each subcommand loads.

``import finslerem`` loads only what a scene load and a Tower run; the
dynamics, em, maxwell and cli modules load on first use, and every name
the package exports resolves to its module's object.  A scene load
builds no 8-variable term table.  Each case runs in
a fresh interpreter, since a module once imported stays in
``sys.modules``.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import finslerem

from conftest import FIXTURES

SRC = str(pathlib.Path(finslerem.__file__).parents[1])
LAZY = ("finslerem.dynamics", "finslerem.em", "finslerem.maxwell", "finslerem.cli")

#: the package's exported names by the module that holds them
EXPORTS = {
    "dynamics": ["ForceEvaluator", "Trajectory", "TrajectoryState", "integrate"],
    "em": ["EMSample", "em_sample", "gauge_shift", "isotropic_truncation"],
    "errors": ["DegenerateMetricError", "DomainError", "ExprSyntaxError", "FinslerEMError",
               "HomogeneityViolationError", "SceneParseError", "SignatureMismatchError",
               "SingularForceMatrixError", "StepRejectionLimitError",
               "UnknownIdentifierError"],
    "expr": ["Jet", "ScalarField", "check_homogeneity", "eval_jet", "parse"],
    "geometry": ["GeometrySample", "SpaceDef", "Tower", "divergence", "draw_admissible",
                 "geometry_sample", "metric"],
    "maxwell": ["CurrentSample", "MaxwellResiduals", "continuity_residual", "current_sample",
                "homogeneous_residuals", "horizontal_current", "vertical_current"],
    "scene": ["Scene", "load_scene", "parse_scene_text", "scene_to_text"],
}


def _python(*args):
    """Run a fresh interpreter on the package's source; returns the process."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))


def test_loading_a_scene_imports_no_lazy_module():
    proc = _python("-c", textwrap.dedent(f"""
        import sys
        import finslerem
        finslerem.load_scene({str(FIXTURES / "curved-aniso.scene")!r})
        print(sorted(m for m in {LAZY!r} if m in sys.modules))
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_loading_a_scene_builds_no_8_variable_table():
    # every Tower expands in the scene's own layout; the 8-variable tables
    # (``series.TERMS``, ``NTERMS``, ...) are built when first read
    proc = _python("-c", textwrap.dedent(f"""
        import finslerem
        from finslerem import series
        finslerem.load_scene({str(FIXTURES / "curved-aniso.scene")!r})
        print(8 in series._terms_cache, end=" ")
        print(series.NTERMS, 8 in series._terms_cache)
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False [1, 9, 45, 165, 495, 1287] True\n"


def test_every_export_resolves_to_its_modules_object():
    proc = _python("-c", textwrap.dedent(f"""
        import importlib
        import finslerem
        for module, names in {EXPORTS!r}.items():
            home = importlib.import_module("finslerem." + module)
            assert getattr(finslerem, module) is home, module
            for name in names:
                assert name in dir(finslerem), name
                assert getattr(finslerem, name) is getattr(home, name), name
        assert "cli" in dir(finslerem)
        assert finslerem.cli is importlib.import_module("finslerem.cli")
        try:
            finslerem.no_such_name
        except AttributeError as e:
            assert "no_such_name" in str(e)
        else:
            raise SystemExit("no AttributeError")
        print("ok")
    """))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("argv, dynamics", [
    (["validate", "--samples", "4"], False),
    (["currents", "--grid", "0:0:1,0:0:1,0:0:1,0:0:1,1:1:1,0:0.2:2,0:0:1,0:0:1"], False),
    (["trajectory", "--out", os.devnull], True),
], ids=["validate", "currents", "trajectory"])
def test_cli_loads_dynamics_only_to_integrate(argv, dynamics, tmp_path):
    """``-X importtime`` lists every module a run imports on stderr."""
    scene = tmp_path / "short.scene"
    scene.write_text((FIXTURES / "curved-aniso.scene").read_text()
                     .replace("t_end = 1\n", "t_end = 0.002\n"))
    proc = _python("-X", "importtime", "-m", "finslerem.cli", argv[0], str(scene), *argv[1:])
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "finslerem.geometry" in loaded
    assert ("finslerem.dynamics" in loaded) == dynamics
