import pathlib

import numpy as np
import pytest

from finslerem import dynamics, em, expr
from finslerem.expr import eval_series, parse
from finslerem.geometry import SpaceDef, Tower
from finslerem.series import TSeries

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

MINKOWSKI_F = "sqrt(y0^2 - y1^2 - y2^2 - y3^2)"
RANDERS_F = "sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1"
PR_F = "sqrt((1 + 0.2*x1^2)*y0^2 - (1 + 0.1*x0^2)*y1^2 - y2^2 - y3^2)"
CURVED_RANDERS_F = "sqrt((1 + 0.2*x1^2)*y0^2 - y1^2 - y2^2 - y3^2) + 0.05*y1"
ANISO_L1 = "0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"


def density(space, x, y, fields):
    """The density V^i S of a vector field with ScalarField components
    ``fields`` at (x, y): the vector series ``geometry.divergence`` takes."""
    t = Tower(space, x, y)
    return TSeries.stack([eval_series(f, t.point, 1) for f in fields]) * t.sqrt_g


@pytest.fixture(scope="session")
def minkowski():
    return SpaceDef(F=parse(MINKOWSKI_F))


@pytest.fixture(scope="session")
def efield():
    return SpaceDef(F=parse(MINKOWSKI_F), L1=parse("0.1*x1*y0"))


@pytest.fixture(scope="session")
def pr_curved():
    return SpaceDef(F=parse(PR_F), L1=parse("0.3*sin(x1)*y0 + 0.1*x0*y2"))


@pytest.fixture(scope="session")
def randers():
    return SpaceDef(F=parse(RANDERS_F))


@pytest.fixture(scope="session")
def randers_aniso():
    return SpaceDef(F=parse(RANDERS_F), L1=parse(ANISO_L1))


@pytest.fixture(scope="session")
def curved_aniso():
    return SpaceDef(
        F=parse(CURVED_RANDERS_F),
        L1=parse("0.1*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.3*sin(x1)*y0"),
    )


@pytest.fixture(scope="session")
def aniso_wave():
    return SpaceDef(
        F=parse(MINKOWSKI_F),
        L1=parse("0.2*sin(x0)*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
    )


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty compile caches for one test: parsed fields, tapes, joined
    programs, isotropic truncations and compiled forces.  A test that
    counts compile work or reads a tape's programs then sees only its own.
    (A field built before the test keeps the tape it holds.)"""
    for module, name in ((expr, "_parsed"), (expr, "_tapes"), (expr, "_joined"),
                         (em, "_truncations"), (dynamics, "_forces")):
        monkeypatch.setattr(module, name, {})


@pytest.fixture
def probe_point():
    x = np.array([0.1, 0.3, -0.2, 0.4])
    y = np.array([1.0, 0.2, -0.1, 0.05])
    return x, y
