"""Scene files: flat sectioned text configs describing one run.

Sections: [space] (expressions and constants), [particle] (initial
conditions), [integrate], [sampling], [output].  Expressions are quoted
strings in the expression grammar.  Loading validates 1-homogeneity of
both generators and the metric signature on seeded admissible samples,
so a bad scene fails at load, not mid-run.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr, geometry
from .errors import (
    FinslerEMError,
    HomogeneityViolationError,
    SceneParseError,
)
from .expr import ScalarField
from .geometry import SpaceDef

HOMOGENEITY_TOL = 1e-10


@dataclass
class ParticleSpec:
    x0: np.ndarray = field(default_factory=lambda: np.zeros(4))
    y0: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.1, 0.0, 0.0]))


@dataclass
class IntegrateSpec:
    method: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-8


@dataclass
class SamplingSpec:
    seed: int = 0
    count: int = 100
    x_box: np.ndarray = field(default_factory=lambda: geometry.DEFAULT_X_BOX.copy())
    y_box: np.ndarray = field(default_factory=lambda: geometry.DEFAULT_Y_BOX.copy())


@dataclass
class OutputSpec:
    path: str = "-"


@dataclass
class Scene:
    space: SpaceDef
    particle: ParticleSpec
    integrate: IntegrateSpec
    sampling: SamplingSpec
    output: OutputSpec

    def rng(self):
        return np.random.default_rng(self.sampling.seed)


def _strip_quotes(s):
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _parse_signature(s):
    chars = [c for c in s if c in "+-"]
    if len(chars) != 4:
        raise SceneParseError(f"signature must have 4 signs, got {s!r}")
    return tuple(1 if c == "+" else -1 for c in chars)


def _parse_vec4(s, what):
    parts = s.replace(",", " ").split()
    if len(parts) != 4:
        raise SceneParseError(f"{what} needs 4 numbers, got {s!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as e:
        raise SceneParseError(f"bad number in {what}: {e}") from None


def _parse_box(s, what):
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != 4:
        raise SceneParseError(f"{what} needs 4 min:max ranges, got {s!r}")
    out = np.empty((4, 2))
    for i, p in enumerate(parts):
        bits = p.split(":")
        if len(bits) != 2:
            raise SceneParseError(f"{what} range {p!r} is not min:max")
        out[i] = [float(bits[0]), float(bits[1])]
    return out


def _fmt(v):
    return f"{v:.17g}"


def parse_scene_text(text):
    """Parse scene text; raises SceneParseError on malformed input."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        line = getattr(e, "lineno", None)
        raise SceneParseError(str(e).splitlines()[0], line=line) from None

    if not cp.has_section("space") or not cp.has_option("space", "F"):
        raise SceneParseError("missing [space] section with an F entry")

    def get(section, option, default=None):
        if cp.has_option(section, option):
            return cp.get(section, option)
        return default

    def get_num(section, option, default, conv=float):
        raw = get(section, option)
        if raw is None:
            return default
        try:
            return conv(raw)
        except ValueError:
            raise SceneParseError(
                f"bad number for {section}.{option}: {raw!r}"
            ) from None

    try:
        f_field = expr.parse(_strip_quotes(cp.get("space", "F")))
        l1_src = get("space", "L1")
        l1_field = expr.parse(_strip_quotes(l1_src)) if l1_src is not None else ScalarField.zero()
    except FinslerEMError as e:
        raise SceneParseError(f"bad expression: {e}") from None

    space = SpaceDef(
        F=f_field,
        L1=l1_field,
        q=get_num("space", "q", 1.0),
        c=get_num("space", "c", 1.0),
        H=get_num("space", "H", 1.0),
        coupling=get_num("space", "coupling", 1.0),
        signature=_parse_signature(get("space", "signature", "+---")),
    )

    particle = ParticleSpec()
    if cp.has_section("particle"):
        if cp.has_option("particle", "x0"):
            particle.x0 = _parse_vec4(cp.get("particle", "x0"), "particle.x0")
        if cp.has_option("particle", "y0"):
            particle.y0 = _parse_vec4(cp.get("particle", "y0"), "particle.y0")

    integ = IntegrateSpec()
    if cp.has_section("integrate"):
        integ.method = get("integrate", "method", integ.method).strip()
        integ.dt = get_num("integrate", "dt", integ.dt)
        integ.t_end = get_num("integrate", "t_end", integ.t_end)
        integ.abs_tol = get_num("integrate", "abs_tol", integ.abs_tol)
        integ.rel_tol = get_num("integrate", "rel_tol", integ.rel_tol)
        if integ.method not in ("rk4", "rk45"):
            raise SceneParseError(f"unknown integrate method {integ.method!r}")
        for name in ("dt", "t_end", "abs_tol", "rel_tol"):
            v = getattr(integ, name)
            if not (math.isfinite(v) and v > 0):
                raise SceneParseError(f"integrate.{name} must be finite and > 0, got {v!r}")

    sampling = SamplingSpec()
    if cp.has_section("sampling"):
        sampling.seed = get_num("sampling", "seed", sampling.seed, conv=int)
        sampling.count = get_num("sampling", "count", sampling.count, conv=int)
        if sampling.count < 1:
            raise SceneParseError(f"sampling.count must be >= 1, got {sampling.count}")
        if cp.has_option("sampling", "x_box"):
            sampling.x_box = _parse_box(cp.get("sampling", "x_box"), "sampling.x_box")
        if cp.has_option("sampling", "y_box"):
            sampling.y_box = _parse_box(cp.get("sampling", "y_box"), "sampling.y_box")

    output = OutputSpec()
    if cp.has_section("output"):
        output.path = get("output", "path", output.path).strip()

    return Scene(space=space, particle=particle, integrate=integ,
                 sampling=sampling, output=output)


def validate_space(scene, probes=8):
    """Load-time checks: homogeneity of both generators, metric signature."""
    rng = scene.rng()
    xs, ys = geometry.draw_admissible(
        scene.space, rng, probes, scene.sampling.x_box, scene.sampling.y_box
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
    # signature check raises SignatureMismatchError / DegenerateMetricError
    geometry.metric(scene.space, xs, ys, check_signature=True)


def load_scene(path, validate=True):
    """Read, parse and (by default) validate a scene file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SceneParseError(f"cannot read {path}: {e}") from None
    scene = parse_scene_text(text)
    if validate:
        validate_space(scene)
    return scene


def scene_to_text(scene):
    """Canonical text form; parsing it back reproduces the scene."""
    buf = io.StringIO()
    sp = scene.space
    buf.write("[space]\n")
    buf.write(f'F = "{sp.F.source()}"\n')
    if not sp.L1.is_zero():
        buf.write(f'L1 = "{sp.L1.source()}"\n')
    buf.write(f"q = {_fmt(sp.q)}\n")
    buf.write(f"c = {_fmt(sp.c)}\n")
    buf.write(f"H = {_fmt(sp.H)}\n")
    buf.write(f"coupling = {_fmt(sp.coupling)}\n")
    buf.write("signature = " + "".join("+" if s > 0 else "-" for s in sp.signature) + "\n")
    buf.write("\n[particle]\n")
    buf.write("x0 = " + " ".join(_fmt(v) for v in scene.particle.x0) + "\n")
    buf.write("y0 = " + " ".join(_fmt(v) for v in scene.particle.y0) + "\n")
    it = scene.integrate
    buf.write("\n[integrate]\n")
    buf.write(f"method = {it.method}\ndt = {_fmt(it.dt)}\nt_end = {_fmt(it.t_end)}\n")
    buf.write(f"abs_tol = {_fmt(it.abs_tol)}\nrel_tol = {_fmt(it.rel_tol)}\n")
    sm = scene.sampling
    buf.write("\n[sampling]\n")
    buf.write(f"seed = {sm.seed}\ncount = {sm.count}\n")
    buf.write("x_box = " + ", ".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in sm.x_box) + "\n")
    buf.write("y_box = " + ", ".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in sm.y_box) + "\n")
    buf.write("\n[output]\n")
    buf.write(f"path = {scene.output.path}\n")
    return buf.getvalue()
