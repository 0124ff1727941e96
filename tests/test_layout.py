"""Series layouts: every jet runs over only the chart variables in use.

The pruned tower is checked against the same space padded to all 8
variables (F + 0*x0 + ... + 0*x3, which the tape does not fold away).
A product term over active variables sums the same pairs in the same
order in either layout, so the two agree bit for bit today; the gate is
1e-13 relative all the same, so it does not rest on that.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from finslerem import series
from finslerem.cli import main
from finslerem.dynamics import ForceEvaluator
from finslerem.em import blend_anisotropy, em_sample, isotropic_truncation
from finslerem.expr import (
    BinOp, Num, ScalarField, Var, eval_jet, eval_series, eval_values, parse,
)
from finslerem.geometry import Tower, divergence, draw_admissible, geometry_sample
from finslerem.maxwell import current_sample, homogeneous_residuals
from finslerem.scene import load_scene, parse_scene_text
from finslerem.series import ALL, MAX_ORDER, TSeries, jet_tensor

from conftest import FIXTURES, density
from oracles import fd_divergence

FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.scene"))
LAYOUT_SIZES = {"curved-aniso": 5, "randers-aniso": 4, "pr-curved": 6, "aniso-wave": 5}


# ----------------------------------------------------------------------
# reference loops for the tables (the straightforward construction)


def _ref_terms(n):
    terms = []
    for deg in range(MAX_ORDER + 1):
        terms.extend(sorted(
            t for t in itertools.product(range(deg + 1), repeat=n) if sum(t) == deg
        ))
    return terms


def _ref_mul_tables(terms, k):
    index = {t: i for i, t in enumerate(terms)}
    size = sum(1 for t in terms if sum(t) <= k)
    triples = []
    for i in range(size):
        for j in range(size):
            if sum(terms[i]) + sum(terms[j]) <= k:
                tk = tuple(a + b for a, b in zip(terms[i], terms[j]))
                triples.append((index[tk], i, j))
    triples.sort()
    K = np.array([t[0] for t in triples])
    return (np.array([t[1] for t in triples]), np.array([t[2] for t in triples]),
            np.searchsorted(K, np.arange(size)))


def _ref_deriv_tables(terms, k, pos):
    index = {t: i for i, t in enumerate(terms)}
    nout = sum(1 for t in terms if sum(t) <= k - 1)
    src, fac = [], []
    for t in terms[:nout]:
        beta = list(t)
        fac.append(beta[pos] + 1.0)
        beta[pos] += 1
        src.append(index[tuple(beta)])
    return np.array(src), np.array(fac)


class TestTables:
    @pytest.mark.parametrize("n", range(9))
    def test_tables_equal_reference_loops(self, n):
        ref = _ref_terms(n)
        t = series._terms(n)
        assert t.rows == ref
        assert np.array_equal(
            t.fact, [math.prod(math.factorial(e) for e in r) for r in ref]
        )
        for k in range(1, MAX_ORDER + 1):
            for got, want in zip(series._mul_tables(k, n), _ref_mul_tables(ref, k)):
                assert np.array_equal(got, want)
            for pos in range(n):
                for got, want in zip(series._deriv_tables(k, pos, n),
                                     _ref_deriv_tables(ref, k, pos)):
                    assert np.array_equal(got, want)

    def test_order_4_triples_per_layout_size(self):
        assert [len(series._mul_tables(4, n)[0]) for n in (4, 5, 6, 8)] == \
            [495, 1001, 1820, 4845]


# ----------------------------------------------------------------------
# series in a pruned layout


Y_ONLY = (4, 5, 6, 7)


class TestPrunedSeries:
    def test_deriv_outside_layout_is_zero(self):
        s = TSeries.coordinate(4, np.array([1.0, 2.0]), 3, batch=(2,), layout=Y_ONLY)
        d = (s * s).deriv(1)
        assert d.order == 2 and d.layout == Y_ONLY
        assert d.coeffs.shape == (series._terms(4).nterms[2], 2)
        assert not d.coeffs.any()

    def test_readers_fill_zeros_for_inactive_variables(self):
        s = TSeries.coordinate(4, 1.2, 3, layout=(1,) + Y_ONLY)
        s = s * s * TSeries.coordinate(1, 0.3, 3, layout=(1,) + Y_ONLY)
        full = s.lift(ALL)
        for pattern in ("yy", "yx", "yyx", "x"):
            got = jet_tensor(s, pattern)
            assert np.array_equal(got, jet_tensor(full, pattern))
            assert pattern.count("x") == 0 or not got[..., 0].any()
        assert s.partial((1, 0, 0, 0, 1, 0, 0, 0)) == 0.0
        assert s.partial((0, 1, 0, 0, 2, 0, 0, 0)) == pytest.approx(2.0)

    def test_batched_jet_tensor_fills_zeros(self):
        s = TSeries.coordinate(4, np.array([1.0, 2.0]), 2, batch=(2,), layout=Y_ONLY)
        t = jet_tensor(s * s, "yx")
        assert t.shape == (4, 4, 2) and not t.any()

    def test_mixed_layouts_combine_in_their_union(self):
        a = TSeries.coordinate(0, 0.5, 2, layout=(0, 4))
        b = TSeries.coordinate(5, 2.0, 2, layout=(5,))
        p = a * b
        assert p.layout == (0, 4, 5)
        assert p.partial((1, 0, 0, 0, 0, 1, 0, 0)) == 1.0
        assert p.value() == 1.0

    def test_eval_series_in_a_layout(self):
        f = parse("sin(x1)*y0^2/sqrt(y0^2 - y1^2)")
        pt = np.array([0.1, 0.3, -0.2, 0.4, 1.0, 0.2, -0.1, 0.05])
        pruned = eval_series(f, pt, 4, (1, 4, 5))
        full = eval_series(f, pt, 4)
        assert pruned.coeffs.shape == (series._terms(3).nterms[4],)
        np.testing.assert_allclose(pruned.lift(ALL).coeffs, full.coeffs,
                                   rtol=1e-13, atol=1e-15)
        with pytest.raises(ValueError, match="x1"):
            eval_series(f, pt, 2, Y_ONLY)

    def test_eval_jet_of_a_constant(self):
        j = eval_jet(parse("2*3"), np.zeros(8), 2)
        assert j.value == 6.0
        assert set(j.partials.values()) == {0.0}
        assert len(j.partials) == series.NTERMS[2] - 1


# ----------------------------------------------------------------------
# pruned towers against the same space padded to all 8 variables


def _padded(space):
    """The same space with F + 0*x0 + ... + 0*x3, so every variable is active."""
    ast = space.F.ast
    for i in range(4):
        ast = BinOp("+", ast, BinOp("*", Num(0.0), Var(i)))
    return dataclasses.replace(space, F=ScalarField(ast))


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale


def _close_fields(a, b):
    for f in dataclasses.fields(a):
        got, want = getattr(a, f.name), getattr(b, f.name)
        if want is None:  # a quantity not requested
            assert got is None
        else:
            _close(got, want)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pruned_tower_matches_padded(name):
    scene = load_scene(FIXTURES / f"{name}.scene")
    space, pad = scene.space, _padded(scene.space)
    xs, ys = draw_admissible(space, scene.rng(), 8, scene.sampling.x_box,
                             scene.sampling.y_box)
    t, tp = Tower(space, xs, ys), Tower(pad, xs, ys)
    assert len(t.layout) == LAYOUT_SIZES.get(name, len(t.layout)) < 8
    assert tp.layout == ALL

    _close_fields(geometry_sample(space, xs, ys, tower=t),
                  geometry_sample(pad, xs, ys, tower=tp))
    _close_fields(em_sample(space, xs, ys, tower=t), em_sample(pad, xs, ys, tower=tp))
    _close_fields(homogeneous_residuals(space, xs, ys, tower=t),
                  homogeneous_residuals(pad, xs, ys, tower=tp))
    _close_fields(current_sample(space, xs, ys), current_sample(pad, xs, ys))

    x, y = xs[:, 0], ys[:, 0]
    got, want = ForceEvaluator(space)(x, y, True), ForceEvaluator(pad)(x, y, True)
    _close(got[0], want[0])
    _close(got[1], want[1])
    for key in want[2]:
        _close(got[2][key], want[2][key])


def test_curved_aniso_order_4_product_uses_1001_triples(curved_aniso, monkeypatch):
    used = []
    product = series._product

    def recording(a, b, k, n=series.NVARS):
        used.append(len(series._mul_tables(k, n)[0]))
        return product(a, b, k, n)

    t = Tower(curved_aniso, np.zeros(4), np.array([1.0, 0.1, 0.0, 0.0]))
    t.f_series
    monkeypatch.setattr(series, "_product", recording)
    t.e  # F * F at order 4
    assert used == [1001]


def test_divergence_exact_path_with_variable_outside_layout(pr_curved):
    """Components may use x variables that F and L1 do not."""
    x = np.array([0.1, 0.3, -0.2, 0.4])
    y = np.array([1.0, 0.2, -0.1, 0.05])
    assert 2 not in Tower(pr_curved, x, y).layout
    vh = [parse(s) for s in ("0.1*x2*y0", "0", "sin(x3)*y1", "x2*x1*y2")]
    vv = [parse(s) for s in ("0", "x2*y0", "0", "cos(x2)*y3")]
    exact = divergence(pr_curved, density(pr_curved, x, y, vh), density(pr_curved, x, y, vv),
                       x, y)

    def call(comps):
        return lambda xs, ys: np.array(
            [eval_values(f, np.concatenate([xs, ys])) for f in comps]
        )

    fd = fd_divergence(pr_curved, call(vh), call(vv), x, y)
    assert abs(exact) > 1e-2
    assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_compare_kappa_zero_row_when_truncation_drops_a_variable(tmp_path, capsys):
    text = (FIXTURES / "aniso-wave.scene").read_text()
    text = text.replace('L1 = "0.2*', 'L1 = "0*x2 + 0.2*').replace(
        "t_end = 1\n", "t_end = 0.01\n")
    scene = parse_scene_text(text)
    y_ref = scene.particle.y0
    iso = isotropic_truncation(scene.space, y_ref)
    assert 2 in scene.space.L1.variables() and 2 not in iso.L1.variables()
    # the truncation runs in a smaller layout than the kappa = 0 blend
    assert iso.layout == (0, 4, 5, 6, 7)
    assert blend_anisotropy(scene.space, y_ref, 0.0).layout == (0, 2, 4, 5, 6, 7)
    path = tmp_path / "dropped.scene"
    path.write_text(text)
    assert main(["compare", str(path), "--kappa-sweep", "0,0.5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2] == "0,0,0,0,0"
    assert rows[3].startswith("0.5,") and rows[3] != "0.5,0,0,0,0"
