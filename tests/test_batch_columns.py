"""A batch column is its lone point, bit for bit, and a failing one names itself.

The Tower's stages, the field blocks, the closed-field residuals, the
currents with their continuity and the Lorentz force are computed over a
batch and at each of its points alone, on every fixture scene.  Every
column must equal its lone point's result exactly.  The widths cover a
batch of one, a narrow product and a peeled one (``series.PEEL_COLUMNS``).

A failure in a batch names the columns that fail (``columns``), so that
the rest can run on without them (``errors.drop_failing``).
"""

import numpy as np
import pytest

from finslerem import series
from finslerem.dynamics import ForceEvaluator
from finslerem.em import em_series
from finslerem.errors import (DegenerateMetricError, DomainError, SingularForceMatrixError,
                              drop_failing)
from finslerem.expr import eval_series, eval_values, parse
from finslerem.geometry import check_det, draw_admissible
from finslerem.maxwell import current_sample, fibre_tower, homogeneous_residuals
from finslerem.scene import load_scene
from finslerem.series import PEEL_COLUMNS

from conftest import FIXTURES

WIDTHS = (1, 7, 64)
VALUE_STAGES = ("g_values", "ginv_values", "det_values", "spray_values", "nonlinear_values",
                "chern", "curvature_values", "berwald_values", "n_trace_dot_values")
SERIES_STAGES = ("g", "ginv", "det_series", "spray", "nonlinear")


def results(space, x, y):
    """Every compared array at the points (x, y) by name, the batch axis last."""
    t = fibre_tower(space, x, y)
    out = {name: getattr(t, name) for name in VALUE_STAGES}
    out.update({name: getattr(t, name).coeffs for name in SERIES_STAGES})
    out.update({f"em {k}": v.coeffs for k, v in em_series(t).items()})
    r = homogeneous_residuals(space, x, y, tower=t)
    out.update(hhh=r.hhh, hhv=r.hhv, hvv=r.hvv)
    cs = current_sample(space, x, y, with_continuity=True)
    out.update(J=cs.J_h, Jt=cs.J_v, zeta=cs.zeta, divJ=cs.continuity)
    a, dydt, mon = ForceEvaluator(space)(x, y, monitors=True)
    out.update(a=a, dydt=dydt, **mon)
    return out


class TestBatchColumnIsItsLonePoint:
    def test_widths_cover_both_product_kernels(self):
        assert max(WIDTHS) >= PEEL_COLUMNS > 7

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.scene")))
    def test_fixture_scenes(self, name):
        scene = load_scene(FIXTURES / f"{name}.scene")
        space = scene.space
        xs, ys = draw_admissible(space, np.random.default_rng(16), max(WIDTHS),
                                 scene.sampling.x_box, scene.sampling.y_box)
        lone = [results(space, xs[:, b], ys[:, b]) for b in range(xs.shape[1])]
        differ = []
        for width in WIDTHS:
            batch = results(space, xs[:, :width], ys[:, :width])
            assert batch.keys() == lone[0].keys()
            differ += [(width, key, b) for key, v in batch.items() for b in range(width)
                       if not np.array_equal(v[..., b], lone[b][key])]
        assert not differ, differ[:20]


def injected(width):
    """The columns a test makes fail in a batch of ``width``: the first, a
    middle and the last (one column of a batch of one)."""
    return sorted({0, width // 2, width - 1})


def mask(width, cols):
    out = np.zeros(width, dtype=bool)
    out[cols] = True
    return out


class TestFailingColumns:
    """A batch failure names exactly its failing columns (``columns``), with
    the message of a lone failing point; a failure of no column names none."""

    PT = np.array([0.1, 0.3, -0.2, 0.4, 1.0, 0.5, 0.0, 0.0])

    # (source, value of y1 that fails, order): each domain check of series
    CHECKS = [
        ("1/y1", 0.0, 0),
        ("y0/y1 + y0", 0.0, 2),
        ("sqrt(y1)", 0.0, 1),
        ("sqrt(y1)", -0.5, 0),
        ("sqrt(y1)", -0.5, 3),
        ("log(y1)", 0.0, 1),
        ("log(y1)", -2.0, 0),
        ("y1^0.5", 0.0, 2),
        ("pow(y1, 1.5)", -1.0, 0),
        ("y1^-0.5", 0.0, 0),
        ("y0 + abs(y1)", 0.0, 1),
        ("y0 + abs(y1)", 0.0, 4),
    ]

    def points(self, width, bad):
        pts = np.tile(self.PT[:, None], width)
        pts[5] = np.linspace(0.2, 0.9, width)
        pts[5, injected(width)] = bad
        return pts

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("source, bad, order", CHECKS)
    def test_domain_checks(self, source, bad, order, width):
        field = parse(source)
        pts = self.points(width, bad)
        with pytest.raises(DomainError) as batch:
            eval_series(field, pts, order, (4, 5))
        with pytest.raises(DomainError) as lone:
            eval_series(field, pts[:, injected(width)[0]], order, (4, 5))
        assert np.array_equal(batch.value.columns, mask(width, injected(width)))
        assert str(batch.value) == str(lone.value)
        assert lone.value.columns is None

    def test_abs_at_zero_fails_only_with_derivatives(self):
        pts = self.points(7, 0.0)
        value = eval_series(parse("y0 + abs(y1)"), pts, 0, (4, 5)).coeffs[0]
        assert np.array_equal(value, pts[4] + np.abs(pts[5]))

    @pytest.mark.parametrize("source", ["sqrt(y1)", "y1^0.5", "pow(y1, 2.5)"])
    def test_a_root_at_zero_fails_only_with_derivatives(self, source):
        pts = self.points(7, 0.0)
        value = eval_series(parse(source), pts, 0, (4, 5)).coeffs[0]
        assert np.array_equal(value == 0.0, mask(7, injected(7)))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_tensor_series_names_the_columns_of_any_component(self, width):
        # a rank-1 series: component 1 fails at the injected columns
        c = np.ones((3, series._terms(2).nterms[2], width))
        c[1, 0, injected(width)] = -1.0
        with pytest.raises(DomainError) as e:
            series.sqrt(c, 2, 2, rank=1)
        assert np.array_equal(e.value.columns, mask(width, injected(width)))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("bad", [0.0, -1e-13, np.nan])
    @pytest.mark.parametrize("error", [DegenerateMetricError, SingularForceMatrixError])
    def test_check_det(self, width, bad, error):
        det = np.linspace(1.0, 2.0, width)
        det[injected(width)] = bad
        with pytest.raises(error) as batch:
            check_det(det, "det g", error)
        with pytest.raises(error) as lone:
            check_det(det[injected(width)[0]], "det g", error)
        assert np.array_equal(batch.value.columns, mask(width, injected(width)))
        member = f"member {injected(width)[0]}: " if width > 1 else ""
        assert str(batch.value) == member + str(lone.value)
        assert lone.value.columns is None

    @pytest.mark.parametrize("width", WIDTHS)
    def test_overflowing_point_is_a_degenerate_column(self, width):
        space = load_scene(FIXTURES / "curved-aniso.scene").space
        pts = np.tile(self.PT[:, None], width)
        pts[4, injected(width)] = 1e200
        with np.errstate(all="ignore"), pytest.raises(DegenerateMetricError) as e:
            current_sample(space, pts[:4], pts[4:], with_continuity=True)
        assert np.array_equal(e.value.columns, mask(width, injected(width)))

    def test_folded_constant_names_no_columns(self):
        pts = np.tile(self.PT[:, None], 7)
        with pytest.raises(DomainError) as e:
            eval_series(parse("y0 + sqrt(0 - 1)"), pts, 0, (4,))
        assert e.value.columns is None

    def test_eval_values_reads_nan_at_failing_columns(self):
        field = parse("0.1*y1^2/sqrt(y0^2 - y1^2)")
        pts = self.points(64, 2.0)
        values = eval_values(field, pts)
        ok = ~mask(64, injected(64))
        assert np.isnan(values[~ok]).all()
        want = eval_series(field, pts[:, ok], 0, (4, 5)).coeffs[0]
        assert np.array_equal(values[ok], want)
        assert [eval_values(field, pts[:, b]) for b in np.flatnonzero(ok)] == list(want)
        assert np.isnan(eval_values(field, pts[:, 0]))


class TestDropFailing:
    def test_drops_each_failing_column_at_its_own_stage(self):
        calls = []

        def run(keep):
            calls.append(keep.tolist())
            for error, cols in ((DomainError, [1, 4]), (DegenerateMetricError, [6])):
                hit = np.isin(keep, cols)
                if hit.any():
                    raise error("fails", columns=hit)
            return 10 * keep

        result, keep, failed = drop_failing(run, 8)
        assert keep.tolist() == [0, 2, 3, 5, 7]
        assert result.tolist() == [0, 20, 30, 50, 70]
        assert {c: type(e) for c, e in failed.items()} == {
            1: DomainError, 4: DomainError, 6: DegenerateMetricError}
        assert calls == [list(range(8)), [0, 2, 3, 5, 6, 7], [0, 2, 3, 5, 7]]

    def test_a_failure_of_no_column_drops_every_column(self):
        def run(keep):
            raise DomainError("constant")

        result, keep, failed = drop_failing(run, 3)
        assert result is None and keep.size == 0
        assert sorted(failed) == [0, 1, 2]
