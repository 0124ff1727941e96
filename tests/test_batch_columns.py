"""A batch column is its lone point, bit for bit.

The Tower's stages, the field blocks, the closed-field residuals, the
currents with their continuity and the Lorentz force are computed over a
batch and at each of its points alone, on every fixture scene.  Every
column must equal its lone point's result exactly.  The widths cover a
batch of one, a narrow product and a peeled one (``series.PEEL_COLUMNS``).
"""

import numpy as np
import pytest

from finslerem.dynamics import ForceEvaluator
from finslerem.em import em_series
from finslerem.geometry import draw_admissible
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
