import functools
import math

import numpy as np
import pytest

from finslerem import series
from finslerem.errors import DomainError
from finslerem.series import (
    DEGREE,
    INDEX,
    MAX_ORDER,
    NTERMS,
    NVARS,
    TERMS,
    TSeries,
    _deriv_tables,
    _mul_tables,
    _product,
    _terms,
    contract,
    jet_tensor,
)

from oracles import full_horner, full_order_compose, grad_every_row, reduceat_product, same_bits


class TestTermTables:
    def test_counts(self):
        assert NTERMS == [1, 9, 45, 165, 495, 1287]

    def test_prefix_property(self):
        # degree-major ordering: the order-k space is a prefix of order-4
        for k in range(MAX_ORDER + 1):
            assert all(DEGREE[i] <= k for i in range(NTERMS[k]))
            assert all(DEGREE[i] > k for i in range(NTERMS[k], NTERMS[-1]))

    def test_index_consistency(self):
        for i, t in enumerate(TERMS):
            assert INDEX[t] == i


class TestArithmetic:
    def setup_method(self):
        self.u = TSeries.coordinate(4, 2.0, 3)   # y0 around 2
        self.v = TSeries.coordinate(5, 0.5, 3)   # y1 around 0.5

    def test_constant_and_value(self):
        c = TSeries.constant(3.0, 2)
        assert c.value() == 3.0
        assert (c + 1.0).value() == 4.0

    def test_polynomial_product(self):
        p = self.u * self.u * self.v  # y0^2 y1
        assert p.value() == pytest.approx(2.0)
        assert p.partial(_mi(4)) == pytest.approx(4.0 * 0.5)
        assert p.partial(_mi(4, 4, 5)) == pytest.approx(2.0)

    def test_derivative_drops_order(self):
        p = self.u * self.v
        d = p.deriv(4)
        assert d.order == 2
        assert d.value() == pytest.approx(0.5)

    def test_division_round_trip(self):
        q = self.u / self.v
        back = q * self.v
        assert np.allclose(back.coeffs, self.u.truncate(back.order).coeffs, atol=1e-14)

    def test_division_by_zero_raises(self):
        z = TSeries.coordinate(5, 0.0, 2)
        with pytest.raises(DomainError):
            self.u.truncate(2) / z

    def test_integer_power_matches_repeated_product(self):
        p3 = self.u**3
        ref = self.u * self.u * self.u
        assert np.allclose(p3.coeffs, ref.coeffs, atol=1e-13)

    def test_negative_power(self):
        p = self.u**-2
        ref = 1.0 / (self.u * self.u)
        assert np.allclose(p.coeffs, ref.coeffs, atol=1e-14)


def _mi(*vars_):
    alpha = [0] * 8
    for v in vars_:
        alpha[v] += 1
    return tuple(alpha)


class TestAnalyticFunctions:
    """Taylor coefficients vs closed-form derivatives of f(y0) at y0 = u0."""

    @pytest.mark.parametrize(
        "method,derivs",
        [
            ("sqrt", lambda u: [np.sqrt(u), 0.5 / np.sqrt(u), -0.25 * u**-1.5,
                                0.375 * u**-2.5, -0.9375 * u**-3.5]),
            ("exp", lambda u: [np.exp(u)] * 5),
            ("log", lambda u: [np.log(u), 1 / u, -1 / u**2, 2 / u**3, -6 / u**4]),
            ("sin", lambda u: [np.sin(u), np.cos(u), -np.sin(u), -np.cos(u), np.sin(u)]),
            ("cos", lambda u: [np.cos(u), -np.sin(u), -np.cos(u), np.sin(u), np.cos(u)]),
            ("reciprocal", lambda u: [1 / u, -1 / u**2, 2 / u**3, -6 / u**4, 24 / u**5]),
        ],
    )
    def test_univariate_chain(self, method, derivs):
        u0 = 1.3
        s = TSeries.coordinate(4, u0, 4)
        out = getattr(s, method)()
        want = derivs(u0)
        for k in range(5):
            alpha = _mi(*([4] * k)) if k else (0,) * 8
            got = out.partial(alpha) if k else out.value()
            assert got == pytest.approx(want[k], rel=1e-12)

    def test_composition_with_inner_series(self):
        # f = sin(y0 y1): all third partials against the closed form
        # d3/dy0^2 dy1 sin(uv) = -2 u v^2 cos? derive via u=y0, v=y1:
        # f_{uuv} = -(2 v + u v^2 d/du...) -- use the exact expansion:
        # f_u = v cos(uv); f_uu = -v^2 sin(uv); f_uuv = -2v sin(uv) - u v^2 cos(uv)
        u0, v0 = 0.7, 0.4
        s = (TSeries.coordinate(4, u0, 3) * TSeries.coordinate(5, v0, 3)).sin()
        want = -2 * v0 * np.sin(u0 * v0) - u0 * v0**2 * np.cos(u0 * v0)
        assert s.partial(_mi(4, 4, 5)) == pytest.approx(want, rel=1e-12)

    def test_domain_checks(self):
        neg = TSeries.coordinate(4, -1.0, 2)
        for method in ("sqrt", "log"):
            with pytest.raises(DomainError):
                getattr(neg, method)()
        with pytest.raises(DomainError):
            TSeries.coordinate(4, 0.0, 2).abs()
        assert TSeries.coordinate(4, 0.0, 0).abs().value() == 0.0

    def test_powf(self):
        s = TSeries.coordinate(4, 2.0, 3)
        p = s.powf(0.5)
        ref = s.sqrt()
        assert np.allclose(p.coeffs, ref.coeffs, atol=1e-14)


class TestComposeOracle:
    """Each composition is bit-equal to Horner's rule with a full product at
    every step (oracles.full_horner) on finite inputs."""

    @pytest.mark.parametrize("batch", [(), (1,), (7,), (300,)])
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    @pytest.mark.parametrize("method, args", [
        ("sqrt", ()), ("reciprocal", ()), ("log", ()), ("exp", ()), ("sin", ()),
        ("cos", ()), ("powf", (0.3,)), ("powf", (-1.5,)),
    ])
    def test_matches_full_product_horner(self, method, args, order, batch, monkeypatch):
        rng = np.random.default_rng(order * 1000 + sum(batch))
        c = rng.uniform(-1.0, 1.0, (NTERMS[order],) + batch)
        c[0] = rng.uniform(0.5, 2.0, batch)
        u = TSeries(c, order)
        seen = []
        compose = series._compose
        monkeypatch.setattr(series, "_compose",
                            lambda c, cs, *rest: seen.append(cs) or compose(c, cs, *rest))
        got = getattr(u, method)(*args)
        assert np.isfinite(got.coeffs).all()
        assert np.array_equal(got.coeffs, full_horner(u, seen[0]).coeffs)


class TestRisingOrderHorner:
    """Each composition, whose Horner step m runs at order k - m from order
    3, gives the terms of the full-order loop (oracles.full_order_compose)
    bit for bit, up to the sign of a zero."""

    LAYOUTS = {"full": series.ALL, "three": (1, 4, 6)}

    @staticmethod
    def _run(fn, *args):
        """``fn(*args)`` with the rising-order Horner loop, then with the
        full-order oracle, each with -0 mapped to +0."""
        got = fn(*args) + 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_compose", full_order_compose)
            want = fn(*args) + 0.0
        assert np.isfinite(got).all()
        return got, want

    @staticmethod
    def _coeffs(rng, n, order, batch, support=None):
        """Random coefficients with a value in [0.5, 2]; with ``support``,
        zero at every term in a variable outside those positions."""
        t = _terms(n)
        c = rng.uniform(-1.0, 1.0, (t.nterms[order],) + batch)
        c[0] = rng.uniform(0.5, 2.0, batch)
        if support is not None:
            outside = np.ones(n, dtype=bool)
            outside[list(support)] = False
            c[t.terms[:t.nterms[order], outside].any(axis=1)] = 0.0
        return c

    @pytest.mark.parametrize("batch", [(), (1,), (7,), (300,)])
    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("layout", ["full", "three", "restricted"])
    @pytest.mark.parametrize("method, args", [
        ("sqrt", ()), ("reciprocal", ()), ("exp", ()), ("log", ()), ("sin", ()),
        ("cos", ()), ("powf", (-1.5,)),
    ])
    def test_matches_the_full_order_loop(self, method, args, layout, order, batch):
        rng = np.random.default_rng(order * 1000 + sum(batch) + len(layout))
        fn = series.FUNCTIONS[method]
        if layout == "restricted":
            # the tape's step for an argument in 2 of 5 variables: the loop
            # runs in those 2 and is scattered back (series._restricted)
            large, small = (1, 4, 5, 6, 7), (1, 5)
            c = self._coeffs(rng, 5, order, batch, support=(0, 2))
            idx = series._lift_index(small, large, order)
            got, want = self._run(series._restricted,
                                  lambda a: fn(a, order, len(small), 0, *args), idx, c)
        else:
            n = len(self.LAYOUTS[layout])
            c = self._coeffs(rng, n, order, batch)
            got, want = self._run(fn, c, order, n, 0, *args)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", [3, 5])
    def test_tensor_series(self, order):
        """A rank-2 series composes each component the same way."""
        rng = np.random.default_rng(order)
        c = rng.uniform(-1.0, 1.0, (2, 3, NTERMS[order], 4))
        c[:, :, 0] = rng.uniform(0.5, 2.0, (2, 3, 4))
        u = TSeries(c, order, rank=2)
        got, want = self._run(lambda: u.sqrt().coeffs)
        assert np.array_equal(got, want)


class TestCoordinateProduct:
    @pytest.mark.parametrize("batch", [(), (7,)])
    @pytest.mark.parametrize("n", range(1, NVARS + 1))
    def test_equals_the_full_product(self, n, batch):
        """A product with a coordinate's series is a shift and a scaling."""
        rng = np.random.default_rng(n)
        for order in range(MAX_ORDER + 1):
            layout = tuple(range(n))
            a = rng.standard_normal((_terms(n).nterms[order],) + batch)
            for pos in range(n):
                v0 = rng.standard_normal(batch)
                x = TSeries.coordinate(pos, v0, order, batch, layout)
                src = _deriv_tables(order, pos, n)[0]
                got = series._coordinate_product(a, v0, src)
                assert np.array_equal(got, _product(a, x.coeffs, order, n))


class TestBatch:
    def test_batched_ops_match_loop(self):
        vals = np.array([1.5, 2.0, 3.0])
        s = TSeries.coordinate(4, vals, 3, batch=(3,))
        t = TSeries.coordinate(5, vals * 0.1, 3, batch=(3,))
        out = (s * t + 2.0).sqrt()
        for b, v in enumerate(vals):
            sb = TSeries.coordinate(4, v, 3)
            tb = TSeries.coordinate(5, v * 0.1, 3)
            ref = (sb * tb + 2.0).sqrt()
            assert np.allclose(out.coeffs[:, b], ref.coeffs, atol=1e-14)

    def test_jet_tensor_batch(self):
        vals = np.array([1.0, 2.0])
        s = TSeries.coordinate(4, vals, 2, batch=(2,))
        p = s * s
        t = jet_tensor(p, "yy")
        assert t.shape == (4, 4, 2)
        assert np.allclose(t[0, 0], 2.0)


class TestBlockedProduct:
    @pytest.mark.parametrize("batch", [(), (1,), (16,), (100,), (300,)])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bit_identical_to_one_shot(self, order, batch):
        """Blocks cut only between output terms, so every sum is unchanged."""
        rng = np.random.default_rng(order * 1000 + sum(batch))
        a = rng.standard_normal((NTERMS[order],) + batch)
        b = rng.standard_normal((NTERMS[order],) + batch)
        I, J, starts = _mul_tables(order)
        ref = np.add.reduceat(a[I] * b[J], starts, axis=0)
        out = (TSeries(a, order) * TSeries(b, order)).coeffs
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)


def _with_specials(rng, shape):
    """Normal draws over a wide range of scales with 0.0, -0.0, +-inf and
    NaN mixed in."""
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
    pick = rng.random(shape)
    for value, p0, p1 in ((0.0, 0.0, 0.05), (-0.0, 0.05, 0.1), (np.inf, 0.1, 0.11),
                          (-np.inf, 0.11, 0.12), (np.nan, 0.12, 0.13)):
        x[(pick >= p0) & (pick < p1)] = value
    return x


WIDTHS = [(), (1,), (series.PEEL_COLUMNS - 1,), (series.PEEL_COLUMNS,), (100,), (300,)]
#: most elements a reference product may gather, to keep the tests small
GATHER_CAP = 3_000_000


def _spec_args(spec, shapes):
    """(ranks, out_tensor, combine) of ``contract(spec, ...)`` for factors
    with tensor shapes ``shapes``."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    dims = dict(zip(sa + sb, shapes[0] + shapes[1]))
    return ((len(sa), len(sb)), tuple(dims[c] for c in out),
            functools.partial(np.einsum, f"{sa}...,{sb}...->{out}..."))


class TestPeeledProduct:
    """``_product`` against the one-shot ``reduceat`` kernel it replaces for
    wide products (``oracles.reduceat_product``), bit for bit."""

    @pytest.mark.parametrize("n", range(1, NVARS + 1))
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_scalar_products(self, order, n):
        rng = np.random.default_rng(100 * order + n)
        size = _terms(n).nterms[order]
        for batch in WIDTHS:
            if len(_mul_tables(order, n)[0]) * math.prod(batch) > GATHER_CAP:
                continue
            a, b = _with_specials(rng, (2, size) + batch)
            for top in (False, True) if order else (False,):
                with np.errstate(invalid="ignore"):
                    got = _product(a, b, order, n, top=top)
                    want = reduceat_product(a, b, order, n, top=top)
                assert same_bits(got, want), (batch, top)

    @pytest.mark.parametrize("width", [series.PEEL_COLUMNS, 100, 300])
    @pytest.mark.parametrize("n", range(2, NVARS + 1))
    @pytest.mark.parametrize("order", [4, 5])
    def test_long_segments(self, order, n, width):
        """Orders 4 and 5 in two or more variables have segments of more
        than 8 summands.  The reference runs on as many columns at a time
        as ``GATHER_CAP`` allows: a column's sums do not depend on the
        others."""
        rng = np.random.default_rng(1000 * order + 10 * n + width)
        a, b = _with_specials(rng, (2, _terms(n).nterms[order], width))
        per = max(GATHER_CAP // len(_mul_tables(order, n)[0]), 1)
        for top in (False, True):
            with np.errstate(invalid="ignore"):
                got = _product(a, b, order, n, top=top)
                want = np.concatenate(
                    [reduceat_product(a[:, c:c + per], b[:, c:c + per], order, n, top=top)
                     for c in range(0, width, per)], axis=1)
            assert same_bits(got, want), top

    # every contract spec of the package, with the tensor shapes it takes there
    SPECS = [
        ("im,smh->sih", (4, 4), (2, 4, 4)),
        ("sim,jm->sij", (2, 4, 4), (4, 4)),
        ("im,mj->ij", (4, 4), (4, 4)),
        ("m,m->", (6,), (6,)),
        ("lk,k->l", (4, 4), (4,)),
        ("a,ak->k", (4,), (4, 4)),
        ("ba,ak->bk", (4, 4), (4, 4)),
        ("bca,ak->bck", (4, 4, 4), (4, 4)),
        ("ij,j->i", (4, 4), (4,)),
    ]

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("spec,sa,sb", SPECS)
    def test_contractions(self, spec, sa, sb, n):
        ranks, out_tensor, combine = _spec_args(spec, (sa, sb))
        widest = max(math.prod(sa), math.prod(sb), math.prod(out_tensor))
        rng = np.random.default_rng(n)
        for order in range(5):
            size = _terms(n).nterms[order]
            for batch in WIDTHS:
                if len(_mul_tables(order, n)[0]) * widest * math.prod(batch) > GATHER_CAP:
                    continue
                a = _with_specials(rng, sa + (size,) + batch)
                b = _with_specials(rng, sb + (size,) + batch)
                for top in (False, True) if order else (False,):
                    with np.errstate(invalid="ignore"):
                        got = _product(a, b, order, n, ranks, out_tensor, combine, top)
                        want = reduceat_product(a, b, order, n, ranks, out_tensor, combine, top)
                    assert same_bits(got, want), (order, batch, top)

    def test_kernel_choice(self, monkeypatch):
        """Products of at least PEEL_COLUMNS batch columns are peeled, with
        segments of any length; narrower ones are not."""
        assert series._peel_plan(3, NVARS)[1] is None  # x0 x1 x2: 8 summands
        assert series._peel_plan(5, 1)[1] is None  # one variable: 6 summands
        (terms, offset, I, J), long = series._peel_plan(2, 2)
        # x0 x1 has two interior pairs, x0^2 and x1^2 one each
        assert list(terms) == [4, 3, 5] and offset == (0, 3, 4) and len(I) == 4
        assert long is None
        # x0^2 x1^2 (term 12) has 9 summands: a rest of 8 in one block of eight
        # running sums, the last of them the pair (K, 0), and no slots
        terms, blocks, perm, offset, I, J = series._peel_plan(4, 2)[1]
        assert list(terms) == [12] and list(perm) == [0] and offset == (0,) and len(I) == 0
        (count, I, J), = blocks
        assert count == 1 and I.shape == (8, 1) and (I[7, 0], J[7, 0]) == (12, 0)
        peeled = []
        kernel = series._peeled_product
        monkeypatch.setattr(series, "_peeled_product",
                            lambda *args: peeled.append(args[2]) or kernel(*args))
        rng = np.random.default_rng(3)
        for order, n in ((3, 5), (4, 2), (4, 1)):
            for columns in (series.PEEL_COLUMNS - 1, series.PEEL_COLUMNS):
                a, b = rng.standard_normal((2, _terms(n).nterms[order], columns))
                _product(a, b, order, n)
        assert peeled == [3, 4, 4]


class TestNumpyReduceatRule:
    """The rule of ``np.add.reduceat`` that the peeled kernel reproduces:
    a segment sums as s0 + (the rest), where a rest of fewer than 8
    summands is added one after the other from -0.0, s0 + (((s1 + s2) +
    ...) + s_last), and a rest of 8 to 128 summands runs eight running
    accumulators over its first 8*floor(m/8) summands, adds them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then the
    remainder in order.  If a numpy release changes it, this fails, and
    the peeled kernel no longer matches."""

    @staticmethod
    def _rule(segment):
        rest = segment[1:]
        m = len(rest)
        if m < series.PAIRWISE_BLOCK:
            total = -0.0 * np.ones_like(segment[0])
            done = 0
        else:
            r = list(rest[:8])
            done = m - m % 8
            for i in range(8, done, 8):
                r = [r[j] + rest[i + j] for j in range(8)]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for s in rest[done:]:
            total = total + s
        return segment[0] + total

    @staticmethod
    def _in_order(segment):
        total = segment[0]
        for s in segment[1:]:
            total = total + s
        return total

    @pytest.mark.parametrize("shape,axis", [((9000,), 0), ((9000, 7), 0), ((3, 9000, 5, 4), 1)])
    def test_long_segments(self, shape, axis):
        """Rests of every length from 8 to 128 summands, some of them of
        negative zeros only (eight accumulators of -0.0 sum to -0.0)."""
        rng = np.random.default_rng(10 + len(shape))
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-40, 40, shape))
        x[(slice(None),) * axis + (slice(0, 20),)] = -0.0
        lengths = np.concatenate([[20], rng.permutation(np.arange(9, 130))])
        # the segments listed, then one more over the tail
        starts = np.cumsum(np.concatenate([[0], lengths]))
        assert starts[-1] < shape[axis]
        got = np.add.reduceat(x, starts, axis=axis)
        regrouped = 0
        for i, (s0, length) in enumerate(zip(starts, lengths)):
            segment = np.moveaxis(x.take(np.arange(s0, s0 + length), axis=axis), axis, 0)
            want = self._rule(segment)
            assert same_bits(got.take(i, axis=axis), want), length
            regrouped += not np.array_equal(self._in_order(segment), want)
        assert np.signbit(got.take(0, axis=axis)).all()
        assert regrouped  # the data tells the groupings apart

    @pytest.mark.parametrize("shape,axis", [((200,), 0), ((200, 7), 0), ((3, 200, 5, 4), 1)])
    def test_short_segments(self, shape, axis):
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-40, 40, shape))
        # some segments of negative zeros only: a rest started from +0.0 would read +0.0
        x[(slice(None),) * axis + (slice(0, 8),)] = -0.0
        lengths = np.concatenate([[8], rng.integers(1, series.PAIRWISE_BLOCK + 1, shape[axis])])
        starts = np.cumsum(np.concatenate([[0], lengths]))
        starts = starts[starts < shape[axis]]
        got = np.add.reduceat(x, starts, axis=axis)
        bounds = np.append(starts, shape[axis])
        regrouped = 0
        for i in range(len(starts)):
            segment = np.moveaxis(x.take(np.arange(bounds[i], bounds[i + 1]), axis=axis), axis, 0)
            want = self._rule(segment)
            assert same_bits(got.take(i, axis=axis), want), i
            in_order = segment[0]
            for s in segment[1:]:
                in_order = in_order + s
            regrouped += not np.array_equal(in_order, want)
        assert np.signbit(got.take(0, axis=axis)).all()
        assert regrouped  # the data tells the two groupings apart


class TestNumpyPowerRule:
    """The rule of numpy that ``series._power`` relies on: a 0-d array
    raised to one exponent rounds as the same element of the array power,
    at any width and position, and np.sqrt, np.exp, np.log, np.sin and
    np.cos of a numpy scalar round as the array call.  If a numpy release
    changes it, a batch column no longer rounds as its lone point."""

    # the exponents of sqrt and log to MAX_ORDER, and of powf at a few p
    EXPONENTS = sorted(
        {0.5 - m for m in range(1, MAX_ORDER + 1)} | set(range(1, MAX_ORDER + 1))
        | {p - m for p in (1 / 3, 2.5, -1.5, 0.7) for m in range(MAX_ORDER + 1)}
    )

    @pytest.mark.parametrize("width", [1, 7, 48, 64, 100])
    def test_lone_value_rounds_as_its_column(self, width):
        rng = np.random.default_rng(width)
        for row in rng.uniform(0.05, 3.0, (20, width)):
            for e in self.EXPONENTS:
                assert np.array_equal([np.asarray(v) ** e for v in row], row ** e), e
            for fn in (np.sqrt, np.log):
                assert np.array_equal([fn(v) for v in row], fn(row)), fn
        for row in rng.uniform(-20.0, 20.0, (20, width)):
            for fn in (np.exp, np.sin, np.cos):
                assert np.array_equal([fn(v) for v in row], fn(row)), fn


class TestPlanCaches:
    def test_bounded_over_many_batch_widths(self, monkeypatch):
        """The per-width plans of jets and of blocked products stay at most
        PLAN_CACHE each, and a plan rebuilt after eviction gives the same
        bits.  A product narrower than PEEL_COLUMNS keeps the blocked
        ``reduceat``; the peel plans of the order-3 and order-4 products at
        as many wide widths do not grow with the width."""
        layout, n, k = (0, 1, 4, 5, 6, 7), 6, 4
        # empty caches: a plan another test built at one of these widths
        # would keep its older place
        monkeypatch.setattr(_terms(n), "blocks", {})
        monkeypatch.setattr(series, "_jets_cache", {})
        rng = np.random.default_rng(50)
        I, J, starts = _mul_tables(k, n)
        widths = range(series.PEEL_COLUMNS - 38, series.PEEL_COLUMNS)
        first = None
        peel = None
        for width in widths:  # 38 widths, each one a blocked product
            assert len(I) * width * 8 > series.BLOCK_BYTES
            a, b = rng.standard_normal((2, _terms(n).nterms[k], width))
            prod = _product(a, b, k, n)
            assert np.array_equal(prod, np.add.reduceat(a[I] * b[J], starts, axis=0))
            s = TSeries(a, k, layout)
            for got, pattern in zip(series.jets(s, ("yy", "yx")), ("yy", "yx")):
                assert np.array_equal(got, np.moveaxis(jet_tensor(s, pattern), -1, 0))
            assert len(series._jets_cache) <= series.PLAN_CACHE
            assert len(_terms(n).blocks) <= series.PLAN_CACHE
            wide = rng.standard_normal((2, _terms(n).nterms[k], width + series.PEEL_COLUMNS))
            for order in (3, 4):
                wa, wb = wide[:, :_terms(n).nterms[order]]
                assert np.array_equal(_product(wa, wb, order, n),
                                      reduceat_product(wa, wb, order, n))
            if peel is None:
                peel = dict(_terms(n).peel)
            assert _terms(n).peel.keys() == peel.keys()
            if first is None:
                first = a, b, prod, series.jets(s, ("yy", "yx"))
        # full, not emptier: only the oldest plans were dropped
        assert len(series._jets_cache) == len(_terms(n).blocks) == series.PLAN_CACHE
        assert all((k, w) in _terms(n).blocks for w in widths[-series.PLAN_CACHE:])
        assert all(_terms(n).peel[key] is plan for key, plan in peel.items())
        a, b, prod, jets = first
        assert (k, widths[0]) not in _terms(n).blocks  # evicted, and rebuilt below
        assert np.array_equal(_product(a, b, k, n), prod)
        for got, want in zip(series.jets(TSeries(a, k, layout), ("yy", "yx")), jets):
            assert np.array_equal(got, want)


class TestJetTensor:
    def test_matches_partial(self):
        s = TSeries.coordinate(4, 1.2, 3)
        t = TSeries.coordinate(0, 0.3, 3)
        p = (s * s) * t
        yy = jet_tensor(p, "yy")
        assert yy[0, 0] == pytest.approx(p.partial(_mi(4, 4)))
        yx = jet_tensor(p, "yx")
        assert yx[0, 0] == pytest.approx(p.partial(_mi(4, 0)))

    def test_order_guard(self):
        s = TSeries.coordinate(4, 1.0, 1)
        with pytest.raises(ValueError):
            jet_tensor(s, "yy")


class TestTensorSeries:
    LAYOUT = (1, 4, 5, 6, 7)

    def _random(self, shape, order, batch, seed):
        rng = np.random.default_rng(seed)
        size = series._terms(len(self.LAYOUT)).nterms[order]
        c = rng.standard_normal(shape + (size,) + batch) * np.exp(
            rng.uniform(-8, 8, shape + (size,) + batch))
        return TSeries(c, order, self.LAYOUT, len(shape))

    def test_components_read_like_nested_lists(self):
        s = self._random((4, 3), 2, (5,), 0)
        assert s.shape == (4, 3) and s.batch == (5,)
        assert s.value().shape == (4, 3, 5)
        assert np.array_equal(s[2][1].coeffs, s.coeffs[2, 1])
        assert s[2][1].rank == 0 and s[2].rank == 1
        assert [row.rank for row in s] == [1] * 4
        assert np.array_equal(s.transpose(1, 0)[1][2].coeffs, s[2][1].coeffs)
        with pytest.raises(TypeError):
            s[0][0][0]

    def test_grad_stacks_the_partials(self):
        s = self._random((2,), 3, (), 1)
        d = s.grad((0, 1, 4, 7))  # x0 is outside the layout
        assert d.shape == (2, 4) and d.order == 2
        assert not d.coeffs[:, 0].any()
        for slot, var in enumerate((1, 4, 7), start=1):
            assert np.array_equal(d.coeffs[:, slot], s.deriv(var).coeffs)

    @pytest.mark.parametrize("batch", [(), (100,)])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("xvars", [(), (1,), (0, 2), (0, 1, 2, 3)])
    def test_grad_takes_only_the_layout(self, xvars, rank, batch):
        """``grad`` takes and scales the rows of the variables in the
        layout alone, and those of the others are +0.0: bit for bit, signs
        of zeros included, the grad that computes every row."""
        layout = xvars + series.FIBRE_VARS
        rng = np.random.default_rng(len(xvars) * 10 + rank)
        for order in (1, 3):
            size = series._terms(len(layout)).nterms[order]
            c = rng.standard_normal((3,) * rank + (size,) + batch)
            c[rng.random(c.shape) < 0.2] = -0.0
            s = TSeries(c, order, layout, rank)
            for variables in (series.BASE_VARS, series.FIBRE_VARS, series.ALL, (7, 1)):
                got, want = s.grad(variables), grad_every_row(s, variables)
                assert got.coeffs.shape == want.coeffs.shape
                assert np.array_equal(got.coeffs, want.coeffs)
                assert np.array_equal(np.signbit(got.coeffs), np.signbit(want.coeffs))

    @pytest.mark.parametrize("batch", [(), (1,), (3,), (40,)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_contract_is_the_sum_of_component_products(self, order, batch):
        a = self._random((4, 4), order, batch, 2)
        b = self._random((4, 4), order, batch, 3)
        got = contract("im,mj->ij", a, b)
        for i, j in ((0, 0), (1, 3), (3, 2)):
            want = sum((a[i][m] * b[m][j] for m in range(1, 4)), a[i][0] * b[0][j])
            scale = np.abs(want.coeffs).max()
            assert np.abs(got[i][j].coeffs - want.coeffs).max() <= 1e-14 * scale

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_batch_columns_round_as_lone_points(self, order):
        """Narrow and wide products sum in the same order: no column depends
        on the batch width or on its position in the batch.  A lone point
        runs the one-shot reduceat; at batch 100 orders 1-3 are peeled."""
        for batch in (40, 100):
            a = self._random((4, 4), order, (batch,), 4)
            b = self._random((4,), order, (batch,), 5)
            matrix = contract("im,m->i", a, b)
            elementwise = a * b
            for col in (0, 17, batch - 1):
                ac = TSeries(a.coeffs[..., col], order, self.LAYOUT, 2)
                bc = TSeries(b.coeffs[..., col], order, self.LAYOUT, 1)
                assert np.array_equal(contract("im,m->i", ac, bc).coeffs, matrix.coeffs[..., col])
                assert np.array_equal((ac * bc).coeffs, elementwise.coeffs[..., col])

    def test_constant_factor(self):
        a = self._random((4, 4), 2, (3,), 6)
        v = np.random.default_rng(7).standard_normal((4, 4, 3))
        got = contract("im,mj->ij", v, a)
        want = np.einsum("imb,mjtb->ijtb", v, a.coeffs)
        assert np.allclose(got.coeffs, want, rtol=1e-14, atol=0)
        assert got.order == 2 and got.rank == 2
