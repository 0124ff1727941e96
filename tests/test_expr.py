import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from finslerem import em, expr, series
from finslerem.em import anisotropy_ensemble, blend_anisotropy, isotropic_truncation
from finslerem.errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from finslerem.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    ScalarField,
    Var,
    _Tape,
    _exact,
    _outer_step,
    check_homogeneity,
    diff_ast,
    eval_jet,
    eval_series,
    eval_values,
    parse,
    program,
    subst_ast,
    to_source,
)

from finslerem.geometry import SpaceDef, draw_admissible
from finslerem.scene import load_scene
from finslerem.series import ALL, TSeries

from conftest import FIXTURES
from oracles import fd_jet, richardson_jet, same_bits, tree_series


def mi(*vars_):
    alpha = [0] * 8
    for v in vars_:
        alpha[v] += 1
    return tuple(alpha)


PT = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.2, 0.0, 0.0])


class TestParser:
    def test_sub_of_pows(self):
        f = parse("y0^2 - y1^2")
        assert f.ast == BinOp("-", BinOp("^", Var(4), Num(2.0)), BinOp("^", Var(5), Num(2.0)))

    def test_sqrt_of_product(self):
        f = parse("sqrt(y0*y0)")
        assert f.ast == Call("sqrt", (BinOp("*", Var(4), Var(4)),))

    def test_unknown_identifier_offset(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse("y5 + 1")
        assert ei.value.offset == 0

    def test_unknown_identifier_mid_expression(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse("y0 + foo")
        assert ei.value.offset == 5

    def test_syntax_error_has_offset_and_expected(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("y0 + ")
        assert ei.value.offset == 5
        assert ei.value.expected

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_mismatched_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(y0 + y1")

    def test_pow_right_associative(self):
        f = parse("2^3^2")
        assert eval_values(f, PT) == 512.0

    def test_unary_minus_binds_tighter_than_pow(self):
        assert eval_values(parse("-2^2"), PT) == 4.0
        assert eval_values(parse("2^-2"), PT) == 0.25

    def test_precedence(self):
        assert eval_values(parse("2 + 3*4^2"), PT) == 50.0

    def test_number_with_exponent(self):
        assert eval_values(parse("1.5e-3 + 2E2"), PT) == pytest.approx(200.0015)

    def test_out_of_range_literal(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("y0 + 1e999*y1")
        assert ei.value.offset == 5

    def test_pow_function_two_args(self):
        assert eval_values(parse("pow(y0, 3)"), PT) == 1.0
        with pytest.raises(ExprSyntaxError):
            parse("pow(y0)")

    def test_left_associativity(self):
        assert eval_values(parse("8 - 4 - 2"), PT) == 2.0
        assert eval_values(parse("8 / 4 / 2"), PT) == 1.0


class TestPrinter:
    CASES = [
        "y0^2 - y1^2",
        "sqrt(y0*y0)",
        "0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)",
        "-(y0 + y1)^2",
        "2^3^2",
        "-2^2",
        "8 - 4 - 2",
        "pow(y0, 2.5)",
        "sin(x0 - x1)*y0",
        "x1*y0 + abs(y1)*0.5",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip_structural(self, src):
        f = parse(src)
        assert parse(to_source(f.ast)) == f

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ast = random_ast(rng, depth=4)
            assert parse(to_source(ast)).ast == ast


def random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0, 5), 3)))
        return Var(int(rng.integers(0, 8)))
    kind = rng.integers(0, 7)
    if kind <= 3:
        op = "+-*/"[kind]
        return BinOp(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 4:
        return Neg(random_ast(rng, depth - 1))
    if kind == 5:
        return BinOp("^", random_ast(rng, depth - 1), Num(float(rng.integers(1, 4))))
    fn = ["sqrt", "sin", "cos", "exp", "log", "abs"][int(rng.integers(0, 6))]
    return Call(fn, (random_ast(rng, depth - 1),))


def separable_ast(rng, depth, variables):
    """A random tree over ``variables`` that holds the two separable step
    kinds of the tape: products of factors in disjoint variables and
    compositions (sqrt, sin, cos, exp, log, a reciprocal, a non-integer
    power) of a subtree in one variable, beside the plain operations."""
    if len(variables) > 1 and depth > 0 and rng.random() < 0.4:
        # a product of two factors that share no variable, neither of
        # them a number or a lone coordinate
        cut = int(rng.integers(1, len(variables)))
        order = rng.permutation(variables)
        factors = [BinOp("+", Var(int(part[0])), separable_ast(rng, depth - 1, part))
                   for part in (sorted(order[:cut]), sorted(order[cut:]))]
        return BinOp("*", *factors)
    if depth > 0 and rng.random() < 0.4:
        # a composition of one variable
        arg = separable_ast(rng, depth - 1, [variables[int(rng.integers(0, len(variables)))]])
        kind = int(rng.integers(0, 7))
        if kind == 5:
            return BinOp("/", Num(float(np.round(rng.uniform(0.5, 2), 3))), arg)
        if kind == 6:
            return BinOp("^", arg, Num(float(rng.choice([0.5, 1.5, -0.5]))))
        return Call(["sqrt", "sin", "cos", "exp", "log"][kind], (arg,))
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return Num(float(np.round(rng.uniform(0, 5), 3)))
        return Var(int(variables[int(rng.integers(0, len(variables)))]))
    kind = int(rng.integers(0, 4))
    left = separable_ast(rng, depth - 1, variables)
    if kind == 3:
        return Call(["sqrt", "sin", "exp"][int(rng.integers(0, 3))], (left,))
    return BinOp("+-*"[kind], left, separable_ast(rng, depth - 1, variables))


class TestEvalJet:
    def test_quadratic_exact(self):
        f = parse("y0^2 - y1^2")
        j = eval_jet(f, PT, 2)
        assert j.value == pytest.approx(0.96, abs=1e-15)
        assert j.partial(mi(4, 4)) == pytest.approx(2.0, abs=1e-14)
        assert j.partial(mi(4, 5)) == 0.0

    def test_order_zero_is_plain_evaluation(self):
        f = parse("sin(x1)*y0")
        pt = np.array([0, 0.7, 0, 0, 2.0, 0, 0, 0], dtype=float)
        j = eval_jet(f, pt, 0)
        assert j.value == pytest.approx(np.sin(0.7) * 2.0, abs=1e-15)
        assert j.partials == {}

    def test_sqrt_field_matches_fd_order3(self):
        f = parse("sqrt(y0^2 - y1^2)")
        j = eval_jet(f, PT, 3)
        ref = richardson_jet(f, PT, 3, 4e-3)
        for a, v in j.partials.items():
            assert v == pytest.approx(ref.partials[a], rel=1e-6, abs=1e-6)

    def test_mixed_partial_symmetry(self):
        f = parse("exp(y0*y1)*sin(x0 + y2)")
        pt = np.array([0.3, 0, 0, 0, 0.5, 0.7, 0.2, 0], dtype=float)
        j = eval_jet(f, pt, 3)
        assert j.partial(mi(4, 5, 0)) == pytest.approx(j.partial(mi(0, 4, 5)), rel=1e-12)

    def test_deterministic(self):
        f = parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1")
        a = eval_jet(f, PT, 4)
        b = eval_jet(f, PT, 4)
        assert a.value == b.value
        assert a.partials == b.partials

    def test_domain_error_names_subexpression(self):
        f = parse("y0 + sqrt(y1 - 1)")
        with pytest.raises(DomainError) as ei:
            eval_jet(f, PT, 1)
        assert "sqrt" in str(ei.value)

    def test_division_by_zero(self):
        f = parse("y0/(y1 - 0.2)")
        with pytest.raises(DomainError):
            eval_jet(f, PT, 1)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            eval_jet(parse("log(y2)"), PT, 1)

    def test_abs_at_zero_not_differentiable(self):
        with pytest.raises(DomainError):
            eval_jet(parse("abs(y2)"), PT, 1)
        assert eval_jet(parse("abs(y1)"), PT, 1).partial(mi(5)) == 1.0

    def test_variable_exponent(self):
        f = parse("y0^y1")
        j = eval_jet(f, PT, 1)
        # d/dy1 of exp(y1 log y0) at y0=1 is log(1)*1 = 0
        assert j.partial(mi(5)) == pytest.approx(0.0, abs=1e-14)
        assert j.partial(mi(4)) == pytest.approx(0.2, abs=1e-12)

    def test_order_cap(self):
        f = parse("y0^2")
        with pytest.raises(ValueError):
            eval_jet(f, PT, 6)
        with pytest.raises(ValueError):
            fd_jet(f, PT, 5, 1e-3)


class TestFdJet:
    def test_constant_field(self):
        j = fd_jet(parse("3.5"), PT, 1, 1e-3)
        assert all(abs(v) < 1e-12 for v in j.partials.values())

    def test_bilinear(self):
        j = fd_jet(parse("y0*y1"), PT, 2, 1e-3)
        assert j.partial(mi(4, 5)) == pytest.approx(1.0, abs=1e-8)

    def test_randers_agrees_with_exact(self):
        # abs floor 1e-6: the O(step^2) truncation of the plain stencils
        f = parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1")
        exact = eval_jet(f, PT, 2)
        fd = fd_jet(f, PT, 2, 1e-3)
        for a, v in exact.partials.items():
            assert fd.partials[a] == pytest.approx(v, rel=1e-6, abs=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_jet(parse("y0"), PT, 1, 0.0)

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            fd_jet(parse("sqrt(y1 - 0.2)"), PT, 1, 1e-3)


class TestHomogeneity:
    def test_minkowski_degree_one(self):
        f = parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2)")
        assert check_homogeneity(f, 1.0, PT, 2.0) < 1e-14

    def test_f_squared_degree_two(self):
        f = parse("y0^2 - y1^2 - y2^2 - y3^2")
        assert check_homogeneity(f, 2.0, PT, 3.0) <= 1e-12 * 0.96 + 1e-15

    def test_ratio_generator(self):
        f = parse("0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)")
        assert check_homogeneity(f, 1.0, PT, 1.7) < 1e-12

    def test_inhomogeneous_detected(self):
        f = parse("x1*y0^2")
        pt = np.array([0, 2.0, 0, 0, 1.0, 0, 0, 0], dtype=float)
        assert check_homogeneity(f, 1.0, pt, 2.0) > 1.0


class TestEulerIdentity:
    def test_one_homogeneous_fields(self):
        rng = np.random.default_rng(3)
        fields = [
            parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
            parse("sqrt(y0^2 - y1^2 - y2^2 - y3^2) + 0.1*y1"),
            parse("0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
            parse("(1 + 0.2*x1^2)*y0^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"),
        ]
        for f in fields:
            for _ in range(25):
                pt = PT.copy()
                pt[:4] = rng.uniform(-1, 1, 4)
                pt[4] = rng.uniform(0.9, 1.2)
                pt[5:] = rng.uniform(-0.15, 0.15, 3)
                j = eval_jet(f, pt, 1)
                total = sum(pt[4 + i] * j.partial(mi(4 + i)) for i in range(4))
                assert total == pytest.approx(j.value, rel=1e-10)


class TestRandomAstVsFd:
    def test_ad_matches_fd_on_random_trees(self):
        # jets of bounded-scale trees land within 1e-6 of the fd oracle;
        # unbounded higher derivatives make fd itself meaningless, so
        # wild trees are skipped rather than compared loosely
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            ast = random_ast(rng, depth=6)
            f = ScalarField(ast)
            pt = rng.uniform(0.4, 1.4, 8)
            order = int(rng.integers(1, 4))
            try:
                exact = eval_jet(f, pt, order)
                ref = richardson_jet(f, pt, order, 4e-3)
            except DomainError:
                continue
            if not all(np.isfinite(list(ref.partials.values()))):
                continue
            scale = max(
                1.0, abs(exact.value), *(abs(v) for v in exact.partials.values())
            )
            if scale > 100:
                continue
            for a, v in exact.partials.items():
                assert abs(ref.partials[a] - v) <= 1e-6 * scale
            checked += 1


class TestConcurrentEvaluation:
    def test_shared_field_across_threads(self):
        """One immutable ScalarField evaluated from many threads at once."""
        from concurrent.futures import ThreadPoolExecutor

        f = parse("0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2) + sin(x0)*y0")
        rng = np.random.default_rng(17)
        pts = [PT + np.concatenate([rng.uniform(-0.3, 0.3, 4),
                                    rng.uniform(-0.05, 0.05, 4)]) for _ in range(64)]
        serial = [eval_jet(f, p, 3).partials for p in pts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda p: eval_jet(f, p, 3).partials, pts))
        assert serial == parallel

    def test_first_evaluation_races_on_a_fresh_field(self):
        """Threads that all find the field uncompiled get the serial results."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        src = "0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2) + sin(x0)*y0 + (y1*y2)^3"
        jobs = [(PT + 0.01 * k, k % 5) for k in range(32)]
        reference = parse(src)
        serial = [eval_series(reference, p, order).coeffs for p, order in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                f = parse(src)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(eval_series, f, p, order) for p, order in jobs]
                    parallel = [fut.result(timeout=60).coeffs for fut in futures]
                assert all(np.array_equal(a, b) for a, b in zip(serial, parallel))
        finally:
            sys.setswitchinterval(interval)


def _count_kernels(monkeypatch):
    """Record every call of the product kernels from here on: the full
    product, the coordinate step, the grouped coordinate step and the
    outer product, each with whether a factor is a folded (read-only)
    constant."""
    calls = []

    def counting(name, kernel):
        def run(a, b, *rest, **kw):
            calls.append((name, not (a.flags.writeable and np.asarray(b).flags.writeable)))
            return kernel(a, b, *rest, **kw)
        return run

    monkeypatch.setattr(series, "_product", counting("product", series._product))
    monkeypatch.setattr(series, "_coordinate_product",
                        counting("coordinate", series._coordinate_product))
    monkeypatch.setattr(series, "_coordinate_rows", counting("grouped", series._coordinate_rows))
    monkeypatch.setattr(series, "_outer_product", counting("outer", series._outer_product))
    return calls


def _node_count(node):
    if isinstance(node, (Num, Var)):
        return 1
    if isinstance(node, Neg):
        return 1 + _node_count(node.arg)
    if isinstance(node, BinOp):
        return 1 + _node_count(node.left) + _node_count(node.right)
    return 1 + sum(_node_count(a) for a in node.args)


class TestGroupedCoordinateStep:
    """``series._coordinate_rows``, the tape's grouped step of the products
    of coordinate leaves with coordinates, is ``series._coordinate_product``
    of each row, bit for bit, on any factors."""

    #: the coordinate of each row, by its position in a layout of 5 variables
    POSITIONS = (1, 2, 3, 4, 0, 2)

    @staticmethod
    def factors(order, batch):
        """Rows of coefficients and coordinate values with negative, signed
        zero and non-finite entries."""
        rng = np.random.default_rng(order * 1000 + sum(batch))
        nterms = series._terms(5).nterms[order]
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        a = rng.normal(size=(6, nterms) + batch)
        v0 = rng.normal(size=(6,) + batch)
        for arr in (a, v0):
            hit = rng.choice(arr.size, max(arr.size // 4, 2), replace=False)
            arr.flat[hit] = rng.choice(specials, len(hit))
        v0.flat[:2] = (0.0, -0.0)
        return a, v0

    @pytest.mark.parametrize("batch", [(), (1,), (7,), (100,)], ids=["lone", "w1", "w7", "w100"])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_rows_are_the_per_step_products(self, order, batch):
        a, v0 = self.factors(order, batch)
        dst, src = series._coordinate_shifts(order, self.POSITIONS, 5)
        with np.errstate(invalid="ignore"):
            got = series._coordinate_rows(a, v0, dst, src)
            want = [series._coordinate_product(a[i], v0[i], series._deriv_tables(order, pos, 5)[0])
                    for i, pos in enumerate(self.POSITIONS)]
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert same_bits(g, w), i

    def test_temporaries_fit_a_block(self):
        """At order 4 and 100 columns a row of 126 terms takes 100.8 KB: the
        rows run one by one, each in an array of its own, and nothing the
        step makes besides its rows outgrows ``series.BLOCK_BYTES``."""
        a, v0 = self.factors(4, (100,))
        dst, src = series._coordinate_shifts(4, self.POSITIONS, 5)
        tracemalloc.start()
        try:
            with np.errstate(invalid="ignore"):
                got = series._coordinate_rows(a, v0, dst, src)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a[0].nbytes <= series.BLOCK_BYTES < 2 * a[0].nbytes
        assert all(g.base.nbytes <= series.BLOCK_BYTES for g in got)
        assert peak - current <= series.BLOCK_BYTES


@pytest.mark.usefixtures("fresh_caches")
class TestTape:
    """eval_series runs a program compiled once per field structure."""

    def test_repeated_subtree_evaluated_once(self, monkeypatch):
        f = parse("(y0*y1 + x0)*(y0*y1 + x0)")
        calls = _count_kernels(monkeypatch)
        s = eval_series(f, PT, 2)
        # y0*y1, a coordinate times a coordinate leaf, and the outer product;
        # a tree walk makes 3 (before coordinate steps, the tape made 2 full
        # products)
        assert [name for name, _ in calls] == ["grouped", "product"]
        u = TSeries.coordinate(4, PT[4], 2) * TSeries.coordinate(5, PT[5], 2) \
            + TSeries.coordinate(0, PT[0], 2)
        assert np.array_equal(s.coeffs, (u * u).coeffs)

    def test_constant_subtree_costs_no_product(self, monkeypatch):
        f = parse("y0*(2*3*sqrt(5) + 1/7)")
        eval_series(f, PT, 3)  # folds the constants at order 3
        calls = _count_kernels(monkeypatch)
        s = eval_series(f, PT, 3)
        assert calls == []  # one scaling by the folded value, no series product
        assert len(f._tape._programs[(3, 0, ALL)][3]) == 1
        c = lambda v: TSeries.constant(v, 3)  # noqa: E731
        folded = c(2.0) * c(3.0) * c(5.0).sqrt() + c(1.0) / c(7.0)
        assert np.array_equal(s.coeffs, (TSeries.coordinate(4, PT[4], 3) * folded).coeffs)

    def test_constant_with_a_non_finite_term_keeps_the_product(self, monkeypatch):
        # (1e308*10)^2 folds to inf with NaN beyond the value; a scaling
        # would turn the NaN of d/dy0 into inf
        f = parse("y0*(1e308*10)^2")
        with np.errstate(all="ignore"):
            want = tree_series(f.ast, PT, 1, ALL)
            eval_series(f, PT, 1)
            calls = _count_kernels(monkeypatch)
            s = eval_series(f, PT, 1)
        assert calls == [("product", True)]
        assert np.isnan(s.coeffs[1:]).all()
        assert np.array_equal(s.coeffs, want.coeffs, equal_nan=True)

    @staticmethod
    def kernels(program):
        return [getattr(fn, "func", fn) for _, fn, *_ in program[3]]

    def test_coordinate_steps_run_grouped_and_stacked(self):
        """The leaf squares run as one grouped step and the coordinate
        steps that depend on no other one as one stacked step, while the
        rows fit in a block; a wider batch runs every step alone, where it
        is read.  Either way the series are the tree walk's, bit for bit."""
        f = parse("y0^2 - y1^2 + 2*sin(x0)*y0 + 3*cos(x1)*y1 + 5*x2*y2")
        layout = (0, 1, 2, 4, 5, 6)
        rng = np.random.default_rng(4)
        program = f._tape.built(2, 1, layout)
        rows, wide = program[5]
        assert rows == 3 and len(program[1][4][0]) == 2  # stacked 3, grouped 2
        assert expr._stacked_step in self.kernels(program)
        assert expr._coordinate_step not in self.kernels(program)
        assert sum(getattr(fn, "func", fn) is expr._coordinate_step for _, fn, *_ in wide) == 5
        for width in (1, 7, 300):  # 300 columns of 3 rows of 28 terms outgrow a block
            pts = rng.uniform(0.2, 1.2, (8, width))
            want = tree_series(f.ast, pts, 2, layout)
            assert same_bits(eval_series(f, pts, 2, layout).coeffs, want.coeffs)

    def test_stacking_keeps_the_order_of_failures(self):
        """Stacking 2*x1*y0 and 3*x2*y1 would run sqrt(2*x1*y0) after
        log(x3), so the steps stay apart and a point where both fail names
        the sqrt, as the tree walk does."""
        f = parse("sqrt(2*x1*y0) + log(x3) + 3*x2*y1")
        program = f._tape.built(2, 1, (1, 2, 3, 4, 5))
        assert expr._stacked_step not in self.kernels(program)
        pts = np.tile(np.array([[0.0, -0.5, 0.3, -0.2, 1.0, 0.1, 0.0, 0.0]]).T, 3)
        with pytest.raises(DomainError, match=r"sqrt of a nonpositive value in 'sqrt\(2\*x1\*y0\)'"):
            eval_series(f, pts, 2, (1, 2, 3, 4, 5))

    def test_truncation_tape_makes_no_product_with_a_constant(self, aniso_wave, monkeypatch):
        iso = isotropic_truncation(aniso_wave, np.array([1.0, 0.1, 0.0, 0.0])).L1
        pts = np.random.default_rng(1).uniform(0.1, 0.3, (8, 7))
        pts[4] += 1.0
        eval_series(iso, pts, 2, aniso_wave.layout)
        # the folded constants of a program are read-only
        calls = _count_kernels(monkeypatch)
        eval_series(iso, pts, 2, aniso_wave.layout)
        # before constants scaled, 16 products, 10 of them with a folded
        # constant; before coordinate steps, 6 products; before the
        # coordinate steps were stacked, 4 of them.  The y2 and y3 terms
        # share their factor, so one runs alone.
        assert sorted(calls) == [("coordinate", False), ("grouped", False), ("product", False)]

    def test_blended_aniso_wave_tape_is_small(self, aniso_wave):
        blended = blend_anisotropy(aniso_wave, np.array([1.0, 0.1, 0.0, 0.0]), 0.3).L1
        tape = blended._tape
        ops = sum(1 for (fn, _, _), support in zip(tape.code, tape.support)
                  if fn is not None and support)
        assert _node_count(blended.ast) > 500
        assert ops <= 45

    @pytest.mark.parametrize("name, outer, products", [
        # the parent of the outer product ran 5 and 4 full products
        ("pr-curved", 2, 3), ("curved-aniso", 1, 3),
    ])
    def test_disjoint_factors_skip_the_product(self, name, outer, products, monkeypatch):
        # (1 + 0.2*x1^2)*y0^2 and (1 + 0.1*x0^2)*y1^2 are outer products;
        # the three products left are the Horner loop of the order-4 sqrt
        space = load_scene(FIXTURES / f"{name}.scene").space
        xs, ys = draw_admissible(space, np.random.default_rng(2), 9)
        pts = np.concatenate([xs, ys])
        eval_series(space.F, pts, 4, space.layout)
        calls = _count_kernels(monkeypatch)
        eval_series(space.F, pts, 4, space.layout)
        kinds = [kind for kind, _ in calls]
        assert (kinds.count("outer"), kinds.count("product")) == (outer, products)

    def test_one_variable_composition_runs_in_its_variable(self, monkeypatch):
        f = parse("sin(x1)*y0 + exp(y1)")
        pts = np.random.default_rng(3).uniform(0.4, 1.4, (8, 5))
        eval_series(f, pts, 4)
        calls = []
        product = series._product

        def counting(a, b, k, n=series.NVARS, *rest):
            calls.append((k, n))
            return product(a, b, k, n, *rest)

        monkeypatch.setattr(series, "_product", counting)
        got = eval_series(f, pts, 4)
        # each Horner loop multiplies series of one variable (5 terms),
        # not of all eight (495 terms), step m at order 4 - m
        assert calls == [(2, 1), (3, 1), (4, 1)] * 2
        assert np.array_equal(got.coeffs, tree_series(f.ast, pts, 4, ALL).coeffs)

    @pytest.mark.parametrize("batch", [(), (7,), (60,)])
    @pytest.mark.parametrize("order", [3, 4])
    def test_chained_compositions_stay_in_their_layout(self, order, batch):
        """From order 3 a chain of compositions over one smaller layout
        gathers its argument once and scatters only its last result: the
        same bits, signs of zeros included, as scattering and gathering at
        every step.  Order 2 runs them in the full layout."""
        f = parse("exp(sin(sqrt(y0^2 - y1^2)^-1))")
        layout, sub = (1, 4, 5, 6), (4, 5)
        nterms = series._terms(len(layout)).nterms[order]
        steps = f._tape._build(order, len(batch), layout)[3]
        chain = [fn.keywords for _, fn, *_ in steps if getattr(fn, "func", None)
                 is series._restricted]
        assert chain == [{"gather": True, "size": 0}, {"gather": False, "size": 0},
                         {"gather": False, "size": 0}, {"gather": False, "size": nterms}]
        assert not any(getattr(fn, "func", None) is series._restricted
                       for _, fn, *_ in f._tape._build(2, len(batch), layout)[3])
        rng = np.random.default_rng(order)
        pts = rng.uniform(0.1, 0.3, (8,) + batch)
        pts[4] += 1.0
        q, got = program(parse("y0^2 - y1^2"), f).run(pts, order, layout)
        want, idx = q.coeffs, series._lift_index(sub, layout, order)
        for name in ("sqrt", "reciprocal", "sin", "exp"):
            want = series._restricted(
                lambda a, fn=series.FUNCTIONS[name]: fn(a, order, len(sub)), idx, want)
        assert np.array_equal(got.coeffs, want)
        assert np.array_equal(np.signbit(got.coeffs), np.signbit(want))

    @pytest.mark.parametrize("batch", [(), (7,), (60,)])
    def test_order_two_compositions_run_in_the_full_layout(self, batch):
        """An order-2 composition of fewer variables than the layout runs
        in the full layout: the values of the restricted step scattered
        back, and the same signs on the terms in the argument's
        variables.  At x0 in (pi/2, pi), where cos(x0) < 0, a term outside
        them can be -0 where the scatter gives +0."""
        layout, sub = (0, 4, 5, 6), (0,)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.1, 0.3, (8,) + batch)
        pts[0] += 2.0
        x, got = program(parse("x0"), parse("sin(x0)")).run(pts, 2, layout)
        idx = series._lift_index(sub, layout, 2)
        want = series._restricted(lambda a: series.sin(a, 2, len(sub)), idx, x.coeffs)
        assert np.array_equal(got.coeffs, want)
        assert np.array_equal(np.signbit(got.coeffs[idx]), np.signbit(want[idx]))

    def test_evicted_tapes_are_freed(self):
        # a tape lives while a cache or a field holds it: of 3 x PLAN_CACHE
        # fields dropped after use, only the tapes the caches keep stay
        n = 3 * series.PLAN_CACHE
        refs = []
        for i in range(n):
            f = parse(f"0.3*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2) + {i}*y2")
            eval_series(f, PT, 2)
            refs.append(weakref.ref(f._tape))
        del f
        gc.collect()
        alive = [r() is not None for r in refs]
        assert sum(alive) <= series.PLAN_CACHE
        assert not any(alive[:n - series.PLAN_CACHE])

    @pytest.mark.parametrize("order", [0, 2])
    def test_constant_domain_error_raised_at_evaluation(self, order):
        f = parse("y0 + sqrt(0 - 1)")  # parses and compiles; fails when evaluated
        with pytest.raises(DomainError) as ei:
            eval_series(f, PT, order)
        assert "sqrt" in str(ei.value)

    def test_constant_abs_at_zero_fails_only_with_derivatives(self):
        f = parse("y0 + abs(0)")
        assert eval_series(f, PT, 0).coeffs[0] == PT[4]
        with pytest.raises(DomainError) as ei:
            eval_series(f, PT, 1)
        assert "abs(0)" in str(ei.value)

    def test_first_failure_in_evaluation_order_is_reported(self):
        # y1 = 0.2 at PT: the division comes first and fails first
        f = parse("y0/(y1 - 0.2) + sqrt(0 - 1)")
        with pytest.raises(DomainError) as ei:
            eval_series(f, PT, 1)
        assert "division by zero" in str(ei.value)


@pytest.mark.usefixtures("fresh_caches")
class TestCompileCache:
    """Parsing and compiling are pure functions of their exact input,
    memoized process-wide in caches of at most ``series.PLAN_CACHE``
    entries each."""

    SOURCE = "0.2*sin(x0)*y1^2/sqrt(y0^2 - y1^2 - y2^2 - y3^2)"
    Y_REF = np.array([1.0, 0.1, 0.0, 0.0])

    def test_one_field_and_one_tape_per_text(self):
        f = parse(self.SOURCE)
        assert parse(self.SOURCE) is f
        assert parse(" " + self.SOURCE) is not f
        # another field of the same structure shares the tape
        assert ScalarField(f.ast)._tape is f._tape
        assert parse(" " + self.SOURCE)._tape is f._tape

    def test_one_program_per_member_tapes(self, aniso_wave):
        space = replace(aniso_wave)  # no program built yet
        joined = program(space.F, space.L1)
        assert space.program is joined
        assert replace(aniso_wave).program is joined
        assert program(space.L1, space.F) is not joined
        blend = anisotropy_ensemble(space, self.Y_REF, [None, 0.5]).L1
        assert blend._tape is program(blend.iso, blend.full)

    def test_one_truncation_per_l1_and_exact_y_ref(self, aniso_wave):
        iso = isotropic_truncation(aniso_wave, self.Y_REF).L1
        assert isotropic_truncation(aniso_wave, list(self.Y_REF)).L1 is iso
        assert isotropic_truncation(aniso_wave, self.Y_REF + 1e-16).L1 is not iso

    def test_signed_zeros_get_their_own_tapes(self):
        pos, neg = (ScalarField(BinOp("*", Num(z), Var(4))) for z in (0.0, -0.0))
        assert pos == neg and pos.source() == neg.source()  # neither tells them apart
        assert pos._tape is not neg._tape
        got = {}
        for f in (pos, neg):
            got[f is neg] = eval_series(f, PT, 2).coeffs
            assert same_bits(got[f is neg], _Tape((f.ast,)).run(PT, 2, ALL)[0].coeffs)
        assert np.signbit(got[True]).all() and not np.signbit(got[False]).any()

    def test_truncations_keep_the_sign_of_a_zero(self, aniso_wave):
        # subst_ast writes a y_ref component of -0.0 as Num(-0.0)
        neg_ref = self.Y_REF * np.array([1.0, 1.0, -1.0, 1.0])
        pos = isotropic_truncation(aniso_wave, self.Y_REF).L1
        neg = isotropic_truncation(aniso_wave, neg_ref).L1
        assert pos.source() == neg.source() and _exact(pos.ast) != _exact(neg.ast)
        assert pos._tape is not neg._tape
        pts = np.random.default_rng(5).uniform(-0.2, 0.2, (8, 3))
        pts[4] += 1.0
        for f in (pos, neg):
            got = eval_series(f, pts, 2, aniso_wave.layout).coeffs
            want = _Tape((f.ast,)).run(pts, 2, aniso_wave.layout)[0].coeffs
            assert same_bits(got, want)

    def test_caches_are_bounded(self):
        n = 3 * series.PLAN_CACHE
        fields = [parse(f"y0 + {i}*y1^2/y0") for i in range(n)]
        first = eval_series(fields[0], PT, 2).coeffs
        for f in fields:
            eval_series(f, PT, 2)
            program(f, fields[0])
            isotropic_truncation(SpaceDef(F=fields[-1], L1=f), self.Y_REF)
        for cache in (expr._parsed, expr._tapes, expr._joined, em._truncations):
            assert 0 < len(cache) <= series.PLAN_CACHE
        # compiled again after eviction: a new field and tape, the same bits
        again = parse("y0 + 0*y1^2/y0")
        assert again is not fields[0] and again._tape is not fields[0]._tape
        assert same_bits(eval_series(again, PT, 2).coeffs, first)

    @pytest.mark.parametrize("source, error, offset", [
        ("y0 + foo", UnknownIdentifierError, 5),
        ("y0 + ", ExprSyntaxError, 5),
        ("sqrt(y0", ExprSyntaxError, 7),
        ("   ", ExprSyntaxError, 0),
    ])
    def test_errors_raise_on_every_call(self, source, error, offset):
        seen = []
        for _ in range(3):
            with pytest.raises(error) as ei:
                parse(source)
            seen.append((type(ei.value), str(ei.value), ei.value.offset))
        assert seen == [seen[0]] * 3 and seen[0][2] == offset
        assert not expr._parsed


class TestTapeOracle:
    """eval_series, and each root of a program over several fields, is
    bit-equal to a plain tree walk (oracles.tree_series) at orders 0-4
    (0-5 for the separable trees), at a lone point and at batch 1, 7 and
    300 (a blocked product), wherever the walk's series is finite."""

    def check(self, field, pts, layout=ALL, orders=range(5)):
        compared = 0
        for order in orders:
            for p in (pts[:, 0], pts[:, :1], pts[:, :7], pts):
                try:
                    want = tree_series(field.ast, p, order, layout)
                except DomainError:
                    with pytest.raises(DomainError):
                        eval_series(field, p, order, layout)
                    continue
                if not np.isfinite(want.coeffs).all():
                    continue
                got = eval_series(field, p, order, layout)
                assert np.array_equal(got.coeffs, want.coeffs, equal_nan=True)
                compared += 1
        return compared

    @staticmethod
    def draws(space):
        xs, ys = draw_admissible(space, np.random.default_rng(3), 300)
        return np.concatenate([xs, ys])

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.scene")))
    def test_fixture_generators(self, name):
        space = load_scene(FIXTURES / name).space
        pts = self.draws(space)
        assert self.check(space.F, pts, space.layout) == 20
        assert self.check(space.L1, pts, space.layout) == 20

    @pytest.mark.parametrize("scene", ["aniso_wave", "curved_aniso"])
    def test_isotropic_truncations(self, scene, request):
        space = request.getfixturevalue(scene)
        iso = isotropic_truncation(space, np.array([1.0, 0.1, 0.0, 0.0]))
        assert self.check(iso.L1, self.draws(space), space.layout) == 20

    def check_program(self, fields, pts, layout):
        """Every root of one program over ``fields`` is its tree walk."""
        tape = program(*fields)
        compared = 0
        for order in range(5):
            for p in (pts[:, 0], pts[:, :1], pts[:, :7], pts):
                try:
                    wants = [tree_series(f.ast, p, order, layout) for f in fields]
                except DomainError:
                    with pytest.raises(DomainError):
                        tape.run(p, order, layout)
                    continue
                for got, want in zip(tape.run(p, order, layout), wants):
                    if np.isfinite(want.coeffs).all():
                        assert np.array_equal(got.coeffs, want.coeffs, equal_nan=True)
                        compared += 1
        return compared

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.scene")))
    def test_fixture_programs(self, name):
        space = load_scene(FIXTURES / name).space
        assert self.check_program((space.F, space.L1), self.draws(space), space.layout) == 40

    @pytest.mark.parametrize("scene", ["aniso_wave", "curved_aniso"])
    def test_truncation_programs(self, scene, request):
        space = request.getfixturevalue(scene)
        iso = isotropic_truncation(space, np.array([1.0, 0.1, 0.0, 0.0])).L1
        fields = (space.F, iso, space.L1)
        assert self.check_program(fields, self.draws(space), space.layout) == 60

    def test_shared_subexpressions_run_once(self, aniso_wave):
        iso = isotropic_truncation(aniso_wave, np.array([1.0, 0.1, 0.0, 0.0])).L1
        fields = (aniso_wave.F, iso, aniso_wave.L1)

        def steps(*fs):
            return len(program(*fs)._build(2, 1, aniso_wave.layout)[3])

        # F is a subexpression of L1, and the truncation and L1 share sin(x0)
        assert steps(*fields) < sum(steps(f) for f in fields)

    def test_random_trees(self):
        rng = np.random.default_rng(17)
        wide = np.random.default_rng(18)
        compared = 0
        with np.errstate(all="ignore"):
            for _ in range(60):
                field = ScalarField(random_ast(rng, depth=5))
                pts = np.concatenate([rng.uniform(0.4, 1.4, (8, 7)),
                                      wide.uniform(0.4, 1.4, (8, 293))], axis=1)
                compared += self.check(field, pts)
        assert compared >= 1000

    def test_separable_trees(self):
        """Trees full of outer products and one-variable compositions, in
        random layouts of 4 to 6 variables, at orders 0-5."""
        rng = np.random.default_rng(23)
        wide = np.random.default_rng(24)
        compared = outer = restricted = 0
        with np.errstate(all="ignore"):
            for _ in range(40):
                layout = tuple(sorted(rng.choice(8, int(rng.integers(4, 7)), replace=False)))
                field = ScalarField(separable_ast(rng, 4, list(layout)))
                pts = np.concatenate([rng.uniform(0.4, 1.4, (8, 7)),
                                      wide.uniform(0.4, 1.4, (8, 293))], axis=1)
                compared += self.check(field, pts, layout, orders=range(6))
                for _, fn, *_ in field._tape._build(5, 1, layout)[3]:
                    kernel = getattr(fn, "func", None)
                    outer += kernel is _outer_step
                    restricted += kernel is series._restricted
        assert compared >= 850
        assert outer >= 50 and restricted >= 80


class TestSymbolicHelpers:
    def test_diff_product_rule(self):
        f = parse("x0*sin(x1)")
        d = diff_ast(f.ast, 1)
        pt = np.array([2.0, 0.7, 0, 0, 0, 0, 0, 0])
        assert eval_values(ScalarField(d), pt) == pytest.approx(2.0 * np.cos(0.7))

    def test_diff_matches_jet(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            ast = random_ast(rng, depth=4)
            f = ScalarField(ast)
            pt = rng.uniform(0.5, 1.2, 8)
            var = int(rng.integers(0, 8))
            try:
                j = eval_jet(f, pt, 1)
                d = eval_values(ScalarField(diff_ast(ast, var)), pt)
            except DomainError:
                continue
            if not np.isfinite(d):
                continue
            assert d == pytest.approx(j.partial(mi(var)), rel=1e-10, abs=1e-10)

    def test_subst(self):
        f = parse("y0^2 + x1*y1")
        sub = subst_ast(f.ast, {4: 3.0, 5: -2.0})
        pt = np.array([0, 5.0, 0, 0, 0, 0, 0, 0])
        assert eval_values(ScalarField(sub), pt) == pytest.approx(9.0 - 10.0)

    def test_diff_variable_exponent(self):
        f = parse("y0^y1")
        d = eval_values(ScalarField(diff_ast(f.ast, 4)), PT)
        j = eval_jet(f, PT, 1)
        assert d == pytest.approx(j.partial(mi(4)), rel=1e-12)
