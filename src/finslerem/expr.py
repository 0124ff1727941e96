"""Closed-form scalar fields over (x0..x3, y0..y3) and their derivative jets.

The grammar (EBNF, '^' right-associative, unary minus binding tighter
than '^'):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are exactly x0..x3, y0..y3; numbers are decimals with an
optional exponent.  Builtin functions: sqrt, sin, cos, exp, log, abs and
the two-argument pow.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import series
from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError, drop_failing
from .series import ALL, TSeries, VAR_NAMES, _deriv_tables

__all__ = [
    "ScalarField",
    "Jet",
    "parse",
    "to_source",
    "eval_jet",
    "eval_series",
    "eval_values",
    "check_homogeneity",
]

_VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
_UNARY_FUNCS = ("sqrt", "sin", "cos", "exp", "log", "abs")
_FUNCS = _UNARY_FUNCS + ("pow",)


# ----------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True)
class ScalarField:
    """Immutable expression tree, safe to share between threads."""

    ast: object

    @staticmethod
    def zero():
        return ScalarField(Num(0.0))

    def source(self):
        return to_source(self.ast)

    def variables(self):
        """Set of chart-variable indices that occur in the tree."""
        return self._variables

    @cached_property
    def _variables(self):
        out = set()

        def walk(n):
            if isinstance(n, Var):
                out.add(n.index)
            elif isinstance(n, Neg):
                walk(n.arg)
            elif isinstance(n, BinOp):
                walk(n.left)
                walk(n.right)
            elif isinstance(n, Call):
                for a in n.args:
                    walk(a)

        walk(self.ast)
        return frozenset(out)

    def is_zero(self):
        return isinstance(self.ast, Num) and self.ast.value == 0.0

    @cached_property
    def _tape(self):
        # one per exact structure in the process (see _Tape), so fields
        # that differ only in the sign of a zero get two
        key = _exact(self.ast)
        tape = _tapes.get(key)
        if tape is None:
            tape = series._remember(_tapes, key, _Tape((self.ast,)))
        return tape

    @property
    def parts(self):
        """The ScalarFields whose series make this generator's: itself."""
        return (self,)

    @staticmethod
    def combine(parts, batch):
        """This generator's series from the series of its ``parts``."""
        return parts[0]

    def series(self, point, order, layout):
        """Taylor series at ``point`` in ``layout``; see :func:`eval_series`."""
        return self._tape.run(point, order, layout)[0]


@dataclass
class Jet:
    """Value plus mixed partials keyed by 8-tuple exponent multi-indices."""

    value: float
    partials: dict
    order: int

    def partial(self, alpha):
        alpha = tuple(alpha)
        if sum(alpha) == 0:
            return self.value
        return self.partials[alpha]


# ----------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            off = len(source) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", off,
                expected=("number", "identifier", "operator"),
            )
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.next()
        raise ExprSyntaxError(f"expected {op!r}", off, expected=(op,))

    def parse(self):
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(
                f"trailing input {text!r}", off, expected=("end of input",)
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(
                    f"number {text!r} out of range", off, expected=("finite number",)
                )
            return Num(value)
        if kind == "ident":
            if text in _VAR_INDEX:
                return Var(_VAR_INDEX[text])
            if text in _FUNCS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, t, o = self.peek()
                    if k == "op" and t == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                want = 2 if text == "pow" else 1
                if len(args) != want:
                    raise ExprSyntaxError(
                        f"{text} takes {want} argument(s), got {len(args)}", off,
                        expected=(f"{want} arguments",),
                    )
                return Call(text, tuple(args))
            raise UnknownIdentifierError(text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"unexpected token {text or 'end of input'!r}", off,
            expected=("number", "identifier", "'('", "'-'"),
        )


#: the ScalarField of each source text parsed lately, its tape with it; a
#: failure is not kept, so a bad text raises on every call
_parsed = {}


def parse(source):
    """Parse expression source into a ScalarField, or raise a syntax error.
    The same text gives the same field while :data:`_parsed` holds it."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0, expected=("expression",))
    field = _parsed.get(source)
    if field is None:
        field = series._remember(_parsed, source, ScalarField(_Parser(source).parse()))
    return field


# ----------------------------------------------------------------------
# printing (round-trip stable: parse(to_source(ast)) == ast)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 4
    return 5


def to_source(node):
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, Var):
        return VAR_NAMES[node.index]
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) < 4:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = to_source(node.left)
        right = to_source(node.right)
        if node.op == "^":
            # base is a unary in the grammar, exponent is a factor
            if _prec(node.left) < 4:
                left = f"({left})"
            if _prec(node.right) < 3:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    raise TypeError(f"not an AST node: {node!r}")


# ----------------------------------------------------------------------
# evaluation: fields compile into straight-line programs on coefficient arrays

_ARRAY_OPS = {"+": operator.add, "-": operator.sub, "neg": operator.neg}


def _array_fn(op, order, n):
    """The function of coefficient arrays that runs one operation at
    ``order`` in a layout of n variables."""
    name, arg = op
    if name == "*":
        return series._mul_fn(order, n)
    if name in _ARRAY_OPS:
        return _ARRAY_OPS[name]
    fn = series.FUNCTIONS[name]
    if arg is None:
        return lambda a: fn(a, order, n)
    return lambda a: fn(a, order, n, 0, arg)


def _exact(node):
    """A key that two ASTs share exactly when they compile alike: their
    trees, operators and numbers are equal, signs of zeros included.
    Neither dataclass equality (``Num(0.0) == Num(-0.0)``) nor
    ``to_source`` (which prints both as 0) tells the zeros apart."""
    if isinstance(node, Num):
        return ("num", node.value, math.copysign(1.0, node.value))
    if isinstance(node, Var):
        return ("var", node.index)
    if isinstance(node, Neg):
        return ("neg", _exact(node.arg))
    if isinstance(node, BinOp):
        return (node.op, _exact(node.left), _exact(node.right))
    if isinstance(node, Call):
        return (node.func,) + tuple(_exact(a) for a in node.args)
    raise TypeError(f"not an AST node: {node!r}")


def _coordinate_step(src, a, v0):
    """``a`` times a chart coordinate of value row ``v0`` (``src`` as in
    :func:`series._coordinate_product`, which it looks up at each call)."""
    return series._coordinate_product(a, v0, src)


def _stacked_step(dst, src, factors, v0):
    """The coordinate steps of ``factors``, stacked as the rows of one
    array, with the coordinate values ``v0`` (:func:`series._coordinate_rows`)."""
    return series._coordinate_rows(np.array(factors), v0, dst, src)


def _outer_step(ia, ib, a, b):
    """``a`` times ``b`` in disjoint variables (:func:`series._outer_product`)."""
    return series._outer_product(a, b, ia, ib)


class _Tape:
    """One program of series operations over a tuple of root expressions.

    The unique operations of all the roots are listed in the order they
    are first needed.  Structurally equal subtrees share one slot, within
    a root and across roots: slots are hash-consed on the operation and
    its child slots, never on a whole subtree, so a subexpression that
    several roots hold runs once.  A ScalarField's tape has one root;
    :func:`program` compiles several fields into one.

    Tapes are shared process-wide and compiled once: every ScalarField of
    one exact structure (:func:`_exact`) gets the tape in :data:`_tapes`,
    and :func:`program` the one in :data:`_joined` for the same member
    tapes.  Each cache keeps its latest ``series.PLAN_CACHE`` entries, and
    a tape lives while a cache or a field holds it, with the programs it
    has built for each order, batch rank and layout.

    A program runs on bare coefficient arrays, shaped (nterms, *batch).
    Each step is a function of arrays with its order, layout and
    derivative tables bound when the program is built for an order, and
    it runs the numpy operations of the TSeries arithmetic it stands for,
    in the same order.  Only the roots come back as TSeries.

    An operation whose leaves are all numbers is folded: it runs once per
    derivative order on batch-free arrays, with the same arithmetic, and
    its result is broadcast into every evaluation.

    Four identities turn a step into a cheaper one, each chosen from the
    static variable support of the step's operands (the chart variables
    their subtrees use).  All are exact because ``reduceat`` adds a
    segment's exact zeros without rounding, in whatever grouping it sums
    them, so a segment with at most two nonzero summands gives their one
    rounded sum; they agree with the plain step on finite coefficients,
    up to the sign of a zero (see :mod:`finslerem.series`).

    - A product with a folded constant whose coefficients beyond the value
      are all exactly 0 is a scaling of the other factor by that value:
      each output term sums a_t c_0 and products with 0.  A constant with
      a nonzero or non-finite higher coefficient (``exp(1000)`` at order
      >= 1) keeps the product.
    - Any other product with a chart coordinate is a shift and a scaling
      (:func:`series._coordinate_product`): the coordinate's series is its
      value v0 plus one degree-1 term of coefficient 1, so output term K
      sums a_K v0, a_{K-e} and products with 0.  The step reads v0 from
      the point, so a coordinate that only such steps read is never
      expanded into a series.  Such steps also run several at once
      (:func:`series._coordinate_rows`), each row summing what its own
      step sums, with flat shifts fixed when the program is built: the
      products of a coordinate with a coordinate leaf, such as the leaf
      squares ``y_i*y_i``, as one grouped step on the rows of the leaves'
      array, before the other steps; and the steps that depend on no
      other one, such as the ``c_i(x)*y^i`` of a truncation, as one
      stacked step once their factors are there (:meth:`_stacked`).
      Only a batch whose rows fit in ``series.BLOCK_BYTES`` runs them so;
      a wider one runs each step where it is read, while its operands are
      in cache (a program's ``wide`` steps).
    - Any other product of two factors in disjoint variables, such as
      ``(1 + 0.2*x1^2)*y0^2``, is an outer product
      (:func:`series._outer_product`): output term K sums one nonzero
      product and products with 0.
    - A composition (``sqrt``, ``sin``, a reciprocal, ...) whose argument
      uses fewer variables than the layout, such as ``sin(x1)``, runs in
      the layout of those variables and is scattered back
      (:func:`series._restricted`), from order 3 on; at order 2 its one
      product costs less than the gather and the scatter, and a term
      outside the argument's variables can be -0 where the scatter gives
      +0.  A result that only such compositions read stays in the
      smaller layout.

    Apart from that the results are those of a plain tree walk.
    """

    def __init__(self, asts, tapes=()):
        self.asts = tuple(asts)
        self.code = []     # (op, child slots, AST node); op is None for a leaf
        self.support = []  # bit v set: the slot uses chart variable v; 0: numbers only
        self._index = {}
        self._programs = {}
        self.roots = tuple(self._compile(ast) for ast in self.asts)
        for tape in tapes:
            self.asts += tape.asts
            self.roots += self._join(tape)
        del self._index

    def _join(self, tape):
        """Emit a compiled tape's code into this one; returns its roots' slots.

        The tape lists its slots in the order its own walk first needs
        them, so this gives the code of walking its roots here."""
        slots = []
        for op, args, node in tape.code:
            args = tuple(slots[a] for a in args)
            key = op + args if op is not None else _exact(node)
            slots.append(self._emit(key, op, args, node))
        return tuple(slots[r] for r in tape.roots)

    def _emit(self, key, op, args, node):
        slot = self._index.get(key)
        if slot is None:
            slot = self._index[key] = len(self.code)
            self.code.append((op, args, node))
            support = 1 << node.index if op is None and isinstance(node, Var) else 0
            for a in args:
                support |= self.support[a]
            self.support.append(support)
        return slot

    def _op(self, name, args, node, arg=None):
        return self._emit((name, arg) + args, (name, arg), args, node)

    def _compile(self, node):
        if isinstance(node, (Num, Var)):
            return self._emit(_exact(node), None, (), node)
        if isinstance(node, Neg):
            return self._op("neg", (self._compile(node.arg),), node)
        if isinstance(node, BinOp):
            a, b = self._compile(node.left), self._compile(node.right)
            if node.op == "/":
                return self._op("*", (a, self._op("reciprocal", (b,), node)), node)
            if node.op == "^":
                return self._power(a, b, node)
            return self._op(node.op, (a, b), node)
        if isinstance(node, Call):
            args = [self._compile(a) for a in node.args]
            if node.func == "pow":
                return self._power(args[0], args[1], node)
            return self._op(node.func, (args[0],), node)
        raise TypeError(f"not an AST node: {node!r}")

    def _literal(self, slot):
        """The value of a slot of numbers only (``2``, ``1+1``, ``3^2``) at
        order 0, or None if it holds a variable or fails."""
        if self.support[slot]:
            return None
        op, args, node = self.code[slot]
        if op is None:
            return node.value
        values = [self._literal(a) for a in args]
        if None in values:
            return None
        try:
            return float(_array_fn(op, 0, 1)(*(np.array([v]) for v in values))[0])
        except DomainError:
            return None

    def _power(self, base, exponent, node):
        """Exact paths for an exponent of numbers only, exp(b log a) otherwise."""
        p = self._literal(exponent)
        if p is None:
            log = self._op("log", (base,), node)
            return self._op("exp", (self._op("*", (exponent, log), node),), node)
        if not (isinstance(p, int) or (isinstance(p, float) and p.is_integer())):
            return self._op("powf", (base,), node, float(p))
        # TSeries.ipow unrolled: the same products in the same order
        p = int(p)
        if p == 0:
            return self._compile(Num(1.0))
        if p < 0:
            base, p = self._op("reciprocal", (base,), node), -p
        result = None
        while p:
            if p & 1:
                result = base if result is None else self._op("*", (result, base), node)
            p >>= 1
            if p:
                base = self._op("*", (base, base), node)
        return result

    def _build(self, order, ndim, layout):
        """The program at ``order``: ``(init, leaves, values, steps,
        failure, wide)``, the folded constants, the coordinate leaves with
        their grouped step, the coordinate value rows, the steps, each
        ``(slot, fn, a, b, dead)``, a constant's failure and ``(rows,
        steps)``: the steps of a batch too wide for ``rows`` rows in a
        block (None if a batch of any width runs the same)."""
        outside = [VAR_NAMES[n.index] for _, _, n in self.code
                   if isinstance(n, Var) and n.index not in layout]
        if outside:
            raise ValueError(f"{', '.join(outside)} outside the series layout {layout}")
        n = len(layout)
        nterms = series._terms(n).nterms[order]
        consts = [None] * len(self.code)
        coords, steps, failure = [], [], None
        for slot, (op, args, node) in enumerate(self.code):
            if self.support[slot]:
                if op is None:
                    coords.append((slot, node.index))
                else:
                    steps.append((slot, op, args))
                continue
            try:
                if op is None:
                    consts[slot] = np.zeros(nterms)
                    consts[slot][0] = node.value
                else:
                    consts[slot] = _array_fn(op, order, n)(*(consts[a] for a in args))
            except DomainError as e:
                # raised in turn, after every step that comes before it
                failure = (str(e), node)
                break
        # a product with a constant that is only a value scales the other
        # factor; any other product with a coordinate shifts and scales it
        # by the coordinate's value row, which gets a slot of its own past
        # the code; a product of two series in disjoint variables is an
        # outer product, and a composition of fewer variables runs in
        # theirs.  A step has at most one constant factor, else it would
        # fold, and a constant with a higher term keeps the product.
        var = dict(coords)
        value_slot = {}
        # (slot, factor, coordinate) of each coordinate step
        coordinate = []
        # a restricted composition that only compositions read keeps its layout
        read_elsewhere = {a for _, op, args in steps if op[0] not in series.COMPOSITIONS
                          for a in args}.union(self.roots)
        small = {slot for slot, op, _ in steps if order >= 3 and op[0] in series.COMPOSITIONS
                 and self.support[slot].bit_count() < n and slot not in read_elsewhere}
        # the steps that can raise, whose order a rescheduling keeps
        raising = {slot for slot, op, _ in steps if op[0] in series.FUNCTIONS}
        for i, (slot, op, args) in enumerate(steps):
            fn = None
            if op[0] == "*":
                c, other = sorted(args, key=lambda a: (consts[a] is None, a not in var))
                if consts[c] is not None:
                    if not consts[c][1:].any():
                        fn, args = partial(operator.mul, float(consts[c][0])), (other,)
                elif c in var:
                    coordinate.append((slot, other, c))
                    src = _deriv_tables(order, layout.index(var[c]), n)[0]
                    v0 = value_slot.setdefault(c, len(self.code) + len(value_slot))
                    fn, args = partial(_coordinate_step, src), (other, v0)
                elif not self.support[c] & self.support[other]:
                    positions = tuple(i for i, v in enumerate(layout) if self.support[c] >> v & 1)
                    fn = partial(_outer_step, *series._outer_index(positions, n, order))
            elif op[0] in series.COMPOSITIONS and order >= 3:
                sub = tuple(v for v in layout if self.support[args[0]] >> v & 1)
                if len(sub) < n:
                    inner = _array_fn(op, order, len(sub))
                    fn = partial(series._restricted, inner,
                                 series._lift_index(sub, layout, order),
                                 gather=args[0] not in small, size=0 if slot in small else nterms)
            steps[i] = (slot, fn or _array_fn(op, order, n), args)
        # a coordinate leaf times a coordinate (the leaf squares y_i*y_i)
        # joins the grouped step, one step per leaf
        group, grouped_leaves = [], []
        for slot, leaf, c in coordinate:
            if leaf in var and leaf not in grouped_leaves:
                group.append((slot, leaf, c))
                grouped_leaves.append(leaf)
        grouped = {slot for slot, _, _ in group}
        # a coordinate is expanded only where a step reads its series; the
        # grouped step's leaves are the first rows
        read = {a for _, _, args in steps for a in args}.union(self.roots)
        slots = tuple(grouped_leaves) + tuple(
            slot for slot, _ in coords if slot in read and slot not in grouped_leaves)
        # the rows of one array, each a value and a degree-1 term of 1
        lvars = np.array([var[s] for s in slots], dtype=np.intp)
        ones = (np.arange(len(slots)), np.array([n - layout.index(v) for v in lvars], dtype=np.intp)
                ) if order else None
        values = [(v0, var[c]) for c, v0 in value_slot.items()]
        # shared by every call: broadcast over the batch axes, read-only
        pad = (1,) * ndim
        for i, c in enumerate(consts):
            if c is not None:
                consts[i] = c.reshape(c.shape + pad)
                consts[i].flags.writeable = False
        init = consts + [None] * len(value_slot)
        # a batch whose grouped rows fit in a block runs the leaf squares
        # before the other steps and the independent coordinate steps
        # stacked; a wider one runs each step where it is read, while it is
        # in cache (``wide``)
        wide, rows = self._sweep(steps), 0
        if group:
            steps = [step for step in steps if step[0] not in grouped]
            # a leaf's own value row is its coordinate's
            squares = all(leaf == c for _, leaf, c in group)
            rows = len(group)
            group = (tuple(slot for slot, _, _ in group),
                     None if squares else np.array([var[c] for _, _, c in group], dtype=np.intp),
                     *series._coordinate_shifts(order, [layout.index(var[c]) for _, _, c in group],
                                                n))
        stacked = self._stacked(steps, [step for step in coordinate if step[0] not in grouped],
                                raising, len(init))
        if stacked is not None:
            steps, members = stacked
            rows = max(rows, len(members))
            init += [None] * (2 * len(members) + 1)
            values.append((len(init) - 1, np.array([var[c] for _, _, c in members], dtype=np.intp)))
            shifts = series._coordinate_shifts(order, [layout.index(var[c]) for _, _, c in members],
                                               n)
            steps = [(slot, fn or partial(_stacked_step, *shifts), args)
                     for slot, fn, args in steps]
        leaves = (slots, lvars, nterms, ones, group or None)
        return (init, leaves, values, self._sweep(steps), failure,
                (rows, wide) if rows else None)

    def _stacked(self, steps, coordinate, raising, free):
        """``steps`` with the coordinate steps of ``coordinate`` ((slot,
        factor, coordinate) each) that depend on no other one run as one
        stacked step, and those members; None if fewer than two qualify
        or the steps that can raise (``raising``) would change order.

        Each member's factor must come from a step that cannot raise,
        which none of the others shares, and no member or factor may be a
        root.  The factors move to the slots from ``free`` on, the
        products after them, and the slot after those holds the members'
        coordinate values.  The stacked step, ``(products, None,
        (factors, values))``, runs once its factors are there, and each
        step that reads a product waits for it; the others keep their
        order."""
        made = {slot: i for i, (slot, _, _) in enumerate(steps)}
        candidates, factors = [], set()
        for slot, factor, c in coordinate:
            if (factor in made and factor not in raising and factor not in factors
                    and not {slot, factor} & set(self.roots)):
                candidates.append((slot, factor, c))
                factors.add(factor)
        # the candidates each slot depends on, as bits
        bits = {slot: 1 << i for i, (slot, _, _) in enumerate(candidates)}
        below = {}
        for slot, _, args in steps:
            below[slot] = bits.get(slot, 0)
            for a in args:
                below[slot] |= below.get(a, 0)
        members = [step for step in candidates if not below[step[1]]]
        if len(members) < 2:
            return None
        # the steps in their order, the stacked step (``merged``) right
        # after the last factor, and each step before that which reads a
        # product, or a step put off so, put off until after it
        merged, members_at = len(steps), {made[slot] for slot, _, _ in members}
        last = max(made[factor] for _, factor, _ in members)
        waits, order, later = {slot for slot, _, _ in members}, [], []
        for i, (slot, _, args) in enumerate(steps):
            if i in members_at:
                continue
            if i < last and waits.intersection(args):
                waits.add(slot)
                later.append(i)
            else:
                order.append(i)
            if i == last:
                order += [merged] + later
        ranks = [i for i in order if i != merged and steps[i][0] in raising]
        if ranks != sorted(ranks):
            return None
        m = len(members)
        rename = {factor: free + i for i, (_, factor, _) in enumerate(members)}
        rename.update({slot: free + m + i for i, (slot, _, _) in enumerate(members)})
        out = []
        for i in order:
            if i == merged:
                out.append((tuple(range(free + m, free + 2 * m)), None,
                            (tuple(range(free, free + m)), free + 2 * m)))
            else:
                slot, fn, args = steps[i]
                out.append((rename.get(slot, slot), fn, tuple(rename.get(a, a) for a in args)))
        return out, members

    def _sweep(self, steps):
        """The steps ``(slot, fn, args)`` as ``(slot, fn, a, b, dead)``:
        each intermediate is dropped (``dead``) after its last use, so few
        stay alive.  A stacked step's tuples of consecutive slots become
        slices of the values."""
        def each(x):
            return x if isinstance(x, tuple) else (x,)

        def ref(x):
            return slice(x[0], x[-1] + 1) if isinstance(x, tuple) else x

        last = {a: i for i, (_, _, args) in enumerate(steps) for x in args for a in each(x)}
        dead = [[] for _ in steps]
        for a, i in last.items():
            if a not in self.roots:
                dead[i].append(a)
        return [(ref(slot), fn, ref(args[0]), ref(args[1]) if len(args) > 1 else None, tuple(d))
                for (slot, fn, args), d in zip(steps, dead)]

    def built(self, order, ndim, layout):
        """The program at ``order`` for points of batch rank ``ndim`` in
        ``layout``, built on first use."""
        key = (order, ndim, layout)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._build(*key)
        return program

    def run(self, point, order, layout):
        """The series of every root at ``point`` (shape (8,) or (8, B)), in order."""
        program = self.built(order, point.ndim - 1, layout)
        return [TSeries(c, order, layout) for c in self.arrays(point, program)]

    def arrays(self, point, program):
        """The coefficient arrays of every root at ``point`` by a ``program``
        of :meth:`built`; each root owns its array."""
        batch = point.shape[1:]
        init, (slots, lvars, nterms, ones, group), values, steps, failure, wide = program
        # a row of a column is nterms * 8 bytes, point.size is 8 a column
        if wide is not None and nterms * point.size * wide[0] > series.BLOCK_BYTES:
            steps, group = wide[1], None
        vals = list(init)
        if slots:
            c = np.zeros((len(slots), nterms) + batch)
            c[:, 0] = point.take(lvars, axis=0)
            if ones is not None:
                c[ones] = 1.0
            for slot, row in zip(slots, c):
                vals[slot] = row
            if group is not None:
                outs, gvars, dst, src = group
                m = len(outs)
                v0 = c[:m, 0] if gvars is None else point[gvars]
                for slot, row in zip(outs, series._coordinate_rows(c[:m], v0, dst, src)):
                    vals[slot] = row
        for slot, var in values:
            vals[slot] = point[var]
        try:
            for slot, fn, a, b, dead in steps:
                vals[slot] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
                for d in dead:
                    vals[d] = None
        except DomainError as e:
            raise DomainError(str(e), to_source(self.code[slot][2]), columns=e.columns) from None
        if failure is not None:
            raise DomainError(failure[0], to_source(failure[1]))
        out = []
        for i, r in enumerate(self.roots):
            c = vals[r]
            if not self.support[r]:
                c = np.broadcast_to(c, c.shape[:1] + batch).copy()
            elif r in self.roots[:i]:
                c = c.copy()  # every root owns its coefficients
            out.append(c)
        return out


#: the tape of each exact AST structure compiled lately (``_exact``)
_tapes = {}

#: the joined program of each tuple of member tapes lately, by their ids;
#: an entry holds its tapes, so no id in its key is reused while it lives
_joined = {}


def program(*fields):
    """One compiled program over the ScalarFields ``fields``, whose
    :meth:`_Tape.run` gives their series in order; every subexpression
    they share runs once.  It is joined from the fields' own tapes, so no
    expression is walked twice, and the same tapes give the same program
    while :data:`_joined` holds it."""
    tapes = tuple(f._tape for f in fields)
    key = tuple(map(id, tapes))
    hit = _joined.get(key)
    if hit is None:
        hit = series._remember(_joined, key, (tapes, _Tape((), tapes)))
    return hit[1]


def eval_series(field, point, order, layout=ALL):
    """Taylor series of the field at ``point`` (shape (8,) or (8, B)).

    The series is expanded in ``layout``, a sorted tuple of chart
    variables that holds every variable the field uses.  A ScalarField is
    compiled into its series program on first use, and every later call
    and every field of the same structure reuses it (:class:`_Tape`).
    ``field`` may also be any generator with the ScalarField methods
    ``series(point, order, layout)``, ``variables()`` and ``is_zero()``,
    such as :class:`finslerem.em.AnisotropyBlend`.  A Tower that expands F and
    L1 to one order also reads L1's ``parts``, the ScalarFields it is
    made of, and ``combine(series, batch)``, which makes L1's series from
    theirs (``SpaceDef.program``); ``Tower.tiled`` runs L1's ``_tape``,
    the program over its parts.
    """
    if not 0 <= order <= series.MAX_ORDER:
        raise ValueError(f"derivative order must be in 0..{series.MAX_ORDER}, got {order}")
    return field.series(np.asarray(point, dtype=float), order, tuple(layout))


def eval_jet(field, point, order):
    """Exact derivatives of the closed form up to total ``order`` (<= ``MAX_ORDER``).

    The series runs over the field's own variables only; partials by any
    other variable are zero.
    """
    layout = tuple(sorted(field.variables()))
    s = eval_series(field, np.asarray(point, dtype=float), order, layout).lift(ALL)
    t8 = series._terms(series.NVARS)
    partials = {}
    for i in range(1, t8.nterms[order]):
        partials[t8.rows[i]] = float(s.coeffs[i] * t8.fact[i])
    return Jet(value=float(s.coeffs[0]), partials=partials, order=order)


def eval_values(field, points):
    """The field's values at ``points`` (shape (8,) or (8, B)); a point
    where the field fails (a domain error, see :func:`eval_series`) reads
    NaN.

    It runs the field's compiled program at order 0 in the field's own
    variables, dropping the columns that fail (``errors.drop_failing``)."""
    if not isinstance(field, ScalarField):
        raise TypeError(f"eval_values runs a ScalarField's program, not a {type(field).__name__}")
    pts = np.asarray(points, dtype=float)
    batch = pts.reshape(len(pts), -1)
    layout = tuple(sorted(field.variables()))
    out = np.full(batch.shape[1], np.nan)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        values, keep, _ = drop_failing(
            lambda k: field.series(batch[:, k], 0, layout).coeffs[0], batch.shape[1])
    if values is not None:
        out[keep] = values
    return out.reshape(pts.shape[1:])


def eval_value(field, point):
    """Single-point evaluation that raises DomainError on NaN/inf."""
    v = eval_values(field, np.asarray(point, dtype=float))
    if not np.all(np.isfinite(v)):
        raise DomainError("field not finite at point", field.source())
    return float(v) if v.ndim == 0 else v


# ----------------------------------------------------------------------
# homogeneity probe

def check_homogeneity(field, degree, point, scale):
    """|f(x, s*y) - s^degree f(x, y)| at one probe point."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    point = np.asarray(point, dtype=float)
    scaled = point.copy()
    scaled[4:] *= scale
    f0 = eval_value(field, point)
    f1 = eval_value(field, scaled)
    return abs(f1 - scale**degree * f0)


# ----------------------------------------------------------------------
# symbolic helpers (used by gauge shifts and isotropic truncation)

def _num(v):
    return Neg(Num(-v)) if v < 0 else Num(float(v))


def _is_zero(n):
    return isinstance(n, Num) and n.value == 0.0


def _is_one(n):
    return isinstance(n, Num) and n.value == 1.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_zero(a):
        return Num(0.0)
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def diff_ast(node, var):
    """Symbolic partial derivative; no simplification guarantees."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.index == var else Num(0.0)
    if isinstance(node, Neg):
        d = diff_ast(node.arg, var)
        return Num(0.0) if _is_zero(d) else Neg(d)
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da, db = diff_ast(a, var), diff_ast(b, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), BinOp("^", b, Num(2.0)))
        # power
        return _diff_pow(a, b, da, db)
    if isinstance(node, Call):
        if node.func == "pow":
            a, b = node.args
            return _diff_pow(a, b, diff_ast(a, var), diff_ast(b, var))
        u = node.args[0]
        du = diff_ast(u, var)
        if _is_zero(du):
            return Num(0.0)
        if node.func == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", (u,))))
        if node.func == "sin":
            return _mul(Call("cos", (u,)), du)
        if node.func == "cos":
            return Neg(_mul(Call("sin", (u,)), du))
        if node.func == "exp":
            return _mul(Call("exp", (u,)), du)
        if node.func == "log":
            return _div(du, u)
        if node.func == "abs":
            return _mul(_div(u, Call("abs", (u,))), du)
    raise TypeError(f"not an AST node: {node!r}")


def _diff_pow(a, b, da, db):
    if _is_zero(db) and isinstance(b, Num):
        p = b.value
        if _is_zero(da):
            return Num(0.0)
        return _mul(_mul(b, BinOp("^", a, _num(p - 1))), da)
    # general a^b: a^b * (db*log(a) + b*da/a)
    body = _add(_mul(db, Call("log", (a,))), _mul(b, _div(da, a)))
    if _is_zero(body):
        return Num(0.0)
    return _mul(BinOp("^", a, b), body)


def subst_ast(node, values):
    """Replace chart variables by numeric values (dict index -> float)."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        if node.index in values:
            return _num(values[node.index])
        return node
    if isinstance(node, Neg):
        return Neg(subst_ast(node.arg, values))
    if isinstance(node, BinOp):
        return BinOp(node.op, subst_ast(node.left, values), subst_ast(node.right, values))
    if isinstance(node, Call):
        return Call(node.func, tuple(subst_ast(a, values) for a in node.args))
    raise TypeError(f"not an AST node: {node!r}")
