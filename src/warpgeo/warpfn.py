"""Tiny infix expression language for scalar fields on chart coordinates.

Grammar (tightest first): ``^`` with an integer literal exponent, unary
minus, ``*`` ``/``, ``+`` ``-``; parentheses; function application for
``sin`` ``cos`` ``exp`` ``log`` ``sqrt``; variables ``x1 .. xn`` for an
n-dimensional chart, with ``t`` accepted as an alias for ``x1`` when the
chart is one-dimensional.

Nodes are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): building a node returns the live node of equal value
when there is one, so equal trees are one object and compare and hash by
identity.

Evaluation is exact forward-mode differentiation, so no truncation error
enters the derivatives.  On its first evaluation in a given form, a tree is
compiled into one straight-line Python function that propagates the value,
and as asked the gradient and Hessian, through every node; the scalar forms
use ``math`` and the batch forms of :func:`evaluate_many` and
:func:`value_and_gradient_many` use ``numpy``.  Every compiled form sits in
one bounded cache keyed by its tree, so an expression is compiled once per
process, however often it is parsed again.

An expression's domain is written once, as one condition per logarithm,
square root, division and negative power on its operand, which NaN fails
too (``_DEFINED``): a positive argument for ``log`` and ``sqrt``, a
non-zero one for ``/`` and ``^``.  Every compiled form tests these
conditions in the same order, and differs only in what a failed one does:
:func:`domain_failure` returns it, the value forms raise
:class:`~warpgeo.errors.DslEvaluationError` naming the subexpression, and a
loop ends at the state that fails it; :func:`domain_failure` is the batch
domain form on one row.  Where ``math`` overflows and numpy would give an
infinity, a scalar value form raises
:class:`~warpgeo.errors.FloatOverflowError` naming the expression and the
point; so does ``sin`` or ``cos`` of an infinite operand, where ``math``
meets a domain error and numpy gives NaN.  A numeric literal too
large for a float is a syntax error.

Two loop forms compile classical Runge-Kutta steps on Python floats into
one ``for`` loop.  The state is a tuple of floats, one ``(point,
velocity)`` block per chart, and ``args`` binds, in order, the variables
of each exponent past its chart's coordinates.  At each of the four
stages of a step, every block reads the gradient ``s`` of its exponent
``psi`` at the stage's point and computes, at the stage's velocity ``u``,
the spray ``|u|^2 s - 2 (s . u) u`` of the metric ``exp(2 psi) I``.
:func:`rk4_geodesic_loop` steps the geodesic equation of one such metric,
given by its exponent ``psi``; :func:`rk4_coupled_loop` steps the coupled
geodesic system of the warped metric ``exp(2 phi1) I - k exp(2 phi2) I``,
whose stages add the warp's coupling terms to both sprays.  Each loop
tests every state it makes, the last one too, in one place, at the first
stage from it: finite, and inside the domain of each exponent.  No stage
of a loop raises: a float failure inside a step (a division by zero, a
math domain error or an overflow) makes that step's state not finite, and
the loop ends there.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    DslEvaluationError, DslNameError, DslSyntaxError, FloatOverflowError,
)

__all__ = [
    "Expr", "Const", "Var", "Neg", "Call", "Binary", "Power",
    "parse", "format_expression", "evaluate", "evaluate_many",
    "value_and_gradient", "value_and_gradient_many", "eval2",
    "domain_failure", "domain_failure_many", "rk4_geodesic_loop",
    "rk4_coupled_loop",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# entries kept by the cache of compiled forms, least recently used dropped first
_CACHE_SIZE = 256


class _Interned(type):
    """Building a node returns the live node of equal value, if there is one.

    The key is shallow: children by identity, which is safe because a live
    node keeps its children alive, and leaf values by type and ``repr``,
    which keeps ``0.0`` and ``-0.0`` apart, and ``1`` and ``1.0``.  The
    table holds its nodes weakly.
    """

    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        fields = (getattr(node, name) for name in cls.__match_args__)
        key = (cls, *(v if isinstance(v, Expr) else (type(v), repr(v)) for v in fields))
        return _NODES.setdefault(key, node)


_NODES = weakref.WeakValueDictionary()


class Expr(metaclass=_Interned):
    """Base class for expression nodes."""

    def __str__(self) -> str:
        return format_expression(self)

    def __reduce__(self):
        # copies and pickles are built again, and so interned
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, eq=False)
class Var(Expr):
    index: int  # 0-based coordinate index


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Call(Expr):
    name: str
    arg: Expr


@dataclass(frozen=True, eq=False)
class Binary(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Power(Expr):
    base: Expr
    exponent: int


# ---------------------------------------------------------------------------
# scanning and parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', one of '+-*/^()', or 'end'
    text: str
    offset: int


def _scan(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(
                f"unexpected character {text[pos]!r}", offset=pos,
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "op":
            tokens.append(_Token(m.group(), m.group(), m.start()))
        else:
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _scan(text)
        self.pos = 0

    @property
    def head(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, *expected: str) -> _Token:
        if self.head.kind != kind:
            self.fail(*expected)
        return self.advance()

    def fail(self, *expected: str):
        tok = self.head
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise DslSyntaxError(f"unexpected {what}", offset=tok.offset, expected=expected)

    # grammar, loosest binding first
    def sum(self) -> Expr:
        node = self.product()
        while self.head.kind in ("+", "-"):
            op = self.advance().kind
            node = Binary(op, node, self.product())
        return node

    def product(self) -> Expr:
        node = self.unary()
        while self.head.kind in ("*", "/"):
            op = self.advance().kind
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.head.kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.head.kind == "^":
            self.advance()
            node = Power(node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        if self.head.kind == "-":
            self.advance()
            sign = -1
        tok = self.head
        if tok.kind != "num" or not tok.text.isdigit():
            self.fail("integer exponent")
        self.advance()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.head
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise DslSyntaxError(
                    f"numeric literal {tok.text} is too large for a float",
                    offset=tok.offset)
            self.advance()
            return Const(value)
        if tok.kind == "ident":
            self.advance()
            return self.name(tok)
        if tok.kind == "(":
            self.advance()
            node = self.sum()
            self.expect(")", "')'")
            return node
        self.fail("number", "variable", "function", "'('")

    def name(self, tok: _Token) -> Expr:
        if tok.text in FUNCTIONS:
            self.expect("(", "'('")
            arg = self.sum()
            self.expect(")", "')'")
            return Call(tok.text, arg)
        index = self.variable_index(tok)
        return Var(index)

    def variable_index(self, tok: _Token) -> int:
        if tok.text == "t" and self.dim == 1:
            return 0
        m = re.fullmatch(r"x([1-9][0-9]*)", tok.text)
        if m:
            i = int(m.group(1))
            if 1 <= i <= self.dim:
                return i - 1
        raise DslNameError(
            f"unknown identifier {tok.text!r}; variables are x1..x{self.dim}"
            + (" (or t)" if self.dim == 1 else ""),
            offset=tok.offset,
        )


def parse(text: str, dim: int) -> Expr:
    """Parse expression text for a ``dim``-dimensional chart."""
    if dim < 1:
        raise DslSyntaxError("chart dimension must be at least 1", offset=0)
    parser = _Parser(text, dim)
    node = parser.sum()
    if parser.head.kind != "end":
        parser.fail("operator", "end of input")
    return node


# ---------------------------------------------------------------------------
# printing

_LEVEL_SUM, _LEVEL_PROD, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, required: int) -> str:
    if isinstance(e, Const):
        text, level = repr(float(e.value)), _LEVEL_ATOM
        if e.value < 0:  # only from hand-built trees; parser emits Neg
            level = _LEVEL_NEG
    elif isinstance(e, Var):
        text, level = f"x{e.index + 1}", _LEVEL_ATOM
    elif isinstance(e, Call):
        text, level = f"{e.name}({_fmt(e.arg, _LEVEL_SUM)})", _LEVEL_ATOM
    elif isinstance(e, Neg):
        text, level = f"-{_fmt(e.arg, _LEVEL_NEG)}", _LEVEL_NEG
    elif isinstance(e, Power):
        text, level = f"{_fmt(e.base, _LEVEL_ATOM)}^{e.exponent}", _LEVEL_POW
    elif isinstance(e, Binary):
        lvl = _LEVEL_SUM if e.op in "+-" else _LEVEL_PROD
        text = f"{_fmt(e.left, lvl)} {e.op} {_fmt(e.right, lvl + 1)}"
        level = lvl
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if level < required else text


def format_expression(e: Expr) -> str:
    """Render an expression; re-parsing the result gives an equal tree."""
    return _fmt(e, _LEVEL_SUM)


# ---------------------------------------------------------------------------
# evaluation

# Each tree is compiled once per form into straight-line forward-mode code
# (Griewank & Walther, *Evaluating Derivatives*, ch. 3 and 13): one local
# per value, gradient entry and upper-triangle Hessian entry, with entries
# that are structurally zero left out.  Only node kinds, variable indices,
# function names and generated temporaries appear in the source; constants,
# exponents and the subexpressions named by domain errors are bound by name.
# Only what the function returns is computed, and every domain test is kept.
# The compiled functions are cached by tree, form and dimension in one
# bounded cache; interning makes that key equal across parses.

(_VALUE, _GRADIENT, _HESSIAN, _ARRAY, _ARRAY_GRADIENT, _LOOP, _COUPLED_LOOP,
 _ARRAY_DOMAIN) = range(8)
_ONE = "1.0"
_NAME = re.compile(r"[A-Za-z_]\w*")

# derivative of each function in terms of its argument ``u`` and value ``f``
_D1 = {"sin": "cos({u})", "cos": "-sin({u})", "exp": "{f}",
       "log": "1.0 / {u}", "sqrt": "0.5 / {f}"}
_D2 = {"sin": "-{f}", "cos": "-{f}", "exp": "{f}",
       "log": "-1.0 / ({u} * {u})", "sqrt": "-0.25 / {f} ** 3"}

# the domain of an expression: where each checked node kind is defined, as
# one condition on its operand that NaN fails too, and the message of the
# error a value form raises where it fails; the branch point of sqrt is
# left out, so that every expression stays twice differentiable
_DEFINED = {"log": ("{u} > 0.0", "log of non-positive value"),
            "sqrt": ("{u} > 0.0", "square root of non-positive value"),
            "/": ("{u} != 0.0", "division by zero"),
            "^": ("{u} != 0.0", "division by zero")}

# the statement of a value form where a domain condition fails
_RAISE = "raise _error(*{})"

# the name of the lines kept whatever the result reads: the domain tests
_KEEP = "_keep"

# the condition a loop names where a state is not finite
FINITE_STATE = "a finite state"


def _product(*factors):
    """Source of a product, or None when a factor is structurally zero."""
    if any(f is None for f in factors):
        return None
    return " * ".join(f for f in factors if f != _ONE) or _ONE


def _over(src, inv):
    """Source of ``(src) * inv``, or None when ``src`` is structurally zero."""
    if src is None or src == _ONE:
        return _product(src, inv)
    return f"({src}) * {inv}"


def _combine(plus, minus=()):
    """Source of ``sum(plus) - sum(minus)`` over the non-zero terms."""
    plus = [t for t in plus if t is not None]
    minus = [t for t in minus if t is not None]
    if not plus and not minus:
        return None
    src = " + ".join(plus) if plus else "-" + minus.pop(0)
    return "".join([src, *(f" - {t}" for t in minus)])


class _Emitter:
    """Writes one tree as the body of a function of the point ``x``, or
    trees as the body of a loop of steps of the state ``y`` by ``h``, with
    trailing arguments ``args``."""

    def __init__(self, form: int, dim: int):
        self.order = {_ARRAY: 0, _ARRAY_GRADIENT: 1, _LOOP: 1, _COUPLED_LOOP: 1,
                      _ARRAY_DOMAIN: 0}.get(form, form)
        self.array = form in (_ARRAY, _ARRAY_GRADIENT, _ARRAY_DOMAIN)
        self.loop = form in (_LOOP, _COUPLED_LOOP)
        self.dim = dim
        self.arg_offset = 0
        # (name the line assigns or guards, source line); the run-time
        # arguments and the step's fractions of ``h`` are read once, first
        self.lines: list[tuple[str, str]] = []
        self.hoisted: dict[str, str] = {}
        self.bound: dict[str, object] = {}
        self.loaded: dict[int, str] = {}
        # the statement that a failed domain condition runs: returning the
        # condition ``{}`` from a domain form, or from a loop while it tests
        # a state, raising from a value form; None in a loop's stages,
        # which test nothing
        self.verdict = (None if self.loop else "return {}"
                        if form == _ARRAY_DOMAIN else _RAISE)
        if self.loop:
            self.finite = self.bind(FINITE_STATE, "n")

    def let(self, src, checked=None):
        """A name (or literal) holding ``src``; None stays structurally zero.

        ``checked`` is the ``(node, kind, operand)`` whose domain condition
        is tested before ``src`` is computed.
        """
        if src is None or src.isidentifier() or src == _ONE:
            return src
        if checked is not None:
            self.check(*checked)
        return self.put(f"t{len(self.lines)}", src)

    def put(self, name: str, src: str) -> str:
        self.lines.append((name, f"{name} = {src}"))
        return name

    def hoist(self, name: str, src: str) -> str:
        self.hoisted[name] = f"{name} = {src}"
        return name

    def bind(self, obj, prefix: str) -> str:
        name = f"{prefix}{len(self.bound)}"
        self.bound[name] = obj
        return name

    def check(self, e: Expr, kind: str, u: str):
        """Test the condition of ``_DEFINED`` on the operand ``u`` of ``e``
        (on every row of a batch), and run the verdict where it fails, with
        the condition as it reads on the subexpression (``x2 > 0.0``), or,
        where the verdict raises, the message and ``e``."""
        if self.verdict is None:
            return
        defined, message = _DEFINED[kind]
        test = defined.format(u=u)
        if self.array:
            test = f"_all({test})"
        if self.verdict == _RAISE:
            failed = (message, str(e))
        else:
            operand = e.right if isinstance(e, Binary) else (
                e.base if isinstance(e, Power) else e.arg)
            failed = defined.format(u=format_expression(operand))
        name = self.bind(failed, "n")
        self.lines.append((_KEEP, f"if not {test}: {self.verdict.format(name)}"))

    def emit(self, e: Expr):
        """``(value, gradient entries, non-zero Hessian entries by (i, j))``."""
        if isinstance(e, Const):
            return self.bind(e.value, "c"), [None] * self.dim, {}
        if isinstance(e, Var):
            if e.index not in self.loaded:
                i = operator.index(e.index)
                # a loop's point is loaded per stage; later variables are
                # its trailing arguments, read once
                if self.loop:
                    j = self.arg_offset + i - self.dim
                    self.loaded[e.index] = self.hoist(f"p{j}", f"args[{j}]")
                else:
                    self.loaded[e.index] = self.let(f"x[{i}]")
            g = [None] * self.dim
            if self.order and e.index < self.dim:
                g[e.index] = _ONE
            return self.loaded[e.index], g, {}
        if isinstance(e, Neg):
            v, g, H = self.emit(e.arg)
            return (self.let(f"-{v}"), [self.let(_combine((), [p])) for p in g],
                    {ij: self.let(f"-{h}") for ij, h in H.items()})
        if isinstance(e, Binary) and e.op in ("+", "-", "*", "/"):
            return self.binary(e)
        if isinstance(e, Power):
            return self.chain(e, "^", self.emit(e.base))
        if isinstance(e, Call) and e.name in FUNCTIONS:
            return self.chain(e, e.name, self.emit(e.arg))
        raise TypeError(f"not an expression node: {e!r}")

    def hessian(self, entry) -> dict:
        """Upper-triangle entries ``entry(i, j)``, structural zeros dropped."""
        if self.order < 2:
            return {}
        H = {(i, j): self.let(entry(i, j))
             for i in range(self.dim) for j in range(i, self.dim)}
        return {ij: h for ij, h in H.items() if h is not None}

    def binary(self, e: Binary):
        a, ag, aH = self.emit(e.left)
        b, bg, bH = self.emit(e.right)
        if e.op in ("+", "-"):
            def join(p, q):
                return _combine([p, q]) if e.op == "+" else _combine([p], [q])
            return (self.let(f"{a} {e.op} {b}"),
                    [self.let(join(p, q)) for p, q in zip(ag, bg)],
                    self.hessian(lambda i, j: join(aH.get((i, j)), bH.get((i, j)))))
        if e.op == "*":
            return (self.let(f"{a} * {b}"),
                    [self.let(_combine([_product(p, b), _product(a, q)]))
                     for p, q in zip(ag, bg)],
                    self.hessian(lambda i, j: _combine([
                        _product(a, bH.get((i, j))), _product(b, aH.get((i, j))),
                        _product(ag[i], bg[j]), _product(ag[j], bg[i])])))
        if self.order == 0:
            return self.let(f"{a} / {b}", (e, "/", b)), ag, {}
        inv = self.let(f"1.0 / {b}", (e, "/", b))
        v = self.let(f"{a} * {inv}")
        g = [self.let(_over(_combine([p], [_product(v, q)]), inv))
             for p, q in zip(ag, bg)]
        return v, g, self.hessian(lambda i, j: _over(_combine([aH.get((i, j))], [
            _product(v, bH.get((i, j))), _product(g[i], bg[j]),
            _product(bg[i], g[j])]), inv))

    def chain(self, e: Expr, kind: str, arg):
        """``f(u)`` for a function or an integer power, by the chain rule."""
        u, ug, uH = arg
        d1 = d2 = None
        if kind == "^":
            m = e.exponent
            v = self.let(f"{u} ** {self.bind(m, 'm')}",
                         (e, kind, u) if m < 0 else None)
            if self.order and m != 0:
                d1 = self.let(f"{self.bind(m, 'm')} * {u} ** {self.bind(m - 1, 'm')}")
            if self.order > 1 and m not in (0, 1):
                d2 = self.let(f"{self.bind(m * (m - 1), 'm')} * {u} ** "
                              f"{self.bind(m - 2, 'm')}")
        else:
            v = self.let(f"{kind}({u})", (e, kind, u) if kind in _DEFINED else None)
            if self.order:
                d1 = self.let(_D1[kind].format(u=u, f=v))
            if self.order > 1:
                d2 = self.let(_D2[kind].format(u=u, f=v))
        return v, [self.let(_product(d1, p)) for p in ug], self.hessian(
            lambda i, j: _combine([_product(d1, uH.get((i, j))),
                                   _product(d2, ug[i], ug[j])]))

    def result(self, e: Expr) -> str:
        v, g, H = self.emit(e)
        grad = ", ".join(p or "0.0" for p in g)
        if self.array and self.order:
            return f"_rows(x[0], {v}, ({grad},))"
        if self.array:
            # an expression of no variable still gives one value per row
            return v if self.loaded else f"_full(x[0].shape, {v})"
        if self.order == 0:
            return v
        if self.order == 1:
            return f"{v}, _array(({grad},))"
        rows = ", ".join(
            "({},)".format(", ".join(H.get((min(i, j), max(i, j)), "0.0")
                                     for j in range(self.dim)))
            for i in range(self.dim))
        return f"{v}, _array(({grad},)), _array(({rows},))"

    def rk4(self, n: int, rates) -> str:
        """One classical RK4 step of the state ``q0 .. q{n-1}``, in the
        order of ``_rk4`` in :mod:`warpgeo.integrate`; ``rates(s, z)`` names
        the derivatives of the state at the stage-``s`` state ``z``."""
        q = [f"q{i}" for i in range(n)]
        self.hoist("hh", "0.5 * h")
        self.hoist("h6", "h / 6.0")
        ks = []  # the derivatives of each stage
        z = q
        for s, c in enumerate((None, "hh", "hh", "h")):
            if c is not None:
                z = [self.put(f"z{s}_{i}", f"{q[i]} + {c} * {ks[-1][i]}")
                     for i in range(n)]
            ks.append(rates(s, z))
        return ", ".join(
            self.put(f"y{i}", f"{q[i]} + h6 * ({k1} + 2.0 * ({k2} + {k3}) + {k4})")
            for i, (k1, k2, k3, k4) in enumerate(zip(*ks)))

    def gradient_at(self, e: Expr, dim: int, loaded: dict, point, offset=0):
        """``(value, gradient entries)`` of ``e`` at the names ``point``, its
        variables past ``dim`` read from ``args`` from ``offset`` on; a zero
        entry stays in as ``0.0``, so an infinite speed still makes the
        state NaN."""
        self.dim, self.loaded, self.arg_offset = dim, loaded, offset
        loaded.update(enumerate(point))
        v, g, _ = self.emit(e)
        return v, [p or "0.0" for p in g]

    def dot(self, name: str, a, b) -> str:
        return self.put(name, " + ".join(f"{p} * {q}" for p, q in zip(a, b)))

    def geodesic_step(self, e: Expr, d: int) -> str:
        """The acceleration of ``exp(2 psi) I``, ``|u|^2 grad psi - 2 (grad
        psi . u) u``, at each stage."""
        loaded = {}

        def rates(s, z):
            x, u = z[:d], z[d:]
            self.test_state(s, 0, z)
            g = self.gradient_at(e, d, loaded, x)[1]
            self.end_tests(s)
            uu, gu = self.dot(f"uu{s}", u, u), self.dot(f"gu{s}", g, u)
            return [*u, *(self.put(f"a{s}_{i}", f"{uu} * {g[i]} - 2.0 * {gu} * {u[i]}")
                          for i in range(d))]

        return self.rk4(2 * d, rates)

    def coupled_step(self, phi1: Expr, k: Expr, phi2: Expr,
                     d1: int, d2: int, n1: int) -> str:
        """The coupled system of ``exp(2 phi1) I - k exp(2 phi2) I`` at each
        stage, from the state ``(x, u, y, v)``:

            base:  -G1(u, u) - 1/2 exp(2 phi2) |v|^2 exp(-2 phi1) dk
            fiber: -G2(v, v) - (dk . u / k) v

        with ``-G(u, u) = |u|^2 s - 2 (s . u) u`` the contraction of the
        conformally flat symbols ``G^a_ij = d^a_i s_j + d^a_j s_i - d_ij
        s^a``, ``s`` the exponent's gradient.  ``phi1`` reads ``args`` up to
        ``n1``, ``phi2`` from there on."""
        base, fiber = {}, {}

        def rates(s, z):
            x, u = z[:d1], z[d1:2 * d1]
            y, v = z[2 * d1:2 * d1 + d2], z[2 * d1 + d2:]
            self.test_state(s, 0, z[:2 * d1])
            p1, s1 = self.gradient_at(phi1, d1, base, x)
            self.test_state(s, 1, z[2 * d1:])
            p2, s2 = self.gradient_at(phi2, d2, fiber, y, n1)
            self.end_tests(s)
            kv, dk = self.gradient_at(k, d1, base, x)
            uu, su = self.dot(f"uu{s}", u, u), self.dot(f"su{s}", s1, u)
            vv, sv = self.dot(f"vv{s}", v, v), self.dot(f"sv{s}", s2, v)
            du = self.dot(f"du{s}", dk, u)
            lift = self.put(f"w{s}", f"0.5 * (exp(2.0 * {p2}) * {vv})")
            down = self.put(f"e{s}", f"exp(-2.0 * {p1})")
            rate = self.put(f"r{s}", f"{du} / {kv}")
            return [
                *u,
                *(self.put(f"a{s}_{i}", f"{uu} * {s1[i]} - 2.0 * {su} * {u[i]}"
                                        f" - {lift} * ({down} * {dk[i]})")
                  for i in range(d1)),
                *v,
                *(self.put(f"b{s}_{i}", f"{vv} * {s2[i]} - 2.0 * {sv} * {v[i]}"
                                        f" - {rate} * {v[i]}")
                  for i in range(d2)),
            ]

        return self.rk4(2 * (d1 + d2), rates)

    def test_state(self, s: int, block: int, names):
        """At the first stage ``s`` of a step, test the state block
        ``names`` finite, and let the domain checks emitted next end the
        loop at a failed condition, naming ``block``."""
        if s:
            return
        self.verdict = f"return out, ({block}, {{}})"
        self.lines.append((_KEEP, f"if not {_zeros(names)} == 0.0: "
                                  f"{self.verdict.format(self.finite)}"))

    def end_tests(self, s: int):
        """After the state tests of stage ``s``: the last state, which
        takes no step, ends the loop there, and what follows tests
        nothing."""
        if not s:
            self.lines.append((_KEEP, "if i == steps: return out, None"))
        self.verdict = None

    def body(self, result: str) -> tuple[list[str], list[str]]:
        """The lines ``result`` needs, read backwards from it, as the
        hoisted ones and the rest; every domain test is kept."""
        live = {*_NAME.findall(result), _KEEP}
        kept = []
        for name, line in reversed(self.lines):
            if name in live:
                kept.append(line)
                live.update(_NAME.findall(line))
        return [line for name, line in self.hoisted.items() if name in live], kept[::-1]

    def source(self, body, head: str = "x") -> str:
        params = ", ".join([*self.bound, "_error", "_array", "_all", "_full",
                            "_rows", "_nan", *FUNCTIONS])
        lines = "".join(f"        {line}\n" for line in body)
        return f"def _build({params}):\n    def _f({head}):\n{lines}    return _f\n"

    def function_source(self, e: Expr) -> str:
        """Source of the value form of ``e``, or of its domain test, which
        returns the first condition that fails, or None."""
        if self.verdict == _RAISE:
            result = self.result(e)
        else:
            self.emit(e)
            result = "None"
        return self.source([*sum(self.body(result), []), f"return {result}"])

    def loop_source(self, result: str, n: int) -> str:
        """Source of ``loop(y, h, args, steps)``: ``steps`` steps from the
        state ``y`` of ``n`` floats, each state tested at the first stage
        from it, the last one too.  A float failure makes the state of its
        step NaN, or, at the last state, that state."""
        state = ", ".join(f"q{i}" for i in range(n))
        hoisted, steps = self.body(result)
        return self.source([
            f"{state}, = y", *hoisted, f"out = [{state}]", "try:",
            "    for i in range(steps + 1):",
            *(f"        {line}" for line in steps),
            f"        {state} = {result}",
            f"        out += ({state},)",
            "except (ZeroDivisionError, ValueError, OverflowError):",
            f"    out[{n} * min(i + 1, steps):] = ({'_nan, ' * n})",
            f"    return out, (0, {self.finite})"], "y, h, args, steps")


def _zeros(names) -> str:
    """Source of a sum that is zero if every name holds a finite float,
    and NaN otherwise."""
    return " + ".join(f"{q} * 0.0" for q in names)


def _rows(points, value, gradient):
    """A batch value and its gradient, ``(N,)`` and ``(N, d)``, with each
    entry broadcast to the ``N`` points."""
    shape = np.shape(points)
    rows = np.empty(shape + (len(gradient),))
    for i, g in enumerate(gradient):
        rows[..., i] = g
    return np.full(shape, value), rows


def _function(emitter: _Emitter, source: str):
    """The function ``source`` defines, with the emitter's bindings."""
    namespace: dict = {}
    exec(compile(source, "<warpfn>", "exec"), namespace)
    functions = np if emitter.array else math
    return namespace["_build"](
        **emitter.bound, _error=DslEvaluationError, _array=np.array, _all=np.all,
        _full=np.full, _rows=_rows, _nan=math.nan,
        **{name: getattr(functions, name) for name in FUNCTIONS})


def _source(e, form: int, dim):
    """The emitter and the source of the function for ``form`` on
    ``dim``-point arguments.

    The coupled loop reads three trees, ``e = (phi1, k, phi2)``, on
    ``dim = (d1, d2, n1)``."""
    if form == _COUPLED_LOOP:
        (phi1, k, phi2), (d1, d2, n1) = e, dim
        emitter = _Emitter(form, d1)
        return emitter, emitter.loop_source(
            emitter.coupled_step(phi1, k, phi2, d1, d2, n1), 2 * (d1 + d2))
    emitter = _Emitter(form, dim)
    if form == _LOOP:
        return emitter, emitter.loop_source(emitter.geodesic_step(e, dim), 2 * dim)
    return emitter, emitter.function_source(e)


@lru_cache(maxsize=_CACHE_SIZE)
def _compiled(e, form: int, dim):
    """The function for ``form`` on ``dim``-point arguments, compiled once."""
    return _function(*_source(e, form, dim))


def _scalar(e: Expr, form: int, x: list):
    """The scalar value form ``form`` of ``e`` at the point ``x``; an
    overflow in ``math``, or ``sin`` or ``cos`` of an infinite operand (a
    math domain error, where an overflow has made the infinity), raises
    :class:`~warpgeo.errors.FloatOverflowError` naming the expression and
    the point."""
    try:
        return _compiled(e, form, len(x))(x)
    except DslEvaluationError:
        raise
    except (OverflowError, ValueError) as exc:
        raise FloatOverflowError(
            f"{format_expression(e)!r} overflows a float at {x}: {exc}") from None


def evaluate(e: Expr, point) -> float:
    """Value of the expression at a point (sequence of coordinates)."""
    return _scalar(e, _VALUE, np.asarray(point, dtype=float).tolist())


def evaluate_many(e: Expr, points) -> np.ndarray:
    """Values at many points at once; ``points`` has one row per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _compiled(e, _ARRAY, pts.shape[1])(tuple(pts.T))


def value_and_gradient(e: Expr, point) -> tuple[float, np.ndarray]:
    """Value and gradient at a point, both exact to roundoff."""
    return _scalar(e, _GRADIENT, np.asarray(point, dtype=float).tolist())


def value_and_gradient_many(e: Expr, points, args=()) -> tuple[np.ndarray, np.ndarray]:
    """Values ``(N,)`` and gradients ``(N, d)`` at ``N`` points at once.

    ``points`` has one row per point; ``args`` binds the variables past
    its ``d`` columns, which the gradient leaves out.  Each entry rounds
    as :func:`value_and_gradient` does, up to numpy's elementary functions
    against ``math``'s.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _compiled(e, _ARRAY_GRADIENT, pts.shape[1])((*pts.T, *args))


def domain_failure(e: Expr, point, args=()) -> Optional[str]:
    """The first condition of the expression's domain that fails at a
    point, or None inside it.

    The domain is where every logarithm and square root of the tree has a
    positive argument and every division and negative power a non-zero
    one; NaN fails the first two.  ``args`` binds the variables past the
    point's coordinates.  A condition reads as its subexpression's test,
    ``x2 > 0.0`` say.  These are the only domain conditions: every value
    form raises :class:`~warpgeo.errors.DslEvaluationError` exactly where
    one fails, and a loop ends at a state where one fails.  The answer is
    that of :func:`domain_failure_many` on the one row, with numpy's float
    warnings silenced: an overflow in an operand is an infinity there.
    """
    with np.errstate(all="ignore"):
        return domain_failure_many(e, [point], args)


def domain_failure_many(e: Expr, points, args=()) -> Optional[str]:
    """The first condition of the expression's domain that fails at some
    row of ``points``, or None when every row is inside it: the conditions
    of :func:`domain_failure`, each tested on all rows at once."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _compiled(e, _ARRAY_DOMAIN, pts.shape[1])((*pts.T, *args))


def eval2(e: Expr, point) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of the expression at a point.

    The Hessian is assembled from its upper triangle, so it is exactly
    symmetric.
    """
    return _scalar(e, _HESSIAN, np.asarray(point, dtype=float).tolist())


def rk4_geodesic_loop(e: Expr, dim: int):
    """Classical RK4 steps for geodesics of ``exp(2 e) I`` in one loop,
    compiled once.

    ``e`` is the conformal exponent of a metric on ``dim`` coordinates; its
    variables past the first ``dim`` are run-time arguments.  Returns
    ``loop(y, h, args, steps)``, which takes ``steps`` steps of ``h`` from
    the state ``y = (*point, *velocity)``, with ``args`` bound to those
    variables, all as tuples of floats.  Each stage computes the gradient
    ``s`` of ``e`` at its point and the acceleration ``|u|^2 s - 2 (s . u)
    u`` at its velocity ``u``.  The loop returns ``(states, failed)``: the
    flat list of the states it made, ``y`` first, and ``None``, or, where a
    state fails, ``(0, condition)`` with that state last in the list.  A
    state fails where an entry is not finite (``condition`` is
    :data:`FINITE_STATE`) or where a condition of :func:`domain_failure`
    fails at its point, the one domain rule of every compiled form.  Every
    state, the last one too, is tested the same way: at the first stage
    from it, where the gradient computes the conditions' operands anyway;
    the last state then ends the loop.  No stage raises: a step that
    divides by zero, meets a math domain error (a logarithm or square root
    off its domain, ``sin`` of an infinite coordinate) or overflows makes a
    state of NaN, which fails.  The last state's first-stage gradient is
    computed too, so a float failure there makes that state NaN, and the
    loop ends with :data:`FINITE_STATE` at it.
    """
    return _compiled(e, _LOOP, dim)


def rk4_coupled_loop(phi1: Expr, d1: int, k: Expr, phi2: Expr, d2: int,
                     n1: int = 0):
    """Classical RK4 steps of the coupled geodesic system of the warped
    metric ``exp(2 phi1) I - k exp(2 phi2) I`` in one loop, compiled once
    per triple.

    ``phi1`` and the warp ``k`` are expressions on the ``d1`` base
    coordinates, ``phi2`` on the ``d2`` fiber coordinates.  The state is
    ``(*x, *u, *y, *v)``; ``args`` holds ``phi1``'s run-time arguments (the
    first ``n1``) and then ``phi2``'s.  From the gradients ``s1`` of
    ``phi1`` and ``s2`` of ``phi2``, and the warp's value ``k`` and
    gradient ``dk``, each stage computes the accelerations

        base:  |u|^2 s1 - 2 (s1 . u) u - 1/2 exp(2 phi2) |v|^2 exp(-2 phi1) dk
        fiber: |v|^2 s2 - 2 (s2 . v) v - (dk . u / k) v

    reading ``phi1`` and ``phi2`` themselves.  Returns ``loop(y, h, args,
    steps)``, which runs as the loop of :func:`rk4_geodesic_loop` over the
    base block ``(x, u)`` and the fiber block ``(y, v)``: each state is
    tested finite and inside the domains of ``phi1`` and ``phi2`` in that
    order, and ``failed`` is ``(block, condition)`` with ``block`` 0 for the
    base and 1 for the fiber.  As there, no stage raises: a float failure
    anywhere in a step, in the warp too, makes that step's state a NaN
    state of block 0.
    """
    return _compiled((phi1, k, phi2), _COUPLED_LOOP, (d1, d2, n1))
