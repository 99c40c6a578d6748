"""Parser, printer, and derivative checks for the warp-function language."""

import copy
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from warpgeo import warpfn
from warpgeo.errors import (
    DslEvaluationError, DslNameError, DslSyntaxError, FloatOverflowError,
    NumericalError,
)
from warpgeo.manifold import MetricChart

FD_STEP = 1e-5


def _fd_gradient(expr, point, h=FD_STEP):
    grad = np.empty(point.size)
    for axis in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[axis] += h
        lo[axis] -= h
        grad[axis] = (warpfn.evaluate(expr, hi) - warpfn.evaluate(expr, lo)) / (2 * h)
    return grad


def _fd_hessian(expr, point, h=FD_STEP):
    n = point.size
    hess = np.empty((n, n))
    for axis in range(n):
        hi = point.copy()
        lo = point.copy()
        hi[axis] += h
        lo[axis] -= h
        _, ghi = warpfn.value_and_gradient(expr, hi)
        _, glo = warpfn.value_and_gradient(expr, lo)
        hess[:, axis] = (ghi - glo) / (2 * h)
    return hess


def _rel(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# frozen evaluations


def test_shifted_sine_at_zero():
    expr = warpfn.parse("2 + sin(t)", 1)
    value, grad, hess = warpfn.eval2(expr, np.array([0.0]))
    assert value == 2.0
    np.testing.assert_allclose(grad, [1.0], atol=1e-15)
    np.testing.assert_allclose(hess, [[0.0]], atol=1e-15)


def test_shifted_sine_at_quarter_turn():
    expr = warpfn.parse("2 + sin(t)", 1)
    value, grad, hess = warpfn.eval2(expr, np.array([math.pi / 2]))
    assert value == pytest.approx(3.0, abs=1e-15)
    np.testing.assert_allclose(grad, [0.0], atol=1e-15)
    np.testing.assert_allclose(hess, [[-1.0]], atol=1e-15)


def test_bilinear_product():
    expr = warpfn.parse("x1*x2", 2)
    value, grad, hess = warpfn.eval2(expr, np.array([3.0, 5.0]))
    assert value == 15.0
    assert np.array_equal(grad, [5.0, 3.0])
    assert np.array_equal(hess, [[0.0, 1.0], [1.0, 0.0]])


def test_negative_integer_exponent():
    expr = warpfn.parse("x1^-2", 1)
    value, grad, hess = warpfn.eval2(expr, np.array([2.0]))
    assert value == 0.25
    np.testing.assert_allclose(grad, [-0.25], rtol=1e-15)
    np.testing.assert_allclose(hess, [[0.375]], rtol=1e-15)


def test_time_alias_matches_first_coordinate():
    by_alias = warpfn.parse("1 + t^2", 1)
    by_name = warpfn.parse("1 + x1^2", 1)
    for x in (-1.5, 0.0, 0.25, 3.0):
        p = np.array([x])
        assert warpfn.evaluate(by_alias, p) == warpfn.evaluate(by_name, p)


def test_precedence():
    # Unary minus binds looser than the power; products pick up a signed factor.
    assert warpfn.evaluate(warpfn.parse("-x1^2", 1), np.array([3.0])) == -9.0
    assert warpfn.evaluate(warpfn.parse("2 - -3", 1), np.array([0.0])) == 5.0
    assert warpfn.evaluate(warpfn.parse("2*-3", 1), np.array([0.0])) == -6.0
    assert warpfn.evaluate(warpfn.parse("2 + 3*4", 1), np.array([0.0])) == 14.0
    assert warpfn.evaluate(warpfn.parse("8/4/2", 1), np.array([0.0])) == 1.0


# ---------------------------------------------------------------------------
# printing


def test_print_parse_is_a_fixed_point_on_hand_cases():
    texts = [
        "2 + sin(x1)",
        "x1*x2",
        "1 - (x1 - 2)",
        "(x1 + x2)^3",
        "sqrt(0.5 + x1^2)/cos(x2)",
        "-(x1/x2)",
        "exp(-(x1)) + log(1.5 + x2^2)",
        "2^-3 * x1",
    ]
    for text in texts:
        expr = warpfn.parse(text, 2)
        printed = warpfn.format_expression(expr)
        again = warpfn.format_expression(warpfn.parse(printed, 2))
        assert printed == again
        # The printed form must mean the same thing as the original.
        p = np.array([0.7, -1.3])
        assert warpfn.evaluate(warpfn.parse(printed, 2), p) == pytest.approx(
            warpfn.evaluate(expr, p), rel=1e-15, abs=1e-15
        )


def test_print_parse_is_a_fixed_point_on_random_corpus(dsl_cases):
    for expr, _ in dsl_cases[:200]:
        printed = warpfn.format_expression(expr)
        assert warpfn.format_expression(warpfn.parse(printed, 3)) == printed


def test_str_delegates_to_formatter():
    expr = warpfn.parse("1 + x1 * x2", 2)
    assert str(expr) == warpfn.format_expression(expr)


# ---------------------------------------------------------------------------
# interning and the compile cache


def test_equal_text_parses_to_one_tree():
    text = "exp(-(x1)) + log(1.5 + x2^2)"
    tree = warpfn.parse(text, 2)
    assert warpfn.parse(text, 2) is tree
    assert tree.left is warpfn.parse("exp(-x1)", 2)
    assert copy.deepcopy(tree) is tree


def test_leaves_are_told_apart_by_type_and_sign():
    assert warpfn.Const(0.0) is not warpfn.Const(-0.0)
    assert warpfn.Const(1) is not warpfn.Const(1.0)
    assert warpfn.Const(1.0) is warpfn.Const(1.0)
    assert warpfn.Var(0) is not warpfn.Var(1)


def test_a_dropped_tree_leaves_the_intern_table():
    tree = warpfn.parse("x1 * 8191.25 + x2", 2)
    dropped = weakref.ref(tree)
    del tree
    gc.collect()
    assert dropped() is None
    assert all(getattr(node, "value", None) != 8191.25
               for node in list(warpfn._NODES.values()))


def test_the_compile_cache_stays_at_its_bound():
    for c in range(warpfn._CACHE_SIZE + 8):
        warpfn.evaluate(warpfn.Binary("+", warpfn.Var(0), warpfn.Const(c + 0.5)), [1.0])
    assert warpfn._compiled.cache_info().currsize == warpfn._CACHE_SIZE


# ---------------------------------------------------------------------------
# derivatives against finite differences


def test_gradients_match_finite_differences(dsl_cases):
    worst = 0.0
    for expr, point in dsl_cases:
        _, grad = warpfn.value_and_gradient(expr, point)
        worst = max(worst, _rel(grad, _fd_gradient(expr, point)))
    assert worst <= 1e-6


def test_hessians_match_differenced_gradients(dsl_cases):
    worst = 0.0
    for expr, point in dsl_cases:
        _, _, hess = warpfn.eval2(expr, point)
        worst = max(worst, _rel(hess, _fd_hessian(expr, point)))
    assert worst <= 1e-6


def test_hessian_is_exactly_symmetric(dsl_cases):
    for expr, point in dsl_cases:
        _, _, hess = warpfn.eval2(expr, point)
        assert np.array_equal(hess, hess.T)


def test_value_and_gradient_agrees_with_full_evaluation(dsl_cases):
    for expr, point in dsl_cases[:100]:
        value, grad = warpfn.value_and_gradient(expr, point)
        value2, grad2, _ = warpfn.eval2(expr, point)
        assert value == value2
        np.testing.assert_allclose(grad, grad2, rtol=1e-13, atol=1e-13)


def test_evaluate_many_matches_scalar_loop(dsl_cases):
    for expr, point in dsl_cases[:60]:
        rows = [point]
        for delta in (1e-4, -1e-4):
            shifted = point + delta
            try:
                warpfn.evaluate(expr, shifted)
            except DslEvaluationError:
                continue
            rows.append(shifted)
        batch = np.array(rows)
        got = warpfn.evaluate_many(expr, batch)
        want = np.array([warpfn.evaluate(expr, row) for row in rows])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# rejection: syntax


MALFORMED = [
    ("2 + sin(", 1, 8),
    ("2 +", 1, 3),
    ("(1 + 2", 1, 6),
    ("1 + * 2", 1, 4),
    ("x3", 2, 0),
    ("t", 2, 0),
    ("foo(1)", 1, 0),
    ("sin 1", 1, 4),
    ("sin(x1", 1, 6),
    ("1 ^ x1", 1, 4),
    ("2^1.5", 1, 2),
    ("2 ** 3", 1, 3),
    ("1 + $", 1, 4),
    (")", 1, 0),
    ("1 2", 1, 2),
    ("", 1, 0),
    ("x0", 2, 0),
    ("sin()", 1, 4),
    ("1 / / 2", 1, 4),
    ("--", 1, 2),
]


@pytest.mark.parametrize("text,dim,offset", MALFORMED)
def test_malformed_input_reports_exact_offset(text, dim, offset):
    with pytest.raises(DslSyntaxError) as err:
        warpfn.parse(text, dim)
    assert err.value.offset == offset
    assert f"offset {offset}" in str(err.value)


def test_a_literal_too_large_for_a_float_is_a_syntax_error():
    for text, offset in (("1e400", 0), ("2 + 1e400", 4), ("x1 * 1" + "0" * 400, 5)):
        with pytest.raises(DslSyntaxError, match="(1e400|10{400}) is too large") as err:
            warpfn.parse(text, 1)
        assert err.value.offset == offset
    # a literal that only underflows is the float it rounds to
    assert warpfn.parse("1e-400", 1) == warpfn.Const(0.0)


def test_unknown_identifiers_raise_the_name_error_subclass():
    for text, dim in [("x3", 2), ("t", 2), ("foo(1)", 1), ("x0", 2)]:
        with pytest.raises(DslNameError):
            warpfn.parse(text, dim)
    # Plain syntax damage is not a name problem.
    with pytest.raises(DslSyntaxError) as err:
        warpfn.parse("2 +", 1)
    assert not isinstance(err.value, DslNameError)


# ---------------------------------------------------------------------------
# rejection: evaluation domain


def test_division_by_zero_is_reported():
    expr = warpfn.parse("1/x1", 1)
    with pytest.raises(DslEvaluationError, match="division by zero"):
        warpfn.evaluate(expr, np.array([0.0]))


def test_log_of_non_positive_value_is_reported():
    expr = warpfn.parse("log(x1)", 1)
    for x in (0.0, -2.0):
        with pytest.raises(DslEvaluationError, match="log of non-positive"):
            warpfn.evaluate(expr, np.array([x]))


def test_sqrt_domain_rules():
    expr = warpfn.parse("sqrt(x1)", 1)
    # The field must stay twice differentiable, so the branch point itself
    # is rejected as well, by the one condition x1 > 0.
    for x in (-1.0, 0.0, math.nan):
        with pytest.raises(DslEvaluationError, match="square root of non-positive"):
            warpfn.evaluate(expr, np.array([x]))
        assert warpfn.domain_failure(expr, [x]) == "x1 > 0.0"
    assert warpfn.evaluate(expr, np.array([4.0])) == 2.0


def test_domain_error_names_the_offending_subexpression():
    expr = warpfn.parse("1 + 2/(x1 - 1)", 1)
    with pytest.raises(DslEvaluationError) as err:
        warpfn.evaluate(expr, np.array([1.0]))
    assert "x1 - 1" in str(err.value)


# The same domain rules hold for every way of evaluating an expression;
# ``evaluate_many`` is handed a batch in which only the last row offends.
ENTRY_POINTS = {
    "evaluate": warpfn.evaluate,
    "value_and_gradient": warpfn.value_and_gradient,
    "eval2": warpfn.eval2,
    "evaluate_many": lambda expr, p: warpfn.evaluate_many(expr, [p + 3.0, p]),
}

DOMAIN_CASES = {
    "division": ("1 + 2/(x1 - 1)", 1.0, "division by zero", "2.0 / (x1 - 1.0)"),
    "log-zero": ("log(x1)", 0.0, "log of non-positive value", "log(x1)"),
    "log-negative": ("log(x1)", -2.0, "log of non-positive value", "log(x1)"),
    "sqrt-negative": ("sqrt(x1)", -1.0, "square root of non-positive value",
                      "sqrt(x1)"),
    "sqrt-zero": ("sqrt(x1)", 0.0, "square root of non-positive value", "sqrt(x1)"),
    "negative-power": ("3 + x1^-2", 0.0, "division by zero", "x1^-2"),
    "nested": ("exp(x1) * log(x1 - 2)", 2.0, "log of non-positive value",
               "log(x1 - 2.0)"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("text,x,message,subexpression", DOMAIN_CASES.values(),
                         ids=DOMAIN_CASES)
def test_domain_errors_at_every_entry_point(entry, text, x, message, subexpression):
    expr = warpfn.parse(text, 1)
    with pytest.raises(DslEvaluationError) as err:
        ENTRY_POINTS[entry](expr, np.array([x]))
    assert err.value.subexpression == subexpression
    assert str(err.value) == f"{message} in {subexpression!r}"


# Every value form, a one-row batch too, against the one domain rule.
VALUE_FORMS = {**ENTRY_POINTS,
               "evaluate_many": lambda expr, p: warpfn.evaluate_many(expr, [p])}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.integers(0, 999),
       coordinates=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
       nan_at=st.none() | st.integers(0, 2))
# case 256 of the corpus is exp(1.304 / x1) + (2.102 / x1)^3, which
# overflows near x1 = 0 with no domain condition failing
@example(case=256, coordinates=[1.9021792165826207e-87, 0.0, 0.0], nan_at=None)
def test_every_value_form_raises_exactly_where_a_domain_condition_fails(dsl_cases,
                                                                        case,
                                                                        coordinates,
                                                                        nan_at):
    # the conftest's random expressions at points in [-4, 4], some with a
    # NaN coordinate, which fails every log and sqrt it reaches
    expr, point = dsl_cases[case]
    p = np.array(coordinates[:point.size])
    if nan_at is not None:
        p[nan_at % p.size] = math.nan
    with np.errstate(all="ignore"):
        failed = warpfn.domain_failure(expr, p)
        for name, form in VALUE_FORMS.items():
            try:
                form(expr, p)
            except DslEvaluationError:
                assert failed is not None, (name, expr, p)
            except FloatOverflowError:
                # an overflow is no domain failure: a scalar value form
                # raises where the batch form's value is not finite
                assert failed is None, (name, expr, p, failed)
                assert not np.isfinite(warpfn.evaluate_many(expr, [p])[0]), (name, expr, p)
            else:
                assert failed is None, (name, expr, p, failed)


def test_a_float_failure_in_a_scalar_form_is_a_typed_error():
    # math.exp(1000) overflows where numpy's gives inf: the domain form
    # answers as the batch form does on that row, and each value form
    # raises a NumericalError naming the expression and the point
    for text, failed in (("log(exp(x1))", None),
                         ("log(x1 - exp(x1))", "x1 - exp(x1) > 0.0")):
        expr = warpfn.parse(text, 1)
        with np.errstate(all="ignore"):
            assert warpfn.domain_failure_many(expr, [[1000.0]]) == failed
        assert warpfn.domain_failure(expr, [1000.0]) == failed
        for form in (warpfn.evaluate, warpfn.value_and_gradient, warpfn.eval2):
            with pytest.raises(NumericalError, match=rf"'{re.escape(text)}' .*\[1000\.0\]"):
                form(expr, [1000.0])
    chart = MetricChart(1, exponent=warpfn.parse("log(exp(x1))", 1))
    assert chart.contains([1000.0])


def test_sin_or_cos_of_an_overflowed_operand_is_a_typed_error():
    # x1 * 1e300 * 1e300 overflows to inf without an exception; math's sin
    # and cos of it meet a domain error, where numpy gives NaN.  Each value
    # form raises the typed overflow error, naming the expression and the
    # point, and the domain form answers as the batch form does on that row.
    for text in ("sin(x1 * 1e300 * 1e300)", "cos(x1 * 1e300 * 1e300)"):
        expr = warpfn.parse(text, 1)
        assert warpfn.domain_failure(expr, [1.0]) is None
        for form in (warpfn.evaluate, warpfn.value_and_gradient, warpfn.eval2):
            with pytest.raises(FloatOverflowError, match=r"x1 \* 1e\+300 .*\[1\.0\]"):
                form(expr, [1.0])


def test_an_infinite_constant_is_evaluated_not_spelled_out():
    # built by hand: the parser refuses a literal too large for a float
    expr = warpfn.Binary("+", warpfn.Const(math.inf), warpfn.Var(0))
    p = np.array([2.0])
    assert warpfn.evaluate(expr, p) == math.inf
    value, grad = warpfn.value_and_gradient(expr, p)
    assert value == math.inf and np.array_equal(grad, [1.0])
    value, grad, hess = warpfn.eval2(expr, p)
    assert value == math.inf and np.array_equal(grad, [1.0])
    assert np.array_equal(hess, [[0.0]])
    assert np.array_equal(warpfn.evaluate_many(expr, [[2.0], [-1.0]]),
                          [math.inf, math.inf])


def test_evaluate_many_gives_a_constant_one_value_per_row():
    for text in ("2.5", "2 + 3*4", "-sin(1)"):
        expr = warpfn.parse(text, 2)
        got = warpfn.evaluate_many(expr, np.zeros((5, 2)))
        assert got.shape == (5,)
        assert np.array_equal(got, np.full(5, warpfn.evaluate(expr, [0.0, 0.0])))


def test_malformed_hand_built_nodes_are_rejected(monkeypatch):
    # Node fields never reach the compiled source as text: an operator,
    # function name or index that the parser cannot produce is refused
    # while the source is written, before anything is run.
    ran = []
    monkeypatch.setattr(warpfn, "exec", lambda *args: ran.append(args), raising=False)
    entries = [*ENTRY_POINTS.values(),
               lambda node, p: warpfn.rk4_geodesic_loop(node, p.size)]
    for node in (warpfn.Binary("+ 1 +", warpfn.Var(0), warpfn.Var(0)),
                 warpfn.Call("__import__", warpfn.Var(0)),
                 warpfn.Var("0] + x[0")):
        for entry in entries:
            with pytest.raises(TypeError):
                entry(node, np.array([1.0]))
    assert ran == []


_LEAVES = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False).map(lambda c: warpfn.Const(abs(c))),
    st.integers(0, 2).map(warpfn.Var),
)


def _nodes(children):
    return st.one_of(
        children.map(warpfn.Neg),
        st.builds(warpfn.Call, st.sampled_from(warpfn.FUNCTIONS), children),
        st.builds(warpfn.Binary, st.sampled_from("+-*/"), children, children),
        st.builds(warpfn.Power, children, st.integers(-3, 4)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=st.recursive(_LEAVES, _nodes, max_leaves=12))
def test_parse_inverts_format_on_random_trees(expr):
    assert warpfn.parse(warpfn.format_expression(expr), 3) is expr
