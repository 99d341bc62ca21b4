import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulidyn.errors import EvaluationError, InvalidInputError, ParseError, QuadratureError
from paulidyn.ratefn import (
    BinOp,
    Call,
    Neg,
    Num,
    RateExpr,
    RateSet,
    Var,
    _eval_node,
    _FUNCTIONS,
    _OPERATORS,
    _require,
    _walk,
    evaluate,
    integrate,
    parse,
    preset_rates,
    rate_set,
    running_integral,
)
from tests.helpers import to_source


class TestParse:
    def test_constant(self):
        assert parse("1").root == Num(1.0)

    def test_negated_function(self):
        assert parse("-tanh(t)").root == Neg(Call("tanh", (Var(),)))

    def test_position_in_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo(t)")
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(1 + t")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_arity_check(self):
        with pytest.raises(ParseError):
            parse("pow(2)")
        with pytest.raises(ParseError):
            parse("tanh(1, 2)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("1 + $")

    @pytest.mark.parametrize("source,position", [("1e999", 0), ("1 + 1e309*t", 4),
                                                 ("tanh(2.5e400)", 5)])
    def test_literal_beyond_double_range(self, source, position):
        with pytest.raises(ParseError, match="outside the double range") as err:
            parse(source)
        assert err.value.position == position


class TestParseErrors:
    @pytest.mark.parametrize(
        "source,message,position",
        [
            ("1 + $", "unexpected character '$'", 4),
            ("(1 + t", "expected ')'", 6),
            ("1 +", "unexpected end of input", 3),
            ("1 2", "unexpected '2' after expression", 2),
            ("x + 1", "unknown identifier 'x'", 0),
            ("pow(2)", "pow takes 2 argument(s), got 1", 0),
            ("tanh(1, 2)", "tanh takes 1 argument(s), got 2", 0),
            ("pow(1, 2, 3)", "expected ')'", 8),
            ("tanh t", "expected '('", 5),
            (")", "unexpected ')'", 0),
        ],
    )
    def test_message_and_position(self, source, message, position):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 1000 + "t" + ")" * 1000)

    def test_deep_tree_is_an_evaluation_error(self):
        node = Var()
        for _ in range(2000):
            node = Neg(node)
        with pytest.raises(EvaluationError, match="nested too deeply"):
            evaluate(RateExpr("-" * 2000 + "t", node), 1.0)


class TestPrecedence:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("-2^2", 4.0),        # unary minus binds tighter than ^
            ("-(2^2)", -4.0),
            ("2^3^2", 64.0),      # left-associative power
            ("2*3^2", 18.0),      # ^ binds tighter than *
            ("1-2-3", -4.0),
            ("2*-3", -6.0),
            ("pow(2,3)", 8.0),
            ("2^-3", 0.125),
            ("6/3/2", 1.0),
            ("1 + 2*3", 7.0),
        ],
    )
    def test_values(self, source, expected):
        assert evaluate(parse(source), 0.0) == pytest.approx(expected, rel=1e-15)


class TestEvaluate:
    def test_tanh_at_zero(self):
        assert evaluate(parse("-tanh(t)"), 0.0) == 0.0

    def test_limit_of_rate_expression(self):
        # 1 + ((3-2)/3)*tanh(t) tends to 4/3; tanh(50) is 1 to double precision
        val = evaluate(parse("1 + ((3-2)/3)*tanh(t)"), 50.0)
        assert val == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_cosh(self):
        assert evaluate(parse("cosh(t)"), 1.0) == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_sinh_exp_ln(self):
        assert evaluate(parse("sinh(t)"), 0.3) == pytest.approx(math.sinh(0.3), abs=1e-14)
        assert evaluate(parse("ln(exp(t))"), 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_ln_domain_error(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("ln(t - 1)"), 0.5)
        with pytest.raises(EvaluationError):
            evaluate(parse("ln(t)"), 0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/t"), 0.0)

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(t*t)"), 100.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("(0-2)^0.5"), 0.0)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate(parse("t"), math.inf)


_ast_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.just(Var()),
)
_ast_nodes = st.recursive(
    _ast_leaves,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(
            Call, st.sampled_from(["tanh", "exp", "ln", "cosh", "sinh"]), st.tuples(children)
        ),
        st.builds(Call, st.just("pow"), st.tuples(children, children)),
    ),
    max_leaves=25,
)


# the whole grammar, with constants at the edges of the double range
_edge_nodes = st.recursive(
    st.one_of(st.builds(Num, st.sampled_from([0.0, 1e-300, 0.5, 2.0, 700.0, 1e308])),
              st.just(Var())),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(
            Call, st.sampled_from(["tanh", "exp", "ln", "cosh", "sinh"]), st.tuples(children)
        ),
        st.builds(Call, st.just("pow"), st.tuples(children, children)),
    ),
    max_leaves=12,
)
# a single time, or a grid through t = 0 that may start at negative t
_times = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0).map(lambda t: np.array([t])),
    st.tuples(st.integers(-3, 0), st.integers(1, 3), st.integers(1, 8)).map(
        lambda p: np.linspace(p[0], p[1], (p[1] - p[0]) * p[2] + 1)),
)


class TestOneCheckPerWalk:
    """One finiteness test after an unchecked walk decides as checking every node does."""

    @given(_edge_nodes, _times)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_checked_walk(self, node, t):
        try:
            with np.errstate(all="ignore"):
                expected = _walk(node, t, True, [])
        except EvaluationError as exc:
            with pytest.raises(EvaluationError) as err:
                _eval_node(node, t)
            assert str(err.value) == str(exc)
        else:
            assert _eval_node(node, t).tobytes() == expected.tobytes()

    def test_grid_error_precedes_midpoint_error(self):
        # 1/(t - 0.05) fails first in evaluation order, but only at the midpoint 0.05;
        # ln(0.72 - t) fails at the grid time 0.8, which is reported
        with pytest.raises(EvaluationError, match=r"^ln of nonpositive value .* at t=0\.8$"):
            running_integral(parse("1/(t - 0.05) + ln(0.72 - t)"), np.linspace(0.0, 1.0, 11),
                             1e-8)

    def test_midpoint_error_without_grid_error(self):
        with pytest.raises(EvaluationError, match=r"^division by zero at t=0\.05$"):
            running_integral(parse("1/(t - 0.05)"), np.linspace(0.0, 1.0, 11), 1e-8)


def _filled_walk(node, t: np.ndarray, checked: bool, outs: list) -> np.ndarray:
    """``_walk`` with every literal an array filled by ``np.full``: the reference that
    the scalar literal operands must match bit for bit."""
    kind = type(node)
    if kind is Var:
        return t
    if kind is Num:
        return np.full(t.shape, node.value)
    if kind is Neg:
        return -_filled_walk(node.operand, t, checked, outs)
    if kind is Call:
        name, ufunc = node.name, _FUNCTIONS[node.name]
        args = [_filled_walk(a, t, checked, outs) for a in node.args]
    else:
        name, ufunc = node.op, _OPERATORS[node.op][1]
        args = [_filled_walk(node.left, t, checked, outs),
                _filled_walk(node.right, t, checked, outs)]
    if checked and name == "ln":
        _require(args[0] > 0.0, t, lambda i: f"ln of nonpositive value {float(args[0][i])!r}")
    elif checked and name == "/":
        _require(args[1] != 0.0, t, lambda i: "division by zero")
    out = ufunc(*args)
    if checked:
        _require(np.isfinite(out), t,
                 lambda i: f"{'overflow' if np.isinf(out[i]) else 'domain error'} in {name}")
    outs.append(out)
    return out


def _filled_eval(node, t: np.ndarray) -> np.ndarray:
    """``_eval_node`` through :func:`_filled_walk`."""
    outs = []
    with np.errstate(all="ignore"):
        out = _filled_walk(node, t, False, outs)
        if outs and not np.isfinite(np.concatenate(outs)).all():
            return _filled_walk(node, t, True, [])
    return out


def _checked(walk):
    def run(node, t):
        with np.errstate(all="ignore"):
            return walk(node, t, True, [])
    return run


class TestLiteralOperands:
    """A literal operand of + - * / passed as a Python float gives the filled array's bits."""

    @given(_edge_nodes, _times)
    @example(parse("t/0").root, np.linspace(0.0, 1.0, 5))
    @example(parse("1 + 2/3*t").root, np.linspace(0.0, 5.0, 41))
    @example(parse("t^2 - 0.5").root, np.linspace(-1.0, 5.0, 61))
    @example(parse("pow(t, 0.5) + 1").root, np.linspace(0.0, 5.0, 41))
    @example(parse("-0 * t - -2").root, np.linspace(-1.0, 1.0, 5))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_filled_walk(self, node, t):
        def outcome(fn):
            try:
                return fn(node, t).tobytes()
            except EvaluationError as exc:
                return str(exc)

        assert outcome(_eval_node) == outcome(_filled_eval)
        assert outcome(_checked(_walk)) == outcome(_checked(_filled_walk))

    def test_division_by_a_zero_literal_names_the_first_time(self):
        with pytest.raises(EvaluationError, match=r"^division by zero at t=0\.0$"):
            _eval_node(parse("t/0").root, np.linspace(0.0, 1.0, 5))


class TestPrintRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "1",
            "-tanh(t)",
            "1 + ((3-2)/3)*tanh(t)",
            "-(3-1)*(exp(3*t)-1)/(exp(3*t)+3-1)",
            "2^-3 * (t + 1)",
            "pow(t, 2) - t/3",
            "-(t^2)^2",
        ],
    )
    def test_specific_sources(self, source):
        first = parse(source)
        printed = to_source(first.root)
        assert parse(printed).root == first.root
        # printing is a fixed point after one pass
        assert to_source(parse(printed).root) == printed

    @given(_ast_nodes)
    @settings(max_examples=200, deadline=None)
    def test_random_asts(self, node):
        assert parse(to_source(node)).root == node


class TestIntegrate:
    def test_constant(self):
        for t in (0.5, 1.0, 7.25):
            assert integrate(parse("1"), 0.0, t) == pytest.approx(t, abs=1e-12)

    def test_neg_tanh_gives_log_cosh(self):
        # closed form: -ln(cosh t)
        val = integrate(parse("-tanh(t)"), 0.0, 1.0)
        assert val == pytest.approx(-math.log(math.cosh(1.0)), abs=1e-10)

    def test_exponential(self):
        val = integrate(parse("exp(t)"), 0.0, 2.0)
        assert val == pytest.approx(math.e**2 - 1.0, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(parse("exp(t)"), 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            integrate(parse("1"), 1.0, 0.0)

    def test_bad_tol_rejected(self):
        with pytest.raises(InvalidInputError):
            integrate(parse("1"), 0.0, 1.0, tol=0.0)

    def test_domain_error_propagates(self):
        with pytest.raises(EvaluationError):
            integrate(parse("ln(t - 2)"), 0.0, 1.0)

    def test_nonconvergence_near_pole(self):
        with pytest.raises(QuadratureError):
            integrate(parse("1/(t - 0.5)"), 0.0, 1.000001)

    def test_simpson_sum_beyond_double_range_is_an_error(self):
        # 1e308 * 6 overflows in the Simpson sum; the pass names the step, with no RuntimeWarning
        with pytest.raises(QuadratureError, match=r"overflow the double range on \[0.0, 0.5\]"):
            running_integral(parse("1e308"), np.linspace(0.0, 1.0, 3), 1e-10)

    def test_running_integral_beyond_double_range_is_an_error(self):
        # every step integrates to 2e307; the running sum passes 1.8e308 at t = 9
        with pytest.raises(QuadratureError, match=r"running integral overflows .* at t=9\.0$"):
            running_integral(parse("2e307"), np.linspace(0.0, 20.0, 21), 1e-10)

    def test_additivity_random_smooth(self, rng):
        pieces = ["tanh(t)", "exp(-t) + t*t", "sinh(t/2) - 3*t", "1 + cosh(t)*0.1"]
        tol = 1e-10
        for src in pieces:
            expr = parse(src)
            for _ in range(5):
                a, m, b = np.sort(rng.uniform(0.0, 4.0, 3))
                whole = integrate(expr, a, b, tol=tol)
                split = integrate(expr, a, m, tol=tol) + integrate(expr, m, b, tol=tol)
                assert abs(whole - split) <= 2.0 * tol + 1e-14


def recursive_simpson(expr, a, b, tol):
    """Reference: the depth-first adaptive Simpson recursion, one point at a time."""

    def rec(a, fa, b, fb, whole, fm, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = evaluate(expr, lm), evaluate(expr, rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        assert depth > 0
        return (rec(a, fa, m, fm, left, flm, 0.5 * tol, depth - 1)
                + rec(m, fm, b, fb, right, frm, 0.5 * tol, depth - 1))

    fa, fb, fm = evaluate(expr, a), evaluate(expr, b), evaluate(expr, 0.5 * (a + b))
    return rec(a, fa, b, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), fm, tol, 48)


class TestBreadthFirstSimpson:
    """The array pass performs the recursion's arithmetic exactly, in its order."""

    SOURCES = ["tanh(20*(t - 1))", "exp(-t) + t*t", "-(3-1)*(exp(3*t)-1)/(exp(3*t)+3-1)",
               "0.3 + 0.8*tanh(1.7*(t - 2.2))", "1/(t + 0.01)"]

    @pytest.mark.parametrize("source", SOURCES)
    def test_integrate_equals_recursion(self, source):
        expr = parse(source)
        for a, b, tol in [(0.0, 2.0, 1e-12), (0.3, 0.31, 1e-10), (0.0, 5.0, 1e-6)]:
            assert integrate(expr, a, b, tol) == recursive_simpson(expr, a, b, tol)

    @pytest.mark.parametrize("source", SOURCES)
    def test_running_integral_equals_sequential_loop(self, source):
        expr = parse(source)
        grid = np.linspace(0.0, 3.0, 31)
        values, running = running_integral(expr, grid, 1e-13)
        expected = [0.0]
        for lo, hi in zip(grid[:-1], grid[1:]):
            expected.append(expected[-1] + recursive_simpson(expr, lo, hi, 1e-13))
        assert values.tolist() == [evaluate(expr, t) for t in grid]
        assert running.tolist() == expected


class TestPresets:
    def test_eternal_qubit_integral_identity(self):
        rates = preset_rates("eternal-qubit")
        assert rates.dim == 2
        for t in np.linspace(0.1, 10.0, 23):
            g3 = integrate(rates.rates[2], 0.0, float(t))
            assert abs(g3 + math.log(math.cosh(t))) <= 1e-10

    def test_eternal_general_reduces_to_qubit(self):
        gen = preset_rates("eternal-general", d=2)
        qubit = preset_rates("eternal-qubit")
        for t in (0.0, 0.7, 3.0):
            assert [evaluate(r, t) for r in gen.rates] == pytest.approx(
                [evaluate(r, t) for r in qubit.rates], abs=1e-14)

    def test_eternal_general_d3_sources(self):
        rates = preset_rates("eternal-general", d=3)
        assert rates.rates[0].source == "1 + ((3-2)/3)*tanh(t)"
        assert evaluate(rates.rates[0], 50.0) == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert evaluate(rates.rates[2], 1.0) == pytest.approx(-(2 / 3) * math.tanh(1.0), abs=1e-14)

    def test_avg_decoherence_reduces_to_tanh_for_d2(self):
        rates = preset_rates("avg-decoherence", d=2)
        for t in np.linspace(0.0, 5.0, 11):
            assert evaluate(rates.rates[2], float(t)) == pytest.approx(
                -math.tanh(t), abs=1e-12
            )

    def test_avg_decoherence_d3_values(self):
        rates = preset_rates("avg-decoherence", d=3)
        assert [evaluate(r, 0.0) for r in rates.rates] == pytest.approx([1.0, 1.0, 1.0, 0.0],
                                                                        abs=1e-14)
        t = 2.0
        expected = -2.0 * (math.exp(3 * t) - 1.0) / (math.exp(3 * t) + 2.0)
        assert evaluate(rates.rates[3], t) == pytest.approx(expected, abs=1e-13)

    def test_semigroup(self):
        rates = preset_rates("semigroup", constants=(1.0, 0.5, 2.0))
        assert rates.dim == 2
        assert [evaluate(r, 3.7) for r in rates.rates] == pytest.approx([1.0, 0.5, 2.0], abs=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_semigroup_constants_must_be_finite(self, bad):
        with pytest.raises(InvalidInputError, match="constants must be finite"):
            preset_rates("semigroup", constants=(1.0, bad, 2.0))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            preset_rates("nope")
        with pytest.raises(InvalidInputError):
            preset_rates("eternal-general")
        with pytest.raises(InvalidInputError):
            preset_rates("eternal-qubit", d=3)
        with pytest.raises(InvalidInputError):
            preset_rates("semigroup")
        with pytest.raises(InvalidInputError):
            preset_rates("semigroup", d=3, constants=(1, 1, 1))

    @pytest.mark.parametrize("name", ["eternal-qubit", "eternal-general", "avg-decoherence"])
    def test_only_semigroup_takes_constants(self, name):
        with pytest.raises(InvalidInputError, match="only the semigroup preset takes constants"):
            preset_rates(name, d=2, constants=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("name", ["eternal-general", "avg-decoherence"])
    def test_numpy_integer_dimension(self, name):
        # the same dimension rule as mub_family, which accepts numpy integers
        assert preset_rates(name, d=np.int64(5)) == preset_rates(name, d=5)
        for bad in (1, np.int64(1), 5.0):
            with pytest.raises(InvalidInputError, match="dimension must be an integer"):
                preset_rates(name, d=bad)

    def test_rate_set_length_check(self):
        with pytest.raises(InvalidInputError):
            rate_set(2, ["1", "1"])
        rs = rate_set(2, ["1", "t", "tanh(t)"])
        assert isinstance(rs, RateSet)
        assert [evaluate(r, 1.0) for r in rs.rates] == pytest.approx([1.0, 1.0, math.tanh(1.0)])
