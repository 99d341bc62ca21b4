import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidyn.errors import EvaluationError, InvalidInputError, ParseError, QuadratureError
from paulidyn.ratefn import (
    BinOp,
    Call,
    Neg,
    Num,
    RateSet,
    Var,
    evaluate,
    integrate,
    parse,
    preset_rates,
    rate_set,
    running_integral,
    to_source,
)


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
            assert gen.sample(t) == pytest.approx(qubit.sample(t), abs=1e-14)

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
        assert rates.sample(0.0) == pytest.approx([1.0, 1.0, 1.0, 0.0], abs=1e-14)
        t = 2.0
        expected = -2.0 * (math.exp(3 * t) - 1.0) / (math.exp(3 * t) + 2.0)
        assert evaluate(rates.rates[3], t) == pytest.approx(expected, abs=1e-13)

    def test_semigroup(self):
        rates = preset_rates("semigroup", constants=(1.0, 0.5, 2.0))
        assert rates.dim == 2
        assert rates.sample(3.7) == pytest.approx([1.0, 0.5, 2.0], abs=0)

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

    def test_rate_set_length_check(self):
        with pytest.raises(InvalidInputError):
            rate_set(2, ["1", "1"])
        rs = rate_set(2, ["1", "t", "tanh(t)"])
        assert isinstance(rs, RateSet)
        assert rs.sample(1.0) == pytest.approx([1.0, 1.0, math.tanh(1.0)])
