import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huplab.expr import (
    _BINARY,
    EVEN,
    FUNCTIONS,
    ODD,
    UNKNOWN,
    BinOp,
    Call,
    Chi,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    evaluate,
    band,
    evaluate_array,
    parity,
    parse,
    pretty,
)


def ev(text, t):
    return evaluate(parse(text), t)


class TestParse:
    def test_sin_tree(self):
        assert parse("sin(t)") == Call("sin", Var())
        assert ev("sin(t)", math.pi / 2) == pytest.approx(1.0)

    def test_windowed_density_at_zero(self):
        assert ev("sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)", 0.0) == 0

    def test_power_right_associative(self):
        right = BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
        assert parse("2^3^2") == right
        assert ev("2^3^2", 0.0) == pytest.approx(512.0)
        left = BinOp("^", BinOp("^", Num(2.0), Num(3.0)), Num(2.0))
        assert evaluate(left, 0.0) == pytest.approx(64.0)
        assert pretty(left) == "(2.0^3.0)^2.0"
        assert parse(pretty(left)) == left

    def test_precedence(self):
        assert ev("2*3+4", 0.0) == 10
        assert ev("2+3*4", 0.0) == 14
        assert ev("-2^2", 0.0) == -4
        assert ev("(-2)^2", 0.0) == 4
        assert ev("2^-1", 0.0) == 0.5

    def test_complex_literal(self):
        assert ev("2+3*i", 0.0) == 2 + 3j

    def test_scientific_notation(self):
        assert ev("2.5e-3", 0.0) == pytest.approx(0.0025)

    def test_empty_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("")
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("sin(t) + $")
        assert exc.value.offset == 9

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse("tan(t)")

    def test_unbalanced(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(t")
        with pytest.raises(ExprSyntaxError):
            parse("1+")


class TestEval:
    def test_exp_square(self):
        assert ev("exp(t^2)", 1.0) == pytest.approx(2.718281828459045)

    def test_chi_open_endpoints(self):
        assert ev("chi(0,1)(t)", 0.0) == 0
        assert ev("chi(0,1)(t)", 1.0) == 0
        assert ev("chi(0,1)(t)", 0.5) == 1

    def test_imaginary_factor(self):
        assert ev("i*sin(t)", math.pi / 2) == pytest.approx(1j)

    def test_division_by_zero_reported(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            ev("1/sin(t)", 0.0)

    def test_log_nonpositive_real(self):
        with pytest.raises(EvalDomainError, match="log of nonpositive real"):
            ev("log(t)", -1.0)
        with pytest.raises(EvalDomainError, match="log"):
            ev("log(t)", 0.0)

    def test_log_of_complex_allowed(self):
        assert ev("log(i)", 0.0) == pytest.approx(1j * math.pi / 2)

    def test_sqrt_of_negative_is_imaginary(self):
        assert ev("sqrt(t)", -4.0) == pytest.approx(2j)

    def test_overflow_reported(self):
        with pytest.raises(EvalDomainError):
            ev("exp(t)", 1e6)

    @pytest.mark.parametrize(
        "text",
        [
            "exp(709)*exp(709)",
            "exp(709)*exp(709)-exp(709)*exp(709)",  # inf - inf, NaN if left unchecked
            "1e308+1e308",
            "1e308-(-1e308)",
            "abs(1.5e308+1.5e308*i)",
        ],
    )
    def test_nonfinite_intermediate_reported(self, text):
        with pytest.raises(EvalDomainError, match="nonfinite value"):
            ev(text, 0.0)
        with pytest.raises(EvalDomainError, match="nonfinite value"):
            evaluate_array(parse(text), np.zeros(3))

    def test_nonfinite_parameter(self):
        with pytest.raises(EvalDomainError):
            ev("t", math.inf)

    def test_array_matches_scalar(self):
        import numpy as np

        node = parse("sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)")
        ts = np.linspace(-4, 4, 23)
        arr = evaluate_array(node, ts)
        for t, v in zip(ts, arr):
            assert complex(v) == pytest.approx(evaluate(node, float(t)), abs=1e-14)


# hypothesis strategies for expression trees

_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=8.0, allow_nan=False)),
    st.just(Var()),
    st.sampled_from([Const("pi"), Const("e"), Const("i")]),
)


def _tree(children):
    # every row of the operator and function tables
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(sorted(_BINARY)), children, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(Chi, children, children, children),
    )


_any_tree = st.recursive(_leaf, _tree, max_leaves=25)

_safe_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
    st.just(Var()),
)


def _safe_tree(children):
    # bounded operations only: evaluation can never overflow or hit a domain error
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), children, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "abs"]), children),
    )


_bounded_tree = st.recursive(_safe_leaf, _safe_tree, max_leaves=12)


def _mirrored_tree(children):
    # every node of _tree, and chi(-b,b)(u), with bounds that may depend on t
    return st.one_of(_tree(children), st.builds(lambda b, u: Chi(Neg(b), b, u), children, children))


# mostly t at the leaves, so that most trees depend on it
_parity_tree = st.recursive(st.one_of(st.just(Var()), st.just(Var()), _leaf), _mirrored_tree, max_leaves=12)


@given(_any_tree)
@settings(max_examples=300)
def test_roundtrip_parse_pretty(tree):
    assert parse(pretty(tree)) == tree


@given(_bounded_tree, _bounded_tree, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=200)
def test_eval_additive_multiplicative_homomorphism(a, b, t):
    va, vb = evaluate(a, t), evaluate(b, t)
    assert evaluate(BinOp("+", a, b), t) == pytest.approx(va + vb, abs=1e-12)
    assert evaluate(BinOp("*", a, b), t) == pytest.approx(va * vb, abs=1e-12, rel=1e-12)


@given(_bounded_tree, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=150)
def test_eval_deterministic(tree, t):
    assert evaluate(tree, t) == evaluate(tree, t)


class TestParity:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("sin(t)*exp(-(t^2))", ODD),
            ("sqrt(cosh(2*t))*sin(t)*chi(-pi,pi)(t)", ODD),
            ("(1-abs(t))*chi(-1,1)(t)", EVEN),
            ("t^2", EVEN),
            ("t^3", ODD),
            ("(t+1)^2", UNKNOWN),
            ("t^0.5", UNKNOWN),
            ("t^-1", UNKNOWN),
            ("exp(t)", UNKNOWN),
            ("sqrt(t^2+1)/log(cos(t)+2)", EVEN),
            ("sinh(t)/cosh(t)-t", ODD),
            ("chi(-1,2)(t)", UNKNOWN),
            ("chi(-t,t)(t)", UNKNOWN),
            ("chi(-t^2,t^2)(t)", EVEN),
            ("chi(t,t^2)(cos(t))", UNKNOWN),
            ("chi(cos(t),t^2)(cos(t))", EVEN),
        ],
    )
    def test_rules(self, text, want):
        assert parity(parse(text)) == want

    def test_not_a_tree_is_unknown(self):
        assert parity(lambda t: t) == UNKNOWN

    @given(_parity_tree, st.floats(min_value=0.01, max_value=4.0, allow_nan=False))
    @settings(max_examples=500, deadline=None)
    def test_even_or_odd_trees_are_so_when_evaluated(self, tree, t):
        sign = parity(tree)
        if sign == UNKNOWN:
            return
        try:
            at_t, at_minus_t = evaluate_array(tree, np.array([t, -t]))
        except EvalDomainError:
            return
        if not (cmath.isfinite(at_t) and cmath.isfinite(at_minus_t)):
            return
        assert abs(at_minus_t - sign * at_t) <= 1e-9 * max(abs(at_t), abs(at_minus_t))

    def test_square_roots_and_powers_take_the_principal_branch(self):
        # -(t^2)-1 is even, but its zero imaginary part has the sign of t
        both = evaluate_array(parse("sqrt(-(t^2)-1)"), np.array([2.0, -2.0]))
        assert both[0] == both[1] == pytest.approx(5**0.5 * 1j)
        assert ev("sqrt(-4)", 0.0) == ev("sqrt(t)", -4.0) == 2j
        powers = evaluate_array(parse("(-(t^2)-1)^0.5"), np.array([2.0, -2.0]))
        assert powers[0] == powers[1]


# trigonometric polynomials with their band: sin and cos of k t + c, e^{ikt}
# and numbers, in sums, products, quotients by a number and integer powers
_band_leaf = st.one_of(
    st.builds(
        lambda f, k, c: Call(f, BinOp("+", BinOp("*", Num(float(k)), Var()), Num(c))),
        st.sampled_from(["sin", "cos"]),
        st.integers(-4, 4),
        st.floats(-2.0, 2.0),
    ),
    st.builds(lambda k: Call("exp", BinOp("*", BinOp("*", Num(float(k)), Const("i")), Var())), st.integers(-4, 4)),
    st.builds(Num, st.floats(-3.0, 3.0)),
)


def _band_tree(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), children, children),
        st.builds(Neg, children),
        st.builds(lambda a, d: BinOp("/", a, Num(d)), children, st.floats(0.5, 3.0)),
        st.builds(lambda a, n: BinOp("^", a, Num(float(n))), children, st.integers(0, 3)),
    )


class TestBand:
    @pytest.mark.parametrize(
        "text, degree",
        [
            ("3", 0),
            ("pi", 0),
            ("exp(0*i*t)", 0),
            ("sin(t)", 1),
            ("cos(3*t+1)", 3),
            ("exp(-4*i*t)", 4),
            ("exp(2+i*t*5)", 5),
            ("sin(t)*cos(2*t)", 3),
            ("sin(t)-cos(2*t)", 2),
            ("sin(t)^3", 3),
            ("-(sin(t)/2)", 1),
            ("cos(t)^3*exp(2*i*t)", 5),
            ("t", None),
            ("sin(2.5*t)", None),
            ("sin(t*t)", None),
            ("sin(sin(t))", None),
            ("abs(sin(t))", None),
            ("sqrt(cos(t)+2)", None),
            ("chi(-1,1)(t)", None),
            ("cosh(i*t)", None),
            ("exp(t)", None),
            ("exp((1+i)*t)", None),
            ("sin(t)/(2*pi)", None),
            ("sin(t)/cos(t)", None),
            ("sin(t)/0", None),
            ("sin(t)^0.5", None),
            ("sin(t)^-1", None),
            ("sin(t)^t", None),
        ],
    )
    def test_rules(self, text, degree):
        got = band(parse(text))
        assert (None if got is None else got.degree) == degree

    def test_not_a_tree_has_none(self):
        assert band(lambda t: np.sin(t)) is None

    @given(st.recursive(_band_leaf, _band_tree, max_leaves=6))
    @settings(max_examples=300, deadline=None)
    def test_a_banded_tree_is_such_a_polynomial(self, tree):
        # its coefficients, from the FFT of more than 2B samples, vanish above
        # the degree, and their absolute sum is at most the norm
        got = band(tree)
        assert got is not None
        n = 2 * got.degree + 2
        coeffs = np.fft.fft(evaluate_array(tree, 2.0 * math.pi * np.arange(n) / n)) / n
        k = np.fft.fftfreq(n, 1.0 / n)
        scale = max(1.0, got.norm)
        assert np.all(np.abs(coeffs[np.abs(k) > got.degree]) <= 1e-12 * scale)
        assert np.abs(coeffs).sum() <= got.norm * (1.0 + 1e-9) + 1e-12 * scale
