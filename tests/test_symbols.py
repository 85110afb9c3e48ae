import operator
from decimal import Decimal

import numpy as np
import pytest

from glt_lab import (
    DomainError,
    ExprSyntaxError,
    GltExpr,
    TrigPoly,
    VariableError,
    monotone_rearrangement,
    parse_expr,
    rearrangement_distance,
    sample_symbol,
    symbols_equal_in_distribution,
    trig_poly_from_expr,
)
from glt_lab.symbols import FIT_RTOL, MAX_NESTING, ROLE_VARS, SymbolGrid, _ast_to_sexpr

TWO_COS = TrigPoly.from_coeff_map({1: 1, -1: 1})
SHIFT = TrigPoly.from_coeff_map({1: 1})


class TestParser:
    def test_constant(self):
        e = parse_expr("1", "a")
        assert e(x=0.3) == 1

    def test_square(self):
        e = parse_expr("x^2", "a")
        assert e(x=0.5) == 0.25

    def test_role_f_uses_t(self):
        e = parse_expr("2*cos(t)", "F")
        assert e(t=0) == 2

    def test_precedence(self):
        assert parse_expr("1+2*3", "a")() == 7
        assert parse_expr("2*3^2", "a")() == 18
        assert parse_expr("(1+2)*3", "a")() == 9
        assert parse_expr("8/2/2", "a")() == 2

    def test_imaginary_unit(self):
        assert parse_expr("i^2", "a")() == -1
        assert parse_expr("exp(i*theta)", "k")(theta=np.pi / 2) == pytest.approx(1j)

    def test_functions(self):
        e = parse_expr("abs(0-3)+sin(0)+cos(0)+exp(0)", "a")
        assert e() == pytest.approx(5)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x^2 +* 3", "a")
        assert exc.value.position == 5

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("sin(x", "a")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ", "a")

    def test_noninteger_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^1.5", "a")

    def test_disallowed_variable(self):
        with pytest.raises(VariableError):
            parse_expr("theta", "a")
        with pytest.raises(VariableError):
            parse_expr("x", "F")

    def test_free_vars_are_subset_of_role(self):
        assert parse_expr("x*2", "a").free_vars == {"x"}
        assert parse_expr("x*sin(theta)", "k").free_vars == {"x", "theta"}

    def test_deterministic_evaluation(self):
        e = parse_expr("sin(x)^3 + x/7", "a")
        pts = np.linspace(0, 1, 101)
        assert e(x=pts).tobytes() == e(x=pts).tobytes()


# (source, role, error type, message, position): one case per raise site of
# the tokenizer, the parser and parse_expr; a VariableError has no position
ERROR_TABLE = [
    ("x #", "a", ExprSyntaxError, "unexpected character '#' (at position 2)", 2),
    ("x\t$", "a", ExprSyntaxError, "unexpected character '$' (at position 2)", 2),
    ("x 2", "a", ExprSyntaxError, "unexpected '2' (at position 2)", 2),
    ("sin(x) )", "a", ExprSyntaxError, "unexpected ')' (at position 7)", 7),
    ("x +", "a", ExprSyntaxError, "unexpected end of input (at position 3)", 3),
    ("sin(x", "a", ExprSyntaxError, "expected ')' (at position 5)", 5),
    ("(x", "a", ExprSyntaxError, "expected ')' (at position 2)", 2),
    ("x^1.5", "a", ExprSyntaxError, "exponent must be an integer (at position 2)", 2),
    ("y + 1", "a", ExprSyntaxError, "unknown name 'y' (at position 0)", 0),
    ("theta", "a", VariableError, "variable 'theta' not allowed here (allowed: x)", None),
    ("x^t", "F", VariableError, "variable 'x' not allowed here (allowed: t)", None),
    ("x*t", "k", VariableError, "variable 't' not allowed here (allowed: x, theta)", None),
    ("", "a", ExprSyntaxError, "empty expression (at position 0)", 0),
    ("  \t", "a", ExprSyntaxError, "empty expression (at position 0)", 0),
]

# the grammar's alphabet plus whitespace, unknown names and stray characters
PIECES = ["x", "theta", "t", "i", "sin", "cos", "exp", "abs", "y", "1", "2", "0.5", "10",
          "1.", "+", "-", "*", "/", "^", "(", ")", " ", "\t", "\n", "#", ",", "²"]


class TestParserContract:
    @pytest.mark.parametrize("source, role, error, message, position", ERROR_TABLE)
    def test_error_message_and_position(self, source, role, error, message, position):
        with pytest.raises(error) as exc:
            parse_expr(source, role)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert getattr(exc.value, "position", None) == position

    @pytest.mark.parametrize("source, role", [("x^2 \t\n", "a"), ("2*cos(theta)  ", "k")])
    def test_trailing_whitespace_accepted(self, source, role):
        assert parse_expr(source, role).ast == parse_expr(source.rstrip(), role).ast

    def test_random_sources_raise_only_positioned_parse_errors(self):
        rng = np.random.default_rng(0)
        parsed = 0
        for _ in range(20_000):
            source = "".join(rng.choice(PIECES, size=rng.integers(0, 9)))
            for role in ("a", "F", "k"):
                try:
                    expr = parse_expr(source, role)
                except ExprSyntaxError as exc:
                    assert 0 <= exc.position <= len(source), source
                except VariableError:
                    pass
                else:
                    assert expr.free_vars <= set(ROLE_VARS[role])
                    parsed += 1
        # the draw reaches the success path too, not only the error paths
        assert parsed > 100


class TestTrigPoly:
    def test_coeff_count(self):
        assert TWO_COS.degree == 1
        assert TWO_COS.coeffs.size == 3
        with pytest.raises(ValueError):
            TrigPoly(np.array([1.0, 2.0]))

    def test_evaluation_periodic(self):
        theta = np.linspace(-np.pi, np.pi, 17)
        np.testing.assert_allclose(TWO_COS(theta), TWO_COS(theta + 2 * np.pi), atol=1e-12)

    def test_conjugate_symmetric_coeffs_give_real_values(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(0, 5))
            half = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            c = np.concatenate([np.conj(half[::-1]), rng.standard_normal(1), half])
            f = TrigPoly(c)
            assert np.array_equal(f.coeffs, np.conj(f.coeffs[::-1]))
            vals = f(np.linspace(-np.pi, np.pi, 64))
            assert np.abs(vals.imag).max() < 1e-12

    def test_product_degree_adds(self):
        prod = TWO_COS * SHIFT
        assert prod.degree == 2
        theta = np.linspace(-3, 3, 50)
        np.testing.assert_allclose(prod(theta), TWO_COS(theta) * SHIFT(theta), atol=1e-12)


def _fourier_coeff(f: TrigPoly, k: int, quad_points: int) -> complex:
    """The test oracle for one coefficient: (1/2pi) int f(theta) e^{-ik theta}
    by the midpoint rule on `quad_points` nodes theta_j = -pi + (j + 1/2) h,
    h = 2pi/quad_points, exact to roundoff for degrees below quad_points/2."""
    theta = -np.pi + (np.arange(quad_points) + 0.5) * (2 * np.pi / quad_points)
    return complex(np.mean(f(theta) * np.exp(-1j * k * theta)))


def _literal(v: float) -> str:
    """v as the exact decimal literal of its binary value, which the grammar
    reads back bit for bit (no sign, no exponent)."""
    text = format(Decimal(abs(v)), "f")
    text = text if "." in text else text + ".0"
    return f"(0-{text})" if v < 0 else text


def _as_expr(f: TrigPoly):
    """f as a parsed theta expression: sum_k (re f_k + im f_k i) exp(i k theta)."""
    return parse_expr(" + ".join(
        f"({_literal(c.real)}+{_literal(c.imag)}*i)*exp(i*{_literal(k)}*theta)"
        for k, c in zip(range(-f.degree, f.degree + 1), f.coeffs)
    ), "k")


class TestNestingLimit:
    """Parentheses nest at most MAX_NESTING deep, a function call's included;
    past that the parser raises ExprSyntaxError at the '(' that passes the
    limit, never RecursionError, however deep the source goes.  Operator
    chains are not nesting: a sum may have any number of terms."""

    @staticmethod
    def nested(kind, levels):
        if kind == "parentheses":
            return "(" * levels + "x" + ")" * levels
        return "cos(" * levels + "x" + ")" * levels

    @pytest.mark.parametrize("kind, position", [("parentheses", MAX_NESTING),
                                                ("calls", 4 * MAX_NESTING + 3)])
    def test_the_limit(self, kind, position):
        expr = parse_expr(self.nested(kind, MAX_NESTING), "a")
        assert np.isfinite(expr(x=np.linspace(0, 1, 5))).all()
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr(self.nested(kind, MAX_NESTING + 1), "a")
        assert str(exc.value) == (f"parentheses nested deeper than {MAX_NESTING} "
                                  f"(at position {position})")

    @pytest.mark.parametrize("kind", ["parentheses", "calls"])
    @pytest.mark.parametrize("levels", [300, 3000, 30000])
    def test_deep_sources_raise_a_positioned_error(self, kind, levels):
        with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
            parse_expr(self.nested(kind, levels), "k")
        assert exc.value.position == (MAX_NESTING if kind == "parentheses" else 4 * MAX_NESTING + 3)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_long_chains_evaluate_in_order(self, op):
        # 30000 operands fold to the left as before, evaluated without recursion
        fn = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
        operands = ["x", "1.25", "x", "0.8"] * 7500
        expr = parse_expr(op.join(operands), "a")
        x = np.linspace(0.9995, 1, 3).astype(complex)
        want = x
        for token in operands[1:]:
            want = fn(want, x if token == "x" else complex(float(token)))
        assert expr(x=x.real).tobytes() == want.tobytes()
        printed = _ast_to_sexpr(parse_expr("x + 2*x - x/3 + 4", "a").ast)
        assert printed == "(+ (- (+ x (* 2 x)) (/ x 3)) 4)"


class TestTrigFactorMisfit:
    """A trig factor must be a trig polynomial of degree <= max_degree to
    within FIT_RTOL relative, checked on 2 quad + 1 midpoints that the
    extraction does not use; otherwise VariableError names the degree."""

    @pytest.mark.parametrize("source", [
        "cos(20*theta)",    # dropped: the zero matrix
        "cos(9*theta)",     # one above max_degree
        "cos(64*theta)",    # aliases onto the constant -1 on the 64 extraction nodes
        "cos(56*theta)",    # aliases onto -cos(8*theta)
        "exp(theta)",       # no trig polynomial at all
        "abs(cos(theta))",
        "cos(cos(theta))",  # misfit 5.3e-10 at degree 8
    ])
    def test_misfits_are_refused(self, source):
        with pytest.raises(VariableError, match=r"not a trig polynomial of degree <= 8: "
                                                r"relative misfit \S+ above 1e-10"):
            trig_poly_from_expr(parse_expr(source, "k"))

    def test_a_higher_degree_fits(self):
        assert trig_poly_from_expr(parse_expr("cos(9*theta)", "k"), 9).degree == 9
        f = trig_poly_from_expr(parse_expr("cos(cos(theta))", "k"), 10)
        assert f.degree == 10
        theta = np.linspace(-np.pi, np.pi, 101)
        np.testing.assert_allclose(f(theta), np.cos(np.cos(theta)), rtol=0, atol=FIT_RTOL)

    @pytest.mark.parametrize("degree", [9, 10, 17, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000])
    def test_degrees_above_the_limit(self, degree):
        # every degree above 8, the aliasing ones (multiples of 64 and of
        # 129 nearby) included, with a phase and a constant beside it
        source = f"1 + 0.5*cos({degree}*theta + 0.3) + i*sin(theta)"
        with pytest.raises(VariableError, match="degree <= 8"):
            trig_poly_from_expr(parse_expr(source, "k"))

    def test_the_check_at_the_largest_degree_is_one_fft(self, traced_peak):
        # 32777 check nodes against 8193 coefficients: a dense evaluation
        # would hold a 4.3 GB phase matrix
        def extract(source):
            try:
                trig_poly_from_expr(parse_expr(source, "k"), 4096)
            except VariableError:
                pass

        for source in ("0.5 + cos(4000*theta)", "exp(theta)"):
            assert traced_peak(extract, source) < 8e6

    @pytest.mark.parametrize("scale", ["100000000", "0.0000000000001"])
    def test_roundoff_is_cleaned_at_the_factor_scale(self, scale):
        # the noise parts scale with f: 1e8 cos(theta) kept degree 8 noise of
        # ~1e-9, and 1e-13 cos(theta) was cleaned to zero and then refused
        f = trig_poly_from_expr(parse_expr(f"{scale}*cos(theta)", "k"))
        assert f.degree == 1 and f.coeff(0) == 0
        assert f.coeff(-1) == np.conj(f.coeff(1))  # T_n(f) is exactly Hermitian
        assert f.coeff(1) == pytest.approx(float(scale) / 2, rel=1e-14)

    def test_benchmark_factors_fit_to_roundoff(self):
        # the degree-2 factors of perfbench's workloads: the check passes
        # them, and the coefficients are the ones written
        source = "1.1080 + 0.7665*cos(theta) + 0.4578*i*sin(2*theta)"
        f = trig_poly_from_expr(parse_expr(source, "k"))
        want = TrigPoly.from_coeff_map({0: 1.108, 1: 0.38325, -1: 0.38325, 2: 0.2289, -2: -0.2289})
        np.testing.assert_allclose(f.coeffs, want.coeffs, rtol=0, atol=1e-15)


class TestFourierCoeff:
    def test_two_cos(self):
        f = trig_poly_from_expr(parse_expr("2*cos(theta)", "k"))
        assert f.coeff(1) == pytest.approx(1, abs=1e-12)
        assert f.coeff(0) == pytest.approx(0, abs=1e-12)

    def test_complex_exponential(self):
        f = trig_poly_from_expr(parse_expr("exp(i*theta)", "k"))
        assert f.coeff(1) == pytest.approx(1, abs=1e-12)
        assert f.coeff(-1) == pytest.approx(0, abs=1e-12)

    def test_recovers_stored_coefficients(self):
        # discrete orthogonality: exact recovery once quad_points >= 2d+2
        rng = np.random.default_rng(11)
        for _ in range(8):
            d = int(rng.integers(0, 6))
            f = TrigPoly(rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1))
            for k in range(-d, d + 1):
                quad = max(2 * d + 2, 4 * (abs(k) + 1))
                got = _fourier_coeff(f, k, quad)
                assert abs(got - f.coeff(k)) < 1e-12

    @pytest.mark.parametrize("kind", ["real", "complex", "trimmed"])
    @pytest.mark.parametrize("max_degree", [0, 1, 2, 5, 8, 17, 32, 64])
    def test_fft_extraction_matches_quadrature_oracle(self, kind, max_degree):
        rng = np.random.default_rng(max_degree)
        d = max_degree // 2 if kind == "trimmed" else max_degree
        c = rng.standard_normal(2 * d + 1)
        if kind == "complex":
            c = c + 1j * rng.standard_normal(2 * d + 1)
        # scaled so that |f| <= 1: the roundoff of both methods grows with |f|
        f = TrigPoly(c / np.abs(c).sum())
        got = trig_poly_from_expr(_as_expr(f), max_degree)
        quad = max(4 * (max_degree + 1), 64)
        oracle = [_fourier_coeff(f, k, quad) for k in range(-d, d + 1)]
        assert got.degree == d
        np.testing.assert_allclose(got.coeffs, oracle, rtol=0, atol=1e-14)

    def test_trig_poly_from_expr_roundtrip(self):
        f = trig_poly_from_expr(parse_expr("2*cos(theta)", "k"))
        assert f.degree == 1
        assert f.coeff(1) == pytest.approx(1, abs=1e-12)
        assert f.coeff(-1) == pytest.approx(1, abs=1e-12)
        assert f.coeff(0) == pytest.approx(0, abs=1e-12)


ONE = parse_expr("1", "a")
X = parse_expr("x", "a")


class TestSymbolAlgebra:
    def test_add_constants(self):
        p = GltExpr(((ONE, TrigPoly.from_coeff_map({0: 1})),))
        s = p + p
        vals = s(np.linspace(0, 1, 7), np.linspace(-3, 3, 7))
        np.testing.assert_allclose(vals, 2, atol=1e-15)
        assert len(s.terms) == 2

    def test_mul_squares_separable_term(self):
        p = GltExpr(((X, SHIFT),))
        sq = p * p
        assert [f.degree for _, f in sq.terms] == [2]
        x = np.linspace(0.1, 1, 9)
        theta = np.linspace(-3, 3, 9)
        np.testing.assert_allclose(sq(x, theta), x**2 * np.exp(2j * theta), atol=1e-12)

    def test_scale_by_zero(self):
        p = GltExpr(((ONE, TWO_COS),))
        z = p * 0
        np.testing.assert_allclose(z(np.linspace(0, 1, 5), np.linspace(-3, 3, 5)), 0, atol=1e-15)

    def test_scale_by_complex_keeps_coefficient_sources(self):
        p = GltExpr(((X, TWO_COS), (parse_expr("exp(x)", "a"), SHIFT)))
        lam = 0.75 - 1.25j
        scaled = p * lam
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 200)
        theta = rng.uniform(-np.pi, np.pi, 200)
        want = lam * p(x, theta)
        assert np.abs(scaled(x, theta) - want).max() <= 1e-14 * np.abs(want).max()
        assert [a.source for a, _ in scaled.terms] == [a.source for a, _ in p.terms]

    def test_mul_is_pointwise_product(self):
        rng = np.random.default_rng(3)
        p = GltExpr(((X, TWO_COS), (ONE, SHIFT)))
        q = GltExpr(((parse_expr("sin(x)", "a"), TrigPoly.from_coeff_map({-1: 0.5, 2: 1j})),))
        prod = p * q
        x = rng.uniform(0, 1, 1000)
        theta = rng.uniform(-np.pi, np.pi, 1000)
        lhs = prod(x, theta)
        rhs = p(x, theta) * q(x, theta)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(scale, 1.0)

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            GltExpr(())


class TestSampleSymbol:
    def test_constant_grid(self):
        k = GltExpr(((ONE, TrigPoly.from_coeff_map({0: 1})),))
        grid = sample_symbol(k, "RECT", (4, 4))
        assert grid.samples.size == 16
        np.testing.assert_allclose(grid.samples, 1, atol=1e-15)

    def test_unimodular_samples(self):
        grid = sample_symbol(SHIFT, "RECT", (4, 8))
        np.testing.assert_allclose(np.abs(grid.samples), 1, atol=1e-12)

    def test_unit_midpoints(self):
        grid = sample_symbol(X, "UNIT", (4, 1))
        np.testing.assert_allclose(np.sort(grid.samples.real), [0.125, 0.375, 0.625, 0.875])

    def test_singularity_flagged_not_raised(self):
        # pole inside the rectangle: samples go non-finite, sampling survives
        k = parse_expr("1/(2*x-1+theta-theta)", "k")
        grid = sample_symbol(k, "RECT", (2, 2))
        assert grid.nonfinite_count == 0  # midpoints dodge x=1/2 here
        g2 = sample_symbol(parse_expr("1/(x-x)", "a"), "UNIT", (4,))
        assert g2.nonfinite_count == 4

    def test_resolution_precondition(self):
        with pytest.raises(DomainError):
            sample_symbol(X, "UNIT", (1,))

    def test_grid_mean_approximates_normalized_integral(self):
        # midpoint rule: mean of samples ~ integral / measure of the domain
        grid_x = sample_symbol(X, "UNIT", (512,))
        assert abs(grid_x.samples.mean() - 0.5) < 1e-12  # exact for linear
        sep = GltExpr(((X, TWO_COS),))
        grid_sep = sample_symbol(sep, "RECT", (32, 128))
        assert abs(grid_sep.samples.mean()) < 1e-12  # cos integrates to 0
        sq = GltExpr(((parse_expr("x^2", "a"), TrigPoly.from_coeff_map({0: 1})),))
        grid_sq = sample_symbol(sq, "RECT", (256, 2))
        assert abs(grid_sq.samples.mean() - 1 / 3) < 1e-5


class TestThetaOnlyGrids:
    """On a RECT grid, a symbol without x is sampled once per theta
    midpoint, and each sample stands for its nx cells."""

    @pytest.mark.parametrize("source", ["2*cos(theta)", "exp(i*theta) - 0.5", "3"])
    def test_func_expr_without_x_is_the_full_grid_row(self, source):
        grid = sample_symbol(parse_expr(source, "k"), "RECT", (8, 16))
        full = sample_symbol(parse_expr(f"{source} + 0*x", "k"), "RECT", (8, 16))
        assert grid.resolution == full.resolution == (8, 16)
        assert grid.cells == full.cells == 128
        assert (grid.samples.size, full.samples.size) == (16, 128)
        assert np.array_equal(np.tile(grid.samples, 8), full.samples)
        assert grid.max_abs() == full.max_abs() and grid.min_resolution() == 8

    def test_trig_poly_is_the_full_grid_row(self):
        grid = sample_symbol(TWO_COS, "RECT", (8, 16))
        full = sample_symbol(GltExpr(((parse_expr("1", "a"), TWO_COS),)), "RECT", (8, 16))
        assert grid.samples.size == 16
        assert np.array_equal(np.tile(grid.samples, 8), full.samples)

    @pytest.mark.parametrize("size", [0, 8, 15, 17, 127])
    def test_wrong_sized_samples_raise(self, size):
        # 8 x 16 cells take 128 samples or 16, one per theta midpoint
        with pytest.raises(ValueError, match="sample count"):
            SymbolGrid("RECT", (8, 16), np.zeros(size))

    def test_unit_grids_take_one_sample_per_cell(self):
        with pytest.raises(ValueError, match="sample count"):
            SymbolGrid("UNIT", (16,), np.zeros(1))

    def test_nonfinite_count_counts_cells(self):
        # exp overflows where cos(theta) > 0.71: at the two midpoints +-pi/8
        grid = sample_symbol(parse_expr("exp(1000*cos(theta))", "k"), "RECT", (3, 8))
        full = sample_symbol(parse_expr("exp(1000*cos(theta)) + 0*x", "k"), "RECT", (3, 8))
        assert np.count_nonzero(~np.isfinite(grid.samples)) == 2
        assert grid.nonfinite_count == full.nonfinite_count == 6

    def test_equal_in_distribution_counts_cells(self):
        # 64 x 16 cells set the noise floor at 0.5/32; the 16 samples alone
        # would set it at 0.5/4, above this distance
        grid = sample_symbol(TWO_COS, "RECT", (64, 16))
        full = SymbolGrid("RECT", (64, 16), np.tile(grid.samples, 64))
        other = full.samples.copy()
        other[:60] = 10.0
        assert 0.5 / 32 < rearrangement_distance(grid, other) < 0.5 / 4
        assert rearrangement_distance(grid, other) == rearrangement_distance(full, other)
        assert not symbols_equal_in_distribution(grid, other)
        assert not symbols_equal_in_distribution(full, other)
        assert symbols_equal_in_distribution(grid, full)

    def test_monotone_rearrangement_has_one_entry_per_cell(self):
        grid = sample_symbol(TWO_COS, "RECT", (4, 8))
        full = SymbolGrid("RECT", (4, 8), np.tile(grid.samples, 4))
        assert np.array_equal(monotone_rearrangement(grid), monotone_rearrangement(full))
        assert monotone_rearrangement(grid).size == 32


class TestRearrangement:
    def test_identity_distance_zero(self):
        grid = sample_symbol(X, "UNIT", (64,))
        assert rearrangement_distance(grid, grid) == 0.0

    def test_mirror_image_distance_vanishes(self):
        # x and 1-x are both uniform on [0,1]; order statistics agree in the
        # limit, so the disk discrepancy must shrink with resolution
        mirror = parse_expr("1-x", "a")
        prev = None
        for res in (33, 129, 513):
            h = sample_symbol(X, "UNIT", (res,))
            k = sample_symbol(mirror, "UNIT", (res + 1,))
            # independent oracle: compare order statistics on a common count
            qs = np.linspace(0.01, 0.99, 101)
            oh = np.quantile(np.sort(h.samples.real), qs)
            ok = np.quantile(np.sort(k.samples.real), qs)
            assert np.abs(oh - ok).max() < 2.0 / res
            d = rearrangement_distance(h, k)
            assert d < 5.0 / np.sqrt(res)
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d
        assert symbols_equal_in_distribution(
            sample_symbol(X, "UNIT", (1024,)), sample_symbol(mirror, "UNIT", (1025,))
        )

    def test_separated_constants(self):
        zero = np.zeros(50)
        one = np.ones(50)
        assert rearrangement_distance(zero, one) == 1.0

    def test_symmetry_exact(self):
        h = sample_symbol(X, "UNIT", (37,))
        k = sample_symbol(parse_expr("x^2", "a"), "UNIT", (53,))
        assert rearrangement_distance(h, k) == rearrangement_distance(k, h)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        t = rng.standard_normal(30)
        d1 = rearrangement_distance(s, t)
        d2 = rearrangement_distance(rng.permutation(s), t)
        assert d1 == d2

    def test_triangle_inequality(self):
        grids = [
            sample_symbol(X, "UNIT", (64,)),
            sample_symbol(parse_expr("x^2", "a"), "UNIT", (48,)),
            sample_symbol(parse_expr("1-x", "a"), "UNIT", (80,)),
        ]
        for a in grids:
            for b in grids:
                for c in grids:
                    dab = rearrangement_distance(a, b)
                    dbc = rearrangement_distance(b, c)
                    dac = rearrangement_distance(a, c)
                    assert dac <= dab + dbc + 1e-12

    def test_domain_tag_mismatch(self):
        h = sample_symbol(X, "UNIT", (8,))
        k = sample_symbol(SHIFT, "RECT", (2, 8))
        with pytest.raises(DomainError):
            rearrangement_distance(h, k)


class TestMonotoneRearrangement:
    def test_sorts(self):
        np.testing.assert_array_equal(monotone_rearrangement(np.array([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_abs_two_cos_bounded(self):
        theta = np.linspace(-np.pi, np.pi, 257)
        v = monotone_rearrangement(np.abs(TWO_COS(theta)))
        assert np.all(np.diff(v) >= 0)
        assert v.max() <= 2 + 1e-12

    def test_constant_unchanged(self):
        np.testing.assert_array_equal(monotone_rearrangement(np.full(5, 2.5)), np.full(5, 2.5))

    def test_idempotent_and_permutation_invariant(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(100)
        once = monotone_rearrangement(s)
        np.testing.assert_array_equal(monotone_rearrangement(once), once)
        np.testing.assert_array_equal(monotone_rearrangement(rng.permutation(s)), once)

    def test_distribution_preserved(self):
        s = np.linspace(0, 1, 100) ** 2
        shuffled = np.random.default_rng(2).permutation(s)
        assert rearrangement_distance(monotone_rearrangement(shuffled), s) == 0.0

    def test_complex_rejected(self):
        with pytest.raises(DomainError):
            monotone_rearrangement(np.array([1j, 2j]))
