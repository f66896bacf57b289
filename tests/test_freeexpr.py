import numpy as np
import pytest

from freemono.freeexpr import (
    Add,
    Block,
    CodomainError,
    Inv,
    Mul,
    Neg,
    OutOfDomainError,
    ParseError,
    ScalarConst,
    ScalarMul,
    Sqrt,
    Sub,
    Var,
    CATALOG_NAMES,
    FreeFunction,
    catalog,
    eval_function,
    function_from_expr,
    parse,
    to_text,
)
from freemono.kernels import (
    NonFiniteError, Rng, hermitize, is_hermitian, min_eig_h, op_norm, random_matrix,
)
from freemono.opsys import (
    NCPoint,
    builtin_system,
    identity_point,
    pd_cone,
    realize,
    sample_ordered_pair,
    sample_point,
)

SCALAR = builtin_system("scalar")
BLOCK2 = builtin_system("block2")
DIAG2 = builtin_system("diagonal(2)")


def _point(system, *scalars):
    return NCPoint(system, tuple(np.array([[v]], dtype=complex) for v in scalars))


class TestParse:
    def test_schur_ast(self):
        e = parse("X[1,1] - X[1,2]*inv(X[2,2])*X[2,1]", BLOCK2)
        expected = Sub(
            Block(1, 1),
            Mul(Mul(Block(1, 2), Inv(Block(2, 2))), Block(2, 1)),
        )
        assert e == expected

    def test_sqrt_single_node(self):
        assert parse("sqrt(X1)", SCALAR) == Sqrt(Var(1))

    def test_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("X[1,", BLOCK2)
        assert exc.value.pos == 4

    def test_overflowing_literal_is_rejected_at_its_offset(self):
        for text, pos in (("9" * 320 + "*X1", 0), ("X1 + " + "9" * 320 + "i", 5)):
            with pytest.raises(ParseError) as exc:
                parse(text, SCALAR)
            assert exc.value.pos == pos

    def test_var_out_of_range(self):
        with pytest.raises(ParseError):
            parse("X2", SCALAR)

    def test_block_out_of_range(self):
        with pytest.raises(ParseError):
            parse("X[3,1]", BLOCK2)

    def test_precedence(self):
        # unary minus binds a whole term factor; * binds tighter than +
        e = parse("X1 + X1*X1", SCALAR)
        assert e == Add(Var(1), Mul(Var(1), Var(1)))
        e = parse("-X1*X1", SCALAR)
        assert e == Mul(Neg(Var(1)), Var(1))

    def test_postfix_inverse_synonym(self):
        assert parse("X1^-1", SCALAR) == parse("inv(X1)", SCALAR) == Inv(Var(1))

    def test_postfix_binds_tighter_than_minus(self):
        assert parse("-X1^-1", SCALAR) == Neg(Inv(Var(1)))

    def test_scalars(self):
        assert parse("2", SCALAR) == ScalarConst(2 + 0j)
        assert parse("2.5i", SCALAR) == ScalarConst(2.5j)
        assert parse("i", SCALAR) == ScalarConst(1j)

    def test_scalar_multiplication_folds(self):
        assert parse("2*X1", SCALAR) == ScalarMul(2 + 0j, Var(1))

    def test_left_associativity(self):
        assert parse("X1 - X1 - X1", SCALAR) == Sub(Sub(Var(1), Var(1)), Var(1))

    def test_whitespace_insensitive(self):
        assert parse(" X[ 1 , 2 ] ", BLOCK2) == Block(1, 2)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("X1 X1", SCALAR)


def _random_expr(gen, system, depth):
    leaves = ["var", "block", "scalar"]
    inner = ["add", "sub", "mul", "neg", "inv", "sqrt", "smul"]
    kind = leaves[int(gen.integers(len(leaves)))] if depth <= 0 else \
        (leaves + inner)[int(gen.integers(len(leaves) + len(inner)))]
    if kind == "var":
        return Var(1 + int(gen.integers(system.size)))
    if kind == "block":
        return Block(1 + int(gen.integers(system.k)), 1 + int(gen.integers(system.k)))
    if kind == "scalar":
        value = round(float(gen.random()) * 9, 2)
        return ScalarConst(complex(0, value) if gen.random() < 0.5 else complex(value, 0))
    if kind in ("add", "sub", "mul"):
        cls = {"add": Add, "sub": Sub, "mul": Mul}[kind]
        left = _random_expr(gen, system, depth - 1)
        right = _random_expr(gen, system, depth - 1)
        if kind == "mul" and isinstance(left, ScalarConst):
            # the parser folds a leading scalar factor into ScalarMul
            return ScalarMul(left.value, right)
        return cls(left, right)
    if kind == "neg":
        return Neg(_random_expr(gen, system, depth - 1))
    if kind == "inv":
        return Inv(_random_expr(gen, system, depth - 1))
    if kind == "sqrt":
        return Sqrt(_random_expr(gen, system, depth - 1))
    value = round(float(gen.random()) * 9, 2)
    return ScalarMul(complex(value, 0), _random_expr(gen, system, depth - 1))


class TestPrintRoundTrip:
    def test_structural_round_trip(self):
        gen = Rng(105).generator()
        for _ in range(200):
            e = _random_expr(gen, BLOCK2, 6)
            assert parse(to_text(e), BLOCK2) == e

    def test_catalog_round_trip(self):
        for name in CATALOG_NAMES:
            f = catalog(name)
            assert parse(to_text(f.grid[0][0]), f.in_system) == f.grid[0][0]


class TestEval:
    def test_schur_hand_value(self):
        schur = catalog("schur_complement")
        p = _point(BLOCK2, 2.0, 1.0, 1.0, 0.0)  # realizes [[2,1],[1,1]]
        out = eval_function(schur, p)
        assert out.system.name == "scalar" and out.level == 1
        np.testing.assert_allclose(out.coeffs[0], [[1.0]], atol=1e-14)

    def test_schur_identity_point(self):
        schur = catalog("schur_complement")
        out = eval_function(schur, identity_point(BLOCK2, 3))
        np.testing.assert_allclose(out.coeffs[0], np.eye(3), atol=1e-14)

    def test_geometric_mean_equal_args(self):
        gm = catalog("geometric_mean")
        a = random_matrix("pd", 3, Rng(7))
        p = NCPoint(DIAG2, (a, a))
        out = eval_function(gm, p)
        assert op_norm(out.coeffs[0] - a) <= 1e-9 * (1 + op_norm(a))

    def test_geometric_mean_scalars(self):
        gm = catalog("geometric_mean")
        out = eval_function(gm, _point(DIAG2, 1.0, 4.0))
        np.testing.assert_allclose(out.coeffs[0], [[2.0]], atol=1e-12)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_level_graded(self, name):
        f = catalog(name)
        rng = Rng(205)
        for level in (1, 2, 3, 4):
            p = sample_point(f.domain, level, rng.split(name, level))
            out = eval_function(f, p)
            assert out.level == level
            assert out.system.name == f.out_system.name

    def test_singular_inverse_is_out_of_domain(self):
        inv = catalog("inverse")
        with pytest.raises(OutOfDomainError):
            eval_function(inv, _point(SCALAR, 0.0))

    def test_branch_violation_is_out_of_domain(self):
        ms = catalog("msqrt")
        with pytest.raises(OutOfDomainError):
            eval_function(ms, _point(SCALAR, -1.0))

    def test_codomain_error(self):
        # A 2x2 output grid with a nonzero off-diagonal entry cannot decode
        # into the diagonal system.
        grid = ((parse("X1", DIAG2), parse("X1", DIAG2)),
                (parse("X1", DIAG2), parse("X2", DIAG2)))
        f = FreeFunction("offdiag", DIAG2, DIAG2, grid, pd_cone(DIAG2))
        p = _point(DIAG2, 1.0, 2.0)
        with pytest.raises(CodomainError):
            eval_function(f, p)

    def test_overflow_is_a_non_finite_error(self):
        big = "9" * 300
        for text in (f"X1*{big}*{big}", f"inv(X1*{big}*{big})"):
            f = function_from_expr("big", text, SCALAR)
            with pytest.raises(NonFiniteError):
                eval_function(f, _point(SCALAR, 2.0))

    def test_system_mismatch(self):
        with pytest.raises(ValueError):
            eval_function(catalog("identity"), _point(DIAG2, 1.0, 1.0))


class TestCatalog:
    def test_identity_is_identity(self):
        f = catalog("identity")
        a = random_matrix("hermitian", 3, Rng(9))
        out = eval_function(f, NCPoint(SCALAR, (a,)))
        np.testing.assert_allclose(out.coeffs[0], a, atol=1e-14)

    def test_square_rank_one(self):
        f = catalog("square")
        a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        out = eval_function(f, NCPoint(SCALAR, (a,)))
        np.testing.assert_allclose(out.coeffs[0], 2 * a, atol=1e-13)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("harmonic_mean")

    def test_geometric_mean_symmetry(self):
        gm = catalog("geometric_mean")
        rng = Rng(305)
        for t in range(200):
            n = 1 + t % 3
            a = random_matrix("pd", n, rng.split("a", t))
            b = random_matrix("pd", n, rng.split("b", t))
            lhs = eval_function(gm, NCPoint(DIAG2, (a, b))).coeffs[0]
            rhs = eval_function(gm, NCPoint(DIAG2, (b, a))).coeffs[0]
            assert op_norm(lhs - rhs) <= 1e-9 * (1 + op_norm(lhs))

    def test_schur_preserves_hermitian_pd(self):
        schur = catalog("schur_complement")
        rng = Rng(306)
        for t in range(200):
            n = 1 + t % 3
            p = sample_point(schur.domain, n, rng.split(t))
            out = eval_function(schur, p)
            assert is_hermitian(out.coeffs[0])
            assert min_eig_h(hermitize(out.coeffs[0])) > 0

    def test_expr_function_wrapper(self):
        f = function_from_expr("twice", "2*X1", SCALAR)
        out = eval_function(f, _point(SCALAR, 3.0))
        np.testing.assert_allclose(out.coeffs[0], [[6.0]])
