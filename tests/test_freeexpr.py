import dataclasses
from dataclasses import fields
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freemono import kernels, opsys
from freemono.freeexpr import (
    Add,
    Block,
    CodomainError,
    FreeExpr,
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
    BranchCutError, NonFiniteError, Rng, SingularMatrixError, hermitize, is_hermitian,
    min_eig_h, op_norm, random_matrix,
)
from freemono.opsys import (
    NCPoint,
    builtin_system,
    full_domain,
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


def _reference_eval(f: FreeFunction, point: NCPoint) -> NCPoint:
    """Evaluate ``f`` by walking each grid cell's tree, every occurrence anew.

    The reference for ``eval_function``'s compiled program.
    """
    n = point.level
    k = f.in_system.k
    blocks = realize(point).reshape(k, n, k, n)
    eye = np.eye(n, dtype=np.complex128)

    def ev(e: FreeExpr) -> np.ndarray:
        if isinstance(e, Var):
            return point.coeffs[e.index - 1]
        if isinstance(e, Block):
            return blocks[e.row - 1, :, e.col - 1, :]
        if isinstance(e, ScalarConst):
            return e.value * eye
        if isinstance(e, Add):
            return ev(e.left) + ev(e.right)
        if isinstance(e, Sub):
            return ev(e.left) - ev(e.right)
        if isinstance(e, Mul):
            return ev(e.left) @ ev(e.right)
        if isinstance(e, Neg):
            return -ev(e.child)
        if isinstance(e, ScalarMul):
            return e.value * ev(e.child)
        if isinstance(e, Inv):
            try:
                return kernels.safe_inv(ev(e.child))
            except SingularMatrixError as exc:
                raise OutOfDomainError(f"singular inverse: {exc}") from exc
        if isinstance(e, Sqrt):
            try:
                return kernels.principal_sqrt(ev(e.child))
            except BranchCutError as exc:
                raise OutOfDomainError(f"square-root branch violation: {exc}") from exc
        raise TypeError(f"not an expression node: {e!r}")

    ko = f.out_system.k
    out = np.zeros((ko * n, ko * n), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(ko):
            for q in range(ko):
                out[p * n:(p + 1) * n, q * n:(q + 1) * n] = ev(f.grid[p][q])
    try:
        return opsys.decode(out, f.out_system, n)
    except opsys.NotInImageError as exc:
        raise CodomainError(str(exc)) from exc


def _outcome(evaluate, f, point):
    """The coefficients ``evaluate`` returns, or the type and message it raises."""
    try:
        return evaluate(f, point).coeffs
    except Exception as exc:
        return type(exc), str(exc)


def _assert_matches_reference(f, point):
    got, want = _outcome(eval_function, f, point), _outcome(_reference_eval, f, point)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))


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

    @pytest.mark.parametrize("text, system, pos", [
        ("X\u00b2", SCALAR, 1),             # superscript two
        ("X[\u00b2,1]", BLOCK2, 2),
        ("X\u0661", SCALAR, 1),             # Arabic-Indic one, which int() reads as 1
        ("2\u00b2*X1", SCALAR, 1),
        ("\u0661*X1", SCALAR, 0),
        ("X[1,\u0661]", BLOCK2, 4),
    ])
    def test_only_ascii_digits_are_digits(self, text, system, pos):
        with pytest.raises(ParseError) as exc:
            parse(text, system)
        assert exc.value.pos == pos


_NODES = get_args(FreeExpr)
_LEAVES = (Var, Block, ScalarConst)


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


def _plant(gen, e, shared):
    """Replace each leaf of ``e`` by the subtree ``shared`` with probability 1/2."""
    if isinstance(e, _LEAVES):
        return shared if gen.random() < 0.5 else e
    return type(e)(*(_plant(gen, v, shared) if isinstance(v, _NODES) else v
                     for v in (getattr(e, f.name) for f in fields(e))))


# Hypothesis strategy for ASTs that ``to_text`` prints back to themselves:
# scalars are non-negative decimals, real or imaginary, and a leading scalar
# factor is a ScalarMul, as the parser folds it.
_SCALARS = st.builds(lambda c, imaginary: complex(0, c / 100) if imaginary else complex(c / 100, 0),
                     st.integers(0, 900), st.booleans())
_HYPOTHESIS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _mul(left, right):
    return ScalarMul(left.value, right) if isinstance(left, ScalarConst) else Mul(left, right)


def _exprs(system):
    leaves = st.one_of(st.integers(1, system.size).map(Var),
                       st.builds(Block, st.integers(1, system.k), st.integers(1, system.k)),
                       _SCALARS.map(ScalarConst))

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda lr: Add(*lr)), pairs.map(lambda lr: Sub(*lr)),
            pairs.map(lambda lr: _mul(*lr)), children.map(Neg), children.map(Inv),
            children.map(Sqrt), st.builds(ScalarMul, _SCALARS, children),
            # a repeated subtree
            children.map(lambda c: Add(_mul(c, c), Sqrt(c))))

    return st.recursive(leaves, extend, max_leaves=10)


class TestPrintRoundTrip:
    def test_structural_round_trip(self):
        gen = Rng(105).generator()
        for _ in range(200):
            e = _random_expr(gen, BLOCK2, 6)
            assert parse(to_text(e), BLOCK2) == e

    @_HYPOTHESIS
    @given(_exprs(BLOCK2))
    def test_generated_round_trip(self, e):
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
        for _ in range(2):  # a failed lookup is not remembered
            with pytest.raises(ValueError, match="unknown catalog function"):
                catalog("harmonic_mean")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_one_shared_function_per_name(self, name):
        f = catalog(name)
        assert catalog(name) is f
        assert f.in_system is opsys.builtin_system(f.in_system.name)
        assert f.out_system is opsys.builtin_system("scalar")

    def test_a_caller_cannot_change_a_shared_function(self):
        f = catalog("schur_complement")
        program, roots, root = f.program, f.roots, f.grid[0][0]
        for field in ("name", "text", "grid", "program", "domain"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.left = Var(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.domain.a = -1.0
        other = dataclasses.replace(f, name="renamed")
        assert other is not f and other.name == "renamed"
        assert catalog("schur_complement") is f and f.name == "schur_complement"
        assert (f.program, f.roots, f.grid[0][0]) == (program, roots, root)

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


class TestCompiledProgram:
    def test_geometric_mean_takes_two_roots_and_one_inverse(self, monkeypatch):
        calls = {"principal_sqrt": 0, "safe_inv": 0}
        for name in calls:
            def spy(a, errors=None, name=name, kernel=getattr(kernels, name)):
                calls[name] += 1
                return kernel(a, errors)
            monkeypatch.setattr(kernels, name, spy)
        gm = catalog("geometric_mean")
        p = NCPoint(DIAG2, (random_matrix("pd", 3, Rng(11)), random_matrix("pd", 3, Rng(12))))
        eval_function(gm, p)
        assert calls == {"principal_sqrt": 2, "safe_inv": 1}
        _reference_eval(gm, p)
        assert calls == {"principal_sqrt": 2 + 5, "safe_inv": 1 + 2}

    def test_program_is_post_order_of_distinct_subexpressions(self):
        gm = catalog("geometric_mean")
        assert gm.program == (
            (Var, 1, None), (Sqrt, 0, None), (Inv, 1, None), (Var, 2, None), (Mul, 2, 3),
            (Mul, 4, 2), (Sqrt, 5, None), (Mul, 1, 6), (Mul, 7, 1))
        assert gm.roots == ((8,),)

    def test_signed_zero_constants_stay_two_steps(self):
        zero, neg_zero = ScalarConst(0j), ScalarConst(complex(-0.0, -0.0))
        grid = ((Sub(neg_zero, zero), Add(zero, Mul(neg_zero, Var(1)))),
                (Neg(neg_zero), Mul(Var(1), zero)))
        f = FreeFunction("zeros", SCALAR, BLOCK2, grid, pd_cone(SCALAR))
        constants = [a for kind, a, _ in f.program if kind is ScalarConst]
        assert [(np.signbit(c.real), np.signbit(c.imag)) for c in constants] == \
            [(True, True), (False, False)]
        rng = Rng(407)
        for level in (1, 2, 3):
            _assert_matches_reference(f, identity_point(SCALAR, level))
            _assert_matches_reference(f, sample_point(full_domain(SCALAR), level, rng.split(level)))

    def test_not_a_node_is_rejected_when_built(self):
        with pytest.raises(TypeError):
            FreeFunction("bad", SCALAR, SCALAR, ((Neg("X1"),),), pd_cone(SCALAR))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_matches_reference(self, name):
        f = catalog(name)
        rng = Rng(408)
        for level in (1, 2, 3):
            for t in range(10):
                # full-domain points leave the cone, so some evaluations fail
                domain = f.domain if t % 2 else full_domain(f.in_system)
                _assert_matches_reference(f, sample_point(domain, level, rng.split(name, level, t)))

    def test_random_asts_with_repeats_match_reference(self):
        gen = Rng(409).generator()
        rng = Rng(410)
        for t in range(120):
            shared = _random_expr(gen, BLOCK2, 2)
            cells = [_plant(gen, _random_expr(gen, BLOCK2, 3), shared) for _ in range(4)]
            if t % 2:
                f = FreeFunction("cells", BLOCK2, BLOCK2, (tuple(cells[:2]), tuple(cells[2:])),
                                 pd_cone(BLOCK2))
            else:
                f = FreeFunction("cell", BLOCK2, SCALAR, ((cells[0],),), pd_cone(BLOCK2))
            for level in (1, 2, 3):
                domain = pd_cone(BLOCK2) if t % 3 else full_domain(BLOCK2)
                _assert_matches_reference(f, sample_point(domain, level, rng.split(t, level)))

    @_HYPOTHESIS
    @given(_exprs(BLOCK2), st.integers(1, 3), st.integers(0, 2**16), st.booleans())
    def test_generated_asts_match_reference(self, e, level, seed, in_cone):
        f = FreeFunction("generated", BLOCK2, SCALAR, ((e,),), pd_cone(BLOCK2))
        domain = pd_cone(BLOCK2) if in_cone else full_domain(BLOCK2)
        _assert_matches_reference(f, sample_point(domain, level, Rng(seed)))
