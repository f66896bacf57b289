"""Expression language for free functions.

An expression is built from coefficient variables ``X1, X2, ...`` (one per
basis slot of the input system), block variables ``X[p,q]`` (blocks of the
realized input), scalar constants, ``+ - *``, unary minus, ``inv``/``^-1``,
and ``sqrt``.  A free function is a grid of expressions, one per ambient
block of the output system; evaluation assembles the grid and decodes it
back into a point over the output system.

Grammar::

    expr    := term { ("+"|"-") term }
    term    := unary { "*" unary }
    unary   := "-" unary | postfix
    postfix := atom [ "^-1" ]
    atom    := var | scalar | "(" expr ")" | "sqrt" "(" expr ")" | "inv" "(" expr ")"
    var     := "X" digits | "X[" digits "," digits "]"
    scalar  := decimal | decimal "i" | "i"

Whitespace is insignificant between tokens; indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import kernels, opsys
from .kernels import BranchCutError, SingularMatrixError
from .opsys import DomainSpec, NCPoint, OpSysBasis, NotInImageError, builtin_system


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.message = message
        self.pos = pos


class OutOfDomainError(Exception):
    """Evaluation left the expression's domain of definition."""


class CodomainError(Exception):
    """The evaluated value does not decode into the output system."""


# --------------------------------------------------------------------------
# AST nodes.

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Block:
    row: int
    col: int


@dataclass(frozen=True)
class ScalarConst:
    value: complex


@dataclass(frozen=True)
class Add:
    left: "FreeExpr"
    right: "FreeExpr"


@dataclass(frozen=True)
class Sub:
    left: "FreeExpr"
    right: "FreeExpr"


@dataclass(frozen=True)
class Mul:
    left: "FreeExpr"
    right: "FreeExpr"


@dataclass(frozen=True)
class Neg:
    child: "FreeExpr"


@dataclass(frozen=True)
class Inv:
    child: "FreeExpr"


@dataclass(frozen=True)
class Sqrt:
    child: "FreeExpr"


@dataclass(frozen=True)
class ScalarMul:
    value: complex
    child: "FreeExpr"


FreeExpr = Union[Var, Block, ScalarConst, Add, Sub, Mul, Neg, Inv, Sqrt, ScalarMul]


# --------------------------------------------------------------------------
# Lexer.

_KEYWORDS = ("sqrt", "inv")


@dataclass(frozen=True)
class _Token:
    kind: str
    pos: int
    value: complex = 0j
    raw: str = ""


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*()[],":
            kind = {"+": "plus", "-": "minus", "*": "star", "(": "lparen",
                    ")": "rparen", "[": "lbrack", "]": "rbrack", ",": "comma"}[c]
            tokens.append(_Token(kind, i))
            i += 1
            continue
        if c == "^":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "-":
                j += 1
                while j < n and text[j].isspace():
                    j += 1
                if j < n and text[j] == "1" and (j + 1 >= n or not (text[j + 1].isdigit() or text[j + 1] == ".")):
                    tokens.append(_Token("powinv", i))
                    i = j + 1
                    continue
            raise ParseError("expected '^-1'", i)
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            raw = text[i:j]
            if not np.isfinite(float(raw)):
                raise ParseError("scalar literal overflows to infinity", i)
            if j < n and text[j] == "i":
                tokens.append(_Token("scalar", i, complex(0.0, float(raw)), raw))
                j += 1
            else:
                tokens.append(_Token("scalar", i, complex(float(raw), 0.0), raw))
            i = j
            continue
        if c == "X":
            j = i + 1
            if j < n and text[j].isdigit():
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(_Token("var", i, raw=text[i + 1:j]))
                i = j
                continue
            tokens.append(_Token("xname", i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "i":
                tokens.append(_Token("scalar", i, 1j, "i"))
            elif word in _KEYWORDS:
                tokens.append(_Token(word, i))
            else:
                raise ParseError(f"unknown name {word!r}", i)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", n))
    return tokens


# --------------------------------------------------------------------------
# Parser.

class _Parser:
    def __init__(self, tokens: list[_Token], system: OpSysBasis):
        self.tokens = tokens
        self.i = 0
        self.system = system

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        if self.tok.kind != kind:
            raise ParseError(f"expected {what}", self.tok.pos)
        return self.advance()

    def parse(self) -> FreeExpr:
        node = self.expr()
        if self.tok.kind != "eof":
            raise ParseError("unexpected trailing input", self.tok.pos)
        return node

    def expr(self) -> FreeExpr:
        node = self.term()
        while self.tok.kind in ("plus", "minus"):
            op = self.advance().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "plus" else Sub(node, rhs)
        return node

    def term(self) -> FreeExpr:
        node = self.unary()
        while self.tok.kind == "star":
            self.advance()
            rhs = self.unary()
            if isinstance(node, ScalarConst):
                node = ScalarMul(node.value, rhs)
            else:
                node = Mul(node, rhs)
        return node

    def unary(self) -> FreeExpr:
        if self.tok.kind == "minus":
            self.advance()
            return Neg(self.unary())
        return self.postfix()

    def postfix(self) -> FreeExpr:
        node = self.atom()
        if self.tok.kind == "powinv":
            self.advance()
            node = Inv(node)
        return node

    def _index(self, what: str) -> tuple[int, int]:
        t = self.tok
        if t.kind != "scalar" or not t.raw.isdigit():
            raise ParseError(f"expected a {what} index", t.pos)
        self.advance()
        return int(t.raw), t.pos

    def atom(self) -> FreeExpr:
        t = self.tok
        if t.kind == "scalar":
            self.advance()
            return ScalarConst(t.value)
        if t.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if t.kind in ("sqrt", "inv"):
            self.advance()
            self.expect("lparen", "'('")
            node = self.expr()
            self.expect("rparen", "')'")
            return Sqrt(node) if t.kind == "sqrt" else Inv(node)
        if t.kind == "var":
            self.advance()
            j = int(t.raw)
            if not 1 <= j <= self.system.size:
                raise ParseError(
                    f"variable X{j} out of range for system {self.system.name!r}", t.pos)
            return Var(j)
        if t.kind == "xname":
            self.advance()
            self.expect("lbrack", "'['")
            p, ppos = self._index("block row")
            self.expect("comma", "','")
            q, qpos = self._index("block column")
            self.expect("rbrack", "']'")
            k = self.system.k
            if not (1 <= p <= k and 1 <= q <= k):
                raise ParseError(
                    f"block ({p},{q}) out of range for system {self.system.name!r}",
                    ppos if not 1 <= p <= k else qpos)
            return Block(p, q)
        raise ParseError(f"unexpected token {t.kind!r}", t.pos)


def parse(text: str, system: OpSysBasis) -> FreeExpr:
    """Parse expression text against a system, validating variable indices."""
    return _Parser(_tokenize(text), system).parse()


# --------------------------------------------------------------------------
# Printer.  Parenthesization is chosen so that parse(to_text(e)) == e.

def _scalar_text(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{repr(c.imag)}i"
    return f"({repr(c.real)} + {repr(c.imag)}i)"


def _fmt(e: FreeExpr, ctx: int) -> str:
    if isinstance(e, Var):
        return f"X{e.index}"
    if isinstance(e, Block):
        return f"X[{e.row},{e.col}]"
    if isinstance(e, ScalarConst):
        return _scalar_text(e.value)
    if isinstance(e, Inv):
        return f"inv({_fmt(e.child, 0)})"
    if isinstance(e, Sqrt):
        return f"sqrt({_fmt(e.child, 0)})"
    if isinstance(e, Neg):
        text, prec = f"-{_fmt(e.child, 3)}", 3
    elif isinstance(e, (Mul, ScalarMul)):
        left = _scalar_text(e.value) if isinstance(e, ScalarMul) else _fmt(e.left, 2)
        right = _fmt(e.child if isinstance(e, ScalarMul) else e.right, 3)
        text, prec = f"{left} * {right}", 2
    elif isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        text, prec = f"{_fmt(e.left, 1)} {op} {_fmt(e.right, 2)}", 1
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if prec < ctx else text


def to_text(e: FreeExpr) -> str:
    """Render an AST back to source text."""
    return _fmt(e, 0)


# --------------------------------------------------------------------------
# Free functions and evaluation.

@dataclass(frozen=True, eq=False)
class FreeFunction:
    """Named grid of expressions mapping points over one system to another."""

    name: str
    in_system: OpSysBasis
    out_system: OpSysBasis
    grid: tuple
    domain: DomainSpec
    text: str = ""

    def __post_init__(self):
        ko = self.out_system.k
        if len(self.grid) != ko or any(len(row) != ko for row in self.grid):
            raise ValueError("expression grid must be k-by-k for the output system")


def function_from_expr(name: str, text: str, in_system: OpSysBasis,
                       out_system: OpSysBasis | None = None,
                       domain: DomainSpec | None = None) -> FreeFunction:
    """Wrap a single expression as a scalar-valued free function."""
    out = out_system or builtin_system("scalar")
    dom = domain or opsys.pd_cone(in_system)
    expr = parse(text, in_system)
    return FreeFunction(name, in_system, out, ((expr,),), dom, text)


def eval_function(f: FreeFunction, point: NCPoint) -> NCPoint:
    """Evaluate a free function at a point; output level equals input level.

    Raises :class:`OutOfDomainError` on singular inverses or square-root
    branch violations, and :class:`CodomainError` when the assembled value
    does not decode into the output system within 1e-9; a value that
    overflows raises :class:`~freemono.kernels.NonFiniteError`.
    """
    if point.system.name != f.in_system.name:
        raise ValueError(
            f"point over {point.system.name!r} fed to function on {f.in_system.name!r}")
    n = point.level
    k = f.in_system.k
    realized = opsys.realize(point)
    blocks = realized.reshape(k, n, k, n)
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
    # an overflow leaves inf/nan in ``out``, which decode rejects as NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(ko):
            for q in range(ko):
                out[p * n:(p + 1) * n, q * n:(q + 1) * n] = ev(f.grid[p][q])
    try:
        return opsys.decode(out, f.out_system, n)
    except NotInImageError as exc:
        raise CodomainError(str(exc)) from exc


# --------------------------------------------------------------------------
# Built-in catalog.

_CATALOG = {
    "identity": ("X1", "scalar"),
    "msqrt": ("sqrt(X1)", "scalar"),
    "neg_inverse": ("-inv(X1)", "scalar"),
    "inverse": ("inv(X1)", "scalar"),
    "square": ("X1*X1", "scalar"),
    "schur_complement": ("X[1,1] - X[1,2]*inv(X[2,2])*X[2,1]", "block2"),
    "geometric_mean": ("sqrt(X1)*sqrt(inv(sqrt(X1))*X2*inv(sqrt(X1)))*sqrt(X1)", "diagonal(2)"),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> FreeFunction:
    """Look up a named free function; all entries map into the scalar system."""
    try:
        text, sys_name = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog function {name!r}") from None
    in_sys = builtin_system(sys_name)
    return function_from_expr(name, text, in_sys, domain=opsys.pd_cone(in_sys))
