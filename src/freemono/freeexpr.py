"""Expression language for free functions.

An expression is built from coefficient variables ``X1, X2, ...`` (one per
basis slot of the input system), block variables ``X[p,q]`` (blocks of the
realized input), scalar constants, ``+ - *``, unary minus, ``inv``/``^-1``,
and ``sqrt``.  A free function is a grid of expressions, one per ambient
block of the output system.  When a function is built, its grid compiles
into a straight-line program of its distinct subexpressions, so that a
subexpression repeated anywhere in the grid is evaluated once; evaluation
runs that program, assembles the grid and decodes it back into a point over
the output system.

Grammar::

    expr    := term { ("+"|"-") term }
    term    := unary { "*" unary }
    unary   := "-" unary | postfix
    postfix := atom [ "^-1" ]
    atom    := var | scalar | "(" expr ")" | "sqrt" "(" expr ")" | "inv" "(" expr ")"
    var     := "X" digits | "X[" digits "," digits "]"
    scalar  := decimal | decimal "i" | "i"

Whitespace is insignificant between tokens; indices are 1-based.  Parentheses,
calls and unary minus nest at most 100 deep, and an expression's tree is at
most 200 nodes deep (a chain of binary operators builds one level per
operator).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from . import kernels, opsys
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


def _digit(text: str, j: int) -> bool:
    # ASCII only: str.isdigit() also accepts '²' and '١', which float() and int() reject or misread
    return j < len(text) and "0" <= text[j] <= "9"


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
                if j < n and text[j] == "1" and not (_digit(text, j + 1) or text[j + 1:j + 2] == "."):
                    tokens.append(_Token("powinv", i))
                    i = j + 1
                    continue
            raise ParseError("expected '^-1'", i)
        if _digit(text, i) or (c == "." and _digit(text, i + 1)):
            j = i
            while _digit(text, j):
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while _digit(text, j):
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
            if _digit(text, j):
                while _digit(text, j):
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

_MAX_NESTING = 100  # the parser recurses once per level, so deep nesting needs a cap
_MAX_HEIGHT = 200  # the printers and the compiler recurse once per level of the tree


def _index_value(raw: str, top: int) -> tuple[str, int]:
    """The ASCII digits ``raw`` without leading zeros, and their value, or 0
    when it is above ``top``: ``int`` refuses more than 4,300 digits, and an
    index that long is out of range anyway."""
    digits = raw.lstrip("0") or "0"
    return digits, int(digits) if len(digits) <= len(str(top)) else 0


class _Parser:
    def __init__(self, tokens: list[_Token], system: OpSysBasis):
        self.tokens = tokens
        self.i = 0
        self.system = system
        self.depth = 0
        self.height = 0  # of the node the last parse method returned

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

    def nested(self, parse, pos: int) -> FreeExpr:
        """``parse()`` one nesting level deeper, for the level opened at offset ``pos``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def grow(self, node: FreeExpr, height: int, pos: int) -> FreeExpr:
        """``node``, over children at most ``height`` deep, made by the token at offset ``pos``."""
        if height == _MAX_HEIGHT:
            raise ParseError(f"expression tree deeper than {_MAX_HEIGHT} levels", pos)
        self.height = height + 1
        return node

    def parse(self) -> FreeExpr:
        node = self.expr()
        if self.tok.kind != "eof":
            raise ParseError("unexpected trailing input", self.tok.pos)
        return node

    def expr(self) -> FreeExpr:
        node = self.term()
        while self.tok.kind in ("plus", "minus"):
            op, height = self.advance(), self.height
            node = (Add if op.kind == "plus" else Sub)(node, self.term())
            node = self.grow(node, max(height, self.height), op.pos)
        return node

    def term(self) -> FreeExpr:
        node = self.unary()
        while self.tok.kind == "star":
            pos, height = self.advance().pos, self.height
            rhs = self.unary()
            node = ScalarMul(node.value, rhs) if isinstance(node, ScalarConst) else Mul(node, rhs)
            node = self.grow(node, max(height, self.height), pos)
        return node

    def unary(self) -> FreeExpr:
        if self.tok.kind == "minus":
            pos = self.advance().pos
            return self.grow(Neg(self.nested(self.unary, pos)), self.height, pos)
        return self.postfix()

    def postfix(self) -> FreeExpr:
        node = self.atom()
        if self.tok.kind == "powinv":
            node = self.grow(Inv(node), self.height, self.advance().pos)
        return node

    def _index(self, what: str) -> tuple[str, int, int]:
        t = self.tok
        if t.kind != "scalar" or not (t.raw.isascii() and t.raw.isdigit()):
            raise ParseError(f"expected a {what} index", t.pos)
        self.advance()
        return *_index_value(t.raw, self.system.k), t.pos

    def atom(self) -> FreeExpr:
        t = self.tok
        self.height = 1
        if t.kind == "scalar":
            self.advance()
            return ScalarConst(t.value)
        if t.kind == "lparen":
            self.advance()
            node = self.nested(self.expr, t.pos)
            self.expect("rparen", "')'")
            return node
        if t.kind in ("sqrt", "inv"):
            self.advance()
            self.expect("lparen", "'('")
            node = self.nested(self.expr, t.pos)
            self.expect("rparen", "')'")
            return self.grow(Sqrt(node) if t.kind == "sqrt" else Inv(node), self.height, t.pos)
        if t.kind == "var":
            self.advance()
            digits, j = _index_value(t.raw, self.system.size)
            if not 1 <= j <= self.system.size:
                raise ParseError(
                    f"variable X{digits} out of range for system {self.system.name!r}", t.pos)
            return Var(j)
        if t.kind == "xname":
            self.advance()
            self.expect("lbrack", "'['")
            ptext, p, ppos = self._index("block row")
            self.expect("comma", "','")
            qtext, q, qpos = self._index("block column")
            self.expect("rbrack", "']'")
            k = self.system.k
            if not (1 <= p <= k and 1 <= q <= k):
                raise ParseError(
                    f"block ({ptext},{qtext}) out of range for system {self.system.name!r}",
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


_NODE_NAMES = {Var: "var", Block: "block", ScalarConst: "scalar", Add: "add", Sub: "sub",
               Mul: "mul", Neg: "neg", Inv: "inv", Sqrt: "sqrt", ScalarMul: "scalar_mul"}


def to_json(e: FreeExpr) -> dict:
    """Render an AST as nested dicts: the node name, then each field in order.

    A complex field is written as ``re`` and ``im``, a child node recursively.
    """
    out = {"node": _NODE_NAMES[type(e)]}
    for field in fields(e):
        v = getattr(e, field.name)
        if isinstance(v, complex):
            out["re"], out["im"] = v.real, v.imag
        else:
            out[field.name] = v if isinstance(v, int) else to_json(v)
    return out


# --------------------------------------------------------------------------
# Free functions and evaluation.

_CHILD_FIELDS = ("left", "right", "child")


def _step_key(v):
    # complex and float ``==`` merge 0.0 with -0.0, so scalars are keyed by their bits
    return struct.pack("<2d", v.real, v.imag) if isinstance(v, (complex, float)) else v


def _compile(grid: tuple) -> tuple[tuple, tuple]:
    """Hash-cons a grid into a straight-line program and the root step of each cell.

    A step is ``(node type, a, b)``: the node's fields in order, each child
    replaced by the index of its step, padded with ``None`` to two.  Steps are
    emitted in post-order, left to right, cell by cell, each at its first
    occurrence, so a step's children always come before it.
    """
    steps, index = [], {}

    def emit(e) -> int:
        if type(e) not in _NODE_NAMES:
            raise TypeError(f"not an expression node: {e!r}")
        args = [emit(getattr(e, f.name)) if f.name in _CHILD_FIELDS else getattr(e, f.name)
                for f in fields(e)]
        step = (type(e), *args, *[None] * (2 - len(args)))
        key = tuple(map(_step_key, step))
        if key not in index:
            index[key] = len(steps)
            steps.append(step)
        return index[key]

    roots = tuple(tuple(emit(e) for e in row) for row in grid)
    return tuple(steps), roots


@dataclass(frozen=True, eq=False)
class FreeFunction:
    """Named grid of expressions mapping points over one system to another.

    ``program`` and ``roots`` are the grid compiled by :func:`_compile`.
    """

    name: str
    in_system: OpSysBasis
    out_system: OpSysBasis
    grid: tuple
    domain: DomainSpec
    text: str = ""
    program: tuple = field(init=False, repr=False)
    roots: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ko = self.out_system.k
        if len(self.grid) != ko or any(len(row) != ko for row in self.grid):
            raise ValueError("expression grid must be k-by-k for the output system")
        program, roots = _compile(self.grid)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "roots", roots)


def function_from_expr(name: str, text: str, in_system: OpSysBasis) -> FreeFunction:
    """Wrap a single expression as a scalar-valued free function over the pd cone."""
    expr = parse(text, in_system)
    return FreeFunction(name, in_system, builtin_system("scalar"), ((expr,),),
                        opsys.pd_cone(in_system), text)


class _Run:
    """One run of a function's program over a stack of points, and along a
    stack of directions their tangents.

    ``vals[i]`` is the value of step i and ``tans[i]`` its tangent, the
    derivative of that value along the direction; ``errs`` gets each failed
    row's first error.
    """

    __slots__ = ("f", "point", "direction", "lead", "n", "vals", "tans", "errs", "_blocks")

    def __init__(self, f: FreeFunction, point: NCPoint, direction: NCPoint | None):
        self.f, self.point, self.direction = f, point, direction
        self.lead, self.n = point.coeffs.shape[:-3], point.coeffs.shape[-1]
        self.vals, self.tans, self.errs, self._blocks = [], [], {}, {}

    def block(self, p: NCPoint, row: int, col: int) -> np.ndarray:
        """Block (row, col), 1-based, of ``realize(p)``, p being the point or the direction."""
        blocks = self._blocks.get(id(p))
        if blocks is None:
            k, n = self.f.in_system.k, self.n
            blocks = self._blocks[id(p)] = opsys.realize(p).reshape(self.lead + (k, n, k, n))
        return blocks[..., row - 1, :, col - 1, :]

    def guarded(self, kernel, what: str, *args):
        """Run the kernel of an Inv or Sqrt step or of its tangent on ``args``, adding
        each failed row's error to ``errs``.

        A row keeps its first error; the kernel's domain errors become
        :class:`OutOfDomainError`.
        """
        failed = {}
        v = kernel(*args, failed)
        for row, exc in failed.items():
            if not isinstance(exc, kernels.NumericalError):
                exc = _caused(OutOfDomainError(f"{what}: {exc}"), exc)
            self.errs.setdefault(row, exc)
        return v


# node type -> (value rule, tangent rule).  The value rule of a step ``(type,
# a, b)`` is ``value(run, a, b)``, over the values of earlier steps; its
# tangent rule is ``tangent(run, a, b, v)``, v being the step's value, over
# their values and tangents: the derivative of the value rule.
_RULES = {
    Mul: (lambda r, a, b: r.vals[a] @ r.vals[b],
          lambda r, a, b, v: r.tans[a] @ r.vals[b] + r.vals[a] @ r.tans[b]),
    Var: (lambda r, a, b: r.point.coeffs[..., a - 1, :, :],
          lambda r, a, b, v: r.direction.coeffs[..., a - 1, :, :]),
    # the root's derivative solves S L + L S = K (Higham, "Functions of Matrices", sec. 6.1)
    Sqrt: (lambda r, a, b: r.guarded(kernels.principal_sqrt, "square-root branch violation",
                                     r.vals[a]),
           lambda r, a, b, v: r.guarded(kernels.sqrt_derivative, "square-root derivative", v,
                                        r.tans[a])),
    # the inverse's derivative is -V K V, V being the inverse
    Inv: (lambda r, a, b: r.guarded(kernels.safe_inv, "singular inverse", r.vals[a]),
          lambda r, a, b, v: -(v @ r.tans[a] @ v)),
    Add: (lambda r, a, b: r.vals[a] + r.vals[b], lambda r, a, b, v: r.tans[a] + r.tans[b]),
    Sub: (lambda r, a, b: r.vals[a] - r.vals[b], lambda r, a, b, v: r.tans[a] - r.tans[b]),
    Neg: (lambda r, a, b: -r.vals[a], lambda r, a, b, v: -r.tans[a]),
    ScalarMul: (lambda r, a, b: a * r.vals[b], lambda r, a, b, v: a * r.tans[b]),
    ScalarConst: (lambda r, a, b: np.broadcast_to(a * np.eye(r.n, dtype=np.complex128),
                                                  r.lead + (r.n, r.n)),
                  lambda r, a, b, v: np.zeros_like(v)),
    Block: (lambda r, a, b: r.block(r.point, a, b),
            lambda r, a, b, v: r.block(r.direction, a, b)),
}


def _run(f: FreeFunction, point: NCPoint, direction: NCPoint | None,
         errors: dict | None) -> list:
    """The points f(X) and, with a ``direction`` H, Df(X)[H], X being ``point``: see
    :func:`eval_function` and :func:`eval_derivative`."""
    if point.system.name != f.in_system.name:
        raise ValueError(
            f"point over {point.system.name!r} fed to function on {f.in_system.name!r}")
    if direction is not None and (direction.system.name != point.system.name
                                  or direction.coeffs.shape != point.coeffs.shape):
        raise ValueError("a direction must be a point of the shape of the point, over its system")
    run = _Run(f, point, direction)
    # an overflow leaves inf/nan in the output, which decode rejects as NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, a, b in f.program:
            value, tangent = _RULES[kind]
            v = value(run, a, b)
            run.vals.append(v)
            if direction is not None:
                run.tans.append(tangent(run, a, b, v))
        grids = [run.vals] if direction is None else [run.vals, run.tans]
        outs = [_assemble(f, steps, run.lead, run.n) for steps in grids]
    points = []
    for out in outs:
        failed = {}
        points.append(opsys.decode(out, f.out_system, run.n, failed))
        for row, exc in failed.items():
            if isinstance(exc, NotInImageError):
                exc = _caused(CodomainError(str(exc)), exc)
            run.errs.setdefault(row, exc)
    kernels.settle(run.errs, errors)
    return points


def _assemble(f: FreeFunction, steps: list, lead: tuple, n: int) -> np.ndarray:
    """The output grid of f from the values (or tangents) of its program's steps."""
    ko = f.out_system.k
    if ko == 1:  # one cell: decode reads its value and writes nothing
        return steps[f.roots[0][0]]
    out = np.zeros(lead + (ko * n, ko * n), dtype=np.complex128)
    for p, row in enumerate(f.roots):
        for q, r in enumerate(row):
            out[..., p * n:(p + 1) * n, q * n:(q + 1) * n] = steps[r]
    return out


def eval_function(f: FreeFunction, point: NCPoint, errors: dict | None = None) -> NCPoint:
    """Evaluate a free function at a point; output level equals input level.

    Runs the function's compiled program, so a subexpression shared within
    or across grid cells is evaluated once.  When evaluation fails, the error
    is that of the first failing subexpression in left-to-right post-order.
    Raises :class:`OutOfDomainError` on singular inverses or square-root
    branch violations, and :class:`CodomainError` when the assembled value
    does not decode into the output system within 1e-9; a value that
    overflows raises :class:`~freemono.kernels.NonFiniteError`.

    The program runs once, on ``(..., n, n)`` arrays of the points' leading
    shape, and each point gets the value it would get alone.  A point whose
    evaluation fails is handed to :func:`~freemono.kernels.settle` with its
    first error and gets a finite stand-in value.
    """
    return _run(f, point, None, errors)[0]


def eval_derivative(f: FreeFunction, point: NCPoint, direction: NCPoint,
                    errors: dict | None = None) -> tuple[NCPoint, NCPoint]:
    """f(X) and its derivative Df(X)[H] at X = ``point`` along H = ``direction``,
    a point of the same level and leading shape over f's input system.

    One run of the program carries each step's tangent beside its value by
    the rule of its node (forward differentiation): a product's is
    A'B + AB', an inverse's -V K V with V the inverse, a square root's the
    solution L of S L + L S = K (:func:`~freemono.kernels.sqrt_derivative`),
    and every other node is linear.  Errors are as :func:`eval_function`'s,
    a step's tangent failing after its value; the derivative decodes into
    the output system as the value does, and a failed row's is a finite
    stand-in.
    """
    return tuple(_run(f, point, direction, errors))


def _caused(exc, cause):
    exc.__cause__ = cause
    return exc


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


@functools.cache
def catalog(name: str) -> FreeFunction:
    """Look up a named free function; all entries map into the scalar system.

    Parsed and compiled at its first use, then shared: each call with one
    name returns the same frozen function.
    """
    try:
        text, sys_name = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog function {name!r}") from None
    return function_from_expr(name, text, builtin_system(sys_name))
