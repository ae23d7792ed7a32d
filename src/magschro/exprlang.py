"""Tiny arithmetic expression language for vertex-indexed weights.

Grammar: integer and decimal literals with an optional exponent
(``2``, ``0.5``, ``.5``, ``1e9``, ``2.5E-3``), the variable ``n``, unary minus,
``+ - * / ^``, parentheses, and the functions ``sqrt``, ``abs``, ``min``,
``max``.  ``^`` is right-associative and binds tighter than unary minus,
which binds tighter than ``*`` and ``/``, which bind tighter than ``+`` and
``-``.  There is deliberately no state and no user-defined function.
Digits are decimal digits, in any script that ``float`` reads, so ``²`` is
an unexpected character.  Nesting too deep for the parser is an
:class:`ExprSyntaxError`, and a tree too deep to evaluate an :class:`ExprEvalError`.
One tree walker evaluates an expression at an integer ``n`` in Python
floats, or over an array of them in numpy arithmetic, bit for bit the same.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: object


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Call(NamedTuple):
    func: str
    args: tuple


ExprAst = object

_FUNCTIONS = {"sqrt": 1, "abs": 1, "min": None, "max": None}  # None: two or more args


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


#: one token per match: a number, a name, an operator, blanks, or any other character;
#: ``\d`` is ``str.isdecimal``, ``\w`` is ``str.isalnum`` or ``_``, ``\s`` is ``str.isspace``
_TOKEN = re.compile(r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+|(?P<bare>[eE][+-]?))?)"
                    r"|(?P<name>\w+)|(?P<op>[-+*/^(),])|(?P<blank>\s+)|.", re.DOTALL)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if m["bare"]:
            raise ExprSyntaxError("exponent without digits in number literal", pos)
        if kind is None or kind == "name" and not (text[pos].isalpha() or text[pos] == "_"):
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if kind != "blank":
            tokens.append(_Token(kind, m[0], pos))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ops=None):
        """The next token; given ``ops``, None unless it is one of those operators."""
        tok = self.tokens[self.i]
        return tok if ops is None or tok.kind == "op" and tok.text in ops else None

    def take(self, op=None):
        """The next token, consumed; given ``op``, it must be that operator."""
        tok = self.peek()
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of expression", tok.pos)
        if op is not None and (tok.kind != "op" or tok.text != op):
            raise ExprSyntaxError(f"expected {op!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self):
        node = self.chain()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
        return node

    def chain(self, ops="+-"):
        """A left-associative chain of ``ops``: ``+ -`` joins ``* /`` chains,
        which join unary operands."""
        node = self.chain("*/") if ops == "+-" else self.unary()
        while tok := self.peek(ops):
            self.take()
            node = BinOp(tok.text, node, self.chain("*/") if ops == "+-" else self.unary())
        return node

    def unary(self):
        if self.peek("-"):
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek("^"):
            self.take()
            # right-associative; allow a signed exponent
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.take()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text in _FUNCTIONS:
                self.take("(")
                args = [self.chain()]
                while self.peek(","):
                    self.take()
                    args.append(self.chain())
                self.take(")")
                arity = _FUNCTIONS[tok.text]
                if arity is not None and len(args) != arity:
                    raise ExprSyntaxError(f"{tok.text} takes {arity} argument(s)", tok.pos)
                if arity is None and len(args) < 2:
                    raise ExprSyntaxError(f"{tok.text} takes at least two arguments", tok.pos)
                return Call(tok.text, tuple(args))
            if tok.text == "n":
                return Var("n")
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.chain()
            self.take(")")
            return node
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)


def parse_expr(text: str) -> ExprAst:
    """The tree of ``text``; nesting past Python's recursion limit is a syntax error."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None


def eval_expr(node: ExprAst, n) -> float:
    """Evaluate an expression tree at the integer ``n``.

    Intermediate values may overflow to inf (``*`` does not raise), but a
    non-finite result raises :class:`ExprEvalError`.
    """
    return _evaluate(node, n, "")


def _evaluate(node: ExprAst, n, where: str) -> float:
    """:func:`eval_expr` with ``where`` appended to every error message."""
    try:
        value = _eval(node, n)
    except ZeroDivisionError:
        raise ExprEvalError(f"division by zero{where}", n) from None
    except (ValueError, OverflowError) as exc:
        raise ExprEvalError(f"{exc}{where}", n) from None
    except RecursionError:
        raise ExprEvalError(f"expression nested too deeply{where}", n) from None
    if not math.isfinite(value):
        raise ExprEvalError(f"non-finite result {value}{where}", n)
    return value


_ARRAY = np.ndarray  # one global lookup, not two, in the scalar walk's type tests


def _eval(node: ExprAst, n):
    """The value of ``node`` at the int ``n``, or element-wise over the float64 array ``n``.

    Scalars stay Python floats.  ``+ - *``, negation and ``abs`` are Python's
    operators, which arrays share; ``/``, ``^``, ``sqrt``, ``min`` and ``max``
    take Python's float path when every operand is a float, else an array
    path that is IEEE-identical element by element (:func:`power` for ``^``)
    and raises Python's exception where any element would.
    """
    kind = type(node)  # the nodes come from the parser: no subclasses
    if kind is BinOp:  # a loop down the left spine, so long chains need no deep stack
        spine = []
        while type(node) is BinOp:
            spine.append(node)
            node = node.left
        a = _eval(node, n)
        while spine:
            node = spine.pop()
            b, op = _eval(node.right, n), node.op
            if op == "^":
                a = math.pow(a, b) if type(a) is type(b) is float else power(a, b, len(n))
            elif op == "*":
                a = a * b
            elif op == "+":
                a = a + b
            elif op == "-":
                a = a - b
            elif type(a) is type(b) is float or not np.any(b == 0):  # numpy gives inf or NaN
                a = a / b
            else:
                raise ZeroDivisionError("float division by zero")
        return a
    if kind is Var:
        return n if type(n) is _ARRAY else float(n)
    if kind is Num:
        return node.value
    if kind is Neg:
        return -_eval(node.operand, n)
    if kind is Call:
        args = [_eval(a, n) for a in node.args]
        func = node.func
        if func == "abs":
            return abs(args[0])
        if func == "sqrt":
            if type(args[0]) is float:
                return math.sqrt(args[0])
            if np.any(args[0] < 0):
                raise ValueError("math domain error")
            return np.sqrt(args[0])
        cur = args[0]
        for b in args[1:]:  # first wins, as in Python's min and max
            take = b < cur if func == "min" else b > cur
            cur = (b if take else cur) if type(take) is bool else np.where(take, b, cur)
        return cur
    raise TypeError(f"not an expression node: {node!r}")


#: elements per block of an array evaluation; bounds the Python lists ``^`` builds
_CHUNK = 1 << 16

#: the largest exponent that :func:`power` tries by multiplication: 2**52 is
#: the largest power of an integer base of magnitude 2 or more below 2**53
_EXACT_MAX = 52


def power(base, exponent, count):
    """``base ** exponent`` over ``count`` elements through ``math.pow``, as
    Python floats compute it; either side may be a scalar.

    numpy's ``power`` differs from ``math.pow`` in the last bit on some
    inputs (for example ``x ** -0.5`` and ``x ** 2``).  A float64 array
    raised to a scalar integer 0.._EXACT_MAX is multiplied out, and the
    product kept where the base is integral (``b == trunc(b)``) and the
    product below 2**53 in magnitude: there every partial product is an
    exact integer, so both give the exact power.  Every other element (NaN,
    non-integral, a product at or above 2**53 or overflowing) goes through
    ``math.pow``, which raises ``OverflowError`` on overflow.
    """
    if (np.ndim(base) and not np.ndim(exponent) and base.dtype == np.float64
            and float(exponent).is_integer() and 0 <= exponent <= _EXACT_MAX):
        out = np.ones(count)
        with np.errstate(over="ignore"):
            for _ in range(int(exponent)):
                out *= base
        slow = np.flatnonzero(~((np.abs(out) < 2.0 ** 53) & (base == np.trunc(base))))
        out[slow] = np.fromiter(map(math.pow, base[slow].tolist(), repeat(float(exponent))),
                                float, count=len(slow))
        return out
    base = base.tolist() if np.ndim(base) else repeat(float(base))
    exponent = exponent.tolist() if np.ndim(exponent) else repeat(float(exponent))
    return np.fromiter(map(math.pow, base, exponent), float, count=count)


def compile_text(text: str):
    """Parse ``text`` once and return its evaluator.

    The evaluator takes an ``int`` (evaluated by :func:`eval_expr`) or an
    int64 array, which the same walker evaluates element-wise, bit for bit
    the same, in blocks of ``_CHUNK``; ``^`` multiplies out small integer
    powers of integral bases below 2**53, which is exact (:func:`power`).
    Errors are those of :func:`eval_expr` with the text appended; a block
    that raises or holds a non-finite value is re-run one element at a
    time, so the error raised is that of the smallest failing element.
    """
    node = parse_expr(text)
    where = f" in {text!r}"

    def evaluate(n):
        if type(n) is not _ARRAY:
            return _evaluate(node, n, where)
        out = np.empty(len(n))
        for start in range(0, len(n), _CHUNK):
            block = n[start:start + _CHUNK]
            try:
                with np.errstate(all="ignore"):
                    values = _eval(node, block.astype(float))
                finite = np.all(np.isfinite(values))
            except (ArithmeticError, ValueError, RecursionError):
                finite = False
            if not finite:
                for m in block.tolist():  # errors are rare: find the first one
                    _evaluate(node, m, where)
                raise AssertionError(f"array evaluation of {text!r} disagrees with eval_expr")
            out[start:start + len(block)] = values
        return out

    return evaluate
