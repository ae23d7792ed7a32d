"""Tiny arithmetic expression language for vertex-indexed weights.

Grammar: integer and decimal literals, the variable ``n``, unary minus,
``+ - * / ^``, parentheses, and the functions ``sqrt``, ``abs``, ``min``,
``max``.  ``^`` is right-associative and binds tighter than unary minus,
which binds tighter than ``*`` and ``/``, which bind tighter than ``+`` and
``-``.  There is deliberately no state and no user-defined function.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    kind: str  # "num" | "name" | "op"
    text: str
    pos: int


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif ch in "+-*/^(),":
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self):
        node = self.sum_expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
        return node

    def sum_expr(self):
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in "+-":
            self.take()
            node = BinOp(tok.text, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.text in "*/":
            self.take()
            node = BinOp(tok.text, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
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
                self.expect("(")
                args = [self.sum_expr()]
                while (nxt := self.peek()) is not None and nxt.kind == "op" and nxt.text == ",":
                    self.take()
                    args.append(self.sum_expr())
                self.expect(")")
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
            node = self.sum_expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)


def parse_expr(text: str) -> ExprAst:
    return _Parser(text).parse()


def eval_expr(node: ExprAst, n) -> float:
    """Evaluate an expression tree at the integer ``n``.

    Intermediate values may overflow to inf (``*`` does not raise), but a
    non-finite result raises :class:`ExprEvalError`.
    """
    value = _eval(node, n)
    if not math.isfinite(value):
        raise ExprEvalError(f"non-finite result {value}", n)
    return value


def _eval(node: ExprAst, n) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(n)
    if isinstance(node, Neg):
        return -_eval(node.operand, n)
    if isinstance(node, BinOp):
        a = _eval(node.left, n)
        b = _eval(node.right, n)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return math.pow(a, b)
        except ZeroDivisionError:
            raise ExprEvalError("division by zero", n) from None
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(str(exc), n) from None
    if isinstance(node, Call):
        args = [_eval(a, n) for a in node.args]
        try:
            if node.func == "sqrt":
                return math.sqrt(args[0])
            if node.func == "abs":
                return abs(args[0])
            if node.func == "min":
                return min(args)
            return max(args)
        except ValueError as exc:
            raise ExprEvalError(str(exc), n) from None
    raise TypeError(f"not an expression node: {node!r}")


def compile_expr(node: ExprAst):
    """Compile an expression tree to a plain ``n -> float`` closure.

    Equivalent to ``eval_expr`` (tested against it) but avoids the dispatch
    cost, which matters when a lazy graph family evaluates its weight
    expressions once per visited vertex.  The closure does not check that
    its result is finite; :func:`compile_text` does.
    """
    if isinstance(node, Num):
        c = node.value
        return lambda n: c
    if isinstance(node, Var):
        return float
    if isinstance(node, Neg):
        f = compile_expr(node.operand)
        return lambda n: -f(n)
    if isinstance(node, BinOp):
        fa = compile_expr(node.left)
        fb = compile_expr(node.right)
        op = node.op
        if op == "+":
            return lambda n: fa(n) + fb(n)
        if op == "-":
            return lambda n: fa(n) - fb(n)
        if op == "*":
            return lambda n: fa(n) * fb(n)
        if op == "/":
            return lambda n: fa(n) / fb(n)
        return lambda n: math.pow(fa(n), fb(n))
    if isinstance(node, Call):
        fs = [compile_expr(a) for a in node.args]
        if node.func == "sqrt":
            f0 = fs[0]
            return lambda n: math.sqrt(f0(n))
        if node.func == "abs":
            f0 = fs[0]
            return lambda n: abs(f0(n))
        if node.func == "min":
            return lambda n: min(f(n) for f in fs)
        return lambda n: max(f(n) for f in fs)
    raise TypeError(f"not an expression node: {node!r}")


def compile_text(text: str):
    """Parse and compile in one step, wrapping runtime errors uniformly.

    Like :func:`eval_expr`, the evaluator rejects a non-finite result.
    """
    fn = compile_expr(parse_expr(text))
    isfinite = math.isfinite

    def evaluate(n):
        try:
            value = fn(n)
        except ZeroDivisionError:
            raise ExprEvalError(f"division by zero in {text!r}", n) from None
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{exc} in {text!r}", n) from None
        if not isfinite(value):
            raise ExprEvalError(f"non-finite result {value} in {text!r}", n)
        return value

    return evaluate
