"""The hand-indexed expression tokenizer and parser, kept as the oracle for the regex front end.

This is :mod:`magschro.exprlang`'s ``_tokenize``, ``_Parser`` and
``parse_expr`` as they were before tokens were read by one regular
expression and the ``+ -`` and ``* /`` levels shared one loop.  Its trees
are :mod:`magschro.exprlang`'s node types.  It reads digits with
``str.isdigit``, so a character such as ``"\u00b2"`` reaches ``float`` and
raises ``ValueError``, and deep nesting raises ``RecursionError``.
"""

from magschro.errors import ExprSyntaxError
from magschro.exprlang import _FUNCTIONS, BinOp, Call, ExprAst, Neg, Num, Var, _Token


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
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if not (k < len(text) and text[k].isdigit()):
                    raise ExprSyntaxError("exponent without digits in number literal", i)
                while k < len(text) and text[k].isdigit():
                    k += 1
                j = k
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
