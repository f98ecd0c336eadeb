"""Concrete syntax: tokenizer and recursive-descent parser.

Statements are separated by `;`, blocks live in `{ }`, and `#` starts a
comment running to end of line.  Variables default to real; an `:int`
suffix (sticky per name across the program) selects the integer type.
Operator calls are kind-checked against the primitive table while parsing,
so a well-parsed program cannot mis-apply an operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseFailure
from .evalexpr import expr_kind
from .ops import TABLE
from .syntax import (INT, REAL, Assign, Cmd, Expr, ExtendedLoopShift,
                     ExtendIndex, Fetch, For, Ifz, IndexExpr, IntLit,
                     LookupIndex, LoopFixpt, PrimOp, RealLit, Score, Shift,
                     Skip, Var, Variable, seq, validate_tier)

KEYWORDS = {
    "skip", "score", "fetch", "ifz", "else", "for", "in", "range",
    "loop_fixpt_noacc", "extend_index", "lookup_index", "shift",
    "extended_loop_with_shift", "int", "real",
}
OP_NAMES = {op for op, _ in TABLE}
# Deepest nesting of blocks, parentheses, operator calls and operator chains.
# Parsing takes up to five Python frames per level and every later tree walk
# one or two, so this keeps all of them far below the recursion limit.
MAX_DEPTH = 100

_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<real>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<assign>:=)
  | (?P<punct>[][(){};,:%*/+\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseFailure(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.var_types: dict[str, str] = {}

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseFailure(tok.line, tok.col, message)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def descend(self) -> None:
        """Enter one more level of nesting; too deep is a parse error."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nesting deeper than {MAX_DEPTH} levels")

    # -- statements ----------------------------------------------------------

    def program(self) -> Cmd:
        cmd = self.stmt_list()
        self.expect("")
        return cmd

    def stmt_list(self) -> Cmd:
        items = [self.stmt()]
        while self.at(";"):
            while self.at(";"):
                self.next()
            if self.peek().kind == "eof" or self.at("}"):
                break
            items.append(self.stmt())
        return seq(*items)

    def block(self) -> Cmd:
        self.expect("{")
        self.descend()
        cmd = self.stmt_list()
        self.depth -= 1
        self.expect("}")
        return cmd

    def stmt(self) -> Cmd:
        tok = self.peek()
        if tok.text == "skip":
            self.next()
            return Skip()
        if tok.text == "score":
            self.next()
            self.expect("(")
            expr = self.expr(want=REAL)
            self.expect(")")
            return Score(expr)
        if tok.text == "ifz":
            self.next()
            cond = self.expr(want=INT)
            then = self.block()
            self.expect("else")
            orelse = self.block()
            return Ifz(cond, then, orelse)
        if tok.text == "for":
            self.next()
            var = self.variable(declare=INT)
            self.expect("in")
            self.expect("range")
            self.expect("(")
            count = self.int_literal(positive=True)
            self.expect(")")
            return For(var, count, self.block())
        if tok.text == "loop_fixpt_noacc":
            self.next()
            self.expect("(")
            count = self.int_literal(positive=True)
            self.expect(")")
            return LoopFixpt(count, self.block())
        if tok.text == "extend_index":
            self.next()
            self.expect("(")
            name = self.string(allow_reserved=True)
            self.expect(",")
            count = self.int_literal(positive=True)
            self.expect(")")
            return ExtendIndex(name, count, self.block())
        if tok.text == "extended_loop_with_shift":
            self.next()
            self.expect("(")
            name = self.string(allow_reserved=True)
            self.expect(",")
            count = self.int_literal(positive=True)
            self.expect(")")
            return ExtendedLoopShift(name, count, self.block())
        if tok.text == "shift":
            self.next()
            self.expect("(")
            name = self.string(allow_reserved=True)
            self.expect(")")
            return Shift(name)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            var = self.variable()
            self.expect(":=")
            if self.at("fetch"):
                self.next()
                self.expect("(")
                index = self.index_expr()
                self.expect(")")
                self.check_var(var, REAL, tok)
                return Fetch(var, index)
            if self.at("lookup_index"):
                self.next()
                self.expect("(")
                name = self.string(allow_reserved=True)
                self.expect(")")
                self.check_var(var, INT, tok)
                return LookupIndex(var, name)
            expr = self.expr()
            self.check_var(var, expr_kind(expr), tok)
            return Assign(var, expr)
        self.fail(f"expected a statement, found {tok.text!r}", tok)

    def check_var(self, var: Variable, kind: str, tok: Token) -> None:
        if var.type != kind:
            self.fail(f"variable {var.name} has type {var.type}, got {kind}", tok)

    def variable(self, declare: str | None = None) -> Variable:
        tok = self.next()
        if tok.kind != "ident" or tok.text in KEYWORDS or tok.text in OP_NAMES:
            self.fail(f"expected a variable name, found {tok.text!r}", tok)
        name = tok.text
        vtype = None
        if self.at(":"):
            self.next()
            type_tok = self.next()
            if type_tok.text not in (INT, REAL):
                self.fail("expected int or real after ':'", type_tok)
            vtype = type_tok.text
        if vtype is None:
            vtype = declare or self.var_types.get(name, REAL)
        known = self.var_types.setdefault(name, vtype)
        if known != vtype:
            self.fail(f"variable {name} was {known}, now {vtype}", tok)
        if declare is not None and vtype != declare:
            self.fail(f"variable {name} must be {declare} here", tok)
        return Variable(name, vtype)

    def int_literal(self, positive: bool = False) -> int:
        tok = self.next()
        if tok.kind != "int":
            self.fail("expected an integer literal", tok)
        value = int(tok.text)
        if positive and value < 1:
            self.fail("count must be at least 1", tok)
        return value

    def string(self, allow_reserved: bool = False) -> str:
        tok = self.next()
        if tok.kind != "string":
            self.fail("expected a string literal", tok)
        value = tok.text[1:-1]
        if not value:
            self.fail("empty string not allowed", tok)
        if value.startswith("$") and not allow_reserved:
            self.fail('strings starting with "$" are reserved', tok)
        return value

    # -- expressions ---------------------------------------------------------

    def expr(self, want: str | None = None) -> Expr:
        tok = self.peek()
        self.descend()
        e = self.additive()
        self.depth -= 1
        if want is not None and expr_kind(e) != want:
            self.fail(f"expected a {want} expression", tok)
        return e

    def additive(self) -> Expr:
        depth = self.depth
        e = self.multiplicative()
        while self.peek().text in ("+", "-"):
            op = "add" if self.next().text == "+" else "sub"
            self.descend()  # a left-nested chain deepens with every operator
            e = self.binop(op, e, self.multiplicative())
        self.depth = depth
        return e

    def multiplicative(self) -> Expr:
        depth = self.depth
        e = self.unary()
        while self.peek().text in ("*", "/", "%"):
            sym = self.next().text
            op = {"*": "mul", "/": "div", "%": "mod"}[sym]
            self.descend()
            e = self.binop(op, e, self.unary())
        self.depth = depth
        return e

    def binop(self, op: str, left: Expr, right: Expr) -> Expr:
        tok = self.peek()
        kinds = (expr_kind(left), expr_kind(right))
        if (op, kinds) not in TABLE:
            self.fail(f"no operator {op} on {kinds}", tok)
        return PrimOp(op, (left, right))

    def unary(self) -> Expr:
        if self.at("-"):
            tok = self.next()
            self.descend()
            inner = self.unary()
            self.depth -= 1
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            if isinstance(inner, RealLit):
                return RealLit(-inner.value)
            if expr_kind(inner) == REAL:
                return PrimOp("neg", (inner,))
            self.fail("unary minus needs a literal or real expression", tok)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "real":
            self.next()
            return RealLit(float(tok.text))
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if tok.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.text == "[":
            return self.index_expr()
        if tok.kind == "ident" and tok.text in OP_NAMES:
            self.next()
            self.expect("(")
            args = [self.expr()]
            while self.at(","):
                self.next()
                args.append(self.expr())
            self.expect(")")
            kinds = tuple(expr_kind(a) for a in args)
            if (tok.text, kinds) not in TABLE:
                self.fail(f"no operator {tok.text} on {kinds}", tok)
            return PrimOp(tok.text, tuple(args))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            return Var(self.variable())
        self.fail(f"expected an expression, found {tok.text!r}", tok)

    def index_expr(self) -> IndexExpr:
        open_tok = self.expect("[")
        pairs: list[tuple[str, Expr]] = []
        if not self.at("]"):
            pairs.append(self.index_pair())
            while self.at(";"):
                self.next()
                pairs.append(self.index_pair())
        self.expect("]")
        names = [name for name, _ in pairs]
        if len(names) != len(set(names)):
            self.fail("index expression repeats a string", open_tok)
        return IndexExpr(tuple(pairs))

    def index_pair(self) -> tuple[str, Expr]:
        self.expect("(")
        name = self.string()
        self.expect(",")
        z = self.expr(want=INT)
        self.expect(")")
        return name, z


def parse(text: str, tier: str = "source") -> Cmd:
    cmd = _Parser(text).program()
    validate_tier(cmd, tier)
    return cmd
