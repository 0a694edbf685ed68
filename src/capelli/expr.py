"""Surface syntax for operator expressions.

Grammar (whitespace insensitive, left associative):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := 'f' | 'theta' | 'delta' | rational | '(' expr ')'

Rationals are nonnegative 'p/q' or integer literals; exponents are
nonnegative integer literals; parentheses nest at most MAX_NESTING deep.
fmt_expr is a strict inverse of parse_expr on the trees the grammar can
produce, and raises ValueError on a negative literal, which it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AElement, APresentation, a_add, a_mul, a_pow, a_sub

MAX_EXPONENT = 10 ** 6
# the parser recurses four frames per parenthesis level, so this keeps
# nesting well inside Python's recursion limit
MAX_NESTING = 100


class ExprError(ValueError):
    """Syntax error with a position into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Sym:
    name: str           # 'f' | 'theta' | 'delta'


@dataclass(frozen=True)
class RatLit:
    value: Fraction


@dataclass(frozen=True)
class BinOp:
    op: str             # '+' | '-' | '*'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


# -- lexer ----------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            # isdecimal is exactly what int() accepts: superscripts such as
            # '²' pass isdigit but are not numerals
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i + 1 < n and text[i] == "/" and text[i + 1].isdecimal():
                i += 1
                while i < n and text[i].isdecimal():
                    i += 1
            tokens.append(("NUM", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            word = text[start:i]
            if word not in ("f", "theta", "delta"):
                raise ExprError(f"unknown name {word!r}", start)
            tokens.append(("SYM", word, start))
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


# -- parser ---------------------------------------------------------------


def _numeral(digits: str, pos: int) -> int:
    """int(digits), as a syntax error when it exceeds the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ExprError(f"numeral too long ({len(digits)} digits)", pos) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExprError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("NUM")
            if "/" in tok[1]:
                raise ExprError("exponent must be a nonnegative integer", tok[2])
            k = _numeral(tok[1], tok[2])
            if k > MAX_EXPONENT:
                raise ExprError(f"exponent overflow (> {MAX_EXPONENT})", tok[2])
            node = Pow(node, k)
        return node

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "SYM":
            self.advance()
            return Sym(tok[1])
        if kind == "NUM":
            self.advance()
            if "/" in tok[1]:
                num, den = (_numeral(part, tok[2]) for part in tok[1].split("/"))
                if den == 0:
                    raise ExprError("zero denominator", tok[2])
                return RatLit(Fraction(num, den))
            return RatLit(Fraction(_numeral(tok[1], tok[2])))
        if kind == "(":
            if self.nesting == MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.advance()
            self.nesting += 1
            node = self.expr()
            self.nesting -= 1
            self.expect(")")
            return node
        raise ExprError(f"expected an atom, found {tok[1]!r}", tok[2])


def parse_expr(text: str):
    """Parse source text into a syntax tree."""
    return _Parser(text).parse()


# -- printer --------------------------------------------------------------

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_ATOM = 4


def _fmt(node, parent_level: int) -> str:
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, RatLit):
        if node.value < 0:
            raise ValueError(f"negative literal {node.value}: the grammar has no unary minus")
        return str(node.value)
    if isinstance(node, Pow):
        # the grammar only allows atoms as bases
        if isinstance(node.base, (Sym, RatLit)):
            base = _fmt(node.base, _LEVEL_ATOM)
        else:
            base = "(" + _fmt(node.base, 0) + ")"
        # never wrapped: a power is never the operand of a tighter binding
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        # walk the left spine iteratively: a flat a + b + ... chain is a
        # left-deep tree, one level per operator
        spine = []
        while isinstance(node, BinOp):
            level = _LEVEL_ADD if node.op in "+-" else _LEVEL_MUL
            spine.append((node, level, level < parent_level))
            node, parent_level = node.left, level
        parts = [_fmt(node, parent_level)]
        opens = 0
        for node, level, wrap in reversed(spine):
            # left associative: the right operand binds one level tighter
            right = _fmt(node.right, level + 1)
            parts += (f" {node.op} " if level == _LEVEL_ADD else node.op, right)
            if wrap:
                opens += 1
                parts.append(")")
        return "(" * opens + "".join(parts)
    raise TypeError(f"not an expression node: {node!r}")


def fmt_expr(node) -> str:
    """Render a tree back to source; parse_expr(fmt_expr(e)) == e.

    A negative RatLit raises ValueError: no source text parses to one (the
    grammar has no unary minus), and neither parse_expr nor element_to_expr
    builds one.
    """
    return _fmt(node, 0)


# -- evaluation into the quotient algebra ----------------------------------


def eval_expr(node, pres: APresentation) -> AElement:
    if isinstance(node, Sym):
        return AElement.generator(pres, node.name)
    if isinstance(node, RatLit):
        return AElement.scalar(pres, node.value)
    if isinstance(node, Pow):
        return a_pow(eval_expr(node.base, pres), node.exponent)
    if isinstance(node, BinOp):
        # walk the left spine iteratively, as _fmt does
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        acc = eval_expr(node, pres)
        for node in reversed(spine):
            right = eval_expr(node.right, pres)
            if node.op == "+":
                acc = a_add(acc, right)
            elif node.op == "-":
                acc = a_sub(acc, right)
            else:
                acc = a_mul(acc, right)
        return acc
    raise TypeError(f"not an expression node: {node!r}")


def element_to_expr(x: AElement):
    """Render a normal-form element as a syntax tree in the shared grammar."""
    terms = []
    for key in sorted(x.parts, reverse=True):
        cs = x.parts[key].coeffs
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if c == 0:
                continue
            factors = []
            if abs(c) != 1 or (k == 0 and key == 0):
                factors.append(RatLit(Fraction(abs(c))))
            if key > 0:
                fe = Sym("f") if key == 1 else Pow(Sym("f"), key)
                factors.append(fe)
            if k > 0:
                te = Sym("theta") if k == 1 else Pow(Sym("theta"), k)
                factors.append(te)
            if key < 0:
                de = Sym("delta") if key == -1 else Pow(Sym("delta"), -key)
                factors.append(de)
            node = factors[0]
            for fct in factors[1:]:
                node = BinOp("*", node, fct)
            terms.append((c < 0, node))
    if not terms:
        return RatLit(Fraction(0))
    negative, node = terms[0]
    if negative:
        # the grammar has no unary minus; lead with an explicit zero
        node = BinOp("-", RatLit(Fraction(0)), node)
    for negative, term in terms[1:]:
        node = BinOp("-" if negative else "+", node, term)
    return node
