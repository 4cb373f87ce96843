"""Text language for pattern expressions.

Grammar (whitespace insignificant)::

    expr   := term { ('+' | '-') term }
    term   := factor [ '/' factor ]
    factor := atom { ['*'] atom }
    atom   := '1' | var | '(' expr ')'
    var    := ('x' | 'y') ['^' signedInt]

'-' means the same as '+' (coefficients live in GF(2)), '*' between
atoms is optional ("xy^2" equals "x*y^2"), and a parenthesized
expression used as an atom must be a plain polynomial: division does not
nest.  Error messages carry 0-based character offsets.

Evaluation on a window is mode-dependent.  In window mode every term
num/den expands as a power series truncated to the rectangle.  In wrap
mode the grid is the (m+1) x (n+1) torus and division multiplies by the
ring inverse of the denominator, an operation that succeeds exactly for
unit denominators.
"""

from __future__ import annotations

from .poly import ONE, Frozen, PatternPoly, Window
from .ring import QuotientRing
from .series import RationalTerm, eval_sum


class ParseError(ValueError):
    """A tokenizer or parser failure, carrying the 0-based offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.message = message
        self.pos = pos


class Token(Frozen):
    """One lexeme: its kind ("int", "var", "op", "lparen" or "rparen"), value and offset."""

    __slots__ = __match_args__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: object, pos: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "pos", pos)


def tokenize(text: str) -> list[Token]:
    """Split an expression into tokens; raises ParseError on junk."""
    tokens: list[Token] = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        signed = (
            ch in "+-"
            and tokens
            and tokens[-1].kind == "op"
            and tokens[-1].value == "^"
            and k + 1 < len(text)
            and text[k + 1].isdigit()
        )
        if ch.isdigit() or signed:
            start = k
            if signed:
                k += 1
            while k < len(text) and text[k].isdigit():
                k += 1
            tokens.append(Token("int", int(text[start:k]), start))
        elif ch in "xy":
            tokens.append(Token("var", ch, k))
            k += 1
        elif ch in "+-*/^":
            tokens.append(Token("op", ch, k))
            k += 1
        elif ch == "(":
            tokens.append(Token("lparen", ch, k))
            k += 1
        elif ch == ")":
            tokens.append(Token("rparen", ch, k))
            k += 1
        else:
            raise ParseError(f"unknown character {ch!r}", k)
    return tokens


class Term(Frozen):
    """One summand: a polynomial, optionally divided by another.

    ``pos`` and ``div_pos`` are the offsets of the term and of its '/' in
    the source text; ``==`` and ``hash`` ignore them.
    """

    __slots__ = __match_args__ = ("numerator", "denominator", "pos", "div_pos")

    def __init__(self, numerator: PatternPoly, denominator: PatternPoly | None = None,
                 pos: int = 0, div_pos: int | None = None):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "div_pos", div_pos)

    def _key(self) -> tuple:
        return (self.numerator, self.denominator)


class PatternExpr(Frozen):
    """A parsed sum of rational terms."""

    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: tuple[Term, ...]):
        object.__setattr__(self, "terms", terms)

    def to_text(self) -> str:
        return " + ".join(_term_to_text(t) for t in self.terms)

    def __str__(self) -> str:
        return self.to_text()


def _poly_to_factor_text(p: PatternPoly) -> str:
    if not p:
        return "(1+1)"  # the zero polynomial has no literal of its own
    return str(p) if len(p) == 1 else f"({p})"


def _term_to_text(t: Term) -> str:
    text = _poly_to_factor_text(t.numerator)
    if t.denominator is not None:
        text += f"/{_poly_to_factor_text(t.denominator)}"
    return text


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0

    def peek(self) -> Token | None:
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def here(self) -> int:
        tok = self.peek()
        return tok.pos if tok is not None else len(self.text)

    def fail(self, message: str):
        raise ParseError(message, self.here())

    def parse(self) -> PatternExpr:
        terms = self.expr()
        if self.peek() is not None:
            self.fail(f"unexpected {self.peek().value!r}")
        return PatternExpr(tuple(terms))

    def expr(self) -> list[Term]:
        terms = [self.term()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.value in "+-":
                self.advance()
                terms.append(self.term())
            else:
                return terms

    def term(self) -> Term:
        start = self.here()
        numerator = self.factor()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value == "/":
            div_pos = self.advance().pos
            denominator = self.factor()
            if not denominator:
                raise ParseError("denominator is the zero polynomial", div_pos)
            return Term(numerator, denominator, pos=start, div_pos=div_pos)
        return Term(numerator, pos=start)

    def factor(self) -> PatternPoly:
        product = self.atom()
        while True:
            tok = self.peek()
            if tok is None:
                return product
            if tok.kind == "op" and tok.value == "*":
                self.advance()
                product = product * self.atom()
            elif tok.kind in ("int", "var", "lparen"):
                product = product * self.atom()  # juxtaposition
            else:
                return product

    def atom(self) -> PatternPoly:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        if tok.kind == "int":
            if tok.value != 1:
                raise ParseError("the only numeric literal is 1", tok.pos)
            self.advance()
            return ONE
        if tok.kind == "var":
            self.advance()
            exponent = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.value == "^":
                self.advance()
                etok = self.peek()
                if etok is None or etok.kind != "int":
                    self.fail("exponent must be an integer")
                exponent = self.advance().value
            if tok.value == "x":
                return PatternPoly.monomial(exponent, 0)
            return PatternPoly.monomial(0, exponent)
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            closing = self.peek()
            if closing is None or closing.kind != "rparen":
                self.fail("expected ')'")
            self.advance()
            value = PatternPoly()
            for t in inner:
                if t.denominator is not None:
                    raise ParseError("nested division", t.div_pos)
                value = value + t.numerator
            return value
        self.fail(f"unexpected {tok.value!r}")


def parse(text: str) -> PatternExpr:
    """Parse an expression; raises ParseError with the failing offset."""
    return _Parser(text).parse()


def parse_poly(text: str) -> PatternPoly:
    """Parse a plain polynomial (an expression without division)."""
    expr = parse(text)
    total = PatternPoly()
    for t in expr.terms:
        if t.denominator is not None:
            raise ValueError("expected a plain polynomial, found a division")
        total = total + t.numerator
    return total


def evaluate(expr: PatternExpr, window: Window) -> PatternPoly:
    """Evaluate a parsed expression on a window, honoring its mode."""
    if window.mode == "wrap":
        ring = QuotientRing(window.m + 1, window.n + 1)
        acc = PatternPoly()
        for idx, t in enumerate(expr.terms):
            numerator = ring.reduce(t.numerator)
            if t.denominator is None:
                acc = acc + numerator
                continue
            inverse = ring.inverse(ring.reduce(t.denominator))
            if inverse is None:
                raise ValueError(
                    f"term {idx + 1} ({_term_to_text(t)}): denominator is not invertible "
                    f"on the {ring.m}x{ring.n} torus"
                )
            acc = acc + ring.mul(numerator, inverse)
        return acc
    rationals = []
    for idx, t in enumerate(expr.terms):
        try:
            rationals.append(RationalTerm(t.numerator, t.denominator if t.denominator is not None else ONE))
        except ValueError as exc:
            raise ValueError(f"term {idx + 1} ({_term_to_text(t)}): {exc}") from None
    return eval_sum(rationals, window)
