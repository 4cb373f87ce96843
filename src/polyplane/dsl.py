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
nest.  Digits are ASCII.  Error messages carry 0-based character offsets.

Evaluation on a window is one pass over the terms, in either mode.  A
plain term is cut to the rectangle (window mode) or folded onto the
(m+1) x (n+1) torus (wrap mode) before the plain terms are added, once.
In window mode every quotient num/den expands as a power series
truncated to the rectangle, added to the plain sum row by row.  In wrap
mode division multiplies by the ring inverse of the denominator, an
operation that succeeds exactly for unit denominators.
"""

from __future__ import annotations

from .poly import ONE, Frozen, PatternPoly, Window, poly_sum
from .ring import QuotientRing
from .series import Term, check_denominator, eval_sum


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


_DIGITS = "0123456789"  # ASCII only: int() would also read other scripts' digits
_KINDS = {"x": "var", "y": "var", "(": "lparen", ")": "rparen",
          **dict.fromkeys("+-*/^", "op"), **dict.fromkeys(_DIGITS, "int")}


def tokenize(text: str) -> list[Token]:
    """Split an expression into tokens; raises ParseError on junk."""
    tokens: list[Token] = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        kind = _KINDS.get(ch)
        if kind is None:
            raise ParseError(f"unknown character {ch!r}", k)
        if ch in "+-" and tokens and tokens[-1].value == "^" and k + 1 < len(text) and text[k + 1] in _DIGITS:
            kind = "int"  # the sign of an exponent
        start = k
        k += 1
        if kind == "int":
            while k < len(text) and text[k] in _DIGITS:
                k += 1
            tokens.append(Token("int", int(text[start:k]), start))
        else:
            tokens.append(Token(kind, ch, start))
    return tokens


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


def _plain_sum(terms) -> PatternPoly:
    # the sum of division-free terms; ParseError at the '/' of the first other one
    for t in terms:
        if t.denominator is not None:
            raise ParseError("nested division", t.div_pos)
    return poly_sum(t.numerator for t in terms)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.tokens.append(Token("end", None, len(text)))  # so that peek() always has a token
        self.k = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def take(self, *lexemes: str) -> Token | None:
        """Consume the next token if it is one of the operators or parentheses given."""
        if self.peek().value in lexemes:
            return self.advance()
        return None

    def fail(self, message: str):
        raise ParseError(message, self.peek().pos)

    def parse(self) -> PatternExpr:
        terms = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().value!r}")
        return PatternExpr(tuple(terms))

    def expr(self) -> list[Term]:
        terms = [self.term()]
        while self.take("+", "-"):
            terms.append(self.term())
        return terms

    def term(self) -> Term:
        start = self.peek().pos
        numerator = self.factor()
        slash = self.take("/")
        if slash is None:
            return Term(numerator, pos=start)
        denominator = self.factor()
        if not denominator:
            raise ParseError("denominator is the zero polynomial", slash.pos)
        return Term(numerator, denominator, pos=start, div_pos=slash.pos)

    def factor(self) -> PatternPoly:
        product = self.atom()
        while self.take("*") or self.peek().kind in ("int", "var", "lparen"):  # or juxtaposition
            product = product * self.atom()
        return product

    def atom(self) -> PatternPoly:
        tok = self.peek()
        if tok.kind == "int":
            if tok.value != 1 or self.text[tok.pos] != "1":  # "01" has the value 1 too
                self.fail("the only numeric literal is 1")
            self.advance()
            return ONE
        if tok.kind == "var":
            self.advance()
            exponent = 1
            if self.take("^"):
                if self.peek().kind != "int":
                    self.fail("exponent must be an integer")
                exponent = self.advance().value
            return PatternPoly.monomial(exponent, 0) if tok.value == "x" else PatternPoly.monomial(0, exponent)
        if self.take("("):
            inner = self.expr()
            if not self.take(")"):
                self.fail("expected ')'")
            return _plain_sum(inner)
        self.fail("unexpected end of input" if tok.kind == "end" else f"unexpected {tok.value!r}")


def parse(text: str) -> PatternExpr:
    """Parse an expression; raises ParseError with the failing offset."""
    return _Parser(text).parse()


def parse_poly(text: str) -> PatternPoly:
    """Parse a plain polynomial (an expression without division)."""
    expr = parse(text)
    try:
        return _plain_sum(expr.terms)
    except ParseError:
        raise ValueError("expected a plain polynomial, found a division") from None


def evaluate(expr: PatternExpr, window: Window) -> PatternPoly:
    """Evaluate a parsed expression on a window, honoring its mode."""
    ring = QuotientRing(window.m + 1, window.n + 1) if window.mode == "wrap" else None
    plain, quotients = [], []  # wrap mode adds each quotient's residue to the plain terms
    for idx, t in enumerate(expr.terms):
        try:
            if t.denominator is None:  # cut to the grid first, so that far-apart terms are never summed whole
                plain.append(t.numerator.truncate(window) if ring is None else ring.reduce(t.numerator))
            elif ring is None:
                check_denominator(t.denominator)
                quotients.append(t)
            elif (inverse := ring.inverse(t.denominator)) is None:
                raise ValueError(f"denominator is not invertible on the {ring.m}x{ring.n} torus")
            else:
                plain.append(ring.mul(t.numerator, inverse))
        except ValueError as exc:
            raise ValueError(f"term {idx + 1} ({_term_to_text(t)}): {exc}") from None
    if ring is not None:
        return poly_sum(plain)
    return eval_sum(quotients + [Term(poly_sum(plain))] if plain else quotients, window)
