"""The contract of the small value classes: construction, defaults,
validation, equality, hashing, repr text and immutability."""

import importlib
import pkgutil

import pytest

import polyplane
from polyplane.dsl import PatternExpr, Term, Token, parse
from polyplane.folding import BitGrid
from polyplane.poly import ONE, X, Y, Frozen, PatternPoly, Window
from polyplane.render import Perspective, RenderConfig
from polyplane.ring import QuotientRing
from polyplane.sequences import BitSeq
from polyplane.series import RationalTerm

DEN = ONE + X + Y


def test_window_construction_and_defaults():
    w = Window(3, 4)
    assert (w.m, w.n, w.mode) == (3, 4, "window")
    assert Window(m=3, n=4, mode="wrap").mode == "wrap"
    assert Window(3, 4, "window") == Window(n=4, m=3) == w
    assert (w.width, w.height) == (4, 5)


@pytest.mark.parametrize("args, message", [
    ((-1, 0), "window bounds must be nonnegative"),
    ((0, -1), "window bounds must be nonnegative"),
    ((-1, 0, "torus"), "window bounds must be nonnegative"),
    ((0, 0, "torus"), "unknown window mode 'torus'"),
])
def test_window_validation(args, message):
    with pytest.raises(ValueError) as info:
        Window(*args)
    assert str(info.value) == message


def test_rational_term_construction():
    t = RationalTerm(X, DEN)
    assert (t.numerator, t.denominator) == (X, DEN)
    # one term type: the parser's Term is the series' Term, and RationalTerm is a Term
    assert Term is polyplane.series.Term and isinstance(t, Term) and (t.pos, t.div_pos) == (0, None)
    assert RationalTerm(numerator=X, denominator=DEN) == t
    with pytest.raises(TypeError):
        RationalTerm(X)


@pytest.mark.parametrize("den, message", [
    (X + Y, "denominator has no constant term"),
    (ONE + PatternPoly.monomial(-1, 0), "denominator term x^-1 is not positive in the (y, x) grading"),
    (ONE + PatternPoly.monomial(2, -1), "denominator term x^2*y^-1 is not positive in the (y, x) grading"),
])
def test_rational_term_validation(den, message):
    with pytest.raises(ValueError) as info:
        RationalTerm(ONE, den)
    assert str(info.value) == message


def test_token_construction():
    t = Token("int", 3, 5)
    assert (t.kind, t.value, t.pos) == ("int", 3, 5)
    assert Token(kind="int", value=3, pos=5) == t
    assert Token("int", 3, 6) != t


def test_term_construction_and_defaults():
    t = Term(X)
    assert (t.numerator, t.denominator, t.pos, t.div_pos) == (X, None, 0, None)
    full = Term(X, DEN, 4, 7)
    assert (full.numerator, full.denominator, full.pos, full.div_pos) == (X, DEN, 4, 7)
    assert Term(numerator=X, denominator=DEN, pos=4, div_pos=7).div_pos == 7


def test_term_equality_ignores_positions():
    assert Term(X, DEN, 0, 1) == Term(X, DEN, 9, 12)
    assert hash(Term(X, DEN, 0, 1)) == hash(Term(X, DEN, 9, 12))
    assert Term(X, pos=3) == Term(X)
    assert Term(X) != Term(X, DEN)
    assert Term(X, DEN) != Term(Y, DEN)


def test_pattern_expr_construction():
    terms = (Term(X), Term(ONE, DEN))
    e = PatternExpr(terms)
    assert e.terms == terms
    assert PatternExpr(terms=terms) == e
    assert e.to_text() == str(e) == "x + 1/(1+x+y)"
    assert parse("x + 1/(1+x+y)") == e


def test_perspective_construction_and_defaults():
    assert (Perspective().rx, Perspective().ry) == (1.0, 1.0)
    p = Perspective(0.5, 0.25)
    assert (p.rx, p.ry) == (0.5, 0.25)
    assert Perspective(ry=0.25, rx=0.5) == p
    assert Perspective(0.5).ry == 1.0


@pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (1.5, 1.0), (1.0, 1.01), (-0.5, 0.5)])
def test_perspective_validation(args):
    with pytest.raises(ValueError) as info:
        Perspective(*args)
    assert str(info.value) == "decay ratios must lie in (0, 1]"


def test_render_config_construction_and_defaults():
    c = RenderConfig()
    assert (c.glyph_on, c.glyph_off, c.origin, c.cell, c.perspective) == ("#", ".", "top_left", 16.0, None)
    persp = Perspective(0.5)
    full = RenderConfig("@", "-", "bottom_left", 8.0, persp)
    assert (full.glyph_on, full.glyph_off, full.origin, full.cell, full.perspective) == (
        "@", "-", "bottom_left", 8.0, persp)
    assert RenderConfig(perspective=persp, cell=8.0, origin="bottom_left", glyph_off="-", glyph_on="@") == full


@pytest.mark.parametrize("kwargs, message", [
    ({"glyph_on": "##"}, "glyphs must be single characters"),
    ({"glyph_off": ""}, "glyphs must be single characters"),
    ({"glyph_on": "."}, "on and off glyphs must differ"),
    ({"origin": "center"}, "unknown origin 'center'"),
    ({"cell": 0}, "cell size must be positive"),
    ({"cell": -2.0}, "cell size must be positive"),
    ({"glyph_on": "ab", "origin": "center"}, "glyphs must be single characters"),
])
def test_render_config_validation(kwargs, message):
    with pytest.raises(ValueError) as info:
        RenderConfig(**kwargs)
    assert str(info.value) == message


def _values():
    # two equal instances and one different instance of each class
    return [
        (Window(3, 4), Window(3, 4, "window"), Window(3, 4, "wrap")),
        (RationalTerm(X, DEN), RationalTerm(X, ONE + Y + X), RationalTerm(Y, DEN)),
        (Token("var", "x", 2), Token("var", "x", 2), Token("var", "y", 2)),
        (Term(X, DEN, 0, 1), Term(X, DEN, 5, 6), Term(X, None, 0, 1)),
        (PatternExpr((Term(X),)), PatternExpr((Term(X, pos=3),)), PatternExpr((Term(Y),))),
        (Perspective(0.5), Perspective(0.5, 1.0), Perspective(1.0, 0.5)),
        (RenderConfig(), RenderConfig("#", "."), RenderConfig(cell=2.0)),
        (QuotientRing(3, 5), QuotientRing(m=3, n=5), QuotientRing(5, 3)),
    ]


# value classes keyed on stored rows or text rather than on their constructor's arguments,
# tested in tests/test_poly.py, tests/test_sequences.py and tests/test_folding.py
OWN_TESTS = [PatternPoly, BitSeq, BitGrid]


def test_every_value_class_is_in_the_value_tests():
    for module in pkgutil.iter_modules(polyplane.__path__):
        if module.name != "__main__":
            importlib.import_module(f"polyplane.{module.name}")
    classes, stack = set(), [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("polyplane.") and cls not in classes:
                classes.add(cls)
                stack.append(cls)
    assert classes - {type(a) for a, _, _ in _values()} - set(OWN_TESTS) == set()


@pytest.mark.parametrize("a, b, c", _values(), ids=lambda v: type(v).__name__)
def test_equality_and_hash(a, b, c):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert a != object()
    assert len({a, b, c}) == 2


def test_a_class_never_equals_another_class_with_the_same_fields():
    assert RationalTerm(X, DEN) != Term(X, DEN)
    assert Term(X, DEN) != RationalTerm(X, DEN)
    assert Window(3, 4) != (3, 4, "window")
    assert Perspective(0.5, 0.5) != (0.5, 0.5)
    assert Token("int", 1, 0) != ("int", 1, 0)
    assert QuotientRing(3, 5) != (3, 5)


def test_repr_text():
    assert repr(Window(3, 4)) == "Window(m=3, n=4, mode='window')"
    assert repr(Window(0, 0, "wrap")) == "Window(m=0, n=0, mode='wrap')"
    assert repr(RationalTerm(PatternPoly.monomial(-1, 1), ONE + X)) == (
        "RationalTerm(numerator=PatternPoly('x^-1*y'), denominator=PatternPoly('1+x'))")
    assert repr(Token("int", 3, 5)) == "Token(kind='int', value=3, pos=5)"
    assert repr(Token("op", "^", 1)) == "Token(kind='op', value='^', pos=1)"
    expr = parse("x^-1*y/(1+x+y) + 1")
    assert repr(expr.terms[0]) == (
        "Term(numerator=PatternPoly('x^-1*y'), denominator=PatternPoly('1+x+y'), pos=0, div_pos=6)")
    assert repr(expr) == (
        "PatternExpr(terms=(Term(numerator=PatternPoly('x^-1*y'), denominator=PatternPoly('1+x+y'), "
        "pos=0, div_pos=6), Term(numerator=PatternPoly('1'), denominator=None, pos=17, div_pos=None)))")
    assert repr(Perspective()) == "Perspective(rx=1.0, ry=1.0)"
    assert repr(Perspective(0.5, 0.25)) == "Perspective(rx=0.5, ry=0.25)"
    assert repr(RenderConfig()) == (
        "RenderConfig(glyph_on='#', glyph_off='.', origin='top_left', cell=16.0, perspective=None)")
    assert repr(RenderConfig(glyph_on="@", perspective=Perspective(0.5))) == (
        "RenderConfig(glyph_on='@', glyph_off='.', origin='top_left', cell=16.0, "
        "perspective=Perspective(rx=0.5, ry=1.0))")
    assert repr(QuotientRing(3, 5)) == "QuotientRing(3, 5)"
    assert repr(BitSeq("0110")) == "BitSeq('0110')"
    assert repr(BitSeq("0110", period_hint=3)) == "BitSeq('0110', period_hint=3)"
    assert repr(BitGrid(["011", "100"])) == "BitGrid(['011', '100'])"


@pytest.mark.parametrize("value, field", [
    (Window(3, 4), "m"), (Window(3, 4), "mode"),
    (RationalTerm(X, DEN), "denominator"),
    (Token("int", 1, 0), "kind"), (Token("int", 1, 0), "pos"),
    (Term(X), "numerator"), (Term(X), "div_pos"),
    (PatternExpr(()), "terms"),
    (Perspective(), "rx"),
    (RenderConfig(), "cell"), (RenderConfig(), "perspective"),
    (QuotientRing(3, 5), "m"), (QuotientRing(3, 5), "n"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before
