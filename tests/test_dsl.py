import random

import pytest

from polyplane.dsl import ParseError, PatternExpr, Term, evaluate, parse, parse_poly, tokenize
from polyplane.poly import ONE, PatternPoly, Window


def kinds_and_values(text):
    return [(t.kind, t.value) for t in tokenize(text)]


def rand_poly(rng, nonzero=False, lo=-3, hi=5):
    while True:
        poly = PatternPoly(
            (rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(rng.randrange(4))
        )
        if poly or not nonzero:
            return poly


def rand_expr(rng):
    terms = []
    for _ in range(rng.randrange(1, 4)):
        numerator = rand_poly(rng, nonzero=True)
        denominator = rand_poly(rng, nonzero=True) if rng.random() < 0.5 else None
        terms.append(Term(numerator, denominator))
    return PatternExpr(tuple(terms))


def rand_admissible_expr(rng):
    terms = []
    for _ in range(rng.randrange(1, 4)):
        numerator = rand_poly(rng, nonzero=True, lo=-2, hi=4)
        denominator = None
        if rng.random() < 0.6:
            support = {(0, 0)}
            for _ in range(rng.randrange(1, 3)):
                support.add((rng.randint(0, 3), rng.randint(1, 2)))
            denominator = PatternPoly(support)
        terms.append(Term(numerator, denominator))
    return PatternExpr(tuple(terms))


def test_tokenize_simple_fraction():
    assert kinds_and_values("1/(1+x)") == [
        ("int", 1), ("op", "/"), ("lparen", "("),
        ("int", 1), ("op", "+"), ("var", "x"), ("rparen", ")"),
    ]


def test_tokenize_signed_exponent():
    assert kinds_and_values("x^-1y") == [
        ("var", "x"), ("op", "^"), ("int", -1), ("var", "y"),
    ]


def test_tokenize_unknown_character_with_offset():
    with pytest.raises(ParseError) as err:
        tokenize("x⊕y")
    assert err.value.pos == 1


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663", "x^-\u0663", "\uff11"])
def test_only_ascii_digits_are_digits(text):
    # str.isdigit() holds for all four and int() reads three of them, but the
    # language's digits are 0-9
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message.startswith("unknown character")
    assert err.value.pos == len(text) - 1


def test_tokenize_skips_whitespace():
    assert kinds_and_values(" 1 + x ") == [("int", 1), ("op", "+"), ("var", "x")]


def test_parse_three_term_sum():
    expr = parse("1/(1+x) + x^2/(1+y) + 1/(1+x+x*y^2)")
    assert len(expr.terms) == 3
    assert expr.terms[0] == Term(ONE, parse_poly("1+x"))
    assert expr.terms[1] == Term(parse_poly("x^2"), parse_poly("1+y"))
    assert expr.terms[2] == Term(ONE, parse_poly("1+x+x*y^2"))


def test_parse_laurent_denominator():
    expr = parse("x^4/(1+x^-1*y)")
    (term,) = expr.terms
    assert term.numerator == parse_poly("x^4")
    assert term.denominator == PatternPoly([(0, 0), (-1, 1)])


def test_parse_rejects_nested_division():
    with pytest.raises(ParseError, match="nested division"):
        parse("1/(1/(1+x))")


def test_parse_juxtaposition():
    assert parse_poly("xy^2") == PatternPoly([(1, 2)])
    assert parse_poly("x*y^2") == parse_poly("xy^2")
    assert parse_poly("(1+x)(1+y)") == parse_poly("1+x+y+x*y")
    assert parse_poly("x^2y") == PatternPoly([(2, 1)])


def test_minus_is_plus():
    assert parse_poly("1-x") == parse_poly("1+x")
    assert parse("1-x") == parse("1+x")


def test_parse_syntax_errors_carry_offsets():
    for text, offset in (("1+", 2), ("(1+x", 4), ("x^y", 2), ("2*x", 0), ("", 0), ("x))", 1)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == offset, text


@pytest.mark.parametrize("text, offset", [("001+x", 0), ("x+01", 2), ("x*(1+00)", 5), ("0001", 0)])
def test_the_only_literal_is_the_text_1(text, offset):
    # leading zeros do not make 1 out of another literal; exponents keep them (x^007 is x^7)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == "the only numeric literal is 1"
    assert err.value.pos == offset
    assert parse_poly("x^007 + 1") == parse_poly("1+x^7")


def test_parse_zero_denominator():
    with pytest.raises(ParseError, match="zero"):
        parse("1/(x+x)")


def test_missing_constant_term_is_an_evaluation_error():
    expr = parse("1/(x+y)")  # parses fine...
    with pytest.raises(ValueError, match="constant term"):
        evaluate(expr, Window(3, 3))  # ...fails at evaluation in window mode


def test_evaluate_checkerboard():
    expr = parse("1/(1+xy) + x^2/(1+xy) + y^2/(1+xy) + x^4/(1+xy)")
    got = evaluate(expr, Window(4, 3))
    expected = PatternPoly((i, j) for i in range(5) for j in range(4) if (i - j) % 2 == 0)
    assert got == expected


def test_evaluate_wrap_mode_monomial_inverse():
    # grid (2,2) means a 3x3 torus where x^3 = 1, so 1/x = x^2
    assert evaluate(parse("1/x"), Window(2, 2, "wrap")) == parse_poly("x^2")


def test_evaluate_wrap_mode_non_invertible():
    with pytest.raises(ValueError, match="term 1"):
        evaluate(parse("1/(1+x)"), Window(2, 2, "wrap"))


def test_evaluate_names_the_offending_term():
    with pytest.raises(ValueError, match="term 2"):
        evaluate(parse("1/(1+x) + 1/(x+y)"), Window(3, 3))


def test_evaluate_literal_polynomial_both_modes():
    for mode in ("window", "wrap"):
        got = evaluate(parse("1+x*y"), Window(4, 3, mode))
        assert got == parse_poly("1+x*y")


def test_evaluate_window_truncates_literals():
    assert evaluate(parse("1+x^9"), Window(4, 3)) == ONE
    # wrap mode folds instead of dropping
    assert evaluate(parse("x^5"), Window(4, 3, "wrap")) == ONE


def test_evaluate_distributes_over_concatenation():
    rng = random.Random(43)
    w = Window(6, 5)
    for _ in range(25):
        e1 = rand_admissible_expr(rng)
        e2 = rand_admissible_expr(rng)
        combined = PatternExpr(e1.terms + e2.terms)
        assert evaluate(combined, w) == evaluate(e1, w) + evaluate(e2, w)


def test_print_parse_round_trip_fixed():
    for text in (
        "1/(1+x) + x^2/(1+y) + 1/(1+x+x*y^2)",
        "x^4/(1+x^-1*y)",
        "1+x*y",
        "(1+x)/(1+y) + y^2",
        "x/1",
    ):
        expr = parse(text)
        assert parse(expr.to_text()) == expr


def test_the_zero_polynomial_prints_as_one_plus_one():
    expr = PatternExpr((Term(PatternPoly()),))
    assert expr.to_text() == "(1+1)"
    assert parse("(1+1)") == expr and not parse("(1+1)").terms[0].numerator


def test_print_parse_round_trip_randomized():
    rng = random.Random(47)
    for _ in range(100):
        expr = rand_expr(rng)
        assert parse(expr.to_text()) == expr


def test_parse_poly_rejects_division():
    with pytest.raises(ValueError, match="plain polynomial"):
        parse_poly("1/(1+x)")


def test_expression_text_canonicalizes_monomial_order():
    expr = parse("(y+x+1)/(y^2+1)")
    assert expr.to_text() == "(1+x+y)/(1+y^2)"
    assert parse(expr.to_text()) == expr
