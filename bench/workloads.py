"""The four benchmark workloads: seeded inputs, the timed operation, its checks.

Each workload makes one round of distinct inputs from the seed.  The timed
loop repeats whole rounds, so every run attempts the same operations in
the same proportions.  Operations within a workload are built to cost
about the same, so that the median and the tail describe one kind of
operation.  Every call into polyplane goes through a module attribute
(``cli.run``, ``ring.QuotientRing.order`` ...), so that a traced run can
wrap it from outside.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field

import checks
from polyplane import cli, dsl, folding, ordering, poly, ring, sequences


def parse_terms(text: str) -> set:
    """A sum of monomials such as "1+x^-1*y+x*y" as a set of exponent pairs."""
    out = set()
    for mono in text.split("+"):
        i = j = 0
        for factor in mono.split("*"):
            var, _, exp = factor.partition("^")
            if var == "x":
                i = int(exp or 1)
            elif var == "y":
                j = int(exp or 1)
        out ^= {(i, j)}
    return out


def _monomials(rng, count: int, xs: range, ys: range) -> set:
    out = set()
    while len(out) < count:
        out.add((rng.choice(xs), rng.choice(ys)))
    return out


@dataclass
class Input:
    data: dict
    known_fault: bool = False  # fails on the period-hint fault in poly_reciprocal_seq
    args: tuple = field(default=(), repr=False)


# -- render_taps, render_bands ---------------------------------------------------

RENDER_W, RENDER_H = 256, 192
FORMATS = ("ascii", "pbm", "svg")

# in-row x-taps only: row patterns
ROW_ONLY = ["1+x", "1+x+x^2", "1+x^2+x^3", "1+x+x^3"]
# column patterns, as in the README's cross
COLUMNS = ["1+y", "1+y^2"]
# in-row x-taps plus lower taps
TAPS = ["1+x+x*y^2", "1+x+x^3+y", "1+x+x*y", "1+x^2+x*y", "1+x^2+y+x*y",
        "1+x+x^2*y^2", "1+x^3+y+x*y^2", "1+x+y+x^2*y", "1+x+x^2+y", "1+x^2+x^3+y"]
# no in-row tap; Laurent lower taps widen the band
BANDS = ["1+x^-1*y+x*y", "1+y+x*y", "1+x^-2*y+x*y", "1+x^-1*y+x^2*y",
         "1+x^-1*y+x*y+y^2", "1+x^-1*y+y+x*y", "1+x^-2*y+y+x^2*y"]


def _capture(argv) -> tuple:
    """Run the CLI in-process; (exit code, stdout bytes)."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    real, sys.stdout = sys.stdout, out
    try:
        code = cli.run(argv)
    finally:
        sys.stdout = real
        out.flush()
        out.detach()
    return code, buf.getvalue()


class Render:
    """One operation renders one expression as ASCII, PBM and SVG through the CLI."""

    tail_pct = 90
    pool = 0
    prep = "import polyplane.cli"

    def make_terms(self, rng, k: int, m: int, n: int) -> list:
        raise NotImplementedError

    def inputs(self, rng) -> list:
        m, n = RENDER_W - 1, RENDER_H - 1
        out = []
        for k in range(self.pool):
            terms = self.make_terms(rng, k, m, n)
            expr = " + ".join(f"({checks.poly_text(a)})/({checks.poly_text(b)})" for a, b in terms)
            size = f"{RENDER_W}x{RENDER_H}"
            argvs = tuple(["render", "--expr", expr, "--size", size, "--format", f] for f in FORMATS)
            out.append(Input({"expr": expr, "terms": terms}, args=argvs))
        rng.shuffle(out)
        return out

    def run(self, inp: Input):
        return tuple(_capture(argv) for argv in inp.args)

    def check(self, inp: Input, out) -> list:
        return checks.check_render(out, RENDER_W, RENDER_H, inp.data["terms"])

    def fingerprint(self, out):
        return tuple((code, len(data), hash(data)) for code, data in out)


class RenderTaps(Render):
    """A row term, a column term and a two-term numerator over an in-row-tap denominator.

    Denominators are assigned round-robin, so every seed renders the same
    mix of denominators; the seed picks the numerators.
    """

    pool = 2 * len(TAPS)

    def make_terms(self, rng, k, m, n):
        return [
            ({(0, rng.randint(0, 15))}, parse_terms(ROW_ONLY[k % len(ROW_ONLY)])),
            ({(rng.randint(0, 23), 0)}, parse_terms(COLUMNS[k % len(COLUMNS)])),
            (_monomials(rng, 2, range(25), range(13)), parse_terms(TAPS[k % len(TAPS)])),
        ]


class RenderBands(Render):
    """Three, two and one numerator terms over denominators without in-row taps.

    Denominators are assigned round-robin, as in RenderTaps; the last term
    is a leftward diagonal such as x^4/(1+x^-1*y).
    """

    pool = 3 * len(BANDS)

    def make_terms(self, rng, k, m, n):
        return [
            (_monomials(rng, 3, range(m + 1), range(17)), parse_terms(BANDS[k % len(BANDS)])),
            (_monomials(rng, 2, range(m + 1), range(17)), parse_terms(BANDS[(k + 3) % len(BANDS)])),
            (_monomials(rng, 1, range(m // 2, m + 1), range(17)), parse_terms("1+x^-1*y")),
        ]


# -- torus_algebra ---------------------------------------------------------------

TORUS = (11, 11)  # odd moduli: no nilpotents, so every nonzero element has an order


class TorusAlgebra:
    """Full analysis of one element of the 11x11 torus.

    Units have five terms, zero divisors four (an even number of terms
    vanishes at x = y = 1).  Only elements of the largest orders are kept,
    1023 for units and 1024 for zero divisors, so that the power loop of
    ``order`` runs about the same number of steps in every operation.
    """

    tail_pct = 90
    pool = 16
    prep = "from polyplane.ring import QuotientRing\nQuotientRing(11, 11).basis"

    def __init__(self):
        self.ring = ring.QuotientRing(*TORUS)
        self.ring.basis

    def _element(self, rng, weight: int, unit: bool, top: int | None):
        m, n = TORUS
        cells = [(i, j) for i in range(m) for j in range(n)]
        while True:
            terms = set(rng.sample(cells, weight))
            a = checks.torus(terms, m, n)
            if (checks.torus_rank(a, m) == m * n) != unit:
                continue
            if top is None or checks.element_order(a, m, unit) == top:
                return terms

    def inputs(self, rng) -> list:
        m, n = TORUS
        exponent = checks.unit_group_exponent(m, n)
        out = []
        for k in range(self.pool):
            unit = k % 2 == 0
            terms = self._element(rng, 5 if unit else 4, unit, exponent if unit else exponent + 1)
            # unreduced exponents, so that reduce has work to do
            raw = [(i + m * rng.randint(-2, 2), j + n * rng.randint(-2, 2)) for i, j in terms]
            num = _monomials(rng, 2, range(m), range(n))
            den = self._element(rng, 3, True, None)
            expr = f"({checks.poly_text(num)})/({checks.poly_text(den)})"
            data = {"terms": terms, "num": num, "den": den, "expr": expr}
            out.append(Input(data, args=(poly.PatternPoly(raw), expr, poly.Window(m - 1, n - 1, "wrap"))))
        return out

    def run(self, inp: Input):
        raw, expr, window = inp.args
        r = self.ring.reduce(raw)
        inv = self.ring.inverse(r)
        ann = self.ring.annihilator(r) if inv is None else None
        k = self.ring.order(r)
        val = dsl.evaluate(dsl.parse(expr), window)
        return r, inv, ann, k, val

    def check(self, inp: Input, out) -> list:
        r, inv, ann, k, val = out
        supports = (r.support, inv and inv.support, ann and ann.support, k, val.support)
        d = inp.data
        return checks.check_torus(d["terms"], d["num"], d["den"], supports, *TORUS)

    def fingerprint(self, out):
        r, inv, ann, k, val = out
        return hash((r.support, inv and inv.support, ann and ann.support, k, val.support))


# -- sequence_fold ----------------------------------------------------------------

# Primitive trinomials whose period (32767, 131071) exceeds every count here.
# poly_reciprocal_seq reports the period of the generated prefix as its hint,
# so these operations fail the hint check until that fault is fixed.
FAULT_POLYS = ["1+x+x^15", "1+x^3+x^17"]
FAULT_SHAPE = (89, 90)
SEQ_BITS = 8000


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


class SequenceFold:
    """A d-sequence or shift-register sequence of about 8000 bits, its period,
    a fold/unfold in each scheme and a decode/encode in each ordering."""

    tail_pct = 95
    pool = 24
    prep = ""

    def _shape(self, rng) -> tuple:
        rows = rng.randint(80, 100)
        cols = SEQ_BITS // rows
        while math.gcd(rows, cols) != 1:
            cols += 1
        return rows, cols

    def inputs(self, rng) -> list:
        out = []
        primes = [p for p in range(1000, 8000) if _is_prime(p)]
        for k in range(self.pool - len(FAULT_POLYS)):
            rows, cols = self._shape(rng)
            if k % 2 == 0:
                p = rng.choice(primes)
                out.append(Input({"kind": "dseq", "p": p, "rows": rows, "cols": cols}, args=(p,)))
                continue
            while True:
                deg = rng.randint(5, 11)
                q = 1 | 1 << deg | rng.getrandbits(deg) << 1 & ((1 << deg) - 1)
                if 2 * checks.poly_order(q) <= rows * cols:
                    break
            terms = {(i, 0) for i in range(deg + 1) if q >> i & 1}
            out.append(Input({"kind": "lfsr", "q": q, "rows": rows, "cols": cols},
                             args=(poly.PatternPoly(terms),)))
        for text in FAULT_POLYS:
            terms = parse_terms(text)
            rows, cols = FAULT_SHAPE
            q = sum(1 << i for i, _ in terms)
            out.append(Input({"kind": "lfsr", "q": q, "rows": rows, "cols": cols},
                             known_fault=True, args=(poly.PatternPoly(terms),)))
        rng.shuffle(out)
        return out

    def run(self, inp: Input):
        d = inp.data
        rows, cols = d["rows"], d["cols"]
        if d["kind"] == "dseq":
            s = sequences.dseq(inp.args[0], rows * cols)
        else:
            s = sequences.poly_reciprocal_seq(inp.args[0], rows * cols)
        t = sequences.period(s)
        grids = [folding.fold(s, rows, cols, scheme) for scheme in checks.SCHEMES]
        flat = [folding.unfold(g, scheme) for g, scheme in zip(grids, checks.SCHEMES)]
        polys = [ordering.decode(s, o) for o in checks.ORDERINGS]
        codes = [ordering.encode(p, o, len(s)) for p, o in zip(polys, checks.ORDERINGS)]
        return (s.bits, s.period_hint, t, tuple(g.cells for g in grids), tuple(u.bits for u in flat),
                tuple(p.support for p in polys), tuple(c.bits for c in codes))

    def check(self, inp: Input, out) -> list:
        d = inp.data
        generator = d["p"] if d["kind"] == "dseq" else d["q"]
        return checks.check_sequence(d["kind"], generator, d["rows"], d["cols"], out)

    def fingerprint(self, out):
        return hash(out)


WORKLOADS = {
    "render_taps": RenderTaps,
    "render_bands": RenderBands,
    "torus_algebra": TorusAlgebra,
    "sequence_fold": SequenceFold,
}
