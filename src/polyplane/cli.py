"""Command-line front end.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage
error.  Nothing is written to stdout on failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from .dsl import evaluate, parse, parse_poly
from .folding import SCHEMES, fold
from .ordering import ORDERINGS, decode, encode
from .poly import PatternPoly, Window
from .render import Perspective, RenderConfig, render_ascii, render_pbm, render_svg
from .ring import QuotientRing
from .sequences import BitSeq, dseq, poly_reciprocal_seq

FORMATS = ("terms", "ascii", "pbm", "svg")


def _int_arg(text: str) -> int:
    # int(text) for ASCII digits only: int() also reads other scripts' digits and '_'
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # argparse's own text
    return int(text)


def _pair_arg(shape: str, sep: str, least: int, offset: int = 0):
    # an argparse type for two integers of at least `least` joined by sep, each less offset
    kind = "positive" if least else "nonnegative"

    def convert(text: str) -> tuple[int, int]:
        try:
            a, b = (_int_arg(part) for part in text.lower().split(sep))
            if min(a, b) >= least:
                return a - offset, b - offset
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"expected {shape} with {kind} integers, got {text!r}")

    return convert


_grid_arg = _pair_arg("MxN", "x", 0)
_size_arg = _pair_arg("WxH", "x", 1, offset=1)  # cell counts to inclusive max exponents
_mod_arg = _pair_arg("M,N", ",", 1)


def _bits_arg(text: str) -> BitSeq:
    try:
        return BitSeq(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _run_expand(args: argparse.Namespace) -> str | bytes:
    window = Window(*args.grid, args.mode)
    text = args.expr if args.expr is not None else sys.stdin.read()
    pattern = evaluate(parse(text), window)
    if args.format == "terms":
        return f"{pattern}\n"
    if args.format == "pbm":
        return render_pbm(pattern, window)
    config = RenderConfig(args.glyph_on, args.glyph_off, args.origin.replace("-", "_"), args.cell,
                          Perspective(args.rx, args.ry))
    if args.format == "ascii":
        return render_ascii(pattern, window, config) + "\n"
    return render_svg(pattern, window, config)


def _run_table(args: argparse.Namespace) -> str:
    ring = QuotientRing(*args.mod)
    table = ring.mul_table()
    labels = [str(PatternPoly.monomial(i, j)) for i, j in ring.basis]
    grid = [["*", *labels]]
    for label, row in zip(labels, table):
        grid.append([label, *[str(cell) for cell in row]])
    widths = [max(len(grid[r][c]) for r in range(len(grid))) for c in range(len(grid[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in grid
    ]
    return "\n".join(lines) + "\n"


def _run_invert(args: argparse.Namespace) -> str:
    m, n = args.mod
    ring = QuotientRing(m, n)
    inverse = ring.inverse(parse_poly(args.element))
    if inverse is None:
        raise ValueError(f"{args.element!r} is not invertible mod ({m},{n})")
    return f"{inverse}\n"


def _add_pattern_parser(subparsers, name: str, help_text: str, default_format: str) -> None:
    # expand and render differ only in their help text and default format
    sub = subparsers.add_parser(name, help=help_text)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="pattern expression")
    group.add_argument("--stdin", action="store_true", help="read the expression from stdin")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=_grid_arg, metavar="MxN",
                       help="inclusive max exponents of the visible grid")
    group.add_argument("--size", type=_size_arg, dest="grid", metavar="WxH",
                       help="grid size in cells (W = m+1, H = n+1)")
    sub.add_argument("--mode", choices=("window", "wrap"), default="window",
                     help="series truncation (window) or torus arithmetic (wrap)")
    sub.add_argument("--format", choices=FORMATS, default=default_format)
    sub.add_argument("--origin", choices=("top-left", "bottom-left"), default="top-left")
    sub.add_argument("--glyph-on", default="#", metavar="CH")
    sub.add_argument("--glyph-off", default=".", metavar="CH")
    sub.add_argument("--cell", type=float, default=16.0, help="SVG base cell size")
    sub.add_argument("--rx", type=float, default=1.0, help="SVG column width decay ratio")
    sub.add_argument("--ry", type=float, default=1.0, help="SVG row height decay ratio")
    sub.set_defaults(run=_run_expand)


@cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyplane",
        description="two-dimensional binary patterns as GF(2) polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    _add_pattern_parser(sub, "expand", "evaluate a pattern expression on a grid", "terms")
    _add_pattern_parser(sub, "render", "render a pattern expression", "ascii")

    order = sub.add_parser("order", help="order of a ring element")
    order.add_argument("--element", required=True, help="polynomial text, e.g. '1+x'")
    order.add_argument("--mod", required=True, type=_mod_arg, metavar="M,N")
    order.set_defaults(run=lambda args: f"{QuotientRing(*args.mod).order(parse_poly(args.element))}\n")

    table = sub.add_parser("table", help="multiplication table of the monomial basis")
    table.add_argument("--mod", required=True, type=_mod_arg, metavar="M,N")
    table.set_defaults(run=_run_table)

    invert = sub.add_parser("invert", help="ring inverse of an element")
    invert.add_argument("--element", required=True)
    invert.add_argument("--mod", required=True, type=_mod_arg, metavar="M,N")
    invert.set_defaults(run=_run_invert)

    fold_cmd = sub.add_parser("map", help="fold a bit sequence into an array")
    fold_cmd.add_argument("--seq", required=True, type=_bits_arg)
    fold_cmd.add_argument("--rows", required=True, type=_int_arg)
    fold_cmd.add_argument("--cols", required=True, type=_int_arg)
    fold_cmd.add_argument("--scheme", required=True, choices=SCHEMES)
    fold_cmd.set_defaults(run=lambda args: f"{fold(args.seq, args.rows, args.cols, args.scheme)}\n")

    dseq_cmd = sub.add_parser("dseq", help="prime reciprocal bit sequence")
    dseq_cmd.add_argument("--p", required=True, type=_int_arg, help="odd prime")
    dseq_cmd.add_argument("--count", required=True, type=_int_arg)
    dseq_cmd.set_defaults(run=lambda args: f"{dseq(args.p, args.count)}\n")

    lfsr = sub.add_parser("lfsr", help="shift-register sequence of 1/q(x)")
    lfsr.add_argument("--poly", required=True, help="univariate polynomial, e.g. '1+x+x^3'")
    lfsr.add_argument("--count", required=True, type=_int_arg)
    lfsr.set_defaults(run=lambda args: f"{poly_reciprocal_seq(parse_poly(args.poly), args.count)}\n")

    enc = sub.add_parser("encode", help="polynomial to bit string")
    enc.add_argument("--poly", required=True)
    enc.add_argument("--ordering", choices=ORDERINGS, default="diagonal")
    enc.add_argument("--length", type=_int_arg, default=None)
    enc.set_defaults(run=lambda args: f"{encode(parse_poly(args.poly), args.ordering, args.length)}\n")

    dec = sub.add_parser("decode", help="bit string to polynomial")
    dec.add_argument("--bits", required=True, type=_bits_arg)
    dec.add_argument("--ordering", choices=ORDERINGS, default="diagonal")
    dec.set_defaults(run=lambda args: f"{decode(args.bits, args.ordering)}\n")

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(output, bytes):
        sys.stdout.buffer.write(output)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(output)
        sys.stdout.flush()
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
