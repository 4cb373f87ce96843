"""Deterministic pattern renderers: character grids, PBM bitmaps, SVG.

Column index is always the x exponent, increasing rightward.  With
origin top_left the first output row is y = 0; bottom_left mirrors the
rows.  PBM output is the plain-text P1 format, byte for byte.  SVG
output is a flat list of rect elements, one per lit cell; a perspective
config shrinks cell widths and heights geometrically along the axes.
"""

from __future__ import annotations

from itertools import accumulate

from .poly import Frozen, PatternPoly, Window, set_bits


class Perspective(Frozen):
    """Per-axis geometric decay of cell size: column k is rx^k wide."""

    __slots__ = __match_args__ = ("rx", "ry")

    def __init__(self, rx: float = 1.0, ry: float = 1.0):
        if not (0 < rx <= 1 and 0 < ry <= 1):
            raise ValueError("decay ratios must lie in (0, 1]")
        object.__setattr__(self, "rx", rx)
        object.__setattr__(self, "ry", ry)


class RenderConfig(Frozen):
    """Glyphs of the ASCII grid, row order, and SVG cell size (in user units) and perspective."""

    __slots__ = __match_args__ = ("glyph_on", "glyph_off", "origin", "cell", "perspective")

    def __init__(self, glyph_on: str = "#", glyph_off: str = ".", origin: str = "top_left",
                 cell: float = 16.0, perspective: Perspective | None = None):
        if len(glyph_on) != 1 or len(glyph_off) != 1:
            raise ValueError("glyphs must be single characters")
        if glyph_on == glyph_off:
            raise ValueError("on and off glyphs must differ")
        if origin not in ("top_left", "bottom_left"):  # row 0 at the top or at the bottom
            raise ValueError(f"unknown origin {origin!r}")
        if cell <= 0:
            raise ValueError("cell size must be positive")
        object.__setattr__(self, "glyph_on", glyph_on)
        object.__setattr__(self, "glyph_off", glyph_off)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "perspective", perspective)


DEFAULT_CONFIG = RenderConfig()


def _rows(p: PatternPoly, window: Window, config: RenderConfig) -> list[int]:
    # Window rows in display order; bit i of row j is cell (i, j), other cells are dropped.
    visible = p.truncate(window)
    rows = [0] * window.height
    rows[visible.y0 : visible.y0 + len(visible.rows)] = [row << visible.x0 for row in visible.rows]
    return rows if config.origin == "top_left" else rows[::-1]


def render_ascii(p: PatternPoly, window: Window, config: RenderConfig = DEFAULT_CONFIG) -> str:
    """Character-grid rendering, one line per row."""
    glyphs = str.maketrans("10", config.glyph_on + config.glyph_off)
    return "\n".join(
        format(row, f"0{window.width}b")[::-1].translate(glyphs)
        for row in _rows(p, window, config)
    )


def render_pbm(p: PatternPoly, window: Window) -> bytes:
    """Plain PBM (P1) bytes; 1 marks a pattern point, row 0 is y = 0."""
    lines = ["P1", f"{window.width} {window.height}"]
    rows = _rows(p, window, DEFAULT_CONFIG)  # the default origin is top_left
    lines += (" ".join(format(row, f"0{window.width}b")[::-1]) for row in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def _fmt(value: float) -> str:
    return format(value, "g")


def render_svg(p: PatternPoly, window: Window, config: RenderConfig = DEFAULT_CONFIG) -> str:
    """SVG rendering: exactly one rect per lit cell.

    Cell sizes follow the display position: column k is cell*rx^k wide
    and display row l is cell*ry^l tall, positions cumulative, so a
    ratio below 1 makes pixels shrink rightward/downward.
    """
    persp = config.perspective or Perspective()
    widths = [config.cell * persp.rx**k for k in range(window.m + 1)]
    heights = [config.cell * persp.ry**l for l in range(window.n + 1)]
    total_w = sum(widths)
    total_h = sum(heights)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(total_w)}" height="{_fmt(total_h)}" '
        f'viewBox="0 0 {_fmt(total_w)} {_fmt(total_h)}">',
    ]
    # column k starts at widths[0] + ... + widths[k-1], summed left to right
    columns = [(_fmt(x), _fmt(w)) for x, w in zip(accumulate(widths, initial=0.0), widths)]
    y = 0.0
    for height, row in zip(heights, _rows(p, window, config)):
        top, tall = _fmt(y), _fmt(height)
        for k in set_bits(row):
            x, w = columns[k]
            lines.append(f'<rect x="{x}" y="{top}" width="{w}" height="{tall}" fill="#000"/>')
        y += height
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
