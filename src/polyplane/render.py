"""Deterministic pattern renderers: character grids, PBM bitmaps, SVG.

Column index is always the x exponent, increasing rightward.  With
origin top_left the first output row is y = 0; bottom_left mirrors the
rows.  PBM output is the plain-text P1 format, byte for byte.  SVG
output is a flat list of rect elements, one per lit cell; a perspective
config shrinks cell widths and heights geometrically along the axes.
No renderer steps per cell: PBM fills a buffer by two slice assignments,
and SVG makes a row's rects by one join of column texts and one replace.

Each format is one generator of output parts (``ascii_parts``, ``pbm_parts``,
``svg_parts``): the rows in batches of about BATCH_BYTES, after a header and
before a footer where the format has them.  Every check, such as the
SVG size, runs when the generator is made, before any part; ``render_*``
join the same parts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate, compress

from .poly import Frozen, PatternPoly, Window, bit_flags, row_text


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
        if cell <= 0 or not math.isfinite(cell):
            raise ValueError("cell size must be positive")
        object.__setattr__(self, "glyph_on", glyph_on)
        object.__setattr__(self, "glyph_off", glyph_off)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "perspective", perspective)


DEFAULT_CONFIG = RenderConfig()


BATCH_BYTES = 1 << 16  # about the size of one output part


def _rows(p: PatternPoly, window: Window, config: RenderConfig) -> list[int]:
    # Window rows in display order; bit i of row j is cell (i, j), other cells are dropped.
    visible = p.truncate(window)
    rows = [0] * window.height
    rows[visible.y0 : visible.y0 + len(visible.rows)] = [row << visible.x0 for row in visible.rows]
    return rows if config.origin == "top_left" else rows[::-1]


def ascii_parts(p: PatternPoly, window: Window, config: RenderConfig = DEFAULT_CONFIG) -> Iterator[str]:
    """The parts of :func:`render_ascii`: batches of lines, each after the first led by its newline."""
    glyphs = str.maketrans("10", config.glyph_on + config.glyph_off)
    rows, width = _rows(p, window, config), window.width
    step = max(1, BATCH_BYTES // (width + 1))
    for k in range(0, len(rows), step):
        lines = [row_text(row, width).translate(glyphs) for row in rows[k : k + step]]
        yield "\n".join([""] + lines if k else lines)


def render_ascii(p: PatternPoly, window: Window, config: RenderConfig = DEFAULT_CONFIG) -> str:
    """Character-grid rendering, one line per row."""
    return "".join(ascii_parts(p, window, config))


def pbm_parts(p: PatternPoly, window: Window) -> Iterator[bytes]:
    """The parts of :func:`render_pbm`: the header, then batches of rows."""
    rows, width = _rows(p, window, DEFAULT_CONFIG), window.width  # the default origin is top_left
    yield b"P1\n%d %d\n" % (width, window.height)
    step = max(1, BATCH_BYTES // (2 * width))
    for k in range(0, len(rows), step):
        batch = rows[k : k + step]
        body = bytearray(b" ") * (2 * width * len(batch))  # "d d ... d\n" per row
        body[::2] = "".join([row_text(row, width) for row in batch]).encode()
        body[2 * width - 1 :: 2 * width] = b"\n" * len(batch)
        yield bytes(body)


def render_pbm(p: PatternPoly, window: Window) -> bytes:
    """Plain PBM (P1) bytes; 1 marks a pattern point, row 0 is y = 0."""
    return b"".join(pbm_parts(p, window))


def svg_parts(p: PatternPoly, window: Window, config: RenderConfig = DEFAULT_CONFIG) -> Iterator[str]:
    """The parts of :func:`render_svg`, every line ending in a newline: the header and the first rows,
    then batches of rows, the last ending in the footer.  ValueError, before any part, when the size
    is not finite."""
    persp = config.perspective or Perspective()
    widths = [config.cell * persp.rx**k for k in range(window.m + 1)]
    heights = [config.cell * persp.ry**l for l in range(window.n + 1)]
    total_w, total_h = sum(widths), sum(heights)
    if not (math.isfinite(total_w) and math.isfinite(total_h)):
        raise ValueError(f"SVG size {total_w:g} by {total_h:g} is not finite")
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w:g}" height="{total_h:g}" viewBox="0 0 {total_w:g} {total_h:g}">',
    ]
    return _svg_parts(header, widths, heights, _rows(p, window, config), window.width)


def _svg_parts(lines, widths, heights, rows, width) -> Iterator[str]:
    # column k starts at widths[0] + ... + widths[k-1], summed left to right; "\0" stands for y
    columns = [f'{x:g}" y="\0" width="{w:g}' for x, w in zip(accumulate(widths, initial=0.0), widths)]
    y, size = 0.0, 0
    for height, row in zip(heights, rows):
        if row:
            end = f'" height="{height:g}" fill="#000"/>'
            rects = f'{end}\n<rect x="'.join(compress(columns, bit_flags(row, width)))
            lines.append(line := f'<rect x="{rects}{end}'.replace("\0", f"{y:g}"))
            if (size := size + len(line)) >= BATCH_BYTES:
                lines.append("")  # the newline after the last line
                yield "\n".join(lines)
                lines, size = [], 0
        y += height
    lines += ["</svg>", ""]
    yield "\n".join(lines)


def render_svg(p: PatternPoly, window: Window, config: RenderConfig = DEFAULT_CONFIG) -> str:
    """SVG rendering: exactly one rect per lit cell.

    Cell sizes follow the display position: column k is cell*rx^k wide
    and display row l is cell*ry^l tall, positions cumulative, so a
    ratio below 1 makes pixels shrink rightward/downward.
    """
    return "".join(svg_parts(p, window, config))
