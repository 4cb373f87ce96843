import random
import re
import xml.etree.ElementTree as ET

import pytest

from polyplane.dsl import evaluate, parse
from polyplane.poly import ZERO, PatternPoly, Window
from polyplane.render import Perspective, RenderConfig, render_ascii, render_pbm, render_svg

CROSS = PatternPoly([(2, 0), (2, 1), (2, 2), (2, 3), (1, 2), (3, 2)])


def read_pbm(data: bytes) -> list[list[int]]:
    """Minimal plain-PBM reader, used only to round-trip the writer."""
    tokens = data.decode("ascii").split()
    assert tokens[0] == "P1"
    width, height = int(tokens[1]), int(tokens[2])
    bits = [int(t) for t in tokens[3:]]
    assert len(bits) == width * height
    return [bits[r * width : (r + 1) * width] for r in range(height)]


def test_ascii_tiny_grid():
    got = render_ascii(PatternPoly([(0, 0), (1, 1)]), Window(2, 1))
    assert got == "#..\n.#."


def test_ascii_cross_golden():
    assert render_ascii(CROSS, Window(4, 3)) == "..#..\n..#..\n.###.\n..#.."


def test_ascii_empty_pattern():
    assert render_ascii(ZERO, Window(2, 2)) == "...\n...\n..."


def test_ascii_shape_and_population():
    rng = random.Random(53)
    for _ in range(25):
        w = Window(rng.randrange(1, 7), rng.randrange(1, 7))
        p = PatternPoly(
            (rng.randrange(w.m + 1), rng.randrange(w.n + 1)) for _ in range(rng.randrange(9))
        )
        text = render_ascii(p, w)
        lines = text.split("\n")
        assert len(lines) == w.n + 1
        assert all(len(line) == w.m + 1 for line in lines)
        assert text.count("#") == len(p)


def test_ascii_bottom_left_is_vertical_mirror():
    cfg = RenderConfig(origin="bottom_left")
    rng = random.Random(59)
    for _ in range(10):
        w = Window(rng.randrange(1, 6), rng.randrange(1, 6))
        p = PatternPoly(
            (rng.randrange(w.m + 1), rng.randrange(w.n + 1)) for _ in range(6)
        )
        top = render_ascii(p, w).split("\n")
        bottom = render_ascii(p, w, cfg).split("\n")
        assert bottom == top[::-1]


def test_ascii_custom_glyphs():
    cfg = RenderConfig(glyph_on="@", glyph_off=" ")
    assert render_ascii(PatternPoly([(0, 0)]), Window(1, 0), cfg) == "@ "


def test_pbm_single_point_golden():
    assert render_pbm(PatternPoly([(0, 0)]), Window(1, 1)) == b"P1\n2 2\n1 0\n0 0\n"


def test_pbm_empty_golden():
    assert render_pbm(ZERO, Window(0, 0)) == b"P1\n1 1\n0\n"


def test_pbm_checkerboard_has_ten_ones():
    board = evaluate(parse("1/(1+xy) + x^2/(1+xy) + y^2/(1+xy) + x^4/(1+xy)"), Window(4, 3))
    data = render_pbm(board, Window(4, 3))
    body = data.split(b"\n", 2)[2]  # skip the magic and dimensions lines
    assert body.count(b"1") == 10


def test_pbm_round_trip():
    rng = random.Random(61)
    for _ in range(20):
        w = Window(rng.randrange(0, 6), rng.randrange(0, 6))
        p = PatternPoly(
            (rng.randrange(w.m + 1), rng.randrange(w.n + 1)) for _ in range(rng.randrange(8))
        )
        rows = read_pbm(render_pbm(p, w))
        recovered = PatternPoly(
            (i, j) for j, row in enumerate(rows) for i, b in enumerate(row) if b
        )
        assert recovered == p


def test_svg_single_rect():
    text = render_svg(PatternPoly([(0, 0)]), Window(0, 0))
    assert text.count("<rect") == 1
    ET.fromstring(text)  # well-formed


def test_svg_rect_count_matches_support():
    board = evaluate(parse("1/(1+xy) + x^2/(1+xy) + y^2/(1+xy) + x^4/(1+xy)"), Window(4, 3))
    text = render_svg(board, Window(4, 3))
    assert text.count("<rect") == 10


def test_svg_geometric_column_widths():
    w = Window(4, 3)
    full = PatternPoly((i, j) for i in range(5) for j in range(4))
    cfg = RenderConfig(cell=10.0, perspective=Perspective(rx=0.8, ry=1.0))
    text = render_svg(full, w, cfg)
    assert text.count("<rect") == 20
    rects = [
        (float(m.group(1)), float(m.group(2)), float(m.group(3)), float(m.group(4)))
        for m in re.finditer(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)"', text)
    ]
    row0 = sorted((x, width) for x, y, width, _ in rects if y == 0.0)
    expected_x = 0.0
    for k, (x, width) in enumerate(row0):
        assert x == pytest.approx(expected_x, abs=1e-9)
        assert width == pytest.approx(10.0 * 0.8**k, abs=1e-9)
        expected_x += width
    heights = {h for _, _, _, h in rects}
    assert heights == {10.0}  # ry = 1.0 keeps rows uniform


def test_svg_uniform_dimensions():
    text = render_svg(ZERO, Window(3, 1), RenderConfig(cell=8.0))
    root = ET.fromstring(text)
    assert root.get("width") == "32"
    assert root.get("height") == "16"
    assert text.count("<rect") == 0


def test_svg_refuses_a_size_that_is_not_finite():
    # each cell is finite, but two of them sum to inf
    with pytest.raises(ValueError, match="not finite"):
        render_svg(ZERO, Window(1, 0), RenderConfig(cell=1e308))
    assert 'width="1e+308"' in render_svg(ZERO, Window(0, 0), RenderConfig(cell=1e308))


def test_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(glyph_on="##")
    with pytest.raises(ValueError):
        RenderConfig(glyph_on=".", glyph_off=".")
    with pytest.raises(ValueError):
        RenderConfig(origin="center")
    with pytest.raises(ValueError):
        RenderConfig(cell=0)
    with pytest.raises(ValueError):
        Perspective(rx=0.0)
    with pytest.raises(ValueError):
        Perspective(ry=1.5)


# -- the row renderers against per-cell references -----------------------------


def reference_ascii(p, window, config):
    rows = range(window.n + 1) if config.origin == "top_left" else range(window.n, -1, -1)
    return "\n".join(
        "".join(config.glyph_on if (i, j) in p.support else config.glyph_off for i in range(window.m + 1))
        for j in rows
    )


def reference_pbm(p, window):
    lines = ["P1", f"{window.width} {window.height}"]
    for j in range(window.n + 1):
        lines.append(" ".join("1" if (i, j) in p.support else "0" for i in range(window.m + 1)))
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_svg(p, window, config):
    persp = config.perspective or Perspective()
    widths = [config.cell * persp.rx**k for k in range(window.m + 1)]
    heights = [config.cell * persp.ry**l for l in range(window.n + 1)]
    total_w, total_h = format(sum(widths), "g"), format(sum(heights), "g")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
    ]
    rows = range(window.n + 1) if config.origin == "top_left" else range(window.n, -1, -1)
    y = 0.0
    for l, j in enumerate(rows):
        x = 0.0
        for k in range(window.m + 1):
            if (k, j) in p.support:
                lines.append(
                    f'<rect x="{x:g}" y="{y:g}" width="{widths[k]:g}" height="{heights[l]:g}" fill="#000"/>'
                )
            x += widths[k]
        y += heights[l]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _reference_cases(rng):
    # small random windows and patterns, cells up to three outside the window on every side
    for _ in range(300):
        w = Window(rng.randrange(0, 12), rng.randrange(0, 12))
        yield w, PatternPoly(
            (rng.randint(-3, w.m + 3), rng.randint(-3, w.n + 3)) for _ in range(rng.randrange(40))
        )
    # wide windows, so that rows cross the 64- and 256-bit widths
    dense = ["1/(1+x)", "1/(1+x+y)", "1/((1+x)(1+y))", "1/(1+x+x^2+y)", "x^-7/(1+x+y^2)",
             "1/(1+x+y^2)", "y^3/(1+x*y^2)"]  # the last two also leave rows empty
    for _ in range(14):
        w = Window(rng.randrange(0, 300), rng.randrange(0, 300) if rng.random() < 0.3 else rng.randrange(0, 24))
        yield w, evaluate(parse(rng.choice(dense)), w)
    for text in ("1/(1+x+y)", "1/((1+x)(1+y))"):
        yield Window(299, 299), evaluate(parse(text), Window(299, 299))
    for m, n in ((63, 2), (64, 3), (255, 1), (256, 2), (299, 5), (5, 299)):
        w = Window(m, n)
        yield w, PatternPoly.from_rows([(1 << m + 1) - 1] * (n + 1))  # every window cell lit
        yield w, PatternPoly(  # sparse, with empty rows between lit ones
            (rng.randint(-3, m + 3), rng.randrange(0, n + 1, 2)) for _ in range(rng.randrange(1, 60))
        )


def test_renderers_match_per_cell_references():
    rng = random.Random(71)
    glyphs = [("#", "."), ("1", "0"), ("0", "1"), ("@", " ")]
    for w, p in _reference_cases(rng):
        on, off = rng.choice(glyphs)
        perspective = rng.choice([None, Perspective(rng.uniform(0.2, 1), rng.uniform(0.2, 1))])
        cfg = RenderConfig(on, off, rng.choice(["top_left", "bottom_left"]),
                           rng.choice([16.0, 10.0, 2.5, 1e-05, 3e-07, 1.5e+17]), perspective)
        assert render_ascii(p, w, cfg) == reference_ascii(p, w, cfg)
        assert render_pbm(p, w) == reference_pbm(p, w)
        assert render_svg(p, w, cfg) == reference_svg(p, w, cfg)


@pytest.mark.parametrize("batch", [1, 300, 5000])
def test_renderers_match_per_cell_references_in_any_batch_size(monkeypatch, batch):
    # the parts are cut at rows: one row a part (1), a few (300), or many, whatever the width
    from polyplane import render

    monkeypatch.setattr(render, "BATCH_BYTES", batch)
    rng = random.Random(73)
    for k, (w, p) in enumerate(_reference_cases(rng)):
        if k % 5:
            continue
        cfg = RenderConfig("@", " ", rng.choice(["top_left", "bottom_left"]), 2.5, Perspective(0.9, 0.8))
        assert render_ascii(p, w, cfg) == reference_ascii(p, w, cfg)
        assert render_pbm(p, w) == reference_pbm(p, w)
        assert render_svg(p, w, cfg) == reference_svg(p, w, cfg)
