"""Tests of the benchmark's own output checks.

Run with ``python3 -m pytest bench/test_checks.py``; the repository's test
suite does not collect them.  Each check accepts known-good outputs taken
from the README and rejects an output with one deliberate fault.
"""

import checks

ONE_OVER_1_PLUS_X = [({(0, 0)}, {(0, 0), (1, 0)})]
DIAGONAL = [({(0, 0)}, {(0, 0), (1, 1)})]
CROSS = [({(0, 0)}, {(0, 0), (1, 0)}), ({(2, 0)}, {(0, 0), (0, 1)}),
         ({(0, 0)}, {(0, 0), (1, 0), (1, 2)})]
CROSS_ASCII = "..#..\n..#..\n.###.\n..#..\n"  # README, --grid 4x3


def formats(rows, width, height):
    """ASCII, PBM and SVG bytes of a pattern, in the renderers' documented layout."""
    lines = ["".join("#" if r >> i & 1 else "." for i in range(width)) for r in rows]
    ascii_out = ("\n".join(lines) + "\n").encode()
    pbm = ["P1", f"{width} {height}"] + [" ".join("1" if r >> i & 1 else "0" for i in range(width)) for r in rows]
    svg = [f'<svg width="{width * 16}" height="{height * 16}">']
    svg += [f'<rect x="{16 * i}" y="{16 * j}" width="16" height="16" fill="#000"/>'
            for j, r in enumerate(rows) for i in range(width) if r >> i & 1]
    return [(0, ascii_out), (0, ("\n".join(pbm) + "\n").encode()), (0, ("\n".join(svg + ["</svg>"]) + "\n").encode())]


def test_render_accepts_readme_patterns():
    assert checks.check_render(formats([0b11111, 0, 0, 0], 5, 4), 5, 4, ONE_OVER_1_PLUS_X) == []
    assert checks.check_render(formats([1, 2, 4, 8], 5, 4), 5, 4, DIAGONAL) == []
    rows = checks.read_ascii(CROSS_ASCII.encode(), 5, 4)
    assert checks.check_render(formats(rows, 5, 4), 5, 4, CROSS) == []


def test_identity_rejects_one_flipped_cell():
    rows = [1 << j for j in range(12)]  # 1/(1+x*y) on a 12x12 window
    assert checks.check_identity(rows, 11, 11, DIAGONAL) == []
    rows[5] ^= 1 << 7
    assert checks.check_identity(rows, 11, 11, DIAGONAL)


def test_render_rejects_a_cell_flipped_in_one_format():
    outputs = formats([1, 2, 4, 8], 5, 4)
    for k in range(3):
        bad = list(outputs)
        bad[k] = formats([1, 2, 6, 8], 5, 4)[k]
        assert checks.check_render(bad, 5, 4, DIAGONAL)


def test_svg_needs_one_rect_per_lit_cell():
    code, svg = formats([1, 2, 4, 8], 5, 4)[2]
    doubled = svg.replace(b"</svg>", b'<rect x="0" y="0" width="16" height="16" fill="#000"/>\n</svg>')
    outputs = formats([1, 2, 4, 8], 5, 4)
    assert checks.check_render(outputs[:2] + [(code, doubled)], 5, 4, DIAGONAL)


def test_order_of_1_plus_x_on_3x3_torus_is_4():
    a = checks.torus({(0, 0), (1, 0)}, 3, 3)
    assert checks.torus_rank(a, 3) < 9  # a zero divisor
    assert checks.check_order(a, 4, 3, unit=False) == []
    assert checks.check_order(a, 3, 3, unit=False)
    assert checks.check_order(a, 5, 3, unit=False)
    assert checks.element_order(a, 3, unit=False) == 4


def test_order_off_by_one_is_rejected_for_a_unit():
    a = checks.torus({(0, 0), (1, 0), (0, 2)}, 11, 11)  # 1+x+y^2
    k = checks.element_order(a, 11, unit=True)
    assert checks.check_order(a, k, 11, unit=True) == []
    assert checks.check_order(a, k - 1, 11, unit=True)
    assert checks.check_order(a, k + 1, 11, unit=True)
    assert checks.check_order(a, 2 * k, 11, unit=True)


def test_torus_analysis_accepts_and_rejects():
    m = n = 3
    x = {(1, 0)}
    x_inv = {(2, 0)}  # README: invert x mod 3,3 is x^2
    good = (x, x_inv, None, 3, {(2, 0)})  # 1/x evaluated in wrap mode
    assert checks.check_torus(x, {(0, 0)}, x, good, m, n) == []
    assert checks.check_torus(x, {(0, 0)}, x, (x, {(1, 0)}, None, 3, {(2, 0)}), m, n)  # wrong inverse
    assert checks.check_torus(x, {(0, 0)}, x, (x, None, {(0, 0)}, 3, {(2, 0)}), m, n)  # wrong status
    assert checks.check_torus(x, {(0, 0)}, x, (x, x_inv, None, 3, {(1, 0)}), m, n)  # wrong value
    a = {(0, 0), (1, 0)}
    ann = {(0, 0), (1, 0), (2, 0)}
    assert checks.check_torus(a, {(0, 0)}, x, (a, None, ann, 4, {(2, 0)}), m, n) == []
    assert checks.check_torus(a, {(0, 0)}, x, (a, None, {(0, 0), (1, 0)}, 4, {(2, 0)}), m, n)


def test_lfsr_1_plus_x_plus_x3_count_7():
    q = 0b1011
    bits = tuple(int(b) for b in "1110100")  # README
    assert checks.check_lfsr(bits, 7, q) == []
    assert checks.check_lfsr(bits[:6] + (1,), 7, q)  # one wrong bit
    assert checks.check_lfsr(bits[:3], 1, q)  # the prefix-period hint: ord(q) is 7


def test_dseq_19_count_18():
    bits = tuple(int(b) for b in "000011010111100101")  # README
    assert checks.check_dseq(bits, 18, 19) == []
    assert checks.check_dseq(bits[:-1] + (0,), 18, 19)
    assert checks.check_dseq(bits, 9, 19)


def test_period_fold_and_codec():
    bits = tuple(int(b) for b in "111101011001000")  # 1/(1+x+x^4), period 15
    out = sequence_outputs(bits, 3, 5)
    assert checks.check_sequence("lfsr", 0b10011, 3, 5, out) == []
    bits_wrong_period = (out[0], out[1], out[2] - 1) + out[3:]
    assert checks.check_sequence("lfsr", 0b10011, 3, 5, bits_wrong_period)
    grids = list(out[3])
    swapped = [list(r) for r in grids[0]]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
    grids[0] = tuple(tuple(r) for r in swapped)
    assert checks.check_sequence("lfsr", 0b10011, 3, 5, out[:3] + (tuple(grids),) + out[4:])
    supports = list(out[5])
    supports[2] = set(supports[2]) ^ {(0, 0)}
    assert checks.check_sequence("lfsr", 0b10011, 3, 5, out[:5] + (tuple(supports),) + out[6:])


def sequence_outputs(bits, rows, cols):
    grids = []
    for scheme in checks.SCHEMES:
        grid = [[0] * cols for _ in range(rows)]
        for t, b in enumerate(bits):
            r, c = checks.fold_position(t, rows, cols, scheme)
            grid[r][c] = b
        grids.append(tuple(tuple(r) for r in grid))
    supports = tuple({mono for mono, b in zip(checks.monomials(o, len(bits)), bits) if b}
                     for o in checks.ORDERINGS)
    return (bits, 15, checks.kmp_period(bits), tuple(grids), (bits,) * 3, supports, (bits,) * 3)


def test_monomial_orders_match_the_readme():
    assert checks.monomials("diagonal", 10) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                                (3, 0), (2, 1), (1, 2), (0, 3)]
    assert checks.monomials("boustrophedon", 6) == [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0)]
    assert checks.monomials("meander", 10) == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2),
                                               (2, 2), (2, 1), (2, 0), (3, 0)]


def test_kmp_period():
    assert checks.kmp_period((1, 1, 1, 0, 1, 0, 0, 1, 1, 1)) == 7
    assert checks.kmp_period((0,)) == 1
    assert checks.kmp_period((1, 0, 1, 0, 1)) == 2
