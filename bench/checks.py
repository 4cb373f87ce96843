"""Output checks computed apart from polyplane.

Nothing here imports polyplane.  A pattern is a list of row ints (bit i of
row j is the cell x^i y^j), a polynomial is a set of (i, j) exponent
pairs, a torus element is a tuple of n row ints of m bits each, and a bit
sequence is a tuple of 0/1.  Every check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math
import re


# -- GF(2) polynomials as sets of exponent pairs ------------------------------

def poly_mul(a, b):
    acc = set()
    for i, j in a:
        for k, l in b:
            acc ^= {(i + k, j + l)}
    return acc


def poly_prod(polys):
    acc = {(0, 0)}
    for p in polys:
        acc = poly_mul(acc, p)
    return acc


def poly_text(p) -> str:
    """Expression-language text of a polynomial: "1", "x^-1*y", "x^3+y"."""
    def mono(i, j):
        if i == 0 and j == 0:
            return "1"
        parts = []
        if i:
            parts.append("x" if i == 1 else f"x^{i}")
        if j:
            parts.append("y" if j == 1 else f"y^{j}")
        return "*".join(parts)
    return "+".join(mono(i, j) for i, j in sorted(p, key=lambda t: (t[1], t[0])))


# -- readers for the three render formats --------------------------------------

def read_ascii(data: bytes, width: int, height: int, on="#", off="."):
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "" or len(lines) != height + 1:
        raise ValueError(f"ascii: expected {height} newline-terminated lines")
    rows = []
    for j, line in enumerate(lines[:height]):
        if len(line) != width or set(line) - {on, off}:
            raise ValueError(f"ascii: line {j} is not {width} glyphs")
        rows.append(int(line[::-1].replace(on, "1").replace(off, "0"), 2))
    return rows


def read_pbm(data: bytes, width: int, height: int):
    tokens = data.decode("ascii").split()
    if tokens[:3] != ["P1", str(width), str(height)] or len(tokens) != 3 + width * height:
        raise ValueError("pbm: bad header or cell count")
    rows = []
    for j in range(height):
        cells = tokens[3 + j * width: 3 + (j + 1) * width]
        if set(cells) - {"0", "1"}:
            raise ValueError(f"pbm: row {j} has a token other than 0 or 1")
        rows.append(int("".join(reversed(cells)), 2))
    return rows


_RECT = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" fill="#000"/>')


def read_svg(data: bytes, width: int, height: int, cell: float = 16.0):
    """Rows of the lit cells and the number of rect elements."""
    text = data.decode("utf-8")
    size = f'width="{width * cell:g}" height="{height * cell:g}"'
    if size not in text:
        raise ValueError(f"svg: canvas is not {size}")
    rows = [0] * height
    count = 0
    for x, y, w, h in _RECT.findall(text):
        if float(w) != cell or float(h) != cell:
            raise ValueError("svg: rect of the wrong size")
        i, j = float(x) / cell, float(y) / cell
        if i != int(i) or j != int(j) or not (0 <= i < width and 0 <= j < height):
            raise ValueError(f"svg: rect at ({x}, {y}) is off the cell grid")
        rows[int(j)] |= 1 << int(i)
        count += 1
    if text.count("<rect") != count:
        raise ValueError("svg: a rect element does not have the expected form")
    return rows, count


# -- windowed series identity ---------------------------------------------------

def check_identity(rows, m: int, n: int, terms):
    """D * pattern == sum_k N_k * D / D_k on every cell whose sources lie in the window.

    ``terms`` is a list of (numerator, denominator) polynomials and D is the
    product of all denominators; the product is a convolution mod 2.
    """
    dens = [den for _, den in terms]
    d = poly_prod(dens)
    rhs = set()
    for k, (num, _) in enumerate(terms):
        rhs ^= poly_mul(num, poly_prod(dens[:k] + dens[k + 1:]))
    xs = [a for a, _ in d]
    ys = [b for _, b in d]
    lo_x, hi_x = max(0, max(xs)), min(m, m + min(xs))
    lo_y, hi_y = max(0, max(ys)), min(n, n + min(ys))
    if lo_x > hi_x or lo_y > hi_y:
        return ["identity: no window cell has all its sources inside the window"]
    mask = (1 << (hi_x + 1)) - (1 << lo_x)
    want = [0] * (n + 1)
    for i, j in rhs:
        if lo_x <= i <= hi_x and lo_y <= j <= hi_y:
            want[j] ^= 1 << i
    for j in range(lo_y, hi_y + 1):
        acc = 0
        for a, b in d:
            src = rows[j - b]
            acc ^= src << a if a >= 0 else src >> -a
        diff = (acc & mask) ^ want[j]
        if diff:
            i = (diff & -diff).bit_length() - 1
            return [f"identity: D*pattern differs from the numerator sum at ({i}, {j})"]
    return []


def check_render(outputs, width: int, height: int, terms):
    """outputs: (exit code, bytes) for ascii, pbm and svg, in that order."""
    codes = [rc for rc, _ in outputs]
    if codes != [0, 0, 0]:
        return [f"render: exit codes {codes}"]
    try:
        ascii_rows = read_ascii(outputs[0][1], width, height)
        pbm_rows = read_pbm(outputs[1][1], width, height)
        svg_rows, rects = read_svg(outputs[2][1], width, height)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if pbm_rows != ascii_rows:
        problems.append("render: pbm and ascii disagree")
    if svg_rows != ascii_rows:
        problems.append("render: svg and ascii disagree")
    lit = sum(bin(r).count("1") for r in ascii_rows)
    if rects != lit:
        problems.append(f"render: {rects} rects for {lit} lit cells")
    return problems + check_identity(ascii_rows, width - 1, height - 1, terms)


# -- torus arithmetic: rows of m-bit ints, n rows ---------------------------------

def torus(terms, m: int, n: int):
    rows = [0] * n
    for i, j in terms:
        rows[j % n] ^= 1 << (i % m)
    return tuple(rows)


def _rotl(v: int, s: int, m: int) -> int:
    return ((v << s) | (v >> (m - s))) & ((1 << m) - 1) if s else v


def torus_mul(a, b, m: int):
    n = len(a)
    out = [0] * n
    for j, row in enumerate(a):
        while row:
            low = row & -row
            i = low.bit_length() - 1
            row ^= low
            for l, brow in enumerate(b):
                if brow:
                    out[(j + l) % n] ^= _rotl(brow, i, m)
    return tuple(out)


def torus_pow(a, e: int, m: int):
    result = torus({(0, 0)}, m, len(a))
    while e:
        if e & 1:
            result = torus_mul(result, a, m)
        a = torus_mul(a, a, m)
        e >>= 1
    return result


def torus_rank(a, m: int) -> int:
    """GF(2) rank of multiplication by a on the m*n-dimensional ring."""
    n = len(a)
    pivots = {}
    for dj in range(n):
        for di in range(m):
            prod = torus_mul(a, torus({(di, dj)}, m, n), m)
            v = 0
            for j, row in enumerate(prod):
                v |= row << (j * m)
            while v:
                top = v.bit_length()
                if top not in pivots:
                    pivots[top] = v
                    break
                v ^= pivots[top]
    return len(pivots)


def prime_factors(k: int):
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


def unit_group_exponent(m: int, n: int) -> int:
    """2^L - 1 with L the order of 2 mod lcm(m, n); m and n odd.

    The ring is then a product of fields of sizes 2^l with l | L, so every
    nonzero component of an element satisfies c^(2^L - 1) = 1.
    """
    mod = math.lcm(m, n)
    if mod == 1:
        return 1
    L, p = 1, 2 % mod
    while p != 1:
        p, L = p * 2 % mod, L + 1
    return (1 << L) - 1


def element_order(a, m: int, unit: bool) -> int:
    """Least k >= 1 with a^k = 1 (unit), or least k >= 2 with a^k = a (odd moduli)."""
    target = torus({(0, 0)}, m, len(a)) if unit else a
    d = unit_group_exponent(m, len(a))
    for p in prime_factors(d):
        while d % p == 0:
            power = torus_pow(a, d // p, m)
            if (power if unit else torus_mul(power, a, m)) != target:
                break
            d //= p
    return d if unit else d + 1


def _in_torus(support, m: int, n: int) -> bool:
    return all(0 <= i < m and 0 <= j < n for i, j in support)


def check_torus(terms, num, den, out, m: int, n: int):
    """Checks of one element analysis on the m x n torus.

    ``out`` holds the supports returned by reduce, inverse and annihilator
    (None where there is no result), the order, and the support of the
    wrap-mode value of num/den.
    """
    r, inv, ann, k, val = out
    if not all(_in_torus(p, m, n) for p in (r, inv or (), ann or (), val)):
        return ["torus: a result is not reduced"]
    a = torus(terms, m, n)
    if torus(r, m, n) != a:
        return ["reduce: wrong residue"]
    unit = torus_rank(a, m) == m * n
    if (inv is not None) != unit:
        return [f"status: inverse() says unit={inv is not None}, the rank says unit={unit}"]
    if unit and torus_mul(a, torus(inv, m, n), m) != torus({(0, 0)}, m, n):
        return ["inverse: a * inverse(a) != 1"]
    if not unit and (not ann or torus_mul(a, torus(ann, m, n), m) != (0,) * n):
        return ["annihilator: zero, or a * annihilator(a) != 0"]
    problems = check_order(a, k, m, unit)
    if torus_mul(torus(val, m, n), torus(den, m, n), m) != torus(num, m, n):
        problems.append("evaluate: (num/den) * den != num")
    return problems


def check_order(a, k: int, m: int, unit: bool):
    """a^k returns to 1 (unit) or to a, and no exponent k/p (k-1 over p) does."""
    one = torus({(0, 0)}, m, len(a))
    target = one if unit else a
    base = k if unit else k - 1
    if base < 1 or torus_pow(a, k, m) != target:
        return [f"order: a^{k} is not {'1' if unit else 'a'}"]
    for p in prime_factors(base):
        e = base // p + (0 if unit else 1)
        if torus_pow(a, e, m) == target:
            return [f"order: a^{e} already returns, so {k} is not the least"]
    return []


# -- one-dimensional sequences -------------------------------------------------

def kmp_period(bits) -> int:
    """Least period of a finite word: n - (longest proper border)."""
    n = len(bits)
    fail = [0] * (n + 1)
    fail[0] = -1
    k = -1
    for i in range(n):
        while k >= 0 and bits[k] != bits[i]:
            k = fail[k]
        k += 1
        fail[i + 1] = k
    return n - fail[n]


def clmul(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def poly_order(q: int) -> int:
    """Least e >= 1 with q | x^e - 1; q is a GF(2)[x] polynomial as an int, q(0) = 1."""
    deg = q.bit_length() - 1
    if deg == 0:
        return 1
    r, e = 1, 0
    while True:
        r <<= 1
        if r >> deg & 1:
            r ^= q
        e += 1
        if r == 1:
            return e


def order_of_two(p: int) -> int:
    """Least h >= 1 with 2^h = 1 mod p, from the divisors of p - 1."""
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    return next(d for d in divisors if pow(2, d, p) == 1)


def check_dseq(bits, hint, p: int):
    for k, b in enumerate(bits):
        if b != pow(2, k + 1, p) % 2:
            return [f"dseq: bit {k} is {b}"]
    if hint != order_of_two(p):
        return [f"dseq: period hint {hint}, order of 2 mod {p} is {order_of_two(p)}"]
    return []


def check_lfsr(bits, hint, q: int):
    """q * c == 1 mod x^count, and the hint is ord(q)."""
    c = sum(b << k for k, b in enumerate(bits))
    if clmul(q, c) & ((1 << len(bits)) - 1) != 1:
        return ["lfsr: q*c is not 1 mod x^count"]
    if hint != poly_order(q):
        return [f"lfsr: period hint {hint}, but ord(q) is {poly_order(q)}"]
    return []


SCHEMES = ("diagonal", "row_major", "col_major")
ORDERINGS = ("diagonal", "boustrophedon", "meander")


def check_sequence(kind: str, generator: int, rows: int, cols: int, out):
    """Checks of one sequence_fold operation.

    ``generator`` is the prime p of a d-sequence or the polynomial q (as an
    int) of a shift-register sequence; ``out`` holds the bits, the period
    hint, period(), the grids and unfolded bits per scheme, and the decoded
    supports and encoded bits per ordering.
    """
    bits, hint, t, grids, flat, supports, codes = out
    if len(bits) != rows * cols:
        return [f"sequence: {len(bits)} bits, asked for {rows * cols}"]
    if kind == "dseq":
        problems = check_dseq(bits, hint, generator)
    else:
        problems = check_lfsr(bits, hint, generator)
    if t != kmp_period(bits):
        problems.append(f"period: {t}, KMP gives {kmp_period(bits)}")
    for scheme, grid, back in zip(SCHEMES, grids, flat):
        problems += check_fold(bits, grid, rows, cols, scheme)
        if tuple(back) != tuple(bits):
            problems.append(f"unfold {scheme}: does not round-trip")
    for ordering, support, code in zip(ORDERINGS, supports, codes):
        problems += check_codec(bits, support, code, ordering)
    return problems


def fold_position(t: int, rows: int, cols: int, scheme: str):
    """Cell of 0-indexed term t: CRT diagonal, row-major or column-major."""
    if scheme == "diagonal":
        return t % rows, t % cols
    if scheme == "row_major":
        return divmod(t, cols)
    return t % rows, t // rows


def check_fold(bits, grid, rows: int, cols: int, scheme: str):
    if len(grid) != rows or any(len(r) != cols for r in grid):
        return [f"fold {scheme}: grid is not {rows}x{cols}"]
    for t, b in enumerate(bits):
        r, c = fold_position(t, rows, cols, scheme)
        if grid[r][c] != b:
            return [f"fold {scheme}: term {t} is not at ({r}, {c})"]
    return []


def monomials(ordering: str, count: int):
    """The first count monomials of an ordering, walked shell by shell.

    diagonal walks antidiagonals i+j = d from the x end; boustrophedon does
    the same on odd d and starts from the y end on even d; meander walks
    square shells max(i, j) = s, odd shells (s,0)->(s,s)->(0,s), even
    shells the reverse.
    """
    out = []
    s = 0
    while len(out) < count:
        if ordering == "meander":
            shell = [(s, j) for j in range(s)] + [(i, s) for i in range(s, -1, -1)]
            out.extend(shell if s % 2 else shell[::-1])
        else:
            diag = [(s - j, j) for j in range(s + 1)]
            out.extend(diag if ordering == "diagonal" or s % 2 else diag[::-1])
        s += 1
    return out[:count]


def check_codec(bits, support, encoded, ordering: str):
    want = {mono for mono, b in zip(monomials(ordering, len(bits)), bits) if b}
    if set(support) != want:
        return [f"decode {ordering}: wrong monomials"]
    if tuple(encoded) != tuple(bits):
        return [f"encode {ordering}: does not round-trip"]
    return []
