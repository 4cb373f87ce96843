"""Reference timings of single polyplane calls, for the README's table.

    python3 bench/baselines.py

Each case is timed REPEAT times in this process (median and minimum, in ms);
the CLI case runs the README's cross render as a fresh subprocess.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from polyplane import QuotientRing, Window, parse_poly, reciprocal, render_ascii, render_svg  # noqa: E402

CROSS = "1/(1+x) + x^2/(1+y) + 1/(1+x+x*y^2)"
REPEAT = 9


def timed(fn) -> tuple:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times), min(times)


def main() -> None:
    w512 = Window(511, 511)
    taps = parse_poly("1+x+x*y^2")
    pattern = reciprocal(taps, w512)
    square = reciprocal(parse_poly("1+x+y"), Window(64, 64))  # Pascal's triangle mod 2, 857 terms
    assert len(square) == 857
    ring = QuotientRing(11, 11)
    element = parse_poly("1+x+y^2")
    cli = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); from polyplane.cli import main; main()",
           "render", "--expr", CROSS, "--grid", "4x3"]
    cases = [
        ("reciprocal(1+x+x*y^2), 512x512", lambda: reciprocal(taps, w512)),
        ("reciprocal(1+x^-1*y+x*y), 512x512", lambda: reciprocal(parse_poly("1+x^-1*y+x*y"), w512)),
        ("self-multiply, 857 terms", lambda: square * square),
        ("render_svg, 512x512", lambda: render_svg(pattern, w512)),
        ("render_ascii, 512x512", lambda: render_ascii(pattern, w512)),
        ("order(1+x+y^2), 11x11 torus", lambda: ring.order(element)),
        ("CLI cross render, subprocess wall", lambda: subprocess.run(cli, check=True, capture_output=True)),
    ]
    print(f"{'case':40s} {'median ms':>10s} {'min ms':>8s}")
    for name, fn in cases:
        med, best = timed(fn)
        print(f"{name:40s} {med:10.1f} {best:8.1f}")


if __name__ == "__main__":
    main()
