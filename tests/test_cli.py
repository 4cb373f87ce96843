import argparse
import io
import os
import random
import subprocess
import sys
import time

import pytest
from sympy import factorint

from polyplane.cli import build_parser, run
from polyplane.dsl import parse_poly as P
from polyplane.poly import Window, term_text
from polyplane.series import reciprocal


def test_expand_terms(capsys):
    code = run(["expand", "--expr", "1/(1+x+x*y^2)", "--grid", "4x3", "--format", "terms"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "1+x+x^2+x^3+x*y^2+x^4+x^3*y^2\n"
    assert err == ""


def test_expand_default_format_is_terms(capsys):
    assert run(["expand", "--expr", "1+x", "--grid", "2x2"]) == 0
    assert capsys.readouterr().out == "1+x\n"


def test_expand_size_flag_equivalent_to_grid(capsys):
    run(["expand", "--expr", "1/(1+x)", "--grid", "4x3"])
    by_grid = capsys.readouterr().out
    run(["expand", "--expr", "1/(1+x)", "--size", "5x4"])
    assert capsys.readouterr().out == by_grid


def test_expand_wrap_mode(capsys):
    assert run(["expand", "--expr", "1/x", "--grid", "2x2", "--mode", "wrap"]) == 0
    assert capsys.readouterr().out == "x^2\n"


def test_render_refuses_an_svg_whose_size_is_not_finite(capsys):
    assert run(["render", "--expr", "1", "--grid", "1x0", "--format", "svg", "--cell", "1e308"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_render_refuses_a_cell_size_that_is_not_finite(capsys, cell):
    assert run(["render", "--expr", "1", "--grid", "1x0", "--format", "svg", "--cell", cell]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cell size must be positive\n"


def test_expand_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1/(1+y)"))
    assert run(["expand", "--stdin", "--grid", "2x3"]) == 0
    assert capsys.readouterr().out == "1+y+y^2+y^3\n"


def test_render_ascii_cross(capsys):
    expr = "1/(1+x) + x^2/(1+y) + 1/(1+x+x*y^2)"
    assert run(["render", "--expr", expr, "--grid", "4x3"]) == 0
    assert capsys.readouterr().out == "..#..\n..#..\n.###.\n..#..\n"


def test_render_pbm_golden(capsysbinary):
    assert run(["render", "--expr", "1", "--grid", "1x1", "--format", "pbm"]) == 0
    out, err = capsysbinary.readouterr()
    assert out == b"P1\n2 2\n1 0\n0 0\n"
    assert err == b""


def test_render_svg(capsys):
    expr = "1/(1+xy) + x^2/(1+xy) + y^2/(1+xy) + x^4/(1+xy)"
    assert run(["render", "--expr", expr, "--grid", "4x3", "--format", "svg",
                "--rx", "0.8", "--cell", "10"]) == 0
    out = capsys.readouterr().out
    assert out.count("<rect") == 10
    assert out.startswith("<?xml")


def test_order_command(capsys):
    assert run(["order", "--element", "1+x", "--mod", "3,3"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_order_of_monomial(capsys):
    assert run(["order", "--element", "x", "--mod", "3,3"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_order_of_a_unit_mod_x61_is_fast(capsys):
    start = time.perf_counter()
    assert run(["order", "--element", "1+x+x^2", "--mod", "61,1"]) == 0
    assert time.perf_counter() - start < 1.0
    k = int(capsys.readouterr().out)

    def power(e):  # (1+x+x^2)^e mod x^61 - 1, as an int with bit i for x^i
        acc, base = 1, 0b111
        while e:
            if e & 1:
                acc = product(acc, base)
            base, e = product(base, base), e >> 1
        return acc

    def product(u, v):  # carry-less product, folded by x^61 = 1
        acc = 0
        for i in range(61):
            if u >> i & 1:
                acc ^= v << i
        return (acc ^ acc >> 61) & ((1 << 61) - 1)

    assert power(k) == 1
    for p in factorint(k):
        assert power(k // p) != 1


def test_order_on_a_hard_to_factor_exponent_is_fast(capsys):
    start = time.perf_counter()
    assert run(["order", "--element", "x", "--mod", "823,1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "823\n"


def test_invert_command(capsys):
    assert run(["invert", "--element", "x", "--mod", "3,3"]) == 0
    assert capsys.readouterr().out == "x^2\n"


def test_invert_non_unit_fails(capsys):
    code = run(["invert", "--element", "1+x", "--mod", "3,3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "not invertible" in err


def test_table_command(capsys):
    assert run(["table", "--mod", "2,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["*", "1", "x", "y", "x*y"]
    assert lines[1].split() == ["1", "1", "x", "y", "x*y"]
    assert lines[4].split() == ["x*y", "x*y", "y", "x", "1"]


def test_table_3x3_is_column_aligned(capsys):
    assert run(["table", "--mod", "3,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("*")
    # row x, column x^2 holds 1 (from x * x^2 = x^3 = 1)
    assert lines[2].split() == ["x", "x", "x^2", "x*y", "1", "x^2*y", "x*y^2", "y", "x^2*y^2", "y^2"]


def test_map_command(capsys):
    code = run(["map", "--seq", "000100110101111", "--rows", "3", "--cols", "5",
                "--scheme", "diagonal"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "01111\n00110\n01001\n"


def test_map_non_coprime_is_domain_error(capsys):
    code = run(["map", "--seq", "0101", "--rows", "2", "--cols", "4", "--scheme", "diagonal"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "coprime" in err


def test_dseq_command(capsys):
    assert run(["dseq", "--p", "19", "--count", "18"]) == 0
    assert capsys.readouterr().out == "000011010111100101\n"


def test_dseq_composite_is_domain_error(capsys):
    assert run(["dseq", "--p", "9", "--count", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "prime" in err


def test_dseq_of_a_large_prime_is_fast(capsys):
    # trial division up to the square root of 10^18 + 3 took minutes
    start = time.perf_counter()
    assert run(["dseq", "--p", "1000000000000000003", "--count", "8"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "00000000\n"


def test_a_pattern_too_large_to_store_is_a_domain_error(capsys):
    assert run(["expand", "--expr", "(1+x^100000000000)/(1+y)", "--grid", "1x1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "too large" in err


def run_capped(argv: list[str], *, code: str | None = None, stdout=subprocess.PIPE):
    """The CLI in a child process whose address space is capped at 1 GB, and its wall time; the cap
    turns an allocation past it into a quick MemoryError instead of a machine-wide one.  With code,
    the child runs that Python source with argv as its arguments instead of `-m polyplane`."""
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *(["-c", code] if code else ["-m", "polyplane"]), *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                          preexec_fn=cap_memory)
    return done, time.perf_counter() - start


def test_a_series_band_too_large_to_store_is_a_domain_error():
    # the term reaches the window, so its band would span 10^11 columns; it is
    # refused before any row is built
    done, seconds = run_capped(["expand", "--expr", "x^-100000000000/(1+x)", "--grid", "1x1"])
    assert seconds < 1.0
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "too large" in done.stderr


def test_a_tall_window_writes_only_its_live_rows():
    # the expansion stops at its first dead series rows and writes the window
    # rows up to them only: a list of all 400,000,001 rows would take 3.2 GB
    for expr, want in (("1", "1\n"), ("y^3/(1+x+x^2)", "y^3+x*y^3\n"), ("x/(1+x^9*y)", "x\n"),
                       ("y^100000000", "y^100000000\n")):  # rows are counted from the first one lit
        done, seconds = run_capped(["expand", "--expr", expr, "--grid", "1x400000000"])
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
        assert seconds < 2.0
    # in-row taps whose band is too tall for one packed product: the row loop stops by row 34
    want = f"{reciprocal(P('1+x+x^3*y'), Window(100, 100))}\n"
    done, seconds = run_capped(["expand", "--expr", "1/(1+x+x^3*y)", "--grid", "100x400000000"])
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "") and len(want) == 4872
    assert seconds < 2.0
    # a sum's rows run from its first term's to its last's: 10^8 + 1 rows are refused before any is built
    done, seconds = run_capped(["expand", "--expr", "1+y^100000000/(1+x)", "--grid", "1x400000000"])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: series too tall: 100000001 window rows of 64 bits are over 268435456 bits\n"
    assert seconds < 2.0
    # the rows are bounded by their count, not by the window's width: 20,001 rows of one cell each
    done, seconds = run_capped(["expand", "--expr", "1/(1+y)", "--grid", "20000x20000", "--format", "terms"])
    want = "+".join(["1", "y"] + [f"y^{k}" for k in range(2, 20001)]) + "\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
    assert seconds < 2.0


def test_a_sum_of_monomials_spread_over_a_wide_row_is_added_once():
    # 300 plain terms over 2^27 columns are cut to the window and summed once, not each expanded
    # as a series over the whole row: that took 22 s on 2 cores with Python 3.11.7
    rng = random.Random(300)
    exponents = [rng.randrange(1 << 27) for _ in range(300)]
    lit = sorted({e for e in exponents if exponents.count(e) % 2})
    want = "+".join("1" if e == 0 else "x" if e == 1 else f"x^{e}" for e in lit) + "\n"
    expr = " + ".join(f"x^{e}" for e in exponents)
    done, seconds = run_capped(["expand", "--expr", expr, "--grid", "134217727x0", "--format", "terms"])
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
    assert seconds < 2.0


@pytest.mark.parametrize("argv", [
    ["table", "--mod", "100000,100000"], ["invert", "--element", "1", "--mod", "100000,100000"],
    ["order", "--element", "1+x", "--mod", "100000,100000"],
    ["expand", "--mode", "wrap", "--grid", "99999x99999", "--expr", "1+x"],
    ["render", "--mode", "wrap", "--grid", "99999x99999", "--expr", "1+x"],
])
def test_a_torus_too_large_to_pack_is_a_domain_error(argv, capsys):
    # refused before any mask of its 2 * 10^10 bits is built
    assert run(argv) == 1
    want = "error: torus too large: a residue packs into 19999900000 bits, over 268435456\n"
    assert capsys.readouterr() == ("", want)


def test_a_torus_too_large_to_eliminate_on_is_a_domain_error(capsys):
    assert run(["invert", "--element", "1+x+y", "--mod", "300,300"]) == 1
    assert capsys.readouterr() == ("", "error: elimination too large: m*n must be at most 1936\n")
    assert run(["expand", "--mode", "wrap", "--grid", "299x299", "--expr", "x+1/(1+x)"]) == 1
    assert capsys.readouterr() == ("", "error: term 2 (1/(1+x)): elimination too large: m*n must be at most 1936\n")


def test_a_large_window_whose_band_keeps_few_rows_still_expands(capsys):
    # the band bound counts the rows an expansion keeps, not its rows times
    # its columns: a polynomial keeps one row of 20,001 bits, 1/(1+x^5*y) two
    # of 5,001, though the 20001x20001 and 5001x5001 boxes are over 2^28 bits
    assert run(["expand", "--expr", "1", "--grid", "20000x20000", "--format", "terms"]) == 0
    assert capsys.readouterr() == ("1\n", "")
    assert run(["expand", "--expr", "1/(1+x^5*y)", "--grid", "5000x5000", "--format", "terms"]) == 0
    out, err = capsys.readouterr()
    assert out == "+".join(term_text((5 * j, j)) for j in range(1001)) + "\n"
    assert err == ""


def test_lfsr_of_high_degree_is_fast(capsys):
    # 1+x+x^137 has an irreducible factor of degree 101, and 2^101 - 1 has no
    # prime factor that a bounded search finds; the bits come out regardless
    start = time.perf_counter()
    assert run(["lfsr", "--poly", "1+x+x^137", "--count", "10"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "1111111111\n"


def test_an_lfsr_at_the_count_bound_keeps_its_peak_memory():
    # 2^28 bits are one series row far over the packed band's budget, so the row loop
    # resolves it, as it did before the packed path: 782 MB peak RSS with stdout discarded
    code = ("import resource, sys; from polyplane.cli import run; code = run(sys.argv[1:]); "
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)")
    done, _ = run_capped(["lfsr", "--poly", "1+x+x^3", "--count", str(1 << 28)], code=code, stdout=subprocess.DEVNULL)
    code, peak_kb = map(int, done.stderr.split())
    assert code == 0 and peak_kb <= 1.1 * 782 * 1024


def test_lfsr_command(capsys):
    assert run(["lfsr", "--poly", "1+x+x^3", "--count", "7"]) == 0
    assert capsys.readouterr().out == "1110100\n"


@pytest.mark.parametrize("module", ["polyplane", "polyplane.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", module, "lfsr", "--poly", "1+x+x^3", "--count", "7"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "1110100\n"


def test_encode_decode_round_trip(capsys):
    assert run(["encode", "--poly", "x+y+x*y+x*y^2+y^3", "--ordering", "diagonal"]) == 0
    bits = capsys.readouterr().out.strip()
    assert bits == "0110100011"
    assert run(["decode", "--bits", bits, "--ordering", "diagonal"]) == 0
    assert capsys.readouterr().out == "x+y+x*y+x*y^2+y^3\n"


def test_usage_errors_exit_2(capsys):
    assert run(["expand", "--expr", "1", "--grid", "4x3", "--format", "jpeg"]) == 2
    assert run(["expand", "--expr", "1", "--grid", "fourxthree"]) == 2
    assert run(["expand", "--expr", "1"]) == 2  # missing --grid/--size
    assert run(["order", "--element", "1+x", "--mod", "3x3"]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["map", "--seq", "0102", "--rows", "2", "--cols", "2",
                "--scheme", "row_major"]) == 2
    out, _ = capsys.readouterr()
    assert out == ""  # usage errors never print to stdout


@pytest.mark.parametrize("argv, shape", [
    (["expand", "--expr", "1", "--grid"], "MxN with nonnegative integers"),
    (["expand", "--expr", "1", "--size"], "WxH with positive integers"),
    (["order", "--element", "1+x", "--mod"], "M,N with positive integers"),
])
def test_pair_flags_read_ascii_digits_only(capsys, argv, shape):
    sep = "," if argv[-1] == "--mod" else "x"
    for value in (f"\u0663{sep}1_0", f"3{sep}1_0", f"\uff13{sep}4", "abc", f"3{sep}"):
        assert run([*argv, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument {argv[-1]}: expected {shape}, got {value!r}\n")
    assert run([*argv, f" 3 {sep} 4"]) == 0  # whitespace around a number is read, as int() reads it


@pytest.mark.parametrize("argv, flag", [
    (["map", "--seq", "0110", "--rows", "2", "--cols", "2", "--scheme", "row_major"], "--rows"),
    (["map", "--seq", "0110", "--rows", "2", "--cols", "2", "--scheme", "row_major"], "--cols"),
    (["dseq", "--p", "19", "--count", "18"], "--p"),
    (["dseq", "--p", "19", "--count", "18"], "--count"),
    (["lfsr", "--poly", "1+x+x^3", "--count", "7"], "--count"),
    (["encode", "--poly", "1+x", "--length", "5"], "--length"),
])
def test_integer_flags_read_ascii_digits_only(capsys, argv, flag):
    k = argv.index(flag) + 1
    assert run(argv) == 0
    expected = capsys.readouterr().out
    assert run([*argv[:k], f" +{argv[k]} ", *argv[k + 1:]]) == 0
    assert capsys.readouterr().out == expected
    digits = argv[k].translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                          "\u0665\u0666\u0667\u0668\u0669"))
    for value in (digits, "1_" + argv[k], "abc", "1.0", ""):
        assert run([*argv[:k], value, *argv[k + 1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("argv, flag", [
    (["decode", "--bits", "101"], "--bits"),
    (["map", "--seq", "101", "--rows", "1", "--cols", "3", "--scheme", "row_major"], "--seq"),
])
def test_bit_flags_read_ascii_0_and_1_only(capsys, argv, flag):
    k = argv.index(flag) + 1
    assert run(argv) == 0
    assert capsys.readouterr().out in ("1+y\n", "101\n")
    # a fullwidth one and an Arabic-Indic zero are digits to int(), but not bits
    for value in ("\uff11\u06601", "1a", "1 0", "+1", "12"):
        assert run([*argv[:k], value, *argv[k + 1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument {flag}: bits must be 0 or 1\n")


def test_unknown_flag_exits_2(capsys):
    assert run(["dseq", "--p", "19", "--count", "18", "--frainbow", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""


def test_expression_errors_carry_position(capsys):
    assert run(["expand", "--expr", "1/(x+y)", "--grid", "4x3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "constant term" in err
    assert run(["expand", "--expr", "x⊕y", "--grid", "4x3"]) == 1
    _, err = capsys.readouterr()
    assert "offset 1" in err


def test_run_is_deterministic(capsys):
    argv = ["expand", "--expr", "1/(1+x+y)", "--grid", "7x7", "--format", "ascii"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_repeated_runs_in_one_process_are_identical(capsysbinary):
    calls = [
        ["render", "--expr", "1/(1+x+y)", "--size", "9x7"],
        ["order", "--element", "1+x", "--mod", "3,3"],
        ["order", "--element", "1+x", "--mod", "3x3"],  # usage error
        ["render", "--expr", "1/(1+x+y)", "--size", "9x7", "--format", "pbm"],
        ["lfsr", "--poly", "1+x+x^3", "--count", "10"],
        ["invert", "--element", "1+x", "--mod", "3,3"],  # domain error
        ["render", "--expr", "1/(1+x+y)", "--size", "9x7"],
    ]

    def outcomes():
        results = []
        for argv in calls:
            code = run(argv)
            results.append((code, capsysbinary.readouterr().out))
        return results

    build_parser.cache_clear()
    first = outcomes()  # the first call builds the parser, the rest reuse it
    assert [code for code, _ in first] == [0, 0, 2, 0, 0, 1, 0]
    assert first[0] == first[-1]
    assert outcomes() == first


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "expand" in capsys.readouterr().out


def test_every_subcommand_has_a_handler_and_help(capsys):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert len(commands) == 10
    for name, sub in commands.items():
        assert callable(sub.get_default("run")), name
        assert run([name, "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: polyplane {name} ") and err == ""


def test_encode_refuses_a_walk_too_long_to_build(capsys):
    start = time.perf_counter()  # x^100000 is index 5*10^9 of the diagonal walk
    assert run(["encode", "--poly", "x^100000", "--ordering", "diagonal"]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: encoding too long")
    assert run(["encode", "--poly", "1", "--length", str(2**28 + 1)]) == 1
    assert capsys.readouterr().err.startswith("error: encoding too long")
    assert run(["encode", "--poly", "x^100000", "--length", "5"]) == 1  # too small comes first
    assert capsys.readouterr().err == "error: length 5 too small: the support needs 5000050001 bits\n"


def test_expand_drops_numerator_terms_outside_the_window(capsys):
    start = time.perf_counter()
    assert run(["expand", "--expr", "x^100000000000", "--grid", "1x1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("0\n", "")
    for expr, grid, text in (("x^4/(1+x^-1*y)", "1x3", "x*y^3\n"), ("x^5/(1+x^-1*y)", "1x3", "0\n"),
                             ("y^3/(1+x)", "2x3", "y^3+x*y^3+x^2*y^3\n"), ("y^4/(1+x)", "2x3", "0\n"),
                             ("x^2*y^-1/(1+x^-1*y)", "2x2", "x+y\n"), ("x^2*y/(1+x+y)", "2x1", "x^2*y\n")):
        assert run(["expand", "--expr", expr, "--grid", grid]) == 0
        assert capsys.readouterr() == (text, "")
