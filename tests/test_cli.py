import io
import os
import subprocess
import sys
import time

import pytest
from sympy import factorint

from polyplane.cli import build_parser, run
from polyplane.poly import term_text


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


def test_a_series_band_too_large_to_store_is_a_domain_error():
    # the term reaches the window, so its band would span 10^11 columns; it is
    # refused before any row is built (the address-space cap turns a regression
    # into a quick MemoryError instead of a machine-wide allocation)
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "polyplane", "expand", "--expr", "x^-100000000000/(1+x)",
                           "--grid", "1x1"], capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap_memory)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "too large" in done.stderr


def test_a_large_window_whose_band_keeps_few_rows_still_expands(capsys):
    # the band bound counts the rows an expansion keeps, not its rows times
    # its columns: a polynomial keeps one row of 20,001 bits, 1/(1+x^5*y) two
    # of 55,001, though the 20001x20001 and 55001x5001 boxes are over 2^28 bits
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
