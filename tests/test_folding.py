import math
import random

import pytest

from polyplane.folding import SCHEMES, BitGrid, fold, unfold
from polyplane.sequences import BitSeq

SHIFT_REG = BitSeq("000100110101111")


def test_fold_diagonal_3x5():
    grid = fold(SHIFT_REG, 3, 5, "diagonal")
    assert str(grid) == "01111\n00110\n01001"


def test_fold_row_major_3x5():
    assert str(fold(SHIFT_REG, 3, 5, "row_major")) == "00010\n01101\n01111"


def test_fold_col_major_3x5():
    assert str(fold(SHIFT_REG, 3, 5, "col_major")) == "01111\n00101\n00011"


def test_fold_prime_reciprocal_3x6():
    from polyplane.sequences import dseq

    grid = fold(dseq(19, 18), 3, 6, "row_major")
    assert str(grid) == "000011\n010111\n100101"


def test_fold_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        fold(BitSeq("0101"), 3, 5, "row_major")


def test_fold_diagonal_needs_coprime_dims():
    with pytest.raises(ValueError, match="coprime"):
        fold(BitSeq("01010101"), 2, 4, "diagonal")


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (-1, -1)])
def test_fold_needs_positive_dims(rows, cols):
    with pytest.raises(ValueError, match="rows and cols must be positive"):
        fold(BitSeq(""), rows, cols, "row_major")


def test_fold_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        fold(BitSeq("01"), 1, 2, "spiral")


def test_unfold_row_major():
    assert unfold(BitGrid([[0, 1], [1, 0]]), "row_major") == BitSeq("0110")


def test_unfold_diagonal_rejects_non_coprime_grid():
    grid = BitGrid([[0, 1, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(ValueError, match="coprime"):
        unfold(grid, "diagonal")


def test_round_trips_randomized():
    rng = random.Random(19)
    for _ in range(60):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        bits = BitSeq(rng.randrange(2) for _ in range(rows * cols))
        for scheme in SCHEMES:
            if scheme == "diagonal" and math.gcd(rows, cols) != 1:
                continue
            assert unfold(fold(bits, rows, cols, scheme), scheme) == bits


def test_diagonal_position_map_is_crt_bijection():
    for rows in range(1, 17):
        for cols in range(1, 17):
            positions = {(t % rows, t % cols) for t in range(rows * cols)}
            covers = len(positions) == rows * cols
            assert covers == (math.gcd(rows, cols) == 1)


def test_every_cell_written_once():
    rng = random.Random(29)
    for rows, cols in ((3, 5), (5, 7), (4, 4), (7, 2)):
        bits = BitSeq(rng.randrange(2) for _ in range(rows * cols))
        for scheme in ("row_major", "col_major"):
            grid = fold(bits, rows, cols, scheme)
            assert sum(sum(row) for row in grid.cells) == sum(bits)


def test_bitgrid_validation_and_text():
    with pytest.raises(ValueError):
        BitGrid([])
    with pytest.raises(ValueError):
        BitGrid([[0, 1], [1]])
    with pytest.raises(ValueError):
        BitGrid([[0, 2]])
    grid = BitGrid.from_lines("01\n10\n")
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid[1] == (1, 0)
    assert grid == BitGrid([(0, 1), (1, 0)])
