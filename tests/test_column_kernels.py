"""The sup, float lin and summing-basis kernels against the row reductions
they replace on narrow blocks, kept here as oracles: results must agree
byte for byte on float rows, and in value and type on ``object`` rows, on
both sides of the shape rule that picks the loop."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert import spaces
from seqcert.spaces import NormTag, lin_weights_float, norm_batch, summing_basis_norm_batch


def sup_oracle(mat):
    return np.max(np.abs(mat), axis=1)


def lin_oracle(mat):
    tails = np.cumsum(np.abs(mat)[:, ::-1], axis=1)[:, ::-1]
    return np.max(tails * lin_weights_float(mat.shape[1]), axis=1)


def summing_oracle(mat):
    tails = np.cumsum(mat[:, ::-1], axis=1)[:, ::-1]
    return np.max(np.abs(tails), axis=1)


KERNELS = {
    "sup": (lambda mat: norm_batch(mat, NormTag.sup()), sup_oracle),
    "lin": (lambda mat: norm_batch(mat, NormTag.lin()), lin_oracle),
    "summing": (summing_basis_norm_batch, summing_oracle),
}
# the column loop at every shape, the row reduction at every shape, and the rule
LOOPS = {"columns": 0, "rows": 10**9, "rule": spaces.NARROW_ROWS}

SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310, np.inf, -np.inf, np.nan, 1e308, -1e308, 1.0, -1.0]
)


def float_rows(rows: int, width: int, seed: int) -> np.ndarray:
    """Rows mixing scales from 1e-300 to 1e300 with the special values
    above: signed zeros, subnormals, infinities, nan and sums that overflow."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    mat[rng.random((rows, width)) < 0.3] = 0.0
    special = rng.random((rows, width)) < 0.1
    mat[special] = rng.choice(SPECIAL, size=int(special.sum()))
    mat[: rows // 4] = rng.standard_normal((rows // 4, width))  # finite, one scale
    mat[rows // 4 : rows // 3] *= 1e-320  # subnormal and zero
    return mat


def run(fn, mat):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return fn(mat)


@pytest.mark.parametrize("loop", sorted(LOOPS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 9, 16, 31, 64, 100, 257, 1024, 2048])
def test_float_kernels_keep_the_row_reduction_bytes(kernel, width, loop, monkeypatch):
    monkeypatch.setattr(spaces, "NARROW_ROWS", LOOPS[loop])
    fn, oracle = KERNELS[kernel]
    for rows, seed in [(1, 1), (7, 2), (max(40, 2 * width), 3)]:
        mat = float_rows(rows, width, seed)
        got, want = run(fn, mat), run(oracle, mat)
        assert got.dtype == want.dtype == float
        assert got.tobytes() == want.tobytes(), (kernel, width, rows)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("width", [1, 9, 32])
def test_the_rule_takes_columns_on_narrow_blocks(kernel, width):
    """Blocks of 2^15 cells, as ``spaces.blockwise`` cuts them, at widths
    where the rule picks the column loop."""
    fn, oracle = KERNELS[kernel]
    rows = spaces.BLOCK_CELLS // width
    assert rows >= spaces.NARROW_ROWS * width
    mat = float_rows(rows, width, width)
    assert run(fn, mat).tobytes() == run(oracle, mat).tobytes()


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4)),  # equal to an int: a tie between types
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
)


@pytest.mark.parametrize("loop", sorted(LOOPS))
@pytest.mark.parametrize("kernel", ["sup", "summing"])
@given(rows=st.lists(st.lists(ENTRIES, min_size=5, max_size=5), min_size=1, max_size=12))
def test_exact_kernels_keep_the_first_entry_on_a_tie(kernel, loop, rows):
    """``np.max`` keeps the earlier of two equal entries, an int or a
    Fraction; so must the column loop."""
    fn, oracle = KERNELS[kernel]
    mat = np.array(rows, dtype=object)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "NARROW_ROWS", LOOPS[loop])
        got = fn(mat)
    want = oracle(mat)
    assert got.dtype == want.dtype == object
    assert [(type(v), v) for v in got.tolist()] == [(type(v), v) for v in want.tolist()]


@pytest.mark.parametrize(
    "kernel, row, kind",
    [
        ("sup", [Fraction(2), -2, 1, 0], Fraction),
        ("sup", [2, Fraction(-2), 1, 0], int),
        # tail sums F(0), F(1), 1, 0: the Fraction comes first, and a Fraction
        # entry makes every tail sum to its left a Fraction
        ("summing", [1, Fraction(-2), 1, 0], Fraction),
    ],
)
def test_a_tie_between_an_int_and_a_fraction(kernel, row, kind, monkeypatch):
    monkeypatch.setattr(spaces, "NARROW_ROWS", 0)
    fn, _ = KERNELS[kernel]
    assert [type(v) for v in fn(np.array([row] * 3, dtype=object)).tolist()] == [kind] * 3
