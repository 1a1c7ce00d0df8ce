"""``sequences._span_rows`` against the ``object`` matmul it replaces on
exact rows: every entry must have the value and the type of
``coeff_mat @ basis``, since a report writes Fraction(3) as "3/1" and 3 as 3."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert.sequences import _span_rows, builtin_sequence

SMALL_INTS = st.integers(-9, 9)
BIG_INTS = st.integers(-(2**80), 2**80)  # keys beyond int64 force Python ints
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
BIG_FRACTIONS = st.builds(Fraction, BIG_INTS, st.integers(1, 2**70))
# a Fraction that equals an int: its products stay Fractions
INTEGRAL_FRACTIONS = st.builds(Fraction, SMALL_INTS)

KINDS = {
    "int": SMALL_INTS,
    "fraction": SMALL_FRACTIONS,
    "mixed": st.one_of(SMALL_INTS, SMALL_FRACTIONS, INTEGRAL_FRACTIONS),
    "big": st.one_of(BIG_INTS, BIG_FRACTIONS, SMALL_INTS),
}


def oracle(coeff_mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The product before integer keys: numpy's ``object`` matmul, one
    Python product and one sum per term, left to right."""
    return coeff_mat @ basis


def matrix(entries, rows: int, cols: int):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: np.array(flat, dtype=object).reshape(rows, cols)
    )


@st.composite
def operands(draw, c_kind, x_kind, rows=st.integers(1, 6)):
    m, k, n = draw(rows), draw(st.integers(0, 6)), draw(st.integers(1, 6))
    return draw(matrix(KINDS[c_kind], m, k)), draw(matrix(KINDS[x_kind], k, n))


def assert_same_entries(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == object and got.shape == want.shape
    for g, w in zip(got.ravel().tolist(), want.ravel().tolist()):
        assert type(g) is type(w) and g == w, (g, w)


@pytest.mark.parametrize("c_kind", sorted(KINDS))
@pytest.mark.parametrize("x_kind", sorted(KINDS))
@given(data=st.data())
def test_exact_span_is_the_object_matmul(c_kind, x_kind, data):
    c, x = data.draw(operands(c_kind, x_kind))
    assert_same_entries(_span_rows(c, x), oracle(c, x))


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
def test_exact_span_of_one_row_is_the_object_matmul(kind, data):
    c, x = data.draw(operands(kind, "mixed", rows=st.just(1)))
    assert_same_entries(_span_rows(c, x), oracle(c, x))


@pytest.mark.parametrize(
    "c, x",
    [
        # max |key_C| * max |key_X| * K just below 2^63 (int64), then at it
        # and beyond (Python ints)
        ([[2**61, 2**61, 2**61]], [[1], [1], [1]]),
        ([[2**62 - 1, -(2**62 - 1)]], [[1, -1], [1, 1]]),
        ([[2**61, 2**61, 2**61, -(2**61)]], [[1], [1], [1], [1]]),
        ([[2**62, 2**62 - 1]], [[1], [1]]),
        ([[-(2**63), 3]], [[1], [-1]]),
        ([[Fraction(1, 2**40), 1]], [[Fraction(3, 2**23)], [Fraction(2**62)]]),
        ([[Fraction(1, 3), 2**64]], [[3, 0], [1, 1]]),
    ],
)
def test_exact_span_on_the_int64_bound(c, x):
    c, x = np.array(c, dtype=object), np.array(x, dtype=object)
    assert_same_entries(_span_rows(c, x), oracle(c, x))


@given(
    c=matrix(st.one_of(SMALL_INTS, SMALL_FRACTIONS), 3, 4),
    x=matrix(st.one_of(SMALL_INTS, SMALL_FRACTIONS, st.floats(-8, 8)), 4, 2),
)
def test_exact_span_with_a_float_entry_is_the_object_matmul(c, x):
    """A float family's exact matrix holds floats: it keeps the object matmul,
    on either side of the product."""
    assert_same_entries(_span_rows(c, x), oracle(c, x))
    assert_same_entries(_span_rows(x.T, c.T), oracle(x.T, c.T))


def test_exact_span_types_follow_rows_and_columns():
    c = np.array([[1, 2], [Fraction(1, 2), 0], [Fraction(4), 1]], dtype=object)
    x = np.array([[1, Fraction(2), 3], [0, Fraction(1, 3), 1]], dtype=object)
    got = _span_rows(c, x)
    assert [[type(v) for v in row] for row in got.tolist()] == [
        [int, Fraction, int],
        [Fraction, Fraction, Fraction],
        [Fraction, Fraction, Fraction],
    ]
    assert got.tolist() == [[1, Fraction(8, 3), 5], [Fraction(1, 2), 1, Fraction(3, 2)], [4, Fraction(25, 3), 13]]


def test_an_integer_family_spanned_by_fraction_rows_makes_one_fraction_an_entry(fractions_made):
    s = builtin_sequence("summing_c0", 9)
    rng = np.random.default_rng(5)
    rows = np.array(
        [[Fraction(int(p), int(q)) for p, q in zip(*rng.integers(1, 50, (2, 9)))] for _ in range(12)], dtype=object
    )
    rows[3] = 1  # an int row: its entries stay ints
    basis = s.matrix(exact=True)
    want = oracle(rows, basis)
    del fractions_made[:]
    got = _span_rows(rows, basis)
    typed = sum(type(v) is Fraction for v in got.ravel().tolist())
    assert typed == 11 * 9
    assert len(fractions_made) <= typed
    assert_same_entries(got, want)
    oracle(rows, basis)
    assert len(fractions_made) > 2 * typed  # the patches count: the oracle makes two a term
