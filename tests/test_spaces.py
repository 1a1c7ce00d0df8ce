"""Norm evaluators: frozen examples, norm axioms, DP vs enumeration."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert.arithmetic import exact_value, scalar_to_json
from seqcert.errors import ParameterError
from seqcert.spaces import (
    TINY,
    CoordinateVector,
    NormTag,
    _float_image,
    james_power_sum_exact,
    james_power_sums_batch,
    james_summing_norm,
    norm,
    norm_batch,
    summing_basis_norm,
    summing_basis_norm_batch,
)

def lin_weight(k: int) -> Fraction:
    """The exact lin weight 8^k / (1 + 8^k), k >= 1."""
    return Fraction(8**k, 1 + 8**k)


# grid floats keep norm arithmetic exact enough for tight tolerances
grid_floats = st.integers(-64, 64).map(lambda k: k / 16.0)
small_vectors = st.lists(grid_floats, min_size=0, max_size=8)


def lin_norm(x):
    """The lin norm of one coordinate row: max over k of lin_weight(k) *
    sum_{n>=k} |x(n)|, one row of the batch kernel; exact on exact rows."""
    return norm(x, NormTag.lin())


def james_enumeration(a, p) -> float:
    """Exhaustive interval-chain evaluation of the james norm (small N only),
    the oracle the DP is checked against."""
    n = len(a)
    if n == 0:
        return 0.0
    prefix = [0.0]
    for e in a:
        prefix.append(prefix[-1] + float(e))
    pf = float(p)
    best = 0.0
    cuts = range(1, n + 2)
    for size in range(2, n + 2):
        for chain in itertools.combinations(cuts, size):
            s = 0.0
            for k in range(len(chain) - 1):
                s += abs(prefix[chain[k + 1] - 1] - prefix[chain[k] - 1]) ** pf
            if s > best:
                best = s
    return best ** (1.0 / pf)


TAGS = [NormTag.sup(), NormTag.ell_p(1), NormTag.ell_p(2), NormTag.lin(), NormTag.james(2)]


def test_norm_dispatch_examples():
    assert norm((0, 0, 0), NormTag.sup()) == 0
    assert norm((1, -2, 3), NormTag.ell_p(1)) == 6
    assert norm((1, -2, 3), NormTag.sup()) == 3


def test_norm_tag_validation():
    with pytest.raises(ParameterError):
        NormTag.ell_p(0.5)
    with pytest.raises(ParameterError):
        NormTag.james(1)
    with pytest.raises(ParameterError):
        NormTag("sup", p=2)
    with pytest.raises(ParameterError):
        NormTag("ell_p")
    with pytest.raises(ParameterError):
        NormTag("nope")


def test_coordinate_vector_rejects_nonfinite():
    with pytest.raises(ParameterError):
        CoordinateVector((1.0, float("nan")))
    with pytest.raises(ParameterError):
        CoordinateVector((float("inf"),))


def test_lin_norm_examples_exact():
    assert lin_norm((1, 0, 0)) == Fraction(8, 9)
    assert lin_norm((0, 1, 0)) == Fraction(64, 65)
    assert lin_norm((0, 0, 0)) == 0
    assert lin_norm(()) == 0


def lin_oracle(row):
    """max_k lin_weight(k) * sum_{n>=k} |x_n| of one exact row, term by term
    in Fraction arithmetic; the int 0 for an all-zero row."""
    best = 0
    for k in range(1, len(row) + 1):
        best = max(best, lin_weight(k) * sum(abs(x) for x in row[k - 1 :]))
    return best


def assert_lin_kernel_is_the_oracle(rows):
    """The lin kernel on the object rows gives each row's ``lin_oracle``: a
    Fraction on a nonzero row, and on an all-zero row the int 0, which a
    report writes as 0 (Fraction(0) would be "0/1")."""
    got = norm_batch(np.array(rows, dtype=object), NormTag.lin())
    for row, value in zip(rows, got):
        assert type(value) is (int if not any(row) else Fraction)
        assert value == lin_oracle(row)


def test_lin_kernel_on_exact_rows():
    rows = [(0, 0, 0, 0), (1, -2, 3, 0), (0, 0, 0, 5), (Fraction(1, 3), 0, Fraction(-5, 7), Fraction(2, 9))]
    assert_lin_kernel_is_the_oracle(rows)
    assert type(lin_norm((0, 0))) is int


@pytest.mark.parametrize("n", [1, 9, 16, 64])
@pytest.mark.parametrize("kind", ["int", "grid", "mixed"])
def test_exact_lin_kernel_matches_the_oracle(n, kind):
    """The integer-key kernel against the term-by-term oracle: int rows,
    rows on the 2^-10 grid, and rows whose denominators (3, 7, 2^-10, ...)
    share no factor, each batch with negative entries and an all-zero row."""
    rng = np.random.default_rng(n)
    if kind == "int":
        rows = rng.integers(-3, 4, size=(12, n)).tolist()
    elif kind == "grid":
        rows = [[Fraction(int(v), 1 << 10) for v in r] for r in rng.integers(-2048, 2049, size=(12, n))]
    else:
        nums = rng.integers(-50, 51, size=(12, n))
        dens = rng.choice([1, 3, 7, 9, 1 << 10, 11 * 13], size=(12, n))
        rows = [[Fraction(int(a), int(b)) for a, b in zip(*r)] for r in zip(nums, dens)]
    rows += [[0] * n, [Fraction(-1, 3)] + [0] * (n - 1), [0] * (n - 1) + [Fraction(1, 7)]]
    assert_lin_kernel_is_the_oracle([tuple(r) for r in rows])


def test_exact_lin_kernel_reads_numpy_integers_as_python_ints():
    """A numpy int array's entries reach the exact kernel as np.int64
    scalars; the kernel works in Python ints, since np.int64 products of
    these entries and the lin weights would overflow."""
    v = np.array([2**40, -3, 2**50] * 3)
    assert norm(v, NormTag.lin()) == lin_oracle(tuple(int(x) for x in v))
    rows = np.array([[np.int64(2**62), np.int64(2**62), 1]], dtype=object)
    assert norm_batch(rows, NormTag.lin())[0] == lin_oracle((2**62, 2**62, 1))


def test_exact_lin_kernel_keeps_integral_values_as_fractions():
    """lin((9, 0)) = (8/9) * 9 = 8 comes back as Fraction(8), as the weighted
    Fraction products gave it, and a report writes it "8/1"."""
    [value] = norm_batch(np.array([[9, 0]], dtype=object), NormTag.lin())
    assert type(value) is Fraction and value == 8
    assert scalar_to_json(value) == "8/1"


def test_exact_lin_kernel_makes_one_fraction_per_row(monkeypatch):
    """A count, not a timing: besides the N weights lin_weight(k) of the
    width, the exact lin kernel makes at most one Fraction per row, the norm
    itself; its tail sums, products and maxima are integers.  Every Fraction
    made counts, by a constructor call or by Fraction arithmetic (which in
    some Python versions skips __new__)."""
    rng = np.random.default_rng(5)
    rows = [[Fraction(int(v), 1 << 10) if i % 2 else int(v) for i, v in enumerate(r)]
            for r in rng.integers(-1024, 1025, size=(40, 9))] + [[0] * 9]
    mat = np.array(rows, dtype=object)
    expected = [lin_oracle(row) for row in rows]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        from_ints = Fraction._from_coprime_ints

        def counting_from_ints(cls, numerator, denominator):
            made.append(cls)
            return from_ints(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_ints))
    got = norm_batch(mat, NormTag.lin())
    monkeypatch.undo()
    assert list(got) == list(expected)
    assert 0 < len(made) <= 9 + len(rows)  # 0 <: the patches count


def test_james_examples():
    assert james_summing_norm((1,), 2) == 1
    assert abs(james_summing_norm((1, -1), 2) - math.sqrt(2)) < 1e-12
    assert james_summing_norm((1, 1), 2) == 2
    assert james_summing_norm((), 2) == 0


def test_james_rejects_bad_p():
    with pytest.raises(ParameterError):
        james_summing_norm((1, 2), 1)
    with pytest.raises(ParameterError):
        james_power_sum_exact((1, 2), 1.5)


def test_summing_basis_norm_examples():
    assert summing_basis_norm((1, 0, 0)) == 1
    assert summing_basis_norm((Fraction(1, 2), Fraction(1, 2))) == 1
    assert summing_basis_norm((1, -1)) == 1
    assert summing_basis_norm(()) == 0


@given(st.lists(st.integers(-2, 2), min_size=0, max_size=8), st.sampled_from([1.5, 2, 3]))
def test_james_dp_equals_enumeration(entries, p):
    assert abs(james_summing_norm(entries, p) - james_enumeration(entries, p)) < 1e-10


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@given(st.lists(small_fracs, min_size=1, max_size=5), st.sampled_from([2, 3]))
def test_james_exact_power_sum_vs_exact_enumeration(entries, p):
    # independent exact oracle: enumerate chains directly over Fractions
    n = len(entries)
    prefix = [Fraction(0)]
    for e in entries:
        prefix.append(prefix[-1] + e)
    best = Fraction(0)
    for size in range(2, n + 2):
        for chain in itertools.combinations(range(1, n + 2), size):
            s = Fraction(0)
            for k in range(len(chain) - 1):
                s += abs(prefix[chain[k + 1] - 1] - prefix[chain[k] - 1]) ** p
            best = max(best, s)
    assert james_power_sum_exact(entries, p) == best


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=8), st.sampled_from([1.5, 2, 3]))
def test_james_dominates_singletons(entries, p):
    assert james_summing_norm(entries, p) >= max(abs(e) for e in entries) - 1e-12


@given(small_vectors, st.sampled_from(TAGS))
def test_norm_zero_iff_zero(entries, tag):
    v = CoordinateVector(tuple(entries))
    value = norm(v, tag)
    if all(e == 0 for e in entries):
        assert value == 0
    else:
        assert value > 0


@given(small_vectors, grid_floats, st.sampled_from(TAGS))
def test_absolute_homogeneity(entries, lam, tag):
    v = tuple(entries)
    scaled = tuple(lam * e for e in v)
    assert abs(norm(scaled, tag) - abs(lam) * norm(v, tag)) <= 1e-12


@given(small_vectors, small_vectors, st.sampled_from(TAGS))
def test_triangle_inequality(us, vs, tag):
    n = max(len(us), len(vs))
    u = tuple(us) + (0.0,) * (n - len(us))
    v = tuple(vs) + (0.0,) * (n - len(vs))
    s = tuple(a + b for a, b in zip(u, v))
    assert norm(s, tag) <= norm(u, tag) + norm(v, tag) + 1e-12


@given(small_vectors)
def test_lin_sandwich(entries):
    ell1 = sum(abs(e) for e in entries)
    value = lin_norm(entries)
    assert value <= ell1 + 1e-12
    assert value >= (8.0 / 9.0) * ell1 - 1e-12


@given(st.lists(st.integers(0, 20), min_size=1, max_size=10).filter(lambda l: sum(l) > 0))
def test_summing_norm_of_convex_coefficients_is_one(ks):
    total = sum(ks)
    t = tuple(Fraction(k, total) for k in ks)
    assert summing_basis_norm(t) == 1


@given(st.lists(st.lists(grid_floats, min_size=3, max_size=3), min_size=1, max_size=6),
       st.sampled_from(TAGS))
def test_batch_matches_scalar(rows, tag):
    mat = np.array(rows)
    batch = norm_batch(mat, tag)
    for row, value in zip(rows, batch):
        assert abs(float(norm(tuple(row), tag)) - value) <= 1e-12


@given(st.lists(st.lists(grid_floats, min_size=4, max_size=4), min_size=1, max_size=6))
def test_summing_batch_matches_scalar(rows):
    mat = np.array(rows)
    batch = summing_basis_norm_batch(mat)
    for row, value in zip(rows, batch):
        assert abs(float(summing_basis_norm(tuple(row))) - value) <= 1e-12


def test_james_dp_equals_enumeration_at_n10():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = tuple(int(v) for v in rng.integers(-2, 3, size=10))
        for p in (1.5, 2):
            assert abs(james_summing_norm(a, p) - james_enumeration(a, p)) < 1e-10


def test_power_sums_batch_matches_exact_on_integers():
    rng = np.random.default_rng(11)
    mat = rng.integers(-2, 3, size=(200, 7)).astype(float)
    powers = james_power_sums_batch(mat, 2)
    for row, value in zip(mat, powers):
        assert james_power_sum_exact(tuple(int(x) for x in row), 2) == int(value)


@pytest.mark.parametrize("row", [[1e308, 1e308, 1.0], [1e308, 1e308], [1e308, 1e308, 0.0]])
def test_james_overflowing_prefix_sum_gives_inf(row):
    """The block up to an overflowing prefix sum overflows, so the norm is
    inf, not the nan of inf - inf inside the DP; finite rows evaluated with
    it keep their bits."""
    finite = [[1.0, -2.5, 3.0], [0.1, 0.2, 0.0]]
    tag = NormTag.james(2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert norm_batch(np.array([row]), tag)[0] == np.inf
        mixed = norm_batch(np.array(finite[:1] + [row + [0.0] * (3 - len(row))] + finite[1:]), tag)
    assert mixed[1] == np.inf
    assert mixed[[0, 2]].tobytes() == norm_batch(np.array(finite), tag).tobytes()


@pytest.mark.parametrize("row", [[1e200, 1e200, -1e200], [1e308, 1e308, 1.0]])
def test_james_overflow_is_inf_without_a_warning(row):
    """A block sum whose power overflows, or a prefix sum that overflows,
    gives inf, the correctly rounded result, as ell_p and lin do: no
    RuntimeWarning reaches stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert norm_batch(np.array([row]), NormTag.james(2)).tolist() == [np.inf]


@pytest.mark.parametrize("rows", [1, 64])
def test_tail_sum_overflow_is_inf_without_a_warning(rows):
    """A tail sum past the float range gives inf with no RuntimeWarning, on
    both branches of the shared column max: one row of width 2 is reduced
    along its rows, 64 rows (NARROW_ROWS per column) a column at a time."""
    mat = np.full((rows, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert summing_basis_norm_batch(mat).tolist() == [np.inf] * rows
        assert norm_batch(mat, NormTag.lin()).tolist() == [np.inf] * rows


# every kind of float entry, with zeros and subnormals drawn often
entry_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1070, -(2.0**-1022)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
exact_entries = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=50)
)


def matrices(entries):
    """Lists of 1-6 rows of one width in 1..8."""
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=6)
    )


@given(matrices(entry_floats))
def test_summing_basis_norm_vanishes_exactly_on_zero_float_rows(rows):
    """||a||_s = max_k |sum_{i>=k} a_i| > 0 iff some a_i != 0, in float too: the
    tail sum at the last nonzero entry is that entry itself (a tail sum that
    overflows is inf, still > 0)."""
    mat = np.array(rows, dtype=float)
    with np.errstate(over="ignore"):
        positive = summing_basis_norm_batch(mat) > 0
    np.testing.assert_array_equal(positive, mat.any(axis=1))


@given(matrices(exact_entries))
def test_summing_basis_norm_vanishes_exactly_on_zero_exact_rows(rows):
    mat = np.array(rows, dtype=object)
    np.testing.assert_array_equal(summing_basis_norm_batch(mat) > 0, mat.any(axis=1))


def test_float_image_agrees_on_float_rows_and_their_exact_values():
    """``_float_image`` of a float array and of its ``object`` image (each
    entry's ``exact_value``) gives the same floats and the same per-row
    mask: float input compares the floats with 0, object input its exact
    entries, and each float entry is its exact value.  The exact value of
    -0.0 is the int 0, whose float is +0.0, so the floats are compared after
    adding +0.0, which turns -0.0 into +0.0 and keeps every other bit."""
    rows = [
        [0.0, -0.0, 1.0],
        [0.0, 0.0, 0.0],
        [2.0**-1074, 1.0, 0.0],
        [-(2.0**-1074), 0.0, -0.0],
        [TINY / 2, 3.5, -2.0],
        [TINY, -TINY, 0.0],
        [1e308, -1e308, 0.0],
        [-0.0, TINY, 1e308],
        [1e308, TINY / 2, -0.25],
        [0.1, -(2.0**-600), 7.0],
    ]
    flt = np.array(rows)
    exact = np.array([[exact_value(x) for x in row] for row in rows], dtype=object)
    from_float, from_exact = _float_image(flt), _float_image(exact)
    assert (from_float[0] + 0.0).tobytes() == (from_exact[0] + 0.0).tobytes()
    np.testing.assert_array_equal(from_float[1], from_exact[1])
    np.testing.assert_array_equal(
        from_float[1], [True, True, False, False, False, True, True, True, False, False]
    )


def test_exact_lin_kernel_makes_no_weight_fraction(fractions_made):
    """A count, not a timing: the weights c_k = (L // d_k) (d_k - 1), d_k =
    1 + 8^k, are integers, so the kernel makes one Fraction per nonzero row,
    its norm, and none for the N weights; the oracle, run after it, shows
    that the count sees every Fraction made."""
    rows = [[int(v) for v in r] for r in np.random.default_rng(6).integers(-9, 10, size=(30, 16))] + [[0] * 16]
    got = norm_batch(np.array(rows, dtype=object), NormTag.lin())
    made = len(fractions_made)
    assert 0 < made <= sum(map(any, rows))
    assert list(got) == [lin_oracle(row) for row in rows]
    assert len(fractions_made) > made  # the patches count
