"""Basis machinery: constants, certificates, witnesses."""

import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from seqcert.arithmetic import FLOAT, RATIONAL, exact_value, scalar_to_json
from seqcert.cli import main
from seqcert.errors import DependenceError, ParameterError
from seqcert.sampling import SamplingBudget, pm_one_patterns, sign_patterns
from seqcert.sequences import (
    BUILTIN_NAMES,
    PROVED_MONOTONE,
    BasicSequence,
    Kappa,
    _exact_rank,
    _ratio_extremes,
    basis_constant,
    builtin_sequence,
    domination_constant,
    equivalence_constants,
    gap_bound_check,
    wide_s_certificate,
)
from seqcert.spaces import CoordinateVector, NormTag, norm, summing_basis_norm

EXHAUSTIVE = SamplingBudget(count=0, seed=0)


def unit_vectors(m, length=None):
    length = length or m
    return [tuple(1 if j == i else 0 for j in range(length)) for i in range(m)]


def brute_force_kappa(s):
    """Independent oracle: scan all sign patterns and projection indices."""
    m = len(s)
    best = 1.0
    for pattern in itertools.product((-1, 0, 1), repeat=m):
        if not any(pattern):
            continue
        base = float(s.span_norm(pattern))
        if base < 1e-12:
            continue
        for n in range(1, m + 1):
            head = pattern[:n] + (0,) * (m - n)
            best = max(best, float(s.span_norm(head)) / base)
    return best


def test_basis_constant_canonical():
    for name in ("ell1_canonical", "c0_canonical"):
        s = builtin_sequence(name, 6)
        assert basis_constant(s, EXHAUSTIVE) == Kappa(1.0, 1.0, PROVED_MONOTONE)


def test_basis_constant_summing_matches_oracle():
    s = builtin_sequence("summing_c0", 6)
    lo, up, source = basis_constant(s, EXHAUSTIVE)
    assert source == "exhaustive"
    oracle = brute_force_kappa(s)
    assert lo == pytest.approx(oracle, abs=1e-12)
    assert up >= lo
    # the head/tail gap analysis gives ||P_n|| <= 2 for this family
    assert lo == pytest.approx(2.0, abs=1e-12)


def test_kappa_at_least_one():
    s = BasicSequence([(3, 0), (0, 5)], NormTag.ell_p(1))
    lo, up, _ = basis_constant(s, SamplingBudget(count=100, seed=1))
    assert 1.0 <= lo <= up


def test_domination_examples():
    xs = builtin_sequence("ell1_canonical", 6)
    ys = builtin_sequence("summing_c0", 6)
    cert = domination_constant(xs, ys, EXHAUSTIVE)
    assert cert.constants["L_hat"] == pytest.approx(1.0, abs=1e-12)
    assert cert.mode == "exhaustive"
    # oracle: the inequality holds on every enumerated pattern
    for pattern in itertools.product((-1, 0, 1), repeat=6):
        if any(pattern):
            assert float(ys.span_norm(pattern)) <= float(xs.span_norm(pattern)) + 1e-12

    same = domination_constant(xs, xs, EXHAUSTIVE)
    assert same.constants["L_hat"] == pytest.approx(1.0, abs=1e-12)

    doubled = BasicSequence([tuple(2 * x for x in v) for v in unit_vectors(6)], NormTag.ell_p(1))
    cert2 = domination_constant(xs, doubled, EXHAUSTIVE)
    assert cert2.constants["L_hat"] == pytest.approx(2.0, abs=1e-12)


def test_domination_witness_reproduces_constant():
    xs = builtin_sequence("ell1_canonical", 5)
    ys = builtin_sequence("summing_c0", 5)
    cert = domination_constant(xs, ys, SamplingBudget(count=300, seed=9))
    w = cert.witness["argmax"]
    ratio = float(ys.span_norm(w)) / float(xs.span_norm(w))
    assert ratio == pytest.approx(float(cert.constants["L_hat"]), abs=1e-9)


def test_domination_rational_witness_exact():
    xs = builtin_sequence("ell1_canonical", 5)
    ys = builtin_sequence("summing_c0", 5)
    cert = domination_constant(
        xs, ys, SamplingBudget(count=30, seed=2), arithmetic="rational"
    )
    w = cert.witness["argmax"]
    assert ys.span_norm(w) / xs.span_norm(w) == cert.constants["L_hat"]


def test_domination_pair_bounds_equivalence():
    xs = builtin_sequence("ell1_canonical", 5)
    ys = builtin_sequence("summing_c0", 5)
    budget = SamplingBudget(count=200, seed=8)
    d_xy = domination_constant(xs, ys, budget).constants["L_hat"]
    d_yx = domination_constant(ys, xs, budget).constants["L_hat"]
    smallest = equivalence_constants(xs, ys, budget).constants["L_smallest"]
    assert max(d_xy, d_yx) <= smallest + 1e-9


def test_equivalence_examples():
    xs = builtin_sequence("ell1_canonical", 6)
    cert = equivalence_constants(xs, xs, EXHAUSTIVE)
    assert cert.constants["r_min"] == pytest.approx(1.0, abs=1e-12)
    assert cert.constants["r_max"] == pytest.approx(1.0, abs=1e-12)
    assert cert.constants["L_smallest"] == pytest.approx(1.0, abs=1e-12)

    # right shift inside a longer ambient space is isometric on ell_1 spans
    shift = BasicSequence(unit_vectors(7)[1:7], NormTag.ell_p(1))
    base = BasicSequence(unit_vectors(6, length=7), NormTag.ell_p(1))
    cert2 = equivalence_constants(base, shift, EXHAUSTIVE)
    assert cert2.constants["L_smallest"] == pytest.approx(1.0, abs=1e-12)


def test_equivalence_summing_subsequence_is_isometric():
    full = builtin_sequence("summing_c0", 12)
    sub_idx = [2, 4, 6, 8, 10, 12]
    sub = BasicSequence([full.vectors[i - 1].entries for i in sub_idx], NormTag.sup())
    head = BasicSequence([v.entries for v in full.vectors[:6]], NormTag.sup())
    cert = equivalence_constants(head, sub, EXHAUSTIVE)
    assert cert.constants["r_min"] == pytest.approx(1.0, abs=1e-12)
    assert cert.constants["r_max"] == pytest.approx(1.0, abs=1e-12)


def test_wide_s_certificates():
    for m in range(1, 11):
        cert = wide_s_certificate(builtin_sequence("ell1_canonical", m), EXHAUSTIVE)
        assert cert.constants["d_hat"] == pytest.approx(1.0, abs=1e-12)
        assert cert.holds

    summing = wide_s_certificate(builtin_sequence("summing_c0", 6), EXHAUSTIVE)
    assert summing.constants["d_hat"] == pytest.approx(1.0, abs=1e-12)

    c0 = wide_s_certificate(builtin_sequence("c0_canonical", 6), EXHAUSTIVE)
    assert c0.constants["d_hat"] <= 1.0 / 6 + 1e-12
    assert c0.holds  # positive at finite truncation, degrading with m


def test_wide_s_witness_reproduces_constant():
    cert = wide_s_certificate(builtin_sequence("c0_canonical", 6), EXHAUSTIVE)
    w = cert.witness["argmin"]
    s = builtin_sequence("c0_canonical", 6)
    ratio = float(s.span_norm(w)) / float(summing_basis_norm(w))
    assert ratio == pytest.approx(float(cert.constants["d_hat"]), abs=1e-9)


def test_gap_bound_ell1(monkeypatch):
    """The bound is a / K, derived from kappa: nothing is drawn and no norm
    is evaluated."""
    s = builtin_sequence("ell1_canonical", 6)
    kappa = basis_constant(s, EXHAUSTIVE)

    def refuse(*args, **kwargs):
        raise AssertionError("gap_bound_check drew or evaluated")

    monkeypatch.setattr(BasicSequence, "span_norm_batch", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    cert = gap_bound_check(s, kappa)
    assert cert.holds
    assert cert.mode == "analytic"
    assert cert.witness == {}
    assert cert.constants == {"bound": 1.0, "kappa_upper": 1.0}
    assert cert.flags == ()


def test_gap_bound_single_vector_vacuous():
    """With one vector there is no tail; the bound holds there too."""
    s = BasicSequence([(1, 0)], NormTag.ell_p(1))
    cert = gap_bound_check(s, Kappa(1, 1, PROVED_MONOTONE))
    assert cert.holds
    assert cert.mode == "analytic"
    assert cert.constants == {"bound": 1.0, "kappa_upper": 1.0}


def test_gap_bound_summing_with_oracle_kappa():
    s = builtin_sequence("summing_c0", 6)
    kappa = basis_constant(s, EXHAUSTIVE)  # lower end certified 2.0, upper sampled
    cert = gap_bound_check(s, kappa)
    assert cert.holds
    assert cert.mode == "analytic"
    assert cert.constants["bound"] == float(s.a) / float(kappa.upper) == pytest.approx(0.5)
    assert cert.flags == ("kappa-upper-heuristic",)


def test_rational_gap_bound_is_exact(tmp_path):
    """A rational run reports a / K in Fractions, with the arithmetic it ran:
    lin_ell1 has a = 8/9 at n = 9 and a proved kappa of 1."""
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(
        "[sequence]\nbuiltin = lin_ell1\nn = 9\n\n[check gap]\nkind = gap_bound\n\n"
        "[run]\nseed = 1\narithmetic = rational\n"
    )
    out = tmp_path / "report.json"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    [gap] = json.loads(out.read_text())["certificates"]
    assert gap["arithmetic"] == "rational"
    assert gap["constants"] == {"bound": "8/9", "kappa_upper": "1/1"}
    s = builtin_sequence("lin_ell1", 9)
    cert = gap_bound_check(s, Kappa(1, 1, PROVED_MONOTONE), RATIONAL)
    assert cert.constants == {"bound": Fraction(8, 9), "kappa_upper": 1}
    assert type(cert.constants["bound"]) is Fraction
    assert gap_bound_check(s, Kappa(1, 1, PROVED_MONOTONE)).constants == {
        "bound": float(Fraction(8, 9)), "kappa_upper": 1.0,
    }


def all_fraction_rank(rows):
    """Rank over the rationals with every entry made a Fraction up front."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def random_exact_rows(rng, m, n, rank):
    """m rows of length n of ints and Fractions, of rank at most ``rank``:
    combinations of ``rank`` random rows with small rational weights."""
    def entry():
        if rng.random() < 0.5:
            return int(rng.integers(-3, 4))
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))

    base = [[entry() for _ in range(n)] for _ in range(rank)]
    rows = []
    for _ in range(m):
        w = [entry() for _ in range(rank)]
        rows.append(tuple(sum((c * b[j] for c, b in zip(w, base)), 0) for j in range(n)))
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_exact_rank_matches_the_all_fraction_elimination(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    rows = random_exact_rows(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
    assert _exact_rank(rows) == all_fraction_rank(rows)
    if all_fraction_rank(rows) < m:
        with pytest.raises(DependenceError):
            BasicSequence(rows, NormTag.ell_p(1))


def test_dependent_vectors_rejected():
    with pytest.raises(DependenceError):
        BasicSequence([(1, 0), (2, 0)], NormTag.ell_p(1))
    with pytest.raises(DependenceError):
        BasicSequence(unit_vectors(3, length=2), NormTag.ell_p(1))
    with pytest.raises(DependenceError):
        BasicSequence([(0, 0)], NormTag.ell_p(1))


def test_non_finite_vector_norm_rejected():
    """||x_n|| overflows to inf in float: the family is not seminormalized."""
    huge = [tuple(1e200 if j == i else 0.0 for j in range(4)) for i in range(4)]
    with pytest.raises(DependenceError, match="not finite"):
        BasicSequence(huge, NormTag.ell_p(2))


@pytest.mark.parametrize("m", range(1, 7))
def test_sign_patterns_follow_product_order(m):
    """The patterns are row for row the first half of ``itertools.product``,
    one of each +- pair, as float bits, and their exact values (what a
    rational scan evaluates) are the Python ints."""
    nonzero = [p for p in itertools.product((-1, 0, 1), repeat=m) if any(p)]
    half = nonzero[: len(nonzero) // 2]
    floats = sign_patterns(m)
    assert floats.dtype == float
    assert floats.tobytes() == np.array(half, dtype=float).tobytes()
    exact = [tuple(map(exact_value, row)) for row in floats.tolist()]
    assert exact == half
    assert all(type(v) is int for row in exact for v in row)
    assert [tuple(-v for v in p) for p in reversed(half)] == nonzero[len(half) :]
    pm_one = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    assert pm_one_patterns(m).tobytes() == pm_one[: 2 ** (m - 1)].tobytes()


def test_float_dependence_detected():
    with pytest.raises(DependenceError):
        BasicSequence([(1.0, 2.0), (0.5, 1.0)], NormTag.ell_p(1))


def test_span_norm_batch_matches_scalar():
    s = builtin_sequence("summing_c0", 5)
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((20, 5))
    batch = s.span_norm_batch(mat)
    for row, value in zip(mat, batch):
        assert float(s.span_norm(tuple(row))) == pytest.approx(value, abs=1e-12)


def test_builtin_validation():
    with pytest.raises(ParameterError):
        builtin_sequence("nope", 4)
    with pytest.raises(ParameterError):
        builtin_sequence("ell1_canonical", 0)


def test_a_nan_ratio_is_never_an_extreme():
    """inf / inf (spans that overflow) has no ratio: it is neither an extreme
    nor a witness, and it does not warn.  Only when every ratio is nan are
    both extremes nan, on the first row."""
    rows = np.arange(8.0).reshape(4, 2)
    inf = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi, row_lo, row_hi, rejected = _ratio_extremes(
            np.array([inf, 2.0, inf, 3.0]), np.array([inf, 1.0, 1.0, 2.0]), rows, FLOAT
        )
        assert (lo, hi, rejected) == (1.5, inf, 0)
        assert row_lo.tolist() == rows[3].tolist() and row_hi.tolist() == rows[2].tolist()
        lo, hi, row_lo, row_hi, _ = _ratio_extremes(np.array([inf, inf]), np.array([inf, inf]), rows[:2], FLOAT)
    assert math.isnan(lo) and math.isnan(hi)
    assert row_lo.tolist() == row_hi.tolist() == rows[0].tolist()


def summing_rows(n):
    """The rows of ``summing_c0`` at n: u_i = e_1 + ... + e_i."""
    return [tuple(int(j <= i) for j in range(n)) for i in range(n)]


@pytest.mark.parametrize("seed", range(60))
def test_exact_rank_matches_the_all_fraction_elimination_up_to_12(seed):
    rng = np.random.default_rng(1000 + seed)
    m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
    rows = random_exact_rows(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
    assert _exact_rank(rows) == all_fraction_rank(rows)
    assert _exact_rank(np.array(rows, dtype=object)) == all_fraction_rank(rows)


@pytest.mark.parametrize("n", range(1, 13))
def test_exact_rank_of_the_summing_shape(n):
    """``summing_c0``'s rows u_1..u_n as they are, reversed, each times a
    Fraction, with their sum appended, and with u_n replaced by u_1 - u_n/3
    have rank n; with u_n replaced by u_1 + 2 u_{n-1} they have rank n - 1."""
    steps = summing_rows(n)
    cases = [
        steps,
        steps[::-1],
        [tuple(Fraction(k + 1, 3) * x for x in row) for k, row in enumerate(steps)],
        steps + [tuple(map(sum, zip(*steps)))],
        steps[:-1] + [tuple(a - Fraction(b, 3) for a, b in zip(steps[0], steps[-1]))],
    ]
    for rows in cases:
        assert _exact_rank(rows) == all_fraction_rank(rows) == n
    if n > 1:
        dependent = steps[:-1] + [tuple(a + 2 * b for a, b in zip(steps[0], steps[-2]))]
        assert _exact_rank(dependent) == all_fraction_rank(dependent) == n - 1


@pytest.mark.parametrize("rows", [summing_rows(9), unit_vectors(12), random_exact_rows(np.random.default_rng(3), 8, 8, 6)])
def test_exact_rank_makes_no_fraction(rows, fractions_made):
    """A count, not a timing: the rank is found in integers, on int rows and
    on rows with Fraction entries alike; the all-Fraction oracle, run after
    it, shows that the count sees every Fraction made."""
    rank = _exact_rank(np.array(rows, dtype=object))
    assert fractions_made == []
    assert rank == all_fraction_rank(rows)
    assert fractions_made  # the patches count


@pytest.mark.parametrize("rows", [np.array([[2**62, 0], [0, 1]]), [(np.int64(2**62), 0), (0, np.int64(1))]])
def test_a_family_of_numpy_ints_spans_in_python_ints(rows):
    """An exact family built from numpy integers holds the Python ints they
    hold, so its exact spans and norms do not wrap at 64 bits."""
    s = BasicSequence(rows, NormTag.ell_p(1))
    assert s.exact and {type(x) for x in s.matrix(exact=True).flat} == {int}
    assert s.span_norm((2, 0)) == 2**63
    assert type(s.a) is int and s.a == 1
    assert scalar_to_json(s.b) == 2**62


EXACT_ROWS = [(1, Fraction(1, 2), 0), (0, 3, Fraction(-2, 3)), (Fraction(5, 4), 0, 2)]
INT_ROWS = [(2, 1, 0), (0, 3, -1), (1, 0, 2)]
FLOAT_ROWS = [(1.0, 0.5, 0.0), (0.0, 3.0, -0.1), (1.25, 0.0, 2.0)]


def row_forms(rows):
    """The rows as tuples, as ``CoordinateVector``s, as an ``object`` 2-D
    array and, where numpy holds them without loss, as a numeric 2-D array."""
    forms = [rows, [CoordinateVector(r) for r in rows], np.array(rows, dtype=object)]
    if not any(isinstance(x, Fraction) for r in rows for x in r):
        forms.append(np.array(rows))
    return forms


def entries(mat):
    return [[(x, type(x)) for x in row] for row in mat.tolist()]


@pytest.mark.parametrize("tag", [NormTag.ell_p(1), NormTag.lin(), NormTag.sup()], ids=NormTag.label)
@pytest.mark.parametrize("rows", [EXACT_ROWS, INT_ROWS, FLOAT_ROWS], ids=["exact", "int", "float"])
def test_one_family_from_any_row_form(rows, tag):
    ref = BasicSequence(rows, tag)
    assert ref.exact == (rows is not FLOAT_ROWS)
    for form in row_forms(rows):
        s = BasicSequence(form, tag)
        assert s.matrix().dtype == float and s.matrix().tobytes() == ref.matrix().tobytes()
        assert entries(s.matrix(exact=True)) == entries(ref.matrix(exact=True))
        assert (s.exact, len(s), s.ambient_length) == (ref.exact, 3, 3)
        for got, want in [(s.vector_norms, ref.vector_norms), ((s.a, s.b), (ref.a, ref.b))]:
            assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want]
        assert [v.entries for v in s.vectors] == [tuple(r) for r in rows]
        again = BasicSequence(s.vectors, tag)
        assert entries(again.matrix(exact=True)) == entries(s.matrix(exact=True))


@pytest.mark.parametrize(
    "rows, error",
    [
        ([], ParameterError),
        (np.zeros((0, 3)), ParameterError),
        ([(1, 0), (0, 1, 0)], ParameterError),
        ([(1, 0, 0), (0, 1)], ParameterError),
        ([(1.0, float("nan")), (0.0, 1.0)], ParameterError),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), ParameterError),
        ([CoordinateVector((1, 0)), (0, -np.inf)], ParameterError),
        (unit_vectors(3, length=2), DependenceError),
        (np.eye(3)[:, :2], DependenceError),
        ([(1, 2), (2, 4)], DependenceError),
        ([(1, Fraction(1, 3), 0), (3, 1, 0)], DependenceError),
        ([(1.0, 2.0), (0.5, 1.0)], DependenceError),
        ([(0, 0)], DependenceError),
        ([(1, 0), (0, 0)], DependenceError),
        (np.zeros((2, 2)), DependenceError),
    ],
)
def test_malformed_rows_raise(rows, error):
    with pytest.raises(error):
        BasicSequence(rows, NormTag.ell_p(1))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", [1, 2, 7])
def test_builtin_rows_are_python_ints(name, n):
    s = builtin_sequence(name, n)
    want = summing_rows(n) if name == "summing_c0" else unit_vectors(n)
    assert entries(s.matrix(exact=True)) == [[(x, int) for x in row] for row in want]
    assert s.exact
