"""The james DP against a row-major oracle, kappa against the per-head loop
it was written from, and the gap bound derived from kappa against every
head/tail pair its old sampler drew."""

import tracemalloc
from fractions import Fraction
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqcert.sequences
from seqcert.blocks import ConvexBlockSpec, build_convex_blocks
from seqcert.sampling import (
    EXHAUSTIVE_LIMIT,
    SamplingBudget,
    gaussian_sphere,
    pm_one_patterns,
    sign_patterns,
    simplex_uniform,
)
from seqcert.sequences import (
    BUILTIN_NAMES,
    DENOM_GUARD,
    PM_ONE_LIMIT,
    PROVED_MONOTONE,
    BasicSequence,
    Kappa,
    _sampled_basis_constant,
    basis_constant,
    builtin_sequence,
    gap_bound_check,
    proved_monotone,
)
from seqcert.spaces import (
    BLOCK_CELLS,
    NormTag,
    james_power_sum_exact,
    james_power_sums_batch,
)
from test_spaces import entry_floats, matrices


def pair_blocks(s: BasicSequence, weights=(1 / 3, 2 / 3)) -> BasicSequence:
    """Blocks {1,2}, {3,4}, ... with weights 1/3, 2/3 (floats by default); an
    odd last index stays out."""
    sets = tuple((i, i + 1) for i in range(1, len(s), 2))
    return build_convex_blocks(s, ConvexBlockSpec(sets, tuple(weights for _ in sets)))


PREFIX_FAMILIES = [("c0_canonical", 2), ("james_summing", 2), ("james_summing", 3)]


def row_major_prefix_power_sums(mat: np.ndarray, p: float) -> np.ndarray:
    """The james DP on rows x (N+1) tables, one start at a time and through
    every width: column j - 1 is the optimum of the width-j prefix.  Kept
    as the oracle of ``james_power_sums_batch``, which is its last column."""
    rows, n = mat.shape
    prefix = np.concatenate([np.zeros((rows, 1)), np.cumsum(mat, axis=1)], axis=1)
    best = np.zeros((rows, n + 1))
    for j in range(1, n + 1):
        cand = best[:, j - 1].copy()
        pj = prefix[:, j]
        for i in range(1, j + 1):
            v = best[:, i - 1] + np.abs(pj - prefix[:, i - 1]) ** p
            np.maximum(cand, v, out=cand)
        best[:, j] = cand
    return best[:, 1:]


def spread_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Gaussian entries over 24 binary orders of magnitude, so the sums round."""
    return rng.standard_normal((rows, n)) * 2.0 ** rng.integers(-12, 12, (rows, n))


def assert_last_column_of_the_oracle(mat: np.ndarray, p: float):
    got = james_power_sums_batch(mat, p)
    want = row_major_prefix_power_sums(mat, p)[:, -1]
    assert got.shape == want.shape == (len(mat),)
    wrong = [i for i, (g, w) in enumerate(zip(got.tolist(), want.tolist())) if repr(g) != repr(w)]
    assert not wrong, f"{len(wrong)} rows differ from the oracle, first {wrong[:5]}"


def test_full_width_power_sums_are_the_last_prefix():
    """Each row block stops at its last nonzero column, and the optimum it
    returns is still the oracle's full-width one, bit for bit.  The rows
    end in -0.0 tails from different widths, within one block and across
    blocks: block 0 stops short of N, block 1 is all zeros (+-0.0), block 2
    reaches column N through one row, and the ragged block 3 draws its
    widths from 0 to N."""
    for n in (1, 2, 17, 48, 64):
        b = BLOCK_CELLS // n
        rng = np.random.default_rng(n)
        mat = spread_rows(rng, 3 * b + b // 3 + 1, n)
        widths = np.concatenate(
            [
                rng.integers(0, max(n // 2, 1), b),
                np.zeros(b, dtype=int),
                rng.integers(0, n, b),
                rng.integers(0, n + 1, len(mat) - 3 * b),
            ]
        )
        widths[2 * b + b // 2] = n
        mat[np.arange(n) >= widths[:, None]] = -0.0
        mat[b : b + b // 2] = 0.0
        for p in (1.5, 2.0, 3.0):
            assert_last_column_of_the_oracle(mat, p)


# Row counts as functions of the DP's block size b: fixed counts, one below,
# at and one above a block, and a ragged count over three blocks.
ROW_COUNTS = {
    "1": lambda b: 1,
    "42": lambda b: 42,
    "2000": lambda b: 2000,
    "block-1": lambda b: b - 1,
    "block": lambda b: b,
    "block+1": lambda b: b + 1,
    "ragged": lambda b: 2 * b + b // 3 + 1,
}


@pytest.mark.parametrize("count", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
@pytest.mark.parametrize("n", [1, 2, 17, 48, 64])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_prefix_dp_is_bitwise_the_row_major_dp(p, n, count):
    """The blocked, one-step-per-width DP gives every row the bits of the
    one-start-at-a-time DP, whatever the row count and block boundaries."""
    rows = count(BLOCK_CELLS // n)
    assert_last_column_of_the_oracle(spread_rows(np.random.default_rng(rows * 100 + n), rows, n), p)


@given(
    matrices(st.one_of(entry_floats, st.sampled_from([1e308, -1e308]))),
    st.sampled_from([1.5, 2.0, 2.5, 3.0]),
)
def test_prefix_dp_keeps_the_oracle_bits_on_every_float_entry(rows, p):
    """Zeros of both signs, subnormals and any finite float, with +-1e308 so
    that two finite prefix sums can differ by more than the float range.
    This guards the step's two bit arguments: a square drops the sign of
    -d as ``abs`` does, and best[i-1] plus a nonnegative term never rounds
    below best[i-1], so the column max needs no running max beside it.  A
    row with an infinite prefix sum gets inf in place of the DP's nan."""
    mat = np.array(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        got = james_power_sums_batch(mat, p)
        want = row_major_prefix_power_sums(mat, p)[:, -1]
        want[np.isinf(np.cumsum(mat, axis=1)).any(axis=1)] = np.inf
    assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))


@pytest.mark.parametrize("rows,n", [(5, 0), (0, 7), (0, 0)])
def test_prefix_dp_of_an_empty_side_is_empty(rows, n):
    assert james_power_sums_batch(np.zeros((rows, n)), 2.0).tolist() == [0.0] * rows


def test_prefix_dp_memory_stays_near_its_output():
    """The row blocks keep the DP's working tables near 2^15 cells each and
    the result is one float per row, so the traced peak of a 20 000 x 48 call
    stays under 2 MB (a rows x N table of every prefix width alone would
    take 7.3 MB here)."""
    mat = np.random.default_rng(0).standard_normal((20_000, 48))
    tracemalloc.start()
    try:
        james_power_sums_batch(mat, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("p", [2, 3])
def test_prefix_dp_full_width_is_the_exact_power_sum_on_integer_rows(p):
    rng = np.random.default_rng(p)
    mat = rng.integers(-9, 10, (42, 17))
    full = james_power_sums_batch(mat.astype(float), float(p))
    exact = [james_power_sum_exact(tuple(map(int, row)), p) for row in mat]
    assert full.tolist() == [float(v) for v in exact]


def test_prefix_ends():
    assert proved_monotone(builtin_sequence("ell1_canonical", 5)) is True
    assert proved_monotone(pair_blocks(builtin_sequence("c0_canonical", 5))) is True
    gap = BasicSequence([(1, 0, 0, 0), (0, 0, 2, 1)], NormTag.sup())
    assert proved_monotone(gap) is True
    for n in (4, 6, 9):
        summing = builtin_sequence("summing_c0", n)
        assert proved_monotone(summing) is False
        assert proved_monotone(pair_blocks(summing)) is False
    interleaved = BasicSequence([(1, 0, 1, 0), (0, 1, 0, 1)], NormTag.sup())
    assert proved_monotone(interleaved) is False


# ---------------------------------------------------------------------------
# Oracles: basis_constant as it was before the prefix pass, one
# span_norm_batch per head, without its error paths and with only the values
# the comparison needs returned; and the head/tail pairs gap_bound_check
# drew before its bound was derived from kappa.
# ---------------------------------------------------------------------------


def oracle_basis_constant(s: BasicSequence, budget: SamplingBudget) -> Tuple[float, float]:
    m = len(s)
    parts = []
    if m <= PM_ONE_LIMIT:
        parts.append(pm_one_patterns(m))
    if m <= EXHAUSTIVE_LIMIT:
        parts.append(sign_patterns(m))
    if budget.count > 0:
        rng = np.random.default_rng(budget.seed)
        parts.append(gaussian_sphere(rng, budget.count - budget.count // 2, m))
        parts.append(simplex_uniform(rng, budget.count // 2, m))
    coeffs = np.concatenate(parts, axis=0)
    base = s.span_norm_batch(coeffs)
    ok = base > DENOM_GUARD
    coeffs, base = coeffs[ok], base[ok]

    def best_ratio(mat, norms):
        best, best_n, best_i = 1.0, m, 0
        for n in range(1, m + 1):
            heads = np.zeros_like(mat)
            heads[:, :n] = mat[:, :n]
            ratios = s.span_norm_batch(heads) / norms
            i = int(np.argmax(ratios))
            if ratios[i] > best:
                best, best_n, best_i = float(ratios[i]), n, i
        return best, best_n, best_i

    lower, _, idx = best_ratio(coeffs, base)
    lower = max(lower, 1.0)
    rng = np.random.default_rng(budget.seed + 1)
    upper = lower
    seedvec = coeffs[idx]
    for sigma in (0.5, 0.2, 0.05, 0.01):
        trial = seedvec + sigma * rng.standard_normal((64, m))
        tnorms = s.span_norm_batch(trial)
        keep = tnorms > DENOM_GUARD
        if not np.any(keep):
            continue
        cand, _, j = best_ratio(trial[keep], tnorms[keep])
        if cand > upper:
            upper = cand
            seedvec = trial[keep][j]
    return (lower, max(upper, lower))


def oracle_gap(s: BasicSequence, budget: SamplingBudget) -> Tuple[np.ndarray, np.ndarray]:
    """(heads, tails): every pair the sampled gap_bound_check drew.  Split n
    drew Gaussian heads x on coefficients 1..n, kept those with ||x|| >
    DENOM_GUARD, scaled each to ||x|| in [a, 2a), and drew Gaussian tails y
    on coefficients n+1..m."""
    m = len(s)
    a = float(s.a)
    rng = np.random.default_rng(budget.seed)
    per_split = max(1, budget.count // (m - 1))
    all_heads, all_tails = [], []
    for n in range(1, m):
        heads = np.zeros((per_split, m))
        heads[:, :n] = rng.standard_normal((per_split, n))
        hnorm = s.span_norm_batch(heads)
        keep = hnorm > DENOM_GUARD
        heads, hnorm = heads[keep], hnorm[keep]
        if heads.size == 0:
            continue
        scale = a * (1.0 + rng.random(len(heads))) / hnorm
        heads = heads * scale[:, None]
        tails = np.zeros((len(heads), m))
        tails[:, n:] = rng.standard_normal((len(heads), m - n))
        tails *= rng.random((len(heads), 1)) * 2.0
        all_heads.append(heads)
        all_tails.append(tails)
    return np.concatenate(all_heads), np.concatenate(all_tails)


FAMILIES = [(name, 2) for name in BUILTIN_NAMES] + [("james_summing", 3)]


@pytest.mark.parametrize("blocks", [False, True], ids=["sequence", "pair-blocks"])
@pytest.mark.parametrize("n", [6, 13])
@pytest.mark.parametrize("name,p", FAMILIES)
def test_kappa_and_gap_bound_match_the_per_head_oracle(name, p, n, blocks):
    s = builtin_sequence(name, n, p=p)
    if blocks:
        s = pair_blocks(s)
    for seed in (1, 2, 3):
        budget = SamplingBudget(count=512, seed=seed)
        kappa = basis_constant(s, budget)
        lower, upper = oracle_basis_constant(s, budget)
        assert repr(kappa[:2]) == repr((lower, upper))
        assert gap_bound_check(s, kappa).constants["bound"] == float(s.a) / upper


def fraction_rows(mat: np.ndarray) -> np.ndarray:
    """The exact rational image of a float array, as object rows."""
    return np.array([[Fraction(v) for v in row] for row in mat.tolist()], dtype=object)


@pytest.mark.parametrize("blocks", [False, True], ids=["sequence", "pair-blocks"])
@pytest.mark.parametrize("n", [6, 13])
@pytest.mark.parametrize("name", ["ell1_canonical", "c0_canonical", "lin_ell1"])
def test_every_sampled_head_tail_pair_obeys_the_derived_bound_exactly(name, n, blocks):
    """Grunblum's criterion, which gap_bound_check rests on: for a head x and
    a tail y, ||x|| <= kappa ||x - y||.  Here kappa = 1 is proved, and every
    pair the old sampler drew obeys it in exact arithmetic, on the pairs'
    Fraction images and under a piecewise-linear norm."""
    s = builtin_sequence(name, n)
    if blocks:
        s = pair_blocks(s, (Fraction(1, 3), Fraction(2, 3)))
    for seed in (1, 2, 3):
        kappa = basis_constant(s, SamplingBudget(count=512, seed=seed))
        assert kappa.source == PROVED_MONOTONE
        heads, tails = (fraction_rows(part) for part in oracle_gap(s, SamplingBudget(count=300, seed=seed)))
        head_norms, gaps = s.span_norm_batch(heads), s.span_norm_batch(heads - tails)
        assert all(isinstance(v, (int, Fraction)) for v in [*head_norms, *gaps])
        assert all(h <= Fraction(kappa.upper) * g for h, g in zip(head_norms, gaps))


def test_every_sampled_head_tail_gap_reaches_the_derived_bound_on_james48():
    """In float, at the james48 workload's family and budget, every gap the
    old sampler drew is at least the bound derived from the proved kappa."""
    s = builtin_sequence("james_summing", 48)
    for seed in (1, 2, 3):
        budget = SamplingBudget(count=2000, seed=seed)
        kappa = basis_constant(s, budget)
        assert kappa.source == PROVED_MONOTONE
        heads, tails = oracle_gap(s, budget)
        assert s.span_norm_batch(heads - tails).min() >= gap_bound_check(s, kappa).constants["bound"]


def dense_family(n: int, tag: NormTag) -> BasicSequence:
    """n Gaussian vectors in R^n: a family with no prefix shape, so every
    head goes through the ``coeffs @ X`` product."""
    return BasicSequence(np.random.default_rng(n).standard_normal((n, n)).tolist(), tag)


@pytest.mark.parametrize("n", [12, 48])
def test_span_norm_batch_of_a_stack_is_the_concatenation_of_its_chunks(n):
    """Stacking rows changes the row count of the ``coeffs @ X`` product but
    not the bits of any row, for chunks of two rows or more.  (numpy
    evaluates a one-row product as a matrix-vector product, which may round
    differently.)"""
    rng = np.random.default_rng(n + 1)
    chunks = [rng.standard_normal((rows, n)) for rows in (2, 3, 7, 42, 42, 300, 2000)]
    for tag in (NormTag.ell_p(2), NormTag.sup(), NormTag.james(2)):
        s = dense_family(n, tag)
        stacked = s.span_norm_batch(np.concatenate(chunks))
        parts = np.concatenate([s.span_norm_batch(c) for c in chunks])
        assert stacked.tobytes() == parts.tobytes()


@pytest.mark.parametrize("blocks", [False, True], ids=["sequence", "pair-blocks"])
@pytest.mark.parametrize(
    "name,p,forced",
    [
        *((name, p, False) for name, p in PREFIX_FAMILIES),
        ("ell1_canonical", 2, False),
        ("ell1_canonical", 2, True),
        ("dense_ell2", 2, False),
        ("summing_c0", 2, False),
    ],
)
def test_basis_constant_evaluates_only_a_sampled_kappa(monkeypatch, name, p, forced, blocks):
    """A sampled kappa draws its rows and evaluates their heads; a proved
    kappa draws and evaluates nothing.  ``forced`` samples a family whose
    kappa is proved, through ``_sampled_basis_constant``."""
    s = dense_family(13, NormTag.ell_p(2)) if name == "dense_ell2" else builtin_sequence(name, 13, p=p)
    if blocks:
        s = pair_blocks(s)
    calls, draws = [], []
    norms, samples = BasicSequence.span_norm_batch, seqcert.sequences.coefficient_rows

    def counted_norms(self, coeff_mat):
        calls.append(len(coeff_mat))
        return norms(self, coeff_mat)

    def counted_samples(m, budget, **kw):
        draws.append(m)
        return samples(m, budget, **kw)

    monkeypatch.setattr(BasicSequence, "span_norm_batch", counted_norms)
    monkeypatch.setattr("seqcert.sequences.coefficient_rows", counted_samples)
    estimate = _sampled_basis_constant if forced else basis_constant
    sampled = estimate(s, SamplingBudget(count=512, seed=1)).source != PROVED_MONOTONE
    assert sampled == (forced or name in ("dense_ell2", "summing_c0"))
    assert bool(calls) == bool(draws) == sampled


# ---------------------------------------------------------------------------
# The proved kappa = 1 (``proved_monotone``) against the sampled estimate.
# ---------------------------------------------------------------------------

MONOTONE_TAGS = [
    NormTag.sup(),
    NormTag.lin(),
    *(NormTag.ell_p(p) for p in (1, 1.5, 2, 3)),
    *(NormTag.james(p) for p in (1.5, 2, 3)),
]


@st.composite
def prefix_family(draw):
    """3-15 vectors on successive blocks of 1-3 coordinates, with entries
    +-10^e for e in [-3, 3], under one of ``MONOTONE_TAGS``."""
    widths = draw(st.lists(st.integers(1, 3), min_size=3, max_size=15))
    tag = draw(st.sampled_from(MONOTONE_TAGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = np.zeros((len(widths), sum(widths)))
    for i, (start, w) in enumerate(zip(np.cumsum([0, *widths[:-1]]), widths)):
        mat[i, start : start + w] = rng.choice([-1.0, 1.0], w) * 10.0 ** rng.uniform(-3, 3, w)
    return BasicSequence(mat.tolist(), tag)


@given(prefix_family(), st.integers(0, 2**31 - 1))
def test_sampled_kappa_of_a_prefix_family_is_the_proved_one(s, seed):
    """Every sampled ratio ||P_n e|| / ||e|| of a prefix-shaped family stays
    at most 1.0 in float, so the proof returns the sampled answer's bits."""
    assert proved_monotone(s)
    budget = SamplingBudget(count=512, seed=seed)
    assert _sampled_basis_constant(s, budget)[:2] == (1.0, 1.0)
    assert basis_constant(s, budget) == Kappa(1.0, 1.0, PROVED_MONOTONE)


# basis_constant(s, SamplingBudget(count=512, seed=1)) recorded before the
# proof existed, for summing_c0 at n = 13 and its pair blocks.
RECORDED_SAMPLED_KAPPA = {
    False: (1.9973733173191068, 1.9986960468933441),
    True: (2.0, 2.0),
}


@pytest.mark.parametrize("blocks", [False, True], ids=["sequence", "pair-blocks"])
def test_families_without_the_proof_still_sample(monkeypatch, blocks):
    s = builtin_sequence("summing_c0", 13)
    if blocks:
        s = pair_blocks(s)
    assert not proved_monotone(s)
    draws = []
    original = seqcert.sequences.coefficient_rows

    def counted(m, budget, **kw):
        draws.append(m)
        return original(m, budget, **kw)

    monkeypatch.setattr("seqcert.sequences.coefficient_rows", counted)
    kappa = basis_constant(s, SamplingBudget(count=512, seed=1))
    assert repr(kappa[:2]) == repr(RECORDED_SAMPLED_KAPPA[blocks])
    enumerated = "exhaustive+" if blocks else ""  # 6 blocks, 13 vectors
    assert kappa.source == f"{enumerated}sampled(count=512,seed=1)"
    assert draws == [len(s)]
