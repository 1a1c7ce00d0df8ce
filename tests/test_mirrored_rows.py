"""One of each +- pair: the enumerated patterns and their negations.

A coefficient set's enumerated patterns hold one row of each +- pair
(``Rows.mirrored``), because every value a scan reads is a norm, even in
the coefficient row.  Two things are checked here:

* the fact itself, bit for bit in float: every norm kernel, the
  summing-basis norm, the float enclosures and the family span give -M
  exactly what they give M, on rows with zeros, subnormals and mixed
  scales, and on exact rows;
* its consequence: every op that scans coefficient rows reports the same
  certificate (constants, witnesses, flags, rejected rows and the evaluated
  count) on the new rows as on the full sets of patterns, built here with
  ``itertools.product`` as the scans read them before, in float and in
  rational mode, and a sampled kappa is the same.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqcert.sequences
from seqcert.arithmetic import FLOAT, RATIONAL
from seqcert.blocks import (
    ConvexBlockSpec,
    build_convex_blocks,
    lemma79_conclusion_check,
    shift_equivalence_constants,
    summing_equivalence_check,
    wuc_constant,
)
from seqcert.fpmaps import make_alpha_schedule
from seqcert.perturbation import perturb_toward_next, perturbation_sum, psp_equivalence_check
from seqcert.sampling import EXHAUSTIVE_LIMIT, Rows, SamplingBudget, coefficient_rows
from seqcert.sequences import (
    BasicSequence,
    basis_constant,
    builtin_sequence,
    domination_constant,
    equivalence_constants,
    wide_s_certificate,
)
from seqcert.spaces import NormTag, norm_batch, norm_enclosure, summing_basis_norm_batch

TAGS = [
    NormTag.sup(),
    NormTag.ell_p(1),
    NormTag.ell_p(1.5),
    NormTag.ell_p(2),
    NormTag.ell_p(3),
    NormTag.lin(),
    NormTag.james(2),
    NormTag.james(2.5),
]
POLYHEDRAL = [tag for tag in TAGS if tag.is_polyhedral()]

# ---------------------------------------------------------------------------
# Every norm a scan reads is even, bit for bit
# ---------------------------------------------------------------------------

entries = st.one_of(
    st.just(0.0),
    st.floats(-(2.0**-1022), 2.0**-1022),  # subnormals, and both zeros
    st.builds(math.ldexp, st.floats(-1, 1), st.integers(-1074, 300)),  # mixed scales
)


exact_entries = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30)))


@st.composite
def float_rows(draw, m=None, count=None):
    """count rows of m floats (each drawn when not given)."""
    m, count = m or draw(st.integers(1, 8)), count or draw(st.integers(1, 10))
    return np.array(draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=count, max_size=count)))


@st.composite
def exact_rows(draw, m=None, count=None):
    """count rows of m ints and Fractions (each drawn when not given), as an object array."""
    m, count = m or draw(st.integers(1, 8)), count or draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(exact_entries, min_size=m, max_size=m), min_size=count, max_size=count))
    return np.array(rows, dtype=object)


def assert_same(a, b):
    """Two kernel results are the same bits (float) or the same values and types (exact)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    if a.dtype == object:
        assert [(type(x), x) for x in a.tolist()] == [(type(x), x) for x in b.tolist()]
    else:
        assert a.tobytes() == b.tobytes()


@given(rows=float_rows(), tag=st.sampled_from(TAGS))
def test_every_norm_kernel_is_even_bit_for_bit(rows, tag):
    assert_same(norm_batch(-rows, tag), norm_batch(rows, tag))


@given(rows=exact_rows(), tag=st.sampled_from(POLYHEDRAL))
def test_every_exact_norm_kernel_is_even(rows, tag):
    assert_same(norm_batch(-rows, tag), norm_batch(rows, tag))


@given(rows=st.one_of(float_rows(), exact_rows()))
def test_the_summing_basis_norm_is_even(rows):
    assert_same(summing_basis_norm_batch(-rows), summing_basis_norm_batch(rows))


@st.composite
def enclosure_input(draw):
    """(coefficient rows, float or exact; a family matrix or None)."""
    rows = draw(st.one_of(float_rows(), exact_rows()))
    width, m = draw(st.integers(1, 6)), rows.shape[1]
    return rows, draw(st.one_of(st.none(), exact_rows(width, m), float_rows(width, m)))


@given(inp=enclosure_input(), tag=st.sampled_from(POLYHEDRAL))
def test_float_enclosures_are_even_bit_for_bit(inp, tag):
    rows, basis = inp
    for got, want in zip(norm_enclosure(-rows, tag, basis), norm_enclosure(rows, tag, basis)):
        assert_same(got, want)


def dense_family(m: int, tag: NormTag, seed: int) -> BasicSequence:
    """m Gaussian vectors of m + 3 coordinates, each scaled by 2^k, |k| <= 8."""
    rng = np.random.default_rng(seed)
    scales = np.ldexp(1.0, rng.integers(-8, 9, size=(m, 1)))
    return BasicSequence(rng.standard_normal((m, m + 3)) * scales, tag)


@given(data=st.data(), tag=st.sampled_from(TAGS), seed=st.integers(0, 2**16))
def test_span_norms_are_even_bit_for_bit(data, tag, seed):
    rows = data.draw(float_rows())
    s = dense_family(rows.shape[1], tag, seed)
    assert_same(s.span_norm_batch(-rows), s.span_norm_batch(rows))
    if tag.is_polyhedral():
        exact = data.draw(exact_rows(rows.shape[1]))
        family = builtin_sequence("lin_ell1" if tag == NormTag.lin() else "summing_c0", rows.shape[1])
        assert_same(family.span_norm_batch(-exact), family.span_norm_batch(exact))


# ---------------------------------------------------------------------------
# Oracle: every op on the full sets of patterns
# ---------------------------------------------------------------------------


def product_rows(values: tuple, m: int) -> np.ndarray:
    """Every nonzero row of values^m as floats, in ``itertools.product`` order."""
    return np.array([p for p in itertools.product(values, repeat=m) if any(p)], dtype=float).reshape(-1, m)


def full_rows(m: int, budget: SamplingBudget, pm_one: bool = False, exact: bool = False) -> Rows:
    """``coefficient_rows`` with every pattern of its set evaluated: the full
    +-1 and sign patterns in product order, then the same random rows."""
    rows = coefficient_rows(m, budget, pm_one=pm_one, exact=exact)
    parts = [product_rows((-1, 1), m)] * pm_one
    parts += [product_rows((-1, 0, 1), m)] * (m <= EXHAUSTIVE_LIMIT)
    return Rows(np.concatenate(parts + [rows.coeffs[rows.mirrored :]]), rows.mode)


def both_ways(monkeypatch, op):
    """``op()`` on the rows the scans evaluate, then on the full rows."""
    mirrored = op()
    with monkeypatch.context() as patch:
        patch.setattr(seqcert.sequences, "coefficient_rows", full_rows)
        full = op()
    return mirrored, full


def same_certificate(monkeypatch, op):
    mirrored, full = both_ways(monkeypatch, op)
    text = json.dumps(mirrored.to_json_dict())
    assert text == json.dumps(full.to_json_dict())
    return mirrored


def pair_blocks(s: BasicSequence) -> BasicSequence:
    sets = tuple((i, i + 1) for i in range(1, len(s), 2))
    weights = ((Fraction(1, 3), Fraction(2, 3)),) * len(sets)
    return build_convex_blocks(s, ConvexBlockSpec(blocks=sets, weights=weights))


FAMILIES = {
    "lin_ell1_9": lambda: builtin_sequence("lin_ell1", 9),
    "lin_ell1_11": lambda: builtin_sequence("lin_ell1", 11),
    "summing_c0_7": lambda: builtin_sequence("summing_c0", 7),
    "summing_c0_10": lambda: builtin_sequence("summing_c0", 10),
    "c0_blocks_6": lambda: pair_blocks(builtin_sequence("c0_canonical", 12)),
    "james_summing_7": lambda: builtin_sequence("james_summing", 7, p=2),
    "dense_ell2_8": lambda: dense_family(8, NormTag.ell_p(2), 3),
}
FLOAT_FAMILIES = ["lin_ell1_9", "summing_c0_10", "c0_blocks_6", "james_summing_7", "dense_ell2_8"]
CASES = [(name, FLOAT) for name in FLOAT_FAMILIES]
CASES += [(name, RATIONAL) for name in ("lin_ell1_9", "summing_c0_7", "c0_blocks_6")]
# psp scans len(s) - 1 coefficients: 10, the most that are enumerated, and fewer
PSP_CASES = [(name, FLOAT) for name in ("lin_ell1_11", *FLOAT_FAMILIES)]
PSP_CASES += [(name, RATIONAL) for name in ("lin_ell1_9", "summing_c0_7", "c0_blocks_6")]
BUDGET = SamplingBudget(count=40, seed=1)


def ops(s: BasicSequence, arith: str) -> dict:
    other = builtin_sequence("summing_c0", len(s))
    return {
        "equivalence": lambda: equivalence_constants(s, other, BUDGET, arith),
        "domination": lambda: domination_constant(other, s, BUDGET, arith),
        "wide_s": lambda: wide_s_certificate(s, BUDGET, arith),
        "wuc_constant": lambda: wuc_constant(s, BUDGET, arith),
        "summing_equivalence": lambda: summing_equivalence_check(s, Fraction(1, 4), 2, BUDGET, arith),
        "shift_equivalence": lambda: shift_equivalence_constants(s, 2, BUDGET, arith),
        "lemma79": lambda: lemma79_conclusion_check(s, 2, None, 2, BUDGET, arith),
    }


OPS = sorted(ops(builtin_sequence("c0_canonical", 3), FLOAT))


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("name,arith", CASES)
def test_ops_on_mirrored_rows_equal_the_full_scan(monkeypatch, name, arith, op):
    same_certificate(monkeypatch, ops(FAMILIES[name](), arith)[op])


@pytest.mark.parametrize("name,arith", PSP_CASES)
def test_psp_on_mirrored_rows_equals_the_full_scan(monkeypatch, name, arith):
    s = FAMILIES[name]()
    kappa = basis_constant(s, SamplingBudget(count=64, seed=0))
    half = Fraction(1, 2) if arith == RATIONAL else 0.5
    sch = make_alpha_schedule(half, s.a, s.b, kappa.upper, len(s) - 1, arithmetic=arith)
    z = perturb_toward_next(s, sch)
    theta = perturbation_sum(s, z, sch.kappa)
    cert = same_certificate(monkeypatch, lambda: psp_equivalence_check(s, z, theta, kappa, BUDGET, arith))
    m = len(z)
    assert cert.constants["evaluated"] == (3**m - 1 if m <= EXHAUSTIVE_LIMIT else 0) + BUDGET.count


@pytest.mark.parametrize("n", [8, 12])
def test_sampled_kappa_on_mirrored_rows_equals_the_full_scan(monkeypatch, n):
    s = builtin_sequence("summing_c0", n)
    mirrored, full = both_ways(monkeypatch, lambda: basis_constant(s, SamplingBudget(count=512, seed=1)))
    assert repr(mirrored) == repr(full)
    assert mirrored.source.startswith("exhaustive+" if n <= EXHAUSTIVE_LIMIT else "pm-one+")


@pytest.mark.parametrize("scale,rejected", [(1e-12, 2), (3e-13, 58)])
def test_rejected_mirrored_rows_count_twice(monkeypatch, scale, rejected):
    """Scaled far enough down, diag(1, 2, 3, 4) under ell_2 has span norms
    at or below the float denominator guard; each rejected pattern stands
    for its negation too."""
    s = BasicSequence(np.diag([1.0, 2.0, 3.0, 4.0]) * scale, NormTag.ell_p(2))
    other = builtin_sequence("ell1_canonical", 4)
    budget = SamplingBudget(count=50, seed=1)
    for op in (equivalence_constants, domination_constant):
        cert = same_certificate(monkeypatch, lambda: op(s, other, budget, FLOAT))
        assert cert.constants["rejected_denominators"] == rejected
