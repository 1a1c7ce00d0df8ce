"""Convex blocks: construction, WUC constant, sandwich, shift constants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert.arithmetic import FLOAT, RATIONAL
from seqcert.blocks import (
    ConvexBlockSpec,
    build_convex_blocks,
    lemma79_conclusion_check,
    shift_equivalence_constants,
    summing_equivalence_check,
    wuc_constant,
)
from seqcert.errors import BlockSpecError, ParameterError
from seqcert.fpmaps import ConvexCoefficients
from seqcert.sampling import SamplingBudget
from seqcert.sequences import BasicSequence, builtin_sequence
from seqcert.spaces import NormTag

R = Fraction
EXHAUSTIVE = SamplingBudget(count=0, seed=0)
half = (R(1, 2), R(1, 2))


def test_block_spec_validation():
    with pytest.raises(BlockSpecError):
        ConvexBlockSpec(blocks=((1, 2), (2, 3)), weights=(half, half))  # overlap
    with pytest.raises(BlockSpecError):
        ConvexBlockSpec(blocks=((3,), (1,)), weights=((R(1),), (R(1),)))  # decreasing
    with pytest.raises(BlockSpecError):
        ConvexBlockSpec(blocks=((1, 2),), weights=((R(1, 2), R(1, 4)),))  # mass != 1
    with pytest.raises(BlockSpecError):
        ConvexBlockSpec(blocks=((1, 2),), weights=((R(3, 2), R(-1, 2)),))  # negative


def test_build_identity_blocks():
    s = builtin_sequence("ell1_canonical", 5)
    spec = ConvexBlockSpec(
        blocks=tuple((i,) for i in range(1, 6)),
        weights=tuple((R(1),) for _ in range(5)),
    )
    out = build_convex_blocks(s, spec)
    assert [v.entries for v in out.vectors] == [v.entries for v in s.vectors]


def test_build_pair_block_examples():
    s = builtin_sequence("ell1_canonical", 4)
    spec = ConvexBlockSpec(blocks=((1, 2),), weights=(half,))
    out = build_convex_blocks(s, spec)
    assert out.vectors[0].entries == (R(1, 2), R(1, 2), 0, 0)
    assert out.a == 1  # ell_1 mass of a convex combination

    summing = builtin_sequence("summing_c0", 4)
    out2 = build_convex_blocks(summing, spec)
    assert out2.vectors[0].entries == (1, R(1, 2), 0, 0)
    assert out2.a == 1


def test_build_rejects_out_of_range():
    s = builtin_sequence("ell1_canonical", 3)
    spec = ConvexBlockSpec(blocks=((2, 4),), weights=(half,))
    with pytest.raises(BlockSpecError):
        build_convex_blocks(s, spec)


def push_convex(spec: ConvexBlockSpec, t) -> ConvexCoefficients:
    """Push simplex coefficients over the blocks down to base coefficients;
    nonnegativity and total mass are preserved (exactly on exact inputs)."""
    weights = np.zeros((len(spec), spec.max_index), dtype=object)
    for row, blk, wts in zip(weights, spec.blocks, spec.weights):
        row[np.array(blk) - 1] = wts
    return ConvexCoefficients(tuple(np.array(ConvexCoefficients.of(t).t, dtype=object) @ weights))


@given(st.lists(st.integers(0, 9), min_size=2, max_size=4).filter(lambda l: sum(l) > 0))
def test_push_convex_preserves_simplex(ks):
    total = sum(ks)
    t = tuple(R(k, total) for k in ks)
    blocks = tuple((2 * i + 1, 2 * i + 2) for i in range(len(ks)))
    spec = ConvexBlockSpec(blocks=blocks, weights=tuple(half for _ in ks))
    out = push_convex(spec, t)
    assert sum(out.t) == 1
    assert all(x >= 0 for x in out.t)


def test_wuc_constants():
    assert wuc_constant(builtin_sequence("c0_canonical", 6), EXHAUSTIVE).constants[
        "c2_hat"
    ] == pytest.approx(1.0, abs=1e-12)
    cert = wuc_constant(builtin_sequence("ell1_canonical", 6), EXHAUSTIVE)
    assert cert.constants["c2_hat"] == pytest.approx(6.0, abs=1e-12)
    # difference family of the summing steps is the shifted c0 family
    diff = BasicSequence(
        [tuple(1 if j == i + 1 else 0 for j in range(7)) for i in range(6)],
        NormTag.sup(),
    )
    assert wuc_constant(diff, EXHAUSTIVE).constants["c2_hat"] == pytest.approx(
        1.0, abs=1e-12
    )


def test_wuc_witness_reproduces():
    s = builtin_sequence("ell1_canonical", 6)
    cert = wuc_constant(s, EXHAUSTIVE)
    w = cert.witness["argmax"]
    assert float(s.span_norm(w)) / max(abs(x) for x in w) == pytest.approx(
        float(cert.constants["c2_hat"]), abs=1e-9
    )


def test_summing_equivalence_on_summing_basis():
    s = builtin_sequence("summing_c0", 6)
    cert = summing_equivalence_check(s, 1, 1, SamplingBudget(count=400, seed=2))
    assert cert.holds
    assert cert.constants["margin_lower"] >= -1e-9
    assert cert.constants["margin_upper"] >= -1e-9


def test_summing_equivalence_rational_left_side_ell1():
    s = builtin_sequence("ell1_canonical", 6)
    cert = summing_equivalence_check(
        s, 1, 6, EXHAUSTIVE, arithmetic="rational"
    )
    assert cert.holds
    assert cert.constants["margin_lower"] >= 0


def test_summing_equivalence_requires_positive_constants():
    s = builtin_sequence("summing_c0", 4)
    with pytest.raises(ParameterError):
        summing_equivalence_check(s, 0, 1)


def test_shift_equivalence_isometric_families():
    for name in ("summing_c0", "ell1_canonical", "c0_canonical"):
        s = builtin_sequence(name, 8)
        cert = shift_equivalence_constants(s, 3, SamplingBudget(count=300, seed=3))
        assert cert.constants["L_hat"] == pytest.approx(1.0, abs=1e-12), name


def test_shift_equivalence_detects_geometric_growth():
    geo = BasicSequence(
        [tuple(2 ** (i + 1) if j == i else 0 for j in range(8)) for i in range(8)],
        NormTag.ell_p(1),
    )
    cert = shift_equivalence_constants(geo, 3, SamplingBudget(count=200, seed=3))
    assert cert.constants["L_hat"] == pytest.approx(8.0, rel=1e-12)
    for p in (1, 2, 3):
        assert cert.constants[f"r_min_p{p}"] == pytest.approx(2.0**p, rel=1e-12)
        assert cert.constants[f"r_max_p{p}"] == pytest.approx(2.0**p, rel=1e-12)


def test_shift_equivalence_rational():
    s = builtin_sequence("summing_c0", 6)
    cert = shift_equivalence_constants(s, 2, SamplingBudget(count=30, seed=1), arithmetic="rational")
    assert cert.constants["L_hat"] == 1
    assert cert.arithmetic == "rational"


def test_shift_equivalence_range_error():
    s = builtin_sequence("ell1_canonical", 4)
    with pytest.raises(ParameterError):
        shift_equivalence_constants(s, 4, EXHAUSTIVE)


def perturbation_budget_79(A, kappa, L):
    """min(A / (4 K (1+L)), A L / (4 K (2+L))): Lemma 7.9's summed-gap
    allowance.  No check computes it; the ``lemma79`` check verifies only
    the lemma's conclusion."""
    if not (A > 0 and L > 0):
        raise ParameterError("A and L must be positive")
    if kappa < 1:
        raise ParameterError("kappa must be >= 1")
    if all(not isinstance(v, float) for v in (A, kappa, L)):
        A, kappa, L = Fraction(A), Fraction(kappa), Fraction(L)
    return min(A / (4 * kappa * (1 + L)), A * L / (4 * kappa * (2 + L)))


def test_perturbation_budget_79():
    assert perturbation_budget_79(1, 1, 1) == R(1, 12)
    assert perturbation_budget_79(1, 1, 1000) < R(1, 1000)
    lam = R(3, 7)
    assert perturbation_budget_79(lam * 1, 1, 1) == lam * perturbation_budget_79(1, 1, 1)
    with pytest.raises(ParameterError):
        perturbation_budget_79(0, 1, 1)
    with pytest.raises(ParameterError):
        perturbation_budget_79(1, 0.5, 1)


def test_lemma79_summing_and_ell1():
    for name in ("summing_c0", "ell1_canonical"):
        s = builtin_sequence(name, 8)
        cert = lemma79_conclusion_check(s, 1, None, 3, SamplingBudget(count=300, seed=4))
        assert cert.holds, name
        assert "lower-convention=printed(L/2)" in cert.flags


def test_lemma79_geometric_conventions():
    geo = BasicSequence(
        [tuple(2 ** (i + 1) if j == i else 0 for j in range(6)) for i in range(6)],
        NormTag.ell_p(1),
    )
    cert = lemma79_conclusion_check(geo, 2, None, 1, SamplingBudget(count=100, seed=4))
    # ratios are exactly 2: upper side holds with equality
    assert cert.constants["margin_upper"] == pytest.approx(0.0, abs=1e-9)
    assert cert.holds
    # both lower conventions recorded side by side
    assert cert.constants["margin_lower_printed"] is not None
    assert cert.constants["margin_lower_symmetric"] is not None
    sym = lemma79_conclusion_check(
        geo, 2, 1 / (2 * 2.0), 1, SamplingBudget(count=100, seed=4)
    )
    assert "lower-convention=symmetric(1/(2L))" in sym.flags
    assert sym.holds
    # the names select the same certificate as their values, in both modes
    budget = SamplingBudget(count=100, seed=4)
    for arithmetic, symmetric in ((FLOAT, 0.25), (RATIONAL, R(1, 4))):
        by_name = [lemma79_conclusion_check(geo, 2, c, 1, budget, arithmetic) for c in ("printed", "symmetric")]
        by_value = [lemma79_conclusion_check(geo, 2, c, 1, budget, arithmetic) for c in (None, symmetric)]
        assert by_name == by_value
        assert "lower-convention=symmetric(1/(2L))" in by_name[1].flags


@pytest.mark.parametrize("arithmetic", [FLOAT, RATIONAL])
def test_input_constants_are_reported_in_the_arithmetic_mode(arithmetic):
    # a config parses every constant as a Fraction; a float certificate
    # reports the floats its verdict used, a rational one the exact "p/q"
    s, budget = builtin_sequence("summing_c0", 6), SamplingBudget(count=50, seed=1)
    reported = {}
    for lower_c in (R(1, 4), "printed", "symmetric"):
        cert = lemma79_conclusion_check(s, R(2), lower_c, 1, budget, arithmetic).to_json_dict()
        reported[lower_c] = (cert["constants"]["L"], cert["constants"]["lower_c"])
    cert = summing_equivalence_check(s, R(1, 4), R(3), budget, arithmetic).to_json_dict()
    reported["c1, c2"] = (cert["constants"]["c1"], cert["constants"]["c2"])
    if arithmetic == FLOAT:
        assert reported == {
            R(1, 4): (2.0, 0.25), "printed": (2.0, 1.0), "symmetric": (2.0, 0.25), "c1, c2": (0.25, 3.0)
        }
        assert all(type(x) is float for pair in reported.values() for x in pair)
    else:
        assert reported == {
            R(1, 4): ("2/1", "1/4"), "printed": ("2/1", "1/1"), "symmetric": ("2/1", "1/4"),
            "c1, c2": ("1/4", "3/1"),
        }


def test_blocked_convex_coefficients_norm_one_summing():
    # convex blocks of the summing family keep unit span norm on the simplex
    s = builtin_sequence("summing_c0", 6)
    spec = ConvexBlockSpec(blocks=((1, 2), (4, 5)), weights=(half, half))
    bs = build_convex_blocks(s, spec)
    t = (R(1, 3), R(2, 3))
    assert bs.span_norm(t) == 1
