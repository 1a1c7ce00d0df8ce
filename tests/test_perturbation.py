"""Perturbed-family pipeline: construction, theta, both inequality checks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert.errors import ParameterError
from seqcert.fpmaps import AlphaSchedule, make_alpha_schedule
from seqcert.perturbation import (
    PerturbedSequence,
    claim2_chain,
    perturb_toward_next,
    psp_equivalence_check,
    psp_theta,
)
from seqcert.sampling import SamplingBudget
from seqcert.sequences import BasicSequence, basis_constant, builtin_sequence
from seqcert.spaces import NormTag

R = Fraction
EXHAUSTIVE = SamplingBudget(count=0, seed=0)


def ell1(n):
    s = builtin_sequence("ell1_canonical", n)
    basis_constant(s, EXHAUSTIVE)
    return s


def test_perturb_toward_next_arithmetic():
    s = ell1(8)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 1, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    assert z.z_vectors[0].entries[:2] == (R(15, 16), R(1, 16))
    # ||x1 - z1||_1 = 2 * alpha_1 = 2/16
    diff = tuple(a - b for a, b in zip(s.vectors[0].entries, z.z_vectors[0].entries))
    assert sum(abs(d) for d in diff) == R(2, 16)


def test_perturb_single_vector_empty():
    s = ell1(1)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 0, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    assert len(z) == 0
    assert z.theta == 0


def test_perturb_schedule_too_long():
    s = ell1(3)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 3, arithmetic="rational")
    with pytest.raises(ParameterError):
        perturb_toward_next(s, sch)


def test_psp_theta_formula():
    s = ell1(8)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 7, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    # on this family ||x_n - z_n|| = 2 alpha_n, so theta = 4 sum alpha
    assert psp_theta(s, z) == 4 * sum(sch.alphas)
    assert z.theta == psp_theta(s, z)
    assert z.theta < R(1, 2)


def test_psp_theta_zero_for_unperturbed():
    s = ell1(4)
    z = PerturbedSequence(base=s, z_vectors=s.vectors[:3], theta=0)
    assert psp_theta(s, z) == 0


def test_psp_theta_scales_linearly():
    s = ell1(6)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 5, arithmetic="rational")
    halved = AlphaSchedule(
        alphas=tuple(a / 2 for a in sch.alphas),
        theta=sch.theta, a=sch.a, b=sch.b, kappa=sch.kappa,
    )
    z1 = perturb_toward_next(s, sch)
    z2 = perturb_toward_next(s, halved)
    assert psp_theta(s, z2) * 2 == psp_theta(s, z1)


def test_psp_equivalence_rational_exhaustive():
    s = ell1(7)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 6, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    cert = psp_equivalence_check(s, z, z.theta, EXHAUSTIVE, arithmetic="rational")
    assert cert.holds
    assert cert.constants["margin_lower"] >= 0
    assert cert.constants["margin_upper"] >= 0
    assert cert.arithmetic == "rational"
    # every ratio sits inside [1 - theta, 1 + theta]
    assert cert.constants["ratio_min"] >= 1 - z.theta
    assert cert.constants["ratio_max"] <= 1 + z.theta


def test_psp_equivalence_identity_ratios():
    s = ell1(5)
    z = PerturbedSequence(base=s, z_vectors=s.vectors[:4], theta=0)
    cert = psp_equivalence_check(s, z, R(1, 4), EXHAUSTIVE, arithmetic="rational")
    assert cert.holds
    assert cert.constants["ratio_min"] == 1
    assert cert.constants["ratio_max"] == 1


def test_psp_equivalence_single_coordinate_ratio():
    s = ell1(4)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 3, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    for n, al in enumerate(sch.alphas):
        t = tuple(R(1) if i == n else R(0) for i in range(3))
        from seqcert.spaces import norm

        zt = [sum(c * zv[j] for c, zv in zip(t, z.z_vectors)) for j in range(len(z.z_vectors[0]))]
        ratio = norm(zt, s.ambient) / s.span_norm(t)
        assert 1 - 2 * al <= ratio <= 1


def test_psp_witness_reproduces_margin():
    s = ell1(7)
    sch = make_alpha_schedule(0.5, 1, 1, 1, 6)
    z = perturb_toward_next(s, sch)
    cert = psp_equivalence_check(s, z, z.theta, SamplingBudget(count=300, seed=11))
    from seqcert.spaces import norm

    t = cert.witness["worst_lower"]
    nx = float(s.span_norm(t))
    zt = [sum(c * zv[j] for c, zv in zip(t, z.z_vectors)) for j in range(len(z.z_vectors[0]))]
    nz = float(norm(zt, s.ambient))
    margin = nz - (1 - float(z.theta)) * nx
    assert margin == pytest.approx(float(cert.constants["margin_lower"]), abs=1e-9)


def test_psp_theta_dominates_lower_kappa_form():
    s = ell1(6)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 5, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    from seqcert.perturbation import _relative_gap_sum

    gap = _relative_gap_sum(s, z.z_vectors)
    assert psp_theta(s, z) >= 2 * s.kappa_lower * gap


def test_psp_equivalence_rejects_large_theta():
    s = ell1(4)
    z = PerturbedSequence(base=s, z_vectors=s.vectors[:3], theta=0)
    with pytest.raises(ParameterError):
        psp_equivalence_check(s, z, R(3, 2), EXHAUSTIVE, arithmetic="rational")


def test_psp_guarantee_on_sampled_families():
    # whenever theta < 1 the two-sided inequality must hold on every
    # evaluated vector; exercised across ambient norms
    for name in ("ell1_canonical", "c0_canonical", "summing_c0", "lin_ell1"):
        s = builtin_sequence(name, 6)
        basis_constant(s, EXHAUSTIVE)
        sch = make_alpha_schedule(
            0.8, float(s.a), float(s.b), float(s.kappa_upper), 5
        )
        z = perturb_toward_next(s, sch)
        assert z.theta < 1
        cert = psp_equivalence_check(s, z, z.theta, SamplingBudget(count=500, seed=6))
        assert cert.holds, (name, cert.constants)


def test_claim2_chain_values_exact():
    s = ell1(4)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 3, arithmetic="rational")
    cert = claim2_chain(s, sch, arithmetic="rational")
    assert cert.holds
    assert cert.constants["perturbation_sum"] == R(7, 16)
    assert cert.constants["bounded_sum"] == R(7, 16)
    assert cert.constants["schedule_budget"] == R(7, 16)
    assert cert.constants["theta"] == R(1, 2)


def test_claim2_chain_empty_schedule():
    s = ell1(2)
    sch = make_alpha_schedule(R(1, 3), 1, 1, 1, 0, arithmetic="rational")
    cert = claim2_chain(s, sch, arithmetic="rational")
    assert cert.holds
    assert cert.constants["perturbation_sum"] == 0
    assert cert.constants["schedule_budget"] == 0


def test_claim2_chain_scales_with_b_over_a():
    wide = BasicSequence(
        [(1, 0, 0), (0, 2, 0), (0, 0, 2)], NormTag.ell_p(1)
    )
    basis_constant(wide, SamplingBudget(count=200, seed=1))
    narrow = ell1(3)
    sch_w = make_alpha_schedule(R(1, 2), wide.a, wide.b, wide.kappa_upper, 2, arithmetic="rational")
    sch_n = make_alpha_schedule(R(1, 2), 1, 1, narrow.kappa_upper, 2, arithmetic="rational")
    cw = claim2_chain(wide, sch_w, arithmetic="rational")
    cn = claim2_chain(narrow, sch_n, arithmetic="rational")
    ratio_w = cw.constants["bounded_sum"] / sum(sch_w.alphas)
    ratio_n = cn.constants["bounded_sum"] / sum(sch_n.alphas)
    # b/a = 2 doubles the middle link relative to the a = b case
    assert ratio_w == 2 * ratio_n


@given(st.integers(2, 7), st.integers(1, 9))
def test_theta_monotone_under_scaling(m, num):
    s = ell1(m)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, m - 1, arithmetic="rational")
    lam = R(num, 10)
    scaled = AlphaSchedule(
        alphas=tuple(lam * a for a in sch.alphas),
        theta=sch.theta, a=sch.a, b=sch.b, kappa=sch.kappa,
    )
    assert psp_theta(s, perturb_toward_next(s, scaled)) == lam * psp_theta(
        s, perturb_toward_next(s, sch)
    )
