"""Perturbed-family pipeline: construction, theta, both inequality checks.

The perturbed family is the diagonal shift's first pushed family f(I) X.
``elementwise_z`` keeps the formula z_n = (1 - alpha_n) x_n + alpha_n x_{n+1}
written out entry by entry, as the oracle of that construction.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert.errors import DependenceError, ParameterError
from seqcert.fpmaps import AlphaSchedule, make_alpha_schedule
from seqcert.perturbation import (
    claim2_chain,
    perturb_toward_next,
    perturbation_sum,
    psp_equivalence_check,
)
from seqcert.sampling import SamplingBudget
from seqcert.sequences import (
    PROVED_MONOTONE, BasicSequence, Kappa, basis_constant, builtin_sequence, gap_bound_check,
)
from seqcert.spaces import NormTag, norm

R = Fraction
EXHAUSTIVE = SamplingBudget(count=0, seed=0)


def ell1(n):
    return builtin_sequence("ell1_canonical", n)


def kappa(s):
    return basis_constant(s, EXHAUSTIVE)


def elementwise_z(s, alpha):
    """z_n = (1 - alpha_n) x_n + alpha_n x_{n+1} entry by entry, in the
    entries' own arithmetic (Fractions on exact input, Python floats on a
    float schedule)."""
    k = len(alpha)
    rows = s.matrix(exact=True)
    al = np.array(alpha.alphas, dtype=object)[:, None]
    return (1 - al) * rows[:k] + al * rows[1 : k + 1]


def oracle_theta(s, alpha, kap):
    """2 kappa sum_n ||x_n - z_n|| / ||x_n|| over ``elementwise_z``, one norm
    at a time."""
    gaps = [norm(x - zn, s.ambient) for x, zn in zip(s.matrix(exact=True), elementwise_z(s, alpha))]
    return 2 * kap * sum((g / x_norm for g, x_norm in zip(gaps, s.vector_norms)), 0)


def random_exact_family(rng, m, n, tag):
    """m independent int/Fraction vectors of length n: an upper-triangular
    part with a nonzero diagonal, plus random entries."""
    rows = []
    for i in range(m):
        row = [0] * n
        for j in range(i, n):
            row[j] = int(rng.integers(-4, 5)) if rng.random() < 0.5 else R(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        row[i] = row[i] or 1
        rows.append(tuple(row))
    return BasicSequence(rows, tag)


EXACT_FAMILIES = [
    ("ell1_canonical", lambda rng: ell1(7)),
    ("summing_c0", lambda rng: builtin_sequence("summing_c0", 6)),
    ("lin_ell1", lambda rng: builtin_sequence("lin_ell1", 9)),
    ("random_ell1", lambda rng: random_exact_family(rng, 6, 8, NormTag.ell_p(1))),
    ("random_sup", lambda rng: random_exact_family(rng, 5, 5, NormTag.sup())),
    ("random_lin", lambda rng: random_exact_family(rng, 7, 9, NormTag.lin())),
]


@pytest.mark.parametrize("name,make", EXACT_FAMILIES, ids=[n for n, _ in EXACT_FAMILIES])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pushed_family_is_the_elementwise_family_exactly(name, make, seed):
    s = make(np.random.default_rng(seed))
    sch = make_alpha_schedule(R(1, 2), s.a, s.b, 1, len(s) - 1, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    assert z.dtype == object and z.shape == (len(s) - 1, s.ambient_length)
    assert z.tolist() == elementwise_z(s, sch).tolist()
    assert perturbation_sum(s, z, sch.kappa) == oracle_theta(s, sch, sch.kappa)


def random_01_family(rng, m, n, tag):
    """m independent 0/1 vectors of length n."""
    while True:
        mat = (rng.random((m, n)) < 0.5).astype(int)
        try:
            return BasicSequence([tuple(map(int, row)) for row in mat], tag)
        except DependenceError:
            continue


@pytest.mark.parametrize("tag", [NormTag.ell_p(1), NormTag.sup(), NormTag.lin(), NormTag.james(2)], ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_pushed_family_is_the_elementwise_family_bitwise_on_01_families(tag, seed):
    """On 0/1 entries every product is exact, and each entry of z sums at
    most two nonzero products, so gemm rounds exactly as the elementwise
    formula does."""
    rng = np.random.default_rng(seed)
    for s in (random_01_family(rng, 12, 16, tag), BasicSequence(np.eye(10, dtype=int).tolist(), tag)):
        sch = make_alpha_schedule(0.5, float(s.a), float(s.b), 1.0, len(s) - 1)
        z = perturb_toward_next(s, sch)
        oracle = elementwise_z(s, sch).astype(float)
        assert z.dtype == float
        assert z.tobytes() == oracle.tobytes()
        assert perturbation_sum(s, z, sch.kappa) == oracle_theta(s, sch, sch.kappa)


@pytest.mark.parametrize("seed", range(8))
def test_pushed_family_is_within_a_few_ulps_on_general_float_families(seed):
    """Each entry of z is (1 - alpha_n) x + alpha_n y with one rounding per
    product and one for their sum, in either construction, plus exact zeros
    in the gemm; so the two differ by at most 2 gamma_2 <= 4u times
    |(1 - alpha_n) x| + |alpha_n y| (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1), with u = 2^-53."""
    rng = np.random.default_rng(seed)
    m, n = 9, 12
    scale = 10.0 ** rng.integers(-3, 6)
    s = BasicSequence((scale * rng.standard_normal((m, n))).tolist(), NormTag.ell_p(1))
    sch = make_alpha_schedule(0.5, float(s.a), float(s.b), 1.0, m - 1)
    z = perturb_toward_next(s, sch)
    oracle = elementwise_z(s, sch).astype(float)
    al = np.array(sch.alphas)[:, None]
    X = s.matrix()
    bound = 4 * 2.0**-53 * (np.abs((1 - al) * X[:-1]) + np.abs(al * X[1:]))
    assert np.all(np.abs(z - oracle) <= bound)


def test_perturb_toward_next_arithmetic():
    s = ell1(8)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 1, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    assert tuple(z[0][:2]) == (R(15, 16), R(1, 16))
    # ||x1 - z1||_1 = 2 * alpha_1 = 2/16
    diff = tuple(a - b for a, b in zip(s.vectors[0].entries, z[0]))
    assert sum(abs(d) for d in diff) == R(2, 16)


def test_perturb_single_vector_empty():
    s = ell1(1)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 0, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    assert len(z) == 0
    assert perturbation_sum(s, z, sch.kappa) == 0


def test_perturb_schedule_too_long():
    s = ell1(3)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 3, arithmetic="rational")
    with pytest.raises(ParameterError):
        perturb_toward_next(s, sch)


def test_psp_theta_formula():
    s = ell1(8)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 7, arithmetic="rational")
    theta = perturbation_sum(s, perturb_toward_next(s, sch), sch.kappa)
    # on this family ||x_n - z_n|| = 2 alpha_n, so theta = 4 sum alpha
    assert theta == 4 * sum(sch.alphas)
    assert theta == oracle_theta(s, sch, sch.kappa)
    assert theta < R(1, 2)


def test_psp_theta_zero_for_unperturbed():
    s = ell1(4)
    assert perturbation_sum(s, s.matrix(exact=True)[:3], 1) == 0


def test_psp_theta_scales_linearly():
    s = ell1(6)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 5, arithmetic="rational")
    halved = AlphaSchedule(
        alphas=tuple(a / 2 for a in sch.alphas),
        theta=sch.theta, a=sch.a, b=sch.b, kappa=sch.kappa,
    )
    theta1 = perturbation_sum(s, perturb_toward_next(s, sch), sch.kappa)
    theta2 = perturbation_sum(s, perturb_toward_next(s, halved), halved.kappa)
    assert theta2 * 2 == theta1


def test_psp_equivalence_rational_exhaustive():
    s = ell1(7)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 6, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    theta = perturbation_sum(s, z, sch.kappa)
    cert = psp_equivalence_check(s, z, theta, kappa(s), EXHAUSTIVE, arithmetic="rational")
    assert cert.holds
    assert cert.constants["margin_lower"] >= 0
    assert cert.constants["margin_upper"] >= 0
    assert cert.arithmetic == "rational"
    # every ratio sits inside [1 - theta, 1 + theta]
    assert cert.constants["ratio_min"] >= 1 - theta
    assert cert.constants["ratio_max"] <= 1 + theta


def test_psp_equivalence_identity_ratios():
    s = ell1(5)
    z = s.matrix(exact=True)[:4]
    cert = psp_equivalence_check(s, z, R(1, 4), kappa(s), EXHAUSTIVE, arithmetic="rational")
    assert cert.holds
    assert cert.constants["ratio_min"] == 1
    assert cert.constants["ratio_max"] == 1


def test_psp_equivalence_single_coordinate_ratio():
    s = ell1(4)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 3, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    for n, al in enumerate(sch.alphas):
        t = tuple(R(1) if i == n else R(0) for i in range(3))
        zt = [sum(c * zn[j] for c, zn in zip(t, z)) for j in range(z.shape[1])]
        ratio = norm(zt, s.ambient) / s.span_norm(t)
        assert 1 - 2 * al <= ratio <= 1


def test_psp_witness_reproduces_margin():
    s = ell1(7)
    sch = make_alpha_schedule(0.5, 1, 1, 1, 6)
    z = perturb_toward_next(s, sch)
    theta = perturbation_sum(s, z, sch.kappa)
    cert = psp_equivalence_check(s, z, theta, kappa(s), SamplingBudget(count=300, seed=11))
    t = cert.witness["worst_lower"]
    nx = float(s.span_norm(t))
    zt = [sum(c * zn[j] for c, zn in zip(t, z)) for j in range(z.shape[1])]
    nz = float(norm(zt, s.ambient))
    margin = nz - (1 - float(theta)) * nx
    assert margin == pytest.approx(float(cert.constants["margin_lower"]), abs=1e-9)


def test_psp_theta_dominates_lower_kappa_form():
    s = ell1(6)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 5, arithmetic="rational")
    z = perturb_toward_next(s, sch)
    assert perturbation_sum(s, z, sch.kappa) >= perturbation_sum(s, z, kappa(s)[0])


def test_psp_equivalence_rejects_large_theta():
    s = ell1(4)
    z = s.matrix(exact=True)[:3]
    with pytest.raises(ParameterError):
        psp_equivalence_check(s, z, R(3, 2), kappa(s), EXHAUSTIVE, arithmetic="rational")


def test_psp_guarantee_on_sampled_families():
    # whenever theta < 1 the two-sided inequality must hold on every
    # evaluated vector; exercised across ambient norms
    for name in ("ell1_canonical", "c0_canonical", "summing_c0", "lin_ell1"):
        s = builtin_sequence(name, 6)
        kap = kappa(s)
        sch = make_alpha_schedule(0.8, float(s.a), float(s.b), kap[1], 5)
        z = perturb_toward_next(s, sch)
        theta = perturbation_sum(s, z, sch.kappa)
        assert theta < 1
        cert = psp_equivalence_check(s, z, theta, kap, SamplingBudget(count=500, seed=6))
        assert cert.holds, (name, cert.constants)


def test_claim2_chain_values_exact():
    s = ell1(4)
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 3, arithmetic="rational")
    cert = claim2_chain(s, sch, kappa(s), arithmetic="rational")
    assert cert.holds
    assert cert.constants["perturbation_sum"] == R(7, 16)
    assert cert.constants["bounded_sum"] == R(7, 16)
    assert cert.constants["schedule_budget"] == R(7, 16)
    assert cert.constants["theta"] == R(1, 2)


def test_claim2_chain_empty_schedule():
    s = ell1(2)
    sch = make_alpha_schedule(R(1, 3), 1, 1, 1, 0, arithmetic="rational")
    cert = claim2_chain(s, sch, kappa(s), arithmetic="rational")
    assert cert.holds
    assert cert.constants["perturbation_sum"] == 0
    assert cert.constants["schedule_budget"] == 0


def test_claim2_chain_scales_with_b_over_a():
    wide = BasicSequence(
        [(1, 0, 0), (0, 2, 0), (0, 0, 2)], NormTag.ell_p(1)
    )
    kappa_w = basis_constant(wide, SamplingBudget(count=200, seed=1))
    narrow = ell1(3)
    kappa_n = kappa(narrow)
    sch_w = make_alpha_schedule(R(1, 2), wide.a, wide.b, kappa_w[1], 2, arithmetic="rational")
    sch_n = make_alpha_schedule(R(1, 2), 1, 1, kappa_n[1], 2, arithmetic="rational")
    cw = claim2_chain(wide, sch_w, kappa_w, arithmetic="rational")
    cn = claim2_chain(narrow, sch_n, kappa_n, arithmetic="rational")
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
    theta = perturbation_sum(s, perturb_toward_next(s, sch), sch.kappa)
    assert perturbation_sum(s, perturb_toward_next(s, scaled), scaled.kappa) == lam * theta


@pytest.mark.parametrize(
    "kap, bound, flags",
    [
        (Kappa(1, 1, PROVED_MONOTONE), 1.0, ()),
        (Kappa(1, 2, "sampled(count=512,seed=1)"), 0.5, ("kappa-upper-heuristic",)),
        (Kappa(2, 2, "exhaustive"), 0.5, ("kappa-upper-heuristic",)),
    ],
)
def test_kappa_is_an_explicit_input(kap, bound, flags):
    """The record passed in, not one cached on the sequence, sets the gap
    bound and the kappa-upper-heuristic flag: its source, not its width,
    decides the flag, so a sampled point interval is flagged too."""
    s = ell1(6)
    gap = gap_bound_check(s, kap)
    assert gap.constants["bound"] == bound
    assert gap.flags == flags
    sch = make_alpha_schedule(R(1, 2), 1, 1, kap.upper, 5, arithmetic="rational")
    chain = claim2_chain(s, sch, kap, arithmetic="rational")
    assert chain.holds
    assert chain.flags == flags
    z = perturb_toward_next(s, sch)
    psp = psp_equivalence_check(s, z, perturbation_sum(s, z, sch.kappa), kap, EXHAUSTIVE, arithmetic="rational")
    assert psp.holds
    assert psp.flags == flags


def test_claim2_chain_rational_int_norms_stay_exact():
    s = ell1(8)  # integer norms: a = b = 1
    sch = make_alpha_schedule(R(1, 2), 1, 1, 1, 7, arithmetic="rational")
    cert = claim2_chain(s, sch, Kappa(1, 1, PROVED_MONOTONE), arithmetic="rational")
    assert cert.holds
    bounded = cert.constants["bounded_sum"]
    assert isinstance(bounded, Fraction)
    assert bounded == Fraction(127, 256)
