"""Affine simplex maps: formulas, invariants, iterate estimates."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcert.cli import RunContext
from seqcert.config import load_config
from seqcert.errors import ParameterError, TruncationError
from seqcert.fpmaps import (
    AffineMapSpec,
    AlphaSchedule,
    ConvexCoefficients,
    apply_map,
    apply_map_batch,
    bilateral_targets,
    bilipschitz_estimate,
    fixed_point_residual,
    make_alpha_schedule,
    make_summing_functional,
    map_policy,
    pushed_families,
    start_length,
    theta_lower_bound_rightshift,
    theta_of_map,
)
from seqcert.sampling import SamplingBudget
from seqcert.sequences import basis_constant, builtin_sequence

R = Fraction
THEOREM41 = Path(__file__).resolve().parents[1] / "configs" / "theorem41.cfg"

simplex_rationals = st.lists(st.integers(0, 8), min_size=2, max_size=8).filter(
    lambda l: sum(l) > 0
).map(lambda l: tuple(R(k, sum(l)) for k in l))


def iterate(spec, t, p):
    """The p-fold composition of ``apply_map`` (p = 0 is the identity), the
    oracle the pushed families of the map checks are compared against."""
    cur = ConvexCoefficients.of(t)
    for _ in range(p):
        cur = apply_map(spec, cur)
    return cur


def rational_schedule(n, theta=R(1, 2)):
    return make_alpha_schedule(theta, 1, 1, 1, n, arithmetic="rational")


def all_specs(n):
    sch = rational_schedule(n)
    return [
        AffineMapSpec.diag_shift(sch),
        AffineMapSpec.right_shift(),
        AffineMapSpec.bilateral(),
        AffineMapSpec.geometric(),
    ]


def test_make_alpha_schedule_examples():
    sch = rational_schedule(3)
    assert sch.alphas == (R(1, 16), R(1, 32), R(1, 64))
    assert 4 * sum(sch.alphas) == R(7, 16)

    empty = make_alpha_schedule(0.9, 1, 2, 1.5, 0)
    assert empty.alphas == ()

    one = make_alpha_schedule(R(1, 2), 1, 2, 1, 1, arithmetic="rational")
    assert one.alphas == (R(1, 32),)
    assert 8 * one.alphas[0] == R(1, 4)

    with pytest.raises(ParameterError):
        make_alpha_schedule(1.5, 1, 1, 1, 3)
    with pytest.raises(ParameterError):
        make_alpha_schedule(0.0, 1, 1, 1, 3)


def test_alpha_schedule_invariant_enforced():
    with pytest.raises(ParameterError):
        AlphaSchedule(alphas=(R(1, 2), R(1, 2)), theta=R(1, 2), a=1, b=1, kappa=1)
    with pytest.raises(ParameterError):
        AlphaSchedule(alphas=(R(0),), theta=R(1, 2), a=1, b=1, kappa=1)


def test_apply_map_examples():
    assert apply_map(AffineMapSpec.right_shift(), (1, 0, 0)).t == (0, 1, 0, 0)

    sch = rational_schedule(2)
    a1 = sch.alphas[0]
    out = apply_map(AffineMapSpec.diag_shift(sch), (R(1), R(0)))
    assert out.t == (1 - a1, a1, R(0))

    out2 = apply_map(AffineMapSpec.bilateral(), (0, 1, 0, 0))
    assert out2.t == (1, 0, 0, 0)


def test_bilateral_needs_even_truncation():
    with pytest.raises(TruncationError):
        apply_map(AffineMapSpec.bilateral(), (R(1), R(0), R(0)))
    assert bilateral_targets(6) == [3, 1, 5, 2, 6, 4]


def test_geometric_requires_fold_tail():
    with pytest.raises(ParameterError):
        AffineMapSpec("geometric", None, "grow")


def test_map_policy_defaults_and_rules():
    assert map_policy("diag_shift", Fraction(1, 2), None) == "grow"
    assert map_policy("right_shift", None, "fold_tail") == "fold_tail"
    assert map_policy("bilateral", None, None) == "grow"
    assert map_policy("geometric", None, None) == "fold_tail"
    assert AffineMapSpec.geometric().policy == "fold_tail"
    for variant, theta, policy in [
        ("diag_shift", None, None),
        ("right_shift", Fraction(1, 2), None),
        ("diag_shift", Fraction(3, 2), None),
        ("bilateral", None, "grow"),
        ("geometric", None, "grow"),
        ("right_shift", None, "wat"),
        ("wat", None, None),
    ]:
        with pytest.raises(ParameterError):
            map_policy(variant, theta, policy)


def test_iterate_examples():
    rs = AffineMapSpec.right_shift()
    assert iterate(rs, (1, 0, 0, 0, 0), 3).t == (0, 0, 0, 1, 0, 0, 0, 0)
    assert iterate(rs, (0.25, 0.75), 0).t == (0.25, 0.75)

    sch = rational_schedule(4)
    a1, a2 = sch.alphas[0], sch.alphas[1]
    got = iterate(AffineMapSpec.diag_shift(sch), (R(1), R(0)), 2)
    expected = ((1 - a1) ** 2, a1 * (1 - a1) + a1 * (1 - a2), a1 * a2, R(0))
    assert got.t == expected


@given(simplex_rationals)
def test_mass_and_nonnegativity_exact(t):
    n = len(t) - (len(t) % 2)  # even length for bilateral
    t_even = tuple(t[:n])
    if sum(t_even) == 0:
        return
    t_even = tuple(x / sum(t_even) for x in t_even)
    for spec in all_specs(len(t_even) + 1):
        out = apply_map(spec, t_even)
        assert sum(out.t) == 1
        assert all(x >= 0 for x in out.t)


@given(simplex_rationals, simplex_rationals, st.integers(0, 10))
def test_affinity_exact(t1, t2, lam_num):
    n = min(len(t1), len(t2))
    n -= n % 2
    if n < 2:
        return
    lam = R(lam_num, 10)

    def renorm(t):
        s = sum(t[:n])
        return None if s == 0 else tuple(x / s for x in t[:n])

    ta, tb = renorm(t1), renorm(t2)
    if ta is None or tb is None:
        return
    mix = tuple(lam * a + (1 - lam) * b for a, b in zip(ta, tb))
    for spec in all_specs(n + 1):
        left = apply_map(spec, mix).t
        fa, fb = apply_map(spec, ta).t, apply_map(spec, tb).t
        right = tuple(lam * x + (1 - lam) * y for x, y in zip(fa, fb))
        assert left == right


def test_bilateral_vertex_orbit_and_multiset():
    spec = AffineMapSpec.bilateral()
    n = 8
    t = ConvexCoefficients.vertex(3, n)
    seen = set()
    cur = t
    for _ in range(n):
        cur = apply_map(spec, cur)
        assert sorted(cur.t) == sorted(t.t)
        assert sum(1 for x in cur.t if x == 1) == 1
        seen.add(cur.t.index(1))
    assert len(seen) == n  # single n-cycle visits every slot


def test_diag_shift_matches_perturbed_family_form():
    # coefficient recursion agrees with t -> sum t_n z_n for the blended family
    from seqcert.perturbation import perturb_toward_next

    s = builtin_sequence("ell1_canonical", 8)
    kappa = basis_constant(s, SamplingBudget(count=0, seed=0))
    sch = make_alpha_schedule(0.5, float(s.a), float(s.b), kappa[1], 7)
    spec = AffineMapSpec.diag_shift(sch)
    z = perturb_toward_next(s, sch)
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = rng.dirichlet(np.ones(7))
        out = apply_map(spec, tuple(t))
        via_coeffs = np.array(s.span_vector(out.t).entries, dtype=float)
        via_z = np.zeros(8)
        for tn, zn in zip(t, z):
            via_z += tn * zn
        assert np.max(np.abs(via_coeffs - via_z)) <= 1e-12


def test_apply_map_batch_matches_scalar():
    rng = np.random.default_rng(12)
    for spec in all_specs(9):
        mat = rng.dirichlet(np.ones(8), size=16)
        batch = apply_map_batch(spec, mat)
        for row, brow in zip(mat, batch):
            out = apply_map(spec, tuple(float(x) for x in row))
            assert np.max(np.abs(np.array(out.t) - brow)) <= 1e-12


def test_bilipschitz_isometries():
    s = builtin_sequence("ell1_canonical", 8)
    cert = bilipschitz_estimate(
        AffineMapSpec.right_shift(), s, SamplingBudget(count=200, seed=1), p_max=2
    )
    assert cert.constants["c1_hat"] == pytest.approx(1.0, abs=1e-12)
    assert cert.constants["c2_hat"] == pytest.approx(1.0, abs=1e-12)

    cert2 = bilipschitz_estimate(
        AffineMapSpec.bilateral(), s, SamplingBudget(count=200, seed=1), p_max=1
    )
    assert cert2.constants["c1_hat"] == pytest.approx(1.0, abs=1e-12)
    assert cert2.constants["c2_hat"] == pytest.approx(1.0, abs=1e-12)


def test_bilipschitz_diag_within_schedule_band():
    s = builtin_sequence("ell1_canonical", 10)
    kappa = basis_constant(s, SamplingBudget(count=0, seed=0))
    theta = 0.5
    sch = make_alpha_schedule(theta, 1, 1, kappa[1], 10)
    cert = bilipschitz_estimate(
        AffineMapSpec.diag_shift(sch), s, SamplingBudget(count=500, seed=2), p_max=1
    )
    assert cert.constants["c1_hat"] >= 1 - theta - 1e-9
    assert cert.constants["c2_hat"] <= 1 + theta + 1e-9


def test_bilipschitz_rational_exact():
    s = builtin_sequence("ell1_canonical", 6)
    cert = bilipschitz_estimate(
        AffineMapSpec.right_shift(),
        s,
        SamplingBudget(count=20, seed=1),
        p_max=1,
        arithmetic="rational",
    )
    assert cert.constants["c1_hat"] == 1
    assert cert.constants["c2_hat"] == 1
    assert cert.arithmetic == "rational"


@pytest.mark.parametrize("arithmetic", ["float", "rational"])
def test_bilipschitz_not_injective_at_truncation(arithmetic):
    """Two geometric iterates at n = 5 identify distinct points: c1_hat = 0."""
    s = builtin_sequence("lin_ell1", 5)
    cert = bilipschitz_estimate(
        AffineMapSpec.geometric(), s, SamplingBudget(count=20, seed=1), p_max=2, arithmetic=arithmetic
    )
    assert cert.constants["c1_hat"] == 0
    assert "L_hat" not in cert.to_json_dict()["constants"]
    assert not cert.holds
    assert cert.flags == ("not-injective-at-truncation",)


def test_fixed_point_residual_examples():
    s = builtin_sequence("ell1_canonical", 8)
    rs = AffineMapSpec.right_shift()
    assert fixed_point_residual(rs, (1, 0, 0), s) == 2

    sch = rational_schedule(7)
    ds = AffineMapSpec.diag_shift(sch)
    t = ConvexCoefficients.vertex(1, 2)
    # ||f(d1) - d1|| = a1 * ||x2 - x1|| = 2 a1 on the ell_1 family
    assert fixed_point_residual(ds, t, s) == 2 * sch.alphas[0]


@given(st.integers(2, 6), st.integers(0, 1000))
def test_residual_positive_on_random_simplex_points(n, seed):
    rng = np.random.default_rng(seed)
    t = tuple(rng.dirichlet(np.ones(n)))
    s = builtin_sequence("ell1_canonical", n + 1)
    for spec in (AffineMapSpec.right_shift(), AffineMapSpec.diag_shift(rational_schedule(n))):
        assert fixed_point_residual(spec, t, s) > 0


def test_theta_of_map_right_shift_delta_pairs():
    s = builtin_sequence("ell1_canonical", 60)
    cert = theta_of_map(
        AffineMapSpec.right_shift(), s, SamplingBudget(count=0, seed=0), n_window=50
    )
    assert cert.constants["theta_hat"] == 2.0
    assert cert.holds

    summing = builtin_sequence("summing_c0", 60)
    cert2 = theta_of_map(
        AffineMapSpec.right_shift(), summing, SamplingBudget(count=0, seed=0), n_window=50
    )
    # ||s_i - s_{j+n}||_sup = 1 for j + n > i
    assert cert2.constants["theta_hat"] == 1.0


def test_theta_lower_bound_rightshift():
    s = builtin_sequence("ell1_canonical", 12)
    kappa = basis_constant(s, SamplingBudget(count=0, seed=0))
    f = make_summing_functional(s, (1,) * 12)
    assert f.gamma == 1
    assert f.norm_phi == 1
    bound = theta_lower_bound_rightshift(f, 0.1, kappa[1])
    assert bound == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(ParameterError):
        theta_lower_bound_rightshift(f, float(f.beta / 3), kappa[1])  # eps == beta/(1+2K)
    with pytest.raises(ParameterError):
        theta_lower_bound_rightshift(f, 0.0, kappa[1])


def test_summing_functional_requires_dualizable_ambient():
    s = builtin_sequence("lin_ell1", 4)
    with pytest.raises(ParameterError):
        make_summing_functional(s, (1, 1, 1, 1))


def test_start_length():
    def length(spec, steps):
        return start_length(spec.variant, spec.policy, 10, steps)

    assert length(AffineMapSpec.right_shift(), 3) == 7
    assert length(AffineMapSpec.bilateral(), 3) == 10
    assert length(AffineMapSpec.geometric(), 5) == 10
    with pytest.raises(ParameterError):
        length(AffineMapSpec.right_shift(), 10)


def test_bilipschitz_witness_reproduces_constant():
    s = builtin_sequence("ell1_canonical", 8)
    sch = make_alpha_schedule(0.5, 1, 1, 1, 8)
    spec = AffineMapSpec.diag_shift(sch)
    cert = bilipschitz_estimate(spec, s, SamplingBudget(count=100, seed=5), p_max=2)
    for key, const in (("pair_min", "c1_hat"), ("pair_max", "c2_hat")):
        tx = cert.witness[f"{key}_x"]
        ty = cert.witness[f"{key}_y"]
        p = cert.constants["p_at_min" if key == "pair_min" else "p_at_max"]
        fx = iterate(spec, tx, p)
        fy = iterate(spec, ty, p)
        base = float(s.span_norm(tuple(a - b for a, b in zip(tx, ty))))
        num = float(s.span_norm(tuple(a - b for a, b in zip(fx.t, fy.t))))
        assert num / base == pytest.approx(float(cert.constants[const]), abs=1e-9)


def test_theta_witness_reproduces_constant():
    s = builtin_sequence("ell1_canonical", 20)
    spec = AffineMapSpec.right_shift()
    cert = theta_of_map(s=s, spec=spec, pair_budget=SamplingBudget(count=50, seed=8), n_window=6)
    x, y = cert.witness["x"], cert.witness["y"]
    lo = (6 + 1) // 2
    dists = []
    fy = ConvexCoefficients.of(y)
    for n in range(1, 7):
        fy = apply_map(spec, fy)
        if n >= lo:
            width = len(fy.t)
            xp = tuple(x) + (0.0,) * (width - len(x))
            dists.append(float(s.span_norm(tuple(a - b for a, b in zip(xp, fy.t)))))
    assert min(dists) == pytest.approx(float(cert.constants["theta_hat"]), abs=1e-9)


def test_iterate_growth_within_analytic_envelope():
    # each iterate's constants stay inside its own compounding band
    s = builtin_sequence("ell1_canonical", 16)
    theta, p_max = 0.5, 3
    sch = make_alpha_schedule(theta, 1, 1, 1, 16)
    spec = AffineMapSpec.diag_shift(sch)
    cert = bilipschitz_estimate(spec, s, SamplingBudget(count=300, seed=10), p_max=p_max)
    constants = cert.constants
    c1 = [constants[f"c1_p{p}"] for p in range(1, p_max + 1)]
    c2 = [constants[f"c2_p{p}"] for p in range(1, p_max + 1)]
    for p, lo, hi in zip(range(1, p_max + 1), c1, c2):
        assert (1 - theta) ** p - 1e-9 <= lo <= hi <= (1 + theta) ** p + 1e-9
    assert constants["c1_hat"] == min(c1)
    assert constants["c2_hat"] == max(c2)
    assert constants["p_at_min"] == 1 + c1.index(min(c1))
    assert constants["p_at_max"] == 1 + c2.index(max(c2))
    assert constants["L_hat"] <= ((1 + theta) / (1 - theta)) ** p_max + 1e-9


def test_convex_coefficients_validation():
    with pytest.raises(ParameterError):
        ConvexCoefficients((R(1, 2), R(1, 4)))
    with pytest.raises(ParameterError):
        ConvexCoefficients((R(3, 2), R(-1, 2)))
    with pytest.raises(ParameterError):
        ConvexCoefficients((0.5, 0.5 + 1e-9))
    ConvexCoefficients((0.5, 0.5 + 1e-14))  # within float mass tolerance


def test_an_exact_orbit_on_theorem41_s_float_schedule_is_exact():
    """theorem41's schedule is float, alpha_k = 2^-(k+3), and 1 - alpha_k
    rounds to 1 in float for k >= 51.  Exact rows take each alpha at its
    exact value, so B_1 - B_0 = (f(I) - I) X keeps -alpha_k on every
    diagonal entry, and the residual at the last vertex is 2 alpha_63 = 2^-65."""
    ctx = RunContext(load_config(str(THEOREM41)))
    spec, s = ctx.map_specs["f"], ctx.seq
    alphas = spec.schedule.alphas
    assert all(isinstance(a, float) for a in alphas)
    assert sum(1 - a == 1 for a in alphas[:63]) == 13  # k = 51..63
    B0, B1 = pushed_families(spec, s, 63, 1, exact=True)
    step = B1 - B0
    assert [step[k, k] for k in range(63)] == [-Fraction(a) for a in alphas[:63]]
    assert all(type(step[k, k]) is Fraction for k in range(63))
    residual = fixed_point_residual(spec, ConvexCoefficients.vertex(63, 63), s)
    assert type(residual) is Fraction and residual == Fraction(1, 2**65)
