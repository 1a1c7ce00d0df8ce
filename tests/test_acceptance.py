"""Acceptance gate: one test per criterion, each printed as PASS or FAIL.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import contextlib
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqcert.cli import main
from seqcert.fpmaps import (
    AffineMapSpec,
    apply_map,
    make_alpha_schedule,
    make_summing_functional,
    theta_lower_bound_rightshift,
    theta_of_map,
)
from seqcert.sampling import SamplingBudget, rational_simplex
from seqcert.sequences import (
    BasicSequence,
    basis_constant,
    builtin_sequence,
    domination_constant,
    equivalence_constants,
    wide_s_certificate,
)
from seqcert.spaces import (
    NormTag,
    james_power_sum_exact,
    james_power_sums_batch,
    james_summing_norm,
    norm_batch,
    summing_basis_norm,
)
from seqcert.blocks import shift_equivalence_constants
from seqcert.fpmaps import bilipschitz_estimate

REPO = Path(__file__).resolve().parent.parent
THEOREM41 = REPO / "configs" / "theorem41.cfg"

R = Fraction


@contextlib.contextmanager
def criterion(num, label, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    dt = time.perf_counter() - t0
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.1f}s)"
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({dt:.2f}s)")


# -- criterion 1 -------------------------------------------------------------


def _all_int_vectors(n):
    grids = np.meshgrid(*([np.arange(-2.0, 3.0)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


def _enumeration_power_sums(mat, p):
    """Independent oracle: walk every interval chain, sharing prefixes."""
    rows, n = mat.shape
    prefix = np.concatenate([np.zeros((rows, 1)), np.cumsum(mat, axis=1)], axis=1)
    block_pow = {}
    for a in range(0, n + 1):
        for b in range(a + 1, n + 1):
            block_pow[(a, b)] = np.abs(prefix[:, b] - prefix[:, a]) ** p
    best = np.zeros(rows)

    def extend(last, acc):
        for nxt in range(last + 1, n + 2):
            val = acc + block_pow[(last - 1, nxt - 1)]
            np.maximum(best, val, out=best)
            extend(nxt, val)

    for first in range(1, n + 1):
        extend(first, np.zeros(rows))
    return best


def test_criterion_1_james_oracle_equivalence():
    with criterion(1, "james DP vs exhaustive enumeration", limit=10.0):
        rng = np.random.default_rng(101)
        for n in range(1, 9):
            vectors = _all_int_vectors(n)
            for start in range(0, len(vectors), 120000):
                chunk = vectors[start : start + 120000]
                for p in (1.5, 2, 3):
                    dp = james_power_sums_batch(chunk, p)
                    enum = _enumeration_power_sums(chunk, p)
                    if p in (2, 3):
                        # integer inputs, integer p: both sides are exact
                        assert np.array_equal(dp, enum)
                    norms_dp = dp ** (1.0 / p)
                    norms_enum = enum ** (1.0 / p)
                    assert np.max(np.abs(norms_dp - norms_enum)) <= 1e-10
            # tie the scalar op and the exact rational path to the batch DP
            sample = vectors[rng.integers(0, len(vectors), size=20)]
            powers2 = james_power_sums_batch(sample, 2)
            for row, pw in zip(sample, powers2):
                entries = tuple(int(v) for v in row)
                assert james_power_sum_exact(entries, 2) == int(pw)
                for p in (1.5, 2, 3):
                    scalar = james_summing_norm(entries, p)
                    batch = float(james_power_sums_batch(row[None, :], p)[0] ** (1.0 / p))
                    assert abs(scalar - batch) <= 1e-12


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_lin_sandwich():
    with criterion(2, "lin-norm sandwich on 10^4 vectors", limit=1.0):
        rng = np.random.default_rng(202)
        mat = rng.standard_normal((10000, 32)) * rng.uniform(0.1, 10.0, size=(10000, 1))
        lin = norm_batch(mat, NormTag.lin())
        ell1 = norm_batch(mat, NormTag.ell_p(1))
        assert np.all(lin <= ell1 + 1e-12)
        assert np.all(lin >= (8.0 / 9.0) * ell1 - 1e-12)


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_summing_norm_of_simplex_points():
    with criterion(3, "summing norm of convex coefficients == 1 exactly"):
        points = rational_simplex(32, SamplingBudget(count=1000, seed=303))
        for t in points:
            assert sum(t) == 1
            assert summing_basis_norm(t) == 1


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_spreading_isometry():
    with criterion(4, "summing-basis subsequence isometry", limit=10.0):
        full = builtin_sequence("summing_c0", 12)
        head = BasicSequence([v.entries for v in full.vectors[:6]], NormTag.sup())
        budget = SamplingBudget(count=0, seed=0)
        for idx in itertools.combinations(range(12), 6):
            sub = BasicSequence([full.vectors[i].entries for i in idx], NormTag.sup())
            cert = equivalence_constants(head, sub, budget)
            assert abs(cert.constants["r_min"] - 1.0) <= 1e-12, idx
            assert abs(cert.constants["r_max"] - 1.0) <= 1e-12, idx


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_theorem41_suite(tmp_path):
    with criterion(5, "diagonal-shift suite (theorem41.cfg)", limit=30.0):
        out = tmp_path / "theorem41.json"
        code = main(["certify", "--config", str(THEOREM41), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["certificates"]}

        claim2 = by_name["claim2"]
        assert claim2["holds"]
        assert claim2["constants"]["schedule_budget"] <= 0.5
        assert claim2["constants"]["theta"] == 0.5

        psp = by_name["psp"]
        assert psp["holds"]
        assert psp["constants"]["evaluated"] == 10000
        assert psp["constants"]["ratio_min"] >= 0.5 - 1e-9
        assert psp["constants"]["ratio_max"] <= 1.5 + 1e-9

        bilip = by_name["bilip"]
        assert bilip["holds"]
        assert bilip["constants"]["c1_hat"] >= 0.5 - 1e-9
        assert bilip["constants"]["c2_hat"] <= 1.5 + 1e-9
        assert bilip["constants"]["L_hat"] <= 3.0 + 1e-8

        residual = by_name["residual"]
        assert residual["holds"]
        assert residual["constants"]["min_residual"] > 0


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_theta_and_bilateral():
    with criterion(6, "orbit separation and bilateral isometry", limit=10.0):
        s = builtin_sequence("ell1_canonical", 64)
        theta_cert = theta_of_map(
            AffineMapSpec.right_shift(), s, SamplingBudget(count=0, seed=0), n_window=50
        )
        assert theta_cert.constants["theta_hat"] == 2.0

        functional = make_summing_functional(s, (1,) * 64)
        kappa = basis_constant(s, SamplingBudget(count=1024, seed=0))
        bound = theta_lower_bound_rightshift(functional, 0.1, kappa[1])
        assert abs(float(bound) - 0.7) <= 1e-12
        assert theta_cert.constants["theta_hat"] >= float(bound)

        s8 = builtin_sequence("ell1_canonical", 8)
        bilat = AffineMapSpec.bilateral()
        cert = bilipschitz_estimate(bilat, s8, SamplingBudget(count=1000, seed=66), p_max=1)
        assert abs(cert.constants["c1_hat"] - 1.0) <= 1e-12
        assert abs(cert.constants["c2_hat"] - 1.0) <= 1e-12

        rng = np.random.default_rng(67)
        for _ in range(1000):
            t = tuple(rng.dirichlet(np.ones(8)))
            out = apply_map(bilat, t)
            assert sorted(out.t) == sorted(t)


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_mass_and_affinity_exact():
    with criterion(7, "mass conservation and affinity, exact rational"):
        n = 12
        sch = make_alpha_schedule(R(1, 2), 1, 1, 1, n + 1, arithmetic="rational")
        specs = [
            AffineMapSpec.diag_shift(sch),
            AffineMapSpec.right_shift(),
            AffineMapSpec.bilateral(),
            AffineMapSpec.geometric(),
        ]
        budget = SamplingBudget(count=1000, seed=707)
        ts = rational_simplex(n, budget)
        us = rational_simplex(n, SamplingBudget(count=1000, seed=708))
        rng = np.random.default_rng(709)
        lams = [R(int(k), 16) for k in rng.integers(0, 17, size=1000)]
        for spec in specs:
            for t, u, lam in zip(ts, us, lams):
                ft = apply_map(spec, t)
                fu = apply_map(spec, u)
                assert sum(ft.t) == 1
                assert all(x >= 0 for x in ft.t)
                mix = tuple(lam * a + (1 - lam) * b for a, b in zip(t, u))
                fmix = apply_map(spec, mix)
                expected = tuple(
                    lam * a + (1 - lam) * b for a, b in zip(ft.t, fu.t)
                )
                assert fmix.t == expected


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_wide_s_and_domination():
    with criterion(8, "wide-(s) and domination certificates"):
        budget = SamplingBudget(count=0, seed=0)
        for m in range(1, 11):
            cert = wide_s_certificate(builtin_sequence("ell1_canonical", m), budget)
            assert cert.constants["d_hat"] == 1.0
            assert cert.holds
        dom = domination_constant(
            builtin_sequence("ell1_canonical", 6),
            builtin_sequence("summing_c0", 6),
            budget,
        )
        assert dom.constants["L_hat"] == 1.0
        assert dom.constants["rejected_denominators"] == 0


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_shift_equivalence():
    with criterion(9, "uniform shift equivalence and its failure"):
        budget = SamplingBudget(count=0, seed=0)
        summing = builtin_sequence("summing_c0", 8)
        cert = shift_equivalence_constants(summing, 3, budget)
        assert abs(cert.constants["L_hat"] - 1.0) <= 1e-12

        geo = BasicSequence(
            [tuple(2 ** (i + 1) if j == i else 0 for j in range(8)) for i in range(8)],
            NormTag.ell_p(1),
        )
        cert2 = shift_equivalence_constants(geo, 3, budget)
        assert cert2.constants["L_hat"] == pytest.approx(2.0**3, rel=1e-12)
        for p in (1, 2, 3):
            assert cert2.constants[f"r_min_p{p}"] == pytest.approx(2.0**p, rel=1e-12)


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical certificates under fixed seed"):
        blocks = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            code = main(
                ["certify", "--config", str(THEOREM41), "--out", str(out), "--seed", "7"]
            )
            assert code == 0
            report = json.loads(out.read_text())
            blocks.append(
                json.dumps(report["certificates"], sort_keys=True).encode()
            )
        assert blocks[0] == blocks[1]
