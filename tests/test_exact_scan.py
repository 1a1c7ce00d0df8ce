"""Rational-mode certificates against brute-force scalar references.

Every rational op runs the shared numpy scan, exact on the rows it keeps.
The references below loop over the same evaluation set, in full (every
sign pattern, where the ops evaluate one of each +- pair) and as the exact
values of its float rows (``exact_tuples``), one point at a time,
through the scalar ``span_norm`` / ``apply_map`` / ``fixed_point_residual``,
keeping the first point that attains each extreme.
"""

import itertools
from fractions import Fraction

import pytest

from seqcert.arithmetic import RATIONAL, exact_value
from seqcert.blocks import (
    ConvexBlockSpec,
    build_convex_blocks,
    lemma79_conclusion_check,
    shift_equivalence_constants,
    summing_equivalence_check,
    wuc_constant,
)
from seqcert.cli import RunContext, run_check
from seqcert.config import load_config
from seqcert.fpmaps import (
    AffineMapSpec,
    apply_map,
    bilipschitz_estimate,
    fixed_point_residual,
    make_alpha_schedule,
    start_length,
)
from seqcert.perturbation import perturb_toward_next, perturbation_sum, psp_equivalence_check
from seqcert.sampling import SamplingBudget, coefficient_rows, pair_rows, rational_simplex
from seqcert.sequences import (
    basis_constant,
    builtin_sequence,
    domination_constant,
    equivalence_constants,
    wide_s_certificate,
)
from seqcert.spaces import norm, summing_basis_norm

BUDGET = SamplingBudget(count=30, seed=5)
KAPPA_BUDGET = SamplingBudget(count=1024, seed=0)


def lin_blocks():
    base = builtin_sequence("lin_ell1", 7)
    spec = ConvexBlockSpec(
        blocks=((1, 2), (3, 4), (5, 6), (7,)),
        weights=((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)), (1,)),
    )
    return build_convex_blocks(base, spec)


FAMILIES = {
    "lin_ell1": lambda: builtin_sequence("lin_ell1", 5),
    "summing_c0": lambda: builtin_sequence("summing_c0", 5),
    "blocks": lin_blocks,
}


def exact_tuples(rows):
    """Float rows of an evaluation set as tuples of their exact values."""
    return [tuple(map(exact_value, row)) for row in rows.tolist()]


def eval_rows(m):
    """Every nonzero sign pattern in product order, then the random rows."""
    rows = coefficient_rows(m, BUDGET, exact=True)
    signs = [p for p in itertools.product((-1, 0, 1), repeat=m) if any(p)]
    return signs + exact_tuples(rows.coeffs[rows.mirrored :])


class Extremes:
    """First-occurrence min and max of values fed one at a time."""

    def __init__(self):
        self.lo = self.hi = None
        self.arg_lo = self.arg_hi = ()

    def add(self, value, arg):
        if self.lo is None or value < self.lo:
            self.lo, self.arg_lo = value, arg
        if self.hi is None or value > self.hi:
            self.hi, self.arg_hi = value, arg


def ratio_extremes(rows, num, den):
    ext, rejected = Extremes(), 0
    for a in rows:
        d = den(a)
        if d == 0:
            rejected += 1
            continue
        ext.add(Fraction(num(a)) / d, a)
    return ext, rejected


def shifted(s, a, p):
    """||sum_i a_i x_{i+p}|| through the scalar span norm."""
    return s.span_norm((0,) * p + tuple(a))


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


def test_domination_and_equivalence_match_reference(family):
    other = builtin_sequence("summing_c0", len(family))
    ext, rejected = ratio_extremes(eval_rows(len(family)), other.span_norm, family.span_norm)
    dom = domination_constant(family, other, BUDGET, RATIONAL)
    assert dom.constants == {"L_hat": ext.hi, "rejected_denominators": rejected}
    assert dom.witness == {"argmax": ext.arg_hi}
    eq = equivalence_constants(family, other, BUDGET, RATIONAL)
    assert eq.constants == {
        "r_min": ext.lo,
        "r_max": ext.hi,
        "L_smallest": max(ext.hi, 1 / ext.lo),
        "rejected_denominators": rejected,
    }
    assert eq.witness == {"argmin": ext.arg_lo, "argmax": ext.arg_hi}


def test_wide_s_and_wuc_match_reference(family):
    rows = eval_rows(len(family))
    ext, _ = ratio_extremes(rows, family.span_norm, summing_basis_norm)
    cert = wide_s_certificate(family, BUDGET, RATIONAL)
    assert cert.constants == {"d_hat": ext.lo}
    assert cert.witness == {"argmin": ext.arg_lo}
    assert cert.holds == (ext.lo > 0)
    ext, _ = ratio_extremes(rows, family.span_norm, lambda a: max(abs(x) for x in a))
    cert = wuc_constant(family, BUDGET, RATIONAL)
    assert cert.constants == {"c2_hat": ext.hi}
    assert cert.witness == {"argmax": ext.arg_hi}


@pytest.mark.parametrize("c1,c2", [(Fraction(1, 4), Fraction(3)), (Fraction(1), Fraction(1, 2))])
def test_summing_equivalence_matches_reference(family, c1, c2):
    lower, upper, skipped = Extremes(), Extremes(), 0
    for a in eval_rows(len(family)):
        sn = summing_basis_norm(a)
        if sn == 0:
            skipped += 1
            continue
        v = family.span_norm(a)
        lower.add(v - c1 * sn, a)
        upper.add(2 * c2 * sn - v, a)
    cert = summing_equivalence_check(family, c1, c2, BUDGET, RATIONAL)
    assert cert.constants == {
        "c1": c1,
        "c2": c2,
        "margin_lower": lower.lo,
        "margin_upper": upper.lo,
        "skipped_zero_norm": skipped,
    }
    assert cert.witness == {"worst_lower": lower.arg_lo, "worst_upper": upper.arg_lo}
    assert cert.holds == (lower.lo >= 0 and upper.lo >= 0)


@pytest.mark.parametrize("p_max", [1, 2])
def test_shift_equivalence_matches_reference(family, p_max):
    m = len(family) - p_max
    rows = eval_rows(m)
    expected = {"p_max": p_max}
    l_hat, wit, rejected = None, (), 0
    for p in range(1, p_max + 1):
        ext, rej = ratio_extremes(rows, lambda a: shifted(family, a, p), family.span_norm)
        rejected += rej
        expected[f"r_min_p{p}"], expected[f"r_max_p{p}"] = ext.lo, ext.hi
        cand = max(ext.hi, 1 / ext.lo)
        if l_hat is None or cand > l_hat:
            l_hat, wit = cand, (ext.arg_hi if cand == ext.hi else ext.arg_lo)
    expected.update(L_hat=l_hat, rejected_denominators=rejected)
    cert = shift_equivalence_constants(family, p_max, BUDGET, RATIONAL)
    assert cert.constants == expected
    assert cert.witness == {"extreme": wit}


@pytest.mark.parametrize("lower_c", [None, Fraction(1, 4), "printed", "symmetric"])
def test_lemma79_matches_reference(family, lower_c):
    L, p_max = Fraction(2), 2
    # the printed L/2 and the symmetric 1/(2L), by name
    used = {None: Fraction(1), "printed": Fraction(1), "symmetric": Fraction(1, 4)}.get(lower_c, lower_c)
    printed, symmetric = Extremes(), Extremes()
    lower, upper = Extremes(), Extremes()
    for p in range(1, p_max + 1):
        for a in eval_rows(len(family) - p_max):
            base, sh = family.span_norm(a), shifted(family, a, p)
            printed.add(sh - L / 2 * base, a)
            symmetric.add(sh - 1 / (2 * L) * base, a)
            lower.add(sh - used * base, a)
            upper.add(L * base - sh, a)
    cert = lemma79_conclusion_check(family, L, lower_c, p_max, BUDGET, RATIONAL)
    assert cert.constants == {
        "L": L,
        "lower_c": used,
        "margin_lower": lower.lo,
        "margin_lower_printed": printed.lo,
        "margin_lower_symmetric": symmetric.lo,
        "margin_upper": upper.lo,
        "p_max": p_max,
    }
    assert cert.witness == {"worst_lower": lower.arg_lo, "worst_upper": upper.arg_lo}


def test_psp_matches_reference(family):
    m = len(family)
    kappa = basis_constant(family, KAPPA_BUDGET)
    sch = make_alpha_schedule(Fraction(1, 2), family.a, family.b, kappa[1], m - 1, arithmetic=RATIONAL)
    z = perturb_toward_next(family, sch)
    theta = perturbation_sum(family, z, sch.kappa)
    lower, upper, ratios = Extremes(), Extremes(), Extremes()
    rows = eval_rows(len(z))
    for t in rows:
        nx = family.span_norm(t)
        zt = [sum(c * zn[j] for c, zn in zip(t, z)) for j in range(z.shape[1])]
        nz = norm(zt, family.ambient)
        lower.add(nz - (1 - theta) * nx, t)
        upper.add((1 + theta) * nx - nz, t)
        if nx != 0:
            ratios.add(Fraction(nz) / nx, t)
    cert = psp_equivalence_check(family, z, theta, kappa, BUDGET, RATIONAL)
    assert cert.constants == {
        "theta": theta,
        "margin_lower": lower.lo,
        "margin_upper": upper.lo,
        "ratio_min": ratios.lo,
        "ratio_max": ratios.hi,
        "evaluated": len(rows),
    }
    assert cert.witness == {"worst_lower": lower.arg_lo, "worst_upper": upper.arg_lo}


def rational_maps(s):
    kappa = basis_constant(s, KAPPA_BUDGET)
    sch = make_alpha_schedule(Fraction(1, 2), s.a, s.b, kappa[1], len(s), arithmetic=RATIONAL)
    return {
        "diag_shift": AffineMapSpec.diag_shift(sch),
        "right_shift": AffineMapSpec.right_shift(),
        "bilateral": AffineMapSpec.bilateral(),
    }


@pytest.mark.parametrize("map_name", ["diag_shift", "right_shift", "bilateral"])
def test_bilipschitz_matches_reference(family, map_name):
    """The reference scans each p on its own: its min and max over all
    pairs; the extremes over p then go to the first p attaining them."""
    spec, p_max = rational_maps(family)[map_name], 2
    n = start_length(spec.variant, spec.policy, len(family), p_max)
    rows = exact_tuples(pair_rows(n, BUDGET, include_equal=False, exact=True).coeffs)
    pairs = [(row[:n], row[n:]) for row in rows]
    pairs = [(x, y) for x, y in pairs if family.span_norm([a - b for a, b in zip(x, y)]) != 0]
    per_p = {p: Extremes() for p in range(1, p_max + 1)}
    for p, extremes in per_p.items():
        for x, y in pairs:
            fx, fy = x, y
            for _ in range(p):
                fx, fy = apply_map(spec, fx).t, apply_map(spec, fy).t
            base = family.span_norm([a - b for a, b in zip(x, y)])
            r = Fraction(family.span_norm([a - b for a, b in zip(fx, fy)])) / base
            extremes.add(r, (x, y))
    p1 = min(per_p, key=lambda p: per_p[p].lo)
    p2 = max(per_p, key=lambda p: per_p[p].hi)
    c1, c2 = per_p[p1].lo, per_p[p2].hi
    cert = bilipschitz_estimate(spec, family, BUDGET, p_max, RATIONAL)
    per_p_constants = {}
    for p, e in per_p.items():
        per_p_constants[f"c1_p{p}"], per_p_constants[f"c2_p{p}"] = e.lo, e.hi
    assert cert.constants == {
        "c1_hat": c1,
        "c2_hat": c2,
        "L_hat": c2 / c1,
        "p_max": p_max,
        "p_at_min": p1,
        "p_at_max": p2,
        **per_p_constants,
    }
    w1, w2 = per_p[p1].arg_lo, per_p[p2].arg_hi
    assert cert.witness == {
        "pair_min_x": w1[0],
        "pair_min_y": w1[1],
        "pair_max_x": w2[0],
        "pair_max_y": w2[1],
    }


@pytest.mark.parametrize("variant", ["diag_shift\ntheta = 1/2", "right_shift", "geometric"])
def test_residual_matches_reference(tmp_path, variant):
    path = tmp_path / "res.cfg"
    path.write_text(
        f"[sequence]\nbuiltin = lin_ell1\nn = 5\n\n[map f]\nvariant = {variant}\n\n"
        "[check res]\nkind = fixed_point_residual\nmap = f\nsamples = 30\n\n"
        "[run]\nseed = 4\narithmetic = rational\n"
    )
    ctx = RunContext(load_config(str(path)))
    check = ctx.cfg.checks[0]
    spec = ctx.map_specs[check.params["map"]]
    n = start_length(spec.variant, spec.policy, len(ctx.seq), 1)
    points = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    points += rational_simplex(n, SamplingBudget(count=30, seed=11))
    ext = Extremes()
    for t in points:
        ext.add(fixed_point_residual(spec, t, ctx.seq), t)
    cert = run_check(ctx, check, 11)
    assert cert.constants == {"min_residual": ext.lo, "evaluated": len(points)}
    assert cert.witness == {"argmin": ext.arg_lo}


@pytest.mark.parametrize("name", ["c0_canonical", "ell1_canonical"])
def test_rational_ratio_constants_are_fractions(name):
    """int / int would give a float; exact ratios divide as Fractions."""
    s = builtin_sequence(name, 4)
    other = builtin_sequence("ell1_canonical" if name == "c0_canonical" else "c0_canonical", 4)
    budget = SamplingBudget(count=20, seed=1)
    certs = [
        domination_constant(s, other, budget, RATIONAL),
        equivalence_constants(s, other, budget, RATIONAL),
        wide_s_certificate(s, budget, RATIONAL),
        wuc_constant(s, budget, RATIONAL),
    ]
    for cert in certs:
        for key, value in cert.constants.items():
            if key == "rejected_denominators":
                continue
            assert isinstance(value, Fraction), (cert.kind, key, value)
            text = cert.to_json_dict()["constants"][key]
            assert isinstance(text, str) and Fraction(text) == value, (cert.kind, key, text)
