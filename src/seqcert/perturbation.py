"""Small-perturbation pipeline.

Given a basic sequence (x_n) with basis-constant estimate K and a perturbed
family (z_n), the controlling quantity is

    theta = 2 K * sum_n ||x_n - z_n|| / ||x_n||.

When theta < 1 the perturbed family is basic and (1 +- theta)-equivalent to
the original; the check below verifies the two-sided inequality

    (1 - theta) ||sum t x|| <= ||sum t z|| <= (1 + theta) ||sum t x||

pointwise on the evaluated coefficient set.  ``claim2_chain`` verifies the
bound chain used to budget the diagonal-shift schedule:

    2K sum ||x_n - z_n||/||x_n||  <=  2K sum (2 b alpha_n)/a
                                   =  (4 b K / a) sum alpha_n
                                  <=  theta  <  1,

each link separately.  The upper end of the basis-constant interval is
used throughout, and a certificate computed from a kappa whose source is
not proved carries ``Kappa.flags`` instead of being trusted silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, validate_arithmetic
from .certificates import Certificate
from .errors import ParameterError
from .fpmaps import AlphaSchedule
from .sampling import SamplingBudget
from .sequences import (
    BasicSequence,
    Kappa,
    _eval_rows,
    _nonnegative,
    _require_exact_tags,
    _scan,
    _witness,
    row_norms,
)
from .spaces import CoordinateVector, norm_batch, row_array, scalar


@dataclass(frozen=True)
class PerturbedSequence:
    """The coordinatewise perturbation of a base family."""

    z_vectors: Tuple[CoordinateVector, ...]
    theta: Real

    def __len__(self):
        return len(self.z_vectors)


def perturb_toward_next(s: BasicSequence, alpha: AlphaSchedule) -> PerturbedSequence:
    """z_n = (1 - alpha_n) x_n + alpha_n x_{n+1}, a nontrivial convex
    combination of consecutive vectors; needs alpha no longer than M - 1.
    theta uses the basis constant the schedule was budgeted with."""
    k = len(alpha)
    if k > len(s) - 1:
        raise ParameterError(f"schedule of length {k} needs at least {k + 1} vectors")
    rows = s.matrix(exact=True)  # each entry as given, so exact entries stay exact
    al = np.array(alpha.alphas, dtype=object)[:, None]
    zs = tuple(CoordinateVector(tuple(z)) for z in (1 - al) * rows[:k] + al * rows[1 : k + 1])
    theta = 2 * alpha.kappa * _relative_gap_sum(s, zs)
    return PerturbedSequence(z_vectors=zs, theta=theta)


def _relative_gap_sum(s: BasicSequence, z_vectors) -> Real:
    """sum_n ||x_n - z_n|| / ||x_n||, added up in n order."""
    if not z_vectors:
        return 0
    zmat = row_array(z_vectors)
    gaps = norm_batch(s.matrix(zmat.dtype == object)[: len(zmat)] - zmat, s.ambient)
    return sum((scalar(g) / x for g, x in zip(gaps, s.vector_norms)), 0)


def psp_equivalence_check(
    s: BasicSequence,
    z: PerturbedSequence,
    theta: Real,
    kappa: Kappa,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify (1-theta)||sum t x|| <= ||sum t z|| <= (1+theta)||sum t x||
    on the evaluated coefficient set; records the worst margin per side.
    ``kappa``, the basis-constant interval behind theta, only sets the flags."""
    validate_arithmetic(arithmetic)
    if not theta < 1:
        raise ParameterError(f"perturbation sum must be < 1, got {theta}")
    m = len(z)
    if m == 0:
        return Certificate(
            kind="psp_equivalence",
            constants={"theta": theta, "evaluated": 0},
            holds=True,
            witness={},
            mode="vacuous",
            arithmetic=arithmetic,
            flags=kappa.flags,
        )
    coeffs = _eval_rows(m, budget, arithmetic, s)
    theta = coerce(theta, arithmetic)
    # norm 0 is ||sum t x||, norm 1 is ||sum t z||
    norms = [s.span_norms(), row_norms(s.ambient, row_array(z.z_vectors))]
    margins = [((1, 1), (theta - 1, 0)), ((1 + theta, 0), (-1, 1))]
    (lo_margin, row_lo), (hi_margin, row_hi), (r_min, r_max, _, _, _) = _scan(
        coeffs, norms, arithmetic, margins, ratios=[(1, 0)]
    )
    holds = _nonnegative(lo_margin, arithmetic) and _nonnegative(hi_margin, arithmetic)
    return Certificate(
        kind="psp_equivalence",
        constants={
            "theta": theta,
            "margin_lower": lo_margin,
            "margin_upper": hi_margin,
            "ratio_min": r_min,
            "ratio_max": r_max,
            "evaluated": len(coeffs),
        },
        holds=bool(holds),
        witness={"worst_lower": _witness(row_lo), "worst_upper": _witness(row_hi)},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
        flags=kappa.flags,
    )


def claim2_chain(
    s: BasicSequence,
    alpha: AlphaSchedule,
    kappa: Kappa,
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify each link of the schedule-budget chain, with the upper end of
    the basis-constant interval ``kappa``, and record all four quantities:
    perturbation sum, 2b-bounded sum, schedule budget, theta."""
    validate_arithmetic(arithmetic)
    kap = coerce(kappa.upper, arithmetic)
    a, b = s.a, s.b
    if arithmetic == RATIONAL:
        _require_exact_tags(s)
        a, b = Fraction(a), Fraction(b)  # int norms would divide to a float
    z = perturb_toward_next(s, alpha)
    q1 = 2 * kap * _relative_gap_sum(s, z.z_vectors)
    sum_alpha = sum(alpha.alphas, 0)
    q2 = 2 * kap * (2 * b / a) * sum_alpha
    q3 = (4 * b * kap / a) * sum_alpha
    theta = alpha.theta
    tol = 0 if arithmetic == RATIONAL else 1e-12
    links = (
        q1 <= q2 + tol,
        abs(q2 - q3) <= tol,
        q3 <= theta + tol,
        theta < 1,
    )
    return Certificate(
        kind="claim2_chain",
        constants={
            "perturbation_sum": q1,
            "bounded_sum": q2,
            "schedule_budget": q3,
            "theta": theta,
            "kappa_upper": kap,
        },
        holds=bool(all(links)),
        witness={},
        mode="analytic",
        arithmetic=arithmetic,
        flags=kappa.flags,
    )
