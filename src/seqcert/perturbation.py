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

each link separately.  The conservative end of the basis-constant interval
is used throughout; when that end is itself heuristic the resulting
certificates are flagged, not silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, validate_arithmetic
from .certificates import Certificate
from .errors import ParameterError
from .fpmaps import AlphaSchedule
from .sampling import SamplingBudget
from .sequences import (
    BasicSequence,
    _eval_rows,
    _kappa_is_certified,
    _ratio_scan,
    _require_exact_tags,
    _scalar,
    _witness,
)
from .spaces import CoordinateVector, norm, norm_batch

INEQ_TOL = 1e-9


@dataclass(frozen=True)
class PerturbedSequence:
    """A base family together with its coordinatewise perturbation."""

    base: BasicSequence
    z_vectors: Tuple[CoordinateVector, ...]
    theta: Real

    def __len__(self):
        return len(self.z_vectors)


def perturb_toward_next(s: BasicSequence, alpha: AlphaSchedule) -> PerturbedSequence:
    """z_n = (1 - alpha_n) x_n + alpha_n x_{n+1}, a nontrivial convex
    combination of consecutive vectors; needs alpha no longer than M - 1."""
    m = len(s)
    if len(alpha) > m - 1:
        raise ParameterError(
            f"schedule of length {len(alpha)} needs at least {len(alpha) + 1} vectors"
        )
    zs = []
    for n, al in enumerate(alpha.alphas):
        xn = s.vectors[n].entries
        xn1 = s.vectors[n + 1].entries
        zs.append(
            CoordinateVector(tuple((1 - al) * a + al * b for a, b in zip(xn, xn1)))
        )
    theta = 2 * s.kappa_upper * _relative_gap_sum(s, tuple(zs))
    return PerturbedSequence(base=s, z_vectors=tuple(zs), theta=theta)


def _relative_gap_sum(s: BasicSequence, z_vectors) -> Real:
    total: Real = 0
    for n, zv in enumerate(z_vectors):
        xn = s.vectors[n]
        diff = CoordinateVector(tuple(a - b for a, b in zip(xn.entries, zv.entries)))
        total = total + norm(diff, s.ambient) / norm(xn, s.ambient)
    return total


def psp_theta(s: BasicSequence, z: PerturbedSequence) -> Real:
    """2 * kappa_upper * sum ||x_n - z_n|| / ||x_n||; valid policy needs < 1."""
    return 2 * s.kappa_upper * _relative_gap_sum(s, z.z_vectors)


def psp_equivalence_check(
    s: BasicSequence,
    z: PerturbedSequence,
    theta: Real,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify (1-theta)||sum t x|| <= ||sum t z|| <= (1+theta)||sum t x||
    on the evaluated coefficient set; records the worst margin per side."""
    validate_arithmetic(arithmetic)
    if not theta < 1:
        raise ParameterError(f"perturbation sum must be < 1, got {theta}")
    m = len(z)
    flags = [] if _kappa_is_certified(s) else ["kappa-upper-heuristic"]
    if m == 0:
        return Certificate(
            kind="psp_equivalence",
            constants={"theta": theta, "evaluated": 0},
            holds=True,
            witness={},
            mode="vacuous",
            arithmetic=arithmetic,
            flags=tuple(flags),
        )
    coeffs = _eval_rows(m, budget, arithmetic, s)
    exact = coeffs.dtype == object
    theta = coerce(theta, arithmetic)
    nx = s.span_norm_batch(coeffs)
    zmat = np.array([zv.entries if exact else zv.as_floats() for zv in z.z_vectors], dtype=coeffs.dtype)
    nz = norm_batch(coeffs @ zmat, s.ambient)
    lo = nz - (1 - theta) * nx
    hi = (1 + theta) * nx - nz
    i_lo = int(np.argmin(lo))
    i_hi = int(np.argmin(hi))
    lo_margin = _scalar(lo[i_lo])
    hi_margin = _scalar(hi[i_hi])
    r_min, r_max, _, _, _ = _ratio_scan(nz, nx, coeffs)
    tol = 0 if exact else INEQ_TOL
    holds = lo_margin >= -tol and hi_margin >= -tol
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
        witness={"worst_lower": _witness(coeffs[i_lo]), "worst_upper": _witness(coeffs[i_hi])},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
        flags=tuple(flags),
    )


def claim2_chain(
    s: BasicSequence,
    alpha: AlphaSchedule,
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify each link of the schedule-budget chain and record all four
    quantities: perturbation sum, 2b-bounded sum, schedule budget, theta."""
    validate_arithmetic(arithmetic)
    kap = coerce(s.kappa_upper, arithmetic)
    if arithmetic == RATIONAL:
        _require_exact_tags(s)
    z = perturb_toward_next(s, alpha)
    q1 = 2 * kap * _relative_gap_sum(s, z.z_vectors)
    sum_alpha = sum(alpha.alphas, 0)
    q2 = 2 * kap * (2 * s.b / s.a) * sum_alpha
    q3 = (4 * s.b * kap / s.a) * sum_alpha
    theta = alpha.theta
    tol = 0 if arithmetic == RATIONAL else 1e-12
    links = (
        q1 <= q2 + tol,
        abs(q2 - q3) <= tol,
        q3 <= theta + tol,
        theta < 1,
    )
    flags = [] if _kappa_is_certified(s) else ["kappa-upper-heuristic"]
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
        flags=tuple(flags),
    )
