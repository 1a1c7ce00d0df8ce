"""Small-perturbation pipeline.

The perturbed family z_n = (1 - alpha_n) x_n + alpha_n x_{n+1} of a basic
sequence (x_n) is the diagonal shift's first pushed family f(I) X
(``fpmaps.pushed_families``).  With basis-constant estimate K, the
controlling quantity is

    theta = 2 K * sum_n ||x_n - z_n|| / ||x_n||   (``perturbation_sum``).

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

from fractions import Fraction

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, validate_arithmetic
from .certificates import Certificate
from .errors import ParameterError
from .fpmaps import AffineMapSpec, AlphaSchedule, apply_map_batch
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
from .spaces import norm_batch, scalar


def perturb_toward_next(s: BasicSequence, alpha: AlphaSchedule) -> np.ndarray:
    """The perturbed family z_1..z_k, k = len(alpha), as the k x N matrix
    f(I) X of the diagonal shift f of ``alpha``: exact on an exact family
    with an exact schedule.  Needs alpha no longer than M - 1."""
    k = len(alpha)
    if k > len(s) - 1:
        raise ParameterError(f"schedule of length {k} needs at least {k + 1} vectors")
    exact = s.exact and not any(isinstance(al, float) for al in alpha.alphas)
    if k == 0:
        return s.matrix(exact)[:0]
    eye = np.eye(k, dtype=object if exact else float)
    return s._span(apply_map_batch(AffineMapSpec.diag_shift(alpha), eye))


def perturbation_sum(s: BasicSequence, z: np.ndarray, kappa: Real) -> Real:
    """2 kappa sum_n ||x_n - z_n|| / ||x_n|| over the rows z_n of z, in n order."""
    gaps = norm_batch(s.matrix(z.dtype == object)[: len(z)] - z, s.ambient)
    return 2 * kappa * sum((scalar(g) / x for g, x in zip(gaps, s.vector_norms)), 0)


def psp_equivalence_check(
    s: BasicSequence,
    z: np.ndarray,
    theta: Real,
    kappa: Kappa,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify (1-theta)||sum t x|| <= ||sum t z|| <= (1+theta)||sum t x||
    on the evaluated coefficient set (z as rows); records the worst margin
    per side.  ``kappa``, the basis-constant interval behind theta, only
    sets the flags."""
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
            arithmetic=validate_arithmetic(arithmetic),
            flags=kappa.flags,
        )
    rows = _eval_rows(m, budget, arithmetic, s)
    theta = coerce(theta, arithmetic)
    # norm 0 is ||sum t x||, norm 1 is ||sum t z||
    norms = [s.span_norms(), row_norms(s.ambient, z)]
    margins = [((1, 1), (theta - 1, 0)), ((1 + theta, 0), (-1, 1))]
    (lo_margin, row_lo), (hi_margin, row_hi), (r_min, r_max, _, _, _) = _scan(
        rows, norms, arithmetic, margins, ratios=[(1, 0)]
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
            "evaluated": rows.size,
        },
        holds=bool(holds),
        witness={"worst_lower": _witness(row_lo), "worst_upper": _witness(row_hi)},
        mode=rows.mode,
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
    q1 = perturbation_sum(s, perturb_toward_next(s, alpha), kap)
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
