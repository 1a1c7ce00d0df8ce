"""Convex block sequences and shift-equivalence certificates.

A convex block spec selects finite index sets F_1 < F_2 < ... (every index
of F_n below every index of F_{n+1}) and nonnegative per-block weights
summing to 1; the blocked family is X_n = sum_{i in F_n} w^n_i x_i.  The
ops here estimate the WUC constant c2, verify the two-sided summing-basis
sandwich c1 * ||a||_s <= ||sum a X|| <= 2 c2 * ||a||_s, measure uniform
shift equivalence over shifts p = 1..p_max, and check the budgeted shift
conclusion with a configurable lower constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, validate_arithmetic
from .certificates import Certificate
from .errors import BlockSpecError, ParameterError
from .fpmaps import ConvexCoefficients
from .sampling import SamplingBudget
from .sequences import BasicSequence, _eval_rows, _ratio_scan, _scalar, _witness
from .spaces import norm_batch, summing_basis_norm_batch

INEQ_TOL = 1e-9


@dataclass(frozen=True)
class ConvexBlockSpec:
    """Index blocks and weights for a convex block sequence."""

    blocks: Tuple[Tuple[int, ...], ...]
    weights: Tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))
        if len(self.blocks) != len(self.weights):
            raise BlockSpecError("one weight list per block required")
        if not self.blocks:
            raise BlockSpecError("at least one block required")
        prev_max = 0
        for blk, wts in zip(self.blocks, self.weights):
            if not blk:
                raise BlockSpecError("empty block")
            if len(blk) != len(wts):
                raise BlockSpecError("weight count must match block size")
            if any(i < 1 for i in blk):
                raise BlockSpecError("block indices are 1-based and positive")
            if len(set(blk)) != len(blk):
                raise BlockSpecError("repeated index inside a block")
            if min(blk) <= prev_max:
                raise BlockSpecError("blocks must be strictly increasing")
            prev_max = max(blk)
            if any(w < 0 for w in wts):
                raise BlockSpecError("weights must be nonnegative")
            exact = all(not isinstance(w, float) for w in wts)
            total = sum(wts, 0 if exact else 0.0)
            if exact:
                if total != 1:
                    raise BlockSpecError(f"block weights must sum to 1, got {total}")
            elif abs(total - 1.0) > 1e-12:
                raise BlockSpecError(f"block weights must sum to 1, got {total}")

    @property
    def max_index(self) -> int:
        return max(self.blocks[-1])

    def __len__(self):
        return len(self.blocks)


def build_convex_blocks(s: BasicSequence, spec: ConvexBlockSpec) -> BasicSequence:
    """The blocked family X_n = sum_{i in F_n} w^n_i x_i with inherited
    ambient norm; seminormalization constants are recomputed."""
    if spec.max_index > len(s):
        raise BlockSpecError(
            f"block index {spec.max_index} exceeds sequence length {len(s)}"
        )
    vecs = []
    for blk, wts in zip(spec.blocks, spec.weights):
        acc = [0] * s.ambient_length
        for i, w in zip(blk, wts):
            if w:
                for j, x in enumerate(s.vectors[i - 1].entries):
                    acc[j] = acc[j] + w * x
        vecs.append(tuple(acc))
    return BasicSequence(vecs, s.ambient)


def push_convex(spec: ConvexBlockSpec, t, n_base: Optional[int] = None) -> ConvexCoefficients:
    """Push simplex coefficients over the blocks down to base coefficients;
    nonnegativity and total mass are preserved (exactly on exact inputs)."""
    tc = ConvexCoefficients.of(t)
    if len(tc) != len(spec):
        raise BlockSpecError(f"need {len(spec)} coefficients, got {len(tc)}")
    n = n_base if n_base is not None else spec.max_index
    if n < spec.max_index:
        raise BlockSpecError("base length shorter than the largest block index")
    exact = all(not isinstance(x, float) for x in tc.t)
    acc = [0 if exact else 0.0] * n
    for tn, blk, wts in zip(tc.t, spec.blocks, spec.weights):
        for i, w in zip(blk, wts):
            acc[i - 1] = acc[i - 1] + tn * w
    return ConvexCoefficients(tuple(acc))


def wuc_constant(
    ys: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """c2_hat = max ||sum t y|| / max|t_i|, a certified lower bound for the
    optimal sup-coefficient domination constant."""
    validate_arithmetic(arithmetic)
    m = len(ys)
    coeffs = _eval_rows(m, budget, arithmetic, ys)
    num = ys.span_norm_batch(coeffs)
    den = np.max(np.abs(coeffs), axis=1)
    _, c2_hat, _, row, _ = _ratio_scan(num, den, coeffs)
    return Certificate(
        kind="wuc_constant",
        constants={"c2_hat": c2_hat},
        holds=True,
        witness={"argmax": _witness(row)},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
    )


def summing_equivalence_check(
    bs: BasicSequence,
    c1: Real,
    c2: Real,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify c1*||a||_s <= ||sum a X|| <= 2*c2*||a||_s on the evaluated
    set, where ||a||_s is the summing-basis norm of the coefficients."""
    validate_arithmetic(arithmetic)
    if not (c1 > 0 and c2 > 0):
        raise ParameterError("c1 and c2 must be positive")
    m = len(bs)
    coeffs = _eval_rows(m, budget, arithmetic, bs)
    c1s, c2s = coerce(c1, arithmetic), coerce(c2, arithmetic)
    tol = 0 if arithmetic == RATIONAL else INEQ_TOL
    sn = summing_basis_norm_batch(coeffs)
    keep = sn > 0
    skipped = int(len(sn) - np.count_nonzero(keep))
    coeffs, sn = coeffs[keep], sn[keep]
    v = bs.span_norm_batch(coeffs)
    lo = v - c1s * sn
    hi = 2 * c2s * sn - v
    i_lo, i_hi = int(np.argmin(lo)), int(np.argmin(hi))
    lo_m, hi_m = _scalar(lo[i_lo]), _scalar(hi[i_hi])
    holds = lo_m >= -tol and hi_m >= -tol
    return Certificate(
        kind="summing_equivalence",
        constants={
            "c1": c1,
            "c2": c2,
            "margin_lower": lo_m,
            "margin_upper": hi_m,
            "skipped_zero_norm": skipped,
        },
        holds=bool(holds),
        witness={"worst_lower": _witness(coeffs[i_lo]), "worst_upper": _witness(coeffs[i_hi])},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
    )


def _shift_norms(s: BasicSequence, coeffs: np.ndarray, p: int) -> np.ndarray:
    """||sum_i a_i x_{i+p}|| for every row a; exact on object rows."""
    m = coeffs.shape[1]
    return norm_batch(coeffs @ s.matrix(coeffs.dtype == object)[p : p + m], s.ambient)


def shift_equivalence_constants(
    s: BasicSequence,
    p_max: int,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Per-shift ratio ranges of ||sum a x_{i+p}|| / ||sum a x_i|| and the
    smallest uniform constant L_hat = max_p max(r_max(p), 1/r_min(p))."""
    validate_arithmetic(arithmetic)
    if not 1 <= p_max < len(s):
        raise ParameterError(f"p_max must lie in 1..{len(s) - 1}, got {p_max}")
    m = len(s) - p_max
    constants = {"p_max": p_max}
    l_hat = None
    wit = ()
    rejected = 0
    coeffs = _eval_rows(m, budget, arithmetic, s)
    den = s.span_norm_batch(coeffs)
    for p in range(1, p_max + 1):
        num = _shift_norms(s, coeffs, p)
        r_min, r_max, row_min, row_max, rej = _ratio_scan(num, den, coeffs)
        rejected += rej
        constants[f"r_min_p{p}"] = r_min
        constants[f"r_max_p{p}"] = r_max
        cand = max(r_max, 1 / r_min)
        if l_hat is None or cand > l_hat:
            l_hat = cand
            wit = _witness(row_max if cand == r_max else row_min)
    constants["L_hat"] = l_hat
    constants["rejected_denominators"] = rejected
    return Certificate(
        kind="shift_equivalence",
        constants=constants,
        holds=True,
        witness={"extreme": wit},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
        flags=(f"dependence-evidence(rejected={rejected})",) if rejected else (),
    )


def perturbation_budget_79(A: Real, kappa: Real, L: Real) -> Real:
    """min(A / (4 K (1+L)), A L / (4 K (2+L))): the summed-gap allowance
    under which the shifted-family conclusion below is to be exercised."""
    if not (A > 0 and L > 0):
        raise ParameterError("A and L must be positive")
    if kappa < 1:
        raise ParameterError("kappa must be >= 1")
    if all(not isinstance(v, float) for v in (A, kappa, L)):
        A, kappa, L = Fraction(A), Fraction(kappa), Fraction(L)
    return min(A / (4 * kappa * (1 + L)), A * L / (4 * kappa * (2 + L)))


def lemma79_conclusion_check(
    s: BasicSequence,
    L: Real,
    lower_c: Optional[Real] = None,
    p_max: int = 1,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify lower_c*||sum a x|| <= ||sum a x_{i+p}|| <= L*||sum a x|| for
    p = 1..p_max.

    Two conventions exist for the lower constant, L/2 (the printed form)
    and 1/(2L) (the symmetric-equivalence form); margins for both are
    always recorded, and ``holds`` refers to the one selected by lower_c
    (default: L/2).
    """
    validate_arithmetic(arithmetic)
    if not L > 0:
        raise ParameterError("L must be positive")
    if not 1 <= p_max < len(s):
        raise ParameterError(f"p_max must lie in 1..{len(s) - 1}, got {p_max}")
    exact = arithmetic == RATIONAL
    printed = Fraction(L) / 2 if exact else float(L) / 2.0
    symmetric = 1 / (2 * Fraction(L)) if exact else 1.0 / (2.0 * float(L))
    used = lower_c if lower_c is not None else printed
    convention = (
        "printed(L/2)"
        if lower_c is None or lower_c == printed
        else ("symmetric(1/(2L))" if lower_c == symmetric else "custom")
    )
    m = len(s) - p_max
    lo_pr = lo_sy = lo_used = hi_m = None
    wit_lo = wit_hi = ()
    coeffs = _eval_rows(m, budget, arithmetic, s)
    c_printed, c_symmetric, c_used, c_L = (coerce(c, arithmetic) for c in (printed, symmetric, used, L))
    tol = 0 if exact else INEQ_TOL
    base = s.span_norm_batch(coeffs)
    for p in range(1, p_max + 1):
        sh = _shift_norms(s, coeffs, p)
        c_pr = sh - c_printed * base
        c_sy = sh - c_symmetric * base
        c_us = sh - c_used * base
        hi = c_L * base - sh
        i_us, i_hi = int(np.argmin(c_us)), int(np.argmin(hi))
        if lo_pr is None or c_pr.min() < lo_pr:
            lo_pr = _scalar(c_pr.min())
        if lo_sy is None or c_sy.min() < lo_sy:
            lo_sy = _scalar(c_sy.min())
        if lo_used is None or c_us[i_us] < lo_used:
            lo_used, wit_lo = _scalar(c_us[i_us]), _witness(coeffs[i_us])
        if hi_m is None or hi[i_hi] < hi_m:
            hi_m, wit_hi = _scalar(hi[i_hi]), _witness(coeffs[i_hi])
    holds = lo_used >= -tol and hi_m >= -tol
    return Certificate(
        kind="lemma79_conclusion",
        constants={
            "L": L,
            "lower_c": used,
            "margin_lower": lo_used,
            "margin_lower_printed": lo_pr,
            "margin_lower_symmetric": lo_sy,
            "margin_upper": hi_m,
            "p_max": p_max,
        },
        holds=bool(holds),
        witness={"worst_lower": wit_lo, "worst_upper": wit_hi},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
        flags=(f"lower-convention={convention}",),
    )
