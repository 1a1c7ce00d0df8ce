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
from typing import Tuple, Union

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce
from .certificates import Certificate
from .errors import BlockSpecError, ParameterError
from .fpmaps import ConvexCoefficients
from .sampling import SamplingBudget
from .sequences import (
    BasicSequence,
    _eval_rows,
    _nonnegative,
    _scan,
    _witness,
    row_norms,
    summing_norms,
)
from .spaces import NormTag


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
            try:
                ConvexCoefficients(wts)
            except ParameterError as exc:
                raise BlockSpecError(f"block weights: {exc}") from exc

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
    rows = s.matrix(exact=True)  # each entry as given, so exact entries stay exact
    out = np.zeros((len(spec), s.ambient_length), dtype=object)
    for acc, blk, wts in zip(out, spec.blocks, spec.weights):
        for i, w in zip(blk, wts):
            if w:
                acc += w * rows[i - 1]
    return BasicSequence(out, s.ambient)


def wuc_constant(
    ys: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """c2_hat = max ||sum t y|| / max|t_i|, a certified lower bound for the
    optimal sup-coefficient domination constant."""
    rows = _eval_rows(len(ys), budget, arithmetic, ys)
    norms = [row_norms(NormTag.sup()), ys.span_norms()]
    [(_, c2_hat, _, row, _)] = _scan(rows.coeffs, norms, arithmetic, ratios=[(1, 0)], mirrored=rows.mirrored)
    return Certificate(
        kind="wuc_constant",
        constants={"c2_hat": c2_hat},
        holds=True,
        witness={"argmax": _witness(row)},
        mode=rows.mode,
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
    if not (c1 > 0 and c2 > 0):
        raise ParameterError("c1 and c2 must be positive")
    rows = _eval_rows(len(bs), budget, arithmetic, bs)
    c1s, c2s = coerce(c1, arithmetic), coerce(c2, arithmetic)
    kept = rows.select(rows.coeffs.any(axis=1))  # ||a||_s = max_k |sum_{i>=k} a_i| > 0 iff a != 0
    skipped = rows.size - kept.size
    norms = [bs.span_norms(), summing_norms()]  # ||sum a X|| and ||a||_s
    margins = [((1, 0), (-c1s, 1)), ((2 * c2s, 1), (-1, 0))]
    (lo_m, row_lo), (hi_m, row_hi) = _scan(kept.coeffs, norms, arithmetic, margins, mirrored=kept.mirrored)
    holds = _nonnegative(lo_m, arithmetic) and _nonnegative(hi_m, arithmetic)
    return Certificate(
        kind="summing_equivalence",
        constants={
            "c1": c1s,
            "c2": c2s,
            "margin_lower": lo_m,
            "margin_upper": hi_m,
            "skipped_zero_norm": skipped,
        },
        holds=bool(holds),
        witness={"worst_lower": _witness(row_lo), "worst_upper": _witness(row_hi)},
        mode=rows.mode,
        arithmetic=arithmetic,
    )


def shift_width(m: int, p_max: int) -> int:
    """The coefficients of m vectors that every shift p = 1..p_max can move,
    m - p_max; ParameterError unless p_max lies in 1..m - 1."""
    if not 1 <= p_max < m:
        raise ParameterError(f"p_max must lie in 1..{m - 1}, got {p_max}")
    return m - p_max


def shift_equivalence_constants(
    s: BasicSequence,
    p_max: int,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Per-shift ratio ranges of ||sum a x_{i+p}|| / ||sum a x_i|| and the
    smallest uniform constant L_hat = max_p max(r_max(p), 1/r_min(p))."""
    constants = {"p_max": p_max}
    l_hat = None
    wit = ()
    rejected = 0
    rows = _eval_rows(shift_width(len(s), p_max), budget, arithmetic, s)
    norms = [s.span_norms(p) for p in range(p_max + 1)]  # norm p is shifted by p
    ratios = [(p, 0) for p in range(1, p_max + 1)]
    scans = _scan(rows.coeffs, norms, arithmetic, ratios=ratios, mirrored=rows.mirrored)
    for p, (r_min, r_max, row_min, row_max, rej) in enumerate(scans, start=1):
        rejected += rej
        constants[f"r_min_p{p}"] = r_min
        constants[f"r_max_p{p}"] = r_max
        cand = max(r_max, 1 / r_min if r_min > 0 else np.inf)
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
        mode=rows.mode,
        arithmetic=arithmetic,
        flags=(f"dependence-evidence(rejected={rejected})",) if rejected else (),
    )


def lemma79_conclusion_check(
    s: BasicSequence,
    L: Real,
    lower_c: Union[None, str, Real] = None,
    p_max: int = 1,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Verify lower_c*||sum a x|| <= ||sum a x_{i+p}|| <= L*||sum a x|| for
    p = 1..p_max.

    Two conventions exist for the lower constant, L/2 (the printed form)
    and 1/(2L) (the symmetric-equivalence form); margins for both are
    always recorded, and ``holds`` refers to the one lower_c selects:
    ``"printed"`` or ``None`` (L/2), ``"symmetric"`` (1/(2L)) or a scalar.
    """
    if not L > 0:
        raise ParameterError("L must be positive")
    exact = arithmetic == RATIONAL
    printed = Fraction(L) / 2 if exact else float(L) / 2.0
    symmetric = 1 / (2 * Fraction(L)) if exact else 1.0 / (2.0 * float(L))
    used = {None: printed, "printed": printed, "symmetric": symmetric}.get(lower_c, lower_c)
    convention = (
        "printed(L/2)" if used == printed else "symmetric(1/(2L))" if used == symmetric else "custom"
    )
    rows = _eval_rows(shift_width(len(s), p_max), budget, arithmetic, s)
    c_printed, c_symmetric, c_used, c_L = (coerce(c, arithmetic) for c in (printed, symmetric, used, L))
    # norm p is ||sum a x_{i+p}||; each shift has the printed, symmetric and
    # used lower margins, then the upper one
    margins = []
    for p in range(1, p_max + 1):
        margins += [((1, p), (-c, 0)) for c in (c_printed, c_symmetric, c_used)]
        margins.append(((c_L, 0), (-1, p)))
    norms = [s.span_norms(p) for p in range(p_max + 1)]
    found = _scan(rows.coeffs, norms, arithmetic, margins, mirrored=rows.mirrored)
    # the least of each margin over the shifts; the first shift wins ties
    (lo_pr, _), (lo_sy, _), (lo_used, row_lo), (hi_m, row_hi) = (
        min(found[k::4], key=lambda extreme: extreme[0]) for k in range(4)
    )
    holds = _nonnegative(lo_used, arithmetic) and _nonnegative(hi_m, arithmetic)
    return Certificate(
        kind="lemma79_conclusion",
        constants={
            "L": c_L,
            "lower_c": c_used,
            "margin_lower": lo_used,
            "margin_lower_printed": lo_pr,
            "margin_lower_symmetric": lo_sy,
            "margin_upper": hi_m,
            "p_max": p_max,
        },
        holds=bool(holds),
        witness={"worst_lower": _witness(row_lo), "worst_upper": _witness(row_hi)},
        mode=rows.mode,
        arithmetic=arithmetic,
        flags=(f"lower-convention={convention}",),
    )
