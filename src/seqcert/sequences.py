"""Schauder-basis machinery over a concrete finite family of vectors.

A ``BasicSequence`` is an ordered, linearly independent, seminormalized
family x_1..x_M of coordinate vectors evaluated through one ambient norm.
The ops below estimate the classical constants of such a family at the
available truncation:

* head projections P_n and the basis-constant interval for sup_n ||P_n||,
* domination and two-sided equivalence constants between two families,
* the wide-(s) constant (domination of the summing family),
* the head/tail gap bound ||x - y|| >= a / K.

Constants obtained by maximizing or minimizing over the evaluated
coefficient set are certified one-sided bounds; suprema over the infinite
coefficient space are only ever refined heuristically and carry a flag.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, validate_arithmetic
from .certificates import Certificate
from .errors import DependenceError, ParameterError
from .sampling import (
    SamplingBudget,
    coefficient_samples,
    gaussian_sphere,
    pm_one_patterns,
    rational_vectors,
    sign_patterns,
    simplex_uniform,
)
from .spaces import (
    CoordinateVector,
    NormTag,
    norm,
    norm_batch,
    summing_basis_norm_batch,
)

DENOM_GUARD = 1e-12
DEFAULT_KAPPA_BUDGET = SamplingBudget(count=1024, seed=0)


def _exact_rank(rows: List[Tuple[Real, ...]]) -> int:
    """Rank over the rationals by fraction-free-ish Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / pv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


class BasicSequence:
    """Ordered family of coordinate vectors with an ambient norm tag."""

    def __init__(self, vectors: Sequence, ambient: NormTag):
        vecs = tuple(CoordinateVector.of(v) for v in vectors)
        if not vecs:
            raise ParameterError("a basic sequence needs at least one vector")
        n = len(vecs[0])
        if any(len(v) != n for v in vecs):
            raise ParameterError("all vectors must share the ambient length")
        if len(vecs) > n:
            raise DependenceError(
                f"{len(vecs)} vectors cannot be independent in ambient length {n}"
            )
        self.vectors = vecs
        self.ambient = ambient
        self.exact = all(
            not isinstance(x, float) for v in vecs for x in v.entries
        )
        self._matrices: Dict[bool, np.ndarray] = {}
        self._kappa: Optional[Tuple[float, float]] = None
        self._check_independent()
        norms = [norm(v, ambient) for v in vecs]
        self.a = min(norms)
        self.b = max(norms)
        if not self.a > 0:
            raise DependenceError("sequence is not seminormalized: some ||x_n|| = 0")

    def _check_independent(self):
        if self.exact:
            rank = _exact_rank([v.entries for v in self.vectors])
        else:
            rank = int(np.linalg.matrix_rank(self.matrix()))
        if rank < len(self.vectors):
            raise DependenceError("vectors are linearly dependent")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def ambient_length(self) -> int:
        return len(self.vectors[0])

    def matrix(self, exact: bool = False) -> np.ndarray:
        """The vectors as rows: floats, or with ``exact`` an object array of
        their int/Fraction entries."""
        if exact not in self._matrices:
            self._matrices[exact] = np.array(
                [v.entries if exact else v.as_floats() for v in self.vectors],
                dtype=object if exact else float,
            )
        return self._matrices[exact]

    def span_vector(self, coeffs) -> CoordinateVector:
        """Materialize sum a_i x_i; exact on exact inputs."""
        cs = CoordinateVector.of(coeffs).entries
        if len(cs) > len(self.vectors):
            raise ParameterError("more coefficients than vectors")
        acc = [0] * self.ambient_length
        for c, v in zip(cs, self.vectors):
            if c:
                for j, x in enumerate(v.entries):
                    acc[j] = acc[j] + c * x
        return CoordinateVector(tuple(acc))

    def span_norm(self, coeffs) -> Real:
        return norm(self.span_vector(coeffs), self.ambient)

    def span_norm_batch(self, coeff_mat: np.ndarray) -> np.ndarray:
        """||sum_i c_i x_i|| for every row c; exact on object rows."""
        m = coeff_mat.shape[1]
        return norm_batch(coeff_mat @ self.matrix(coeff_mat.dtype == object)[:m], self.ambient)

    # kappa caching -------------------------------------------------------

    @property
    def kappa(self) -> Tuple[Real, Real]:
        """Basis-constant interval; exact sequences expose exact endpoints
        (float-to-Fraction conversion loses nothing) so downstream rational
        arithmetic stays exact."""
        if self._kappa is None:
            self._kappa = basis_constant(self, DEFAULT_KAPPA_BUDGET)
        lo, up = self._kappa
        if self.exact:
            return (Fraction(lo), Fraction(up))
        return (lo, up)

    @property
    def kappa_lower(self) -> Real:
        return self.kappa[0]

    @property
    def kappa_upper(self) -> Real:
        return self.kappa[1]


class SpanElement:
    """Coefficients interpreted against a basic sequence (length <= M)."""

    def __init__(self, coeffs):
        self.coeffs = CoordinateVector.of(coeffs)

    def __len__(self):
        return len(self.coeffs)


def head_projection(s: BasicSequence, e: SpanElement, n: int) -> SpanElement:
    """P_n: keep coefficients 1..n, zero the rest."""
    if not 0 <= n <= len(e):
        raise IndexError(f"projection index {n} out of range 0..{len(e)}")
    cs = e.coeffs.entries
    return SpanElement(cs[:n] + (0,) * (len(cs) - n))


def tail_remainder(s: BasicSequence, e: SpanElement, n: int) -> SpanElement:
    """R_n = identity - P_n."""
    if not 0 <= n <= len(e):
        raise IndexError(f"projection index {n} out of range 0..{len(e)}")
    cs = e.coeffs.entries
    return SpanElement((0,) * n + cs[n:])


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("ell1_canonical", "c0_canonical", "summing_c0", "james_summing", "lin_ell1")


def builtin_sequence(name: str, n: int, p: Real = 2) -> BasicSequence:
    """Construct one of the named coordinate families at truncation n."""
    if n < 1:
        raise ParameterError("truncation must be >= 1")
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if name == "ell1_canonical":
        return BasicSequence(unit, NormTag.ell_p(1))
    if name == "c0_canonical":
        return BasicSequence(unit, NormTag.sup())
    if name == "summing_c0":
        steps = [tuple(1 if j <= i else 0 for j in range(n)) for i in range(n)]
        return BasicSequence(steps, NormTag.sup())
    if name == "james_summing":
        return BasicSequence(unit, NormTag.james(p))
    if name == "lin_ell1":
        return BasicSequence(unit, NormTag.lin())
    raise ParameterError(f"unknown builtin sequence {name!r}; choose from {BUILTIN_NAMES}")


# ---------------------------------------------------------------------------
# Evaluation sets
# ---------------------------------------------------------------------------


def _rational_eval_set(m: int, budget: SamplingBudget) -> np.ndarray:
    """Exact evaluation rows: every {-1,0,1} pattern up to the exhaustive
    limit, then ``rational_vectors``, as an object array of ints."""
    vecs: List[Tuple[Real, ...]] = []
    if m <= budget.exhaustive_limit:
        vecs.extend(
            p for p in itertools.product((-1, 0, 1), repeat=m) if any(p)
        )
    if budget.count:
        vecs.extend(rational_vectors(m, budget))
    if not vecs:
        raise ParameterError("empty sampling budget")
    return np.array(vecs, dtype=object)


def _eval_rows(m: int, budget: SamplingBudget, arithmetic: str, *seqs: BasicSequence) -> np.ndarray:
    """Coefficient rows of one scan: exact ``_rational_eval_set`` rows in
    rational mode (which needs piecewise-linear norms), float samples otherwise."""
    if arithmetic == RATIONAL:
        _require_exact_tags(*seqs)
        return _rational_eval_set(m, budget)
    return coefficient_samples(m, budget)


_FRACTION = np.frompyfunc(Fraction, 1, 1)


def _guard(values: np.ndarray):
    """What a denominator must exceed: 0 on exact rows, DENOM_GUARD on float rows."""
    return 0 if values.dtype == object else DENOM_GUARD



def _scalar(x) -> Real:
    """One entry of a scan as a plain scalar: float from float rows, exact otherwise."""
    return float(x) if isinstance(x, np.floating) else x


def _ratio_scan(
    num: np.ndarray, den: np.ndarray, coeffs: np.ndarray
) -> Tuple[Real, Real, np.ndarray, np.ndarray, int]:
    """(min, max, argmin row, argmax row, rejected) of num/den over the rows
    whose denominator passes ``_guard``; ties go to the first row.  Exact
    entries divide as Fractions, since int / int would give a float."""
    ok = den > _guard(den)
    rejected = int(np.size(den) - np.count_nonzero(ok))
    if not np.any(ok):
        raise DependenceError("all denominators vanished on the evaluated set")
    ratios = _FRACTION(num[ok]) / den[ok] if num.dtype == object else num[ok] / den[ok]
    rows = coeffs[ok]
    i_min = int(np.argmin(ratios))
    i_max = int(np.argmax(ratios))
    return (
        _scalar(ratios[i_min]),
        _scalar(ratios[i_max]),
        rows[i_min],
        rows[i_max],
        rejected,
    )


def _witness(row: np.ndarray) -> Tuple[Real, ...]:
    """A coefficient row as a tuple: exact rows keep their entries."""
    if row.dtype == object:
        return tuple(row)
    return tuple(float(x) for x in row)


# ---------------------------------------------------------------------------
# Certificate ops
# ---------------------------------------------------------------------------


PM_ONE_LIMIT = 12


def basis_constant(s: BasicSequence, budget: SamplingBudget = DEFAULT_KAPPA_BUDGET):
    """Interval (lower, upper) around sup_n ||P_n|| at this truncation.

    ``lower`` is certified: the max ratio ||P_n e|| / ||e|| over every
    evaluated e (all +-1 patterns up to M = 12, all {-1,0,1} patterns up to
    the budget's exhaustive limit) and every n.  ``upper`` comes from
    local-search refinement around the best witness and is NOT certified;
    treat it as an estimate of the same finite-truncation value.
    """
    m = len(s)
    parts = []
    if m <= PM_ONE_LIMIT:
        parts.append(pm_one_patterns(m))
    if m <= budget.exhaustive_limit:
        parts.append(sign_patterns(m))
    if budget.count > 0:
        rng = np.random.default_rng(budget.seed)
        parts.append(gaussian_sphere(rng, budget.count - budget.count // 2, m))
        parts.append(simplex_uniform(rng, budget.count // 2, m))
    if not parts:
        raise ParameterError("empty sampling budget for basis_constant")
    coeffs = np.concatenate(parts, axis=0)
    base = s.span_norm_batch(coeffs)
    ok = base > DENOM_GUARD
    if not np.all(ok):
        if not np.any(ok):
            raise DependenceError("all span norms vanished while estimating kappa")
        coeffs, base = coeffs[ok], base[ok]

    def best_ratio(mat: np.ndarray, norms: np.ndarray) -> Tuple[float, int, int]:
        best, best_n, best_i = 1.0, m, 0
        for n in range(1, m + 1):
            heads = np.zeros_like(mat)
            heads[:, :n] = mat[:, :n]
            ratios = s.span_norm_batch(heads) / norms
            i = int(np.argmax(ratios))
            if ratios[i] > best:
                best, best_n, best_i = float(ratios[i]), n, i
        return best, best_n, best_i

    lower, _, idx = best_ratio(coeffs, base)
    lower = max(lower, 1.0)

    # heuristic refinement: random perturbations of the best witness
    rng = np.random.default_rng(budget.seed + 1)
    upper = lower
    seedvec = coeffs[idx]
    for sigma in (0.5, 0.2, 0.05, 0.01):
        trial = seedvec + sigma * rng.standard_normal((64, m))
        tnorms = s.span_norm_batch(trial)
        keep = tnorms > DENOM_GUARD
        if not np.any(keep):
            continue
        cand, _, j = best_ratio(trial[keep], tnorms[keep])
        if cand > upper:
            upper = cand
            seedvec = trial[keep][j]
    return (lower, max(upper, lower))


def domination_constant(
    xs: BasicSequence,
    ys: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """L_hat = max ||sum a y|| / ||sum a x||: a certified lower bound on the
    best constant with which (x_n) dominates (y_n)."""
    validate_arithmetic(arithmetic)
    if len(xs) != len(ys):
        raise ParameterError("sequences must have the same number of vectors")
    m = len(xs)
    flags: List[str] = []
    coeffs = _eval_rows(m, budget, arithmetic, xs, ys)
    nx = xs.span_norm_batch(coeffs)
    ny = ys.span_norm_batch(coeffs)
    _, l_hat, _, wit_row, rejected = _ratio_scan(ny, nx, coeffs)
    if rejected:
        flags.append(f"dependence-evidence(rejected={rejected})")
    constants = {"L_hat": l_hat, "rejected_denominators": rejected}
    return Certificate(
        kind="domination",
        constants=constants,
        holds=True,
        witness={"argmax": _witness(wit_row)},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
        flags=tuple(flags),
    )


def equivalence_constants(
    xs: BasicSequence,
    ys: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Two-sided ratio scan; smallest admissible L is max(r_max, 1/r_min)."""
    validate_arithmetic(arithmetic)
    if len(xs) != len(ys):
        raise ParameterError("sequences must have the same number of vectors")
    m = len(xs)
    coeffs = _eval_rows(m, budget, arithmetic, xs, ys)
    nx = xs.span_norm_batch(coeffs)
    ny = ys.span_norm_batch(coeffs)
    r_min, r_max, row_min, row_max, rejected = _ratio_scan(ny, nx, coeffs)
    smallest = max(r_max, 1 / r_min)
    flags = (f"dependence-evidence(rejected={rejected})",) if rejected else ()
    return Certificate(
        kind="equivalence",
        constants={
            "r_min": r_min,
            "r_max": r_max,
            "L_smallest": smallest,
            "rejected_denominators": rejected,
        },
        holds=True,
        witness={"argmin": _witness(row_min), "argmax": _witness(row_max)},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
        flags=flags,
    )


def wide_s_certificate(
    s: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """d_hat = min ||sum a x|| / summing-basis-norm(a) over evaluated a.

    d_hat is a certified upper bound on the best domination constant of the
    summing family; the certificate holds iff d_hat stayed positive.
    """
    validate_arithmetic(arithmetic)
    m = len(s)
    coeffs = _eval_rows(m, budget, arithmetic, s)
    sn = summing_basis_norm_batch(coeffs)
    nx = s.span_norm_batch(coeffs)
    d_hat, _, row, _, _ = _ratio_scan(nx, sn, coeffs)
    return Certificate(
        kind="wide_s",
        constants={"d_hat": d_hat},
        holds=bool(d_hat > _guard(sn)),
        witness={"argmin": _witness(row)},
        mode=budget.mode_label(m),
        arithmetic=arithmetic,
    )


def gap_bound_check(
    s: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    tol: float = 1e-9,
) -> Certificate:
    """Sampled check of ||x - y|| >= a / kappa_upper for heads x with
    ||x|| >= a and tails y (float mode)."""
    m = len(s)
    kappa_up = float(s.kappa_upper)
    a = float(s.a)
    bound = a / kappa_up
    if m == 1:
        return Certificate(
            kind="gap_bound",
            constants={"bound": bound, "samples": 0},
            holds=True,
            witness={},
            mode="vacuous",
            arithmetic=FLOAT,
            flags=("no-tail-at-M=1",),
        )
    rng = np.random.default_rng(budget.seed)
    per_split = max(1, budget.count // (m - 1))
    min_gap = None
    wit_head: Tuple[Real, ...] = ()
    wit_tail: Tuple[Real, ...] = ()
    for n in range(1, m):
        heads = np.zeros((per_split, m))
        heads[:, :n] = rng.standard_normal((per_split, n))
        hnorm = s.span_norm_batch(heads)
        keep = hnorm > DENOM_GUARD
        heads, hnorm = heads[keep], hnorm[keep]
        if heads.size == 0:
            continue
        scale = a * (1.0 + rng.random(len(heads))) / hnorm
        heads = heads * scale[:, None]
        tails = np.zeros((len(heads), m))
        tails[:, n:] = rng.standard_normal((len(heads), m - n))
        tails *= rng.random((len(heads), 1)) * 2.0
        gaps = s.span_norm_batch(heads - tails)
        i = int(np.argmin(gaps))
        if min_gap is None or gaps[i] < min_gap:
            min_gap = float(gaps[i])
            wit_head = _witness(heads[i])
            wit_tail = _witness(tails[i])
    holds = min_gap is not None and min_gap >= bound - tol
    cert_flags = () if _kappa_is_certified(s) else ("kappa-upper-heuristic",)
    return Certificate(
        kind="gap_bound",
        constants={"bound": bound, "min_gap": min_gap, "kappa_upper": kappa_up},
        holds=bool(holds),
        witness={"head": wit_head, "tail": wit_tail},
        mode=f"sampled(count={budget.count},seed={budget.seed})",
        arithmetic=FLOAT,
        flags=cert_flags,
    )


def _kappa_is_certified(s: BasicSequence) -> bool:
    """The interval is a point only when refinement found nothing above the
    certified lower bound; polyhedral exhaustive cases land here."""
    lo, up = s.kappa
    return float(up) - float(lo) <= 1e-12


def _require_exact_tags(*seqs: BasicSequence):
    for s in seqs:
        if not s.ambient.is_polyhedral():
            raise ParameterError(
                f"rational mode requires a piecewise-linear norm, got {s.ambient.label()}"
            )
