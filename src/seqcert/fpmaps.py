"""Affine fixed-point-free maps on K = conv{x_n} in barycentric coordinates.

Coefficients t live on the probability simplex; every map sends the simplex
into itself and is affine in t.  Four variants:

* ``diag_shift``:  t'_1 = (1-a_1) t_1, t'_n = (1-a_n) t_n + a_{n-1} t_{n-1},
                   built from a positive schedule (a_n) whose weighted sum
                   (4 b K / a) * sum a_n stays below a target theta in (0,1).
* ``right_shift``: t'_{n+1} = t_n.
* ``bilateral``:   the permutation sending coefficient 2 to slot 1, odd
                   slots two up, even slots two down; at an even truncation
                   N the single escaping odd slot N-1 closes onto the vacant
                   slot N, making one N-cycle.  Odd N raises.
* ``geometric``:   t'_m = sum_{j+n=m} 2^-j t_n, mass beyond the truncation
                   folded onto the last coordinate.

Truncation policy ``grow`` appends one coordinate per application so no
mass leaks; ``fold_tail`` keeps the length fixed and folds the overflow
onto the last coordinate.  ``geometric`` has infinite support per
application and therefore requires ``fold_tail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, validate_arithmetic
from .certificates import Certificate
from .errors import ParameterError, TruncationError
from .sampling import SamplingBudget, rational_simplex, simplex_uniform
from .sequences import BasicSequence, _ratio_scan, _require_exact_tags, _witness
from .spaces import CoordinateVector, as_rows, norm

DIAG_SHIFT = "diag_shift"
RIGHT_SHIFT = "right_shift"
BILATERAL = "bilateral"
GEOMETRIC = "geometric"

GROW = "grow"
FOLD_TAIL = "fold_tail"

MASS_TOL = 1e-12


@dataclass(frozen=True)
class ConvexCoefficients:
    """Nonnegative coefficients with total mass 1 (a point of the simplex)."""

    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(self.t))
        exact = all(not isinstance(x, float) for x in self.t)
        total = sum(self.t, 0 if exact else 0.0)
        if any(x < 0 for x in self.t):
            raise ParameterError("convex coefficients must be nonnegative")
        if exact:
            if total != 1:
                raise ParameterError(f"exact coefficients must sum to 1, got {total}")
        elif abs(total - 1.0) > MASS_TOL:
            raise ParameterError(f"coefficients must sum to 1 within {MASS_TOL}, got {total}")

    @staticmethod
    def of(entries) -> "ConvexCoefficients":
        if isinstance(entries, ConvexCoefficients):
            return entries
        return ConvexCoefficients(tuple(entries))

    @staticmethod
    def vertex(i: int, n: int, exact: bool = True) -> "ConvexCoefficients":
        """Delta at 1-based index i."""
        if not 1 <= i <= n:
            raise ParameterError(f"vertex index {i} out of 1..{n}")
        one: Real = 1 if exact else 1.0
        zero: Real = 0 if exact else 0.0
        return ConvexCoefficients(tuple(one if j == i - 1 else zero for j in range(n)))

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class AlphaSchedule:
    """Positive perturbation weights with their budget constraint.

    Invariant: (4 * b * kappa / a) * sum(alphas) <= theta, each alpha in (0,1).
    """

    alphas: tuple
    theta: Real
    a: Real
    b: Real
    kappa: Real

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if not 0 < self.theta < 1:
            raise ParameterError(f"theta out of (0,1): {self.theta}")
        if not (0 < self.a <= self.b):
            raise ParameterError("need 0 < a <= b")
        if self.kappa < 1:
            raise ParameterError("basis constant must be >= 1")
        if any(not 0 < al < 1 for al in self.alphas):
            raise ParameterError("every alpha must lie in (0,1)")
        lhs = (4 * self.b * self.kappa / self.a) * sum(self.alphas, 0)
        slack = 0 if all(not isinstance(v, float) for v in (*self.alphas, self.theta, self.a, self.b, self.kappa)) else 1e-12
        if lhs > self.theta + slack:
            raise ParameterError(
                f"schedule violates (4bK/a)*sum(alpha) <= theta: {lhs} > {self.theta}"
            )

    def __len__(self):
        return len(self.alphas)


def make_alpha_schedule(
    theta: Real, a: Real, b: Real, kappa: Real, n: int, arithmetic: str = FLOAT
) -> AlphaSchedule:
    """Geometric schedule alpha_k = (theta*a / (4*b*kappa)) * 2^-k, k = 1..n.

    sum 2^-k < 1, so the budget constraint holds strictly for every n.
    """
    validate_arithmetic(arithmetic)
    if not 0 < theta < 1:
        raise ParameterError(f"theta out of (0,1): {theta}")
    if arithmetic == RATIONAL:
        theta, a, b, kappa = (coerce(v, RATIONAL) for v in (theta, a, b, kappa))
        base = theta * a / (4 * b * kappa)
        alphas = tuple(base * Fraction(1, 2**k) for k in range(1, n + 1))
    else:
        theta, a, b, kappa = (float(v) for v in (theta, a, b, kappa))
        base = theta * a / (4.0 * b * kappa)
        alphas = tuple(base * 2.0**-k for k in range(1, n + 1))
    return AlphaSchedule(alphas=alphas, theta=theta, a=a, b=b, kappa=kappa)


@dataclass(frozen=True)
class AffineMapSpec:
    """One of the four simplex self-maps plus its truncation policy."""

    variant: str
    schedule: Optional[AlphaSchedule] = None
    policy: str = GROW

    def __post_init__(self):
        if self.variant not in (DIAG_SHIFT, RIGHT_SHIFT, BILATERAL, GEOMETRIC):
            raise ParameterError(f"unknown map variant {self.variant!r}")
        if self.policy not in (GROW, FOLD_TAIL):
            raise ParameterError(f"unknown truncation policy {self.policy!r}")
        if self.variant == DIAG_SHIFT and self.schedule is None:
            raise ParameterError("diag_shift requires an alpha schedule")
        if self.variant != DIAG_SHIFT and self.schedule is not None:
            raise ParameterError(f"{self.variant} takes no alpha schedule")
        if self.variant == GEOMETRIC and self.policy != FOLD_TAIL:
            raise ParameterError("geometric has infinite support; use fold_tail")

    @staticmethod
    def diag_shift(schedule: AlphaSchedule, policy: str = GROW) -> "AffineMapSpec":
        return AffineMapSpec(DIAG_SHIFT, schedule, policy)

    @staticmethod
    def right_shift(policy: str = GROW) -> "AffineMapSpec":
        return AffineMapSpec(RIGHT_SHIFT, None, policy)

    @staticmethod
    def bilateral() -> "AffineMapSpec":
        return AffineMapSpec(BILATERAL, None, GROW)

    @staticmethod
    def geometric() -> "AffineMapSpec":
        return AffineMapSpec(GEOMETRIC, None, FOLD_TAIL)

    def grows(self) -> bool:
        return self.variant in (DIAG_SHIFT, RIGHT_SHIFT) and self.policy == GROW


def bilateral_targets(n: int) -> List[int]:
    """1-based target slot for each source slot; n must be even."""
    if n % 2 != 0:
        raise TruncationError(f"bilateral map needs an even truncation, got {n}")
    targets = []
    for s in range(1, n + 1):
        if s == 2:
            targets.append(1)
        elif s % 2 == 1:
            targets.append(s + 2 if s + 2 <= n else n)
        else:
            targets.append(s - 2)
    return targets


def apply_map(spec: AffineMapSpec, t) -> ConvexCoefficients:
    """One application; exact on exact inputs, mass preserved."""
    tc = ConvexCoefficients.of(t)
    ts = tc.t
    n = len(ts)
    if n == 0:
        raise ParameterError("cannot apply a map to the empty coefficient vector")
    exact = all(not isinstance(x, float) for x in ts)
    zero: Real = 0 if exact else 0.0
    if spec.variant == RIGHT_SHIFT:
        out = [zero] + list(ts)
    elif spec.variant == DIAG_SHIFT:
        al = spec.schedule.alphas
        if len(al) < n:
            raise ParameterError(
                f"alpha schedule has {len(al)} entries; need at least {n}"
            )
        out = [zero] * (n + 1)
        out[0] = (1 - al[0]) * ts[0]
        for k in range(1, n):
            out[k] = (1 - al[k]) * ts[k] + al[k - 1] * ts[k - 1]
        out[n] = al[n - 1] * ts[n - 1]
    elif spec.variant == BILATERAL:
        targets = bilateral_targets(n)
        out = [zero] * n
        for s, tgt in enumerate(targets, start=1):
            out[tgt - 1] = ts[s - 1]
        return ConvexCoefficients(tuple(out))
    else:  # geometric, fold_tail
        out = [zero] * n
        half: Real = Fraction(1, 2) if exact else 0.5
        w = half
        for j in range(1, n):
            for k in range(n - j):
                if k + j < n - 1:
                    out[k + j] = out[k + j] + w * ts[k]
            w = w * half
        total = sum(ts, zero)
        out[n - 1] = total - sum(out[: n - 1], zero)
        return ConvexCoefficients(tuple(out))
    if spec.policy == FOLD_TAIL and len(out) > n:
        out[n - 1] = out[n - 1] + out[n]
        out = out[:n]
    return ConvexCoefficients(tuple(out))


def iterate(spec: AffineMapSpec, t, p: int) -> ConvexCoefficients:
    """p-fold composition; p = 0 is the identity."""
    if p < 0:
        raise ParameterError("iteration count must be >= 0")
    cur = ConvexCoefficients.of(t)
    for _ in range(p):
        cur = apply_map(spec, cur)
    return cur


def apply_map_batch(spec: AffineMapSpec, mat: np.ndarray) -> np.ndarray:
    """Batch version of ``apply_map`` over rows; exact on object rows."""
    mat = as_rows(mat)
    rows, n = mat.shape
    if spec.variant == RIGHT_SHIFT:
        out = np.concatenate([np.zeros((rows, 1), dtype=mat.dtype), mat], axis=1)
    elif spec.variant == DIAG_SHIFT:
        al = np.array(spec.schedule.alphas[:n], dtype=mat.dtype)
        if len(al) < n:
            raise ParameterError(
                f"alpha schedule has {len(spec.schedule.alphas)} entries; need at least {n}"
            )
        out = np.zeros((rows, n + 1), dtype=mat.dtype)
        out[:, 0] = (1 - al[0]) * mat[:, 0]
        if n > 1:
            out[:, 1:n] = (1 - al[1:n]) * mat[:, 1:n] + al[0 : n - 1] * mat[:, 0 : n - 1]
        out[:, n] = al[n - 1] * mat[:, n - 1]
    elif spec.variant == BILATERAL:
        targets = bilateral_targets(n)
        out = np.zeros_like(mat)
        for s, tgt in enumerate(targets, start=1):
            out[:, tgt - 1] = mat[:, s - 1]
        return out
    else:  # geometric
        out = np.zeros_like(mat)
        half = Fraction(1, 2) if mat.dtype == object else 0.5
        w = half
        for j in range(1, n):
            upto = n - 1 - j
            if upto > 0:
                out[:, j : n - 1] += w * mat[:, 0 : upto]
            w *= half
        out[:, n - 1] = mat.sum(axis=1) - out[:, : n - 1].sum(axis=1)
        return out
    if spec.policy == FOLD_TAIL and out.shape[1] > n:
        out[:, n - 1] += out[:, n]
        out = out[:, :n]
    return out


# ---------------------------------------------------------------------------
# Estimation ops
# ---------------------------------------------------------------------------


def start_length(spec: AffineMapSpec, s: BasicSequence, steps: int) -> int:
    """Largest coefficient length that stays evaluable after ``steps``
    applications against the vectors of s."""
    m = len(s)
    if spec.grows():
        n = m - steps
    else:
        n = m
    if spec.variant == BILATERAL and n % 2 != 0:
        n -= 1
    if n < 1:
        raise ParameterError(
            f"sequence of length {m} too short for {steps} applications"
        )
    return n


def _pair_matrices(n: int, budget: SamplingBudget, include_equal: bool, arithmetic: str = FLOAT):
    """All vertex pairs plus simplex pairs, as two (P, n) arrays.

    Float pairs draw ``budget.count`` uniform points per side; rational pairs
    split ``rational_simplex`` points into halves and are object arrays.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if include_equal or i != j]
    exact = arithmetic == RATIONAL
    eye = np.eye(n, dtype=object if exact else float)
    X = [eye[[i for i, _ in pairs]]]
    Y = [eye[[j for _, j in pairs]]]
    if budget.count > 0 and exact:
        pts = np.array(rational_simplex(n, budget), dtype=object)
        half = len(pts) // 2
        X.append(pts[:half])
        Y.append(pts[half : 2 * half])
    elif budget.count > 0:
        rng = np.random.default_rng(budget.seed)
        X.append(simplex_uniform(rng, budget.count, n))
        Y.append(simplex_uniform(rng, budget.count, n))
    return np.concatenate(X, axis=0), np.concatenate(Y, axis=0)


def _pair_mode(n_vertex_pairs: int, budget: SamplingBudget) -> str:
    label = f"vertex-pairs({n_vertex_pairs})"
    if budget.count > 0:
        label += f"+sampled(count={budget.count},seed={budget.seed})"
    return label


def bilipschitz_estimate(
    spec: AffineMapSpec,
    s: BasicSequence,
    pair_budget: SamplingBudget = SamplingBudget(),
    p_max: int = 1,
    arithmetic: str = FLOAT,
) -> Certificate:
    """Empirical two-sided iterate constants.

    c1_hat = min and c2_hat = max over sampled pairs (t, t') and p = 1..p_max
    of ||f^p t - f^p t'|| / ||t - t'|| evaluated through the ambient norm of
    s; L_hat = c2_hat / c1_hat.  The iterate count attaining each extreme is
    recorded so the witness pair re-evaluates to the reported constant.
    """
    validate_arithmetic(arithmetic)
    if p_max < 1:
        raise ParameterError("p_max must be >= 1")
    n = start_length(spec, s, p_max)
    if arithmetic == RATIONAL:
        _require_exact_tags(s)
    X, Y = _pair_matrices(n, pair_budget, include_equal=False, arithmetic=arithmetic)
    base = s.span_norm_batch(X - Y)
    pairs = np.arange(len(X))
    c1 = c2 = None
    p1 = p2 = 1
    FX, FY = X, Y
    for p in range(1, p_max + 1):
        FX = apply_map_batch(spec, FX)
        FY = apply_map_batch(spec, FY)
        r_min, r_max, i_min, i_max, _ = _ratio_scan(s.span_norm_batch(FX - FY), base, pairs)
        if c1 is None or r_min < c1:
            c1, p1, i1 = r_min, p, i_min
        if c2 is None or r_max > c2:
            c2, p2, i2 = r_max, p, i_max
    return Certificate(
        kind="bilipschitz",
        constants={
            "c1_hat": c1,
            "c2_hat": c2,
            "L_hat": c2 / c1,
            "p_max": p_max,
            "p_at_min": p1,
            "p_at_max": p2,
        },
        holds=True,
        witness={
            "pair_min_x": _witness(X[i1]),
            "pair_min_y": _witness(Y[i1]),
            "pair_max_x": _witness(X[i2]),
            "pair_max_y": _witness(Y[i2]),
        },
        mode=_pair_mode(n * (n - 1), pair_budget),
        arithmetic=arithmetic,
    )


def fixed_point_residual(spec: AffineMapSpec, t, s: BasicSequence) -> Real:
    """||f(t) - t|| through the ambient norm; positive residuals witness the
    absence of a fixed point at this truncation."""
    tc = ConvexCoefficients.of(t)
    ft = apply_map(spec, tc)
    n = max(len(tc), len(ft))
    if n > len(s):
        raise ParameterError("sequence too short to evaluate the residual")
    a = CoordinateVector.of(ft.t).padded(n).entries
    b = CoordinateVector.of(tc.t).padded(n).entries
    diff = tuple(x - y for x, y in zip(a, b))
    return s.span_norm(diff)


def theta_of_map(
    spec: AffineMapSpec,
    s: BasicSequence,
    pair_budget: SamplingBudget = SamplingBudget(count=200),
    n_window: int = 50,
    tol: float = 1e-9,
) -> Certificate:
    """Finite-horizon orbit-separation estimate.

    For each sampled pair (x, y) the proxy m(x, y) is the minimum of
    ||x - f^n(y)|| over the tail half-window n in [ceil(w/2), w]; theta_hat
    is the minimum over pairs.  The proxy is an upper bound on the true
    liminf-based quantity; theta_hat > tol is reported as positive-
    separation evidence, not proof.
    """
    if n_window < 1:
        raise ParameterError("n_window must be >= 1")
    n = start_length(spec, s, n_window)
    X, Y = _pair_matrices(n, pair_budget, include_equal=True)
    lo = (n_window + 1) // 2
    FY = Y
    best = None
    wit = (np.zeros(n), np.zeros(n))
    for step in range(1, n_window + 1):
        FY = apply_map_batch(spec, FY)
        if step < lo:
            continue
        width = FY.shape[1]
        Xp = np.zeros((X.shape[0], width))
        Xp[:, : X.shape[1]] = X
        dist = s.span_norm_batch(Xp - FY)
        i = int(np.argmin(dist))
        if best is None or dist[i] < best:
            best = float(dist[i])
            wit = (X[i], Y[i])
    holds = best is not None and best > tol
    flags = ["finite-horizon-proxy"]
    if holds:
        flags.append("orbit-separation-evidence")
    return Certificate(
        kind="theta_of_map",
        constants={"theta_hat": best, "n_window": n_window, "tol": tol},
        holds=bool(holds),
        witness={
            "x": tuple(map(float, wit[0])),
            "y": tuple(map(float, wit[1])),
        },
        mode=_pair_mode(n * n, pair_budget),
        arithmetic=FLOAT,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Analytic lower bound for the right shift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummingFunctional:
    """A functional phi with gamma = min_n phi(x_n) and beta = gamma/||phi||*."""

    phi: CoordinateVector
    gamma: Real
    norm_phi: Real
    beta: Real


def dual_norm(phi: CoordinateVector, tag) -> Real:
    """Dual-norm value of a coordinate functional, where representable."""
    from .spaces import ELL_P, SUP, NormTag  # local names

    if tag.variant == SUP:
        return norm(phi, NormTag.ell_p(1))
    if tag.variant == ELL_P:
        p = tag.p
        if p == 1:
            return norm(phi, NormTag.sup())
        q = float(p) / (float(p) - 1.0)
        return norm(phi, NormTag.ell_p(q))
    raise ParameterError(f"dual norm not available for ambient {tag.label()}")


def make_summing_functional(s: BasicSequence, phi) -> SummingFunctional:
    pv = CoordinateVector.of(phi).padded(s.ambient_length)
    if len(pv) != s.ambient_length:
        raise ParameterError("functional length exceeds the ambient length")
    gamma = min(
        sum(p * x for p, x in zip(pv.entries, v.entries)) for v in s.vectors
    )
    nphi = dual_norm(pv, s.ambient)
    if not nphi > 0:
        raise ParameterError("zero functional")
    return SummingFunctional(phi=pv, gamma=gamma, norm_phi=nphi, beta=gamma / nphi)


def theta_lower_bound_rightshift(
    s: BasicSequence, f: SummingFunctional, eps: Real
) -> Real:
    """(beta - eps*(1 + 2*kappa)) / kappa, positive by the precondition.

    Compare against theta_of_map's estimate: theta_hat >= bound - 1e-9 is
    the recorded check.
    """
    if not f.gamma > 0:
        raise ParameterError("functional must have gamma > 0")
    kappa = s.kappa_upper
    limit = f.beta / (1 + 2 * kappa)
    if not 0 < eps < limit:
        raise ParameterError(f"eps must lie in (0, {limit}), got {eps}")
    return (f.beta - eps * (1 + 2 * kappa)) / kappa
