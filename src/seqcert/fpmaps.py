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

Every variant is linear on coefficient rows, f^p(t) = t f^p(I), so the map
checks apply the map only to the identity: they scan their coefficient rows
over the pushed families B_p = f^p(I) X of ``pushed_families``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, validate_arithmetic
from .certificates import Certificate
from .errors import ParameterError, TruncationError
from .sampling import SamplingBudget, pair_rows
from .sequences import BasicSequence, RowNorms, _eval_rows, _scan, _span_rows, _witness, row_norms
from .spaces import ELL_P, SUP, NormTag, as_rows, norm, row_array, scalar

DIAG_SHIFT = "diag_shift"
RIGHT_SHIFT = "right_shift"
BILATERAL = "bilateral"
GEOMETRIC = "geometric"
VARIANTS = (DIAG_SHIFT, RIGHT_SHIFT, BILATERAL, GEOMETRIC)

GROW = "grow"
FOLD_TAIL = "fold_tail"
POLICIES = (GROW, FOLD_TAIL)

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
    theta, a, b, kappa = (coerce(v, arithmetic) for v in (theta, a, b, kappa))
    base = theta * a / (4 * b * kappa)
    alphas = tuple(base * coerce(Fraction(1, 2**k), arithmetic) for k in range(1, n + 1))
    return AlphaSchedule(alphas=alphas, theta=theta, a=a, b=b, kappa=kappa)


def map_policy(variant: str, theta: Optional[Real], policy: Optional[str]) -> str:
    """The truncation policy of a ``variant`` map with this theta and policy
    (``None``: the variant's default).  Raises ParameterError unless theta is
    given exactly for diag_shift and lies in (0,1), bilateral gets no policy,
    and geometric gets only fold_tail."""
    if variant not in VARIANTS:
        raise ParameterError(f"unknown map variant {variant!r}")
    if (theta is None) == (variant == DIAG_SHIFT):
        raise ParameterError("diag_shift needs theta, other variants take none")
    if theta is not None and not 0 < theta < 1:
        raise ParameterError(f"theta out of (0,1): {theta}")
    if policy is None:
        return FOLD_TAIL if variant == GEOMETRIC else GROW
    if policy not in POLICIES:
        raise ParameterError(f"unknown truncation policy {policy!r}")
    if variant == BILATERAL or (variant == GEOMETRIC and policy != FOLD_TAIL):
        raise ParameterError(f"{variant} cannot take policy = {policy}")
    return policy


@dataclass(frozen=True)
class AffineMapSpec:
    """One of the four simplex self-maps plus its truncation policy
    (``None``: the variant's default); ``map_policy`` sets the rules."""

    variant: str
    schedule: Optional[AlphaSchedule] = None
    policy: Optional[str] = None

    def __post_init__(self):
        theta = None if self.schedule is None else self.schedule.theta
        object.__setattr__(self, "policy", map_policy(self.variant, theta, self.policy))

    @staticmethod
    def diag_shift(schedule: AlphaSchedule, policy: str = GROW) -> "AffineMapSpec":
        return AffineMapSpec(DIAG_SHIFT, schedule, policy)

    @staticmethod
    def right_shift(policy: str = GROW) -> "AffineMapSpec":
        return AffineMapSpec(RIGHT_SHIFT, None, policy)

    @staticmethod
    def bilateral() -> "AffineMapSpec":
        return AffineMapSpec(BILATERAL)

    @staticmethod
    def geometric() -> "AffineMapSpec":
        return AffineMapSpec(GEOMETRIC)


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
    """One application: one row of ``apply_map_batch``; exact on exact inputs,
    mass preserved."""
    row = apply_map_batch(spec, row_array([ConvexCoefficients.of(t).t]))[0]
    return ConvexCoefficients(tuple(map(scalar, row)))


def orbit(spec: AffineMapSpec, T: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """The iterates T, f(T), ..., f^steps(T) of the rows of T, each applied
    only when it is read."""
    yield T
    for _ in range(steps):
        T = apply_map_batch(spec, T)
        yield T


def apply_map_batch(spec: AffineMapSpec, mat: np.ndarray) -> np.ndarray:
    """Batch version of ``apply_map`` over rows; exact on object rows."""
    mat = as_rows(mat)
    rows, n = mat.shape
    if spec.variant == RIGHT_SHIFT:
        out = np.concatenate([np.zeros((rows, 1), dtype=mat.dtype), mat], axis=1)
    elif spec.variant == DIAG_SHIFT:
        # object rows take each alpha's exact value: in float, 1 - alpha
        # rounds to 1 for alpha < 2^-53
        alphas = spec.schedule.alphas[:n]
        al = np.array([coerce(a, RATIONAL) for a in alphas] if mat.dtype == object else alphas, dtype=mat.dtype)
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


def start_length(variant: str, policy: str, m: int, steps: int, least: int = 1) -> int:
    """Largest coefficient length that stays evaluable after ``steps``
    applications of a ``variant`` map with truncation ``policy`` against a
    family of m vectors; the schedule plays no part.  Below ``least`` it raises."""
    grows = variant in (DIAG_SHIFT, RIGHT_SHIFT) and policy == GROW
    n = m - steps if grows else m
    if variant == BILATERAL and n % 2 != 0:
        n -= 1
    if n < least:
        need = f" and {least} start coefficients" if least > 1 else ""
        raise ParameterError(f"sequence of length {m} too short for {steps} applications{need}")
    return n


def check_theta_window(variant: str, m: int, n_window: int) -> None:
    """Raise ParameterError when a right-shift orbit window w is too short for
    a family of m vectors.  The window starts from m - w coefficients, and
    f^k(e_j) = e_{j+k}; when ceil(w/2) < m - w, some vertex pair (e_i, e_j)
    has i - j = k inside the tail half-window [ceil(w/2), w], so theta_hat
    reads 0 for that reason alone."""
    if variant == RIGHT_SHIFT and (n_window + 1) // 2 < m - n_window:
        raise ParameterError(
            f"n_window = {n_window} is too short for a right shift of {m} vectors: "
            f"need ceil(n_window/2) >= {m} - n_window, or vertex pairs meet inside the window"
        )


def pushed_families(spec: AffineMapSpec, s: BasicSequence, n: int, steps: int, exact: bool) -> list:
    """B_p = f^p(I) X, p = 0..steps: the ``orbit`` of the n x n identity (of
    ``object`` ints with ``exact``, which ``apply_map_batch`` keeps exact on
    any schedule), each iterate spanned once over the vectors X of s.  The
    span of t over B_p is the point with coefficients f^p(t), so a map
    distance is a span over pushed families."""
    eye = np.eye(n, dtype=object if exact else float)
    return [s._span(M) for M in orbit(spec, eye, steps)]


def bilipschitz_estimate(
    spec: AffineMapSpec,
    s: BasicSequence,
    pair_budget: SamplingBudget = SamplingBudget(),
    p_max: int = 1,
    arithmetic: str = FLOAT,
) -> Certificate:
    """Empirical two-sided iterate constants.

    c1_p{p} = min and c2_p{p} = max over the evaluated pairs (t, t') of
    ||f^p t - f^p t'|| / ||t - t'|| through the ambient norm of s, for each
    p = 1..p_max: how these grow with p is what tells a uniformly
    bi-Lipschitz map from one that is only bi-Lipschitz at each p.
    c1_hat and c2_hat are their extremes over p, and L_hat = c2_hat /
    c1_hat.  The iterate count attaining each extreme is recorded so the
    witness pair re-evaluates to the reported constant.  When some iterate
    identifies two evaluated points, c1_hat = 0: the certificate fails with
    a flag and has no L_hat.  It needs n >= 2: at n = 1 every pair has x = y.
    """
    if p_max < 1:
        raise ParameterError("p_max must be >= 1")
    n = start_length(spec.variant, spec.policy, len(s), p_max, least=2)
    pairs = _eval_rows(n, pair_budget, arithmetic, s, rows=pair_rows, include_equal=False)
    # norm p is ||f^p(x) - f^p(y)||, the span of the pair row [x | y] over [B_p; -B_p]
    families = pushed_families(spec, s, n, p_max, arithmetic == RATIONAL)
    gaps = [row_norms(s.ambient, np.concatenate([B, -B])) for B in families]
    scans = _scan(pairs, gaps, arithmetic, ratios=[(p, 0) for p in range(1, p_max + 1)])
    # the extremes over the iterates; the first p wins ties
    p1, (c1, _, row1, _, _) = min(enumerate(scans, start=1), key=lambda ps: ps[1][0])
    p2, (_, c2, _, row2, _) = max(enumerate(scans, start=1), key=lambda ps: ps[1][1])
    constants = {"c1_hat": c1, "c2_hat": c2, "p_max": p_max, "p_at_min": p1, "p_at_max": p2}
    for p, (c1_p, c2_p, *_) in enumerate(scans, start=1):
        constants[f"c1_p{p}"], constants[f"c2_p{p}"] = c1_p, c2_p
    injective = c1 > 0
    if injective:
        constants["L_hat"] = c2 / c1
    return Certificate(
        kind="bilipschitz",
        constants=constants,
        holds=bool(injective),
        witness={  # the halves of the winning pair rows
            "pair_min_x": _witness(row1[:n]), "pair_min_y": _witness(row1[n:]),
            "pair_max_x": _witness(row2[:n]), "pair_max_y": _witness(row2[n:]),
        },
        mode=pairs.mode,
        arithmetic=arithmetic,
        flags=() if injective else ("not-injective-at-truncation",),
    )


def residual_norms(spec: AffineMapSpec, s: BasicSequence, n: int, exact: bool) -> RowNorms:
    """||f(t) - t|| of the coefficient rows t of length n of a scan: the span
    of t over B_1 - B_0 (see ``pushed_families``)."""
    B0, B1 = pushed_families(spec, s, n, 1, exact)
    return row_norms(s.ambient, B1 - B0)


def fixed_point_residual(spec: AffineMapSpec, t, s: BasicSequence) -> Real:
    """||f(t) - t||, one row of ``residual_norms``; a positive residual
    witnesses that f has no fixed point at this truncation."""
    T = row_array([ConvexCoefficients.of(t).t])
    return scalar(residual_norms(spec, s, T.shape[1], T.dtype == object).exact(T)[0])


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
    n = start_length(spec.variant, spec.policy, len(s), n_window)
    pairs = pair_rows(n, pair_budget, include_equal=True)
    lo = (n_window + 1) // 2
    # norm k is ||x - f^(lo+k)(y)||, the span of the pair row [x | y] over
    # [B_0; -B_(lo+k)], one margin per window step
    B = pushed_families(spec, s, n, n_window, exact=False)
    dists = [row_norms(s.ambient, np.concatenate([B[0], -Bk])) for Bk in B[lo:]]
    margins = [((1, k),) for k in range(n_window - lo + 1)]
    found = _scan(pairs, dists, FLOAT, margins)
    # the least distance over the window; the first step wins ties
    best, row = min(found, key=lambda extreme: extreme[0])
    holds = best > tol
    flags = ["finite-horizon-proxy"]
    if holds:
        flags.append("orbit-separation-evidence")
    return Certificate(
        kind="theta_of_map",
        constants={"theta_hat": best, "n_window": n_window, "tol": tol},
        holds=bool(holds),
        witness={"x": tuple(map(float, row[:n])), "y": tuple(map(float, row[n:]))},
        mode=pairs.mode,
        arithmetic=FLOAT,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Analytic lower bound for the right shift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummingFunctional:
    """A functional phi with gamma = min_n phi(x_n) and beta = gamma/||phi||*."""

    phi: tuple
    gamma: Real
    norm_phi: Real
    beta: Real


def dual_norm(phi: tuple, tag) -> Real:
    """Dual-norm value of a coordinate functional, where representable."""
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
    """phi, zero-padded to the ambient length, as a summing functional of s;
    ParameterError when it is longer than the ambient or not finite, the
    ambient norm has no dual here, phi is zero, or gamma = min_n phi(x_n) is
    not positive."""
    phi, n = tuple(phi), s.ambient_length
    if len(phi) > n:
        raise ParameterError("functional length exceeds the ambient length")
    phi += (0,) * (n - len(phi))
    nphi = dual_norm(phi, s.ambient)
    gamma = min(_span_rows(s.matrix(exact=True), np.array(phi, dtype=object)[:, None])[:, 0])
    if not nphi > 0:
        raise ParameterError("zero functional")
    if not gamma > 0:
        raise ParameterError("functional must have gamma > 0")
    return SummingFunctional(phi=phi, gamma=gamma, norm_phi=nphi, beta=gamma / nphi)


def theta_lower_bound_rightshift(f: SummingFunctional, eps: Real, kappa: Real) -> Real:
    """(beta - eps*(1 + 2*kappa)) / kappa, positive by the precondition;
    ``kappa`` is the upper end of the basis-constant interval.

    Compare against theta_of_map's estimate: theta_hat >= bound - 1e-9 is
    the recorded check.
    """
    limit = f.beta / (1 + 2 * kappa)
    if not 0 < eps < limit:
        raise ParameterError(f"eps must lie in (0, {limit}), got {eps}")
    return (f.beta - eps * (1 + 2 * kappa)) / kappa
