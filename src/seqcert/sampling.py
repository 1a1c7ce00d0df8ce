"""Deterministic coefficient-vector sampling for certificate estimation.

Three families are pooled, mirroring how extreme ratios arise:

* all sign patterns in {-1, 0, 1}^m (minus the zero vector) when m is small
  enough to enumerate; polyhedral norms attain their extremes there,
* Gaussian directions normalized to the Euclidean sphere, for smooth norms,
* uniform points of the probability simplex, for convex-coefficient checks.

All randomness flows through ``numpy.random.default_rng(seed)``; results are
a pure function of (seed, count).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError

EXHAUSTIVE_DEFAULT_LIMIT = 10


@dataclass(frozen=True)
class SamplingBudget:
    """How much evaluation a certificate op may spend.

    count:            number of random vectors (split between the Gaussian
                      and simplex families); 0 disables random sampling.
    seed:             RNG seed; mandatory for reproducibility.
    exhaustive_limit: largest m for which sign patterns are enumerated.
    """

    count: int = 2000
    seed: int = 0
    exhaustive_limit: int = EXHAUSTIVE_DEFAULT_LIMIT

    def __post_init__(self):
        if self.count < 0:
            raise ParameterError("sampling count must be >= 0")

    def mode_label(self, m: int) -> str:
        exhaustive = m <= self.exhaustive_limit
        sampled = self.count > 0
        if exhaustive and sampled:
            return f"exhaustive+sampled(count={self.count},seed={self.seed})"
        if exhaustive:
            return "exhaustive"
        return f"sampled(count={self.count},seed={self.seed})"


def sign_patterns(m: int) -> np.ndarray:
    """All vectors in {-1,0,1}^m except zero, as a (3^m - 1, m) float array."""
    if m == 0:
        return np.zeros((0, 0))
    pats = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=m)))
    keep = np.any(pats != 0.0, axis=1)
    return pats[keep]


def pm_one_patterns(m: int) -> np.ndarray:
    """All vectors in {-1,+1}^m, as a (2^m, m) float array."""
    if m == 0:
        return np.zeros((0, 0))
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


def gaussian_sphere(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    g = rng.standard_normal((count, m))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def simplex_uniform(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=count)


def coefficient_samples(m: int, budget: SamplingBudget, pm_one: bool = False) -> np.ndarray:
    """Pooled evaluation set for scalar-coefficient certificates; with
    ``pm_one``, every +-1 pattern comes first."""
    parts = [pm_one_patterns(m)] if pm_one else []
    if m <= budget.exhaustive_limit:
        parts.append(sign_patterns(m))
    if budget.count > 0:
        rng = np.random.default_rng(budget.seed)
        n_gauss = budget.count - budget.count // 2
        parts.append(gaussian_sphere(rng, n_gauss, m))
        parts.append(simplex_uniform(rng, budget.count // 2, m))
    if not parts:
        raise ParameterError("empty sampling budget: no sign patterns and count=0")
    return np.concatenate(parts, axis=0)


def simplex_samples(m: int, budget: SamplingBudget) -> np.ndarray:
    """Convex-coefficient evaluation set: all vertices plus simplex points."""
    parts = [np.eye(m)]
    if budget.count > 0:
        rng = np.random.default_rng(budget.seed)
        parts.append(simplex_uniform(rng, budget.count, m))
    return np.concatenate(parts, axis=0)


def rational_vectors(m: int, budget: SamplingBudget, lo: int = -3, hi: int = 3):
    """Deterministic small-integer coefficient vectors for RATIONAL mode."""
    rng = np.random.default_rng(budget.seed)
    out = []
    draws = rng.integers(lo, hi + 1, size=(budget.count, m)) if budget.count else []
    for row in draws:
        if not np.any(row):
            row = row.copy()
            row[0] = 1
        out.append(tuple(int(v) for v in row))
    return out


def rational_simplex(m: int, budget: SamplingBudget, denom_max: int = 64):
    """Deterministic rational points of the simplex, mass exactly 1."""
    rng = np.random.default_rng(budget.seed)
    out = []
    for _ in range(budget.count):
        ks = rng.integers(0, denom_max + 1, size=m)
        total = int(ks.sum())
        if total == 0:
            ks[0] = 1
            total = 1
        out.append(tuple(Fraction(int(k), total) for k in ks))
    return out
