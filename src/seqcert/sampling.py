"""Deterministic coefficient-vector sampling for certificate estimation.

Three families are pooled, mirroring how extreme ratios arise:

* all sign patterns in {-1, 0, 1}^m (minus the zero vector) when m is small
  enough to enumerate; polyhedral norms attain their extremes there,
* Gaussian directions normalized to the Euclidean sphere, for smooth norms,
* uniform points of the probability simplex, for convex-coefficient checks.

Every evaluation set of both arithmetic modes is drawn here: with ``exact``
(rational mode) the random families are ``rational_vectors`` and
``rational_simplex``, and the rows are ``object`` arrays of ints and
Fractions.

All randomness flows through ``numpy.random.default_rng(seed)``; results are
a pure function of (seed, count).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import ParameterError

EXHAUSTIVE_LIMIT = 10  # the largest m whose {-1,0,1}^m sign patterns are enumerated


@dataclass(frozen=True)
class SamplingBudget:
    """How much evaluation a certificate op may spend.

    count: number of random vectors (split between the Gaussian and simplex
           families); 0 disables random sampling.
    seed:  RNG seed; mandatory for reproducibility.
    """

    count: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ParameterError("sampling count must be >= 0")

    def label(self, enumerated: Optional[str] = None) -> str:
        """An evaluated set in a certificate's words: the ``enumerated`` rows
        (None: there are none), then the random rows this budget draws."""
        sampled = f"sampled(count={self.count},seed={self.seed})"
        if enumerated is None:
            return sampled
        return f"{enumerated}+{sampled}" if self.count > 0 else enumerated

    def mode_label(self, m: int, pm_one: bool = False) -> str:
        """The ``label`` of ``coefficient_samples(m, ...)``; ``pm_one`` names its
        +-1 patterns past the exhaustive limit."""
        return self.label("exhaustive" if m <= EXHAUSTIVE_LIMIT else "pm-one" if pm_one else None)


def _product(values: tuple, m: int) -> np.ndarray:
    """Every row of values^m as an int array, in ``itertools.product`` order:
    the last coordinate varies fastest."""
    digits = np.indices((len(values),) * m).reshape(m, -1).T
    return np.array(values)[digits]


def sign_patterns(m: int, exact: bool = False) -> np.ndarray:
    """All vectors in {-1,0,1}^m except zero, as a (3^m - 1, m) float array,
    or with ``exact`` an object array of Python ints."""
    if m == 0:
        return np.zeros((0, 0))
    pats = _product((-1, 0, 1), m)
    # the zero row is the middle one: every digit is the middle value
    pats = np.delete(pats, len(pats) // 2, axis=0)
    return pats.astype(object if exact else float)


def pm_one_patterns(m: int) -> np.ndarray:
    """All vectors in {-1,+1}^m, as a (2^m, m) float array."""
    if m == 0:
        return np.zeros((0, 0))
    return _product((-1, 1), m).astype(float)


def gaussian_sphere(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    g = rng.standard_normal((count, m))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def simplex_uniform(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=count)


def coefficient_samples(
    m: int, budget: SamplingBudget, pm_one: bool = False, exact: bool = False
) -> np.ndarray:
    """Pooled evaluation set for scalar-coefficient certificates; with
    ``pm_one``, every +-1 pattern comes first.  With ``exact`` (rational
    mode) the rows are the sign patterns and then ``rational_vectors``, as an
    object array of Python ints."""
    parts = [pm_one_patterns(m)] if pm_one else []
    if m <= EXHAUSTIVE_LIMIT:
        parts.append(sign_patterns(m, exact))
    if budget.count > 0 and exact:
        parts.append(np.array(rational_vectors(m, budget), dtype=object))
    elif budget.count > 0:
        rng = np.random.default_rng(budget.seed)
        n_gauss = budget.count - budget.count // 2
        parts.append(gaussian_sphere(rng, n_gauss, m))
        parts.append(simplex_uniform(rng, budget.count // 2, m))
    if not parts:
        raise ParameterError("empty sampling budget: no sign patterns and count=0")
    return np.concatenate(parts, axis=0)


def simplex_points(m: int, budget: SamplingBudget, exact: bool) -> np.ndarray:
    """``budget.count`` points of the probability simplex as rows: Dirichlet
    draws, or with ``exact`` the ``rational_simplex`` points as an object
    array of Fractions."""
    if exact:
        return np.array(rational_simplex(m, budget), dtype=object).reshape(budget.count, m)
    return simplex_uniform(np.random.default_rng(budget.seed), budget.count, m)


def simplex_halves(m: int, budget: SamplingBudget, exact: bool) -> Iterator[np.ndarray]:
    """The first and then the second half of ``simplex_points(m,
    SamplingBudget(2 * budget.count, budget.seed), exact)``.  In float mode
    they are two draws of ``budget.count`` rows from one generator, the same
    bits, so the second is drawn only after the first is taken."""
    if exact:
        pts = simplex_points(m, SamplingBudget(2 * budget.count, budget.seed), True)
        yield from (pts[: budget.count], pts[budget.count :])
    else:
        rng = np.random.default_rng(budget.seed)
        yield from (simplex_uniform(rng, budget.count, m) for _ in range(2))


def simplex_samples(m: int, budget: SamplingBudget, exact: bool = False) -> np.ndarray:
    """Convex-coefficient evaluation set: all vertices, then ``simplex_points``;
    with ``exact`` the vertices are Python ints."""
    vertices = np.eye(m, dtype=object if exact else float)
    return np.concatenate([vertices, simplex_points(m, budget, exact)], axis=0)


def rational_vectors(m: int, budget: SamplingBudget):
    """Deterministic integer coefficient vectors in [-3, 3]^m for RATIONAL mode."""
    rng = np.random.default_rng(budget.seed)
    out = []
    draws = rng.integers(-3, 4, size=(budget.count, m)) if budget.count else []
    for row in draws:
        if not np.any(row):
            row = row.copy()
            row[0] = 1
        out.append(tuple(int(v) for v in row))
    return out


def rational_simplex(m: int, budget: SamplingBudget):
    """Deterministic rational simplex points: integer weights in [0, 64] over their sum."""
    rng = np.random.default_rng(budget.seed)
    out = []
    for _ in range(budget.count):
        ks = rng.integers(0, 65, size=m)
        total = int(ks.sum())
        if total == 0:
            ks[0] = 1
            total = 1
        out.append(tuple(Fraction(int(k), total) for k in ks))
    return out
