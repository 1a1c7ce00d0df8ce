"""Deterministic coefficient-vector sampling for certificate estimation.

Three families are pooled, mirroring how extreme ratios arise:

* one of each +- pair of sign patterns in {-1, 0, 1}^m (minus the zero
  vector) when m is small enough to enumerate; polyhedral norms attain their
  extremes there, and a norm is even, so a pattern stands for its negation,
* Gaussian directions normalized to the Euclidean sphere, for smooth norms,
* uniform points of the probability simplex, for convex-coefficient checks.

A scan takes its evaluation set as ``Rows``, the rows with their mode, from
one builder per shape: ``coefficient_rows``, ``pair_rows`` or ``simplex_rows``.

Each evaluation set is drawn once, in float, for both arithmetic modes; with
``exact`` (rational mode) its random rows are moved onto values that float
holds exactly (``integer_image``, ``grid_image``), and a rational scan takes
the exact values of only the rows it evaluates exactly.

All randomness flows through ``numpy.random.default_rng(seed)``; results are
a pure function of (seed, count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .arithmetic import exact_value
from .errors import ParameterError

EXHAUSTIVE_LIMIT = 10  # the largest m whose {-1,0,1}^m sign patterns are enumerated
SCALE = 64.0  # the largest |entry| of a rational-mode random coefficient row
GRID_BITS = 10  # rational-mode simplex coordinates are multiples of 2^-GRID_BITS


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
        if self.seed < 0:
            raise ParameterError("sampling seed must be >= 0")

    def label(self, enumerated: Optional[str] = None) -> str:
        """An evaluated set in a certificate's words: the ``enumerated`` rows
        (None: there are none), then the random rows this budget draws."""
        sampled = f"sampled(count={self.count},seed={self.seed})"
        if enumerated is None:
            return sampled
        return f"{enumerated}+{sampled}" if self.count > 0 else enumerated


class Rows(NamedTuple):
    """A scan's coefficient rows, the ``SamplingBudget.label`` of the set
    they stand for, and ``mirrored``, how many leading rows stand for
    themselves and for their negations: the enumerated patterns, one of each
    +- pair.  Every value a scan reads is a norm, even in the row, so the set
    is ``coeffs`` with those rows' negations added, ``size`` rows."""

    coeffs: np.ndarray
    mode: str
    mirrored: int = 0

    @property
    def size(self) -> int:
        """The number of rows of the set the rows stand for."""
        return len(self.coeffs) + self.mirrored

    def select(self, keep: np.ndarray) -> "Rows":
        """The rows where the boolean ``keep`` holds."""
        return Rows(self.coeffs[keep], self.mode, int(np.count_nonzero(keep[: self.mirrored])))


def _enumerates(m: int) -> bool:
    """Whether ``coefficient_samples`` enumerates the {-1,0,1}^m sign patterns."""
    return m <= EXHAUSTIVE_LIMIT


def _product(values: tuple, m: int, count: int) -> np.ndarray:
    """The first ``count`` rows of values^m as a float array, in
    ``itertools.product`` order: the last coordinate varies fastest, so
    column i cycles through the values, each repeated len(values)^(m-1-i)
    times."""
    vals = np.array(values, dtype=float)
    rows = np.empty((count, m))
    for i in range(m):
        cycle = np.repeat(vals, len(vals) ** (m - 1 - i))
        rows[:, i] = np.tile(cycle, -(-count // len(cycle)))[:count]
    return rows


# values^m in product order is symmetric under negation when the values are:
# row i negated is row len - 1 - i.  So its first half holds one row of each
# +- pair, those whose first nonzero entry is -1 (the zero row, if any, is
# the middle one), and the second half is that first half negated, reversed.


def sign_patterns(m: int) -> np.ndarray:
    """One of each +- pair of nonzero vectors in {-1,0,1}^m, the one whose
    first nonzero entry is -1: the first (3^m - 1) / 2 rows of {-1,0,1}^m in
    product order, as a float array."""
    return _product((-1, 0, 1), m, (3**m - 1) // 2)


def pm_one_patterns(m: int) -> np.ndarray:
    """One of each +- pair of vectors in {-1,+1}^m, the one whose first entry
    is -1: the first 2^(m-1) rows of {-1,+1}^m in product order, as a float array."""
    return _product((-1, 1), m, 2**m // 2)


def gaussian_sphere(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    g = rng.standard_normal((count, m))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def simplex_uniform(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=count)


def integer_image(rows: np.ndarray) -> np.ndarray:
    """``rows``, in place, scaled to largest |entry| ``SCALE`` and rounded."""
    rows *= SCALE / np.max(np.abs(rows), axis=1, keepdims=True)
    return np.rint(rows, out=rows)


def grid_image(points: np.ndarray) -> np.ndarray:
    """Simplex points, in place, on the 2^-``GRID_BITS`` grid: each coordinate
    but a row's largest is floored, and the largest takes the rest.  Float
    adds these multiples of 2^-GRID_BITS exactly, so the mass is exactly 1;
    the floored ones sum to at most what the largest leaves, so it is >= 0."""
    top = (np.arange(len(points)), np.argmax(points, axis=1))
    points *= 2.0**GRID_BITS
    np.floor(points, out=points)
    points *= 2.0**-GRID_BITS
    points[top] = 0.0
    points[top] = 1.0 - points.sum(axis=1)
    return points


def _random_rows(m: int, budget: SamplingBudget) -> list:
    """The Gaussian and then the Dirichlet rows of ``coefficient_samples``."""
    rng = np.random.default_rng(budget.seed)
    n_gauss = budget.count - budget.count // 2
    return [gaussian_sphere(rng, n_gauss, m), simplex_uniform(rng, budget.count // 2, m)]


def coefficient_samples(
    m: int, budget: SamplingBudget, pm_one: bool = False, exact: bool = False
) -> np.ndarray:
    """Pooled evaluation set for scalar-coefficient certificates, one of each
    +- pair of enumerated patterns: with ``pm_one`` the +-1 patterns come
    first, then the sign patterns up to ``EXHAUSTIVE_LIMIT``, then the random
    rows, which with ``exact`` (rational mode) are ``rational_vectors``."""
    parts = [pm_one_patterns(m)] if pm_one else []
    if _enumerates(m):
        parts.append(sign_patterns(m))
    if budget.count > 0:
        parts += [rational_vectors(m, budget)] if exact else _random_rows(m, budget)
    if not parts:
        raise ParameterError("empty sampling budget: no sign patterns and count=0")
    return np.concatenate(parts, axis=0)


def coefficient_rows(m: int, budget: SamplingBudget, pm_one: bool = False, exact: bool = False) -> Rows:
    """``coefficient_samples`` with its mode, "exhaustive" or "pm-one" for its
    enumerated patterns, each of which stands for its negation too."""
    enumerated = "exhaustive" if _enumerates(m) else "pm-one" if pm_one else None
    coeffs = coefficient_samples(m, budget, pm_one, exact)
    # every row but the budget.count random ones is an enumerated pattern
    return Rows(coeffs, budget.label(enumerated), len(coeffs) - budget.count)


def rational_vectors(m: int, budget: SamplingBudget) -> np.ndarray:
    """The ``integer_image`` of the random rows of ``coefficient_samples``."""
    return integer_image(np.concatenate(_random_rows(m, budget)))


def simplex_points(m: int, budget: SamplingBudget, exact: bool = False) -> np.ndarray:
    """``budget.count`` Dirichlet draws as rows; with ``exact``, their ``grid_image``."""
    return next(simplex_halves(m, budget, exact))


def simplex_halves(m: int, budget: SamplingBudget, exact: bool) -> Iterator[np.ndarray]:
    """Two draws of ``budget.count`` rows from one generator, the first being
    ``simplex_points``; the first is freed once taken, before the second is drawn."""
    rng = np.random.default_rng(budget.seed)
    image = grid_image if exact else np.asarray  # np.asarray: the draw as it is
    yield from (image(simplex_uniform(rng, budget.count, m)) for _ in range(2))


def simplex_samples(m: int, budget: SamplingBudget, exact: bool = False) -> np.ndarray:
    """Convex-coefficient evaluation set: all vertices, then ``simplex_points``."""
    return np.concatenate([np.eye(m), simplex_points(m, budget, exact)], axis=0)


def simplex_rows(m: int, budget: SamplingBudget, exact: bool = False) -> Rows:
    """``simplex_samples`` with its mode, "vertices(m)" for the vertices."""
    return Rows(simplex_samples(m, budget, exact), budget.label(f"vertices({m})"))


def pair_rows(n: int, budget: SamplingBudget, include_equal: bool, exact: bool = False) -> Rows:
    """The k vertex pairs ("vertex-pairs(k)"), then ``budget.count`` simplex
    pairs, as the (P, 2n) pair rows [x | y] of one float array: the simplex
    pairs take x from the first of the ``simplex_halves`` and y from the
    second (on the grid with ``exact``), each freed before the next is drawn."""
    # the vertex pairs (e_i, e_j) in row-major order, i != j unless include_equal
    i, j = np.nonzero(~np.eye(n, dtype=bool) | include_equal)
    rows = np.zeros((len(i) + budget.count, 2 * n))
    rows[np.arange(len(i)), i] = 1
    rows[np.arange(len(i)), n + j] = 1
    halves = simplex_halves(n, budget, exact)
    rows[len(i) :, :n] = next(halves)
    rows[len(i) :, n:] = next(halves)
    return Rows(rows, budget.label(f"vertex-pairs({len(i)})"))


def rational_simplex(m: int, budget: SamplingBudget) -> list:
    """The exact values of ``simplex_points(m, budget, exact=True)``, as tuples."""
    return [tuple(map(exact_value, row)) for row in simplex_points(m, budget, True).tolist()]
