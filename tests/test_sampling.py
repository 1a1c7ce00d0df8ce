"""Evaluation sets in both arithmetic modes come from ``seqcert.sampling``.

Each set is drawn once, in float.  Rational mode evaluates the exact images
of that draw: the sign patterns as they are, each random coefficient row
scaled to largest |entry| ``SCALE`` and rounded to integers, and each
simplex point on the 2^-``GRID_BITS`` grid with mass exactly 1.  The pair
sampler takes its x and y halves one after the other; they are bit for bit
the halves of one draw of 2k simplex points, in both modes, and it never
holds both.  No other module names the mode-specific samplers.  Each
builder's label names as many enumerated rows as lead its rows; a
coefficient set's patterns are one of each +- pair of the set it names.
"""

import ast
import functools
import itertools
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import seqcert
from seqcert.arithmetic import FLOAT, RATIONAL, exact_value
from seqcert.errors import ParameterError
from seqcert.fpmaps import AffineMapSpec, ConvexCoefficients, bilipschitz_estimate
from seqcert.sampling import (
    EXHAUSTIVE_LIMIT,
    GRID_BITS,
    SCALE,
    SamplingBudget,
    coefficient_rows,
    coefficient_samples,
    pair_rows,
    rational_simplex,
    rational_vectors,
    simplex_points,
    simplex_rows,
    simplex_samples,
    simplex_uniform,
)
from seqcert.sequences import builtin_sequence


def exact_tuples(rows):
    return [tuple(map(exact_value, row)) for row in rows.tolist()]


@pytest.mark.parametrize("m,count,seed", [(3, 0, 1), (3, 30, 5), (10, 0, 1), (10, 31, 5), (11, 30, 5), (40, 9, 2)])
def test_rational_coefficient_rows_are_images_of_the_float_rows(m, count, seed):
    """The sign patterns are the float ones; each random row is its float
    row scaled to largest |entry| SCALE and rounded to integers."""
    budget = SamplingBudget(count, seed)
    floats, rows = coefficient_samples(m, budget), coefficient_samples(m, budget, exact=True)
    patterns = (3**m - 1) // 2 if m <= EXHAUSTIVE_LIMIT else 0
    assert rows.dtype == float and rows.shape == floats.shape == (patterns + count, m)
    assert rows[:patterns].tobytes() == floats[:patterns].tobytes()
    ints, drawn = rows[patterns:], floats[patterns:]
    assert ints.tobytes() == rational_vectors(m, budget).tobytes()
    assert np.all(ints == np.rint(ints))
    assert np.all(np.max(np.abs(ints), axis=1) == SCALE)
    scaled = drawn * (SCALE / np.max(np.abs(drawn), axis=1, keepdims=True))
    assert np.all(np.abs(ints - scaled) <= 0.5)
    assert all(type(v) is int for row in exact_tuples(rows) for v in row)


def test_rational_coefficient_rows_past_the_exhaustive_limit():
    """A few rows recorded when they became the integer images of the float draw."""
    rows = coefficient_samples(11, SamplingBudget(7, 3), exact=True)
    assert exact_tuples(rows) == [
        (39, -49, 8, -11, -9, -4, -39, -4, -17, 64, 4),
        (-15, -12, -28, -44, -16, 20, -10, 40, -8, 1, 64),
        (18, -17, -6, 18, 64, -9, -8, 33, -29, -10, 29),
        (13, 2, 15, -64, 23, -22, -38, 6, 16, -10, -24),
        (29, 64, 3, 34, 10, 7, 3, 45, 2, 21, 9),
        (38, 17, 64, 3, 3, 27, 7, 41, 17, 8, 51),
        (5, 64, 47, 5, 9, 8, 19, 18, 20, 33, 12),
    ]
    with pytest.raises(ParameterError, match="empty sampling budget"):
        coefficient_samples(11, SamplingBudget(0, 1), exact=True)


@pytest.mark.parametrize("m", [1, 2, 6, 63])
@pytest.mark.parametrize("count,seed", [(1, 0), (200, 4)])
def test_rational_simplex_points_are_grid_images_of_the_float_points(m, count, seed):
    """Each grid point is >= 0, has mass exactly 1 as Fractions, and lies
    within m 2^-GRID_BITS of its Dirichlet draw."""
    budget = SamplingBudget(count, seed)
    floats, grid = simplex_points(m, budget), simplex_points(m, budget, exact=True)
    assert grid.dtype == float and grid.shape == floats.shape == (count, m)
    assert np.all(grid >= 0)
    assert np.all(grid * 2**GRID_BITS == np.floor(grid * 2**GRID_BITS))
    assert np.all(np.abs(grid - floats) <= m * 2.0**-GRID_BITS)
    points = rational_simplex(m, budget)
    assert points == exact_tuples(grid)
    assert all(sum(map(Fraction, t)) == 1 for t in points)


@pytest.mark.parametrize("count", [0, 1, 25])
def test_exact_simplex_samples_are_int_vertices_then_grid_points(count):
    m = 6
    rows = simplex_samples(m, SamplingBudget(count, 4), exact=True)
    assert rows.dtype == float and rows.shape == (m + count, m)
    points = exact_tuples(rows)
    assert points[:m] == [tuple(int(i == j) for j in range(m)) for i in range(m)]
    assert all(type(v) is int for t in points[:m] for v in t)
    assert points[m:] == rational_simplex(m, SamplingBudget(count, 4))
    for t in points:
        ConvexCoefficients.of(t)


def test_float_simplex_samples_are_vertices_then_dirichlet_draws():
    rows = simplex_samples(5, SamplingBudget(40, 2))
    assert rows.dtype == float
    assert rows[:5].tobytes() == np.eye(5).tobytes()
    draws = simplex_uniform(np.random.default_rng(2), 40, 5)
    assert rows[5:].tobytes() == draws.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("count", [1, 7, 100])
def test_float_pairs_split_one_draw_into_two_sequential_draws(n, count):
    """Dirichlet draws of 2c rows are two draws of c rows, bit for bit."""
    rows = pair_rows(n, SamplingBudget(count, 9), include_equal=False, exact=False).coeffs
    X, Y = rows[:, :n], rows[:, n:]
    rng = np.random.default_rng(9)
    first, second = simplex_uniform(rng, count, n), simplex_uniform(rng, count, n)
    vertex_pairs = n * (n - 1)
    assert X[vertex_pairs:].tobytes() == first.tobytes()
    assert Y[vertex_pairs:].tobytes() == second.tobytes()


@pytest.mark.parametrize("count", [0, 1, 7, 40])
def test_rational_pairs_are_grid_images_of_the_float_pairs(count):
    """Rational mode pairs ``count`` points, as float mode does: the grid
    images of the float halves, the x half being ``rational_simplex``."""
    n = 4
    rows = pair_rows(n, SamplingBudget(count, 9), include_equal=True, exact=True).coeffs
    floats = pair_rows(n, SamplingBudget(count, 9), include_equal=True, exact=False).coeffs
    assert rows.shape == floats.shape == (n * n + count, 2 * n)
    assert rows[: n * n].tobytes() == floats[: n * n].tobytes()
    assert [t[:n] for t in exact_tuples(rows[n * n :])] == rational_simplex(n, SamplingBudget(count, 9))
    for half in (rows[n * n :, :n], rows[n * n :, n:]):
        assert np.all(half.sum(axis=1) == 1.0)
    assert np.all(np.abs(rows - floats) <= n * 2.0**-GRID_BITS)


def test_rational_bilipschitz_evaluates_every_pair(monkeypatch):
    """A rational bilipschitz check scans the n(n-1) vertex pairs and then
    ``pairs`` simplex pairs, under the label that names that many."""
    scanned = []
    scan = seqcert.fpmaps._scan

    def counted(rows, *args, **kwargs):
        scanned.append(len(rows.coeffs))
        return scan(rows, *args, **kwargs)

    monkeypatch.setattr(seqcert.fpmaps, "_scan", counted)
    s, n, pairs = builtin_sequence("lin_ell1", 6), 6, 25
    cert = bilipschitz_estimate(AffineMapSpec.bilateral(), s, SamplingBudget(pairs, 3), 1, RATIONAL)
    assert scanned == [n * (n - 1) + pairs]
    assert cert.mode == f"vertex-pairs({n * (n - 1)})+sampled(count={pairs},seed=3)"


def one_draw_pair_rows(n, budget, include_equal, arithmetic):
    """The pair rows as first built: the x and y halves of one
    ``simplex_points`` draw of 2k points, held whole while they are copied."""
    i, j = np.nonzero(~np.eye(n, dtype=bool) | include_equal)
    k = budget.count
    pts = simplex_points(n, SamplingBudget(2 * k, budget.seed), arithmetic == RATIONAL)
    rows = np.zeros((len(i) + k, 2 * n))
    rows[np.arange(len(i)), i] = 1
    rows[np.arange(len(i)), n + j] = 1
    rows[len(i) :, :n], rows[len(i) :, n:] = pts[:k], pts[k:]
    return rows


@pytest.mark.parametrize("arithmetic", [FLOAT, RATIONAL])
@pytest.mark.parametrize("n,count,seed", [(1, 5, 0), (3, 0, 2), (4, 1, 7), (8, 33, 11), (63, 200, 7)])
@pytest.mark.parametrize("include_equal", [False, True])
def test_pair_rows_are_the_one_draw_pair_rows(arithmetic, n, count, seed, include_equal):
    """Drawing the y half only after the x half is copied changes no row."""
    budget = SamplingBudget(count, seed)
    rows = pair_rows(n, budget, include_equal, exact=arithmetic == RATIONAL).coeffs
    oracle = one_draw_pair_rows(n, budget, include_equal, arithmetic)
    assert rows.dtype == oracle.dtype and rows.shape == oracle.shape
    assert rows.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("arithmetic", [FLOAT, RATIONAL])
@pytest.mark.parametrize("include_equal", [False, True])
def test_pair_rows_hold_one_half_at_a_time(arithmetic, include_equal):
    """The traced peak of theorem41's pair rows is the rows plus about one
    half (its draw and, in rational mode, its grid image in place): holding
    the x half while the y half is drawn would add a second."""
    tracemalloc.start()
    try:
        rows = pair_rows(63, SamplingBudget(10000, 7), include_equal, exact=arithmetic == RATIONAL).coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    half = 10000 * 63 * 8
    assert peak <= rows.nbytes + 1.5 * half


MODE_SAMPLERS = {"rational_vectors", "rational_simplex", "simplex_uniform"}


def test_only_sampling_names_the_mode_samplers():
    """Each evaluation set is drawn through a ``sampling`` function that takes
    the arithmetic mode, so no other module picks a sampler by mode."""
    offenders = []
    for path in sorted(Path(seqcert.__file__).parent.glob("*.py")):
        if path.name == "sampling.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names & MODE_SAMPLERS]
    assert offenders == []


@pytest.mark.parametrize("field,value", [("count", -1), ("seed", -1)])
def test_budget_rejects_a_negative_count_or_seed(field, value):
    with pytest.raises(ParameterError, match=f"sampling {field} must be >= 0"):
        SamplingBudget(**{field: value})


LABEL_BUDGETS = [SamplingBudget(0, 1), SamplingBudget(7, 3), SamplingBudget(40, 11)]


@functools.lru_cache(maxsize=None)
def full_product(values: tuple, m: int) -> np.ndarray:
    """Every nonzero row of values^m as floats, in ``itertools.product`` order."""
    return np.array([p for p in itertools.product(values, repeat=m) if any(p)], dtype=float)


def enumerated_part(mode: str, budget: SamplingBudget):
    """The enumerated part of ``mode`` (None: there is none), once its
    sampled part is checked to name ``budget``."""
    sampled = f"sampled(count={budget.count},seed={budget.seed})"
    if mode == sampled:
        return None
    if budget.count > 0:
        assert mode.endswith("+" + sampled), mode
        mode = mode[: -len(sampled) - 1]
    return mode


def named_count(mode: str, budget: SamplingBudget, word: str) -> int:
    """The k of the ``word(k)`` that ``mode`` names, 0 for no enumerated part."""
    part = enumerated_part(mode, budget)
    if part is None:
        return 0
    match = re.fullmatch(rf"{word}\((\d+)\)", part)
    assert match, mode
    return int(match[1])


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("budget", LABEL_BUDGETS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("include_equal", [False, True])
def test_pair_label_counts_the_leading_vertex_pairs(include_equal, n, budget, exact):
    rows = pair_rows(n, budget, include_equal, exact)
    k = named_count(rows.mode, budget, "vertex-pairs")
    eye = np.eye(n)
    vertex_pairs = [np.concatenate([eye[i], eye[j]]) for i in range(n) for j in range(n) if include_equal or i != j]
    assert k == len(vertex_pairs)
    assert rows.coeffs[:k].tolist() == [row.tolist() for row in vertex_pairs]
    assert len(rows.coeffs) == k + budget.count


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("budget", LABEL_BUDGETS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 6])
def test_simplex_label_counts_the_leading_vertices(n, budget, exact):
    rows = simplex_rows(n, budget, exact)
    k = named_count(rows.mode, budget, "vertices")
    assert k == n
    assert rows.coeffs[:k].tobytes() == np.eye(n).tobytes()
    assert len(rows.coeffs) == k + budget.count


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("budget", LABEL_BUDGETS, ids=repr)
@pytest.mark.parametrize("m", [1, 3, EXHAUSTIVE_LIMIT, EXHAUSTIVE_LIMIT + 1, 13])
@pytest.mark.parametrize("pm_one", [False, True])
def test_coefficient_label_counts_the_leading_patterns(pm_one, m, budget, exact):
    """"exhaustive" names the 3^m - 1 sign patterns (after the 2^m +-1
    patterns with ``pm_one``), "pm-one" the 2^m +-1 patterns alone.  The rows
    hold one of each +- pair, the ``mirrored`` leading rows: each part's half,
    followed by its negation in reverse order, is that full set of patterns,
    byte for byte in ``itertools.product`` order."""
    if m > EXHAUSTIVE_LIMIT and not pm_one and budget.count == 0:
        with pytest.raises(ParameterError, match="empty sampling budget"):
            coefficient_rows(m, budget, pm_one, exact)
        return
    rows = coefficient_rows(m, budget, pm_one, exact)
    part = enumerated_part(rows.mode, budget)
    patterns = {
        None: [],
        "pm-one": [full_product((-1, 1), m)],
        "exhaustive": [full_product((-1, 1), m)] * pm_one + [full_product((-1, 0, 1), m)],
    }[part]
    k = sum(map(len, patterns))
    assert k == (3**m - 1 + 2**m * pm_one if m <= EXHAUSTIVE_LIMIT else 2**m * pm_one)
    assert 2 * rows.mirrored == k
    halves = np.split(rows.coeffs[: rows.mirrored], np.cumsum([len(p) // 2 for p in patterns])[:-1])
    for half, whole in zip(halves, patterns):
        assert np.concatenate([half, 0.0 - half[::-1]]).tobytes() == whole.tobytes()  # 0.0 - 0.0 is +0.0
    assert len(rows.coeffs) == rows.mirrored + budget.count
    assert rows.size == k + budget.count
