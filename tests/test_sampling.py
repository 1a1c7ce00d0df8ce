"""Evaluation sets in both arithmetic modes come from ``seqcert.sampling``.

The exact coefficient rows are pinned to the rows the rational scans
evaluated before the float and exact rules were merged into one module
(sha256 of their JSON list, and the rows themselves where they are few).
Exact simplex sets hold ``int`` vertices and then ``Fraction`` points of
mass exactly 1.  The pair sampler takes its x and y halves one after the
other; they are bit for bit the halves of one draw of 2k simplex points,
and in float mode two draws of k points each.  No other module names the
mode-specific samplers.
"""

import ast
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import seqcert
from seqcert.arithmetic import FLOAT, RATIONAL
from seqcert.errors import ParameterError
from seqcert.fpmaps import ConvexCoefficients, _pair_rows
from seqcert.sampling import (
    SamplingBudget,
    coefficient_samples,
    rational_simplex,
    simplex_points,
    simplex_samples,
    simplex_uniform,
)

# (m, count, seed): (rows, sha256 of json.dumps(rows.tolist()))
RECORDED_EXACT_ROWS = {
    (3, 0, 1): (26, "cc5bd1f601b5d75111a95d5fabc0def39f3976e42a2a0a1de68993bcccbe587e"),
    (3, 30, 5): (56, "fd05c20eec590aa398a651e6d06a0d2dd14ac05e15339d3adc4636a75a078b74"),
    (10, 0, 1): (59048, "77c0ed4810d54bb7ea9b5224ec0220ff5b6a36e0e23944a5bc99b53025c15b97"),
    (10, 30, 5): (59078, "40fd8db70e65e5b316d746bc5bfbde70420abcf5c759e38f798913766a651b58"),
    (11, 30, 5): (30, "7249e9d2e5e669d65d0b691b8ba01fc1038febf7214feee93707a8791642a2cb"),
}

RECORDED_M11_ROWS = [
    [2, -3, -2, -2, -2, 2, 3, 1, -3, -3, -1],
    [0, 1, 0, -2, -2, 1, 2, -3, -3, 0, -1],
    [3, 0, -1, 0, 1, 1, -2, 2, 2, 3, 2],
    [-2, -1, 1, 1, 1, 3, -1, 3, -3, -3, 3],
    [3, -1, -3, -1, -3, 3, 1, 1, -2, 0, -2],
    [2, 0, -3, -2, 1, 0, -1, -2, -3, 1, 1],
    [0, 3, 3, -2, 1, 1, -2, -1, 0, 2, -1],
]


@pytest.mark.parametrize("key", sorted(RECORDED_EXACT_ROWS))
def test_exact_coefficient_rows_are_the_recorded_rows(key):
    m, count, seed = key
    rows = coefficient_samples(m, SamplingBudget(count, seed), exact=True)
    length, digest = RECORDED_EXACT_ROWS[key]
    assert rows.dtype == object and rows.shape == (length, m)
    assert all(type(v) is int for v in rows.flat)
    assert hashlib.sha256(json.dumps(rows.tolist()).encode()).hexdigest() == digest


def test_exact_coefficient_rows_past_the_exhaustive_limit():
    rows = coefficient_samples(11, SamplingBudget(7, 3), exact=True)
    assert rows.tolist() == RECORDED_M11_ROWS
    with pytest.raises(ParameterError, match="empty sampling budget"):
        coefficient_samples(11, SamplingBudget(0, 1), exact=True)


@pytest.mark.parametrize("count", [0, 1, 25])
def test_exact_simplex_samples_are_int_vertices_then_fraction_points(count):
    m = 6
    rows = simplex_samples(m, SamplingBudget(count, 4), exact=True)
    assert rows.dtype == object and rows.shape == (m + count, m)
    assert rows[:m].tolist() == np.eye(m, dtype=int).tolist()
    assert all(type(v) is int for v in rows[:m].flat)
    assert all(type(v) is Fraction for v in rows[m:].flat)
    assert rows[m:].tolist() == [list(t) for t in rational_simplex(m, SamplingBudget(count, 4))]
    for row in rows:
        ConvexCoefficients.of(row)


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
    rows = _pair_rows(n, SamplingBudget(count, 9), include_equal=False, arithmetic=FLOAT)
    X, Y = rows[:, :n], rows[:, n:]
    rng = np.random.default_rng(9)
    first, second = simplex_uniform(rng, count, n), simplex_uniform(rng, count, n)
    vertex_pairs = n * (n - 1)
    assert X[vertex_pairs:].tobytes() == first.tobytes()
    assert Y[vertex_pairs:].tobytes() == second.tobytes()


@pytest.mark.parametrize("count", [0, 1, 7, 40])
def test_rational_pairs_are_halves_of_the_rational_simplex_points(count):
    n = 4
    rows = _pair_rows(n, SamplingBudget(count, 9), include_equal=True, arithmetic=RATIONAL)
    X, Y = rows[:, :n], rows[:, n:]
    points = [list(t) for t in rational_simplex(n, SamplingBudget(count, 9))]
    half = count // 2
    assert X[n * n :].tolist() == points[:half]
    assert Y[n * n :].tolist() == points[half : 2 * half]


def one_draw_pair_rows(n, budget, include_equal, arithmetic):
    """The pair rows as first built: the x and y halves of one
    ``simplex_points`` draw of 2k points, held whole while they are copied."""
    i, j = np.nonzero(~np.eye(n, dtype=bool) | include_equal)
    exact = arithmetic == RATIONAL
    k = budget.count // 2 if exact else budget.count
    pts = simplex_points(n, SamplingBudget(2 * k, budget.seed), exact)
    rows = np.zeros((len(i) + k, 2 * n), dtype=object if exact else float)
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
    rows = _pair_rows(n, budget, include_equal, arithmetic)
    oracle = one_draw_pair_rows(n, budget, include_equal, arithmetic)
    assert rows.dtype == oracle.dtype and rows.shape == oracle.shape
    if arithmetic == FLOAT:
        assert rows.tobytes() == oracle.tobytes()
    else:
        assert rows.tolist() == oracle.tolist()
        assert [type(v) for v in rows.flat] == [type(v) for v in oracle.flat]


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
