"""The one orbit generator and what reads it: the pushed families of the map
scans (theta_of_map, bilipschitz, the residual) and the ``seqcert orbit`` CSV."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcert.cli import RunContext, main, run_check
from seqcert.config import load_config
from seqcert.errors import ParameterError
from seqcert.fpmaps import (
    AffineMapSpec,
    apply_map,
    apply_map_batch,
    make_alpha_schedule,
    orbit,
    start_length,
    theta_of_map,
)
from seqcert.sampling import SamplingBudget, pair_rows
from seqcert.sequences import builtin_sequence

SCHEDULE = make_alpha_schedule(0.5, 1, 1, 1, 12)

# every variant, with both policies where the variant takes one
SPECS = {
    "diag_shift-grow": AffineMapSpec.diag_shift(SCHEDULE, "grow"),
    "diag_shift-fold_tail": AffineMapSpec.diag_shift(SCHEDULE, "fold_tail"),
    "right_shift-grow": AffineMapSpec.right_shift("grow"),
    "right_shift-fold_tail": AffineMapSpec.right_shift("fold_tail"),
    "bilateral": AffineMapSpec.bilateral(),
    "geometric": AffineMapSpec.geometric(),
}


def padded_difference(U, V):
    """The rows u - v of the row pairs of U and V, the narrower zero-padded."""
    diff = np.zeros((len(U), max(U.shape[1], V.shape[1])))
    diff[:, : U.shape[1]] = U
    diff[:, : V.shape[1]] -= V
    return diff


def theta_loop(spec, s, budget, n_window, tol=1e-9):
    """theta_of_map as a plain loop over the window steps that applies the map
    to the pairs' rows: (theta_hat, x, y, holds).  A pair's distance to the
    step's iterate replaces the best only when strictly smaller, so the first
    step and the first pair win ties."""
    n = start_length(spec.variant, spec.policy, len(s), n_window)
    rows = pair_rows(n, budget, include_equal=True).coeffs
    X, Y = rows[:, :n], rows[:, n:]
    lo = (n_window + 1) // 2
    FY = Y
    best = None
    wit = (np.zeros(n), np.zeros(n))
    for step in range(1, n_window + 1):
        FY = apply_map_batch(spec, FY)
        if step < lo:
            continue
        dist = s.span_norm_batch(padded_difference(X, FY))
        i = int(np.argmin(dist))
        if best is None or dist[i] < best:
            best = float(dist[i])
            wit = (X[i], Y[i])
    holds = best is not None and best > tol
    return best, tuple(map(float, wit[0])), tuple(map(float, wit[1])), holds


@pytest.mark.parametrize("pairs", [0, 30])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("family", ["ell1_canonical", "summing_c0", "james_summing", "lin_ell1"])
def test_theta_of_map_is_bitwise_the_window_loop(family, spec_name, pairs):
    s, spec = builtin_sequence(family, 12), SPECS[spec_name]
    for n_window, seed in ((7, 1), (4, 2), (1, 3)):
        budget = SamplingBudget(count=pairs, seed=seed)
        cert = theta_of_map(spec, s, budget, n_window)
        theta_hat, x, y, holds = theta_loop(spec, s, budget, n_window)
        assert type(cert.constants["theta_hat"]) is float
        assert repr(cert.constants["theta_hat"]) == repr(theta_hat)
        assert cert.witness == {"x": x, "y": y}
        assert cert.holds == holds


def exact_spec(spec):
    """spec with its schedule's alphas replaced by their exact Fraction values."""
    if spec.schedule is None:
        return spec
    alphas = tuple(map(Fraction, spec.schedule.alphas))
    return replace(spec, schedule=replace(spec.schedule, alphas=alphas))


@st.composite
def simplex_rows(draw):
    """1-4 Fraction points of the simplex of dimension n: even for bilateral,
    and at most 8 so that three grown diag_shift steps stay within 12 alphas."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    weights = st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(weights, min_size=1, max_size=4))
    return np.array([[Fraction(w, sum(row)) for w in row] for row in rows], dtype=object)


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@settings(max_examples=20, deadline=None)
@given(T=simplex_rows())
def test_orbit_is_the_rows_times_the_orbit_of_the_identity(spec_name, T):
    """Every variant and policy acts on coefficient rows as a matrix:
    f^p(T) = T M_p with M_p = f^p(I), exactly, so a map distance is a span
    over the pushed family M_p X."""
    spec = exact_spec(SPECS[spec_name])
    eye = np.eye(T.shape[1], dtype=object)
    for FT, M in zip(orbit(spec, T, 3), orbit(spec, eye, 3)):
        assert FT.shape == (len(T), M.shape[1])
        assert all(type(x) in (int, Fraction) for x in FT.flat)
        assert np.array_equal(FT, T @ M)


RATIONAL_MAP_CHECKS = """
[sequence]
builtin = lin_ell1
n = 9

[map f]
variant = diag_shift
theta = 1/2

[check bilip]
kind = bilipschitz
map = f
p_max = 2
pairs = 40

[check residual]
kind = fixed_point_residual
map = f
samples = 40

[run]
seed = 1
arithmetic = rational
"""


def test_rational_map_checks_apply_the_map_only_to_the_identity(tmp_path, monkeypatch):
    """The map checks read their rows against the pushed families, so the map
    is applied only to the n x n identity and its iterates, once per step,
    never to the evaluated rows."""
    path = tmp_path / "maps.cfg"
    path.write_text(RATIONAL_MAP_CHECKS)
    cfg = load_config(str(path))
    ctx = RunContext(cfg)
    rows = []

    def recorded(spec, mat):
        rows.append(len(mat))
        return apply_map_batch(spec, mat)

    monkeypatch.setattr("seqcert.fpmaps.apply_map_batch", recorded)
    for check, steps in zip(cfg.checks, (2, 1)):
        rows.clear()
        cert = run_check(ctx, check, 5)
        assert cert.arithmetic == "rational" and cert.holds
        assert rows == [start_length("diag_shift", "grow", 9, steps)] * steps, check.name


def test_orbit_yields_each_iterate_when_read():
    spec = AffineMapSpec.right_shift()
    T = np.eye(3)
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_map_batch(*args)

    gen = orbit(spec, T, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("seqcert.fpmaps.apply_map_batch", counted)
        assert next(gen) is T and not calls
        first = next(gen)
        assert len(calls) == 1
        second = next(gen)
        assert len(calls) == 2
        assert list(gen) == []
    np.testing.assert_array_equal(first, apply_map_batch(spec, T))
    np.testing.assert_array_equal(second, apply_map_batch(spec, first))


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_orbit_rows_are_the_iterates(spec_name):
    spec = SPECS[spec_name]
    points = [(0.25, 0.25, 0.5, 0.0), (0.1, 0.2, 0.3, 0.4)]
    for F in orbit(spec, np.array(points), 5):
        assert [tuple(map(float, row)) for row in F] == points
        points = [apply_map(spec, t).t for t in points]


ORBIT_CONFIG = """
[sequence]
builtin = ell1_canonical
n = 8

[map f]
variant = right_shift

[orbit]
map = f
x = 1/2,1/2
y = delta:1
n_window = 3

[run]
seed = 3
"""


def test_orbit_csv_checks_every_iterate_is_a_simplex_point(tmp_path, monkeypatch, capsys):
    """An iterate that leaves the simplex stops the CSV with exit 2."""
    path = tmp_path / "orbit.cfg"
    path.write_text(ORBIT_CONFIG)
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--config", str(path), "--out", str(out)]) == 0

    def leaky(spec, mat):
        return 0.5 * mat

    monkeypatch.setattr("seqcert.fpmaps.apply_map_batch", leaky)
    out.unlink()
    assert main(["orbit", "--config", str(path), "--out", str(out)]) == 2
    assert "sum to 1" in capsys.readouterr().err
    assert not out.exists()


def test_iterate_checks_every_iterate_is_a_simplex_point(monkeypatch):
    monkeypatch.setattr("seqcert.fpmaps.apply_map_batch", lambda spec, mat: 0.5 * mat)
    with pytest.raises(ParameterError):
        apply_map(AffineMapSpec.right_shift(), (0.5, 0.5))
