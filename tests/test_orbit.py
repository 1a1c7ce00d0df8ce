"""The one orbit generator and the estimates that read it: theta_of_map, the
bi-Lipschitz scan and the ``seqcert orbit`` CSV."""

import numpy as np
import pytest

from seqcert.cli import main
from seqcert.errors import ParameterError
from seqcert.fpmaps import (
    AffineMapSpec,
    _pair_matrices,
    apply_map_batch,
    iterate,
    make_alpha_schedule,
    orbit,
    start_length,
    theta_of_map,
)
from seqcert.sampling import SamplingBudget
from seqcert.sequences import builtin_sequence, padded_difference

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


def theta_loop(spec, s, budget, n_window, tol=1e-9):
    """theta_of_map as a plain loop over the window steps: (theta_hat, x, y,
    holds).  A pair's distance to the step's iterate replaces the best only
    when strictly smaller, so the first step and the first pair win ties."""
    n = start_length(spec.variant, spec.policy, len(s), n_window)
    X, Y = _pair_matrices(n, budget, include_equal=True)
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
    for p, F in enumerate(orbit(spec, np.array(points), 5)):
        for row, t in zip(F, points):
            assert tuple(map(float, row)) == iterate(spec, t, p).t


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
        iterate(AffineMapSpec.right_shift(), (0.5, 0.5), 1)
