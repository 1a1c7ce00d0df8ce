"""Scalar rows: every entry point that takes a row of scalars rejects a
non-finite entry through the one finite check (``spaces.row_array``), and a
summing functional's phi is padded to the ambient length with int zeros."""

from fractions import Fraction

import pytest

from seqcert.arithmetic import FLOAT, RATIONAL, coerce
from seqcert.errors import ParameterError
from seqcert.fpmaps import make_summing_functional
from seqcert.sequences import builtin_sequence
from seqcert.spaces import NormTag, james_power_sum_exact, james_summing_norm, norm, summing_basis_norm

ENTRY_POINTS = {
    "norm": lambda row: norm(row, NormTag.sup()),
    "summing_basis_norm": summing_basis_norm,
    "james_summing_norm": lambda row: james_summing_norm(row, 2),
    "span_norm": lambda row: builtin_sequence("c0_canonical", 3).span_norm(row),
    "james_power_sum_exact": lambda row: james_power_sum_exact(row, 2),
    "make_summing_functional": lambda row: make_summing_functional(builtin_sequence("summing_c0", 3), row),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_scalar_entry_points_reject_a_non_finite_entry(name, bad):
    with pytest.raises(ParameterError, match="non-finite entry"):
        ENTRY_POINTS[name]((1.0, bad, 0.5))


@pytest.mark.parametrize("arithmetic", [FLOAT, RATIONAL])
def test_summing_functional_pads_phi_with_int_zeros(arithmetic):
    """A phi shorter than the ambient becomes a tuple of the ambient length,
    padded with int 0, and gives the gamma, ||phi||* and beta, in value and
    in type, of the phi padded by hand with the mode's zero; a longer phi is
    rejected."""
    s = builtin_sequence("summing_c0", 5)
    phi = tuple(coerce(v, arithmetic) for v in (Fraction(3, 4), Fraction(-1, 4)))
    zero = coerce(Fraction(0), arithmetic)
    short, padded = make_summing_functional(s, phi), make_summing_functional(s, phi + (zero,) * 3)
    assert short.phi == phi + (0, 0, 0)
    assert [type(x) for x in short.phi] == [type(phi[0])] * 2 + [int] * 3
    for name in ("gamma", "norm_phi", "beta"):
        got, want = getattr(short, name), getattr(padded, name)
        assert (got, type(got)) == (want, type(want)), name
    assert (short.gamma, short.norm_phi, short.beta) == (0.5, 1, 0.5)
    with pytest.raises(ParameterError, match="exceeds the ambient length"):
        make_summing_functional(s, phi + (zero,) * 4)
