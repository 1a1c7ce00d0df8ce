"""Float enclosures of the exact kernels, and the rational scans built on them.

``spaces.norm_enclosure``, and the enclosure of the summing-basis norm that
``sequences.summing_norms`` builds from it (the sup norm of c @ U), must
contain the exact value: |float - exact| <= radius, checked here in
``Fraction`` arithmetic on int rows, ``rational_simplex`` rows and convex
block families with weights (1/2, 1/2) and (1/3, 2/3), whose entries do not
round exactly.

A rational scan evaluates exactly only the rows whose float interval can
reach an extreme of a margin or a ratio it declares.  Its results must be
those of the full exact scan, which evaluates every row: the same values,
the same first witness row and the same count of rejected (zero)
denominators, also when many rows tie.  Rational summing_equivalence and
fixed_point_residual must evaluate fewer than 1% of their rows exactly, and
no module but ``sequences`` may name the scan's internals.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import seqcert
from seqcert.arithmetic import RATIONAL
from seqcert.blocks import ConvexBlockSpec, build_convex_blocks, summing_equivalence_check
from seqcert.checks import CHECKS
from seqcert.cli import RunContext
from seqcert.config import load_config
from seqcert.sampling import Rows, SamplingBudget, rational_simplex
from seqcert.sequences import (
    RowNorms,
    _ratio_extremes,
    _scan,
    builtin_sequence,
    row_norms,
    summing_norms,
)
from seqcert.spaces import (
    NormTag,
    norm_batch,
    norm_enclosure,
    summing_basis_norm_batch,
)

TAGS = [NormTag.sup(), NormTag.ell_p(1), NormTag.lin()]


def blocks(name, n, weights):
    """Pair blocks of ``name`` at truncation n, every block weighted by ``weights``."""
    sets = tuple((i, i + 1) for i in range(1, n, 2))
    spec = ConvexBlockSpec(blocks=sets, weights=(weights,) * len(sets))
    return build_convex_blocks(builtin_sequence(name, n), spec)


HALF, THIRDS = (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))
FAMILIES = {
    "c0_canonical": builtin_sequence("c0_canonical", 5),
    "summing_c0": builtin_sequence("summing_c0", 5),
    "lin_ell1": builtin_sequence("lin_ell1", 6),
    "lin_blocks_half": blocks("lin_ell1", 8, HALF),
    "lin_blocks_thirds": blocks("lin_ell1", 8, THIRDS),
    "c0_blocks_thirds": blocks("c0_canonical", 10, THIRDS),
}


@st.composite
def coefficient_rows(draw, m):
    """An object array of m-wide rows: small ints (zero rows and repeats
    included), ``rational_simplex`` points, or small fractions."""
    kind = draw(st.sampled_from(["int", "simplex", "fraction"]))
    count = draw(st.integers(1, 12))
    if kind == "simplex":
        rows = rational_simplex(m, SamplingBudget(count=count, seed=draw(st.integers(0, 2**16))))
    else:
        entry = st.integers(-4, 4)
        if kind == "fraction":
            entry = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
        rows = draw(st.lists(st.tuples(*[entry] * m), min_size=count, max_size=count))
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # exact repeats tie
    return np.array(rows, dtype=object)


@st.composite
def scan_input(draw):
    """(family matrix or None, coefficient rows) of matching widths."""
    name = draw(st.sampled_from([None, *sorted(FAMILIES)]))
    basis = None if name is None else FAMILIES[name].matrix(exact=True)
    m = draw(st.integers(1, 5)) if basis is None else len(basis)
    return basis, draw(coefficient_rows(m))


def assert_encloses(value, radius, exact):
    assert np.all(np.isfinite(radius))
    for v, r, e in zip(value, radius, exact):
        assert abs(Fraction(float(v)) - Fraction(e)) <= Fraction(float(r)), (v, r, e)


@given(scan_input(), st.sampled_from(TAGS))
def test_norm_enclosure_contains_the_exact_norm(inp, tag):
    basis, coeffs = inp
    exact = norm_batch(coeffs if basis is None else coeffs @ basis, tag)
    assert_encloses(*norm_enclosure(coeffs, tag, basis), exact)


@given(scan_input())
def test_summing_basis_enclosure_contains_the_exact_norm(inp):
    _, coeffs = inp
    assert_encloses(*summing_norms().enclosure(coeffs), summing_basis_norm_batch(coeffs))


@pytest.mark.parametrize(
    "row",
    [
        (Fraction(1, 2**1100), 1),  # rounds to 0.0 in float
        (Fraction(1, 2**600), 1),  # subnormal products
        (10**400, 1),  # beyond the float range
    ],
)
def test_rows_outside_the_rounding_model_are_not_enclosed(row):
    coeffs = np.array([row, (1, 2)], dtype=object)
    for value, radius in (
        norm_enclosure(coeffs, NormTag.lin(), FAMILIES["lin_blocks_thirds"].matrix(True)[:2]),
        summing_norms().enclosure(coeffs),
    ):
        assert radius[0] == np.inf
        assert np.isfinite(value).all()
    assert np.isfinite(norm_enclosure(coeffs[1:], NormTag.lin())[1]).all()


def test_enclosure_rejects_a_norm_that_is_not_piecewise_linear():
    with pytest.raises(Exception, match="no float enclosure"):
        norm_enclosure(np.array([(1, 2)], dtype=object), NormTag.ell_p(2))


def counting(norms: RowNorms, counter: list) -> RowNorms:
    def exact(c):
        counter.append(len(c))
        return norms.exact(c)

    return RowNorms(exact, norms.enclosure)


def ratio_scan(coeffs, nums, den):
    """The num/den ratio of each num in ``nums``, through ``_scan``."""
    ratios = [(i, 0) for i in range(1, len(nums) + 1)]
    return _scan(Rows(coeffs, ""), [den, *nums], RATIONAL, ratios=ratios)


def full_scan(coeffs, nums, den):
    """The scan before filtering: every row evaluated exactly."""
    d = den.exact(coeffs)
    return [_ratio_extremes(n.exact(coeffs), d, coeffs, RATIONAL) for n in nums]


def comparable(scans):
    return [(lo, hi, tuple(r_lo), tuple(r_hi), rej) for lo, hi, r_lo, r_hi, rej in scans]


def filtered_equals_full(coeffs, nums, den):
    """Assert the filtered scan equals the full one; return the rows evaluated exactly."""
    evaluated = []
    got = ratio_scan(coeffs, nums, counting(den, evaluated))
    assert comparable(got) == comparable(full_scan(coeffs, nums, den))
    return evaluated[0]


@given(scan_input(), scan_input(), st.sampled_from(TAGS), st.sampled_from(TAGS))
def test_filtered_ratio_scan_equals_the_full_scan(num_in, den_in, num_tag, den_tag):
    basis, coeffs = num_in
    den_basis = den_in[0] if den_in[0] is not None and len(den_in[0]) == coeffs.shape[1] else None
    num, den = row_norms(num_tag, basis), row_norms(den_tag, den_basis)
    try:
        expected = full_scan(coeffs, [num], den)
    except Exception as exc:  # every denominator vanished: the filtered scan must say so too
        with pytest.raises(type(exc)):
            ratio_scan(coeffs, [num], den)
        return
    assert comparable(ratio_scan(coeffs, [num], den)) == comparable(expected)


def sign_rows(m):
    grid = np.array(np.meshgrid(*[(-1, 0, 1)] * m, indexing="ij"), dtype=object).reshape(m, -1).T
    return grid[np.any(grid != 0, axis=1)]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_scans_equal_the_full_scan(name):
    """The scans of equivalence (against summing_c0), wide_s, wuc and shifts."""
    s = FAMILIES[name]
    simplex = np.array(rational_simplex(len(s), SamplingBudget(40, 3)), dtype=object)
    coeffs = np.concatenate([sign_rows(len(s)), simplex])
    other = builtin_sequence("summing_c0", len(s))
    filtered_equals_full(coeffs, [other.span_norms()], s.span_norms())
    filtered_equals_full(coeffs, [s.span_norms()], summing_norms())
    filtered_equals_full(coeffs, [s.span_norms()], row_norms(NormTag.sup()))
    short = coeffs[:, :-2]
    filtered_equals_full(short, [s.span_norms(1), s.span_norms(2)], s.span_norms())


def test_heavy_ties_keep_every_tied_row():
    """On c0_canonical each sign row's sup norm equals its ell_infty coefficient
    norm: every ratio ties at 1, so every row is evaluated exactly and the
    witnesses are the first row."""
    s = builtin_sequence("c0_canonical", 6)
    coeffs = sign_rows(6)
    sup = row_norms(NormTag.sup())
    evaluated = filtered_equals_full(coeffs, [s.span_norms()], sup)
    assert evaluated == len(coeffs)
    [(lo, hi, r_lo, r_hi, _)] = ratio_scan(coeffs, [s.span_norms()], sup)
    assert lo == hi == 1 and tuple(r_lo) == tuple(r_hi) == tuple(coeffs[0])


def test_filter_keeps_few_rows_when_the_extremes_are_isolated():
    s = FAMILIES["lin_ell1"]
    coeffs = sign_rows(len(s))
    other = builtin_sequence("summing_c0", len(s))
    evaluated = filtered_equals_full(coeffs, [other.span_norms()], s.span_norms())
    assert evaluated < len(coeffs) // 4


def test_zero_denominators_are_all_evaluated_and_rejected():
    """Exact zero denominators, a positive one too small for the rounding
    model, and ties at both extremes."""
    third = Fraction(1, 3)
    tiny = Fraction(1, 2**600)
    rows = [(0, 0), (1, 0), (0, tiny), (third, 2 * third), (0, 0), (1, 0), (0, 1), (third, 2 * third)]
    coeffs = np.array(rows, dtype=object)
    num = row_norms(NormTag.lin(), FAMILIES["lin_blocks_thirds"].matrix(True)[:2])
    den = row_norms(NormTag.sup())
    [(_, _, _, _, rejected)] = ratio_scan(coeffs, [num], den)
    assert rejected == 2
    assert filtered_equals_full(coeffs, [num], den) >= 4  # both zeros, the tiny row, an extreme
    with pytest.raises(Exception, match="all denominators vanished"):
        ratio_scan(coeffs[[0, 4]], [num], den)


CONSTANTS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@given(scan_input(), st.sampled_from(TAGS), CONSTANTS, CONSTANTS)
def test_margin_minimum_equals_the_full_scan(inp, tag, a, b):
    """min over rows of a*||c|| + b*||c @ X||, the form of the lemma79 and psp margins."""
    basis, coeffs = inp
    plain, spanned = row_norms(tag), row_norms(tag, basis)
    [(margin, row)] = _scan(Rows(coeffs, ""), [plain, spanned], RATIONAL, margins=[((a, 0), (b, 1))])
    full = a * plain.exact(coeffs) + b * spanned.exact(coeffs)
    j = int(np.argmin(full))
    assert margin == full[j]
    assert tuple(row) == tuple(coeffs[j])


INDEX = st.integers(0, 2)
MARGIN = st.tuples(st.tuples(CONSTANTS, INDEX), st.tuples(CONSTANTS, INDEX))


@given(
    scan_input(),
    st.sampled_from(TAGS),
    st.lists(MARGIN, min_size=1, max_size=3),
    st.lists(st.tuples(INDEX, INDEX), max_size=2),
)
def test_scan_equals_the_full_exact_evaluation(inp, tag, margins, ratios):
    """Margins a*q_i + b*q_j and ratios q_n / q_d over three norms of each row
    (the tag's norm of c and of c @ X, and the summing-basis norm of c):
    the same values, types, first witness rows and rejected counts as
    evaluating every row exactly."""
    basis, coeffs = inp
    norms = [row_norms(tag), row_norms(tag, basis), summing_norms()]
    values = [q.exact(coeffs) for q in norms]
    expected = []
    for (a, i), (b, j) in margins:
        full = a * values[i] + b * values[j]
        k = int(np.argmin(full))
        expected.append((full[k], type(full[k]), tuple(coeffs[k])))
    try:
        full_ratios = [_ratio_extremes(values[n], values[d], coeffs, RATIONAL) for n, d in ratios]
    except Exception as exc:  # every denominator of a ratio vanished
        with pytest.raises(type(exc)):
            _scan(Rows(coeffs, ""), norms, RATIONAL, margins, ratios)
        return
    found = _scan(Rows(coeffs, ""), norms, RATIONAL, margins, ratios)
    got = [(value, type(value), tuple(row)) for value, row in found[: len(margins)]]
    assert got == expected
    assert comparable(found[len(margins) :]) == comparable(full_ratios)


SUMMING_EQUIVALENCE_LIN9 = {
    "kind": "summing_equivalence",
    "constants": {
        "c1": "1/100",
        "c2": 3,
        "margin_lower": "791/900",
        "margin_upper": "-2/1",
        "skipped_zero_norm": 0,
    },
    "holds": False,
    "witness": {
        "worst_lower": [-1, 0, 0, 0, 0, 0, 0, 0, 0],
        "worst_upper": [-1, -1, 1, -1, 1, -1, 1, -1, 1],
    },
    "mode": "exhaustive+sampled(count=200,seed=5)",
    "arithmetic": "rational",
    "flags": [],
}


def test_rational_summing_equivalence_evaluates_few_rows_exactly(monkeypatch):
    """The certificate was recorded when every row was evaluated exactly."""
    evaluated = []
    norms = counting(summing_norms(), evaluated)
    monkeypatch.setattr("seqcert.blocks.summing_norms", lambda: norms)
    s = builtin_sequence("lin_ell1", 9)
    cert = summing_equivalence_check(s, Fraction(1, 100), 3, SamplingBudget(200, 5), RATIONAL)
    assert cert.to_json_dict() == SUMMING_EQUIVALENCE_LIN9
    rows = 3**9 - 1 + 200
    assert 0 < sum(evaluated) < rows / 100


RESIDUAL_CONFIG = """
[sequence]
builtin = lin_ell1
n = 9

[map f]
variant = diag_shift
theta = 1/2

[check res]
kind = fixed_point_residual
map = f
samples = 200

[run]
seed = 1
arithmetic = rational
"""


def test_rational_residual_evaluates_few_rows_exactly(tmp_path, monkeypatch):
    """The certificate was recorded when every row was evaluated exactly.
    Its mode was re-recorded when it began to count the n vertices it
    evaluates (it read "exhaustive+..." though no sign pattern is drawn)."""
    path = tmp_path / "residual.cfg"
    path.write_text(RESIDUAL_CONFIG)
    cfg = load_config(str(path))
    ctx = RunContext(cfg)
    evaluated = []
    norm_batch = seqcert.sequences.norm_batch

    def counted(mat, tag):  # the exact side of the check's ``row_norms``
        evaluated.append(len(mat))
        return norm_batch(mat, tag)

    monkeypatch.setattr(seqcert.sequences, "norm_batch", counted)
    cert = CHECKS["fixed_point_residual"].run(ctx, cfg.checks[0].args, 5)
    assert cert.to_json_dict() == {
        "kind": "fixed_point_residual",
        "constants": {"evaluated": 208, "min_residual": "14913081/17179870208"},
        "holds": True,
        "witness": {"argmin": [0, 0, 0, 0, 0, 0, 0, 1]},
        "mode": "vertices(8)+sampled(count=200,seed=5)",
        "arithmetic": "rational",
        "flags": [],
    }
    assert 0 < sum(evaluated) < 208 / 100


SCAN_INTERNALS = {"_scan_rows", "_combination", "_can_reach_min", "_ratio_reach", "_ratio_extremes"}


def test_only_sequences_names_the_scan_internals():
    """Every margin and ratio is declared through ``_scan``, so no other
    module builds a filter or an extreme of its own."""
    offenders = []
    for path in sorted(Path(seqcert.__file__).parent.glob("*.py")):
        if path.name == "sequences.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names & SCAN_INTERNALS]
    assert offenders == []
