"""Scalar entry points are one row of their batch kernels.

Each scalar norm, span, map and residual must equal row 0 of the batch
kernel bit for bit; int/Fraction rows keep exact results on the
piecewise-linear norms, and float rows give a built-in ``float``.  The
batch inputs are built here by hand (``object`` rows for exact input,
float rows otherwise), not through the helper the scalar entry points use.

The scalar loops the kernels replaced are kept below as references.  They
must agree exactly wherever the arithmetic is the same (exact rows, sup,
lin, the summing-basis norm, blocks and the shift maps) and within a few
units in the last place per term where the kernels add or raise to powers
in another order (ell_p, james and the geometric fold on float rows).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqcert.blocks import ConvexBlockSpec, build_convex_blocks
from seqcert.fpmaps import (
    AffineMapSpec,
    apply_map,
    apply_map_batch,
    bilateral_targets,
    fixed_point_residual,
    make_alpha_schedule,
    residual_norms,
)
from seqcert.sequences import BasicSequence, builtin_sequence
from seqcert.spaces import (
    NormTag,
    _james_dp_powers,
    james_summing_norm,
    norm,
    norm_batch,
    summing_basis_norm,
    summing_basis_norm_batch,
)

TAGS = {
    "sup": NormTag.sup(),
    "ell1": NormTag.ell_p(1),
    "ell2": NormTag.ell_p(2),
    "ell3.5": NormTag.ell_p(3.5),
    "lin": NormTag.lin(),
    "james2": NormTag.james(2),
    "james3": NormTag.james(3),
}

rng = np.random.default_rng(2024)
FLOAT_ROWS = [tuple(float(x) for x in rng.standard_normal(n)) for n in (1, 5, 12, 17) for _ in range(3)]
INT_ROWS = [(0,), (1, -2, 3), tuple(int(x) for x in rng.integers(-9, 9, 12))]
FRACTION_ROWS = [
    (Fraction(1, 3), Fraction(-2, 7), 1),
    tuple(Fraction(int(x), 11) for x in rng.integers(-20, 20, 12)),
]
EXACT_ROWS = INT_ROWS + FRACTION_ROWS


def batch_row(row) -> np.ndarray:
    exact = not any(isinstance(x, float) for x in row)
    return np.array([row], dtype=object if exact else float)


def same(scalar, batch_entry) -> bool:
    """Equal bits and a built-in scalar type: float for float results."""
    if isinstance(batch_entry, np.floating):
        return type(scalar) is float and scalar.hex() == float(batch_entry).hex()
    return type(scalar) is type(batch_entry) and scalar == batch_entry


@pytest.mark.parametrize("name", sorted(TAGS))
def test_norm_is_row_zero_of_norm_batch(name):
    tag = TAGS[name]
    for row in FLOAT_ROWS + EXACT_ROWS:
        value = norm(row, tag)
        assert same(value, norm_batch(batch_row(row), tag)[0]), (name, row)
        if row in FLOAT_ROWS:
            assert type(value) is float
        elif tag.is_polyhedral():
            assert isinstance(value, (int, Fraction)), (name, row, value)


def test_named_norms_are_rows_of_norm_batch():
    for row in FLOAT_ROWS + EXACT_ROWS:
        assert same(james_summing_norm(row, 3), norm_batch(batch_row(row), NormTag.james(3))[0])
        sb = summing_basis_norm(row)
        assert same(sb, summing_basis_norm_batch(batch_row(row))[0])
        assert type(sb) is float if row in FLOAT_ROWS else isinstance(sb, (int, Fraction))


@pytest.mark.parametrize("name", ["ell1_canonical", "summing_c0", "james_summing", "lin_ell1"])
def test_span_norm_and_span_vector_are_rows_of_the_batch_product(name):
    s = builtin_sequence(name, 12, p=3)
    for row in FLOAT_ROWS + EXACT_ROWS:
        if len(row) > len(s):
            continue
        mat = batch_row(row)
        assert same(s.span_norm(row), s.span_norm_batch(mat)[0])
        vec = s.span_vector(row).entries
        # the row inside a batch: a one-row float ``mat @ X`` is a
        # matrix-vector product, which may round differently
        batch = np.concatenate([mat, np.ones_like(mat)])
        product = (batch @ s.matrix(mat.dtype == object)[: len(row)])[0]
        assert all(same(v, p) for v, p in zip(vec, product))
        assert len(vec) == s.ambient_length


@pytest.mark.parametrize("n", [5, 16, 64])
@pytest.mark.parametrize("family", ["summing_c0", "gaussian"])
def test_one_row_span_is_its_batch_row(family, n):
    """A one-row float span has the bits of the same row inside a batch, on
    families whose vectors overlap, so a product's entries are sums."""
    rng = np.random.default_rng(n)
    if family == "summing_c0":
        s = builtin_sequence("summing_c0", n)
    else:
        s = BasicSequence([tuple(map(float, v)) for v in rng.standard_normal((n, n))], NormTag.ell_p(2))
    rows = rng.standard_normal((300, n))
    batch = rows @ s.matrix()
    norms = s.span_norm_batch(rows)
    for row, vec, value in zip(rows, batch, norms):
        assert repr(s.span_vector(tuple(row)).entries) == repr(tuple(map(float, vec)))
        assert repr(s.span_norm(tuple(row))) == repr(float(value))


@pytest.mark.parametrize("n", [16, 64])
def test_span_is_the_fixed_order_sum_on_summing_c0(n):
    """The float span on a family whose vectors overlap equals sum_i c_i x_i
    added in ascending i, each product rounded before its add, bit for bit.
    A BLAS that fuses or reorders the matrix product fails here instead of
    moving certificate bytes unnoticed."""
    s = builtin_sequence("summing_c0", n)
    rows = np.random.default_rng(n).standard_normal((3000, n))
    basis = s.matrix()
    total = rows[:, :1] * basis[0]
    for i in range(1, n):
        total = total + rows[:, i : i + 1] * basis[i]
    assert s._span(rows).tobytes() == total.tobytes()


def map_specs(n: int, exact: bool):
    schedule = make_alpha_schedule(Fraction(1, 2), 1, 1, 1, n, "rational" if exact else "float")
    return {
        "diag_shift": AffineMapSpec.diag_shift(schedule),
        "diag_shift_fold": AffineMapSpec.diag_shift(schedule, "fold_tail"),
        "right_shift": AffineMapSpec.right_shift(),
        "right_shift_fold": AffineMapSpec.right_shift("fold_tail"),
        "bilateral": AffineMapSpec.bilateral(),
        "geometric": AffineMapSpec.geometric(),
    }


def simplex_rows(n: int):
    w = rng.random(n)
    floats = tuple(float(x) for x in w / w.sum())
    exact = tuple(Fraction(k + 1, n * (n + 1) // 2) for k in range(n))
    return floats, exact


@pytest.mark.parametrize("n", [2, 6, 16])
def test_apply_map_and_residual_are_rows_of_the_batch_kernels(n):
    s = builtin_sequence("ell1_canonical", n + 1)
    s_james = builtin_sequence("james_summing", n + 1, p=3)
    for t in simplex_rows(n):
        exact = not isinstance(t[0], float)
        for name, spec in map_specs(n, exact).items():
            got = apply_map(spec, t).t
            want = apply_map_batch(spec, batch_row(t))[0]
            assert len(got) == len(want) and all(same(g, w) for g, w in zip(got, want)), name
            assert all(not isinstance(g, float) for g in got) if exact else all(type(g) is float for g in got)
            # the residual check's kernel, on a batch of two rows
            rows = np.concatenate([batch_row(t), batch_row(t[::-1])])
            for fam in (s, s_james):
                want = residual_norms(spec, fam, n, exact).exact(rows)[0]
                assert same(fixed_point_residual(spec, t, fam), want)


def test_exact_right_shift_keeps_int_entries():
    got = apply_map(AffineMapSpec.right_shift(), (1, 0, 0)).t
    assert got == (0, 1, 0, 0)
    assert all(type(x) is int for x in got)
    assert apply_map(AffineMapSpec.right_shift(), got).t == (0, 0, 1, 0, 0)


# ---------------------------------------------------------------------------
# The replaced scalar loops, as references
# ---------------------------------------------------------------------------


def loop_norm(entries, tag):
    if tag.variant == "sup":
        return max((abs(e) for e in entries), default=0)
    if tag.variant == "ell_p":
        if tag.p == 1:
            return sum((abs(e) for e in entries), 0)
        total = sum((abs(float(e)) ** float(tag.p) for e in entries), 0.0)
        return total ** (1.0 / float(tag.p))
    if tag.variant == "lin":
        exact = not any(isinstance(e, float) for e in entries)
        best = tail = 0
        for k in range(len(entries), 0, -1):
            tail = tail + abs(entries[k - 1])
            w = Fraction(8**k, 1 + 8**k) if exact else 1.0 / (1.0 + 8.0 ** (-k))
            best = max(best, w * tail)
        return best
    prefix = [0.0]
    for e in entries:
        prefix.append(prefix[-1] + float(e))
    return _james_dp_powers(prefix, float(tag.p)) ** (1.0 / float(tag.p))


def loop_summing_basis_norm(entries):
    best = tail = 0
    for e in reversed(entries):
        tail = tail + e
        best = max(best, abs(tail))
    return best


def loop_apply_map(variant, ts, alphas=None):
    """One grow-policy application of the shift maps, or one geometric fold."""
    n = len(ts)
    exact = not any(isinstance(x, float) for x in ts)
    zero = 0 if exact else 0.0
    if variant == "right_shift":
        return (zero,) + tuple(ts)
    if variant == "diag_shift":
        out = [(1 - alphas[0]) * ts[0]]
        out += [(1 - alphas[k]) * ts[k] + alphas[k - 1] * ts[k - 1] for k in range(1, n)]
        return tuple(out) + (alphas[n - 1] * ts[n - 1],)
    if variant == "bilateral":
        out = [zero] * n
        for s, tgt in enumerate(bilateral_targets(n), start=1):
            out[tgt - 1] = ts[s - 1]
        return tuple(out)
    out = [zero] * n
    half = Fraction(1, 2) if exact else 0.5
    w = half
    for j in range(1, n):
        for k in range(n - 1 - j):
            out[k + j] = out[k + j] + w * ts[k]
        w = w * half
    out[n - 1] = sum(ts, zero) - sum(out[: n - 1], zero)
    return tuple(out)


def close(a, b, terms: int) -> bool:
    """Equal up to 8 units in the last place per term."""
    return math.isclose(a, b, rel_tol=8 * max(terms, 1) * np.finfo(float).eps, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(TAGS))
def test_norm_against_the_replaced_loop(name):
    tag = TAGS[name]
    for row in EXACT_ROWS:
        want = loop_norm(row, tag)
        if tag.is_polyhedral():
            assert norm(row, tag) == want and type(norm(row, tag)) is type(want), (name, row)
        else:
            assert close(norm(row, tag), want, len(row)), (name, row)
    for row in FLOAT_ROWS:
        if tag.variant in ("sup", "lin"):
            assert norm(row, tag) == loop_norm(row, tag), (name, row)
        else:
            assert close(norm(row, tag), loop_norm(row, tag), len(row)), (name, row)
        assert summing_basis_norm(row) == loop_summing_basis_norm(row)


@pytest.mark.parametrize("n", [2, 6, 16])
def test_maps_against_the_replaced_loop(n):
    for t in simplex_rows(n):
        exact = not isinstance(t[0], float)
        specs = map_specs(n, exact)
        for variant in ("diag_shift", "right_shift", "bilateral", "geometric"):
            got = apply_map(specs[variant], t).t
            want = loop_apply_map(variant, t, specs["diag_shift"].schedule.alphas)
            if exact or variant != "geometric":
                assert got == want, variant
            else:
                assert all(close(g, w, n) for g, w in zip(got, want)), variant


def test_blocks_against_the_replaced_loop():
    rows = [tuple(float(x) for x in rng.standard_normal(12)) for _ in range(12)]
    s = BasicSequence(rows, NormTag.ell_p(1))
    spec = ConvexBlockSpec(
        blocks=((1, 2, 3), (4, 5, 6, 7), (8, 9), (10, 11, 12)),
        weights=((0.2, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4), (0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)),
    )
    want = []
    for blk, wts in zip(spec.blocks, spec.weights):
        acc = [0] * 12
        for i, w in zip(blk, wts):
            if w:
                acc = [a + w * x for a, x in zip(acc, rows[i - 1])]
        want.append(tuple(acc))
    assert [v.entries for v in build_convex_blocks(s, spec).vectors] == want
