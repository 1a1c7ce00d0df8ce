"""The float passes of the shared scan run in row blocks of
``spaces.BLOCK_CELLS`` cells: the blocks change no bit of any row's value or
of any witness, and they keep the scan's working memory near its output."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from seqcert.arithmetic import FLOAT, RATIONAL
from seqcert.sampling import Rows
from seqcert.sequences import DENOM_GUARD, _margin_values, _ratio_extremes, _scan, row_norms
from seqcert.spaces import BLOCK_CELLS, NormTag, blockwise

TAGS = {
    "sup": NormTag.sup(),
    "ell_1": NormTag.ell_p(1),
    "ell_2": NormTag.ell_p(2),
    "lin": NormTag.lin(),
    "james": NormTag.james(2),
}

WIDTH = 96  # coefficient columns
SPAN = 40  # the columns of each span: blocks of BLOCK_CELLS // 40 = 819 rows
B = BLOCK_CELLS // SPAN

# Row counts one below, at and one above a block, and over two blocks with a
# 1-row tail block.
ROW_COUNTS = {"B-1": B - 1, "B": B, "B+1": B + 1, "2B+1": 2 * B + 1}

MARGINS = [((1, 1), (-0.5, 0)), ((1.5, 0), (-1, 1))]
RATIOS = [(1, 0), (0, 1)]


def ratio_extremes(num, den, coeffs):
    """(min, max, argmin row, argmax row, rejected) of the ratios over the
    rows whose den passes the guard and whose ratio is not nan, picked from
    a copy of those rows."""
    ok = den > DENOM_GUARD
    ok[ok] = num[ok] / den[ok] == num[ok] / den[ok]
    ratio, rows = num[ok] / den[ok], coeffs[ok]
    i_min, i_max = int(np.argmin(ratio)), int(np.argmax(ratio))
    return float(ratio[i_min]), float(ratio[i_max]), rows[i_min], rows[i_max], int(np.sum(den <= DENOM_GUARD))


def unblocked_scan(coeffs, norms, margins, ratios):
    """What the scan reports from one ``q.exact(coeffs)`` pass per norm."""
    values = [q.exact(coeffs) for q in norms]
    sums = [_margin_values(m, values) for m in margins]
    extremes = [(float(v[int(np.argmin(v))]), coeffs[int(np.argmin(v))]) for v in sums]
    return values, extremes + [ratio_extremes(values[n], values[d], coeffs) for n, d in ratios]


def assert_same_extremes(got, want):
    """Every value and witness row of two scans' extremes, bit for bit."""
    assert [[np.asarray(x).tobytes() for x in g] for g in got] == [[np.asarray(x).tobytes() for x in w] for w in want]


@pytest.mark.parametrize("rows", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
@pytest.mark.parametrize("tag", TAGS.values(), ids=TAGS.keys())
@pytest.mark.parametrize("overflow", [False, True], ids=["finite", "nan-ratios"])
def test_blocked_float_scan_is_the_unblocked_pass(tag, rows, overflow):
    """A float scan over spans of width 40 evaluates its rows in blocks of
    B = BLOCK_CELLS // 40 rows, the widest row its kernels fill, whatever the
    coefficient width.  Every row's norms, every margin and ratio extreme and
    every witness row are those of one unblocked pass, bit for bit.  With
    ``overflow`` the families are positive and every third row is positive
    and scaled to 1e307, so both of its spans are inf and its ratios
    inf / inf = nan are dropped."""
    rng = np.random.default_rng(rows + WIDTH)
    coeffs = rng.standard_normal((rows, WIDTH))
    X, Y = rng.standard_normal((WIDTH, SPAN)), rng.standard_normal((WIDTH, SPAN))
    if overflow:
        coeffs[::3] = np.abs(coeffs[::3]) * 1e307
        X, Y = np.abs(X) + 0.5, np.abs(Y) + 0.5
    norms = [row_norms(tag, X), row_norms(tag, Y)]
    block_rows = []
    counted = [q._replace(exact=lambda c, q=q: block_rows.append(len(c)) or q.exact(c)) for q in norms]
    with np.errstate(over="ignore", invalid="ignore"):
        values, want = unblocked_scan(coeffs, norms, MARGINS, RATIOS)
        blocked = blockwise([q.exact for q in norms], coeffs, SPAN)
        got = _scan(Rows(coeffs, ""), counted, FLOAT, MARGINS, RATIOS)
    blocks = [min(B, rows - i) for i in range(0, rows, B)]
    assert block_rows == [r for r in blocks for _ in norms]
    for v, b in zip(values, blocked):
        assert v.tobytes() == b.tobytes()
    assert_same_extremes(got, want)
    if overflow:
        assert np.isinf(values[0][::3]).all() and np.isinf(values[1][::3]).all()
        assert np.isfinite(got[2][:2]).all()


def test_blocked_enclosures_keep_the_exact_rational_scan():
    """Rational mode filters its rows through enclosures computed block by
    block; the extremes over the kept rows are those of one exact pass over
    every row.  The lin norm reads the coefficient rows themselves, the
    widest rows here, so 2 * (BLOCK_CELLS // 96) + 1 rows end in a 1-row
    tail block."""
    rng = np.random.default_rng(7)
    coeffs = rng.integers(-3, 4, (2 * (BLOCK_CELLS // WIDTH) + 1, WIDTH)).astype(object)
    X = rng.integers(-2, 3, (WIDTH, 12)).astype(object)
    norms = [row_norms(NormTag.lin()), row_norms(NormTag.ell_p(1), X)]
    margins = [((1, 1), (Fraction(-1, 3), 0))]
    values = [q.exact(coeffs) for q in norms]
    sums = _margin_values(margins[0], values)
    i = int(np.argmin(sums))
    want = [(sums[i], coeffs[i]), _ratio_extremes(values[1], values[0], coeffs, RATIONAL)]
    got = _scan(Rows(coeffs, ""), norms, RATIONAL, margins, [(1, 0)])
    plain = lambda extreme: [x.tolist() if isinstance(x, np.ndarray) else x for x in extreme]
    assert [plain(e) for e in got] == [plain(e) for e in want]


def test_float_scan_memory_stays_near_its_output():
    """A theorem41-shaped bilipschitz scan, 14 032 pair rows of width 126
    over two ell_1 spans of width 64, keeps its traced peak beyond its
    inputs under 2 MB: no row set or span the size of the input is built
    (the input alone takes 14 MB, each full span 7 MB)."""
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((14_032, 126))
    norms = [row_norms(NormTag.ell_p(1), rng.standard_normal((126, 64))) for _ in range(2)]
    tracemalloc.start()
    try:
        _scan(Rows(coeffs, ""), norms, FLOAT, ratios=[(1, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
