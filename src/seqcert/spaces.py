"""Norm evaluators for truncated sequence spaces.

Four norms are implemented over finite coefficient vectors, indexed 1..N:

* ``sup``:    max_n |x(n)|.
* ``ell_p``:  (sum_n |x(n)|^p)^(1/p), p >= 1.
* ``lin``:    max_{1<=k<=N} (8^k / (1 + 8^k)) * sum_{n=k}^{N} |x(n)|,
              a weighted tail-sum renorm of ell_1.  Every weight lies in
              [8/9, 1), so (8/9)*||x||_1 <= lin(x) <= ||x||_1.
* ``james``:  coefficients are read against the summing family
              u_n = e_1 + ... + e_n, and the norm is
              sup over interval chains 1 <= p_0 < ... < p_n <= N+1 of
              (sum_k |a_{p_{k-1}} + ... + a_{p_k - 1}|^p)^(1/p), p > 1.

The ``james`` supremum is computed by dynamic programming over families of
disjoint contiguous intervals.  Inserting the gap between two chosen blocks
as an extra block never decreases the sum, so the optimum over arbitrary
disjoint interval families equals the optimum over contiguous chains; the
DP may therefore leave indices uncovered on either side or in the middle.
``james_power_sums_batch`` is that one DP.  It takes one vector step per
prefix width over every interval start at once, on blocks of rows small
enough for its tables to stay in L2, and stops each block at its last
nonzero column, past which the optimum repeats bit for bit; a max is exact,
so no bit depends on the blocks.  The step squares a difference in place
for p = 2 (the square of -d is that of d, so no ``abs``), and its column
max needs no running max beside it: the candidate whose last block is {j}
adds a nonnegative term to best[j-1], the value of leaving j uncovered,
and rounding is monotone.

Each norm is written once, as a batch kernel over the rows of a 2-D numpy
array.  A float array is evaluated in float; an ``object`` array holding
int/Fraction entries keeps them, so the piecewise-linear norms (sup, ell_1,
lin, and the summing-basis norm) are exact on it.  Exact lin runs on
integer keys (``_lin_exact``): the tail sums of |D x|, D the lcm of the
entries' denominators (``integer_keys``), times the integer weights
L * 8^k / (1 + 8^k), L the lcm of the 1 + 8^k: one Fraction a row.  Exact
products run on the same keys: ``sequences._span_rows`` multiplies two
``object`` arrays as the integer matrices of their ``integer_keys`` (in
``int64`` when no partial sum can overflow) and divides each entry once, and
``IntegerKeys.fractions`` tells it which entries the ``object`` matmul would
have made Fractions, so no value and no type changes.  The scalar
entry points (``norm``, ``james_summing_norm``, ``summing_basis_norm``)
evaluate one row of that kernel: ``row_array`` makes a row with no float
entry an ``object`` row, so exact inputs stay exact, and ``scalar`` returns
the result as a built-in float, int or Fraction.  The ``james`` power sum
is exact for integer p via ``james_power_sum_exact``, a separate scalar DP
kept as an independent check of the batch DP.

The sup, float lin and summing-basis kernels share ``_column_max``.  On a
narrow block, with at least ``NARROW_ROWS`` rows per column, it keeps the
running tail sum and the running max one column at a time, which skips the
set-up numpy pays for every row of a reduction along short rows; a wider
block is reduced along its rows.  The tail sums add in the order of the
reversed ``cumsum`` they replace, a max is exact, and a tie keeps the
earlier column's entry as ``np.max`` does, so no bit and no result type
depends on the loop.

Each exact kernel that a certificate scan reads has a float enclosure,
``norm_enclosure`` (sup, ell_1 and lin, of the rows or of their product
with a family matrix): it evaluates the float image of the exact rows
and returns ``(value, radius)`` with |value - exact| <= radius for every
row.  The summing-basis norm is the sup norm of c @ U, U the
lower-triangular ones matrix whose rows are the u_i, so its enclosure is
the sup enclosure of c @ U.  The radius is the a-priori bound
2 * gamma_K * S, where S = || |c| |X| ||_1 is computed from the float images
and gamma_K = K u / (1 - K u) (N. J. Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, section 3.1); ``norm_enclosure`` gives the
argument.  Rational scans use these intervals to decide which rows can
reach an extreme, and evaluate only those exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import Real, is_finite
from .errors import ParameterError

SUP = "sup"
ELL_P = "ell_p"
JAMES = "james"
LIN = "lin"


@dataclass(frozen=True)
class NormTag:
    """Which norm to evaluate; ``p`` is present exactly for ell_p and james."""

    variant: str
    p: Optional[Real] = None

    def __post_init__(self):
        if self.variant not in (SUP, ELL_P, JAMES, LIN):
            raise ParameterError(f"unknown norm variant {self.variant!r}")
        if self.variant in (SUP, LIN):
            if self.p is not None:
                raise ParameterError(f"{self.variant} norm takes no p parameter")
        elif self.p is None:
            raise ParameterError(f"{self.variant} norm requires a p parameter")
        elif self.variant == ELL_P and not self.p >= 1:
            raise ParameterError(f"ell_p requires p >= 1, got {self.p}")
        elif self.variant == JAMES and not self.p > 1:
            raise ParameterError(f"james requires p > 1, got {self.p}")

    @staticmethod
    def sup() -> "NormTag":
        return NormTag(SUP)

    @staticmethod
    def ell_p(p: Real) -> "NormTag":
        return NormTag(ELL_P, p)

    @staticmethod
    def james(p: Real) -> "NormTag":
        return NormTag(JAMES, p)

    @staticmethod
    def lin() -> "NormTag":
        return NormTag(LIN)

    def label(self) -> str:
        if self.variant in (SUP, LIN):
            return self.variant
        return f"{self.variant}({self.p})"

    def is_polyhedral(self) -> bool:
        """True when the norm is piecewise linear, hence exactly evaluable."""
        return self.variant in (SUP, LIN) or (self.variant == ELL_P and self.p == 1)


def require_exact(tag: NormTag) -> None:
    """Raise ParameterError unless rational mode can evaluate the norm exactly."""
    if not tag.is_polyhedral():
        raise ParameterError(f"rational mode requires a piecewise-linear norm, got {tag.label()}")


@dataclass(frozen=True)
class CoordinateVector:
    """Finite real coefficient tuple; the zero-length vector is valid."""

    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for x in self.entries:
            if not is_finite(x):
                raise ParameterError(f"non-finite entry {x!r} in coordinate vector")

    @staticmethod
    def of(entries: Sequence[Real]) -> "CoordinateVector":
        if isinstance(entries, CoordinateVector):
            return entries
        return CoordinateVector(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Real:
        return self.entries[i]

    def padded(self, n: int) -> "CoordinateVector":
        if len(self.entries) >= n:
            return self
        return CoordinateVector(self.entries + (0,) * (n - len(self.entries)))


def summing_basis_norm(a) -> Real:
    """max_{1<=k<=N} |sum_{i=k}^{N} a_i|; the sup-norm of sum a_i (e_1+...+e_i)."""
    return scalar(summing_basis_norm_batch(row_array([a]))[0])


def _james_dp_powers(prefix, p):
    """DP over disjoint contiguous intervals; returns max sum of |block|^p.

    best[j] = best value using indices within 1..j; a block may start at any
    i <= j, and index j may also stay uncovered.
    """
    n = len(prefix) - 1
    best = [0] * (n + 1)
    for j in range(1, n + 1):
        cand = best[j - 1]
        pj = prefix[j]
        for i in range(1, j + 1):
            block = abs(pj - prefix[i - 1]) ** p
            v = best[i - 1] + block
            if v > cand:
                cand = v
        best[j] = cand
    return best[n]


def james_power_sum_exact(a, p: int) -> Fraction:
    """Exact maximal interval-chain power sum for integer p >= 2.

    The returned value is the norm raised to the p-th power, which is a
    rational number whenever the entries are rational.
    """
    if not (isinstance(p, int) and p >= 2):
        raise ParameterError(f"exact james power sum needs integer p >= 2, got {p}")
    entries = CoordinateVector.of(a).entries
    prefix = [Fraction(0)]
    for e in entries:
        prefix.append(prefix[-1] + Fraction(e))
    return _james_dp_powers(prefix, p)


def james_summing_norm(a, p: Real) -> float:
    """Norm of sum a_n u_n against the summing family of the p-jamesification:
    the O(N^2) DP of ``james_power_sums_batch``."""
    return norm(a, NormTag.james(p))


def norm(v, tag: NormTag) -> Real:
    """Dispatch over the supported norms; zero iff v is the zero vector."""
    return scalar(norm_batch(row_array([v]), tag)[0])


# ---------------------------------------------------------------------------
# Batch backends: rows of a 2-D array are independent vectors.  Object
# arrays of exact scalars stay exact; every other array is read as float.
# ---------------------------------------------------------------------------


def as_rows(mat) -> np.ndarray:
    """``mat`` as an array of rows: object arrays keep their exact entries,
    anything else becomes float."""
    mat = np.asarray(mat)
    return mat if mat.dtype == object else np.asarray(mat, dtype=float)


def row_array(rows) -> np.ndarray:
    """Coordinate rows as a 2-D array for the batch kernels: an ``object``
    array when no entry is a float, so int/Fraction entries stay exact
    (``as_rows`` would read them as float), else a float array."""
    rows = [CoordinateVector.of(r).entries for r in rows]
    exact = not any(isinstance(x, float) for r in rows for x in r)
    return np.array(rows, dtype=object if exact else float)


def scalar(x) -> Real:
    """One entry of a kernel result as a built-in scalar: float from float
    rows, the exact int/Fraction (or float) otherwise."""
    return float(x) if isinstance(x, np.floating) else x


def lin_weights_float(n: int) -> np.ndarray:
    ks = np.arange(1, n + 1, dtype=float)
    return 1.0 / (1.0 + 8.0 ** (-ks))


# Full-row float passes take their rows in ``blockwise`` blocks of
# max(1, BLOCK_CELLS // N) rows, N the width of the widest rows they fill, so
# each table or temporary they fill holds about 2^15 floats (256 KB) and
# stays in L2: the james DP's three (N+1) x rows tables, and each span and
# kernel temporary of a float scan (``sequences._scan``).
BLOCK_CELLS = 1 << 15


def blockwise(fns: Sequence[Callable], mat: np.ndarray, width: int) -> list:
    """[fn(mat) for fn in fns] for functions with one result per row (an
    array, or a tuple of arrays such as an enclosure's (value, radius)),
    evaluated on blocks of max(1, BLOCK_CELLS // width) rows and joined along
    the rows, ``width`` being that of the widest rows the functions fill.  No
    table or temporary the size of mat is built.  The kernels are
    row-independent (``sequences._span_rows`` rounds a one-row block like its
    batch row), so no bit depends on the blocks."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    parts = [[fn(mat[i : i + step]) for fn in fns] for i in range(0, max(len(mat), 1), step)]
    # axis=-1 joins 1-D results, and each (value, radius) as a 2 x rows array
    return [np.concatenate(col, axis=-1) for col in zip(*parts)]


def james_power_sums_batch(mat: np.ndarray, p: Real) -> np.ndarray:
    """Maximal interval-chain power sums (the norm before the 1/p root) of
    every row of ``mat``, as one float per row.

    One O(N^2) DP: ``best[j]`` is the optimum over indices 1..j, a block may
    start at any i <= j, and index j may also stay uncovered; the result is
    ``best[N]``.  On integer inputs with integer p every intermediate value
    is an integer well below 2^53, so the result is exact.

    The rows go through in ``blockwise`` blocks.  A block's
    tables ``prefix`` and ``best`` are (w+1) x rows and C-contiguous, and
    each width j is one vector step over every start i = 1..j at once: the
    j x rows candidates best[i-1] + |prefix[j] - prefix[i-1]|^p fill the
    top of one reused buffer (filled with prefix[j], then prefix[i-1]
    subtracted in place, the same IEEE subtraction), and best[j] is their
    column max.  Two facts make this the textbook step bit for bit.  For
    p = 2 the difference d is squared in place with no ``abs``: (-d)^2 ==
    d^2 exactly, and numpy's ``**= 2.0`` is that same square.  And the
    candidate with i = j is best[j-1] plus a nonnegative term, which
    round-to-nearest never rounds below best[j-1] (rounding is monotone),
    so the column max is already at least best[j-1] and the running max
    max(best[j], best[j-1]) of the one-start-at-a-time DP changes no bit.
    Each entry goes through the same elementwise operations as in that DP
    on rows x (N+1) tables, and a max is exact whatever order it takes its
    operands in, so the bits do not depend on the layout, on the block
    boundaries or on how many rows are evaluated together.

    A block stops at w, its last column with a nonzero entry (an all-zero
    block at w = 0, with power sum 0.0).  Past w every prefix sum repeats
    exactly: adding +-0.0 leaves a value unchanged, or changes only the sign
    of a zero, and the power step (``abs``, or the square) drops that sign.
    So every candidate of a width j > w is a candidate of width w or a
    best[i-1] plus 0.0, and best[j] == best[j-1] bit for bit.

    A row with an infinite prefix sum gets inf, the correctly rounded
    result: the block that ends at that prefix already overflows.  The DP
    would give inf - inf = nan for it instead, the only way a nan arises;
    a difference of two finite prefix sums that overflows is inf, and stays
    inf through the power and the max.
    """
    mat = np.asarray(mat, dtype=float)
    [sums] = blockwise([lambda block: _james_block(block, float(p))], mat, mat.shape[1])
    return sums


def _james_block(chunk: np.ndarray, p: float) -> np.ndarray:
    """``james_power_sums_batch`` of one block of rows."""
    nonzero = np.flatnonzero(chunk.any(axis=0))
    w = int(nonzero[-1]) + 1 if len(nonzero) else 0
    prefix = np.zeros((w + 1, len(chunk)))
    best = np.zeros((w + 1, len(chunk)))
    buf = np.empty((w, len(chunk)))
    # a sum past the float range is inf, the correctly rounded result, and
    # the nan of inf - inf is replaced below, so neither warns
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(chunk[:, :w].T, axis=0, out=prefix[1:])
        for j in range(1, w + 1):
            v = buf[:j]  # a last interval starting at i = 1..j
            v[...] = prefix[j]
            v -= prefix[:j]
            if p == 2.0:
                v *= v  # (-d)^2 == d^2 bit for bit, and v **= 2.0 is np.square
            else:
                np.abs(v, out=v)
                v **= p
            v += best[:j]
            v.max(axis=0, out=best[j])
    return np.where(np.isinf(prefix).any(axis=0), np.inf, best[w])


def norm_batch(mat: np.ndarray, tag: NormTag) -> np.ndarray:
    """Vectorized ``norm`` over the rows of ``mat``; exact on object rows of a
    piecewise-linear norm."""
    mat = as_rows(mat)
    if mat.ndim != 2:
        raise ParameterError("norm_batch expects a 2-D array of row vectors")
    rows, n = mat.shape
    if n == 0:
        return np.zeros(rows, dtype=mat.dtype)
    if tag.variant == SUP:
        return _column_max(mat)
    # an ell_p or lin sum past the float range is inf, the correctly rounded
    # result (a certificate fails a non-finite constant), so it does not warn
    if tag.variant == ELL_P:
        p = float(tag.p)
        with np.errstate(over="ignore"):
            if p == 1.0:
                return np.sum(np.abs(mat), axis=1)
            return np.sum(np.abs(mat) ** p, axis=1) ** (1.0 / p)
    if tag.variant == LIN:
        if mat.dtype == object:
            return _lin_exact(mat)
        with np.errstate(over="ignore"):
            return _column_max(np.abs(mat), tails=True, weights=lin_weights_float(n))
    return james_power_sums_batch(mat, tag.p) ** (1.0 / float(tag.p))


class IntegerKeys(NamedTuple):
    """An ``object`` array of int/Fraction entries read as integers: ``keys``
    holds ``den`` times each entry, as a flat row-major list of ints, ``den``
    is the lcm of the entries' denominators (1 for ints), and ``fractions``
    says where the entries are Fractions, as a bool array of the array's
    shape, or is None when none is."""

    den: int
    keys: list
    fractions: Optional[np.ndarray]


def integer_keys(mat: np.ndarray) -> Optional[IntegerKeys]:
    """The ``IntegerKeys`` of an ``object`` array, or None when an entry is
    neither an int nor a Fraction (a float, say).  numpy ints (a numpy int
    array's) become Python ints: they would multiply in 64 bits.  Only a
    mix of ints and Fractions takes a second pass over the entries' types,
    to mark the Fractions."""
    flat = mat.ravel().tolist()
    kinds = set(map(type, flat))
    if not kinds <= {int, Fraction}:
        flat = [x.item() if isinstance(x, np.generic) else x for x in flat]
        kinds = set(map(type, flat))
        if not kinds <= {int, Fraction}:
            return None
    if Fraction not in kinds:
        return IntegerKeys(1, flat, None)
    if int in kinds:
        is_fraction = map(operator.is_, map(type, flat), repeat(Fraction))
        fractions = np.fromiter(is_fraction, dtype=bool, count=len(flat)).reshape(mat.shape)
    else:
        fractions = np.ones(mat.shape, dtype=bool)
    den = math.lcm(*{x.denominator for x in flat})
    return IntegerKeys(den, [x.numerator * (den // x.denominator) for x in flat], fractions)


def _lin_exact(mat: np.ndarray) -> np.ndarray:
    """The lin norm of every row of an ``object`` array of int/Fraction
    entries, in integers: the weight 8^k / (1 + 8^k) is (d_k - 1) / d_k,
    d_k = 1 + 8^k, so with L the lcm of the d_k, a row's norm is
    max_k c_k t_k / (L D), c_k = (L // d_k) (d_k - 1) and
    t_k = sum_{n>=k} |D x(n)| over ``integer_keys``.
    One reduced Fraction a row; an all-zero row gets the int 0 (a report
    writes Fraction(0) as "0/1")."""
    rows, n = mat.shape
    dens = [1 + 8**k for k in range(1, n + 1)]
    scale = math.lcm(*dens)
    scaled = [scale // d * (d - 1) for d in dens]
    den, flat, _ = integer_keys(mat)
    keys = np.array(list(map(abs, flat)), dtype=object).reshape(rows, n)
    # one column at a time: at N = 64, L has about 5 000 bits, and every
    # product at once would hold rows x N such integers
    tail = top = np.zeros(rows, dtype=object)
    for k in range(n - 1, -1, -1):
        tail = tail + keys[:, k]
        top = np.maximum(top, tail * scaled[k])
    scale *= den
    return np.array([Fraction(t, scale) if t else 0 for t in top.tolist()], dtype=object)


# A block with at least NARROW_ROWS rows per column is reduced a column at a
# time (``_column_max``), a wider one along its rows.  The column loop pays a
# few ufunc calls per column, the row reduction a set-up per row.  Measured on
# a 2-core x86-64 VM with numpy 2.4, the column loop is the faster from 8 to 24
# rows per column on, at every width from 2 to 128, and at 32 for all three
# kernels; 2^15-cell blocks (``blockwise``) have that many up to width 32.
NARROW_ROWS = 32


def _column_max(mat: np.ndarray, tails: bool = False, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """max_k w_k |s_k| over the N >= 1 columns of every row of ``mat``: s_k is
    the row's entry k or, with ``tails``, its tail sum x_k + ... + x_N, and
    w_k is ``weights[k]`` (1 without weights).  The sup norm is this of the
    rows, the summing-basis norm this with ``tails``, and the float lin norm
    this of |x| with ``tails`` and the lin weights (|s_k| = s_k there, bit
    for bit: a tail sum of entries with a clear sign bit keeps it clear).

    A block with at least NARROW_ROWS rows per column goes a column at a
    time, from the last: the running tail sum and the running max, each
    updated in place.  A wider block is reduced along its rows: a reversed
    ``cumsum``, then ``np.max``.  Both give every result bit for bit and of
    the same type.  ``cumsum`` starts from the row's last entry and adds
    each entry to the left in turn, as the column loop does, so every tail
    sum rounds the same; each weight multiplies the same tail; and a max is
    exact.  On a tie, ``np.maximum(candidate, top)`` keeps the candidate, its
    first operand, and the candidate is the earlier column; ``np.max`` keeps
    the earlier entry of a row.  So an ``object`` result is the first entry
    attaining the max, int or Fraction, either way.  A float nan propagates
    through both; after |.| every nan is the same quiet nan."""
    rows, n = mat.shape
    if rows < NARROW_ROWS * n:
        s = np.abs(np.cumsum(mat[:, ::-1], axis=1)[:, ::-1] if tails else mat)
        return np.max(s if weights is None else s * weights, axis=1)
    tail = mat[:, n - 1].copy()
    top = np.abs(tail)
    if weights is not None:
        top *= weights[n - 1]
    candidate = np.empty_like(top)
    for k in range(n - 2, -1, -1):
        if tails:
            tail += mat[:, k]
        np.abs(tail if tails else mat[:, k], out=candidate)
        if weights is not None:
            candidate *= weights[k]
        np.maximum(candidate, top, out=top)
    return top


def summing_basis_norm_batch(mat: np.ndarray) -> np.ndarray:
    """Vectorized ``summing_basis_norm`` over rows; exact on object rows."""
    mat = as_rows(mat)
    rows, n = mat.shape
    if n == 0:
        return np.zeros(rows, dtype=mat.dtype)
    return _column_max(mat, tails=True)


# ---------------------------------------------------------------------------
# Float enclosures of the exact kernels
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0**-53
# Rows whose nonzero entries all round to at least TINY in magnitude keep every
# product in the kernels below normal, where rounding errors are relative.
TINY = 2.0**-500


def _float_image(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The entries of an array as floats (an ``object`` array's int and
    Fraction entries round to nearest), and per row whether every entry
    is exactly 0 or rounds to at least TINY in magnitude.  An entry beyond
    the float range leaves no row enclosed."""
    try:
        flt = np.asarray(mat, dtype=float)
    except OverflowError:
        return np.zeros(mat.shape), np.zeros(len(mat), dtype=bool)
    small = np.abs(flt) < TINY
    if mat.dtype == object:
        small[small] = mat[small] != 0  # an exact nonzero may round to 0
    else:
        small &= flt != 0
    return flt, ~small.any(axis=1)


def norm_enclosure(
    coeffs: np.ndarray, tag: NormTag, basis: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Float value and radius around the exact ``norm_batch(coeffs @ basis,
    tag)`` (``norm_batch(coeffs, tag)`` without a basis) of every row c of
    coeffs, read exactly, for a piecewise-linear tag: |value - exact| <= radius.

    The value is the float kernel on the float image y^ = fl(c^ X^).  With
    m coefficients, N coordinates, u = 2^-53 and S = sum_j (|c| |X|)_j:
    rounding c and X and the m-term products give |y^_j - y_j| <= gamma_{m+2}
    (|c| |X|)_j in any summation order (Higham, section 3.1).  The sup norm
    adds no rounding; the ell_1 sum adds gamma_{N-1}; the lin tail cumsum adds
    gamma_{N-1}, and the weight 1 / (1 + 8^-k) and its product 4 more.  Each
    error is at most gamma_K S with K = m + N + 5.  The radius doubles
    gamma_K times the float S, which covers the rounding of S itself and of
    the radius: those lose far less than half when K u is small.  Rows that
    pass ``_float_image`` keep every product normal (at least 2^-1000 <= S),
    so the absolute errors of a subnormal sum are negligible beside that
    slack.  A row that does not pass, or whose value or radius is not finite
    (an overflow), gets value 0 and radius inf.
    """
    if not tag.is_polyhedral():
        raise ParameterError(f"no float enclosure for the {tag.label()} norm")
    flt, ok = _float_image(coeffs)
    size = np.abs(flt)
    if basis is not None:
        fx, fx_ok = _float_image(basis)
        flt, size, ok = flt @ fx, size @ np.abs(fx), ok & fx_ok.all()
    value = norm_batch(flt, tag)
    k = coeffs.shape[1] + size.shape[1] + 5
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    radius = 2 * gamma * size.sum(axis=1)
    bad = ~(ok & np.isfinite(value + radius))
    radius[bad] = np.inf
    return np.where(bad, 0.0, value), radius
