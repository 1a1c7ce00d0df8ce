"""Schauder-basis machinery over a concrete finite family of vectors.

A ``BasicSequence`` is an ordered, linearly independent, seminormalized
family x_1..x_M of coordinate vectors evaluated through one ambient norm.
The ops below estimate the classical constants of such a family at the
available truncation:

* the basis-constant interval for sup_n ||P_n||,
* domination and two-sided equivalence constants between two families,
* the wide-(s) constant (domination of the summing family),
* the head/tail gap bound ||x - y|| >= a / K, derived from K.

Constants obtained by maximizing or minimizing over the evaluated
coefficient set are certified one-sided bounds; suprema over the infinite
coefficient space are only ever refined heuristically and carry a flag.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import FLOAT, RATIONAL, Real, coerce, exact_value, is_finite, validate_arithmetic
from .certificates import Certificate
from .errors import DependenceError, ParameterError
from .sampling import Rows, SamplingBudget, coefficient_rows
from .spaces import (
    ELL_P,
    JAMES,
    LIN,
    SUP,
    CoordinateVector,
    IntegerKeys,
    NormTag,
    blockwise,
    integer_keys,
    norm_batch,
    norm_enclosure,
    require_exact,
    row_array,
    scalar,
    summing_basis_norm_batch,
)

DENOM_GUARD = 1e-12
# How far below 0 a float margin may fall and still show its inequality
# (``_nonnegative``): rounding error, not a counterexample.
INEQ_TOL = 1e-9


def _exact_rank(mat) -> int:
    """Rank over the rationals of int/Fraction rows, with no Fraction made: the
    ``integer_keys`` of the rows, eliminated fraction-free, each changed row
    divided by the gcd of its entries, and dropped once it is zero."""
    n = np.shape(mat)[1]
    flat = integer_keys(np.asarray(mat, dtype=object)).keys
    rows, rank = [flat[i : i + n] for i in range(0, len(flat), n)], 0
    for col in range(n):
        pivots = [r for r in rows if r[col]]
        if pivots:
            top, rank = pivots[0], rank + 1
            changed = ([top[col] * a - r[col] * b for a, b in zip(r, top)] for r in pivots[1:])
            rows = [r for r in rows if not r[col]] + [[a // g for a in c] for c in changed if (g := math.gcd(*c))]
    return rank


class BasicSequence:
    """Ordered family of coordinate vectors with an ambient norm tag, stored as
    one ``matrix`` of the rows given (tuples, ``CoordinateVector``s or a 2-D
    array); numpy ints, which multiply in 64 bits, become Python ints."""

    def __init__(self, vectors: Sequence, ambient: NormTag):
        mat = np.array(vectors, dtype=object)
        if not mat.shape or not len(mat):
            raise ParameterError("a basic sequence needs at least one vector")
        if mat.ndim != 2:
            raise ParameterError("all vectors must share the ambient length")
        kinds = set(map(type, mat.ravel().tolist()))
        if any(issubclass(k, np.generic) for k in kinds):
            mat = _ITEM(mat)
            kinds = set(map(type, mat.ravel().tolist()))
        try:
            flt = mat.astype(float)  # each entry rounded as float(x) rounds it
            finite = np.isfinite(flt).all()
        except OverflowError:  # an int or Fraction beyond the float range
            finite = False
        if not finite:
            raise ParameterError("non-finite entry in a basic sequence")
        m, n = mat.shape
        if m > n:
            raise DependenceError(f"{m} vectors cannot be independent in ambient length {n}")
        self.ambient = ambient
        self.exact = float not in kinds
        self._exact_matrix, self._float_matrix = mat, flt
        if (_exact_rank(mat) if self.exact else np.linalg.matrix_rank(flt)) < m:
            raise DependenceError("vectors are linearly dependent")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            self.vector_norms = tuple(map(scalar, norm_batch(self.matrix(self.exact), ambient)))
        if not all(map(is_finite, self.vector_norms)):
            raise DependenceError("sequence is not seminormalized: some ||x_n|| is not finite")
        self.a = min(self.vector_norms)
        self.b = max(self.vector_norms)
        if not self.a > 0:
            raise DependenceError("sequence is not seminormalized: some ||x_n|| = 0")

    @property
    def vectors(self) -> Tuple[CoordinateVector, ...]:
        """The rows of ``matrix(exact=True)`` as coordinate vectors, made on each read."""
        return tuple(map(CoordinateVector, map(tuple, self._exact_matrix.tolist())))

    def __len__(self) -> int:
        return len(self._exact_matrix)

    @property
    def ambient_length(self) -> int:
        return self._exact_matrix.shape[1]

    def matrix(self, exact: bool = False) -> np.ndarray:
        """The vectors as rows: floats, or with ``exact`` an object array of
        their int/Fraction entries."""
        return self._exact_matrix if exact else self._float_matrix

    def _basis(self, m: int, shift: int, exact: bool) -> np.ndarray:
        """The vectors x_{1+shift}..x_{m+shift} as rows (see ``matrix``)."""
        if shift + m > len(self):
            raise ParameterError("more coefficients than vectors")
        return self.matrix(exact)[shift : shift + m]

    def _span(self, coeff_mat: np.ndarray, shift: int = 0) -> np.ndarray:
        """The rows sum_i c_i x_{i+shift} of every coefficient row c (``_span_rows``)."""
        return _span_rows(coeff_mat, self._basis(coeff_mat.shape[1], shift, coeff_mat.dtype == object))

    def span_vector(self, coeffs) -> CoordinateVector:
        """Materialize sum a_i x_i; exact on exact inputs."""
        return CoordinateVector(tuple(map(scalar, self._span(row_array([coeffs]))[0])))

    def span_norm(self, coeffs) -> Real:
        return scalar(self.span_norm_batch(row_array([coeffs]))[0])

    def span_norm_batch(self, coeff_mat: np.ndarray, shift: int = 0) -> np.ndarray:
        """||sum_i c_i x_{i+shift}|| for every row c; exact on object rows."""
        return norm_batch(self._span(coeff_mat, shift), self.ambient)

    def span_norms(self, shift: int = 0) -> "RowNorms":
        """``span_norm_batch(c, shift)`` of the coefficient rows c of a scan."""
        return RowNorms(
            lambda c: self.span_norm_batch(c, shift),
            lambda c: norm_enclosure(c, self.ambient, self._basis(c.shape[1], shift, True)),
            self.ambient_length,
        )


def _span_rows(coeff_mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The rows c @ basis of every coefficient row c; exact on object rows.

    Two ``object`` arrays of int/Fraction entries multiply on their
    ``integer_keys``: with D_C and D_X the lcms of their denominators,
    (D_C c) @ (D_X X) is a product of integer matrices, an ``int64`` matmul
    when max |D_C c| * max |D_X X| * K < 2^63 (K the inner width; no partial
    sum can then overflow), else a Python-int one, and each entry is that
    integer divided by D_C D_X once.  Exact arithmetic does not depend on
    the order of its operations, so every entry has the value of
    ``coeff_mat @ basis``, and it has that product's type too: an entry is a
    Fraction exactly when a term of its sum is, that is when its row of C or
    its column of X holds a Fraction (int * int is int, and a Fraction
    operand makes the product and every later sum a Fraction); else it is
    an int.  A report writes Fraction(3) as "3/1", so the type matters.
    An ``object`` array that holds a float (a float family's exact matrix)
    takes ``coeff_mat @ basis``.

    numpy evaluates a one-row float ``c @ X`` as a matrix-vector product,
    which can round differently from the same row inside a batch, so one row
    goes in stacked with a zero row: a row's bits do not depend on how many
    rows are evaluated with it."""
    if coeff_mat.dtype == object and basis.dtype == object:
        c, x = integer_keys(coeff_mat), integer_keys(basis)
        if c is not None and x is not None:
            a, b = _key_matrices(c, coeff_mat.shape, x, basis.shape)
            return _key_quotients(a @ b, c, x)
    elif len(coeff_mat) == 1 and coeff_mat.dtype != object:
        return (np.concatenate([coeff_mat, np.zeros_like(coeff_mat)]) @ basis)[:1]
    return coeff_mat @ basis


def _key_matrices(
    c: IntegerKeys, c_shape: Tuple[int, int], x: IntegerKeys, x_shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The keys of C and of X as matrices of their shapes whose product cannot
    overflow: ``int64`` when max |key_C| * max |key_X| * K < 2^63, K the
    inner width, which bounds every partial sum; else ``object`` (Python ints)."""
    mats, top = [], max(c_shape[1], 1)
    for keys, shape in ((c.keys, c_shape), (x.keys, x_shape)):
        try:
            mat = np.array(keys, dtype=np.int64).reshape(shape)
        except OverflowError:  # a key beyond int64
            mat = np.array(keys, dtype=object).reshape(shape)
        mats.append(mat)
        top *= max(int(mat.max()), -int(mat.min()), 1) if mat.size else 1
    return tuple(mats) if top < 2**63 else tuple(mat.astype(object) for mat in mats)


def _key_quotients(sums: np.ndarray, c: IntegerKeys, x: IntegerKeys) -> np.ndarray:
    """Each entry of (D_C C) @ (D_X X), given as ``sums``, divided by D_C D_X:
    a Fraction where its row of C or its column of X holds a Fraction (see
    ``_span_rows``), else an int."""
    out = sums.astype(object)  # Python ints
    if c.fractions is None and x.fractions is None:
        return out  # every denominator is 1
    fractions = np.zeros(out.shape, dtype=bool)
    if c.fractions is not None:
        fractions |= c.fractions.any(axis=1)[:, None]
    if x.fractions is not None:
        fractions |= x.fractions.any(axis=0)
    den = c.den * x.den
    out[fractions] = list(map(Fraction, out[fractions].tolist(), repeat(den)))
    if den != 1:
        out[~fractions] //= den  # a sum of int terms is D_C D_X times an int
    return out


def proved_monotone(s: BasicSequence) -> bool:
    """Whether sup_n ||P_n|| = 1 is proved for s: exactly when s is
    prefix-shaped, every vector's support starting after the previous one's
    ends (false for ``summing_c0`` and its blocks, say), as the proof below
    covers every norm tag.  This is the monotone-basis case of Albiac &
    Kalton, *Topics in Banach Space Theory* (GTM 233), ch. 1.  ||P_M|| = 1
    as P_M is the identity, so the claim is ||P_n e|| <= ||e|| for every
    e = sum c_i x_i and every n.

    Exact.  P_n e is the coordinate prefix of e up to the end of x_n, padded
    with zeros.  Sup, ell_p and lin are solid: |x| <= |y| coordinatewise
    gives ||x|| <= ||y||.  For james, cutting an interval chain of P_n e at
    the prefix's end leaves every block sum unchanged (past the end P_n e is
    0) and gives a chain of e, so the supremum over chains of P_n e is at
    most that over chains of e.

    Float.  Each column of a prefix-shaped matrix has one nonzero entry, so
    every entry of ``c @ X`` is one rounded product plus exact zeros, in any
    summation order: a head row equals the full row on the prefix and is 0
    after it.  ``_sampled_basis_constant`` evaluates the heads one at a
    time, each as a row of the full width.  For sup, ell_p and lin the
    kernel (the max of |x|, |x|^p summed pairwise, or the right-to-left tail
    sums weighted and maximized) is monotone in every |entry| under
    round-to-nearest.  For james the DP stops at or before the prefix's end
    (past a row's last nonzero its optimum repeats bit for bit), and up to
    that end a head row's prefix sums and optima are the full row's; the
    full row's optimum, and its 1/p root, never decrease with the width.
    So no sampled ratio ||P_n e|| / ||e|| exceeds 1.0, and
    ``_sampled_basis_constant`` can only return (1.0, 1.0);
    ``tests/test_head_norms.py`` checks that on random families.
    """
    nonzero = s.matrix() != 0
    first = np.argmax(nonzero, axis=1)
    ends = nonzero.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return bool(np.all(first[1:] >= ends[:-1]))


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("ell1_canonical", "c0_canonical", "summing_c0", "james_summing", "lin_ell1")


def builtin_sequence(name: str, n: int, p: Real = 2) -> BasicSequence:
    """Construct one of the named coordinate families at truncation n."""
    if n < 1:
        raise ParameterError("truncation must be >= 1")
    if name not in BUILTIN_NAMES:
        raise ParameterError(f"unknown builtin sequence {name!r}; choose from {BUILTIN_NAMES}")
    tags = {"ell1_canonical": (ELL_P, 1), "james_summing": (JAMES, p), "lin_ell1": (LIN, None)}
    rows = np.tri(n, dtype=int) if name == "summing_c0" else np.eye(n, dtype=int)
    return BasicSequence(rows, NormTag(*tags.get(name, (SUP, None))))


# ---------------------------------------------------------------------------
# Evaluation sets
# ---------------------------------------------------------------------------


def _eval_rows(
    m: int, budget: SamplingBudget, arithmetic: str, *seqs: BasicSequence, rows: Optional[Callable] = None, **kw
) -> Rows:
    """The ``Rows`` of one scan from the ``sampling`` builder ``rows`` (given
    ``kw``; ``coefficient_rows`` if None, looked up when called), exact in
    rational mode, which needs ``seqs``' norms piecewise linear."""
    if validate_arithmetic(arithmetic) == RATIONAL:
        _require_exact_tags(*seqs)
    return (rows or coefficient_rows)(m, budget, exact=arithmetic == RATIONAL, **kw)


_FRACTION = np.frompyfunc(Fraction, 1, 1)
_EXACT = np.frompyfunc(exact_value, 1, 1)
_ITEM = np.frompyfunc(lambda x: x.item() if isinstance(x, np.generic) else x, 1, 1)  # as a Python scalar


def _guard(arithmetic: str):
    """What a denominator must exceed: 0 on exact rows, DENOM_GUARD on float rows."""
    return 0 if arithmetic == RATIONAL else DENOM_GUARD


def _nonnegative(margin: Real, arithmetic: str) -> bool:
    """Whether a margin shows its inequality: margin >= 0 exactly on exact
    rows, margin >= -INEQ_TOL on float rows."""
    return margin >= (0 if arithmetic == RATIONAL else -INEQ_TOL)


class RowNorms(NamedTuple):
    """A norm of each coefficient row of a scan, as two functions of the rows:
    ``exact`` evaluates it (exactly on object rows), and ``enclosure`` returns
    the float value and radius of ``spaces.norm_enclosure``, which bracket
    the exact value.  ``width`` is the width of the rows the kernel fills:
    that of the matrix the coefficient rows are spanned over, or None for a
    kernel on the coefficient rows themselves."""

    exact: Callable[[np.ndarray], np.ndarray]
    enclosure: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    width: Optional[int] = None


def row_norms(tag: NormTag, basis: Optional[np.ndarray] = None) -> RowNorms:
    """||c @ basis|| (||c|| without a basis) of the coefficient rows c of a scan."""
    return RowNorms(
        lambda c: norm_batch(c if basis is None else _span_rows(c, basis), tag),
        lambda c: norm_enclosure(c, tag, basis),
        None if basis is None else basis.shape[1],
    )


def summing_norms() -> RowNorms:
    """The summing-basis norm of the coefficient rows c of a scan, enclosed as
    the sup norm of c @ U, whose rows are u_i = e_1 + ... + e_i; float scans
    read the tail sums of ``summing_basis_norm_batch``, not c @ U's bits."""
    return RowNorms(
        summing_basis_norm_batch,
        lambda c: norm_enclosure(c, NormTag.sup(), np.tril(np.ones((c.shape[1],) * 2, dtype=object))),
    )


# ---------------------------------------------------------------------------
# The scan: a certificate op declares once the margins and ratios it reports
# as extremes over coefficient rows, and ``_scan`` derives from that one
# declaration both their values and, in rational mode, the float row filter.
# A margin is a tuple of (exact coefficient c, norm index i) terms, with the
# value sum c * q_i on a row; a ratio is (numerator index, denominator index).
# ---------------------------------------------------------------------------

Margin = Tuple[Tuple[Real, int], ...]
Ratio = Tuple[int, int]


def _down(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _interval(enclosure: Tuple[np.ndarray, np.ndarray]):
    """The float interval [lo, hi] of a norm from its (value, radius); lo >= 0."""
    value, radius = enclosure
    return np.maximum(_down(value - radius), 0.0), _up(value + radius)


def _combination(*terms):
    """The float interval of sum c*q over the (c, q) terms, for exact scalars c
    and nonnegative intervals q: c*q lies in [min(c_lo q_lo, c_lo q_hi),
    max(c_hi q_lo, c_hi q_hi)] when c lies in [c_lo, c_hi] and q >= 0 (a NaN
    from 0 * inf drops out of fmin/fmax; the other product is then 0)."""
    lo = hi = 0.0
    for c, (q_lo, q_hi) in terms:
        c_lo, c_hi = _down(float(c)), _up(float(c))
        lo = _down(lo + _down(np.fmin(c_lo * q_lo, c_lo * q_hi)))
        hi = _up(hi + _up(np.fmax(c_hi * q_lo, c_hi * q_hi)))
    return lo, hi


def _can_reach_min(lo, hi, sure=True) -> np.ndarray:
    """Rows whose interval [lo, hi] can hold the least value over the rows
    where ``sure`` holds: lo is at most every such row's hi.  A row attaining
    the exact minimum (and every row tied with it) passes."""
    return lo <= np.min(hi, where=sure, initial=np.inf)


def _ratio_reach(num, den) -> np.ndarray:
    """Rows whose ratio num/den, given the intervals of both, can reach the
    min or the max over the rows whose den is surely positive, plus every
    row whose den interval touches 0: its den may vanish, so only exact
    evaluation tells whether it is rejected."""
    sure = den[0] > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = _down(num[0] / den[1]), _up(num[1] / den[0])
    return ~sure | _can_reach_min(lo, hi, sure) | _can_reach_min(-hi, -lo, sure)


def _margin_values(margin: Margin, values: Sequence[np.ndarray]) -> np.ndarray:
    """sum c * values[i] over the (c, i) terms of a margin, added in order.
    The int coefficients 1 and -1 add or subtract their norm without a
    product, so a float margin runs the operations of the expression written
    out: the terms (1, 0), (-c, 1) give q0 - c*q1 bit for bit, since
    negation is exact."""
    total = None
    for c, i in margin:
        q = values[i]
        if type(c) is not int or c not in (1, -1):
            c, q = 1, c * q
        if total is None:
            total = q if c == 1 else -q
        else:
            total = total + q if c == 1 else total - q
    return total


def _scan(
    rows: Rows,
    norms: Sequence[RowNorms],
    arithmetic: str,
    margins: Sequence[Margin] = (),
    ratios: Sequence[Ratio] = (),
) -> list:
    """The extremes of a scan over the coefficient rows of ``rows``, given the
    norms of each row: for each margin, its least value and the first row
    attaining it; then for each ratio, ``_ratio_extremes`` of the norms it
    names.

    The first ``rows.mirrored`` rows stand for themselves and for their
    negations, which the scan does not evaluate: it reports the extremes
    over the set with the negations added.  That set is the one
    ``rows.mode`` names, where each negation comes after its row (in the
    second half of its part; see ``sampling``).  Every norm of a mirrored
    scan, ||c|| or ||c X||, is even in the row c, and so is every margin and
    ratio of them.  Exactly, that is trivial.  In float, negation is exact
    and round-to-nearest is symmetric, so the product c X, the tail sums and
    the james prefix sums of -c are those of c negated, up to the sign of a
    zero, which every kernel drops with ``abs`` or a square: each value of -c
    equals that of c bit for bit.  So the first row of the set attaining an
    extreme is never a negation, the other rows keep their order, and every
    extreme and first witness is that of the set; ``_ratio_extremes``
    counts a rejected mirrored row twice.

    Float mode evaluates every row.  Rational mode is exact, but evaluates
    exactly only the rows that can reach an extreme, in order.  Each norm of
    each row first gets a float interval that holds its exact value: the
    float kernel's value plus or minus the a-priori rounding bound of
    ``spaces.norm_enclosure``, rounded outward (``_down``/``_up`` step one
    ulp past a rounded-to-nearest result).  A margin's interval is the
    ``_combination`` of its terms and a ratio's is [num_lo / den_hi,
    num_hi / den_lo], both rounded outward, so each holds the exact value.
    A row is kept when some margin's interval can hold the least value
    (``_can_reach_min``), or when for some ratio its den interval touches 0
    or its ratio interval can hold the min or the max over the rows whose
    den is surely positive (``_ratio_reach``).  So a row left out has every
    margin strictly above another row's exact margin, and every den positive
    and every ratio strictly between the exact extremes over the rows whose
    den passes ``_guard``: it attains no extreme and is not rejected.  The
    kept rows stay in order, so the exact values, first witness rows and
    rejected counts over them are those of the full exact scan.

    The float passes over every row (float mode's values, rational mode's
    enclosures) go through ``spaces.blockwise``, in blocks sized by the
    widest rows the norms' kernels fill (``RowNorms.width``; a block of
    coefficient rows is a view).  So no span of every row is built, and a
    james span's block is one block of its DP.  Rational mode keeps its rows
    with ``Rows.select``, and its exact pass over them, as their
    ``exact_value``s, is one call."""
    coeffs = rows.coeffs
    width = max(q.width or coeffs.shape[1] for q in norms)
    if arithmetic == RATIONAL:
        qs = [_interval(q) for q in blockwise([q.enclosure for q in norms], coeffs, width)]
        reach = [_can_reach_min(*_combination(*((c, qs[i]) for c, i in m))) for m in margins]
        reach += [_ratio_reach(qs[n], qs[d]) for n, d in ratios]
        rows = rows.select(np.logical_or.reduce(reach))
        coeffs = rows.coeffs if rows.coeffs.dtype == object else _EXACT(rows.coeffs)
        values = [q.exact(coeffs) for q in norms]
    else:
        values = blockwise([q.exact for q in norms], coeffs, width)
    sums = [_margin_values(m, values) for m in margins]
    mins = [int(np.argmin(v)) for v in sums]
    extremes = [(scalar(v[i]), coeffs[i]) for v, i in zip(sums, mins)]
    return extremes + [_ratio_extremes(values[n], values[d], coeffs, arithmetic, rows.mirrored) for n, d in ratios]


def _ratio_extremes(
    num: np.ndarray, den: np.ndarray, coeffs: np.ndarray, arithmetic: str, mirrored: int = 0
) -> Tuple[Real, Real, np.ndarray, np.ndarray, int]:
    """(min, max, argmin row, argmax row, rejected) of num/den over the rows
    whose denominator passes ``_guard``; ties go to the first row.  Each of
    the first ``mirrored`` rows (``_scan`` passes ``Rows.mirrored``) stands
    for its negation too, so it counts twice among the rejected.  Exact
    entries divide as Fractions, since int / int would give a float.  A nan
    ratio (inf / inf) is an extreme, on the first row, only if all are nan."""
    ok = den > _guard(arithmetic)
    rejected = int(np.size(den) - np.count_nonzero(ok)) + int(mirrored - np.count_nonzero(ok[:mirrored]))
    if not np.any(ok):
        raise DependenceError("all denominators vanished on the evaluated set")
    with np.errstate(invalid="ignore"):
        ratios = _FRACTION(num[ok]) / den[ok] if num.dtype == object else num[ok] / den[ok]
    real = ratios == ratios  # false only at nan
    if np.any(real) and not np.all(real):
        ok[ok], ratios = real, ratios[real]
    kept = np.flatnonzero(ok)  # a witness row is picked by index, not from a copy of the kept rows
    i_min = int(np.argmin(ratios))
    i_max = int(np.argmax(ratios))
    return (
        scalar(ratios[i_min]),
        scalar(ratios[i_max]),
        coeffs[kept[i_min]],
        coeffs[kept[i_max]],
        rejected,
    )


def _witness(row: np.ndarray) -> Tuple[Real, ...]:
    """A coefficient row as a tuple of built-in scalars: exact rows keep their entries."""
    return tuple(map(scalar, row))


# ---------------------------------------------------------------------------
# Certificate ops
# ---------------------------------------------------------------------------


PM_ONE_LIMIT = 12
PROVED_MONOTONE = "proved-monotone"


class Kappa(NamedTuple):
    """A basis-constant interval (lower, upper) around sup_n ||P_n|| and its
    ``source``: ``proved-monotone``, or the sampling mode that estimated it.
    Only a proved upper end bounds sup_n ||P_n|| from above, so every
    certificate computed from a sampled one carries ``flags``."""

    lower: Real
    upper: Real
    source: str

    @property
    def flags(self) -> Tuple[str, ...]:
        return () if self.source == PROVED_MONOTONE else ("kappa-upper-heuristic",)


def basis_constant(s: BasicSequence, budget: SamplingBudget) -> Kappa:
    """The basis-constant interval of s at this truncation.

    Where ``proved_monotone(s)`` holds, the interval is the proved point
    (1.0, 1.0), the value ``_sampled_basis_constant`` would return, and
    nothing is drawn or evaluated.  Other families are sampled.
    """
    if proved_monotone(s):
        return Kappa(1.0, 1.0, PROVED_MONOTONE)
    return _sampled_basis_constant(s, budget)


def _sampled_basis_constant(s: BasicSequence, budget: SamplingBudget) -> Kappa:
    """``basis_constant`` from samples, with the rows it evaluates as source.

    ``lower`` is certified: the max ratio ||P_n e|| / ||e|| over every e of
    the set (all +-1 patterns up to M = 12, all {-1,0,1} patterns up to
    ``EXHAUSTIVE_LIMIT``, one of each +- pair evaluated, as in ``_scan``)
    and every n.  ``upper`` comes from
    local-search refinement around the best witness and is NOT certified;
    treat it as an estimate of the same finite-truncation value.
    """
    m = len(s)
    rows = coefficient_rows(m, budget, pm_one=m <= PM_ONE_LIMIT)

    def best_ratio(mat: np.ndarray) -> Optional[Tuple[float, np.ndarray]]:
        """(max ratio, its row) over the rows e of mat that pass ``_guard``, or
        None if none does: the first maximum of 1.0 on the first such row (the
        argmin of 0 / ||e||) and the ``_ratio_extremes`` max of each full-width
        head ||P_n e|| (see ``proved_monotone``) against ||e||, the last head."""
        heads = [s.span_norm_batch(np.where(np.arange(m) < n, mat, 0.0)) for n in range(1, m + 1)]
        try:
            first = _ratio_extremes(np.zeros(len(mat)), heads[-1], mat, FLOAT)[2]
        except DependenceError:
            return None
        maxima = [_ratio_extremes(head, heads[-1], mat, FLOAT)[1::2] for head in heads]
        return max([(1.0, first)] + maxima, key=lambda found: found[0])

    found = best_ratio(rows.coeffs)
    if found is None:
        raise DependenceError("all span norms vanished while estimating kappa")
    lower, seedvec = found

    # heuristic refinement: random perturbations of the best witness
    rng = np.random.default_rng(budget.seed + 1)
    upper = lower
    for sigma in (0.5, 0.2, 0.05, 0.01):
        found = best_ratio(seedvec + sigma * rng.standard_normal((64, m)))
        if found is not None and found[0] > upper:
            upper, seedvec = found
    return Kappa(lower, upper, rows.mode)


def _family_ratio_scan(
    xs: BasicSequence, ys: BasicSequence, budget: SamplingBudget, arithmetic: str
):
    """``_ratio_extremes`` of ||sum a y|| / ||sum a x|| over the rows a, and their mode."""
    if len(xs) != len(ys):
        raise ParameterError("sequences must have the same number of vectors")
    rows = _eval_rows(len(xs), budget, arithmetic, xs, ys)
    norms = [xs.span_norms(), ys.span_norms()]
    [scan] = _scan(rows, norms, arithmetic, ratios=[(1, 0)])
    return scan, rows.mode


def domination_constant(
    xs: BasicSequence,
    ys: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """L_hat = max ||sum a y|| / ||sum a x||: a certified lower bound on the
    best constant with which (x_n) dominates (y_n)."""
    (_, l_hat, _, wit_row, rejected), mode = _family_ratio_scan(xs, ys, budget, arithmetic)
    return Certificate(
        kind="domination",
        constants={"L_hat": l_hat, "rejected_denominators": rejected},
        holds=True,
        witness={"argmax": _witness(wit_row)},
        mode=mode,
        arithmetic=arithmetic,
        flags=(f"dependence-evidence(rejected={rejected})",) if rejected else (),
    )


def equivalence_constants(
    xs: BasicSequence,
    ys: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """Two-sided ratio scan; smallest admissible L is max(r_max, 1/r_min)."""
    (r_min, r_max, row_min, row_max, rejected), mode = _family_ratio_scan(xs, ys, budget, arithmetic)
    return Certificate(
        kind="equivalence",
        constants={
            "r_min": r_min,
            "r_max": r_max,
            "L_smallest": max(r_max, 1 / r_min if r_min > 0 else np.inf),
            "rejected_denominators": rejected,
        },
        holds=True,
        witness={"argmin": _witness(row_min), "argmax": _witness(row_max)},
        mode=mode,
        arithmetic=arithmetic,
        flags=(f"dependence-evidence(rejected={rejected})",) if rejected else (),
    )


def wide_s_certificate(
    s: BasicSequence,
    budget: SamplingBudget = SamplingBudget(),
    arithmetic: str = FLOAT,
) -> Certificate:
    """d_hat = min ||sum a x|| / summing-basis-norm(a) over evaluated a.

    d_hat is a certified upper bound on the best domination constant of the
    summing family; the certificate holds iff d_hat stayed positive.
    """
    rows = _eval_rows(len(s), budget, arithmetic, s)
    norms = [summing_norms(), s.span_norms()]
    [(d_hat, _, row, _, _)] = _scan(rows, norms, arithmetic, ratios=[(1, 0)])
    return Certificate(
        kind="wide_s",
        constants={"d_hat": d_hat},
        holds=bool(d_hat > _guard(arithmetic)),
        witness={"argmin": _witness(row)},
        mode=rows.mode,
        arithmetic=arithmetic,
    )


def gap_bound_check(s: BasicSequence, kappa: Kappa, arithmetic: str = FLOAT) -> Certificate:
    """||x - y|| >= a / K for every head x with ||x|| >= a and every tail y,
    where K is the upper end of ``kappa``, the basis-constant interval of s.

    Analytic, by Grunblum's criterion (Albiac & Kalton, GTM 233, ch. 1): a
    head x = P_n e and a tail y = x - e give ||x|| = ||P_n (x - y)|| <=
    kappa ||x - y||, so ||x - y|| >= ||x|| / K >= a / K whenever K bounds
    kappa, and every head/tail pair arises so.  Nothing is drawn or
    evaluated.  A sampled kappa does not prove K >= kappa, so the
    certificate carries its flags, as ``claim2_chain`` does.  a and K are
    coerced to ``arithmetic``, so a rational run reports the exact a / K.
    """
    validate_arithmetic(arithmetic)
    a, kappa_up = coerce(s.a, arithmetic), coerce(kappa.upper, arithmetic)
    bound = a / kappa_up if arithmetic == FLOAT else Fraction(a) / kappa_up  # int / int is a float
    return Certificate(
        kind="gap_bound",
        constants={"bound": bound, "kappa_upper": kappa_up},
        holds=True,
        witness={},
        mode="analytic",
        arithmetic=arithmetic,
        flags=kappa.flags,
    )


def _require_exact_tags(*seqs: BasicSequence):
    for s in seqs:
        require_exact(s.ambient)
