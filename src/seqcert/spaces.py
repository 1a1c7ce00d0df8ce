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

Scalar entry points accept int/Fraction entries and stay exact wherever the
norm is piecewise linear (sup, ell_1, lin, and the summing-basis norm); the
``james`` power sum is exact for integer p via ``james_power_sum_exact``.
Batch entry points take a 2-D numpy array of rows.  A float array is
evaluated in float; an ``object`` array holding int/Fraction entries keeps
them, so the piecewise-linear batch norms are exact on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

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

    def as_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.entries], dtype=float)


def lin_weight(k: int) -> Fraction:
    """Exact weight 8^k / (1 + 8^k), k >= 1."""
    return Fraction(8**k, 1 + 8**k)


def lin_norm(x) -> Real:
    """max over k of lin_weight(k) * sum_{n>=k} |x(n)|; exact on exact inputs."""
    entries = CoordinateVector.of(x).entries
    best: Real = 0
    tail: Real = 0
    exact = not any(isinstance(e, float) for e in entries)
    for k in range(len(entries), 0, -1):
        tail = tail + abs(entries[k - 1])
        w = lin_weight(k) if exact else 1.0 / (1.0 + 8.0 ** (-k))
        cand = w * tail
        if cand > best:
            best = cand
    return best


def summing_basis_norm(a) -> Real:
    """max_{1<=k<=N} |sum_{i=k}^{N} a_i|; the sup-norm of sum a_i (e_1+...+e_i)."""
    entries = CoordinateVector.of(a).entries
    best: Real = 0
    tail: Real = 0
    for k in range(len(entries), 0, -1):
        tail = tail + entries[k - 1]
        cand = abs(tail)
        if cand > best:
            best = cand
    return best


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
    """Norm of sum a_n u_n against the summing family of the p-jamesification.

    O(N^2) dynamic programming; equals exhaustive enumeration over interval
    chains (verified property for small N).
    """
    if not p > 1:
        raise ParameterError(f"james norm requires p > 1, got {p}")
    entries = CoordinateVector.of(a).entries
    if not entries:
        return 0.0
    pf = float(p)
    prefix = [0.0]
    for e in entries:
        prefix.append(prefix[-1] + float(e))
    return _james_dp_powers(prefix, pf) ** (1.0 / pf)


def norm(v, tag: NormTag) -> Real:
    """Dispatch over the supported norms; zero iff v is the zero vector."""
    entries = CoordinateVector.of(v).entries
    if tag.variant == SUP:
        return max((abs(e) for e in entries), default=0)
    if tag.variant == ELL_P:
        if tag.p == 1:
            return sum((abs(e) for e in entries), 0)
        s = sum((abs(float(e)) ** float(tag.p) for e in entries), 0.0)
        return s ** (1.0 / float(tag.p))
    if tag.variant == LIN:
        return lin_norm(entries)
    return james_summing_norm(entries, tag.p)


# ---------------------------------------------------------------------------
# Batch backends: rows of a 2-D array are independent vectors.  Object
# arrays of exact scalars stay exact; every other array is read as float.
# ---------------------------------------------------------------------------


def as_rows(mat) -> np.ndarray:
    """``mat`` as an array of rows: object arrays keep their exact entries,
    anything else becomes float."""
    mat = np.asarray(mat)
    return mat if mat.dtype == object else np.asarray(mat, dtype=float)


def lin_weights_float(n: int) -> np.ndarray:
    ks = np.arange(1, n + 1, dtype=float)
    return 1.0 / (1.0 + 8.0 ** (-ks))


def james_power_sums_batch(mat: np.ndarray, p: Real) -> np.ndarray:
    """Maximal interval-chain power sums (the norm before the 1/p root) for
    every row of ``mat``.

    Runs the same DP as the scalar path.  On integer inputs with integer p
    every intermediate value is an integer well below 2^53, so the result
    is exact.
    """
    mat = np.asarray(mat, dtype=float)
    rows, n = mat.shape
    pf = float(p)
    if n == 0:
        return np.zeros(rows)
    prefix = np.concatenate([np.zeros((rows, 1)), np.cumsum(mat, axis=1)], axis=1)
    best = np.zeros((rows, n + 1))
    for j in range(1, n + 1):
        cand = best[:, j - 1].copy()
        pj = prefix[:, j]
        for i in range(1, j + 1):
            v = best[:, i - 1] + np.abs(pj - prefix[:, i - 1]) ** pf
            np.maximum(cand, v, out=cand)
        best[:, j] = cand
    return best[:, n]


def _james_dp_batch(mat: np.ndarray, p: float) -> np.ndarray:
    return james_power_sums_batch(mat, p) ** (1.0 / float(p))


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
        return np.max(np.abs(mat), axis=1)
    if tag.variant == ELL_P:
        p = float(tag.p)
        if p == 1.0:
            return np.sum(np.abs(mat), axis=1)
        return np.sum(np.abs(mat) ** p, axis=1) ** (1.0 / p)
    if tag.variant == LIN:
        if mat.dtype == object:
            return _lin_norm_exact_batch(mat)
        tails = np.cumsum(np.abs(mat)[:, ::-1], axis=1)[:, ::-1]
        return np.max(tails * lin_weights_float(n), axis=1)
    return _james_dp_batch(mat, float(tag.p))


def _lin_norm_exact_batch(mat: np.ndarray) -> np.ndarray:
    """``lin_norm`` of every exact row, one column at a time: the running max
    over exact tails never materializes a rows x N array of Fractions."""
    best = np.zeros(mat.shape[0], dtype=object)
    tail = np.zeros(mat.shape[0], dtype=object)
    for k in range(mat.shape[1], 0, -1):
        tail = tail + np.abs(mat[:, k - 1])
        best = np.maximum(best, lin_weight(k) * tail)
    return best


def summing_basis_norm_batch(mat: np.ndarray) -> np.ndarray:
    """Vectorized ``summing_basis_norm`` over rows; exact on object rows."""
    mat = as_rows(mat)
    rows, n = mat.shape
    if n == 0:
        return np.zeros(rows, dtype=mat.dtype)
    tails = np.cumsum(mat[:, ::-1], axis=1)[:, ::-1]
    return np.max(np.abs(tails), axis=1)


def james_enumeration(a, p: Real) -> float:
    """Exhaustive interval-chain evaluation of the james norm (small N only).

    Kept separate from the DP so each can check the other; do not call for
    N much above 12.
    """
    entries = [float(e) for e in CoordinateVector.of(a).entries]
    n = len(entries)
    if n == 0:
        return 0.0
    prefix = [0.0]
    for e in entries:
        prefix.append(prefix[-1] + e)
    pf = float(p)
    best = 0.0
    cuts = range(1, n + 2)
    for size in range(2, n + 2):
        for chain in itertools.combinations(cuts, size):
            s = 0.0
            for k in range(len(chain) - 1):
                s += abs(prefix[chain[k + 1] - 1] - prefix[chain[k] - 1]) ** pf
            if s > best:
                best = s
    return best ** (1.0 / pf)
