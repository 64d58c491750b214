"""Finite sections of the Hardy- and Bergman-Toeplitz matrices.

In the monomial bases the Hardy-Toeplitz matrix is [b_{i-j}] and the
Bergman-Toeplitz matrix carries the extra weight
sqrt((min(i,j)+1)/(max(i,j)+1)).  The squared Frobenius norm of their
difference admits the exact double-series form evaluated here with a
certified truncation error.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .symbols import HarmonicSymbol


class SectionKind(enum.Enum):
    HT = "ht"
    BT = "bt"


@dataclass(frozen=True)
class FiniteSection:
    """N x N corner of an operator matrix, stored by its diagonals, immutable.

    ``bands`` maps an offset j (row minus column), -N < j < N, to the read-only
    vector of length N - |j| whose element k sits at
    (k + max(j, 0), k + max(-j, 0)); absent offsets are zero diagonals.
    ``entries`` is the dense matrix, built on first read and then cached.
    """

    kind: SectionKind
    order: int
    bands: dict[int, np.ndarray]
    symbol: HarmonicSymbol

    def __post_init__(self) -> None:
        for band in self.bands.values():
            band.setflags(write=False)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        a = np.zeros((self.order, self.order), dtype=complex)
        for j, band in self.bands.items():
            k = np.arange(len(band))
            a[k + max(j, 0), k + max(-j, 0)] = band
        a.setflags(write=False)
        return a

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(float(np.vdot(b, b).real) for b in self.bands.values()))


def _bt_weights(N: int, L: int) -> np.ndarray:
    """Bergman weights sqrt(k / (k + L)), k = 1..N-L, along offset +-L."""
    k = np.arange(1, N - L + 1, dtype=float)
    return np.sqrt(k / (k + L))


def _section(s: HarmonicSymbol, N: int, kind: SectionKind) -> FiniteSection:
    N = int(N)
    if N < 1:
        raise ValueError(f"section order must be >= 1, got {N}")
    bt = kind is SectionKind.BT
    bands = {}
    for j, v in s.coeffs.items():
        if abs(j) < N:
            # np.full keeps the bits of v: np.ones(...) * v turns an imaginary -0.0 into +0.0
            bands[j] = _bt_weights(N, abs(j)) * v if bt else np.full(N - abs(j), v)
    return FiniteSection(kind=kind, order=N, bands=bands, symbol=s)


def ht_section(s: HarmonicSymbol, N: int) -> FiniteSection:
    """N x N Hardy-Toeplitz section with entries b_{i-j}."""
    return _section(s, N, SectionKind.HT)


def bt_entry(s: HarmonicSymbol, i: int, j: int) -> complex:
    """Single Bergman-Toeplitz entry sqrt((min(i,j)+1)/(max(i,j)+1)) b_{i-j}."""
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    b = s[i - j]
    if b == 0:
        return 0j
    w = math.sqrt((min(i, j) + 1) / (max(i, j) + 1))
    return w * b


def bt_section(s: HarmonicSymbol, N: int) -> FiniteSection:
    """N x N Bergman-Toeplitz section."""
    return _section(s, N, SectionKind.BT)


def hs_difference_sq_truncated(s: HarmonicSymbol, N: int) -> float:
    """Frobenius sum sum_{0<=i,j<N} |tau_{i,j} - b_{i-j}|^2, one diagonal per
    coefficient: offset j carries the weights ``_bt_weights(N, |j|)``.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"section order must be >= 1, got {N}")
    total = 0.0
    for j, v in s.coeffs.items():
        if 0 < abs(j) < N:
            total += abs(v) * abs(v) * float(np.sum((1.0 - _bt_weights(N, abs(j))) ** 2))
    return total


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_bound: float


def _inner_term(k: np.ndarray, L: int) -> np.ndarray:
    """Term 1 / ((k+L+1) (sqrt(k+L+1) + sqrt(k+1))^2), vectorized in k."""
    kk = np.asarray(k, dtype=float)
    return 1.0 / ((kk + L + 1) * (np.sqrt(kk + L + 1) + np.sqrt(kk + 1)) ** 2)


def _inner_tail_integral(X: float, L: int) -> float:
    """integral_X^infty of the inner term, in closed form.

    With u = sqrt(x+1), v = sqrt(x+L+1) the antiderivative of
    1/((x+L+1)(sqrt(x+L+1)+sqrt(x+1))^2) = (2 - L/(x+L+1)
    - 2 sqrt((x+1)/(x+L+1))) / L^2 is
    (2x - L log(x+L+1) - 2 u v + 2 L log(u+v)) / L^2, with limit
    (2 L log 2 - L - 2) / L^2 at infinity.  So that no large terms cancel,
    their difference is taken as (2 L log1p(L / (u+v)^2) + (2 (L+1) - (L+2) q)
    / (u v + X)) / L^2 with q = u v - X = (X (L+2) + L + 1) / (u v + X).
    """
    u = math.sqrt(X + 1.0)
    v = math.sqrt(X + L + 1.0)
    q = (X * (L + 2.0) + L + 1.0) / (u * v + X)
    tail = 2.0 * L * math.log1p(L / (u + v) ** 2) + (2.0 * (L + 1.0) - (L + 2.0) * q) / (u * v + X)
    return tail / (L * L)


def hs_difference_sq_series(s: HarmonicSymbol, tol: float) -> SeriesResult:
    """Exact-series value of ||T_bt - T_ht||_F^2 with certified tail bound.

    The series is sum_{l != 0} l^2 |b_l|^2 S(|l|) with
    S(L) = sum_k 1/((k+L+1)(sqrt(k+L+1)+sqrt(k+1))^2).  Each S(L) is summed
    directly up to K terms and completed with the closed-form integral of the
    (decreasing) term function; the omitted remainder per l is at most the
    first skipped term, so tail_bound < tol by the choice of K.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    weights: dict[int, float] = {}
    for j, v in s.coeffs.items():
        if j != 0:
            weights[abs(j)] = weights.get(abs(j), 0.0) + j * j * (abs(v) * abs(v))
    total_weight = sum(weights.values())
    if total_weight == 0.0:
        return SeriesResult(value=0.0, tail_bound=0.0)

    # Sum - integral correction leaves an error <= t_{K+1} ~ 1/(4 K^2) per
    # inner series, so K ~ sqrt(W / (4 tol)) certifies the weighted total.
    K = max(1000, int(math.ceil(math.sqrt(total_weight / (4.0 * tol)))) + 10)
    value = 0.0
    tail_bound = 0.0
    ks = np.arange(K + 1, dtype=float)
    for L, w in sorted(weights.items()):
        partial = float(np.sum(_inner_term(ks, L)))
        correction = _inner_tail_integral(K + 1.0, L)
        value += w * (partial + correction)
        tail_bound += w * float(_inner_term(np.array([K + 1.0]), L)[0])
    return SeriesResult(value=value, tail_bound=tail_bound)


def hs_bound(s: HarmonicSymbol) -> float:
    """The proven bound (pi^2 / 24) ||phi'||_2^2."""
    return (math.pi**2 / 24.0) * s.derivative_norm_sq()
