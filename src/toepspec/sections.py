"""Finite sections of the Hardy- and Bergman-Toeplitz matrices.

In the monomial bases the Hardy-Toeplitz matrix is [b_{i-j}] and the
Bergman-Toeplitz matrix carries the extra weight
sqrt((min(i,j)+1)/(max(i,j)+1)), which ``_bt_weights`` computes along each
diagonal.  The squared Hilbert-Schmidt norm of the difference of the two
operators is the order-N truncation of that difference plus a closed-form
tail whose error is bounded by convexity (trapezoid and midpoint rules).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import HarmonicSymbol


@dataclass(frozen=True)
class FiniteSection:
    """N x N banded matrix, stored by its diagonals, immutable.

    ``bands`` maps an offset j (row minus column), -N < j < N, to the read-only
    vector of length N - |j| whose element k sits at
    (k + max(j, 0), k + max(-j, 0)); absent offsets are zero diagonals.  A band
    of another length or with a non-finite element raises ValueError.
    ``entries`` is the dense complex matrix, filled anew on every read, as is
    ``np.asarray(section)``; the section caches nothing.
    """

    order: int
    bands: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        for j, band in self.bands.items():
            if band.shape != (self.order - abs(j),) or not np.isfinite(band).all():
                raise ValueError(f"band {j} needs {self.order - abs(j)} finite elements")
            band.setflags(write=False)

    @property
    def entries(self) -> np.ndarray:
        return _dense(self.order, self.bands).astype(complex, copy=False)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.entries if dtype is None else self.entries.astype(dtype, copy=False)

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(float(np.vdot(b, b).real) for b in self.bands.values()))


def _dense(n: int, bands: dict[int, np.ndarray]) -> np.ndarray:
    """A new writable n x n matrix holding ``bands``, laid out as in
    ``FiniteSection``, in their common dtype (float64 at least)."""
    a = np.zeros((n, n), dtype=np.result_type(float, *bands.values()))
    for j, band in bands.items():
        # band j starts at (max(j, 0), max(-j, 0)) and steps n + 1 in the flat matrix
        start = j * n if j >= 0 else -j
        a.reshape(-1)[start : start + len(band) * (n + 1) : n + 1] = band
    return a


def _bt_weights(N: int, L: int) -> np.ndarray:
    """Bergman weights sqrt(k / (k + L)), k = 1..N-L, along offset +-L."""
    k = np.arange(1, N - L + 1, dtype=float)
    return np.sqrt(k / (k + L))


def _section(s: HarmonicSymbol, N: int, bt: bool) -> FiniteSection:
    N = int(N)
    if N < 1:
        raise ValueError(f"section order must be >= 1, got {N}")
    bands = {}
    for j, v in s.coeffs.items():
        if abs(j) < N:
            # float64 when b_j's imaginary part is +0.0; a -0.0 stays complex, so entries keeps it
            v = v.real if v.imag == 0 and math.copysign(1.0, v.imag) > 0 else v
            # np.full keeps the bits of v: np.ones(...) * v turns an imaginary -0.0 into +0.0
            bands[j] = _bt_weights(N, abs(j)) * v if bt else np.full(N - abs(j), v)
    return FiniteSection(order=N, bands=bands)


def ht_section(s: HarmonicSymbol, N: int) -> FiniteSection:
    """N x N Hardy-Toeplitz section with entries b_{i-j}."""
    return _section(s, N, bt=False)


def bt_section(s: HarmonicSymbol, N: int) -> FiniteSection:
    """N x N Bergman-Toeplitz section."""
    return _section(s, N, bt=True)


def hs_difference_sq_truncated(s: HarmonicSymbol, N: int) -> float:
    """Frobenius sum sum_{0<=i,j<N} |tau_{i,j} - b_{i-j}|^2, one diagonal per
    coefficient: offset j carries the weights ``_bt_weights(N, |j|)``, so
    offsets j and -j share sum (1 - w)^2, which is summed once.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"section order must be >= 1, got {N}")
    gaps = {L: float(np.sum((1.0 - _bt_weights(N, L)) ** 2)) for L in {abs(j) for j in s.coeffs} if 0 < L < N}
    total = 0.0
    for j, v in s.coeffs.items():
        if abs(j) in gaps:
            total += abs(v) * abs(v) * gaps[abs(j)]
    return total


@dataclass(frozen=True)
class SeriesResult:
    value: float
    tail_bound: float


def _inner_term(k: float, L: int) -> float:
    """Term t_k = 1 / ((k+L+1) (sqrt(k+L+1) + sqrt(k+1))^2) = (1 - w_{k+1})^2 / L^2
    of the series along offset +-L, with w the Bergman weight of ``_bt_weights``."""
    return 1.0 / ((k + L + 1) * (math.sqrt(k + L + 1) + math.sqrt(k + 1)) ** 2)


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


def series_tol_floor(s: HarmonicSymbol) -> float:
    """Smallest tol ``hs_difference_sq_series`` accepts, 4 eps ||phi'||_2^2:
    the series value is below ||phi'||_2^2 and rounds at a few eps times it."""
    return 4.0 * float(np.finfo(float).eps) * s.derivative_norm_sq()


def hs_difference_sq_series(s: HarmonicSymbol, tol: float) -> SeriesResult:
    """||T_bt - T_ht||_HS^2 as the order-N truncation plus a bounded tail.

    Along offset l, |l| = L, the truncation holds the first a = N - L terms of
    l^2 |b_l|^2 sum_k t_k (``_inner_term``).  t is convex, so the trapezoid and
    midpoint rules bound the omitted sum_{k>=a} t_k below by I(a) + t_a / 2 and
    above by I(a - 1/2), I = ``_inner_tail_integral``.  The value adds the lower
    bound, ``tail_bound`` the gap (about l^2 |b_l|^2 / (16 a^3)), so value <=
    true <= value + tail_bound in exact arithmetic.  a starts at about
    (||phi'||_2^2 / (16 tol))^(1/3); N doubles while the bound is not below tol.
    """
    floor = series_tol_floor(s)
    if not (tol > 0 and tol >= floor):
        raise ValueError(f"tol must be positive and >= 4 eps ||phi'||_2^2 = {floor:.3g}, got {tol}")
    W = s.derivative_norm_sq()
    if W == 0.0:
        return SeriesResult(value=0.0, tail_bound=0.0)
    N = max(s.m, s.n) + math.ceil((W / (16.0 * tol)) ** (1.0 / 3.0)) + 1
    while True:
        value, tail_bound = hs_difference_sq_truncated(s, N), 0.0
        for j, v in s.coeffs.items():
            if j != 0:
                L, w = abs(j), j * j * (abs(v) * abs(v))
                lower = _inner_tail_integral(N - L, L) + 0.5 * _inner_term(N - L, L)
                value += w * lower
                tail_bound += w * (_inner_tail_integral(N - L - 0.5, L) - lower)
        if tail_bound < tol:
            return SeriesResult(value=value, tail_bound=tail_bound)
        N *= 2


def hs_bound(s: HarmonicSymbol) -> float:
    """The proven bound (pi^2 / 24) ||phi'||_2^2."""
    return (math.pi**2 / 24.0) * s.derivative_norm_sq()
