"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: characteristic
polynomials via Leverrier-Faddeev in extended precision, root solving via
the companion matrix (numpy.roots), brute-force series summation, dense
section assembly, and decimal arithmetic.  ``scalar_points_at_distance`` is
the exception: it keeps the one-ray-at-a-time bisection that the vectorised
one must reproduce.
"""

from __future__ import annotations

import math

import numpy as np


def leverrier_faddeev(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first.

    Runs in extended precision (clongdouble) to keep the coefficients of
    moderately large matrices trustworthy.
    """
    m = np.asarray(a, dtype=np.clongdouble)
    n = m.shape[0]
    p = np.eye(n, dtype=np.clongdouble)
    c = np.ones(n + 1, dtype=np.clongdouble)
    for k in range(1, n + 1):
        p = m @ p
        c[k] = -np.trace(p) / k
        p = p + c[k] * np.eye(n, dtype=np.clongdouble)
    return c


def charpoly_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalues via Leverrier-Faddeev + companion-matrix cross-solve."""
    return np.roots(leverrier_faddeev(a).astype(complex))


def match_distance(got, expected) -> float:
    """Greedy minimal-distance multiset matching distance."""
    pool = list(got)
    worst = 0.0
    for lam in expected:
        idx = int(np.argmin([abs(lam - x) for x in pool]))
        worst = max(worst, abs(lam - pool.pop(idx)))
    return worst


def elementary_symmetric(values: np.ndarray) -> np.ndarray:
    """Coefficients of prod (x - v) , highest power first (monic)."""
    coeffs = np.array([1.0 + 0j], dtype=np.clongdouble)
    for v in np.asarray(values, dtype=np.clongdouble):
        coeffs = np.convolve(coeffs, np.array([1.0, -v], dtype=np.clongdouble))
    return coeffs


def brute_inner_series(L: int, terms: int) -> float:
    """Direct partial sum of 1/((k+L+1)(sqrt(k+L+1)+sqrt(k+1))^2)."""
    k = np.arange(terms, dtype=float)
    return float(np.sum(1.0 / ((k + L + 1) * (np.sqrt(k + L + 1) + np.sqrt(k + 1)) ** 2)))


def long_k_series(s, tol: float) -> tuple[float, float]:
    """HS series sum_{l != 0} l^2 |b_l|^2 sum_{k>=0} t_k(|l|) summed directly
    to K = max(1000, ceil(sqrt(W / (4 tol))) + 10), W = sum l^2 |b_l|^2, plus
    the tail integral from K + 1 in decimal arithmetic.  t decreases, so the
    true value lies in [value, value + bound] with bound = sum_l l^2 |b_l|^2
    t_{K+1}(|l|); the terms are summed in blocks of 2^18."""
    weights = [(abs(j), j * j * abs(v) ** 2) for j, v in s.coeffs.items() if j]
    W = sum(w for _, w in weights)
    K = max(1000, int(math.ceil(math.sqrt(W / (4.0 * tol)))) + 10)

    def term(k, L):
        return 1.0 / ((k + L + 1) * (np.sqrt(k + L + 1) + np.sqrt(k + 1)) ** 2)

    value = bound = 0.0
    for L, w in weights:
        partial = sum(
            float(np.sum(term(np.arange(lo, min(lo + 2**18, K + 1), dtype=float), L)))
            for lo in range(0, K + 1, 2**18)
        )
        value += w * (partial + inner_tail_integral_decimal(K + 1.0, L))
        bound += w * float(term(K + 1.0, L))
    return value, bound


def dense_section(s, N: int, kind: str) -> np.ndarray:
    """N x N HT ("ht") or BT ("bt") section built densely: b_{i-j} gathered
    through the N x N offset matrix i - j, times the N x N weight matrix
    sqrt(min(i+1, j+1) / max(i+1, j+1)) for BT."""
    c = np.zeros(2 * N - 1, dtype=complex)
    for j, v in s.coeffs.items():
        if -(N - 1) <= j <= N - 1:
            c[j + N - 1] = v
    i = np.arange(N)
    entries = c[i[:, None] - i[None, :] + N - 1]
    if kind == "ht":
        return entries
    k = np.arange(1, N + 1, dtype=float)
    lo = np.minimum(k[:, None], k[None, :])
    hi = np.maximum(k[:, None], k[None, :])
    return np.sqrt(lo / hi) * entries


def random_symbol(rng: np.random.Generator, max_deg: int = 6, amp: float = 0.9):
    """Random trigonometric-polynomial symbol with coefficients in the unit
    disk (uniform in a square of side 2*amp <= 2)."""
    from toepspec import from_parts

    n = int(rng.integers(0, max_deg + 1))
    m = int(rng.integers(0, max_deg + 1))
    f = [amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2) for _ in range(n + 1)]
    g = [amp * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2) for _ in range(m + 1)]
    return from_parts(f, g)


def min_self_distance(points) -> float:
    """Minimum distance between non-adjacent segments of a closed polyline.

    Dense M x M evaluation: every endpoint against every segment in both
    directions, then 0 wherever two segments cross properly, then the
    minimum over pairs that share no vertex (cyclically).
    """
    a = np.asarray(points, dtype=complex)
    b = np.roll(a, -1)
    M = len(a)
    d = (b - a)[None, :]
    denom = d.real * d.real + d.imag * d.imag
    safe = np.where(denom > 0, denom, 1.0)

    def to_segments(z):
        w = z[:, None] - a[None, :]
        t = np.where(denom > 0, (w.real * d.real + w.imag * d.imag) / safe, 0.0)
        return np.abs(z[:, None] - (a[None, :] + np.clip(t, 0.0, 1.0) * d))

    dist = np.minimum(to_segments(a), to_segments(b))
    dist = np.minimum(dist, dist.T)

    def side(p, q, r):
        u, v = q - p, r - p
        return np.sign(u.real * v.imag - u.imag * v.real)

    ak, bk, al, bl = a[:, None], b[:, None], a[None, :], b[None, :]
    cross = (side(ak, bk, al) * side(ak, bk, bl) < 0) & (side(al, bl, ak) * side(al, bl, bk) < 0)
    dist[cross] = 0.0
    gap = np.abs(np.arange(M)[:, None] - np.arange(M)[None, :])
    dist[(gap <= 1) | (gap >= M - 1)] = np.inf
    return float(np.min(dist))


def scalar_points_at_distance(curve, dists, n_angles: int = 8) -> list:
    """``points_at_distance`` one ray and one scalar distance at a time:
    80 bisection steps per target distance along its ray from the centroid."""
    from toepspec import dist_to_spectrum

    centroid = complex(np.mean(curve.points))
    r_outer = float(np.max(np.abs(curve.points - centroid)))
    out = []
    for i, d in enumerate(dists):
        d = float(d)
        angle = 2.0 * math.pi * i / max(1, len(dists)) + math.pi / (2 * n_angles)
        direction = complex(math.cos(angle), math.sin(angle))
        t_lo, t_hi = 0.0, r_outer + d + 1.0
        for _ in range(80):
            t_mid = 0.5 * (t_lo + t_hi)
            if dist_to_spectrum(centroid + t_mid * direction, curve) < d:
                t_lo = t_mid
            else:
                t_hi = t_mid
        out.append(centroid + t_hi * direction)
    return out


def inner_tail_integral_decimal(X: float, L: int, digits: int = 60) -> float:
    """The closed-form tail integral of the inner HS term, (2 L log 2 - L - 2
    - (2X - L log(X+L+1) - 2uv + 2L log(u+v))) / L^2 with u = sqrt(X+1),
    v = sqrt(X+L+1), evaluated in ``digits``-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        x, l = Decimal(X), Decimal(L)
        u, v = (x + 1).sqrt(), (x + l + 1).sqrt()
        limit = 2 * l * Decimal(2).ln() - l - 2
        at_x = 2 * x - l * (x + l + 1).ln() - 2 * u * v + 2 * l * (u + v).ln()
        return float((limit - at_x) / (l * l))
