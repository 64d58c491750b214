"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: characteristic
polynomials via Leverrier-Faddeev in extended precision, root solving via
the companion matrix (numpy.roots), brute-force series summation, dense
section assembly, and decimal arithmetic.  ``scalar_points_at_distance``,
``scalar_sample_curve`` and ``rowwise_min_self_distance`` are the
exceptions: they keep the one-ray-at-a-time bisection, which the closed-form
ray exits must match within rounding where it hits its targets, and the
one-angle-at-a-time ``cmath`` sum and the full pair search that the faster
code must reproduce exactly.  ``raster_f0`` finds the outer component by a
flood fill, with no winding numbers.  ``singular_values_jacobi`` is a
one-sided Jacobi SVD, independent of LAPACK.  ``as_section`` hands a dense
matrix to ``eigenvalues`` and ``smallest_singular_value``, which take
sections only.
"""

from __future__ import annotations

import cmath
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


def singular_values_jacobi(
    a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60
) -> np.ndarray:
    """All singular values via one-sided Jacobi; slow verification oracle."""
    g = np.asarray(a, dtype=complex).copy()
    if g.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n = g.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = g[:, p].copy()
                gq = g[:, q].copy()
                app = float(np.real(np.vdot(gp, gp)))
                aqq = float(np.real(np.vdot(gq, gq)))
                apq = complex(np.vdot(gp, gq))
                if abs(apq) <= tol * math.sqrt(app * aqq) or apq == 0:
                    continue
                rotated = True
                # absorb the phase into column q, then rotate as in the
                # real symmetric case
                phase = apq / abs(apq)
                gq = gq * phase.conjugate()
                rpq = abs(apq)
                tau = (aqq - app) / (2.0 * rpq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                g[:, p] = c * gp - s * gq
                g[:, q] = s * gp + c * gq
        if not rotated:
            break
    sv = np.sqrt(np.sum(np.abs(g) ** 2, axis=0))
    return np.sort(sv)[::-1]


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


def as_section(a):
    """The square matrix ``a`` as a ``FiniteSection`` holding its diagonals that
    have a nonzero entry."""
    from toepspec import FiniteSection

    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    diagonals = {j: np.diagonal(a, -j).copy() for j in range(1 - n, n)}
    return FiniteSection(order=n, bands={j: d for j, d in diagonals.items() if d.any()})


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


def nonconstant_seed0_symbols(count: int) -> list:
    """The first ``count`` non-constant ``random_symbol`` draws from seed 0,
    the symbols of the benchmark's curve-hs workload."""
    rng, out = np.random.default_rng(0), []
    while len(out) < count:
        s = random_symbol(rng)
        if not s.is_constant:
            out.append(s)
    return out


def scalar_sample_curve(s, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Points phi(e^{i theta_k}) and tangents dphi/dtheta at theta_k =
    2 pi k / M, one angle and one coefficient at a time in ``cmath``: the
    sum b_j e^{ij theta} (times ij for the tangent) over increasing j."""
    points, tangents = [], []
    for k in range(M):
        theta = 2.0 * math.pi * k / M
        p = t = 0j
        for j in sorted(s.coeffs):
            p += s.coeffs[j] * cmath.exp(1j * j * theta)
            t += 1j * j * s.coeffs[j] * cmath.exp(1j * j * theta)
        points.append(p)
        tangents.append(t)
    return np.array(points, dtype=complex), np.array(tangents, dtype=complex)


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


def polygon_winding(vertices, z: complex) -> int:
    """Winding of the closed polygon through ``vertices`` around ``z`` off it,
    by signed crossings of the rightward horizontal ray from ``z`` (Sunday
    2001): +1 for an edge crossing it upward, -1 downward; no angles."""
    p = np.asarray(vertices, dtype=complex) - z
    q = np.roll(p, -1)
    side = (q.real - p.real) * (0.0 - p.imag) - (0.0 - p.real) * (q.imag - p.imag)  # z left of p -> q when > 0
    up = (p.imag <= 0) & (q.imag > 0) & (side > 0)
    down = (p.imag > 0) & (q.imag <= 0) & (side < 0)
    return int(np.sum(up) - np.sum(down))


def rowwise_min_self_distance(points) -> float:
    """Minimum distance between non-adjacent segments of a closed polyline:
    each segment k against the segments l >= k + 2 that share no vertex with
    it, one row at a time through ``symbols._segment_distances``, stopping at
    the first zero.  Every pair, O(M^2) time; O(M) memory."""
    from toepspec.symbols import _segment_distances

    a = np.asarray(points, dtype=complex)
    b = np.roll(a, -1)
    M = len(a)
    row_min = []
    # segment k against l >= k + 2, skipping the cyclic neighbour M - 1 of 0
    for k in range(M - 2):
        stop = M - 1 if k == 0 else M
        row_min.append(np.min(_segment_distances(a[k], b[k], a[k + 2 : stop], b[k + 2 : stop])))
        if row_min[-1] == 0.0:
            break
    return float(np.min(row_min))


def raster_f0(curve, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """Cell centres z[q, p] = xs[p] + 1j xs[q], xs = linspace(-1.2 scale,
    1.2 scale, n), and whether a 4-connected flood fill from the raster's border
    reaches each cell without entering one whose centre lies within 0.75 cell
    of the sampled polyline.

    The polyline lies in the disc of radius ``scale``, and a step between two
    free neighbouring centres stays more than a quarter cell from it, so the
    fill cannot cross it: every reached cell lies in F0, the unbounded
    component of the polyline's complement.  Only the cells in each segment's
    box, widened by 0.75 cell, are measured against that segment.
    """
    xs = np.linspace(-1.2 * curve.scale(), 1.2 * curve.scale(), n)
    r = 0.75 * (xs[1] - xs[0])
    z = xs[None, :] + 1j * xs[:, None]
    free = np.ones((n, n), dtype=bool)
    a = np.asarray(curve.points)

    def window(u, v):
        return slice(np.searchsorted(xs, min(u, v) - r), np.searchsorted(xs, max(u, v) + r, side="right"))

    for p, q in zip(a, np.roll(a, -1)):
        rows, cols = window(p.imag, q.imag), window(p.real, q.real)
        w, d = z[rows, cols] - p, q - p
        t = np.clip((w.real * d.real + w.imag * d.imag) / max(abs(d) ** 2, 1e-300), 0.0, 1.0)
        free[rows, cols] &= np.abs(w - t * d) > r
    reached = np.zeros((n, n), dtype=bool)
    reached[[0, -1], :] = reached[:, [0, -1]] = True
    reached &= free
    while True:
        grown = reached.copy()
        grown[1:] |= reached[:-1]
        grown[:-1] |= reached[1:]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= free
        if np.array_equal(grown, reached):
            return z, reached
        reached = grown


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
