"""Harmonic symbols phi = conj(g) + f with trigonometric-polynomial parts.

A symbol is stored through its Fourier coefficients b_j, j in [-m, n]:
b_j = f_j for j >= 1, b_{-j} = conj(g_j) for j >= 1, and b_0 = f_0 + conj(g_0).
phi and dphi/dtheta are one pass, sum_j b_j e^{ij theta} and sum_j (ij) b_j
e^{ij theta} over an array of angles at once, and the harmonic extension is
the phi of that pass on the coefficients r^{|j|} b_j.  The module also provides
the sampled boundary curve gamma = phi(T), whose points and tangents are one
such pair, together with winding numbers and geometric (Jordan / cusp) diagnostics.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# Relative tolerance separating "on the curve" from "off the curve".
ON_CURVE_RTOL = 1e-12
# Relative cusp tolerance: a curve is cusp-free when the slowest tangent is
# at least TAU_CUSP times the fastest one.
TAU_CUSP = 1e-6
# Self-intersection tolerance relative to the curve's extent (``SymbolCurve._touch_tol``).
SELF_INTERSECT_RTOL = 1e-9
# Relative slack of the self-distance sweep's pair pruning, far above the
# rounding error (a few ulps of the scale) of a computed segment distance.
PAIR_SLACK = 1e-12
# Pairs per block of the curve queries and per chunk of the self-distance
# sweep: bounds their temporaries independently of the sample count.  The
# largest, a complex array over a block's pairs, is then 64 KiB, below glibc's
# default 128 KiB mmap threshold, so blocks reuse heap memory instead of
# mapping, faulting in and unmapping every temporary.
PAIR_BUDGET = 2**12
# Coefficients below this modulus have a subnormal or zero square.
_SQRT_TINY = math.sqrt(sys.float_info.min)


class OnCurveError(ValueError):
    """The query point lies on (or too close to) the sampled curve."""


class DegenerateCurveError(ValueError):
    """The sampled curve is degenerate (all points coincide)."""


@dataclass(frozen=True)
class HarmonicSymbol:
    """Trigonometric-polynomial harmonic symbol, immutable after construction.

    ``coeffs`` maps j -> b_j; entries outside [-m, n] are absent and read as 0.
    A coefficient whose squared modulus underflows (falls below the smallest
    normal double, i.e. |b_j| < 1.5e-154) is dropped like an exact zero, so
    ``derivative_norm_sq`` and ``hs_bound`` vanish exactly when the symbol is
    constant.
    """

    coeffs: Mapping[int, complex]
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        clean = {
            int(j): complex(v)
            for j, v in self.coeffs.items()
            # written as "not <" so a NaN coefficient is kept, not dropped
            if not abs(complex(v)) < _SQRT_TINY
        }
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "m", max((-j for j in clean if j < 0), default=0))
        object.__setattr__(self, "n", max((j for j in clean if j > 0), default=0))

    def __getitem__(self, j: int) -> complex:
        return self.coeffs.get(j, 0j)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return all(j == 0 for j in self.coeffs)

    def eval_boundary(self, theta: float | np.ndarray) -> complex | np.ndarray:
        """Boundary value sum_j b_j e^{ij theta} at one angle (gives a
        complex) or a 1-D array of angles (gives an array)."""
        return _fourier_sums(self.coeffs, theta)[0]

    def eval_disk(self, z: complex) -> complex:
        """Harmonic extension at |z| < 1: sum_j b_j r^{|j|} e^{ij theta}."""
        z = complex(z)
        r = abs(z)
        if not r < 1.0:  # a NaN modulus too
            raise ValueError(f"eval_disk requires |z| < 1, got |z| = {r}")
        theta = cmath.phase(z) if r > 0 else 0.0
        return _fourier_sums({j: r ** abs(j) * b for j, b in self.coeffs.items()}, theta)[0]

    def boundary_tangent(self, theta: float | np.ndarray) -> complex | np.ndarray:
        """d phi / d theta = sum_j (ij) b_j e^{ij theta}; ``theta`` as in
        ``eval_boundary``."""
        return _fourier_sums(self.coeffs, theta)[1]

    def derivative_norm_sq(self) -> float:
        """||phi'||_2^2 = sum_l l^2 |b_l|^2 (probability Haar measure)."""
        return float(sum(j * j * (abs(v) * abs(v)) for j, v in self.coeffs.items() if j))

    def wiener_norm(self) -> float:
        """sum_j |b_j|, the absolutely-convergent-series norm."""
        return float(sum(abs(v) for v in self.coeffs.values()))


def from_parts(f_coeffs: Sequence[complex], g_coeffs: Sequence[complex]) -> HarmonicSymbol:
    """Build the symbol phi = conj(g) + f from Taylor coefficients of f, g.

    Empty inputs give the zero symbol.  The constant terms merge:
    b_0 = f_0 + conj(g_0).
    """
    coeffs: dict[int, complex] = {}
    for k, fk in enumerate(f_coeffs):
        if fk != 0:
            coeffs[k] = coeffs.get(k, 0j) + complex(fk)
    for k, gk in enumerate(g_coeffs):
        if gk != 0:
            coeffs[-k] = coeffs.get(-k, 0j) + complex(gk).conjugate()
    return HarmonicSymbol(coeffs)


def _fourier_sums(coeffs: Mapping[int, complex], theta) -> tuple:
    """(phi, dphi/dtheta) = (sum_j b_j e^{ij theta}, sum_j (ij) b_j e^{ij theta}) for ``coeffs``
    j -> b_j, j increasing, from one cos(j theta), sin(j theta) per j; at one finite angle (each
    a complex) or an array of them (each an array); else ValueError.  Each term is multiplied out
    in real arithmetic, as CPython multiplies complex numbers (numpy's complex multiply may fuse
    multiply-adds), so it rounds as a scalar ``cmath`` sum wherever np.cos and np.sin round as libm."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.isfinite(t).all():
        raise ValueError("theta must be finite")
    sums = [(np.zeros(t.shape), np.zeros(t.shape))] * 2
    for j in sorted(coeffs):
        cos, sin = np.cos(j * t), np.sin(j * t)
        sums = [
            (re + (w.real * cos - w.imag * sin), im + (w.real * sin + w.imag * cos))
            for (re, im), w in zip(sums, (coeffs[j], 1j * j * coeffs[j]))
        ]
    outs = []
    for re, im in sums:
        out = re.astype(complex)
        out.imag = im
        outs.append(complex(out[0]) if np.ndim(theta) == 0 else out)
    return tuple(outs)


def _angles(M: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(M) / M


@dataclass(frozen=True)
class SymbolCurve:
    """Uniform-angle samples of the closed curve gamma = phi(T).

    ``points[k] = phi(e^{i theta_k})`` with theta_k = 2 pi k / M, and
    ``tangents[k] = dphi/dtheta(theta_k)``, both computed analytically.
    ``ends[k] = points[(k + 1) % M]`` ends the polyline's segment k; it is
    built on first read, then cached and read-only.
    """

    points: np.ndarray
    tangents: np.ndarray

    def __post_init__(self) -> None:
        for name in ("points", "tangents"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
            getattr(self, name).setflags(write=False)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        b = np.concatenate((self.points[1:], self.points[:1]))
        b.setflags(write=False)
        return b

    @functools.cached_property
    def _contacts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, l, X) of the crossing loops of ``_loop_windings``, built on first read."""
        a, b = self.points, self.ends
        tol = self._touch_tol()
        found = []
        for k, l in _near_pairs(a, b, tol):
            e, f = b[k] - a[k], b[l] - a[l]
            t = np.divide(_cross2(a[l] - a[k], f), _cross2(e, f), out=np.zeros(len(k)), where=_cross2(e, f) != 0)
            near = _segment_distances(a[k], b[k], a[l], b[l]) <= tol
            found.append((k[near], l[near], (a[k] + np.clip(t, 0.0, 1.0) * e)[near]))
        return tuple(np.concatenate(parts) for parts in zip(*found))

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def _scale(self) -> float:
        s = float(np.max(np.abs(self.points))) if len(self.points) else 0.0
        return s if s > 0 else 1.0

    def scale(self) -> float:
        """Characteristic length used by relative tolerances, found on first call and then cached."""
        return self._scale

    def _touch_tol(self) -> float:
        """How near two segments touch: SELF_INTERSECT_RTOL times the curve's extent, which a
        translation keeps, plus 4 eps max |p|, the points' rounding, which grows with |p|."""
        p = self.points
        return float(SELF_INTERSECT_RTOL * max(np.ptp(p.real), np.ptp(p.imag)) + 4.0 * sys.float_info.epsilon * np.abs(p).max())

    def distance_to(self, lam: complex | np.ndarray) -> float | np.ndarray:
        """Distance from ``lam``, one finite point (gives a float) or a 1-D array of
        them (gives an array), to the sampled closed polyline, by ``_by_blocks``."""
        a, b = self.points, self.ends
        d = _by_blocks(
            lambda z, k: np.min(_point_segment_distances(z, a[k], b[k]), axis=1), lam, len(a), np.minimum
        )
        return float(d[0]) if np.ndim(lam) == 0 else d

    def locate(self, lam: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(distance, on_curve, in_f0, winding), arrays, per point of ``lam`` (one finite point or a 1-D
        array): its ``distance_to``; within ON_CURVE_RTOL * scale (the one on-curve test); in F0, off the
        curve with every ``_loop_windings`` column 0 (the one F0 rule); the whole curve's winding, 0 on it."""
        d = self.distance_to(np.atleast_1d(lam))
        on = d <= ON_CURVE_RTOL * self.scale()
        windings = _loop_windings(self, lam, ~on)
        return d, on, ~on & ~windings.any(axis=1), windings[:, -1]

    def last_exits(self, start: complex, rays: np.ndarray) -> np.ndarray:
        """Per ray v, the largest t with start + t v / |v| within |v| of the polyline, or -inf: the
        largest of the segments' ``_ray_exits``, by ``_by_blocks``."""
        a, b = self.points, self.ends
        return _by_blocks(lambda v, k: np.max(_ray_exits(start, v, a[k], b[k]), axis=1), rays, len(a), np.maximum)


def _by_blocks(fn, lam, M: int, ufunc) -> np.ndarray:
    """``fn(points, segments)`` on blocks of R = PAIR_BUDGET // S points by S = min(M, PAIR_BUDGET)
    segments; ``fn`` gives a float per point, and ``ufunc.reduce`` combines a point's chunks."""
    pts = np.atleast_1d(np.asarray(lam, dtype=complex))[:, None]
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    S = max(1, min(M, PAIR_BUDGET))
    R = PAIR_BUDGET // S
    chunks = [slice(j, j + S) for j in range(0, M, S)]
    blocks = [ufunc.reduce([fn(pts[i : i + R], k) for k in chunks]) for i in range(0, len(pts), R)]
    return np.concatenate([np.empty(0), *blocks])


def _point_segment_distances(lam, a, b) -> np.ndarray:
    """Distances from points ``lam`` to segments a -> b, closed form.

    Broadcasts: one point against many segments, or many points against one.
    """
    d = b - a
    denom = d.real * d.real + d.imag * d.imag
    w = lam - a
    dot = w.real * d.real + w.imag * d.imag
    t = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0)
    closest = a + np.clip(t, 0.0, 1.0) * d
    return np.abs(lam - closest)


def _ray_exits(p, v, a, b) -> np.ndarray:
    """Where the lines p + t v / |v| last leave the |v|-stadiums of segments a -> b, closed form.

    The stadium is the disc of radius |v| about a, the same about b, and the
    rectangle between them; the result is the largest t with p + t v / |v|
    in it, or -inf where the line misses it.  Only the disc about a and the
    rectangle's long sides are tested: on a closed polyline b is the next
    segment's a, and a line that leaves the rectangle through a short side
    leaves it inside an end disc.  Broadcasts like ``_point_segment_distances``.
    """
    d = np.abs(v)
    u = v / d
    w = p - a
    # disc about a: |w + t u| = d, with w split along and across the line
    along = w.real * u.real + w.imag * u.imag
    across = np.abs(_cross2(u, w))
    t_disc = np.where(across <= d, np.sqrt(np.maximum((d - across) * (d + across), 0.0)) - along, -np.inf)
    # the line leaves the strip |cross(e, z - a)| <= d |e| at t_side; a long
    # side holds that point when it projects into the segment
    e = b - a
    c0, c1 = _cross2(e, w), _cross2(e, u)
    t_side = np.divide(d * np.abs(e) - np.sign(c1) * c0, np.abs(c1), out=np.zeros_like(c1), where=c1 != 0)
    s = (w.real + t_side * u.real) * e.real + (w.imag + t_side * u.imag) * e.imag
    on_side = (c1 != 0) & (0 <= s) & (s <= e.real * e.real + e.imag * e.imag)
    return np.maximum(t_disc, np.where(on_side, t_side, -np.inf))


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u.real * v.imag - u.imag * v.real


def _segment_distances(p, q, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact distances between the segments [p, q] and [a, b], elementwise
    over broadcast arrays (one segment against many, or pairs).

    Two segments that do not cross attain their distance at an endpoint of
    one of them, so the minimum of the four endpoint-to-segment distances is
    exact; a proper crossing gives 0.
    """
    d = np.minimum(
        np.minimum(_point_segment_distances(p, a, b), _point_segment_distances(q, a, b)),
        np.minimum(_point_segment_distances(a, p, q), _point_segment_distances(b, p, q)),
    )
    o1 = _cross2(q - p, a - p)
    o2 = _cross2(q - p, b - p)
    o3 = _cross2(b - a, p - a)
    o4 = _cross2(b - a, q - a)
    # signs, not a product of cross products, which underflows or overflows far from unit scale
    d[(np.sign(o1) * np.sign(o2) < 0) & (np.sign(o3) * np.sign(o4) < 0)] = 0.0
    return d


def min_curve_samples(s: HarmonicSymbol) -> int:
    """Fewest samples that resolve the highest frequency: max(64, 16 (m + n + 1))."""
    return max(64, 16 * (s.m + s.n + 1))


def sample_curve(s: HarmonicSymbol, M: int | None = None) -> SymbolCurve:
    """Sample gamma = phi(T) at M uniform angles with analytic tangents.

    Requires M >= ``min_curve_samples(s)``; M defaults to the larger of 256
    and that minimum.
    """
    min_m = min_curve_samples(s)
    M = max(256, min_m) if M is None else int(M)
    if M < min_m:
        raise ValueError(f"M = {M} too small; need M >= {min_m}")
    points, tangents = _fourier_sums(s.coeffs, _angles(M))
    return SymbolCurve(points=points, tangents=tangents)


def winding_number(c: SymbolCurve, lam: complex) -> int:
    """Winding of the sampled polyline around ``lam``, the ``winding`` of its ``SymbolCurve.locate``
    record; exact for the polyline.  Raises OnCurveError when ``locate`` puts ``lam`` on the curve."""
    _, on, _, winding = c.locate(complex(lam))
    if on[0]:
        raise OnCurveError(f"point {complex(lam)} lies on the sampled curve")
    return int(winding[0])


@dataclass(frozen=True)
class CurveDiagnostics:
    jordan: bool
    cusp_free: bool
    min_tangent_speed: float
    min_self_distance: float


def curve_diagnostics(c: SymbolCurve) -> CurveDiagnostics:
    """Jordan / cusp-free diagnostics of the sampled curve.

    cusp_free: min |tangent| > TAU_CUSP * max |tangent|.
    jordan: no two non-adjacent polyline segments come within
    ``SymbolCurve._touch_tol`` of each other.  Raises DegenerateCurveError
    when all points coincide or there are fewer than 4 (no non-adjacent pair).

    U = min_k dist(segment k, segment k + 2) bounds the minimum; only the pairs of
    ``_near_pairs`` at reach U + PAIR_SLACK * scale can be nearer, as computed too,
    and they are evaluated as in a full search, up to the first crossing (a 0),
    so the result is the same double.
    """
    p = c.points
    M = len(p)
    if M < 4:
        raise DegenerateCurveError(f"curve has {M} samples; the self-distance needs at least 4")
    if np.all(p == p[0]):
        raise DegenerateCurveError("all curve points coincide")
    speeds = np.abs(c.tangents)
    min_speed = float(np.min(speeds))
    max_speed = float(np.max(speeds))
    cusp_free = min_speed > TAU_CUSP * max_speed
    min_self = _min_self_distance(p, c.ends, c.scale())
    return CurveDiagnostics(
        jordan=min_self > c._touch_tol(),
        cusp_free=cusp_free,
        min_tangent_speed=min_speed,
        min_self_distance=min_self,
    )


def _min_self_distance(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    """Minimum distance between non-adjacent segments a[k] -> b[k] of the closed
    polyline through the M >= 4 points ``a`` (b: their ``ends``); see ``curve_diagnostics``."""
    M = len(a)
    # segments k and k + 2 share no vertex when M >= 4
    best = math.inf
    for k0 in range(0, M, PAIR_BUDGET):
        k = np.arange(k0, min(k0 + PAIR_BUDGET, M))
        l = (k + 2) % M
        best = min(best, float(np.min(_segment_distances(a[k], b[k], a[l], b[l]))))
    if best == 0:  # no pair is nearer, and a retraced curve puts every box within reach
        return best
    for k, l in _near_pairs(a, b, best + PAIR_SLACK * scale):
        best = min(best, float(np.min(_segment_distances(a[k], b[k], a[l], b[l]), initial=math.inf)))
        if best == 0:  # a crossing: no later pair is nearer
            break
    return best


def _near_pairs(a: np.ndarray, b: np.ndarray, reach: float):
    """Non-adjacent segment pairs k < l of the closed polyline a[k] -> b[k] whose
    boxes come within ``reach`` on both axes, each once, in index arrays of at most
    PAIR_BUDGET pairs (or one row's, fewer than M, when more): a sort and sweep
    (Shamos & Hoey 1976), each segment by its box's low end on the wider axis
    against the later ones that start within ``reach`` of its high end."""
    M = len(a)
    # x: the wider axis; x, y at the segment starts, x1, y1 at their ends
    x, x1, y, y1 = (
        (a.real, b.real, a.imag, b.imag) if np.ptp(a.real) >= np.ptp(a.imag) else (a.imag, b.imag, a.real, b.real)
    )
    x_lo, x_hi = np.minimum(x, x1), np.maximum(x, x1)
    y_lo, y_hi = np.minimum(y, y1), np.maximum(y, y1)
    order = np.argsort(x_lo, kind="stable")
    # sorted segment i pairs with the later-sorted i + 1 .. stop[i] - 1
    stop = np.searchsorted(x_lo[order], x_hi[order] + reach, side="right")
    counts = stop - np.arange(M) - 1
    first = np.concatenate(([0], np.cumsum(counts)))  # first[i]: pairs before row i
    i0 = 0
    while i0 < M:
        # rows i0 .. i1 - 1 hold at most PAIR_BUDGET pairs, or are one row
        i1 = max(i0 + 1, int(np.searchsorted(first, first[i0] + PAIR_BUDGET, side="right")) - 1)
        rows = np.repeat(np.arange(i0, i1), counts[i0:i1])
        offsets = np.arange(len(rows)) - np.repeat(first[i0:i1] - first[i0], counts[i0:i1])
        k, l = order[rows], order[rows + 1 + offsets]
        k, l = np.minimum(k, l), np.maximum(k, l)
        keep = (l - k > 1) & (l - k < M - 1) & (np.maximum(y_lo[l] - y_hi[k], y_lo[k] - y_hi[l]) <= reach)
        yield k[keep], l[keep]
        i0 = i1


def _loop_windings(c: SymbolCurve, lams, off=True) -> np.ndarray:
    """Windings, as floats, around ``lams``, one point or a 1-D array off the polyline: a row per
    point, each crossing loop's winding, then the whole curve's in the last column; a zero row where
    the mask ``off`` is False.  Each contact, a pair k < l of ``_near_pairs`` within
    ``SymbolCurve._touch_tol`` (as makes ``jordan`` False), loops from X, where their lines cross
    (clipped to segment k), along segments k + 1 .. l - 1 back to X.  With contacts as crossings the
    loops span the curve's cycles: all are 0 exactly in the unbounded component, as outside the
    curve's box, where a row is 0 (the last column alone if no point is inside) and no contact is
    computed (``SymbolCurve._contacts``, once per curve).  Points go PAIR_BUDGET // max(S, K) (at
    least one) at a time against chunks of S = min(M, PAIR_BUDGET) segments and the K contacts, each
    row summing its increments in segment order."""
    a, b = c.points, c.ends
    z = np.atleast_1d(np.asarray(lams, dtype=complex))
    inside = off & (a.real.min() <= z.real) & (z.real <= a.real.max()) & (a.imag.min() <= z.imag) & (z.imag <= a.imag.max())
    if not inside.any():
        return np.zeros((len(z), 1))
    k, l, x = c._contacts
    M, S, idx = len(a), min(len(a), PAIR_BUDGET), np.flatnonzero(inside)
    R = max(1, PAIR_BUDGET // max(S, len(k)))
    out = np.zeros((len(z), len(k) + 1))
    for rows in (idx[i : i + R] for i in range(0, len(idx), R)):
        p = z[rows, None]
        turned = np.empty((len(rows), M))  # increments, then running sums: column i totals segments 0 .. i
        for j in range(0, M, S):
            turned[:, j : j + S] = _turns(p, a[j : j + S], b[j : j + S])
        np.cumsum(turned, axis=1, out=turned)
        out[rows, :-1] = turned[:, l - 1] - turned[:, k] + (_turns(p, x, b[k]) + _turns(p, a[l], x))
        out[rows, -1] = turned[:, -1]
    return np.rint(out / (2.0 * math.pi))


def _turns(z, a, b) -> np.ndarray:
    """Angles in (-pi, pi] that segments a -> b turn through about points z off them, broadcast."""
    return np.angle((b - z) / (a - z))
