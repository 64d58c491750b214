"""Pseudospectra and discrete-eigenvalue detection for finite sections.

Eigenvalues of non-normal Toeplitz-like sections need not approximate the
operator spectrum (spectral pollution).  The detector therefore combines a
persistence ladder (candidates must re-appear, nearly unmoved, at every
section order) with a smallest-singular-value certificate at the largest
order, and classifies survivors against the symbol curve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import eigenvalues, smallest_singular_value
from .sections import FiniteSection, bt_section, ht_section
from .symbols import HarmonicSymbol, SymbolCurve, sample_curve

DEFAULT_LADDER = (200, 400, 800)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def is_valid(self) -> bool:
        """min < max, with a width and height that are finite doubles."""
        return all(0 < e < math.inf for e in (self.re_max - self.re_min, self.im_max - self.im_min))


@dataclass(frozen=True)
class PseudospectrumField:
    """sigma_min((A_N - lambda)) over a uniform rectangular grid.

    ``sigma_min[q, p]`` corresponds to the node re_values[p] + 1j im_values[q].
    """

    region: Rect
    nx: int
    ny: int
    sigma_min: np.ndarray
    section_order: int

    def re_values(self) -> np.ndarray:
        return np.linspace(self.region.re_min, self.region.re_max, self.nx)

    def im_values(self) -> np.ndarray:
        return np.linspace(self.region.im_min, self.region.im_max, self.ny)


def pseudospectrum(
    a: FiniteSection, region: Rect, nx: int, ny: int
) -> PseudospectrumField:
    """Evaluate sigma_min(A - lambda) on each node of the grid.

    Nodes are independent work units; results do not depend on evaluation
    order.
    """
    nx, ny = int(nx), int(ny)
    if nx < 2 or ny < 2:
        raise ValueError("grid resolution must be at least 2 x 2")
    if not region.is_valid():
        raise ValueError(f"region needs a finite, positive width and height: {region}")
    field = PseudospectrumField(region, nx, ny, sigma_min=np.empty((ny, nx)), section_order=a.order)
    res = field.re_values()
    for q, im in enumerate(field.im_values()):
        for p, re in enumerate(res):
            field.sigma_min[q, p] = smallest_singular_value(a, complex(re, im))
    return field


class Component(enum.Enum):
    F0 = "F0"
    BOUNDED_HOLE = "boundedHole"
    NEAR_ESSENTIAL = "nearEssential"


@dataclass(frozen=True)
class DiscreteCandidate:
    location: complex
    persistence_drift: float
    certificate: float
    component: Component


@dataclass(frozen=True)
class DetectOptions:
    """Detection tolerances; ``None`` fields resolve to symbol-scaled defaults.

    delta_curve defaults to 0.05 * wiener_norm, drift_tol to
    1e-3 * wiener_norm, cert_tol to 1e-6 * ||A_{N_max}||_F.
    """

    delta_curve: float | None = None
    drift_tol: float | None = None
    cert_tol: float | None = None
    curve_samples: int | None = None


@dataclass(frozen=True)
class DetectionResult:
    """Certified and uncertified candidates plus detection side notes
    (``rung_eigenvalues``: all eigenvalues of each converged rung, by order)."""

    candidates: tuple[DiscreteCandidate, ...]
    uncertified: tuple[DiscreteCandidate, ...]
    skipped_rungs: tuple[int, ...]
    curve: SymbolCurve
    rung_eigenvalues: Mapping[int, np.ndarray]


def _resolve_options(
    s: HarmonicSymbol, opts: DetectOptions, top: FiniteSection
) -> tuple[float, float, float]:
    """delta_curve, drift_tol, cert_tol, each the explicit value or its
    default; cert_tol scales with ``top``, the order-N_max BT section.  The
    defaults are 0 for the zero symbol."""
    w = s.wiener_norm()
    delta_curve = opts.delta_curve if opts.delta_curve is not None else 0.05 * w
    drift_tol = opts.drift_tol if opts.drift_tol is not None else 1e-3 * w
    cert_tol = opts.cert_tol if opts.cert_tol is not None else 1e-6 * top.frobenius_norm()
    return delta_curve, drift_tol, cert_tol


def _chain_ladder(
    rung_eigs: list[np.ndarray], drift_tol: float
) -> list[tuple[complex, float]]:
    """Greedy nearest-neighbor chaining across consecutive rungs.

    Every start advances at once, one distance matrix per later rung.
    Returns (final location, max step drift), in start order, for chains
    spanning the whole ladder with every step below drift_tol.  Ties break
    on smaller index.
    """
    loc = np.asarray(rung_eigs[0], dtype=complex)
    drift = np.zeros(len(loc))
    for later in rung_eigs[1:]:
        if len(later) == 0:
            return []
        dists = np.abs(later - loc[:, None])
        idx = np.argmin(dists, axis=1)
        step = dists[np.arange(len(loc)), idx]
        # a NaN step neither ends a chain nor raises its drift (fmax)
        alive = ~(step >= drift_tol)
        loc, drift = later[idx][alive], np.fmax(drift, step)[alive]
    return [(complex(z), float(d)) for z, d in zip(loc, drift)]


def _checked_ladder(ladder: Sequence[int]) -> tuple[int, ...]:
    """The ladder's orders as ints; ValueError unless at least 3, strictly increasing."""
    ladder = tuple(int(n) for n in ladder)
    if len(ladder) < 3 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly increasing with length >= 3")
    return ladder


def detect_discrete(
    s: HarmonicSymbol,
    ladder: Sequence[int] = DEFAULT_LADDER,
    opts: DetectOptions = DetectOptions(),
) -> DetectionResult:
    """Detect candidate discrete eigenvalues of the Bergman-Toeplitz operator.

    Pipeline: eigensolve every ladder rung, drop eigenvalues within
    delta_curve of the symbol curve, chain survivors across rungs, certify
    each distinct chain end by sigma_min at the largest order, and classify the
    ends together.
    Candidates come in (re, im) order; where chains merge, the first
    chain's drift is kept.  Deterministic for identical inputs.  A bad
    ladder, or an explicit tolerance that is not a finite positive number,
    raises ValueError before the first eigensolve.
    """
    ladder = _checked_ladder(ladder)
    for name in ("delta_curve", "drift_tol", "cert_tol"):
        v = getattr(opts, name)
        if v is not None and not 0 < v < math.inf:
            raise ValueError(f"DetectOptions.{name} = {v} is not a finite positive number")
    curve = sample_curve(s, opts.curve_samples)

    rung_eigs: dict[int, np.ndarray] = {}
    for n in ladder:
        top = bt_section(s, n)  # after the loop: the order-N_max section
        res = eigenvalues(top)
        if res.converged:
            rung_eigs[n] = res.values
    delta_curve, drift_tol, cert_tol = _resolve_options(s, opts, top)
    far = [ev[curve.distance_to(ev) >= delta_curve] for ev in rung_eigs.values()]

    # fewer than three converged rungs cannot show persistence
    chains = _chain_ladder(far, drift_tol) if len(far) >= 3 else []
    # numpy orders complex values by real, then imaginary part
    ends, first = np.unique(np.array([loc for loc, _ in chains], dtype=complex), return_index=True)
    cands = [
        DiscreteCandidate(loc, chains[i][1], smallest_singular_value(top, loc), comp)
        for loc, i, comp in zip(ends.tolist(), first.tolist(), classify(ends, curve, delta_curve))
    ]
    return DetectionResult(
        candidates=tuple(c for c in cands if c.certificate < cert_tol),
        uncertified=tuple(c for c in cands if not c.certificate < cert_tol),
        skipped_rungs=tuple(n for n in ladder if n not in rung_eigs),
        curve=curve,
        rung_eigenvalues=rung_eigs,
    )


def classify(lam: complex | np.ndarray, curve: SymbolCurve, delta_curve: float) -> Component | list[Component]:
    """Classify ``lam``, one point (gives a ``Component``) or a 1-D array (gives a list), by its
    ``SymbolCurve.locate`` record: nearEssential within delta_curve of the curve or on it (where
    winding is undefined); else F0, the unbounded component, if ``_in_f0``; boundedHole else."""
    d, on, windings = curve.locate(lam)
    near, f0 = (d < delta_curve) | on, _in_f0(on, windings)
    comps = [Component.NEAR_ESSENTIAL if n else Component.F0 if f else Component.BOUNDED_HOLE for n, f in zip(near, f0)]
    return comps[0] if np.ndim(lam) == 0 else comps


def _in_f0(on: np.ndarray, windings: np.ndarray) -> np.ndarray:
    """The F0 rule on a ``SymbolCurve.locate`` record: off the curve, with every winding 0."""
    return ~on & ~np.any(windings, axis=1)


@dataclass(frozen=True)
class ResolventFit:
    p_hat: float
    c_hat: float


def resolvent_growth_fit(
    s: HarmonicSymbol,
    sample_points: Sequence[complex],
    N: int,
    curve: SymbolCurve | None = None,
) -> ResolventFit:
    """Least-squares fit of log ||R(z)|| = log c - p log dist(z, spectrum).

    ``||R(z)||`` is approximated by 1 / sigma_min(A_N - z) on the
    Hardy-Toeplitz section, and dist(z, spectrum) by the curve distance,
    which it equals in F0; one ``SymbolCurve.locate`` gives both.  A sample
    that ``_in_f0`` puts outside F0 raises ValueError, before any sigma_min.
    """
    pts = [complex(z) for z in sample_points]
    if len(pts) < 8:
        raise ValueError(f"need at least 8 sample points, got {len(pts)}")
    if curve is None:
        curve = sample_curve(s)
    section = ht_section(s, N)
    d, on, windings = curve.locate(np.array(pts))
    for z, f0 in zip(pts, _in_f0(on, windings)):
        if not f0:
            raise ValueError(f"sample point {z} is not in the outer component F0")
    sig = [smallest_singular_value(section, z) for z in pts]
    for z, v in zip(pts, sig):
        if v <= 0:
            raise ValueError(f"singular section at sample point {z}")
    x = np.array([math.log(v) for v in d.tolist()])
    y = np.array([-math.log(v) for v in sig])
    if float(np.ptp(x)) < 1e-12:
        raise ValueError("sample distances are degenerate (all equal)")
    slope, intercept = np.polyfit(x, y, 1)
    return ResolventFit(p_hat=-float(slope), c_hat=float(math.exp(intercept)))


def points_at_distance(curve: SymbolCurve, dists: Sequence[float]) -> list[complex]:
    """Deterministic outer-component points at prescribed spectrum distances.

    Target i gets the ray at angle 2 pi i / len(dists) + pi / 16 from one
    start: the curve centroid, or the curve sample nearest it when
    ``classify`` puts the centroid in F0 at least the smallest target from
    the curve; only from there can a ray miss a target's neighbourhood.  Its
    point is where the ray leaves, for the last time, the target's
    neighbourhood of the sampled polyline, the union of one stadium per
    segment: the largest of the segments' exit parameters, in one
    ``SymbolCurve.last_exits`` query.  Farther out the ray stays beyond the
    target distance of the curve, so the point lies in F0 at the target
    distance from the curve, up to rounding.  A target that is not a finite
    positive number raises ValueError.
    """
    d = np.array(dists, dtype=float)
    for i, x in enumerate(d.tolist()):
        if not 0 < x < math.inf:
            raise ValueError(f"target distance dists[{i}] = {x} is not a finite positive number")
    a = curve.points
    start = complex(np.mean(a))
    if len(d) and classify(start, curve, d.min()) is Component.F0:
        start = complex(a[np.argmin(np.abs(a - start))])
    angles = [2.0 * math.pi * i / max(1, len(d)) + math.pi / 16 for i in range(len(d))]
    direction = np.array([complex(math.cos(x), math.sin(x)) for x in angles])
    # each ray is passed as direction * target, which last_exits splits again
    return [complex(z) for z in start + curve.last_exits(start, d * direction) * direction]
