"""Spectrum distances, the weighted eigenvalue-sum evaluator, and report
assembly: the layer above ``spectra``, which imports nothing from here.

The Hardy-Toeplitz spectrum of a continuous symbol is realized as
gamma union { lambda : winding(lambda) != 0 }; the Weyl fraction measures
distances to that filled set.  The eigenvalue sum runs over the F0
candidates, whose distance to it is their distance to the curve.  It uses
the exponent 3 + epsilon and is reported together with its ratio to
||phi'||_2^2 (the empirical stand-in for the non-constructive constant of
the underlying bound).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .linalg import eigenvalues
from .sections import (
    bt_section,
    hs_bound,
    hs_difference_sq_series,
    hs_difference_sq_truncated,
)
from .spectra import (
    Component,
    DEFAULT_LADDER,
    DetectOptions,
    DiscreteCandidate,
    _checked_ladder,
    detect_discrete,
    points_at_distance,
    resolvent_growth_fit,
)
from .symbols import (
    CurveDiagnostics,
    DegenerateCurveError,
    HarmonicSymbol,
    SymbolCurve,
    curve_diagnostics,
    sample_curve,
)


def dist_to_spectrum(lam: complex | np.ndarray, c: SymbolCurve) -> float | np.ndarray:
    """Distance to the filled Hardy spectrum, as the Weyl fraction uses it: by
    ``SymbolCurve.locate``, zero on the curve or at a nonzero ``winding``, the
    polyline ``distance`` otherwise.  ``lam`` is one finite point (gives a
    float) or a 1-D array of them (gives an array), in PAIR_BUDGET-pair blocks."""
    d, on, _, winding = c.locate(lam)
    d = np.where(on | (winding != 0), 0.0, d)
    return float(d[0]) if np.ndim(lam) == 0 else d


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon = {epsilon} is not a finite positive number")


def lt_sum(
    candidates: Sequence[DiscreteCandidate], c: SymbolCurve, epsilon: float
) -> float:
    """sum of dist(lambda, spectrum)^(3 + epsilon) over the F0 candidates,
    with the curve distance, which is the spectrum distance in F0.  A term or
    a sum beyond the doubles, or an epsilon that is not finite and positive,
    raises ValueError."""
    _check_epsilon(epsilon)
    f0 = [c.distance_to(cand.location) for cand in candidates if cand.component is Component.F0]
    try:
        total = sum((d ** (3.0 + epsilon) for d in f0), 0.0)
    except OverflowError:  # the largest distance overflows first
        raise ValueError(f"distance {max(f0)} ** (3 + epsilon), epsilon = {epsilon}, overflows a double") from None
    if total == math.inf:  # finite terms whose sum is not
        raise ValueError(f"the sum of {len(f0)} terms ** (3 + epsilon), epsilon = {epsilon}, overflows a double")
    return total


def weyl_diagnostic(s: HarmonicSymbol, N: int, curve: SymbolCurve | None = None) -> float | None:
    """Fraction of Bergman-section eigenvalues inside or near the filled
    spectrum; a coarse accumulation indicator expected to approach 1.

    None when the eigensolver does not converge at order N.  ``curve``
    defaults to ``sample_curve(s)``.
    """
    N = int(N)
    if N < 16:
        raise ValueError(f"need N >= 16, got {N}")
    res = eigenvalues(bt_section(s, N))
    if not res.converged:
        return None
    return _near_fraction(s, res.values, sample_curve(s) if curve is None else curve)


def _near_fraction(s: HarmonicSymbol, ev, curve: SymbolCurve) -> float:
    """Fraction of eigenvalues ``ev`` within 0.1 * wiener_norm of the
    filled spectrum."""
    return float(np.mean(dist_to_spectrum(ev, curve) <= 0.1 * s.wiener_norm()))


# Resolvent-fit sample count and spectrum-distance range (times the Wiener
# norm); the fit and the Weyl fraction run at these orders or the top rung.
FIT_POINTS = 16
FIT_DIST_RANGE = (0.05, 0.5)
FIT_ORDER = 400
WEYL_ORDER = 200


@dataclass(frozen=True)
class ReportOptions:
    ladder: tuple[int, ...] = DEFAULT_LADDER
    epsilon: float = 0.01
    series_tol: float = 1e-8
    detect: DetectOptions = DetectOptions()


def _plain(v):
    """JSON form of a report value: a dataclass by its fields, a complex as
    [re, im], an Enum by its value, dict keys as str, a tuple as a list."""
    if is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


@dataclass(frozen=True)
class SpectralReport:
    """``skipped_rungs``: section orders whose eigensolve did not converge,
    ladder rungs and the Weyl order (``weyl_fraction`` is then None).
    ``weyl_fraction`` is also None, with no skipped rung, when the Weyl order
    min(200, N_max) is below 16, ``weyl_diagnostic``'s minimum."""

    symbol: dict[int, complex]
    derivative_norm_sq: float
    wiener_norm: float
    hs_truncated: float
    hs_series: float
    hs_series_tail_bound: float
    hs_bound: float
    candidates: tuple[DiscreteCandidate, ...]
    uncertified_candidates: tuple[DiscreteCandidate, ...]
    skipped_rungs: tuple[int, ...]
    lt_sum: float
    lt_sum_certified_only: float
    epsilon: float
    empirical_constant: float | None
    p_hat: float | None
    c_hat: float | None
    weyl_fraction: float | None
    curve_diagnostics: CurveDiagnostics | None
    dist_error_bound: float
    ladder: tuple[int, ...]

    def to_dict(self) -> dict:
        return _plain(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        def opt(v: float | None, spec: str) -> str:
            return "n/a" if v is None else format(v, spec)

        rows = [
            ("||phi'||_2^2", f"{self.derivative_norm_sq:.12g}"),
            ("wiener norm", f"{self.wiener_norm:.12g}"),
            (f"HS truncated (N={self.ladder[-1]})", f"{self.hs_truncated:.12g}"),
            ("HS series", f"{self.hs_series:.12g}"),
            ("HS bound (pi^2/24)", f"{self.hs_bound:.12g}"),
            ("certified candidates", str(len(self.candidates))),
            ("uncertified candidates", str(len(self.uncertified_candidates))),
            (f"eigenvalue sum (eps={self.epsilon:g})", f"{self.lt_sum:.12g}"),
            ("sum, certified only", f"{self.lt_sum_certified_only:.12g}"),
            ("empirical constant", opt(self.empirical_constant, ".12g")),
            ("p_hat", opt(self.p_hat, ".6g")),
            ("weyl fraction", opt(self.weyl_fraction, ".6g")),
        ]
        if self.curve_diagnostics is not None:
            rows.append(("jordan", str(self.curve_diagnostics.jordan)))
            rows.append(("cusp free", str(self.curve_diagnostics.cusp_free)))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _fit_p_hat(
    s: HarmonicSymbol, curve: SymbolCurve, n_max: int
) -> tuple[float | None, float | None]:
    """(p_hat, c_hat), or (None, None) when the fit is undefined or fails; a
    LAPACK failure (a ValueError too) propagates."""
    w = s.wiener_norm()
    if w == 0 or s.is_constant:
        return None, None
    lo, hi = FIT_DIST_RANGE
    dists = np.linspace(lo * w, hi * w, FIT_POINTS)
    try:
        pts = points_at_distance(curve, dists)
        fit = resolvent_growth_fit(s, pts, min(FIT_ORDER, n_max), curve=curve)
    except np.linalg.LinAlgError:
        raise
    except (ValueError, ArithmeticError):
        return None, None
    return fit.p_hat, fit.c_hat


def build_report(s: HarmonicSymbol, opts: ReportOptions = ReportOptions()) -> SpectralReport:
    """Run Hilbert-Schmidt computations, detection, diagnostics, the eigenvalue
    sum and the resolvent fit; deterministic end to end.  A bad ladder, epsilon,
    series_tol or tolerance raises ValueError before the first eigensolve."""
    ladder = _checked_ladder(opts.ladder)
    n_max = ladder[-1]
    _check_epsilon(opts.epsilon)
    hs_trunc = hs_difference_sq_truncated(s, n_max)
    series = hs_difference_sq_series(s, opts.series_tol)

    detection = detect_discrete(s, ladder, opts.detect)
    curve = detection.curve
    try:
        diag = curve_diagnostics(curve)
    except DegenerateCurveError:
        diag = None

    total = lt_sum(detection.candidates + detection.uncertified, curve, opts.epsilon)
    certified_only = lt_sum(detection.candidates, curve, opts.epsilon)
    dn2 = s.derivative_norm_sq()
    empirical = (total / dn2) if dn2 > 0 else None

    p_hat, c_hat = _fit_p_hat(s, curve, n_max)

    skipped = set(detection.skipped_rungs)
    weyl_n = min(WEYL_ORDER, n_max)
    weyl = None
    if weyl_n not in ladder:  # one solve off the ladder
        weyl = weyl_diagnostic(s, weyl_n, curve)
        if weyl is None:
            skipped.add(weyl_n)
    elif weyl_n >= 16 and weyl_n in detection.rung_eigenvalues:
        weyl = _near_fraction(s, detection.rung_eigenvalues[weyl_n], curve)

    second_deriv_sum = float(sum(j * j * abs(v) for j, v in s.coeffs.items()))
    dist_err = 2.0 * math.pi * second_deriv_sum / (len(curve) * len(curve))

    return SpectralReport(
        symbol=dict(s.coeffs),
        derivative_norm_sq=dn2,
        wiener_norm=s.wiener_norm(),
        hs_truncated=hs_trunc,
        hs_series=series.value,
        hs_series_tail_bound=series.tail_bound,
        hs_bound=hs_bound(s),
        candidates=detection.candidates,
        uncertified_candidates=detection.uncertified,
        skipped_rungs=tuple(sorted(skipped)),
        lt_sum=total,
        lt_sum_certified_only=certified_only,
        epsilon=opts.epsilon,
        empirical_constant=empirical,
        p_hat=p_hat,
        c_hat=c_hat,
        weyl_fraction=weyl,
        curve_diagnostics=diag,
        dist_error_bound=dist_err,
        ladder=ladder,
    )
