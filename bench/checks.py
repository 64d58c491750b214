"""Checks of each workload's outputs against independent references.

Sections are rebuilt here from the entry formulas, not with the library's
builders, and every sigma reference is LAPACK ``gesdd`` through
``np.linalg.svd``.  A check is *hard* when its failure means the run is
broken: an unexpected exit code, missing or malformed output, or a violated
invariant the program guarantees (the HS bound and tail bound, monotone
truncations).  The other checks measure agreement with the reference; their
failures are counted in ``fail_frac`` and do not make a run incorrect.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGMA_RTOL = 1e-8
P_HAT_TOL = 1e-6
_EPS = float(np.finfo(float).eps)

# The resolvent fit that ``toepspec report`` runs with its default options.
FIT_POINTS = 16
FIT_DIST_RANGE = (0.05, 0.5)
FIT_MAX_ORDER = 400


@dataclass(frozen=True)
class Check:
    kind: str
    ok: bool
    hard: bool
    detail: str = ""


def sigma_check(sigma: float, shifted: np.ndarray) -> tuple[bool, float | None]:
    """Compare ``sigma`` with the smallest singular value of ``shifted``.

    Accurate means within SIGMA_RTOL relative, or both values at or below the
    backward-error floor N * eps * ||shifted||_2.  Returns (accurate,
    relative error), the error being None when both are below the floor.
    """
    sv = np.linalg.svd(shifted, compute_uv=False)
    ref = float(sv[-1])
    floor = shifted.shape[0] * _EPS * float(sv[0])
    if sigma <= floor and ref <= floor:
        return True, None
    rel = abs(sigma - ref) / ref if ref > 0 else math.inf
    return rel <= SIGMA_RTOL, rel


def section_matrix(coeffs: dict[int, complex], n: int, kind: str) -> np.ndarray:
    """Hardy-Toeplitz [b_{i-j}], or Bergman-Toeplitz with the weight
    sqrt((min(i,j)+1)/(max(i,j)+1)), built straight from the definition."""
    i = np.arange(n)
    offset = i[:, None] - i[None, :]
    a = np.zeros((n, n), dtype=complex)
    for j, b in coeffs.items():
        a[offset == j] = b
    if kind == "bt":
        lo = np.minimum(i[:, None], i[None, :]) + 1.0
        hi = np.maximum(i[:, None], i[None, :]) + 1.0
        a *= np.sqrt(lo / hi)
    return a


def p_hat_reference(coeffs: dict[int, complex], n_max: int, curve_samples: int) -> float:
    """The report's resolvent-growth exponent with LAPACK sigma on the HT section.

    Sample points and distances come from the public ``points_at_distance``
    and ``dist_to_spectrum``; the section and sigma do not use the library.
    """
    import toepspec as ts

    s = ts.HarmonicSymbol(coeffs)
    curve = ts.sample_curve(s, curve_samples)
    w = s.wiener_norm()
    pts = ts.points_at_distance(curve, np.linspace(FIT_DIST_RANGE[0] * w, FIT_DIST_RANGE[1] * w, FIT_POINTS))
    n = min(FIT_MAX_ORDER, n_max)
    a = section_matrix(coeffs, n, "ht")
    x = [math.log(ts.dist_to_spectrum(z, curve)) for z in pts]
    y = [-math.log(np.linalg.svd(a - z * np.eye(n), compute_uv=False)[-1]) for z in pts]
    return -float(np.polyfit(x, y, 1)[0])


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _csv_rows(text: str | None) -> list[list[float]] | None:
    if text is None:
        return None
    try:
        return [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    except ValueError:
        return None


class Checker:
    """Checks one workload's iterations; references are computed once."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self._p_ref: float | None = None

    def __call__(self, calls: list[dict]) -> list[Check]:
        check = {
            "report-mixed": self._report_mixed,
            "pseudo-ellipse": self._pseudo_ellipse,
            "curve-hs": self._curve_hs,
        }[self.plan.workload]
        return check(calls)

    def _report_mixed(self, calls: list[dict]) -> list[Check]:
        p = self.plan.params
        text = _read(Path(p["out"]) / "report.json")
        try:
            rep = json.loads(text) if text is not None else None
        except ValueError:
            rep = None
        code = calls[0]["code"]
        ok = code == 0 and rep is not None and rep["skipped_rungs"] == []
        checks = [Check("exit", ok, True, f"exit {code}")]
        if rep is None:
            return checks
        checks.append(
            Check(
                "hs",
                rep["hs_series"] <= rep["hs_bound"] and rep["hs_series_tail_bound"] < p["series_tol"],
                True,
                f"series {rep['hs_series']} bound {rep['hs_bound']} tail {rep['hs_series_tail_bound']}",
            )
        )
        if self._p_ref is None:
            self._p_ref = p_hat_reference(p["coeffs"], p["ladder"][-1], p["curve_samples"])
        p_hat = rep["p_hat"]
        ok = p_hat is not None and abs(p_hat - self._p_ref) <= P_HAT_TOL
        checks.append(Check("p_hat", ok, False, f"p_hat {p_hat} reference {self._p_ref:.17g}"))
        n = p["ladder"][-1]
        a = section_matrix(p["coeffs"], n, "bt")
        for cand in rep["candidates"] + rep["uncertified_candidates"]:
            z = complex(*cand["location"])
            ok, rel = sigma_check(cand["certificate"], a - z * np.eye(n))
            checks.append(Check("certificate", ok, False, f"z {z} rel_err {rel}"))
        return checks

    def _pseudo_ellipse(self, calls: list[dict]) -> list[Check]:
        p = self.plan.params
        rows = _csv_rows(_read(Path(p["out"]) / "pseudospectrum.csv"))
        reg, nx, ny = p["region"], p["nx"], p["ny"]
        grid = [
            (re_, im_)
            for im_ in np.linspace(reg["im_min"], reg["im_max"], ny)
            for re_ in np.linspace(reg["re_min"], reg["re_max"], nx)
        ]
        code = calls[0]["code"]
        ok = (
            code == 0
            and rows is not None
            and len(rows) == len(grid)
            and all(len(r) == 3 and r[0] == g[0] and r[1] == g[1] for r, g in zip(rows, grid))
        )
        checks = [Check("exit", ok, True, f"exit {code}, {len(rows or [])} rows")]
        if not ok:
            return checks
        n = p["order"]
        a = section_matrix(p["coeffs"], n, p["kind"])
        for re_, im_, sigma in rows:
            z = complex(re_, im_)
            ok, rel = sigma_check(sigma, a - z * np.eye(n))
            checks.append(Check("node", ok, False, f"z {z} rel_err {rel}"))
        return checks

    def _curve_hs(self, calls: list[dict]) -> list[Check]:
        p = self.plan.params
        checks = []
        for k, sym in enumerate(p["symbols"]):
            curve, hs = calls[2 * k], calls[2 * k + 1]
            checks.append(Check("exit", curve["code"] == 0 and hs["code"] == 0, True, f"symbol {k}"))
            rows = _csv_rows(_read(Path(sym["out"]) / "curve.csv"))
            ok = (
                rows is not None
                and len(rows) == p["curve_samples"]
                and all(len(r) == 5 and all(map(math.isfinite, r)) for r in rows)
            )
            checks.append(Check("curve_rows", ok, True, f"symbol {k}"))
            out = hs["stdout"]
            series = re.search(r"^hs_series: (\S+)", out, re.M)
            bound = re.search(r"^hs_bound: +(\S+)", out, re.M)
            ok = series is not None and bound is not None and float(series[1]) <= float(bound[1])
            checks.append(Check("hs_bound", ok, True, f"symbol {k}"))
            trunc = [float(v) for v in re.findall(r"^hs_truncated N=\d+: (\S+)", out, re.M)]
            ok = len(trunc) == len(p["hs_ladder"]) and all(a <= b for a, b in zip(trunc, trunc[1:]))
            checks.append(Check("hs_monotone", ok, True, f"symbol {k}: {trunc}"))
        return checks
