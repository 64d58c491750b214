"""Seeded inputs for the benchmark workloads.

A workload is a list of ``toepspec`` CLI calls over config files that this
module writes into a work directory; the calls write their outputs under
``<work>/out``.  The program sees only those files.
Seed 0 keeps the symbols and regions of the committed configs exactly; a
nonzero seed perturbs them slightly, so cost and checks stay comparable
across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("report-mixed", "pseudo-ellipse", "curve-hs")

# Problem sizes.  "default" keeps one run of the benchmark near half a
# minute on a 2-core machine: the ROADMAP sizes ("full") take 60-70 s for a
# single report or 48-node pseudospectrum, too long to repeat within a run.
# "tiny" is for the self-test.
SCALES = {
    "default": {
        "ladder": [50, 100, 200],
        "pseudo_order": 80,
        "grid": (8, 6),
        "symbols": 8,
        "curve_samples": 2048,
        "hs_ladder": [500, 1000, 2000],
    },
    "full": {
        "ladder": [200, 400, 800],
        "pseudo_order": 400,
        "grid": (8, 6),
        "symbols": 8,
        "curve_samples": 2048,
        "hs_ladder": [500, 1000, 2000],
    },
    "tiny": {
        "ladder": [16, 24, 32],
        "pseudo_order": 32,
        "grid": (2, 2),
        "symbols": 1,
        "curve_samples": 256,
        "hs_ladder": [8, 16, 32],
    },
}

# Relative size of the seeded coefficient perturbation on report-mixed, and
# the largest seeded grid shift on pseudo-ellipse as a fraction of a cell.
COEFF_JITTER = 1e-3
GRID_SHIFT = 0.5
HS_SERIES_TOL = 1e-12


@dataclass
class Plan:
    """CLI calls of one workload iteration and what the checker needs."""

    workload: str
    calls: list[list[str]]
    params: dict


def symbol_coeffs(f: list, g: list) -> dict[int, complex]:
    """b_j of phi = conj(g) + f from config pairs, as ``from_parts`` defines it."""
    b: dict[int, complex] = {}
    for k, (re, im) in enumerate(f):
        b[k] = b.get(k, 0j) + complex(re, im)
    for k, (re, im) in enumerate(g):
        b[-k] = b.get(-k, 0j) + complex(re, im).conjugate()
    return {j: v for j, v in b.items() if v != 0}


def _write_config(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _report_mixed(root: Path, work: Path, rng: np.random.Generator, seed: int, size: dict) -> Plan:
    doc = json.loads((root / "configs" / "mixed.json").read_text(encoding="utf-8"))
    if seed:
        for part in ("f", "g"):
            scaled = []
            for pair in doc["symbol"][part]:
                factor = 1.0 + COEFF_JITTER * rng.uniform(-1.0, 1.0) if pair != [0, 0] else 1.0
                scaled.append([c * factor for c in pair])
            doc["symbol"][part] = scaled
    doc["ladder"] = size["ladder"]
    doc["output_dir"] = str(work / "out" / "report")
    cfg = _write_config(work / "mixed.json", doc)
    return Plan(
        "report-mixed",
        [["report", "--config", cfg]],
        {
            "coeffs": symbol_coeffs(doc["symbol"]["f"], doc["symbol"]["g"]),
            "ladder": doc["ladder"],
            "series_tol": doc["tolerances"]["series_tol"],
            "curve_samples": doc["curve_samples"],
            "out": doc["output_dir"],
        },
    )


def _pseudo_ellipse(root: Path, work: Path, rng: np.random.Generator, seed: int, size: dict) -> Plan:
    doc = json.loads((root / "configs" / "ellipse.json").read_text(encoding="utf-8"))
    nx, ny = size["grid"]
    reg = doc["region"]
    if seed:
        dx = (reg["re_max"] - reg["re_min"]) / (nx - 1) * GRID_SHIFT * rng.uniform(-1.0, 1.0)
        dy = (reg["im_max"] - reg["im_min"]) / (ny - 1) * GRID_SHIFT * rng.uniform(-1.0, 1.0)
        reg = {
            "re_min": reg["re_min"] + dx,
            "re_max": reg["re_max"] + dx,
            "im_min": reg["im_min"] + dy,
            "im_max": reg["im_max"] + dy,
        }
    doc["region"] = reg
    doc["grid"] = {"nx": nx, "ny": ny}
    doc["section_order"] = size["pseudo_order"]
    doc["output_dir"] = str(work / "out" / "pseudo")
    cfg = _write_config(work / "ellipse.json", doc)
    return Plan(
        "pseudo-ellipse",
        [["pseudospectrum", "--config", cfg]],
        {
            "coeffs": symbol_coeffs(doc["symbol"]["f"], doc["symbol"]["g"]),
            "kind": doc.get("section_kind", "bt"),
            "order": doc["section_order"],
            "region": reg,
            "nx": nx,
            "ny": ny,
            "out": doc["output_dir"],
        },
    )


def random_symbol_parts(rng: np.random.Generator, max_deg: int = 6, amp: float = 0.9) -> tuple[list, list]:
    """f and g coefficient pairs drawn as the test suite's ``random_symbol``
    draws them, redrawn until the symbol is not constant."""
    while True:
        n = int(rng.integers(0, max_deg + 1))
        m = int(rng.integers(0, max_deg + 1))
        f = [amp * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / np.sqrt(2) for _ in range(n + 1)]
        g = [amp * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / np.sqrt(2) for _ in range(m + 1)]
        if n or m:
            return [[c.real, c.imag] for c in f], [[c.real, c.imag] for c in g]


def _curve_hs(root: Path, work: Path, rng: np.random.Generator, seed: int, size: dict) -> Plan:
    calls = []
    symbols = []
    for k in range(size["symbols"]):
        f, g = random_symbol_parts(rng)
        doc = {
            "symbol": {"f": f, "g": g},
            "ladder": size["hs_ladder"],
            "curve_samples": size["curve_samples"],
            "tolerances": {"series_tol": HS_SERIES_TOL},
            "output_dir": str(work / "out" / f"curve-{k}"),
        }
        cfg = _write_config(work / f"symbol-{k}.json", doc)
        calls += [["curve", "--config", cfg], ["hs-check", "--config", cfg]]
        symbols.append({"coeffs": symbol_coeffs(f, g), "out": doc["output_dir"]})
    return Plan(
        "curve-hs",
        calls,
        {
            "symbols": symbols,
            "curve_samples": size["curve_samples"],
            "hs_ladder": size["hs_ladder"],
        },
    )


_BUILDERS = {
    "report-mixed": _report_mixed,
    "pseudo-ellipse": _pseudo_ellipse,
    "curve-hs": _curve_hs,
}


def make_plan(workload: str, seed: int, root: Path, work: Path, scale: str = "default") -> Plan:
    """Write the inputs of ``workload`` for ``seed`` under ``work``."""
    rng = np.random.default_rng(seed)
    return _BUILDERS[workload](root, work, rng, seed, SCALES[scale])
