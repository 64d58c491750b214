"""Command-line front end.

Subcommands: hs-check, spectrum, pseudospectrum, report, curve.  One JSON
config document describes the experiment; outputs are CSV/JSON artifacts
with 17-significant-digit floats so external plots are bit-stable.

Exit codes: 0 success, 2 bound violation, 3 eigensolver or SVD
non-convergence, 64 usage/parse error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import ReportOptions, build_report
from .linalg import eigenvalues, singular_values_jacobi
from .sections import (
    bt_section,
    hs_bound,
    hs_difference_sq_series,
    hs_difference_sq_truncated,
    ht_section,
    series_tol_floor,
)
from .spectra import DetectOptions, Rect, pseudospectrum
from .symbols import (
    DegenerateCurveError,
    HarmonicSymbol,
    curve_diagnostics,
    from_parts,
    sample_curve,
)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64
EXIT_IO = 74


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    symbol: HarmonicSymbol
    ladder: list[int] = field(default_factory=lambda: [200, 400, 800])
    region: Rect | None = None
    nx: int = 32
    ny: int = 32
    epsilon: float = 0.01
    delta_curve: float | None = None
    drift_tol: float | None = None
    cert_tol: float | None = None
    series_tol: float = 1e-8
    curve_samples: int | None = None
    section_kind: str = "bt"
    section_order: int | None = None
    output_dir: Path = Path(".")

    def detect_options(self) -> DetectOptions:
        return DetectOptions(
            delta_curve=self.delta_curve,
            drift_tol=self.drift_tol,
            cert_tol=self.cert_tol,
            curve_samples=self.curve_samples,
        )

    def report_options(self) -> ReportOptions:
        return ReportOptions(
            ladder=tuple(self.ladder),
            epsilon=self.epsilon,
            series_tol=self.series_tol,
            detect=self.detect_options(),
        )


def _is_int(v: object) -> bool:
    """JSON integer; ``true``/``false`` are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v: object) -> bool:
    """Finite JSON number (``NaN``, ``Infinity`` and booleans rejected)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # integer beyond the float range
        return False


def _coeff_list(raw: object, name: str) -> list[complex]:
    if not isinstance(raw, list):
        raise ConfigError(f"field '{name}' must be a list of [re, im] pairs")
    out: list[complex] = []
    for k, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_finite(v) for v in pair)
        ):
            raise ConfigError(f"field '{name}[{k}]' must be an [re, im] pair of finite numbers")
        out.append(complex(pair[0], pair[1]))
    return out


def _positive(value: object, name: str) -> float:
    if not _is_finite(value) or value <= 0:
        raise ConfigError(f"field '{name}' must be a positive finite number")
    return float(value)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if "symbol" not in doc or not isinstance(doc["symbol"], dict):
        raise ConfigError("field 'symbol' must be an object with 'f' and 'g'")
    sym = doc["symbol"]
    f = _coeff_list(sym.get("f", []), "symbol.f")
    g = _coeff_list(sym.get("g", []), "symbol.g")
    cfg = RunConfig(symbol=from_parts(f, g))
    if not math.isfinite(cfg.symbol.derivative_norm_sq()):
        raise ConfigError("field 'symbol' is too large: ||phi'||_2^2 is not a finite double")

    if "ladder" in doc:
        ladder = doc["ladder"]
        if (
            not isinstance(ladder, list)
            or not ladder
            or not all(_is_int(n) and n >= 1 for n in ladder)
            or any(b <= a for a, b in zip(ladder, ladder[1:]))
        ):
            raise ConfigError("field 'ladder' must be a strictly increasing list of positive integers")
        cfg.ladder = list(ladder)
    if "region" in doc:
        reg = doc["region"]
        keys = ("re_min", "re_max", "im_min", "im_max")
        if not isinstance(reg, dict) or not all(
            _is_finite(reg.get(k)) for k in keys
        ):
            raise ConfigError("field 'region' must contain finite numbers re_min, re_max, im_min, im_max")
        cfg.region = Rect(*(float(reg[k]) for k in keys))
        if cfg.region.is_empty():
            raise ConfigError("field 'region' is empty (min >= max)")
    if "grid" in doc:
        grid = doc["grid"]
        if not isinstance(grid, dict) or not all(
            _is_int(grid.get(k)) and grid.get(k) >= 2 for k in ("nx", "ny")
        ):
            raise ConfigError("field 'grid' must contain integers nx, ny >= 2")
        cfg.nx, cfg.ny = grid["nx"], grid["ny"]
    if "epsilon" in doc:
        cfg.epsilon = _positive(doc["epsilon"], "epsilon")
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("field 'tolerances' must be an object")
    for key in ("delta_curve", "drift_tol", "cert_tol", "series_tol"):
        if key in tols:
            setattr(cfg, key, _positive(tols[key], f"tolerances.{key}"))
    floor = series_tol_floor(cfg.symbol)
    if cfg.series_tol < floor:
        raise ConfigError(f"field 'tolerances.series_tol' must be >= {floor:.3g}, 4 eps ||phi'||_2^2")
    if "curve_samples" in doc:
        least = max(64, 16 * (cfg.symbol.m + cfg.symbol.n + 1))  # sample_curve's minimum
        if not _is_int(doc["curve_samples"]) or doc["curve_samples"] < least:
            raise ConfigError(f"field 'curve_samples' must be an integer >= {least}")
        cfg.curve_samples = doc["curve_samples"]
    if "section_kind" in doc:
        kind = doc["section_kind"]
        if kind not in ("ht", "bt"):
            raise ConfigError("field 'section_kind' must be 'ht' or 'bt'")
        cfg.section_kind = kind
    if "section_order" in doc:
        so = doc["section_order"]
        if not _is_int(so) or so < 1:
            raise ConfigError("field 'section_order' must be a positive integer")
        cfg.section_order = so
    if "output_dir" in doc:
        if not isinstance(doc["output_dir"], str):
            raise ConfigError("field 'output_dir' must be a string path")
        cfg.output_dir = Path(doc["output_dir"])
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_hs_check(cfg: RunConfig) -> int:
    s = cfg.symbol
    for n in cfg.ladder:
        print(f"hs_truncated N={n}: {_fmt(hs_difference_sq_truncated(s, n))}")
    series = hs_difference_sq_series(s, cfg.series_tol)
    bound = hs_bound(s)
    print(f"hs_series: {_fmt(series.value)} (tail bound {_fmt(series.tail_bound)})")
    print(f"hs_bound:  {_fmt(bound)}")
    if series.value <= bound + cfg.series_tol:
        print("bound check: PASS")
        return EXIT_OK
    print("bound check: FAIL")
    return EXIT_BOUND_VIOLATION


def cmd_spectrum(cfg: RunConfig) -> int:
    s = cfg.symbol
    out = cfg.output_dir
    code = EXIT_OK
    build = bt_section if cfg.section_kind == "bt" else ht_section
    for n in cfg.ladder:
        res = eigenvalues(build(s, n).entries)
        if not res.converged:
            print(f"warning: eigensolver did not converge at N={n}", file=sys.stderr)
            code = EXIT_NO_CONVERGENCE
        lines = ["re,im"]
        lines += [f"{_fmt(v.real)},{_fmt(v.imag)}" for v in res.values]
        _write_text(out / f"eigenvalues_{n}.csv", "\n".join(lines) + "\n")
        print(f"wrote {out / f'eigenvalues_{n}.csv'} ({n} rows)")
    return code


def cmd_pseudospectrum(cfg: RunConfig, svd_check: bool = False) -> int:
    if cfg.region is None:
        raise ConfigError("field 'region' is required for pseudospectrum")
    s = cfg.symbol
    order = cfg.section_order or cfg.ladder[-1]
    build = bt_section if cfg.section_kind == "bt" else ht_section
    section = build(s, order)
    fieldvals = pseudospectrum(section, cfg.region, cfg.nx, cfg.ny)
    lines = ["re,im,sigma_min"]
    res = fieldvals.re_values()
    ims = fieldvals.im_values()
    for q, im in enumerate(ims):
        for p, re in enumerate(res):
            lines.append(f"{_fmt(re)},{_fmt(im)},{_fmt(fieldvals.sigma_min[q, p])}")
    _write_text(cfg.output_dir / "pseudospectrum.csv", "\n".join(lines) + "\n")
    print(f"wrote {cfg.output_dir / 'pseudospectrum.csv'} ({cfg.nx * cfg.ny} nodes)")
    if svd_check:
        worst = 0.0
        picks = [(0, 0), (cfg.ny - 1, cfg.nx - 1), (cfg.ny // 2, cfg.nx // 2)]
        for q, p in picks:
            lam = complex(res[p], ims[q])
            sv = singular_values_jacobi(section.entries - lam * np.eye(order))[-1]
            worst = max(worst, abs(sv - fieldvals.sigma_min[q, p]))
        print(f"svd check: max |jacobi - lapack| = {_fmt(worst)}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    if len(cfg.ladder) < 3:
        raise ConfigError("field 'ladder' needs at least 3 rungs for report")
    report = build_report(cfg.symbol, cfg.report_options())
    _write_text(cfg.output_dir / "report.json", report.to_json() + "\n")
    print(report.summary())
    print(f"wrote {cfg.output_dir / 'report.json'}")
    for n in report.skipped_rungs:
        print(f"warning: eigensolver did not converge at N={n}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if report.skipped_rungs else EXIT_OK


def cmd_curve(cfg: RunConfig) -> int:
    curve = sample_curve(cfg.symbol, cfg.curve_samples)
    lines = ["theta,re,im,tangent_re,tangent_im"]
    for k in range(len(curve)):
        theta = 2.0 * np.pi * k / len(curve)
        p = curve.points[k]
        t = curve.tangents[k]
        lines.append(
            f"{_fmt(theta)},{_fmt(p.real)},{_fmt(p.imag)},{_fmt(t.real)},{_fmt(t.imag)}"
        )
    _write_text(cfg.output_dir / "curve.csv", "\n".join(lines) + "\n")
    print(f"wrote {cfg.output_dir / 'curve.csv'} ({len(curve)} samples)")
    try:
        diag = curve_diagnostics(curve)
    except DegenerateCurveError:
        print("curve is degenerate (single point)")
        return EXIT_OK
    print(f"jordan: {diag.jordan}")
    print(f"cusp_free: {diag.cusp_free}")
    print(f"min_tangent_speed: {_fmt(diag.min_tangent_speed)}")
    print(f"min_self_distance: {_fmt(diag.min_self_distance)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepspec",
        description="Finite-section spectral analysis of Toeplitz operators "
        "with harmonic symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("hs-check", "check the Hilbert-Schmidt difference bound"),
        ("spectrum", "write finite-section eigenvalues per ladder rung"),
        ("pseudospectrum", "write a sigma_min grid over a region"),
        ("report", "run the full pipeline and write report.json"),
        ("curve", "sample the symbol curve and print diagnostics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "pseudospectrum":
            p.add_argument(
                "--svd-check", action="store_true", help="verify sigma_min with the Jacobi SVD oracle"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None:
        cfg.output_dir = Path(args.out)
    try:
        if args.command == "hs-check":
            return cmd_hs_check(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "pseudospectrum":
            return cmd_pseudospectrum(cfg, svd_check=args.svd_check)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "curve":
            return cmd_curve(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError(f"unhandled command {args.command}")


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
