"""Command-line front end.

One subcommand per ``cmd_*`` handler, listed in ``build_parser``; ``main``
looks the handler up by name, ``cmd_<subcommand>``, on this module at each
call, so a function bound over it after import is the one that runs.  One JSON
config document describes the experiment.  Outputs are CSV artifacts with
17-significant-digit floats and ``report.json``, whose floats are Python's
shortest round-trip ``repr``; both parse back to the same double, so
external plots are bit-stable.

Exit codes: 0 success, 2 bound violation, 3 eigensolver or SVD
non-convergence, 64 usage/parse error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import ReportOptions, build_report
from .linalg import _dense_sigma_min, eigenvalues
from .sections import (
    bt_section,
    hs_bound,
    hs_difference_sq_series,
    hs_difference_sq_truncated,
    ht_section,
    series_tol_floor,
)
from .spectra import Rect, pseudospectrum
from .symbols import (
    DegenerateCurveError,
    HarmonicSymbol,
    _angles,
    curve_diagnostics,
    from_parts,
    min_curve_samples,
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


# Upper bounds on integer fields, far above any practical run: a larger
# value exits 64 here instead of failing inside numpy.
MAX_ORDER = 2**15  # ladder rungs, section_order, grid nx and ny
MAX_SAMPLES = 2**20  # curve_samples
# Rows per block of ``_write_csv``: five columns of at most 24 characters
# keep a block's text at most 32 KB, below glibc's 128 KiB mmap threshold.
CSV_BLOCK_ROWS = 256


@dataclass
class RunConfig:
    symbol: HarmonicSymbol
    report: ReportOptions = ReportOptions()
    region: Rect | None = None
    nx: int = 32
    ny: int = 32
    section_kind: str = "bt"
    section_order: int | None = None
    output_dir: Path = Path(".")


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
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(_is_finite(v) for v in pair):
            raise ConfigError(f"field '{name}[{k}]' must be an [re, im] pair of finite numbers")
        out.append(complex(pair[0], pair[1]))
    return out


def _positive(value: object, name: str) -> float:
    if not _is_finite(value) or value <= 0:
        raise ConfigError(f"field '{name}' must be a positive finite number")
    return float(value)


def _bounded_int(value: object, name: str, least: int, most: int) -> int:
    if not _is_int(value) or not least <= value <= most:
        raise ConfigError(f"field '{name}' must be an integer >= {least} and <= {most}")
    return value


def _checked_series_tol(s: HarmonicSymbol, tol: float) -> float:
    """``tol`` if ``hs_difference_sq_series`` accepts it, else ConfigError."""
    floor = series_tol_floor(s)
    if tol < floor:
        raise ConfigError(f"field 'tolerances.series_tol' must be >= {floor:.3g}, 4 eps ||phi'||_2^2")
    return tol


def parse_config(doc: dict) -> RunConfig:
    """Validate ``doc``; unset options keep the defaults of ``ReportOptions``
    and ``DetectOptions``.  An explicit series_tol must clear the symbol's
    floor here; the default one is checked only where the series is summed."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if "symbol" not in doc or not isinstance(doc["symbol"], dict):
        raise ConfigError("field 'symbol' must be an object with 'f' and 'g'")
    sym = doc["symbol"]
    f = _coeff_list(sym.get("f", []), "symbol.f")
    g = _coeff_list(sym.get("g", []), "symbol.g")
    try:
        cfg = RunConfig(symbol=from_parts(f, g))
        norms = (cfg.symbol.wiener_norm(), cfg.symbol.derivative_norm_sq())
    except OverflowError:  # some |b_j| overflows although its parts are finite
        norms = (math.inf,)
    if not all(math.isfinite(v) for v in norms):
        raise ConfigError("field 'symbol' is too large: sum |b_j| or ||phi'||_2^2 is not a finite double")
    report, detect = {}, {}  # ReportOptions and DetectOptions fields set by the document
    if "ladder" in doc:
        ladder = doc["ladder"]
        if (
            not isinstance(ladder, list)
            or not ladder
            or not all(_is_int(n) and 1 <= n <= MAX_ORDER for n in ladder)
            or any(b <= a for a, b in zip(ladder, ladder[1:]))
        ):
            raise ConfigError(f"field 'ladder' must be strictly increasing integers >= 1 and <= {MAX_ORDER}")
        report["ladder"] = tuple(ladder)
    if "region" in doc:
        reg = doc["region"]
        keys = ("re_min", "re_max", "im_min", "im_max")
        if not isinstance(reg, dict) or not all(_is_finite(reg.get(k)) for k in keys):
            raise ConfigError("field 'region' must contain finite numbers re_min, re_max, im_min, im_max")
        cfg.region = Rect(*(float(reg[k]) for k in keys))
        if not cfg.region.is_valid():
            raise ConfigError("field 'region' needs min < max and a width and height that are finite doubles")
    if "grid" in doc:
        grid = doc["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("field 'grid' must be an object with integers nx, ny")
        cfg.nx, cfg.ny = (_bounded_int(grid.get(k), f"grid.{k}", 2, MAX_ORDER) for k in ("nx", "ny"))
    if "epsilon" in doc:
        report["epsilon"] = _positive(doc["epsilon"], "epsilon")
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("field 'tolerances' must be an object")
    for key in ("delta_curve", "drift_tol", "cert_tol"):
        if key in tols:
            detect[key] = _positive(tols[key], f"tolerances.{key}")
    if "series_tol" in tols:
        tol = _positive(tols["series_tol"], "tolerances.series_tol")
        report["series_tol"] = _checked_series_tol(cfg.symbol, tol)
    if "curve_samples" in doc:
        least = min_curve_samples(cfg.symbol)
        detect["curve_samples"] = _bounded_int(doc["curve_samples"], "curve_samples", least, MAX_SAMPLES)
    if "section_kind" in doc:
        kind = doc["section_kind"]
        if kind not in ("ht", "bt"):
            raise ConfigError("field 'section_kind' must be 'ht' or 'bt'")
        cfg.section_kind = kind
    if "section_order" in doc:
        cfg.section_order = _bounded_int(doc["section_order"], "section_order", 1, MAX_ORDER)
    if "output_dir" in doc:
        if not isinstance(doc["output_dir"], str):
            raise ConfigError("field 'output_dir' must be a string path")
        cfg.output_dir = Path(doc["output_dir"])
    cfg.report = replace(cfg.report, detect=replace(cfg.report.detect, **detect), **report)
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


def _write_csv(path: Path, header: str, columns) -> None:
    """CSV of the float ``columns`` under ``header``; columns of unequal
    length raise ValueError.  It is written CSV_BLOCK_ROWS rows at a time, so
    that no string holds the whole file, each block one % over the %.17g row
    template repeated, the digits that ``_fmt`` writes."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[i : i + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def cmd_hs_check(cfg: RunConfig) -> int:
    s = cfg.symbol
    tol = _checked_series_tol(s, cfg.report.series_tol)
    for n in cfg.report.ladder:
        print(f"hs_truncated N={n}: {_fmt(hs_difference_sq_truncated(s, n))}")
    series = hs_difference_sq_series(s, tol)
    bound = hs_bound(s)
    print(f"hs_series: {_fmt(series.value)} (tail bound {_fmt(series.tail_bound)})")
    print(f"hs_bound:  {_fmt(bound)}")
    if series.value <= bound + tol:
        print("bound check: PASS")
        return EXIT_OK
    print("bound check: FAIL")
    return EXIT_BOUND_VIOLATION


def cmd_spectrum(cfg: RunConfig) -> int:
    out = cfg.output_dir
    code = EXIT_OK
    build = bt_section if cfg.section_kind == "bt" else ht_section
    for n in cfg.report.ladder:
        res = eigenvalues(build(cfg.symbol, n))
        if not res.converged:
            print(f"warning: eigensolver did not converge at N={n}", file=sys.stderr)
            code = EXIT_NO_CONVERGENCE
            continue
        _write_csv(out / f"eigenvalues_{n}.csv", "re,im", (res.values.real, res.values.imag))
        print(f"wrote {out / f'eigenvalues_{n}.csv'} ({n} rows)")
    return code


def cmd_pseudospectrum(cfg: RunConfig, svd_check: bool = False) -> int:
    if cfg.region is None:
        raise ConfigError("field 'region' is required for pseudospectrum")
    build = bt_section if cfg.section_kind == "bt" else ht_section
    section = build(cfg.symbol, cfg.section_order or cfg.report.ladder[-1])
    fieldvals = pseudospectrum(section, cfg.region, cfg.nx, cfg.ny)
    res = fieldvals.re_values()
    ims = fieldvals.im_values()
    # row-major over (im, re), as sigma_min is stored
    columns = (np.tile(res, cfg.ny), np.repeat(ims, cfg.nx), fieldvals.sigma_min.ravel())
    _write_csv(cfg.output_dir / "pseudospectrum.csv", "re,im,sigma_min", columns)
    print(f"wrote {cfg.output_dir / 'pseudospectrum.csv'} ({cfg.nx * cfg.ny} nodes)")
    if svd_check:
        picks = [(0, 0), (cfg.ny - 1, cfg.nx - 1), (cfg.ny // 2, cfg.nx // 2)]
        # in Python floats inf - inf is NaN with no warning; np.max, unlike max, keeps a NaN
        gaps = [abs(float(fieldvals.sigma_min[q, p]) - _dense_sigma_min(section, complex(res[p], ims[q])))
                for q, p in picks]
        print(f"svd check: max |band - dense| = {_fmt(np.max(gaps))}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    if len(cfg.report.ladder) < 3:
        raise ConfigError("field 'ladder' needs at least 3 rungs for report")
    _checked_series_tol(cfg.symbol, cfg.report.series_tol)
    report = build_report(cfg.symbol, cfg.report)
    _write_text(cfg.output_dir / "report.json", report.to_json() + "\n")
    print(report.summary())
    print(f"wrote {cfg.output_dir / 'report.json'}")
    for n in report.skipped_rungs:
        print(f"warning: eigensolver did not converge at N={n}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if report.skipped_rungs else EXIT_OK


def cmd_curve(cfg: RunConfig) -> int:
    curve = sample_curve(cfg.symbol, cfg.report.detect.curve_samples)
    p, t = curve.points, curve.tangents
    columns = (_angles(len(curve)), p.real, p.imag, t.real, t.imag)
    _write_csv(cfg.output_dir / "curve.csv", "theta,re,im,tangent_re,tangent_im", columns)
    print(f"wrote {cfg.output_dir / 'curve.csv'} ({len(curve)} samples)")
    try:
        diag = curve_diagnostics(curve)
    except DegenerateCurveError:
        print("curve is degenerate (single point)")
        return EXIT_OK
    for f in fields(diag):
        v = getattr(diag, f.name)
        print(f"{f.name}: {_fmt(v) if isinstance(v, float) else v}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, from one table of (name, help, switches) rows, built once
    per process: its help strings cost a gettext lookup each.  It holds no
    handler; ``main`` dispatches subcommand s to ``cmd_s`` by name."""
    parser = argparse.ArgumentParser(
        prog="toepspec",
        description="Finite-section spectral analysis of Toeplitz operators "
        "with harmonic symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, switches in (
        ("hs-check", "check the Hilbert-Schmidt difference bound", {}),
        ("spectrum", "write finite-section eigenvalues per ladder rung", {}),
        (
            "pseudospectrum",
            "write a sigma_min grid over a region",
            {"--svd-check": "compare sigma_min at three nodes with a dense LAPACK SVD"},
        ),
        ("report", "run the full pipeline and write report.json", {}),
        ("curve", "sample the symbol curve and print diagnostics", {}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        for flag, flag_help in switches.items():
            p.add_argument(flag, action="store_true", help=flag_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # what is left after these are the subcommand's switches, as keywords
    command, config, out = map(args.pop, ("command", "config", "out"))
    func = globals()["cmd_" + command.replace("-", "_")]
    try:
        cfg = load_config(config)
        if out is not None:
            cfg.output_dir = Path(out)
        return func(cfg, **args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
