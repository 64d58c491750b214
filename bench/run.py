"""Benchmark of the toepspec CLI: end-to-end metrics and a traced layer profile.

Run from the repository root:

    python3 bench/run.py --workload pseudo-ellipse --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --all --out bench/results/baseline.json

One run repeats the workload, each iteration in a fresh child process, until
``--seconds`` of child time are used, then checks every iteration's outputs
and prints medians.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count the hard checks (see
checks.py), and ``metrics`` holds the end-to-end metrics, or with
``--trace 1`` the per-layer metrics from traced iterations.  ``--all`` runs
every workload untraced and traced and prints every metric by name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Checker
from tracing import layer_stats
from workloads import SCALES, WORKLOADS, make_plan

BENCH_DIR = Path(__file__).resolve().parent
# BLAS/OpenMP threads in every child; 1 is within any machine's nproc, and
# keeps wall and CPU time comparable on a shared machine.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120.0
# Extra set-up-only children per round, so set-up time is a median of many
# samples although a round takes several seconds.
SETUP_PROBES = 3
RUN_DEADLINE_S = 150.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Span statistics reported per layer: (span name, stats).
SPAN_METRICS = (
    ("cli.main", ("s", "self_s")),
    ("cli.load_config", ("s",)),
    ("analysis.build_report", ("self_s",)),
    ("analysis.weyl_diagnostic", ("self_s",)),
    ("analysis.dist_to_spectrum", ("calls", "s")),
    ("spectra.detect_discrete", ("self_s",)),
    ("spectra.resolvent_growth_fit", ("self_s",)),
    ("spectra.points_at_distance", ("s",)),
    ("spectra.classify", ("calls",)),
    ("spectra.pseudospectrum", ("self_s",)),
    ("linalg.eigenvalues", ("calls", "s")),
    ("linalg.smallest_singular_value", ("calls", "s")),
    ("sections.bt_section", ("calls", "s")),
    ("sections.ht_section", ("calls", "s")),
    ("sections.hs_difference_sq_series", ("s",)),
    ("sections.hs_difference_sq_truncated", ("s",)),
    ("symbols.sample_curve", ("s",)),
    ("symbols.curve_diagnostics", ("s",)),
    ("symbols.winding_number", ("calls", "s")),
    ("symbols.SymbolCurve.distance_to", ("calls", "s")),
)
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
SIGMA = "linalg.smallest_singular_value"
EXTRA_LAYER_UNITS = {
    "linalg.eigenvalues.sweeps": "count",
    "linalg.eigenvalues.unconverged": "count",
    f"{SIGMA}.p50_ms": "ms",
    f"{SIGMA}.p75_ms": "ms",
    f"{SIGMA}.accurate_frac": "ratio",
    f"{SIGMA}.rel_err_max": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage_frac": "ratio",
    "checks.attempted": "count",
    "checks.failed": "count",
    "checks.fail_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run or measure the workload."""


def layer_metric_units() -> dict[str, str]:
    units = {f"{name}.{st}": STAT_UNITS[st] for name, stats in SPAN_METRICS for st in stats}
    units.update(EXTRA_LAYER_UNITS)
    return units


def check_checkout(root: Path) -> None:
    for rel in ("src/toepspec/cli.py", "configs/mixed.json", "configs/ellipse.json"):
        if not (root / rel).is_file():
            raise BenchError(f"{rel} not found under {root}; run from the repository root")


def machine_info(root: Path) -> dict:
    deps = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        pass

    def lib(key: str) -> str:
        d = deps.get(key, {})
        return f"{d.get('name', 'unknown')} {d.get('version', '')}".strip()

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def run_child(root: Path, work: Path, calls: list[list[str]], traced: bool, setup_only: bool = False) -> dict:
    """Run one iteration in a fresh interpreter; returns its timings and outputs.

    With ``setup_only`` the child stops after importing and parsing the
    first config, which gives one more set-up sample.
    """
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {"calls": [] if setup_only else calls, "config": calls[0][2], "trace": traced, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec))
    threads = str(BLAS_THREADS)
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - t_spawn > CHILD_TIMEOUT_S:
            proc.kill()
            proc.wait()
            raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s")
        time.sleep(0.01)
    elapsed = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"child exited with {proc.returncode}")
    out = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(out["module"]).resolve() != (root / "src/toepspec/cli.py").resolve():
        raise BenchError(f"child imported {out['module']}, not the checkout's src/")
    out.update(
        traced=traced,
        elapsed=elapsed,
        setup_s=out["setup_end"] - t_spawn,
        wall_s=sum(c["wall_s"] for c in out["calls"]),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=out["peak_rss_kb"] / 1024.0,
    )
    return out


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    per_iter = []
    sigma_ms: list[float] = []
    sigma_checks: list = []
    for it in traced:
        tr = it["trace"]
        stats = layer_stats(tr["names"], tr["spans"])
        roots = [s for s in tr["spans"] if s[3] < 0]
        if any(tr["names"][s[0]] != "cli.main" for s in roots):
            raise BenchError("a traced span lies outside cli.main")
        total_self = sum(st["self_s"] for st in stats.values())
        total_root = sum(s[2] - s[1] for s in roots)
        if abs(total_self - total_root) > 1e-6 * max(1.0, total_root):
            raise BenchError("span self times do not add up to the cli.main time")
        row = {f"{n}.{st}": stats.get(n, {}).get(st, 0.0) for n, sts in SPAN_METRICS for st in sts}
        row["linalg.eigenvalues.sweeps"] = sum(sw for sw, _ in tr["eigen"])
        row["linalg.eigenvalues.unconverged"] = sum(1 for _, ok in tr["eigen"] if not ok)
        main = stats["cli.main"]
        row["trace.coverage_frac"] = 1.0 - main["self_s"] / main["s"]
        per_iter.append(row)
        sid = tr["names"].index(SIGMA) if SIGMA in tr["names"] else -1
        sigma_ms += [1e3 * (s[2] - s[1]) for s in tr["spans"] if s[0] == sid]
        sigma_checks += tr["sigma"]
    metrics = {k: statistics.median(r[k] for r in per_iter) for k in per_iter[0]}
    sigma_ms.sort()
    n = len(sigma_ms)
    metrics[f"{SIGMA}.p50_ms"] = statistics.median(sigma_ms) if n else 0.0
    # p75 only where at least ten samples lie beyond it
    k75 = math.ceil(0.75 * n)
    metrics[f"{SIGMA}.p75_ms"] = sigma_ms[k75 - 1] if n - k75 >= 10 else 0.0
    metrics[f"{SIGMA}.accurate_frac"] = (
        sum(ok for ok, _ in sigma_checks) / len(sigma_checks) if sigma_checks else 0.0
    )
    metrics[f"{SIGMA}.rel_err_max"] = max((r for _, r in sigma_checks if r is not None), default=0.0)
    metrics["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced) - statistics.median(
        it["wall_s"] for it in plain
    )
    return metrics


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: str = "default", root: Path | None = None
) -> dict:
    """Measure one workload; returns the contract line plus details."""
    root = (root or Path.cwd()).resolve()
    check_checkout(root)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    try:
        plan = make_plan(workload, seed, root, work, scale)
        checker = Checker(plan)
        iters: list[dict] = []
        setups: list[float] = []
        spent = 0.0
        rounds = 0
        while True:
            for _ in range(SETUP_PROBES):
                probe = run_child(root, work, plan.calls[:1], False, setup_only=True)
                setups.append(probe["setup_s"])
                spent += probe["elapsed"]
            for traced in ((False, True) if trace else (False,)):
                shutil.rmtree(work / "out", ignore_errors=True)
                it = run_child(root, work, plan.calls, traced)
                it["checks"] = checker(it["calls"])
                iters.append(it)
                spent += it["elapsed"]
            rounds += 1
            if spent + spent / rounds > seconds or time.monotonic() - started > RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [it for it in iters if not it["traced"]]
    checks = [c for it in iters for c in it["checks"]]
    hard = [c for c in checks if c.hard]
    # fail_frac counts one iteration, the worst; all iterations run the same inputs
    worst = max(iters, key=lambda it: sum(not c.ok for c in it["checks"]))["checks"]
    n_failed = sum(not c.ok for c in worst)
    fail_frac = {"value": n_failed / len(worst), "failed": n_failed, "attempted": len(worst)}
    samples = {name: [it[name] for it in plain] for name, _ in END_TO_END}
    samples["setup_s"] += setups
    end_to_end = {
        name: {"value": statistics.median(samples[name]), "unit": unit, "n": len(samples[name]), "samples": samples[name]}
        for name, unit in END_TO_END
    }
    layer = {}
    if trace:
        units = layer_metric_units()
        traced = [it for it in iters if it["traced"]]
        values = _layer_metrics(traced, plain)
        values["checks.attempted"] = fail_frac["attempted"]
        values["checks.failed"] = fail_frac["failed"]
        values["checks.fail_frac"] = fail_frac["value"]
        layer = {k: {"value": values[k], "unit": units[k], "n": len(traced)} for k in units}
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "iterations": len(iters),
        "correct": all(c.ok for c in hard),
        "attempted": len(hard),
        "failed": sum(not c.ok for c in hard),
        "fail_frac": fail_frac,
        "failed_by_kind": _by_kind(worst),
        "end_to_end": end_to_end,
        "per_layer": layer,
    }


def _by_kind(checks) -> dict[str, str]:
    kinds: dict[str, list[int]] = {}
    for c in checks:
        k = kinds.setdefault(c.kind, [0, 0])
        k[0] += not c.ok
        k[1] += 1
    return {k: f"{f}/{n}" for k, (f, n) in kinds.items()}


def summary_lines(res: dict) -> list[str]:
    lines = [
        f"# {res['workload']} seed {res['seed']} scale {res['scale']}: {res['iterations']} iterations, "
        f"hard checks {res['attempted'] - res['failed']}/{res['attempted']} passed"
    ]
    for name, m in list(res["end_to_end"].items()) + list(res["per_layer"].items()):
        lines.append(f"{name:48s} {m['value']:.6g} {m['unit']} (n={m['n']})")
        if "samples" in m:
            lines[-1] += " samples " + " ".join(f"{v:.4g}" for v in m["samples"])
    ff = res["fail_frac"]
    kinds = ", ".join(f"{k} {v}" for k, v in res["failed_by_kind"].items())
    lines.append(f"{'fail_frac':48s} {ff['value']:.6g} ratio ({ff['failed']}/{ff['attempted']} checks failed: {kinds})")
    return lines


def contract_line(res: dict, trace: bool) -> str:
    metrics = res["per_layer"] if trace else res["end_to_end"]
    return json.dumps(
        {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="default")
    ap.add_argument("--out", help="with --all, write every result and the machine as JSON")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    root = Path.cwd()
    try:
        check_checkout(root)
        machine = machine_info(root)
        print("machine " + json.dumps(machine), flush=True)
        if not args.all:
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
            print("\n".join(summary_lines(res)), flush=True)
            print(contract_line(res, bool(args.trace)))
            return 0
        results = []
        for w in WORKLOADS:
            for trace in (False, True):
                res = run_workload(w, args.seed, args.seconds, trace, args.scale)
                print("\n".join(summary_lines(res)), flush=True)
                results.append(res)
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(
            json.dumps({"machine": machine, "seconds": args.seconds, "results": results}, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
