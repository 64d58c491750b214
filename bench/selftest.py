"""Self-test of the benchmark at tiny sizes (N <= 32, a 2x2 grid, one symbol).

Run from the repository root:

    python3 bench/selftest.py

It runs every workload once untraced and once traced and checks that each
metric named in BENCHMARK.json is emitted with its unit, that the layer
counts fit the workload (no eigensolves on pseudo-ellipse and curve-hs, one
sigma_min per grid node), and that every gate can fail: corrupted outputs
fed to the checker are counted as failed.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np

from checks import Checker, section_matrix, sigma_check
from run import run_child, run_workload
from workloads import SCALES, WORKLOADS, make_plan


class SelfTestError(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def metric_names(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    grid = SCALES["tiny"]["grid"]
    for w in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run_workload(w, 1, 0.0, trace, "tiny", root)
            got = res[key]
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(res["correct"] and res["failed"] == 0, f"{w}: hard checks failed")
            expect(set(got) == set(want), f"{w} {key}: names differ: {set(got) ^ set(want)}")
            expect(all(got[k]["unit"] == u for k, u in want.items()), f"{w} {key}: units differ")
            expect(all(isinstance(m["value"], (int, float)) for m in got.values()), f"{w}: non-numeric value")
        layer = res["per_layer"]
        eig = layer["linalg.eigenvalues.calls"]["value"]
        sig = layer["linalg.smallest_singular_value.calls"]["value"]
        if w == "report-mixed":
            expect(eig > 0 and sig > 0, "report-mixed: eigensolves and sigma_min expected")
        else:
            expect(eig == 0, f"{w}: eigensolves expected to be 0, got {eig}")
        if w == "pseudo-ellipse":
            expect(sig == grid[0] * grid[1], f"pseudo-ellipse: {sig} sigma_min calls for {grid}")
        print(f"ok   {w}: every metric emitted")


def _checked(root: Path, work: Path, workload: str):
    plan = make_plan(workload, 0, root, work, "tiny")
    it = run_child(root, work, plan.calls, False)
    checks = Checker(plan)(it["calls"])
    expect(checks and all(c.ok for c in checks), f"{workload}: clean output fails its checks")
    return plan, it, Checker(plan)


def _failed(checks, kind: str) -> int:
    return sum(1 for c in checks if c.kind == kind and not c.ok)


def gates_fail(root: Path) -> None:
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # sigma: one node's value off by 1e-6 relative
        plan, it, check = _checked(root, work, "pseudo-ellipse")
        csv = Path(plan.params["out"]) / "pseudospectrum.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        re_, im_, sigma = lines[1].split(",")
        lines[1] = f"{re_},{im_},{float(sigma) * (1 + 1e-6):.17g}"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expect(_failed(check(it["calls"]), "node") == 1, "corrupted sigma not counted as failed")
        it["calls"][0]["code"] = 3
        expect(_failed(check(it["calls"]), "exit") == 1, "wrong exit code not counted as failed")

        # p_hat off by 1e-5, then a broken HS bound
        plan, it, check = _checked(root, work, "report-mixed")
        path = Path(plan.params["out"]) / "report.json"
        rep = json.loads(path.read_text(encoding="utf-8"))
        rep["p_hat"] += 1e-5
        path.write_text(json.dumps(rep), encoding="utf-8")
        expect(_failed(check(it["calls"]), "p_hat") == 1, "corrupted p_hat not counted as failed")
        rep["hs_series"] = 2 * rep["hs_bound"]
        path.write_text(json.dumps(rep), encoding="utf-8")
        expect(_failed(check(it["calls"]), "hs") == 1, "broken HS bound not counted as failed")

        # a certificate: the same rule as the grid nodes
        a = section_matrix({2: 1.0, -1: 0.8}, 32, "bt") - 0.3 * np.eye(32)
        ref = float(np.linalg.svd(a, compute_uv=False)[-1])
        expect(sigma_check(ref, a)[0] and not sigma_check(ref * (1 + 1e-6), a)[0], "sigma_check cannot fail")

        # curve-hs: a decreasing truncation, a series above the bound
        plan, it, check = _checked(root, work, "curve-hs")
        out = it["calls"][1]["stdout"]
        vals = re.findall(r"^hs_truncated N=\d+: (\S+)", out, re.M)
        bad = out.replace(vals[-1], "0", 1)
        it["calls"][1]["stdout"] = bad
        expect(_failed(check(it["calls"]), "hs_monotone") == 1, "decreasing truncation not counted as failed")
        bound = re.search(r"^hs_bound: +(\S+)", out, re.M)[1]
        it["calls"][1]["stdout"] = re.sub(r"^hs_series: \S+", f"hs_series: {2 * float(bound)}", out, flags=re.M)
        expect(_failed(check(it["calls"]), "hs_bound") == 1, "series above the bound not counted as failed")
        print("ok   every gate can fail")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    try:
        metric_names(root)
        gates_fail(root)
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
