"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single ``ACCEPTANCE k ...: PASS`` / ``FAIL`` line so the
gate can be read off a raw pytest log.  Runtime budgets are asserted
per-criterion with the wall-clock limits stated inline.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import toepspec as ts
from toepspec.spectra import _chain_ladder, _resolve_options
from conftest import ACCEPTANCE_LOG
from oracles import as_section, charpoly_roots, match_distance, random_symbol

PI_SQ_24 = math.pi ** 2 / 24


@contextmanager
def criterion(number, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.1f}s"
    _record(f"ACCEPTANCE {number} ({title}): PASS  [{elapsed:.1f}s]")


def _record(line):
    ACCEPTANCE_LOG.append(line)
    print(f"\n{line}")


def test_criterion_1_hs_bound():
    # 50 random symbols: series value never exceeds the closed-form bound;
    # for b_1 = 1 the N = 2000 truncation reaches the series within 1%.
    with criterion(1, "Hilbert-Schmidt bound", 30):
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 50:
            s = random_symbol(rng)
            if s.is_constant:
                continue
            res = ts.hs_difference_sq_series(s, tol=1e-8)
            bound = PI_SQ_24 * s.derivative_norm_sq()
            assert res.value <= bound + 1e-8, s.coeffs
            checked += 1
        shift = ts.HarmonicSymbol({1: 1})
        series = ts.hs_difference_sq_series(shift, tol=1e-8).value
        trunc = ts.hs_difference_sq_truncated(shift, 2000)
        assert abs(trunc - series) <= 0.01 * series


def test_criterion_2_bt_entry_formula():
    # Vectorized section builder against a naive entry loop, 10 symbols,
    # N = 100, entrywise agreement at machine precision.
    with criterion(2, "Bergman weight formula", 1):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_symbol(rng)
            a = ts.bt_section(s, 100).entries
            for i in range(100):
                for j in range(100):
                    w = math.sqrt((min(i, j) + 1) / (max(i, j) + 1))
                    want = w * s.coeffs.get(i - j, 0)
                    assert abs(a[i, j] - want) <= 1e-15 * (1 + abs(want))


def test_criterion_3_eigensolver_vs_charpoly():
    # Dense QR eigenvalues against characteristic-polynomial roots obtained
    # by an independent extended-precision trace recursion.
    with criterion(3, "eigensolver cross-validation", 20):
        rng = np.random.default_rng(11)
        for n in (5, 10, 20, 50):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = ts.eigenvalues(as_section(a))
            assert res.converged
            assert match_distance(res.values, charpoly_roots(a)) <= 1e-7
            norm = np.linalg.norm(a)
            assert abs(np.sum(res.values) - np.trace(a)) <= 1e-9 * n * norm


def test_criterion_4_tridiagonal_closed_form():
    # Hardy section of b_1 = 1, b_{-1} = 1/4: eigenvalues through the
    # symmetrizing diagonal similarity hit 2 sqrt(a) cos(k pi / (N+1)).
    with criterion(4, "tridiagonal closed form", 5):
        n, a_coef = 100, 0.25
        sq = math.sqrt(a_coef)
        ht = ts.ht_section(ts.HarmonicSymbol({1: 1, -1: a_coef}), n).entries
        d = sq ** np.arange(n)
        sym = (d[:, None] * ht) / d[None, :]
        # similarity oracle: the conjugated matrix is the symmetric
        # tridiagonal with off-diagonal sqrt(a)
        oracle = sq * (np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
        assert np.max(np.abs(sym - oracle)) <= 1e-12
        res = ts.eigenvalues(as_section(sym))
        assert res.converged
        k = np.arange(1, n + 1)
        closed = 2 * sq * np.cos(k * np.pi / (n + 1))
        assert match_distance(res.values, closed) <= 1e-8


def test_criterion_5_sigma_min_majorization():
    # sigma_min(A - lambda) never exceeds the distance from lambda to the
    # spectrum (checked against an independent eigenvalue oracle).
    with criterion(5, "sigma_min majorization", 10):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            eigs = np.linalg.eigvals(a)
            for _ in range(10):
                lam = complex(rng.standard_normal(), rng.standard_normal())
                sig = ts.smallest_singular_value(as_section(a), lam)
                assert sig <= np.min(np.abs(eigs - lam)) + 1e-8


def test_criterion_6_resolvent_growth_exponent():
    # Fitted resolvent-growth exponent near 1 for the circle and segment
    # symbols at section order 400.
    with criterion(6, "resolvent growth exponent", 60):
        for coeffs in ({1: 1}, {1: 1, -1: 1}):
            s = ts.HarmonicSymbol(coeffs)
            curve = ts.sample_curve(s, 512)
            w = s.wiener_norm()
            dists = np.linspace(0.05 * w, 0.5 * w, 16)
            pts = ts.points_at_distance(curve, dists)
            fit = ts.resolvent_growth_fit(s, pts, N=400, curve=curve)
            assert 0.9 <= fit.p_hat <= 1.3, (coeffs, fit.p_hat)


MIXED_SYMBOLS = (
    {2: 1, -1: 0.8},
    {1: 1, -2: 0.6j},
    {1: 0.5 + 0.5j, -1: 0.9, 2: 0.3},
)


def _ladder_candidates(rungs, section, cert_tol, curve, delta, drift_tol):
    certified = []
    for loc, drift in _chain_ladder(rungs, drift_tol):
        cert = ts.smallest_singular_value(section, loc)
        if cert < cert_tol:
            comp = ts.classify(loc, curve, delta)
            certified.append(
                ts.DiscreteCandidate(
                    location=loc,
                    persistence_drift=drift,
                    certificate=cert,
                    component=comp,
                )
            )
    return certified


def test_criterion_7_detection_pipeline():
    # Mixed symbols on the {200, 400, 800} ladder: candidates persist below
    # drift_tol, certify below cert_tol, and the eigenvalue-sum statistic is
    # stable (< 5%) between the two consecutive sub-ladders.
    with criterion(7, "detection + eigenvalue-sum stability", 300):
        ladder = (200, 400, 800)
        for coeffs in MIXED_SYMBOLS:
            s = ts.HarmonicSymbol(coeffs)
            opts = ts.DetectOptions()
            sections = {n: ts.bt_section(s, n) for n in ladder}
            delta, drift_tol, cert_tol = _resolve_options(s, opts, sections[ladder[-1]])
            curve = ts.sample_curve(s, opts.curve_samples)
            rungs = []
            for n in ladder:
                res = ts.eigenvalues(sections[n])
                assert res.converged, f"N={n} did not converge"
                ev = res.values
                far = np.array([curve.distance_to(z) >= delta for z in ev])
                rungs.append(ev[far])

            full = _ladder_candidates(
                rungs, sections[800], cert_tol, curve, delta, drift_tol
            )
            for c in full:
                assert c.persistence_drift < drift_tol
                assert c.certificate < cert_tol

            sums = []
            for pair, top in (((0, 1), 400), ((1, 2), 800)):
                tol = 1e-6 * sections[top].frobenius_norm()
                cands = _ladder_candidates(
                    [rungs[pair[0]], rungs[pair[1]]],
                    sections[top],
                    tol,
                    curve,
                    delta,
                    drift_tol,
                )
                sums.append(ts.lt_sum(cands, curve, epsilon=0.01))
            lo, hi = sorted(sums)
            assert hi == 0 or (hi - lo) <= 0.05 * hi, (coeffs, sums)
            constant = (
                ts.lt_sum(full, curve, epsilon=0.01) / s.derivative_norm_sq()
            )
            _record(f"  empirical constant for {coeffs}: {constant:.6g}")


def test_criterion_8_weyl_diagnostic():
    # Fraction of section eigenvalues inside the spectrum stays >= 0.95 for
    # constant, analytic, and self-adjoint symbols at N = 200.
    with criterion(8, "Weyl diagnostic", 30):
        cases = (
            {0: 2 + 1j},
            {1: 1},
            {2: 0.5, 1: 1},
            {1: 1, -1: 1},
            {1: 0.7, -1: 0.7, 0: 0.3},
        )
        for coeffs in cases:
            frac = ts.weyl_diagnostic(ts.HarmonicSymbol(coeffs), 200)
            assert frac >= 0.95, (coeffs, frac)


def test_criterion_9_curve_geometry():
    # Jordan/cusp flags for segment and ellipse symbols plus reference
    # winding numbers.
    with criterion(9, "curve geometry", 1):
        seg = ts.curve_diagnostics(
            ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 1}), 512)
        )
        assert not seg.cusp_free and not seg.jordan
        ellipse_curve = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 512)
        ell = ts.curve_diagnostics(ellipse_curve)
        assert ell.jordan and ell.cusp_free
        assert ts.winding_number(ellipse_curve, 0) == 1
        assert ts.winding_number(ellipse_curve, 2 + 2j) == 0
        double = ts.sample_curve(ts.HarmonicSymbol({2: 1}), 512)
        assert ts.winding_number(double, 0) == 2
