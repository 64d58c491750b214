import math
import re

import numpy as np
import pytest

import toepspec as ts
from oracles import nonconstant_seed0_symbols, random_symbol, raster_f0, scalar_points_at_distance
from test_acceptance import MIXED_SYMBOLS
from toepspec import linalg, spectra, symbols
from toepspec.analysis import FIT_DIST_RANGE, FIT_POINTS
from toepspec.spectra import _chain_ladder, _resolve_options
from toepspec.symbols import _windings


SMALL_LADDER = (60, 120, 240)
MID_LADDER = (100, 200, 400)
FIT_SYMBOLS = ({1: 1}, {2: 1, -1: 0.8}, {1: 0.5 + 0.5j, -1: 0.9, 2: 0.3})


def seed0_draw(i: int) -> ts.HarmonicSymbol:
    """Draw i (0-based, constant draws counted) of seed-0 ``random_symbol``."""
    rng = np.random.default_rng(0)
    return [random_symbol(rng) for _ in range(i + 1)][i]


class TestPseudospectrum:
    def test_field_geometry(self):
        sec = ts.bt_section(ts.HarmonicSymbol({1: 1}), 20)
        field = ts.pseudospectrum(sec, ts.Rect(-1, 1, -1, 1), nx=5, ny=4)
        assert field.sigma_min.shape == (4, 5)
        assert field.re_values()[0] == -1 and field.re_values()[-1] == 1
        assert field.section_order == 20

    def test_values_match_direct_calls(self):
        sec = ts.bt_section(ts.HarmonicSymbol({1: 1, -1: 0.5}), 15)
        field = ts.pseudospectrum(sec, ts.Rect(0, 0.5, 0, 0.5), nx=3, ny=3)
        lam = complex(field.re_values()[1], field.im_values()[2])
        want = ts.smallest_singular_value(sec, lam)
        assert field.sigma_min[2, 1] == pytest.approx(want, rel=1e-8)

    def test_empty_region_rejected(self):
        sec = ts.ht_section(ts.HarmonicSymbol({1: 1}), 3)
        with pytest.raises(ValueError):
            ts.pseudospectrum(sec, ts.Rect(1, 0, 0, 1), 3, 3)

    @pytest.mark.parametrize(
        "region",
        [ts.Rect(-1e308, 1e308, -1, 1), ts.Rect(-1, 1, -1e308, 1e308), ts.Rect(0, float("nan"), 0, 1)],
    )
    def test_overflowing_or_nan_region_rejected(self, region):
        sec = ts.ht_section(ts.HarmonicSymbol({1: 1}), 3)
        with pytest.raises(ValueError, match="finite, positive width and height"):
            ts.pseudospectrum(sec, region, 2, 2)


class TestChaining:
    def test_persistent_point_chains(self):
        rungs = [
            np.array([0.5 + 0j, 2.0 + 1j]),
            np.array([0.5001 + 0j, -3.0 + 0j]),
            np.array([0.50005 + 0j]),
        ]
        chains = _chain_ladder(rungs, drift_tol=1e-3)
        assert len(chains) == 1
        loc, drift = chains[0]
        assert abs(loc - 0.5) < 1e-3 and drift < 1e-3

    def test_drifting_point_dropped(self):
        rungs = [np.array([0.5 + 0j]), np.array([0.6 + 0j]), np.array([0.7 + 0j])]
        assert _chain_ladder(rungs, drift_tol=1e-3) == []

    @pytest.mark.parametrize("empty", [0, 1], ids=["first-rung", "later-rung"])
    def test_empty_rung_ends_every_chain(self, empty):
        rungs = [np.array([0.5 + 0j]), np.array([0.5 + 0j]), np.array([0.5 + 0j])]
        rungs[empty] = np.array([], dtype=complex)
        assert _chain_ladder(rungs, drift_tol=1e-3) == []

    def test_merging_starts_both_come_back_in_start_order(self):
        rungs = [np.array([0.5 + 2e-4j, 0.5 - 1e-4j]), np.array([0.5 + 0j]), np.array([0.5 + 0j])]
        chains = _chain_ladder(rungs, drift_tol=1e-3)
        assert [loc for loc, _ in chains] == [0.5, 0.5]
        assert [drift for _, drift in chains] == pytest.approx([2e-4, 1e-4], rel=1e-9)


class TestDetectDiscrete:
    def test_pure_shift_pollution_stays_in_spectrum(self):
        # finite sections of z are nilpotent; the persistent eigenvalue at 0
        # lies in the winding-1 disk and must never be reported as discrete
        # spectrum in the outer component
        res = ts.detect_discrete(ts.HarmonicSymbol({1: 1}), ladder=SMALL_LADDER)
        for cand in res.candidates:
            assert abs(cand.location) < 0.1
            assert cand.component is ts.Component.BOUNDED_HOLE
        assert ts.lt_sum(res.candidates, res.curve, epsilon=0.01) == 0.0

    def test_mixed_symbol_candidate(self):
        s = ts.HarmonicSymbol({2: 1, -1: 0.8})
        res = ts.detect_discrete(s, ladder=MID_LADDER)
        assert len(res.candidates) >= 1
        best = min(res.candidates, key=lambda c: abs(c.location))
        assert abs(best.location) < 0.2
        assert best.certificate < 1e-6 * 400  # loose sanity, exact tol inside
        assert best.component in (ts.Component.BOUNDED_HOLE, ts.Component.F0)

    def test_ladder_validation(self):
        s = ts.HarmonicSymbol({1: 1})
        with pytest.raises(ValueError):
            ts.detect_discrete(s, ladder=(100, 100, 200))
        with pytest.raises(ValueError):
            ts.detect_discrete(s, ladder=(100, 200))

    def test_result_reports_curve(self):
        res = ts.detect_discrete(ts.HarmonicSymbol({1: 1}), ladder=SMALL_LADDER)
        assert isinstance(res.curve, ts.SymbolCurve)
        assert res.skipped_rungs == ()
        assert {n: len(ev) for n, ev in res.rung_eigenvalues.items()} == {n: n for n in SMALL_LADDER}

    def test_unconverged_rung_is_skipped(self, eigvals_fails_at):
        eigvals_fails_at(120)
        res = ts.detect_discrete(ts.HarmonicSymbol({1: 1}), ladder=SMALL_LADDER)
        assert res.skipped_rungs == (120,)
        assert len(res.candidates) == 0 and res.uncertified == ()
        assert sorted(res.rung_eigenvalues) == [60, 240]

    def test_each_bt_order_built_once(self, monkeypatch):
        built, resolved = [], []

        def bt_section(s, N):
            built.append(N)
            return ts.bt_section(s, N)

        def resolve(*args):
            resolved.append(_resolve_options(*args))
            return resolved[-1]

        monkeypatch.setattr(spectra, "bt_section", bt_section)
        monkeypatch.setattr(spectra, "_resolve_options", resolve)
        s = ts.HarmonicSymbol({2: 1, -1: 0.8})
        ts.detect_discrete(s, ladder=(50, 100, 200))
        assert built == [50, 100, 200]
        # cert_tol is that of the order-200 section, bit for bit
        assert [r[2] for r in resolved] == [1e-6 * ts.bt_section(s, 200).frobenius_norm()]

    def test_merged_chains_give_one_candidate(self, monkeypatch):
        # two chains of the mixed symbol end at the same eigenvalue near 0
        chains = []

        def chain_ladder(*args):
            chains.extend(_chain_ladder(*args))
            return chains

        monkeypatch.setattr(spectra, "_chain_ladder", chain_ladder)
        res = ts.detect_discrete(ts.HarmonicSymbol({2: 1, -1: 0.8}), ladder=(50, 100, 200))
        assert len(chains) == 2 and chains[0] == chains[1]
        assert res.uncertified == () and len(res.candidates) == 1
        assert (res.candidates[0].location, res.candidates[0].persistence_drift) == chains[0]


class TestClassify:
    def test_interior_of_circle_is_winding_region(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        comp = ts.classify(0.0, curve, delta_curve=0.05)
        assert comp is ts.Component.BOUNDED_HOLE

    def test_point_near_curve(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        comp = ts.classify(1.0 + 0.01j, curve, delta_curve=0.05)
        assert comp is ts.Component.NEAR_ESSENTIAL

    def test_point_on_curve_below_delta_is_near_essential(self):
        # within ON_CURVE_RTOL * scale of the segment [-2, 2], where winding
        # is undefined, although farther than delta_curve
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 1}))
        comp = ts.classify(1 + 1e-14j, curve, delta_curve=1e-300)
        assert comp is ts.Component.NEAR_ESSENTIAL

    def test_exterior_is_f0(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        assert ts.classify(3.0, curve, delta_curve=0.05) is ts.Component.F0

    def test_polyline_distance_taken_once(self, monkeypatch):
        # the winding follows the on-curve test without a second distance
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        distance_to, calls = ts.SymbolCurve.distance_to, []
        monkeypatch.setattr(ts.SymbolCurve, "distance_to", lambda c, z: calls.append(z) or distance_to(c, z))
        assert ts.classify(0.0, curve, delta_curve=0.05) is ts.Component.BOUNDED_HOLE
        assert ts.classify(3.0, curve, delta_curve=0.05) is ts.Component.F0
        assert calls == [0.0, 3.0]

    def test_contacts_swept_once_per_curve(self, monkeypatch):
        # {2: 1, -1: 0.8} crosses itself; the second point is inside the box too
        curve = ts.sample_curve(ts.HarmonicSymbol({2: 1, -1: 0.8}))
        near_pairs, calls = symbols._near_pairs, []
        monkeypatch.setattr(symbols, "_near_pairs", lambda *args: calls.append(args) or near_pairs(*args))
        assert ts.classify(3.0, curve, delta_curve=0.05) is ts.Component.F0  # outside the box: no sweep
        assert calls == []
        assert ts.classify(0.0, curve, delta_curve=0.05) is ts.Component.BOUNDED_HOLE
        assert ts.classify(0.5j, curve, delta_curve=0.05) is ts.Component.BOUNDED_HOLE
        assert len(calls) == 1 and len(curve._contacts[0]) > 0

    def test_flat_interval_interior(self):
        # symbol 2cos(theta): curve is the segment [-2, 2]; off-segment
        # points connect to infinity
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 1}), 512)
        assert ts.classify(1j, curve, delta_curve=0.05) is ts.Component.F0

    # Draws 22 and 28 hold winding-0 points (3 and 8 of these samples) whose
    # only ways out bend around the curve; draw 37 holds 25 winding-0 points
    # in bounded holes.  At the other symbols, sample vertices can fall on
    # symmetric crossings.
    @pytest.mark.parametrize(
        "symbol, M",
        [pytest.param(seed0_draw(i), 1024, id=f"draw{i}") for i in (22, 28, 37)]
        + [
            pytest.param(ts.HarmonicSymbol(c), M, id=f"{c}-{M}")
            for c in (*MIXED_SYMBOLS, {1: 1, -1: 0.5}, {1: 1, -1: 1}, {2: 1}, {3: 1, -2: 1})
            for M in (512, 1000)
        ],
    )
    def test_f0_is_where_the_raster_fill_reaches(self, symbol, M):
        curve = ts.sample_curve(symbol, M)
        z, reached = (x[::10, ::10].ravel() for x in raster_f0(curve))
        w = 0.05 * symbol.wiener_norm()
        keep = (curve.distance_to(z) >= w) & (_windings(curve, z) == 0)
        z, reached = z[keep], reached[keep]
        f0 = np.array([ts.classify(p, curve, w) is ts.Component.F0 for p in z])
        assert len(z) >= 500
        assert z[f0 != reached].tolist() == []

    @pytest.mark.parametrize("coeffs", [{0: 2}, {0: 1, 1: 1e-140}])
    def test_point_like_curve_runs_no_pair_search(self, coeffs, monkeypatch):
        # every pair of segments touches: M^2 / 2 contacts at M = 2^20
        def no_pairs(*args):
            raise AssertionError("_near_pairs called")

        curve = ts.sample_curve(ts.HarmonicSymbol(coeffs), 2**20)
        monkeypatch.setattr(ts.symbols, "_near_pairs", no_pairs)
        assert ts.classify(3, curve, 0.1) is ts.Component.F0
        assert ts.classify(coeffs[0] + 1e-6j, curve, 1e-9) is ts.Component.F0


class TestResolventFit:
    def test_shift_symbol_exponent(self):
        s = ts.HarmonicSymbol({1: 1})
        curve = ts.sample_curve(s, 512)
        dists = np.linspace(0.1, 0.5, 10) * s.wiener_norm()
        pts = ts.points_at_distance(curve, dists)
        fit = ts.resolvent_growth_fit(s, pts, N=120, curve=curve)
        assert 0.8 <= fit.p_hat <= 1.4
        assert fit.c_hat > 0

    def test_requires_enough_points(self):
        s = ts.HarmonicSymbol({1: 1})
        with pytest.raises(ValueError):
            ts.resolvent_growth_fit(s, [2.0, 3.0], N=50)

    def test_sigma_min_never_builds_the_dense_matrix(self, monkeypatch):
        # the fit's 16 calls and an 8 x 6 grid read the bands; only a dense
        # LAPACK call (none here) would build ``entries``
        sections = []

        def ht_section(s, N):
            sections.append(ts.ht_section(s, N))
            return sections[-1]

        monkeypatch.setattr(spectra, "ht_section", ht_section)
        s = ts.HarmonicSymbol({2: 1, -1: 0.8})
        curve = ts.sample_curve(s)
        w = s.wiener_norm()
        ts.resolvent_growth_fit(s, ts.points_at_distance(curve, np.linspace(0.05 * w, 0.5 * w, 16)), 200, curve=curve)
        grid = ts.bt_section(ts.from_parts([0, 1], [0, 0.5]), 80)
        ts.pseudospectrum(grid, ts.Rect(-2, 2, -1.5, 1.5), nx=8, ny=6)
        assert len(sections) == 1
        for sec in (*sections, grid):
            assert "entries" not in sec.__dict__

    def test_points_at_distance_accuracy(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 512)
        pts = ts.points_at_distance(curve, [0.2, 0.4])
        for lam in pts:
            d = ts.dist_to_spectrum(lam, curve)
            assert d == pytest.approx(0.2, abs=2e-3) or d == pytest.approx(
                0.4, abs=2e-3
            )

    @pytest.mark.parametrize("coeffs", FIT_SYMBOLS)
    def test_points_at_distance_matches_scalar_bisection(self, coeffs):
        s = ts.HarmonicSymbol(coeffs)
        curve = ts.sample_curve(s)
        dists = np.linspace(0.05, 0.5, 16) * s.wiener_norm()
        got = ts.points_at_distance(curve, dists)
        for z, ref in zip(got, scalar_points_at_distance(curve, dists), strict=True):
            assert abs(z - ref) <= 1e-14 * (1 + abs(ref))

    def test_points_at_distance_hits_every_target(self):
        # the centroid of draws such as the second lies farther from the
        # filled spectrum than the smallest target; bisecting from it missed
        # targets by up to 2.66x and returned one point twice
        for s in nonconstant_seed0_symbols(390):
            curve = ts.sample_curve(s)
            dists = np.linspace(FIT_DIST_RANGE[0], FIT_DIST_RANGE[1], FIT_POINTS) * s.wiener_norm()
            pts = np.array(ts.points_at_distance(curve, dists))
            assert np.all(np.abs(ts.dist_to_spectrum(pts, curve) - dists) <= 1e-12 * dists), s.coeffs
            assert np.all(_windings(curve, pts) == 0), s.coeffs
            assert len(set(pts.tolist())) == len(pts), s.coeffs

    def test_points_at_distance_is_the_last_exit(self):
        # each point lies on its ray, and beyond it the ray never comes back
        # within the target; the second and 24th draws start at a sample, and
        # #300 and #353 at their centroid, in a bounded hole of winding 0
        seed0 = nonconstant_seed0_symbols(354)
        symbols = [ts.HarmonicSymbol(c) for c in FIT_SYMBOLS] + seed0[:40] + [seed0[300], seed0[353]]
        for s in symbols:
            curve = ts.sample_curve(s)
            dists = np.linspace(0.05, 0.5, 16) * s.wiener_norm()
            start = complex(np.mean(curve.points))
            if ts.classify(start, curve, dists[0]) is ts.Component.F0:
                start = curve.points[np.argmin(np.abs(curve.points - start))]
            beyond = np.geomspace(1e-3, 3, 64) * curve.scale()
            for i, (z, d) in enumerate(zip(ts.points_at_distance(curve, dists), dists)):
                u = np.exp(1j * (2 * np.pi * i / 16 + np.pi / 16))
                t = ((z - start) * u.conjugate()).real
                assert t > 0 and abs(start + t * u - z) <= 1e-14 * (1 + abs(z)), (s.coeffs, i)
                assert np.all(curve.distance_to(z + beyond * u) >= d), (s.coeffs, i)

    @pytest.mark.parametrize("case", ["curve sample", "winding 2", "hole of winding 0"])
    def test_fit_rejects_a_point_outside_f0(self, case):
        # the hole's point, the centroid of non-constant seed-0 symbol #300, 0.0595 w from the
        # curve, has whole-curve winding 0 but lies inside a crossing loop
        s = {
            "curve sample": ts.HarmonicSymbol({1: 1}),
            "winding 2": ts.HarmonicSymbol({2: 1, -1: 0.8}),
            "hole of winding 0": nonconstant_seed0_symbols(301)[300],
        }[case]
        curve = ts.sample_curve(s)
        bad = {"curve sample": curve.points[5], "winding 2": 0.0, "hole of winding 0": np.mean(curve.points)}[case]
        pts = [bad, *ts.points_at_distance(curve, np.linspace(0.1, 0.5, 7) * s.wiener_norm())]
        with pytest.raises(ValueError, match=re.escape(f"sample point {complex(bad)} is not in the outer component F0")):
            ts.resolvent_growth_fit(s, pts, N=60, curve=curve)

    @pytest.mark.parametrize("bad", [0.0, -0.3, math.nan, math.inf, -math.inf])
    def test_points_at_distance_rejects_a_bad_target(self, bad):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}))
        with pytest.raises(ValueError, match=re.escape(f"dists[1] = {bad} is not a finite positive number")):
            ts.points_at_distance(curve, [0.2, bad, 0.4])


class TestOptions:
    def test_defaults_scale_with_symbol(self):
        s = ts.HarmonicSymbol({1: 2.0})
        opts = ts.DetectOptions()
        res = ts.detect_discrete(s, ladder=SMALL_LADDER, opts=opts)
        assert res.skipped_rungs == ()

    def test_explicit_tolerances_respected(self):
        s = ts.HarmonicSymbol({2: 1, -1: 0.8})
        tight = ts.DetectOptions(cert_tol=1e-300)
        res = ts.detect_discrete(s, ladder=MID_LADDER, opts=tight)
        assert len(res.candidates) == 0 and len(res.uncertified) >= 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    @pytest.mark.parametrize("field", ["delta_curve", "drift_tol", "cert_tol"])
    def test_bad_explicit_tolerance_rejected(self, field, bad):
        opts = ts.DetectOptions(**{field: bad})
        with pytest.raises(ValueError, match=rf"DetectOptions\.{field} = {bad} is not a finite positive number"):
            ts.detect_discrete(ts.HarmonicSymbol({2: 1, -1: 0.8}), ladder=(16, 24, 32), opts=opts)

    @pytest.mark.parametrize("field", ["delta_curve", "drift_tol", "cert_tol"])
    def test_bad_explicit_tolerance_rejected_before_any_eigensolve(self, monkeypatch, field):
        calls = []
        monkeypatch.setattr(spectra, "eigenvalues", lambda a: calls.append(a.order))
        opts = ts.DetectOptions(**{field: -1.0})
        with pytest.raises(ValueError, match=rf"DetectOptions\.{field} = -1\.0 is not a finite positive number"):
            ts.detect_discrete(ts.HarmonicSymbol({2: 1, -1: 0.8}), ladder=(16, 24, 32), opts=opts)
        assert calls == []


# the mixed symbol's hole (0, also an eigenvalue of its sections), near-curve
# and F0 points, and the ellipse's hole and F0 points among them
SCALE_NODES = (0, 0.4 + 0.3j, 1.8 + 0.01j, 2.5, -1 + 1.2j)


@pytest.mark.parametrize("k", [-500, -300, 0, 300, 500])
def test_scale_covariance(monkeypatch, k):
    # c = 2^k scales the symbol, its curve and its sections exactly: sigma_min
    # scales with it, exactly on the band path, and no yes/no answer changes
    c = 2.0 ** k
    for coeffs in ({2: 1, -1: 0.8}, {1: 1, -1: 0.5}):
        s, sc = ts.HarmonicSymbol(coeffs), ts.HarmonicSymbol({j: c * v for j, v in coeffs.items()})
        curve, curve_c = ts.sample_curve(s), ts.sample_curve(sc)
        d, dc = ts.curve_diagnostics(curve), ts.curve_diagnostics(curve_c)
        assert (dc.jordan, dc.cusp_free) == (d.jordan, d.cusp_free)
        assert dc.min_self_distance == pytest.approx(c * d.min_self_distance, rel=1e-12, abs=0)
        delta = 0.05 * s.wiener_norm()
        for z in SCALE_NODES:
            assert ts.classify(c * z, curve_c, c * delta) is ts.classify(z, curve, delta), z
    sec, sec_c = (ts.bt_section(ts.HarmonicSymbol({2: b, -1: 0.8 * b}), 40) for b in (1, c))
    nodes = SCALE_NODES[1:]  # sigma at the eigenvalue 0 is below the rounding floor
    assert linalg._lapack() is not None, "no band routines found in numpy's LAPACK"
    assert [ts.smallest_singular_value(sec_c, c * z) for z in nodes] == [
        c * ts.smallest_singular_value(sec, z) for z in nodes
    ]
    monkeypatch.setattr(linalg, "_lapack", lambda: None)
    for z in nodes:
        assert ts.smallest_singular_value(sec_c, c * z) == pytest.approx(
            c * ts.smallest_singular_value(sec, z), rel=1e-14
        ), z
