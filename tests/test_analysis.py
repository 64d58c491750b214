import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import toepspec as ts
from toepspec import analysis, spectra
from toepspec.sections import series_tol_floor

SMALL_LADDER = (100, 200, 400)


class TestDistToSpectrum:
    def test_outside_circle(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 512)
        assert ts.dist_to_spectrum(3.0, curve) == pytest.approx(2.0, abs=1e-4)

    def test_inside_winding_region_is_zero(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 512)
        assert ts.dist_to_spectrum(0.1 + 0.1j, curve) == 0.0

    def test_on_curve_is_zero(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 512)
        assert ts.dist_to_spectrum(curve.points[7], curve) == 0.0

    def test_segment_symbol(self):
        # 2cos(theta) traces [-2, 2]; winding is zero everywhere off it
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 1}), 512)
        assert ts.dist_to_spectrum(1j, curve) == pytest.approx(1.0, abs=1e-3)
        assert ts.dist_to_spectrum(3.0, curve) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("coeffs", [{1: 1}, {2: 1}, {2: 1, -1: 0.8}, {0: 2 + 1j}])
    def test_array_form_matches_scalar(self, coeffs, monkeypatch):
        curve = ts.sample_curve(ts.HarmonicSymbol(coeffs), 256)
        ring = np.exp(2j * np.pi * np.arange(40) / 40)
        # 20 curve samples and 20 segment midpoints (within ON_CURVE_RTOL of
        # the curve), 40 points on |z| = 0.5 (windings 1; 2; 0 and 1; 0 for
        # the four symbols) and 40 far points
        p = curve.points
        on = np.concatenate([p[:120:6], 0.5 * (p[3:123:6] + p[4:124:6])])
        pts = np.concatenate([on, 0.5 * ring, 2 + 1j + 5 * ring])
        whole = [ts.dist_to_spectrum(z, curve) for z in pts]
        whole_near = [curve.distance_to(z) for z in pts]
        # 1024 pairs per block: 4 points by all 256 segments, so 30 row
        # blocks; 100 pairs: 1 point by 100 segments, so 3 segment chunks
        for budget in (1024, 100):
            monkeypatch.setattr(ts.symbols, "PAIR_BUDGET", budget)
            got = ts.dist_to_spectrum(pts, curve)
            assert got.tolist() == [ts.dist_to_spectrum(z, curve) for z in pts] == whole
            assert (got[:40] == 0).all() and (got[80:] > 0).all()
            assert (got[40:80] == 0).any() == (not ts.HarmonicSymbol(coeffs).is_constant)
            near = curve.distance_to(pts)
            assert near.tolist() == [curve.distance_to(z) for z in pts] == whole_near
        assert isinstance(ts.dist_to_spectrum(pts[0], curve), float)
        assert isinstance(curve.distance_to(pts[0]), float)
        for empty in (ts.dist_to_spectrum(pts[:0], curve), curve.distance_to(pts[:0])):
            assert empty.shape == (0,)


class TestLTSum:
    def _cand(self, loc, comp=ts.Component.F0):
        return ts.DiscreteCandidate(
            location=loc, persistence_drift=0.0, certificate=0.0, component=comp
        )

    def test_empty(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        assert ts.lt_sum([], curve, epsilon=0.01) == 0.0

    def test_single_f0_point(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 1024)
        val = ts.lt_sum([self._cand(2.0)], curve, epsilon=0.5)
        assert val == pytest.approx(1.0 ** 3.5, abs=1e-3)

    def test_non_f0_excluded(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        cands = [self._cand(0.5, ts.Component.NEAR_ESSENTIAL)]
        assert ts.lt_sum(cands, curve, epsilon=0.01) == 0.0

    def test_epsilon_validation(self):
        curve = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        with pytest.raises(ValueError):
            ts.lt_sum([], curve, epsilon=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_epsilon_must_be_finite_positive(self, bad):
        # a NaN epsilon would sum to NaN and reach report.json as "epsilon": NaN, not JSON
        s = ts.from_parts([0, 1], [0, 0.5])
        msg = re.escape(f"epsilon = {bad} is not a finite positive number")
        with pytest.raises(ValueError, match=msg):
            ts.lt_sum([self._cand(3.0)], ts.sample_curve(s), epsilon=bad)
        with pytest.raises(ValueError, match=msg):
            ts.build_report(s, ts.ReportOptions(ladder=(16, 24, 32), epsilon=bad))

    def test_overflowing_term_raises_value_error(self):
        # distance 1.5 from the ellipse: 1.5 ** (3 + 1e308) is beyond the doubles
        curve = ts.sample_curve(ts.from_parts([0, 1], [0, 0.5]))
        d = curve.distance_to(3.0)
        msg = re.escape(f"distance {d} ** (3 + epsilon), epsilon = 1e+308, overflows a double")
        with pytest.raises(ValueError, match=msg):
            ts.lt_sum([self._cand(3.0)], curve, epsilon=1e308)
        assert ts.lt_sum([self._cand(3.0)], curve, epsilon=100.0) == 1.3721439741813514e18

    def test_overflowing_sum_of_finite_terms_raises_value_error(self):
        # distance 1.5: one term 1.5 ** (3 + epsilon) is just below 1e308, two sum to inf
        curve = ts.sample_curve(ts.from_parts([0, 1], [0, 0.5]))
        eps = math.log(1e308) / math.log(1.5) - 3
        assert ts.lt_sum([self._cand(3.0)], curve, epsilon=eps) == 9.999999999999928e307
        msg = re.escape(f"the sum of 2 terms ** (3 + epsilon), epsilon = {eps}, overflows a double")
        with pytest.raises(ValueError, match=msg):
            ts.lt_sum([self._cand(3.0)] * 2, curve, epsilon=eps)


class TestReportOptionsCheckedFirst:
    """A bad ReportOptions raises before detection eigensolves a rung."""

    S = ts.from_parts([0, 1], [0, 0.5])

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        for module in (spectra, analysis):
            monkeypatch.setattr(module, "eigenvalues", lambda a: calls.append(a.order))
        return calls

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_epsilon(self, solves, bad):
        with pytest.raises(ValueError, match=re.escape(f"epsilon = {bad} is not a finite positive number")):
            ts.build_report(self.S, ts.ReportOptions(ladder=(16, 24, 32), epsilon=bad))
        assert solves == []

    @pytest.mark.parametrize("ladder", [(), (7,), (5, 10), (10, 5, 20)])
    def test_bad_ladder(self, solves, monkeypatch, ladder):
        series = []
        monkeypatch.setattr(analysis, "hs_difference_sq_series", lambda *args: series.append(args))
        with pytest.raises(ValueError, match="ladder must be strictly increasing"):
            ts.build_report(self.S, ts.ReportOptions(ladder=ladder))
        assert solves == [] and series == []

    def test_series_tol_below_floor(self, solves):
        assert 1e-30 < series_tol_floor(self.S)
        with pytest.raises(ValueError, match="tol must be positive and >= 4 eps"):
            ts.build_report(self.S, ts.ReportOptions(ladder=(16, 24, 32), series_tol=1e-30))
        assert solves == []


class TestWeylDiagnostic:
    @staticmethod
    def counting_eigvals(monkeypatch):
        """Record the order of every LAPACK eigenvalue call."""
        calls = []
        inner = np.linalg.eigvals

        def eigvals(a):
            calls.append(len(a))
            return inner(a)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        return calls

    def test_self_adjoint_symbol(self):
        s = ts.HarmonicSymbol({1: 1, -1: 1})
        assert ts.weyl_diagnostic(s, 120) >= 0.95

    def test_constant_symbol(self):
        assert ts.weyl_diagnostic(ts.HarmonicSymbol({0: 2 + 1j}), 50) == 1.0

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            ts.weyl_diagnostic(ts.HarmonicSymbol({1: 1}), 8)

    def test_unconverged_eigensolve_gives_none(self, eigvals_fails_at):
        eigvals_fails_at(40)
        assert ts.weyl_diagnostic(ts.HarmonicSymbol({1: 1, -1: 0.5}), 40) is None

    def test_report_reuses_ladder_eigenvalues(self, monkeypatch):
        s = ts.HarmonicSymbol({2: 1, -1: 0.8})
        expected = ts.weyl_diagnostic(s, 200)
        calls = self.counting_eigvals(monkeypatch)
        rep = ts.build_report(s, ts.ReportOptions(ladder=(50, 100, 200)))
        assert calls == [50, 100, 200]
        assert rep.weyl_fraction == expected

    def test_report_skips_unconverged_weyl_rung(self, eigvals_fails_at, monkeypatch):
        # the Weyl order min(200, 80) is the failed rung: it is not solved again
        eigvals_fails_at(80)
        calls = self.counting_eigvals(monkeypatch)
        rep = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=(20, 40, 80)))
        assert calls == [20, 40, 80]
        assert rep.weyl_fraction is None and rep.skipped_rungs == (80,)

    def test_report_skips_unconverged_weyl_order(self, eigvals_fails_at, monkeypatch):
        # the Weyl order 200 is not a rung of (50, 100, 250): one solve of its own
        eigvals_fails_at(200)
        calls = self.counting_eigvals(monkeypatch)
        rep = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=(50, 100, 250)))
        assert calls == [50, 100, 250, 200]
        assert rep.weyl_fraction is None
        assert rep.skipped_rungs == (200,)
        payload = json.loads(rep.to_json())
        assert payload["weyl_fraction"] is None and payload["skipped_rungs"] == [200]

    def test_report_below_the_weyl_minimum_order(self, monkeypatch):
        # min(200, 12) is below weyl_diagnostic's minimum order 16: no Weyl
        # solve, no skipped rung, and the fraction stays None
        calls = self.counting_eigvals(monkeypatch)
        rep = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=(4, 8, 12)))
        assert calls == [4, 8, 12]
        payload = json.loads(rep.to_json())
        assert payload["weyl_fraction"] is None and payload["skipped_rungs"] == []


@pytest.fixture(scope="module")
def report():
    return ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=SMALL_LADDER))


class TestReport:
    def test_bound_fields(self, report):
        assert report.hs_series <= report.hs_bound + 1e-9
        assert report.hs_truncated <= report.hs_series + 1e-9
        assert report.empirical_constant <= math.pi ** 2 / 24 + 1e-12

    def test_candidates_present(self, report):
        assert len(report.candidates) >= 1
        assert report.lt_sum_certified_only <= report.lt_sum + 1e-12

    def test_fit_range(self, report):
        assert 0.5 <= report.p_hat <= 2.0

    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["hs_bound"] == report.hs_bound
        assert payload["ladder"] == list(SMALL_LADDER)
        assert isinstance(payload["candidates"], list)

    def test_json_keys_are_field_names(self, report):
        payload = json.loads(report.to_json())
        assert set(payload) == {f.name for f in fields(ts.SpectralReport)}
        assert set(payload["candidates"][0]) == {f.name for f in fields(ts.DiscreteCandidate)}
        assert set(payload["curve_diagnostics"]) == {f.name for f in fields(ts.CurveDiagnostics)}

    def test_deterministic(self, report):
        again = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=SMALL_LADDER))
        assert again.to_json() == report.to_json()

    @pytest.mark.parametrize("error", [ValueError, OverflowError])
    def test_failed_fit_leaves_the_rest_of_the_report(self, report, monkeypatch, error):
        # a fit that raises ValueError or an ArithmeticError gives p_hat = c_hat = None;
        # a LinAlgError propagates (tests/test_cli.py::test_svd_failure_in_resolvent_fit)
        def fit(*args, **kwargs):
            raise error("fit failed")

        monkeypatch.setattr(analysis, "resolvent_growth_fit", fit)
        rep = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=SMALL_LADDER))
        assert report.p_hat is not None and report.c_hat is not None
        assert rep == replace(report, p_hat=None, c_hat=None)

    def test_each_point_set_classified_once(self, monkeypatch):
        # the chain ends and the centroid start of points_at_distance: one classify call
        # each; the fit's samples: one SymbolCurve.locate for their F0 test and log d;
        # 7 curve distances in all
        classify, calls = spectra.classify, []
        monkeypatch.setattr(spectra, "classify", lambda *args: calls.append(args[0]) or classify(*args))
        distance_to, distances = ts.SymbolCurve.distance_to, []
        monkeypatch.setattr(ts.SymbolCurve, "distance_to", lambda c, z: distances.append(z) or distance_to(c, z))
        rep = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), ts.ReportOptions(ladder=(50, 100, 200)))
        assert len(rep.candidates + rep.uncertified_candidates) >= 1 and rep.p_hat is not None
        assert len(calls) <= 2 and len(distances) <= 7

    def test_summary_is_text(self, report):
        text = report.summary()
        assert "hs" in text.lower() and "\n" in text
