import json
import math

import pytest

import toepspec as ts


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


class TestWeylDiagnostic:
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

    def test_report_skips_unconverged_weyl_order(self, eigvals_fails_at):
        eigvals_fails_at(60)
        opts = ts.ReportOptions(ladder=(20, 40, 80), weyl_order=60)
        rep = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), opts)
        assert rep.weyl_fraction is None
        assert rep.skipped_rungs == (60,)
        payload = json.loads(rep.to_json())
        assert payload["weyl_fraction"] is None and payload["skipped_rungs"] == [60]


@pytest.fixture(scope="module")
def report():
    opts = ts.ReportOptions(ladder=SMALL_LADDER, fit_order=80, weyl_order=60)
    return ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), opts)


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

    def test_deterministic(self, report):
        opts = ts.ReportOptions(ladder=SMALL_LADDER, fit_order=80, weyl_order=60)
        again = ts.build_report(ts.HarmonicSymbol({2: 1, -1: 0.8}), opts)
        assert again.to_json() == report.to_json()

    def test_summary_is_text(self, report):
        text = report.summary()
        assert "hs" in text.lower() and "\n" in text
