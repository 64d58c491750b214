import json

import pytest

from toepspec import cli


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "symbol": {"f": [[0, 0], [1, 0]], "g": [[0, 0], [0.5, 0]]},
    "ladder": [60, 120, 240],
}


# Parsed by Python's json module without complaint, rejected by the config.
NONFINITE_OR_BOOL = [
    {"symbol": {"f": [[float("nan"), 0]]}},
    {"symbol": {"f": [[1, 0]]}, "epsilon": float("inf")},
    {"symbol": {"f": [[1, 0]]}, "tolerances": {"series_tol": float("nan")}},
    {"symbol": {"f": [[1, 0]]}, "ladder": [True, 20, 40]},
]

# Finite coefficients whose ||phi'||_2^2 overflows a double.
HUGE = {"symbol": {"f": [[0, 0], [1e300, 0]]}}

# ||phi'||_2^2 = 1e6: series_tol 1e-12 is below the floor 4 eps 1e6 = 8.88e-10.
BELOW_FLOOR = {"symbol": {"f": [[0, 0], [1000, 0]]}, "tolerances": {"series_tol": 1e-12}}

# Indices in [-1, 3]: sampling the curve needs 16 (m + n + 1) = 80 > 64 samples.
FEW_SAMPLES = {
    "symbol": {"f": [[0, 0], [0, 0], [0, 0], [1, 0]], "g": [[0, 0], [0.8, 0]]},
    "curve_samples": 64,
}


class TestConfigParsing:
    def test_minimal(self):
        cfg = cli.parse_config({"symbol": {"f": [[0, 0], [1, 0]]}})
        assert cfg.symbol.coeffs == {1: 1}
        assert cfg.ladder == [200, 400, 800]

    def test_g_conjugated(self):
        cfg = cli.parse_config({"symbol": {"g": [[0, 0], [0, 1]]}})
        assert cfg.symbol[-1] == -1j

    def test_full_document(self, tmp_path):
        doc = dict(BASE)
        doc.update(
            region={"re_min": -2, "re_max": 2, "im_min": -1, "im_max": 1},
            grid={"nx": 4, "ny": 3},
            epsilon=0.5,
            tolerances={"cert_tol": 1e-5, "series_tol": 1e-7},
            curve_samples=128,
            section_kind="ht",
            section_order=30,
            output_dir=str(tmp_path),
        )
        cfg = cli.parse_config(doc)
        assert cfg.nx == 4 and cfg.ny == 3
        assert cfg.cert_tol == 1e-5 and cfg.series_tol == 1e-7
        assert cfg.section_kind == "ht" and cfg.section_order == 30

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"symbol": {"f": [[1]]}},
            {"symbol": {"f": []}, "ladder": [100, 50]},
            {"symbol": {"f": []}, "epsilon": -1},
            {"symbol": {"f": []}, "section_kind": "other"},
            {"symbol": {"f": []}, "curve_samples": 10},
            {"symbol": {"f": []}, "region": {"re_min": 1, "re_max": 0, "im_min": 0, "im_max": 1}},
            *NONFINITE_OR_BOOL,
            HUGE,
            BELOW_FLOOR,
            FEW_SAMPLES,
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(doc)


class TestExitCodes:
    def test_missing_config_file(self):
        assert cli.main(["hs-check", "--config", "/nonexistent.json"]) == cli.EXIT_USAGE

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["hs-check", "--config", str(path)]) == cli.EXIT_USAGE

    def test_unknown_command(self, tmp_path):
        path = write_config(tmp_path, BASE)
        assert cli.main(["frobnicate", "--config", path]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["hs-check", "report"])
    @pytest.mark.parametrize("doc", NONFINITE_OR_BOOL)
    def test_nonfinite_or_bool_config(self, tmp_path, command, doc):
        path = write_config(tmp_path, dict(doc, output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["hs-check", "report"])
    def test_overflowing_derivative_norm(self, tmp_path, command):
        path = write_config(tmp_path, dict(HUGE, output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["curve", "report"])
    def test_curve_samples_below_symbol_minimum(self, tmp_path, command, capsys):
        doc = dict(FEW_SAMPLES, ladder=[20, 40, 60], output_dir=str(tmp_path))
        assert cli.main([command, "--config", write_config(tmp_path, doc)]) == cli.EXIT_USAGE
        assert "'curve_samples' must be an integer >= 80" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hs-check", "report"])
    @pytest.mark.parametrize(
        "doc,floor",
        [
            (BELOW_FLOOR, "8.88e-10"),
            (dict(BASE, tolerances={"series_tol": 1e-30}), "1.11e-15"),
        ],
    )
    def test_series_tol_below_floor(self, tmp_path, capsys, command, doc, floor):
        path = write_config(tmp_path, dict(doc, output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_USAGE
        assert f"'tolerances.series_tol' must be >= {floor}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hs-check", "spectrum", "report", "curve"])
    def test_svd_check_only_on_pseudospectrum(self, tmp_path, command):
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40, 60], output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path, "--svd-check"]) == cli.EXIT_USAGE

    def test_svd_failure(self, tmp_path, capsys):
        # the region's width overflows a double, so the grid holds NaN nodes
        doc = dict(
            BASE,
            region={"re_min": -1e308, "re_max": 1e308, "im_min": -1, "im_max": 1},
            grid={"nx": 2, "ny": 2},
            section_order=8,
            output_dir=str(tmp_path),
        )
        with pytest.warns(RuntimeWarning) as caught:
            code = cli.main(["pseudospectrum", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_NO_CONVERGENCE
        assert any("overflow" in str(w.message) for w in caught)
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1

    def test_report_needs_three_rungs(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40], output_dir=str(tmp_path)))
        assert cli.main(["report", "--config", path]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["spectrum", "report"])
    def test_eigensolver_failure(self, tmp_path, eigvals_fails_at, command):
        eigvals_fails_at(40)
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40, 60], output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_NO_CONVERGENCE

    def test_weyl_eigensolver_failure(self, tmp_path, eigvals_fails_at, capsys):
        # the Weyl diagnostic runs at order 200, which is not a ladder rung
        eigvals_fails_at(200)
        path = write_config(tmp_path, dict(BASE, ladder=[50, 100, 250], output_dir=str(tmp_path)))
        assert cli.main(["report", "--config", path]) == cli.EXIT_NO_CONVERGENCE
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["weyl_fraction"] is None and payload["skipped_rungs"] == [200]
        assert "did not converge at N=200" in capsys.readouterr().err

    def test_pseudospectrum_without_region(self, tmp_path):
        path = write_config(tmp_path, BASE)
        code = cli.main(["pseudospectrum", "--config", path, "--out", str(tmp_path)])
        assert code == cli.EXIT_USAGE


class TestHSCheck:
    def test_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert cli.main(["hs-check", "--config", path]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "bound check: PASS" in out
        assert "hs_series" in out and "hs_bound" in out


class TestSpectrum:
    def test_writes_every_rung(self, tmp_path):
        doc = dict(BASE, ladder=[60, 120, 240], output_dir=str(tmp_path))
        path = write_config(tmp_path, doc)
        assert cli.main(["spectrum", "--config", path]) == cli.EXIT_OK
        for n in (60, 120, 240):
            lines = (tmp_path / f"eigenvalues_{n}.csv").read_text().splitlines()
            assert lines[0] == "re,im"
            assert len(lines) == n + 1

    def test_out_flag_overrides(self, tmp_path):
        doc = dict(BASE, ladder=[60, 120, 180])
        path = write_config(tmp_path, doc)
        dest = tmp_path / "elsewhere"
        assert cli.main(["spectrum", "--config", path, "--out", str(dest)]) == 0
        assert (dest / "eigenvalues_60.csv").exists()


class TestPseudospectrum:
    def test_grid_output(self, tmp_path):
        doc = dict(BASE)
        doc.update(
            region={"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2},
            grid={"nx": 3, "ny": 3},
            section_order=25,
            output_dir=str(tmp_path),
        )
        path = write_config(tmp_path, doc)
        assert cli.main(["pseudospectrum", "--config", path]) == cli.EXIT_OK
        lines = (tmp_path / "pseudospectrum.csv").read_text().splitlines()
        assert lines[0] == "re,im,sigma_min"
        assert len(lines) == 10

    def test_svd_check(self, tmp_path, capsys):
        doc = dict(BASE)
        doc.update(
            region={"re_min": -2, "re_max": 2, "im_min": -2, "im_max": 2},
            grid={"nx": 2, "ny": 2},
            section_order=15,
            output_dir=str(tmp_path),
        )
        path = write_config(tmp_path, doc)
        code = cli.main(["pseudospectrum", "--config", path, "--svd-check"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        gap = float(out.rsplit("=", 1)[1])
        assert gap < 1e-6


class TestCurve:
    def test_output_and_diagnostics(self, tmp_path, capsys):
        doc = dict(BASE, curve_samples=128, output_dir=str(tmp_path))
        path = write_config(tmp_path, doc)
        assert cli.main(["curve", "--config", path]) == cli.EXIT_OK
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "theta,re,im,tangent_re,tangent_im"
        assert len(lines) == 129
        out = capsys.readouterr().out
        assert "jordan: True" in out and "cusp_free: True" in out


class TestReport:
    def test_end_to_end(self, tmp_path, capsys):
        doc = {
            "symbol": {"f": [[0, 0], [0, 0], [1, 0]], "g": [[0, 0], [0.8, 0]]},
            "ladder": [60, 120, 240],
            "output_dir": str(tmp_path),
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["report", "--config", path]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["ladder"] == [60, 120, 240]
        assert payload["hs_series"] <= payload["hs_bound"] + 1e-9
        assert capsys.readouterr().out.strip()
