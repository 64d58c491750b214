import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toepspec import cli


@pytest.fixture(scope="session")
def session_dir(tmp_path_factory):
    """A temporary directory for hypothesis tests, which reject ``tmp_path``."""
    return tmp_path_factory.mktemp("session")


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

# Integers above their bounds, as (document, field, limit): 2^15 for ladder
# rungs, section orders and grid sides, 2^20 for curve samples.
TOO_LARGE = [
    ({"symbol": {"f": []}, "ladder": [1, 2, 2**15 + 1]}, "ladder", 2**15),
    ({"symbol": {"f": []}, "ladder": [1, 2, 10**30]}, "ladder", 2**15),
    ({"symbol": {"f": []}, "section_order": 2**15 + 1}, "section_order", 2**15),
    ({"symbol": {"f": []}, "grid": {"nx": 2**15 + 1, "ny": 2}}, "grid.nx", 2**15),
    ({"symbol": {"f": []}, "grid": {"nx": 2, "ny": 10**30}}, "grid.ny", 2**15),
    ({"symbol": {"f": []}, "curve_samples": 2**20 + 1}, "curve_samples", 2**20),
    ({"symbol": {"f": []}, "curve_samples": 10**30}, "curve_samples", 2**20),
]

# ||phi'||_2^2 = 2.5e7: the default series_tol 1e-8 is below the floor
# 4 eps 2.5e7 = 2.22e-8, which only matters where the series is summed.
DEFAULT_BELOW_FLOOR = {
    "symbol": {"f": [[0, 0], [5000, 0]]},
    "ladder": [20, 40, 60],
    "region": {"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1},
    "grid": {"nx": 2, "ny": 2},
    "section_order": 8,
}

# Finite bounds whose width overflows a double.
OVERFLOW_REGION = {
    "symbol": {"f": [[0, 0], [1, 0]]},
    "region": {"re_min": -1e308, "re_max": 1e308, "im_min": -1, "im_max": 1},
}

# Finite parts whose modulus |b_1| overflows, and finite f_0, g_0 whose sum
# b_0 = f_0 + conj(g_0) does.
HUGE_MODULUS = {"symbol": {"f": [[0, 0], [1.7e308, 1.7e308]]}}
HUGE_CONSTANT = {"symbol": {"f": [[1e308, 0]], "g": [[1e308, 0]]}}

# Every field set, each to a value the parser accepts.
VALID = dict(
    BASE,
    region={"re_min": -2, "re_max": 2, "im_min": -1, "im_max": 1},
    grid={"nx": 4, "ny": 3},
    epsilon=0.5,
    tolerances={"delta_curve": 0.05, "drift_tol": 1e-3, "cert_tol": 1e-5, "series_tol": 1e-7},
    curve_samples=128,
    section_kind="ht",
    section_order=30,
    output_dir="out",
)

# Any JSON value: null, booleans, integers beyond the double range, any float
# (NaN, +-inf, +-1e308 included), short text, and nested lists and objects
# whose keys are often the config's own.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.sampled_from([1e308, -1e308])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["f", "g", "re_min", "re_max", "im_min", "im_max", "nx", "ny", "series_tol"])
        | st.text(max_size=4),
        inner,
        max_size=5,
    ),
    max_leaves=12,
)


class TestConfigParsing:
    def test_minimal(self):
        cfg = cli.parse_config({"symbol": {"f": [[0, 0], [1, 0]]}})
        assert cfg.symbol.coeffs == {1: 1}
        assert cfg.report.ladder == (200, 400, 800)

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
        assert cfg.report.detect.cert_tol == 1e-5 and cfg.report.series_tol == 1e-7
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
            OVERFLOW_REGION,
            HUGE_MODULUS,
            HUGE_CONSTANT,
            *(doc for doc, _, _ in TOO_LARGE),
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(doc)

    @pytest.mark.parametrize("doc,name,limit", TOO_LARGE)
    def test_too_large_names_field_and_limit(self, doc, name, limit):
        with pytest.raises(cli.ConfigError, match=f"'{name}' must be .*<= {limit}$"):
            cli.parse_config(doc)

    def test_accepts_integers_at_their_bounds(self):
        doc = {
            "symbol": {"f": []},
            "ladder": [1, 2, 2**15],
            "grid": {"nx": 2**15, "ny": 2**15},
            "section_order": 2**15,
            "curve_samples": 2**20,
        }
        cfg = cli.parse_config(doc)
        assert cfg.report.ladder[-1] == cfg.nx == cfg.ny == cfg.section_order == 2**15
        assert cfg.report.detect.curve_samples == 2**20

    @given(key=st.sampled_from(sorted(VALID)), value=JSON_VALUES)
    @example(key="region", value=OVERFLOW_REGION["region"])
    @example(key="symbol", value=HUGE_MODULUS["symbol"])
    @example(key="symbol", value=HUGE_CONSTANT["symbol"])
    @settings(max_examples=300, deadline=None)
    def test_one_field_replaced_parses_or_raises_config_error(self, key, value):
        try:
            cfg = cli.parse_config(dict(VALID, **{key: value}))
        except cli.ConfigError:
            return
        assert isinstance(cfg, cli.RunConfig)
        if cfg.region is not None:
            r = cfg.region
            assert math.isfinite(r.re_max - r.re_min) and math.isfinite(r.im_max - r.im_min)


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

    @pytest.mark.parametrize("command", ["curve", "spectrum", "pseudospectrum"])
    def test_default_series_tol_below_floor_runs_without_series(self, tmp_path, command):
        path = write_config(tmp_path, dict(DEFAULT_BELOW_FLOOR, output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["hs-check", "report"])
    def test_default_series_tol_below_floor_stops_series(self, tmp_path, capsys, command):
        path = write_config(tmp_path, dict(DEFAULT_BELOW_FLOOR, output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_USAGE
        assert "'tolerances.series_tol' must be >= 2.22e-08" in capsys.readouterr().err

    def test_huge_curve_samples(self, tmp_path, capsys):
        doc = dict(BASE, curve_samples=10**30, output_dir=str(tmp_path))
        assert cli.main(["curve", "--config", write_config(tmp_path, doc)]) == cli.EXIT_USAGE
        assert f"'curve_samples' must be an integer >= 64 and <= {2**20}" in capsys.readouterr().err

    # hs-check is O(N) in every config it accepts, so any replaced field is safe to run.
    @given(key=st.sampled_from(sorted(VALID)), value=JSON_VALUES)
    @example(key="ladder", value=[1, 2, 10**30])
    @settings(max_examples=200, deadline=None)
    def test_hs_check_one_field_replaced_exits_documented_code(self, session_dir, key, value):
        path = session_dir / "config.json"
        path.write_text(json.dumps(dict(VALID, **{key: value})))
        code = cli.main(["hs-check", "--config", str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_BOUND_VIOLATION, cli.EXIT_USAGE)

    @pytest.mark.parametrize("command", ["hs-check", "spectrum", "pseudospectrum", "report", "curve"])
    def test_subcommand_help(self, capsys, command):
        assert cli.main([command, "--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: toepspec {command} [-h] --config CONFIG")

    @pytest.mark.parametrize("command", ["hs-check", "spectrum", "report", "curve"])
    def test_svd_check_only_on_pseudospectrum(self, tmp_path, command):
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40, 60], output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path, "--svd-check"]) == cli.EXIT_USAGE

    def test_svd_failure(self, tmp_path, capsys, svd_fails):
        doc = dict(
            BASE,
            region={"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1},
            grid={"nx": 2, "ny": 2},
            section_order=8,
            output_dir=str(tmp_path),
        )
        code = cli.main(["pseudospectrum", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1

    def test_svd_failure_in_resolvent_fit(self, tmp_path, capsys, svd_fails):
        # no candidate at this ladder, so the resolvent fit makes the first SVD call
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40, 60], output_dir=str(tmp_path)))
        assert cli.main(["report", "--config", path]) == cli.EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_region(self, tmp_path, capsys):
        doc = dict(OVERFLOW_REGION, grid={"nx": 2, "ny": 2}, section_order=8, output_dir=str(tmp_path))
        assert cli.main(["pseudospectrum", "--config", write_config(tmp_path, doc)]) == cli.EXIT_USAGE
        assert "field 'region'" in capsys.readouterr().err

    def test_report_needs_three_rungs(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40], output_dir=str(tmp_path)))
        assert cli.main(["report", "--config", path]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["spectrum", "report"])
    def test_eigensolver_failure(self, tmp_path, eigvals_fails_at, command):
        eigvals_fails_at(40)
        path = write_config(tmp_path, dict(BASE, ladder=[20, 40, 60], output_dir=str(tmp_path)))
        assert cli.main([command, "--config", path]) == cli.EXIT_NO_CONVERGENCE
        if command == "spectrum":  # the failed rung has no eigenvalues to write
            assert [(tmp_path / f"eigenvalues_{n}.csv").exists() for n in (20, 40, 60)] == [True, False, True]

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

    def test_rows_run_over_re_within_im(self, tmp_path):
        doc = dict(BASE)
        doc.update(
            region={"re_min": -2, "re_max": 2, "im_min": -1, "im_max": 1},
            grid={"nx": 3, "ny": 2},
            section_order=10,
            output_dir=str(tmp_path),
        )
        assert cli.main(["pseudospectrum", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        rows = [line.split(",")[:2] for line in (tmp_path / "pseudospectrum.csv").read_text().splitlines()[1:]]
        assert rows == [[re, im] for im in ("-1", "1") for re in ("-2", "0", "2")]

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
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("svd check: max |band - dense| = ")
        assert float(last.rsplit("=", 1)[1]) < 1e-12

    @pytest.mark.parametrize("low", [1.6e308, 0.0], ids=["every-node", "after-a-match"])
    def test_svd_check_nan_when_not_comparable(self, tmp_path, capsys, low):
        # sigma_min = |lam| ~ 2.3e308 is inf on the band path and NaN from the
        # dense SVD: the check prints nan, not 0, and warns nothing, also when
        # the first picked node, lam = 0, matches
        doc = dict(BASE)
        doc.update(
            symbol={"f": [[0, 0]], "g": []},
            region={"re_min": low, "re_max": 1.7e308, "im_min": low, "im_max": 1.7e308},
            grid={"nx": 2, "ny": 2},
            section_order=5,
            output_dir=str(tmp_path),
        )
        path = write_config(tmp_path, doc)
        code = cli.main(["pseudospectrum", "--config", path, "--svd-check"])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "svd check: max |band - dense| = nan"


class TestSectionBuilders:
    @pytest.mark.parametrize("kind", ["bt", "ht"])
    @pytest.mark.parametrize("command", ["spectrum", "pseudospectrum"])
    def test_public_builder_called_by_name(self, tmp_path, monkeypatch, command, kind):
        # the builders are looked up on the module at call time, so a wrapper
        # bound over them (as bench/tracing.py binds its spans) sees each call
        calls = []

        def spy(name):
            build = getattr(cli, name)

            def wrapped(s, n):
                calls.append((name, n))
                return build(s, n)

            return wrapped

        for name in ("bt_section", "ht_section"):
            monkeypatch.setattr(cli, name, spy(name))
        doc = dict(
            BASE,
            ladder=[8, 12, 16],
            region={"re_min": -2, "re_max": 2, "im_min": -1, "im_max": 1},
            grid={"nx": 2, "ny": 2},
            section_kind=kind,
            output_dir=str(tmp_path),
        )
        assert cli.main([command, "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        orders = [8, 12, 16] if command == "spectrum" else [16]
        assert calls == [(f"{kind}_section", n) for n in orders]


# The zero symbol and the constant 1: each curve is a single point.
DEGENERATE = [{"f": [], "g": []}, {"f": [[1, 0]], "g": []}]


class TestDegenerateSymbols:
    @pytest.mark.parametrize("symbol", DEGENERATE, ids=["zero", "one"])
    def test_report(self, tmp_path, capsys, symbol):
        doc = {"symbol": symbol, "ladder": [16, 24, 32], "output_dir": str(tmp_path)}
        assert cli.main(["report", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["p_hat"] is payload["c_hat"] is payload["curve_diagnostics"] is None
        assert payload["weyl_fraction"] == 1.0
        assert payload["candidates"] == payload["uncertified_candidates"] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("symbol", DEGENERATE, ids=["zero", "one"])
    def test_curve(self, tmp_path, capsys, symbol):
        doc = {"symbol": symbol, "ladder": [16, 24, 32], "output_dir": str(tmp_path)}
        assert cli.main(["curve", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "curve is degenerate (single point)"


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


class TestCachedParser:
    """One parser serves every ``main`` call in a process, as in a benchmark child."""

    def curve_config(self, tmp_path):
        return write_config(tmp_path, dict(BASE, curve_samples=128, output_dir=str(tmp_path)))

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_handler_bound_after_a_first_call_runs(self, tmp_path, monkeypatch):
        path = self.curve_config(tmp_path)
        assert cli.main(["curve", "--config", path]) == cli.EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_curve", lambda cfg, **kw: calls.append(kw) or cli.EXIT_BOUND_VIOLATION)
        assert cli.main(["curve", "--config", path]) == cli.EXIT_BOUND_VIOLATION
        assert calls == [{}]

    def test_switch_does_not_carry_over_to_the_next_call(self, tmp_path, monkeypatch):
        doc = dict(
            BASE,
            region={"re_min": -2, "re_max": 2, "im_min": -1, "im_max": 1},
            grid={"nx": 2, "ny": 2},
            section_order=8,
            output_dir=str(tmp_path),
        )
        assert cli.main(["pseudospectrum", "--config", write_config(tmp_path, doc), "--svd-check"]) == cli.EXIT_OK
        calls = []
        curve = cli.cmd_curve
        monkeypatch.setattr(cli, "cmd_curve", lambda cfg, **kw: calls.append(kw) or curve(cfg, **kw))
        assert cli.main(["curve", "--config", self.curve_config(tmp_path)]) == cli.EXIT_OK
        assert calls == [{}]

    def test_usage_error_then_valid_call(self, tmp_path):
        assert cli.main(["curve"]) == cli.EXIT_USAGE
        assert cli.main(["curve", "--config", self.curve_config(tmp_path)]) == cli.EXIT_OK


class TestCsv:
    VALUES = [0.0, -0.0, 5e-324, 1 / 3, 2.5e300, -2.5e300]
    B = cli.CSV_BLOCK_ROWS

    @pytest.mark.parametrize("x", VALUES)
    def test_percent_format_matches_fmt(self, x):
        assert "%.17g" % x == f"{x:.17g}" == cli._fmt(x)

    def test_write_csv_matches_field_by_field(self, tmp_path):
        columns = (self.VALUES, self.VALUES[::-1])
        cli._write_csv(tmp_path / "t.csv", "u,v", columns)
        rows = [f"{cli._fmt(u)},{cli._fmt(v)}" for u, v in zip(*columns)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(["u,v"] + rows) + "\n"

    def test_write_csv_with_no_rows_is_the_header(self, tmp_path):
        cli._write_csv(tmp_path / "sub" / "t.csv", "u,v", ([], []))
        assert (tmp_path / "sub" / "t.csv").read_bytes() == b"u,v\n"

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_blocks_match_row_by_row(self, tmp_path, rows):
        values = self.VALUES + [math.inf, -math.inf, math.nan]
        columns = [[values[(r + shift) % len(values)] for r in range(rows)] for shift in range(3)]
        cli._write_csv(tmp_path / "t.csv", "u,v,w", columns)
        lines = ["u,v,w"] + [",".join(cli._fmt(x) for x in row) for row in zip(*columns)]
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (0, 1)])
    def test_unequal_columns_rejected(self, tmp_path, lengths):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", "u,v", [[1.0] * n for n in lengths])


class TestReport:
    def test_eigenvalue_on_tilted_segment(self, tmp_path, capsys):
        # phi = 2 e^{0.7i} cos(theta), a tilted segment: an eigenvalue of the
        # sections lies within ON_CURVE_RTOL * scale of it but beyond delta_curve
        doc = {
            "symbol": {
                "f": [[0, 0], [0.7648421872844885, 0.644217687237691]],
                "g": [[0, 0], [0.7648421872844885, -0.644217687237691]],
            },
            "ladder": [50, 100, 200],
            "tolerances": {"delta_curve": 1e-300},
            "output_dir": str(tmp_path),
        }
        assert cli.main(["report", "--config", write_config(tmp_path, doc)]) == cli.EXIT_OK
        assert (tmp_path / "report.json").exists()
        assert capsys.readouterr().err == ""

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
