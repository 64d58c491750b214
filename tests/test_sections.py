import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toepspec as ts
from oracles import (
    brute_inner_series,
    dense_section,
    inner_tail_integral_decimal,
    long_k_series,
    nonconstant_seed0_symbols,
    random_symbol,
)
from toepspec.cli import load_config
from toepspec.sections import _bt_weights, _inner_tail_integral, series_tol_floor

PI_SQ_24 = math.pi ** 2 / 24

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_rng = np.random.default_rng(0)
BAND_SYMBOLS = [
    load_config(str(CONFIGS / "ellipse.json")).symbol,
    load_config(str(CONFIGS / "mixed.json")).symbol,
    # signed zeros in both parts; a product with a float turns imaginary -0.0 into +0.0
    ts.HarmonicSymbol({0: complex(-0.0, 1.0), 1: complex(0.5, -0.0), -2: complex(-0.0, 0.3)}),
    *(random_symbol(_rng) for _ in range(12)),
]
SECTION_BUILDERS = [("ht", ts.ht_section), ("bt", ts.bt_section)]


SERIES_CASES = [
    *((f"seed0-{k}", s, 1e-12) for k, s in enumerate(nonconstant_seed0_symbols(8))),
    ("ellipse", BAND_SYMBOLS[0], 1e-8),
    ("mixed", BAND_SYMBOLS[1], 1e-8),
]


class TestHTSection:
    def test_shift_matrix(self):
        a = ts.ht_section(ts.HarmonicSymbol({1: 1}), 4).entries
        expect = np.diag(np.ones(3), -1)
        assert np.array_equal(a, expect)

    def test_entry_placement(self):
        s = ts.HarmonicSymbol({0: 5, 2: 7, -1: 3j})
        a = ts.ht_section(s, 5).entries
        for i in range(5):
            for j in range(5):
                want = {0: 5, 2: 7, -1: 3j}.get(i - j, 0)
                assert a[i, j] == want

    def test_constant_diagonal(self):
        a = ts.ht_section(ts.HarmonicSymbol({0: 2 + 1j}), 6).entries
        assert np.array_equal(a, (2 + 1j) * np.eye(6))

    def test_kind_and_order(self):
        sec = ts.ht_section(ts.HarmonicSymbol({1: 1}), 8)
        assert sec.order == 8

    def test_bad_order(self):
        with pytest.raises(ValueError):
            ts.ht_section(ts.HarmonicSymbol({1: 1}), 0)


class TestBTSection:
    def test_weight_formula_entrywise(self):
        s = ts.HarmonicSymbol({1: 1, -2: 0.5j, 0: 0.1})
        a = ts.bt_section(s, 12).entries
        for i in range(12):
            for j in range(12):
                w = math.sqrt((min(i, j) + 1) / (max(i, j) + 1))
                b = s.coeffs.get(i - j, 0)
                assert a[i, j] == pytest.approx(w * b, abs=1e-15)

    def test_diagonal_unweighted(self):
        s = ts.HarmonicSymbol({0: 4 - 2j, 1: 1})
        a = ts.bt_section(s, 7).entries
        assert np.allclose(np.diag(a), 4 - 2j)

    def test_shift_weights(self):
        a = ts.bt_section(ts.HarmonicSymbol({1: 1}), 5).entries
        for i in range(1, 5):
            assert a[i, i - 1] == pytest.approx(math.sqrt(i / (i + 1)), abs=1e-15)


class TestSectionBands:
    @pytest.mark.parametrize("kind,build", SECTION_BUILDERS)
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 50, 200])
    def test_entries_bytes_match_dense_oracle(self, kind, build, N):
        for s in BAND_SYMBOLS:
            want = dense_section(s, N, kind)
            assert build(s, N).entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,build", SECTION_BUILDERS)
    def test_band_layout_and_read_only(self, kind, build):
        for s in BAND_SYMBOLS:
            for N in (1, 3, 50):
                sec = build(s, N)
                assert sec.order == N
                for j, band in sec.bands.items():
                    assert -s.m <= j <= s.n and -N < j < N
                    assert band.shape == (N - abs(j),)
                    assert not band.flags.writeable
                assert set(sec.bands) == {j for j in s.coeffs if abs(j) < N}
                assert sec.entries.flags.writeable and sec.entries is not sec.entries
                assert set(vars(sec)) == {"order", "bands"}

    @pytest.mark.parametrize("kind,build", SECTION_BUILDERS)
    def test_frobenius_norm_from_bands(self, kind, build):
        for s in BAND_SYMBOLS:
            for N in (1, 7, 200):
                sec = build(s, N)
                norm = sec.frobenius_norm()
                assert set(vars(sec)) == {"order", "bands"}
                want = np.linalg.norm(sec.entries)
                assert norm == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_nonfinite_band_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ts.FiniteSection(order=3, bands={0: np.array([1.0, bad, 1.0]), 1: np.ones(2)})
        with pytest.raises(ValueError, match="finite"):
            ts.ht_section(ts.HarmonicSymbol({1: 1, -1: bad}), 4)

    def test_band_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="band -1 needs 3"):
            ts.FiniteSection(order=4, bands={-1: np.ones(4)})

    @pytest.mark.parametrize("read", [lambda sec: sec.entries, np.asarray, np.array], ids=["entries", "asarray", "array"])
    def test_array_is_entries(self, read):
        # every read fills a new writable complex matrix; writing to it leaves the bands alone
        sec = ts.bt_section(BAND_SYMBOLS[1], 9)
        bands = {j: band.copy() for j, band in sec.bands.items()}
        a = read(sec)
        assert a.dtype == complex and a.flags.writeable and a is not read(sec)
        assert np.array_equal(a, sec.entries) and np.array_equal(np.asarray(sec, dtype=complex), a)
        a[2, 0] = a[0, 1] = 7.0  # on bands 2 and -1
        assert sec.bands.keys() == bands.keys() and all(np.array_equal(sec.bands[j], b) for j, b in bands.items())
        assert read(sec)[2, 0] == sec.bands[2][0]
        assert set(vars(sec)) == {"order", "bands"}


class TestHSDifference:
    def test_truncated_shift_value(self):
        # single coefficient b_1 = 1: sum over the subdiagonal of (1 - w)^2
        s = ts.HarmonicSymbol({1: 1})
        got = ts.hs_difference_sq_truncated(s, 50)
        want = sum(
            (1 - math.sqrt(i / (i + 1))) ** 2 for i in range(1, 50)
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_truncated_equals_frobenius_gap(self):
        s = ts.HarmonicSymbol({2: 0.7, -1: 0.4j, 0: 1})
        n = 40
        gap = ts.ht_section(s, n).entries - ts.bt_section(s, n).entries
        assert ts.hs_difference_sq_truncated(s, n) == pytest.approx(
            np.linalg.norm(gap, "fro") ** 2, rel=1e-13
        )

    def test_truncated_equals_per_coefficient_sum_exactly(self):
        # b_j and b_-j share their weights at |j| = 1 and 3, summed once per |j|
        s = ts.HarmonicSymbol({-3: 0.2 - 0.1j, -1: 0.4j, 0: 1, 1: 0.9, 2: 0.3 + 0.3j, 3: -0.25})
        for n in (1, 2, 3, 4, 40):
            want = 0.0
            for j, v in s.coeffs.items():
                if 0 < abs(j) < n:
                    want += abs(v) * abs(v) * float(np.sum((1.0 - _bt_weights(n, abs(j))) ** 2))
            assert ts.hs_difference_sq_truncated(s, n) == want, n

    def test_series_vs_brute_force(self):
        s = ts.HarmonicSymbol({1: 1, -2: 0.5})
        res = ts.hs_difference_sq_series(s, tol=1e-10)
        brute = sum(
            abs(j * b) ** 2 * brute_inner_series(abs(j), 4_000_000)
            for j, b in s.coeffs.items()
        )
        assert abs(res.value - brute) <= 1e-6

    def test_series_dominates_truncation(self):
        s = ts.HarmonicSymbol({1: 0.9, -1: 0.4, 3: 0.2j})
        series = ts.hs_difference_sq_series(s, tol=1e-9).value
        prev = 0.0
        for n in (50, 200, 800):
            trunc = ts.hs_difference_sq_truncated(s, n)
            assert prev <= trunc <= series + 1e-9
            prev = trunc

    @pytest.mark.parametrize("X", [1e3, 1e5, 3e6])
    @pytest.mark.parametrize("L", [1, 2, 6])
    def test_tail_integral_vs_decimal(self, X, L):
        # K reaches ~3e6 at tol 1e-12; the closed form must not cancel there
        ref = inner_tail_integral_decimal(X, L)
        assert _inner_tail_integral(X, L) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name,s,tol", SERIES_CASES, ids=[c[0] for c in SERIES_CASES])
    def test_series_brackets_long_k_oracle(self, name, s, tol):
        res = ts.hs_difference_sq_series(s, tol)
        ref, ref_bound = long_k_series(s, tol)
        assert 0 <= res.tail_bound < tol
        # both intervals contain the true value, so they must overlap
        assert res.value <= ref + ref_bound and ref <= res.value + res.tail_bound

    @pytest.mark.parametrize(
        "s,tol",
        [(nonconstant_seed0_symbols(1)[0], 1e-12), (ts.from_parts([0, 1000], []), 1e-9)],
        ids=["curve-hs-first", "f=[0,1000]"],
    )
    def test_series_memory(self, s, tol):
        tracemalloc.start()
        try:
            res = ts.hs_difference_sq_series(s, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.tail_bound < tol
        assert peak < 8 * 2**20

    def test_series_tol_floor(self):
        s = ts.from_parts([0, 1000], [])
        floor = 4 * sys.float_info.epsilon * 1e6
        assert series_tol_floor(s) == floor
        for tol in (1e-12, 0.99 * floor, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="4 eps"):
                ts.hs_difference_sq_series(s, tol)
        assert ts.hs_difference_sq_series(s, floor).tail_bound < floor

    def test_series_zero_for_constant(self):
        res = ts.hs_difference_sq_series(ts.HarmonicSymbol({0: 3}), tol=1e-8)
        assert res.value == 0 and res.tail_bound == 0

    def test_tail_bound_honoured(self):
        s = ts.HarmonicSymbol({1: 1})
        res = ts.hs_difference_sq_series(s, tol=1e-9)
        assert 0 <= res.tail_bound <= 1e-9

    def test_bound_value(self):
        s = ts.HarmonicSymbol({1: 1, -2: 2})
        assert ts.hs_bound(s) == pytest.approx(PI_SQ_24 * 17, rel=1e-15)


class TestBoundInvariant:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_series_below_bound(self, seed):
        s = random_symbol(np.random.default_rng(seed))
        if s.is_constant:
            return
        res = ts.hs_difference_sq_series(s, tol=1e-9)
        assert res.value <= ts.hs_bound(s) + 1e-9

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_truncated_below_series(self, seed):
        s = random_symbol(np.random.default_rng(seed))
        res = ts.hs_difference_sq_series(s, tol=1e-9)
        assert ts.hs_difference_sq_truncated(s, 300) <= res.value + 1e-9
