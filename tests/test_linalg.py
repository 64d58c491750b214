import ctypes
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toepspec as ts
from toepspec import linalg
from toepspec.cli import load_config
from toepspec.linalg import eigenvalues, smallest_singular_value
from oracles import as_section, charpoly_roots, match_distance, nonconstant_seed0_symbols, random_symbol, singular_values_jacobi
from test_acceptance import MIXED_SYMBOLS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(float).eps


def _symbols(real: bool, count: int) -> list:
    """The first ``count`` non-constant ``random_symbol`` draws from seed 11,
    with each coefficient's imaginary part dropped when ``real``."""
    rng, out = np.random.default_rng(11), []
    while len(out) < count:
        s = random_symbol(rng)
        if real:
            s = ts.HarmonicSymbol({j: v.real for j, v in s.coeffs.items()})
        if not s.is_constant:
            out.append(s)
    return out


REAL_SYMBOLS = [
    load_config(str(CONFIGS / "mixed.json")).symbol,
    load_config(str(CONFIGS / "ellipse.json")).symbol,
    *_symbols(True, 4),
]
COMPLEX_SYMBOLS = [ts.HarmonicSymbol({1: 0.5 + 0.5j, -1: 0.9}), *_symbols(False, 3)]


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestEigenvalues:
    def test_diagonal(self):
        d = np.diag([1.0, 2.0, 3.0 + 1j])
        got = eigenvalues(as_section(d))
        assert got.converged
        assert match_distance(got.values, [1, 2, 3 + 1j]) < 1e-13

    def test_jordan_block(self):
        a = np.diag(np.ones(5), 1) + 2.0 * np.eye(6)
        got = eigenvalues(as_section(a))
        # defective matrices still converge; roots scatter like eps^{1/6}
        assert match_distance(got.values, [2.0] * 6) < 1e-2

    def test_vs_charpoly_oracle(self):
        rng = np.random.default_rng(3)
        for n in (4, 7, 12):
            a = random_complex(rng, n)
            got = eigenvalues(as_section(a))
            assert got.converged
            assert match_distance(got.values, charpoly_roots(a)) < 1e-8

    def test_trace_and_det_identities(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 9)
        vals = eigenvalues(as_section(a)).values
        assert np.sum(vals) == pytest.approx(np.trace(a), abs=1e-10)
        assert np.prod(vals) == pytest.approx(np.linalg.det(a), rel=1e-8)

    def test_toeplitz_tridiagonal_closed_form(self):
        n, b1, bm1 = 30, 1.0, 0.25
        sec = ts.ht_section(ts.HarmonicSymbol({1: b1, -1: bm1}), n)
        k = np.arange(1, n + 1)
        want = 2 * np.sqrt(b1 * bm1) * np.cos(k * np.pi / (n + 1))
        got = eigenvalues(sec)
        assert got.converged
        assert match_distance(got.values, want) < 1e-8


class TestSmallestSingularValue:
    def test_vs_jacobi(self):
        rng = np.random.default_rng(8)
        for n in (5, 12, 25):
            a = random_complex(rng, n)
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            want = min(singular_values_jacobi(a - lam * np.eye(n)))
            got = smallest_singular_value(as_section(a), lam)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_ellipse_bt_section_vs_jacobi(self):
        # BT section of the ellipse config (f = z, g = 0.5 z) at N = 80 and a
        # node of an 8 x 6 grid over its region, where sigma_min ~ 1.2
        s = ts.from_parts([0, 1], [0, 0.5])
        sec = ts.bt_section(s, 80)
        lam = complex(10 / 7, -1.5)
        want = singular_values_jacobi(sec.entries - lam * np.eye(80))[-1]
        assert want == pytest.approx(1.2126, rel=1e-4)
        assert smallest_singular_value(sec, lam) == pytest.approx(want, rel=1e-10)

    def test_exact_eigenvalue_returns_zero(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert smallest_singular_value(as_section(a), 2.0) == 0.0

    def test_normal_matrix_distance(self):
        d = np.diag([0.0, 1.0, 5.0]).astype(complex)
        lam = 0.3 + 0.4j
        want = min(abs(lam - z) for z in (0, 1, 5))
        assert smallest_singular_value(as_section(d), lam) == pytest.approx(want, rel=1e-8)


class TestRealArithmetic:
    """A section stored in float64 (shifted by a real lam for sigma_min) runs the
    real LAPACK drivers, whose eigenvalues come in exact conjugate pairs."""

    @pytest.mark.parametrize("N", [50, 200])
    @pytest.mark.parametrize("s", REAL_SYMBOLS)
    def test_real_section_eigenvalues_are_conjugation_symmetric(self, s, N):
        ev = eigenvalues(ts.bt_section(s, N)).values
        assert np.array_equal(np.sort_complex(ev), np.sort_complex(ev.conj()))

    @pytest.mark.parametrize("build", [ts.bt_section, ts.ht_section])
    @pytest.mark.parametrize("s", REAL_SYMBOLS + COMPLEX_SYMBOLS)
    def test_eigensolve_input_is_filled_from_the_bands(self, s, build):
        """The LAPACK input holds the values of ``entries`` (their real parts for a
        real section), so the eigenvalues are the same bits; nothing is cached."""
        sec = build(s, 60)
        got = eigenvalues(sec).values
        assert set(vars(sec)) == {"order", "bands"}
        a = np.asarray(sec)
        real = s in REAL_SYMBOLS
        assert a.imag.any() != real
        assert got.tobytes() == np.linalg.eigvals(a.real if real else a).astype(complex).tobytes()
        if real:
            assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))

    @pytest.mark.parametrize("s", REAL_SYMBOLS + COMPLEX_SYMBOLS)
    def test_every_eigenvalue_is_backward_stable(self, s):
        sec = ts.bt_section(s, 50)
        floor = 64 * EPS * np.linalg.norm(sec.entries, 2)
        res = eigenvalues(sec)
        assert res.converged
        assert max(smallest_singular_value(sec, lam) for lam in res.values) <= floor

    def test_lapack_precision_follows_the_input(self, monkeypatch):
        seen = []
        eigvals, svd, routines = np.linalg.eigvals, np.linalg.svd, linalg._lapack()
        assert routines is not None, "no band routines found in numpy's LAPACK"

        def spy(name):
            return lambda *args: (seen.append(name), routines[name](*args))

        monkeypatch.setattr(np.linalg, "eigvals", lambda a: (seen.append(("eigvals", a.dtype)), eigvals(a))[1])
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: (seen.append(("svd", a.dtype)), svd(a, **kw))[1])
        monkeypatch.setattr(linalg, "_lapack", lambda: {name: spy(name) for name in routines})
        real = ts.bt_section(REAL_SYMBOLS[0], 20)
        cplx = ts.bt_section(COMPLEX_SYMBOLS[0], 20)
        eigenvalues(real)
        smallest_singular_value(real, 0.5)
        assert seen == [("eigvals", np.float64), "dgbbrd", "dstebz"]
        seen.clear()
        smallest_singular_value(real, 0.5 + 0.1j)
        eigenvalues(cplx)
        smallest_singular_value(cplx, 0.5)
        assert seen == ["zgbbrd", "dstebz", ("eigvals", np.complex128), "zgbbrd", "dstebz"]
        seen.clear()
        # an exact eigenvalue: the band path still, with no dense SVD
        exact = [(as_section(np.diag([1.0, 2.0, 3.0])), 2.0), (as_section(np.diag([1.0, 2.0 + 1j, 3.0])), 2.0 + 1j)]
        # A - lam I real only after the shift: b_0 = i at lam = i
        shifted = (ts.bt_section(ts.from_parts([1j, 1], [0, 0.5]), 20), 1j)
        for sec, lam in (*exact, shifted):
            smallest_singular_value(sec, lam)
        assert seen == ["dgbbrd", "dstebz", "zgbbrd", "dstebz", "dgbbrd", "dstebz"]
        seen.clear()
        # the routines not found: the dense fallback, in the same arithmetic
        monkeypatch.setattr(linalg, "_lapack", lambda: None)
        for sec, lam in (*exact, shifted):
            smallest_singular_value(sec, lam)
        assert seen == [("svd", np.float64), ("svd", np.complex128), ("svd", np.float64)]

    def test_precision_follows_the_stored_dtype(self, monkeypatch):
        # b_j with an imaginary part of +0.0 gets a float64 band; -0.0 keeps it complex
        for s in REAL_SYMBOLS[:2]:
            for build in (ts.bt_section, ts.ht_section):
                assert {band.dtype for band in build(s, 30).bands.values()} == {np.dtype(float)}
        assert ts.ht_section(ts.HarmonicSymbol({1: complex(0.5, -0.0)}), 30).bands[1].dtype == complex
        seen, eigvals, routines = [], np.linalg.eigvals, linalg._lapack()
        assert routines is not None, "no band routines found in numpy's LAPACK"

        def spy(name):
            return lambda *args: (seen.append(name), routines[name](*args))

        monkeypatch.setattr(np.linalg, "eigvals", lambda a: (seen.append(("eigvals", a.dtype)), eigvals(a))[1])
        monkeypatch.setattr(linalg, "_lapack", lambda: {name: spy(name) for name in routines})
        # a hand-built section with complex bands and no nonzero imaginary part: the complex routines
        hand = ts.FiniteSection(order=20, bands={0: np.full(20, 2 + 0j), 1: np.full(19, 1 + 0j)})
        want = np.linalg.svd(np.asarray(hand) - 0.5 * np.eye(20), compute_uv=False)[-1]
        assert smallest_singular_value(hand, 0.5) == pytest.approx(want, rel=1e-12)
        eigenvalues(hand)
        # b_0 = i at lam = i: A - lam I is real only after the shift
        smallest_singular_value(ts.bt_section(ts.HarmonicSymbol({0: 1j, 1: 1, -1: 0.5}), 20), 1j)
        assert seen == ["zgbbrd", "dstebz", ("eigvals", np.complex128), "dgbbrd", "dstebz"]

    @pytest.mark.parametrize("s", REAL_SYMBOLS)
    def test_real_shift_agrees_with_the_complex_path(self, s):
        N = 200
        sec = ts.bt_section(s, N)
        a = sec.entries
        floor = N * EPS * np.linalg.norm(a, 2)
        real_eigs = [z.real for z in eigenvalues(sec).values if z.imag == 0]
        for lam in [*np.linspace(-2, 2, 9), *real_eigs[:3]]:
            got = smallest_singular_value(sec, lam)
            want = np.linalg.svd(a - complex(lam) * np.eye(N), compute_uv=False)[-1]
            assert got == pytest.approx(want, rel=1e-12) or max(got, want) <= floor


GATE_SYMBOLS = [
    load_config(str(CONFIGS / "ellipse.json")).symbol,
    *(ts.HarmonicSymbol(c) for c in MIXED_SYMBOLS),
    *nonconstant_seed0_symbols(20),
]


def _nodes(s, sec) -> list:
    """A 5 x 4 grid over +-1.2 w, w the Wiener norm, and four eigenvalues of ``sec``,
    where sigma_min falls below the backward-error floor eps ||A - lam I||_2."""
    w = s.wiener_norm()
    grid = [complex(x, y) for x in np.linspace(-1.2 * w, 1.2 * w, 5) for y in np.linspace(-1.2 * w, 1.2 * w, 4)]
    ev = eigenvalues(sec).values
    return grid + list(ev[np.linspace(0, len(ev) - 1, 4).astype(int)])


class TestBandPath:
    """sigma_min from xGBBRD + DSTEBZ on the band, and from dense gesdd only
    where those routines are not found."""

    @pytest.mark.parametrize("s", GATE_SYMBOLS, ids=range(len(GATE_SYMBOLS)))
    def test_agrees_with_gesdd(self, s):
        for N in (50, 200):
            for sec in (ts.bt_section(s, N), ts.ht_section(s, N)):
                for lam in _nodes(s, sec):
                    sv = np.linalg.svd(sec.entries - lam * np.eye(N), compute_uv=False)
                    got = smallest_singular_value(sec, lam)
                    assert abs(got - sv[-1]) <= 1e-8 * sv[-1] + 4 * EPS * sv[0], (N, lam)

    def test_ellipse_grid_at_order_800(self):
        # four nodes of the ellipse config's own 32 x 24 grid, sigma_min from
        # about 1 outside the curve down to 2e-6 inside it
        cfg = load_config(str(CONFIGS / "ellipse.json"))
        N, r = max(cfg.report.ladder), cfg.region
        sec = ts.bt_section(cfg.symbol, N)
        xs, ys = np.linspace(r.re_min, r.re_max, cfg.nx), np.linspace(r.im_min, r.im_max, cfg.ny)
        for i, j in [(0, 0), (6, 7), (11, 8), (7, 9)]:
            lam = complex(xs[i], ys[j])
            sv = np.linalg.svd(sec.entries - lam * np.eye(N), compute_uv=False)
            got = smallest_singular_value(sec, lam)
            assert abs(got - sv[-1]) <= 1e-8 * sv[-1] + 4 * EPS * sv[0], (i, j)

    @pytest.fixture
    def band_calls(self, monkeypatch) -> list:
        """The band routines found, np.linalg.svd failing if called; the list
        collects one entry per DSTEBZ call."""
        routines, calls = linalg._lapack(), []
        assert routines is not None, "no band routines found in numpy's LAPACK"

        def svd(*args, **kwargs):
            raise AssertionError("dense SVD called")

        def dstebz(*args):
            calls.append(args)
            routines["dstebz"](*args)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(linalg, "_lapack", lambda: {**routines, "dstebz": dstebz})
        return calls

    def test_fit_never_calls_dense_svd(self, band_calls):
        s = ts.HarmonicSymbol({2: 1, -1: 0.8})
        curve = ts.sample_curve(s)
        w = s.wiener_norm()
        pts = ts.points_at_distance(curve, np.linspace(0.05 * w, 0.5 * w, 16))
        ts.resolvent_growth_fit(s, pts, 200, curve=curve)
        assert len(band_calls) == 16

    @pytest.mark.parametrize("s", GATE_SYMBOLS, ids=range(len(GATE_SYMBOLS)))
    def test_eigenvalue_nodes_never_call_dense_svd(self, band_calls, s):
        # the four eigenvalue nodes of _nodes, where sigma_min is below the
        # rounding floor, stay on the band path
        for N in (50, 200):
            for sec in (ts.bt_section(s, N), ts.ht_section(s, N)):
                for lam in _nodes(s, sec)[-4:]:
                    smallest_singular_value(sec, lam)
        assert len(band_calls) == 16

    @pytest.mark.parametrize("s", GATE_SYMBOLS[1:3], ids=["real", "complex"])
    def test_dense_value_bit_for_bit(self, monkeypatch, s):
        # the routines not found: every node is the dense fallback's gesdd value,
        # in real arithmetic where A - lam I is real, and nothing is cached
        sec = ts.bt_section(s, 50)
        monkeypatch.setattr(linalg, "_lapack", lambda: None)
        nodes = _nodes(s, sec)
        got = [smallest_singular_value(sec, lam) for lam in nodes]
        for lam, value in zip(nodes, got):
            b = np.asarray(sec) - lam * np.eye(50)
            sv = np.linalg.svd(b if b.imag.any() else b.real, compute_uv=False)
            assert value == sv[-1]
        assert set(vars(sec)) == {"order", "bands"}

    @pytest.mark.parametrize("z", [2.5, 2.6, 2.5 + 0.3j, 2.5 + 4.06e-7])
    def test_symbol_free_section(self, z):
        # the Hardy tridiagonal with beta = 2 at (0, 0), exact eigenvalue
        # beta + 1 / beta = 2.5: no HT or BT section, only bands; 2.5 + 4.06e-7,
        # just off it, is checked against gesdd only
        sigma = []
        for N in (10, 20, 40):
            d = np.zeros(N)
            d[0] = 2.0
            sec = ts.FiniteSection(order=N, bands={0: d, 1: np.ones(N - 1), -1: np.ones(N - 1)})
            sv = np.linalg.svd(sec.entries - z * np.eye(N), compute_uv=False)
            sigma.append(smallest_singular_value(sec, z))
            assert abs(sigma[-1] - sv[-1]) <= 1e-8 * sv[-1] + 4 * EPS * sv[0], N
        if z == 2.5:
            assert sigma[0] == pytest.approx(1.07e-6, rel=1e-2) and sigma[1] < 2e-12 and sigma[2] < 4 * EPS * sv[0]
        elif z in (2.6, 2.5 + 0.3j):
            assert sigma == pytest.approx([0.1 if z == 2.6 else 0.3] * 3, rel=2e-5)

    def test_smallest_orders_and_no_state(self):
        # N = 1, 2, 3 put the workspace regions at their closest and leave AB with
        # fewer bands than the symbol has; b_0 = i at lam = i is real only after the
        # shift.  Run forward, then reversed: no call may read what another left.
        symbols = [REAL_SYMBOLS[0], COMPLEX_SYMBOLS[0], ts.HarmonicSymbol({}), ts.from_parts([1j, 1], [0, 0.5])]
        calls = [
            (build(s, N), lam)
            for s in symbols
            for N in (1, 2, 3)
            for build in (ts.bt_section, ts.ht_section)
            for lam in (0.5, 0.3 - 0.7j, 1j)
        ]
        forward = np.array([smallest_singular_value(sec, lam) for sec, lam in calls])
        backward = np.array([smallest_singular_value(sec, lam) for sec, lam in reversed(calls)])
        assert forward.tobytes() == backward[::-1].tobytes()
        for (sec, lam), got in zip(calls, forward):
            sv = np.linalg.svd(sec.entries - lam * np.eye(sec.order), compute_uv=False)
            assert abs(got - sv[-1]) <= 1e-8 * sv[-1] + 4 * EPS * sv[0], (sec.order, sec.bands, lam)

    @pytest.mark.parametrize("lam", [0, 0.5, -2, 1 + 1j, 3e-5j, 5e-161, 1e-200j, 1e155, -1e300, 1.7e308 + 1.7e308j])
    def test_zero_symbol(self, lam):
        # no bands: A - lam I = -lam I, at every magnitude: unscaled, the
        # bisection gave 0 at 5e-161 and 1e-200j and failed at 1e155 and -1e300;
        # |lam| beyond the doubles gives inf, with no overflow warning
        sec = ts.bt_section(ts.HarmonicSymbol({}), 5)
        assert sec.bands == {}
        want = math.hypot(lam.real, lam.imag)
        assert smallest_singular_value(sec, lam) == pytest.approx(want, rel=4 * EPS, abs=0)

    @pytest.mark.parametrize("c", [1.0, 2.0 ** 500], ids=["1", "2^500"])
    def test_zero_sigma_is_not_negative(self, c):
        # 0 is an eigenvalue of the mixed symbol's BT sections; bisection may
        # land below it by ABSTOL, which the scaling back by 2^p would magnify
        sec = ts.bt_section(ts.HarmonicSymbol({2: c, -1: 0.8 * c}), 40)
        assert 0.0 <= smallest_singular_value(sec, 0) <= 4 * EPS * np.linalg.norm(sec.entries, 2)

    def test_resolves_the_band_routines(self):
        routines = linalg._lapack()
        assert routines is not None, "no band routines found in numpy's LAPACK"
        assert set(routines) == {"dgbbrd", "zgbbrd", "dstebz"}

    def test_no_eigenvalue_found_raises(self, monkeypatch):
        routines = linalg._lapack()
        assert routines is not None, "no band routines found in numpy's LAPACK"

        @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 18, ctypes.c_size_t, ctypes.c_size_t)
        def dstebz(*args):
            routines["dstebz"](*args)
            ctypes.c_int64.from_address(args[10]).value = 0  # M: no eigenvalue in IL..IU

        monkeypatch.setattr(linalg, "_lapack", lambda: {**routines, "dstebz": dstebz})
        sec = ts.bt_section(GATE_SYMBOLS[0], 20)
        with pytest.raises(np.linalg.LinAlgError, match=r"band SVD failed \(0 eigenvalues found, not 1\)"):
            smallest_singular_value(sec, 0.3 + 0.2j)

    def test_nonzero_info_raises(self, svd_fails):
        sec = ts.bt_section(GATE_SYMBOLS[0], 20)
        with pytest.raises(np.linalg.LinAlgError, match=r"band SVD failed \(INFO = 1\)"):
            smallest_singular_value(sec, 0.3 + 0.2j)

    @pytest.mark.parametrize("name, lam", [("dgbbrd", 0.3), ("zgbbrd", 0.3 + 0.2j)])
    def test_nonzero_gbbrd_info_raises(self, band_routine_fails, name, lam):
        # the ellipse section is real: a real lam runs dgbbrd, a complex one zgbbrd
        band_routine_fails(name)
        sec = ts.bt_section(GATE_SYMBOLS[0], 20)
        with pytest.raises(np.linalg.LinAlgError, match=r"band SVD failed \(INFO = 1\)"):
            smallest_singular_value(sec, lam)

    @pytest.mark.parametrize("path", ["band", "dense"])
    @pytest.mark.parametrize("lam", [complex("nan"), complex("nanj"), complex("inf"), complex("1+infj")], ids=str)
    def test_nonfinite_lam_rejected(self, monkeypatch, capfd, path, lam):
        # unchecked, each reached LAPACK: INFO = 4 on the band path; on the
        # dense one a LinAlgError at nan, and at 1+infj nan with two LAPACK
        # lines on stderr
        if path == "dense":
            monkeypatch.setattr(linalg, "_lapack", lambda: None)
        sec = ts.bt_section(GATE_SYMBOLS[0], 20)
        with pytest.raises(ValueError, match="lam must be finite"):
            smallest_singular_value(sec, lam)
        assert capfd.readouterr().err == ""


class TestJacobiSVD:
    def test_vs_numpy(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 14)
        got = np.sort(singular_values_jacobi(a))
        want = np.sort(np.linalg.svd(a, compute_uv=False))
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 8)
        q, _ = np.linalg.qr(random_complex(rng, 8))
        got = np.sort(singular_values_jacobi(q @ a))
        want = np.sort(singular_values_jacobi(a))
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


class TestRandomizedInvariants:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 16))
    @settings(max_examples=20, deadline=None)
    def test_eigensum_is_trace(self, seed, n):
        a = random_complex(np.random.default_rng(seed), n)
        res = eigenvalues(as_section(a))
        assert res.converged
        scale = max(np.linalg.norm(a), 1.0)
        assert abs(np.sum(res.values) - np.trace(a)) < 1e-9 * n * scale

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sigma_min_lower_bounds_eig_distance(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 10)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        sec = as_section(a)
        sigma = smallest_singular_value(sec, lam)
        gap = min(abs(lam - z) for z in eigenvalues(sec).values)
        assert sigma <= gap + 1e-7 * max(np.linalg.norm(a), 1.0)
