import cmath
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toepspec as ts
from oracles import (
    min_self_distance,
    nonconstant_seed0_symbols,
    polygon_winding,
    random_symbol,
    rowwise_min_self_distance,
    scalar_sample_curve,
)
from toepspec.cli import load_config
from toepspec.symbols import _loop_windings, _segment_distances

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_rng = np.random.default_rng(0)
CURVE_SYMBOLS = [
    *nonconstant_seed0_symbols(8),
    load_config(str(CONFIGS / "ellipse.json")).symbol,
    load_config(str(CONFIGS / "mixed.json")).symbol,
    ts.HarmonicSymbol({1: 1, -1: 1}),
    ts.HarmonicSymbol({2: 1}),
    ts.HarmonicSymbol({0: 2 + 1j}),
    *(random_symbol(_rng) for _ in range(12)),
]


def complex_coeffs(max_deg=4):
    c = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return st.lists(c, min_size=0, max_size=max_deg + 1)


class TestFromParts:
    def test_single_analytic_term(self):
        s = ts.from_parts([0, 1], [])
        assert s[1] == 1 and s.coeffs == {1: 1}

    def test_conjugation_of_g(self):
        s = ts.from_parts([], [0, 1j])
        assert s[-1] == -1j

    def test_constant_merge(self):
        s = ts.from_parts([2], [3j])
        assert s[0] == 2 - 3j

    def test_empty_gives_zero_symbol(self):
        s = ts.from_parts([], [])
        assert s.is_zero and s.m == 0 and s.n == 0


class TestEvalBoundary:
    def test_zero_symbol(self):
        assert ts.HarmonicSymbol({}).eval_boundary(1.234) == 0


    def test_rotation(self):
        s = ts.HarmonicSymbol({1: 1})
        assert abs(s.eval_boundary(math.pi / 2) - 1j) < 1e-15

    def test_cosine_sum_at_zero(self):
        s = ts.HarmonicSymbol({1: 1, -1: 0.5})
        assert abs(s.eval_boundary(0.0) - 1.5) < 1e-15


class TestEvalDisk:
    def test_analytic_monomial(self):
        assert abs(ts.HarmonicSymbol({1: 1}).eval_disk(0.5) - 0.5) < 1e-15

    def test_conjugate_monomial(self):
        got = ts.HarmonicSymbol({-1: 1}).eval_disk(0.5j)
        assert abs(got - (-0.5j)) < 1e-15

    def test_center_returns_constant(self):
        s = ts.HarmonicSymbol({0: 2 + 1j, 1: 5, -3: 7})
        assert s.eval_disk(0) == 2 + 1j

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            ts.HarmonicSymbol({1: 1}).eval_disk(1.0)

    @pytest.mark.parametrize("z", [math.nan, complex(0, math.nan)])
    def test_nan_rejected(self, z):
        with pytest.raises(ValueError, match="requires"):
            ts.HarmonicSymbol({1: 1}).eval_disk(z)


class TestNorms:
    def test_derivative_norm_constant(self):
        assert ts.HarmonicSymbol({0: 3 + 1j}).derivative_norm_sq() == 0

    def test_derivative_norm_single(self):
        assert ts.HarmonicSymbol({1: 1}).derivative_norm_sq() == 1

    def test_derivative_norm_mixed(self):
        assert ts.HarmonicSymbol({-2: 1, 1: 3}).derivative_norm_sq() == 13

    def test_wiener_zero(self):
        assert ts.HarmonicSymbol({}).wiener_norm() == 0

    def test_wiener_two_terms(self):
        assert ts.HarmonicSymbol({1: 1, -1: 0.5}).wiener_norm() == 1.5

    def test_wiener_complex_constant(self):
        assert abs(ts.HarmonicSymbol({0: 1 + 1j}).wiener_norm() - math.sqrt(2)) < 1e-15


class TestSampleCurve:
    def test_circle_samples(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 64)
        # quarter-turn subset reproduces the 4-point circle 1, i, -1, -i
        for k, expect in ((0, 1), (16, 1j), (32, -1), (48, -1j)):
            assert abs(c.points[k] - expect) < 1e-14

    def test_ellipse_vertices(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 64)
        for k, expect in ((0, 1.5), (16, 0.5j), (32, -1.5), (48, -0.5j)):
            assert abs(c.points[k] - expect) < 1e-14

    def test_points_match_eval_boundary_exactly(self):
        s = ts.HarmonicSymbol({2: 0.3 + 1j, -1: 0.7})
        c = ts.sample_curve(s, 128)
        for k in (0, 1, 17, 127):
            assert c.points[k] == s.eval_boundary(2 * math.pi * k / 128)

    def test_points_and_tangents_match_scalar_evaluators_exactly(self):
        # one pass gives points and tangents; each still rounds as its own evaluator
        s = ts.HarmonicSymbol({-2: 0.4 - 0.2j, -1: 0.7 + 0.3j, 0: 0.1j, 1: -0.5 + 0.6j, 2: 0.3 + 1j})
        c = ts.sample_curve(s, 128)
        for k in range(128):
            theta = 2 * math.pi * k / 128
            assert c.points[k] == s.eval_boundary(theta)
            assert c.tangents[k] == s.boundary_tangent(theta)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            ts.sample_curve(ts.HarmonicSymbol({1: 1}), 32)
        with pytest.raises(ValueError):
            ts.sample_curve(ts.HarmonicSymbol({5: 1}), 64)  # needs 16*(5+1)


class TestArrayEvaluation:
    @pytest.mark.parametrize("M", [64, 512, 2048])
    def test_sample_curve_matches_scalar_oracle(self, M):
        # not bitwise: np.cos and np.sin need not round as libm does
        eps = np.finfo(float).eps
        cases = 0
        for s in CURVE_SYMBOLS:
            if M < max(64, 16 * (s.m + s.n + 1)):
                continue
            c = ts.sample_curve(s, M)
            points, tangents = scalar_sample_curve(s, M)
            point_tol = 4 * eps * sum(abs(v) for v in s.coeffs.values())
            tangent_tol = 4 * eps * sum(abs(1j * j * v) for j, v in s.coeffs.items())
            assert np.all(np.abs(c.points - points) <= point_tol), (s.coeffs, M)
            assert np.all(np.abs(c.tangents - tangents) <= tangent_tol), (s.coeffs, M)
            cases += 1
        assert cases >= 5  # M = 64 admits only symbols with m + n <= 3

    def test_array_forms_equal_scalar_forms(self):
        thetas = np.concatenate([np.linspace(0, 2 * math.pi, 33), np.random.default_rng(3).uniform(-20, 20, 32)])
        for s in CURVE_SYMBOLS:
            for fn in (s.eval_boundary, s.boundary_tangent):
                got = fn(thetas)
                assert isinstance(got, np.ndarray) and got.shape == thetas.shape
                one_by_one = [fn(t) for t in thetas.tolist()]
                assert all(type(v) is complex for v in one_by_one)
                assert got.tolist() == one_by_one, s.coeffs

    def test_nonfinite_angle_in_array_rejected(self):
        s = ts.HarmonicSymbol({1: 1, -1: 0.5})
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                s.eval_boundary(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("theta", [math.nan, np.array([0.0, math.inf])], ids=["nan", "array-inf"])
    def test_nonfinite_tangent_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            ts.HarmonicSymbol({1: 1, -1: 0.5}).boundary_tangent(theta)


class TestWindingNumber:
    def test_ellipse_center(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 256)
        assert ts.winding_number(c, 0) == 1

    def test_outside_wiener_radius(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 256)
        assert ts.winding_number(c, 2 + 2j) == 0

    def test_doubly_traversed_circle(self, monkeypatch):
        c = ts.sample_curve(ts.HarmonicSymbol({2: 1}), 256)
        # at 100 pairs per block, each point meets the 256 segments in 3 chunks
        for budget in (ts.symbols.PAIR_BUDGET, 100):
            monkeypatch.setattr(ts.symbols, "PAIR_BUDGET", budget)
            assert ts.winding_number(c, 0) == 2 and ts.winding_number(c, 0.3 - 0.2j) == 2
            assert ts.winding_number(c, 3) == 0 and ts.winding_number(c, -1.5j) == 0

    def test_on_curve_rejected(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1}), 256)
        with pytest.raises(ts.OnCurveError):
            ts.winding_number(c, c.points[3])


class TestCurveQueries:
    """Distance and the ray exits of points_at_distance run through
    ``symbols._by_blocks``, and every winding through ``symbols._loop_windings``,
    in blocks of at most PAIR_BUDGET pairs."""

    QUERIES = {
        "distance_to": lambda c, z: c.distance_to(z),
        "dist_to_spectrum": lambda c, z: ts.dist_to_spectrum(z, c),
        "winding_number": lambda c, z: ts.winding_number(c, z),
        "classify": lambda c, z: ts.classify(z, c, 0.1),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)])
    @pytest.mark.parametrize("query", QUERIES)
    def test_nonfinite_point_rejected(self, query, bad):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 256)
        with pytest.raises(ValueError, match="points must be finite"):
            self.QUERIES[query](c, bad)

    def test_nonfinite_point_in_array_rejected(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 256)
        with pytest.raises(ValueError, match="points must be finite"):
            ts.dist_to_spectrum(np.array([0, 3, math.nan]), c)

    @pytest.mark.parametrize("M, budget", [(512, None), (2**15, None), (256, 100), (256, 1000)])
    def test_every_block_within_the_budget(self, M, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(ts.symbols, "PAIR_BUDGET", budget)
        budget = ts.symbols.PAIR_BUDGET
        by_blocks = ts.symbols._by_blocks
        calls = []

        def recording(fn, lam, n_segments, ufunc):
            pairs = []
            calls.append((fn.__qualname__.split(".<locals>")[0], np.size(lam), n_segments, ufunc, pairs))

            def fn_recorded(z, k):
                pairs.append(len(z) * len(range(n_segments)[k]))
                return fn(z, k)

            return by_blocks(fn_recorded, lam, n_segments, ufunc)

        turns, seen = ts.symbols._turns, {}

        def turns_recorded(z, a, b):
            # a chunk of segments, here the 0 contacts of a Jordan curve aside: j is its first
            if len(a):
                j = int(np.flatnonzero(c.points == a[0])[0])
                assert a.size * len(z) <= budget
                for p in z[:, 0].tolist():
                    seen.setdefault(p, np.zeros(M, dtype=int))[j : j + len(a)] += 1
            return turns(z, a, b)

        for module in (ts.symbols, ts.spectra):
            monkeypatch.setattr(module, "_by_blocks", recording)
        monkeypatch.setattr(ts.symbols, "_turns", turns_recorded)
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), M)
        assert len(c._contacts[0]) == 0
        ring = np.exp(2j * np.pi * np.arange(48) / 48)
        ts.dist_to_spectrum(np.concatenate([0.2 * ring, 3 * ring]), c)
        assert ts.classify(3 + 1j, c, 0.1) is ts.Component.F0
        assert ts.classify(0.1, c, 0.1) is ts.Component.BOUNDED_HOLE
        assert len(ts.points_at_distance(c, np.linspace(0.1, 1, 40))) == 40
        queries = {(caller, ufunc) for caller, _, _, ufunc, _ in calls}
        expected = {
            ("SymbolCurve.distance_to", np.minimum),
            ("points_at_distance", np.maximum),
        }
        assert queries == expected
        for _, n, n_segments, _, pairs in calls:
            assert max(pairs) <= budget
            assert sum(pairs) == n * n_segments == n * M  # each pair once
        # the winding kernel: the inner ring, 0.1 and the centroid start of points_at_distance,
        # inside the box, each meet every segment once; the outer ring and 3 + 1j none
        assert set(seen) == {*(0.2 * ring).tolist(), 0.1 + 0j, complex(np.mean(c.points))}
        assert all((cover == 1).all() for cover in seen.values())

    def test_winding_blocks_hold_the_contacts(self, monkeypatch):
        # the doubly traversed circle {2: 1} at M = 512 has K = 768 contacts, more
        # than its 512 segments: blocks of PAIR_BUDGET // K = 5 points
        c = ts.sample_curve(ts.HarmonicSymbol({2: 1}), 512)
        K = len(c._contacts[0])
        assert K == 768
        turns, blocks = ts.symbols._turns, []
        monkeypatch.setattr(ts.symbols, "_turns", lambda z, a, b: blocks.append((len(z), a.size)) or turns(z, a, b))
        # 7 points in the disc, 5 between it and the box's corners
        z = np.concatenate([0.5 * np.exp(2j * np.pi * np.arange(7) / 7), 0.9 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]), [0.95 + 0.5j]])
        assert _loop_windings(c, z)[:, -1].tolist() == [2] * 7 + [0] * 5
        assert {n for n, _ in blocks} == {5, 2} and max(n * m for n, m in blocks) <= ts.symbols.PAIR_BUDGET
        assert sum(n * m for n, m in blocks) == 12 * (512 + 2 * K)

    def test_queries_peak_below_the_block_limit(self):
        """4096 points against M = 512: every block's temporaries stay below
        glibc's 128 KiB mmap threshold (a budget of 2**14 pairs peaks at 1.2 MiB)."""
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 512)
        z = np.linspace(-2, 2, 64)[:, None] + 1j * np.linspace(-1.5, 1.5, 64)
        z = z.ravel()
        for query in (c.distance_to, lambda z: ts.dist_to_spectrum(z, c)):
            tracemalloc.start()
            try:
                query(z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 640 * 2**10

    def test_ends_are_kept_once_and_read_only(self):
        c = ts.sample_curve(ts.HarmonicSymbol({2: 1, -1: 0.8}), 512)
        assert np.array_equal(c.ends, np.roll(c.points, -1))
        assert c.ends is c.ends
        with pytest.raises(ValueError):
            c.ends[0] = 0

    def test_queries_copy_no_segment_ends(self, monkeypatch):
        def no_roll(*args, **kwargs):
            raise AssertionError("np.roll called")

        monkeypatch.setattr(np, "roll", no_roll)
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 512)
        assert ts.dist_to_spectrum(np.array([0.2, 3.0]), c)[1] > 1
        assert ts.classify(3 + 1j, c, 0.1) is ts.Component.F0
        assert ts.classify(0.1, c, 0.1) is ts.Component.BOUNDED_HOLE
        assert ts.curve_diagnostics(c).jordan

    def test_memory_does_not_grow_with_the_sample_count(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 2**17)
        ring = np.exp(2j * np.pi * np.arange(32) / 32)
        pts = np.concatenate([0.2 * ring, 3 * ring])
        tracemalloc.start()
        try:
            d = ts.dist_to_spectrum(pts, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (d[:32] == 0).all() and (d[32:] > 1).all()
        assert peak < 32 * 2**20


class TestCurveDiagnostics:
    @pytest.mark.parametrize("centre", [0, 1e6, 1e8, 1e9])
    def test_circle(self, centre):
        # the touch tolerance follows the curve's extent, not its distance from 0
        c = ts.sample_curve(ts.HarmonicSymbol({0: centre, 1: 1}), 256)
        d = ts.curve_diagnostics(c)
        assert d.jordan is True and d.cusp_free
        assert len(c._contacts[0]) == 0

    def test_flat_segment_cusps(self):
        d = ts.curve_diagnostics(ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 1}), 256))
        assert not d.cusp_free and not d.jordan

    def test_double_circle_not_jordan(self):
        d = ts.curve_diagnostics(ts.sample_curve(ts.HarmonicSymbol({2: 1}), 256))
        assert not d.jordan

    @pytest.mark.parametrize("centre", [0, 1e8])
    def test_crossing_curve_keeps_its_contacts_when_translated(self, centre):
        c = ts.sample_curve(ts.HarmonicSymbol({0: centre, 2: 1, -1: 0.8}), 256)
        assert ts.curve_diagnostics(c).jordan is False
        assert len(c._contacts[0]) == 3

    def test_degenerate_rejected(self):
        with pytest.raises(ts.DegenerateCurveError):
            ts.curve_diagnostics(ts.sample_curve(ts.HarmonicSymbol({}), 64))

    @pytest.mark.parametrize("M, max_deg", [(64, 1), (256, 6)])
    def test_min_self_distance_matches_dense_oracle(self, M, max_deg):
        rng = np.random.default_rng(M)
        symbols = [
            ts.HarmonicSymbol(c) for c in ({1: 1, -1: 0.5}, {1: 1, 2: 0.2}, {2: 1, -1: 0.8}, {1: 1, -1: 1})
        ]
        symbols += [random_symbol(rng, max_deg=max_deg) for _ in range(12)]
        kinds = set()
        for s in symbols:
            if s.is_constant:
                continue
            c = ts.sample_curve(s, M)
            d = ts.curve_diagnostics(c)
            assert d.min_self_distance == min_self_distance(c.points), s.coeffs
            kinds.add(d.jordan)
        assert kinds == {True, False}

    @pytest.mark.parametrize(
        "coeffs",
        [s.coeffs for s in nonconstant_seed0_symbols(8)] + [{1: 1, -1: 0.5}, {1: 1, 2: 0.2}, {1: 1, -2: 0.3}],
    )
    def test_min_self_distance_matches_rowwise_oracle_at_full_size(self, coeffs):
        c = ts.sample_curve(ts.HarmonicSymbol(coeffs), 2048)
        assert ts.curve_diagnostics(c).min_self_distance == rowwise_min_self_distance(c.points)

    @staticmethod
    def slit_annulus(M, gap, turn, inner=0.5):
        """C-shaped annulus whose two radial ends are about ``gap`` apart,
        far closer than any segment k to k + 2 (about 3 / M)."""
        t = np.linspace(gap, 2 * np.pi - gap, M // 2)
        p = np.exp(1j * turn) * np.concatenate([np.exp(1j * t), inner * np.exp(1j * t[::-1])])
        return ts.SymbolCurve(points=p, tangents=np.ones(M))

    @pytest.mark.parametrize("M, gap, turn", [(1024, 1e-4, 0.7), (2048, 3e-5, 2.0), (2048, 1e-7, 4.0)])
    def test_slit_minimum_far_below_neighbour_bound_matches_rowwise_oracle(self, M, gap, turn):
        c = self.slit_annulus(M, gap, turn)
        d = ts.curve_diagnostics(c)
        assert d.jordan and d.min_self_distance < 2 * gap
        assert d.min_self_distance == rowwise_min_self_distance(c.points)

    @pytest.mark.parametrize("turn", [0.3, 1.2])
    @pytest.mark.parametrize("block", [1, 32])
    def test_sweep_evaluates_every_pair_nearer_than_the_bound(self, turn, block, monkeypatch):
        # thin slit annulus: every outer segment has an inner one at 0.3 to
        # 0.9 times the chord, below the bound that the slit's ends (0.95
        # times the chord) set, so most rows hold a near pair
        M = 256
        t = np.linspace(1e-3, 2 * np.pi - 1e-3, M // 2)
        gaps = 2 * np.sin((t[1] - t[0]) / 2) * np.random.default_rng(3).uniform(0.3, 0.9, M // 2)
        gaps[[0, -1]] = 0.95 * 2 * np.sin((t[1] - t[0]) / 2)
        inner = 1 - gaps
        p = np.exp(1j * turn) * np.concatenate([np.exp(1j * t), (inner * np.exp(1j * t))[::-1]])
        a, b = p, np.roll(p, -1)
        bound = np.min(_segment_distances(a, b, np.roll(a, -2), np.roll(b, -2)))
        near = {
            (k, l)
            for k in range(M)
            for l in np.flatnonzero(_segment_distances(a[k], b[k], a, b) < bound).tolist()
            if 1 < l - k < M - 1
        }
        index = {z: k for k, z in enumerate(p.tolist())}
        seen, sizes = set(), []

        def recording(p, q, a, b):
            d = _segment_distances(p, q, a, b)
            sizes.append(d.size)
            for z, w in zip(*(np.broadcast_to(x, d.shape).tolist() for x in (p, a))):
                seen.add((min(index[z], index[w]), max(index[z], index[w])))
            return d

        monkeypatch.setattr(ts.symbols, "PAIR_BUDGET", block * M)
        monkeypatch.setattr(ts.symbols, "_segment_distances", recording)
        ts.curve_diagnostics(ts.SymbolCurve(points=p, tangents=np.ones(M)))
        assert len(near) >= M // 4 and near <= seen
        assert max(sizes) <= block * M

    # {0: 1, 1: 1e-140}: a vertical segment 2e-140 long, traced up and down;
    # segments k and k + 2 touch at its ends, and every box is within any
    # positive reach of every other
    @pytest.mark.parametrize("coeffs", [{1: 1}, {1: 1, -1: 0.5}, {2: 1, -1: 0.8}, {0: 1, 1: 1e-140}])
    def test_pair_search_evaluates_linearly_many_pairs(self, coeffs, monkeypatch):
        M = 2**14
        pairs = []

        def counting(p, q, a, b):
            d = _segment_distances(p, q, a, b)
            pairs.append(d.size)
            return d

        c = ts.sample_curve(ts.HarmonicSymbol(coeffs), M)
        monkeypatch.setattr(ts.symbols, "_segment_distances", counting)
        ts.curve_diagnostics(c)
        assert 0 < sum(pairs) <= 64 * M  # a full search evaluates about M^2 / 2

    @pytest.mark.parametrize("coeffs", [{2: 1, -1: 0.8}, {1: 1, -3: 0.5}, {1: 1, -1: 0.5}])
    def test_sweep_stops_at_the_first_crossing(self, coeffs, monkeypatch):
        # small blocks: the sweep holds blocks after the one that finds a crossing
        minima = []

        def recording(p, q, a, b):
            d = _segment_distances(p, q, a, b)
            minima.append(float(np.min(d, initial=math.inf)))
            return d

        c = ts.sample_curve(ts.HarmonicSymbol(coeffs), 512)
        monkeypatch.setattr(ts.symbols, "PAIR_BUDGET", 64)
        monkeypatch.setattr(ts.symbols, "_segment_distances", recording)
        d = ts.curve_diagnostics(c)
        assert d.min_self_distance == min_self_distance(c.points)
        if d.jordan:
            assert 0 not in minima
        else:
            assert len(minima) > 2 and minima.index(0.0) == len(minima) - 1

    def test_budget_below_one_row_still_exact(self, monkeypatch):
        # one pair per chunk: every sweep chunk is a single (longer) row
        c = self.slit_annulus(1024, 1e-4, 0.7)
        monkeypatch.setattr(ts.symbols, "PAIR_BUDGET", 1)
        assert ts.curve_diagnostics(c).min_self_distance == rowwise_min_self_distance(c.points)

    def test_memory_does_not_grow_with_the_pair_count(self):
        c = ts.sample_curve(ts.HarmonicSymbol({1: 1, -1: 0.5}), 2**17)
        tracemalloc.start()
        try:
            ts.curve_diagnostics(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_fewer_than_four_samples_rejected(self):
        c = ts.SymbolCurve(points=[0, 1, 1j], tangents=[1, 1, 1])
        with pytest.raises(ts.DegenerateCurveError, match="3 samples"):
            ts.curve_diagnostics(c)


class TestLoopWindings:
    @pytest.mark.parametrize(
        "coeffs", [{2: 1, -1: 0.8}, {1: 1, -2: 0.6j}, {3: 1, -2: 1}, *(s.coeffs for s in nonconstant_seed0_symbols(8))]
    )
    def test_each_loop_winds_as_its_own_polygon(self, coeffs):
        # every contact by a full search; near its crossing X the loop's two
        # end pieces, X -> b[k] and a[l] -> X, decide the winding
        c = ts.sample_curve(ts.HarmonicSymbol(coeffs), 256)
        a, b, M = c.points, c.ends, len(c)
        tol = c._touch_tol()
        contacts = [
            (k, l)
            for k in range(M - 2)
            for l in np.flatnonzero(_segment_distances(a[k], b[k], a, b) <= tol).tolist()
            if k + 1 < l < M - (k == 0)
        ]
        loops = []
        for k, l in contacts:
            e, f = b[k] - a[k], b[l] - a[l]
            system = np.array([[e.real, -f.real], [e.imag, -f.imag]])
            d = a[l] - a[k]
            t = np.linalg.solve(system, [d.real, d.imag])[0] if np.linalg.det(system) != 0 else 0.0
            x = a[k] + min(max(t, 0.0), 1.0) * e
            loops.append(np.concatenate(([x], a[k + 1 : l + 1])))
        checked = 0
        for p in loops:
            for z in p[0] + np.outer([1e-3, 0.3], np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)).ravel() * abs(p[1] - p[0]):
                if c.distance_to(z) < 1e-5 * abs(p[1] - p[0]):
                    continue
                got = _loop_windings(c, z)[0]
                assert sorted(got[:-1].tolist()) == sorted(polygon_winding(p, z) for p in loops)
                assert got[-1] == polygon_winding(a, z)
                checked += 1
        assert checked >= 8 * len(loops) > 0

    def test_bow_tie(self):
        # segments 0 and 2 cross at 1 + 1j; the loop from there is the right
        # lobe, traced clockwise
        c = ts.SymbolCurve(points=[0, 2 + 2j, 2, 2j], tangents=np.ones(4))
        assert _loop_windings(c, 1.01 + 1j).tolist() == [[-1, -1]]
        assert _loop_windings(c, 0.99 + 1j).tolist() == [[0, 1]]
        # an array: a row per point, and a point outside the box gets zeros
        assert _loop_windings(c, np.array([0.99 + 1j, 5, 1.01 + 1j])).tolist() == [[0, 1], [0, 0], [-1, -1]]
        assert _loop_windings(c, np.array([5, -1j])).tolist() == [[0], [0]]


class TestSegmentDistances:
    @pytest.mark.parametrize("c", [1.0, 1e-140, 2.0 ** -300, 1e80, 2.0 ** 300], ids=["1", "1e-140", "2^-300", "1e80", "2^300"])
    def test_proper_crossing_is_zero(self, c):
        # at every scale c: a product of two cross products, about c^4, would underflow or overflow
        got = _segment_distances(c * (-1 - 1j), c * (1 + 1j), np.array([c * (-1 + 1j)]), np.array([c * (1 - 1j)]))
        assert got[0] == 0.0

    def test_touching_endpoint_is_zero(self):
        got = _segment_distances(0, 2, np.array([1 + 1j, 2 + 0j]), np.array([1 + 0j, 3 + 1j]))
        assert got.tolist() == [0.0, 0.0]

    def test_parallel_disjoint_gap_is_exact(self):
        got = _segment_distances(0, 1, np.array([0.5 + 0.25j, 3 + 0j]), np.array([2 + 0.25j, 4 + 0j]))
        assert got.tolist() == [0.25, 2.0]

    def test_symmetric_in_the_two_segments(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        fwd = _segment_distances(a[0], b[0], a[1:], b[1:])
        back = [_segment_distances(a[k], b[k], a[:1], b[:1])[0] for k in range(1, 20)]
        assert fwd.tolist() == back

    def test_broadcasts_over_segment_pairs(self):
        rng = np.random.default_rng(6)
        p, q, a, b = (rng.standard_normal(20) + 1j * rng.standard_normal(20) for _ in range(4))
        paired = _segment_distances(p, q, a, b)
        one_by_one = [_segment_distances(p[k], q[k], a[k : k + 1], b[k : k + 1])[0] for k in range(20)]
        assert paired.tolist() == one_by_one


class TestInvariants:
    @given(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_real_valued_symbols_have_real_boundary(self, pos):
        coeffs = {0: 1.0}
        for j, v in enumerate(pos, start=1):
            coeffs[j] = v
            coeffs[-j] = v.conjugate()
        s = ts.HarmonicSymbol(coeffs)
        for theta in np.linspace(0, 2 * math.pi, 17):
            val = s.eval_boundary(theta)
            assert abs(val.imag) <= 1e-12 * max(s.wiener_norm(), 1.0)

    def test_radial_limit_bound(self):
        s = ts.HarmonicSymbol({2: 0.4 + 0.1j, -1: 0.8, 0: 1})
        theta = 0.9
        for r in (0.9, 0.99, 0.999):
            gap = abs(s.eval_disk(r * cmath.exp(1j * theta)) - s.eval_boundary(theta))
            bound = sum(abs(v) * (1 - r ** abs(j)) for j, v in s.coeffs.items())
            assert gap <= bound + 1e-12

    def test_winding_stable_under_refinement(self):
        s = ts.HarmonicSymbol({1: 1, -2: 0.4})
        for lam in (0.2 + 0.1j, 2.5, -1.8j):
            winds = set()
            for M in (128, 256, 512):
                c = ts.sample_curve(s, M)
                if ts.dist_to_spectrum(lam, c) == 0 and ts.winding_number(c, lam) == 0:
                    continue
                winds.add(ts.winding_number(c, lam))
            assert len(winds) == 1

    @given(complex_coeffs(3), complex_coeffs(3))
    @example(f=[], g=[0j, 6.382350372533106e-301 + 0j])
    @settings(max_examples=40, deadline=None)
    def test_derivative_zero_iff_constant(self, f, g):
        s = ts.from_parts(f, g)
        assert (s.derivative_norm_sq() == 0) == s.is_constant
