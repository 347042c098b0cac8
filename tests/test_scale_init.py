"""Scale-search tests against an exhaustive reference scan."""

import numpy as np
import pytest

from lowbit import scale_init as S
from lowbit.codecs import SCALE_FLOOR, grid_bounds, group_extrema, group_segments
from lowbit.errors import ShapeError


def search_ref(group, stats, bits):
    """Independent exhaustive scan over the 180-candidate grid."""
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    amax = np.abs(group).max()
    if amax <= 0:
        return 1e-8, 0.0
    w2 = stats * stats
    best = None
    for i in range(180):
        eps = (i - 90) * 0.01
        s = max(amax / (2.0 ** (bits - 1) + eps), 1e-8)
        q = np.clip(np.rint(group / s), lo, hi) * s
        obj = float(np.mean(((group - q) * w2) ** 2))
        if best is None or obj < best[1]:
            best = (s, obj)
    return best


def search_loop_ref(w, act_stats, bits, group_size):
    """The allocating group-major loop that the in-place kernel replaced.

    Reduces axis 0 in the same order as the kernel, so it pins the
    kernel's bits on multi-row groups, where a 1-d scan sums pairwise.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(act_stats, dtype=np.float64)
    lo, hi = grid_bounds(bits)
    w2 = (a * a)[:, None]
    wmax, wmin = group_extrema(w, group_size)
    amax = np.maximum(wmax, -wmin)
    denom = 2.0 ** (bits - 1) + S.EPS_GRID
    best_s = np.empty_like(amax)
    best_obj = np.full_like(amax, np.inf)
    for gi, (s0, e0) in enumerate(group_segments(w.shape[0], group_size)):
        blk, wt = w[s0:e0], w2[s0:e0]
        g_max, g_s, g_obj = amax[gi], best_s[gi], best_obj[gi]
        for d in denom:
            s = np.maximum(g_max / d, SCALE_FLOOR)
            q = np.clip(np.rint(blk / s), lo, hi) * s
            obj = np.mean(((blk - q) * wt) ** 2, axis=0)
            better = obj < g_obj
            g_obj[better] = obj[better]
            g_s[better] = s[better]
    best_s[amax <= 0] = SCALE_FLOOR
    return best_s, best_obj


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestCandidateGrid:
    def test_grid_shape_and_endpoints(self):
        assert len(S.EPS_GRID) == 180
        assert S.EPS_GRID[0] == pytest.approx(-0.9, abs=1e-15)
        assert S.EPS_GRID[-1] == pytest.approx(0.89, abs=1e-12)
        assert S.EPS_GRID[90] == 0.0
        assert np.all(np.diff(S.EPS_GRID) > 0)


class TestSearch:
    @pytest.mark.parametrize("bits", [2, 4])
    def test_matches_reference_scan(self, bits):
        rng = np.random.default_rng(60)
        for trial in range(60):
            n = int(rng.integers(8, 64))
            g = rng.normal(size=n) * rng.uniform(0.05, 8)
            if trial == 0:
                g = np.zeros(n)
            a = np.abs(rng.normal(size=n)) + 0.05
            s, obj = S.search_scale(g, a, bits)
            s_ref, obj_ref = search_ref(g, a, bits)
            assert s == s_ref
            assert obj == obj_ref
            assert S.search_layer_scales(g[:, None], a, bits, 0)[0, 0] == s

    def test_winner_no_worse_than_zero_eps(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            g = rng.normal(size=32)
            a = np.abs(rng.normal(size=32)) + 0.1
            _, obj = S.search_scale(g, a, 4)
            lo, hi = -8, 7
            s0 = np.abs(g).max() / 8.0
            q0 = np.clip(np.rint(g / s0), lo, hi) * s0
            w2 = a * a
            obj0 = np.mean(((g - q0) * w2) ** 2)
            assert obj <= obj0

    def test_all_objectives_tie_picks_smallest_eps(self):
        # zero activation stats zero out every objective; the first
        # candidate (eps = -0.9) must win
        g = np.array([0.3, -1.2, 0.7])
        s, obj = S.search_scale(g, np.zeros(3), bits=2)
        assert obj == 0.0
        assert s == pytest.approx(1.2 / 1.1, rel=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            S.search_scale(np.ones(4), np.ones(3), 2)
        with pytest.raises(ShapeError):
            S.search_layer_scales(np.ones((4, 1)), np.ones(3), 2, 0)

    def test_layer_search_equals_per_group_search(self):
        rng = np.random.default_rng(62)
        w = rng.normal(size=(24, 5)) * 2
        stats = np.abs(rng.normal(size=24)) + 0.1
        got = S.search_layer_scales(w, stats, bits=4, group_size=8)
        assert got.shape == (3, 5)
        for gi, (s0, e0) in enumerate([(0, 8), (8, 16), (16, 24)]):
            for col in range(5):
                s_ref, _ = search_ref(w[s0:e0, col], stats[s0:e0], 4)
                assert got[gi, col] == s_ref

    def test_layer_search_handles_zero_columns(self):
        w = np.zeros((8, 2))
        w[:, 1] = np.linspace(-1, 1, 8)
        stats = np.ones(8)
        got = S.search_layer_scales(w, stats, bits=2, group_size=0)
        assert got[0, 0] == 1e-8
        assert got[0, 1] > 1e-4


class TestKernelBits:
    """The in-place kernel against the allocating loop, bit for bit."""

    @pytest.mark.parametrize("group_size", [0, 16, 32])
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_matches_loop_oracle(self, bits, group_size):
        rng = np.random.default_rng(100 + bits + group_size)
        for shape in [(40, 7), (64, 9), (37, 1), (16, 3)]:
            w = rng.normal(size=shape) * 10.0 ** rng.uniform(-2, 2)
            if shape[1] > 1:
                w[:, 0] = 0.0
            stats = rng.uniform(0.05, 3.0, size=shape[0])
            got = S._search(w, stats, bits, group_size)
            want = search_loop_ref(w, stats, bits, group_size)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])
            assert_same_bits(S.search_layer_scales(w, stats, bits, group_size),
                             want[0])

    def test_memory_layout_does_not_change_bits(self):
        # column-major or strided weights must not sum their groups pairwise
        rng = np.random.default_rng(109)
        w = rng.normal(size=(64, 9))
        stats = rng.uniform(0.05, 3.0, size=64)
        want = search_loop_ref(w, stats, 4, 32)
        for got in (S._search(np.asfortranarray(w), stats, 4, 32),
                    S._search(np.repeat(w, 2, axis=1)[:, ::2], stats, 4, 32)):
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    def test_matches_loop_oracle_on_a_wide_layer(self):
        rng = np.random.default_rng(107)
        w = rng.normal(size=(512, 512)) * 0.05
        stats = np.abs(rng.normal(size=512)) + 0.05
        got = S._search(w, stats, 2, 32)
        want = search_loop_ref(w, stats, 2, 32)
        assert got[0].shape == (16, 512)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


class TestDeadColumns:
    """A column whose every objective is inf or nan gets candidate 0."""

    @pytest.mark.parametrize("stat", [1e100, np.nan])
    def test_non_finite_objectives_pick_candidate_zero(self, stat):
        rng = np.random.default_rng(108)
        w = rng.normal(size=(64, 4))
        w[:, 3] = 0.0
        stats = np.full(64, stat)
        with np.errstate(over="ignore", invalid="ignore"):
            runs = [S._search(w, stats, 2, 32) for _ in range(3)]
        s, obj = runs[0]
        wmax, wmin = group_extrema(w, 32)
        want = np.maximum(np.maximum(wmax, -wmin) / (2.0 + S.EPS_GRID[0]),
                          SCALE_FLOOR)
        assert_same_bits(s[:, :3], want[:, :3])
        assert np.all(obj[:, :3] == np.inf)
        assert np.all(s[:, 3] == SCALE_FLOOR)  # all-zero columns
        for s_again, obj_again in runs[1:]:
            assert_same_bits(s_again, s)
            assert_same_bits(obj_again, obj)
