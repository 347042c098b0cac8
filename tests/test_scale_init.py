"""Scale-search tests against an exhaustive reference scan."""

import numpy as np
import pytest

from lowbit import scale_init as S
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

