"""Activation-aware initialization of quantization scales.

Plain minmax scales ignore which input channels actually matter at
inference time. This module searches, per weight group, over a grid of
candidate step sizes derived from the group's max magnitude,

    s_i = max|W| / (2^(bits-1) + eps_i),   eps_i in [-0.9, 0.9) step 0.01,

scoring each candidate by the squared quantization error weighted by
the squared per-input-channel activation maxima:

    obj(s) = mean_j ( (W_j - qdq(W_j; s)) * A_j^2 )^2

and keeps the best scale per group. One core runs the search for every
caller: group-major, each row group scores all 180 candidates for all
its output columns at once. A single group is the same search on one
column with the whole axis as its group. Ties resolve toward the
smaller eps; an all-zero group gets the scale floor. The winner is
handed to the tuner, which refines it with a learnable multiplier
constrained to [0.5, 1.5].
"""

from __future__ import annotations

import numpy as np

from .codecs import SCALE_FLOOR, grid_bounds, group_extrema, group_segments
from .errors import ShapeError

EPS_GRID = (np.arange(180) - 90) * 0.01  # -0.90 .. 0.89, 0.0 exactly at index 90


def calibrate_act_stats(model, batches) -> dict:
    """{layer name: per-input-channel max |input|} over ``batches``.

    Monotone in data: more batches never decrease any entry.
    """
    stats = {}

    def recorder(name):
        def tap(x):
            m = np.abs(x.data).reshape(-1, x.shape[-1]).max(axis=0)
            stats[name] = np.maximum(stats[name], m) if name in stats else m
            return x
        return tap
    taps = {i.name: recorder(i.name) for i in model.quantizable_layers()}
    for ids in batches:
        model.forward(ids, taps=taps)
    return stats


def _search(w, act_stats, bits: int, group_size: int):
    """(scales, objectives) of the best candidate, each (n_groups, out).

    ``w`` is an (in, out) weight and ``act_stats`` holds one stat per
    input row. First minimum wins, which is the smallest-eps candidate
    among ties.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"expected 2-d weight, got {w.shape}")
    a = np.asarray(act_stats, dtype=np.float64)
    if a.shape != (w.shape[0],):
        raise ShapeError(f"stats shape {a.shape} does not match rows {w.shape[0]}")
    lo, hi = grid_bounds(bits)
    w2 = (a * a)[:, None]
    wmax, wmin = group_extrema(w, group_size)
    amax = np.maximum(wmax, -wmin)  # max |W| per group, exactly
    denom = 2.0 ** (bits - 1) + EPS_GRID
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
    # all-zero groups hit the floor on every candidate; make that exact
    best_s[amax <= 0] = SCALE_FLOOR
    return best_s, best_obj


def search_scale(group: np.ndarray, act_stats: np.ndarray, bits: int):
    """Best candidate scale for one weight group: (scale, objective).

    ``group`` and ``act_stats`` are 1-d and aligned (one stat per input
    channel covered by the group).
    """
    g = np.asarray(group, dtype=np.float64)
    a = np.asarray(act_stats, dtype=np.float64)
    if g.shape != a.shape:
        raise ShapeError(f"group {g.shape} vs stats {a.shape}")
    s, obj = _search(g[:, None], a, bits, 0)
    return float(s[0, 0]), float(obj[0, 0])


def search_layer_scales(w: np.ndarray, act_stats: np.ndarray, bits: int,
                        group_size: int) -> np.ndarray:
    """Best scale per (row group, output column) of an (in, out) weight,
    shaped (n_groups, out)."""
    return _search(w, act_stats, bits, group_size)[0]
