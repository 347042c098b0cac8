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
its output columns at once. It allocates its buffers once per row group
and scores every candidate in place with the same ufuncs, in the same
order, as the plain expression, so each objective has the expression's
bits. A single group is the same search on one column with the whole
axis as its group. Ties resolve toward the smaller eps; an all-zero
group gets the scale floor. A column whose every objective is inf or
nan (overflowing or nan activation stats) keeps candidate 0, eps = -0.9,
with objective inf. The winner is handed to the tuner, which refines it
with a learnable multiplier constrained to [0.5, 1.5].
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
    w = np.ascontiguousarray(w, dtype=np.float64)  # fixes the sum order
    if w.ndim != 2:
        raise ShapeError(f"expected 2-d weight, got {w.shape}")
    a = np.asarray(act_stats, dtype=np.float64)
    if a.shape != (w.shape[0],):
        raise ShapeError(f"stats shape {a.shape} does not match rows {w.shape[0]}")
    lo, hi = grid_bounds(bits)
    w2 = a * a
    wmax, wmin = group_extrema(w, group_size)
    amax = np.maximum(wmax, -wmin)  # max |W| per group, exactly
    denom = 2.0 ** (bits - 1) + EPS_GRID
    # candidate 0 stands until a finite objective beats +inf
    best_s = np.maximum(amax / denom[0], SCALE_FLOOR)
    best_obj = np.full_like(amax, np.inf)
    s, obj = np.empty(w.shape[1]), np.empty(w.shape[1])
    better = np.empty(w.shape[1], dtype=bool)
    for gi, (s0, e0) in enumerate(group_segments(w.shape[0], group_size)):
        blk = w[s0:e0]
        buf = np.empty(blk.shape)
        wt = np.repeat(w2[s0:e0, None], blk.shape[1], axis=1)
        g_max, g_s, g_obj = amax[gi], best_s[gi], best_obj[gi]
        for d in denom:
            # obj = mean(((blk - clip(rint(blk / s), lo, hi) * s) * wt) ** 2)
            # in place, one ufunc per operation in the expression's order
            np.divide(g_max, d, out=s)
            np.maximum(s, SCALE_FLOOR, out=s)
            np.divide(blk, s, out=buf)
            np.rint(buf, out=buf)
            np.clip(buf, lo, hi, out=buf)
            np.multiply(buf, s, out=buf)
            np.subtract(blk, buf, out=buf)
            np.multiply(buf, wt, out=buf)
            np.square(buf, out=buf)
            np.add.reduce(buf, axis=0, out=obj)
            np.divide(obj, e0 - s0, out=obj)  # np.mean, bit for bit
            np.less(obj, g_obj, out=better)
            np.copyto(g_obj, obj, where=better)
            np.copyto(g_s, s, where=better)
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
