"""Activation-aware initialization of quantization scales.

Plain minmax scales ignore which input channels actually matter at
inference time. This module searches, per weight group, over a grid of
candidate step sizes derived from the group's max magnitude,

    s_i = max|W| / (2^(bits-1) + eps_i),   eps_i in [-0.9, 0.9) step 0.01,

scoring each candidate by the squared quantization error weighted by
the squared per-input-channel activation maxima:

    obj(s) = mean_j ( (W_j - qdq(W_j; s)) * A_j^2 )^2

and keeps the best scale per group. Ties resolve toward the smaller
eps. The winner is handed to the tuner, which refines it with a
learnable multiplier constrained to [0.5, 1.5].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codecs import SCALE_FLOOR, grid_bounds, group_extrema, group_segments
from .errors import ShapeError

EPS_GRID = (np.arange(180) - 90) * 0.01  # -0.90 .. 0.89, 0.0 exactly at index 90


@dataclass
class ActChannelStats:
    """Per-layer, per-input-channel max absolute activation values."""

    layers: dict = field(default_factory=dict)  # name -> float64 vector

    def merge_batch(self, name: str, acts: np.ndarray) -> None:
        """Fold in one batch of layer inputs (..., channels)."""
        flat = np.abs(np.asarray(acts, dtype=np.float64)).reshape(-1, acts.shape[-1])
        m = flat.max(axis=0)
        cur = self.layers.get(name)
        self.layers[name] = m if cur is None else np.maximum(cur, m)

    def get(self, name: str, n_channels: int) -> np.ndarray:
        """Stats for a layer; all-ones when the layer was never observed."""
        v = self.layers.get(name)
        if v is None:
            return np.ones(n_channels)
        if v.shape != (n_channels,):
            raise ShapeError(
                f"stats for {name} have {v.shape[0]} channels, layer has {n_channels}")
        return v


def calibrate_act_stats(model, batches) -> ActChannelStats:
    """Run calibration batches through ``model``, recording layer inputs.

    Monotone in data: merging more batches never decreases any entry.
    """
    stats = ActChannelStats()

    def recorder(name):
        def tap(x):
            stats.merge_batch(name, x.data)
            return x
        return tap
    taps = {i.name: recorder(i.name) for i in model.quantizable_layers()}
    for ids in batches:
        model.forward(ids, taps=taps)
    return stats


def candidate_scales(group: np.ndarray, bits: int) -> np.ndarray:
    """Step-size candidates for one group; a single floor if all-zero."""
    amax = np.abs(group).max() if np.asarray(group).size else 0.0
    if amax <= 0:
        return np.array([SCALE_FLOOR])
    return np.maximum(amax / (2.0 ** (bits - 1) + EPS_GRID), SCALE_FLOOR)


def search_scale(group: np.ndarray, act_stats: np.ndarray, bits: int):
    """Best candidate scale for one weight group.

    ``group`` and ``act_stats`` are 1-d and aligned (one stat per input
    channel covered by the group). Returns (scale, objective). First
    minimum wins, which is the smallest-eps candidate among ties.
    """
    g = np.asarray(group, dtype=np.float64)
    a = np.asarray(act_stats, dtype=np.float64)
    if g.shape != a.shape:
        raise ShapeError(f"group {g.shape} vs stats {a.shape}")
    lo, hi = grid_bounds(bits)
    cands = candidate_scales(g, bits)
    w2 = a * a
    best_s, best_obj = None, None
    for s in cands:
        q = np.clip(np.rint(g / s), lo, hi) * s
        obj = float(np.mean(((g - q) * w2) ** 2))
        if best_obj is None or obj < best_obj:
            best_s, best_obj = float(s), obj
    return best_s, best_obj


def search_layer_scales(w: np.ndarray, act_stats: np.ndarray, bits: int,
                        group_size: int) -> np.ndarray:
    """Vectorized per-group search over a whole (in, out) weight.

    Returns scales shaped (n_groups, out). Exactly equivalent to calling
    :func:`search_scale` on every (group rows, column) slice.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"expected 2-d weight, got {w.shape}")
    a = np.asarray(act_stats, dtype=np.float64)
    if a.shape != (w.shape[0],):
        raise ShapeError(f"stats shape {a.shape} does not match rows {w.shape[0]}")
    lo, hi = grid_bounds(bits)
    segs = group_segments(w.shape[0], group_size)
    w2 = (a * a)[:, None]
    best_s = np.empty((len(segs), w.shape[1]))
    best_obj = np.full((len(segs), w.shape[1]), np.inf)
    wmax, wmin = group_extrema(w, group_size)
    amax = np.maximum(wmax, -wmin)  # max |W| per group, exactly
    denom = 2.0 ** (bits - 1) + EPS_GRID
    for i in range(len(EPS_GRID)):
        scales = np.maximum(amax / denom[i], SCALE_FLOOR)
        for gi, (s0, e0) in enumerate(segs):
            s = scales[gi]
            blk = w[s0:e0]
            q = np.clip(np.rint(blk / s), lo, hi) * s
            obj = np.mean(((blk - q) * w2[s0:e0]) ** 2, axis=0)
            better = obj < best_obj[gi]
            best_obj[gi][better] = obj[better]
            best_s[gi][better] = s[better]
    # all-zero groups hit the floor on every candidate; make that exact
    zero = amax <= 0
    best_s[zero] = SCALE_FLOOR
    return best_s
