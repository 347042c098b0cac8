"""Sign-descent tuning of rounding offsets and scale multipliers.

Each transformer block (or MLP layer, which is its own block) is tuned
in isolation: quantized-forward block output is regressed onto the
full-precision block output under a trimmed squared-error objective.
Parameters move by a fixed step in the direction opposite the gradient
sign, clamped to their boxes, and the best iterate seen wins.

``quantize_model`` strings the blocks together: activation statistics,
searched initial scales, and per-block tuning, each block on the outputs
of the already-quantized blocks before it; then every layer is quantized
and packed. A run that tunes nothing (0 steps, or no int-sym layer)
touches no calibration data: every layer is round-to-nearest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import codecs, scale_init
from . import tensor as T
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .workers import map_ordered


@dataclass(frozen=True)
class TuneConfig:
    steps: int = 200
    lr: float | None = None  # resolved to 1/steps when omitted
    batch_size: int = 8
    trim_fraction: float = 0.001
    use_scale_init: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.lr is None:
            object.__setattr__(self, "lr", 1.0 / max(self.steps, 1))
        if self.steps < 0:
            raise ConfigError("steps must be >= 0 (0 disables tuning)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be positive and finite")
        if not 0.0 <= self.trim_fraction < 1.0:
            raise ConfigError("trim_fraction must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def trimmed_mse(pred: T.Tensor, target, trim_fraction: float = 0.0) -> T.Tensor:
    """Sum of squared errors with the floor(frac*n) largest dropped.

    Ties at the cut sort stably, so among equal errors the later flat
    positions are dropped first. Gradients flow only through survivors.
    """
    tgt = target.data if isinstance(target, T.Tensor) else np.asarray(target)
    if pred.shape != tgt.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {tgt.shape}")
    if not 0.0 <= trim_fraction < 1.0:
        raise ContractError("trim_fraction must lie in [0, 1)")
    diff = T.sub(pred, T.Tensor(tgt))
    sq = T.mul(diff, diff)
    k = int(math.floor(trim_fraction * sq.data.size))
    if k == 0:
        return T.sum_(sq)
    # drop the k largest as a stable sort would, without sorting: all
    # above the cut value, then the latest of the ties at the cut
    flat = sq.data.ravel()
    cut = np.partition(flat, flat.size - k)[flat.size - k]
    keep = flat <= cut
    ties = np.flatnonzero(flat == cut)
    tied_drops = k - (flat.size - np.count_nonzero(keep))
    keep[ties[len(ties) - tied_drops:]] = False
    mask = keep.astype(np.float64)
    return T.sum_(T.mul(sq, T.Tensor(mask.reshape(sq.shape))))


@dataclass
class TunedLayer:
    name: str
    v: np.ndarray      # per-element rounding offset in [-0.5, 0.5]
    alpha: np.ndarray  # per-group scale multiplier in [0.5, 1.5]
    beta: np.ndarray   # minmax-mode lower-range multiplier; ones when inert


@dataclass
class BlockTuneResult:
    block: int
    layers: list
    initial_loss: float
    final_loss: float
    best_step: int
    history: list = field(repr=False)


def tune_block(model, block: int, inputs, schemes: dict, cfg: TuneConfig, *,
               init_scales: dict | None = None) -> BlockTuneResult:
    """Tune one block's integer-grid layers against its fp outputs.

    ``inputs`` are the block's input activations, (samples, ...); the
    regression targets are the full-precision block outputs on those
    inputs. The other layers in ``schemes`` (microscaling and 16-bit)
    ride along frozen at their :func:`codecs.quantize_layer` weights.
    """
    if cfg.steps < 1:
        raise ContractError("tuning needs at least one step")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] < 1:
        raise ContractError("no calibration inputs")
    names = [n for n in model.block_layer_names(block) if n in schemes]
    unknown = set(schemes) - set(names)
    if unknown:
        raise ContractError(f"layers {sorted(unknown)} not in block {block}")
    tuned_names = [n for n in names if schemes[n].family == "int-sym"]
    if not tuned_names:
        raise ContractError(f"block {block} has no tunable layers")

    frozen = {n: codecs.quantize_layer(model.params[n], schemes[n])[0]
              for n in names if n not in tuned_names}
    targets = model.block_forward(block, inputs).data

    s_init = init_scales or {}
    theta = {}
    for n in tuned_names:
        w = model.params[n]
        n_g = len(codecs.group_segments(w.shape[0], schemes[n].group_size))
        theta[n] = {"v": np.zeros_like(w, dtype=np.float64),
                    "alpha": np.ones((n_g, w.shape[1])),
                    "beta": np.ones((n_g, w.shape[1]))}

    rng = np.random.default_rng((cfg.seed, block))
    n_samples = inputs.shape[0]
    take = min(cfg.batch_size, n_samples)
    history = []
    best = None
    # steps updates, steps+1 evaluations: every iterate is measured
    for step in range(cfg.steps + 1):
        idx = rng.choice(n_samples, size=take, replace=False)
        over = dict(frozen)
        leaves = {}
        for n in tuned_names:
            th = theta[n]
            sch = schemes[n]
            leaves[n] = tuple(T.Tensor(th[k], requires_grad=True)
                              for k in ("v", "alpha", "beta"))
            # beta is unused under searched scales: its gradient is zero,
            # so its sign step leaves it at exactly 1
            over[n] = codecs.uniform_qdq_graph(
                model.params[n], sch.bits, sch.group_size, *leaves[n],
                init_scales=s_init.get(n))
        out = model.block_forward(block, inputs[idx], overrides=over)
        loss = trimmed_mse(out, targets[idx], cfg.trim_fraction)
        lval = loss.item()
        if not np.isfinite(lval):
            raise NumericError(
                f"non-finite tuning loss at step {step} in block {block}")
        history.append(lval)
        if best is None or lval < best[0]:
            best = (lval, step,
                    {n: {k: arr.copy() for k, arr in th.items()}
                     for n, th in theta.items()})
        if step == cfg.steps:
            break
        grads = T.backward(loss, wrt=[t for trio in leaves.values()
                                      for t in trio])
        for n in tuned_names:
            v, a, b = leaves[n]
            th = theta[n]
            th["v"] = np.clip(th["v"] - cfg.lr * np.sign(grads[v]), -0.5, 0.5)
            th["alpha"] = np.clip(th["alpha"] - cfg.lr * np.sign(grads[a]),
                                  0.5, 1.5)
            th["beta"] = np.clip(th["beta"] - cfg.lr * np.sign(grads[b]),
                                 0.5, 1.5)

    best_loss, best_step, best_theta = best
    layers = [TunedLayer(n, best_theta[n]["v"], best_theta[n]["alpha"],
                         best_theta[n]["beta"]) for n in tuned_names]
    return BlockTuneResult(block, layers, history[0], best_loss, best_step,
                           history)


def plan_from_assignment(names, bits, family: str,
                         group_size: int = 32) -> dict:
    """Map layer names to schemes for a per-layer bit assignment."""
    names = list(names)
    bits = list(bits)
    if len(names) != len(bits):
        raise ContractError(f"{len(names)} names but {len(bits)} bit choices")
    return {n: codecs.scheme_for_bits(family, b, group_size)
            for n, b in zip(names, bits)}


@dataclass
class QuantizeResult:
    weights: dict       # name -> final dequantized weight
    packed: dict        # name -> PackedWeights
    tuned: list         # BlockTuneResult per tuned block
    metrics: dict


def quantize_model(model, plan: dict, calib_batches, cfg: TuneConfig,
                   eval_batches=None) -> QuantizeResult:
    """Quantize a model per a layer->scheme plan.

    Blocks containing integer-grid layers are tuned when ``cfg.steps``
    is at least 1, each on the calibration inputs as the quantized
    blocks before it leave them; initial scales are searched for such a
    run when ``use_scale_init`` is set, one layer per job in worker
    processes (:func:`workers.map_ordered`). Otherwise the calibration
    batches go unread and every layer is round-to-nearest. Every plan
    layer, 16-bit and the head included, gets a weight and a payload.
    """
    for name, sch in plan.items():
        info = model.layer_info(name)
        if info.kind != "linear":
            raise ContractError(
                f"layer {name!r} is {info.kind}; only linear layers quantize")
    int_sym = [n for n, s in plan.items() if s.family == "int-sym"]
    tuning = cfg.steps >= 1 and bool(int_sym)

    init_scales = {}
    if tuning and cfg.use_scale_init:
        stats = scale_init.calibrate_act_stats(model, calib_batches)

        def search(n):
            w = model.params[n]
            return scale_init.search_layer_scales(
                w, stats.get(n, w.shape[0]), plan[n].bits, plan[n].group_size)
        init_scales = dict(zip(int_sym, map_ordered(search, int_sym)))

    weights, packed, learned, tuned = {}, {}, {}, []

    def finish(names):
        for n in names:
            weights[n], packed[n] = codecs.quantize_layer(
                model.params[n], plan[n], init_scales=init_scales.get(n),
                **learned.get(n, {}))

    if tuning:
        ids = np.concatenate([np.asarray(b) for b in calib_batches], axis=0)
        x = model.embed_forward(ids)
        last = model.block_ids()[-1]
        for block in model.block_ids():
            bnames = [n for n in model.block_layer_names(block) if n in plan]
            if any(n in int_sym for n in bnames):
                sub = {n: init_scales[n] for n in bnames if n in init_scales}
                res = tune_block(model, block, x, {n: plan[n] for n in bnames},
                                 cfg, init_scales=sub or None)
                tuned.append(res)
                learned.update({lay.name: dict(v=lay.v, alpha=lay.alpha,
                                               beta=lay.beta)
                                for lay in res.layers})
            finish(bnames)
            if block != last:  # nothing reads the last block's output
                x = model.block_forward(
                    block, x, overrides={n: weights[n] for n in bnames}).data
    finish([n for n in plan if n not in weights])

    metrics = {}
    if eval_batches is not None:
        metrics["quantized_loss"] = model.eval_loss(
            eval_batches, weights=weights or None)
    return QuantizeResult(weights, packed, tuned, metrics)
