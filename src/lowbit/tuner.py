"""Sign-descent tuning of rounding offsets and scale multipliers.

Each transformer block (or MLP layer, which is its own block) is tuned
in isolation: quantized-forward block output is regressed onto the
full-precision block output under a trimmed squared-error objective.
Parameters move by a fixed step in the direction opposite the gradient
sign, clamped to their boxes, and the best iterate seen wins.

``quantize_model`` strings the blocks together: activation statistics,
searched initial scales, then one walk over the blocks and the head that
tunes each block on the outputs of the already-quantized blocks before
it and quantizes and packs its layers. :func:`tuned_layers` alone
decides what a run tunes: a plan's int-sym layers at 1 step or more.
A run that tunes nothing (0 steps, or no int-sym layer) touches no
calibration data: every layer is round-to-nearest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import codecs, scale_init
from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .spec import TuneConfig, scheme_for_bits
from .workers import map_ordered


def trimmed_mse(pred: T.Tensor, target, trim_fraction: float = 0.0) -> T.Tensor:
    """Sum of squared errors with the floor(frac*n) largest dropped.

    Ties at the cut sort stably, so among equal errors the later flat
    positions are dropped first. Gradients flow only through survivors.
    One node, which keeps the difference and, when it drops any, a bool
    keep mask; its VJP is the sum-of-products chain's, ``(g * keep * d)``
    added to itself.
    """
    tgt = target.data if isinstance(target, T.Tensor) else np.asarray(target)
    if pred.shape != tgt.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {tgt.shape}")
    if not 0.0 <= trim_fraction < 1.0:
        raise ContractError("trim_fraction must lie in [0, 1)")
    d = pred.data - tgt
    sq = d * d
    k = int(math.floor(trim_fraction * sq.size))
    keep = None
    if k:
        # drop the k largest as a stable sort would, without sorting: all
        # above the cut value, then the latest of the ties at the cut
        flat = sq.reshape(-1)
        cut = np.partition(flat, flat.size - k)[flat.size - k]
        keep = flat <= cut
        ties = np.flatnonzero(flat == cut)
        tied_drops = k - (flat.size - np.count_nonzero(keep))
        keep[ties[len(ties) - tied_drops:]] = False
        keep = keep.reshape(sq.shape)
        sq *= keep  # an inf dropped here makes the loss NaN
    out = sq.sum()
    del sq

    def vjp(g):
        if keep is None:
            gd = np.multiply(g, d)
        else:
            gd = np.multiply(g, keep)
            gd *= d
        return (np.add(gd, gd, out=gd),)

    return T.custom(out, (pred,), vjp)


# each tuned parameter and the box its sign steps are clamped to
BOXES = {"v": (-0.5, 0.5), "alpha": (0.5, 1.5), "beta": (0.5, 1.5)}


@dataclass
class BlockTuneResult:
    """One block's tuning run.

    ``learned`` maps each tuned layer, in block order, to the best
    iterate's :func:`codecs.quantize_layer` arguments: ``v``, the
    per-element rounding offset in [-0.5, 0.5]; ``alpha``, the per-group
    scale multiplier in [0.5, 1.5]; and ``beta``, the minmax-mode
    lower-range multiplier, ones when inert. In
    :attr:`QuantizeResult.tuned`, whose blocks are packed, each name maps
    to None.
    """
    block: int
    learned: dict
    initial_loss: float
    final_loss: float
    best_step: int
    history: list = field(repr=False)


def tune_block(model, block: int, inputs, schemes: dict, cfg: TuneConfig, *,
               init_scales: dict | None = None) -> BlockTuneResult:
    """Tune one block's :func:`tuned_layers` against its fp outputs.

    ``inputs`` are the block's input activations, (samples, ...); the
    regression targets are the full-precision block outputs on those
    inputs. The other layers in ``schemes`` (microscaling and 16-bit)
    ride along frozen at their :func:`codecs.quantize_layer` weights.
    ``init_scales`` maps layer names to searched scales; only this
    block's layers are looked up.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] < 1:
        raise ContractError("no calibration inputs")
    names = [n for n in model.block_layer_names(block) if n in schemes]
    unknown = set(schemes) - set(names)
    if unknown:
        raise ContractError(f"layers {sorted(unknown)} not in block {block}")
    tuned_names = tuned_layers({n: schemes[n] for n in names}, cfg)
    if not tuned_names:
        raise ContractError(f"block {block} has no tunable layers")

    frozen = {n: codecs.quantize_layer(model.params[n], schemes[n])[0]
              for n in names if n not in tuned_names}
    targets = _forward_rows(model, block, inputs, cfg.batch_size)

    s_init = init_scales or {}
    theta = {}
    for n in tuned_names:
        w = model.params[n]
        n_g = len(codecs.group_starts(w.shape[0], schemes[n].group_size))
        theta[n] = {"v": np.zeros_like(w, dtype=np.float64),
                    "alpha": np.ones((n_g, w.shape[1])),
                    "beta": np.ones((n_g, w.shape[1]))}

    rng = np.random.default_rng((cfg.seed, block))
    n_samples = inputs.shape[0]
    take = min(cfg.batch_size, n_samples)
    history = []
    best = None
    # steps updates, steps+1 evaluations: every iterate is measured.
    # An iterate's arrays are never written to, so the best one is kept
    # by reference.
    for step in range(cfg.steps + 1):
        idx = rng.choice(n_samples, size=take, replace=False)
        lval, next_theta = _tuning_step(
            model, block, inputs[idx], targets[idx], frozen, schemes, theta,
            s_init, cfg, last=step == cfg.steps)
        if not np.isfinite(lval):
            raise NumericError(
                f"non-finite tuning loss at step {step} in block {block}")
        history.append(lval)
        if best is None or lval < best[0]:
            best = (lval, step, theta)
        theta = next_theta

    best_loss, best_step, best_theta = best
    return BlockTuneResult(block, best_theta, history[0], best_loss,
                           best_step, history)


def _tuning_step(model, block, x, target, frozen, schemes, theta, init_scales,
                 cfg, last):
    """The trimmed loss at ``theta`` on one batch and, unless ``last`` or
    the loss is not finite, the next iterate: one clamped sign step per
    parameter. The last evaluation runs no backward, so its leaves
    require no gradient and it builds no graph. The leaves and the graph
    die on return.
    """
    over = dict(frozen)
    leaves = {}
    for n, th in theta.items():
        sch = schemes[n]
        leaves[n] = [T.Tensor(th[k], requires_grad=not last) for k in BOXES]
        # beta is unused under searched scales: its gradient is zero,
        # so its sign step leaves it at exactly 1
        over[n] = codecs.uniform_qdq_graph(
            model.params[n], sch.bits, sch.group_size, *leaves[n],
            init_scales=init_scales.get(n))
    pred = model.block_forward(block, x, overrides=over)
    del over  # the graph alone holds what its VJPs read of the weights
    loss = trimmed_mse(pred, target, cfg.trim_fraction)
    del pred
    lval = loss.item()
    if last or not np.isfinite(lval):
        return lval, None
    # the next iterate's arrays, taken while the graph is alive: they sit
    # above its arrays in the heap, so freeing the graph leaves no large
    # free top for the allocator to trim and fault in again next step
    nxt = {n: {k: np.empty_like(a) for k, a in th.items()}
           for n, th in theta.items()}
    grads = T.backward(loss, wrt=[t for ts in leaves.values() for t in ts])
    for n, th in theta.items():
        for k, t in zip(BOXES, leaves[n]):
            _sign_step(th[k], grads.pop(t), cfg.lr, BOXES[k], nxt[n][k])
    return lval, nxt


def _sign_step(th, grad, lr, box, out):
    """clip(th - lr * sign(grad), *box), written into ``out``; ``grad``
    is overwritten."""
    np.sign(grad, out=grad)
    grad *= lr
    np.subtract(th, grad, out=out)
    return np.clip(out, *box, out=out)


def _forward_rows(model, block: int, x, rows: int, overrides=None):
    """``model.block_forward`` over ``x`` at most ``rows`` rows at a time,
    joined in row order, as an array shaped like ``x`` (a block keeps
    its input's shape). Every op in a block is row-wise, so the bits are
    those of one call over all of ``x``; the arrays alive at once are
    one batch's."""
    out = np.empty_like(x)
    for i in range(0, len(x), rows):
        out[i:i + rows] = model.block_forward(block, x[i:i + rows],
                                              overrides=overrides).data
    return out


def tuned_layers(plan: dict, cfg: TuneConfig) -> list:
    """The layers a run of ``cfg`` over ``plan`` tunes, in plan order:
    the int-sym layers when ``cfg.steps`` is at least 1, else none."""
    if cfg.steps < 1:
        return []
    return [n for n, s in plan.items() if s.family == "int-sym"]


def plan_from_assignment(names, bits, family: str,
                         group_size: int = 32) -> dict:
    """Map layer names to schemes for a per-layer bit assignment."""
    names = list(names)
    bits = list(bits)
    if len(names) != len(bits):
        raise ContractError(f"{len(names)} names but {len(bits)} bit choices")
    return {n: scheme_for_bits(family, b, group_size)
            for n, b in zip(names, bits)}


@dataclass
class QuantizeResult:
    packed: dict        # name -> PackedWeights
    tuned: list         # BlockTuneResult per tuned block
    metrics: dict

    @property
    def weights(self) -> dict:
        """name -> final dequantized weight, decoded from ``packed`` on
        each read: a payload decodes to its eval weight bit for bit."""
        return {n: pw.dequantize() for n, pw in self.packed.items()}


def quantize_model(model, plan: dict, calib_batches, cfg: TuneConfig,
                   eval_batches=None) -> QuantizeResult:
    """Quantize a model per a layer->scheme plan.

    One walk visits the blocks in order and then the head. Each block
    holding a layer of :func:`tuned_layers` is tuned, on the calibration
    inputs as the quantized blocks before it leave them; initial scales
    are searched for such a run when ``use_scale_init`` is set, one
    layer per job in worker processes (:func:`workers.map_ordered`),
    into one layer -> scales map that every block's tuning reads.
    Otherwise the calibration batches go unread and every layer is
    round-to-nearest. Every plan layer, 16-bit and the head included,
    then gets its payload from one :func:`codecs.quantize_layer` call,
    with the block's learned parameters when it was tuned; the head is
    never tuned. The walk holds float weights for one block at a time,
    and forwards and tunes at most ``cfg.batch_size`` rows at once.
    ``eval_batches`` go through each block beside the walk, under its
    eval weights, and the head's loss over them is
    :meth:`~lowbit.models.ToyModel.eval_loss`'s, so nothing is decoded
    after the walk.
    """
    for name in plan:
        model.layer_info(name)  # raises for a layer that does not quantize
    tunes = tuned_layers(plan, cfg)

    init_scales = {}
    if tunes and cfg.use_scale_init:
        stats = scale_init.calibrate_act_stats(model, calib_batches)

        def search(n):
            return scale_init.search_layer_scales(
                model.params[n], stats[n], plan[n].bits, plan[n].group_size)
        init_scales = dict(zip(tunes, map_ordered(search, tunes)))

    packed, tuned, metrics = {}, [], {}
    blocks = model.block_ids()
    if tunes:
        ids = np.concatenate([np.asarray(b) for b in calib_batches], axis=0)
        x = model.embed_forward(ids)
    if eval_batches is not None:
        evals = [model.embed_forward(ids) for ids in eval_batches]
    for block in [*blocks, None]:  # None is the head
        bnames = [n for n in model.block_layer_names(block) if n in plan]
        learned = {}
        if block is not None and any(n in tunes for n in bnames):
            res = tune_block(model, block, x, {n: plan[n] for n in bnames},
                             cfg, init_scales=init_scales)
            learned = res.learned
            # the payloads below carry the learned arrays: keep the names
            tuned.append(replace(res, learned=dict.fromkeys(learned)))
        deq = {}  # this block's eval weights, dropped with the block
        for n in bnames:
            deq[n], packed[n] = codecs.quantize_layer(
                model.params[n], plan[n], init_scales=init_scales.get(n),
                **learned.pop(n, {}))
        if tunes and block in blocks[:-1]:  # nothing reads the last output
            x = _forward_rows(model, block, x, cfg.batch_size, overrides=deq)
        if eval_batches is not None and block is not None:
            for i, e in enumerate(evals):
                evals[i] = model.block_forward(block, e, overrides=deq).data
        elif eval_batches is not None:
            metrics["quantized_loss"] = model.eval_loss(
                eval_batches, weights=deq, start=len(blocks), xs=evals)
        del deq  # not held while the next block tunes
    return QuantizeResult(packed, tuned, metrics)
