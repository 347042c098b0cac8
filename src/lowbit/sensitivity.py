"""Per-layer loss-impact scores that drive bit allocation.

For each layer and each candidate bit option, estimate how much the
task loss moves if that layer alone is quantized, using the gradient at
the perturbed point folded with the perturbation itself:

    sum |g_leaf * (leaf_full - leaf_qdq)|

averaged over calibration batches. One probe serves every option: its
leaf is the layer's weight, or for an MX option, which quantizes both
matmul operands, the layer's input. The gradient is always taken at the
quantized point, with the layer's weight quantized for either leaf.
One forward/backward per layer per option buys scores whose per-layer
ranking tracks the true loss change, which is all the allocator
consumes. Each probe's forward starts at the probed layer's block, from
fp block inputs computed once per batch, and its backward computes a
gradient only for the probed leaf.

:func:`build_report` returns the scores as a plain JSON dict, the
``lowbit/sensitivity-v1`` form that ``sensitivity.json`` holds; that
dict is a report's only form, and
:meth:`allocator.AllocationProblem.from_report` reads it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .allocator import SENSITIVITY_SCHEMA
from .codecs import mx_qdq, quantize_layer
# sensitivity.option_set stays: it names the schemes a report scores
from .spec import QuantScheme, option_set
from .workers import map_ordered


def rtn_weight(w: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Round-to-nearest qdq of a whole layer, no learned parameters."""
    return quantize_layer(w, scheme)[0]


def deviation_score(grad: np.ndarray, deviation: np.ndarray) -> float:
    """sum |grad * deviation|, through one temporary; neither input is
    written."""
    prod = np.multiply(grad, deviation)
    return float(np.abs(prod, out=prod).sum())


def fp_prefixes(model, calib_batches) -> list:
    """Per batch, the fp hidden state entering each block, then the last
    block's output: ``prefixes[i][b]`` is block ``b``'s input on batch ``i``.

    Quantizing one layer leaves everything in front of its block as it
    is, so every probe starts from these instead of from the embedding.
    """
    prefixes = []
    for ids in calib_batches:
        xs = [model.embed_forward(ids)]
        for b in model.block_ids():
            xs.append(model.block_forward(b, xs[-1]).data)
        prefixes.append(xs)
    return prefixes


def delta_loss(model, layer_name: str, scheme: QuantScheme, calib_batches,
               prefixes=None) -> float:
    """Loss-impact score of quantizing one layer under ``scheme``.

    Every probe runs with the layer's weight at its RTN value ``w_q``.
    The leaf is ``w_q`` itself, scored against ``w - w_q``, or for an MX
    scheme the layer's quantized input, scored against the fp input.
    ``prefixes`` is ``fp_prefixes(model, calib_batches)``, computed here
    when not given.
    """
    block = model.layer_info(layer_name).block  # None: the head's input
    start = model.spec.n_blocks if block is None else block
    w = model.params[layer_name]
    w_q = rtn_weight(w, scheme)
    acts = scheme.quantizes_acts
    if not acts and not np.any(w - w_q):
        return 0.0
    if prefixes is None:
        prefixes = fp_prefixes(model, calib_batches)
    total = 0.0
    for ids, xs in zip(calib_batches, prefixes):
        # the leaf is the quantized weight unless the tap swaps in the
        # quantized input; "fp" is the value the leaf stands in for
        probe = {"fp": w, "leaf": T.Tensor(w_q, requires_grad=not acts)}

        def tap(x):
            probe["fp"] = x.data
            probe["leaf"] = T.Tensor(mx_qdq(x.data, scheme.mx_format)[0],
                                     requires_grad=True)
            return probe["leaf"]

        loss, _ = model.loss(ids, {layer_name: probe["leaf"]},
                             {layer_name: tap} if acts else None,
                             start, xs[start])
        leaf = probe["leaf"]
        g = T.backward(loss, wrt=[leaf])[leaf]
        total += deviation_score(g, probe["fp"] - leaf.data)
    return total / len(calib_batches)


# acceptance criterion 6 scores layers under this name
delta_loss_weight_only = delta_loss


def build_report(model, schemes: list, calib_batches) -> dict:
    """Score every quantizable layer under every option, as a report's
    JSON dict.

    The probes are independent, so they run in worker processes
    (:func:`workers.map_ordered`); each still averages its calibration
    batches in batch order, so the scores keep their bits.
    """
    family = next((s.family for s in schemes if s.family != "none"), "none")
    prefixes = fp_prefixes(model, calib_batches)
    infos = model.quantizable_layers()
    jobs = [(info.name, scheme) for info in infos for scheme in schemes]
    scores = iter(map_ordered(
        lambda job: delta_loss(model, *job, calib_batches, prefixes), jobs))
    n_samples = sum(int(b.shape[0]) for b in calib_batches)
    seq_len = int(calib_batches[0].shape[1]) if calib_batches else 0
    return {
        "schema": SENSITIVITY_SCHEMA,
        "family": family,
        "grads_at": "quantized",
        "calib": {"samples": n_samples, "seq_len": seq_len},
        "options": [{"label": s.label, "bits": s.bits,
                     "group_size": s.group_size} for s in schemes],
        "layers": [{"name": info.name, "params": info.n_params,
                    "scores": {s.label: next(scores) for s in schemes}}
                   for info in infos],
    }
