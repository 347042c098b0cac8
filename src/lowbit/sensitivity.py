"""Per-layer loss-impact scores that drive bit allocation.

For each layer and each candidate bit option, estimate how much the
task loss moves if that layer alone is quantized, using the gradient at
the perturbed point folded with the perturbation itself:

    weight-only option:  sum |g_w * (W_full - W_qdq)|
    weight+act option:   sum |g_a * (A_full - A_qdq)|

averaged over calibration batches. The gradient is always taken at the
quantized point. One forward/backward per layer per option buys scores
whose per-layer ranking tracks the true loss change, which is all the
allocator consumes. Each probe's forward starts at the probed layer's
block, from fp block inputs computed once per batch, and its backward
computes a gradient only for the probed leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .codecs import QuantScheme, mx_qdq, quantize_layer, scheme_for_bits
from .errors import ContractError


def option_set(family: str, bits_list, group_size: int = 32) -> list:
    """Concrete schemes for a list of bit widths, ascending."""
    if not bits_list:
        raise ContractError("empty option set")
    return [scheme_for_bits(family, b, group_size)
            for b in sorted({int(b) for b in bits_list})]


def rtn_weight(w: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Round-to-nearest qdq of a whole layer, no learned parameters."""
    return quantize_layer(w, scheme)[0]


def deviation_score(grad: np.ndarray, deviation: np.ndarray) -> float:
    return float(np.abs(grad * deviation).sum())


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


def _check_probe_target(model, layer_name):
    info = model.layer_info(layer_name)
    if info.kind != "linear":
        raise ContractError(f"layer {layer_name!r} has no quantizable weight")
    return info


def _probe_loss(model, info, ids, xs, overrides, taps=None):
    """``model.loss`` with the overrides and taps on ``info``'s layer, run
    from the fp input ``xs`` of that layer's block (``head`` has none)."""
    start = model.spec.n_blocks if info.block is None else info.block
    x = xs[start]
    for b in range(start, model.spec.n_blocks):
        x = model.block_forward(b, x, overrides=overrides, taps=taps)
    return model.head_loss_from_hidden(x, ids, overrides=overrides, taps=taps)


def delta_loss_weight_only(model, layer_name: str, scheme: QuantScheme,
                           calib_batches, prefixes=None) -> float:
    """Loss-impact score for a weight-only option on one layer.

    ``prefixes`` is ``fp_prefixes(model, calib_batches)``, computed here
    when not given.
    """
    info = _check_probe_target(model, layer_name)
    w_f = model.params[layer_name]
    w_q = rtn_weight(w_f, scheme)
    dev = w_f - w_q
    if not np.any(dev):
        return 0.0
    if prefixes is None:
        prefixes = fp_prefixes(model, calib_batches)
    total = 0.0
    for ids, xs in zip(calib_batches, prefixes):
        leaf = T.Tensor(w_q, requires_grad=True)
        loss = _probe_loss(model, info, ids, xs, {layer_name: leaf})
        g = T.backward(loss, wrt=[leaf])[leaf]
        total += deviation_score(g, dev)
    return total / len(calib_batches)


def delta_loss_weight_act(model, layer_name: str, scheme: QuantScheme,
                          calib_batches, prefixes=None) -> float:
    """Loss-impact score for a weight+activation option on one layer.

    The weight term is dropped; the score folds the activation gradient
    with the activation's own qdq deviation. The probe forward still
    runs with the layer's weight quantized so the gradient is taken in
    a realistic operating point. ``prefixes`` is as for
    :func:`delta_loss_weight_only`.
    """
    info = _check_probe_target(model, layer_name)
    if not scheme.quantizes_acts:
        raise ContractError(f"{scheme.label} does not quantize activations")
    fmt = scheme.mx_format
    overrides = {layer_name: T.Tensor(rtn_weight(model.params[layer_name], scheme))}
    if prefixes is None:
        prefixes = fp_prefixes(model, calib_batches)
    total = 0.0
    for ids, xs in zip(calib_batches, prefixes):
        rec = {}

        def tap(x):
            rec["a_f"] = x.data
            rec["leaf"] = T.Tensor(mx_qdq(x.data, fmt)[0], requires_grad=True)
            return rec["leaf"]

        loss = _probe_loss(model, info, ids, xs, overrides, {layer_name: tap})
        leaf = rec["leaf"]
        g = T.backward(loss, wrt=[leaf])[leaf]
        total += deviation_score(g, rec["a_f"] - leaf.data)
    return total / len(calib_batches)


def _layer_score(model, layer_name, scheme, calib_batches, prefixes) -> float:
    if scheme.family == "none":
        return 0.0
    score = (delta_loss_weight_act if scheme.quantizes_acts
             else delta_loss_weight_only)
    return score(model, layer_name, scheme, calib_batches, prefixes)


# ---------------------------------------------------------------------------
# report


@dataclass
class LayerScore:
    name: str
    params: int
    scores: dict = field(default_factory=dict)  # option label -> float


@dataclass
class SensitivityReport:
    family: str
    options: list  # QuantScheme, ascending bits
    layers: list   # LayerScore, model order
    calib_samples: int
    calib_seq_len: int

    def option_labels(self) -> list:
        return [s.label for s in self.options]

    def to_dict(self) -> dict:
        return {
            "schema": "lowbit/sensitivity-v1",
            "family": self.family,
            "grads_at": "quantized",
            "calib": {"samples": self.calib_samples,
                      "seq_len": self.calib_seq_len},
            "options": [{"label": s.label, "bits": s.bits,
                         "group_size": s.group_size} for s in self.options],
            "layers": [{"name": l.name, "params": l.params,
                        "scores": {k: float(v) for k, v in sorted(l.scores.items())}}
                       for l in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SensitivityReport":
        if d.get("schema") != "lowbit/sensitivity-v1":
            raise ContractError(f"not a sensitivity report: {d.get('schema')!r}")
        family = d["family"]
        options = [scheme_for_bits(family, o["bits"], o["group_size"])
                   for o in d["options"]]
        layers = [LayerScore(l["name"], int(l["params"]),
                             {s.label: float(l["scores"][s.label])
                              for s in options})
                  for l in d["layers"]]
        return cls(family, options, layers, int(d["calib"]["samples"]),
                   int(d["calib"]["seq_len"]))


def build_report(model, schemes: list, calib_batches) -> SensitivityReport:
    """Score every quantizable layer under every option."""
    if not schemes:
        raise ContractError("empty option set")
    family = next((s.family for s in schemes if s.family != "none"), "none")
    prefixes = fp_prefixes(model, calib_batches)
    layers = []
    for info in model.quantizable_layers():
        ls = LayerScore(info.name, info.n_params)
        for scheme in schemes:
            ls.scores[scheme.label] = _layer_score(model, info.name, scheme,
                                                   calib_batches, prefixes)
        layers.append(ls)
    n_samples = sum(int(b.shape[0]) for b in calib_batches)
    seq_len = int(calib_batches[0].shape[1]) if calib_batches else 0
    return SensitivityReport(family, list(schemes), layers, n_samples, seq_len)
