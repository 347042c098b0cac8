"""Seeded toy language models and calibration data.

Two architectures, both built on the in-package tensor engine:

* ``mlp``: token embedding followed by a stack of square GELU layers
  and a vocabulary head. Each layer doubles as its own tuning block.
* ``tiny-transformer``: pre-norm decoder blocks (causal multi-head
  attention plus a GELU MLP, RMS-normalized) between a token+position
  embedding and a normalized head.

Construction is fully determined by ``ModelSpec.seed``; the same
``ModelSpec`` always yields bit-identical parameters. Forward passes accept weight
overrides (graph tensors replacing stored arrays) and input taps, which
is how probing, tuning, and quantized evaluation are wired without the
model knowing about any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, IngestionError, NumericError

ARCH_MLP = "mlp"
ARCH_TT = "tiny-transformer"

EVAL_SEED_OFFSET = 7919  # held-out eval stream, disjoint from calibration


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    hidden: int
    n_blocks: int
    vocab: int
    n_heads: int = 4
    ffn_mult: int = 4
    max_seq: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.arch not in (ARCH_MLP, ARCH_TT):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.vocab < 2 or self.hidden < 2 or self.n_blocks < 1:
            raise ConfigError("model dimensions too small")
        if self.arch != ARCH_TT:
            return
        if min(self.n_heads, self.ffn_mult, self.max_seq) < 1:
            raise ConfigError("n_heads, ffn_mult and max_seq must be >= 1")
        if self.hidden % self.n_heads:
            raise ConfigError(
                f"hidden {self.hidden} not divisible by {self.n_heads} heads")


@dataclass(frozen=True)
class LayerInfo:
    """A quantizable (linear) layer; ``block`` is None for the head.
    Embeddings and norm gains are in ``ToyModel.params`` only."""

    name: str
    shape: tuple
    block: int | None = None

    @property
    def n_params(self) -> int:
        return int(np.prod(self.shape))


class ToyModel:
    def __init__(self, spec: ModelSpec, params: dict, infos: list):
        self.spec = spec
        self.params = params
        self._infos = infos

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, spec: ModelSpec) -> "ToyModel":
        rng = np.random.default_rng(spec.seed)
        p: dict[str, np.ndarray] = {}
        infos: list[LayerInfo] = []
        d, v = spec.hidden, spec.vocab

        def linear(name, fan_in, fan_out, block=None):
            p[name] = rng.normal(0.0, fan_in ** -0.5, size=(fan_in, fan_out))
            infos.append(LayerInfo(name, (fan_in, fan_out), block))

        p["embed"] = rng.normal(0.0, 1.0, size=(v, d))
        if spec.arch == ARCH_TT:
            p["pos_embed"] = rng.normal(0.0, 0.3, size=(spec.max_seq, d))
            f = d * spec.ffn_mult
            for b in range(spec.n_blocks):
                for proj in ("wq", "wk", "wv", "wo"):
                    linear(f"blocks.{b}.attn.{proj}", d, d, block=b)
                linear(f"blocks.{b}.mlp.up", d, f, block=b)
                linear(f"blocks.{b}.mlp.down", f, d, block=b)
                for g in ("norm1", "norm2"):
                    p[f"blocks.{b}.{g}.g"] = np.ones(d)
            p["final_norm.g"] = np.ones(d)
        else:
            for b in range(spec.n_blocks):
                linear(f"layers.{b}", d, d, block=b)
        linear("head", d, v)
        return cls(spec, p, infos)

    # ------------------------------------------------------------------
    # structure queries

    def quantizable_layers(self) -> list:
        return list(self._infos)

    def layer_info(self, name: str) -> LayerInfo:
        for i in self._infos:
            if i.name == name:
                return i
        raise ContractError(f"no quantizable layer named {name!r}")

    def block_ids(self) -> list:
        return list(range(self.spec.n_blocks))

    def block_layer_names(self, block: int) -> list:
        return [i.name for i in self._infos if i.block == block]

    # ------------------------------------------------------------------
    # forward

    def _w(self, name, overrides):
        if overrides and name in overrides:
            w = overrides[name]
            return w if isinstance(w, T.Tensor) else T.Tensor(w)
        return T.Tensor(self.params[name])

    def _apply_linear(self, name, x, ctx):
        if ctx["taps"] and name in ctx["taps"]:
            x = ctx["taps"][name](x)
        return T.matmul(x, self._w(name, ctx["overrides"]))

    def _rmsnorm(self, x, gain_name, ctx):
        ms = T.mean(T.mul(x, x), axis=-1, keepdims=True)
        inv = T.power(T.add(ms, T.Tensor(1e-6)), -0.5)
        return T.mul(T.mul(x, inv), self._w(gain_name, ctx["overrides"]))

    def _attn(self, b, x, ctx):
        bsz, t, d = x.shape
        h = self.spec.n_heads
        dh = d // h

        def heads(name):
            y = self._apply_linear(f"blocks.{b}.attn.{name}", x, ctx)
            return T.transpose(T.reshape(y, (bsz, t, h, dh)), (0, 2, 1, 3))

        q, k, v = heads("wq"), heads("wk"), heads("wv")
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                       T.Tensor(1.0 / math.sqrt(dh)))
        mask = np.triu(np.full((t, t), -1e9), k=1)
        att = T.softmax(T.add(scores, T.Tensor(mask)))
        out = T.matmul(att, v)
        out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (bsz, t, d))
        return self._apply_linear(f"blocks.{b}.attn.wo", out, ctx)

    def _block(self, b, x, ctx):
        if self.spec.arch == ARCH_MLP:
            return T.gelu(self._apply_linear(f"layers.{b}", x, ctx))
        a = self._attn(b, self._rmsnorm(x, f"blocks.{b}.norm1.g", ctx), ctx)
        x = T.add(x, a)
        hdn = T.gelu(self._apply_linear(
            f"blocks.{b}.mlp.up", self._rmsnorm(x, f"blocks.{b}.norm2.g", ctx), ctx))
        m = self._apply_linear(f"blocks.{b}.mlp.down", hdn, ctx)
        return T.add(x, m)

    def _embed(self, ids, ctx):
        ids = np.asarray(ids)
        x = T.take(self._w("embed", ctx["overrides"]), ids)
        if self.spec.arch == ARCH_TT:
            t = ids.shape[1]
            if t > self.spec.max_seq:
                raise ContractError(f"sequence of {t} exceeds max_seq {self.spec.max_seq}")
            pos = T.take(self._w("pos_embed", ctx["overrides"]), np.arange(t))
            x = T.add(x, pos)
        return x

    def _head(self, x, ctx):
        if self.spec.arch == ARCH_TT:
            x = self._rmsnorm(x, "final_norm.g", ctx)
        return self._apply_linear("head", x, ctx)

    @staticmethod
    def _ctx(overrides=None, taps=None):
        return {"overrides": overrides or {}, "taps": taps or {}}

    def forward(self, ids, overrides=None, taps=None, start=0, x=None):
        """Logits Tensor for a (batch, seq) id array.

        ``overrides`` maps parameter name to a replacement weight
        (Tensor or array); ``taps`` maps layer name to a callable
        rewriting that layer's input tensor (a tap that returns its input
        unchanged just records it). With ``x`` (array or Tensor) given,
        the pass skips the embedding and starts at block ``start``'s
        input, ``start == n_blocks`` being the head's; blocks before
        ``start`` and ``ids`` go unread.
        """
        ctx = self._ctx(overrides, taps)
        if x is None:
            x = self._embed(ids, ctx)
        elif not isinstance(x, T.Tensor):
            x = T.Tensor(x)
        for b in range(start, self.spec.n_blocks):
            x = self._block(b, x, ctx)
        return self._head(x, ctx)

    def loss(self, ids, overrides=None, taps=None, start=0, x=None):
        """(mean next-token cross-entropy over the batch, logits); the
        arguments are ``forward``'s."""
        logits = self.forward(ids, overrides, taps, start, x)
        return _next_token_loss(logits, ids), logits

    def eval_loss(self, batches, weights=None) -> float:
        """Mean loss over batches with optional plain-array overrides."""
        total = 0.0
        for ids in batches:
            loss, _ = self.loss(ids, overrides=weights)
            total += loss.item()
        return total / len(batches)

    # ------------------------------------------------------------------
    # block-level entry points for the tuner and the fp prefixes that
    # ``forward(..., start, x)`` resumes from; chained, they run the same
    # ops on the same inputs as ``forward``

    def embed_forward(self, ids) -> np.ndarray:
        return self._embed(ids, self._ctx()).data

    def block_forward(self, block: int, x, overrides=None, taps=None) -> T.Tensor:
        if not isinstance(x, T.Tensor):
            x = T.Tensor(x)
        return self._block(block, x, self._ctx(overrides, taps))


def _next_token_loss(logits: T.Tensor, ids) -> T.Tensor:
    """Cross-entropy of each position's logits against the next token."""
    bsz, t, v = logits.shape
    if t < 2:
        raise ContractError("need at least 2 positions for next-token loss")
    pred = T.reshape(T.narrow(logits, 1, 0, t - 1), (bsz * (t - 1), v))
    return T.cross_entropy(pred, np.asarray(ids)[:, 1:].reshape(-1))


def train_model(model: ToyModel, batches, steps: int, lr: float) -> None:
    """Plain full-precision gradient descent, cycling over batches.

    Toy models are built at random init, where quantizing a layer can
    genuinely lower the loss; the quantization pipeline presumes weights
    near a minimum. A short seeded training run puts them there. Updates
    ``model.params`` in place; a non-finite loss or parameter raises
    NumericError naming the step.
    """
    if steps < 0 or lr <= 0:
        raise ContractError("need steps >= 0 and lr > 0")
    names = list(model.params)
    for step in range(steps):
        ids = batches[step % len(batches)]
        leaves = {n: T.Tensor(model.params[n], requires_grad=True) for n in names}
        loss, _ = model.loss(ids, overrides=leaves)
        grads = T.backward(loss, wrt=list(leaves.values()))
        for n in names:
            model.params[n] = model.params[n] - lr * grads[leaves[n]]
        if not (math.isfinite(loss.item()) and all(
                np.isfinite(model.params[n]).all() for n in names)):
            raise NumericError(f"training diverged at step {step}: "
                               f"non-finite loss or parameters (lr {lr})")


def trained_toy(spec: ModelSpec, n_samples: int = 16, seq_len: int = 32,
                batch_size: int = 8, steps: int = 150, lr: float = 0.5,
                source: str = "synthetic"):
    """Build-and-train convenience for test fixtures.

    Returns (model, calibration batches). Fully determined by
    ``spec.seed``: data and training schedule derive from it. ``source`` picks
    the token stream: "synthetic" (Zipf, i.i.d.) or "markov".
    """
    model = ToyModel.build(spec)
    cal = load_calibration(source, spec.vocab, n_samples, seq_len, batch_size,
                           seed=spec.seed)
    train_model(model, cal, steps, lr)
    return model, cal


# ---------------------------------------------------------------------------
# calibration data


def batched(rows: np.ndarray, batch_size: int) -> list:
    """Consecutive ``batch_size`` chunks of rows; a smaller trailing
    batch is kept."""
    return [rows[i:i + batch_size] for i in range(0, len(rows), batch_size)]


def zipf_probs(vocab: int, exponent: float = 1.1) -> np.ndarray:
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    p = ranks ** -exponent
    return p / p.sum()


def synthetic_batches(vocab: int, n_samples: int, seq_len: int,
                      batch_size: int, seed: int) -> list:
    """Seeded Zipf-distributed token batches.

    Token identity is decoupled from frequency rank by a seeded
    permutation. n_samples rows are split into batch_size chunks; a
    smaller trailing batch is kept.
    """
    if n_samples < 1 or batch_size < 1 or seq_len < 2:
        raise ContractError("need n_samples >= 1, batch_size >= 1, seq_len >= 2")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(vocab)
    rows = perm[rng.choice(vocab, size=(n_samples, seq_len), p=zipf_probs(vocab))]
    return batched(rows, batch_size)


def markov_transition(vocab: int, chain_seed: int = 101) -> np.ndarray:
    """Row-stochastic transition matrix with Zipf-shaped rows.

    Each row spreads Zipf weights over a seeded permutation of targets,
    so every token has a few strongly preferred successors. The chain
    gives toy data learnable sequential structure: models trained on it
    generalize to held-out samples instead of memorizing.
    """
    if vocab < 2:
        raise ContractError("need vocab >= 2")
    crng = np.random.default_rng(chain_seed)
    ranks = np.arange(1, vocab + 1, dtype=np.float64) ** -1.4
    rows = np.stack([ranks[crng.permutation(vocab)] for _ in range(vocab)])
    return rows / rows.sum(axis=1, keepdims=True)


def markov_batches(vocab: int, n_samples: int, seq_len: int, batch_size: int,
                   seed: int, chain_seed: int = 101) -> list:
    """Seeded batches sampled from a fixed Markov chain.

    ``chain_seed`` fixes the language; ``seed`` picks the sample. Two
    streams with different seeds over the same chain are matched
    train/held-out sets.
    """
    if n_samples < 1 or batch_size < 1 or seq_len < 2:
        raise ContractError("need n_samples >= 1, batch_size >= 1, seq_len >= 2")
    cum = np.cumsum(markov_transition(vocab, chain_seed), axis=1)
    cum[:, -1] = 1.0  # guard the strict inequality against rounding
    rng = np.random.default_rng(seed)
    ids = np.empty((n_samples, seq_len), dtype=np.int64)
    ids[:, 0] = rng.integers(0, vocab, size=n_samples)
    for t in range(1, seq_len):
        u = rng.random(n_samples)
        ids[:, t] = (cum[ids[:, t - 1]] > u[:, None]).argmax(axis=1)
    return batched(ids, batch_size)


def read_token_file(path, vocab: int, seq_len: int, n_samples: int) -> np.ndarray:
    """Parse one space-separated token sequence per line.

    Rows are truncated or zero-padded to seq_len. Raises on malformed
    or out-of-range tokens (with the line number) and when the file has
    fewer usable lines than requested; sequences are never repeated to
    fill a shortfall.
    """
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                toks = [int(tok) for tok in line.split()]
            except ValueError as e:
                raise IngestionError(f"{path}:{lineno}: not an integer token: {e}")
            bad = [t for t in toks if t < 0 or t >= vocab]
            if bad:
                raise IngestionError(
                    f"{path}:{lineno}: token {bad[0]} outside vocab [0, {vocab})")
            row = toks[:seq_len] + [0] * max(0, seq_len - len(toks))
            rows.append(row)
    if len(rows) < n_samples:
        raise IngestionError(
            f"insufficient samples: requested {n_samples}, {path} has {len(rows)}")
    return np.asarray(rows[:n_samples], dtype=np.int64)


def load_calibration(source: str, vocab: int, n_samples: int, seq_len: int,
                     batch_size: int, seed: int) -> list:
    if source == "synthetic":
        return synthetic_batches(vocab, n_samples, seq_len, batch_size, seed)
    if source == "markov":
        return markov_batches(vocab, n_samples, seq_len, batch_size, seed)
    return batched(read_token_file(source, vocab, seq_len, n_samples),
                   batch_size)


def eval_batches(spec: ModelSpec, n_samples: int, seq_len: int,
                 batch_size: int, seed: int,
                 source: str = "synthetic") -> list:
    """Held-out stream: same generator family, disjoint seed."""
    gen = markov_batches if source == "markov" else synthetic_batches
    return gen(spec.vocab, n_samples, seq_len, batch_size,
               seed + EVAL_SEED_OFFSET)
