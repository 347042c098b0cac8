"""Seeded toy language models, calibration data and a run's fp model.

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

:func:`build_model` builds and trains the fp model of a run's config and
keeps its parameters in the output directory, so every command of the
run starts from the same trained weights without retraining. One
reader, :func:`token_file_rows`, splits a token file into calibration
rows and the held-out rows after them for both :func:`build_model` and
:func:`eval_set`, so every command rejects a file too short for both.
"""

from __future__ import annotations

import hashlib
import io
import math
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .config import GENERATED, RunConfig, canonical_json, write_atomic
from .errors import ContractError, IngestionError, NumericError
from .spec import ARCH_MLP, ARCH_TT, LayerInfo, ModelSpec, layer_table

EVAL_SEED_OFFSET = 7919  # held-out eval stream, disjoint from calibration
FP_MODEL_FILE = "fp_model.npz"
_KEY, _DIGEST = "__key__", "__digest__"  # no parameter takes these names


class ToyModel:
    def __init__(self, spec: ModelSpec, params: dict):
        self.spec = spec
        self.params = params
        self._infos = layer_table(spec)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, spec: ModelSpec) -> "ToyModel":
        """Seeded parameters: the embeddings, then one draw per
        ``layer_table`` row in table order. The norm gains are ones; in
        ``params``, a block's follow its linears, the last precedes the head."""
        rng = np.random.default_rng(spec.seed)
        tt = spec.arch == ARCH_TT
        d = spec.hidden
        p = {"embed": rng.normal(0.0, 1.0, size=(spec.vocab, d))}
        if tt:
            p["pos_embed"] = rng.normal(0.0, 0.3, size=(spec.max_seq, d))
        for info in layer_table(spec):
            if tt and info.block is None:
                p["final_norm.g"] = np.ones(d)
            p[info.name] = rng.normal(0.0, info.shape[0] ** -0.5, info.shape)
            if tt and info.name.endswith(".mlp.down"):
                for g in ("norm1", "norm2"):
                    p[f"blocks.{info.block}.{g}.g"] = np.ones(d)
        return cls(spec, p)

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

    Rows are truncated or zero-padded to seq_len. Raises on a file that
    is not UTF-8 text, on malformed or out-of-range tokens (with the line
    number) and when the file has fewer usable lines than requested;
    sequences are never repeated to fill a shortfall.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path}: not UTF-8 text: {e}") from None
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    """Batches of a generated source (:data:`config.GENERATED`) under
    ``seed``; a token file's rows come from :func:`token_file_rows`."""
    if source == "synthetic":
        return synthetic_batches(vocab, n_samples, seq_len, batch_size, seed)
    if source == "markov":
        return markov_batches(vocab, n_samples, seq_len, batch_size, seed)
    raise ContractError(f"{source!r} is not a generated source")


def eval_batches(spec: ModelSpec, n_samples: int, seq_len: int,
                 batch_size: int, seed: int,
                 source: str = "synthetic") -> list:
    """Held-out stream of a generated source, under a disjoint seed."""
    return load_calibration(source, spec.vocab, n_samples, seq_len,
                            batch_size, seed + EVAL_SEED_OFFSET)


# ---------------------------------------------------------------------------
# a run's fp model and held-out data


def build_model(cfg: RunConfig):
    """Trained toy model + calibration batches for this config.

    Training runs once per output directory: the trained parameters are
    kept in ``out_dir/fp_model.npz`` under a key of everything training
    depends on, and loaded instead of retrained while that key matches.
    A model with ``train_steps=0`` is cheaper to rebuild than to load
    and is never cached.
    """
    model = ToyModel.build(cfg.spec)
    if cfg.source in GENERATED:
        cal = load_calibration(cfg.source, cfg.spec.vocab, cfg.calib_samples,
                               cfg.seq_len, cfg.batch_size, cfg.seed)
    else:
        cal = batched(token_file_rows(cfg)[0], cfg.batch_size)
    if cfg.train_steps:
        path = cfg.out_dir / FP_MODEL_FILE
        key = _train_key(cfg, cal)
        params = _load_params(path, key, model.params)
        if params is None:
            train_model(model, cal, cfg.train_steps, cfg.train_lr)
            _save_params(path, key, model.params)
        else:
            model.params.update(params)
    return model, cal


def _digest_arrays(meta: dict, arrays) -> str:
    """sha256 of ``meta`` plus the dtype, shape and bytes of each array."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    meta = dict(meta, arrays=[[a.dtype.str, list(a.shape)] for a in arrays])
    h = hashlib.sha256(canonical_json(meta).encode())
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _train_key(cfg: RunConfig, cal: list) -> str:
    """Everything the trained parameters depend on: the model section,
    the seed, the calibration tokens, the package and numpy versions, and
    the source of the model and autodiff code (the package version does
    not change with every edit)."""
    sources = [hashlib.sha256(Path(f).read_bytes()).hexdigest()
               for f in (__file__, T.__file__)]
    meta = {"model": cfg.to_dict()["model"], "seed": cfg.seed,
            "versions": [__version__, np.__version__], "sources": sources}
    return _digest_arrays(meta, cal)


def _load_params(path: Path, key: str, like: dict):
    """The cached parameters, or None unless the file is intact, carries
    ``key`` and holds exactly the names, shapes and dtypes of ``like``."""
    try:
        with np.load(path, allow_pickle=False) as z:
            if (sorted(z.files) != sorted([*like, _KEY, _DIGEST])
                    or str(z[_KEY]) != key):
                return None
            params = {n: z[n] for n in like}
            digest = str(z[_DIGEST])
    except Exception:  # any unreadable file is a miss: retrain
        return None
    for n, a in like.items():
        if params[n].shape != a.shape or params[n].dtype != a.dtype:
            return None
    if _params_digest(params) != digest:
        return None
    return params


def _params_digest(params: dict) -> str:
    return _digest_arrays({"names": list(params)}, params.values())


def _save_params(path: Path, key: str, params: dict) -> None:
    buf = io.BytesIO()
    np.savez(buf, **params, **{_KEY: np.array(key),
                               _DIGEST: np.array(_params_digest(params))})
    write_atomic(path, buf.getvalue())


def token_file_rows(cfg: RunConfig) -> tuple:
    """(calibration rows, held-out rows) of ``cfg``'s token file: its
    first ``calib_samples`` rows and the ``eval_samples`` rows after
    them. A file too short for both raises, whichever rows are wanted."""
    rows = read_token_file(cfg.source, cfg.spec.vocab, cfg.seq_len,
                           cfg.calib_samples + cfg.eval_samples)
    return rows[:cfg.calib_samples], rows[cfg.calib_samples:]


def eval_set(cfg: RunConfig) -> list:
    """Held-out batches: a generated source's stream under a disjoint
    seed, or a token file's rows after its calibration rows."""
    if cfg.source in GENERATED:
        return eval_batches(cfg.spec, cfg.eval_samples, cfg.seq_len,
                            cfg.batch_size, cfg.seed, source=cfg.source)
    return batched(token_file_rows(cfg)[1], cfg.batch_size)
