"""Run configuration: INI file + command-line overrides -> RunConfig.

A run is fully described by one config file; every random choice in the
pipeline derives from its single seed, so equal configs give
byte-identical outputs. The canonical digest hashes the config's
semantic content (the output directory is location, not semantics, and
is excluded).
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, codecs, models, tensor
from .allocator import as_budget
from .errors import ConfigError, ContractError
from .tuner import TuneConfig

OUT_DIR_ENV = "LOWBIT_OUT_DIR"
FP_MODEL_FILE = "fp_model.npz"
_KEY, _DIGEST = "__key__", "__digest__"  # no parameter takes these names

DEFAULTS = {
    "model": {
        "arch": "mlp", "hidden": "32", "n_blocks": "2", "vocab": "32",
        "n_heads": "4", "ffn_mult": "2", "max_seq": "32",
        "train_steps": "300", "train_lr": "0.5",
    },
    "scheme": {
        "family": "int-sym", "options": "2,4,8", "group_size": "32",
        "target_bits": "8/3",
    },
    "tuning": {
        "steps": "", "lr": "", "batch_size": "8",
        "trim_fraction": "0.001", "use_scale_init": "true",
        "propagate_quantized": "true",
    },
    "data": {
        "source": "markov", "calib_samples": "64", "seq_len": "32",
        "batch_size": "8", "eval_samples": "16",
    },
    "run": {"seed": "21", "out_dir": ""},
}


@dataclass(frozen=True)
class RunConfig:
    spec: models.ModelSpec
    train_steps: int
    train_lr: float
    family: str
    options: tuple
    group_size: int
    target_bits: Fraction
    tune: TuneConfig
    source: str
    calib_samples: int
    seq_len: int
    batch_size: int
    eval_samples: int
    seed: int
    out_dir: Path

    def to_dict(self) -> dict:
        """Semantic content as JSON-ready primitives (out_dir excluded)."""
        s = self.spec
        return {
            "model": {"arch": s.arch, "hidden": s.hidden,
                      "n_blocks": s.n_blocks, "vocab": s.vocab,
                      "n_heads": s.n_heads, "ffn_mult": s.ffn_mult,
                      "max_seq": s.max_seq, "train_steps": self.train_steps,
                      "train_lr": self.train_lr},
            "scheme": {"family": self.family, "options": list(self.options),
                       "group_size": self.group_size,
                       "target_bits": str(self.target_bits)},
            "tuning": {"steps": self.tune.steps, "lr": self.tune.lr,
                       "batch_size": self.tune.batch_size,
                       "trim_fraction": self.tune.trim_fraction,
                       "use_scale_init": self.tune.use_scale_init,
                       "propagate_quantized": self.tune.propagate_quantized},
            "data": {"source": self.source,
                     "calib_samples": self.calib_samples,
                     "seq_len": self.seq_len, "batch_size": self.batch_size,
                     "eval_samples": self.eval_samples},
            "run": {"seed": self.seed},
        }

    def digest(self) -> str:
        return digest_of(self.to_dict())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _get(parser, section, key, conv, path):
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, ArithmeticError):
        raise ConfigError(f"{path}: cannot parse {raw!r}") from None


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def apply_overrides(parser, sets) -> None:
    """Apply "section.key=value" strings on top of the parsed file."""
    for item in sets or ():
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(
                f"override {item!r} is not of the form section.key=value")
        section, key = head.split(".", 1)
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown config field {section}.{key}")
        parser.set(section, key, value)


def load_config(path=None, sets=()) -> RunConfig:
    """Build a RunConfig from defaults, an optional INI file, overrides."""
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file {p} does not exist")
        try:
            with open(p) as fh:
                parser.read_file(fh)
        except configparser.Error as e:
            raise ConfigError(f"{p}: {e}") from None
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser.options(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown config field {section}.{key}")
    apply_overrides(parser, sets)

    try:
        spec = models.ModelSpec(
            arch=parser.get("model", "arch"),
            hidden=_get(parser, "model", "hidden", int, "model.hidden"),
            n_blocks=_get(parser, "model", "n_blocks", int, "model.n_blocks"),
            vocab=_get(parser, "model", "vocab", int, "model.vocab"),
            n_heads=_get(parser, "model", "n_heads", int, "model.n_heads"),
            ffn_mult=_get(parser, "model", "ffn_mult", int, "model.ffn_mult"),
            max_seq=_get(parser, "model", "max_seq", int, "model.max_seq"),
            seed=_get(parser, "run", "seed", int, "run.seed"),
        )
    except ConfigError as e:
        raise ConfigError(f"model: {e}") from None

    family = parser.get("scheme", "family")
    if family not in ("int-sym", "mxfp"):
        raise ConfigError(f"scheme.family: unknown family {family!r}")
    raw_opts = parser.get("scheme", "options")
    try:
        options = tuple(sorted({int(tok) for tok in raw_opts.split(",") if tok.strip()}))
    except ValueError:
        raise ConfigError(f"scheme.options: cannot parse {raw_opts!r}") from None
    if not options:
        raise ConfigError("scheme.options: need at least one option")
    group_size = _get(parser, "scheme", "group_size", int, "scheme.group_size")
    for b in options:
        try:
            codecs.scheme_for_bits(family, b, group_size)
        except ContractError as e:
            raise ConfigError(f"scheme: option {b}: {e}") from None

    raw_t = parser.get("scheme", "target_bits")
    try:
        target = as_budget(raw_t)
    except Exception:
        raise ConfigError(
            f"scheme.target_bits: cannot parse {raw_t!r} as a fraction") from None
    if not options[0] <= target <= options[-1]:
        raise ConfigError(
            f"scheme.target_bits: {raw_t} outside option range "
            f"[{options[0]}, {options[-1]}]")

    source = parser.get("data", "source")
    if source not in ("synthetic", "markov") and not Path(source).is_file():
        raise ConfigError(f"data.source: path {source!r} does not exist")
    calib_samples = _get(parser, "data", "calib_samples", int,
                         "data.calib_samples")
    seq_len = _get(parser, "data", "seq_len", int, "data.seq_len")
    batch_size = _get(parser, "data", "batch_size", int, "data.batch_size")
    eval_samples = _get(parser, "data", "eval_samples", int,
                        "data.eval_samples")
    if min(calib_samples, batch_size, eval_samples) < 1 or seq_len < 2:
        raise ConfigError("data: sample counts must be >= 1 and seq_len >= 2")

    tune_kw = dict(
        batch_size=_get(parser, "tuning", "batch_size", int,
                        "tuning.batch_size"),
        trim_fraction=_get(parser, "tuning", "trim_fraction", float,
                           "tuning.trim_fraction"),
        use_scale_init=_get(parser, "tuning", "use_scale_init", _bool,
                            "tuning.use_scale_init"),
        propagate_quantized=_get(parser, "tuning", "propagate_quantized",
                                 _bool, "tuning.propagate_quantized"),
        seed=spec.seed,
    )
    if parser.get("tuning", "steps").strip():
        tune_kw["steps"] = _get(parser, "tuning", "steps", int, "tuning.steps")
    if parser.get("tuning", "lr").strip():
        tune_kw["lr"] = _get(parser, "tuning", "lr", float, "tuning.lr")
    try:
        tune = TuneConfig(**tune_kw)
    except ConfigError as e:
        raise ConfigError(f"tuning: {e}") from None

    out_raw = parser.get("run", "out_dir").strip()
    out_dir = Path(out_raw or os.environ.get(OUT_DIR_ENV, "."))

    train_steps = _get(parser, "model", "train_steps", int, "model.train_steps")
    train_lr = _get(parser, "model", "train_lr", float, "model.train_lr")
    if train_steps < 0 or not (math.isfinite(train_lr) and train_lr > 0):
        raise ConfigError("model: need train_steps >= 0 and a finite "
                          "train_lr > 0")

    return RunConfig(spec=spec, train_steps=train_steps, train_lr=train_lr,
                     family=family, options=options, group_size=group_size,
                     target_bits=target, tune=tune, source=source,
                     calib_samples=calib_samples, seq_len=seq_len,
                     batch_size=batch_size, eval_samples=eval_samples,
                     seed=spec.seed, out_dir=out_dir)


def build_model(cfg: RunConfig):
    """Trained toy model + calibration batches for this config.

    Training runs once per output directory: the trained parameters are
    kept in ``out_dir/fp_model.npz`` under a key of everything training
    depends on, and loaded instead of retrained while that key matches.
    A model with ``train_steps=0`` is cheaper to rebuild than to load
    and is never cached.
    """
    model = models.ToyModel.build(cfg.spec)
    cal = models.load_calibration(cfg.source, cfg.spec.vocab,
                                  cfg.calib_samples, cfg.seq_len,
                                  cfg.batch_size, cfg.seed)
    if cfg.train_steps:
        path = cfg.out_dir / FP_MODEL_FILE
        key = _train_key(cfg, cal)
        params = _load_params(path, key, model.params)
        if params is None:
            models.train_model(model, cal, cfg.train_steps, cfg.train_lr)
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
    sources = [hashlib.sha256(Path(m.__file__).read_bytes()).hexdigest()
               for m in (models, tensor)]
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


def write_atomic(path: Path, data: bytes) -> None:
    """Write through a fsynced temp file in the same directory and
    os.replace, so neither a reader nor a crash ever sees a partial
    file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def eval_set(cfg: RunConfig) -> list:
    source = cfg.source if cfg.source in ("synthetic", "markov") else "synthetic"
    return models.eval_batches(cfg.spec, cfg.eval_samples, cfg.seq_len,
                               cfg.batch_size, cfg.seed, source=source)
