"""Run configuration: INI file + command-line overrides -> RunConfig.

A run is fully described by one config file; every random choice in the
pipeline derives from its single seed, so equal configs give
byte-identical outputs. ``FIELDS`` declares every setting once, with
its default text and its parser; ``load_config`` parses them all in one
pass and then checks how they fit together. The canonical digest hashes
the config's semantic content (the output directory is location, not
semantics, and is excluded).
"""

from __future__ import annotations

import configparser
import dataclasses
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
GENERATED = ("synthetic", "markov")  # any other data.source is a token file
_KEY, _DIGEST = "__key__", "__digest__"  # no parameter takes these names


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _optional(parse):
    """An empty value leaves the field to its TuneConfig default."""
    return lambda raw: parse(raw) if raw.strip() else None


def _options(raw: str) -> tuple:
    return tuple(sorted({int(tok) for tok in raw.split(",") if tok.strip()}))


# every run setting: section -> key -> (default text, parser of the text)
FIELDS = {
    "model": {
        "arch": ("mlp", str), "hidden": ("32", int), "n_blocks": ("2", int),
        "vocab": ("32", int), "n_heads": ("4", int), "ffn_mult": ("2", int),
        "max_seq": ("32", int), "train_steps": ("300", int),
        "train_lr": ("0.5", float),
    },
    "scheme": {
        "family": ("int-sym", str), "options": ("2,4,8", _options),
        "group_size": ("32", int), "target_bits": ("8/3", as_budget),
    },
    "tuning": {
        "steps": ("", _optional(int)), "lr": ("", _optional(float)),
        "batch_size": ("8", int), "trim_fraction": ("0.001", float),
        "use_scale_init": ("true", _bool),
    },
    "data": {
        "source": ("markov", str), "calib_samples": ("64", int),
        "seq_len": ("32", int), "batch_size": ("8", int),
        "eval_samples": ("16", int),
    },
    "run": {"seed": ("21", int), "out_dir": ("", str)},
}
DEFAULTS = {section: {key: text for key, (text, _) in keys.items()}
            for section, keys in FIELDS.items()}


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
        return {
            "model": {**_unseeded(self.spec), "train_steps": self.train_steps,
                      "train_lr": self.train_lr},
            "scheme": {"family": self.family, "options": list(self.options),
                       "group_size": self.group_size,
                       "target_bits": str(self.target_bits)},
            # blocks always tune on quantized inputs; the key that once
            # switched that stays, so digests keep their bytes
            "tuning": {**_unseeded(self.tune), "propagate_quantized": True},
            "data": {key: getattr(self, key) for key in FIELDS["data"]},
            "run": {"seed": self.seed},
        }

    def digest(self) -> str:
        return digest_of(self.to_dict())


def _unseeded(obj) -> dict:
    """A dataclass's fields but its seed, which the run section holds."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if f.name != "seed"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def apply_overrides(parser, sets) -> None:
    """Apply "section.key=value" strings on top of the parsed file."""
    for item in sets or ():
        head, sep, value = item.partition("=")
        if not sep or "." not in head:
            raise ConfigError(
                f"override {item!r} is not of the form section.key=value")
        section, key = head.split(".", 1)
        if section not in FIELDS or key not in FIELDS[section]:
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
            if section not in FIELDS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser.options(section):
                if key not in FIELDS[section]:
                    raise ConfigError(f"unknown config field {section}.{key}")
    apply_overrides(parser, sets)

    v = {section: {} for section in FIELDS}
    for section, keys in FIELDS.items():
        for key, (_, parse) in keys.items():
            raw = parser.get(section, key)
            try:
                v[section][key] = parse(raw)
            except (ValueError, ArithmeticError, ContractError):
                raise ConfigError(
                    f"{section}.{key}: cannot parse {raw!r}") from None
    model, scheme, data = v["model"], v["scheme"], v["data"]
    seed = v["run"]["seed"]

    train_steps, train_lr = model.pop("train_steps"), model.pop("train_lr")
    try:
        spec = models.ModelSpec(**model, seed=seed)
    except ConfigError as e:
        raise ConfigError(f"model: {e}") from None
    if train_steps < 0 or not (math.isfinite(train_lr) and train_lr > 0):
        raise ConfigError("model: need train_steps >= 0 and a finite "
                          "train_lr > 0")

    options = scheme["options"]
    if scheme["family"] not in ("int-sym", "mxfp"):
        raise ConfigError(
            f"scheme.family: unknown family {scheme['family']!r}")
    if not options:
        raise ConfigError("scheme.options: need at least one option")
    for b in options:
        try:
            codecs.scheme_for_bits(scheme["family"], b, scheme["group_size"])
        except ContractError as e:
            raise ConfigError(f"scheme: option {b}: {e}") from None
    if not options[0] <= scheme["target_bits"] <= options[-1]:
        raise ConfigError(
            f"scheme.target_bits: {scheme['target_bits']} outside option "
            f"range [{options[0]}, {options[-1]}]")

    if data["source"] not in GENERATED and not Path(data["source"]).is_file():
        raise ConfigError(f"data.source: path {data['source']!r} does not exist")
    if (min(data["calib_samples"], data["batch_size"], data["eval_samples"]) < 1
            or data["seq_len"] < 2):
        raise ConfigError("data: sample counts must be >= 1 and seq_len >= 2")
    if spec.arch == models.ARCH_TT and data["seq_len"] > spec.max_seq:
        raise ConfigError(f"data.seq_len {data['seq_len']} exceeds "
                          f"model.max_seq {spec.max_seq}")

    try:
        tune = TuneConfig(**{k: x for k, x in v["tuning"].items()
                             if x is not None}, seed=seed)
    except ConfigError as e:
        raise ConfigError(f"tuning: {e}") from None

    out_dir = Path(v["run"]["out_dir"] or os.environ.get(OUT_DIR_ENV, "."))
    return RunConfig(spec=spec, train_steps=train_steps, train_lr=train_lr,
                     **scheme, tune=tune, **data, seed=seed, out_dir=out_dir)


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
    """Held-out batches: a generated source's stream under a disjoint
    seed, or a token file's rows after its calibration rows."""
    if cfg.source in GENERATED:
        return models.eval_batches(cfg.spec, cfg.eval_samples, cfg.seq_len,
                                   cfg.batch_size, cfg.seed, source=cfg.source)
    rows = models.read_token_file(cfg.source, cfg.spec.vocab, cfg.seq_len,
                                  cfg.calib_samples + cfg.eval_samples)
    return models.batched(rows[cfg.calib_samples:], cfg.batch_size)
