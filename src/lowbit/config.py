"""Run configuration: INI file + command-line overrides -> RunConfig.

A run is fully described by one config file; every random choice in the
pipeline derives from its single seed, so equal configs give
byte-identical outputs. ``FIELDS`` declares every setting once, with
its default text and its parser; ``load_config`` parses them all in one
pass and then checks how they fit together. The canonical digest hashes
the config's semantic content (the output directory is location, not
semantics, and is excluded).

This module imports no numpy: loading a config, and rejecting one, costs
the stdlib it reads plus :mod:`lowbit.spec`. The digests' :mod:`json`
and :mod:`hashlib` load when a digest is first taken, and :mod:`json`
when a JSON input is first read.
"""

from __future__ import annotations

import configparser
import math
import os
import tempfile
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError, ContractError
from .spec import ARCH_TT, ModelSpec, TuneConfig, as_budget, scheme_for_bits

GENERATED = ("synthetic", "markov")  # any other data.source is a token file


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


class RunConfig(namedtuple(
        "RunConfig", "spec train_steps train_lr family options group_size "
        "target_bits tune source calib_samples seq_len batch_size "
        "eval_samples seed out_dir")):
    """A loaded run: ``spec`` a ModelSpec and ``tune`` a TuneConfig,
    ``target_bits`` a Fraction, ``out_dir`` a Path; the other fields
    are those of :data:`FIELDS` by their keys."""

    __slots__ = ()

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
    """A record's fields but its seed, which the run section holds."""
    return {k: getattr(obj, k) for k in obj._fields if k != "seed"}


def canonical_json(obj) -> str:
    import json  # loading a config takes no digest
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj) -> str:
    import hashlib
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def read_json_object(data: bytes) -> dict:
    """The JSON object ``data`` holds: the one JSON decoder of the package.

    Bad UTF-8, bad JSON, nesting deeper than the decoder can recurse and
    a top level of another type each raise a ValueError.
    """
    import json
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj


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
            with open(p, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as e:
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
    if seed < 0:
        raise ConfigError(f"run.seed: {seed} is negative; need seed >= 0")

    train_steps, train_lr = model.pop("train_steps"), model.pop("train_lr")
    try:
        spec = ModelSpec(**model, seed=seed)
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
            scheme_for_bits(scheme["family"], b, scheme["group_size"])
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
    if spec.arch == ARCH_TT and data["seq_len"] > spec.max_seq:
        raise ConfigError(f"data.seq_len {data['seq_len']} exceeds "
                          f"model.max_seq {spec.max_seq}")

    try:
        tune = TuneConfig(**{k: x for k, x in v["tuning"].items()
                             if x is not None}, seed=seed)
    except ConfigError as e:
        raise ConfigError(f"tuning: {e}") from None

    out_dir = Path(v["run"]["out_dir"] or ".")
    return RunConfig(spec=spec, train_steps=train_steps, train_lr=train_lr,
                     **scheme, tune=tune, **data, seed=seed, out_dir=out_dir)


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
