"""The plain-Python description of a run: what to build and how to quantize it.

Everything here is stdlib-only, so loading or rejecting a config and
solving the bit allocation never import numpy. The numeric modules
import the names they use from here:

* models: :class:`ModelSpec`, :class:`LayerInfo` and :func:`layer_table`,
  the quantizable layers and their sizes before any parameter exists;
* codecs: :class:`QuantScheme`, the MX formats and :func:`grid_bounds`;
* sensitivity: :func:`option_set`, the schemes a report scores (the
  report itself is a JSON dict, which
  :meth:`allocator.AllocationProblem.from_report` reads);
* tuner: :class:`TuneConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ContractError

ARCH_MLP = "mlp"
ARCH_TT = "tiny-transformer"


# ---------------------------------------------------------------------------
# models


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
        return math.prod(self.shape)


def layer_table(spec: ModelSpec) -> list:
    """The quantizable layers of the model ``spec`` builds, in model
    order with the head last. It draws no parameters, so the layer sizes
    are known before a model is built or trained."""
    d, f = spec.hidden, spec.hidden * spec.ffn_mult
    if spec.arch == ARCH_TT:
        shapes = [(f"attn.{p}", (d, d)) for p in ("wq", "wk", "wv", "wo")]
        shapes += [("mlp.up", (d, f)), ("mlp.down", (f, d))]
        rows = [LayerInfo(f"blocks.{b}.{name}", shape, b)
                for b in range(spec.n_blocks) for name, shape in shapes]
    else:
        rows = [LayerInfo(f"layers.{b}", (d, d), b)
                for b in range(spec.n_blocks)]
    return rows + [LayerInfo("head", (d, spec.vocab))]


# ---------------------------------------------------------------------------
# schemes


@dataclass(frozen=True)
class QuantScheme:
    """One layer's quantization recipe."""

    family: str  # "int-sym" | "mxfp" | "none"
    bits: int
    group_size: int = 32  # int-sym group rows; mx block length; 0 = whole axis

    def __post_init__(self):
        if self.family not in ("int-sym", "mxfp", "none"):
            raise ContractError(f"unknown codec family {self.family!r}")
        if self.family == "none" and self.bits < 16:
            raise ContractError(f"raw layers take 16 bits or more, got {self.bits}")
        if self.family == "int-sym" and not 2 <= self.bits <= 8:
            raise ContractError(f"int-sym bits must be in [2, 8], got {self.bits}")
        if self.family == "mxfp" and self.bits not in (4, 8):
            raise ContractError(f"mxfp bits must be 4 or 8, got {self.bits}")
        if self.family == "mxfp" and self.group_size != MXFP4.block:
            raise ContractError(f"mxfp blocks are {MXFP4.block} long, "
                                f"got group_size {self.group_size}")
        if self.group_size < 0:
            raise ContractError("group_size must be >= 0")

    @property
    def label(self) -> str:
        if self.family == "none":
            return f"w{self.bits}"
        if self.family == "mxfp":
            return f"mxfp{self.bits}"
        return f"w{self.bits}g{self.group_size}"

    @property
    def quantizes_acts(self) -> bool:
        return self.family == "mxfp"

    @property
    def mx_format(self) -> "MxFormat":
        if self.family != "mxfp":
            raise ContractError(f"{self.label} is not an mx scheme")
        return MXFP4 if self.bits == 4 else MXFP8


def scheme_for_bits(family: str, bits: int, group_size: int) -> QuantScheme:
    """Map an allocator bit option onto a concrete scheme of ``family``.

    16 bits or more means the layer is stored untouched. Below that the
    family's own rules hold, so an unknown family, or a width the family
    does not have (int-sym 12, mxfp 6), raises ContractError.
    """
    if bits >= 16:
        return QuantScheme("none", bits, 0)
    if family == "mxfp":
        group_size = group_size or MXFP4.block
    return QuantScheme(family, bits, group_size)


def option_set(family: str, bits_list, group_size: int = 32) -> list:
    """Concrete schemes for a list of bit widths, ascending."""
    if not bits_list:
        raise ContractError("empty option set")
    return [scheme_for_bits(family, b, group_size)
            for b in sorted({int(b) for b in bits_list})]


def grid_bounds(bits: int) -> tuple[int, int]:
    """The int-sym code range [-2^(bits-1), 2^(bits-1) - 1]."""
    if bits < 2:
        raise ContractError(f"need at least 2 bits, got {bits}")
    half = 1 << (bits - 1)
    return -half, half - 1


def _float_grid(ebits: int, mbits: int, bias: int) -> list:
    """All non-negative finite magnitudes of a tiny float format, sorted."""
    vals = [0.0]
    for e_field in range(0, 1 << ebits):
        for m_field in range(0, 1 << mbits):
            if e_field == 0:
                val = (m_field / (1 << mbits)) * 2.0 ** (1 - bias)
            else:
                val = (1.0 + m_field / (1 << mbits)) * 2.0 ** (e_field - bias)
            vals.append(val)
    # drop duplicates (the two zero encodings) and anything reserved
    return sorted(set(vals))


@dataclass(frozen=True)
class MxFormat:
    name: str
    mbits: int
    emax: int        # exponent of the largest finite magnitude
    emin: int        # lowest normal exponent
    max_value: float
    magnitudes: tuple  # sorted non-negative representable magnitudes
    block: int = 32

    @property
    def sign_shift(self) -> int:
        # code layout: sign bit above the magnitude index
        return max(1, (len(self.magnitudes) - 1).bit_length())


# E2M1: 1 sign, 2 exponent (bias 1), 1 mantissa bit.
MXFP4 = MxFormat("mxfp4", mbits=1, emax=2, emin=0, max_value=6.0,
                 magnitudes=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0))

# E4M3: 1 sign, 4 exponent (bias 7), 3 mantissa bits; max finite 448,
# the all-ones encoding is NaN and never produced here.
MXFP8 = MxFormat("mxfp8", mbits=3, emax=8, emin=-6, max_value=448.0,
                 magnitudes=tuple(m for m in _float_grid(4, 3, 7)
                                  if m <= 448.0))


# ---------------------------------------------------------------------------
# tuning


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
