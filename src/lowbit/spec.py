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
* tuner: :class:`TuneConfig`;
* config and allocator: :func:`as_budget`, the exact bit budget.

The records here are named tuples: immutable, hashable and compared
by value, and cheap to define, which keeps a process that only loads
a config from paying for :mod:`dataclasses`. A record with rules
checks them in ``__new__``, when it is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import ConfigError, ContractError

ARCH_MLP = "mlp"
ARCH_TT = "tiny-transformer"


# ---------------------------------------------------------------------------
# models


class ModelSpec(namedtuple(
        "ModelSpec", "arch hidden n_blocks vocab n_heads ffn_mult max_seq seed",
        defaults=(4, 4, 64, 0))):
    """The toy model to build: ``arch`` with ``n_blocks`` blocks of width
    ``hidden`` over ``vocab`` tokens; a tiny transformer also reads
    ``n_heads``, ``ffn_mult`` and ``max_seq``. ``seed`` draws its
    parameters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.arch not in (ARCH_MLP, ARCH_TT):
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.vocab < 2 or self.hidden < 2 or self.n_blocks < 1:
            raise ConfigError("model dimensions too small")
        if self.arch != ARCH_TT:
            return self
        if min(self.n_heads, self.ffn_mult, self.max_seq) < 1:
            raise ConfigError("n_heads, ffn_mult and max_seq must be >= 1")
        if self.hidden % self.n_heads:
            raise ConfigError(
                f"hidden {self.hidden} not divisible by {self.n_heads} heads")
        return self


class LayerInfo(namedtuple("LayerInfo", "name shape block",
                           defaults=(None,))):
    """A quantizable (linear) layer; ``block`` is None for the head.
    Embeddings and norm gains are in ``ToyModel.params`` only."""

    __slots__ = ()

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


class QuantScheme(namedtuple("QuantScheme", "family bits group_size",
                             defaults=(32,))):
    """One layer's quantization recipe: ``family`` is "int-sym", "mxfp"
    or "none"; ``group_size`` is the int-sym group's rows or the mx
    block's length, 0 for the whole axis."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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


class MxFormat(namedtuple("MxFormat",
                          "name mbits emax emin max_value magnitudes block",
                          defaults=(32,))):
    """A microscaling element format: ``mbits`` mantissa bits, ``emax``
    the exponent of the largest finite magnitude, ``emin`` the lowest
    normal exponent, ``magnitudes`` the sorted non-negative
    representable magnitudes, and ``block`` elements per shared scale."""

    __slots__ = ()

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


class TuneConfig(namedtuple(
        "TuneConfig", "steps lr batch_size trim_fraction use_scale_init seed",
        defaults=(200, None, 8, 0.001, True, 0))):
    """Sign-descent settings; ``lr`` is resolved to 1/steps when
    omitted."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lr is None:
            self = self._replace(lr=1.0 / max(self.steps, 1))
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
        return self


# ---------------------------------------------------------------------------
# budget


def as_budget(t) -> Fraction:
    """Exact target average bits. Floats are rejected: 8/3 and friends
    do not survive the round trip through binary."""
    if isinstance(t, float):
        raise ContractError(
            f"budget {t!r} is a float; pass a string like '8/3' or a Fraction")
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise ContractError(f"bad budget {t!r}: {e}") from e
