"""Quantize-dequantize codecs and the packed weight container.

Two codec families:

* ``int-sym``: symmetric uniform integer grids. Codes live on
  [-2^(b-1), 2^(b-1)-1]; the zero point is always zero. One scale per
  contiguous input-channel group per output channel. The scale follows
  (max(W)*alpha - min(W)*beta) / (2^b - 1); with alpha = beta = 1 and a
  zero rounding offset this is plain round-to-nearest. The grid is
  written once, in numpy: :func:`quantize_weight` reads the codes and
  scales from it, and tuning wraps it in one graph node over trainable
  offsets and multipliers, so the packed codes are exactly the tuned
  ones.
* ``mxfp``: microscaling block floats. Blocks of 32 share a power-of-two
  scale 2^(floor(log2(amax)) - emax); elements are rounded half-to-even
  onto a tiny float grid (E2M1 for 4-bit, E4M3 for 8-bit) with
  saturating overflow.

:func:`quantize_layer` is the only per-scheme entry point: it maps a
:class:`QuantScheme` (``none`` included, a raw float64 layer) to the
layer's eval weight and its :class:`PackedWeights` payload. A payload
carries that scheme, and every width, block length and format follows
from it; codec ids exist only in the payload's byte layout, where one
:data:`CODECS` row per id gives the family, the bits it fixes, the
scale format byte and the scale dtype. Schemes, MX formats and the
int-sym code range are plain Python in :mod:`lowbit.spec`.

Weights are laid out (in_features, out_features) everywhere in this
package, packed payloads included. Int-sym groups and MX blocks both run
down axis 0, the axis a matmul reduces over, so both codecs store one
scale per (group, output column) and dequantize through the one decoder
:func:`group_decode`.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, PackError, ShapeError
# the formats are plain Python in spec; codecs.MXFP4 and codecs.MXFP8
# name them next to the codec that reads them
from .spec import MXFP4, MXFP8, MxFormat, QuantScheme, grid_bounds

SCALE_FLOOR = 1e-8

# a payload header's codec id indexes this table: (family, the bits it
# fixes or None when the header's bits field says, the header's scale
# format id, the scale dtype or None when the payload has no scales)
CODECS = (("none", None, 0, None), ("int-sym", None, 1, np.float64),
          ("mxfp", 4, 2, np.int8), ("mxfp", 8, 2, np.int8))


# ---------------------------------------------------------------------------
# uniform integer codec


@functools.lru_cache(maxsize=64)
def group_starts(n_rows: int, group_size: int) -> np.ndarray:
    """The first row of each contiguous group down axis 0, a trailing
    partial group kept; one read-only array per layout."""
    if n_rows <= 0:
        raise ContractError("no rows to group")
    if group_size <= 0 or group_size >= n_rows:
        group_size = n_rows
    starts = np.arange(0, n_rows, group_size)
    starts.flags.writeable = False
    return starts


def group_segments(n_rows: int, group_size: int) -> list[tuple[int, int]]:
    """Contiguous [start, end) row ranges of :func:`group_starts`."""
    starts = group_starts(n_rows, group_size).tolist()
    return list(zip(starts, [*starts[1:], n_rows]))


@functools.lru_cache(maxsize=64)
def group_index(n_rows: int, group_size: int) -> np.ndarray:
    """Group id for each row, matching :func:`group_segments` order; one
    read-only array per layout."""
    starts = group_starts(n_rows, group_size)
    idx = np.repeat(np.arange(len(starts)), np.diff(starts, append=n_rows))
    idx.flags.writeable = False
    return idx


def group_extrema(w: np.ndarray, group_size: int):
    """Per-group (max, min) down axis 0, each shaped (n_groups, columns)."""
    starts = group_starts(w.shape[0], group_size)
    return (np.maximum.reduceat(w, starts, axis=0),
            np.minimum.reduceat(w, starts, axis=0))


def _int_sym_grid(w: np.ndarray, bits: int, group_size: int, v, alpha, beta,
                  init_scales):
    """The int-sym grid: scale, divide, add offset, round, clip.

    ``v`` (or None), ``alpha`` and ``beta`` are arrays or scalars.
    Returns (codes, in_grid, s_g, above_floor, terms): the codes as
    float64, signed zeros kept; where the rounded value lay inside the
    grid; the (n_groups, out) group scales; where the scale formula
    reached SCALE_FLOOR; and the formula's constant terms,
    ``(init_scales,)`` or ``(wmax, wmin, denom)``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"expected a 2-d weight, got shape {w.shape}")
    lo, hi = grid_bounds(bits)
    n_groups = len(group_starts(w.shape[0], group_size))
    if init_scales is not None:
        terms = (np.asarray(init_scales, dtype=np.float64),)
        s_g = terms[0] * alpha
        if s_g.shape != (n_groups, w.shape[1]):
            raise ShapeError(
                f"init_scales shape {s_g.shape} != {(n_groups, w.shape[1])}")
    else:
        terms = (*group_extrema(w, group_size), float((1 << bits) - 1))
        s_g = (terms[0] * alpha - terms[1] * beta) / terms[2]
    above_floor = s_g >= SCALE_FLOOR
    s_g = np.clip(s_g, SCALE_FLOOR, None)
    x = s_g[group_index(w.shape[0], group_size)]
    np.divide(w, x, out=x)
    if v is not None:
        x += v
    np.rint(x, out=x)
    in_grid = (x >= lo) & (x <= hi)
    return np.clip(x, lo, hi, out=x), in_grid, s_g, above_floor, terms


def group_decode(values: np.ndarray, scales: np.ndarray,
                 group_size: int) -> np.ndarray:
    """Scale (rows, out) grid values by their (n_groups, out) group scales.

    The one decoder of both codecs: int-sym codes with their f64 scales,
    and MX grid values with their powers of two.
    """
    return values * scales[group_index(values.shape[0], group_size)]


def quantize_weight(w: np.ndarray, bits: int, group_size: int,
                    v: np.ndarray | None = None, alpha=1.0, beta=1.0,
                    init_scales: np.ndarray | None = None):
    """Quantize-dequantize a 2-d weight on the symmetric integer grid.

    Returns (dequantized, codes, scales). ``v`` is an optional
    per-element rounding offset in [-0.5, 0.5]. ``alpha``/``beta``
    rescale the minmax range; when ``init_scales`` is given the scale is
    instead ``init_scales * alpha`` and ``beta`` is ignored. The codes
    and scales are :func:`uniform_qdq_graph`'s; the dequantized weight is
    the decode of the returned codes, as an artifact reader computes it.
    """
    q, _, s_g, _, _ = _int_sym_grid(
        w, bits, group_size,
        None if v is None else np.asarray(v, dtype=np.float64),
        np.asarray(alpha, dtype=np.float64), np.asarray(beta, dtype=np.float64),
        init_scales)
    codes = q.astype(np.int8)
    return (group_decode(codes.astype(np.float64), s_g, group_size),
            codes, s_g)


def uniform_qdq_graph(w: np.ndarray, bits: int, group_size: int,
                      v: T.Tensor, alpha: T.Tensor, beta: T.Tensor,
                      init_scales: np.ndarray | None = None) -> T.Tensor:
    """Differentiable :func:`quantize_weight` for tuning, as one node.

    ``w`` is constant; gradients flow to the rounding offset ``v``
    (straight-through, zeroed where the code clips) and to
    ``alpha``/``beta`` through the scale expression. The VJP is the
    composition of the grid's elementwise steps, in their order:
    ``out = s * q``, ``q = clip(rint(w / s + v))``, ``s`` gathered from
    the floored group scales.
    """
    w = np.asarray(w, dtype=np.float64)
    q, in_grid, s_g, above_floor, terms = _int_sym_grid(
        w, bits, group_size, v.data, alpha.data, beta.data, init_scales)
    # the grid clips to at most 8 bits, so int8 holds every code exactly;
    # a product with a code's signed zero differs only in the sign of a
    # zero term, and g_sg's sums start from +0.0
    codes = q.astype(np.int8)
    rows = group_index(w.shape[0], group_size)
    out = np.multiply(q, s_g[rows], out=q)  # the codes' array, scaled
    segments = group_segments(w.shape[0], group_size)

    def vjp(g):
        # g_s = g * q + (-g_x * w) / (s_full * s_full), with the same ufuncs
        # in the same order, one row group at a time; each group's rows
        # are summed into g_sg in row order
        g_x = s_g[rows]
        g_x *= g
        g_x *= in_grid  # reaches v and w / s unchanged
        g_sg = np.zeros_like(s_g)
        for j, (a, b) in enumerate(segments):
            g_s = np.negative(g_x[a:b])
            g_s *= w[a:b]
            g_s /= s_g[j] * s_g[j]
            g_s += np.multiply(g[a:b], codes[a:b])
            _sum_rows(g_s, g_sg, j, rows[a:b])
        g_sg *= above_floor
        if init_scales is not None:  # beta is not in the formula
            return g_x, g_sg * terms[0], np.zeros_like(g_sg)
        wmax, wmin, denom = terms
        g_sg /= denom
        return g_x, g_sg * wmax, -g_sg * wmin

    return T.custom(out, (v, alpha, beta), vjp)


def _sum_rows(g_s: np.ndarray, g_sg: np.ndarray, j: int, rows) -> None:
    """``np.add.at(g_sg, rows, g_s)`` for one group's rows (all ``j``),
    bit for bit, in ``g_sg[j]`` from +0.0. numpy reduces axis 0 of a
    C-contiguous block of two or more columns row by row, which is
    add.at's order; adding +0.0 maps the one sum that can differ, an
    all -0.0 column, to add.at's +0.0. One column numpy sums pairwise,
    so it keeps add.at."""
    if g_s.shape[1] < 2:
        np.add.at(g_sg, rows, g_s)
    else:
        np.add(np.add.reduce(g_s, axis=0), 0.0, out=g_sg[j])


# ---------------------------------------------------------------------------
# microscaling block floats


def _floor_log2(a: np.ndarray) -> np.ndarray:
    """Exact floor(log2(a)) for positive a via frexp (no log rounding)."""
    _, e = np.frexp(a)
    return e - 1


def _round_to_grid(y: np.ndarray, fmt: MxFormat) -> np.ndarray:
    """Round half-to-even onto the format's magnitude grid, saturating."""
    a = np.abs(y)
    sign = np.where(np.signbit(y), -1.0, 1.0)
    e = np.where(a > 0, _floor_log2(np.where(a > 0, a, 1.0)), fmt.emin)
    e = np.clip(e, fmt.emin, fmt.emax)
    step = np.ldexp(1.0, (e - fmt.mbits).astype(np.int64))
    q = np.rint(a / step) * step
    q = np.minimum(q, fmt.max_value)
    return sign * q


def mx_grid(x: np.ndarray, fmt: MxFormat):
    """Block-quantize along the last axis, without encoding.

    Returns (dequantized, grid values, scale exponents): the grid values
    shaped (..., n_blocks, block), zero-padded past the last element,
    and one int8 exponent per block. An all-zero block gets exponent 0.
    A caller that reads only the dequantized values skips the encoding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ShapeError("MX quantization needs at least 1-d input")
    last = x.shape[-1]
    nb = -(-last // fmt.block) if last else 0
    pad = nb * fmt.block - last
    xb = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, pad)]) if pad else x
    xb = xb.reshape(x.shape[:-1] + (nb, fmt.block))
    amax = np.abs(xb).max(axis=-1)
    exps = np.where(amax > 0,
                    _floor_log2(np.where(amax > 0, amax, 1.0)) - fmt.emax,
                    0)
    exps = np.clip(exps, -127, 127).astype(np.int64)
    scale = np.ldexp(1.0, exps)[..., None]
    q = _round_to_grid(xb / scale, fmt)
    deq = (q * scale).reshape(x.shape[:-1] + (nb * fmt.block,))
    return deq[..., :last], q, exps.astype(np.int8)


def mx_qdq(x: np.ndarray, fmt: MxFormat):
    """Block-quantize along the last axis: :func:`mx_grid`, encoded.

    Returns (dequantized, codes, scale_exponents). Codes are unsigned
    (sign bit above the magnitude index); scale exponents are one int8
    per block. An all-zero block gets exponent 0 and zero codes.
    """
    deq, q, exps = mx_grid(x, fmt)
    padded = q.shape[:-2] + (q.shape[-2] * fmt.block,)
    codes = _encode_grid(q, fmt).reshape(padded)
    return deq, codes[..., :deq.shape[-1]], exps


def _encode_grid(q: np.ndarray, fmt: MxFormat) -> np.ndarray:
    mags = np.asarray(fmt.magnitudes)
    idx = np.searchsorted(mags, np.abs(q))
    if not np.all(mags[np.minimum(idx, len(mags) - 1)] == np.abs(q)):
        raise PackError("value not on the format grid")
    sign = np.signbit(q)  # -0.0 too, so decoding returns it bit for bit
    return (idx | (sign.astype(np.int64) << fmt.sign_shift)).astype(np.uint8)


def _decode_grid(codes: np.ndarray, fmt: MxFormat) -> np.ndarray:
    mags = np.asarray(fmt.magnitudes)
    mask = (1 << fmt.sign_shift) - 1
    idx = codes & mask
    if np.any(idx >= len(mags)):
        raise PackError("magnitude index out of range")
    sign = np.where((codes >> fmt.sign_shift) & 1, -1.0, 1.0)
    return sign * mags[idx]


def mx_qdq_weight(w: np.ndarray, fmt: MxFormat):
    """qdq an (in, out) weight with blocks down the input axis.

    Matmul reduces over a weight's first axis, and block scales must be
    shared along the reduction. Returns (deq, codes, exps): deq and codes
    shaped like ``w``, exps shaped (n_blocks, out) like int-sym scales
    with group size ``fmt.block``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"expected a 2-d weight, got shape {w.shape}")
    deq_t, codes, exps = mx_qdq(w.T, fmt)
    return (np.ascontiguousarray(deq_t.T), np.ascontiguousarray(codes.T),
            np.ascontiguousarray(exps.T))


# ---------------------------------------------------------------------------
# bit packing


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack unsigned ``bits``-wide codes into a little-endian bitstream.

    Code i takes stream bits [i*bits, (i+1)*bits), least significant bit
    first, and each byte fills from its least significant bit, so 2-bit
    codes go 4 per byte with the first code lowest. The last byte is
    zero-padded.
    """
    if not 2 <= bits <= 8:
        raise PackError(f"unsupported pack width {bits}")
    v = np.asarray(values).reshape(-1)
    if v.size and (v.min() < 0 or v.max() >= (1 << bits)):
        raise PackError(f"code out of range for {bits}-bit packing")
    # each code's low ``bits`` bits, one contiguous (n, bits) row apiece
    stream = np.unpackbits(v.astype(np.uint8).reshape(-1, 1), axis=1,
                           count=bits, bitorder="little")
    return np.packbits(stream, bitorder="little").tobytes()


def unpack_bits(buf: bytes, bits: int, count: int) -> np.ndarray:
    """The first ``count`` codes of a :func:`pack_bits` stream, as uint8."""
    if not 2 <= bits <= 8:
        raise PackError(f"unsupported pack width {bits}")
    raw = np.frombuffer(buf, dtype=np.uint8)
    if count * bits > raw.size * 8:
        raise PackError(f"payload holds {raw.size * 8 // bits} codes, "
                        f"need {count}")
    stream = np.unpackbits(raw, count=count * bits, bitorder="little")
    return stream.reshape(count, bits) @ 2 ** np.arange(bits, dtype=np.uint8)


def signed_to_field(codes: np.ndarray, bits: int) -> np.ndarray:
    lo, hi = grid_bounds(bits)
    c = np.asarray(codes)
    if c.size and (c.min() < lo or c.max() > hi):
        raise PackError(f"code outside [{lo}, {hi}]")
    return (c.astype(np.int64) & ((1 << bits) - 1)).astype(np.uint8)


def field_to_signed(fields: np.ndarray, bits: int) -> np.ndarray:
    f = fields.astype(np.int64)
    half = 1 << (bits - 1)
    return np.where(f >= half, f - (1 << bits), f).astype(np.int8)


# ---------------------------------------------------------------------------
# packed container


@dataclass
class PackedWeights:
    """One layer's quantized payload plus the scheme that decodes it.

    Byte layout: codec id u8 (an index into :data:`CODECS`), bits u8,
    group size u32, shape rank u8 and one u64 per dim, scale format u8,
    then the (n_groups, out) scale array, then the packed code stream of
    the (in, out) weight in row-major order, ``scheme.bits`` wide. Counts
    are derived from the header, not stored.
    """

    scheme: QuantScheme
    shape: tuple
    scales: np.ndarray | None  # f64 groups (int-sym) or int8 exponents (mx)
    codes: np.ndarray          # int8 (int-sym), uint8 (mx), f64 (raw)

    def to_bytes(self) -> bytes:
        s = self.scheme
        codec = next(i for i, (family, bits, _, _) in enumerate(CODECS)
                     if family == s.family and bits in (None, s.bits))
        _, _, scale_fmt, scale_dtype = CODECS[codec]
        head = struct.pack("<BBIB", codec, s.bits, s.group_size,
                           len(self.shape))
        head += b"".join(struct.pack("<Q", d) for d in self.shape)
        head += struct.pack("<B", scale_fmt)
        if s.family == "none":
            return head + np.asarray(self.codes, dtype=np.float64).tobytes()
        fields = signed_to_field(self.codes, s.bits) \
            if s.family == "int-sym" else self.codes
        return (head + np.asarray(self.scales, dtype=scale_dtype).tobytes()
                + pack_bits(fields, s.bits))

    @classmethod
    def from_bytes(cls, buf: bytes) -> "PackedWeights":
        """Decode one payload; any malformed input raises :class:`PackError`.

        The header's codec id, bits and group size must make a valid
        :class:`QuantScheme`, and its scale format must be the codec's.
        Sizes are checked against the buffer before anything is
        allocated, so a corrupt header cannot ask for a huge array.
        """
        try:
            codec, bits, group_size, rank = struct.unpack_from("<BBIB", buf, 0)
            shape = struct.unpack_from(f"<{rank}Q", buf, 7)
            (scale_fmt,) = struct.unpack_from("<B", buf, 7 + 8 * rank)
        except struct.error as e:
            raise PackError(f"truncated header: {e}") from e
        if codec >= len(CODECS):
            raise PackError(f"unknown codec id {codec}")
        family, fixed_bits, want_fmt, scale_dtype = CODECS[codec]
        if fixed_bits not in (None, bits):
            raise PackError(f"codec id {codec} is {family} at {fixed_bits} "
                            f"bits, header says {bits}")
        if scale_fmt != want_fmt:
            raise PackError(f"scale format {scale_fmt}, want {want_fmt}")
        try:
            scheme = QuantScheme(family, bits, group_size)
        except ContractError as e:
            raise PackError(str(e)) from None
        off = 8 + 8 * rank
        body = len(buf) - off
        size = math.prod(shape)
        pw = cls(scheme, shape, None, np.empty(0))
        if family == "none":
            if body < size * 8:
                raise PackError("raw payload shorter than header promises")
            pw.codes = np.frombuffer(buf, dtype=np.float64, count=size,
                                     offset=off).reshape(shape).copy()
            return pw
        if rank != 2 or size == 0:
            raise PackError(f"shape {shape} is not a non-empty 2-d weight")
        code_bytes = -(-size * bits // 8)
        if body < code_bytes:
            raise PackError("payload shorter than header promises")
        rows, cols = shape
        scale_shape = (len(group_starts(rows, group_size)), cols)
        n_scales = math.prod(scale_shape)
        scale_bytes = n_scales * np.dtype(scale_dtype).itemsize
        if body < scale_bytes + code_bytes:
            raise PackError("payload shorter than header promises")
        pw.scales = np.frombuffer(buf, dtype=scale_dtype, count=n_scales,
                                  offset=off).reshape(scale_shape).copy()
        codes = unpack_bits(buf[off + scale_bytes:], bits, size).reshape(shape)
        pw.codes = field_to_signed(codes, bits) if family == "int-sym" \
            else codes
        return pw

    def dequantize(self) -> np.ndarray:
        s = self.scheme
        if s.family == "none":
            return np.asarray(self.codes, dtype=np.float64)
        if s.family == "int-sym":
            values, scales = self.codes.astype(np.float64), self.scales
        else:
            values = _decode_grid(self.codes, s.mx_format)
            scales = np.ldexp(1.0, self.scales.astype(np.int64))
        return group_decode(values, scales, s.group_size)


def quantize_layer(w: np.ndarray, scheme: QuantScheme, v=None, alpha=1.0,
                   beta=1.0, init_scales=None):
    """Quantize one (in, out) layer under ``scheme``: (eval weight, payload).

    The one per-scheme entry point: sensitivity, tuning, eval and the
    artifact all take a layer's weight from here, so they describe the
    same quantized layer, and ``payload.dequantize()`` equals the eval
    weight bit for bit. ``none`` keeps ``w`` and stores it raw; ``mxfp``
    is round-to-nearest MX; ``int-sym`` is :func:`quantize_weight`, the
    only family that takes the rounding offset ``v``, the multipliers
    ``alpha``/``beta`` and the searched ``init_scales``.
    """
    w = np.asarray(w, dtype=np.float64)
    shape = tuple(w.shape)
    if scheme.family == "none":
        return w, PackedWeights(scheme, shape, None, w)
    if scheme.family == "mxfp":
        deq, codes, scales = mx_qdq_weight(w, scheme.mx_format)
    else:
        deq, codes, scales = quantize_weight(
            w, scheme.bits, scheme.group_size, v=v, alpha=alpha, beta=beta,
            init_scales=init_scales)
    return deq, PackedWeights(scheme, shape, scales, codes)
