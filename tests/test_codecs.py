"""Codec tests.

Reference implementations are written from the format definitions, not
from the package code: scalar loops for the uniform grid, and a
nearest-value table scan (half-to-even on the mantissa field) for the
microscaling element formats.
"""

import numpy as np
import pytest

from lowbit import codecs as C
from lowbit import tensor as T
from lowbit.errors import ContractError, PackError, ShapeError
from lowbit.spec import scheme_for_bits


# ---------------------------------------------------------------------------
# references


def qdq_group_ref(w, bits, v=0.0, alpha=1.0, beta=1.0):
    """Quantize one group (1-d list) the slow way."""
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    s = (max(w) * alpha - min(w) * beta) / (2 ** bits - 1)
    s = max(s, 1e-8)
    out = []
    for x in w:
        c = np.rint(x / s + v)
        c = min(max(c, lo), hi)
        out.append(c * s)
    return np.array(out), s


def _div(a, b):
    return T.custom(a.data / b.data, (a, b), lambda g: (
        g / b.data, -g * a.data / (b.data * b.data)))


def _clip(a, lo, hi=None):
    """Clamp to [lo, hi]; the gradient passes where lo <= a <= hi."""
    mask = a.data >= lo
    if hi is not None:
        mask &= a.data <= hi
    return T.custom(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def _round_ste(a):
    return T.custom(np.rint(a.data), (a,), lambda g: (g,))


def qdq_graph_ref(w, bits, group_size, v, alpha, beta, init_scales=None):
    """The int-sym quantizer as a composition of elementwise steps, the
    way it was written before it became one node: the oracle for that
    node's forward bits and for the bits of its VJP. Division, clipping
    and straight-through rounding are nodes of their own here."""
    lo, hi = C.grid_bounds(bits)
    if init_scales is not None:
        s_g = T.mul(T.Tensor(init_scales), alpha)
    else:
        wmax, wmin = C.group_extrema(w, group_size)
        s_g = _div(T.add(T.mul(T.Tensor(wmax), alpha),
                         T.mul(T.Tensor(-wmin), beta)),
                   T.Tensor(float((1 << bits) - 1)))
    s_full = T.take(_clip(s_g, C.SCALE_FLOOR),
                    C.group_index(w.shape[0], group_size))
    x = T.add(_div(T.Tensor(w), s_full), v)
    return T.mul(s_full, _clip(_round_ste(x), lo, hi))


def e2m1_values():
    """(magnitude, mantissa-field parity) for every E2M1 magnitude."""
    vals = [(0.0, 0), (0.5, 1)]  # zero and the lone subnormal
    for e in range(0, 3):
        for m in (0, 1):
            vals.append(((1.0 + 0.5 * m) * 2.0 ** e, m))
    return sorted(set(vals))


def e4m3_values():
    vals = [(0.0, 0)]
    for m in range(1, 8):
        vals.append((m / 8.0 * 2.0 ** -6, m % 2))
    for e in range(-6, 9):
        for m in range(8):
            if e == 8 and m == 7:
                continue  # reserved encoding
            vals.append(((1.0 + m / 8.0) * 2.0 ** e, m % 2))
    return sorted(set(vals))


def round_to_values_ref(x, values):
    """Nearest representable magnitude; ties go to the even mantissa field."""
    mags = [v for v, _ in values]
    out = np.zeros_like(x)
    for i, xi in enumerate(np.ravel(x)):
        a = abs(xi)
        best = None
        for mag, parity in values:
            d = abs(a - mag)
            if best is None or d < best[0] - 1e-300 or (d == best[0] and parity == 0):
                if best is not None and d == best[0] and best[2] == 0:
                    continue
                best = (d, mag, parity)
        out.ravel()[i] = np.copysign(best[1], xi) if best[1] else 0.0
    return out.reshape(np.shape(x))


def mx_qdq_ref(x, values, emax, block):
    """Row by row, block by block: shared scale, then table rounding."""
    import math
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    out = np.zeros_like(flat)
    for r in range(flat.shape[0]):
        for start in range(0, flat.shape[1], block):
            blk = flat[r, start:start + block]
            amax = np.abs(blk).max()
            if amax == 0:
                continue
            scale = 2.0 ** (math.floor(math.log2(amax)) - emax)
            out[r, start:start + block] = round_to_values_ref(blk / scale, values) * scale
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# uniform integer codec


class TestUniformQdq:
    def test_two_bit_worked_example(self):
        # oracle-derived: s = 1.9/3, codes [-2, -1, 0, 1]
        w = np.array([[-1.0], [-0.4], [0.3], [0.9]])
        deq, codes, scales = C.quantize_weight(w, bits=2, group_size=0)
        assert scales.shape == (1, 1)
        assert scales[0, 0] == pytest.approx(1.9 / 3.0, rel=1e-15)
        np.testing.assert_array_equal(codes.ravel(), [-2, -1, 0, 1])
        np.testing.assert_allclose(
            deq.ravel(), [-1.2666666667, -0.6333333333, 0.0, 0.6333333333],
            atol=1e-9)

    def test_matches_group_reference(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            g = rng.integers(4, 40)
            w = rng.normal(size=(g, 1)) * rng.uniform(0.1, 5)
            bits = int(rng.choice([2, 3, 4, 8]))
            deq, _, scales = C.quantize_weight(w, bits=bits, group_size=0)
            ref, s_ref = qdq_group_ref(list(w[:, 0]), bits)
            assert scales[0, 0] == pytest.approx(s_ref, rel=1e-14)
            np.testing.assert_allclose(deq[:, 0], ref, rtol=1e-12, atol=1e-15)

    def test_grouping_along_input_axis(self):
        rng = np.random.default_rng(32)
        w = rng.normal(size=(8, 3))
        deq, _, scales = C.quantize_weight(w, bits=4, group_size=4)
        assert scales.shape == (2, 3)
        for col in range(3):
            for g, (s, e) in enumerate([(0, 4), (4, 8)]):
                ref, s_ref = qdq_group_ref(list(w[s:e, col]), 4)
                assert scales[g, col] == pytest.approx(s_ref, rel=1e-14)
                np.testing.assert_allclose(deq[s:e, col], ref, rtol=1e-12)

    def test_ragged_last_group(self):
        rng = np.random.default_rng(33)
        w = rng.normal(size=(10, 2))
        deq, _, scales = C.quantize_weight(w, bits=4, group_size=4)
        assert scales.shape == (3, 2)
        ref, _ = qdq_group_ref(list(w[8:10, 0]), 4)
        np.testing.assert_allclose(deq[8:10, 0], ref, rtol=1e-12)

    @pytest.mark.parametrize("rows", [1, 33, 64])
    @pytest.mark.parametrize("gs", [0, 1, 32, 64])
    def test_group_layout_is_one_read_only_array(self, rows, gs):
        # the loop the cached layout replaced is the reference
        bounds = ([(0, rows)] if gs <= 0 or gs >= rows else
                  [(s, min(s + gs, rows)) for s in range(0, rows, gs)])
        ref = np.zeros(rows, dtype=np.int64)
        for g, (s, e) in enumerate(bounds):
            ref[s:e] = g
        assert C.group_segments(rows, gs) == bounds
        idx, starts = C.group_index(rows, gs), C.group_starts(rows, gs)
        assert idx.dtype == ref.dtype
        np.testing.assert_array_equal(idx, ref)
        assert starts.tolist() == [s for s, _ in bounds]
        assert C.group_index(rows, gs) is idx
        assert C.group_starts(rows, gs) is starts
        assert not (idx.flags.writeable or starts.flags.writeable)

    def test_constant_group_uses_floor_scale(self):
        w = np.full((6, 1), 0.7)
        deq, _, scales = C.quantize_weight(w, bits=4, group_size=0)
        assert scales[0, 0] == C.SCALE_FLOOR
        assert np.all(np.isfinite(deq))

    def test_idempotent_under_fixed_scales(self):
        rng = np.random.default_rng(34)
        for bits in (2, 4, 8):
            w = rng.normal(size=(32, 5))
            deq1, codes1, scales = C.quantize_weight(w, bits=bits, group_size=8)
            deq2, codes2, _ = C.quantize_weight(
                deq1, bits=bits, group_size=8, init_scales=scales)
            np.testing.assert_array_equal(codes1, codes2)
            np.testing.assert_array_equal(deq1, deq2)

    def test_error_bound_off_clip(self):
        rng = np.random.default_rng(35)
        for bits in (2, 3, 4, 8):
            w = rng.normal(size=(64, 4))
            deq, codes, scales = C.quantize_weight(w, bits=bits, group_size=16)
            lo, hi = C.grid_bounds(bits)
            s_full = scales[C.group_index(64, 16)]
            interior = (codes > lo) & (codes < hi)
            assert np.all(np.abs(w - deq)[interior] <= s_full[interior] / 2)

    def test_error_bound_with_rounding_offsets(self):
        rng = np.random.default_rng(36)
        w = rng.normal(size=(128, 2))
        v = rng.uniform(-0.5, 0.5, size=(128, 2))
        deq, codes, scales = C.quantize_weight(w, bits=8, group_size=32, v=v)
        s_full = scales[C.group_index(128, 32)]
        lo, hi = C.grid_bounds(8)
        interior = (codes > lo) & (codes < hi)
        # offset shifts the cell by at most half a step either way
        assert np.all(np.abs(w - deq)[interior] <= s_full[interior])

    def test_more_bits_never_hurt_on_range_covering_groups(self):
        # Holds when the grid covers the data. A group whose minimum is
        # much deeper than its maximum is clipped harder by finer grids
        # (the symmetric lower edge tightens toward -range/2 as bits
        # grow), so the general claim fails; symmetrizing the extremes
        # removes that failure mode.
        rng = np.random.default_rng(37)
        for _ in range(200):
            w = rng.normal(size=(24, 1))
            m = np.abs(w).max()
            w[0, 0], w[1, 0] = m, -m
            errs = []
            for bits in (2, 4, 8):
                deq, _, _ = C.quantize_weight(w, bits=bits, group_size=0)
                errs.append(np.max(np.abs(w - deq)))
            assert errs[0] >= errs[1] >= errs[2]

    def test_alpha_beta_contract(self):
        w = np.ones((4, 1))
        with pytest.raises(ShapeError):
            C.quantize_weight(np.ones(4), bits=2, group_size=0)
        with pytest.raises(ContractError):
            C.QuantScheme("int-sym", 1, 32)
        # a constant group's scale is floored, never zero
        assert np.all(C.quantize_weight(np.zeros((4, 1)), 4, 0)[2] > 0)
        del w

    def test_graph_path_matches_array_path(self):
        rng = np.random.default_rng(38)
        w = rng.normal(size=(40, 3))
        for bits in range(2, 9):
            for gs in (0, 8, 32):
                n_g = len(C.group_segments(40, gs))
                alpha = rng.uniform(0.5, 1.5, size=(n_g, 3))
                beta = rng.uniform(0.5, 1.5, size=(n_g, 3))
                s0 = np.abs(rng.normal(size=(n_g, 3))) * 0.1
                for v in (None, rng.uniform(-0.5, 0.5, size=w.shape)):
                    for init in (None, s0):
                        out = C.uniform_qdq_graph(
                            w, bits, gs,
                            T.Tensor(np.zeros_like(w) if v is None else v),
                            T.Tensor(alpha), T.Tensor(beta), init_scales=init)
                        deq, _, _ = C.quantize_weight(
                            w, bits, gs, v=v, alpha=alpha, beta=beta,
                            init_scales=init)
                        np.testing.assert_array_equal(out.data, deq)

    def test_graph_path_gradients_match_hand_derived_estimator(self):
        # True derivatives of the rounding step are zero almost
        # everywhere, so finite differences are the wrong oracle here.
        # Instead derive the straight-through chain by hand:
        #   q = s * clip(rint(w/s + v)),  s = (max*a - min*b) / den
        #   dq/dv = s                        where the code is off-clip
        #   dq/ds = c - (w/s)                off-clip, else c
        rng = np.random.default_rng(39)
        w = rng.normal(size=(8, 2))
        tgt = rng.normal(size=(8, 2))
        v0 = rng.uniform(-0.3, 0.3, size=(8, 2))
        a0 = rng.uniform(0.9, 1.1, size=(1, 2))
        b0 = rng.uniform(0.9, 1.1, size=(1, 2))
        bits, lo, hi = 4, *C.grid_bounds(4)
        den = 2 ** bits - 1

        v_t = T.Tensor(v0, requires_grad=True)
        a_t = T.Tensor(a0, requires_grad=True)
        b_t = T.Tensor(b0, requires_grad=True)
        q_t = C.uniform_qdq_graph(w, bits, 0, v_t, a_t, b_t)
        loss = T.mean(T.power(T.add(q_t, T.Tensor(-tgt)), 2.0))
        grads = T.backward(loss, wrt=[v_t, a_t, b_t])

        wmax, wmin = w.max(axis=0), w.min(axis=0)
        s = (wmax * a0[0] - wmin * b0[0]) / den
        raw = np.rint(w / s + v0)
        off_clip = (raw >= lo) & (raw <= hi)
        code = np.clip(raw, lo, hi)
        q = s * code
        dq = 2.0 * (q - tgt) / q.size  # the loss is a mean
        gv = dq * s * off_clip
        dq_ds = code - (w / s) * off_clip
        ga = (dq * dq_ds * (wmax / den)).sum(axis=0, keepdims=True)
        gb = (dq * dq_ds * (-wmin / den)).sum(axis=0, keepdims=True)
        np.testing.assert_allclose(grads[v_t], gv, rtol=1e-10)
        np.testing.assert_allclose(grads[a_t], ga, rtol=1e-10)
        np.testing.assert_allclose(grads[b_t], gb, rtol=1e-10)

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    @pytest.mark.parametrize("gs", [0, 16, 32])
    @pytest.mark.parametrize("searched", [False, True],
                             ids=["minmax", "init_scales"])
    def test_fused_node_equals_op_composition_bit_for_bit(self, bits, gs,
                                                          searched):
        rng = np.random.default_rng(40 + bits + gs)
        rows, cols = 40, 6  # 16 and 32 leave a trailing group of 8 rows
        w = rng.normal(size=(rows, cols))
        w[:, 0] = 0.0  # a constant group column: its minmax scale floors
        n_g = len(C.group_segments(rows, gs))
        init = rng.uniform(0.05, 0.5, size=(n_g, cols))
        init[:, 1] = 1e-12  # a searched scale below the floor
        # small multipliers and large offsets push codes off the grid
        arrays = {"v": rng.uniform(-0.5, 0.5, size=w.shape),
                  "alpha": rng.uniform(0.3, 1.5, size=(n_g, cols)),
                  "beta": rng.uniform(0.3, 1.5, size=(n_g, cols))}
        upstream = rng.normal(size=w.shape)
        upstream[1] = 0.0

        def run(qdq):
            leaves = [T.Tensor(arrays[k], requires_grad=True)
                      for k in ("v", "alpha", "beta")]
            out = qdq(w, bits, gs, *leaves,
                      init_scales=init if searched else None)
            loss = T.mean(T.mul(out, T.Tensor(upstream)))
            grads = T.backward(loss, wrt=leaves)
            return [out.data] + [grads[t] for t in leaves]

        got, want = run(C.uniform_qdq_graph), run(qdq_graph_ref)
        for name, g, r in zip(("forward", "v", "alpha", "beta"), got, want):
            assert g.shape == r.shape, name
            np.testing.assert_array_equal(g.view(np.int64), r.view(np.int64),
                                          err_msg=name)
        # the cases the oracle must cover did occur
        _, _, scales = C.quantize_weight(
            w, bits, gs, **arrays, init_scales=init if searched else None)
        lo, hi = C.grid_bounds(bits)
        raw = np.rint(w / scales[C.group_index(rows, gs)] + arrays["v"])
        assert np.any((raw < lo) | (raw > hi))
        assert np.any(scales == C.SCALE_FLOOR)

    def test_clipped_elements_give_zero_offset_gradient(self):
        w = np.array([[0.05], [0.1], [40.0]])  # last element clips hard
        v = T.Tensor(np.zeros((3, 1)), requires_grad=True)
        q = C.uniform_qdq_graph(
            w, 2, 0, v, T.Tensor(np.ones((1, 1))), T.Tensor(np.ones((1, 1))),
            init_scales=np.array([[0.1]]))
        grads = T.backward(T.mean(q), wrt=[v])
        assert grads[v][2, 0] == 0.0
        assert grads[v][0, 0] != 0.0

    @pytest.mark.parametrize("rows, cols, gs", [
        (200, 1, 16), (72, 6, 16), (128, 64, 32), (512, 512, 32)],
        ids=["one-column", "partial-group", "64-wide", "512-wide"])
    def test_group_row_sums_equal_add_at_bit_for_bit(self, rows, cols, gs):
        rng = np.random.default_rng(rows + cols)
        # magnitudes 1e-8..1e8, so any other summation order shows
        g = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
            -8, 9, size=(rows, cols))
        g[rng.random(g.shape) < 0.05] = -0.0
        g[rng.random(g.shape) < 0.05] = 0.0
        segments = C.group_segments(rows, gs)
        for j, (a, b) in enumerate(segments[:4]):
            c = j % cols
            if j == 0:
                g[a:b, c] = -0.0  # sums to -0.0 in order, +0.0 by add.at
            elif j == 1:
                g[a:b, c] = np.resize([2.5, -2.5], b - a)  # cancels exactly
            elif j == 2:
                g[a, c], g[b - 1, c] = np.inf, -np.inf  # inf - inf
            else:
                g[a + 1, c] = np.nan
        rows_of = C.group_index(rows, gs)
        want = np.zeros((len(segments), cols))
        got = np.zeros_like(want)
        backwards = np.zeros_like(want)
        with np.errstate(invalid="ignore"):
            np.add.at(want, rows_of, g)
            for j, (a, b) in enumerate(segments):
                C._sum_rows(g[a:b].copy(), got, j, rows_of[a:b])
            np.add.at(backwards, rows_of[::-1], g[::-1])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.signbit(got[0, 0])
        assert np.isnan(got[2, 2 % cols]) and np.isnan(got[3, 3 % cols])
        # the data tells summation orders apart
        assert not np.array_equal(backwards.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# microscaling


class TestMxQdq:
    def test_e2m1_magnitude_set(self):
        assert [m for m, _ in e2m1_values()] == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        assert list(C.MXFP4.magnitudes) == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]

    @pytest.mark.parametrize("fmt", [C.MXFP4, C.MXFP8], ids=["fp4", "fp8"])
    def test_grid_step_is_mx_qdq_without_the_codes(self, fmt):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 70)) * 10.0  # a partial last block
        x[1, 32:64] = 0.0  # an all-zero block
        deq, q, exps = C.mx_grid(x, fmt)
        want, codes, want_exps = C.mx_qdq(x, fmt)
        assert deq.tobytes() == want.tobytes()
        assert exps.dtype == want_exps.dtype and np.array_equal(exps, want_exps)
        assert q.shape == (3, 3, 32)
        assert (C._decode_grid(codes, fmt).tobytes()
                == q.reshape(3, 96)[:, :70].tobytes())

    def test_e4m3_extremes(self):
        mags = [m for m, _ in e4m3_values()]
        assert max(mags) == 448.0
        assert min(m for m in mags if m > 0) == 2.0 ** -9
        assert list(C.MXFP8.magnitudes) == mags

    @pytest.mark.parametrize("x,want", [
        (2.5, 2.0),   # tie between 2 and 3 -> even mantissa
        (3.5, 4.0),   # tie between 3 and 4
        (5.0, 4.0),   # tie between 4 and 6
        (0.25, 0.0),  # tie between 0 and 0.5
        (0.75, 1.0),  # tie between 0.5 and 1
        (1.75, 2.0),
        (7.0, 6.0),   # saturates
        (-2.5, -2.0),
    ])
    def test_e2m1_rounding_spot_values(self, x, want):
        got = C._round_to_grid(np.array([x]), C.MXFP4)[0]
        assert got == want
        ref = round_to_values_ref(np.array([x]), e2m1_values())[0]
        assert ref == want

    def test_element_rounding_matches_table_reference(self):
        rng = np.random.default_rng(40)
        for fmt, values in ((C.MXFP4, e2m1_values()), (C.MXFP8, e4m3_values())):
            x = rng.uniform(-fmt.max_value * 1.3, fmt.max_value * 1.3, size=200)
            got = C._round_to_grid(x, fmt)
            ref = round_to_values_ref(x, values)
            np.testing.assert_array_equal(got, ref)

    def test_blockwise_against_reference(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 64)) * np.exp(rng.normal(size=(3, 1)))
        for fmt, values in ((C.MXFP4, e2m1_values()), (C.MXFP8, e4m3_values())):
            deq, _, _ = C.mx_qdq(x, fmt)
            ref = mx_qdq_ref(x, values, fmt.emax, fmt.block)
            np.testing.assert_array_equal(deq, ref)

    def test_shared_scale_is_power_of_two(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 32)) * 37.3
        _, _, exps = C.mx_qdq(x, C.MXFP4)
        assert exps.dtype == np.int8
        import math
        for row in range(2):
            amax = np.abs(x[row]).max()
            assert exps[row, 0] == math.floor(math.log2(amax)) - 2

    def test_representable_blocks_round_trip_exactly(self):
        rng = np.random.default_rng(43)
        mags = np.array(C.MXFP4.magnitudes)
        for _ in range(50):
            k = rng.integers(-8, 9)
            vals = rng.choice(mags, size=32) * rng.choice([-1.0, 1.0], size=32)
            vals[rng.integers(0, 32)] = 6.0  # pin amax to the top magnitude
            x = vals * 2.0 ** k
            deq, _, _ = C.mx_qdq(x, C.MXFP4)
            np.testing.assert_array_equal(deq, x)

    def test_zero_block(self):
        deq, codes, exps = C.mx_qdq(np.zeros((1, 32)), C.MXFP4)
        np.testing.assert_array_equal(deq, 0.0)
        np.testing.assert_array_equal(codes, 0)
        np.testing.assert_array_equal(exps, 0)

    def test_partial_block_padding_stays_internal(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(2, 45))
        deq, codes, exps = C.mx_qdq(x, C.MXFP8)
        assert deq.shape == x.shape and codes.shape == x.shape
        assert exps.shape == (2, 2)
        full, _, _ = C.mx_qdq(x[:, :32], C.MXFP8)
        np.testing.assert_array_equal(deq[:, :32], full)

    def test_code_decode_inverse(self):
        rng = np.random.default_rng(45)
        for bits in (4, 8):
            scheme = C.QuantScheme("mxfp", bits, 32)
            w = rng.normal(size=(128, 3)) * 3
            deq, pw = C.quantize_layer(w, scheme)
            back = C.PackedWeights.from_bytes(pw.to_bytes())
            np.testing.assert_array_equal(back.codes, pw.codes)
            # bit for bit, negative zeros included
            np.testing.assert_array_equal(back.dequantize().view(np.int64),
                                          deq.view(np.int64))


# ---------------------------------------------------------------------------
# packing


class TestPacking:
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_pack_unpack_random_streams(self, bits):
        rng = np.random.default_rng(46)
        for _ in range(20):
            n = int(rng.integers(0, 5000))
            codes = rng.integers(0, 1 << bits, size=n)
            buf = C.pack_bits(codes, bits)
            assert len(buf) == -(-n * bits // 8)
            back = C.unpack_bits(buf, bits, n)
            np.testing.assert_array_equal(back, codes)

    def test_two_bit_layout_is_little_endian(self):
        buf = C.pack_bits(np.array([1, 2, 3, 0]), 2)
        assert buf == bytes([0b00_11_10_01])
        buf4 = C.pack_bits(np.array([0xA, 0x3]), 4)
        assert buf4 == bytes([0x3A])

    def test_out_of_range_code_raises(self):
        with pytest.raises(PackError):
            C.pack_bits(np.array([4]), 2)
        with pytest.raises(PackError):
            C.pack_bits(np.array([-1]), 4)

    def test_signed_field_round_trip(self):
        for bits in (2, 4, 8):
            lo, hi = C.grid_bounds(bits)
            codes = np.arange(lo, hi + 1)
            f = C.signed_to_field(codes, bits)
            np.testing.assert_array_equal(C.field_to_signed(f, bits), codes)

    def test_packed_weights_int_sym_round_trip(self):
        rng = np.random.default_rng(47)
        w = rng.normal(size=(24, 6))
        deq, codes, scales = C.quantize_weight(w, bits=4, group_size=8)
        _, pw = C.quantize_layer(w, C.QuantScheme("int-sym", 4, 8))
        back = C.PackedWeights.from_bytes(pw.to_bytes())
        np.testing.assert_array_equal(back.codes, codes)
        np.testing.assert_array_equal(back.scales, scales)
        np.testing.assert_array_equal(back.dequantize(), deq)

    def test_packed_weights_mx_round_trip(self):
        rng = np.random.default_rng(48)
        w = rng.normal(size=(16, 40))
        for scheme in (C.QuantScheme("mxfp", 4, 32), C.QuantScheme("mxfp", 8, 32)):
            deq, pw = C.quantize_layer(w, scheme)
            assert pw.codes.shape == w.shape and pw.scales.shape == (1, 40)
            back = C.PackedWeights.from_bytes(pw.to_bytes())
            assert back.shape == w.shape
            np.testing.assert_array_equal(back.dequantize(), deq)

    def test_packed_weights_raw_round_trip(self):
        rng = np.random.default_rng(49)
        w = rng.normal(size=(7, 5))
        _, pw = C.quantize_layer(w, C.QuantScheme("none", 16, 0))
        back = C.PackedWeights.from_bytes(pw.to_bytes())
        np.testing.assert_array_equal(back.dequantize(), w)

    def test_empty_payload_valid_header(self):
        _, pw = C.quantize_layer(np.zeros((0, 4)), C.QuantScheme("none", 16, 0))
        back = C.PackedWeights.from_bytes(pw.to_bytes())
        assert back.shape == (0, 4)

    def test_truncated_payload_raises(self):
        rng = np.random.default_rng(50)
        w = rng.normal(size=(8, 4))
        buf = C.quantize_layer(w, C.QuantScheme("int-sym", 2, 4))[1].to_bytes()
        with pytest.raises(PackError):
            C.PackedWeights.from_bytes(buf[:5])
        with pytest.raises(PackError):
            C.PackedWeights.from_bytes(buf[:-3])

    def test_codec_id_fixes_mx_width(self):
        rng = np.random.default_rng(53)
        buf = bytearray(C.quantize_layer(rng.normal(size=(32, 4)),
                                         C.QuantScheme("mxfp", 4, 32))[1]
                        .to_bytes())
        assert buf[1] == 4  # the bits field, after the codec id
        buf[1] = 8  # an MXFP4 codec id claiming 8-bit codes
        with pytest.raises(PackError, match="header says 8"):
            C.PackedWeights.from_bytes(bytes(buf))

    def test_raw_payload_under_16_bits_is_a_pack_error(self):
        rng = np.random.default_rng(54)
        buf = bytearray(C.quantize_layer(rng.normal(size=(4, 3)),
                                         C.QuantScheme("none", 16, 0))[1]
                        .to_bytes())
        buf[1] = 8  # the bits field: a raw layer claiming 8 bits
        with pytest.raises(PackError, match="take 16 bits or more"):
            C.PackedWeights.from_bytes(bytes(buf))

    @pytest.mark.parametrize("family", ["int-sym", "mxfp", "none"])
    def test_scale_format_byte_is_checked_for_every_codec(self, family):
        # the byte sits after the header's shape, which is 2-d here
        bits = 16 if family == "none" else 4
        w = np.random.default_rng(55).normal(size=(32, 4))
        buf = bytearray(C.quantize_layer(
            w, scheme_for_bits(family, bits, 32))[1].to_bytes())
        fmt = C.CODECS[buf[0]][2]
        assert buf[23] == fmt
        buf[23] = fmt + 1
        with pytest.raises(PackError, match="scale format"):
            C.PackedWeights.from_bytes(bytes(buf))

    @pytest.mark.parametrize("family,bits", [
        ("bogus", 4), ("none", 8), ("int-sym", 12), ("mxfp", 6)])
    def test_scheme_for_bits_keeps_the_family_rules(self, family, bits):
        with pytest.raises(ContractError):
            scheme_for_bits(family, bits, 32)

    def test_mx_block_length_is_fixed(self):
        assert scheme_for_bits("mxfp", 4, 0).group_size == 32
        with pytest.raises(ContractError):
            scheme_for_bits("mxfp", 4, 64)

    def test_scheme_labels(self):
        assert C.QuantScheme("int-sym", 2, 32).label == "w2g32"
        assert C.QuantScheme("mxfp", 4, 32).label == "mxfp4"
        assert scheme_for_bits("int-sym", 16, 32).label == "w16"
        assert scheme_for_bits("mxfp", 8, 32).quantizes_acts


# ---------------------------------------------------------------------------
# the per-scheme layer quantizer


def _learned(w, group_size, keys):
    """Tuned-looking offsets, multipliers and searched scales for ``w``."""
    rng = np.random.default_rng(52)
    n_g = len(C.group_segments(w.shape[0], group_size))
    full = {"v": rng.uniform(-0.5, 0.5, size=w.shape),
            "alpha": rng.uniform(0.5, 1.5, size=(n_g, w.shape[1])),
            "beta": rng.uniform(0.5, 1.5, size=(n_g, w.shape[1])),
            "init_scales": rng.uniform(0.05, 0.5, size=(n_g, w.shape[1]))}
    return {k: full[k] for k in keys}


TUNED = ("v", "alpha", "beta")


class TestQuantizeLayer:
    # (scheme, learned keywords, reference eval weight); the reference
    # calls the family's own function
    CASES = {
        "none": (C.QuantScheme("none", 16, 0), (), lambda w, kw: w),
        "int-sym": (C.QuantScheme("int-sym", 4, 8), (),
                    lambda w, kw: C.quantize_weight(w, 4, 8)[0]),
        "int-sym-tuned": (C.QuantScheme("int-sym", 2, 8), TUNED,
                          lambda w, kw: C.quantize_weight(w, 2, 8, **kw)[0]),
        "int-sym-searched": (C.QuantScheme("int-sym", 3, 16),
                             TUNED + ("init_scales",),
                             lambda w, kw: C.quantize_weight(w, 3, 16,
                                                             **kw)[0]),
        "mxfp4": (C.QuantScheme("mxfp", 4, 32), (),
                  lambda w, kw: C.mx_qdq_weight(w, C.MXFP4)[0]),
        "mxfp8": (C.QuantScheme("mxfp", 8, 32), (),
                  lambda w, kw: C.mx_qdq_weight(w, C.MXFP8)[0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_payload_decodes_to_eval_weight(self, case):
        scheme, keys, reference = self.CASES[case]
        w = np.random.default_rng(51).normal(size=(40, 6))
        # zeros of both signs, and a tiny negative that MX rounds to -0.0
        w[0, 0], w[1, 1], w[2, 2] = 0.0, -0.0, -1e-30
        kw = _learned(w, scheme.group_size, keys)
        deq, pw = C.quantize_layer(w, scheme, **kw)
        np.testing.assert_array_equal(deq.view(np.int64),
                                      reference(w, kw).view(np.int64))
        assert pw.scheme == scheme and tuple(pw.shape) == w.shape
        # bit for bit, negative zeros included, before and after bytes
        back = C.PackedWeights.from_bytes(pw.to_bytes())
        assert back.scheme == scheme
        assert back.to_bytes() == pw.to_bytes()
        for got in (pw.dequantize(), back.dequantize()):
            np.testing.assert_array_equal(got.view(np.int64),
                                          deq.view(np.int64))
        if scheme.family != "int-sym":  # int-sym decodes zero codes to +0.0
            assert np.signbit(deq[1, 1]) and deq[1, 1] == 0.0
