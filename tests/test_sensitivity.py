"""Sensitivity-score tests, anchored by a brute-force loss-delta oracle."""

import json

import numpy as np
import pytest
from scipy.stats import spearmanr

from lowbit import cli, codecs
from lowbit import models as M
from lowbit import sensitivity as sv
from lowbit import tensor as T
from lowbit.allocator import AllocationProblem
from lowbit.codecs import mx_qdq
from lowbit.errors import ContractError
from tracepeak import peak_layers


def true_delta_weight(model, cal, name, scheme):
    """|loss with this one layer RTN-quantized - full loss|."""
    base = model.eval_loss(cal)
    wq = sv.rtn_weight(model.params[name], scheme)
    return abs(model.eval_loss(cal, weights={name: wq}) - base)


def true_delta_weight_act(model, cal, name, scheme):
    """As above, with the layer's input activations quantized too."""
    fmt = scheme.mx_format
    wq = sv.rtn_weight(model.params[name], scheme)

    def tap(x):
        return T.Tensor(mx_qdq(x.data, fmt)[0])

    base = model.eval_loss(cal)
    tot = 0.0
    for ids in cal:
        loss, _ = model.loss(ids, overrides={name: T.Tensor(wq)},
                             taps={name: tap})
        tot += loss.item()
    return abs(tot / len(cal) - base)


def trained_fixture(seed, arch=M.ARCH_TT):
    spec = M.ModelSpec(arch=arch, hidden=32, n_blocks=2, vocab=64, n_heads=4,
                       ffn_mult=2, max_seq=32, seed=seed)
    return M.trained_toy(spec)


class TestOptionSet:
    def test_labels_and_order(self):
        opts = sv.option_set("int-sym", [8, 2, 4], 32)
        assert [s.label for s in opts] == ["w2g32", "w4g32", "w8g32"]
        opts = sv.option_set("mxfp", [8, 4])
        assert [s.label for s in opts] == ["mxfp4", "mxfp8"]

    def test_sixteen_bit_is_passthrough(self):
        opts = sv.option_set("int-sym", [4, 16], 32)
        assert opts[-1].family == "none"
        assert opts[-1].label == "w16"

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            sv.option_set("int-sym", [], 32)


class TestWeightOnlyScore:
    def test_zero_when_weight_already_on_grid(self):
        m = M.ToyModel.build(M.ModelSpec(
            arch=M.ARCH_MLP, hidden=8, n_blocks=1, vocab=11, n_heads=2,
            max_seq=6, seed=3))
        # codes spanning the full 2-bit range make minmax qdq a fixed point
        rng = np.random.default_rng(0)
        codes = rng.integers(-2, 2, size=(8, 8)).astype(np.float64)
        codes[0, :] = -2
        codes[1, :] = 1
        m.params["layers.0"] = codes * 0.5
        scheme = sv.option_set("int-sym", [2], 0)[0]
        cal = [np.array([[1, 2, 3, 4]])]
        assert sv.delta_loss(m, "layers.0", scheme, cal) == 0.0

    def test_scales_linearly_with_deviation(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(5, 4))
        dev = rng.normal(size=(5, 4))
        one = sv.deviation_score(g, dev)
        assert sv.deviation_score(g, 2 * dev) == pytest.approx(2 * one, rel=1e-12)
        assert one >= 0

    def test_sixteen_bit_option_scores_zero(self):
        m, cal = trained_fixture(0)
        scheme = sv.option_set("int-sym", [16], 32)[0]
        assert sv.delta_loss(m, "head", scheme, cal) == 0.0

    def test_non_linear_layer_rejected(self):
        m, cal = trained_fixture(0)
        scheme = sv.option_set("int-sym", [2], 32)[0]
        with pytest.raises(ContractError):
            sv.delta_loss(m, "blocks.0.norm1.g", scheme, cal)
        with pytest.raises(ContractError):
            sv.delta_loss(m, "embed", scheme, cal)

    def test_rank_correlates_with_true_loss_delta(self):
        m, cal = trained_fixture(1)
        scheme = sv.option_set("int-sym", [2], 32)[0]
        names = [i.name for i in m.quantizable_layers()]
        dl = [sv.delta_loss(m, n, scheme, cal) for n in names]
        td = [true_delta_weight(m, cal, n, scheme) for n in names]
        rho = spearmanr(dl, td).statistic
        assert rho >= 0.8

    def test_layer_spread_exceeds_ten_x(self):
        m, cal = trained_fixture(1)
        scheme = sv.option_set("int-sym", [2], 32)[0]
        scores = [sv.delta_loss(m, i.name, scheme, cal)
                  for i in m.quantizable_layers()]
        assert max(scores) / min(scores) > 10


class TestWeightActScore:
    def test_zero_when_acts_exactly_representable(self):
        m = M.ToyModel.build(M.ModelSpec(
            arch=M.ARCH_MLP, hidden=8, n_blocks=1, vocab=11, n_heads=2,
            max_seq=6, seed=3))
        # mlp layer inputs are raw embedding rows; place those on the
        # e2m1 grid (amax 4 -> block scale 1) so A_f == qdq(A_f)
        rng = np.random.default_rng(4)
        m.params["embed"] = rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0],
                                       size=(11, 8))
        scheme = sv.option_set("mxfp", [4])[0]
        cal = [np.array([[1, 2, 3, 4]])]
        assert sv.delta_loss(m, "layers.0", scheme, cal) == 0.0

    def test_eight_bit_scores_below_four_bit(self):
        hits = trials = 0
        for seed in range(8):
            m, cal = trained_fixture(seed)
            s4, s8 = sv.option_set("mxfp", [4, 8])
            for name in ("blocks.0.mlp.up", "blocks.1.attn.wo", "head"):
                a4 = sv.delta_loss(m, name, s4, cal[:1])
                a8 = sv.delta_loss(m, name, s8, cal[:1])
                trials += 1
                hits += a8 <= a4
        assert hits / trials >= 0.95

    def test_rank_correlates_with_true_loss_delta(self):
        m, cal = trained_fixture(11)
        scheme = sv.option_set("mxfp", [4])[0]
        names = [i.name for i in m.quantizable_layers()]
        dl = [sv.delta_loss(m, n, scheme, cal) for n in names]
        td = [true_delta_weight_act(m, cal, n, scheme) for n in names]
        assert spearmanr(dl, td).statistic >= 0.8


def untrained_fixture(arch):
    spec = M.ModelSpec(arch=arch, hidden=32, n_blocks=2, vocab=64, n_heads=4,
                       ffn_mult=2, max_seq=32, seed=4)
    return M.ToyModel.build(spec), M.synthetic_batches(64, 6, 16, 3, seed=4)


def probe_start(model, info):
    """The block whose fp input a probe of ``info``'s layer starts from."""
    return model.spec.n_blocks if info.block is None else info.block


class TestPrefixProbe:
    """A probe started from the shared fp block inputs is the full-forward
    probe, bit for bit."""

    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_weight_probe_equals_full_forward(self, arch):
        m, cal = untrained_fixture(arch)
        prefixes = sv.fp_prefixes(m, cal)
        assert len(prefixes[0]) == m.spec.n_blocks + 1
        for info in m.quantizable_layers():
            w_q = sv.rtn_weight(m.params[info.name],
                                sv.option_set("int-sym", [2], 32)[0])
            start = probe_start(m, info)
            for ids, xs in zip(cal, prefixes):
                fast = T.Tensor(w_q, requires_grad=True)
                loss, _ = m.loss(ids, {info.name: fast}, None, start, xs[start])
                full = T.Tensor(w_q, requires_grad=True)
                loss_full, _ = m.loss(ids, overrides={info.name: full})
                assert loss.item() == loss_full.item()
                assert np.array_equal(T.backward(loss, wrt=[fast])[fast],
                                      T.backward(loss_full, wrt=[full])[full])

    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_activation_tap_equals_full_forward(self, arch):
        m, cal = untrained_fixture(arch)
        prefixes = sv.fp_prefixes(m, cal)
        fmt = sv.option_set("mxfp", [4])[0].mx_format
        for info in m.quantizable_layers():
            start = probe_start(m, info)
            for ids, xs in zip(cal, prefixes):
                leaves = []

                def tap(x):
                    leaves.append(T.Tensor(mx_qdq(x.data, fmt)[0],
                                           requires_grad=True))
                    return leaves[-1]

                loss, _ = m.loss(ids, {}, {info.name: tap}, start, xs[start])
                loss_full, _ = m.loss(ids, taps={info.name: tap})
                fast, full = leaves
                assert np.array_equal(fast.data, full.data)
                assert loss.item() == loss_full.item()
                assert np.array_equal(T.backward(loss, wrt=[fast])[fast],
                                      T.backward(loss_full, wrt=[full])[full])

    @pytest.mark.parametrize("family,bits", [("int-sym", [2, 4, 16]),
                                             ("mxfp", [4, 8, 16])])
    def test_report_equals_probes_without_prefixes(self, family, bits):
        m, cal = untrained_fixture(M.ARCH_TT)
        schemes = sv.option_set(family, bits, 32)
        rep = sv.build_report(m, schemes, cal)
        for layer in rep["layers"]:
            assert layer["scores"] == {
                s.label: sv.delta_loss(m, layer["name"], s, cal)
                for s in schemes}


class TestReport:
    def test_cardinality_and_nonnegativity(self):
        m, cal = trained_fixture(0)
        schemes = sv.option_set("int-sym", [2, 4, 16], 32)
        rep = sv.build_report(m, schemes, cal)
        assert len(rep["layers"]) == len(m.quantizable_layers())
        for l in rep["layers"]:
            assert set(l["scores"]) == {"w2g32", "w4g32", "w16"}
            assert all(v >= 0 for v in l["scores"].values())
            assert l["scores"]["w16"] == 0.0
            assert l["params"] == m.layer_info(l["name"]).n_params

    def test_all_identity_options_give_zero_report(self):
        m, cal = trained_fixture(0)
        rep = sv.build_report(m, sv.option_set("int-sym", [16], 32), cal)
        assert all(l["scores"]["w16"] == 0.0 for l in rep["layers"])

    def test_deterministic_and_immutable(self):
        m, cal = trained_fixture(2)
        snap = {k: v.copy() for k, v in m.params.items()}
        schemes = sv.option_set("int-sym", [2, 4], 32)
        a = sv.build_report(m, schemes, cal)
        b = sv.build_report(m, schemes, cal)
        assert a == b
        for k in snap:
            np.testing.assert_array_equal(m.params[k], snap[k])

    def test_batch_order_invariance(self):
        m, cal = trained_fixture(2)
        assert len(cal) == 2
        schemes = sv.option_set("int-sym", [2], 32)
        a = sv.build_report(m, schemes, cal)
        b = sv.build_report(m, schemes, cal[::-1])
        assert a == b

    def test_save_load_round_trip(self, tmp_path):
        m, cal = trained_fixture(0)
        schemes = sv.option_set("int-sym", [2, 4], 32)
        rep = sv.build_report(m, schemes, cal)
        p = tmp_path / "rep.json"
        cli._write_json(p, rep)
        back = json.loads(p.read_text())
        assert back == rep
        assert AllocationProblem.from_report(back, "3") \
            == AllocationProblem.from_report(rep, "3")


@pytest.mark.parametrize("layer", ["layers.0", "head"])
def test_probe_on_a_512_wide_layer_stays_small(layer):
    # a backward that kept every gradient, or a weight gradient built as
    # a (batch, in, out) stack, takes a probe to 12-15 layer-sized arrays;
    # a second temporary in deviation_score takes it to 5.5
    spec = M.ModelSpec(arch=M.ARCH_MLP, hidden=512, n_blocks=1, vocab=512,
                       seed=3)
    m = M.ToyModel.build(spec)
    cal = M.synthetic_batches(512, 8, 32, 8, seed=3)
    prefixes = sv.fp_prefixes(m, cal)
    scheme = sv.option_set("int-sym", [4], 32)[0]
    peak = peak_layers(lambda: sv.delta_loss(m, layer, scheme, cal, prefixes))
    assert peak <= 5.25, peak


def test_probe_graph_holds_only_what_its_vjps_read():
    # layers.0 of two 512-wide blocks: the graph reaches through both
    # blocks and the head; one that held every op's output took the
    # probe to 6.5
    spec = M.ModelSpec(arch=M.ARCH_MLP, hidden=512, n_blocks=2, vocab=512,
                       seed=3)
    m = M.ToyModel.build(spec)
    cal = M.synthetic_batches(512, 8, 32, 8, seed=3)
    prefixes = sv.fp_prefixes(m, cal)
    scheme = sv.option_set("int-sym", [4], 32)[0]
    peak = peak_layers(
        lambda: sv.delta_loss(m, "layers.0", scheme, cal, prefixes))
    assert peak <= 4.75, peak


def test_activation_probe_encodes_no_codes(monkeypatch):
    # the tap reads the dequantized input only: the one encoding is the
    # weight's payload
    m, cal = untrained_fixture(M.ARCH_MLP)
    scheme = sv.option_set("mxfp", [4], 32)[0]
    encoded = []
    encode = codecs._encode_grid

    def counted(q, fmt):
        encoded.append(q.shape)
        return encode(q, fmt)
    monkeypatch.setattr(codecs, "_encode_grid", counted)
    sv.delta_loss(m, "layers.1", scheme, cal)
    assert len(cal) > 1 and len(encoded) == 1


def test_deviation_score_holds_one_temporary():
    # |grad * deviation| built as a product and then its abs held two
    # layer-sized arrays at once
    rng = np.random.default_rng(4)
    g, dev = rng.normal(size=(2, 512, 512))
    g0, dev0 = g.copy(), dev.copy()
    peak = peak_layers(lambda: sv.deviation_score(g, dev))
    assert peak <= 1.05, peak
    assert np.array_equal(g, g0) and np.array_equal(dev, dev0)
