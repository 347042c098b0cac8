"""Toy-model zoo tests: determinism, loss semantics, gradients, hooks."""

import hashlib
import json

import numpy as np
import pytest

from gradcheck import finite_diff_grad
from lowbit import models as M
from lowbit import tensor as T
from lowbit.errors import ConfigError, ContractError, IngestionError, NumericError
from lowbit.scale_init import calibrate_act_stats


def ce_ref(logits, targets):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(targets)), targets].mean()


def next_token_loss_ref(logits, ids):
    b, t, v = logits.shape
    pred = logits[:, : t - 1, :].reshape(b * (t - 1), v)
    tgt = ids[:, 1:].reshape(-1)
    return ce_ref(pred, tgt)


def tiny_spec(arch=M.ARCH_TT, **kw):
    base = dict(
        arch=arch, vocab=11, hidden=8, n_blocks=1, n_heads=2,
        max_seq=6, ffn_mult=2, seed=5,
    )
    base.update(kw)
    return M.ModelSpec(**base)


class TestBuildDeterminism:
    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_same_seed_bit_identical(self, arch):
        a = M.ToyModel.build(tiny_spec(arch=arch))
        b = M.ToyModel.build(tiny_spec(arch=arch))
        assert set(a.params) == set(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        a = M.ToyModel.build(tiny_spec(seed=5))
        b = M.ToyModel.build(tiny_spec(seed=6))
        assert np.abs(a.params["embed"] - b.params["embed"]).max() > 1e-3

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            tiny_spec(hidden=9)  # not divisible by heads
        with pytest.raises(ConfigError):
            tiny_spec(arch="rnn")
        with pytest.raises(ConfigError):
            tiny_spec(vocab=0)

    @pytest.mark.parametrize("field,value", [
        ("n_heads", 0), ("n_heads", -4), ("ffn_mult", 0), ("ffn_mult", -1),
        ("max_seq", 0), ("max_seq", -3)])
    def test_transformer_sizes_must_be_positive(self, field, value):
        with pytest.raises(ConfigError, match=">= 1"):
            tiny_spec(**{field: value})
        tiny_spec(arch=M.ARCH_MLP, **{field: value})  # the MLP reads none

    def test_transformer_layer_names(self):
        m = M.ToyModel.build(tiny_spec(n_blocks=2))
        quant = [li.name for li in m.quantizable_layers()]
        assert "blocks.0.attn.wq" in quant
        assert "blocks.1.mlp.down" in quant
        assert "head" in quant
        # embeddings and gains are parameters, not quantizable layers
        for name in ("embed", "pos_embed", "blocks.0.norm1.g"):
            assert name in m.params
            assert name not in quant
            with pytest.raises(ContractError, match="no quantizable layer"):
                m.layer_info(name)

    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_layer_table_is_the_built_models(self, arch):
        spec = tiny_spec(arch=arch, n_blocks=2, ffn_mult=3)
        table = M.layer_table(spec)
        assert table == M.ToyModel.build(spec).quantizable_layers()
        assert table[-1] == M.LayerInfo("head", (8, 11))

    # sha256 over each parameter's name, dtype, shape and bytes, in key
    # order: the draws, their order and the key order that training and
    # the fp cache read must not move
    @pytest.mark.parametrize("arch,digest", [
        (M.ARCH_MLP, "ccadd808cc9cc9aab28bb4c942dd37af"
                     "1bac33711624a0aa776dd2416c75093e"),
        (M.ARCH_TT, "8ed39f1f00ca6ab75001ad4f858a7771"
                    "e1e61f7a2414cacc53e9f0d02b2f2574")])
    def test_build_parameters_are_pinned(self, arch, digest):
        h = hashlib.sha256()
        for name, a in M.ToyModel.build(tiny_spec(arch=arch,
                                                  n_blocks=2)).params.items():
            h.update(json.dumps([name, a.dtype.str, list(a.shape)]).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest

    def test_block_layer_names_cover_all_non_head(self):
        m = M.ToyModel.build(tiny_spec(n_blocks=3))
        got = []
        for b in m.block_ids():
            got += m.block_layer_names(b)
        quant = [li.name for li in m.quantizable_layers()]
        assert sorted(got) == sorted(n for n in quant if n != "head")


class TestForwardAndLoss:
    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_logits_shape_and_finite(self, arch):
        m = M.ToyModel.build(tiny_spec(arch=arch))
        ids = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        logits = m.forward(ids)
        assert logits.data.shape == (2, 4, 11)
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_loss_matches_manual_shift(self, arch):
        m = M.ToyModel.build(tiny_spec(arch=arch))
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 11, size=(3, 5))
        logits = m.forward(ids)
        loss, _ = m.loss(ids)
        assert loss.item() == pytest.approx(
            next_token_loss_ref(logits.data, ids), rel=1e-9
        )

    def test_loss_requires_two_tokens(self):
        m = M.ToyModel.build(tiny_spec())
        with pytest.raises(ContractError):
            m.loss(np.array([[3]]))

    def test_sequence_length_cap(self):
        m = M.ToyModel.build(tiny_spec(max_seq=4))
        with pytest.raises(ContractError):
            m.forward(np.array([[1, 2, 3, 4, 5]]))

    def test_causality(self):
        # changing a later token must not move earlier logits
        m = M.ToyModel.build(tiny_spec())
        a = np.array([[1, 2, 3, 4]])
        b = np.array([[1, 2, 3, 9]])
        la = m.forward(a)
        lb = m.forward(b)
        np.testing.assert_allclose(
            la.data[0, :3], lb.data[0, :3], rtol=0, atol=1e-12
        )

    def test_eval_loss_is_batch_mean(self):
        m = M.ToyModel.build(tiny_spec())
        batches = [np.array([[1, 2, 3]]), np.array([[4, 5, 6], [7, 8, 9]])]
        per = [m.loss(b)[0].item() for b in batches]
        assert m.eval_loss(batches) == pytest.approx(np.mean(per), rel=1e-12)

    def test_override_replaces_weight(self):
        m = M.ToyModel.build(tiny_spec())
        ids = np.array([[1, 2, 3]])
        base = m.loss(ids)[0].item()
        name = "blocks.0.attn.wq"
        tweaked = m.loss(ids, overrides={name: T.Tensor(m.params[name] * 0)})[0]
        assert tweaked.item() != pytest.approx(base, rel=1e-9)
        # zero override of wq equals zeroing the stored weight
        saved = m.params[name]
        m.params[name] = saved * 0
        direct = m.loss(ids)[0].item()
        m.params[name] = saved
        assert tweaked.item() == pytest.approx(direct, rel=1e-12)


class TestTraining:
    def test_divergence_raises_naming_the_step(self):
        spec = tiny_spec(arch=M.ARCH_MLP)
        model = M.ToyModel.build(spec)
        cal = M.synthetic_batches(spec.vocab, 4, 6, 2, seed=1)
        with pytest.raises(NumericError, match="at step [0-9]+"):
            M.train_model(model, cal, 30, 1e6)


class TestGradients:
    @pytest.mark.parametrize("arch", [M.ARCH_MLP, M.ARCH_TT])
    def test_weight_gradient_matches_finite_differences(self, arch):
        m = M.ToyModel.build(tiny_spec(arch=arch))
        ids = np.array([[1, 4, 2, 7], [3, 0, 5, 6]])
        name = "blocks.0.mlp.up" if arch == M.ARCH_TT else "layers.0"
        w0 = m.params[name].copy()

        leaf = T.Tensor(w0, requires_grad=True)
        loss, _ = m.loss(ids, overrides={name: leaf})
        grads = T.backward(loss, wrt=[leaf])
        got = grads[leaf]

        def f(w):
            return m.loss(ids, overrides={name: w})[0].item()

        want = finite_diff_grad(f, w0, eps=1e-5)
        denom = np.maximum(np.abs(want), 1e-4)
        assert (np.abs(got - want) / denom).max() < 1e-3

    def test_embedding_gradient_flows(self):
        m = M.ToyModel.build(tiny_spec())
        ids = np.array([[1, 2, 1, 3]])
        leaf = T.Tensor(m.params["embed"], requires_grad=True)
        loss, _ = m.loss(ids, overrides={"embed": leaf})
        g = T.backward(loss, wrt=[leaf])[leaf]
        # touched rows get gradient, untouched rows stay zero
        assert np.abs(g[1]).max() > 0
        assert np.abs(g[10]).max() == 0


def record_inputs(model, ids):
    """(logits, each linear layer's input) from taps that record their
    input and return it unchanged."""
    seen = {}

    def recorder(name):
        def tap(x):
            seen[name] = x.data
            return x
        return tap
    logits = model.forward(ids, taps={i.name: recorder(i.name)
                                      for i in model.quantizable_layers()})
    return logits, seen


class TestHooks:
    def test_capture_records_layer_inputs(self):
        m = M.ToyModel.build(tiny_spec())
        ids = np.array([[1, 2, 3]])
        logits, caps = record_inputs(m, ids)
        assert "blocks.0.attn.wq" in caps
        assert "head" in caps
        assert caps["blocks.0.attn.wq"].shape == (1, 3, 8)
        # recording leaves the forward as it is
        np.testing.assert_array_equal(logits.data, m.forward(ids).data)

    def test_tap_rewrites_layer_input(self):
        m = M.ToyModel.build(tiny_spec())
        ids = np.array([[1, 2, 3]])
        x = record_inputs(m, ids)[1]["blocks.0.mlp.up"]

        nodes = []

        def double(t):
            nodes.append(T.Tensor(t.data * 2.0, requires_grad=True))
            return nodes[-1]

        loss, _ = m.loss(ids, taps={"blocks.0.mlp.up": double})
        (node,) = nodes
        np.testing.assert_allclose(node.data, x * 2.0, rtol=1e-12)
        # the rewritten input is the node the pass runs on
        assert np.abs(T.backward(loss, wrt=[node])[node]).max() > 0

    def test_calibrate_act_stats_aggregates_batches(self):
        m = M.ToyModel.build(tiny_spec())
        batches = [np.array([[1, 2, 3]]), np.array([[4, 5, 6]])]
        stats = calibrate_act_stats(m, batches)
        v = stats["blocks.0.attn.wq"]
        assert v.shape == (8,)
        assert (v > 0).all()
        seen = [record_inputs(m, ids)[1]["blocks.0.attn.wq"] for ids in batches]
        np.testing.assert_array_equal(
            v, np.maximum(*(np.abs(x).reshape(-1, 8).max(axis=0) for x in seen)))

    def test_block_forward_composes_to_full_forward(self):
        m = M.ToyModel.build(tiny_spec(n_blocks=2))
        ids = np.array([[1, 2, 3, 4]])
        x = m.embed_forward(ids)
        for b in m.block_ids():
            x = m.block_forward(b, x)
        loss_comp, _ = m.loss(ids, start=m.spec.n_blocks, x=x)
        loss_full, _ = m.loss(ids)
        assert loss_comp.item() == loss_full.item()


class TestDataPipeline:
    def test_zipf_probs_normalized_and_decreasing(self):
        p = M.zipf_probs(50)
        assert p.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(p) < 0)

    def test_synthetic_batches_shapes_and_determinism(self):
        a = M.synthetic_batches(11, n_samples=7, seq_len=5, batch_size=3, seed=1)
        b = M.synthetic_batches(11, n_samples=7, seq_len=5, batch_size=3, seed=1)
        assert [x.shape for x in a] == [(3, 5), (3, 5), (1, 5)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = M.synthetic_batches(11, n_samples=7, seq_len=5, batch_size=3, seed=2)
        assert any(np.any(x != y) for x, y in zip(a, c))

    def test_synthetic_batches_token_range(self):
        for x in M.synthetic_batches(7, n_samples=8, seq_len=16, batch_size=4, seed=3):
            assert x.min() >= 0 and x.max() < 7

    def test_read_token_file(self, tmp_path):
        p = tmp_path / "tok.txt"
        p.write_text("1 2 3 4 5\n6 7\n\n8 9 10 11 12 13\n")
        got = M.read_token_file(p, vocab=20, seq_len=4, n_samples=3)
        assert [tuple(r) for r in got] == [
            (1, 2, 3, 4), (6, 7, 0, 0), (8, 9, 10, 11)
        ]

    def test_read_token_file_bad_token(self, tmp_path):
        p = tmp_path / "tok.txt"
        p.write_text("1 2\n3 oops\n")
        with pytest.raises(IngestionError, match=":2:"):
            M.read_token_file(p, vocab=20, seq_len=2, n_samples=2)

    def test_read_token_file_out_of_range(self, tmp_path):
        p = tmp_path / "tok.txt"
        p.write_text("1 99\n")
        with pytest.raises(IngestionError, match=":1:"):
            M.read_token_file(p, vocab=20, seq_len=2, n_samples=1)

    def test_read_token_file_insufficient(self, tmp_path):
        p = tmp_path / "tok.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(IngestionError, match="requested 5"):
            M.read_token_file(p, vocab=20, seq_len=3, n_samples=5)

    def test_eval_batches_disjoint_from_calibration(self):
        spec = tiny_spec()
        cal = M.synthetic_batches(11, n_samples=4, seq_len=5, batch_size=2, seed=9)
        ev = M.eval_batches(spec, n_samples=4, seq_len=5, batch_size=2, seed=9)
        flat_cal = np.concatenate([b.reshape(-1) for b in cal])
        flat_ev = np.concatenate([b.reshape(-1) for b in ev])
        assert flat_cal.shape == flat_ev.shape
        assert np.any(flat_cal != flat_ev)

    def test_a_token_file_is_not_a_generated_source(self, tmp_path):
        # its first rows are the calibration rows, never held-out data;
        # a run's token file is split by models.token_file_rows
        p = tmp_path / "tok.txt"
        p.write_text("1 2 3\n" * 8)
        with pytest.raises(ContractError, match="not a generated source"):
            M.eval_batches(tiny_spec(), 2, 3, 2, seed=0, source=str(p))
        with pytest.raises(ContractError, match="not a generated source"):
            M.load_calibration(str(p), 20, 2, 3, 2, seed=0)


class TestMarkovData:
    def test_transition_rows_are_distributions(self):
        P = M.markov_transition(13, chain_seed=5)
        assert P.shape == (13, 13)
        assert np.all(P > 0)
        np.testing.assert_allclose(P.sum(axis=1), np.ones(13), rtol=1e-12)

    def test_batches_deterministic_and_in_range(self):
        a = M.markov_batches(9, n_samples=6, seq_len=12, batch_size=4, seed=2)
        b = M.markov_batches(9, n_samples=6, seq_len=12, batch_size=4, seed=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        flat = np.concatenate([x.reshape(-1) for x in a])
        assert flat.min() >= 0 and flat.max() < 9

    def test_samples_follow_the_chain(self):
        # empirical successor distribution of the most common token should
        # land near its transition row
        vocab = 8
        P = M.markov_transition(vocab)
        ids = np.concatenate(
            M.markov_batches(vocab, n_samples=64, seq_len=64, batch_size=64,
                             seed=0))
        cur, nxt = ids[:, :-1].reshape(-1), ids[:, 1:].reshape(-1)
        tok = np.bincount(cur, minlength=vocab).argmax()
        succ = nxt[cur == tok]
        emp = np.bincount(succ, minlength=vocab) / succ.size
        assert np.abs(emp - P[tok]).sum() < 0.15  # total variation, well fed
        assert emp.argmax() == P[tok].argmax()

    def test_chain_seed_changes_language_sample_seed_does_not(self):
        base = M.markov_batches(9, 4, 10, 4, seed=1)
        other_lang = M.markov_batches(9, 4, 10, 4, seed=1, chain_seed=202)
        assert any(not np.array_equal(x, y) for x, y in zip(base, other_lang))

    def test_load_calibration_markov_source(self):
        via = M.load_calibration("markov", 9, 4, 10, 2, seed=3)
        direct = M.markov_batches(9, 4, 10, 2, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(via, direct))

    def test_eval_batches_markov_family(self):
        spec = tiny_spec()
        ev = M.eval_batches(spec, 4, 5, 2, seed=9, source="markov")
        direct = M.markov_batches(spec.vocab, 4, 5, 2,
                                  seed=9 + M.EVAL_SEED_OFFSET)
        assert all(np.array_equal(x, y) for x, y in zip(ev, direct))

    def test_trained_toy_markov_generalizes(self):
        spec = M.ModelSpec(arch=M.ARCH_MLP, hidden=16, n_blocks=1, vocab=16,
                           n_heads=4, ffn_mult=2, max_seq=16, seed=0)
        model, cal = M.trained_toy(spec, n_samples=32, seq_len=16,
                                   batch_size=8, steps=120, lr=0.5,
                                   source="markov")
        ev = M.eval_batches(spec, 8, 16, 8, seed=0, source="markov")
        gap = model.eval_loss(ev) - model.eval_loss(cal)
        assert gap < 0.5  # held-out tracks training: the chain is learnable
