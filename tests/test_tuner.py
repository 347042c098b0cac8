"""Block tuning: trimmed objective, sign descent, and the quantize pipeline."""

import numpy as np
import pytest

from lowbit import codecs, models, tuner
from lowbit import tensor as T
from lowbit.errors import ConfigError, ContractError, NumericError, ShapeError
from lowbit.spec import scheme_for_bits
from tracepeak import held_layers, peak_layers


def trimmed_ref(pred, target, frac):
    """Sort-based reference for the trimmed squared-error objective."""
    sq = np.square(np.asarray(pred, dtype=np.float64).ravel()
                   - np.asarray(target, dtype=np.float64).ravel())
    k = int(np.floor(frac * sq.size))
    if k == 0:
        return float(sq.sum())
    order = np.argsort(sq, kind="stable")
    return float(sq[order[: sq.size - k]].sum())


def small_model(arch=models.ARCH_MLP, hidden=16, n_blocks=1, vocab=23, seed=3,
                n_samples=8, seq_len=8):
    spec = models.ModelSpec(arch=arch, hidden=hidden, n_blocks=n_blocks,
                            vocab=vocab, n_heads=4, ffn_mult=2, max_seq=seq_len,
                            seed=seed)
    model = models.ToyModel.build(spec)
    cal = models.synthetic_batches(vocab, n_samples, seq_len, batch_size=4,
                                   seed=seed)
    return model, cal


def block_inputs(model, cal):
    return model.embed_forward(np.concatenate(cal))


def beta_leaf_step(model, block, x, target, frozen, schemes, theta,
                   init_scales, cfg, last):
    """``tuner._tuning_step`` with every parameter a leaf: under searched
    scales beta takes a sign step on its zero gradient."""
    over = dict(frozen)
    leaves = {}
    for n, th in theta.items():
        sch = schemes[n]
        leaves[n] = [T.Tensor(th[k], requires_grad=not last)
                     for k in tuner.BOXES]
        over[n] = codecs.uniform_qdq_graph(
            model.params[n], sch.bits, sch.group_size, *leaves[n],
            init_scales=init_scales.get(n))
    loss = tuner.trimmed_mse(model.block_forward(block, x, overrides=over),
                             target, cfg.trim_fraction)
    if last or not np.isfinite(loss.item()):
        return loss.item(), None
    grads = T.backward(loss, wrt=[t for ts in leaves.values() for t in ts])
    return loss.item(), {
        n: {k: tuner._sign_step(th[k], grads[t], cfg.lr, tuner.BOXES[k],
                                np.empty_like(th[k]))
            for k, t in zip(tuner.BOXES, leaves[n])}
        for n, th in theta.items()}


def tt_int_run():
    """The benchmark's tt-int shapes: a 2-block, 64-wide tiny transformer,
    64 calibration rows of 32 tokens, int-sym 2/4/8/16 bits, tuned in
    batches of 8. Returns (model, plan, calibration, TuneConfig)."""
    model, cal = small_model(arch=models.ARCH_TT, hidden=64, n_blocks=2,
                             vocab=64, seed=21, n_samples=64, seq_len=32)
    names = [i.name for i in model.quantizable_layers()]
    plan = tuner.plan_from_assignment(
        names, [(2, 4, 8, 16)[i % 4] for i in range(len(names))], "int-sym")
    cfg = tuner.TuneConfig(steps=2, lr=0.05, batch_size=8, seed=0)
    return model, plan, cal, cfg


class TestTrimmedMse:
    def test_worked_example(self):
        pred = T.Tensor(np.array([3.0, 2.0, 1.0, 0.0]))
        tgt = np.zeros(4)
        # squared errors [9, 4, 1, 0]
        assert tuner.trimmed_mse(pred, tgt, 0.25).item() == 5.0
        assert tuner.trimmed_mse(pred, tgt, 0.5).item() == 1.0
        assert tuner.trimmed_mse(pred, tgt, 0.0).item() == 14.0

    def test_k_zero_is_plain_sum(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(5, 7))
        t = rng.normal(size=(5, 7))
        got = tuner.trimmed_mse(T.Tensor(p), t, 0.001).item()  # floor(.035) == 0
        assert got == float(((p - t) ** 2).sum())

    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            shape = tuple(rng.integers(2, 9, size=rng.integers(1, 4)))
            p = rng.normal(size=shape)
            t = rng.normal(size=shape)
            frac = float(rng.uniform(0, 0.9))
            got = tuner.trimmed_mse(T.Tensor(p), t, frac).item()
            assert got == pytest.approx(trimmed_ref(p, t, frac), rel=1e-12)

    def test_gradient_flows_through_survivors_only(self):
        rng = np.random.default_rng(4)
        p_arr = rng.normal(size=12)
        t = rng.normal(size=12)
        pred = T.Tensor(p_arr, requires_grad=True)
        loss = tuner.trimmed_mse(pred, t, 0.25)  # drops the 3 largest
        g = T.backward(loss, wrt=[pred])[pred]
        sq = (p_arr - t) ** 2
        dropped = np.argsort(sq, kind="stable")[-3:]
        expect = 2.0 * (p_arr - t)
        expect[dropped] = 0.0
        np.testing.assert_array_equal(g, expect)

    def test_ties_drop_later_positions_first(self):
        pred = T.Tensor(np.ones(4), requires_grad=True)
        loss = tuner.trimmed_mse(pred, np.zeros(4), 0.25)
        assert loss.item() == 3.0
        g = T.backward(loss, wrt=[pred])[pred]
        np.testing.assert_array_equal(g, [2.0, 2.0, 2.0, 0.0])

    def test_bit_identical_to_stable_argsort_with_heavy_ties(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 7, 64, 1000, 16384):
            for frac in (0.001, 0.01, 0.25, 0.5, 0.9, 0.999):
                # integer-valued errors: few distinct values, many ties
                p_arr = rng.integers(-3, 4, size=n).astype(np.float64)
                t = rng.integers(-1, 2, size=n).astype(np.float64)
                pred = T.Tensor(p_arr, requires_grad=True)
                loss = tuner.trimmed_mse(pred, t, frac)
                g = T.backward(loss, wrt=[pred])[pred]

                k = int(np.floor(frac * n))
                mask = np.ones(n)
                order = np.argsort((p_arr - t) ** 2, kind="stable")
                mask[order[n - k:]] = 0.0
                # the masked sum of squares and its chain-rule gradient
                diff = p_arr + (-t)
                ref = float((diff * diff * mask).sum())
                ref_g = mask * diff + mask * diff
                assert loss.item() == ref, (n, frac)
                np.testing.assert_array_equal(g.view(np.int64),
                                              ref_g.view(np.int64))

    def test_an_inf_among_the_dropped_makes_the_loss_nan(self):
        # the dropped squares are zeroed by a product, and inf * 0 is NaN,
        # so tuning stops on such a batch instead of hiding the inf
        pred = T.Tensor(np.array([np.inf, 1.0, 2.0, 0.5]), requires_grad=True)
        with np.errstate(invalid="ignore"):
            assert np.isnan(tuner.trimmed_mse(pred, np.zeros(4), 0.25).item())
        assert tuner.trimmed_mse(pred, np.zeros(4), 0.0).item() == np.inf

    def test_holds_its_difference_and_a_bool_mask_only(self):
        rng = np.random.default_rng(6)
        pred = T.Tensor(rng.normal(size=(512, 512)), requires_grad=True)
        target = rng.normal(size=(512, 512))
        held = held_layers(lambda: tuner.trimmed_mse(pred, target, 0.01))
        # the difference and an eighth-sized mask; a graph of the
        # difference, its square, a float mask and the masked square,
        # with the negated target, held 5.0
        assert held <= 1.2, held
        peak = peak_layers(lambda: tuner.trimmed_mse(pred, target, 0.01))
        assert peak <= 3.5, peak

    def test_contracts(self):
        with pytest.raises(ShapeError):
            tuner.trimmed_mse(T.Tensor(np.ones(3)), np.ones(4), 0.0)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ContractError):
                tuner.trimmed_mse(T.Tensor(np.ones(3)), np.ones(3), bad)


class TestTuneConfig:
    def test_defaults(self):
        cfg = tuner.TuneConfig()
        assert cfg.steps == 200
        assert cfg.lr == pytest.approx(1.0 / 200)
        assert cfg.batch_size == 8
        assert cfg.trim_fraction == 0.001

    def test_lr_follows_overridden_steps(self):
        assert tuner.TuneConfig(steps=10).lr == pytest.approx(0.1)
        assert tuner.TuneConfig(steps=10, lr=0.5).lr == 0.5

    def test_steps_zero_allowed_as_disable(self):
        cfg = tuner.TuneConfig(steps=0)
        assert cfg.steps == 0 and cfg.lr > 0

    @pytest.mark.parametrize("kw", [
        dict(steps=-1), dict(lr=0.0), dict(lr=-0.1),
        dict(trim_fraction=1.0), dict(trim_fraction=-0.01),
        dict(batch_size=0), dict(seed=-1),
        dict(lr=float("nan")), dict(lr=float("inf")),
    ])
    def test_invalid_config(self, kw):
        with pytest.raises(ConfigError):
            tuner.TuneConfig(**kw)


class TestTuneBlock:
    def test_one_step_matches_manual_update(self):
        model, cal = small_model()
        x = block_inputs(model, cal)
        targets = model.block_forward(0, x).data
        scheme = scheme_for_bits("int-sym", 3, 32)
        cfg = tuner.TuneConfig(steps=1, lr=0.05, batch_size=4, trim_fraction=0.0,
                               seed=9)

        got = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)

        # replay by hand: evaluate at theta0, update, evaluate at theta1
        w = model.params["layers.0"]
        rng = np.random.default_rng((9, 0))

        def eval_at(v0, a0, b0, idx):
            v = T.Tensor(v0, requires_grad=True)
            a = T.Tensor(a0, requires_grad=True)
            b = T.Tensor(b0, requires_grad=True)
            qdq = codecs.uniform_qdq_graph(w, 3, 32, v, a, b)
            out = model.block_forward(0, x[idx], overrides={"layers.0": qdq})
            loss = tuner.trimmed_mse(out, targets[idx], 0.0)
            return loss.item(), T.backward(loss, wrt=[v, a, b]), (v, a, b)

        ones = np.ones((1, w.shape[1]))
        idx0 = rng.choice(x.shape[0], size=4, replace=False)
        l0, g0, (v, a, b) = eval_at(np.zeros_like(w), ones, ones, idx0)
        v1 = np.clip(-0.05 * np.sign(g0[v]), -0.5, 0.5)
        a1 = np.clip(1.0 - 0.05 * np.sign(g0[a]), 0.5, 1.5)
        b1 = np.clip(1.0 - 0.05 * np.sign(g0[b]), 0.5, 1.5)
        idx1 = rng.choice(x.shape[0], size=4, replace=False)
        l1, _, _ = eval_at(v1, a1, b1, idx1)

        assert got.history == [l0, l1]
        assert got.initial_loss == l0
        lay = got.learned["layers.0"]
        if l1 < l0:
            np.testing.assert_array_equal(lay["v"], v1)
            np.testing.assert_array_equal(lay["alpha"], a1)
            np.testing.assert_array_equal(lay["beta"], b1)
            assert got.best_step == 1
        else:
            np.testing.assert_array_equal(lay["v"], np.zeros_like(w))
            assert got.best_step == 0
        assert not np.array_equal(v1, np.zeros_like(w))  # the update moved

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_improves_block_output_error(self, seed):
        model, cal = small_model(seed=seed)
        x = block_inputs(model, cal)
        targets = model.block_forward(0, x).data
        scheme = scheme_for_bits("int-sym", 2, 32)
        cfg = tuner.TuneConfig(steps=60, lr=0.02, batch_size=4, trim_fraction=0.0,
                               seed=seed)
        res = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)

        w = model.params["layers.0"]
        lay = res.learned["layers.0"]
        tuned_w, _, _ = codecs.quantize_weight(
            w, 2, 32, v=lay["v"], alpha=lay["alpha"], beta=lay["beta"])
        rtn_w, _, _ = codecs.quantize_weight(w, 2, 32)
        tuned_err = trimmed_ref(
            model.block_forward(0, x, overrides={"layers.0": tuned_w}).data,
            targets, 0.0)
        rtn_err = trimmed_ref(
            model.block_forward(0, x, overrides={"layers.0": rtn_w}).data,
            targets, 0.0)
        assert tuned_err < rtn_err
        assert res.final_loss <= res.initial_loss

    def test_best_so_far_wins_over_last(self):
        model, cal = small_model(seed=7)
        x = block_inputs(model, cal)
        targets = model.block_forward(0, x).data
        scheme = scheme_for_bits("int-sym", 2, 32)
        # big steps overshoot, so late iterates are worse than the best one
        cfg = tuner.TuneConfig(steps=12, lr=0.3, batch_size=4, trim_fraction=0.0,
                               seed=1)
        res = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)
        assert res.final_loss == min(res.history)
        assert res.best_step == int(np.argmin(res.history))
        assert res.final_loss <= res.initial_loss

        # the returned parameters reproduce the best step's loss on its batch
        rng = np.random.default_rng((1, 0))
        batches = [rng.choice(x.shape[0], size=4, replace=False)
                   for _ in range(cfg.steps + 1)]
        idx = batches[res.best_step]
        lay = res.learned["layers.0"]
        w = model.params["layers.0"]
        qw, _, _ = codecs.quantize_weight(
            w, 2, 32, v=lay["v"], alpha=lay["alpha"], beta=lay["beta"])
        replay = trimmed_ref(
            model.block_forward(0, x[idx], overrides={"layers.0": qw}).data,
            targets[idx], 0.0)
        assert res.final_loss == pytest.approx(replay, rel=1e-12)

    def test_exact_weights_are_a_fixed_point(self):
        model, cal = small_model(seed=2)
        w = model.params["layers.0"]
        rng = np.random.default_rng(5)
        codes = rng.integers(-2, 2, size=w.shape).astype(np.float64)
        codes[0, :] = -2.0
        codes[1, :] = 1.0  # full span pins the minmax scale per column
        model.params["layers.0"] = codes * 0.125
        x = block_inputs(model, cal)
        scheme = scheme_for_bits("int-sym", 2, 32)
        cfg = tuner.TuneConfig(steps=5, lr=0.1, batch_size=4, trim_fraction=0.0,
                               seed=0)
        res = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)
        assert res.history == [0.0] * 6
        lay = res.learned["layers.0"]
        np.testing.assert_array_equal(lay["v"], np.zeros_like(w))
        np.testing.assert_array_equal(lay["alpha"], np.ones_like(lay["alpha"]))
        np.testing.assert_array_equal(lay["beta"], np.ones_like(lay["beta"]))

    def test_deterministic(self):
        model, cal = small_model(seed=4)
        x = block_inputs(model, cal)
        scheme = scheme_for_bits("int-sym", 2, 32)
        cfg = tuner.TuneConfig(steps=8, lr=0.05, batch_size=4, seed=3)
        a = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)
        b = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)
        assert a.history == b.history
        np.testing.assert_array_equal(a.learned["layers.0"]["v"],
                                      b.learned["layers.0"]["v"])
        np.testing.assert_array_equal(a.learned["layers.0"]["alpha"],
                                      b.learned["layers.0"]["alpha"])

    def test_init_scales_mode_keeps_beta_inert(self):
        model, cal = small_model(seed=6)
        x = block_inputs(model, cal)
        w = model.params["layers.0"]
        s0 = np.abs(w).max(axis=0, keepdims=True) / 2.0
        scheme = scheme_for_bits("int-sym", 2, 32)
        cfg = tuner.TuneConfig(steps=10, lr=0.05, batch_size=4, seed=2)
        res = tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg,
                               init_scales={"layers.0": s0})
        lay = res.learned["layers.0"]
        np.testing.assert_array_equal(lay["beta"], np.ones_like(lay["beta"]))
        assert not np.array_equal(lay["alpha"], np.ones_like(lay["alpha"]))

    def test_searched_scales_leave_beta_out_of_backward(self, monkeypatch):
        model, cal = small_model(arch=models.ARCH_TT, seed=6)
        x = block_inputs(model, cal)
        names = model.block_layer_names(0)
        schemes = {n: scheme_for_bits("int-sym", 3, 32) for n in names}
        # every other layer searched; the rest keep minmax's beta leaf
        init = {n: np.abs(model.params[n]).max(axis=0, keepdims=True) / 3.0
                for n in names[::2]}
        cfg = tuner.TuneConfig(steps=6, lr=0.05, batch_size=4, seed=2)
        leaf_counts = []
        backward = T.backward

        def counted(loss, wrt):
            leaf_counts.append(len(wrt))
            return backward(loss, wrt)
        monkeypatch.setattr(T, "backward", counted)
        got = tuner.tune_block(model, 0, x, schemes, cfg, init_scales=init)
        assert leaf_counts == [3 * len(names) - len(init)] * cfg.steps

        monkeypatch.setattr(tuner, "_tuning_step", beta_leaf_step)
        ref = tuner.tune_block(model, 0, x, schemes, cfg, init_scales=init)
        assert got.history == ref.history and got.best_step == ref.best_step
        for n in names:
            for k in tuner.BOXES:
                assert (got.learned[n][k].tobytes()
                        == ref.learned[n][k].tobytes()), (n, k)

    def test_non_finite_loss_names_step_and_block(self):
        model, cal = small_model(seed=1)
        x = block_inputs(model, cal)
        x[0, 0, 0] = np.nan
        scheme = scheme_for_bits("int-sym", 4, 32)
        cfg = tuner.TuneConfig(steps=4, lr=0.1, batch_size=8, seed=0)
        with pytest.raises(NumericError, match=r"step 0.*block 0"):
            tuner.tune_block(model, 0, x, {"layers.0": scheme}, cfg)

    def test_mx_layers_ride_along_frozen(self):
        model, cal = small_model(arch=models.ARCH_TT, seed=8)
        x = block_inputs(model, cal)
        schemes = {
            "blocks.0.attn.wq": scheme_for_bits("int-sym", 4, 32),
            "blocks.0.attn.wo": scheme_for_bits("mxfp", 4, 32),
        }
        cfg = tuner.TuneConfig(steps=3, lr=0.05, batch_size=4, seed=0)
        res = tuner.tune_block(model, 0, x, schemes, cfg)
        assert list(res.learned) == ["blocks.0.attn.wq"]

    def test_last_evaluation_builds_no_graph(self, monkeypatch):
        model, cal = small_model(seed=5)
        x = block_inputs(model, cal)
        targets = model.block_forward(0, x).data
        schemes = {"layers.0": scheme_for_bits("int-sym", 3, 32)}
        cfg = tuner.TuneConfig(steps=3, lr=0.05, batch_size=4, seed=0)
        rng = np.random.default_rng(8)
        w = model.params["layers.0"]
        theta = {"layers.0": {"v": rng.uniform(-0.5, 0.5, size=w.shape),
                              "alpha": rng.uniform(0.5, 1.5, size=(1, 16)),
                              "beta": rng.uniform(0.5, 1.5, size=(1, 16))}}
        with_vjp = []

        class Counted(T.Node):
            __slots__ = ()

            def __init__(self, parents, vjp):
                super().__init__(parents, vjp)
                with_vjp.append(vjp is not None)
        monkeypatch.setattr(T, "Node", Counted)

        def step(last):
            with_vjp.clear()
            lval, nxt = tuner._tuning_step(model, 0, x[:4], targets[:4], {},
                                           schemes, theta, {}, cfg, last=last)
            return lval, nxt, sum(with_vjp)

        lval, nxt, nodes = step(last=True)
        assert nxt is None and nodes == 0
        lval_graph, nxt, nodes = step(last=False)
        assert nxt is not None and nodes > 0
        assert lval == lval_graph

        # a run whose last evaluation builds the graph tunes the same bytes
        got = tuner.tune_block(model, 0, x, schemes, cfg)
        tuning_step = tuner._tuning_step

        def graph_always(*args, last):
            lval, nxt = tuning_step(*args, last=False)
            return lval, None if last else nxt
        monkeypatch.setattr(tuner, "_tuning_step", graph_always)
        ref = tuner.tune_block(model, 0, x, schemes, cfg)
        assert got.history == ref.history and got.best_step == ref.best_step
        for k in tuner.BOXES:
            assert (got.learned["layers.0"][k].tobytes()
                    == ref.learned["layers.0"][k].tobytes())

    def test_contracts(self):
        model, cal = small_model()
        x = block_inputs(model, cal)
        scheme = scheme_for_bits("int-sym", 2, 32)
        with pytest.raises(ContractError):
            tuner.tune_block(model, 0, x, {"layers.0": scheme},
                             tuner.TuneConfig(steps=0))
        mx_only = {"layers.0": scheme_for_bits("mxfp", 4, 32)}
        with pytest.raises(ContractError, match="tunable"):
            tuner.tune_block(model, 0, x, mx_only, tuner.TuneConfig(steps=1))


class TestPlanHelpers:
    def test_plan_from_assignment(self):
        plan = tuner.plan_from_assignment(
            ["a", "b", "c"], [2, 16, 4], "int-sym", 32)
        assert plan["a"].label == "w2g32"
        assert plan["b"].family == "none"
        assert plan["c"].bits == 4

    def test_plan_mx_family(self):
        plan = tuner.plan_from_assignment(["a"], [4], "mxfp", 32)
        assert plan["a"].label == "mxfp4"

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            tuner.plan_from_assignment(["a", "b"], [2], "int-sym", 32)


class TestQuantizeModel:
    def cfg(self, **kw):
        base = dict(steps=6, lr=0.05, batch_size=4, trim_fraction=0.0, seed=0)
        base.update(kw)
        return tuner.TuneConfig(**base)

    def test_all_16_bit_matches_fp(self):
        model, cal = small_model(seed=10)
        ev = models.eval_batches(model.spec, 4, 8, 2, seed=10)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [16] * len(names), "int-sym", 32)
        res = tuner.quantize_model(model, plan, cal, self.cfg(), eval_batches=ev)
        assert res.tuned == []
        for name in names:
            np.testing.assert_array_equal(res.weights[name], model.params[name])
            assert res.packed[name].scheme.family == "none"
            np.testing.assert_array_equal(res.packed[name].dequantize(),
                                          model.params[name])
        assert abs(res.metrics["quantized_loss"] - model.eval_loss(ev)) <= 1e-10

    @pytest.mark.parametrize("use_scale_init", [True, False])
    def test_steps_zero_no_init_is_plain_rtn(self, use_scale_init):
        # 0 steps search no scales, whatever use_scale_init says
        model, cal = small_model(seed=11)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [4] * len(names), "int-sym", 32)
        res = tuner.quantize_model(model, plan, cal,
                                   self.cfg(steps=0,
                                            use_scale_init=use_scale_init))
        assert res.tuned == []
        for name in names:
            expect, _, _ = codecs.quantize_weight(model.params[name], 4, 32)
            np.testing.assert_array_equal(res.weights[name], expect)

    @pytest.mark.parametrize("family,steps", [("int-sym", 0), ("mxfp", 2)])
    def test_nothing_to_tune_runs_no_forward_pass(self, monkeypatch, family,
                                                  steps):
        # no weight depends on calibration data unless a block is tuned
        model, cal = small_model(arch=models.ARCH_TT, seed=17)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [4] * len(names), family, 32)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass over calibration data")
        monkeypatch.setattr(models.ToyModel, "embed_forward", no_forward)
        monkeypatch.setattr(models.ToyModel, "block_forward", no_forward)
        res = tuner.quantize_model(model, plan, cal, self.cfg(steps=steps))
        assert res.tuned == []
        assert set(res.weights) == set(plan)
        for name, scheme in plan.items():
            w, pw = codecs.quantize_layer(model.params[name], scheme)
            np.testing.assert_array_equal(res.weights[name], w)
            assert res.packed[name].to_bytes() == pw.to_bytes()

    def test_head_quantized_but_not_block_tuned(self):
        model, cal = small_model(seed=12)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [4] * len(names), "int-sym", 32)
        res = tuner.quantize_model(model, plan, cal,
                                   self.cfg(use_scale_init=False))
        tuned_names = {n for blk in res.tuned for n in blk.learned}
        assert "head" not in tuned_names
        assert "head" in res.weights
        expect, _, _ = codecs.quantize_weight(model.params["head"], 4, 32)
        np.testing.assert_array_equal(res.weights["head"], expect)

    def test_mx_layer_frozen_and_packed_output_major(self):
        model, cal = small_model(arch=models.ARCH_TT, seed=13)
        plan = {"blocks.0.attn.wq": scheme_for_bits("mxfp", 4, 32),
                "blocks.0.mlp.up": scheme_for_bits("int-sym", 4, 32)}
        res = tuner.quantize_model(model, plan, cal, self.cfg())
        w = model.params["blocks.0.attn.wq"]
        expect, _, _ = codecs.mx_qdq_weight(w, codecs.MXFP4)
        np.testing.assert_array_equal(res.weights["blocks.0.attn.wq"], expect)
        pw = res.packed["blocks.0.attn.wq"]
        assert tuple(pw.shape) == w.shape
        np.testing.assert_array_equal(pw.dequantize(), expect)

    def test_packed_round_trip_int_sym(self):
        model, cal = small_model(seed=14)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [2] * len(names), "int-sym", 32)
        res = tuner.quantize_model(model, plan, cal, self.cfg())
        for name in names:
            pw = res.packed[name]
            np.testing.assert_array_equal(pw.dequantize(), res.weights[name])
            rt = codecs.PackedWeights.from_bytes(pw.to_bytes())
            np.testing.assert_array_equal(rt.dequantize(), res.weights[name])

    def test_byte_deterministic(self):
        model, cal = small_model(seed=15)
        ev = models.eval_batches(model.spec, 4, 8, 2, seed=15)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [2] * len(names), "int-sym", 32)
        r1 = tuner.quantize_model(model, plan, cal, self.cfg(), eval_batches=ev)
        r2 = tuner.quantize_model(model, plan, cal, self.cfg(), eval_batches=ev)
        assert r1.metrics == r2.metrics
        for name in names:
            assert r1.packed[name].to_bytes() == r2.packed[name].to_bytes()

    def test_tuned_beats_rtn_on_trained_model(self):
        # markov-stream toy: trained weights generalize, so held-out loss
        # responds to quantization fidelity rather than to noise
        spec = models.ModelSpec(arch=models.ARCH_MLP, hidden=32, n_blocks=2,
                                vocab=32, n_heads=4, ffn_mult=2, max_seq=32,
                                seed=21)
        model, cal = models.trained_toy(spec, n_samples=64, seq_len=32,
                                        batch_size=8, steps=300, lr=0.5,
                                        source="markov")
        ev = models.eval_batches(spec, 16, 32, 8, seed=spec.seed,
                                 source="markov")
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [2] * len(names), "int-sym", 32)

        rtn = tuner.quantize_model(
            model, plan, cal, self.cfg(steps=0, use_scale_init=False),
            eval_batches=ev)
        noinit = tuner.quantize_model(
            model, plan, cal,
            self.cfg(steps=200, lr=1.0 / 200, batch_size=8,
                     trim_fraction=0.001, use_scale_init=False),
            eval_batches=ev)
        tuned = tuner.quantize_model(
            model, plan, cal,
            self.cfg(steps=200, lr=1.0 / 200, batch_size=8,
                     trim_fraction=0.001),
            eval_batches=ev)

        assert tuned.metrics["quantized_loss"] < rtn.metrics["quantized_loss"] - 0.1
        assert tuned.metrics["quantized_loss"] < noinit.metrics["quantized_loss"] - 0.03

        # per-block trimmed output error, fp inputs, full calibration set
        x = model.embed_forward(np.concatenate(cal))
        for block in model.block_ids():
            bn = [n for n in model.block_layer_names(block) if n in plan]
            tgt = model.block_forward(block, x).data
            tuned_err = trimmed_ref(model.block_forward(
                block, x, overrides={n: tuned.weights[n] for n in bn}).data,
                tgt, 0.001)
            rtn_err = trimmed_ref(model.block_forward(
                block, x, overrides={n: rtn.weights[n] for n in bn}).data,
                tgt, 0.001)
            assert tuned_err < rtn_err
            x = model.block_forward(block, x).data

    def test_forwards_at_most_one_tuning_batch_of_rows(self, monkeypatch):
        model, plan, cal, cfg = tt_int_run()
        seen = []
        block_forward = models.ToyModel.block_forward

        def counted(self, block, x, *args, **kwargs):
            seen.append(len(x))
            return block_forward(self, block, x, *args, **kwargs)
        monkeypatch.setattr(models.ToyModel, "block_forward", counted)
        got = tuner.quantize_model(model, plan, cal, cfg)
        assert seen and max(seen) == cfg.batch_size

        # the reference runs the targets and the walk over all 64 rows
        def whole(model, block, x, rows, overrides=None):
            return model.block_forward(block, x, overrides=overrides).data
        monkeypatch.setattr(tuner, "_forward_rows", whole)
        seen.clear()
        ref = tuner.quantize_model(model, plan, cal, cfg)
        assert max(seen) == 64
        assert [b.history for b in got.tuned] == [b.history for b in ref.tuned]
        for name in plan:
            assert got.weights[name].tobytes() == ref.weights[name].tobytes()
            assert (got.packed[name].to_bytes()
                    == ref.packed[name].to_bytes())

    @pytest.mark.parametrize("family,bits", [("int-sym", (2, 4, 8, 16)),
                                             ("mxfp", (4, 8, 16))])
    def test_walk_eval_loss_is_eval_loss_of_the_decoded_weights(
            self, monkeypatch, family, bits):
        model, cal = small_model(arch=models.ARCH_TT, n_blocks=2, seed=18)
        # three batches of 2, 2 and 1 rows
        ev = models.eval_batches(model.spec, 5, 8, 2, seed=18)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(
            names, [bits[i % len(bits)] for i in range(len(names))], family,
            32)

        def no_decode(self):
            raise AssertionError("a payload decoded during the walk")
        with monkeypatch.context() as mp:
            mp.setattr(codecs.PackedWeights, "dequantize", no_decode)
            res = tuner.quantize_model(model, plan, cal, self.cfg(),
                                       eval_batches=ev)
        want = model.eval_loss(ev, weights=res.weights)
        assert res.metrics["quantized_loss"] == want
        assert res.tuned or family == "mxfp"

    def test_weights_are_decoded_from_the_payloads_on_read(self):
        model, cal = small_model(seed=19)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [3] * len(names), "int-sym", 32)
        res = tuner.quantize_model(model, plan, cal, self.cfg(steps=2))
        with pytest.raises(AttributeError):
            res.weights = {}
        first, second = res.weights, res.weights
        for name, pw in res.packed.items():
            assert first[name] is not second[name]
            assert first[name].tobytes() == pw.dequantize().tobytes()

    def test_rejects_non_linear_layer(self):
        model, cal = small_model(arch=models.ARCH_TT, seed=17)
        plan = {"blocks.0.norm1.g": scheme_for_bits("int-sym", 4, 32)}
        with pytest.raises(ContractError):
            tuner.quantize_model(model, plan, cal, self.cfg())


class TestMemory:
    """A tuning step holds its own graph and gradients only, and a
    quantize run keeps no learned arrays once they are packed."""

    @pytest.mark.parametrize("searched", [False, True],
                             ids=["minmax", "init_scales"])
    def test_one_step_on_a_512_wide_layer_stays_small(self, searched):
        model, cal = small_model(hidden=512, vocab=512, n_samples=8,
                                 seq_len=32)
        x = block_inputs(model, cal)
        scheme = scheme_for_bits("int-sym", 4, 32)
        init = ({"layers.0": codecs.quantize_weight(
            model.params["layers.0"], 4, 32)[2]} if searched else None)
        cfg = tuner.TuneConfig(steps=1, batch_size=8)
        peak = peak_layers(lambda: tuner.tune_block(
            model, 0, x, {"layers.0": scheme}, cfg, init_scales=init))
        # holding every gradient until backward returns, or the previous
        # step's graph while this one is built, takes a step to about 31;
        # the quantizer node's out-of-place VJP and sign step to 10.8; a
        # graph holding every op's output, a last evaluation that builds
        # one and trimmed_mse's float temporaries to 9.9
        assert peak <= 6.5, peak

    def test_quantize_forwards_one_batch_of_activations(self):
        model, plan, cal, cfg = tt_int_run()
        peak = peak_layers(lambda: tuner.quantize_model(model, plan, cal, cfg))
        # one block forward over all 64 rows, whose (64, 4, 32, 32)
        # attention arrays are 2 MB each, took the run to 7.8
        assert peak <= 5, peak

    def test_tuned_blocks_hold_no_learned_arrays(self):
        model, cal = small_model(n_blocks=2, seed=14)
        names = [i.name for i in model.quantizable_layers()]
        plan = tuner.plan_from_assignment(names, [3] * len(names), "int-sym", 32)
        res = tuner.quantize_model(model, plan, cal,
                                   tuner.TuneConfig(steps=2, batch_size=4))
        assert [list(b.learned) for b in res.tuned] == [["layers.0"],
                                                        ["layers.1"]]
        for blk in res.tuned:
            assert all(v is None for v in blk.learned.values())
            assert not any(isinstance(v, np.ndarray) for v in vars(blk).values())
