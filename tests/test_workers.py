"""Ordered map over forked workers: same results, same errors, same bytes."""

import os

import pytest

from fresh import run_python
from lowbit import models, sensitivity, tuner, workers
from lowbit.errors import NumericError


@pytest.fixture
def two_workers(monkeypatch):
    # two workers even on a one-CPU machine
    monkeypatch.setattr(workers, "_cpus", lambda: 2)


class TestMapOrdered:
    def test_results_in_input_order_from_other_processes(self, two_workers):
        got = workers.map_ordered(lambda x: (x * x, os.getpid()), range(7))
        assert [sq for sq, _ in got] == [x * x for x in range(7)]
        assert os.getpid() not in {pid for _, pid in got}

    def test_one_cpu_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(workers, "_cpus", lambda: 1)
        got = workers.map_ordered(lambda x: os.getpid(), range(3))
        assert got == [os.getpid()] * 3

    def test_worker_maps_in_itself(self, two_workers):
        inner = workers.map_ordered(
            lambda x: (os.getpid(),
                       workers.map_ordered(lambda y: os.getpid(), range(3))),
            range(2))
        for pid, pids in inner:
            assert pids == [pid] * 3

    def test_empty(self, two_workers):
        assert workers.map_ordered(lambda x: x, []) == []

    def test_job_error_keeps_type_and_message(self, two_workers):
        def job(x):
            if x == 2:
                raise NumericError("non-finite score in job 2")
            return x
        with pytest.raises(NumericError, match="^non-finite score in job 2$"):
            workers.map_ordered(job, range(5))
        # the failed map leaves nothing behind: the next one runs
        assert workers.map_ordered(lambda x: -x, range(3)) == [0, -1, -2]

    def test_dead_worker_raises_without_hanging(self):
        out = run_python("""
            import os
            from lowbit import workers
            from lowbit.errors import LowbitError
            workers._cpus = lambda: 2
            try:
                workers.map_ordered(
                    lambda x: os._exit(3) if x == 1 else x, range(4))
            except LowbitError as e:
                print("LowbitError:", e)
        """)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("LowbitError: a worker process died")

    def test_cli_import_loads_no_process_pool(self):
        out = run_python("""
            import sys, lowbit.cli
            print([m for m in ("multiprocessing", "concurrent.futures")
                   if m in sys.modules])
        """)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


def tiny_transformer():
    spec = models.ModelSpec(arch=models.ARCH_TT, hidden=32, n_blocks=2,
                            vocab=24, n_heads=4, ffn_mult=2, max_seq=8, seed=4)
    model = models.ToyModel.build(spec)
    cal = models.synthetic_batches(24, 8, 8, batch_size=4, seed=4)
    models.train_model(model, cal, 20, 0.5)
    return model, cal


def run_both(monkeypatch, fn):
    """``fn()`` under one worker, then under two."""
    out = []
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "_cpus", lambda: cpus)
        out.append(fn())
    return out


@pytest.mark.parametrize("family,options", [("int-sym", (2, 4, 8)),
                                            ("mxfp", (4, 8))])
class TestSameBytes:
    def test_sensitivity_report(self, monkeypatch, family, options):
        model, cal = tiny_transformer()
        schemes = sensitivity.option_set(family, options)
        one, two = run_both(monkeypatch, lambda: sensitivity.build_report(
            model, schemes, cal))
        assert one == two

    def test_quantize_payloads(self, monkeypatch, family, options):
        model, cal = tiny_transformer()
        names = [i.name for i in model.quantizable_layers()]
        bits = [options[i % len(options)] for i in range(len(names))]
        plan = tuner.plan_from_assignment(names, bits, family)
        cfg = tuner.TuneConfig(steps=2, batch_size=4)

        def payloads():
            res = tuner.quantize_model(model, plan, cal, cfg)
            return {n: pw.to_bytes() for n, pw in res.packed.items()}
        one, two = run_both(monkeypatch, payloads)
        assert one == two
        assert set(one) == set(names)
