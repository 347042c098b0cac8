"""The benchmark tracer wraps lowbit functions by name; each must exist."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_target_resolves():
    # run the tracer's source in a fresh namespace: nothing is written
    # next to it, and no lowbit function is wrapped
    tracer = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    assert tracer["TARGETS"]
    for name, module, attr, _ in tracer["TARGETS"]:
        assert module.split(".")[0] == "lowbit", name
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{name}: {module}.{attr} is gone"
        assert callable(owner), name
