"""Timing wrappers around lowbit's public functions, for one CLI command.

Run as::

    python3 bench/tracer.py TRACE_JSON <lowbit command and flags...>

It imports ``lowbit.cli``, replaces each function in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent span) and, for
some, a count taken from the call's arguments or result, then runs
``lowbit.cli.main`` on the remaining arguments. The spans and counts go
to TRACE_JSON when the command ends; the exit code is the command's.

A function is replaced in every ``lowbit`` module namespace that holds
it, so callers that imported it by name (``from .artifact import
save_artifact``) see the wrapper too. Methods are replaced on their
class. Nothing in the program itself changes, and the traced command
writes the same output bytes as an untraced one (``run.py`` checks).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from time import perf_counter


def _train_runs(args, kwargs, result):
    # a zero-step call only evaluates the loss; it trains nothing
    steps = kwargs["steps"] if "steps" in kwargs else args[2]
    return {"models.train_runs": int(steps > 0)}


def _groups(args, kwargs, result):
    # one searched scale per (weight group, output column)
    return {"scale_init.groups": int(result.size)}


def _tune_steps(args, kwargs, result):
    return {"tuner.steps": len(result.history) - 1,
            "tuner.best_steps": int(result.best_step)}


def _packed_bits(args, kwargs, result):
    return {"codecs.packed_bytes": len(result),
            "codecs.packed_weights": math.prod(args[0].shape)}


# (span name, module, attribute, count hook)
TARGETS = (
    ("config.load", "lowbit.config", "load_config", None),
    ("models.train", "lowbit.models", "train_model", _train_runs),
    ("models.eval", "lowbit.models", "ToyModel.eval_loss", None),
    ("tensor.backward", "lowbit.tensor", "backward", None),
    ("sensitivity.report", "lowbit.sensitivity", "build_report", None),
    ("allocator.solve", "lowbit.allocator", "allocate_dp", None),
    ("scale_init.calibrate", "lowbit.scale_init", "calibrate_act_stats", None),
    ("scale_init.search", "lowbit.scale_init", "search_layer_scales", _groups),
    ("tuner.quantize", "lowbit.tuner", "quantize_model", None),
    ("tuner.tune_block", "lowbit.tuner", "tune_block", _tune_steps),
    ("tuner.trimmed_mse", "lowbit.tuner", "trimmed_mse", None),
    ("codecs.quantize_weight", "lowbit.codecs", "quantize_weight", None),
    ("codecs.mx_qdq", "lowbit.codecs", "mx_qdq", None),
    ("codecs.pack", "lowbit.codecs", "PackedWeights.to_bytes", _packed_bits),
    ("artifact.save", "lowbit.artifact", "save_artifact", None),
    ("artifact.verify", "lowbit.artifact", "verify_artifact", None),
)


class Tracer:
    """In-memory spans and counts; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []  # indices of the spans now running, innermost last

    def wrap(self, name, fn, count=None):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = perf_counter()
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + n
            return result

        return traced

    def install(self):
        """Wrap every target; lowbit must already be imported."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "lowbit" or n.startswith("lowbit.")]
        for name, module, attr, count in TARGETS:
            owner = importlib.import_module(module)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, count)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import lowbit.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return lowbit.cli.main(cli_args)
    finally:
        record = tracer.to_dict()
        record["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
