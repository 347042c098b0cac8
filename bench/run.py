"""End-to-end benchmark of the lowbit pipeline.

    python3 bench/run.py --workload tt-int --seed 21 --seconds 40 --trace 0

Run from the repository root (or any checkout of it). One closed-loop
client runs the user's pipeline ``sensitivity -> allocate -> quantize ->
verify``: one command at a time, each in a fresh ``python3 -m lowbit``
process, each repetition in an empty output directory. Child processes
get ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``; this process
and the machine keep their own settings.

``--trace 0`` measures set-up time and then repeats the pipeline while
the next repetition is predicted to end within ``--seconds``, at least
once, and reports the end-to-end metrics as medians. ``--trace 1`` runs
the pipeline once untraced and once with every command under
``bench/tracer.py`` and reports the per-module metrics; it ignores
``--seconds``.

Every run checks its outputs: each command exits 0, ``verify`` prints
OK, and the four output files are byte-identical across all repetitions
(and between the traced and untraced pipeline). Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

PIPELINE = ("sensitivity", "allocate", "quantize", "verify")
OUTPUTS = ("sensitivity.json", "assignment.json", "metrics.json",
           "artifact.lbq")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every child is killed past this point of a run

INT_SYM = ("scheme.family=int-sym", "scheme.options=2,4,8",
           "scheme.target_bits=8/3")
TINY_TRANSFORMER = ("model.arch=tiny-transformer", "model.hidden=64",
                    "model.vocab=64")
# Why each workload: see bench/README.md.
WORKLOADS = {
    "tt-int": TINY_TRANSFORMER + INT_SYM + ("tuning.steps=200",),
    "tt-mx": TINY_TRANSFORMER + ("scheme.family=mxfp", "scheme.options=4,8",
                                 "scheme.target_bits=5", "tuning.steps=200"),
    "mlp-wide": ("model.arch=mlp", "model.hidden=512", "model.n_blocks=6",
                 "model.vocab=512", "model.train_steps=0", "tuning.steps=1",
                 "data.calib_samples=8") + INT_SYM,
}

# metric names and units, in print order
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Runner:
    """Starts child processes one at a time and counts their outcomes."""

    def __init__(self, started: float):
        self.deadline = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))

    def run(self, argv, log: Path):
        """(ok, wall seconds, max RSS in MB) of one child process."""
        self.attempted += 1
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            # wait4 gives this child's own max RSS; a thread lets the
            # wait time out without polling
            reaped = []
            waiter = threading.Thread(
                target=lambda: reaped.append(os.wait4(proc.pid, 0)))
            waiter.start()
            waiter.join(max(self.deadline - time.perf_counter(), 0.0))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
            wall = time.perf_counter() - t0
        _, status, usage = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.failed += 1
            tail = log.read_text(errors="replace")[-2000:]
            sys.stdout.write(f"FAILED (exit {proc.returncode}): "
                             f"{' '.join(argv)}\n{tail}\n")
        return ok, wall, usage.ru_maxrss / 1024.0


def config_items(workload: str, seed: int, out_dir: Path) -> tuple:
    """The workload's ``section.key=value`` overrides for one run."""
    return WORKLOADS[workload] + (f"run.seed={seed}", f"run.out_dir={out_dir}")


def artifact_stats(path: Path) -> dict:
    """File size, quantized weight count and tuned-section bytes."""
    buf = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", buf, 8)
    header = json.loads(buf[16:16 + hlen])
    return {"bytes": len(buf),
            "weights": sum(int(r["params"]) for r in header["layers"]),
            "tuned_bytes": sum(r["length"] for r in header["sections"]
                               if r["kind"] == "array")}


def run_pipeline(runner: Runner, workload: str, seed: int, rep_dir: Path,
                 traced: bool = False):
    """One pipeline in ``rep_dir``; a dict of results, or None on failure."""
    out_dir, log_dir = rep_dir / "out", rep_dir / "log"
    out_dir.mkdir(parents=True)
    log_dir.mkdir()
    sets = [arg for item in config_items(workload, seed, out_dir)
            for arg in ("--set", item)]
    times, rss = {}, []
    for cmd in PIPELINE:
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    str(log_dir / f"{cmd}.trace.json"), cmd]
        else:
            argv = [sys.executable, "-m", "lowbit", cmd]
        ok, times[cmd], peak = runner.run(argv + sets, log_dir / f"{cmd}.log")
        rss.append(peak)
        if not ok:
            return None
    verify_log = (log_dir / "verify.log").read_text()
    if not any(line.startswith("OK ") for line in verify_log.splitlines()):
        runner.failed += 1
        sys.stdout.write(f"FAILED: verify did not print OK\n{verify_log}\n")
        return None
    losses = json.loads((out_dir / "metrics.json").read_text())["losses"]
    return {
        "times": times,
        "peak_rss_mb": max(rss),
        "digests": {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                    for f in OUTPUTS},
        "artifact": artifact_stats(out_dir / "artifact.lbq"),
        "tuned_loss_gap": losses["tuned"] - losses["fp"],
        "traces": {cmd: json.loads((log_dir / f"{cmd}.trace.json").read_text())
                   for cmd in PIPELINE} if traced else None,
    }


def setup_times(runner: Runner, workload: str, seed: int, tmp: Path):
    """Wall times of fresh interpreters that import lowbit and load the
    workload's config, building no model; the first, untimed, warms the
    bytecode cache. None if any probe fails."""
    code = ("import sys, lowbit.config as c; "
            "c.load_config(None, sys.argv[1:])")
    argv = [sys.executable, "-c", code,
            *config_items(workload, seed, tmp / "setup")]
    walls = []
    for i in range(SETUP_PROBES + 1):
        ok, wall, _ = runner.run(argv, tmp / f"setup{i}.log")
        if not ok:
            return None
        walls.append(wall)
    return walls[1:]


# per-layer time metric -> the tracer's span name, summed over calls
SPAN_TIMES = {
    "config.load_s": "config.load", "models.train_s": "models.train",
    "tensor.backward_s": "tensor.backward",
    "sensitivity.report_s": "sensitivity.report",
    "allocator.solve_s": "allocator.solve",
    "scale_init.calibrate_s": "scale_init.calibrate",
    "scale_init.search_s": "scale_init.search",
    "tuner.quantize_s": "tuner.quantize",
    "tuner.tune_block_s": "tuner.tune_block",
    "tuner.trimmed_mse_s": "tuner.trimmed_mse",
    "codecs.quantize_weight_s": "codecs.quantize_weight",
    "codecs.mx_qdq_s": "codecs.mx_qdq", "codecs.pack_s": "codecs.pack",
    "artifact.save_s": "artifact.save", "artifact.verify_s": "artifact.verify",
}


def span_metrics(traces: dict) -> dict:
    """Per-module totals over one pipeline's traced commands."""
    total, calls, counts = Counter(), Counter(), Counter()
    import_s = 0.0
    for rec in traces.values():
        spans = rec["spans"]
        import_s += rec["import_s"]
        counts.update(rec["counts"])
        for name, start, end, parent in spans:
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if name in ancestors:  # nested call of itself: already timed
                continue
            total[name] += end - start
            calls[name] += 1
            if name == "models.eval" and "models.train" not in ancestors:
                calls["eval outside training"] += 1
            if name == "tensor.backward" and "sensitivity.report" in ancestors:
                calls["sensitivity probe"] += 1
    values = {m: float(total[span]) for m, span in SPAN_TIMES.items()}
    steps, packed = counts["tuner.steps"], counts["codecs.packed_weights"]
    values.update({
        "lowbit.import_s": import_s,
        "models.train_runs": counts["models.train_runs"],
        "models.eval_calls": calls["eval outside training"],
        "tensor.backward_calls": calls["tensor.backward"],
        "sensitivity.probes": calls["sensitivity probe"],
        "scale_init.groups": counts["scale_init.groups"],
        "tuner.steps": steps,
        # 0 when no tuning step ran
        "tuner.useful_step_ratio":
            counts["tuner.best_steps"] / steps if steps else 0.0,
        "codecs.packed_bits_per_weight":
            8.0 * counts["codecs.packed_bytes"] / packed if packed else 0.0,
    })
    return values


def environment(runner: Runner, seed: int) -> dict:
    """Machine and build facts printed with every run."""
    code = ("import json, platform, numpy; "
            "b = numpy.show_config(mode='dicts')"
            "['Build Dependencies']['blas']; "
            "print(json.dumps({'python': platform.python_version(), "
            "'numpy': numpy.__version__, "
            "'blas': f\"{b.get('name')} {b.get('version')}\"}))")
    env = {"nproc": os.cpu_count(), "git_sha": "unknown"}

    def probe(argv):
        try:
            out = subprocess.run(argv, cwd=ROOT, env=runner.env, timeout=30,
                                 capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    build = probe([sys.executable, "-c", code])
    if build:
        env.update(json.loads(build))
    # a checkout without .git must not report an enclosing repository
    if (ROOT / ".git").exists():
        env["git_sha"] = probe(["git", "rev-parse", "HEAD"]) or "unknown"
    return {**env, "child_env": THREAD_PINS, "seed": seed}


def same_outputs(pipes: list) -> bool:
    """True when every repetition wrote the first one's output bytes."""
    first = pipes[0]["digests"]
    differ = {f for p in pipes[1:] for f in OUTPUTS
              if p["digests"][f] != first[f]}
    for f in sorted(differ):
        sys.stdout.write(f"FAILED: {f} differs between repetitions\n")
    return not differ


def measure(runner: Runner, args, tmp: Path, started: float):
    """--trace 0: (pipelines, set-up times); stops at the first failure."""
    setup = setup_times(runner, args.workload, args.seed, tmp)
    if setup is None:
        return [], None
    pipes = []
    while True:
        p = run_pipeline(runner, args.workload, args.seed,
                         tmp / f"rep{len(pipes)}")
        if p is None:
            return pipes, setup
        pipes.append(p)
        elapsed = time.perf_counter() - started
        if elapsed + sum(p["times"].values()) > args.seconds:
            return pipes, setup


def end_to_end(pipes: list, setup: list) -> dict:
    """Samples of each end-to-end metric over one run."""
    return {
        "pipeline_s": [sum(p["times"].values()) for p in pipes],
        "sensitivity_s": [p["times"]["sensitivity"] for p in pipes],
        "quantize_s": [p["times"]["quantize"] for p in pipes],
        "setup_s": setup,
        "peak_rss_mb": [p["peak_rss_mb"] for p in pipes],
        "artifact_bits_per_weight": [
            8.0 * p["artifact"]["bytes"] / p["artifact"]["weights"]
            for p in pipes],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-module metrics of one traced pipeline; the overhead is its wall
    time minus the untraced one's."""
    values = span_metrics(traced["traces"])
    art = traced["artifact"]
    values["tuner.tuned_loss_gap"] = traced["tuned_loss_gap"]
    values["artifact.tuned_share"] = art["tuned_bytes"] / art["bytes"]
    values["trace.overhead_s"] = (sum(traced["times"].values())
                                  - sum(untraced["times"].values()))
    return values


def print_metric(name, value, unit, n):
    sys.stdout.write(f"{name:<32} {value:>14.6g} {unit:<6} n={n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lowbit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lowbit sources under {SRC}\n")
        return 2

    started = time.perf_counter()
    runner = Runner(started)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        env = environment(runner, args.seed)
        sys.stdout.write(f"workload {args.workload}  "
                         f"{' '.join(WORKLOADS[args.workload])}\n"
                         f"environment {json.dumps(env, sort_keys=True)}\n")
        if args.trace:
            setup, pipes = None, []
            for traced in (False, True):
                p = run_pipeline(runner, args.workload, args.seed,
                                 tmp / f"traced{int(traced)}", traced=traced)
                if p is None:
                    break
                pipes.append(p)
        else:
            pipes, setup = measure(runner, args, tmp, started)
        # every failure, set-up probes included, is counted by the runner
        correct = runner.failed == 0 and bool(pipes) and same_outputs(pipes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if pipes:
        for f in OUTPUTS:
            sys.stdout.write(f"sha256 {f} {pipes[0]['digests'][f]}\n")
    metrics = {}
    if correct:
        if args.trace:
            samples = {k: [v] for k, v in per_layer(*pipes).items()}
        else:
            samples = end_to_end(pipes, setup)
        for m in SPEC["per_layer" if args.trace else "end_to_end"]:
            value = statistics.median(samples[m["name"]])
            print_metric(m["name"], value, m["unit"], len(samples[m["name"]]))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            trace_file = WORK / f"trace_{args.workload}_seed{args.seed}.json"
            trace_file.write_text(json.dumps(pipes[1]["traces"]))
            sys.stdout.write(f"spans written to {trace_file}\n")
        else:
            # printed but kept out of the JSON result: tuned_loss_gap moves
            # with the seed far more than any bound allows (--trace 1
            # reports it per seed as tuner.tuned_loss_gap)
            print_metric("tuned_loss_gap", pipes[0]["tuned_loss_gap"], "nats",
                         len(pipes))
    # error_rate is 0 on a good run, so the JSON result carries it as
    # attempted/failed rather than as a metric
    print_metric("error_rate", runner.failed / max(runner.attempted, 1),
                 "ratio", runner.attempted)
    sys.stdout.write(json.dumps({"correct": correct,
                                 "attempted": runner.attempted,
                                 "failed": runner.failed,
                                 "metrics": metrics}) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
