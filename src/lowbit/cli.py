"""Command-line pipeline: score, allocate, quantize, verify, report.

Every subcommand reads the same INI config (plus ``--set section.key=value``
overrides), which holds every run setting; it reads its inputs from and
writes fixed-name JSON outputs into the configured output directory, and
embeds the config digest in everything it writes. All randomness flows
from the single config seed, so rerunning an identical config reproduces
every output byte for byte.

Exit codes: 0 success, 1 failed check or other toolkit error, 2 config
error, 3 infeasible allocation, 4 numeric failure during training or
tuning.

Only numpy-free modules run when the CLI loads: a config is loaded or
rejected, and ``allocate`` runs, without numpy. The modules that import
numpy are registered lazily and run at first use, so a command loads
only those it calls into: ``verify`` runs the codecs and the artifact
reader but no model, scoring or tuning code.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from . import allocator, spec
from . import config as cfglib
from .errors import (ConfigError, ContractError, InfeasibleError,
                     IngestionError, LowbitError, NumericError)


def _lazy(name: str):
    """Module ``lowbit.<name>``: in ``sys.modules`` from now on, but its
    code, and numpy with it, runs at its first attribute access
    (:class:`importlib.util.LazyLoader`). An imported module is returned
    as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    found = importlib.util.find_spec(full)
    found.loader = importlib.util.LazyLoader(found.loader)
    module = importlib.util.module_from_spec(found)
    sys.modules[full] = module
    found.loader.exec_module(module)
    return module


# Every module that imports numpy, bound lazily: numpy and the model code
# cost more than loading a config, and allocate and a rejected config
# need neither. The ones cli never calls are registered too, so that each
# module a command runs is one object under its name from the start, and
# whatever wraps functions in the loaded modules (bench/tracer.py) wraps
# them all.
tensor, codecs, models, scale_init, sensitivity, tuner, artifact = map(
    _lazy, ("tensor", "codecs", "models", "scale_init", "sensitivity",
            "tuner", "artifact"))

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4
# a toolkit error exits with the code of the first row it matches
ERROR_EXITS = (((ConfigError, IngestionError), EXIT_CONFIG),
               (InfeasibleError, EXIT_INFEASIBLE),
               (NumericError, EXIT_NUMERIC), (LowbitError, EXIT_FAIL))

SENSITIVITY_FILE = "sensitivity.json"
ASSIGNMENT_FILE = "assignment.json"
TUNED_FILE = "tuned.json"
ARTIFACT_FILE = "artifact.lbq"
METRICS_FILE = "metrics.json"
REPORT_FILE = "report.json"

# the no-tuning baseline: round-to-nearest (0 steps search no scales)
PLAIN = spec.TuneConfig(steps=0)


def _write_json(path: Path, obj: dict) -> None:
    """Atomic, deterministic JSON: sorted keys, no timestamps."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    cfglib.write_atomic(path, text.encode())


def _ingest(path: Path, what: str, made_by: str, parse) -> tuple:
    """(raw dict, ``parse(raw dict)``) for the JSON object in ``path``.

    A missing file is a ConfigError naming the command that writes it;
    a file that holds no JSON object (:func:`config.read_json_object`), or
    lacks a key or holds a wrong type anywhere ``parse`` reads, is an
    IngestionError naming the file.
    """
    if not path.is_file():
        raise ConfigError(f"{what} {path} does not exist; "
                          f"run `lowbit {made_by}` first")
    try:
        d = cfglib.read_json_object(path.read_bytes())
        return d, parse(d)
    except (OSError, LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError, ContractError) as e:
        raise IngestionError(f"{what} {path}: {type(e).__name__}: {e}") \
            from None


def _match_layers(got: list, want: list) -> None:
    if got != want:
        raise ContractError(f"layers {got} do not match the model's "
                            f"quantizable layers {want}")


def _schemes(cfg) -> list:
    """``cfg``'s options as schemes, ascending bits."""
    return spec.option_set(cfg.family, cfg.options, cfg.group_size)


def _load_report(path: Path, cfg) -> tuple:
    """(raw dict, AllocationProblem over ``cfg``'s options and target)
    from the scores in ``path``, which must list the (name, params) of
    every quantizable layer of ``cfg``'s model, in order, and score each
    of ``cfg``'s options. Scored options that ``cfg`` lacks are left out."""
    def parse(d):
        problem = allocator.AllocationProblem.from_report(
            d, cfg.target_bits, _schemes(cfg))
        _match_layers(list(zip(problem.names, problem.params)),
                      [(i.name, i.n_params)
                       for i in spec.layer_table(cfg.spec)])
        return problem
    return _ingest(path, "sensitivity report", "sensitivity", parse)


def _load_assignment(path: Path, cfg) -> tuple:
    """(raw dict, (assignment, target, rtn bits)) read from ``path`` and
    checked whole before any model is built: the layers are those of
    ``cfg``'s model, and the choices are options of ``cfg`` that fit the
    file's target and give its ``avg_bits`` on the layer sizes of
    ``spec.layer_table`` (no costs are read). The rtn bits are the
    uniform-precision baseline, the widest option within the target."""
    def parse(d):
        asn, names, target = allocator.assignment_from_dict(d)
        table = spec.layer_table(cfg.spec)
        _match_layers(names, [i.name for i in table])
        options = [(s.label, s.bits) for s in _schemes(cfg)]
        # the problem holds the target within the options, so one fits
        allocator.validate_assignment(allocator.AllocationProblem.build(
            names, [i.n_params for i in table], options,
            [[0.0] * len(options)] * len(names), target), asn)
        rtn_bits = max(b for b in cfg.options if b <= target)
        return asn, target, rtn_bits
    return _ingest(path, "assignment file", "allocate", parse)


def _plan(cfg, bits) -> dict:
    """Layer name -> scheme for per-layer ``bits`` on ``cfg``'s model."""
    return tuner.plan_from_assignment(
        [i.name for i in spec.layer_table(cfg.spec)], bits, cfg.family,
        cfg.group_size)


def _run_variants(cfg, variants) -> tuple:
    """(losses, last variant's QuantizeResult) of one run of ``cfg``'s
    model: the held-out loss of the fp model under ``"fp"``, then of each
    ``(name, plan, TuneConfig)`` variant in turn, quantized by
    :func:`tuner.quantize_model`. ``quantize`` and ``report`` both run
    here, so equal variants give them equal losses. Only the losses
    outlive each variant's run, except the last variant's result."""
    model, cal = models.build_model(cfg)
    ev = models.eval_set(cfg)
    losses = {"fp": model.eval_loss(ev)}
    for name, plan, tune in variants:
        res = None  # the last variant's weights go before this one runs
        res = tuner.quantize_model(model, plan, cal, tune, eval_batches=ev)
        losses[name] = res.metrics["quantized_loss"]
    return losses, res


# ---------------------------------------------------------------------------
# subcommands


def cmd_sensitivity(cfg, args) -> int:
    """score every layer under every bit option"""
    model, cal = models.build_model(cfg)
    report = sensitivity.build_report(model, _schemes(cfg), cal)
    _write_json(cfg.out_dir / SENSITIVITY_FILE,
                dict(report, config_digest=cfg.digest()))

    labels = [o["label"] for o in report["options"]]
    width = max(len(l["name"]) for l in report["layers"])
    print(f"{'layer':<{width}}  {'params':>8}  "
          + "  ".join(f"{lb:>12}" for lb in labels))
    for l in report["layers"]:
        cells = "  ".join(f"{l['scores'][lb]:>12.6g}" for lb in labels)
        print(f"{l['name']:<{width}}  {l['params']:>8}  {cells}")
    print(f"wrote {cfg.out_dir / SENSITIVITY_FILE}")
    return EXIT_OK


def cmd_allocate(cfg, args) -> int:
    """solve the bit-allocation problem"""
    _, problem = _load_report(cfg.out_dir / SENSITIVITY_FILE, cfg)
    asn = allocator.allocate_dp(problem)
    allocator.validate_assignment(problem, asn)
    d = asn.to_dict(problem)
    d["config_digest"] = cfg.digest()
    _write_json(cfg.out_dir / ASSIGNMENT_FILE, d)

    for name, lbl in zip(problem.names, asn.choices):
        print(f"{name}: {lbl}")
    print(f"solver {asn.solver}: avg bits {asn.avg_bits} "
          f"(target {cfg.target_bits}), objective {asn.objective:.6g}")
    print(f"wrote {cfg.out_dir / ASSIGNMENT_FILE}")
    return EXIT_OK


def cmd_quantize(cfg, args) -> int:
    """full pipeline: pack weights, compare variants"""
    asn_dict, (asn, target, rtn_bits) = _load_assignment(
        cfg.out_dir / ASSIGNMENT_FILE, cfg)
    table = spec.layer_table(cfg.spec)
    plan = _plan(cfg, asn.bits)
    variants = [("rtn", _plan(cfg, [rtn_bits] * len(table)), PLAIN),
                ("dl_only", plan, PLAIN)]
    if tuner.tuned_layers(plan, cfg.tune):
        variants.append(("tuned", plan, cfg.tune))
    losses, res = _run_variants(cfg, variants)
    # a run that tunes nothing is dl_only's, the last variant that ran
    losses.setdefault("tuned", losses["dl_only"])
    budget = {"target_bits": str(target), "avg_bits": str(asn.avg_bits),
              "rtn_uniform_bits": rtn_bits}
    summary = [{"block": b.block, "layers": list(b.learned),
                "initial_loss": b.initial_loss, "final_loss": b.final_loss,
                "best_step": b.best_step} for b in res.tuned]
    metrics = {"format": "lowbit/metrics-v1", "config_digest": cfg.digest(),
               "budget": budget, "losses": losses, "tuning": summary}

    layers = [{"name": i.name, "params": i.n_params, "bits": bits,
               "label": lbl, "shape": list(i.shape)} for i, lbl, bits in
              zip(table, asn.choices, asn.bits)]
    artifact.save_artifact(cfg.out_dir / ARTIFACT_FILE, cfg.to_dict(),
                           asn_dict, layers,
                           {"losses": losses, "budget": budget}, summary,
                           res.packed)
    _write_json(cfg.out_dir / METRICS_FILE, metrics)
    # the loss curves, in new dicts so that metrics.json stays without them
    curves = [dict(b, history=full.history)
              for b, full in zip(summary, res.tuned)]
    _write_json(cfg.out_dir / TUNED_FILE,
                {"schema": "lowbit/tuning-v1", "config_digest": cfg.digest(),
                 "blocks": curves})

    for k in ("fp", "rtn", "dl_only", "tuned"):
        print(f"{k:>8} eval loss {losses[k]:.6g}")
    print(f"avg bits {asn.avg_bits} (target {target}, rtn uniform {rtn_bits})")
    for name in (ARTIFACT_FILE, METRICS_FILE, TUNED_FILE):
        print(f"wrote {cfg.out_dir / name}")
    return EXIT_OK


def cmd_verify(cfg, args) -> int:
    """check an artifact's integrity"""
    path = Path(args.artifact) if args.artifact else cfg.out_dir / ARTIFACT_FILE
    if not path.is_file():
        raise ConfigError(f"artifact {path} does not exist")
    problems = artifact.verify_artifact(path)
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return EXIT_FAIL
    print(f"OK {path}")
    return EXIT_OK


def cmd_report(cfg, args) -> int:
    """compare allocation strategies end to end"""
    # report.json stamps cfg's digest over these scores, so they must
    # have been scored under cfg
    rpath = cfg.out_dir / SENSITIVITY_FILE
    d, problem = _load_report(rpath, cfg)
    if d.get("config_digest") != cfg.digest():
        raise ConfigError(f"{rpath} was scored under another config; "
                          f"run `lowbit sensitivity` with this one first")
    dp = allocator.allocate_dp(problem)
    runs = {"dp": dp, **{mode: allocator.allocate_heuristic(problem, mode)
                         for mode in ("head", "tail")}}
    variants = [(mode, _plan(cfg, asn.bits), PLAIN)
                for mode, asn in runs.items()]
    dp_plan = variants[0][1]
    if tuner.tuned_layers(dp_plan, cfg.tune):
        runs["tuned"] = dp
        variants.append(("tuned", dp_plan, cfg.tune))
    losses, _ = _run_variants(cfg, variants)
    fp_loss = losses["fp"]
    rows = {mode: {"solver": asn.solver + ("+tune" if mode == "tuned" else ""),
                   "avg_bits": str(asn.avg_bits),
                   "objective": asn.objective, "bits": list(asn.bits),
                   "loss": losses[mode]}
            for mode, asn in runs.items()}

    d = {"format": "lowbit/report-v1", "config_digest": cfg.digest(),
         "target_bits": str(cfg.target_bits), "fp_loss": fp_loss,
         "allocations": rows}
    _write_json(cfg.out_dir / REPORT_FILE, d)

    print(f"fp eval loss {fp_loss:.6g} (target {cfg.target_bits})")
    for mode, row in rows.items():
        print(f"{mode:>6}: avg bits {row['avg_bits']}, "
              f"eval loss {row['loss']:.6g}")
    print(f"wrote {cfg.out_dir / REPORT_FILE}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lowbit",
        description="mixed-precision quantization pipeline for toy models")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.__doc__)
        sp.add_argument("--config", metavar="PATH",
                        help="INI config file (defaults apply without one)")
        sp.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        dest="overrides", help="override a config field")
    sub.choices["verify"].add_argument(
        "--artifact", metavar="PATH",
        help=f"artifact file (default OUT/{ARTIFACT_FILE})")
    return p


COMMANDS = {
    "sensitivity": cmd_sensitivity,
    "allocate": cmd_allocate,
    "quantize": cmd_quantize,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code else EXIT_OK
    try:
        cfg = cfglib.load_config(args.config, args.overrides)
        try:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"run.out_dir {cfg.out_dir} cannot be a "
                              f"directory: {e}") from None
        return COMMANDS[args.command](cfg, args)
    except LowbitError as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in ERROR_EXITS if isinstance(e, kinds))


if __name__ == "__main__":
    sys.exit(main())
