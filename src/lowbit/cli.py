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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import allocator, models, sensitivity, tuner
from . import config as cfglib
from .artifact import save_artifact, verify_artifact
from .errors import (ConfigError, ContractError, InfeasibleError,
                     IngestionError, LowbitError, NumericError)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

SENSITIVITY_FILE = "sensitivity.json"
ASSIGNMENT_FILE = "assignment.json"
TUNED_FILE = "tuned.json"
ARTIFACT_FILE = "artifact.lbq"
METRICS_FILE = "metrics.json"
REPORT_FILE = "report.json"

# the no-tuning baseline: round-to-nearest (0 steps search no scales)
PLAIN = tuner.TuneConfig(steps=0)


def _write_json(path: Path, obj: dict) -> None:
    """Atomic, deterministic JSON: sorted keys, no timestamps."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    cfglib.write_atomic(path, text.encode())


def _ingest(path: Path, what: str, made_by: str, parse) -> tuple:
    """(raw dict, ``parse(raw dict)``) for the JSON object in ``path``.

    A missing file is a ConfigError naming the command that writes it;
    a file that is not JSON, or lacks a key or holds a wrong type
    anywhere ``parse`` reads, is an IngestionError naming the file.
    """
    if not path.is_file():
        raise ConfigError(f"{what} {path} does not exist; "
                          f"run `lowbit {made_by}` first")
    try:
        with open(path) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise TypeError(f"top level is a JSON {type(d).__name__}")
        return d, parse(d)
    except (LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError, ContractError) as e:
        raise IngestionError(f"{what} {path}: {type(e).__name__}: {e}") \
            from None


def _match_layers(got: list, want: list) -> None:
    if got != want:
        raise ContractError(f"layers {got} do not match the model's "
                            f"quantizable layers {want}")


def _load_report(path: Path, cfg) -> tuple:
    """(raw dict, AllocationProblem under ``cfg``'s target) from the
    scores in ``path``, which must list the (name, params) of every
    quantizable layer of ``cfg``'s model, in order."""
    def parse(d):
        report = sensitivity.SensitivityReport.from_dict(d)
        _match_layers([(l.name, l.params) for l in report.layers],
                      [(i.name, i.n_params)
                       for i in models.layer_table(cfg.spec)])
        return allocator.AllocationProblem.from_report(report,
                                                       cfg.target_bits)
    return _ingest(path, "sensitivity report", "sensitivity", parse)


def _load_assignment(path: Path, cfg) -> tuple:
    """(raw dict, (assignment, names, target, plan, rtn bits)) read from
    ``path`` and checked whole before any model is built: the layers are
    those of ``cfg``'s model, and the choices are options of ``cfg`` that
    fit the file's target and give its ``avg_bits`` on the layer sizes
    of ``models.layer_table`` (no costs are read). The rtn bits are the
    uniform-precision baseline, the widest option within the target."""
    def parse(d):
        asn, names, target = allocator.assignment_from_dict(d)
        table = models.layer_table(cfg.spec)
        _match_layers(names, [i.name for i in table])
        options = [(s.label, s.bits) for s in sensitivity.option_set(
            cfg.family, cfg.options, cfg.group_size)]
        # the problem holds the target within the options, so one fits
        allocator.validate_assignment(allocator.AllocationProblem.build(
            names, [i.n_params for i in table], options,
            [[0.0] * len(options)] * len(names), target), asn)
        rtn_bits = max(b for b in cfg.options if b <= target)
        return asn, names, target, _plan(cfg, names, asn.bits), rtn_bits
    return _ingest(path, "assignment file", "allocate", parse)


def _plan(cfg, names, bits) -> dict:
    return tuner.plan_from_assignment(names, bits, cfg.family, cfg.group_size)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sensitivity(cfg, args) -> int:
    model, cal = cfglib.build_model(cfg)
    schemes = sensitivity.option_set(cfg.family, cfg.options, cfg.group_size)
    report = sensitivity.build_report(model, schemes, cal)
    d = report.to_dict()
    d["config_digest"] = cfg.digest()
    _write_json(cfg.out_dir / SENSITIVITY_FILE, d)

    labels = report.option_labels()
    width = max(len(l.name) for l in report.layers)
    print(f"{'layer':<{width}}  {'params':>8}  "
          + "  ".join(f"{lb:>12}" for lb in labels))
    for l in report.layers:
        cells = "  ".join(f"{l.scores[lb]:>12.6g}" for lb in labels)
        print(f"{l.name:<{width}}  {l.params:>8}  {cells}")
    print(f"wrote {cfg.out_dir / SENSITIVITY_FILE}")
    return EXIT_OK


def cmd_allocate(cfg, args) -> int:
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
    ev = cfglib.eval_set(cfg)
    asn_dict, (asn, names, target, plan, rtn_bits) = _load_assignment(
        cfg.out_dir / ASSIGNMENT_FILE, cfg)
    model, cal = cfglib.build_model(cfg)

    losses = {"fp": model.eval_loss(ev)}
    for key, variant, tune in (
            ("rtn", _plan(cfg, names, [rtn_bits] * len(names)), PLAIN),
            ("dl_only", plan, PLAIN), ("tuned", plan, cfg.tune)):
        res = None  # the last variant's weights go before this one runs
        res = tuner.quantize_model(model, variant, cal, tune,
                                   eval_batches=ev)
        losses[key] = res.metrics["quantized_loss"]
    budget = {"target_bits": str(target), "avg_bits": str(asn.avg_bits),
              "rtn_uniform_bits": rtn_bits}
    summary = [{"block": b.block, "layers": [l.name for l in b.layers],
                "initial_loss": b.initial_loss, "final_loss": b.final_loss,
                "best_step": b.best_step} for b in res.tuned]
    metrics = {"format": "lowbit/metrics-v1", "config_digest": cfg.digest(),
               "budget": budget, "losses": losses, "tuning": summary}

    layers = [{"name": i.name, "params": i.n_params, "bits": bits,
               "label": lbl, "shape": list(i.shape)} for i, lbl, bits in
              zip(model.quantizable_layers(), asn.choices, asn.bits)]
    save_artifact(cfg.out_dir / ARTIFACT_FILE, cfg.to_dict(), asn_dict,
                  layers, {"losses": losses, "budget": budget}, summary,
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
    path = Path(args.artifact) if args.artifact else cfg.out_dir / ARTIFACT_FILE
    if not path.is_file():
        raise ConfigError(f"artifact {path} does not exist")
    problems = verify_artifact(path)
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return EXIT_FAIL
    print(f"OK {path}")
    return EXIT_OK


def cmd_report(cfg, args) -> int:
    # report.json stamps cfg's digest over these scores, so they must
    # have been scored under cfg
    rpath = cfg.out_dir / SENSITIVITY_FILE
    d, problem = _load_report(rpath, cfg)
    if d.get("config_digest") != cfg.digest():
        raise ConfigError(f"{rpath} was scored under another config; "
                          f"run `lowbit sensitivity` with this one first")
    ev = cfglib.eval_set(cfg)
    model, cal = cfglib.build_model(cfg)
    names = list(problem.names)
    dp = allocator.allocate_dp(problem)
    runs = [("dp", dp, PLAIN),
            *((mode, allocator.allocate_heuristic(problem, mode), PLAIN)
              for mode in ("head", "tail"))]
    if cfg.tune.steps >= 1:
        runs.append(("tuned", dp, cfg.tune))

    fp_loss = model.eval_loss(ev)
    rows = {}
    for mode, asn, tune in runs:
        rows[mode] = {"solver": asn.solver + ("+tune" if tune.steps else ""),
                      "avg_bits": str(asn.avg_bits),
                      "objective": asn.objective, "bits": list(asn.bits),
                      "loss": tuner.quantize_model(
                          model, _plan(cfg, names, asn.bits), cal, tune,
                          eval_batches=ev).metrics["quantized_loss"]}

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

    def common(sp):
        sp.add_argument("--config", metavar="PATH",
                        help="INI config file (defaults apply without one)")
        sp.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        dest="overrides", help="override a config field")

    common(sub.add_parser("sensitivity",
                          help="score every layer under every bit option"))

    common(sub.add_parser("allocate",
                          help="solve the bit-allocation problem"))

    common(sub.add_parser("quantize",
                          help="full pipeline: pack weights, compare variants"))

    v = sub.add_parser("verify", help="check an artifact's integrity")
    common(v)
    v.add_argument("--artifact", metavar="PATH",
                   help=f"artifact file (default OUT/{ARTIFACT_FILE})")

    common(sub.add_parser("report",
                          help="compare allocation strategies end to end"))
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
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, IngestionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except LowbitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
