"""Config, artifact container, and end-to-end command-line tests."""

import gc
import json
import os
import struct
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lowbit
from lowbit import artifact as art
from lowbit import cli, codecs, models
from lowbit import config as cfglib
from lowbit.config import canonical_json, digest_of, load_config
from lowbit.errors import ConfigError, InfeasibleError, NumericError, PackError

# keeps the end-to-end commands fast; the bundled-seed defaults are
# exercised separately in TestBundledSeed
TINY = (
    "model.hidden=16", "model.n_blocks=1", "model.vocab=16",
    "model.train_steps=30", "data.calib_samples=8", "data.seq_len=16",
    "data.batch_size=4", "data.eval_samples=4",
    "tuning.steps=4", "tuning.batch_size=4",
)


def run_cli(out_dir, command, *extra, sets=TINY, config=None):
    argv = [command]
    if config is not None:
        argv += ["--config", str(config)]
    for s in (*sets, f"run.out_dir={out_dir}"):
        argv += ["--set", s]
    argv += list(extra)
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def rewrite_header(path, mutate):
    """Edit the artifact's JSON header in place, payload untouched."""
    buf = Path(path).read_bytes()
    (hlen,) = struct.unpack_from("<Q", buf, 8)
    header = json.loads(buf[16:16 + hlen])
    mutate(header)
    hb = canonical_json(header).encode()
    Path(path).write_bytes(buf[:8] + struct.pack("<Q", len(hb)) + hb
                           + buf[16 + hlen:])


class TestConfig:
    def test_start_up_leaves_scipy_unloaded(self):
        # scipy is only needed once a model runs (gelu); loading it at
        # import would tax allocate and verify, which build none
        code = ("import sys, lowbit.cli, lowbit.config as c; "
                "c.load_config(None, []); print('scipy' in sys.modules)")
        src = str(Path(lowbit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_defaults(self):
        cfg = load_config()
        assert cfg.family == "int-sym"
        assert cfg.options == (2, 4, 8)
        assert cfg.target_bits == Fraction(8, 3)
        assert cfg.source == "markov"
        assert cfg.seed == 21
        assert cfg.tune.steps == 200
        assert cfg.tune.lr == pytest.approx(1 / 200)
        assert cfg.spec.seed == cfg.seed

    def test_ini_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[model]\nhidden = 24\n[scheme]\ntarget_bits = 3\n")
        cfg = load_config(p, ["model.vocab=40", "tuning.steps=9"])
        assert cfg.spec.hidden == 24
        assert cfg.spec.vocab == 40
        assert cfg.target_bits == Fraction(3)
        assert cfg.tune.steps == 9
        assert cfg.tune.lr == pytest.approx(1 / 9)

    def test_explicit_lr_wins(self):
        cfg = load_config(None, ["tuning.lr=0.25", "tuning.steps=10"])
        assert cfg.tune.lr == 0.25

    @pytest.mark.parametrize("text,frag", [
        ("[nosuch]\nx = 1\n", "nosuch"),
        ("[model]\nnosuch = 1\n", "model.nosuch"),
        ("[model]\nhidden = lots\n", "model.hidden"),
        ("[scheme]\ntarget_bits = 12\n", "outside option range"),
        ("[scheme]\ntarget_bits = 1\n", "outside option range"),
        ("[scheme]\nfamily = float-ish\n", "family"),
        ("[data]\nsource = /no/such/file.npz\n", "/no/such/file.npz"),
    ])
    def test_rejects_bad_file(self, tmp_path, text, frag):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=frag.replace("[", "\\[")):
            load_config(p)

    @pytest.mark.parametrize("item", ["no-equals", "noscope=3", "a.b=1",
                                      "scheme.options=1,4",
                                      "scheme.group_size=-3",
                                      "tuning.recipe=enhanced",
                                      "tuning.propagate_quantized=true",
                                      "tuning.lr=nan", "tuning.lr=inf",
                                      "model.train_lr=nan",
                                      "model.train_lr=inf",
                                      "scheme.target_bits=abc",
                                      "scheme.target_bits=1/0"])
    def test_rejects_bad_override(self, item):
        with pytest.raises(ConfigError):
            load_config(None, [item])

    def test_negative_seed_names_run_seed(self):
        with pytest.raises(ConfigError, match=r"^run\.seed: -1 is negative"):
            load_config(None, ["run.seed=-1"])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "absent.ini")

    def test_digest_ignores_out_dir_only(self, tmp_path):
        base = load_config()
        moved = load_config(None, [f"run.out_dir={tmp_path}"])
        reseeded = load_config(None, ["run.seed=22"])
        assert moved.digest() == base.digest()
        assert reseeded.digest() != base.digest()

    def test_digest_payload_is_pinned(self):
        # every output embeds the digest of this dict: a refactor that
        # changes a key, a value or a type changes every output's bytes
        want = {
            "model": {"arch": "mlp", "hidden": 32, "n_blocks": 2,
                      "vocab": 32, "n_heads": 4, "ffn_mult": 2,
                      "max_seq": 32, "train_steps": 300, "train_lr": 0.5},
            "scheme": {"family": "int-sym", "options": [2, 4, 8],
                       "group_size": 32, "target_bits": "8/3"},
            "tuning": {"steps": 200, "lr": 0.005, "batch_size": 8,
                       "trim_fraction": 0.001, "use_scale_init": True,
                       "propagate_quantized": True},
            "data": {"source": "markov", "calib_samples": 64, "seq_len": 32,
                     "batch_size": 8, "eval_samples": 16},
            "run": {"seed": 21},
        }
        got = load_config().to_dict()
        assert got == want
        assert sum(len(keys) for keys in got.values()) == 25
        for section, keys in want.items():
            for key, value in keys.items():
                assert type(got[section][key]) is type(value), (section, key)
                if isinstance(value, list):
                    assert [type(x) for x in got[section][key]] \
                        == [type(x) for x in value]

    def test_token_file_evaluates_on_rows_after_calibration(self, tmp_path):
        tokens = tmp_path / "tokens.txt"
        rows = np.random.default_rng(3).integers(0, 16, size=(13, 16))
        tokens.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        cfg = load_config(None, [*TINY, f"data.source={tokens}",
                                 "data.eval_samples=5"])
        ev = cfglib.eval_set(cfg)
        assert [len(b) for b in ev] == [4, 1]
        np.testing.assert_array_equal(np.concatenate(ev), rows[8:13])

    def test_digest_is_semantic(self):
        d = load_config().to_dict()
        assert load_config().digest() == digest_of(d)
        # canonical form is key-order independent
        shuffled = json.loads(canonical_json(d))
        assert digest_of(shuffled) == digest_of(d)

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOWBIT_OUT_DIR", str(tmp_path / "envdir"))
        cfg = load_config()
        assert cfg.out_dir == tmp_path / "envdir"


def demo_payload(rng, bits=4, target="4"):
    w = rng.normal(size=(8, 6))
    scheme = codecs.QuantScheme("int-sym", bits, 4)
    packed = {"lin": codecs.quantize_layer(w, scheme)[1]}
    layers = [{"name": "lin", "params": 48, "bits": bits,
               "label": scheme.label, "shape": [8, 6]}]
    config = {"scheme": {"family": "int-sym", "group_size": 4,
                         "target_bits": target},
              "run": {"seed": 0}}
    assignment = {"target_bits": target, "avg_bits": str(bits),
                  "layers": [{"name": "lin", "bits": bits}]}
    return config, assignment, layers, packed


def save_demo(path, rng, **kw):
    config, assignment, layers, packed = demo_payload(rng, **kw)
    art.save_artifact(path, config, assignment, layers,
                      {"losses": {"fp": 1.0}}, [], packed)
    return packed


def mx_payload(rng):
    """An mxfp artifact's parts: one 4-bit layer and one raw 16-bit head."""
    w = rng.normal(size=(40, 6))
    scheme = codecs.QuantScheme("mxfp", 4, 32)
    head = rng.normal(size=(6, 3))
    packed = {"lin": codecs.quantize_layer(w, scheme)[1],
              "head": codecs.quantize_layer(head, codecs.scheme_for_bits(
                  "mxfp", 16, 32))[1]}
    layers = [{"name": "lin", "params": 240, "bits": 4, "label": "mxfp4",
               "shape": [40, 6]},
              {"name": "head", "params": 18, "bits": 16, "label": "w16",
               "shape": [6, 3]}]
    config = {"scheme": {"family": "mxfp", "group_size": 32,
                         "target_bits": "16"},
              "run": {"seed": 0}}
    # (240 * 4 + 18 * 16) / 258 average bits
    assignment = {"target_bits": "16", "avg_bits": "208/43",
                  "layers": [{"name": "lin", "bits": 4},
                             {"name": "head", "bits": 16}]}
    return config, assignment, layers, packed


class Blob:
    """Stands in for PackedWeights to write a crafted payload verbatim."""

    def __init__(self, data):
        self.data = data

    def to_bytes(self):
        return self.data


def save_parts(path, parts, packed=None):
    config, assignment, layers, good = parts
    art.save_artifact(path, config, assignment, layers, {}, [],
                      good if packed is None else packed)


def mutate_header(header, rng):
    """Delete a key of, or swap the type of, one random node of the header."""
    nodes = []

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                nodes.append((node, k))
                walk(v)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                nodes.append((node, i))
                walk(v)
    walk(header)
    parent, key = nodes[rng.integers(len(nodes))]
    if isinstance(parent, dict) and rng.random() < 0.5:
        del parent[key]
        return
    swaps = [None, 0, -1, 2 ** 70, 1.5, True, "x", [], {}, [1, 2], {"a": 1}]
    parent[key] = swaps[rng.integers(len(swaps))]


class TestArtifact:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "a.lbq"
        packed = save_demo(path, rng)
        got = art.load_artifact(path)
        assert got.header["format"] == "lowbit/artifact-v2"
        assert [r["name"] for r in got.header["sections"]] == ["packed:lin"]
        assert got.packed["lin"].to_bytes() == packed["lin"].to_bytes()
        assert got.header["config"]["scheme"]["target_bits"] == "4"
        assert art.verify_artifact(path) == []

        def to_v1(h):
            h["format"] = "lowbit/artifact-v1"
        rewrite_header(path, to_v1)
        assert art.verify_artifact(path) == [
            "unknown artifact format 'lowbit/artifact-v1'"]

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.lbq", tmp_path / "b.lbq"
        save_demo(a, np.random.default_rng(5))
        save_demo(b, np.random.default_rng(5))
        assert a.read_bytes() == b.read_bytes()

    def test_flipped_payload_byte_is_caught(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5))
        buf = bytearray(path.read_bytes())
        buf[-1] ^= 0xFF
        path.write_bytes(bytes(buf))
        assert any("sha256 mismatch" in p for p in art.verify_artifact(path))

    def test_truncated_file_is_caught(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5))
        buf = path.read_bytes()
        path.write_bytes(buf[:len(buf) - 9])
        assert any("truncated" in p for p in art.verify_artifact(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.lbq"
        path.write_bytes(b"NOTANART" + b"\0" * 32)
        problems = art.verify_artifact(path)
        assert problems and "magic" in problems[0]

    def test_tampered_config_breaks_digest(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5))

        def bump(h):
            h["config"]["run"]["seed"] = 99
        rewrite_header(path, bump)
        assert any("config digest mismatch" in p
                   for p in art.verify_artifact(path))

    def test_budget_violation_flagged(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5), bits=4, target="3")
        assert any("budget violated" in p for p in art.verify_artifact(path))

    def test_table_params_must_match_shape(self, tmp_path):
        # the budget is summed over the table's params, so an inflated
        # row would dilute the other layers' bits
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5))

        def inflate(h):
            h["layers"][0]["params"] = 1000000
        rewrite_header(path, inflate)
        assert art.verify_artifact(path) == [
            "layer lin: table has 1000000 params, shape [8, 6] holds 48"]

    def test_budget_is_read_from_the_assignment_alone(self, tmp_path):
        path = tmp_path / "a.lbq"
        for sections in (["assignment"], ["assignment", "config"]):
            save_demo(path, np.random.default_rng(5))

            def untarget(h):
                h["assignment"].pop("target_bits")
                h["assignment_digest"] = digest_of(h["assignment"])
                if "config" in sections:
                    h["config"]["scheme"].pop("target_bits")
                    h["config_digest"] = digest_of(h["config"])
            rewrite_header(path, untarget)
            assert art.verify_artifact(path) == [
                "assignment target_bits None is not a fraction"], sections

    @pytest.mark.parametrize("avg,problem", [
        pytest.param("2", "assignment avg_bits 2 disagrees with the layer "
                     "table's 192 bit-params over 48 params", id="wrong"),
        pytest.param(None, "assignment avg_bits None is not a fraction",
                     id="null"),
        pytest.param("1/0", "assignment avg_bits '1/0' is not a fraction",
                     id="zero_denominator")])
    def test_assignment_avg_bits_checked(self, tmp_path, capsys, avg,
                                         problem):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5), bits=4, target="4")

        def restate(h):
            h["assignment"]["avg_bits"] = avg
            h["assignment_digest"] = digest_of(h["assignment"])
        rewrite_header(path, restate)
        assert run_cli(tmp_path, "verify", "--artifact", str(path)) == 1
        assert capsys.readouterr().out.splitlines() == [f"FAIL {problem}"]

    def test_rewritten_layer_bits_flagged(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5), bits=4, target="4")

        def lower(h):
            h["layers"][0]["bits"] = 2
        rewrite_header(path, lower)
        problems = art.verify_artifact(path)
        assert f"layer lin: packed as {codecs.QuantScheme('int-sym', 4, 4)}, " \
            f"table and config say {codecs.QuantScheme('int-sym', 2, 4)}" \
            in problems
        assert any("assignment 4" in p for p in problems)

    def test_codec_must_match_family(self, tmp_path):
        path = tmp_path / "a.lbq"
        cases = [
            # the demo's group size 4 names no mx scheme: one line for
            # the config, none per layer
            ({"family": "mxfp"},
             "config scheme.family 'mxfp' with scheme.group_size 4 names "
             "no scheme: mxfp blocks are 32 long, got group_size 4"),
            ({"family": "mxfp", "group_size": 32},
             f"layer lin: packed as {codecs.QuantScheme('int-sym', 4, 4)}, "
             f"table and config say {codecs.QuantScheme('mxfp', 4, 32)}")]
        for edit, problem in cases:
            save_demo(path, np.random.default_rng(5))

            def to_mx(h):
                h["config"]["scheme"].update(edit)
                h["config_digest"] = digest_of(h["config"])
            rewrite_header(path, to_mx)
            assert art.verify_artifact(path) == [problem]

    def test_transposed_int_sym_payload_flagged(self, tmp_path):
        rng = np.random.default_rng(5)
        parts = demo_payload(rng)
        w = rng.normal(size=(6, 8))  # the table says (8, 6)
        packed = {"lin": codecs.quantize_layer(
            w, codecs.QuantScheme("int-sym", 4, 4))[1]}
        path = tmp_path / "a.lbq"
        save_parts(path, parts, packed)
        assert any("packed shape (6, 8)" in p for p in art.verify_artifact(path))

    def test_int_sym_group_size_must_match_scheme(self, tmp_path):
        rng = np.random.default_rng(5)
        parts = demo_payload(rng)  # scheme.group_size 4
        packed = {"lin": codecs.quantize_layer(
            rng.normal(size=(8, 6)), codecs.QuantScheme("int-sym", 4, 8))[1]}
        path = tmp_path / "a.lbq"
        save_parts(path, parts, packed)
        assert art.verify_artifact(path) == [
            f"layer lin: packed as {codecs.QuantScheme('int-sym', 4, 8)}, "
            f"table and config say {codecs.QuantScheme('int-sym', 4, 4)}"]

        def drop_group_size(h):
            del h["config"]["scheme"]["group_size"]
            h["config_digest"] = digest_of(h["config"])
        save_parts(path, parts)
        rewrite_header(path, drop_group_size)
        assert art.verify_artifact(path) == [
            "config has no integer scheme.group_size: None"]

    def test_load_uses_the_checked_parse(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5))

        def drop_offset(h):
            del h["sections"][0]["offset"]
        rewrite_header(path, drop_offset)
        with pytest.raises(PackError, match="section table row 0 is malformed"):
            art.load_artifact(path)
        assert "section table row 0 is malformed" in art.verify_artifact(path)

    def test_malformed_header_rows_are_problems(self, tmp_path):
        path = tmp_path / "a.lbq"
        save_demo(path, np.random.default_rng(5))

        def drop_sha(h):
            del h["sections"][0]["sha256"]
        rewrite_header(path, drop_sha)
        assert any("section table row 0 is malformed" in p
                   for p in art.verify_artifact(path))
        head = canonical_json([1, 2]).encode()
        path.write_bytes(art.MAGIC + struct.pack("<Q", len(head)) + head)
        assert art.verify_artifact(path) == [
            "artifact header is not a JSON object"]

    def test_crafted_packed_headers_are_problems(self, tmp_path):
        rng = np.random.default_rng(6)
        parts = mx_payload(rng)
        mx = bytearray(parts[3]["lin"].to_bytes())
        struct.pack_into("<I", mx, 2, 0)  # the header's group size field
        int_sym = codecs.CODECS.index(("int-sym", None))
        crafted = {
            "mx block 0": bytes(mx),
            "int-sym rank 3": struct.pack("<BBIB3QB", int_sym, 4,
                                          4, 3, 2, 2, 2, codecs.SCALES_F64)
            + bytes(64),
            "huge shape": struct.pack("<BBIB2QB", int_sym, 4, 4,
                                      2, 2 ** 62, 2 ** 62, codecs.SCALES_F64),
        }
        for what, blob in crafted.items():
            path = tmp_path / "a.lbq"
            save_parts(path, parts, {**parts[3], "lin": Blob(blob)})
            problems = art.verify_artifact(path)
            assert any("section packed:lin" in p for p in problems), what

    def test_verify_never_raises_on_mutations(self, tmp_path):
        rng = np.random.default_rng(2024)
        path = tmp_path / "a.lbq"
        bases = []
        for parts in (demo_payload(np.random.default_rng(5)),
                      mx_payload(np.random.default_rng(6))):
            save_parts(path, parts)
            assert art.verify_artifact(path) == []
            bases.append((parts, path.read_bytes()))
        for case in range(400):
            parts, good = bases[case % 2]
            kind = case // 2 % 4
            if kind == 0:  # flip one byte anywhere
                buf = bytearray(good)
                buf[rng.integers(len(buf))] ^= int(rng.integers(1, 256))
                path.write_bytes(bytes(buf))
            elif kind == 1:  # truncate
                path.write_bytes(good[:rng.integers(len(good))])
            elif kind == 2:  # delete a header key or swap its type
                path.write_bytes(good)
                rewrite_header(path, lambda h: mutate_header(h, rng))
            else:  # crafted payload header behind a matching sha256
                name = sorted(parts[3])[case % len(parts[3])]
                blob = bytearray(parts[3][name].to_bytes())
                blob[rng.integers(min(len(blob), 32))] ^= \
                    int(rng.integers(1, 256))
                save_parts(path, parts, {**parts[3], name: Blob(bytes(blob))})
            problems = art.verify_artifact(path)
            assert isinstance(problems, list), case
            assert all(isinstance(p, str) for p in problems), case

    def test_failed_save_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "a.lbq"

        def boom(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_demo(path, np.random.default_rng(5))
        assert list(tmp_path.iterdir()) == []


class TestCliCommands:
    def test_sensitivity_writes_report(self, tmp_path, capsys):
        assert run_cli(tmp_path, "sensitivity") == 0
        d = read_json(tmp_path / "sensitivity.json")
        assert d["schema"] == "lowbit/sensitivity-v1"
        assert d["config_digest"] == load_config(
            None, [*TINY, f"run.out_dir={tmp_path}"]).digest()
        names = [l["name"] for l in d["layers"]]
        assert names == ["layers.0", "head"]
        out = capsys.readouterr().out
        assert "w2g32" in out and "head" in out

    def test_sensitivity_rerun_is_byte_identical(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        first = (tmp_path / "sensitivity.json").read_bytes()
        run_cli(tmp_path, "sensitivity")
        assert (tmp_path / "sensitivity.json").read_bytes() == first

    def test_all_16_bit_options_score_zero(self, tmp_path):
        sets = TINY + ("scheme.options=16", "scheme.target_bits=16")
        assert run_cli(tmp_path, "sensitivity", sets=sets) == 0
        d = read_json(tmp_path / "sensitivity.json")
        assert all(v == 0.0 for l in d["layers"]
                   for v in l["scores"].values())

    def test_allocate_matches_report_layers(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        assert run_cli(tmp_path, "allocate") == 0
        asn = read_json(tmp_path / "assignment.json")
        rep = read_json(tmp_path / "sensitivity.json")
        assert [l["name"] for l in asn["layers"]] \
            == [l["name"] for l in rep["layers"]]
        assert asn["solver"] == "dp"
        total = sum(l["params"] for l in rep["layers"])
        used = sum(l["bits"] * r["params"]
                   for l, r in zip(asn["layers"], rep["layers"]))
        assert Fraction(used, total) <= Fraction(asn["target_bits"])

    def test_target_max_picks_cheapest_option(self, tmp_path):
        sets = TINY + ("scheme.target_bits=8",)
        run_cli(tmp_path, "sensitivity", sets=sets)
        assert run_cli(tmp_path, "allocate", sets=sets) == 0
        asn = read_json(tmp_path / "assignment.json")
        rep = read_json(tmp_path / "sensitivity.json")
        for row, scored in zip(asn["layers"], rep["layers"]):
            cheapest = min(scored["scores"], key=lambda k: scored["scores"][k])
            assert row["option"] == cheapest

    def test_dp_beats_heuristics(self, tmp_path):
        sets = TINY + ("tuning.steps=0",)
        run_cli(tmp_path, "sensitivity", sets=sets)
        assert run_cli(tmp_path, "report", sets=sets) == 0
        objectives = {mode: row["objective"] for mode, row in read_json(
            tmp_path / "report.json")["allocations"].items()}
        assert objectives["dp"] <= objectives["head"]
        assert objectives["dp"] <= objectives["tail"]

    def test_allocate_target_out_of_range(self, tmp_path):
        # the config's target loads, but the scores file offers no option
        # above 4 bits
        assert run_cli(tmp_path, "sensitivity",
                       sets=TINY + ("scheme.options=2,4",)) == 0
        assert run_cli(tmp_path, "allocate", sets=TINY + (
            "scheme.options=2,4,8", "scheme.target_bits=6")) == 2
        assert not (tmp_path / "assignment.json").exists()

    def test_quantize_pipeline(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        assert run_cli(tmp_path, "quantize") == 0
        m = read_json(tmp_path / "metrics.json")
        assert set(m["losses"]) == {"fp", "rtn", "dl_only", "tuned"}
        assert m["budget"]["rtn_uniform_bits"] == 2
        assert all(np.isfinite(v) for v in m["losses"].values())
        got = art.load_artifact(tmp_path / "artifact.lbq")
        assert [r["name"] for r in got.header["layers"]] \
            == ["layers.0", "head"]
        assert got.header["config_digest"] == m["config_digest"]
        assert art.verify_artifact(tmp_path / "artifact.lbq") == []

    def test_three_bit_option_packs_and_verifies(self, tmp_path):
        sets = TINY + ("scheme.options=3,4", "scheme.target_bits=7/2")
        for command in ("sensitivity", "allocate", "quantize", "verify"):
            assert run_cli(tmp_path, command, sets=sets) == 0, command
        got = art.load_artifact(tmp_path / "artifact.lbq")
        assert 3 in [pw.scheme.bits for pw in got.packed.values()]

    def test_quantize_rerun_byte_identical(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        run_cli(tmp_path, "quantize")
        a1 = (tmp_path / "artifact.lbq").read_bytes()
        m1 = (tmp_path / "metrics.json").read_bytes()
        run_cli(tmp_path, "quantize")
        assert (tmp_path / "artifact.lbq").read_bytes() == a1
        assert (tmp_path / "metrics.json").read_bytes() == m1

    def test_all_16_assignment_equals_fp(self, tmp_path):
        sets = TINY + ("scheme.options=16", "scheme.target_bits=16")
        run_cli(tmp_path, "sensitivity", sets=sets)
        run_cli(tmp_path, "allocate", sets=sets)
        assert run_cli(tmp_path, "quantize", sets=sets) == 0
        m = read_json(tmp_path / "metrics.json")
        for variant in ("rtn", "dl_only", "tuned"):
            assert abs(m["losses"][variant] - m["losses"]["fp"]) <= 1e-10

    def test_16_bit_layers_in_a_tuned_block_ship_raw(self, tmp_path, capsys):
        sets = TINY + ("model.arch=tiny-transformer", "scheme.options=2,4,16",
                       "scheme.target_bits=8")
        for command in ("sensitivity", "allocate", "quantize", "verify"):
            assert run_cli(tmp_path, command, sets=sets) == 0, command
        assert "OK " in capsys.readouterr().out
        cfg = load_config(None, (*sets, f"run.out_dir={tmp_path}"))
        model, _ = cli.cfglib.build_model(cfg)  # the cached fp model
        tuned_blocks = {b["block"] for b in
                        read_json(tmp_path / "tuned.json")["blocks"]}
        wide = [l["name"] for l in read_json(tmp_path / "assignment.json")
                ["layers"] if l["bits"] == 16]
        assert any(model.layer_info(n).block in tuned_blocks for n in wide)
        got = art.load_artifact(tmp_path / "artifact.lbq")
        for n in wide:
            pw = got.packed[n]
            assert pw.scheme == codecs.QuantScheme("none", 16, 0)
            np.testing.assert_array_equal(pw.dequantize().view(np.int64),
                                          model.params[n].view(np.int64))

    def test_steps_zero_reproduces_dl_only(self, tmp_path):
        sets = TINY + ("tuning.steps=0",)
        run_cli(tmp_path, "sensitivity", sets=sets)
        run_cli(tmp_path, "allocate", sets=sets)
        assert run_cli(tmp_path, "quantize", sets=sets) == 0
        m = read_json(tmp_path / "metrics.json")
        assert m["losses"]["tuned"] == m["losses"]["dl_only"]
        assert m["tuning"] == []
        assert read_json(tmp_path / "tuned.json")["blocks"] == []

    def test_quantize_writes_block_histories(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        assert run_cli(tmp_path, "quantize") == 0
        d = read_json(tmp_path / "tuned.json")
        assert d["schema"] == "lowbit/tuning-v1"
        assert len(d["blocks"]) == 1
        blk = d["blocks"][0]
        assert len(blk["history"]) == 5  # steps + 1 evaluations
        assert blk["final_loss"] == min(blk["history"])
        assert blk["final_loss"] <= blk["initial_loss"]
        # metrics.json holds the same blocks, without their curves
        m = read_json(tmp_path / "metrics.json")
        assert [{k: v for k, v in b.items() if k != "history"}
                for b in d["blocks"]] == m["tuning"]

    @pytest.mark.parametrize("sets", [
        TINY,
        TINY + ("model.arch=tiny-transformer", "scheme.family=mxfp",
                "scheme.options=4,8", "scheme.target_bits=5")],
        ids=["int-sym", "mx"])
    def test_artifact_reproduces_its_own_metrics(self, tmp_path, sets):
        for command in ("sensitivity", "allocate", "quantize"):
            assert run_cli(tmp_path, command, sets=sets) == 0, command
        cfg = load_config(None, (*sets, f"run.out_dir={tmp_path}"))
        model, _ = cfglib.build_model(cfg)  # the cached fp model
        got = art.load_artifact(tmp_path / "artifact.lbq")
        weights = {n: pw.dequantize() for n, pw in got.packed.items()}
        loss = model.eval_loss(cfglib.eval_set(cfg), weights=weights)
        assert loss == read_json(tmp_path / "metrics.json")["losses"]["tuned"]

    def test_report_and_quantize_give_the_same_losses(self, tmp_path):
        for command in ("sensitivity", "allocate", "quantize", "report"):
            assert run_cli(tmp_path, command) == 0, command
        losses = read_json(tmp_path / "metrics.json")["losses"]
        rep = read_json(tmp_path / "report.json")
        assert rep["fp_loss"] == losses["fp"]
        assert rep["allocations"]["dp"]["loss"] == losses["dl_only"]
        assert rep["allocations"]["tuned"]["loss"] == losses["tuned"]

    def test_one_quantized_model_at_a_time(self, tmp_path, monkeypatch):
        # quantize reads only the rtn and dl_only losses, so their
        # results are gone before the next variant runs
        (tmp_path / "assignment.json").write_text(json.dumps(ASSIGNMENT))
        real = cli.tuner.quantize_model
        refs, alive = [], []

        def tracked(*args, **kwargs):
            gc.collect()
            alive.append([r() is not None for r in refs])
            res = real(*args, **kwargs)
            refs.append(weakref.ref(res))
            return res
        monkeypatch.setattr(cli.tuner, "quantize_model", tracked)
        assert run_cli(tmp_path, "quantize") == 0
        assert alive == [[], [False], [False, False]]

    def test_tune_command_is_gone(self, tmp_path, capsys):
        # quantize writes tuned.json; no second command tunes
        assert run_cli(tmp_path, "tune") == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    def test_verify_round_trip_and_corruption(self, tmp_path, capsys):
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        run_cli(tmp_path, "quantize")
        assert run_cli(tmp_path, "verify") == 0
        buf = bytearray((tmp_path / "artifact.lbq").read_bytes())
        buf[-1] ^= 0xFF
        (tmp_path / "artifact.lbq").write_bytes(bytes(buf))
        capsys.readouterr()
        assert run_cli(tmp_path, "verify") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_missing_artifact(self, tmp_path):
        assert run_cli(tmp_path, "verify") == 2

    def test_report_compares_allocations(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        assert run_cli(tmp_path, "report") == 0
        d = read_json(tmp_path / "report.json")
        assert set(d["allocations"]) == {"dp", "head", "tail", "tuned"}
        assert np.isfinite(d["fp_loss"])
        dp = d["allocations"]["dp"]
        for mode in ("head", "tail"):
            assert dp["objective"] <= d["allocations"][mode]["objective"]

    def test_report_skips_tuned_at_steps_zero(self, tmp_path):
        sets = TINY + ("tuning.steps=0",)
        run_cli(tmp_path, "sensitivity", sets=sets)
        assert run_cli(tmp_path, "report", sets=sets) == 0
        d = read_json(tmp_path / "report.json")
        assert set(d["allocations"]) == {"dp", "head", "tail"}

    def test_report_reads_the_scores_file(self, tmp_path, monkeypatch):
        run_cli(tmp_path, "sensitivity")

        def no_scoring(*args, **kwargs):
            raise AssertionError("report scored sensitivity again")
        monkeypatch.setattr(cli.sensitivity, "build_report", no_scoring)
        assert run_cli(tmp_path, "report") == 0
        assert (tmp_path / "report.json").is_file()

    def test_report_without_scores_exits_config(self, tmp_path, capsys):
        assert run_cli(tmp_path, "report") == 2
        assert "lowbit sensitivity" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_report_rejects_scores_of_another_config(self, tmp_path,
                                                     monkeypatch, capsys):
        run_cli(tmp_path, "sensitivity", sets=TINY + ("tuning.steps=3",))

        def no_training(cfg):
            raise AssertionError("model built for scores of another config")
        monkeypatch.setattr(cli.cfglib, "build_model", no_training)
        assert run_cli(tmp_path, "report") == 2
        assert "another config" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_every_output_embeds_config_digest(self, tmp_path):
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        run_cli(tmp_path, "quantize")
        run_cli(tmp_path, "report")
        digest = load_config(None, [*TINY, f"run.out_dir={tmp_path}"]).digest()
        for name in ("sensitivity.json", "assignment.json", "tuned.json",
                     "metrics.json", "report.json"):
            assert read_json(tmp_path / name)["config_digest"] == digest
        assert art.load_artifact(
            tmp_path / "artifact.lbq").header["config_digest"] == digest


def count_training(monkeypatch):
    """Wrap models.train_model; the returned list grows by one per call."""
    calls = []
    real = models.train_model

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)
    monkeypatch.setattr(models, "train_model", counted)
    return calls


def write_tokens(path, seed):
    rng = np.random.default_rng(seed)
    path.write_text("".join(" ".join(map(str, row)) + "\n"
                            for row in rng.integers(0, 16, size=(8, 16))))


def flip_middle_byte(path):
    buf = bytearray(path.read_bytes())
    buf[len(buf) // 2] ^= 0xFF
    path.write_bytes(bytes(buf))


def truncate(path):
    path.write_bytes(path.read_bytes()[:-100])


def tamper_one_param(path):
    # a well-formed archive whose parameters no longer match its digest
    with np.load(path) as z:
        arrays = {n: z[n] for n in z.files}
    arrays["head"] = arrays["head"] + 1e-12
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestFpModelCache:
    CACHE = "fp_model.npz"

    def test_hit_skips_training_and_keeps_outputs(self, tmp_path,
                                                  monkeypatch):
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        assert (tmp_path / self.CACHE).is_file()

        def no_training(*args, **kwargs):
            raise AssertionError("trained despite a valid cache")
        with monkeypatch.context() as m:
            m.setattr(models, "train_model", no_training)
            assert run_cli(tmp_path, "quantize") == 0
        hit = [(tmp_path / f).read_bytes()
               for f in ("metrics.json", "artifact.lbq")]

        (tmp_path / self.CACHE).unlink()
        calls = count_training(monkeypatch)
        assert run_cli(tmp_path, "quantize") == 0
        assert len(calls) == 1
        assert [(tmp_path / f).read_bytes()
                for f in ("metrics.json", "artifact.lbq")] == hit

    @pytest.mark.parametrize("damage", [flip_middle_byte, truncate,
                                        tamper_one_param])
    def test_damaged_cache_retrains_once(self, tmp_path, monkeypatch,
                                         damage):
        clean = tmp_path / "clean"
        run_cli(clean, "sensitivity")
        out = tmp_path / "out"
        run_cli(out, "sensitivity")
        damage(out / self.CACHE)
        calls = count_training(monkeypatch)
        assert run_cli(out, "sensitivity") == 0
        assert len(calls) == 1
        assert (out / "sensitivity.json").read_bytes() \
            == (clean / "sensitivity.json").read_bytes()
        assert run_cli(out, "sensitivity") == 0  # the rewritten cache hits
        assert len(calls) == 1

    def test_cache_of_another_config_retrains_once(self, tmp_path,
                                                   monkeypatch):
        run_cli(tmp_path / "other", "sensitivity",
                sets=TINY + ("model.train_lr=0.25",))
        run_cli(tmp_path / "clean", "sensitivity")
        out = tmp_path / "out"
        out.mkdir()
        (out / self.CACHE).write_bytes(
            (tmp_path / "other" / self.CACHE).read_bytes())
        calls = count_training(monkeypatch)
        assert run_cli(out, "sensitivity") == 0
        assert len(calls) == 1
        assert (out / "sensitivity.json").read_bytes() \
            == (tmp_path / "clean" / "sensitivity.json").read_bytes()

    def test_rewritten_token_file_retrains_once(self, tmp_path, monkeypatch):
        tokens = tmp_path / "tokens.txt"
        sets = TINY + (f"data.source={tokens}",)
        write_tokens(tokens, seed=1)
        run_cli(tmp_path / "out", "sensitivity", sets=sets)
        write_tokens(tokens, seed=2)
        run_cli(tmp_path / "clean", "sensitivity", sets=sets)
        calls = count_training(monkeypatch)
        assert run_cli(tmp_path / "out", "sensitivity", sets=sets) == 0
        assert len(calls) == 1
        assert (tmp_path / "out" / "sensitivity.json").read_bytes() \
            == (tmp_path / "clean" / "sensitivity.json").read_bytes()

    def test_untrained_model_is_not_cached(self, tmp_path, monkeypatch):
        calls = count_training(monkeypatch)
        sets = TINY + ("model.train_steps=0",)
        assert run_cli(tmp_path, "sensitivity", sets=sets) == 0
        assert calls == []
        assert not (tmp_path / self.CACHE).exists()


def edited(base, edit):
    d = json.loads(json.dumps(base))
    edit(d)
    return d


# well-formed inputs for the TINY model, edited into malformed ones below
SCORES = {"schema": "lowbit/sensitivity-v1", "family": "int-sym",
          "calib": {"samples": 8, "seq_len": 16},
          "options": [{"label": "w2g32", "bits": 2, "group_size": 32},
                      {"label": "w4g32", "bits": 4, "group_size": 32},
                      {"label": "w8g32", "bits": 8, "group_size": 32}],
          "layers": [{"name": n, "params": 256,
                      "scores": {"w2g32": 1.0, "w4g32": 0.5, "w8g32": 0.0}}
                     for n in ("layers.0", "head")]}
ASSIGNMENT = {"schema": "lowbit/assignment-v1", "solver": "dp",
              "objective": 0.0, "avg_bits": "8", "target_bits": "8",
              "layers": [{"name": n, "option": "w8g32", "bits": 8}
                         for n in ("layers.0", "head")]}
BAD_SCORES = {
    "list": [],
    "schema_only": {"schema": "lowbit/sensitivity-v1"},
    "missing_score": edited(
        SCORES, lambda d: d["layers"][0]["scores"].pop("w8g32")),
    "text_bits": edited(SCORES, lambda d: d["options"][0].update(bits="two")),
    # the allocation problem is built as the file is read
    "negative_score": edited(
        SCORES, lambda d: d["layers"][0]["scores"].update(w2g32=-1.0)),
    "nan_score": edited(
        SCORES, lambda d: d["layers"][0]["scores"].update(w2g32=float("nan"))),
    "zero_params": edited(SCORES, lambda d: d["layers"][0].update(params=0)),
}
BAD_ASSIGNMENTS = {
    "list": [],
    "missing_option": edited(ASSIGNMENT,
                             lambda d: d["layers"][0].pop("option")),
    "zero_denominator": edited(ASSIGNMENT,
                               lambda d: d.update(avg_bits="1/0")),
    # quantize reads the budget and layer names from the file alone
    "missing_target": edited(ASSIGNMENT, lambda d: d.pop("target_bits")),
    "missing_name": edited(ASSIGNMENT, lambda d: d["layers"][0].pop("name")),
    # and so is the quantization plan
    "bits_9": edited(ASSIGNMENT, lambda d: d["layers"][0].update(bits=9)),
    # and the rtn baseline's width, the widest option within the target
    "target_1": edited(ASSIGNMENT, lambda d: d.update(target_bits="1")),
}
# read whole, but checkable only against the config's layer table
UNFIT_ASSIGNMENTS = {
    "over_budget": edited(ASSIGNMENT, lambda d: d.update(target_bits="4")),
    "wrong_avg_bits": edited(ASSIGNMENT, lambda d: d.update(avg_bits="2")),
    "label_bits_mismatch": edited(
        ASSIGNMENT, lambda d: d["layers"][0].update(option="w2g32")),
    "other_layers": edited(
        ASSIGNMENT, lambda d: d["layers"][0].update(name="layers.1")),
}
MALFORMED = [
    *(pytest.param(c, "sensitivity.json", body, id=f"{c}-{n}")
      for c in ("allocate", "report") for n, body in BAD_SCORES.items()),
    *(pytest.param("quantize", "assignment.json", body, id=f"quantize-{n}")
      for n, body in BAD_ASSIGNMENTS.items()),
]


class TestCliErrors:
    @pytest.mark.parametrize("command,name,body", MALFORMED)
    def test_malformed_input_exits_config(self, tmp_path, capsys, command,
                                          name, body):
        (tmp_path / name).write_text(json.dumps(body))
        assert run_cli(tmp_path, command) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "artifact.lbq").exists()
        assert not (tmp_path / "fp_model.npz").exists()

    @pytest.mark.parametrize("body", [
        pytest.param(body, id=n) for n, body in UNFIT_ASSIGNMENTS.items()])
    def test_unfit_assignment_exits_config_before_quantizing(
            self, tmp_path, monkeypatch, capsys, body):
        (tmp_path / "assignment.json").write_text(json.dumps(body))

        def no_model(*args, **kwargs):
            raise AssertionError("model built for an unfit assignment")
        monkeypatch.setattr(cli.cfglib, "build_model", no_model)
        monkeypatch.setattr(models, "train_model", no_model)
        assert run_cli(tmp_path, "quantize") == 2
        assert "assignment.json" in capsys.readouterr().err
        for name in ("artifact.lbq", "metrics.json", "tuned.json",
                     "fp_model.npz"):
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("command,name,body", [
        ("allocate", "sensitivity.json", SCORES),
        ("quantize", "assignment.json", ASSIGNMENT)])
    def test_unedited_inputs_are_accepted(self, tmp_path, command, name,
                                          body):
        (tmp_path / name).write_text(json.dumps(body))
        assert run_cli(tmp_path, command) == 0

    @pytest.mark.parametrize("command,flag,value", [
        ("allocate", "--target", "8"),
        ("allocate", "--report", "sensitivity.json"),
        ("allocate", "--mode", "head"),
        ("quantize", "--assignment", "assignment.json")])
    def test_flags_shadowing_config_fields_are_gone(self, tmp_path, capsys,
                                                    command, flag, value):
        # the budget is scheme.target_bits; inputs are read from run.out_dir
        (tmp_path / "sensitivity.json").write_text(json.dumps(SCORES))
        (tmp_path / "assignment.json").write_text(json.dumps(ASSIGNMENT))
        assert run_cli(tmp_path, command, flag, str(tmp_path / value)) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_calibration_file_names_path(self, tmp_path, capsys):
        sets = TINY + ("data.source=/no/such/calib.npz",)
        assert run_cli(tmp_path, "sensitivity", sets=sets) == 2
        assert "/no/such/calib.npz" in capsys.readouterr().err

    def test_bad_override_exits_config(self, tmp_path):
        assert run_cli(tmp_path, "sensitivity",
                       sets=TINY + ("model.nosuch=1",)) == 2

    @pytest.mark.parametrize("items", [
        *(pytest.param((item,), id=item)
          for item in ("scheme.options=1,4", "scheme.group_size=-3")),
        *(pytest.param(("model.arch=tiny-transformer", item), id=f"tt-{item}")
          for item in ("model.n_heads=0", "model.ffn_mult=0",
                       "model.n_heads=-4", "model.ffn_mult=-1",
                       "model.max_seq=-3", "model.max_seq=0",
                       "data.seq_len=64"))])
    def test_bad_scheme_exits_config_before_training(self, tmp_path,
                                                     monkeypatch, items):
        def no_training(cfg):
            raise AssertionError("model built for a rejected config")
        monkeypatch.setattr(cli.cfglib, "build_model", no_training)
        assert run_cli(tmp_path, "sensitivity", sets=TINY + items) == 2
        assert not (tmp_path / "sensitivity.json").exists()

    def test_diverged_training_exits_numeric_and_writes_nothing(
            self, tmp_path, capsys):
        sets = TINY + ("model.train_lr=1e6",)
        assert run_cli(tmp_path, "sensitivity", sets=sets) == 4
        assert "training diverged at step" in capsys.readouterr().err
        assert not (tmp_path / "sensitivity.json").exists()
        assert not (tmp_path / "fp_model.npz").exists()

    def test_token_file_without_eval_rows_exits_before_training(
            self, tmp_path, monkeypatch, capsys):
        tokens = tmp_path / "tokens.txt"
        write_tokens(tokens, seed=1)  # 8 rows: calibration only
        (tmp_path / "assignment.json").write_text(json.dumps(ASSIGNMENT))

        def no_training(cfg):
            raise AssertionError("model built before the eval rows were read")
        monkeypatch.setattr(cli.cfglib, "build_model", no_training)
        sets = TINY + (f"data.source={tokens}",)
        assert run_cli(tmp_path, "quantize", sets=sets) == 2
        assert str(tokens) in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_quantize_without_assignment(self, tmp_path):
        assert run_cli(tmp_path, "quantize") == 2

    def test_assignment_model_mismatch(self, tmp_path, monkeypatch, capsys):
        # a file fault, found as the file is read
        run_cli(tmp_path, "sensitivity")
        run_cli(tmp_path, "allocate")
        capsys.readouterr()

        def no_model(cfg):
            raise AssertionError("model built for another model's assignment")
        monkeypatch.setattr(cli.cfglib, "build_model", no_model)
        wrong = TINY[1:] + ("model.hidden=16", "model.n_blocks=2")
        assert run_cli(tmp_path, "quantize", sets=wrong) == 2
        assert "assignment.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command,sets,named", [
        *(pytest.param(c, TINY[1:] + ("model.hidden=8",), "sensitivity.json",
                       id=c) for c in ("allocate", "report")),
        # int-sym scores offer no MX option
        *(pytest.param(c, TINY + ("scheme.family=mxfp", "scheme.options=4,8",
                                  "scheme.target_bits=4"), "mxfp4",
                       id=f"{c}-mx-options") for c in ("allocate", "report"))])
    def test_scores_of_another_model_exit_config(self, tmp_path, monkeypatch,
                                                 capsys, command, sets, named):
        run_cli(tmp_path, "sensitivity")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()

        def no_model(cfg):
            raise AssertionError("model built for another model's scores")
        monkeypatch.setattr(cli.cfglib, "build_model", no_model)
        assert run_cli(tmp_path, command, sets=sets) == 2
        err = capsys.readouterr().err
        assert "sensitivity.json" in err and named in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_allocate_leaves_out_options_the_config_lacks(self, tmp_path):
        # at 3 bits the scores favour one w4g32 layer, which 2,8 lacks
        (tmp_path / "sensitivity.json").write_text(json.dumps(SCORES))
        for options, labels in (("2,4,8", {"w2g32", "w4g32"}),
                                ("2,8", {"w2g32"})):
            assert run_cli(tmp_path, "allocate", sets=TINY + (
                f"scheme.options={options}", "scheme.target_bits=3")) == 0
            asn = read_json(tmp_path / "assignment.json")
            assert {l["option"] for l in asn["layers"]} == labels

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("beneath", [False, True],
                             ids=["file", "beneath-file"])
    def test_out_dir_that_cannot_be_a_directory_exits_config(
            self, tmp_path, capsys, command, beneath):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(taken / "out" if beneath else taken, command) == 2
        err = capsys.readouterr().err
        assert "run.out_dir" in err and "Traceback" not in err

    @pytest.mark.parametrize("exc,code", [
        (ConfigError("x"), 2),
        (InfeasibleError("x"), 3),
        (NumericError("x"), 4),
    ])
    def test_exit_code_mapping(self, tmp_path, monkeypatch, exc, code):
        def raiser(cfg, args):
            raise exc
        monkeypatch.setitem(cli.COMMANDS, "report", raiser)
        assert run_cli(tmp_path, "report") == code

    def test_out_dir_env_is_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOWBIT_OUT_DIR", str(tmp_path / "fromenv"))
        assert cli.main(["sensitivity"] + sum(
            (["--set", s] for s in TINY), [])) == 0
        assert (tmp_path / "fromenv" / "sensitivity.json").is_file()


class TestBundledSeed:
    """Default config end to end: the regression-locked comparison."""

    def test_tuned_beats_dl_only_at_equal_budget(self, tmp_path):
        run_cli(tmp_path, "sensitivity", sets=())
        run_cli(tmp_path, "allocate", sets=())
        assert run_cli(tmp_path, "quantize", sets=()) == 0
        m = read_json(tmp_path / "metrics.json")
        losses = m["losses"]
        assert losses["tuned"] <= losses["dl_only"]
        assert losses["tuned"] <= losses["dl_only"] - 0.05  # margin lock
        assert losses["dl_only"] < losses["rtn"]
        assert m["budget"]["target_bits"] == "8/3"
        assert art.verify_artifact(tmp_path / "artifact.lbq") == []
