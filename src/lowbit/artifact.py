"""Quantized-model artifact: one self-describing binary file.

Layout: 8-byte magic, little-endian u64 header length, canonical-JSON
header, then the payload sections back to back. The header carries the
config and assignment (with their digests), a layer table, metrics, and
a section table with per-section sha256, so the verifier needs nothing
beyond the file itself.

Writes are atomic: a temp file in the target directory is fsynced and
renamed over the destination, so a crashed run never leaves a partial
artifact behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import codecs
from .codecs import PackedWeights
from .config import canonical_json, digest_of
from .errors import ContractError, PackError

MAGIC = b"LBART001"
FORMAT = "lowbit/artifact-v1"

V_BOUND = 0.5
AB_LO, AB_HI = 0.5, 1.5


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


@dataclass
class Artifact:
    header: dict
    packed: dict    # layer name -> PackedWeights
    tuned: dict     # layer name -> {"v": arr, "alpha": arr, "beta": arr}

    @property
    def config(self) -> dict:
        return self.header["config"]

    @property
    def assignment(self) -> dict:
        return self.header["assignment"]

    @property
    def metrics(self) -> dict:
        return self.header["metrics"]


def _sections(packed: dict, tuned: dict):
    """Deterministic (name, kind, bytes, meta) list."""
    out = []
    for name in sorted(packed):
        out.append((f"packed:{name}", "packed", packed[name].to_bytes(), {}))
    for name in sorted(tuned):
        for field in ("v", "alpha", "beta"):
            arr = np.ascontiguousarray(tuned[name][field], dtype=np.float64)
            meta = {"dtype": "f8", "shape": list(arr.shape)}
            out.append((f"tune:{name}:{field}", "array", arr.tobytes(), meta))
    return out


def save_artifact(path, config_dict: dict, assignment_dict: dict,
                  layers: list, metrics: dict, tuning: list,
                  packed: dict, tuned: dict) -> None:
    """Atomically write an artifact file.

    ``layers`` rows need name/params/bits/label/shape; ``tuning`` is the
    per-block loss summary; ``tuned`` maps layer name to its v, alpha
    and beta arrays.
    """
    path = Path(path)
    sections = _sections(packed, tuned)
    table = []
    offset = 0
    for name, kind, blob, meta in sections:
        row = {"name": name, "kind": kind, "offset": offset,
               "length": len(blob), "sha256": _sha(blob)}
        row.update(meta)
        table.append(row)
        offset += len(blob)
    header = {
        "format": FORMAT,
        "config": config_dict,
        "config_digest": digest_of(config_dict),
        "assignment": assignment_dict,
        "assignment_digest": digest_of(assignment_dict),
        "layers": layers,
        "metrics": metrics,
        "tuning": tuning,
        "sections": table,
    }
    head = canonical_json(header).encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(head)))
            fh.write(head)
            for _, _, blob, _ in sections:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_header(buf: bytes) -> tuple:
    if len(buf) < len(MAGIC) + 8 or buf[:len(MAGIC)] != MAGIC:
        raise PackError("not an artifact file (bad magic)")
    (hlen,) = struct.unpack_from("<Q", buf, len(MAGIC))
    start = len(MAGIC) + 8
    if len(buf) < start + hlen:
        raise PackError("truncated artifact header")
    try:
        header = json.loads(buf[start:start + hlen])
    except ValueError as e:  # bad JSON or bad UTF-8
        raise PackError(f"artifact header is not valid JSON: {e}") from None
    if not isinstance(header, dict):
        raise PackError("artifact header is not a JSON object")
    if header.get("format") != FORMAT:
        raise PackError(f"unknown artifact format {header.get('format')!r}")
    return header, buf[start + hlen:]


def load_artifact(path) -> Artifact:
    buf = Path(path).read_bytes()
    header, payload = _read_header(buf)
    packed = {}
    tuned = {}
    for row in header["sections"]:
        blob = payload[row["offset"]:row["offset"] + row["length"]]
        if len(blob) != row["length"]:
            raise PackError(f"section {row['name']} is truncated")
        if row["kind"] == "packed":
            packed[row["name"].split(":", 1)[1]] = PackedWeights.from_bytes(blob)
        else:
            _, name, field = row["name"].split(":")
            arr = np.frombuffer(blob, dtype=np.float64).reshape(row["shape"])
            tuned.setdefault(name, {})[field] = arr.copy()
    return Artifact(header, packed, tuned)


def _count(x) -> bool:
    return type(x) is int and x >= 0


def _shape(x) -> bool:
    return type(x) is list and all(_count(d) for d in x)


def _text(x) -> bool:
    return isinstance(x, str)


SECTION_ROW = {"name": _text, "kind": _text, "offset": _count,
               "length": _count, "sha256": _text}
LAYER_ROW = {"name": _text, "params": _count, "bits": _count, "shape": _shape}
ASSIGNED_ROW = {"name": _text, "bits": _count}
TUNED_FIELDS = ("v", "alpha", "beta")


def _dict(obj, key) -> dict:
    v = obj.get(key) if isinstance(obj, dict) else None
    return v if isinstance(v, dict) else {}


def _rows(table, what: str, fields: dict, problems: list) -> list:
    """The well-formed rows of a header table; a problem for each other."""
    if not isinstance(table, list):
        problems.append(f"{what} is not a list")
        return []
    good = []
    for i, row in enumerate(table):
        if isinstance(row, dict) and all(ok(row.get(k))
                                         for k, ok in fields.items()):
            good.append(row)
        else:
            problems.append(f"{what} row {i} is malformed")
    return good


def _decode_section(row, blob, problems, packed, tuned) -> None:
    name = row["name"]
    parts = name.split(":")
    if row["kind"] == "packed" and len(parts) == 2 and parts[0] == "packed":
        try:
            pw = PackedWeights.from_bytes(blob)
        except PackError as e:
            problems.append(f"section {name}: {e}")
            return
        if pw.to_bytes() != blob:
            problems.append(f"section {name}: non-canonical payload")
        packed[parts[1]] = pw
    elif (row["kind"] == "array" and len(parts) == 3 and parts[0] == "tune"
          and parts[2] in TUNED_FIELDS and _shape(row.get("shape"))):
        if math.prod(row["shape"]) * 8 != len(blob):
            problems.append(f"section {name}: shape/length mismatch")
            return
        arr = np.frombuffer(blob, dtype=np.float64).reshape(row["shape"])
        tuned.setdefault(parts[1], {})[parts[2]] = arr
    else:
        problems.append(f"section {name}: malformed {row['kind']!r} section")


def _check_layer(lname, row, pw, family, assigned, problems) -> None:
    """Cross-check one layer's table row, packed header and assignment."""
    bits = row["bits"]
    if pw.bits != bits:
        problems.append(f"layer {lname}: table has {bits} bits, "
                        f"packed header {pw.bits}")
    if assigned.get(lname) != bits:
        problems.append(f"layer {lname}: table has {bits} bits, "
                        f"assignment {assigned.get(lname)}")
    if family is not None:
        try:
            # the codec does not depend on the group size
            want = codecs.codec_for(codecs.scheme_for_bits(family, bits, 0))
        except ContractError as e:
            problems.append(f"layer {lname}: {e}")
        else:
            if pw.codec != want:
                problems.append(f"layer {lname}: codec {pw.codec} for "
                                f"{family} at {bits} bits, want {want}")
    shape = tuple(row["shape"])
    if pw.codec in (codecs.CODEC_MXFP4, codecs.CODEC_MXFP8):
        shape = shape[::-1]  # mx payloads are packed (out, in)
    if pw.shape != shape:
        problems.append(f"layer {lname}: packed shape {pw.shape}, want {shape}")
        return
    try:
        deq = pw.dequantize()
    except PackError as e:
        problems.append(f"layer {lname}: {e}")
        return
    if not np.all(np.isfinite(deq)):
        problems.append(f"layer {lname}: non-finite dequantized values")


def verify_artifact(path) -> list:
    """Self-contained integrity check; returns a list of problems.

    Never raises on a malformed file. Re-derives both digests, checks
    every section hash and byte-level round trip, cross-checks each
    layer's bits, codec and shape between the layer table, its packed
    header, the assignment and the scheme family, bounds the tuned
    parameters, and re-checks the bit budget exactly.
    """
    problems = []
    try:
        buf = Path(path).read_bytes()
        header, payload = _read_header(buf)
    except (OSError, PackError) as e:
        return [str(e)]

    if digest_of(header.get("config", {})) != header.get("config_digest"):
        problems.append("config digest mismatch")
    if digest_of(header.get("assignment", {})) != header.get("assignment_digest"):
        problems.append("assignment digest mismatch")
    asn = _dict(header, "assignment")
    scheme = _dict(header.get("config"), "scheme")
    family = scheme.get("family")
    if family not in ("int-sym", "mxfp"):
        problems.append(f"config has no known scheme.family: {family!r}")
        family = None

    layers = {row["name"]: row for row in _rows(
        header.get("layers", []), "layer table", LAYER_ROW, problems)}
    assigned = {row["name"]: row["bits"] for row in _rows(
        asn.get("layers", []), "assignment layers", ASSIGNED_ROW, problems)}
    seen_payload = 0
    packed = {}
    tuned = {}
    for row in _rows(header.get("sections", []), "section table",
                     SECTION_ROW, problems):
        name = row["name"]
        blob = payload[row["offset"]:row["offset"] + row["length"]]
        if len(blob) != row["length"]:
            problems.append(f"section {name}: truncated payload")
            continue
        seen_payload = max(seen_payload, row["offset"] + row["length"])
        if _sha(blob) != row["sha256"]:
            problems.append(f"section {name}: sha256 mismatch")
            continue
        _decode_section(row, blob, problems, packed, tuned)
    if len(payload) != seen_payload:
        problems.append(
            f"payload has {len(payload) - seen_payload} unaccounted bytes")

    for lname in packed:
        if lname not in layers:
            problems.append(f"packed layer {lname} missing from layer table")
    for lname in assigned:
        if lname not in layers:
            problems.append(f"assigned layer {lname} missing from layer table")
    for lname, row in layers.items():
        if lname in packed:
            _check_layer(lname, row, packed[lname], family, assigned, problems)
        else:
            problems.append(f"layer {lname} has no packed section")

    for lname, fields in tuned.items():
        if lname not in layers:
            problems.append(f"tuned params for unknown layer {lname}")
            continue
        missing = set(TUNED_FIELDS) - set(fields)
        if missing:
            problems.append(f"layer {lname}: missing tuned fields {sorted(missing)}")
        v = fields.get("v")
        if v is not None and (np.abs(v) > V_BOUND).any():
            problems.append(f"layer {lname}: rounding offsets outside "
                            f"[-{V_BOUND}, {V_BOUND}]")
        for fname in ("alpha", "beta"):
            ab = fields.get(fname)
            if ab is not None and ((ab < AB_LO) | (ab > AB_HI)).any():
                problems.append(
                    f"layer {lname}: {fname} outside [{AB_LO}, {AB_HI}]")

    target = asn.get("target_bits") or scheme.get("target_bits")
    if target and layers:
        try:
            t = Fraction(target)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            problems.append(f"target_bits {target!r} is not a fraction")
            return problems
        total = sum(row["params"] for row in layers.values())
        used = sum(row["bits"] * row["params"] for row in layers.values())
        # used/total <= t, cross-multiplied to integers
        if used * t.denominator > t.numerator * total:
            problems.append(
                f"budget violated: {used} bit-params over {total} params "
                f"exceeds target {target}")
    return problems
