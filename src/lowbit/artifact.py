"""Quantized-model artifact: one self-describing binary file.

Layout: 8-byte magic, little-endian u64 header length, canonical-JSON
header, then the payload sections back to back: one ``packed:<layer>``
section per layer, holding its codes and scales in the layer's
(in, out) layout. The header carries the config and assignment (with
their digests), a layer table, metrics, and a section table with
per-section sha256, so the verifier needs nothing beyond the file
itself.

Writes go through ``config.write_atomic``: a temp file in the target
directory is fsynced and renamed over the destination, so a crashed run
never leaves a partial artifact behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import codecs
from .codecs import PackedWeights
from .config import canonical_json, digest_of, write_atomic
from .errors import ContractError, PackError

MAGIC = b"LBART001"
FORMAT = "lowbit/artifact-v2"


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


@dataclass
class Artifact:
    header: dict
    packed: dict    # layer name -> PackedWeights


def save_artifact(path, config_dict: dict, assignment_dict: dict,
                  layers: list, metrics: dict, tuning: list,
                  packed: dict) -> None:
    """Atomically write an artifact file.

    ``layers`` rows need name/params/bits/label/shape; ``tuning`` is the
    per-block loss summary; ``packed`` maps layer name to its
    :class:`PackedWeights`.
    """
    path = Path(path)
    names = sorted(packed)
    blobs = [packed[name].to_bytes() for name in names]
    table = []
    offset = 0
    for name, blob in zip(names, blobs):
        table.append({"name": f"packed:{name}", "kind": "packed",
                      "offset": offset, "length": len(blob),
                      "sha256": _sha(blob)})
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
    write_atomic(path, b"".join([MAGIC, struct.pack("<Q", len(head)), head,
                                 *blobs]))


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


def _decode_section(row, blob, problems, packed) -> None:
    name = row["name"]
    parts = name.split(":")
    if row["kind"] != "packed" or len(parts) != 2 or parts[0] != "packed":
        problems.append(f"section {name}: malformed {row['kind']!r} section")
        return
    try:
        pw = PackedWeights.from_bytes(blob)
    except PackError as e:
        problems.append(f"section {name}: {e}")
        return
    if pw.to_bytes() != blob:
        problems.append(f"section {name}: non-canonical payload")
    packed[parts[1]] = pw


def _parse(buf: bytes, problems: list) -> tuple:
    """(header, layer name -> PackedWeights) of an artifact's bytes.

    Raises :class:`PackError` when there is no header to read; appends a
    problem for each malformed section row, truncated or tampered
    section, undecodable payload and unaccounted payload byte.
    """
    header, payload = _read_header(buf)
    seen_payload = 0
    packed = {}
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
        _decode_section(row, blob, problems, packed)
    if len(payload) != seen_payload:
        problems.append(
            f"payload has {len(payload) - seen_payload} unaccounted bytes")
    return header, packed


def load_artifact(path) -> Artifact:
    """Read an artifact; a :class:`PackError` names every section fault."""
    problems = []
    header, packed = _parse(Path(path).read_bytes(), problems)
    if problems:
        raise PackError("; ".join(problems))
    return Artifact(header, packed)


def _check_layer(lname, row, pw, family, group_size, assigned,
                 problems) -> None:
    """Cross-check one layer's table row, packed scheme and assignment."""
    bits = row["bits"]
    if assigned.get(lname) != bits:
        problems.append(f"layer {lname}: table has {bits} bits, "
                        f"assignment {assigned.get(lname)}")
    if family is not None and group_size is not None:
        try:
            want = codecs.scheme_for_bits(family, bits, group_size)
        except ContractError as e:
            problems.append(f"layer {lname}: {e}")
        else:
            if pw.scheme != want:
                problems.append(f"layer {lname}: packed as {pw.scheme}, "
                                f"table and config say {want}")
    shape = tuple(row["shape"])
    if row["params"] != math.prod(shape):
        problems.append(f"layer {lname}: table has {row['params']} params, "
                        f"shape {list(shape)} holds {math.prod(shape)}")
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
    layer's packed scheme and shape against the layer table, the
    assignment and the config's scheme, and re-checks exactly that the
    table's average bits equal the assignment's ``avg_bits`` and fit its
    ``target_bits``.
    """
    problems = []
    try:
        header, packed = _parse(Path(path).read_bytes(), problems)
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
    group_size = scheme.get("group_size")
    if not _count(group_size):
        problems.append(
            f"config has no integer scheme.group_size: {group_size!r}")
        group_size = None
    if family is not None and group_size is not None:
        # both families have a 4-bit scheme, so a fault here lies in the
        # config, not in any layer: report it once and compare no layer
        try:
            codecs.scheme_for_bits(family, 4, group_size)
        except ContractError as e:
            problems.append(f"config scheme.family {family!r} with "
                            f"scheme.group_size {group_size} names no "
                            f"scheme: {e}")
            family = None

    layers = {row["name"]: row for row in _rows(
        header.get("layers", []), "layer table", LAYER_ROW, problems)}
    assigned = {row["name"]: row["bits"] for row in _rows(
        asn.get("layers", []), "assignment layers", ASSIGNED_ROW, problems)}

    for lname in packed:
        if lname not in layers:
            problems.append(f"packed layer {lname} missing from layer table")
    for lname in assigned:
        if lname not in layers:
            problems.append(f"assigned layer {lname} missing from layer table")
    for lname, row in layers.items():
        if lname in packed:
            _check_layer(lname, row, packed[lname], family, group_size,
                         assigned, problems)
        else:
            problems.append(f"layer {lname} has no packed section")

    total = sum(row["params"] for row in layers.values())
    used = sum(row["bits"] * row["params"] for row in layers.values())
    avg = _fraction(asn, "avg_bits", problems)
    if avg is not None and (not total or avg != Fraction(used, total)):
        problems.append(f"assignment avg_bits {avg} disagrees with the layer "
                        f"table's {used} bit-params over {total} params")
    t = _fraction(asn, "target_bits", problems)
    # used/total <= t, cross-multiplied to integers
    if t is not None and used * t.denominator > t.numerator * total:
        problems.append(
            f"budget violated: {used} bit-params over {total} params "
            f"exceeds target {asn['target_bits']}")
    return problems


def _fraction(asn: dict, key: str, problems: list):
    """The assignment's ``key`` as a Fraction, or None and a problem."""
    value = asn.get(key)
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        problems.append(f"assignment {key} {value!r} is not a fraction")
        return None
