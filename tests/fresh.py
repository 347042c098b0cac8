"""Code run in a fresh interpreter that imports this lowbit, for tests
of what a process loads and what its children inherit."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import lowbit


def run_python(code, *args):
    """The finished ``python -c code *args`` process."""
    src = str(Path(lowbit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, timeout=60)


def run_fresh(code, *args):
    """The stdout of ``code``, which must exit 0, and its last line as
    JSON."""
    out = run_python(code, *args)
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.splitlines()[-1])


def has_special_ufuncs():
    """Whether this scipy has the ``special._special_ufuncs`` extension
    that gelu takes erf from; older releases lack it."""
    special = Path(importlib.util.find_spec("scipy").origin).parent / "special"
    return any((special / f"_special_ufuncs{s}").is_file()
               for s in EXTENSION_SUFFIXES)
