"""What `import bdk` costs a cold process, and what the benchmark's tracer
needs from it.

Every bdk request starts a fresh interpreter, so each module the package
imports is paid on every request.  The import must still load every
submodule eagerly: bench/tracer.py patches functions through
`sys.modules["bdk.<name>"]` and fails on a module that is not loaded yet.
It must not load `dataclasses` (which pulls in `inspect`, `ast`, `dis` and
`tokenize`), nor `csv`, which only `bdk table` uses, nor `random`: every
check is exact, so nothing in bdk draws a point.  The import runs in a
subprocess with the benchmark's environment but without `site` (`-S`), as a
`site` may load any of these itself (one that imports `certifi` loads
`random` through `tempfile`), and is compared against the modules the
interpreter had already loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from test_tracer_spans import SPANS

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import bdk, bdk.cli
print(json.dumps({"before": sorted(before), "after": sorted(sys.modules)}))
"""


def _modules():
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": "0"}
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    seen = json.loads(out)
    return set(seen["before"]), set(seen["after"])


def test_import_loads_every_traced_module_and_no_unused_stdlib():
    before, after = _modules()
    traced = {module for module, *_ in SPANS}
    assert traced <= after, sorted(traced - after)
    unused = (after - before) & {"dataclasses", "inspect", "csv", "random"}
    assert not unused, sorted(unused)
