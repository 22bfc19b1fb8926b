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

The exit is paid on every request too: `cli_entry` freezes the collector's
objects before it exits, so the interpreter's last full collection skips
them, while `main`, which tests and the tracer call in-process, freezes
nothing.
"""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

from bdk.cli import main

from test_tracer_spans import SPANS

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import bdk, bdk.cli
print(json.dumps({"before": sorted(before), "after": sorted(sys.modules)}))
"""


EXIT_PROBE = """
import atexit, gc, sys
from bdk.cli import cli_entry
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["bdk", "coeffs", "--d", "1", "--m", "1", "--n", "1"]
cli_entry()
"""

ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
       "PYTHONHASHSEED": "0"}


def _modules():
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=ENV, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    seen = json.loads(out)
    return set(seen["before"]), set(seen["after"])


def test_import_loads_every_traced_module_and_no_unused_stdlib():
    before, after = _modules()
    traced = {module for module, *_ in SPANS}
    assert traced <= after, sorted(traced - after)
    unused = (after - before) & {"dataclasses", "inspect", "csv", "random"}
    assert not unused, sorted(unused)


def test_cli_entry_exits_with_the_collector_frozen():
    run = subprocess.run([sys.executable, "-S", "-c", EXIT_PROBE], env=ENV,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, '["2/3", "1/3"]\n1\n',
                                                        "frozen: True\n")


def test_main_in_process_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    assert main(["coeffs", "--d", "1", "--m", "1", "--n", "1"]) == 0
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().out == '["2/3", "1/3"]\n1\n'
