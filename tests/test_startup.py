"""What `import bdk` costs a cold process, and what the benchmark's tracer
needs from it.

Every bdk request starts a fresh interpreter, so each module the package
imports is paid on every request.  The import must still load every
submodule eagerly: bench/tracer.py patches functions through
`sys.modules["bdk.<name>"]` and fails on a module that is not loaded yet.
It must not load `dataclasses` (which pulls in `inspect`, `ast`, `dis` and
`tokenize`), nor `csv`, which only `bdk table` uses, nor `random`: every
check is exact, so nothing in bdk draws a point.  Nor `argparse` or `json`:
a plain request is parsed from `bdk.cli._SUBCOMMANDS` without argparse,
which only help and usage errors import, and only the commands that write
JSON import json, so a plain `bdk eval` loads neither.  The import runs in a
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
import sys
before = set(sys.modules)
import bdk, bdk.cli
after = set(sys.modules)
import json
print(json.dumps({"before": sorted(before), "after": sorted(after)}))
"""


#: A request through `cli_entry`, which prints whether argparse and json
#: were loaded when the interpreter exits.
LOADED_PROBE = """
import atexit, sys
from bdk.cli import cli_entry
atexit.register(lambda: print(*(m in sys.modules for m in ("argparse", "json")), file=sys.stderr))
sys.argv = ["bdk", *sys.argv[1:]]
cli_entry()
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
    unused = (after - before) & {"dataclasses", "inspect", "csv", "random", "argparse", "json"}
    assert not unused, sorted(unused)


def test_a_plain_request_loads_neither_argparse_nor_json():
    def loaded(*argv):
        run = subprocess.run([sys.executable, "-S", "-c", LOADED_PROBE, *argv], env=ENV,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stderr.splitlines()[-1]

    assert loaded("eval", "--d", "1", "--m", "2", "--n", "2", "--x", "1/3", "--y", "1/5") \
        == "False False"
    assert loaded("table", "--d", "2", "--m", "3", "--n", "3", "--grid", "3") == "False False"
    assert loaded("eval", "--help") == "True False"


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
