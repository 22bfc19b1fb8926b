"""Start one bdk request in a fresh interpreter, as `python -m bdk.cli` does.

    launch.py setup                       import bdk and exit
    launch.py run ARGS...                 run `bdk ARGS...` like `python -m bdk.cli ARGS...`
    launch.py trace SPAWN OUT ARGS...     the same under the span recorder; the
                                          per-layer summary goes to the file OUT

Every mode first checks that `bdk` was imported from the directory named
by PYTHONPATH, so an installed copy is never measured; a mismatch exits
with code 97.  SPAWN is the parent's CLOCK_MONOTONIC reading when it
started this process, for the time from spawn to `main`.
"""
import os
import sys
import time

WRONG_TREE = 97


def _import_checked():
    sys.path[0] = os.getcwd()  # what `python -m` puts first, not this file's directory
    import bdk
    tree = os.path.join(os.path.abspath(os.environ.get("PYTHONPATH", "")), "")
    if not os.path.abspath(bdk.__file__).startswith(tree):
        print(f"launch: bdk imported from {bdk.__file__}, not from {tree}", file=sys.stderr)
        sys.exit(WRONG_TREE)


def main() -> None:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "trace":
        bench_dir = sys.path[0]
        _import_checked()
        sys.path.insert(1, bench_dir)
        import tracer
        import bdk.cli

        spawned, out, argv = float(args[0]), args[1], args[2:]
        basis = bdk.polynomials.bernstein_basis
        startup_s = time.monotonic() - spawned  # the recorder's own set-up is left out
        rec = tracer.install()
        try:
            code = bdk.cli.main(argv)
        finally:
            info = basis.cache_info()
            tracer.write(rec, out, startup_s=startup_s,
                         basis_hits=info.hits, basis_misses=info.misses)
        sys.exit(code)
    _import_checked()
    if mode == "run":
        import runpy
        sys.argv = [sys.argv[0]] + args
        runpy.run_module("bdk.cli", run_name="__main__", alter_sys=True)
    elif mode != "setup":
        sys.exit(f"launch: unknown mode {mode!r}")


if __name__ == "__main__":
    main()
