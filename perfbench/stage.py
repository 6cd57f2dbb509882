"""Run one ``ellog`` CLI stage under the tracer.

    python3 perfbench/stage.py SUMMARY.json -- harvest --workers 1 --out RUN

The stage behaves as ``python3 -m ellog.cli`` would, exit code and
traceback included; its per-layer summary goes to SUMMARY.json, with
``cli.main_s``, the time spent inside ``ellog.cli.main``.  The caller
takes the process wall time minus ``main_s`` as the start-up cost.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: stage.py SUMMARY.json -- STAGE ARGS...")
    import ellog.cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return ellog.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        summary = tracer.summary()
        summary["cli"] = {"main_s": main_s}
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
