"""One pass of a pairs workload, in a fresh process.

    python3 perfbench/replay.py WORKLOAD SEED MODE RESULT.json

Builds the workload's basis, replays its fixed seeded pairs once and
writes the pass's record to RESULT.json (spans, in the traced mode, to
RESULT-spans.json).  MODE is timed, traced or plain; see
``workloads.replay_pass``.  run.py starts one such process per pass, so
nothing the program keeps in memory carries over from one pass to the
next, just as ``ellog harvest`` visits each pair once per process.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl


def main() -> int:
    name, seed, mode, path = sys.argv[1:]
    import ellog.cli  # noqa: F401  every module, so the tracer can patch them
    if os.path.dirname(os.path.abspath(ellog.cli.__file__)) != \
            os.path.join(wl.SRC, "ellog"):
        print(f"imported ellog from {ellog.cli.__file__}, not from {wl.SRC}",
              file=sys.stderr)
        return 2
    res = wl.replay_pass(name, int(seed), mode,
                         path[:-len(".json")] + "-spans.json")
    with open(path, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
