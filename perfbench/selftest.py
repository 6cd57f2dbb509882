"""Self-test of the benchmark, at small size.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  * BENCHMARK.json keeps to its format;
  * every workload runs briefly (one pass); a declared workload prints
    exactly the declared metrics with their units (end-to-end with
    --trace 0, per-layer with --trace 1), an undeclared one prints its
    metrics in the details only;
  * a forced stage failure (a run directory with no basis.json, exit 3)
    is counted in the failures and in failed_frac;
  * an exception from a psi check is counted as a failure and makes the
    run incorrect;
  * the speed gauge spends its share of an operation's time on reference
    work and leaves the garbage collector as it found it;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gauge  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def check(ok: bool, what: str):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench_format(bench: dict):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    allnames = names + [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in allnames)
          and len(set(allnames)) == len(allnames), "names valid and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in metrics), "units and directions valid")
    check(all(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "end-to-end bounds within 0.25")
    check(all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"]),
          "per-layer keys")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s declared with the largest bound")
    check(2 <= len(names) <= 8 and all(len(w["why"]) <= 200 and "\n" not in
                                       w["why"] for w in bench["workloads"]),
          "workload count and reasons")


def run_bench(cwd: str, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def workload_metrics(bench: dict, units: dict, workload: str, declared: bool):
    for trace in ("0", "1"):
        code, lines = run_bench(ROOT, "--workload", workload, "--seed", "0",
                                "--seconds", "1", "--trace", trace)
        tag = f"{workload} --trace {trace}"
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            check(False, f"{tag}: result line printed")
            continue
        check(code == 0 and set(result) == RESULT_KEYS
              and result["attempted"] >= 1, f"{tag}: exit 0, result keys")
        printed = result["metrics"]
        check(all(units.get(m) == v["unit"] for m, v in printed.items()),
              f"{tag}: every printed metric declared with its unit")
        if declared:
            want = {m["name"] for m in
                    bench["per_layer" if trace == "1" else "end_to_end"]}
            check(set(printed) == want and result["correct"]
                  and result["failed"] == 0,
                  f"{tag}: exactly the declared metrics, no failure")
        else:
            detail = json.loads(lines[-2])["detail"]
            check(not printed and "metrics" in detail,
                  f"{tag}: metrics in the details only")


def forced_failure():
    rec = wl.Recorder()
    rundir = wl._fresh_dir("selftest-forced")
    wl.run_stage("search", wl.PIPELINE[0][1], rundir, rec)
    # config.json exists, basis.json does not: harvest must exit 3
    wl.run_stage("harvest", ["harvest", "--workers", "1"], rundir, rec)
    fails = [f for f in rec.failures if f["stage"] == "harvest"]
    check(len(fails) == 1 and fails[0]["exit_code"] == 3
          and rec.attempted == 2 and rec.failed_frac == 0.5
          and "harvest" not in rec.samples,
          "missing basis.json: exit 3 counted in failed_frac, no timing kept")
    shutil.rmtree(rundir, ignore_errors=True)


def raising_check():
    import ellog.psi
    rec = wl.Recorder()
    basis = wl.PAIRS["pairs-5-9"].build()
    pairs = wl.pair_list("pairs-5-9", 0)[:40]

    def broken(*args):
        raise RuntimeError("forced")

    orig = ellog.psi.verify_relation
    ellog.psi.verify_relation = broken
    try:
        wl._replay(basis, pairs, rec)
    finally:
        ellog.psi.verify_relation = orig
    checks = rec.counts.get("smooth", 0)
    check(checks > 0 and rec.failed == checks == len(rec.wrong)
          and all(f["exception"] == "RuntimeError" for f in rec.failures)
          and "psi_check" not in rec.samples,
          "raising psi check: failed, incorrect, no timing kept")


def gauge_share():
    g = gauge.Gauge()
    was_on = gc.isenabled()
    slowness = g.after(0.02)
    check(slowness > 0 and g.units >= 1 and g.seconds >= gauge.DUTY * 0.02
          and gc.isenabled() == was_on,
          "gauge: reference work for its share of the cost, collector kept")


def bare_directory():
    bare = os.path.join(wl.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(bare, "--workload", "pairs-5-9", "--seed", "0",
                            "--seconds", "1", "--trace", "0")
    check(code != 0 and not any(ln.startswith('{"correct"') for ln in lines),
          "without the program: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bench_format(bench)
    units = run.declared_units(bench)
    for w in bench["workloads"]:
        workload_metrics(bench, units, w["name"], declared=True)
    for name in run.PENDING_LAYERS:
        workload_metrics(bench, units, name, declared=False)
    forced_failure()
    raising_check()
    gauge_share()
    bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
