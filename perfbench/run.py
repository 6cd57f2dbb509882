"""ellog benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload pairs-11-13 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory and never from anywhere else.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The line before it carries the
details: provenance, failures, sample counts and tail percentiles.

Exit status: 0 when every output check passed, 1 when one found a wrong
answer, 2 when the program or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Workloads the benchmark can run but BENCHMARK.json does not declare yet:
# at this commit both stop at `harvest` (NameError: _irreducibles_cached),
# so they cannot give every declared metric.  They run and report their
# failures when asked for by name, with their metrics in the details.
# The per-layer metrics their traced runs report:
PENDING_LAYERS = {
    "pipeline-5-9": [
        "harvest.FactorBase.extend_to.calls", "harvest.FactorBase.extend_to.self_s",
        "algebra.poly_irreducibles.self_s", "divisor.orbit_places.self_s",
        "harvest.pair_divisors.calls", "harvest.pair_divisors.self_s",
        "harvest.relation_from_pair.calls", "harvest.relation_from_pair.smooth_frac",
        "harvest.harvest_m1.self_s",
        "harvest.extend_h4.calls", "harvest.extend_h4.self_s",
        "harvest.extend_h5.calls", "harvest.extend_h5.self_s",
        "linalg.kernel_mod_prime.self_s", "linalg.kernel_mod_prime_power.self_s",
        "linalg.solve_affine_mod.self_s",
        "solve.solve_core.self_s", "solve.verify_log_table.self_s",
        "solve.bsgs_oracle.calls", "solve.bsgs_oracle.self_s",
        "harvest.read_relations.self_s", "solve.read_logs.self_s",
        "cli.startup_s", "basis.find_basis.self_s", "basis.build_basis.self_s",
        "divisor.divisor_of.calls", "divisor.divisor_of.self_s",
        "divisor.divisor_of.unique_frac",
        "divisor.split_ordinate.calls", "divisor.split_ordinate.self_s",
        "curve.phi_star.self_s", "algebra.poly_factor.self_s",
        "algebra.Poly.mul.total_s", "algebra.Poly.divmod.total_s",
        "psi.psi_eval.calls", "psi.psi_eval.self_s",
        "trace.overhead_s", "trace.overhead_frac",
    ],
    "dlog-5-9": [
        "solve.dlog.calls", "solve.dlog.self_s", "solve.dlog.failed",
        "solve.log_r_of_generator.self_s", "solve.classical_split.self_s",
        "solve.bilinear_descend.calls", "solve.bilinear_descend.ok_frac",
        "algebra.poly_factor.calls", "algebra.poly_factor.self_s",
        "algebra.Poly.mul.total_s", "algebra.Poly.divmod.total_s",
        "algebra.ExtFieldDesc.mul.calls", "algebra.ExtFieldDesc.mul.total_s",
        "algebra.ExtFieldDesc.pow_.calls", "algebra.ExtFieldDesc.pow_.self_s",
        "divisor.divisor_of.calls", "divisor.divisor_of.self_s",
        "trace.overhead_s", "trace.overhead_frac",
    ],
}


def pending_unit(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not declare, by its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _source_sha256() -> str:
    """Digest of the program sources: names a build where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ellog")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, source: str) -> dict:
    import numpy
    return {
        "git_commit": _git_commit(),
        "source_sha256": source,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "harvest_workers": 1,
        "workload": workload,
        "seed": seed,
    }


def declared_units(bench: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        return _fail("BENCHMARK.json not found at the checkout root")
    if not os.path.isfile(os.path.join(SRC, "ellog", "__init__.py")):
        return _fail("program sources src/ellog not found; run from the root "
                     "of a checkout")
    with open(bench_path) as fh:
        bench = json.load(fh)
    declared = [w["name"] for w in bench["workloads"]]

    sys.path.insert(0, SRC)
    import ellog
    if os.path.dirname(os.path.abspath(ellog.__file__)) != os.path.join(SRC, "ellog"):
        return _fail(f"imported ellog from {ellog.__file__}, not from {SRC}")
    import ellog.cli  # noqa: F401  every module, so the tracer can patch them
    import workloads as wl
    from tracer import layer_metric

    source = _source_sha256()
    trace = bool(args.trace)
    name = args.workload
    if name in wl.PAIRS:
        out = wl.run_pairs(name, args.seed, args.seconds, trace)
    elif name == "pipeline-5-9":
        out = wl.run_pipeline(args.seed, args.seconds, trace, source)
    elif name == "dlog-5-9":
        out = wl.run_dlog(args.seed, args.seconds, trace)
    else:
        return _fail(f"unknown workload {name!r}")

    if name in declared:
        units = declared_units(bench)
        wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    else:
        units = {}
        wanted = PENDING_LAYERS[name] if trace else list(out.metrics)
    if trace:
        values = {m: layer_metric(out.layers, m) for m in wanted}
    else:
        values = {m: out.metrics[m] for m in wanted if m in out.metrics}
    missing = [m for m in wanted if m not in values]
    if name not in declared:
        # not in the result line, which holds BENCHMARK.json's metrics only
        out.detail["metrics"] = {m: {"value": v, "unit": pending_unit(m)}
                                 for m, v in values.items()}
        values = {}

    rec = out.rec
    detail = {
        "provenance": provenance(name, args.seed, source),
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": rec.failed_frac,
        "failures": rec.failures[:50],
        "wrong": rec.wrong[:50],
        "not_measured": missing,
        **out.detail,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = not rec.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
