"""The benchmark's workloads and the accounting they share.

Every stage, pair, check and dlog target is one operation.  An operation
that raises or exits non-zero is a failure, recorded with its stage, exit
code and exception class; a timing is kept only from an operation that
succeeded, so a crash never reads as a saving.  An output check that finds
a wrong answer is recorded as well and makes the run incorrect; so does
any exception from a pair or psi check other than DegeneratePair, since
`ellog verify` fails on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from gauge import Gauge, slowness
from tracer import Tracer, merge

clock = time.perf_counter
# Operation costs on the pairs workloads are process CPU time: the loop is
# single-threaded and CPU-bound, so on an idle machine this equals wall
# time, and it leaves out time spent waiting for a CPU, which added up to
# 40% to single operations on a shared 2-vCPU machine.  In the timed
# passes each cost is then scaled to reference speed (gauge.py).  Wall
# times go to the details.
cpu = time.process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# everything a run writes stays in this ignored directory of the checkout
OUT = os.path.join(ROOT, ".perfbench")

# Set-up is short on the pairs workloads.  It runs once before the
# measurement and then once every SETUP_EVERY_S seconds of it, so that its
# median samples the same spells of fast and slow machine speed as the
# operations do (a shared machine changed speed by up to 1.5x for seconds
# at a time).
SETUP_EVERY_S = 1.0


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

@dataclass
class Recorder:
    attempted: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def ok(self, op: str, cost: float | None = None,
           wall: float | None = None):
        """A success; `cost` (s) feeds the metrics, `wall` the details."""
        self.attempted += 1
        if cost is not None:
            self.samples.setdefault(op, []).append(cost)
        if wall is not None:
            self.wall.setdefault(op, []).append(wall)

    def fail(self, op: str, message: str, exception: str | None = None,
             exit_code: int | None = None):
        self.attempted += 1
        self.failures.append({"stage": op, "exit_code": exit_code,
                              "exception": exception, "message": message})

    def raised(self, op: str, exc: Exception, what: str = ""):
        self.fail(op, f"{what}{exc}", type(exc).__name__)

    def incorrect(self, op: str, message: str, exception: str | None = None,
                  exit_code: int | None = None):
        """An operation whose output is wrong or missing: failed and checked
        wrong, so the run is not correct."""
        self.wrong.append(f"{op}: {message}")
        self.fail(op, message, exception, exit_code)

    def absorb(self, other: dict):
        """Add the record of another process, as `asdict` gives it."""
        self.attempted += other["attempted"]
        for mine, theirs in ((self.samples, other["samples"]),
                             (self.wall, other["wall"])):
            for op, xs in theirs.items():
                mine.setdefault(op, []).extend(xs)
        self.failures += other["failures"]
        self.wrong += other["wrong"]
        for name, n in other["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n

    def bump(self, name: str):
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tail(values: list[float], pct: float) -> float:
    """The nearest-rank `pct` percentile.  Each workload fixes its
    percentile, and the details give the sample count beside it."""
    xs = sorted(values)
    return xs[max(0, -(-round(pct * len(xs)) // 100) - 1)]


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    rec: Recorder
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, dict] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def _latency_detail(rec: Recorder, op: str, pct: float) -> dict:
    """Sample count, tail percentile and medians (ms) of one operation."""
    xs, walls = rec.samples.get(op), rec.wall.get(op)
    return {"n": len(xs or ()), "tail_pct": pct,
            "p50_ms": 1e3 * statistics.median(xs) if xs else None,
            "wall_p50_ms": 1e3 * statistics.median(walls) if walls else None}


# ---------------------------------------------------------------------------
# pairs-*: the relation replay of `ellog verify`, in one process
# ---------------------------------------------------------------------------

def _basis_11_13():
    # pinned larger instance, built as tests/conftest.py::basis11 builds it
    from ellog.algebra import field_make
    from ellog.basis import build_basis
    from ellog.curve import Curve, Point
    F11 = field_make(11, 1)
    curve = Curve(F11, 1, 6)
    P1 = Point.make(curve, F11, 2, 4)
    return build_basis(curve, P1, seed=0)


def _basis_5_9():
    from ellog.basis import find_basis
    return find_basis(5, 1, 9, seed=0)


def _pair_params(q: int, modes: tuple[str, ...]) -> list[tuple[str, tuple]]:
    """Every stored-relation parameter set of the given modes."""
    out = []
    if "core" in modes:
        out += [("core", (a, b, c)) for a in range(q) for b in range(q)
                for c in range(q)]
    if "m1" in modes:
        # the pencils harvest_m1 walks: B = uU + vV + w in normal form,
        # A = UV + aU + bV + c reduced modulo B
        b_reps = ([(1, b, c) for b in range(q) for c in range(q)]
                  + [(0, 1, c) for c in range(q)] + [(0, 0, 1)])
        for u, v, w in b_reps:
            for a in range(q):
                for b in range(q):
                    for c in range(q):
                        if (u == 1 and a) or (u == 0 and v == 1 and b) or \
                                (u == 0 and v == 0 and c):
                            continue
                        out.append(("m1", (u, v, w, a, b, c)))
    return out


def _replay(basis, params, rec: Recorder, setup=None, gauge=None):
    """Replay each pair once, with the psi check of every smooth one.

    Every exception other than DegeneratePair makes the run incorrect, as
    it makes `ellog verify` fail.  With `setup` = (build, times), the basis
    is built again every SETUP_EVERY_S seconds between pairs and its time
    appended.  With a `gauge`, each timed operation is followed by its
    share of reference work, and its CPU time is kept at reference speed
    (gauge.py)."""
    # through the modules, so that calls go to whatever the tracer installed
    from ellog import divisor, harvest, psi

    def ref(cost: float) -> float:
        return cost / gauge.after(cost) if gauge is not None else cost

    next_setup = clock() + SETUP_EVERY_S
    for mode, ps in params:
        if setup is not None and clock() >= next_setup:
            next_setup += SETUP_EVERY_S
            c0 = cpu()
            try:
                setup[0]()
            except Exception as exc:  # recorded, the replay goes on
                rec.raised("setup", exc)
            else:
                setup[1].append(ref(cpu() - c0))
                rec.ok("setup")
        t0, c0 = clock(), cpu()
        try:
            A, B = harvest.reconstruct_pair(basis, mode, ps)
            pr = harvest.pair_divisors(basis, A, B)
            smooth = divisor.decompose(pr.right_divisor, 3) is not None
        except harvest.DegeneratePair:
            rec.ok("pair")
            rec.bump("degenerate")
            continue
        except Exception as exc:  # a wrong outcome, the replay goes on
            rec.incorrect("pair", f"{mode}{ps}: {exc}", type(exc).__name__)
            continue
        t1, c1 = clock(), cpu()
        rec.ok("pair", ref(c1 - c0), t1 - t0)
        if not smooth:
            continue
        rec.bump("smooth")
        t1, c1 = clock(), cpu()
        try:
            verdict = psi.verify_relation(pr.left_total().finite_places(),
                                          pr.right_divisor.finite_places(),
                                          basis)
        except Exception as exc:  # a wrong outcome, the replay goes on
            rec.incorrect("psi_check", f"{mode}{ps}: {exc}",
                          type(exc).__name__)
            continue
        t2, c2 = clock(), cpu()
        if verdict is True:
            rec.ok("psi_check", ref(c2 - c1), t2 - t1)
        else:
            rec.incorrect("psi_check",
                          f"verify_relation returned {verdict!r} for {mode}{ps}")


@dataclass(frozen=True)
class PairsSpec:
    build: Callable[[], object]   # -> EllipticBasis
    q: int
    modes: tuple[str, ...]        # relation modes to draw pairs from
    pass_pairs: int | None        # a seeded prefix of the pool, or all of it
    pair_tail_pct: float
    check_tail_pct: float


PAIRS = {
    # a seeded prefix of the 1331 core triples, as the north-star instance
    # is sieved
    "pairs-11-13": PairsSpec(_basis_11_13, 11, ("core",), 300, 90, 75),
    # all 125 core triples and 775 m1 pencils, as harvest_core and
    # harvest_m1 visit them
    "pairs-5-9": PairsSpec(_basis_5_9, 5, ("core", "m1"), None, 95, 90),
}


def pair_list(name: str, seed: int) -> list[tuple[str, tuple]]:
    """The workload's fixed pairs, in the seed's order; no pair twice."""
    spec = PAIRS[name]
    pool = _pair_params(spec.q, spec.modes)
    random.Random(seed).shuffle(pool)
    return pool[:spec.pass_pairs]


def replay_pass(name: str, seed: int, mode: str, spans_path: str) -> dict:
    """One pass over the workload's pairs in this process: build the basis,
    replay every pair once.  `mode` is "timed" (set-up repeated during the
    pass), "traced" (under the tracer, spans written to `spans_path`) or
    "plain" (neither).  Every mode keeps its pair and check times at
    reference speed (gauge.py)."""
    spec = PAIRS[name]
    rec = Recorder()
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    out = {"rss_mb": None}
    c0 = cpu()
    try:
        basis = spec.build()
    except Exception as exc:  # a failed set-up ends the pass
        rec.raised("setup", exc)
    else:
        out["setups"] = [cpu() - c0]
        rec.ok("setup")
        pairs = pair_list(name, seed)
        gauge = Gauge()
        t0 = clock()
        if mode == "timed":
            out["setups"][0] /= gauge.after(out["setups"][0])
            _replay(basis, pairs, rec, (spec.build, out["setups"]), gauge)
        else:
            _replay(basis, pairs, rec, gauge=gauge)
        out["loop_s"] = clock() - t0
        # pair and check time at reference speed, for the tracing overhead
        out["op_s"] = sum(rec.samples.get("pair", ())) + \
            sum(rec.samples.get("psi_check", ()))
        out["gauge"] = {"units": gauge.units, "seconds": gauge.seconds}
        out["rss_mb"] = peak_rss_mb()
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        tracer.write_spans(spans_path)
        out["spans"] = os.path.relpath(spans_path, ROOT)
    out["rec"] = asdict(rec)
    return out


PASS_BUDGET_S = 170


def _run_pass(name: str, seed: int, mode: str, index: int, rec: Recorder,
              timeout: float) -> dict | None:
    """One pass in a fresh process (replay.py); its result, absorbed into
    `rec`, or None when the process gave none."""
    path = os.path.join(OUT, "passes", f"{name}-s{seed}-{mode}-{index}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "replay.py"), name, str(seed),
           mode, path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_stage_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        rec.incorrect("pass", f"{mode} pass timed out after {timeout:.0f} s")
        return None
    if proc.returncode != 0 or not os.path.exists(path):
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        rec.incorrect("pass", f"{mode} pass gave no result: {last[0]}",
                      _exception_class(proc.stderr), proc.returncode)
        return None
    with open(path) as fh:
        res = json.load(fh)
    rec.absorb(res["rec"])
    return res


def run_pairs(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Passes over the workload's fixed pairs, each in a fresh process, one
    at a time, for as long as another pass fits in `seconds` (at least one).

    Every pass replays the same pairs, so a faster program does more passes
    of the same work and no pair is replayed twice in one process.  The
    traced run alternates traced and plain passes; its layer totals are per
    pass."""
    spec = PAIRS[name]
    rec = Recorder()
    out = Outcome(rec)
    modes = ("traced", "plain") if trace else ("timed",)
    results: dict[str, list[dict]] = {m: [] for m in modes}
    start = clock()
    while not rec.failures:
        r0 = clock()
        for mode in modes:
            res = _run_pass(name, seed, mode, len(results[mode]), rec,
                            PASS_BUDGET_S - (clock() - start))
            if res is None:
                break
            results[mode].append(res)
            if rec.failures:
                break
        now = clock()
        if now - start + (now - r0) > seconds:
            break
    out.detail["passes"] = {m: len(rs) for m, rs in results.items()}
    out.detail["pass_pairs"] = len(pair_list(name, seed))

    if trace:
        traced, plain = results["traced"], results["plain"]
        if traced and plain:
            n = len(traced)
            out.layers = {label: {k: v / n for k, v in rec_.items()}
                          for label, rec_ in merge(
                              [r["layers"] for r in traced]).items()}
            out.layers["trace"] = _overhead(
                sum(r["op_s"] for r in traced) / n,
                sum(r["op_s"] for r in plain) / len(plain))
            out.detail["spans"] = [r["spans"] for r in traced]
        return out

    passes = results["timed"]
    setups = [s for r in passes for s in r.get("setups", ())]
    pair_s = rec.samples.get("pair", [])
    check_s = rec.samples.get("psi_check", [])
    gauged = [r["gauge"] for r in passes if "gauge" in r]
    m = out.metrics
    if setups:
        m["setup_s"] = statistics.median(setups)
    if pair_s:
        m["pairs_per_s"] = len(pair_s) / sum(pair_s)
    if check_s:
        m["psi_checks_per_s"] = len(check_s) / sum(check_s)
    for op, metric, pct in (("pair", "pair_tail_ms", spec.pair_tail_pct),
                            ("psi_check", "check_tail_ms", spec.check_tail_pct)):
        if rec.samples.get(op):
            m[metric] = 1e3 * tail(rec.samples[op], pct)
    if passes and not rec.failures:
        m["peak_rss_mb"] = max(r["rss_mb"] for r in passes)
    out.detail.update({
        # mean over the run; 1.0 is reference speed (gauge.py)
        "slowness": slowness(sum(g["units"] for g in gauged),
                             sum(g["seconds"] for g in gauged))
        if gauged else None,
        "pairs": _latency_detail(rec, "pair", spec.pair_tail_pct),
        "psi_checks": _latency_detail(rec, "psi_check", spec.check_tail_pct),
        "degenerate": rec.counts.get("degenerate", 0),
        "smooth": rec.counts.get("smooth", 0),
        "setup_repeats": len(setups),
        "pass_loop_s": [r.get("loop_s") for r in passes],
        "pair_modes": list(spec.modes),
    })
    return out


def _paired(tracer: Tracer, ops, run, rec: Recorder, deadline: float) -> dict:
    """Run each operation traced and then untraced, back to back, until the
    deadline; the layer summary plus the tracing overhead.

    Pairing the two runs of one operation keeps changes in machine speed
    out of the overhead, which is the traced minus the untraced wall time.
    Only the traced run is recorded.  A cache the program kept from one
    call to the next would make the untraced run cheaper and so inflate
    the overhead."""
    traced = plain = 0.0
    for op in ops:
        if clock() >= deadline:
            break
        tracer.install()
        t0 = clock()
        run(op, rec)
        traced += clock() - t0
        tracer.uninstall()
        t0 = clock()
        run(op, Recorder())
        plain += clock() - t0
    layers = tracer.summary()
    layers["trace"] = _overhead(traced, plain)
    return layers


def _overhead(traced: float, plain: float) -> dict:
    return {"overhead_s": traced - plain,
            "overhead_frac": traced / plain - 1 if plain else 0.0}


def _save_spans(tracer: Tracer, tag: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{tag}.json")
    tracer.write_spans(path)
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------
# pipeline-5-9 and dlog-5-9: the CLI stages, each in a fresh process
# ---------------------------------------------------------------------------

PIPELINE = [
    ("search", ["search", "--p", "5", "--k", "9", "--seed", "0"]),
    ("basis", ["basis"]),
    ("harvest", ["harvest", "--workers", "1"]),
    ("solve", ["solve"]),
    ("extend", ["extend"]),
    ("verify", ["verify", "--sample", "50"]),
]
STAGE_TIMEOUT_S = 150


def _stage_env() -> dict:
    env = dict(os.environ)
    env.pop("ELLOG_WORKERS", None)
    env["PYTHONPATH"] = SRC
    return env


def _exception_class(stderr: str) -> str | None:
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if not lines or "Traceback" not in stderr:
        return None
    m = re.match(r"([A-Za-z_][\w.]*)(:|$)", lines[-1])
    return m.group(1) if m else None


def run_stage(stage: str, argv: list[str], rundir: str, rec: Recorder,
              summary_path: str | None = None) -> float | None:
    """One CLI stage in a fresh process; its wall time if it exited 0.

    With `summary_path` the stage runs under the tracer (stage.py) and
    leaves its per-layer summary there."""
    if summary_path is None:
        cmd = [sys.executable, "-m", "ellog.cli"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "stage.py"), summary_path,
               "--"]
    cmd += argv + ["--out", rundir]
    t0 = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_stage_env(),
                              capture_output=True, text=True,
                              timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec.fail(stage, f"timed out after {STAGE_TIMEOUT_S} s")
        return None
    wall = clock() - t0
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        rec.fail(stage, last[0], _exception_class(proc.stderr),
                 proc.returncode)
        return None
    rec.ok(stage, wall)
    return wall


def _fresh_dir(name: str) -> str:
    path = os.path.join(OUT, "runs", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_artifacts(rundir: str, source: str, rec: Recorder) -> dict:
    """sha256 of the byte-for-byte artifacts, compared with earlier runs of
    the same source tree in this checkout."""
    got = {name: _sha256(os.path.join(rundir, name))
           for name in ("relations.txt", "logs.txt")}
    if None in got.values():
        return got
    book_path = os.path.join(OUT, "artifacts.json")
    book = {}
    if os.path.exists(book_path):
        with open(book_path) as fh:
            book = json.load(fh)
    seen = book.setdefault(source, got)
    for name, digest in got.items():
        if seen[name] != digest:
            rec.incorrect("artifacts", f"{name} sha256 {digest} differs from "
                          f"{seen[name]} of an earlier run of the same code")
    with open(book_path, "w") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
    return got


def _logs_covered(path: str) -> int:
    """Factor-base columns with a log mod M in logs.txt."""
    n, section = 0, False
    with open(path) as fh:
        for line in fh:
            if line.startswith("[mod M"):
                section = True
            elif line.startswith("["):
                section = False
            elif section and " = " in line:
                n += 1
    return n


def _run_stages(stages, rundir, rec) -> dict[str, float]:
    """Run stages in order; a stage after a failed one still runs, so its
    own failure (usually exit 3, missing artifact) is counted too."""
    walls = {}
    for stage, argv in stages:
        wall = run_stage(stage, argv, rundir, rec)
        if wall is not None:
            walls[stage] = wall
    return walls


def _traced_pipeline(rundir: str, rec: Recorder) -> dict:
    """Each stage traced (through stage.py) and then untraced, back to back,
    in two run directories; the merged layer summary plus the overhead."""
    plain_dir = _fresh_dir("untraced")
    summaries = []
    traced = plain = 0.0
    for i, (stage, argv) in enumerate(PIPELINE):
        path = os.path.join(rundir, f".trace-{i}-{stage}.json")
        wall = run_stage(stage, argv, rundir, rec, path)
        plain_wall = run_stage(stage, argv, plain_dir, Recorder())
        if os.path.exists(path):
            with open(path) as fh:
                summ = json.load(fh)
            main_s = summ.pop("cli")["main_s"]
            if wall is not None:
                summ["cli"] = {"startup_s": wall - main_s}
            summaries.append(summ)
        if wall is not None and plain_wall is not None:
            traced += wall
            plain += plain_wall
    layers = merge(summaries)
    layers["trace"] = _overhead(traced, plain)
    return layers


def run_pipeline(seed: int, seconds: float, trace: bool, source: str) -> Outcome:
    rec = Recorder()
    out = Outcome(rec)
    setups = []
    for i in range(3):
        # search + basis are cheap; repeating them steadies setup_s
        srec = Recorder()
        walls = _run_stages(PIPELINE[:2], _fresh_dir(f"setup-{i}"), srec)
        rec.absorb(asdict(srec))
        if len(walls) == 2:
            setups.append(walls["search"] + walls["basis"])
    rundir = _fresh_dir("pipeline-5-9")
    if trace:
        out.layers = _traced_pipeline(rundir, rec)
        return out
    walls = _run_stages(PIPELINE, rundir, rec)
    out.detail["artifacts_sha256"] = _check_artifacts(rundir, source, rec)
    # exit 4 from verify is a wrong answer, not only a failed stage
    for f in rec.failures:
        if f["stage"] == "verify" and f["exit_code"] == 4:
            rec.wrong.append(f"ellog verify: {f['message']}")
    out.detail["stage_s"] = walls
    m = out.metrics
    if setups:
        m["setup_s"] = statistics.median(setups)
    for stage in ("harvest", "solve", "extend", "verify"):
        if stage in walls:
            m[f"{stage}_s"] = walls[stage]
    if all(s in walls for s in ("harvest", "solve", "extend")):
        m["precompute_s"] = walls["harvest"] + walls["solve"] + walls["extend"]
        m["logs_covered"] = _logs_covered(os.path.join(rundir, "logs.txt"))
    m["failed_frac"] = rec.failed_frac
    if not rec.failures:
        m["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return out


def _load_table(rundir: str):
    from ellog.basis import basis_from_json
    from ellog.harvest import build_factor_base
    from ellog.solve import find_generator, read_logs
    with open(os.path.join(rundir, "config.json")) as fh:
        cfg = json.load(fh)
    with open(os.path.join(rundir, "basis.json")) as fh:
        basis = basis_from_json(fh.read())
    fb = build_factor_base(basis, cfg["height_base"])
    fb.extend_to(cfg["height_extended"])
    _, logs = read_logs(os.path.join(rundir, "logs.txt"), basis, fb)
    g = find_generator(basis.ext, cfg["seed"])
    return cfg, basis, fb, logs, g


# a fixed seeded list of planted targets; the run stops early at the
# deadline if the program cannot answer them all in time
DLOG_TARGETS = 32
DLOG_TAIL_PCT = 75


def run_dlog(seed: int, seconds: float, trace: bool) -> Outcome:
    from ellog import solve
    rec = Recorder()
    out = Outcome(rec)
    rundir = _fresh_dir("dlog-5-9")
    t0 = clock()
    walls = _run_stages(PIPELINE[:5], rundir, rec)
    if len(walls) < 5:
        out.detail["setup"] = "failed"
        out.metrics["failed_frac"] = rec.failed_frac
        return out
    try:
        cfg, basis, fb, logs, g = _load_table(rundir)
    except Exception as exc:  # a failed set-up ends the run
        rec.raised("load", exc)
        out.metrics["failed_frac"] = rec.failed_frac
        return out
    rec.ok("load")
    setup_s = clock() - t0
    ext = basis.ext

    def target(x: int, r: Recorder):
        """One planted target z = g^x, answered and checked."""
        z = ext.pow_(g, x)
        r.bump("targets")
        t0 = clock()
        try:
            res = solve.dlog(z, g, basis, fb, logs, d0=cfg["d0"], seed=0)
        except Exception as exc:  # recorded, the loop goes on
            r.raised("dlog", exc, f"x = {x}: ")
            return
        dt = clock() - t0
        if not res.verified:
            r.fail("dlog", f"unverified answer for x = {x}")
        elif res.x_full != x or not ext.eq(ext.pow_(g, res.x_full), z):
            r.incorrect("dlog", f"planted {x}, answered {res.x_full}")
        else:
            r.ok("dlog", dt)

    rng = random.Random(seed)
    planted = [rng.randrange(1, ext.order_total - 1)
               for _ in range(DLOG_TARGETS)]
    deadline = clock() + seconds
    if trace:
        tracer = Tracer()
        out.layers = _paired(tracer, planted, target, rec, deadline)
        out.detail["spans"] = _save_spans(tracer, f"dlog-5-9-s{seed}")
        return out
    for x in planted:
        if clock() >= deadline:
            break
        target(x, rec)
    xs = rec.samples.get("dlog", [])
    n = rec.counts.get("targets", 0)
    m = out.metrics
    m["setup_s"] = setup_s
    if xs:
        m["dlog_p50_s"] = statistics.median(xs)
        m["dlog_tail_s"] = tail(xs, DLOG_TAIL_PCT)
    m["dlog_verified_frac"] = len(xs) / n if n else 0.0
    m["failed_frac"] = rec.failed_frac
    if not rec.failures:
        m["peak_rss_mb"] = peak_rss_mb()
    out.detail["dlog"] = _latency_detail(rec, "dlog", DLOG_TAIL_PCT)
    out.detail["targets"] = n
    return out
