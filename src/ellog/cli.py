"""Command-line pipeline: search, basis, harvest, solve, extend, dlog, verify, stats.

Every stage persists a plain-text artifact in the run directory and later
stages refuse to start without their inputs (exit code 3).  All randomness
derives from the seed recorded in config.json, so rerunning a stage with
the same inputs reproduces its artifact byte for byte.

Exit codes: 0 ok, 2 bad configuration (`ConfigError`), 3 missing stage
artifact, 4 verification failure, 5 search exhausted.  Any other exception
is a fault of the program and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .algebra import ConfigError, FieldDesc, factor_modulus
from .basis import (EllipticBasis, SearchExhausted, basis_from_json,
                    basis_to_json, build_basis, find_basis, mu_bound)
from .curve import Curve, Point
from .harvest import (DegeneratePair, build_factor_base, extend, harvest_core,
                      harvest_m1, pair_divisors, read_relations,
                      reconstruct_pair, write_relations)
from .linalg import MoreRelationsNeeded
from .psi import SupportHitsF, verify_relation
from .solve import (column_class, dlog, find_generator, read_logs,
                    solve_core, verify_log_table, write_logs)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_VERIFY = 4
EXIT_SEARCH = 5


class StageMissing(RuntimeError):
    pass


def _config_path(outdir):
    return os.path.join(outdir, "config.json")


_CONFIG_KEYS = ("seed", "m0", "height_base", "height_extended", "d0")


def _load_config(outdir) -> dict:
    path = _config_path(outdir)
    if not os.path.exists(path):
        raise StageMissing("config.json not found; run `search` first")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config.json is not JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config.json is not a JSON object")
    missing = [key for key in _CONFIG_KEYS if key not in cfg]
    if missing:
        raise ConfigError(f"config.json lacks {', '.join(missing)}")
    for key in _CONFIG_KEYS:
        value = cfg[key]
        if type(value) is not int:  # a bool is an int to isinstance
            raise ConfigError(f"config.json {key} must be an integer, not {value!r}")
        if key != "seed" and value < 1:
            raise ConfigError(f"config.json {key} must be >= 1, not {value}")
    return cfg


def _save_config(outdir, cfg: dict):
    os.makedirs(outdir, exist_ok=True)
    with open(_config_path(outdir), "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _artifact(outdir, name, stage_hint):
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        raise StageMissing(f"{name} not found; run `{stage_hint}` first")
    return path


def _load_basis(outdir) -> EllipticBasis:
    path = _artifact(outdir, "basis.json", "basis")
    with open(path) as fh:
        return basis_from_json(fh.read())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_search(args) -> int:
    if args.d0 < 1:
        raise ConfigError(f"--d0 must be >= 1, not {args.d0}")
    cfg = {
        "p": args.p, "m0": args.m0, "k": args.k, "seed": args.seed,
        "height_base": 3, "height_extended": 5,
        "d0": args.d0,
    }
    try:
        basis = find_basis(args.p, args.m0, args.k, args.seed)
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    _save_config(args.out, cfg)
    K = basis.curve.field
    desc = "|".join([
        f"{K.p},{K.m}," + ",".join(str(c) for c in K.modulus),
        K.enc(basis.curve.a), K.enc(basis.curve.b), str(basis.curve.N),
        str(basis.k), K.enc(basis.td.P1.x), K.enc(basis.td.P1.y),
    ])
    with open(os.path.join(args.out, "curve.txt"), "w") as fh:
        fh.write(desc + "\n")
    bound = mu_bound(args.p ** args.m0, args.k)
    print(f"curve: {desc}")
    print(f"mu = {basis.mu} (bound {bound}), nu = {basis.nu}, N = {basis.curve.N}")
    return EXIT_OK


def cmd_basis(args) -> int:
    cfg = _load_config(args.out)
    path = _artifact(args.out, "curve.txt", "search")
    with open(path) as fh:
        desc = fh.read().strip()
    try:
        field_part, a_enc, b_enc, n_s, k_s, p1x, p1y = desc.split("|")
        bits = field_part.split(",")
        field = FieldDesc(int(bits[0]), int(bits[1]), tuple(int(x) for x in bits[2:]))
        curve = Curve(field, field.dec(a_enc), field.dec(b_enc), int(n_s))
        P1 = Point.make(curve, field, field.dec(p1x), field.dec(p1y))
    except (ValueError, IndexError):
        raise ConfigError(f"malformed curve.txt: {desc!r}") from None
    basis = build_basis(curve, P1, cfg["seed"], field.m // cfg["m0"])
    text = basis_to_json(basis)
    with open(os.path.join(args.out, "basis.json"), "w") as fh:
        fh.write(text + "\n")
    print(f"basis ready: k={basis.k}, M={basis.M}, N={basis.curve.N}")
    return EXIT_OK


def cmd_harvest(args) -> int:
    if args.workers != 1:
        raise ConfigError("harvest runs in one process: --workers must be 1")
    cfg = _load_config(args.out)
    basis = _load_basis(args.out)
    fb = build_factor_base(basis, cfg["height_base"])
    rels, st = harvest_core(basis, fb)
    # m1 only adds rank: run it when `solve` would fail on the core rows
    try:
        solve_core(basis, fb, rels, cfg["seed"])
    except MoreRelationsNeeded as exc:
        reinforced = harvest_m1(basis, fb)
        m1_note = f"run, since the core rows fall short ({exc})"
    else:
        reinforced = []
        m1_note = "not needed, the core rows solve"
    write_relations(os.path.join(args.out, "relations.txt"), fb,
                    rels + reinforced)
    rate = st.success_rate()
    print(f"sieve pairs: {st.attempts} (degenerate {st.degenerate})")
    print(f"bracket smooth: {st.smooth}  -> unique rows {st.emitted} "
          f"+ {len(reinforced)} reinforcement rows")
    print(f"m1 reinforcement: {m1_note}")
    print(f"success rate {rate:.3f} (large-q reference 0.383)")
    print(f"left factors: {st.left_factors}, compelled present "
          f"{st.left_with_compelled}, height ok {st.left_height_ok}, "
          f"decomposable {st.left_decomposable}")
    print(f"right side: compelled present {st.right_with_compelled}, "
          f"residual height <= 6: {st.right_height_ok}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args.out)
    basis = _load_basis(args.out)
    fb = build_factor_base(basis, cfg["height_base"])
    rels = read_relations(_artifact(args.out, "relations.txt", "harvest"), fb)
    core_rels = [r for r in rels if r.mode in ("core", "m1")]
    try:
        table = solve_core(basis, fb, core_rels, cfg["seed"])
    except MoreRelationsNeeded as exc:
        print(f"linear algebra needs more relations: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if not verify_log_table(basis, fb, table, sample=8, seed=cfg["seed"]):
        print("solved logs fail the reference-power check", file=sys.stderr)
        return EXIT_VERIFY
    write_logs(os.path.join(args.out, "logs.txt"), basis, fb, table)
    print(f"solved {len(table.mod_m)} core columns over primes "
          f"{[pe for pe in sorted(table.per_prime)]}; reference column "
          f"{table.ref_col}")
    return EXIT_OK


def cmd_extend(args) -> int:
    cfg = _load_config(args.out)
    basis = _load_basis(args.out)
    rel_path = _artifact(args.out, "relations.txt", "harvest")
    _artifact(args.out, "logs.txt", "solve")
    fb = build_factor_base(basis, cfg["height_extended"])
    table, logs = read_logs(os.path.join(args.out, "logs.txt"), basis, fb)
    all_rels = read_relations(rel_path, fb)
    report = extend(basis, fb, logs, factor_modulus(basis.M))
    # a rerun reads its own earlier rows back: keep the first of each key
    seen = {(r.mode, r.params) for r in all_rels}
    all_rels += [r for r in report.relations if (r.mode, r.params) not in seen]
    all_rels.sort(key=lambda r: (r.mode, r.params))
    write_relations(rel_path, fb, all_rels)
    write_logs(os.path.join(args.out, "logs.txt"), basis, fb, table,
               extended=logs)

    def _cov(deg):
        cols = {col for p, (col, s, d) in fb.place_map.items()
                if p.degree == deg and col != -1}
        return sum(1 for c in cols if c in logs), len(cols)

    c4, t4 = _cov(4)
    c5, t5 = _cov(5)
    print(f"resolution passes: {report.passes}")
    print(f"height-4 groups: {report.groups_total} total, {report.groups_solved} "
          f"solved, {report.groups_total - report.groups_solved} underdetermined, "
          f"free logs {report.free_logs}")
    print(f"height-4 coverage: {c4}/{t4} representatives")
    print(f"height-5 coverage: {c5}/{t5} representatives")
    return EXIT_OK


def _parse_target(basis, text: str):
    """The nonzero field element named by --target: 0x<hex> or its ';' codes."""
    q, k = basis.q, basis.k
    try:
        if text.startswith("0x") or text.startswith("0X"):
            val = int(text, 16)
            if val >= q ** k:
                raise ValueError(f"not below q^k = {q ** k}")
            z = []
            for _ in range(k):
                val, c = divmod(val, q)
                z.append(c)
            z = tuple(z)
        else:
            z = basis.ext.dec(text)
    except ValueError as exc:
        raise ConfigError(f"bad --target {text!r}: {exc}") from None
    if not any(z):
        raise ConfigError(f"bad --target {text!r}: zero has no logarithm")
    return z


def cmd_dlog(args) -> int:
    cfg = _load_config(args.out)
    basis = _load_basis(args.out)
    _artifact(args.out, "logs.txt", "solve")
    if args.plant is None and not args.target:
        print("need --target or --plant", file=sys.stderr)
        return EXIT_CONFIG
    z = _parse_target(basis, args.target) if args.plant is None else None
    fb = build_factor_base(basis, cfg["height_extended"])
    table, logs = read_logs(os.path.join(args.out, "logs.txt"), basis, fb)
    ext = basis.ext
    g = find_generator(ext, cfg["seed"])
    if z is None:
        z = ext.pow_(g, args.plant)
    res = dlog(z, g, basis, fb, logs, d0=cfg["d0"], seed=args.seed)
    state = "VERIFIED" if res.verified else "UNVERIFIED"
    print(f"g = {ext.enc(g)}")
    print(f"z = {ext.enc(z)}")
    print(f"log mod M = {res.x_mod_m}")
    if res.x_full is not None:
        print(f"log full  = {res.x_full}")
    print(state)
    return EXIT_OK if res.verified else EXIT_VERIFY


def cmd_verify(args) -> int:
    for flag, n in (("--sample", args.sample), ("--log-sample", args.log_sample)):
        if n < 0:
            raise ConfigError(f"{flag} must be >= 0, not {n}")
    cfg = _load_config(args.out)
    basis = _load_basis(args.out)
    fb = build_factor_base(basis, cfg["height_extended"])
    rels = read_relations(_artifact(args.out, "relations.txt", "harvest"), fb)
    rng = random.Random(cfg["seed"] * 17 + args.sample)
    picks = rels if len(rels) <= args.sample else rng.sample(rels, args.sample)
    failures = 0
    for rel in picks:
        try:
            pr = pair_divisors(basis, *reconstruct_pair(basis, rel.mode, rel.params))
            left = pr.left_total()
            total = left - pr.right_divisor
            # a place outside the factor base gives None, which matches no row
            if fb.row_of_divisor(total) != rel.cols:
                ok, why = False, "stored row differs from its pair's row"
            else:
                ok = verify_relation(left.finite_places(),
                                     pr.right_divisor.finite_places(), basis)
                why = "psi mismatch"
        except (DegeneratePair, SupportHitsF) as exc:
            ok, why = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            print(f"relation {rel.mode}{rel.params}: {why}", file=sys.stderr)
            failures += 1
    print(f"relations checked: {len(picks)}, failures: {failures}")
    log_failures = 0
    checked = 0
    if os.path.exists(os.path.join(args.out, "logs.txt")):
        table, logs = read_logs(os.path.join(args.out, "logs.txt"), basis, fb)
        ref_cls = column_class(fb, table.ref_col, basis)
        cols = sorted(logs)
        picks2 = cols if len(cols) <= args.log_sample else rng.sample(
            cols, args.log_sample)
        for col in picks2:
            checked += 1
            if ref_cls.pow(logs[col]) != column_class(fb, col, basis):
                print(f"log column {col}: logs.txt has {logs[col]}, which is "
                      "not the column's psi class to the reference",
                      file=sys.stderr)
                log_failures += 1
        print(f"logs checked: {checked}, failures: {log_failures}")
    if failures or log_failures:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, not {args.samples}")
    if args.degree is not None and not 2 <= args.degree <= 8:
        raise ConfigError(f"--degree must be 2 to 8, not {args.degree}")
    from . import stats as stats_mod  # numpy loads only for this command
    if args.degree is None:
        rows = stats_mod.rate_report(args.q, args.samples, args.seed)
        for row in rows:
            print(f"{row['label']}: measured {row['measured']:.4f} "
                  f"(reference {row['reference']})")
        return EXIT_OK
    if args.mode == "h5":
        rate = stats_mod.h5_yield_fraction(args.q, args.samples, args.seed)
        ref = 0.2
    else:
        rate = stats_mod.smooth_fraction(args.q, args.degree, args.bound,
                                         args.samples, args.seed)
        ref = stats_mod.REFERENCE_RATES.get((args.degree, args.bound))
    print(f"q={args.q} degree={args.degree} bound={args.bound} "
          f"samples={args.samples}: rate {rate:.4f}"
          + (f" (reference {ref})" if ref else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellog",
        description="discrete logarithms over small-characteristic fields "
                    "through an elliptic representation")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default="run", help="run directory")

    p = sub.add_parser("search", help="find the curve and torsion point")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m0", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d0", type=int, default=4)
    add_out(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("basis", help="build the field representation")
    add_out(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("harvest", help="collect core relations")
    p.add_argument("--workers", type=int, default=1)
    add_out(p)
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("solve", help="linear algebra for height <= 3 logs")
    add_out(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extend", help="height 4 and 5 factor-base extension")
    add_out(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("dlog", help="individual logarithm")
    p.add_argument("--target", help="element encoding or 0x-hex")
    p.add_argument("--plant", type=int, default=None,
                   help="use g^PLANT as the target")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_dlog)

    p = sub.add_parser("verify", help="re-check sampled relations and logs")
    p.add_argument("--sample", type=int, default=50)
    p.add_argument("--log-sample", type=int, default=20)
    add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="splitting-rate measurements")
    p.add_argument("--q", type=int, default=121)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["smooth", "h5"], default="smooth")
    p.set_defaults(func=cmd_stats)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageMissing as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_STAGE
    except SearchExhausted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SEARCH
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
