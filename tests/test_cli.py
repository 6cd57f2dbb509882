import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from ellog.cli import main


def test_stage_ordering_errors(tmp_path):
    out = str(tmp_path / "r")
    assert main(["basis", "--out", out]) == 3
    assert main(["harvest", "--workers", "1", "--out", out]) == 3
    assert main(["dlog", "--plant", "5", "--out", out]) == 3


def test_search_and_basis_artifacts(tmp_path):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "9", "--seed", "0",
                 "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "curve.txt"))
    assert os.path.exists(os.path.join(out, "config.json"))
    assert main(["basis", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "basis.json"))
    # deterministic reruns
    with open(os.path.join(out, "basis.json")) as fh:
        first = fh.read()
    assert main(["basis", "--out", out]) == 0
    with open(os.path.join(out, "basis.json")) as fh:
        assert fh.read() == first


def test_basis_records_mu_of_a_curve_over_an_extension(tmp_path, capsys):
    """At (5, 11) the seed-0 curve lives over F_25, so mu is 2, and
    basis.json must say so, not the default 1."""
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "11", "--seed", "0",
                 "--out", out]) == 0
    assert "mu = 2" in capsys.readouterr().out
    assert main(["basis", "--out", out]) == 0
    with open(os.path.join(out, "basis.json")) as fh:
        doc = json.load(fh)
    assert (doc["m"], doc["mu"]) == (2, 2)


def test_search_exhausted_exit_code(tmp_path):
    # k = 3 over F_5 exists, but an absurd k cannot fit any level's window
    out = str(tmp_path / "r")
    rc = main(["search", "--p", "5", "--k", "2", "--out", out])
    assert rc in (2, 5)


@pytest.mark.parametrize("k", ["0", "2"])
def test_search_small_k_is_config_error(tmp_path, k):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", k, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "config.json"))


def test_full_pipeline_artifacts(pipeline):
    outdir = pipeline["dir"]
    for name in ("curve.txt", "basis.json", "relations.txt", "logs.txt"):
        assert os.path.exists(os.path.join(outdir, name))


# sha256 of the (5, 9, seed 0) artifacts after `extend`: fixed-seed runs
# must reproduce them byte for byte
PINNED_SHA256 = {
    "relations.txt": "59a0a38c85ba80920a205f14ab91da283cce95a48e3dab31e45a98bb497c1f3e",
    "logs.txt": "5301189b2c44b4563459f2fa42a4a1e534005fc949832070238b131eb095298a",
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_pipeline_artifacts_are_pinned(pipeline):
    for name, want in PINNED_SHA256.items():
        assert _sha256(os.path.join(pipeline["dir"], name)) == want, name


def test_harvest_skips_m1_when_the_core_rows_solve(tmp_path, capsys):
    """At (11, 13) the core rows alone fix every column, so harvest writes
    no m1 row and solve gives the logs that core + m1 rows gave."""
    out = str(tmp_path / "r")
    assert main(["search", "--p", "11", "--k", "13", "--seed", "0",
                 "--out", out]) == 0
    assert main(["basis", "--out", out]) == 0
    capsys.readouterr()
    assert main(["harvest", "--out", out]) == 0
    assert "m1 reinforcement: not needed" in capsys.readouterr().out
    with open(os.path.join(out, "relations.txt")) as fh:
        assert not any(line.startswith("m1|") for line in fh)
    assert main(["solve", "--out", out]) == 0
    assert _sha256(os.path.join(out, "logs.txt")) == (
        "fe53ffc4072eb72295458f3cd63afc10145fd51553e2a627ff7927c976f04804")


# harvest's counters at (5, 9) seed 0, as printed
PINNED_HARVEST_LINES = [
    "sieve pairs: 125 (degenerate 5)",
    "bracket smooth: 72  -> unique rows 14 + 91 reinforcement rows",
    "left factors: 720, compelled present 720, height ok 720, decomposable 720",
    "right side: compelled present 120, residual height <= 6: 120",
]


def test_harvest_runs_m1_when_the_core_rows_fall_short(pipeline, tmp_path,
                                                       capsys):
    """The core rows leave a kernel at (5, 9), so m1 runs; the sieve's
    counters print as pinned."""
    out = str(tmp_path / "run")
    shutil.copytree(pipeline["dir"], out)
    assert main(["harvest", "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("m1 reinforcement: run, since the core rows fall short "
            "(kernel dimension 2 mod 19)") in lines
    for want in PINNED_HARVEST_LINES:
        assert want in lines


def test_harvest_workers_other_than_one_is_config_error(tmp_path, capsys):
    """harvest runs in one process: asking for more workers exits 2
    naming the flag, before the run directory is read (else exit 3)."""
    out = str(tmp_path / "r")
    assert main(["harvest", "--workers", "2", "--out", out]) == 2
    assert "--workers" in capsys.readouterr().err


def test_extend_rerun_keeps_artifacts(pipeline, tmp_path, capsys):
    # a rerun reads its own rows back from relations.txt and adds nothing
    out = str(tmp_path / "run")
    shutil.copytree(pipeline["dir"], out)
    assert main(["extend", "--out", out]) == 0
    assert "resolution passes: 1" in capsys.readouterr().out
    for name, want in PINNED_SHA256.items():
        assert _sha256(os.path.join(out, name)) == want, name


def test_config_with_the_old_small_prime_bound_key_loads(pipeline, tmp_path):
    out = str(tmp_path / "run")
    shutil.copytree(pipeline["dir"], out)
    path = os.path.join(out, "config.json")
    with open(path) as fh:
        cfg = json.load(fh)
    cfg["small_prime_bound"] = 10
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["solve", "--out", out]) == 0


def test_dlog_command_planted(pipeline, capsys):
    outdir = pipeline["dir"]
    assert main(["dlog", "--plant", "12345", "--out", outdir]) == 0
    out = capsys.readouterr().out
    assert "log mod M = 12345" in out
    assert "VERIFIED" in out


def test_dlog_command_hex_target(pipeline, capsys):
    basis = pipeline["basis"]
    ext = basis.ext
    g = pipeline["g"]
    z = ext.pow_(g, 777)
    val = 0
    for c in reversed(z):
        val = val * basis.q + c
    assert main(["dlog", "--target", hex(val), "--out", pipeline["dir"]]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out and "log mod M = 777" in out


def test_verify_command(pipeline):
    assert main(["verify", "--sample", "25", "--log-sample", "8",
                 "--out", pipeline["dir"]]) == 0


@pytest.mark.parametrize("flag", ["--sample", "--log-sample"])
def test_verify_negative_sample_is_config_error(pipeline, capsys, flag):
    assert main(["verify", flag, "-1", "--out", pipeline["dir"]]) == 2
    assert flag in capsys.readouterr().err


def test_verify_command_names_psi_mismatch(pipeline, monkeypatch, capsys):
    import ellog.cli
    monkeypatch.setattr(ellog.cli, "verify_relation", lambda lhs, rhs, basis: False)
    rc = main(["verify", "--sample", "3", "--log-sample", "0",
               "--out", pipeline["dir"]])
    err = capsys.readouterr().err.splitlines()
    assert rc == 4
    assert len(err) == 3
    assert all(re.fullmatch(r"relation \w+\(.*\): psi mismatch", line) for line in err)


def test_verify_command_names_failing_log(pipeline, monkeypatch, capsys):
    import ellog.cli
    read_logs = ellog.cli.read_logs

    def off_by_one(*args):
        table, logs = read_logs(*args)
        return table, {col: val + 1 for col, val in logs.items()}

    monkeypatch.setattr(ellog.cli, "read_logs", off_by_one)
    rc = main(["verify", "--sample", "0", "--log-sample", "2",
               "--out", pipeline["dir"]])
    err = capsys.readouterr().err.splitlines()
    assert rc == 4
    assert len(err) == 2
    assert all(re.fullmatch(r"log column \d+: logs.txt has \d+, which is not "
                            r"the column's psi class to the reference", line)
               for line in err)


def test_verify_command_names_corrupted_log_column(pipeline, tmp_path, capsys):
    """One wrong value in a copy of logs.txt fails verify and names its column."""
    out = str(tmp_path / "run")
    shutil.copytree(pipeline["dir"], out)
    path = os.path.join(out, "logs.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    K = pipeline["basis"].curve.field
    col_of = {rep.encode(K): i + 1 for i, rep in enumerate(pipeline["fb"].reps)}
    start = next(i for i, line in enumerate(lines) if line.startswith("[mod M"))
    i = next(i for i in range(start + 1, len(lines))
             if col_of.get(lines[i].split(" = ")[0], 0) not in (0, pipeline["table"].ref_col))
    name, val = lines[i].split(" = ")
    bad = (int(val) + 1) % pipeline["basis"].M
    lines[i] = f"{name} = {bad}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["verify", "--sample", "0", "--log-sample", "100000", "--out", out])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.splitlines() == [
        f"log column {col_of[name]}: logs.txt has {bad}, which is not the "
        "column's psi class to the reference"]
    assert captured.out.splitlines()[-1].endswith("failures: 1")


def _edit_relations(pipeline, tmp_path, edit):
    """A copy of the pipeline run whose relations.txt lines went through edit."""
    out = str(tmp_path / "run")
    shutil.copytree(pipeline["dir"], out)
    path = os.path.join(out, "relations.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return out


def _bump_a_coefficient(pipeline, mode, params, body):
    col, val = body.split(",")[0].split(":")
    rest = body.split(",")[1:]
    return mode, params, ",".join([f"{col}:{int(val) + 1}"] + rest)


def _name_a_pair_off_the_base(pipeline, mode, params, body):
    """The name of a height5 pair with a place outside the factor base,
    whose row therefore has no columns to match."""
    from ellog.harvest import DegeneratePair, pair_divisors, reconstruct_pair
    from oracles import family_params
    basis, fb = pipeline["basis"], pipeline["fb"]
    for ps in family_params(basis, "height5"):
        try:
            pr = pair_divisors(basis, *reconstruct_pair(basis, "height5", ps))
        except DegeneratePair:
            continue
        total = pr.left_total() - pr.right_divisor
        if any(p not in fb.place_map for p, _ in total.finite_places()):
            return "height5", ";".join(map(str, ps)), body
    raise AssertionError("every height5 pair stays in the factor base")


@pytest.mark.parametrize("edit", [_bump_a_coefficient, _name_a_pair_off_the_base])
def test_verify_command_checks_the_stored_row(pipeline, tmp_path, capsys, edit):
    """A stored row that is not its pair's row fails verify, though psi
    agrees on both sides of the pair; every mode is sampled."""
    named = []

    def tamper(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("core|0;0;1|"))
        mode, params, body, cpart = lines[i].split("|")
        mode, params, body = edit(pipeline, mode, params, body)
        named.append(f"{mode}({params.replace(';', ', ')})")
        lines[i] = "|".join([mode, params, body, cpart])
        return lines

    out = _edit_relations(pipeline, tmp_path, tamper)
    rc = main(["verify", "--sample", "1000", "--log-sample", "0", "--out", out])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err.splitlines() == [
        f"relation {named[0]}: stored row differs from its pair's row"]
    assert (captured.out.splitlines()[0]
            == f"relations checked: {len(pipeline['relations'])}, failures: 1")


@pytest.mark.parametrize("line,command", [
    ("garbage", "verify"), ("garbage", "solve"),
    ("core|1;2|1:3|c:0", "verify"), ("core|1;2|1:3|c:0", "solve"),
    ("bogus|1;2;3|1:3|c:0", "verify"),
    ("k1k2|{k1};{bad};0;0|1:3|c:0", "verify"),
])
def test_malformed_relation_line_is_config_error(pipeline, tmp_path, capsys,
                                                 line, command):
    from oracles import family_params
    k1, k2 = family_params(pipeline["basis"], "k1k2")[0][:2]
    line = line.format(k1=k1, bad=(k2 + 1) % pipeline["basis"].q)
    out = _edit_relations(pipeline, tmp_path, lambda lines: lines + [line])
    assert main([command, "--sample", "1000", "--log-sample", "0", "--out", out]
                if command == "verify" else [command, "--out", out]) == 2
    assert "configuration error" in capsys.readouterr().err


def _name_off_the_base(lines):
    """A [mod M] line renamed to a place that is not a column."""
    i = next(i for i, line in enumerate(lines) if line.startswith("[mod M")) + 1
    lines[i] = "split:9:9 = " + lines[i].split(" = ")[1]
    return lines


def _name_twice(lines):
    """The first [mod p^e] line repeated at once."""
    i = next(i for i, line in enumerate(lines) if line.startswith("[mod ")) + 1
    return lines[:i + 1] + lines[i:]


def _short_section(lines):
    """The last line of the first [mod p^e] section dropped."""
    heads = [i for i, line in enumerate(lines) if line.startswith("[mod ")]
    assert len(heads) > 2
    return lines[:heads[1] - 1] + lines[heads[1]:]


@pytest.mark.parametrize("edit,message", [
    (_name_off_the_base, "'split:9:9', which is not a column"),
    (_name_twice, "twice in one section"),
    (_short_section, "different numbers of columns"),
])
@pytest.mark.parametrize("command", ["verify", "dlog"])
def test_malformed_log_file_is_config_error(pipeline, tmp_path, capsys, edit,
                                            message, command):
    out = str(tmp_path / "run")
    shutil.copytree(pipeline["dir"], out)
    path = os.path.join(out, "logs.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    args = (["verify", "--sample", "0", "--log-sample", "0"] if command == "verify"
            else ["dlog", "--plant", "12345"])
    assert main(args + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_verify_command_raises_programming_errors(pipeline, monkeypatch):
    import ellog.cli

    def broken(lhs, rhs, basis):
        raise RuntimeError("bug")

    monkeypatch.setattr(ellog.cli, "verify_relation", broken)
    with pytest.raises(RuntimeError, match="bug"):
        main(["verify", "--sample", "1", "--out", pipeline["dir"]])


def test_cli_import_leaves_numpy_out():
    # numpy is needed only by `ellog stats`, which imports it when run
    import ellog
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellog.__file__)))
    code = "import sys, ellog.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_stats_command(capsys):
    assert main(["stats", "--degree", "4", "--samples", "3000",
                 "--q", "121", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "rate 0.7" in out


def test_relations_file_belongs_to_basis(pipeline, tmp_path):
    # a relations file from another basis is rejected on load
    from ellog.basis import find_basis
    from ellog.harvest import build_factor_base, read_relations
    other = find_basis(5, 1, 7, seed=0)
    fb = build_factor_base(other, 3)
    with pytest.raises(ValueError):
        read_relations(os.path.join(pipeline["dir"], "relations.txt"), fb)


@pytest.mark.parametrize("p", ["4", "9", "3", "2"])
def test_search_bad_characteristic_is_config_error(tmp_path, p, capsys):
    out = str(tmp_path / "r")
    assert main(["search", "--p", p, "--k", "9", "--out", out]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_search_q_cap_is_config_error(tmp_path):
    # 1048583 is the least prime above the 2^20 cap
    out = str(tmp_path / "r")
    assert main(["search", "--p", "1048583", "--k", "3", "--out", out]) == 2


def test_malformed_basis_file_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "9", "--out", out]) == 0
    path = os.path.join(out, "basis.json")
    for text in ("not json", "[1, 2]", '{"format": "elliptic-basis-1"}'):
        with open(path, "w") as fh:
            fh.write(text)
        assert main(["harvest", "--out", out]) == 2
    assert "basis file lacks" in capsys.readouterr().err


@pytest.fixture(scope="module")
def basis_run59(tmp_path_factory):
    """A (5, 9) run directory after search and basis."""
    out = str(tmp_path_factory.mktemp("basis59") / "r")
    assert main(["search", "--p", "5", "--k", "9", "--out", out]) == 0
    assert main(["basis", "--out", out]) == 0
    return out


@pytest.mark.parametrize("key, value", [
    ("a", "x"), ("b", "1;2"), ("P1", ["0,1"]), ("torsion_x", ["x"]),
    ("modulus_I", 7), ("modulus_I", ["1", "2"]), ("theta", "1;2"), ("tau", "x"),
    ("P1", ["4", "1"]),
])
def test_malformed_basis_value_is_config_error(basis_run59, tmp_path, capsys,
                                               key, value):
    """A basis.json value that does not decode is a configuration error
    naming its key (exit 2), not a traceback."""
    out = str(tmp_path / "r")
    shutil.copytree(basis_run59, out)
    path = os.path.join(out, "basis.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 2
    assert f"basis file has a malformed {key}" in capsys.readouterr().err


def test_basis_p1_of_wrong_order_is_config_error(basis_run59, tmp_path, capsys):
    """A stored P1 on the curve but of order 3, not k = 9, is refused and
    named (exit 2), not a traceback."""
    out = str(tmp_path / "r")
    shutil.copytree(basis_run59, out)
    path = os.path.join(out, "basis.json")
    with open(path) as fh:
        doc = json.load(fh)
    a, b = (int(doc[key]) for key in ("a", "b"))
    x, y = next((x, y) for x in range(5) for y in range(1, 5)
                if (y * y - x ** 3 - a * x - b) % 5 == 0 and (3 * x ** 4 + 6 * a * x * x
                + 12 * b * x - a * a) % 5 == 0)  # 3-division polynomial
    doc["P1"] = [str(x), str(y)]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify", "--out", out]) == 2
    assert "P1 without exact order k = 9" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["theta", "tau"])
def test_tampered_theta_or_tau_is_config_error(tmp_path, capsys, key):
    """psi reads a polynomial at theta as its residue mod I and needs F on
    the curve, so a basis.json whose theta is not X mod I, or whose tau is
    not a root of the cubic at theta, is refused and named (exit 2)."""
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "9", "--out", out]) == 0
    assert main(["basis", "--out", out]) == 0
    path = os.path.join(out, "basis.json")
    with open(path) as fh:
        doc = json.load(fh)
    codes = doc[key].split(";")
    codes[0] = str((int(codes[0]) + 1) % 5)
    doc[key] = ";".join(codes)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["harvest", "--out", out]) == 2
    assert f"stored {key} is not" in capsys.readouterr().err


def test_negated_tau_is_config_error(basis_run59, tmp_path, capsys):
    """A basis.json whose tau is negated still has tau^2 = f(theta) but
    pi(F) = F - P1; harvest refuses it (exit 2)."""
    out = str(tmp_path / "r")
    shutil.copytree(basis_run59, out)
    path = os.path.join(out, "basis.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["tau"] = ";".join(str(-int(c) % 5) for c in doc["tau"].split(";"))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["harvest", "--workers", "1", "--out", out]) == 2
    assert "stored tau is not oriented" in capsys.readouterr().err


def test_malformed_curve_file_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "9", "--out", out]) == 0
    with open(os.path.join(out, "curve.txt")) as fh:
        assert fh.read() == "5,1,0,1|1|1|9|9|4|2\n"
    # a value that does not decode: a digit outside 0..4, an order that is
    # no integer, a P1 off the curve
    for text in ("", "5|1|2", "x,1,0,1|1|2|3|9|1|2", "5,1,0,1|7|1|9|9|4|2",
                 "5,1,0,1|1|1|x|9|4|2", "5,1,0,1|1|1|9|9|4|1"):
        with open(os.path.join(out, "curve.txt"), "w") as fh:
            fh.write(text + "\n")
        capsys.readouterr()
        assert main(["basis", "--out", out]) == 2
        assert "malformed curve.txt" in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "9", "--out", out]) == 0
    assert main(["basis", "--out", out]) == 0
    for text in ("{", "[0]", '{"seed": 0}'):
        with open(os.path.join(out, "config.json"), "w") as fh:
            fh.write(text)
        assert main(["harvest", "--out", out]) == 2


@pytest.mark.parametrize("key, value", [
    ("m0", 0), ("m0", "1"), ("m0", 1.0), ("m0", True), ("d0", 0), ("d0", -1),
    ("height_base", 0), ("height_extended", 0), ("height_extended", None),
    ("seed", "0"), ("seed", False),
])
def test_bad_config_value_is_config_error(basis_run59, tmp_path, capsys, key, value):
    """Each config.json key must be an integer (not a bool), all but the
    seed >= 1; anything else is refused and named (exit 2), not a
    traceback from the stage that reads it."""
    out = str(tmp_path / "r")
    shutil.copytree(basis_run59, out)
    path = os.path.join(out, "config.json")
    with open(path) as fh:
        cfg = json.load(fh)
    cfg[key] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    capsys.readouterr()
    assert main(["basis", "--out", out]) == 2
    assert f"config.json {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("d0", ["0", "-2"])
def test_search_bad_d0_is_config_error(tmp_path, capsys, d0):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--k", "9", "--d0", d0, "--out", out]) == 2
    assert "--d0 must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "config.json"))


def test_key_error_inside_a_stage_propagates(pipeline, monkeypatch):
    # a faulty lookup is a program fault, not a configuration error
    import ellog.cli

    def broken(basis, A, B):
        raise KeyError("no such line")

    monkeypatch.setattr(ellog.cli, "pair_divisors", broken)
    with pytest.raises(KeyError, match="no such line"):
        main(["verify", "--sample", "1", "--log-sample", "0",
              "--out", pipeline["dir"]])


def test_value_error_inside_a_stage_propagates(pipeline, monkeypatch):
    import ellog.cli

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(ellog.cli, "solve_core", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["solve", "--out", pipeline["dir"]])


def test_bad_target_is_config_error(pipeline, capsys):
    for target in ("0xzz",
                   "7;0;0;0;0;0;0;0;1",         # a digit outside 0..4, once read as 2
                   hex(5 ** 9 * 7 + 3),         # not below q^k, once read as 0x3
                   "0x0", "0;0;0;0;0;0;0;0;0"):  # zero has no logarithm
        capsys.readouterr()
        assert main(["dlog", "--target", target, "--out", pipeline["dir"]]) == 2
        assert f"bad --target {target!r}" in capsys.readouterr().err


def test_search_bad_m0_is_config_error(tmp_path):
    out = str(tmp_path / "r")
    assert main(["search", "--p", "5", "--m0", "0", "--k", "9", "--out", out]) == 2


@pytest.mark.parametrize("args", [["--degree", "9"], ["--degree", "4", "--bound", "2"],
                                  ["--degree", "4", "--q", "12"],
                                  ["--q", "1"], ["--q", "0"], ["--q", "-5"],
                                  ["--samples", "0"], ["--samples", "-3"],
                                  ["--degree", "0"], ["--degree", "1"]])
def test_stats_bad_arguments_are_config_errors(args):
    assert main(["stats", "--samples", "10"] + args) == 2
