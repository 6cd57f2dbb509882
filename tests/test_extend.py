from collections import Counter

import pytest

from ellog import harvest
from ellog.algebra import factor_modulus
from ellog.harvest import build_factor_base, extend, harvest_core, harvest_m1
from ellog.solve import solve_core

from oracles import extend_per_pass


@pytest.fixture(scope="module")
def core_logs(basis59, fb59):
    rels, _ = harvest_core(basis59, fb59)
    table = solve_core(basis59, fb59, rels + harvest_m1(basis59, fb59))
    return dict(table.mod_m)


@pytest.fixture(scope="module")
def fb5(basis59):
    fb = build_factor_base(basis59, 3)
    fb.extend_to(5)
    return fb


def _rel_set(relations):
    return {(r.mode, r.params, tuple(sorted(r.cols.items()))) for r in relations}


def test_extend_matches_per_pass_oracle(basis59, fb5, core_logs):
    pp = factor_modulus(basis59.M)
    want_logs = dict(core_logs)
    want_rels, want_passes = extend_per_pass(basis59, fb5, want_logs, pp)
    logs = dict(core_logs)
    report = extend(basis59, fb5, logs, pp)
    assert logs == want_logs
    assert len(logs) > len(core_logs)
    assert _rel_set(report.relations) == _rel_set(want_rels)
    # the oracle stopped on a pass that added nothing, not on its cap
    assert report.passes == want_passes < 4


def test_extend_sieves_each_pair_once(basis59, fb5, core_logs, monkeypatch):
    calls = []
    real = harvest.pair_divisors

    def counting(basis, A, B):
        calls.append((A, B))
        return real(basis, A, B)

    monkeypatch.setattr(harvest, "pair_divisors", counting)

    def pairs_sieved(run):
        calls.clear()
        run()
        return Counter(calls)

    h4 = pairs_sieved(lambda: harvest.extend_h4(basis59, fb5))
    h5 = pairs_sieved(lambda: harvest.extend_h5(basis59, fb5))
    ext = pairs_sieved(lambda: extend(basis59, fb5, dict(core_logs),
                                      factor_modulus(basis59.M)))
    assert max(h4.values()) == 1 and max(h5.values()) == 1
    assert ext == h4 + h5


def test_every_stored_row_vanishes_on_the_stored_logs(pipeline):
    """After `extend` at (5, 9), each row of relations.txt, core or not,
    has a log for every column and sums to 0 mod M on logs.txt."""
    M = pipeline["basis"].M
    logs = pipeline["logs"]
    rows = pipeline["relations"]
    assert len(rows) == 197
    for rel in rows:
        assert all(c in logs for c in rel.cols), (rel.mode, rel.params)
        assert sum(v * logs[c] for c, v in rel.cols.items()) % M == 0, (
            rel.mode, rel.params)
