import dataclasses
import hashlib
import random
import re
from collections import Counter

import pytest

from ellog import harvest
from ellog.algebra import ConfigError
from ellog.curve import TriPoly, bracket, phi_star
from ellog.divisor import decompose, divisor_of, place_of_point, translate_place
from ellog.harvest import (C_COLUMN, FAMILIES, DegeneratePair, GroupDegenerate,
                           build_factor_base, harvest_core, harvest_m1,
                           k1k2_coefficients, k1k2_group_basis, pair_divisors,
                           read_relations, reconstruct_pair,
                           relation_from_pair, write_relations)

from oracles import family_params, sieve_pair_oracle


@pytest.fixture(scope="module")
def harvested(basis59, fb59):
    return harvest_core(basis59, fb59)


def test_factor_base_counts(basis59):
    # builds its own factor base, so a construction fault fails here by name
    fb59 = build_factor_base(basis59, 3)
    N1, N2, N3 = (basis59.curve.order_over(i) for i in (1, 2, 3))
    by_degree = Counter(p.degree for p in fb59.place_map)
    assert by_degree[1] == N1 - 1
    assert by_degree[2] == (N2 - N1) // 2
    assert by_degree[3] == (N3 - N1) // 3
    # partition: torsion places plus the orbit cycles cover everything
    assert sum(fb59.cycle_len.values()) + (basis59.k - 1) == len(fb59.place_map)


@pytest.mark.parametrize("instance, height, places, digest", [
    ("basis59", 5, 824, "3a9cd1cec01d883978dd44783bf723b6e06c633c10e36d522a374cebde7e18ea"),
    ("basis11", 4, 4081, "494acb2a59d3f4abebf941afb81412bd9b3e144065353756f5a1342c2c5b6b66"),
    ("basis25", 3, 5609, "5b2d91cf49d142165ad1457d9af0fbf9b1d26bd284d6aab9b967bcb91d68de15"),
], ids=["basis59", "basis11", "basis25"])
def test_factor_base_numbering_pinned(request, instance, height, places, digest):
    """dlog and verify rebuild the factor base and read stored columns by it."""
    basis = request.getfixturevalue(instance)
    K = basis.curve.field
    fb = build_factor_base(basis, height)
    text = "\n".join(f"{p.encode(K)} {col} {shift} {deg}"
                     for p, (col, shift, deg) in sorted(fb.place_map.items()))
    assert len(fb.place_map) == places
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_factor_base_build_fills_the_place_memo(monkeypatch):
    """The build enters the places over every u of degree <= its height in
    the curve's memo, so a divisor met afterwards reads the zero above each
    norm factor of that degree from there: over seeded p0 + p1 y, no
    `_zero_ordinate` runs for a factor of degree <= 3 after
    `build_factor_base(basis59, 3)`, where the same curve without the build
    takes some, and the divisors agree."""
    import ellog.divisor
    from ellog.algebra import Poly
    from ellog.basis import find_basis
    from ellog.curve import CurveFunction

    degrees = []
    real = ellog.divisor._zero_ordinate

    def ordinate(curve, p0, p1, u):
        degrees.append(len(u) - 1)
        return real(curve, p0, p1, u)

    monkeypatch.setattr(ellog.divisor, "_zero_ordinate", ordinate)
    built, bare = find_basis(5, 1, 9, seed=0), find_basis(5, 1, 9, seed=0)
    assert built.curve is not bare.curve
    build_factor_base(built, 3)
    K = built.curve.field
    rng = random.Random(33)
    funs = []
    while len(funs) < 60:
        n0 = Poly(K, [rng.randrange(K.q) for _ in range(rng.randrange(1, 8))])
        n1 = Poly(K, [rng.randrange(K.q) for _ in range(rng.randrange(1, 4))])
        if not n1.is_zero() and not n0.is_zero():
            funs.append((n0, n1))
    divisors = {}
    for basis in (built, bare):
        degrees.clear()
        divisors[basis is built] = [
            divisor_of(CurveFunction.make(basis.curve, 0, n0, n1, 0), basis.curve)
            for n0, n1 in funs]
        if basis is built:
            assert [d for d in degrees if d <= 3] == []
        else:
            assert sum(1 for d in degrees if 2 <= d <= 3) >= 10
    assert divisors[True] == divisors[False]

def test_factor_base_expansion_recovers_places(basis59, fb59):
    td = basis59.td
    for place, (col, shift, deg) in fb59.place_map.items():
        assert deg == place.degree
        if col == C_COLUMN:
            continue
        cur = fb59.rep_of_col(col)
        for _ in range(shift):
            cur = translate_place(cur, 1, td)
        assert cur == place


def test_torsion_sigma_multipliers(basis59, fb59):
    # log(P_j) = sigma_{k-j} * c; spot check against the chain law
    q, M, k = basis59.q, basis59.M, basis59.k
    for j in range(1, k):
        place = place_of_point(basis59.curve, basis59.td.point(j))
        terms = fb59.place_log_terms(place, 1)
        assert len(terms) == 1 and terms[0][0] == 0
        sigma = ((q ** (k - j) - 1) // (q - 1)) % M
        assert terms[0][1] == sigma


def test_degenerate_pair_rejected(basis59, fb59):
    alpha = 2
    A, B = reconstruct_pair(basis59, "core", (alpha, 0, alpha))
    with pytest.raises(DegeneratePair):
        relation_from_pair(basis59, fb59, A, B, "core", (alpha, 0, alpha))


def test_core_height_guarantees(harvested):
    rels, st = harvested
    trials = st.attempts - st.degenerate
    assert st.left_factors == trials * 6
    assert st.left_with_compelled == st.left_factors
    assert st.left_height_ok == st.left_factors
    assert st.left_decomposable == st.left_factors
    assert st.right_with_compelled == trials
    assert st.right_height_ok == trials
    assert st.right_residual_max <= 6


def test_relations_dedupe_to_pencils(basis59, harvested):
    rels, st = harvested
    q = basis59.q
    assert st.emitted == len(rels)
    assert len(rels) <= q * q + q + 1  # one row per plane through the pair


def test_scaled_pair_same_row(basis59, fb59, harvested):
    rels, _ = harvested
    A, B = reconstruct_pair(basis59, "core", rels[0].params)
    r1, _ = relation_from_pair(basis59, fb59, A, B, "core", (0,))
    r2, _ = relation_from_pair(basis59, fb59, A.scale(3), B, "core", (1,))
    assert r1 is not None and r2 is not None
    assert r1.cols == r2.cols


def test_rows_vanish_on_reference_logs(basis59, fb59, harvested):
    # column classes have true logs; every harvested row must annihilate them
    from ellog.solve import bsgs_oracle, column_class, find_generator
    from ellog.psi import PsiValue
    rels, _ = harvested
    g = PsiValue(basis59.ext, find_generator(basis59.ext, 0))
    logs = {c: bsgs_oracle(column_class(fb59, c, basis59), g, basis59.M)
            for c in range(fb59.columns())}
    for rel in rels:
        assert sum(v * logs[c] for c, v in rel.cols.items()) % basis59.M == 0
    for rel in fb59.cycle_relations():
        assert sum(v * logs[c] for c, v in rel.cols.items()) % basis59.M == 0


# an m1 pencil whose bracket decomposes at height 3 while a left factor
# vanishes at a degree-4 place, which has no column at height 3
_M1_OFF_BASE = (0, 0, 1, 0, 0, 0)


def test_m1_pair_with_a_left_place_off_the_base_has_no_row(basis59, fb59):
    A, B = reconstruct_pair(basis59, "m1", _M1_OFF_BASE)
    rel, pr = relation_from_pair(basis59, fb59, A, B, "m1", _M1_OFF_BASE)
    assert rel is None
    assert decompose(pr.right_divisor, 3) is not None
    assert any(p.degree == 4 for D in pr.left_divisors for p in D.coeffs)


def test_row_of_divisor_off_the_base_is_none(basis59, fb59):
    D = pair_divisors(basis59, *reconstruct_pair(basis59, "m1", _M1_OFF_BASE)
                      ).left_total()
    off = [p for p, _ in D.finite_places() if p not in fb59.place_map]
    assert off and fb59.row_of_divisor(D) is None
    for p in off:
        del D.coeffs[p]
    assert fb59.row_of_divisor(D) is not None


def test_reinforcement_rows_complete_rank(basis59, fb59, harvested):
    from ellog.linalg import kernel_mod_prime
    rels, _ = harvested
    extra = harvest_m1(basis59, fb59)
    rows = [r.cols for r in rels + extra] + [r.cols for r in fb59.cycle_relations()]
    for ell in (19, 31, 829):
        assert len(kernel_mod_prime(rows, fb59.columns(), ell)) == 1


def test_bracket_identities_symbolic(basis59):
    K = basis59.curve.field
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    UV = U * V
    assert bracket(U, UV) == UV * (V - W)
    assert bracket(UV, V) == V * W * (V - U)
    assert bracket(U, V) == V * V - U * W
    assert bracket(UV, U + V) == V * V * (W - U)


def test_k1k2_coefficients_and_exclusion(basis59):
    K = basis59.curve.field
    c1, c2, c3, wdeg = k1k2_coefficients(basis59)
    assert c2 and c3
    excluded = K.neg(K.div(c2, c3))
    with pytest.raises(GroupDegenerate):
        k1k2_group_basis(basis59, excluded)
    with pytest.raises(GroupDegenerate):
        k1k2_group_basis(basis59, 0)
    # any admissible k1 annihilates the top bracket coefficient
    k1 = next(x for x in range(1, K.q) if x != excluded)
    k2 = k1k2_group_basis(basis59, k1)
    lhs = K.add(K.add(K.mul(k1, c1), K.mul(k2, c2)), K.mul(K.mul(k1, k2), c3))
    assert lhs == 0


def test_k1k2_groups_lower_right_height(basis59, fb59):
    K = basis59.curve.field
    c1, c2, c3, _ = k1k2_coefficients(basis59)
    excluded = K.neg(K.div(c2, c3))
    k1 = next(x for x in range(1, K.q) if x != excluded)
    k2 = k1k2_group_basis(basis59, k1)
    rng = random.Random(3)
    for _ in range(12):
        alpha, beta = rng.randrange(K.q), rng.randrange(K.q)
        A, B = reconstruct_pair(basis59, "k1k2", (k1, k2, alpha, beta))
        if A == B:
            continue
        pr = pair_divisors(basis59, A, B)
        assert pr.right_divisor.positive_part().height <= 7
        for D in pr.left_divisors:
            assert D.positive_part().height <= 4


def test_special_group_systematic_divisor(basis59):
    # the systematic factor W - U carries only known-height places
    K = basis59.curve.field
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    D = divisor_of(phi_star(W - U, basis59.td), basis59.curve)
    assert D.positive_part().height <= 4
    assert all(p.degree <= 3 for p, n in D.coeffs.items() if n > 0)


def test_relation_roundtrip_file(tmp_path, basis59, fb59, harvested):
    rels, _ = harvested
    path = tmp_path / "relations.txt"
    write_relations(str(path), fb59, rels)
    back = read_relations(str(path), fb59)
    assert [r.key() for r in back] == [r.key() for r in rels]
    assert [(r.mode, r.params) for r in back] == [(r.mode, r.params) for r in rels]


def test_reconstruct_pair_roundtrip(pipeline):
    """Every stored row of the (5, 9) run is the row of the pair its
    (mode, params) names, a "_free" mode under its family."""
    basis, fb = pipeline["basis"], pipeline["fb"]
    modes = set()
    for rel in pipeline["relations"]:
        pr = pair_divisors(basis, *reconstruct_pair(basis, rel.mode, rel.params))
        assert fb.row_of_divisor(pr.left_total() - pr.right_divisor) == rel.cols
        modes.add(rel.mode)
    assert modes == {"core", "m1", "special_group", "k1k2", "k1k2_free",
                     "height5"}


@pytest.mark.parametrize("mode", sorted(FAMILIES))
def test_reconstruct_pair_matches_generator_triples(basis59, basis11, mode):
    """The family table gives the pair of the generator-triple oracle for
    every parameter set at q = 5 and a seeded sample at q = 11."""
    full = family_params(basis59, mode)
    if mode == "k1k2":  # 25 pairs in each admissible group
        assert full and len(full) % 25 == 0
    else:
        assert len(full) == {"core": 125, "m1": 775, "special_group": 25,
                             "height5": 625}[mode]
    sample = family_params(basis11, mode)
    sample = random.Random(mode).sample(sample, min(60, len(sample)))
    for basis, plan in ((basis59, full), (basis11, sample)):
        for params in plan:
            assert (reconstruct_pair(basis, mode, params)
                    == sieve_pair_oracle(basis, mode, params)), params


@pytest.mark.parametrize("mode,params,why", [
    ("bogus", (1, 2, 3), "unknown relation mode"),
    ("core", (1, 2), "takes 3 params"),
    ("k1k2_free", (1, 2, 3, 4, 0), "takes 4 params"),
    ("core", (1, 2, 5), "not codes of F_5"),
])
def test_reconstruct_pair_rejects_bad_names(basis59, mode, params, why):
    with pytest.raises(ConfigError, match=why):
        reconstruct_pair(basis59, mode, params)


def test_reconstruct_pair_rejects_a_wrong_k2(basis59):
    k1, k2 = family_params(basis59, "k1k2")[0][:2]
    bad = (k2 + 1) % basis59.q
    with pytest.raises(ConfigError, match=f"has k2 = {k2}, not {bad}"):
        reconstruct_pair(basis59, "k1k2", (k1, bad, 0, 0))
    # k1 = 0 gives k2 = 0, a degenerate group
    with pytest.raises(ConfigError, match="k1 = 0: degenerate"):
        reconstruct_pair(basis59, "k1k2_free", (0, 1, 0, 0))


def test_extend_h4_derives_the_k1k2_data_once(basis59, fb59, monkeypatch):
    basis = dataclasses.replace(basis59, k1k2_coeffs=None)
    brackets = []

    def counting(A, B):
        brackets.append((A, B))
        return bracket(A, B)

    monkeypatch.setattr(harvest, "bracket", counting)
    harvest.extend_h4(basis, build_factor_base(basis, 3))
    # the three building brackets of k1k2_coefficients, once per basis
    assert len(brackets) == 3
    k1, k2 = family_params(basis, "k1k2")[0][:2]
    bad = (k2 + 1) % basis.q
    with pytest.raises(ConfigError, match=f"has k2 = {k2}, not {bad}"):
        reconstruct_pair(basis, "k1k2", (k1, bad, 0, 0))
    assert len(brackets) == 3


@pytest.mark.parametrize("line,why", [
    ("garbage", "line 2: 1 '|'-separated fields, not 4"),
    ("core|1;2|1:3|c:0", "line 2: mode core takes 3 params, not 2"),
    ("bogus|1;2;3|1:3|c:0", "line 2: unknown relation mode 'bogus'"),
    ("core|1;x;3|1:3|c:0", "line 2: invalid literal"),
    ("core|1;2;3|1:3|0", "line 2: last field '0' is not c:<value>"),
])
def test_read_relations_rejects_malformed_lines(tmp_path, fb59, line, why):
    path = tmp_path / "relations.txt"
    path.write_text(f"# factor-base {fb59.fingerprint()}\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(why)):
        read_relations(str(path), fb59)
