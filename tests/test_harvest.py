import hashlib
import random
from collections import Counter

import pytest

from ellog.curve import TriPoly, bracket, phi_star
from ellog.divisor import divisor_of, place_of_point, translate_place
from ellog.harvest import (C_COLUMN, DegeneratePair, GroupDegenerate,
                           build_factor_base, core_sieve_basis, harvest_core,
                           harvest_m1, k1k2_coefficients, k1k2_group_basis,
                           pair_divisors, read_relations, reconstruct_pair,
                           relation_from_pair, write_relations)


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


def test_factor_base_numbering_pinned(basis59):
    """dlog and verify rebuild the factor base and read stored columns by it."""
    K = basis59.curve.field
    fb = build_factor_base(basis59, 5)
    text = "\n".join(f"{p.encode(K)} {col} {shift} {deg}"
                     for p, (col, shift, deg) in sorted(fb.place_map.items()))
    assert len(fb.place_map) == 824
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3a9cd1cec01d883978dd44783bf723b6e06c633c10e36d522a374cebde7e18ea")


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
    sb = core_sieve_basis(basis59)
    alpha = 2
    A = sb.g1 + sb.g3.scale(alpha)
    B = sb.g1 + sb.g2.scale(0) + sb.g3.scale(alpha)
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
    sb = core_sieve_basis(basis59)
    alpha, beta, gamma = rels[0].params
    A = sb.g1 + sb.g3.scale(alpha)
    B = sb.g1 + sb.g2.scale(beta) + sb.g3.scale(gamma)
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


def test_reinforcement_rows_complete_rank(basis59, fb59, harvested):
    from ellog.linalg import kernel_mod_prime
    rels, _ = harvested
    extra = harvest_m1(basis59, fb59)
    rows = [r.cols for r in rels + extra] + [r.cols for r in fb59.cycle_relations()]
    for ell in (19, 31, 829):
        assert len(kernel_mod_prime(rows, fb59.columns(), ell)) == 1


def test_worker_count_does_not_change_output(basis59):
    fb_a = build_factor_base(basis59, 3)
    fb_b = build_factor_base(basis59, 3)
    rels1, _ = harvest_core(basis59, fb_a, workers=1)
    rels2, _ = harvest_core(basis59, fb_b, workers=2)
    assert [r.key() for r in rels1] == [r.key() for r in rels2]


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
    sb = k1k2_group_basis(basis59, k1)
    k2 = sb.params[1]
    lhs = K.add(K.add(K.mul(k1, c1), K.mul(k2, c2)), K.mul(K.mul(k1, k2), c3))
    assert lhs == 0


def test_k1k2_groups_lower_right_height(basis59, fb59):
    K = basis59.curve.field
    c1, c2, c3, _ = k1k2_coefficients(basis59)
    excluded = K.neg(K.div(c2, c3))
    k1 = next(x for x in range(1, K.q) if x != excluded)
    sb = k1k2_group_basis(basis59, k1)
    rng = random.Random(3)
    for _ in range(12):
        alpha, beta = rng.randrange(K.q), rng.randrange(K.q)
        A = sb.g1 + sb.g2.scale(alpha)
        B = sb.g1 + sb.g3.scale(beta)
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


def test_reconstruct_pair_roundtrip(basis59, harvested):
    rels, _ = harvested
    for rel in rels[:5]:
        A, B = reconstruct_pair(basis59, rel.mode, rel.params)
        again, _ = relation_from_pair(basis59, build_factor_base(basis59, 3),
                                      A, B, rel.mode, rel.params)
        assert again is not None and again.cols == rel.cols
