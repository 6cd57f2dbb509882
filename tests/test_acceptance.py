"""Acceptance suite: one test per stated criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not configurable.

Two checks probe stated target identities whose expected values disagree
with what the defined maps actually produce (criterion 4's translation
exponent and one bracket identity in criterion 6).  They are implemented
exactly as stated and left to fail; the corrected forms are covered by
passing unit tests in test_psi.py and test_harvest.py.
"""

import math
import random
import sys
import time

import pytest

sys.path.insert(0, "tests")

from ellog.algebra import Poly, poly_is_irreducible, poly_random_monic
from ellog.curve import TriPoly, bracket, curve_points, point_add, semaev3
from ellog.divisor import (HitsInfinity, divisor_of, places_over,
                           translate_place)
from ellog.harvest import (build_factor_base, harvest_core, pair_divisors,
                           reconstruct_pair)
from ellog.psi import PsiValue, psi_elementary, translation_constant, verify_relation
from ellog.solve import LogContext, bsgs_oracle, dlog
from ellog.stats import smooth_fraction


def report(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {state}{tail}")
    return ok


@pytest.fixture(scope="module")
def big_sieve(basis11):
    fb = build_factor_base(basis11, 3)
    t0 = time.time()
    rels, st = harvest_core(basis11, fb)
    return basis11, fb, rels, st, time.time() - t0


def test_criterion_1_end_to_end_soundness(pipeline):
    basis = pipeline["basis"]
    fb = pipeline["fb"]
    logs = dict(pipeline["logs"])
    ext = basis.ext
    g = pipeline["g"]
    gbar = PsiValue(ext, g)
    ctx = LogContext(fb, logs)
    rng = random.Random(2026)
    t0 = time.time()
    all_ok = True
    for i in range(10):
        z = ext.rand(rng)
        while not any(z):
            z = ext.rand(rng)
        res = dlog(z, g, basis, fb, logs, seed=i, ctx=ctx)
        exp_ok = res.verified and ext.eq(ext.pow_(g, res.x_full), z)
        bsgs = bsgs_oracle(PsiValue(ext, z), gbar, basis.M)
        all_ok = all_ok and exp_ok and (res.x_mod_m == bsgs)
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 300
    assert report(1, "end-to-end soundness (10 random logs)", ok,
                  f"dlog time {elapsed:.1f}s")


def test_criterion_2_psi_relation_audit(pipeline, big_sieve):
    basis = pipeline["basis"]
    rels = [r for r in pipeline["relations"]
            if r.mode in ("core", "m1", "special_group", "k1k2",
                          "special_group_free", "k1k2_free", "height5")]
    basis11, fb11, rels11, _, _ = big_sieve
    rng = random.Random(7)
    plan = [(basis, r) for r in rels]
    extra_needed = max(0, 200 - len(plan))
    plan += [(basis11, r) for r in rng.sample(rels11, min(extra_needed + 10,
                                                          len(rels11)))]
    assert len(plan) >= 200
    checked = failures = 0
    for bas, rel in plan:
        mode = rel.mode.replace("_free", "")
        A, B = reconstruct_pair(bas, mode, rel.params)
        pr = pair_divisors(bas, A, B)
        if not verify_relation(pr.left_total().finite_places(),
                               pr.right_divisor.finite_places(), bas):
            failures += 1
        checked += 1
    ok = failures == 0 and checked >= 200
    assert report(2, "psi audit of harvested relations", ok,
                  f"{checked} checked, {failures} failures")


def test_criterion_3_height_guarantees(big_sieve):
    basis11, fb11, rels, st, elapsed = big_sieve
    trials = st.attempts - st.degenerate
    ok = (trials >= 1000
          and st.left_factors == trials * (basis11.q + 1)
          and st.left_with_compelled == st.left_factors
          and st.left_height_ok == st.left_factors
          and st.left_decomposable == st.left_factors
          and st.right_with_compelled == trials
          and st.right_height_ok == trials)
    assert report(3, "height guarantees over the core sieve", ok,
                  f"{trials} pairs, sieve {elapsed:.0f}s, "
                  f"right residual max {st.right_residual_max}")


def test_criterion_4_translation_identity_as_stated(pipeline):
    """Stated form: psi(D_(Q-P1)) = pi(psi(D_Q)) * psi((-P1)-(O))^(d * N_d).

    The maps as defined satisfy the exponent-d law instead (see
    test_psi.test_translation_identity_exponent_d, which passes); the
    d * N_d variant only holds before the root normalization.  This check
    implements the stated form verbatim.
    """
    basis = pipeline["basis"]
    K = basis.curve.field
    w = translation_constant(basis)
    rng = random.Random(44)
    checked = mismatches = 0
    while checked < 50:
        d = rng.randrange(1, 4)
        u = poly_random_monic(K, d, rng)
        if not poly_is_irreducible(u):
            continue
        pls = [p for p in places_over(basis.curve, u) if p.degree == d]
        if not pls:
            continue
        p = pls[rng.randrange(len(pls))]
        try:
            pt = translate_place(p, 1, basis.td)
        except HitsInfinity:
            continue
        n_d = math.lcm(*[basis.curve.order_over(i) for i in range(1, d + 1)
                         if d % i == 0])
        lhs = psi_elementary(pt, basis)
        rhs = psi_elementary(p, basis).frob(1).mul(w.pow(d * n_d))
        if lhs != rhs:
            mismatches += 1
        checked += 1
    ok = mismatches == 0
    assert report(4, "translation identity with the d*N_d exponent", ok,
                  f"{mismatches}/{checked} mismatches; the exponent-d form "
                  "passes in test_psi")


SAMPLES = 100_000


def test_criterion_5_splitting_rates():
    t0 = time.time()
    rows = [
        (8, 0.147, 0.02),
        (6, 0.383, 0.03),
        (7, 0.2405, 0.03),
        (4, 0.75, 0.02),
    ]
    ok = True
    details = []
    for degree, ref, tol in rows:
        rate = smooth_fraction(121, degree, 3, SAMPLES, seed=0)
        good = abs(rate - ref) <= tol
        ok = ok and good
        details.append(f"d{degree}:{rate:.4f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert report(5, "splitting-rate reproduction over F_121", ok,
                  " ".join(details) + f" in {elapsed:.0f}s")


def test_criterion_6a_bracket_u_uv(basis59):
    K = basis59.curve.field
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    ok = bracket(U, U * V) == (U * V) * (V - W)
    assert report("6a", "bracket of U and UV", ok)


def test_criterion_6b_bracket_uv_v_as_stated(basis59):
    """Stated target: VW(V - W).  The defined bracket gives VW(V - U)
    (verified in test_harvest.test_bracket_identities_symbolic), and the
    companion identity of 6d only balances with the V - U form."""
    K = basis59.curve.field
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    got = bracket(U * V, V)
    stated = V * W * (V - W)
    ok = got == stated
    assert report("6b", "bracket of UV and V as stated", ok,
                  "computed VW(V-U)")


def test_criterion_6c_bracket_u_v(basis59):
    K = basis59.curve.field
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    ok = bracket(U, V) == V * V - U * W
    assert report("6c", "bracket of U and V", ok)


def test_criterion_6d_special_group_factor(basis59):
    K = basis59.curve.field
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    ok = bracket(U * V, U + V) == (V * V) * (W - U)
    assert report("6d", "special-group systematic factor", ok)


def test_criterion_7_curve_search_bound():
    from ellog.basis import mu_bound, search_curve
    rng = random.Random(20260808)
    pairs = []
    while len(pairs) < 20:
        p = rng.choice([5, 7, 11, 13])
        k = rng.randrange(5, 31)
        if (p, k) not in pairs:
            pairs.append((p, k))
    t0 = time.time()
    ok = True
    worst = ""
    for p, k in pairs:
        mu, curve, P1 = search_curve(p, 1, k, seed=0)
        bound = mu_bound(p, k)
        if mu > bound:
            ok = False
            worst = f"(p={p}, k={k}) needed mu={mu} > {bound}"
        assert curve.N % k == 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 180
    assert report(7, "curve search within the guaranteed level", ok,
                  worst or f"20 searches in {elapsed:.0f}s")


def test_criterion_8_summation_zero_set(basis59):
    curve = basis59.curve
    pts = [P for P in curve_points(curve) if not P.inf]
    by_x = {}
    for P in pts:
        by_x.setdefault(P.x, []).append(P)
    xs = sorted(by_x)
    ok = True
    for x1 in xs:
        for x2 in xs:
            for x3 in xs:
                collinear = any(
                    point_add(point_add(P, Q), R).inf
                    for P in by_x[x1] for Q in by_x[x2] for R in by_x[x3])
                if (semaev3(x1, x2, x3, curve) == 0) != collinear:
                    ok = False
    assert report(8, "summation polynomial zero set", ok,
                  f"{len(xs) ** 3} abscissa triples")


def test_criterion_9_divisor_oracle_equivalence():
    from oracles import (curve_points_over, extension_of, ord_at_point,
                         place_of_extension_point)
    from ellog.basis import search_curve
    ok = True
    checked_fns = 0
    t0 = time.time()
    for p in (5, 7):
        mu, curve, P1 = search_curve(p, 1, 9, seed=0)
        assert mu == 1
        K = curve.field
        rng = random.Random(90 + p)
        fields = {e: extension_of(K, e, seed=2) for e in (1, 2, 3)}
        points = {e: curve_points_over(curve, L) for e, L in fields.items()}
        from test_divisor import rand_function
        for _ in range(50):
            fun = rand_function(curve, P1.x, rng)
            D = divisor_of(fun, curve)
            checked_fns += 1
            for e, L in fields.items():
                for (x0, y0) in points[e]:
                    pl = place_of_extension_point(curve, L, x0, y0)
                    want = D.coeffs.get(pl, 0)
                    num = L.add(fun.n0.eval_in(L, x0),
                                L.mul(fun.n1.eval_in(L, x0), y0))
                    if any(num) and not L.eq(x0, L.embed(fun.x1)):
                        got = 0
                    else:
                        got = ord_at_point(curve, L, fun, x0, y0)
                    if got != want:
                        ok = False
    assert report(9, "divisor valuations vs series expansion", ok,
                  f"{checked_fns} functions in {time.time() - t0:.0f}s")
