import hashlib
import itertools
import random
from dataclasses import replace
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellog.algebra import (ExtFieldDesc, Poly, field_make, poly_irreducibles,
                           poly_random_monic, poly_is_irreducible)
from ellog.basis import build_basis
from ellog.curve import Curve, Point, curve_points, point_add, point_neg
from ellog.divisor import (Divisor, INERT, PLACE_AT_INFINITY, Place, RAMIFIED, SPLIT,
                           decompose, divisor_of, elementary_divisor,
                           place_of_point, places_over)
from ellog.harvest import DegeneratePair, pair_divisors, reconstruct_pair
from ellog.psi import (PsiValue, psi_elementary, psi_eval, translation_constant,
                       verify_relation)
from oracles import eval_function_at, psi_per_place


def rand_divisor(curve, rng, deg_cap=3):
    from ellog.divisor import places_over
    K = curve.field
    D = Divisor()
    for _ in range(rng.randrange(1, 4)):
        while True:
            u = poly_random_monic(K, rng.randrange(1, deg_cap + 1), rng)
            if poly_is_irreducible(u):
                break
        pls = [p for p in places_over(curve, u) if p.degree <= deg_cap]
        if not pls:
            continue
        p = pls[rng.randrange(len(pls))]
        sign = 1 if rng.random() < 0.7 else -1
        D = D + elementary_divisor(p).scale(sign * rng.randrange(1, 3))
    return D


def test_psi_of_zero_divisor(basis59):
    assert psi_eval(Divisor(), basis59).is_one()


def test_psi_of_vertical_lemma_divisors(basis59):
    ext = basis59.ext
    td = basis59.td
    for j in range(1, td.k):
        D = Divisor()
        D.add_place(place_of_point(basis59.curve, td.point(j)), 1)
        D.add_place(place_of_point(basis59.curve, point_neg(td.point(j))), 1)
        D.add_place(PLACE_AT_INFINITY, -2)
        want = PsiValue(ext, ext.sub(basis59.theta, ext.embed(td.xs[j])))
        assert psi_eval(D, basis59) == want


def test_psi_matches_direct_evaluation_for_functions(basis59):
    curve, td, ext = basis59.curve, basis59.td, basis59.ext
    rng = random.Random(21)
    from test_divisor import rand_function
    for _ in range(40):
        f = rand_function(curve, td.xs[1], rng)
        D = divisor_of(f, curve)
        want = PsiValue(ext, eval_function_at(f, ext, basis59.theta, basis59.tau))
        assert psi_eval(D, basis59) == want


def test_psi_multiplicative(basis59, basis25):
    """psi(D1 + D2) = psi(D1) psi(D2) on random degree-0 divisors, over a
    prime base and over F_{5^2}."""
    for basis in (basis59, basis25):
        rng = random.Random(31)
        for _ in range(100):
            D1 = rand_divisor(basis.curve, rng)
            D2 = rand_divisor(basis.curve, rng)
            lhs = psi_eval(D1 + D2, basis)
            assert lhs == psi_eval(D1, basis).mul(psi_eval(D2, basis))


@st.composite
def elementary_terms(draw, curve, deg_cap=3):
    """n((P) - deg(P)(O)) for a place P of degree <= deg_cap above a random
    monic irreducible of degree <= deg_cap, with n in +-1..2."""
    K = curve.field
    d = draw(st.integers(1, deg_cap))
    coeffs = draw(st.lists(st.integers(0, K.q - 1), min_size=d, max_size=d))
    u = Poly(K, tuple(coeffs) + (1,))
    assume(poly_is_irreducible(u))
    pls = [p for p in places_over(curve, u) if p.degree <= deg_cap]
    assume(pls)
    p = draw(st.sampled_from(pls))
    n = draw(st.sampled_from((-2, -1, 1, 2)))
    return elementary_divisor(p).scale(n)


@pytest.mark.parametrize("name,examples", [("basis59", 100), ("basis25", 100),
                                           ("basis11", 20)])
def test_psi_multiplicative_property(request, name, examples):
    """psi(D1 + D2) = psi(D1) psi(D2) for degree-0 divisors drawn as sums
    of one to four elementary divisors over places of degree <= 3, over
    F_5, F_{5^2} and F_11.  The sum is evaluated on empty memos, so it
    shares no memoized term with the factors."""
    basis = request.getfixturevalue(name)
    divisors = st.lists(elementary_terms(basis.curve), min_size=1, max_size=4).map(
        lambda ts: sum(ts, Divisor()))

    @settings(derandomize=True, max_examples=examples, deadline=None)
    @given(D1=divisors, D2=divisors)
    def check(D1, D2):
        fresh = replace(basis, place_terms={}, point_classes={})
        lhs = psi_eval(D1 + D2, fresh)
        assert lhs == psi_eval(D1, basis).mul(psi_eval(D2, basis))

    check()


@pytest.mark.parametrize("name", ["basis59", "basis25"])
def test_verify_relation_agrees_with_psi_eval(request, name):
    """verify_relation(DL, DR) is psi_eval(DL) == psi_eval(DR): on random
    pairs, on true relations DR = DL + M D0 (psi has order dividing M),
    and on those relations perturbed by one elementary divisor."""
    basis = request.getfixturevalue(name)
    curve = basis.curve
    pool = [p for d in (1, 2) for u in poly_irreducibles(curve.field, d)
            for p in places_over(curve, u)]
    rng = random.Random(22)
    verdicts = []
    for _ in range(40):
        DL, D0 = rand_divisor(curve, rng), rand_divisor(curve, rng)
        true = DL + D0.scale(basis.M)
        bump = elementary_divisor(rng.choice(pool))
        for DR in (rand_divisor(curve, rng), true, true + bump):
            want = psi_eval(DL, basis) == psi_eval(DR, basis)
            fresh = replace(basis, place_terms={}, point_classes={})
            assert verify_relation(DL.finite_places(), DR.finite_places(), fresh) == want
            assert verify_relation(DL.finite_places(), DR.finite_places(), basis) == want
            verdicts.append(want)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def test_psi_independent_of_exponent_choice(basis59):
    # two different principal multiples give the same class
    rng = random.Random(41)
    alt = 2 * lcm(*(basis59.curve.order_over(i) for i in (1, 2, 3)))
    assert gcd(alt, basis59.M) == 1
    for _ in range(20):
        D = rand_divisor(basis59.curve, rng)
        assert psi_eval(D, basis59) == psi_per_place(D, basis59, exponent=alt)


def test_psi_well_defined_across_chains(basis59):
    # sliding the divisor by a principal vertical and dividing back changes
    # every intermediate Miller line but not the class
    K = basis59.curve.field
    ext = basis59.ext
    rng = random.Random(51)
    for x0 in (1, 2):
        pls = places_over(basis59.curve, Poly(K, (K.neg(x0), 1)))
        shift = Divisor()
        for p in pls:
            shift.add_place(p, 2 if p.kind == "ram" else 1)
        shift.add_place(PLACE_AT_INFINITY, -2)
        for _ in range(10):
            D = rand_divisor(basis59.curve, rng)
            direct = psi_eval(D, basis59)
            slid = psi_eval(D + shift, basis59).div(
                PsiValue(ext, ext.sub(basis59.theta, ext.embed(x0))))
            assert direct == slid


def test_translation_identity_exponent_d(basis59):
    """The working form of the orbit-shift law: one -P1 step multiplies the
    class by the Frobenius and by the constant to the power of the degree."""
    from ellog.divisor import translate_place, HitsInfinity
    w = translation_constant(basis59)
    K = basis59.curve.field
    rng = random.Random(61)
    checked = 0
    while checked < 50:
        d = rng.randrange(1, 4)
        u = poly_random_monic(K, d, rng)
        if not poly_is_irreducible(u):
            continue
        pls = [p for p in places_over(basis59.curve, u) if p.degree == d]
        if not pls:
            continue
        p = pls[rng.randrange(len(pls))]
        try:
            pt = translate_place(p, 1, basis59.td)
        except HitsInfinity:
            continue
        lhs = psi_elementary(pt, basis59)
        rhs = psi_elementary(p, basis59).frob(1).mul(w.pow(d))
        assert lhs == rhs
        checked += 1


def test_translation_identity_unnormalized_variant(basis59):
    """Before extracting the N_d-th root the same walk carries the constant
    to the power d * N_d; both statements are the d-exponent law in
    disguise."""
    from ellog.divisor import translate_place, HitsInfinity
    w = translation_constant(basis59)
    curve = basis59.curve
    K = curve.field
    rng = random.Random(71)
    checked = 0
    while checked < 10:
        d = rng.randrange(1, 4)
        u = poly_random_monic(K, d, rng)
        if not poly_is_irreducible(u):
            continue
        pls = [p for p in places_over(basis59.curve, u) if p.degree == d]
        if not pls:
            continue
        p = pls[0]
        try:
            pt = translate_place(p, 1, basis59.td)
        except HitsInfinity:
            continue
        n_d = lcm(*[curve.order_over(i) for i in range(1, d + 1) if d % i == 0])
        lhs = psi_elementary(pt, basis59).pow(n_d)
        rhs = psi_elementary(p, basis59).frob(1).pow(n_d).mul(w.pow(d * n_d))
        assert lhs == rhs
        checked += 1


def test_diagram_commutes_for_sieve_pairs(basis59):
    rng = random.Random(81)
    for _ in range(30):
        alpha, beta, gamma = (rng.randrange(5) for _ in range(3))
        if beta == 0 and gamma == alpha:
            continue
        A, B = reconstruct_pair(basis59, "core", (alpha, beta, gamma))
        pr = pair_divisors(basis59, A, B)
        assert psi_eval(pr.left_total(), basis59) == psi_eval(pr.right_divisor, basis59)


def test_verify_relation_identical_and_perturbed(basis59):
    pr = pair_divisors(basis59, *reconstruct_pair(basis59, "core", (2, 1, 3)))
    lhs = pr.left_total().finite_places()
    rhs = pr.right_divisor.finite_places()
    assert verify_relation(lhs, lhs, basis59)
    assert verify_relation(lhs, rhs, basis59)
    assert verify_relation(rhs, lhs, basis59)
    bad = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
    assert not verify_relation(lhs, bad, basis59)


def test_psi_value_canonical_form(basis59):
    ext = basis59.ext
    rng = random.Random(91)
    for _ in range(50):
        z = ext.rand(rng)
        if not any(z):
            continue
        v = PsiValue(ext, z)
        lead = next(c for c in v.rep if c)
        assert lead == 1
        scaled = PsiValue(ext, tuple(ext.base.mul(c, 3) for c in z))
        assert scaled == v


# sha256 prefix of the canonical classes of 50 seeded divisors, one line of
# coordinates per divisor: basis25 runs its target field on the list kernel
# over F_{5^2}, the other two on the packed product over F_p
_PSI_VALUE_DIGESTS = {
    "basis59": "ca87f7b36108e008",
    "basis11": "673e48461ba63124",
    "basis25": "1265de8902afcd25",
}


@pytest.mark.parametrize("name", sorted(_PSI_VALUE_DIGESTS))
def test_psi_values_pinned(request, name):
    """psi_eval of 50 seeded degree-0 divisors, on memos that start cold
    and fill as the divisors go, gives the pinned classes."""
    basis = request.getfixturevalue(name)
    fresh = replace(basis, place_terms={}, point_classes={})
    rng = random.Random(name + " pinned classes")
    lines = [",".join(map(str, psi_eval(rand_divisor(basis.curve, rng), fresh).rep))
             for _ in range(50)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == _PSI_VALUE_DIGESTS[name]


# ---------------------------------------------------------------------------
# psi_eval against the per-place oracle
# ---------------------------------------------------------------------------

def _places_by_kind(curve, max_deg):
    kinds = {}
    for d in range(1, max_deg + 1):
        for u in poly_irreducibles(curve.field, d):
            for p in places_over(curve, u):
                kinds.setdefault(p.kind, []).append(p)
    return kinds


@pytest.fixture(scope="module")
def places59(basis59):
    kinds = _places_by_kind(basis59.curve, 3)
    assert set(kinds) == {SPLIT, RAMIFIED, INERT}
    return kinds


@pytest.fixture(scope="module")
def basis75():
    """q = 7, k = 5 on a curve of order 10: the ramified place over x - 2
    is the rational 2-torsion point, so its reduced point has T = -T."""
    F7 = field_make(7, 1)
    curve = Curve(F7, 1, 4)
    return build_basis(curve, Point.make(curve, F7, 4, 3), seed=0)


@pytest.fixture(scope="module")
def places75(basis75):
    kinds = _places_by_kind(basis75.curve, 2)
    assert any(p.degree == 1 for p in kinds[RAMIFIED])
    return kinds


def _draw_divisor(data, kinds):
    """Up to five places, each kind equally likely, multiplicities in
    [-40, 40] without 0."""
    D = Divisor()
    for _ in range(data.draw(st.integers(1, 5))):
        place = data.draw(st.sampled_from(kinds[data.draw(st.sampled_from(sorted(kinds)))]))
        n = data.draw(st.integers(-40, 40).filter(bool))
        D = D + elementary_divisor(place).scale(n)
    return D


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_psi_eval_matches_per_place_oracle(basis59, places59, data):
    D = _draw_divisor(data, places59)
    exponent = data.draw(st.sampled_from([None, 9, 27, 216]))
    assert psi_eval(D, basis59) == psi_per_place(D, basis59, exponent=exponent)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_psi_eval_matches_oracle_with_rational_two_torsion(basis75, places75, data):
    D = _draw_divisor(data, places75)
    exponent = data.draw(st.sampled_from([None, 10, 30]))
    assert psi_eval(D, basis75) == psi_per_place(D, basis75, exponent=exponent)


def test_psi_eval_matches_per_place_oracle_at_11_13(basis11):
    kinds = _places_by_kind(basis11.curve, 3)
    rng = random.Random(101)
    for _ in range(4):
        D = Divisor()
        for kind in sorted(kinds) + [SPLIT]:
            n = rng.choice([-1, 1]) * rng.randrange(1, 41)
            D = D + elementary_divisor(rng.choice(kinds[kind])).scale(n)
        assert psi_eval(D, basis11) == psi_per_place(D, basis11)


def test_verify_relation_at_11_13(basis11):
    checked = 0
    for params in itertools.product(range(11), repeat=3):
        try:
            pr = pair_divisors(basis11, *reconstruct_pair(basis11, "core", params))
        except DegeneratePair:
            continue
        if decompose(pr.right_divisor, 3) is None:
            continue
        lhs = pr.left_total().finite_places()
        rhs = pr.right_divisor.finite_places()
        assert verify_relation(lhs, rhs, basis11)
        bad = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
        assert not verify_relation(lhs, bad, basis11)
        checked += 1
        if checked == 4:
            break
    assert checked == 4


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_verify_relation_repeated_and_cancelling_places(request, name):
    """A place split across repeats on one side, or put on both sides with
    the same coefficient, changes neither verdict: the true relation still
    holds and the perturbed one still fails."""
    basis = request.getfixturevalue(name)
    for params in itertools.product(range(basis.curve.field.q), repeat=3):
        try:
            pr = pair_divisors(basis, *reconstruct_pair(basis, "core", params))
        except DegeneratePair:
            continue
        break
    lhs = pr.left_total().finite_places()
    rhs = pr.right_divisor.finite_places()
    bad = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
    support = {p for p, _ in lhs + rhs}
    extra = next(p for u in poly_irreducibles(basis.curve.field, 2)
                 for p in places_over(basis.curve, u) if p not in support)
    (p0, n0), rest = lhs[0], lhs[1:]
    split = [(p0, n0 - 2), (p0, 2)] + rest
    for right, verdict in ((rhs, True), (bad, False)):
        assert verify_relation(lhs, right, basis) == verdict
        assert verify_relation(split, right, basis) == verdict
        assert verify_relation(lhs + [(extra, 3)], right + [(extra, 3)], basis) == verdict
        assert verify_relation(lhs + [(p0, 1), (p0, -1)], right, basis) == verdict


# ---------------------------------------------------------------------------
# verify_relation and the term memo against the per-place oracle
# ---------------------------------------------------------------------------

def _relation_divisor(lhs, rhs):
    D = Divisor()
    for side, sign in ((lhs, 1), (rhs, -1)):
        for place, n in side:
            D.add_place(place, sign * n)
    D.add_place(PLACE_AT_INFINITY, -D.degree)
    return D


def _conjugate(curve, place):
    return Place(SPLIT, place.u, tuple((-Poly(curve.field, place.v)).coeffs))


@pytest.mark.parametrize("name, limit", [("basis59", None), ("basis11", 4)])
def test_verify_relation_verdict_matches_oracle(request, name, limit):
    """On smooth core pairs, the relation, the relation with one
    multiplicity raised by one, and the relation with one split place
    replaced by its conjugate get the verdict of the lcm-exponent oracle."""
    basis = request.getfixturevalue(name)
    fresh = replace(basis, place_terms={}, point_classes={})
    checked = 0
    for params in itertools.product(range(basis.curve.field.q), repeat=3):
        try:
            pr = pair_divisors(basis, *reconstruct_pair(basis, "core", params))
        except DegeneratePair:
            continue
        if decompose(pr.right_divisor, 3) is None:
            continue
        lhs = pr.left_total().finite_places()
        rhs = pr.right_divisor.finite_places()
        bumped = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(lhs)]
        i = next(i for i, (p, _) in enumerate(lhs) if p.kind == SPLIT)
        swapped = lhs[:i] + [(_conjugate(basis.curve, lhs[i][0]), lhs[i][1])] + lhs[i + 1:]
        verdicts = []
        for left in (lhs, bumped, swapped):
            want = psi_per_place(_relation_divisor(left, rhs), basis).is_one()
            assert verify_relation(left, rhs, fresh) == want
            verdicts.append(want)
        assert verdicts == [True, False, False]
        checked += 1
        if checked == limit:
            break
    assert checked == (limit or 72)


def _small_pool_divisors(kinds, rng, count):
    """Divisors on a pool of at most six places, two of each kind, so that
    places and multiplicities repeat across them."""
    pool = [p for kind in sorted(kinds)
            for p in rng.sample(kinds[kind], min(2, len(kinds[kind])))]
    divisors = []
    for _ in range(count):
        D = Divisor()
        for p in rng.sample(pool, 3):
            D = D + elementary_divisor(p).scale(rng.choice([-3, -2, -1, 1, 2, 3]))
        divisors.append(D)
    return divisors


def test_place_terms_memo_is_order_free(basis59, places59):
    divisors = _small_pool_divisors(places59, random.Random(121), 40)
    cold = replace(basis59, place_terms={}, point_classes={})
    want = [psi_eval(D, cold) for D in divisors]
    assert want == [psi_per_place(D, basis59) for D in divisors]
    # the terms asked for, and the term (P, 1) of every place they name
    asked = {key for D in divisors for key in D.finite_places()}
    assert set(cold.place_terms) == asked | {(p, 1) for p, _ in asked}
    warm = replace(basis59, place_terms={}, point_classes={})
    for D in reversed(divisors):
        psi_eval(D, warm)
    assert [psi_eval(D, warm) for D in divisors] == want


def test_hit_in_a_term_slides_the_divisor(basis59, places59, monkeypatch):
    """When a term meets F the divisor is slid by a vertical and the line
    divided back out."""
    import ellog.psi as psi
    real = psi._term
    failed = []

    def flaky(curve, place, n, *rest):
        if not failed:
            failed.append((place, n))
            raise psi._Hit
        return real(curve, place, n, *rest)

    monkeypatch.setattr(psi, "_term", flaky)
    for D in _small_pool_divisors(places59, random.Random(131), 5):
        failed.clear()
        fresh = replace(basis59, place_terms={})
        assert psi_eval(D, fresh) == psi_per_place(D, basis59)
        assert failed
    pr = pair_divisors(basis59, *reconstruct_pair(basis59, "core", (2, 1, 3)))
    lhs = pr.left_total().finite_places()
    rhs = pr.right_divisor.finite_places()
    bumped = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
    for right, verdict in ((rhs, True), (bumped, False)):
        failed.clear()
        assert verify_relation(lhs, right, replace(basis59, place_terms={})) == verdict
        assert failed


# ---------------------------------------------------------------------------
# the point-class memo
# ---------------------------------------------------------------------------

def _core_relation(basis, params):
    pr = pair_divisors(basis, *reconstruct_pair(basis, "core", params))
    return pr.left_total().finite_places(), pr.right_divisor.finite_places()


@pytest.mark.parametrize("name", ["basis59", "basis75", "basis11"])
def test_point_classes_match_oracle_on_every_point(request, name):
    """psi((R) - (O)) for every affine R in E(F_q), on a cold basis, is the
    oracle's class; the memo ends with one entry per point, never more,
    and a Miller loop runs once per coset of <P1> in E(F_q): once on
    basis59 and basis11, where N = k, twice on basis75, where N = 2k."""
    import ellog.psi as psi
    basis = request.getfixturevalue(name)
    cold = replace(basis, place_terms={}, point_classes={})
    points = curve_points(basis.curve)[1:]
    assert len(points) == basis.curve.N - 1
    loops = []
    real = psi._miller

    def counted(*args):
        loops.append(args[1])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(psi, "_miller", counted)
        for R in points:
            place = place_of_point(basis.curve, R)
            assert psi_elementary(place, cold) == psi_per_place(elementary_divisor(place), basis)
            assert len(cold.point_classes) <= basis.curve.N - 1
    assert set(cold.point_classes) == {(R.x, R.y) for R in points}
    assert len(loops) == basis.nu == {"basis59": 1, "basis75": 2, "basis11": 1}[name]


def test_term_power_is_power_of_term(basis59, places59):
    """The memoised term (P, n) for n in +-1..+-3, asked for in a shuffled
    order, is psi((P) - deg P (O)) to the power n, as the oracle has it;
    the memo then holds exactly those terms and (P, 1)."""
    rng = random.Random(111)
    for kind in sorted(places59):
        for place in places59[kind][:3]:
            base = psi_per_place(elementary_divisor(place), basis59)
            ns = rng.sample([1, -1, 2, -2, 3, -3], 6)
            cold = replace(basis59, place_terms={}, point_classes={})
            for n in ns:
                D = elementary_divisor(place).scale(n)
                assert psi_eval(D, cold) == base.pow(n) == psi_per_place(D, basis59)
            assert set(cold.place_terms) == {(place, n) for n in ns}


@pytest.mark.parametrize("name", ["basis59", "basis75", "basis11"])
def test_point_class_chain_by_frobenius(request, name):
    """pi(R) = pi(R + P1)^q pi(-P1) for every affine R in E(F_q), with
    pi(O) = 1, on the oracle's classes; and pi(R) and pi(-R) from cold
    memos, walking from R first and from -R first, are the oracle's."""
    basis = request.getfixturevalue(name)
    curve, P1 = basis.curve, basis.td.P1
    points = curve_points(curve)[1:]

    def oracle(R):
        if R.inf:
            return PsiValue(basis.ext, basis.ext.one)
        return psi_per_place(elementary_divisor(place_of_point(curve, R)), basis)

    c = oracle(point_neg(P1))
    want = {(R.x, R.y): oracle(R) for R in points}
    for R in points:
        assert want[(R.x, R.y)] == oracle(point_add(R, P1)).frob(1).mul(c)
        for first, then in ((R, point_neg(R)), (point_neg(R), R)):
            cold = replace(basis, place_terms={}, point_classes={})
            for S in (first, then):
                got = psi_elementary(place_of_point(curve, S), cold)
                assert got == want[(S.x, S.y)]


def _split_places(basis, degree, count, rng):
    """`count` split places of the given degree above random monic
    irreducibles."""
    K = basis.curve.field
    found = []
    while len(found) < count:
        u = poly_random_monic(K, degree, rng)
        if poly_is_irreducible(u):
            pls = places_over(basis.curve, u)
            if pls[0].kind == SPLIT and pls[0] not in found:
                found.append(pls[0])
    return found


@pytest.mark.parametrize("name", ["basis59", "basis25", "basis11"])
def test_conjugate_places_share_one_reduction(request, name, monkeypatch):
    """For split places P of degree 2 and 3 and their conjugates -P,
    evaluated P then -P and -P then P on cold memos, both classes are the
    oracle's, and the second comes from the first by u(theta) with no
    Mumford reduction of its own."""
    import ellog.psi as psi
    basis = request.getfixturevalue(name)
    rng = random.Random(name + " conjugates")
    reductions = []
    real = psi._mumford_reduce

    def counted(*args):
        reductions.append(args)
        return real(*args)

    monkeypatch.setattr(psi, "_mumford_reduce", counted)
    for degree in (2, 3):
        for P in _split_places(basis, degree, 3, rng):
            negP = _conjugate(basis.curve, P)
            want = {Q: psi_per_place(elementary_divisor(Q), basis) for Q in (P, negP)}
            for order in ((P, negP), (negP, P)):
                cold = replace(basis, place_terms={}, point_classes={})
                reductions.clear()
                for Q in order:
                    assert psi_elementary(Q, cold) == want[Q]
                assert len(reductions) == 1


def test_hit_in_a_point_class_slides_the_divisor(basis59, places59, monkeypatch):
    """A Miller loop for a point class that meets F slides the divisor by a
    vertical, as a term does, and leaves no wrong class in either memo."""
    import ellog.psi as psi
    real = psi._miller
    failed = []

    def flaky(*args):
        if not failed:
            failed.append(args[1])
            raise psi._Hit
        return real(*args)

    monkeypatch.setattr(psi, "_miller", flaky)
    # the walk from P1 ends at -P1, whose class is the first Miller loop; a
    # hit there stores no class of the walk
    P1 = basis59.td.P1
    fresh = replace(basis59, place_terms={}, point_classes={})
    with pytest.raises(psi._Hit):
        psi._point_class(P1, fresh)
    assert failed == [point_neg(P1)] and fresh.point_classes == {}
    want = psi_per_place(elementary_divisor(place_of_point(basis59.curve, P1)), basis59)
    assert PsiValue(basis59.ext, basis59.ext.unpack(psi._point_class(P1, fresh))) == want
    assert len(fresh.point_classes) == basis59.k - 1
    # (P1) - (O) reduces to the point P1 itself, so every D needs a class
    p1 = elementary_divisor(place_of_point(basis59.curve, basis59.td.P1))
    for D in _small_pool_divisors(places59, random.Random(141), 5):
        D = D + p1
        failed.clear()
        fresh = replace(basis59, place_terms={}, point_classes={})
        want = psi_per_place(D, basis59)
        assert psi_eval(D, fresh) == want
        assert failed
        assert psi_eval(D, fresh) == want
    lhs, rhs = _core_relation(basis59, (2, 1, 3))
    bumped = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
    for right, verdict in ((rhs, True), (bumped, False)):
        failed.clear()
        fresh = replace(basis59, place_terms={}, point_classes={})
        assert verify_relation(lhs, right, fresh) == verdict
        assert failed


def test_verify_relation_ignores_order(basis59):
    """Shuffling either side changes neither the verdict nor the terms
    that the check stores."""
    rng = random.Random(59)
    cases = []
    for params in itertools.product(range(5), repeat=3):
        try:
            lhs, rhs = _core_relation(basis59, params)
        except DegeneratePair:
            continue
        bad = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
        cases += [(lhs, rhs, True), (lhs, bad, False)]
        if len(cases) == 8:
            break
    for lhs, rhs, verdict in cases:
        keys = None
        for _ in range(4):
            lhs2, rhs2 = rng.sample(lhs, len(lhs)), rng.sample(rhs, len(rhs))
            fresh = replace(basis59, place_terms={})
            assert verify_relation(lhs2, rhs2, fresh) == verdict
            assert keys is None or set(fresh.place_terms) == keys
            keys = set(fresh.place_terms)


def test_warm_check_is_products_only(basis11, monkeypatch):
    """Once the memos hold a relation's terms, checking it again runs no
    Miller loop, no chord, no Mumford reduction, no power, no inversion
    and no packing in F_{q^k}: only products on the packed form, and one
    unpack of the numerator and of the denominator."""
    import ellog.psi as psi
    cases = []
    for params in itertools.product(range(11), repeat=3):
        try:
            lhs, rhs = _core_relation(basis11, params)
        except DegeneratePair:
            continue
        bad = [(p, n + 1 if i == 0 else n) for i, (p, n) in enumerate(rhs)]
        cases += [(lhs, rhs, True), (lhs, bad, False)]
        if len(cases) == 6:
            break
    warm = replace(basis11, place_terms={}, point_classes={})
    for lhs, rhs, verdict in cases:
        assert verify_relation(lhs, rhs, warm) == verdict
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("_miller", "_chord", "_mumford_reduce", "_term"):
        count(psi, name)
    for name in ("pow_", "ppow", "inv", "mul", "pmul", "pack", "unpack"):
        count(ExtFieldDesc, name)
    for lhs, rhs, verdict in cases:
        assert verify_relation(lhs, rhs, warm) == verdict
    assert set(calls) == {"pmul", "unpack"}
    assert calls.count("unpack") == 2 * len(cases)


def test_cold_check_reads_polynomials_at_theta_by_reduction(basis11, monkeypatch):
    """theta is X mod I, so psi reads u, v and the Mumford quotients at
    theta as residues mod I: a check on cold memos evaluates no Poly."""
    assert basis11.theta == basis11.ext.gen()
    calls = []
    monkeypatch.setattr(Poly, "eval_in", lambda *args: calls.append(args))
    cold = replace(basis11, place_terms={}, point_classes={})
    checked = 0
    for params in itertools.product(range(11), repeat=3):
        try:
            lhs, rhs = _core_relation(basis11, params)
        except DegeneratePair:
            continue
        assert verify_relation(lhs, rhs, cold)
        checked += 1
        if checked == 4:
            break
    assert cold.place_terms and calls == []
