import random

import pytest
from hypothesis import given, settings, strategies as st

from ellog.algebra import Poly, field_make, poly_factor, poly_irreducibles
from ellog.curve import (Curve, CurveFunction, Point, Singular, TorsionData,
                         TriPoly, ZeroFunction, phi_star, point_neg)
from ellog.divisor import (Divisor, HitsInfinity, INERT, PLACE_AT_INFINITY,
                           Place, QuotientRing, RAMIFIED, SPLIT, decompose,
                           divisor_of, elementary_divisor, height,
                           orbit_canonical, place_of_point, places_over,
                           split_ordinate, translate_place)


@pytest.fixture(scope="module")
def env(basis59):
    return basis59.curve, basis59.td, basis59.curve.field


def rand_function(curve, x1, rng, emax=3):
    while True:
        n0 = Poly(curve.field, [rng.randrange(curve.field.q)
                                for _ in range(rng.randrange(1, 5))])
        n1 = Poly(curve.field, [rng.randrange(curve.field.q)
                                for _ in range(rng.randrange(0, 3))])
        if n0.is_zero() and n1.is_zero():
            continue
        return CurveFunction.make(curve, x1, n0, n1, rng.randrange(emax))


def quotient_ring_ordinate(curve, u):
    """The square root of the cubic in F_q[x]/(u), None if there is none."""
    K = curve.field
    R = QuotientRing(K, u)
    fx = R.reduce(curve.rhs_poly())
    if not any(fx):
        return Poly(K, ())
    if not R.is_square(fx):
        return None
    return Poly(K, R.sqrt(fx))


def places_over_two_root(curve, u):
    v = quotient_ring_ordinate(curve, u)
    if v is None:
        return [Place(INERT, u.coeffs, ())]
    if v.is_zero():
        return [Place(RAMIFIED, u.coeffs, ())]
    return [Place(SPLIT, u.coeffs, v.coeffs), Place(SPLIT, u.coeffs, (-v).coeffs)]


def divisor_two_root(fun, curve):
    """Reference principal divisor by the two-root rule.

    Each split norm factor u of the primitive part p0 + p1 y is resolved by
    taking both square roots of the cubic mod u and keeping the one where
    p0 + p1 v vanishes mod u.
    """
    K = curve.field
    f = curve.rhs_poly()
    n0, n1 = fun.n0, fun.n1
    if n1.is_zero():
        g, p0, p1 = n0.monic(), Poly(K, (1,)), Poly(K, ())
    else:
        g = n0.gcd(n1)
        p0, p1 = n0 // g, n1 // g
    D = Divisor()
    for u, mult in (poly_factor(g) if g.degree() > 0 else ()):
        for place in places_over_two_root(curve, u):
            D.add_place(place, 2 * mult if place.kind == RAMIFIED else mult)
    norm = p0 * p0 - (p1 * p1) * f
    for u, mult in (poly_factor(norm) if norm.degree() > 0 else ()):
        places = places_over_two_root(curve, u)
        if places[0].kind == RAMIFIED:
            assert mult == 1
            D.add_place(places[0], 1)
            continue
        zeros = [pl for pl in places if pl.kind == SPLIT
                 and ((p0 + p1 * Poly(K, pl.v)) % u).is_zero()]
        assert len(zeros) == 1
        D.add_place(zeros[0], mult)
    if fun.e:
        for place in places_over_two_root(curve, Poly(K, (K.neg(fun.x1), 1))):
            D.add_place(place, -2 * fun.e if place.kind == RAMIFIED else -fun.e)
    pole = max(w for w in (2 * n0.degree() if not n0.is_zero() else None,
                           3 + 2 * n1.degree() if not n1.is_zero() else None)
               if w is not None)
    D.add_place(PLACE_AT_INFINITY, -pole + 2 * fun.e)
    return D


@pytest.fixture(scope="module")
def curve121():
    K = field_make(11, 2, 0)
    return Curve(K, 1, K.code((2, 1)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_divisor_of_matches_two_root_rule(env, curve121, seed):
    rng = random.Random(seed)
    curve, td, K = env
    fun = rand_function(curve, td.xs[1], rng, emax=4)
    assert divisor_of(fun, curve) == divisor_two_root(fun, curve)
    fun = rand_function(curve121, curve121.field.code((3, 5)), rng, emax=4)
    assert divisor_of(fun, curve121) == divisor_two_root(fun, curve121)


def test_split_ordinate_degree_one_root(curve121):
    """Over degree-1 u the F_q square root is the QuotientRing root itself."""
    curves = [curve121]
    for p in (5, 11):
        K = field_make(p, 1)
        for a in range(p):
            for b in range(p):
                try:
                    curves.append(Curve(K, a, b))
                except Singular:
                    pass
    K = curve121.field
    curves += [Curve(K, K.code((a, 1)), K.code((b, 3))) for a, b in ((0, 1), (4, 7), (9, 2))]
    kinds = set()
    for curve in curves:
        for u in poly_irreducibles(curve.field, 1):
            v = split_ordinate(curve, u)
            assert v == quotient_ring_ordinate(curve, u)
            kinds.add("inert" if v is None else "ram" if v.is_zero() else "split")
    assert kinds == {"inert", "ram", "split"}


def test_lemma_divisors_for_v(env):
    curve, td, K = env
    V = TriPoly.var(K, "V")
    for j in range(1, td.k):
        D = divisor_of(phi_star(V - TriPoly.const(K, td.xs[j]), td), curve)
        expect = Divisor()
        expect.add_place(place_of_point(curve, td.point(j)), 1)
        expect.add_place(place_of_point(curve, point_neg(td.point(j))), 1)
        expect.add_place(PLACE_AT_INFINITY, -2)
        assert D == expect


def test_lemma_divisors_for_u_and_w(env):
    curve, td, K = env
    U, W = TriPoly.var(K, "U"), TriPoly.var(K, "W")
    p1 = place_of_point(curve, td.P1)
    m1 = place_of_point(curve, point_neg(td.P1))
    for j in range(2, td.k - 1):
        DU = divisor_of(phi_star(U - TriPoly.const(K, td.xs[j]), td), curve)
        expect = Divisor()
        expect.add_place(place_of_point(curve, td.point(j + 1)), 1)
        expect.add_place(place_of_point(curve, point_neg(td.point(j - 1))), 1)
        expect.add_place(p1, -2)
        assert DU == expect
        DW = divisor_of(phi_star(W - TriPoly.const(K, td.xs[j]), td), curve)
        expect = Divisor()
        expect.add_place(place_of_point(curve, td.point(j - 1)), 1)
        expect.add_place(place_of_point(curve, point_neg(td.point(j + 1))), 1)
        expect.add_place(m1, -2)
        assert DW == expect


def test_divisor_of_constant_is_zero(env):
    curve, td, K = env
    f = CurveFunction.make(curve, td.xs[1], Poly(K, (3,)), Poly(K, ()), 0)
    assert divisor_of(f, curve).is_zero()


def test_divisor_of_zero_rejected(env):
    curve, td, K = env
    f = CurveFunction.make(curve, td.xs[1], Poly(K, ()), Poly(K, ()), 0)
    with pytest.raises(ZeroFunction):
        divisor_of(f, curve)


def test_u_pullback_divisor_degree_two_place():
    # instance picked so the positive part is one degree-2 place over -2(P1)
    F11 = field_make(11, 1)
    C = Curve(F11, 1, 7)
    P1 = Point.make(C, F11, 7, 4)
    td = TorsionData(C, P1, 5)
    D = divisor_of(phi_star(TriPoly.var(F11, "U"), td), C)
    assert D.coeffs[place_of_point(C, P1)] == -2
    pos = [(p, n) for p, n in D.coeffs.items() if n > 0]
    assert len(pos) == 1 and pos[0] == (pos[0][0], 1) and pos[0][0].degree == 2
    assert D.degree == 0 and D.height == 2


def test_heights_of_model_functions(env):
    curve, td, K = env
    U, V, W = (TriPoly.var(K, s) for s in "UVW")
    assert height(divisor_of(phi_star(V, td), curve)) == 2
    assert height(divisor_of(phi_star(U, td), curve)) == 2
    assert height(divisor_of(phi_star(W, td), curve)) == 2
    assert height(divisor_of(phi_star(U * V, td), curve)) == 4
    assert height(divisor_of(phi_star(V * W, td), curve)) == 4
    assert height(divisor_of(phi_star(U * W, td), curve)) == 4
    assert height(Divisor()) == 0


def test_xi_homomorphism_and_degree(env):
    curve, td, K = env
    rng = random.Random(7)
    for _ in range(1000):
        f1 = rand_function(curve, td.xs[1], rng)
        f2 = rand_function(curve, td.xs[1], rng)
        D1 = divisor_of(f1, curve)
        D2 = divisor_of(f2, curve)
        D12 = divisor_of(f1.mul(f2), curve)
        assert D1.degree == 0 and D2.degree == 0 and D12.degree == 0
        assert D12 == D1 + D2
        assert D12.height <= D1.height + D2.height


def test_decompose(env):
    curve, td, K = env
    # a single degree-5 place: not smooth at bound 3
    u5 = next(u for u in poly_irreducibles(K, 5)
              for p in places_over(curve, u) if p.degree == 5)
    p5 = [p for p in places_over(curve, u5) if p.degree == 5][0]
    D = elementary_divisor(p5)
    assert decompose(D, 3) is None
    # the lemma divisor splits into two height-1 atoms
    V = TriPoly.var(K, "V")
    D = divisor_of(phi_star(V - TriPoly.const(K, td.xs[4]), td), curve)
    out = decompose(D, 3)
    assert out is not None
    assert sorted(n for _, n in out) == [1, 1]
    assert all(p.degree == 1 for p, _ in out)


def test_translate_torsion(env):
    curve, td, K = env
    p3 = place_of_point(curve, td.point(3))
    p2 = place_of_point(curve, td.point(2))
    assert translate_place(p3, 0, td) == p3
    assert translate_place(p3, 1, td) == p2
    with pytest.raises(HitsInfinity):
        translate_place(place_of_point(curve, td.P1), 1, td)


def test_translate_cycles_and_orbits(env, fb59):
    curve, td, K = env
    # k successive translations close every free orbit
    for rep in fb59.reps:
        cur = rep
        for _ in range(fb59.cycle_len[fb59.rep_col[rep]]):
            cur = translate_place(cur, 1, td)
        assert cur == rep
    # orbit sizes divide k, and the partition covers every indexed place
    sizes = list(fb59.cycle_len.values())
    assert all(td.k % s == 0 for s in sizes)
    non_torsion = sum(sizes)
    torsion = td.k - 1
    assert non_torsion + torsion == len(fb59.place_map)


def test_orbit_canonical_idempotent(env, fb59):
    curve, td, K = env
    for rep in fb59.reps[:4]:
        r2, s2 = orbit_canonical(rep, td)
        assert r2 == rep and s2 == 0


def test_orbit_canonical_recovers_place(env):
    curve, td, K = env
    for u in poly_irreducibles(K, 2)[:6]:
        for p in places_over(curve, u):
            if p.degree > 3:
                continue
            rep, shift = orbit_canonical(p, td)
            cur = rep
            for _ in range(shift):
                cur = translate_place(cur, 1, td)
            assert cur == p


def test_p2_p3_share_one_orbit(env):
    curve, td, K = env
    p2 = place_of_point(curve, td.point(2))
    p3 = place_of_point(curve, td.point(3))
    r2, _ = orbit_canonical(p2, td)
    r3, _ = orbit_canonical(p3, td)
    assert r2 == r3


def test_place_and_divisor_codecs(env):
    curve, td, K = env
    rng = random.Random(13)
    f = rand_function(curve, td.xs[1], rng)
    D = divisor_of(f, curve)
    text = D.encode(K)
    assert Divisor.decode(K, text) == D
    for place in D.coeffs:
        assert Place.decode(K, place.encode(K)) == place


def test_codecs_with_extension_coefficients():
    K = field_make(11, 2, 0)
    C = Curve(K, 1, K.code((2, 1)))
    u = poly_irreducibles(K, 1)[3]
    for p in places_over(C, u):
        assert Place.decode(K, p.encode(K)) == p
