import hashlib
import json

import pytest

from ellog import algebra, basis as basis_mod
from ellog.algebra import (ConfigError, _squarefree_parts, field_make, poly_factor,
                           poly_irreducibles)
from ellog.basis import (NdNotInvertible, basis_from_json, basis_to_json,
                         build_basis, find_basis, frobenius_shift, mu_bound,
                         search_curve, theta_equation, theta_min_poly_candidates)
from ellog.curve import (Curve, Point, TorsionData, find_point_of_order,
                         point_add, point_order, scalar_mul, semaev3)
from oracles import model_equations, phi_of_F

GOLDEN_59 = {
    "a": "1", "b": "1", "N": 9, "k": 9, "mu": 1, "nu": 1,
    "P1": ["4", "2"],
    "modulus_I": ["4", "0", "3", "4", "2", "2", "1", "2", "3", "1"],
    "tau": "4;3;1;0;0;1;2;1;0",
    "M": 488281,
}


def test_search_small_instance():
    mu, curve, P1 = search_curve(5, 1, 9, seed=0)
    assert mu == 1
    assert curve.N % 9 == 0
    assert point_order(P1, curve.N) == 9
    assert scalar_mul(9, P1).inf


def test_reference_curve_is_a_valid_answer():
    # y^2 = x^3 + x + 1 over F_5 has 9 points and an exact order-9 point
    F5 = field_make(5, 1)
    C = Curve(F5, 1, 1)
    assert C.N == 9
    P = find_point_of_order(C, 9, 0)
    assert P is not None and point_order(P, 9) == 9


def test_golden_basis_for_seed_zero(basis59):
    doc = json.loads(basis_to_json(basis59))
    for key, val in GOLDEN_59.items():
        assert doc[key] == val, key


def test_rebuild_bit_identical():
    a = basis_to_json(find_basis(5, 1, 9, seed=0))
    b = basis_to_json(find_basis(5, 1, 9, seed=0))
    assert a == b


# q = 5 is 5 mod 8, 11 is 3, 17 and 25 are 1; (5, 2, 5) has an F_{5^2} base
@pytest.mark.parametrize("p, m0, k, digest", [
    (5, 1, 9, "6bee8ed02622ecfb"),
    (11, 1, 13, "a1403885c01fef5e"),
    (11, 1, 7, "4af53bdeb43cb39a"),
    (17, 1, 5, "b3133a57bdb2f750"),
    (5, 2, 5, "c0f20e675c3d4381"),
])
def test_basis_json_pinned(p, m0, k, digest):
    """The whole seed-0 document, P1, N and the modulus included, by the
    sha256 prefix of its bytes."""
    text = basis_to_json(find_basis(p, m0, k, seed=0))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_json_roundtrip(basis59):
    text = basis_to_json(basis59)
    b2 = basis_from_json(text)
    assert b2.theta == basis59.theta
    assert b2.tau == basis59.tau
    assert b2.curve == basis59.curve
    assert basis_to_json(b2) == text


def test_json_ignores_the_old_order_table(basis59):
    doc = json.loads(basis_to_json(basis59))
    assert not any(key.startswith("nd_") for key in doc)
    doc.update(nd_degree=3, nd_orders=[9, 27, 108], nd_lcm=108, nd_inv_ok=True)
    assert basis_to_json(basis_from_json(json.dumps(doc))) == basis_to_json(basis59)


@pytest.mark.parametrize("key, value, match", [
    ("M", 488281 + 1, "stored M"),
    ("N", 19, "shares a factor with M"),
])
def test_json_rejects_an_m_psi_cannot_use(basis59, key, value, match):
    doc = json.loads(basis_to_json(basis59))
    doc[key] = value
    with pytest.raises(ConfigError, match=match):
        basis_from_json(json.dumps(doc))


def test_build_rejects_curve_order_sharing_a_factor_with_m():
    # y^2 = x^3 + 1 over F_7: N = 12, and (0, 1) has order 3, so
    # M = (7^3 - 1)/6 = 57 = 3 * 19 shares the factor 3 with N
    F7 = field_make(7, 1)
    curve = Curve(F7, 0, 1)
    P1 = Point.make(curve, F7, 0, 1)
    assert curve.N == 12 and point_order(P1, curve.N) == 3
    with pytest.raises(NdNotInvertible, match="12.*57"):
        build_basis(curve, P1)


def test_first_basis_at_11_13():
    basis = find_basis(11, 1, 13, seed=0)
    curve = basis.curve
    assert (curve.a, curve.b, curve.N) == (5, 10, 13)
    assert (basis.td.P1.x, basis.td.P1.y) == (9, 5)


def test_defining_equation(basis59):
    ext = basis59.ext
    th = basis59.theta
    val = semaev3(th, ext.frobenius(th, 1), ext.embed(basis59.td.xs[1]),
                  basis59.curve, ext)
    assert val == ext.zero


def test_summation_polynomial_degree(basis59):
    # the univariate S_3(X, X^q, x1) has degree 2q + 2 and >= 1 degree-k factor
    cands = theta_min_poly_candidates(basis59.curve, basis59.td)
    assert len(cands) >= 1
    assert all(c.degree() == basis59.k for c in cands)


@pytest.fixture(scope="module")
def basis11_7():
    """q = 11, k = 7: N = 14 = 2k, so two degree-k factors."""
    return find_basis(11, 1, 7, seed=0)


@pytest.fixture(scope="module")
def basis17_5():
    """q = 17, k = 5: N = 15 = 3k."""
    return find_basis(17, 1, 5, seed=0)


@pytest.mark.parametrize("name", ["basis59", "basis11", "basis25",
                                  "basis11_7", "basis17_5"])
def test_candidates_are_the_degree_k_factors(request, name):
    """A root x(Q) of S_3(X, X^q, x1) has pi(Q) - Q = +-P1 (degree k, N
    abscissas in all) or pi(Q) + Q = +-P1 (degree <= 2).  The candidates,
    found by stripping degrees 1 and 2, are the degree-k factors of the
    full factorization, in its order."""
    b = request.getfixturevalue(name)
    factors = poly_factor(theta_equation(b.curve, b.td))
    assert {g.degree() for g, _ in factors} <= {1, 2, b.k}
    top = [(g, mult) for g, mult in factors if g.degree() == b.k]
    assert all(mult == 1 for _, mult in top)
    assert sum(g.degree() for g, _ in top) == b.curve.N
    want = [g for g, _ in top]
    assert theta_min_poly_candidates(b.curve, b.td) == want
    assert b.ext.I in want


def test_candidates_take_two_frobenius_steps_per_part(monkeypatch):
    """At (13, 17) a walk through the degrees takes 8 q-th powers; the
    search strips degrees 1 and 2 and stops.  A q-th power is a call of
    `ExtFieldDesc.ppow` with e = q, in the ring of the part."""
    b = find_basis(13, 1, 17, seed=0)
    K = b.curve.field
    steps = []
    ppow = algebra.ExtFieldDesc.ppow

    def counted(R, x, e):
        if e == K.q:
            steps.append(e)
        return ppow(R, x, e)

    monkeypatch.setattr(algebra.ExtFieldDesc, "ppow", counted)
    S = theta_equation(b.curve, b.td)
    parts = _squarefree_parts(K, S.coeffs)
    assert b.ext.I in theta_min_poly_candidates(b.curve, b.td)
    assert 0 < len(steps) <= 2 * len(parts)
    steps.clear()
    for part, _ in parts:
        algebra._distinct_degree(K, algebra._ring(K, part))
    assert len(steps) > 2 * len(parts)


def test_candidates_refuse_a_factor_of_another_degree(basis59, monkeypatch):
    """What is left after degrees 1 and 2 must have degree a multiple of k:
    a cubic factor at k = 9 is an AssertionError, not a missing modulus."""
    K = basis59.curve.field
    cubic = poly_irreducibles(K, 3)[0]
    monkeypatch.setattr(basis_mod, "theta_equation",
                        lambda curve, td: cubic * basis59.ext.I)
    with pytest.raises(AssertionError, match="degree 12"):
        theta_min_poly_candidates(basis59.curve, basis59.td)


@pytest.mark.parametrize("name", ["basis59", "basis11", "basis25"])
def test_orientation_agrees_with_the_chord(request, name):
    """The collinearity of F, +-P1 and -pi(F) picks the sign that the chord
    pi(F) - F reads, for tau and for -tau."""
    b = request.getfixturevalue(name)
    ext, curve = b.ext, b.curve
    P1e = Point(curve, ext, ext.embed(b.td.P1.x), ext.embed(b.td.P1.y))
    for tau, sign in ((b.tau, 1), (ext.neg(b.tau), -1)):
        F = Point(curve, ext, b.theta, tau)
        piF = Point(curve, ext, ext.frobenius(b.theta, 1), ext.frobenius(tau, 1))
        chord = point_add(piF, Point(curve, ext, F.x, ext.neg(F.y)))
        assert chord == (P1e if sign == 1 else Point(curve, ext, P1e.x, ext.neg(P1e.y)))
        assert frobenius_shift(ext, b.theta, tau, b.td.P1) == sign


def test_json_rejects_a_negated_tau(basis59):
    """-tau is also a root of the cubic at theta, but pi(F) = F - P1 there,
    and psi, which relies on pi(F) = F + P1, would be silently wrong."""
    doc = json.loads(basis_to_json(basis59))
    doc["tau"] = basis59.ext.enc(basis59.ext.neg(basis59.tau))
    with pytest.raises(ConfigError, match="stored tau is not oriented"):
        basis_from_json(json.dumps(doc))


def test_orientation_unique(basis59):
    ext = basis59.ext
    curve = basis59.curve
    th, tau = basis59.theta, basis59.tau
    P1e = Point(curve, ext, ext.embed(basis59.td.P1.x), ext.embed(basis59.td.P1.y))
    Fpt = Point(curve, ext, th, tau)
    frob = Point(curve, ext, ext.frobenius(th, 1), ext.frobenius(tau, 1))
    assert frob == point_add(Fpt, P1e)
    # the opposite root walks the other way: pi(F') = F' - P1
    Fneg = Point(curve, ext, th, ext.neg(tau))
    frob_neg = Point(curve, ext, ext.frobenius(th, 1),
                     ext.frobenius(ext.neg(tau), 1))
    assert frob_neg == point_add(Fneg, Point(curve, ext, P1e.x, ext.neg(P1e.y)))
    assert frob_neg != point_add(Fneg, P1e)


def test_frobenius_order_k(basis59):
    ext = basis59.ext
    assert ext.eq(ext.frobenius(basis59.theta, basis59.k), basis59.theta)
    assert ext.eq(ext.frobenius(basis59.tau, basis59.k), basis59.tau)


def test_phi_of_F_coordinate_shift(basis59):
    ext = basis59.ext
    u, v, w = phi_of_F(basis59)
    assert ext.eq(ext.frobenius(u, 1), v)
    assert ext.eq(ext.frobenius(v, 1), w)


def test_phi_of_F_satisfies_model_equations(basis59):
    ext = basis59.ext
    u, v, w = phi_of_F(basis59)
    for eq in model_equations(basis59.td):
        assert ext.eq(eq.eval_in(ext, u, v, w), ext.zero)


def test_mu_bound_examples():
    import math
    assert mu_bound(5, 9) == math.ceil(math.log(81 / 4) / math.log(5)) + 1
    assert mu_bound(13, 5) >= 1


def test_build_rejects_tiny_torsion(basis59):
    curve = basis59.curve
    P3 = scalar_mul(3, basis59.td.P1)  # order 3: fine
    build_basis(curve, P3, 0)
    with pytest.raises(ValueError):
        TorsionData(curve, scalar_mul(9, basis59.td.P1), 1)
