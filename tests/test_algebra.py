import copy
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ellog.algebra import (CharTooSmall, ExtFieldDesc, FieldDesc, NonResidue,
                           NotPrime, Poly, Reducible, ZeroPolynomial, ext_make,
                           field_make, poly_factor, poly_irreducibles,
                           poly_is_irreducible, poly_random_monic)
from ellog.algebra import _equal_degree, _ring

from oracles import DigitField, QuotientRing, frobenius_pow, poly_eval


def test_field_make_prime_field_is_trivial():
    F5 = field_make(5, 1)
    assert (F5.p, F5.m, F5.q) == (5, 1, 5)
    assert F5.modulus == (0, 1)


def test_field_make_f25_modulus_irreducible_by_root_check():
    F25 = field_make(5, 2, 0)
    F5 = field_make(5, 1)
    f = Poly(F5, F25.modulus)
    # exhaustive: no linear factor over F_5, so the quadratic is irreducible
    for c in range(5):
        assert poly_eval(f, c) != 0


def test_field_make_rejections():
    with pytest.raises(NotPrime):
        field_make(4, 1, 0)
    with pytest.raises(CharTooSmall):
        field_make(3, 1, 0)
    with pytest.raises(ValueError):
        FieldDesc(5, 10, tuple([1] * 10 + [1]))  # q over the desk cap


def test_field_make_deterministic():
    assert field_make(11, 2, 7).modulus == field_make(11, 2, 7).modulus
    assert field_make(5, 3, 1).modulus == field_make(5, 3, 1).modulus


def test_poly_factor_x2_plus_1_over_f5():
    F5 = field_make(5, 1)
    fac = poly_factor(Poly(F5, (1, 0, 1)))
    assert fac == [(Poly(F5, (2, 1)), 1), (Poly(F5, (3, 1)), 1)]


def test_poly_factor_irreducible_fixed_point():
    F5 = field_make(5, 1)
    rng = random.Random(2)
    hits = 0
    while hits < 10:
        f = poly_random_monic(F5, 4, rng)
        if poly_is_irreducible(f):
            assert poly_factor(f) == [(f, 1)]
            hits += 1


def test_poly_factor_zero_rejected():
    F5 = field_make(5, 1)
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly(F5, ()))


@pytest.mark.parametrize("p,m", [(5, 1), (5, 2), (11, 2)])
def test_poly_factor_roundtrip(p, m):
    K = field_make(p, m, 0)
    rng = random.Random(100 * p + m)
    n = 1000 if (p, m) == (5, 1) else 150
    for _ in range(n):
        f = poly_random_monic(K, rng.randrange(1, 13), rng)
        fac = poly_factor(f)
        prod = Poly(K, (1,))
        for g, mult in fac:
            assert g.is_monic() and poly_is_irreducible(g)
            for _ in range(mult):
                prod = prod * g
        assert prod == f


def test_poly_factor_ordering_is_deterministic():
    K = field_make(5, 1)
    f = Poly(K, (1, 1)) * Poly(K, (2, 1)) * Poly(K, (1, 1)) * Poly(K, (1, 1, 1))
    assert poly_factor(f) == poly_factor(f)
    degrees = [g.degree() for g, _ in poly_factor(f)]
    assert degrees == sorted(degrees)


@pytest.mark.parametrize("p,m", [(5, 1), (5, 2), (7, 1)])
def test_frobenius_additivity(p, m):
    K = field_make(p, m, 0)
    rng = random.Random(p + m)
    for _ in range(1000):
        a, b = K.rand(rng), K.rand(rng)
        assert K.pow_(K.add(a, b), p) == K.add(K.pow_(a, p), K.pow_(b, p))


def test_frobenius_fixes_base_and_cycles(basis59):
    ext = basis59.ext
    k = basis59.k
    emb = ext.embed(3)
    assert ext.eq(ext.frobenius(emb, 1), emb)
    rng = random.Random(9)
    for _ in range(20):
        x = ext.rand(rng)
        assert ext.eq(ext.frobenius(ext.frobenius(x, 1), k - 1), x)


def test_frobenius_two_methods_agree(request):
    """The packed rows over F_5 (slots of 8 bits) and F_11 (16 bits), and
    the loop over F_{5^2}, against plain exponentiation."""
    for name in ("basis59", "basis11", "basis25"):
        ext = request.getfixturevalue(name).ext
        rng = random.Random(10)
        top = (ext.base.q - 1,) * ext.k
        for times in (1, 2, 5, ext.k - 1):
            for x in [ext.rand(rng) for _ in range(10)] + [top]:
                assert ext.eq(ext.frobenius(x, times), frobenius_pow(ext, x, times))


def test_ext_make_degree_one_copies_base():
    F5 = field_make(5, 1)
    E = ext_make(F5, Poly(F5, (0, 1)))
    a, b = E.embed(2), E.embed(4)
    assert E.mul(a, b) == E.embed(3)


def test_ext_make_rejects_reducible():
    F5 = field_make(5, 1)
    with pytest.raises(Reducible):
        ext_make(F5, Poly(F5, (1, 0, 1)))  # X^2 + 1 splits over F_5


def test_ext_make_rechecks_basis_modulus(basis59):
    # the modulus selected during basis construction passes a fresh check
    F5 = basis59.curve.field
    E = ext_make(F5, basis59.ext.I)
    assert E.k == basis59.k


def test_canonical_encoding_roundtrip():
    for p, m in ((5, 1), (11, 2)):
        K = field_make(p, m, 0)
        for code in range(min(K.q, 60)):
            assert K.dec(K.enc(code)) == code
    K = field_make(11, 2, 0)
    assert K.enc(K.code((3, 0))) == "3,0"


def test_inverse_and_division():
    K = field_make(11, 2, 0)
    rng = random.Random(4)
    for _ in range(200):
        a = K.rand(rng)
        if a == 0:
            continue
        assert K.mul(a, K.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        K.inv(0)


@pytest.mark.parametrize("p, m, d", [(5, 1, 3), (5, 2, 2)], ids=["F5-cubic", "F25-quadratic"])
def test_extension_inverse_of_every_element(p, m, d):
    """a * a^-1 = 1 for every nonzero a; zero and non-units raise."""
    K = field_make(p, m, 0)
    R = ExtFieldDesc(K, poly_irreducibles(K, d)[0])
    for a in itertools.product(range(K.q), repeat=R.k):
        if any(a):
            assert R.mul(a, R.inv(a)) == R.one
    with pytest.raises(ZeroDivisionError):
        R.inv(R.zero)
    # X^2 - 1 = (X - 1)(X + 1): X - 1 is a nonzero non-unit
    split = ExtFieldDesc(K, Poly(K, (K.neg(1), 0, 1)))
    with pytest.raises(ZeroDivisionError):
        split.inv((K.neg(1), 1))


def test_zero_power_convention():
    K = field_make(5, 1)
    assert K.pow_(0, 0) == 1
    assert K.pow_(0, 3) == 0
    assert K.pow_(2, 0) == 1


# Degrees 9 and 13 are the target fields of the two pinned instances; F_1048573
# (2^20 - 3, just under DESK_Q_CAP) needs the widest packed slots.  At degree
# 13, 9949 is the largest prime whose packed product folds with the high
# half and the quotient unreduced, and 9967 the next one, which reduces them
# mod p before their products.  The slot-parallel reduction mod p
# takes four folds at (8423, 17) and five at (16931, 7), in 32-bit slots,
# and at (131, 1) it does not fit the 16 bits that hold the slots of the
# product, so the layout takes 32.
_RESIDUE_CASES = [(p, m, d) for p, m, top in ((5, 1, 13), (11, 1, 13), (11, 2, 5),
                                               (1048573, 1, 4))
                  for d in range(1, top + 1)] + [(9949, 1, 13), (9967, 1, 13),
                                                 (1048573, 1, 13), (8423, 1, 17),
                                                 (16931, 1, 7), (131, 1, 1)]
_RESIDUE_BASES = {(p, m): field_make(p, m, 0) for p, m, _ in _RESIDUE_CASES}


def _irreducible(K, d, rng):
    u = poly_random_monic(K, d, rng)
    while not poly_is_irreducible(u):
        u = poly_random_monic(K, d, rng)
    return u


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=st.sampled_from(_RESIDUE_CASES), seed=st.integers(0, 2 ** 32 - 1))
@example(case=(5, 1, 9), seed=0)
@example(case=(11, 1, 13), seed=0)
@example(case=(1048573, 1, 4), seed=0)
@example(case=(1048573, 1, 13), seed=0)
@example(case=(9949, 1, 13), seed=0)
@example(case=(9967, 1, 13), seed=0)
@example(case=(8423, 1, 17), seed=0)
@example(case=(16931, 1, 7), seed=0)
@example(case=(131, 1, 1), seed=0)
@example(case=(5, 1, 1), seed=0)
@example(case=(11, 2, 3), seed=0)
def test_residue_ring_matches_reference(case, seed):
    """ExtFieldDesc(K, u) computes what the Poly-then-reduce ring computes."""
    p, m, d = case
    K = _RESIDUE_BASES[p, m]
    rng = random.Random(seed)
    u = _irreducible(K, d, rng)
    R, ref = ExtFieldDesc(K, u), QuotientRing(K, u)
    a, b = R.rand(rng), R.rand(rng)
    # every coefficient q - 1: the largest sums the packed slots must hold
    top = (K.q - 1,) * d
    for x, y in ((a, b), (top, top), (top, a), (b, top)):
        assert R.mul(x, y) == ref.mul(x, y)
        assert R.add(x, y) == ref.add(x, y)
        assert R.sub(x, y) == ref.sub(x, y)
        assert R.neg(x) == ref.neg(x)
    e = rng.randrange(2 * R.order_total)
    assert R.pow_(a, e) == ref.pow_(a, e)
    # 200 products on the packed form, each result the next operand:
    # squares and products with seeded elements, unpacked once at the end
    x, want = R.pack(top), top
    for i in range(200):
        y = want if i % 2 else R.rand(rng)
        x, want = R.pmul(x, x if i % 2 else R.pack(y)), ref.mul(want, y)
    assert R.unpack(x) == want
    if any(a):
        assert R.inv(a) == ref.inv(a)
    for x in (a, R.mul(b, b)):
        # the very root, not one up to sign, or the non-residue error
        assert _sqrt_outcome(R, x) == _sqrt_outcome(ref, x)
        assert (_sqrt_outcome(ref, x) is NonResidue) != ref.is_square(x)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pm=st.sampled_from([(5, 1), (11, 1), (5, 2), (1048573, 1)]),
       shape=st.sampled_from(["squarefree", "square", "X"]),
       degrees=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pm=(11, 1), shape="squarefree", degrees=(2, 3), seed=0)
@example(pm=(5, 1), shape="square", degrees=(2, 1), seed=0)
@example(pm=(5, 2), shape="X", degrees=(4, 1), seed=0)
@example(pm=(1048573, 1), shape="square", degrees=(4, 4), seed=0)
def test_residue_ring_over_reducible_moduli(pm, shape, degrees, seed):
    """The factorizer and Rabin's test take their powers in F_q[X]/(I) for
    a reducible I: `pmul` and `ppow` there compute what the Poly-then-reduce
    ring computes, for I a product of two distinct irreducibles, the square
    of one times another, and X times one."""
    K = field_make(*pm, 0)
    rng = random.Random(seed)
    g = _irreducible(K, degrees[0], rng)
    h = _irreducible(K, degrees[1], rng)
    while h == g:
        h = _irreducible(K, degrees[1], rng)
    X = Poly(K, (0, 1))
    I = {"squarefree": g * h, "square": g * g * h, "X": X * g}[shape]
    if shape == "X" and g == X:
        I = X * h
    R, ref = ExtFieldDesc(K, I), QuotientRing(K, I)
    top = (K.q - 1,) * R.k
    for a, b in ((R.rand(rng), R.rand(rng)), (top, top), (top, R.rand(rng))):
        assert R.unpack(R.pmul(R.pack(a), R.pack(b))) == ref.mul(a, b)
        for e in (0, 1, K.q, rng.randrange(2 * R.order_total)):
            assert R.unpack(R.ppow(R.pack(a), e)) == ref.pow_(a, e)
    # a zero divisor squares and multiplies like any other element
    z = R.from_poly(g)
    assert R.unpack(R.ppow(R.pack(z), K.q ** 2)) == ref.pow_(z, K.q ** 2)


def _sqrt_outcome(dom, x):
    """The root `dom.sqrt` gives, or NonResidue if it raises that."""
    try:
        return dom.sqrt(x)
    except NonResidue:
        return NonResidue


def _check_every_root(dom, elements):
    """r^2 = a for every square a, NonResidue for every other element."""
    squares = {dom.mul(y, y) for y in elements}
    for a in elements:
        r = _sqrt_outcome(dom, a)
        if a in squares:
            assert r is not NonResidue and dom.mul(r, r) == a
        else:
            assert r is NonResidue
    assert dom.sqrt(dom.zero) == dom.zero


# q mod 8: 5 and 13 are 5, 7 and 23 are 7, 11 is 3, 17 is 1; curve121's
# base F_{11^2} is 1, and its pow_ is not `pow`
@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1), (11, 2)])
def test_sqrt_every_element_of_base_field(p, m):
    K = field_make(p, m, 0)
    _check_every_root(K, range(K.q))
    # the degree-1 residue ring gives the same root
    E = ExtFieldDesc(K, Poly(K, (0, 1)))
    for a in range(K.q):
        want = _sqrt_outcome(K, a)
        assert _sqrt_outcome(E, (a,)) == (want if want is NonResidue else (want,))


# Q = q^d mod 8 over (q, d): 1 at even d; 5 at (5, 3), (13, 3); 7 at
# (7, 3); 3 at (11, 3)
@pytest.mark.parametrize("q", [5, 7, 11, 13])
@pytest.mark.parametrize("d", [2, 3])
def test_sqrt_every_element_of_residue_ring(q, d):
    K = field_make(q, 1)
    rng = random.Random(q * 10 + d)
    u = poly_random_monic(K, d, rng)
    while not poly_is_irreducible(u):
        u = poly_random_monic(K, d, rng)
    R = ExtFieldDesc(K, u)
    _check_every_root(R, [tuple(c) for c in itertools.product(range(q), repeat=d)])


def test_sqrt_roots_pinned(basis11):
    """The root itself, sign included, in each class of q mod 8.  At q = 13
    (Atkin's formula) four roots are the negatives of the Tonelli-Shanks
    ones; the others are the roots Tonelli-Shanks gives.  Where Q = 3 mod 4
    the root is a^((Q+1)/4), in F_11 and in residue fields of degree 3, 5
    and 13 over it."""
    pinned = {
        5: {1: 1, 4: 3},
        11: {1: 1, 3: 5, 4: 9, 5: 4, 9: 3},
        13: {1: 1, 3: 9, 4: 11, 9: 3, 10: 7, 12: 8},
        17: {1: 1, 2: 6, 4: 2, 8: 12, 9: 14, 13: 8, 15: 7, 16: 4},
    }
    for q, roots in pinned.items():
        K = field_make(q, 1)
        got = {a: _sqrt_outcome(K, a) for a in range(1, q)}
        assert {a: r for a, r in got.items() if r is not NonResidue} == roots
    F11 = field_make(11, 1)
    rings = [basis11.ext]
    for d in (3, 5):
        rng = random.Random(d)
        u = poly_random_monic(F11, d, rng)
        while not poly_is_irreducible(u):
            u = poly_random_monic(F11, d, rng)
        rings.append(ExtFieldDesc(F11, u))
    for R in rings:
        Q = R.order_total
        assert Q % 4 == 3
        rng = random.Random(R.k)
        for _ in range(40):
            x = R.rand(rng)
            a = R.mul(x, x)
            assert R.sqrt(a) == R.pow_(a, (Q + 1) // 4)


@pytest.mark.parametrize("p, m, tabled", [(37, 2, False), (11, 3, False), (31, 2, True)])
def test_field_ops_match_digit_reference(p, m, tabled):
    """Above the table cap F_{p^m} runs the list kernel on digit vectors;
    below it the tables that kernel filled.  Both agree with the digit
    reference on seeded elements and on 0, 1 and q - 1."""
    K = field_make(p, m, 0)
    assert (K._mul_table is not None) == tabled
    ref = DigitField(K)
    rng = random.Random(p * m)
    elements = [0, 1, K.q - 1] + [rng.randrange(K.q) for _ in range(27)]
    for a in elements:
        b = rng.randrange(K.q)
        for x, y in ((a, b), (b, a), (a, a)):
            assert K.mul(x, y) == ref.mul(x, y)
            assert K.add(x, y) == ref.add(x, y)
            assert K.sub(x, y) == ref.sub(x, y)
        assert K.neg(a) == ref.neg(a)
        e = rng.randrange(2 * K.q)
        assert K.pow_(a, e) == ref.pow_(a, e)
        if a:
            assert K.inv(a) == ref.inv(a)
            assert K.pow_(a, -e) == K.inv(ref.pow_(a, e))


@pytest.mark.parametrize("p,m", [(31, 2), (5, 4), (7, 1)])
def test_tables_match_the_untabled_ops(p, m):
    """The tables, filled a block of codes at a time from m products per
    row, equal the untabled ops of the same field on a seeded sample of
    pairs, on the rows of 0, 1 and q - 1, and on every neg and inv."""
    K = field_make(p, m, 0)
    assert K._mul_table is not None
    U = copy.copy(K)
    U._add_table = U._mul_table = U._neg_table = U._inv_table = None
    rng = random.Random(p ** m)
    q = K.q
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    pairs += [(a, b) for a in (0, 1, q - 1) for b in range(q)]
    for a, b in pairs:
        assert K.add(a, b) == U.add(a, b)
        assert K.sub(a, b) == U.sub(a, b)
        assert K.mul(a, b) == U.mul(a, b)
    assert [K.neg(a) for a in range(q)] == [U.neg(a) for a in range(q)]
    assert [K.inv(a) for a in range(1, q)] == [U.pow_(a, q - 2) for a in range(1, q)]


def test_sqrt_over_a_split_modulus_raises_reducible():
    """F_17[x]/((x - 1)(x - 2)) is F_17 x F_17, of order 289 = 1 mod 8, so
    sqrt takes Tonelli-Shanks, which finds no non-residue there: it raises
    Reducible instead of searching for ever.  Every element ends with a
    true root, NonResidue or Reducible."""
    K = field_make(17, 1)
    R = ExtFieldDesc(K, Poly(K, (2, K.neg(3), 1)))
    with pytest.raises(Reducible):
        R.sqrt((0, 1))
    for a in itertools.product(range(17), repeat=2):
        try:
            r = R.sqrt(a)
        except (Reducible, NonResidue):
            continue
        assert R.mul(r, r) == a


def test_equal_degree_split_of_an_irreducible_raises_reducible():
    """An irreducible quartic over F_5 is no product of quadratics, so no
    draw splits it: the split raises Reducible instead of drawing for ever,
    and a true product of two quadratics still splits."""
    K = field_make(5, 1)
    f = next(g for g in (poly_random_monic(K, 4, random.Random(s))
                         for s in itertools.count()) if poly_is_irreducible(g))
    with pytest.raises(Reducible):
        _equal_degree(K, list(f.coeffs), 2, lambda: random.Random(0), _ring(K, f.coeffs))
    g, h = poly_irreducibles(K, 2)[:2]
    parts = _equal_degree(K, list((g * h).coeffs), 2, lambda: random.Random(0),
                          _ring(K, (g * h).coeffs))
    assert sorted(parts) == sorted([list(g.coeffs), list(h.coeffs)])


@pytest.mark.parametrize("p, reduced", [(9949, False), (9967, True)])
def test_residue_cases_straddle_the_unreduced_slot_limit(p, reduced):
    """The packed product reduces the high half and the quotient mod p
    before their products only where no slot width holds
    k(p-1)^2 + k(k-1)^2(p-1)^4; at k = 13 that starts after 9949."""
    K = _RESIDUE_BASES[p, 1]
    u = poly_random_monic(K, 13, random.Random(p))
    assert ExtFieldDesc(K, u)._kron[-1] is reduced


def test_eval_in_starts_at_leading_coefficient():
    K = field_make(11, 2, 0)
    x = K.code((3, 5))
    for coeffs in ((), (7,), (1, 2, 3), (0, 0, 4, 9)):
        f = Poly(K, coeffs)
        assert f.eval_in(K, x) == poly_eval(f, x)
    ext = ExtFieldDesc(K, Poly(K, (K.code((1, 1)), 0, 1)))
    assert Poly(K, ()).eval_in(ext, ext.gen()) == ext.zero
