"""The coefficient-list kernel under `Poly`, on both base representations.

Over a prime base the kernel works on ints with one `% p` per coefficient;
over F_{p^m} it goes through the base field's operations (table lookups
for F_25, plain arithmetic for F_{37^2}, above the table cap).  The
factorization is checked exactly against trial division
(`oracles.poly_factor_brute`).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ellog.algebra import (ExtFieldDesc, Poly, _ext_gcd, _factor_rootless, _norm, _poly,
                           field_make, poly_factor, poly_irreducibles)

from oracles import poly_derivative, poly_factor_brute

_FIELDS = {pm: field_make(*pm, 0)
           for pm in ((5, 1), (11, 1), (5, 2), (11, 2), (37, 2), (1048573, 1))}
_KERNEL_FIELDS = [(11, 1), (5, 2), (37, 2)]


@st.composite
def _polys(draw, count: int, max_degree: int = 8):
    K = _FIELDS[draw(st.sampled_from(_KERNEL_FIELDS))]
    code = st.integers(0, K.q - 1)
    return K, [Poly(K, draw(st.lists(code, max_size=max_degree + 1)))
               for _ in range(count)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_polys(2))
def test_divmod_is_euclidean_division(case):
    K, (a, b) = case
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree() < b.degree()
    assert (a // b, a % b) == (q, r)


@st.composite
def _bezout_inputs(draw):
    """(a c, b c, c) over a kernel field or F_1048573, c of degree <= 3,
    often 1, so that the gcd is a unit in about half the draws."""
    K = _FIELDS[draw(st.sampled_from(_KERNEL_FIELDS + [(1048573, 1)]))]
    code = st.integers(0, K.q - 1)
    a, b = (Poly(K, draw(st.lists(code, max_size=7))) for _ in range(2))
    c = Poly(K, draw(st.lists(code, max_size=3)) + [draw(st.integers(1, K.q - 1))])
    if draw(st.booleans()):
        c = Poly(K, (1,))
    return K, a * c, b * c, c


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_bezout_inputs())
@example((_FIELDS[5, 2], Poly(_FIELDS[5, 2], (3, 7, 1)) * Poly(_FIELDS[5, 2], (4, 1)),
          Poly(_FIELDS[5, 2], (2, 1)) * Poly(_FIELDS[5, 2], (4, 1)), Poly(_FIELDS[5, 2], (4, 1))))
@example((_FIELDS[1048573, 1], Poly(_FIELDS[1048573, 1], (5, 0, 1)) * Poly(_FIELDS[1048573, 1], (7, 3)),
          Poly(_FIELDS[1048573, 1], (1, 2, 3, 4)) * Poly(_FIELDS[1048573, 1], (7, 3)),
          Poly(_FIELDS[1048573, 1], (7, 3))))
def test_ext_gcd_is_a_bezout_identity(case):
    """s a = g mod b with g the monic gcd, a multiple of the common factor
    c, unit or not."""
    K, a, b, c = case
    g, s = (_poly(K, x) for x in _ext_gcd(K, a.coeffs, b.coeffs))
    if b.is_zero():
        assert s * a == g
    else:
        assert ((s * a - g) % b).is_zero()
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.is_monic()
    assert (a % g).is_zero() and (b % g).is_zero()
    assert (g % c).is_zero()
    assert a.gcd(b) == g == b.gcd(a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from([(5, 1), (11, 1), (5, 2), (1048573, 1)]), st.randoms(use_true_random=False))
def test_norm_is_p0_squared_minus_p1_squared_f(pm, rng):
    """`_norm(p0, p1, f)` is p0^2 - p1^2 f, zero operands included, on ints
    over a prime base and on the base field's ops over F_{5^2}."""
    K = _FIELDS[pm]
    p0, p1, f = (Poly(K, [rng.randrange(K.q) for _ in range(rng.randrange(top))])
                 for top in (8, 5, 5))
    assert _poly(K, _norm(K, p0.coeffs, p1.coeffs, f.coeffs)) == p0 * p0 - (p1 * p1) * f


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_polys(3, 5), st.integers(0, 40))
def test_powmod_is_repeated_multiply_and_reduce(case, e):
    """A power modulo m is `ExtFieldDesc.ppow` in F_q[X]/(m), on the packed
    form, for a monic m that is reducible here: the product of two
    polynomials of degree >= 1."""
    K, (a, g, h) = case
    if g.degree() < 1 or h.degree() < 1:
        return
    m = (g * h).monic()
    R = ExtFieldDesc(K, m)
    r = Poly(K, (1,))
    for _ in range(e):
        r = (r * a) % m
    assert R.to_poly(R.unpack(R.ppow(R.pack(R.from_poly(a)), e))) == r


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_polys(2))
def test_derivative_satisfies_leibniz(case):
    K, (a, b) = case
    d = poly_derivative
    assert d(a * b) == d(a) * b + a * d(b)
    assert d(a + b) == d(a) + d(b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_polys(3))
def test_ring_identities(case):
    K, (a, b, c) = case
    assert a - b == -(b - a)
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a.monic().is_monic() and a.monic() == a.scale(K.inv(a.lead()))


def test_poly_times_int_is_refused_over_f25():
    # an int is not a field code: 7 is 2 in F_25, but code 7 is 2 + w
    K = _FIELDS[5, 2]
    f = Poly(K, (1, 1))
    with pytest.raises(TypeError):
        f * 7
    with pytest.raises(TypeError):
        f * -6
    assert f.scale(7 % K.p).coeffs == (2, 2)
    assert f.scale(-6 % K.p).coeffs == (4, 4)


# The largest factor degree each field's inputs are built from: the oracle
# tries every monic polynomial up to that degree, q^d of them.
_FACTOR_TOP = {(5, 1): 4, (11, 1): 4, (5, 2): 3, (11, 2): 2}


@st.composite
def _factor_inputs(draw):
    """c * prod g_i^e_i of degree <= 8, times X^p + a when drawn.

    The g_i are random monic polynomials of degree <= the field's top, so
    repeated and shared factors are common.  X^p + a = (X + a^(1/p))^p is
    one linear factor that the distinct-degree split peels p times; over
    F_11 and F_121 it raises the degree to 11 and more.
    """
    pm = draw(st.sampled_from(sorted(_FACTOR_TOP)))
    K, top = _FIELDS[pm], _FACTOR_TOP[pm]
    code = st.integers(0, K.q - 1)
    f = Poly(K, (draw(st.integers(1, K.q - 1)),))
    budget = 8
    if draw(st.booleans()):
        f = f * Poly(K, (draw(code),) + (0,) * (K.p - 1) + (1,))
        budget -= min(K.p, 8)
    while budget > 0 and draw(st.booleans()):
        d = draw(st.integers(1, min(top, budget)))
        e = draw(st.integers(1, budget // d))
        g = Poly(K, draw(st.lists(code, min_size=d, max_size=d)) + [1])
        for _ in range(e):
            f = f * g
        budget -= d * e
    return f


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_factor_inputs())
@example(Poly(_FIELDS[5, 1], (1, 0, 0, 0, 0, 1)))             # X^5 + 1 = (X + 1)^5
@example(Poly(_FIELDS[5, 1], (2, 0, 0, 0, 0, 2)) * Poly(_FIELDS[5, 1], (1, 1, 1)))
@example(Poly(_FIELDS[11, 2], (3,) + (0,) * 10 + (1,)))        # X^11 + 3 over F_121
def test_poly_factor_matches_trial_division(f):
    assert poly_factor(f) == poly_factor_brute(f)


# The rootless inputs are built from the monic irreducibles of degree 2 to
# the field's top, over a prime base on ints and over F_{5^2} on the base
# field's tables.
_ROOTLESS_GENS = {pm: [g for d in range(2, top + 1)
                       for g in poly_irreducibles(_FIELDS[pm], d)]
                  for pm, top in (((5, 1), 4), ((11, 1), 3), ((5, 2), 2))}


@st.composite
def _rootless_inputs(draw):
    """A product of two to four irreducibles of degree >= 2, of degree 4 to
    10, repeats allowed: the kind of rest `divisor.divisor_of` hands on
    once its roots are divided out."""
    gens = _ROOTLESS_GENS[draw(st.sampled_from(sorted(_ROOTLESS_GENS)))]
    f = Poly(gens[0].field, (1,))
    for g in draw(st.lists(st.sampled_from(gens), min_size=2, max_size=4)):
        if f.degree() + g.degree() <= 10:
            f = f * g
    return f


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_rootless_inputs())
@example(Poly(_FIELDS[5, 1], (2, 0, 1)) * Poly(_FIELDS[5, 1], (3, 0, 1)))   # (X^2+2)(X^2+3)
@example(Poly(_FIELDS[5, 1], (2, 0, 1)) * Poly(_FIELDS[5, 1], (2, 0, 1)))   # (X^2+2)^2
@example(Poly(_FIELDS[11, 1], (4, 1, 0, 1)) * Poly(_FIELDS[11, 1], (1, 0, 1))
         * Poly(_FIELDS[11, 1], (1, 0, 1)))
def test_rootless_factor_matches_trial_division(f):
    """The factorizer's entry for an input with no root in F_q, which skips
    the gcd with X^q - X, factors such inputs, with and without repeated
    factors, as `poly_factor` and trial division do."""
    K = f.field
    assert all(f.eval_in(K, x) != 0 for x in range(K.q))
    want = poly_factor_brute(f)
    assert _factor_rootless(f) == poly_factor(f) == want
    assert all(g.degree() >= 2 for g, _ in want)


# (field, degrees of u) for the inputs with repeated factors; the oracle
# tries every monic polynomial up to degree deg u.
_REPEAT_DEGREES = {(5, 1): (2, 3, 4), (11, 1): (2, 3), (5, 2): (2, 3)}


def _repeat_inputs(K, degrees, pick, least):
    """u^2, u^3 and u^2 v with deg v = deg u - 1 >= least, for u, v from
    `pick(d)`: at u^2 v the rest is u^2 once v is gone, so deg u is half
    of it; and the p-th powers h(X^p) of h = pick(least) and pick(2)."""
    out = []
    for d in degrees:
        u = pick(d)
        out += [u * u, u * u * u]
        if d - 1 >= least:
            out.append(u * u * pick(d - 1))
    for d in (least, 2):
        cs = [0] * (K.p * d + 1)
        cs[::K.p] = pick(d).coeffs
        out.append(Poly(K, cs))
    return out


@pytest.mark.parametrize("pm", sorted(_REPEAT_DEGREES))
def test_factor_counts_repeated_factors(pm):
    """`poly_factor` on u^2, u^3, u^2 v and h(X^p) for seeded monic u, v,
    h, and `_factor_rootless` on the same shapes built from irreducibles of
    degree >= 2, agree with trial division: the distinct-degree split
    counts every repeat by peeling, with no square-free split before it,
    and h(X^p) = h'(X)^p, which that split took by p-th roots."""
    K = _FIELDS[pm]
    rng = random.Random(f"repeats {pm}")

    def any_monic(d):
        return Poly(K, [rng.randrange(K.q) for _ in range(d)] + [1])

    gens = {d: poly_irreducibles(K, d) for d in (2, 3)}

    def rootless(d):
        if d in gens:
            return rng.choice(gens[d])
        return rootless(2) * rootless(d - 2)

    for f in _repeat_inputs(K, _REPEAT_DEGREES[pm], any_monic, 1):
        want = poly_factor_brute(f)
        assert any(mult > 1 for _, mult in want)
        assert poly_factor(f) == want
    for f in _repeat_inputs(K, _REPEAT_DEGREES[pm], rootless, 2):
        want = poly_factor_brute(f)
        assert all(g.degree() >= 2 for g, _ in want)
        assert any(mult > 1 for _, mult in want)
        assert _factor_rootless(f) == poly_factor(f) == want
