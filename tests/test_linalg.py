"""The one elimination, the one CRT and the one integer factorizer, each
against brute force on small inputs."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ellog.algebra import factor_modulus, field_make
from ellog.linalg import (InconsistentSystem, MoreRelationsNeeded, Zmod, crt,
                          kernel_mod_prime, kernel_mod_prime_power,
                          solve_affine_mod, solve_linear)

from oracles import kernel_lift_per_step

FIELDS = {
    "F5": (field_make(5, 1), 5),
    "F25": (field_make(5, 2), 25),
    "Z7": (Zmod(7), 7),
    "Z19": (Zmod(19), 19),
}


def _add(F, a, b):
    return F.sub(a, F.neg(b))


def _dot(F, row, x):
    acc = 0
    for a, v in zip(row, x):
        acc = _add(F, acc, F.mul(a, v))
    return acc


@st.composite
def systems(draw, q):
    """A dense system A x = b with at most 3 unknowns, often consistent."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        return A, None, n      # b = A x* for a drawn x*
    return A, [draw(entry) for _ in range(m)], n


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_linear_matches_enumeration(name, data):
    F, q = FIELDS[name]
    A, b, n = data.draw(systems(q))
    if b is None:
        xs = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        b = [_dot(F, row, xs) for row in A]
    before = [list(r) for r in A]
    x0, null = solve_linear(F, A, b, n)
    assert A == before
    brute = {x for x in itertools.product(range(q), repeat=n)
             if all(_dot(F, row, x) == bv for row, bv in zip(A, b))}
    if x0 is None:
        assert null == [] and not brute
        return
    span = set()
    for lams in itertools.product(range(q), repeat=len(null)):
        x = list(x0)
        for lam, v in zip(lams, null):
            x = [_add(F, xi, F.mul(lam, vi)) for xi, vi in zip(x, v)]
        span.add(tuple(x))
    assert span == brute
    # each basis vector owns a free variable: 1 there, 0 in x0 and the others
    for i, v in enumerate(null):
        assert any(v[c] == 1 and x0[c] == 0 and
                   all(w[c] == 0 for j, w in enumerate(null) if j != i)
                   for c in range(n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 15), min_size=1, max_size=3), st.data())
def test_crt_matches_brute_force(moduli, data):
    coprime = []
    for m in moduli:
        if all(math.gcd(m, c) == 1 for c in coprime):
            coprime.append(m)
    residues = [(data.draw(st.integers(-30, 30)), m) for m in coprime]
    total = math.prod(coprime)
    want = next(x for x in range(total)
                if all((x - r) % m == 0 for r, m in residues))
    assert crt(residues) == want


def _trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factor_modulus_matches_trial_division():
    for n in range(2, 5001):
        assert factor_modulus(n) == _trial_division(n), n


@pytest.mark.parametrize("ell,e", [(3, 3), (7, 2)])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_affine_mod_lifts_planted_solution(ell, e, data):
    mod = ell ** e
    n = data.draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(0, mod - 1), min_size=n, max_size=n)
    xs = data.draw(coeffs)
    rows = [{c: a for c, a in enumerate(data.draw(coeffs)) if a}
            for _ in range(data.draw(st.integers(n, n + 2)))]
    rhs = [sum(a * xs[c] for c, a in r.items()) % mod for r in rows]
    sol = solve_affine_mod(rows, rhs, n, mod, ell, e)
    # a unique solution mod ell stays unique through the lift
    if len(kernel_mod_prime(rows, n, ell)) == 0:
        assert sol == xs
    else:
        assert sol is None


@pytest.mark.parametrize("ell,e", [(3, 3), (5, 2), (7, 2)])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_mod_prime_power_lifts_the_kernel(ell, e, data):
    mod = ell ** e
    n = data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(0, mod - 1), min_size=n, max_size=n)
    x = data.draw(entries)
    unit = data.draw(st.integers(0, n - 1))
    x[unit] = data.draw(st.integers(1, ell - 1))
    rows = []
    for _ in range(data.draw(st.integers(max(1, n - 1), n + 1))):
        r = data.draw(entries)
        # the unit coordinate's entry makes the row vanish at x mod ell^e
        r[unit] = 0
        r[unit] = -sum(a * v for a, v in zip(r, x)) * pow(x[unit], -1, mod) % mod
        rows.append({c: a for c, a in enumerate(r) if a})
    kernel = kernel_mod_prime(rows, n, ell)
    if len(kernel) != 1:
        # x is a kernel vector mod ell, so the kernel is never empty
        assert kernel_lift_per_step(rows, n, ell, e) is None
        with pytest.raises(MoreRelationsNeeded):
            kernel_mod_prime_power(rows, n, ell, e)
        return
    vec = kernel_mod_prime_power(rows, n, ell, e)
    assert vec == kernel_lift_per_step(rows, n, ell, e)
    assert all(sum(a * vec[c] for c, a in r.items()) % mod == 0 for r in rows)
    assert [v % ell for v in vec] == kernel[0]


def test_kernel_mod_prime_power_duplicates_and_errors():
    rows = [{0: 1, 1: 17}, {1: 1, 2: 3}]
    v1 = kernel_mod_prime_power(rows, 3, 19, 1)
    v2 = kernel_mod_prime_power(rows + rows, 3, 19, 1)
    assert v1 == v2
    with pytest.raises(MoreRelationsNeeded):
        kernel_mod_prime_power([{0: 1, 1: 1}], 3, 19, 1)
    with pytest.raises(InconsistentSystem):
        kernel_mod_prime_power([{0: 1}, {1: 1}, {2: 1}], 3, 19, 1)


def test_kernel_mod_prime_power_planted_lift():
    # planted solution x = (5, 12, 1) mod 7^2, homogeneous rows around it
    ell, e = 7, 2
    mod = ell ** e
    x = [5, 12, 1]
    rng = random.Random(3)
    rows = []
    for _ in range(8):
        a = [rng.randrange(mod) for _ in range(3)]
        # adjust last coefficient so the row annihilates x (x[2] = 1 helps)
        a[2] = (-(a[0] * x[0] + a[1] * x[1])) % mod
        rows.append({i: v for i, v in enumerate(a) if v})
    vec = kernel_mod_prime_power(rows, 3, ell, e)
    lam = vec[2]  # x normalized so the last coordinate is 1 in the plant
    assert all((vec[i] - lam * x[i]) % mod == 0 for i in range(3))
