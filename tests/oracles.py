"""Independent oracles used by the tests.

Everything here deliberately avoids the library's divisor machinery: the
order of vanishing comes from explicit power-series expansion at each
point, points are found by brute force, and the place of a point is
reconstructed from its Frobenius orbit.

`psi_per_place` is the slow reference for `psi.psi_eval` and for the
verdict of `psi.verify_relation`: it takes the divisor's places from the
library but gives each place its own Mumford reduction and its own Miller
loop over the full exponent N, by default the lcm of #E(F_{q^i}) for
i <= 3 rather than the library's #E(F_q).

`divisor_two_root` is the reference for `divisor.divisor_of`: it takes
both square roots of the cubic modulo each norm factor in `QuotientRing`
and keeps the one where the function vanishes.  `pair_divisors_fresh` is
the memo-free reference for `harvest.pair_divisors`, and `phi_star_fresh`
the table-free reference for `curve.phi_star` that strips (X - x1) by
`Poly.divmod`; the first takes every divisor from `divisor_two_root` and
every pull-back from the second, so neither calls `divisor_of` or
`CurveFunction.make`.  `pollard_rho_dlog`, `smooth_fraction_slow` and
`orbit_canonical` are slow or alternative forms of library routines, kept
only to check them.

`sieve_pair_oracle` builds each sieve family's pair from its generator
triple, the reference for `harvest.reconstruct_pair`, and
`family_params` lists every parameter set a family's sieve visits.

`extend_per_pass` is the former form of `harvest.extend`: every pass
sieves each height-4 group and every height-5 pair afresh, at most four
passes.

`QuotientRing` is the reference residue ring F_q[x]/(u): each sum and
product is formed as a `Poly` and then reduced by `% u`, where
`ExtFieldDesc.mul` packs a prime-field product into one int (or runs the
list kernel over F_{p^m}).  `DigitField` is the reference for the base
field's own ops, on digit vectors with loops of its own.

`kernel_lift_per_step` is the former `linalg.kernel_mod_prime_power`: it
lifts the mod-ell kernel vector one power of ell at a time through its own
augmented system, with an extra row holding the anchor coordinate fixed.

`poly_factor_brute` is the reference for `algebra.poly_factor`: trial
division by every monic polynomial in order of degree and then of
coefficients, with its own division loop on the field's `add`/`mul`, so
it shares nothing with the coefficient-list kernel under `Poly` or with
Cantor-Zassenhaus.

`point_over_place` gives `ord_at_point` a point of a place without
enumerating an extension field, so valuations can be checked at places of
any degree over any base field.

`frobenius_pow`, `phi_of_F`, `model_equations` (with `semaev3_tri`) and
`eval_function_at` are checks of the model that no library path needs:
the Frobenius by plain exponentiation, the model image of F, the three
equations of the image curve and the value of a curve function at a
point.
"""

from __future__ import annotations

import itertools
import math
import random

from ellog.algebra import (ExtFieldDesc, FieldDesc, Poly, _derivative, _ext_gcd, _poly,
                           _sqrt, poly_is_irreducible, poly_random_monic)


def poly_eval(f: Poly, x: int) -> int:
    """f(x) at a code x of f's field, by Horner's rule on the field ops."""
    K = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = K.add(K.mul(acc, x), c)
    return acc


def poly_derivative(f: Poly) -> Poly:
    """The formal derivative of f, by the kernel's `_derivative`."""
    return _poly(f.field, _derivative(f.field, f.coeffs))


def tri_const(K: FieldDesc, c: int):
    """The constant c as a TriPoly."""
    from ellog.curve import TriPoly
    return TriPoly(K, {(0, 0, 0): c} if c else {})


def extension_of(K: FieldDesc, e: int, seed: int = 0) -> ExtFieldDesc:
    if e == 1:
        return ExtFieldDesc(K, Poly(K, (0, 1)))
    rng = random.Random(seed + 17 * e)
    while True:
        I = poly_random_monic(K, e, rng)
        if poly_is_irreducible(I):
            return ExtFieldDesc(K, I)


def _exact_quotient(K: FieldDesc, a: list, g: tuple):
    """a / g for a monic g, or None when g does not divide a."""
    d = len(g) - 1
    if len(a) <= d:
        return None
    a = list(a)
    quot = [0] * (len(a) - d)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        quot[i - d] = c
        if c:
            for j in range(d + 1):
                a[i - d + j] = K.sub(a[i - d + j], K.mul(c, g[j]))
    return None if any(a[:d]) else quot


def poly_factor_brute(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f with multiplicities, by trial division.

    The candidates of each degree d run through the monic polynomials in
    the order of their coefficient tuples, low degree first, which is the
    order `poly_factor` sorts by.  The first candidate that divides the rest
    is irreducible, since every factor of smaller degree is already gone.
    Once deg(rest) < 2d the rest is irreducible too, and its degree is the
    largest.  The cost grows as q^(deg f / 2), so keep the large factors of
    the input few.
    """
    K = f.field
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    lead_inv = K.inv(f.coeffs[-1])
    rest = [K.mul(c, lead_inv) for c in f.coeffs]
    out = []
    d = 1
    while 2 * d <= len(rest) - 1:
        for low in itertools.product(range(K.q), repeat=d):
            g = low + (1,)
            n = 0
            while (quot := _exact_quotient(K, rest, g)) is not None:
                rest, n = quot, n + 1
            if n:
                out.append((Poly(K, g), n))
            if 2 * d > len(rest) - 1:
                break
        d += 1
    if len(rest) > 1:
        out.append((Poly(K, rest), 1))
    return out


class QuotientRing:
    """F_q[x]/(u) with elements as coefficient tuples of length deg u."""

    __slots__ = ("K", "u", "d")

    def __init__(self, K: FieldDesc, u: Poly):
        self.K = K
        self.u = u
        self.d = u.degree()

    def reduce(self, f: Poly):
        r = f % self.u
        return tuple(list(r.coeffs) + [0] * (self.d - len(r.coeffs)))

    @property
    def zero(self):
        return (0,) * self.d

    @property
    def one(self):
        return tuple([1] + [0] * (self.d - 1))

    def add(self, a, b):
        return self.reduce(Poly(self.K, a) + Poly(self.K, b))

    def sub(self, a, b):
        return self.reduce(Poly(self.K, a) - Poly(self.K, b))

    def neg(self, a):
        return self.reduce(-Poly(self.K, a))

    def mul(self, a, b):
        return self.reduce(Poly(self.K, a) * Poly(self.K, b))

    def inv(self, a):
        g, s = _ext_gcd(self.K, Poly(self.K, a).coeffs, self.u.coeffs)
        if len(g) != 1:
            raise ZeroDivisionError("non-invertible residue")
        return self.reduce(Poly(self.K, s))

    def pow_(self, a, e: int):
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def eq(self, a, b):
        return tuple(a) == tuple(b)

    def rand(self, rng):
        return tuple(rng.randrange(self.K.q) for _ in range(self.d))

    def is_square(self, a) -> bool:
        if not any(a):
            return True
        order = self.K.q ** self.d
        return self.eq(self.pow_(a, (order - 1) // 2), self.one)

    def sqrt(self, a):
        return _sqrt(self, a, self.K.q ** self.d)


class DigitField:
    """F_{p^m} = F_p[w]/(modulus) of a FieldDesc, on base-p digit vectors
    with loops of its own: schoolbook products reduced by the modulus one
    top digit at a time, and the inverse found by trying every code.  The
    reference for `FieldDesc`, which above its table cap runs the list
    kernel on the same vectors and below it reads tables that kernel
    filled."""

    def __init__(self, K: FieldDesc):
        self.p, self.m, self.q = K.p, K.m, K.q
        self.modulus = K.modulus

    def vec(self, c: int) -> list:
        return [c // self.p ** i % self.p for i in range(self.m)]

    def code(self, v) -> int:
        return sum(d % self.p * self.p ** i for i, d in enumerate(v))

    def add(self, a: int, b: int) -> int:
        return self.code([x + y for x, y in zip(self.vec(a), self.vec(b))])

    def sub(self, a: int, b: int) -> int:
        return self.code([x - y for x, y in zip(self.vec(a), self.vec(b))])

    def neg(self, a: int) -> int:
        return self.code([-x for x in self.vec(a)])

    def mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.vec(a)):
            for j, y in enumerate(self.vec(b)):
                prod[i + j] += x * y
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top] % p
            for j in range(m + 1):
                prod[top - m + j] -= c * self.modulus[j]
        return self.code(prod[:m])

    def pow_(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def inv(self, a: int) -> int:
        return next(b for b in range(self.q) if self.mul(a, b) == 1)


def curve_points_over(curve, L: ExtFieldDesc):
    """All affine points of the curve with coordinates in L (brute force)."""
    sq = {}
    elems = _all_elements(L)
    for y in elems:
        sq.setdefault(L.mul(y, y), []).append(y)
    pts = []
    for x in elems:
        rhs = curve.rhs_in(L, x)
        for y in sq.get(rhs, ()):
            pts.append((x, y))
    return pts


def _all_elements(L: ExtFieldDesc):
    q = L.base.q
    total = q ** L.k
    out = []
    for code in range(total):
        v = []
        c = code
        for _ in range(L.k):
            v.append(c % q)
            c //= q
        out.append(tuple(v))
    return out


class Series:
    """Truncated power series over an extension field (dense list)."""

    def __init__(self, L, coeffs, prec):
        self.L = L
        self.prec = prec
        cs = list(coeffs)[:prec]
        cs += [L.zero] * (prec - len(cs))
        self.c = cs

    @staticmethod
    def const(L, v, prec):
        return Series(L, [v], prec)

    def add(self, other):
        return Series(self.L, [self.L.add(a, b) for a, b in zip(self.c, other.c)], self.prec)

    def mul(self, other):
        L = self.L
        out = [L.zero] * self.prec
        for i, a in enumerate(self.c):
            if not any(a):
                continue
            for j, b in enumerate(other.c):
                if i + j >= self.prec:
                    break
                if any(b):
                    out[i + j] = L.add(out[i + j], L.mul(a, b))
        return Series(L, out, self.prec)

    def scale(self, v):
        L = self.L
        return Series(L, [L.mul(a, v) for a in self.c], self.prec)

    def valuation(self):
        for i, a in enumerate(self.c):
            if any(a):
                return i
        return None  # indistinguishable from zero at this precision


def poly_series(L, f: Poly, x0, prec) -> Series:
    """f(x0 + t) as a series in t."""
    # Horner from the top: s = s * (x0 + t) + c_i
    s = Series.const(L, L.zero, prec)
    xt = Series(L, [x0, L.one], prec)
    for c in reversed(f.coeffs):
        s = s.mul(xt).add(Series.const(L, L.embed(c), prec))
    return s


def ord_at_point(curve, L, fun, x0, y0, prec: int = 24):
    """Order of vanishing of (n0 + n1 y)/(x - x1)^e at the affine point.

    Expands along the local uniformizer: x - x0 where y0 != 0, y where
    y0 = 0 (the tangent there is vertical).
    """
    f = curve.rhs_poly()
    if any(y0):
        # y(t) = y0 + ...: solve y^2 = f(x0 + t) by Newton iteration on series
        fx = poly_series(L, f, x0, prec)
        y = Series.const(L, y0, prec)
        inv2y0 = L.inv(L.mul(L.embed(2), y0))
        for _ in range(prec + 2):
            err = fx.add(y.mul(y).scale(L.neg(L.one)))
            if err.valuation() is None:
                break
            # y += err / (2 y0) * (correction at lowest order)
            v = err.valuation()
            corr = [L.zero] * prec
            corr[v] = L.mul(err.c[v], inv2y0)
            y = y.add(Series(L, corr, prec))
        xs = Series(L, [x0, L.one], prec)
    else:
        # uniformizer t = y: x(t) = x0 + ..., f(x(t)) = t^2
        xs = Series.const(L, x0, prec)
        dfdx0 = poly_series(L, poly_derivative(f), x0, 1).c[0]
        invd = L.inv(dfdx0)
        t2 = [L.zero] * prec
        if prec > 2:
            t2[2] = L.one
        t2 = Series(L, t2, prec)
        for _ in range(prec + 2):
            err = t2.add(poly_series_compose(L, f, xs, prec).scale(L.neg(L.one)))
            v = err.valuation()
            if v is None:
                break
            corr = [L.zero] * prec
            corr[v] = L.mul(err.c[v], invd)
            xs = xs.add(Series(L, corr, prec))
        y = Series(L, [L.zero, L.one], prec)
    num = poly_series_compose(L, fun.n0, xs, prec).add(
        poly_series_compose(L, fun.n1, xs, prec).mul(y))
    nv = num.valuation()
    if nv is None:
        raise RuntimeError("series precision exhausted")
    den = xs.add(Series.const(L, L.neg(L.embed(fun.x1)), prec))
    dv = den.valuation()
    if dv is None:
        raise RuntimeError("denominator vanishes identically")
    return nv - fun.e * dv


def point_over_place(curve, place):
    """(L, x0, y0): a point of a finite place in its residue field L, for
    `ord_at_point`.  A split or ramified place over u is read in
    F_q[x]/(u) itself, at x0 = x and y0 = v; an inert one in
    L = F_q[X]/(u(X^2 - c)) for the first c that makes that modulus
    irreducible, at x0 = X^2 - c and a y0 with y0^2 = f(x0) in L."""
    from ellog.divisor import INERT
    K = curve.field
    u = Poly(K, place.u)
    if place.kind != INERT:
        L = ExtFieldDesc(K, u)
        return L, L.from_poly(Poly(K, (0, 1))), L.from_poly(Poly(K, place.v))
    X2 = Poly(K, (0, 0, 1))
    for c in range(K.q):
        J = Poly(K, ())
        for a in reversed(u.coeffs):
            J = J * (X2 - Poly(K, (c,))) + Poly(K, (a,))
        if poly_is_irreducible(J):
            L = ExtFieldDesc(K, J)
            x0 = L.from_poly(X2 - Poly(K, (c,)))
            return L, x0, L.sqrt(curve.rhs_in(L, x0))
    raise AssertionError("no c makes u(X^2 - c) irreducible")


def poly_series_compose(L, f: Poly, xs: Series, prec) -> Series:
    s = Series.const(L, L.zero, prec)
    for c in reversed(f.coeffs):
        s = s.mul(xs).add(Series.const(L, L.embed(c), prec))
    return s


def place_of_extension_point(curve, L: ExtFieldDesc, x0, y0):
    """Reconstruct the library Place containing an extension point."""
    from ellog.divisor import Place, SPLIT, RAMIFIED, INERT
    K = curve.field
    # minimal polynomial of x0 over K from its Frobenius orbit
    conj = [x0]
    cur = L.frobenius(x0, 1)
    while not L.eq(cur, x0):
        conj.append(cur)
        cur = L.frobenius(cur, 1)
    # u = prod (X - c): coefficients must land in the base field
    coeffs = [L.one]
    for c in conj:
        new = [L.zero] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            new[i + 1] = L.add(new[i + 1], a)
            new[i] = L.add(new[i], L.mul(a, L.neg(c)))
        coeffs = new
    assert all(L.is_base(a) for a in coeffs)
    u = Poly(K, [a[0] for a in coeffs])
    d = u.degree()
    if not any(y0):
        return Place(RAMIFIED, u.coeffs, ())
    # is y0 a polynomial in x0 over K of degree < d?
    rows = []
    pw = L.one
    for _ in range(d):
        rows.append(list(pw))
        pw = L.mul(pw, x0)
    from ellog.linalg import solve_linear
    A = [[rows[i][j] for i in range(d)] for j in range(L.k)]
    sol, _ = solve_linear(K, A, list(y0), d)
    if sol is None:
        return Place(INERT, u.coeffs, ())
    v = Poly(K, sol) % u
    return Place(SPLIT, u.coeffs, tuple(v.coeffs))


# ---------------------------------------------------------------------------
# psi, one place at a time
# ---------------------------------------------------------------------------

class _PsiHit(Exception):
    """An intermediate function vanished at F."""


def _nonzero(v):
    if not any(v):
        raise _PsiHit
    return v


def _horner(ext, f: Poly, theta):
    acc = ext.zero
    for c in reversed(f.coeffs):
        acc = ext.add(ext.mul(acc, theta), ext.embed(c))
    return acc


def _reduce_place(curve, u: Poly, v: Poly, ext, theta, tau):
    """Mumford reduction of (u, v) to (T, g(F)), T None for the trivial class."""
    from ellog.curve import Point
    K = curve.field
    f = curve.rhs_poly()
    val = ext.one
    while u.degree() >= 2:
        quot, rem = (v * v - f).divmod(u)
        assert rem.is_zero(), "pair (u, v) is not semi-reduced"
        w = quot.monic()
        num = _nonzero(ext.sub(tau, _horner(ext, v, theta)))
        val = ext.mul(val, ext.div(num, _horner(ext, w, theta)))
        u, v = w, (-v) % w if not v.is_zero() else v % w
    if u.degree() <= 0:
        return None, val
    x0 = K.neg(u.coeffs[0])
    y0 = poly_eval(v, x0)
    return Point(curve, K, x0, y0), val


def _line_over_vertical(curve, R, S, ext, theta, tau):
    """(l_{R,S}(F) / v_{R+S}(F), R + S)."""
    from ellog.curve import Point, point_add
    K = curve.field
    if R.inf:
        return ext.one, S
    if S.inf:
        return ext.one, R
    if R.x == S.x and R.y == K.neg(S.y):
        return _nonzero(ext.sub(theta, ext.embed(R.x))), Point.infinity(curve)
    if R.x == S.x:
        lam = K.div(K.add(K.mul(3 % K.p, K.mul(R.x, R.x)), curve.a), K.mul(2, R.y))
    else:
        lam = K.div(K.sub(S.y, R.y), K.sub(S.x, R.x))
    T = point_add(R, S)
    line = ext.sub(ext.sub(tau, ext.embed(R.y)),
                   ext.mul(ext.embed(lam), ext.sub(theta, ext.embed(R.x))))
    vert = ext.sub(theta, ext.embed(T.x))
    return ext.div(_nonzero(line), _nonzero(vert)), T


def _place_value(basis, place, N: int):
    """f(F) for f with divisor N * ((place) - deg(place)(O)): its own Miller loop."""
    from ellog.divisor import INERT, SPLIT
    curve, ext, theta, tau = basis.curve, basis.ext, basis.theta, basis.tau
    K = curve.field
    u = Poly(K, place.u)
    if place.kind == INERT:
        return ext.pow_(_nonzero(_horner(ext, u, theta)), N)
    v = Poly(K, place.v) if place.kind == SPLIT else Poly(K, ())
    T, gval = _reduce_place(curve, u, v, ext, theta, tau)
    acc = ext.pow_(gval, N)
    if T is None:
        return acc
    f, R = ext.one, T
    for bit in bin(N)[3:]:
        fac, R = _line_over_vertical(curve, R, R, ext, theta, tau)
        f = ext.mul(ext.mul(f, f), fac)
        if bit == "1":
            fac, R = _line_over_vertical(curve, R, T, ext, theta, tau)
            f = ext.mul(f, fac)
    assert R.inf, "Miller loop did not close at O"
    return ext.mul(acc, f)


def psi_per_place(D, basis, exponent: int | None = None, _depth: int = 0):
    """psi(D) as the product over places of f_P(F)^(n_P), then one N-th root.

    Each place is Mumford-reduced to a rational point T and gets its own
    Miller loop for N((T) - (O)).  When an intermediate function meets F,
    D is slid by the principal divisor of a vertical line, as in the library.
    """
    from ellog.divisor import Divisor, PLACE_AT_INFINITY, RAMIFIED, places_over
    from ellog.psi import PsiValue
    ext, curve = basis.ext, basis.curve
    N = (math.lcm(*(curve.order_over(i) for i in (1, 2, 3)))
         if exponent is None else exponent)
    try:
        acc = ext.one
        for place, n in D.finite_places():
            acc = ext.mul(acc, ext.pow_(_place_value(basis, place, N), n))
        return PsiValue(ext, acc).pow(pow(N, -1, basis.M))
    except _PsiHit:
        assert _depth < 4, "psi support keeps meeting F"
        K = basis.curve.field
        x0 = (7 * _depth + 3) % K.q
        shift = Divisor()
        for p in places_over(basis.curve, Poly(K, (K.neg(x0), 1))):
            shift.add_place(p, 2 if p.kind == RAMIFIED else 1)
        shift.add_place(PLACE_AT_INFINITY, -2)
        line = PsiValue(ext, ext.sub(basis.theta, ext.embed(x0)))
        return psi_per_place(D + shift, basis, exponent, _depth + 1).div(line)


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
    """The places above u, with their ordinates from `quotient_ring_ordinate`."""
    from ellog.divisor import INERT, RAMIFIED, SPLIT, Place
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
    from ellog.algebra import poly_factor
    from ellog.divisor import PLACE_AT_INFINITY, RAMIFIED, SPLIT, Divisor
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


def pair_divisors_fresh(basis, A, B):
    """`harvest.pair_divisors` with no memo: every left factor and the
    bracket pulled back afresh by `phi_star_fresh` and given its divisor by
    `divisor_two_root`."""
    from ellog.curve import bracket
    from ellog.harvest import DegeneratePair, PairResult
    if A == B:
        raise DegeneratePair("A = B")
    K = basis.curve.field
    td = basis.td
    curve = basis.curve
    lefts = []
    for aprime in range(K.q):
        f = phi_star_fresh(A - B.scale(aprime), td)
        if f.is_zero():
            raise DegeneratePair("left factor pulls back to zero")
        lefts.append(divisor_two_root(f, curve))
    fB = phi_star_fresh(B, td)
    if fB.is_zero():
        raise DegeneratePair("B pulls back to zero")
    lefts.append(divisor_two_root(fB, curve))
    br = bracket(A, B)
    if br.is_zero():
        raise DegeneratePair("bracket vanishes identically")
    fR = phi_star_fresh(br, td)
    if fR.is_zero():
        raise DegeneratePair("bracket pulls back to zero")
    return PairResult(lefts, divisor_two_root(fR, curve))


def phi_star_fresh(f, td):
    """`curve.phi_star` with no table: every term's image built from `Poly`
    products and padded to the common power of (X - x1), as the library did
    before `TorsionData.pullbacks`; each common (X - x1) is struck out by
    `Poly.divmod`, as `CurveFunction.make` did before its synthetic
    division."""
    from ellog.curve import CurveFunction
    curve = td.curve
    K = curve.field
    x1 = td.xs[1]
    y1 = td.ys[1]
    a, b = curve.a, curve.b
    quad = Poly(K, (K.add(K.mul(a, x1), K.mul(2, b)), K.add(a, K.mul(x1, x1)), x1))
    two_y1 = K.mul(2, y1)
    NU = (quad, Poly(K, (two_y1,)))
    NW = (quad, Poly(K, (K.neg(two_y1),)))
    fpoly = curve.rhs_poly()

    def pair_mul(p, q):
        return (p[0] * q[0] + (p[1] * q[1]) * fpoly, p[0] * q[1] + p[1] * q[0])

    if f.is_zero():
        return CurveFunction(curve, x1, Poly(K, ()), Poly(K, ()), 0)
    e_common = max(2 * (i + l) for (i, j, l) in f.terms)
    tot0, tot1 = Poly(K, ()), Poly(K, ())
    lin = Poly(K, (K.neg(x1), 1))
    for (i, j, l), c in f.terms.items():
        term = (Poly(K, (c,)), Poly(K, ()))
        for _ in range(i):
            term = pair_mul(term, NU)
        for _ in range(l):
            term = pair_mul(term, NW)
        for _ in range(j):
            term = (term[0].shift(1), term[1].shift(1))
        for _ in range(e_common - 2 * (i + l)):
            term = (term[0] * lin, term[1] * lin)
        tot0 = tot0 + term[0]
        tot1 = tot1 + term[1]
    n0, n1, e = tot0, tot1, e_common
    while e > 0 and not (n0.is_zero() and n1.is_zero()):
        q0, r0 = n0.divmod(lin)
        if not r0.is_zero():
            break
        if n1.is_zero():
            n0, e = q0, e - 1
            continue
        q1, r1 = n1.divmod(lin)
        if not r1.is_zero():
            break
        n0, n1, e = q0, q1, e - 1
    return CurveFunction(curve, x1, n0, n1, e)


def pollard_rho_dlog(h, g, ell: int, seed: int = 0):
    """Pollard rho in the order-ell subgroup (g of order ell, h in <g>)."""
    from ellog.solve import DescentFailed
    rng = random.Random(seed)
    for _ in range(64):
        a0, b0 = rng.randrange(ell), rng.randrange(ell)

        def step(state):
            x, a, b = state
            sel = hash(x.rep) % 3
            if sel == 0:
                return x.mul(g), (a + 1) % ell, b
            if sel == 1:
                return x.mul(h), a, (b + 1) % ell
            return x.mul(x), (a * 2) % ell, (b * 2) % ell

        x = g.pow(a0).mul(h.pow(b0))
        slow = (x, a0, b0)
        fast = step(slow)
        for _ in range(8 * ell + 64):
            if slow[0] == fast[0]:
                break
            slow = step(slow)
            fast = step(step(fast))
        else:
            continue
        a1, b1, a2, b2 = slow[1], slow[2], fast[1], fast[2]
        db = (b1 - b2) % ell
        if db == 0:
            continue
        return (a2 - a1) * pow(db, -1, ell) % ell
    raise DescentFailed("rho failed to find a collision")


def smooth_fraction_slow(field: FieldDesc, degree: int, bound: int,
                         samples: int, seed: int) -> float:
    """Reference for `stats.smooth_fraction` through full factorization."""
    from ellog.algebra import poly_factor
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        f = poly_random_monic(field, degree, rng)
        if all(g.degree() <= bound for g, _ in poly_factor(f)):
            hits += 1
    return hits / samples


def orbit_canonical(place, td):
    """Canonical orbit representative and the shift from it back to place.

    rep is the lexicographically smallest encoding among the finite
    translates; shift s satisfies place = translate_place(rep, s).  The
    orbit of a torsion place walks through O; the gap slot is skipped as a
    candidate but still counts as one step.
    """
    from ellog.divisor import orbit_places
    orbit = orbit_places(place, td)
    _, rep_i = min((p.sort_key, i) for i, p in enumerate(orbit) if p is not None)
    return orbit[rep_i], (-rep_i) % len(orbit)


def _group_pass(basis, fb, mode, head, logs, prime_powers, relations):
    """One height-4 group: sieve, solve its rows, then mine free logs."""
    from ellog.harvest import (DegeneratePair, Relation,
                               _solve_rows_for_new_cols, reconstruct_pair,
                               relation_from_pair)
    K = basis.curve.field
    M = basis.M
    rows = []
    failures = []
    for alpha in range(K.q):
        for beta in range(K.q):
            params = head + (alpha, beta)
            A, B = reconstruct_pair(basis, mode, params)
            try:
                rel, pr = relation_from_pair(basis, fb, A, B, mode, params)
            except DegeneratePair:
                continue
            if rel is not None:
                rows.append(rel)
            else:
                deg4_right = [(p, n) for p, n in pr.right_divisor.coeffs.items()
                              if n > 0 and p.degree == 4]
                if len(deg4_right) == 1 and deg4_right[0][1] == 1 and all(
                        p.degree <= 4 for p, n in pr.right_divisor.coeffs.items() if n > 0):
                    failures.append((pr, params))
    logs.update(_solve_rows_for_new_cols(basis, rows, logs, prime_powers))
    relations.extend(rows)
    for pr, params in failures:
        row = fb.row_of_divisor(pr.left_total() - pr.right_divisor)
        unknown = [c for c in row if c not in logs]
        if len(unknown) != 1:
            continue
        col = unknown[0]
        rest = sum(row[c] * logs[c] for c in row if c != col) % M
        if math.gcd(row[col], M) != 1:
            continue
        logs[col] = -rest * pow(row[col], -1, M) % M
        relations.append(Relation(mode + "_free", params, row))


def _h4_pass(basis, fb, logs, prime_powers, relations):
    from ellog.harvest import (GroupDegenerate, k1k2_coefficients,
                               k1k2_group_basis)
    fb.extend_to(4)
    _group_pass(basis, fb, "special_group", (), logs, prime_powers, relations)
    K = basis.curve.field
    c1, c2, c3, _ = k1k2_coefficients(basis)
    if c2 and c3:
        excluded = K.neg(K.div(c2, c3))
        for k1 in range(K.q):
            if k1 == 0 or k1 == excluded:
                continue
            try:
                k2 = k1k2_group_basis(basis, k1)
            except GroupDegenerate:
                continue
            _group_pass(basis, fb, "k1k2", (k1, k2), logs, prime_powers,
                        relations)


def _h5_pass(basis, fb, logs, relations):
    from ellog.harvest import (DegeneratePair, Relation, pair_divisors,
                               reconstruct_pair)
    fb.extend_to(5)
    K = basis.curve.field
    M = basis.M
    for a_u in range(K.q):
        for a_1 in range(K.q):
            for b_v in range(K.q):
                for b_1 in range(K.q):
                    A, B = reconstruct_pair(basis, "height5",
                                            (a_u, a_1, b_v, b_1))
                    if A == B:
                        continue
                    try:
                        pr = pair_divisors(basis, A, B)
                    except DegeneratePair:
                        continue
                    h5_places = [(p, n) for p, n in pr.right_divisor.coeffs.items()
                                 if n > 0 and p.degree == 5]
                    if not h5_places:
                        continue
                    if len(h5_places) > 1 or h5_places[0][1] != 1:
                        continue
                    if any(p.degree > 5 for p, n in pr.right_divisor.coeffs.items() if n > 0):
                        continue
                    col, s, d = fb.place_map[h5_places[0][0]]
                    if col in logs:
                        continue
                    row = fb.row_of_divisor(pr.left_total() - pr.right_divisor)
                    unknown = [c for c in row if c not in logs]
                    if unknown != [col]:
                        continue
                    rest = sum(row[c] * logs[c] for c in row if c != col) % M
                    if math.gcd(row[col], M) != 1:
                        continue
                    logs[col] = -rest * pow(row[col], -1, M) % M
                    relations.append(Relation("height5", (a_u, a_1, b_v, b_1), row))


def extend_per_pass(basis, fb, logs, prime_powers, max_passes: int = 4):
    """Height-4 and height-5 extension, every pass sieving afresh.

    Updates `logs` in place.  Returns (relations, passes): the relations
    deduplicated by (mode, params), first seen kept, and the number of
    passes run, the last of which added no log unless the cap stopped it.
    """
    relations, passes = [], 0
    for _ in range(max_passes):
        passes += 1
        known = len(logs)
        _h4_pass(basis, fb, logs, prime_powers, relations)
        _h5_pass(basis, fb, logs, relations)
        if len(logs) == known:
            break
    seen, out = set(), []
    for rel in relations:
        if (rel.mode, rel.params) not in seen:
            seen.add((rel.mode, rel.params))
            out.append(rel)
    return out, passes


def sieve_pair_oracle(basis, mode, params):
    """The pair (A, B) of a sieve family, from its generator triple.

    The reference for `harvest.reconstruct_pair`: each family is a triple
    (g1, g2, g3) of `TriPoly`s built by arithmetic on U and V, as the
    sieves once built them, and a pair is a combination of the triple.
    k2 is taken as given.
    """
    from ellog.curve import TriPoly
    K = basis.curve.field
    U, V = TriPoly.var(K, "U"), TriPoly.var(K, "V")
    one = tri_const(K, 1)
    UV = U * V
    if mode == "core":
        alpha, beta, gamma = params
        g1 = U - one.scale(basis.td.xs[2])
        g2 = V - one.scale(basis.td.xs[3])
        g3 = g1 * g2
        return g1 + g3.scale(alpha), g1 + g2.scale(beta) + g3.scale(gamma)
    if mode == "m1":
        u, v, w, a, b, c = params
        return (UV + U.scale(a) + V.scale(b) + one.scale(c),
                U.scale(u) + V.scale(v) + one.scale(w))
    if mode == "height5":
        a_u, a_1, b_v, b_1 = params
        return UV + U.scale(a_u) + one.scale(a_1), UV + V.scale(b_v) + one.scale(b_1)
    if mode == "special_group":
        (g1, g2, g3), (alpha, beta) = (UV, U + V, one), params
    else:
        assert mode == "k1k2"
        k1, k2, alpha, beta = params
        g1, g2, g3 = UV + U.scale(k1), UV + V.scale(k2), one
    return g1 + g2.scale(alpha), g1 + g3.scale(beta)


def m1_params(q):
    """The (u, v, w, a, b, c) of every pencil `harvest_m1` visits."""
    b_reps = ([(1, b, c) for b in range(q) for c in range(q)]
              + [(0, 1, c) for c in range(q)] + [(0, 0, 1)])
    return [(u, v, w, a, b, c) for u, v, w in b_reps
            for a in range(q) for b in range(q) for c in range(q)
            if not ((u == 1 and a) or (u == 0 and v == 1 and b)
                    or (u == 0 and v == 0 and c))]


def family_params(basis, mode):
    """Every parameter set the sieve of `mode` visits on `basis`."""
    from ellog.harvest import GroupDegenerate, k1k2_group_basis
    q = basis.q
    if mode == "m1":
        return m1_params(q)
    if mode == "k1k2":
        out = []
        for k1 in range(q):
            try:
                k2 = k1k2_group_basis(basis, k1)
            except GroupDegenerate:
                continue
            out.extend((k1, k2, a, b) for a in range(q) for b in range(q))
        return out
    width = {"core": 3, "special_group": 2, "height5": 4}[mode]
    return list(itertools.product(range(q), repeat=width))


def kernel_lift_per_step(rows, ncols, ell, e):
    """Kernel vector mod ell^e, or None unless the mod-ell kernel is a line."""
    from ellog.linalg import (InconsistentSystem, Zmod, _dense,
                              kernel_mod_prime, solve_linear)
    basis = kernel_mod_prime(rows, ncols, ell)
    if len(basis) != 1:
        return None
    vec = basis[0]
    modk, target = ell, ell ** e
    anchor = next(c for c in range(ncols) if vec[c])
    anchor_row = [0] * ncols
    anchor_row[anchor] = 1
    aug = _dense(rows, ncols, ell) + [anchor_row]
    while modk < target:
        # A (vec + modk w) = 0 mod modk ell, given A vec = 0 mod modk
        resid = []
        for row in rows:
            acc = sum(x * vec[c] for c, x in row.items())
            assert acc % modk == 0
            resid.append(-(acc // modk) % ell)
        w, _ = solve_linear(Zmod(ell), aug, resid + [0], ncols)
        if w is None:
            raise InconsistentSystem("inconsistent lift system")
        vec = [(v + modk * ww) % target for v, ww in zip(vec, w)]
        modk *= ell
    return vec


# ---------------------------------------------------------------------------
# the model and its image of F, for checks only
# ---------------------------------------------------------------------------

def frobenius_pow(ext: ExtFieldDesc, a, times: int = 1):
    """a^(q^times) by plain exponentiation, the reference for
    `ExtFieldDesc.frobenius`, which uses the q-power basis images."""
    return ext.pow_(a, ext.base.q ** (times % ext.k))


def phi_of_F(basis):
    """The model image of F: (theta^(q^(k-1)), theta, theta^q)."""
    ext = basis.ext
    return (ext.frobenius(basis.theta, basis.k - 1),
            basis.theta,
            ext.frobenius(basis.theta, 1))


def semaev3_tri(curve, x_list):
    """S_3 with each slot a variable name or a constant code."""
    from ellog.curve import TriPoly
    K = curve.field
    vals = []
    for s in x_list:
        vals.append(TriPoly.var(K, s) if isinstance(s, str) else tri_const(K, s))
    x1, x2, x3 = vals
    s1 = x1 + x2 + x3
    s2 = x1 * x2 + x1 * x3 + x2 * x3
    s3 = x1 * x2 * x3
    t = s2 - tri_const(K, curve.a)
    return (s1 * (s3 + tri_const(K, curve.b))).scale(4 % K.p) - t * t


def model_equations(td):
    """The three defining equations of the image curve.

    Returns (S_3(U,V,x1), divided difference of S_3(U,V,x1) - S_3(V,W,x1)
    by U - W, S_3(U,W,x2)).
    """
    from ellog.curve import TriPoly
    curve = td.curve
    K = curve.field
    e1 = semaev3_tri(curve, ("U", "V", td.xs[1]))
    e3 = semaev3_tri(curve, ("U", "W", td.xs[2]))
    # e1 - e1[U->W] is divisible by U - W; divide monomial-wise using
    # U^a - W^a = (U - W) * sum U^i W^(a-1-i)
    diff_terms: dict[tuple, int] = {}
    for (i, j, l), c in e1.terms.items():
        if l:
            raise AssertionError("unexpected W in S_3(U,V,x1)")
        for t in range(i):
            mono = (t, j, i - 1 - t)
            cur = diff_terms.get(mono, 0)
            c2 = K.add(cur, c)
            if c2:
                diff_terms[mono] = c2
            else:
                diff_terms.pop(mono, None)
    e2 = TriPoly(K, diff_terms)
    return e1, e2, e3


def eval_function_at(fun, dom, x, y):
    """Value of the curve function (n0 + n1 y)/(x - x1)^e at an affine point
    in any domain (raises on a pole)."""
    num = dom.add(fun.n0.eval_in(dom, x), dom.mul(fun.n1.eval_in(dom, x), y))
    if fun.e == 0:
        return num
    den = dom.sub(x, dom.embed(fun.x1))
    d = den
    for _ in range(fun.e - 1):
        d = dom.mul(d, den)
    return dom.div(num, d)
