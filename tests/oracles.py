"""Independent oracles used by the tests.

Everything here deliberately avoids the library's divisor machinery: the
order of vanishing comes from explicit power-series expansion at each
point, points are found by brute force, and the place of a point is
reconstructed from its Frobenius orbit.
"""

from __future__ import annotations

import random

from ellog.algebra import ExtFieldDesc, FieldDesc, Poly, poly_is_irreducible, poly_random_monic


def extension_of(K: FieldDesc, e: int, seed: int = 0) -> ExtFieldDesc:
    if e == 1:
        return ExtFieldDesc(K, Poly(K, (0, 1)))
    rng = random.Random(seed + 17 * e)
    while True:
        I = poly_random_monic(K, e, rng)
        if poly_is_irreducible(I):
            return ExtFieldDesc(K, I)


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
        dfdx0 = poly_series(L, f.derivative(), x0, 1).c[0]
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
