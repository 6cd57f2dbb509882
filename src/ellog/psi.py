"""Evaluation of degree-0 divisors in F_{q^k} / F_q^*.

For a degree-0 divisor D supported on places of E over F_q, pick an exponent
N that is a multiple of #E(F_q) and coprime to M = (q^k - 1)/(q - 1).  Then
N*D is principal, the function f with divisor N*D has F_q coefficients, and

    psi(D) = class of f(F)^(1/N),

where F = (theta, tau) is the distinguished point with coordinates in the
target field, and the N-th root is the unique one in the order-M quotient
group.  f(F) is never built symbolically: each place is reduced to a
rational point by Cantor-style Mumford reduction with the intermediate
chord and vertical functions evaluated at F on the fly, and the remaining
rational multiple is handled by Miller's double-and-add.

Constants in F_q^* are dropped freely throughout: they vanish in the
quotient group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .algebra import ExtFieldDesc, Poly
from .curve import Curve, Point, point_add, point_neg
from .divisor import (Divisor, INERT, INFINITY, PLACE_AT_INFINITY, Place,
                      RAMIFIED, SPLIT, elementary_divisor, place_of_point,
                      places_over)


class NdNotInvertible(ValueError):
    pass


class SupportHitsF(RuntimeError):
    pass


@dataclass(frozen=True)
class NdTable:
    """Curve orders over F_{q^i}, i <= D, and the evaluation exponent data."""

    D: int
    N: tuple[int, ...]       # N[i-1] = #E(F_{q^i})
    lcm: int
    M: int
    inv_ok: bool
    inv: int | None

    def order_over(self, i: int) -> int:
        return self.N[i - 1]


def nd_build(curve: Curve, k: int, D: int) -> NdTable:
    """Orders from the trace recurrence, their lcm, and its invertibility mod M."""
    if D < 1:
        raise ValueError("D must be >= 1")
    q = curve.field.q
    M = (q ** k - 1) // (q - 1)
    orders = tuple(curve.order_over(i) for i in range(1, D + 1))
    l = lcm(*orders) if len(orders) > 1 else orders[0]
    ok = gcd(l, M) == 1
    return NdTable(D, orders, l, M, ok, pow(l, -1, M) if ok else None)


class PsiValue:
    """Canonical coset representative in F_{q^k}^* / F_q^*.

    The representative is scaled so that its lowest-index nonzero coordinate
    equals 1, which makes equality and hashing structural.
    """

    __slots__ = ("ext", "rep")

    def __init__(self, ext: ExtFieldDesc, value):
        if not any(value):
            raise ZeroDivisionError("zero has no class in the unit quotient")
        K = ext.base
        lead = next(c for c in value if c)
        if lead != 1:
            inv = K.inv(lead)
            value = tuple(K.mul(c, inv) for c in value)
        self.ext = ext
        self.rep = tuple(value)

    def __eq__(self, other):
        return isinstance(other, PsiValue) and self.ext == other.ext and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def mul(self, other: "PsiValue") -> "PsiValue":
        return PsiValue(self.ext, self.ext.mul(self.rep, other.rep))

    def div(self, other: "PsiValue") -> "PsiValue":
        return PsiValue(self.ext, self.ext.div(self.rep, other.rep))

    def pow(self, e: int) -> "PsiValue":
        return PsiValue(self.ext, self.ext.pow_(self.rep, e))

    def frob(self, times: int = 1) -> "PsiValue":
        return PsiValue(self.ext, self.ext.frobenius(self.rep, times))

    def is_one(self) -> bool:
        return self.rep == self.ext.one

    def __repr__(self):
        return f"PsiValue[{self.ext.enc(self.rep)}]"


# ---------------------------------------------------------------------------
# internals: value-tracked Mumford reduction and Miller loops
# ---------------------------------------------------------------------------

class _Hit(Exception):
    """An intermediate function vanished at F; caller re-randomizes."""


def _checked(v, ext):
    if not any(v):
        raise _Hit
    return v


def _mumford_reduce(curve: Curve, u: Poly, v: Poly, ext: ExtFieldDesc, theta, tau):
    """Reduce the semi-reduced pair (u, v) to a rational point.

    Returns (T, val) with  D(u,v) - deg(u)(O) = [(T) - (O)] + Xi(g)  and
    val = g(F) up to F_q^*; T is None for the trivial class.
    """
    K = curve.field
    f = curve.rhs_poly()
    val = ext.one
    while u.degree() >= 2:
        quot, rem = (v * v - f).divmod(u)
        if not rem.is_zero():
            raise AssertionError("pair (u, v) is not semi-reduced")
        w = quot.monic()
        num = _checked(ext.sub(tau, _eval_poly(ext, v, theta)), ext)
        den = _eval_poly(ext, w, theta)
        val = ext.mul(val, ext.div(num, den))
        u, v = w, (-v) % w if not v.is_zero() else v % w
    if u.degree() <= 0:
        return None, val
    x0 = K.neg(u.coeffs[0])
    y0 = v.eval_code(x0) if not v.is_zero() else 0
    return Point(curve, K, x0, y0), val


def _eval_poly(ext: ExtFieldDesc, f: Poly, theta):
    acc = ext.zero
    for c in reversed(f.coeffs):
        acc = ext.add(ext.mul(acc, theta), ext.embed(c))
    return acc


def _miller_step(curve: Curve, R: Point, S: Point, ext, theta, tau):
    """(value of l_{R,S}(F) / v_{R+S}(F), R + S).

    l is the chord/tangent through R and S and v the vertical at the sum,
    with the usual conventions l_{O,S} = v_S and v_O = 1.
    """
    K = curve.field
    if R.inf:
        return ext.one, S
    if S.inf:
        return ext.one, R
    if R.x == S.x and R.y == K.neg(S.y):
        # vertical chord, sum at infinity
        return _checked(ext.sub(theta, ext.embed(R.x)), ext), Point.infinity(curve)
    if R.x == S.x:
        num = K.add(K.mul(3 % K.p, K.mul(R.x, R.x)), curve.a)
        lam = K.div(num, K.mul(2, R.y))
    else:
        lam = K.div(K.sub(S.y, R.y), K.sub(S.x, R.x))
    T = point_add(R, S)
    line = ext.sub(ext.sub(tau, ext.embed(R.y)),
                   ext.mul(ext.embed(lam), ext.sub(theta, ext.embed(R.x))))
    vert = ext.sub(theta, ext.embed(T.x))
    return ext.div(_checked(line, ext), _checked(vert, ext)), T


def _miller(curve: Curve, T: Point, n: int, ext, theta, tau):
    """f_{n,T}(F) for n * T = O, with divisor n(T) - n(O)."""
    if T.inf or n == 0:
        return ext.one
    if n < 0:
        raise ValueError("negative Miller exponent")
    f = ext.one
    R = T
    for bit in bin(n)[3:]:
        fac, R = _miller_step(curve, R, R, ext, theta, tau)
        f = ext.mul(ext.mul(f, f), fac)
        if bit == "1":
            fac, R = _miller_step(curve, R, T, ext, theta, tau)
            f = ext.mul(f, fac)
    if not R.inf:
        raise AssertionError("Miller loop did not close at O")
    return f


def _place_value(basis, place: Place, N: int):
    """f(F) for the function f with divisor N * ((place) - deg(place)(O))."""
    curve, ext, theta, tau = basis.curve, basis.ext, basis.theta, basis.tau
    K = curve.field
    if place.kind == INFINITY:
        return ext.one
    u = Poly(K, place.u)
    if place.kind == INERT:
        return ext.pow_(_checked(_eval_poly(ext, u, theta), ext), N)
    v = Poly(K, place.v) if place.kind == SPLIT else Poly(K, ())
    T, gval = _mumford_reduce(curve, u, v, ext, theta, tau)
    acc = ext.pow_(gval, N)
    if T is not None:
        acc = ext.mul(acc, _miller(curve, T, N, ext, theta, tau))
    return acc


def psi_eval(D: Divisor, basis, _depth: int = 0,
             exponent: int | None = None) -> PsiValue:
    """The canonical class of the degree-0 divisor D.

    Support anywhere over F_q is accepted: the exponent only needs to kill
    E(F_q), which every entry of the order table does (an explicit override
    must satisfy the same two conditions).  If an intermediate function
    hits F the divisor is re-randomized by a principal vertical and the
    extra factor divided back out.
    """
    if D.degree != 0:
        raise ValueError("psi is defined on degree-0 divisors only")
    nd = basis.nd
    if not nd.inv_ok:
        raise NdNotInvertible("order-table lcm shares a factor with M")
    ext = basis.ext
    if exponent is None:
        N, Ninv = nd.lcm, nd.inv
    else:
        if exponent % nd.N[0]:
            raise ValueError("exponent must be a multiple of the curve order")
        N, Ninv = exponent, pow(exponent, -1, nd.M)
    try:
        acc = ext.one
        for place, n in D.finite_places():
            val = _place_value(basis, place, N)
            acc = ext.mul(acc, ext.pow_(val, n))
        if not any(acc):
            raise _Hit
        return PsiValue(ext, acc).pow(Ninv)
    except _Hit:
        if _depth >= 4:
            raise SupportHitsF("psi support keeps meeting F") from None
        # slide D by the principal divisor of a vertical line and retry
        K = basis.curve.field
        x0 = (7 * _depth + 3) % K.q
        pls = places_over(basis.curve, Poly(K, (K.neg(x0), 1)))
        shift = Divisor()
        for p in pls:
            shift.add_place(p, 2 if p.kind == RAMIFIED else 1)
        shift.add_place(PLACE_AT_INFINITY, -2)
        shifted = psi_eval(D + shift, basis, _depth + 1, exponent)
        line_class = PsiValue(ext, ext.sub(basis.theta, ext.embed(x0)))
        return shifted.div(line_class)


def psi_elementary(place: Place, basis) -> PsiValue:
    return psi_eval(elementary_divisor(place), basis)


def verify_relation(lhs, rhs, basis) -> bool:
    """Check that the psi products of two elementary-divisor combinations agree.

    Each side is a list of (Place, int) pairs; the products are compared as
    canonical classes.
    """
    DL, DR = Divisor(), Divisor()
    for place, n in lhs:
        DL = DL + elementary_divisor(place).scale(n)
    for place, n in rhs:
        DR = DR + elementary_divisor(place).scale(n)
    return psi_eval(DL, basis) == psi_eval(DR, basis)


def translation_constant(basis) -> PsiValue:
    """psi((-P1) - (O)): the constant class entering every orbit shift."""
    c_place = place_of_point(basis.curve, point_neg(basis.td.P1))
    return psi_elementary(c_place, basis)
