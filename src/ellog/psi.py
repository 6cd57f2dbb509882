"""Evaluation of degree-0 divisors in F_{q^k} / F_q^*.

For a degree-0 divisor D supported on places of E over F_q, pick an exponent
N that is a multiple of #E(F_q) and coprime to M = (q^k - 1)/(q - 1).  Then
N*D is principal, the function f with divisor N*D has F_q coefficients, and

    psi(D) = class of f(F)^(1/N),

where F = (theta, tau) is the distinguished point with coordinates in the
target field, and the N-th root is the unique one in the order-M quotient
group.  f(F) is never built symbolically.  For D = sum n_i ((P_i) - d_i (O)):

* each place is reduced to a rational point by Cantor-style Mumford
  reduction, (P_i) - d_i (O) = (T_i) - (O) + div(g_i), with the chord and
  vertical functions evaluated at F on the fly; an inert place is the
  divisor of u_i(x) outright, so T_i = O;
* the points are summed into one S = sum n_i T_i: n_i T_i by Miller's
  double-and-add on T_i (on -T_i times the vertical (x - x_T)^(n_i) when
  n_i < 0), then one chord onto the running sum.  That gives
  D = (S) - (O) + div(h);
* N kills E(F_q), so one Miller loop gives f_{N,S} with divisor
  N(S) - N(O), and psi(D) = h(F) * f_{N,S}(F)^(1/N): the N-th power of
  h(F) and the N-th root cancel in the quotient group.

Every value is carried as a numerator and a denominator, and a single
inversion in F_{q^k} settles both fractions at the end.  Constants in
F_q^* are dropped freely throughout: they vanish in the quotient group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .algebra import ExtFieldDesc, Poly
from .curve import Curve, Point, point_neg
from .divisor import (Divisor, INERT, PLACE_AT_INFINITY, Place,
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
# internals: value-tracked Mumford reduction, chords and one Miller loop
# ---------------------------------------------------------------------------
#
# Values at F are kept as (numerator, denominator) pairs of F_{q^k}
# elements, with None standing for 1 so that trivial factors cost nothing.

class _Hit(Exception):
    """An intermediate function vanished at F; caller re-randomizes."""


def _checked(v, ext):
    if not any(v):
        raise _Hit
    return v


def _mul(ext, a, b):
    """a * b, where None stands for 1."""
    if a is None:
        return b
    if b is None:
        return a
    return ext.mul(a, b)


def _pow(ext, a, e: int):
    """a^e for e >= 1, where None stands for 1."""
    if a is None or e == 1:
        return a
    return ext.pow_(a, e)


def _vertical(ext, theta, x):
    """(x - x0)(F) for the vertical line through abscissa x0."""
    return _checked(ext.sub(theta, ext.embed(x)), ext)


def _mumford_reduce(curve: Curve, u: Poly, v: Poly, ext: ExtFieldDesc, theta, tau):
    """Reduce the semi-reduced pair (u, v) to a rational point.

    Returns (T, num, den) with  D(u,v) - deg(u)(O) = [(T) - (O)] + Xi(g)
    and g(F) = num / den up to F_q^*; T is None for the trivial class.
    """
    K = curve.field
    f = curve.rhs_poly()
    num = den = None
    while u.degree() >= 2:
        quot, rem = (v * v - f).divmod(u)
        if not rem.is_zero():
            raise AssertionError("pair (u, v) is not semi-reduced")
        w = quot.monic()
        num = _mul(ext, num, _checked(ext.sub(tau, v.eval_in(ext, theta)), ext))
        den = _mul(ext, den, w.eval_in(ext, theta))
        u, v = w, (-v) % w if not v.is_zero() else v % w
    if u.degree() <= 0:
        return None, num, den
    x0 = K.neg(u.coeffs[0])
    y0 = v.eval_code(x0) if not v.is_zero() else 0
    return Point(curve, K, x0, y0), num, den


def _chord(curve: Curve, R: Point, S: Point, ext, theta, tau):
    """(l_{R,S}(F), v_{R+S}(F), R + S), so that div(l/v) = (R) + (S) - (R+S) - (O).

    l is the chord/tangent through R and S and v the vertical at the sum,
    with the usual conventions l_{O,S} = 1, l_{R,-R} = v_R and v_O = 1;
    a factor equal to 1 is returned as None.
    """
    K = curve.field
    if R.inf:
        return None, None, S
    if S.inf:
        return None, None, R
    if R.x == S.x and R.y == K.neg(S.y):
        return _vertical(ext, theta, R.x), None, Point.infinity(curve)
    if R.x == S.x:
        num = K.add(K.mul(3 % K.p, K.mul(R.x, R.x)), curve.a)
        lam = K.div(num, K.mul(2, R.y))
    else:
        lam = K.div(K.sub(S.y, R.y), K.sub(S.x, R.x))
    x3 = K.sub(K.sub(K.mul(lam, lam), R.x), S.x)
    T = Point(curve, K, x3, K.sub(K.mul(lam, K.sub(R.x, x3)), R.y))
    dx = ext.sub(theta, ext.embed(R.x))
    line = ext.sub(ext.sub(tau, ext.embed(R.y)), tuple(K.mul(lam, c) for c in dx))
    return _checked(line, ext), _vertical(ext, theta, x3), T


def _miller(curve: Curve, T: Point, n: int, ext, theta, tau):
    """(num, den, n * T) with num/den = f(F), div(f) = n(T) - (nT) - (n-1)(O).

    Miller's double-and-add over the bits of n >= 1.
    """
    num = den = None
    R = T
    for bit in bin(n)[3:]:
        line, vert, R = _chord(curve, R, R, ext, theta, tau)
        num = _mul(ext, _mul(ext, num, num), line)
        den = _mul(ext, _mul(ext, den, den), vert)
        if bit == "1":
            line, vert, R = _chord(curve, R, T, ext, theta, tau)
            num = _mul(ext, num, line)
            den = _mul(ext, den, vert)
    return num, den, R


def _psi_value(D: Divisor, basis, N: int, Ninv: int):
    """h(F) * f_{N,S}(F)^(1/N) for D = (S) - (O) + div(h), as in the module notes."""
    curve, ext, theta, tau = basis.curve, basis.ext, basis.theta, basis.tau
    K = curve.field
    hn = hd = None
    S = Point.infinity(curve)
    for place, n in D.finite_places():
        u = Poly(K, place.u)
        if place.kind == INERT:
            T, gn, gd = None, _checked(u.eval_in(ext, theta), ext), None
        else:
            v = Poly(K, place.v) if place.kind == SPLIT else Poly(K, ())
            T, gn, gd = _mumford_reduce(curve, u, v, ext, theta, tau)
        m = abs(n)
        if n < 0:
            gn, gd = gd, gn
            if T is not None:
                # -((T) - (O)) = ((-T) - (O)) - div(x - x_T)
                gd = _mul(ext, gd, _vertical(ext, theta, T.x))
                T = point_neg(T)
        hn = _mul(ext, hn, _pow(ext, gn, m))
        hd = _mul(ext, hd, _pow(ext, gd, m))
        if T is None:
            continue
        fn, fd, R = _miller(curve, T, m, ext, theta, tau)
        line, vert, S = _chord(curve, S, R, ext, theta, tau)
        hn = _mul(ext, hn, _mul(ext, fn, line))
        hd = _mul(ext, hd, _mul(ext, fd, vert))
    fn, fd, R = _miller(curve, S, N, ext, theta, tau)
    if not R.inf:
        raise AssertionError("Miller loop did not close at O")
    # one inversion for both fractions: z = 1/(hd fd)
    den = _mul(ext, hd, fd)
    z = None if den is None else ext.inv(den)
    h = _mul(ext, _mul(ext, hn, fd), z)
    f = _mul(ext, _mul(ext, fn, hd), z)
    val = _mul(ext, h, None if f is None else ext.pow_(f, Ninv))
    return ext.one if val is None else val


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
        if exponent <= 0 or exponent % nd.N[0]:
            raise ValueError("exponent must be a positive multiple of the curve order")
        N, Ninv = exponent, pow(exponent, -1, nd.M)
    try:
        return PsiValue(ext, _psi_value(D, basis, N, Ninv))
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
    """Check that two elementary-divisor combinations have the same class.

    Each side is a list of (Place, int) pairs; a place may repeat or sit on
    both sides, and its coefficients add up.  psi is a homomorphism, so
    the sides agree exactly when psi(DL - DR) is one: a single evaluation
    and a single N-th root decide the relation.
    """
    D, degree = Divisor(), 0
    for side, sign in ((lhs, 1), (rhs, -1)):
        for place, n in side:
            D.add_place(place, sign * n)
            degree += sign * n * place.degree
    D.add_place(PLACE_AT_INFINITY, -degree)
    return psi_eval(D, basis).is_one()


def translation_constant(basis) -> PsiValue:
    """psi((-P1) - (O)): the constant class entering every orbit shift."""
    c_place = place_of_point(basis.curve, point_neg(basis.td.P1))
    return psi_elementary(c_place, basis)
