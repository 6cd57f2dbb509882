"""Evaluation of degree-0 divisors in F_{q^k} / F_q^*.

Let N = #E(F_q) and M = (q^k - 1)/(q - 1), with gcd(N, M) = 1.  Every place
over F_q reduces to a point of E(F_q), which N kills, so for a degree-0
divisor D the divisor N*D is principal, the function f with divisor N*D
has F_q coefficients, and

    psi(D) = class of f(F)^(1/N),

where F = (theta, tau) is the distinguished point with coordinates in the
target field, and the N-th root is the unique one in the order-M quotient
group.  f(F) is never built symbolically.  For D = sum n_i ((P_i) - d_i (O)),
`_psi_power` returns psi(D)^N = f(F) as a numerator and a denominator:

* each term n_i ((P_i) - d_i (O)) is reduced once per basis to
  (R_i) - (O) + div(c_i), and R_i with c_i(F) is kept in
  `EllipticBasis.place_terms` under (P_i, n_i).  Cantor-style Mumford
  reduction gives (P_i) - d_i (O) = (T_i) - (O) + div(g_i), with the chord
  and vertical functions evaluated at F on the fly (an inert place is the
  divisor of u_i(x) outright, so T_i = O); for n_i < 0 the point is -T_i
  and the vertical (x - x_T)^(n_i) joins g_i; Miller's double-and-add on
  the point gives R_i = n_i T_i;
* one chord per term onto the running sum S = sum R_i gives
  D = (S) - (O) + div(h);
* one Miller loop gives f_{N,S} with divisor N(S) - N(O), and
  psi(D)^N = h(F)^N * f_{N,S}(F).

N is coprime to M, so psi(D) is one exactly when psi(D)^N is:
`verify_relation` compares the numerator and the denominator up to F_q^*,
with no inversion and no root.  `psi_eval` pays one inversion and one N-th
root per divisor.  Constants in F_q^* are dropped freely throughout: they
vanish in the quotient group.

`basis.build_basis` refuses a curve with gcd(N, M) > 1, and
`basis.basis_from_json` a stored basis with that gcd or a wrong M, so every
basis psi sees has the N-th root.
"""

from __future__ import annotations

from .algebra import ExtFieldDesc, Poly
from .curve import Curve, Point, point_neg
from .divisor import (Divisor, INERT, PLACE_AT_INFINITY, Place,
                      RAMIFIED, SPLIT, elementary_divisor, place_of_point,
                      places_over)


class SupportHitsF(RuntimeError):
    pass


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


def _term(curve: Curve, place: Place, n: int, ext, theta, tau):
    """(R, num, den) with n((P) - deg(P)(O)) = (R) - (O) + div(c), c(F) = num/den.

    R is None for the trivial class.
    """
    K = curve.field
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
    gn, gd = _pow(ext, gn, m), _pow(ext, gd, m)
    if T is None:
        return None, gn, gd
    fn, fd, R = _miller(curve, T, m, ext, theta, tau)
    return R, _mul(ext, gn, fn), _mul(ext, gd, fd)


def _psi_power(D: Divisor, basis, _depth: int = 0):
    """(num, den) with num/den = psi(D)^N up to F_q^*, as in the module notes.

    N = #E(F_q), and None stands for 1 in either slot.
    If an intermediate function hits F, D is re-randomized by a principal
    vertical and that line's N-th power divided back out.
    """
    curve, ext, theta, tau = basis.curve, basis.ext, basis.theta, basis.tau
    N, terms = curve.N, basis.place_terms
    hn = hd = None
    S = Point.infinity(curve)
    try:
        for key in D.finite_places():
            term = terms.get(key)
            if term is None:
                term = terms[key] = _term(curve, *key, ext, theta, tau)
            R, cn, cd = term
            if R is not None:
                line, vert, S = _chord(curve, S, R, ext, theta, tau)
                cn, cd = _mul(ext, cn, line), _mul(ext, cd, vert)
            hn, hd = _mul(ext, hn, cn), _mul(ext, hd, cd)
        fn, fd, R = _miller(curve, S, N, ext, theta, tau)
    except _Hit:
        if _depth >= 4:
            raise SupportHitsF("psi support keeps meeting F") from None
        K = curve.field
        x0 = (7 * _depth + 3) % K.q
        shift = Divisor()
        for p in places_over(curve, Poly(K, (K.neg(x0), 1))):
            shift.add_place(p, 2 if p.kind == RAMIFIED else 1)
        shift.add_place(PLACE_AT_INFINITY, -2)
        num, den = _psi_power(D + shift, basis, _depth + 1)
        line = ext.sub(theta, ext.embed(x0))
        return num, _mul(ext, den, ext.pow_(line, N))
    if not R.inf:
        raise AssertionError("Miller loop did not close at O")
    return _mul(ext, _pow(ext, hn, N), fn), _mul(ext, _pow(ext, hd, N), fd)


def psi_eval(D: Divisor, basis) -> PsiValue:
    """The canonical class of the degree-0 divisor D.

    Support anywhere over F_q is accepted.
    """
    if D.degree != 0:
        raise ValueError("psi is defined on degree-0 divisors only")
    ext = basis.ext
    num, den = _psi_power(D, basis)
    val = ext.div(num or ext.one, den or ext.one)
    return PsiValue(ext, val).pow(pow(basis.curve.N, -1, basis.M))


def psi_elementary(place: Place, basis) -> PsiValue:
    return psi_eval(elementary_divisor(place), basis)


def verify_relation(lhs, rhs, basis) -> bool:
    """Check that two elementary-divisor combinations have the same class.

    Each side is a list of (Place, int) pairs; a place may repeat or sit on
    both sides, and its coefficients add up.  psi is a homomorphism, so
    the sides agree exactly when psi(DL - DR) is one, that is when
    psi(DL - DR)^N is, since N is coprime to M: one evaluation, with no
    inversion and no root, decides the relation.
    """
    D, degree = Divisor(), 0
    for side, sign in ((lhs, 1), (rhs, -1)):
        for place, n in side:
            D.add_place(place, sign * n)
            degree += sign * n * place.degree
    D.add_place(PLACE_AT_INFINITY, -degree)
    num, den = _psi_power(D, basis)
    ext = basis.ext
    return PsiValue(ext, num or ext.one) == PsiValue(ext, den or ext.one)


def translation_constant(basis) -> PsiValue:
    """psi((-P1) - (O)): the constant class entering every orbit shift."""
    c_place = place_of_point(basis.curve, point_neg(basis.td.P1))
    return psi_elementary(c_place, basis)
