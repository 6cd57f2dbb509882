"""Evaluation of degree-0 divisors in F_{q^k} / F_q^*.

Let N = #E(F_q) and M = (q^k - 1)/(q - 1), with gcd(N, M) = 1.  Every place
over F_q reduces to a point of E(F_q), which N kills, so for a degree-0
divisor D the divisor N*D is principal, the function f with divisor N*D
has F_q coefficients, and

    psi(D) = class of f(F)^(1/N),

where F = (theta, tau) is the distinguished point with coordinates in the
target field, and the N-th root is the unique one in the order-M quotient
group.  psi is a homomorphism, so `_psi_class` returns psi(D) for
D = sum n_i ((P_i) - d_i (O)) as the product of the classes of its terms,
built from two memos on the basis:

* `_point_class(R)` is pi(R) = psi((R) - (O)) for R in E(F_q).  The q-power
  map moves F by P1 (`basis.build_basis` orients tau so), so for f over
  F_q, f(F)^q = f(F + P1): the function f_{N,R} o tau_{P1} has divisor
  N(R - P1) - N(-P1), whence pi(R) = pi(R + P1)^q pi(-P1).  A class is
  walked down from the first known class along R, R + P1, ..., where
  pi(O) = 1, one Frobenius and one product a step.  Only pi(-P1) and the
  first point of any other coset of <P1> take a Miller loop, f_{N,R} with
  divisor N(R) - N(O), and an N-th root: with N = k, as at (5, 9) and
  (11, 13), that is one loop and one inversion per basis.  The classes,
  at most N - 1, are kept in `EllipticBasis.point_classes`;
* `_term(P, n)` is psi(n((P) - d(O))): the term (P, -n) with its sides
  swapped, or the term (P, 1) to the power |n|, so a place is reduced
  once.  (P, 1) is g(F) pi(T), where Cantor-style Mumford reduction gives
  (P) - d(O) = (T) - (O) + div(g), with the chord and vertical functions
  evaluated at F on the fly.  An inert place is the divisor of u(x)
  outright, and a split place of degree >= 2 whose conjugate (u, -v) has
  its term takes u(theta) over it, since div(u) = (P) + (-P) - 2d(O).
  Terms are kept as a numerator and a denominator in
  `EllipticBasis.place_terms` under (P, n).
  Since theta = X mod I, a polynomial over F_q is read at theta as its
  residue mod I (`ExtFieldDesc.from_poly`), with no product.

Both memos, and every running product, hold elements in the packed form of
`ExtFieldDesc.pmul` (over F_p one int of k slots, over F_{p^m} the tuple
itself): a factor is packed once when it is built, and the products of
Miller loops, Mumford reductions, term powers and `_psi_class` are packed
products.  So a check on warm memos is packed products in F_{q^k} and one
unpack of its numerator and of its denominator, and nothing else.  The
value cannot differ from the definition: psi(div g) = g(F), psi((R) - (O))
is the root of f_{N,R}(F) because N R = O, the Frobenius step holds up to
F_q^* because f_{N,R} o tau_{P1} and f_{N,R-P1}/f_{N,-P1} are functions
over F_q with one divisor, and psi is multiplicative.
If a function meets F, D is slid by the principal divisor of a vertical,
whose class, the line itself, is divided back out.

`verify_relation` compares the numerator and the denominator up to F_q^*
by cross-multiplying their coordinates against one slot where the
denominator is nonzero, with no inversion, no root and no normalised
representative; `psi_eval` pays one inversion per divisor.
Constants in F_q^* are dropped freely throughout: they vanish in the
quotient group.

`basis.build_basis` refuses a curve with gcd(N, M) > 1, and
`basis.basis_from_json` a stored basis with that gcd or a wrong M, so every
basis psi sees has the N-th root.
"""

from __future__ import annotations

from .algebra import ExtFieldDesc, _divmod, _monic, _mul as _pmul, _poly, _rem, _sub
from .curve import Curve, Point, point_add, point_neg
from .divisor import (Divisor, INERT, INFINITY, Place, RAMIFIED, SPLIT, conjugate,
                      elementary_divisor, place_of_point, places_at)


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
# internals: value-tracked Mumford reduction, Miller loops and term classes
# ---------------------------------------------------------------------------
#
# Values at F are kept as (numerator, denominator) pairs of F_{q^k}
# elements in the packed form of `ExtFieldDesc.pmul`, with None standing
# for 1 so that trivial factors cost nothing.  A factor is built as a tuple
# (by `from_poly`, `sub`, ...), checked nonzero and packed once.

class _Hit(Exception):
    """An intermediate function vanished at F; caller re-randomizes."""


def _mul(ext, a, b):
    """a * b on the packed form, where None stands for 1."""
    if a is None:
        return b
    if b is None:
        return a
    return ext.pmul(a, b)


def _pow(ext, a, e: int):
    """a^e on the packed form for e >= 1, where None stands for 1."""
    if a is None or e == 1:
        return a
    return ext.ppow(a, e)


def _packed(ext, v):
    """The tuple v, packed, or raise _Hit where v is zero."""
    if not any(v):
        raise _Hit
    return ext.pack(v)


def _unpacked(ext, a):
    """The packed a as a tuple, where None stands for 1."""
    return ext.one if a is None else ext.unpack(a)


def _vertical(ext, theta, x):
    """(x - x0)(F), packed, for the vertical line through abscissa x0."""
    return _packed(ext, ext.sub(theta, ext.embed(x)))


def _mumford_reduce(curve: Curve, u, v, ext: ExtFieldDesc, tau):
    """Reduce the semi-reduced pair (u, v), coefficient sequences, to a
    rational point.

    Returns (T, num, den) with  D(u,v) - deg(u)(O) = [(T) - (O)] + Xi(g)
    and g(F) = num / den up to F_q^*, packed; T is None for the trivial
    class.  Runs on the list kernel of `algebra`.
    """
    K = curve.field
    f = curve.rhs_poly().coeffs
    num = den = None
    while len(u) > 2:
        quot, rem = _divmod(K, _sub(K, _pmul(K, v, v), f), u)
        if rem:
            raise AssertionError("pair (u, v) is not semi-reduced")
        w = _monic(K, quot)
        num = _mul(ext, num, _packed(ext, ext.sub(tau, ext.from_poly(_poly(K, v)))))
        den = _mul(ext, den, ext.pack(ext.from_poly(_poly(K, w))))
        u, v = w, _rem(K, _sub(K, (), v), w)
    if len(u) < 2:
        return None, num, den
    x0 = K.neg(u[0])
    y0 = v[0] if v else 0
    return Point(curve, K, x0, y0), num, den


def _chord(curve: Curve, R: Point, S: Point, ext, theta, tau):
    """(l_{R,S}(F), v_{R+S}(F), R + S), so that div(l/v) = (R) + (S) - (R+S) - (O).

    l is the chord/tangent through R and S and v the vertical at the sum,
    with the usual conventions l_{O,S} = 1, l_{R,-R} = v_R and v_O = 1;
    the factors are packed, and one equal to 1 is returned as None.
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
    return _packed(ext, line), _vertical(ext, theta, x3), T


def _miller(curve: Curve, T: Point, n: int, ext, theta, tau):
    """(num, den, n * T) with num/den = f(F), packed, and
    div(f) = n(T) - (nT) - (n-1)(O).

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


def _miller_class(R: Point, basis):
    """pi(R) from scratch, packed: one Miller loop for N and one N-th root."""
    ext, N = basis.ext, basis.curve.N
    fn, fd, S = _miller(basis.curve, R, N, ext, basis.theta, basis.tau)
    if not S.inf:
        raise AssertionError("Miller loop did not close at O")
    if fd is not None:
        fn = ext.pmul(fn, ext.pack(ext.inv(ext.unpack(fd))))
    return ext.ppow(fn, pow(N, -1, basis.M))


def _point_class(R: Point, basis):
    """pi(R) = psi((R) - (O)) up to F_q^*, for affine R in E(F_q), as one
    packed element.

    Walks R, R + P1, ... up to the first point whose class is memoised,
    or O, where pi(O) = 1, and comes back down by pi(S) = pi(S + P1)^q
    pi(-P1), one Frobenius and one product a step.  pi(-P1) and the first
    point of a coset of <P1> with no memoised class take `_miller_class`.
    Every class of the walk is memoised on the basis, all of them or,
    should a function meet F, none.
    """
    memo = basis.point_classes
    cls = memo.get((R.x, R.y))
    if cls is not None:
        return cls
    P1 = basis.td.P1
    chain, S = [R], point_add(R, P1)
    while not S.inf:
        cls = memo.get((S.x, S.y))
        if cls is not None:
            break
        if S.x == R.x and S.y == R.y:
            cls = memo[(R.x, R.y)] = _miller_class(R, basis)
            return cls
        chain.append(S)
        S = point_add(S, P1)
    ext = basis.ext
    neg_p1 = (P1.x, basis.curve.field.neg(P1.y))
    c = memo.get(neg_p1)
    new = {}
    if c is None:
        c = new[neg_p1] = _miller_class(point_neg(P1), basis)
    for T in reversed(chain):
        cls = new[(T.x, T.y)] = (c if cls is None else
                                 ext.pmul(ext.pack(ext.frobenius(ext.unpack(cls))), c))
    memo.update(new)
    return cls


def _term(curve: Curve, place: Place, n: int, basis):
    """(num, den) with num/den = psi(n((P) - deg(P)(O))) up to F_q^*, packed.

    (P, -n) in the memo gives it with its sides swapped; otherwise it is
    the term (P, 1), memoised at first use, to the power |n|.
    """
    terms = basis.place_terms
    flip = terms.get((place, -n))
    if flip is not None:
        return flip[1], flip[0]
    one = terms.get((place, 1))
    if one is None:
        one = terms[(place, 1)] = _place_class(curve, place, basis)
    ext, m = basis.ext, abs(n)
    num, den = _pow(ext, one[0], m), _pow(ext, one[1], m)
    return (num, den) if n > 0 else (den, num)


def _place_class(curve: Curve, place: Place, basis):
    """(num, den) with num/den = psi((P) - deg(P)(O)) up to F_q^*, packed.

    An inert place is the divisor of u(x) outright.  A split place of
    degree >= 2 whose conjugate (u, -v) has its term takes u(theta) over
    that term, since div u = (P) + (-P) - 2 deg(P)(O).  Any other place is
    one Mumford reduction and the class of the point it reaches.
    """
    ext = basis.ext
    if place.kind == INERT:
        return _packed(ext, ext.from_poly(_poly(curve.field, place.u))), None
    if place.kind == SPLIT and place.degree > 1:
        conj = basis.place_terms.get((conjugate(place, curve.field), 1))
        if conj is not None:
            u = _packed(ext, ext.from_poly(_poly(curve.field, place.u)))
            return _mul(ext, u, conj[1]), conj[0]
    T, num, den = _mumford_reduce(curve, place.u, place.v, ext, basis.tau)
    if T is not None:
        num = _mul(ext, num, _point_class(T, basis))
    return num, den


def _psi_class(coeffs: dict, basis, _depth: int = 0):
    """(num, den) with num/den = psi(D) up to F_q^*, packed, as in the
    module notes.

    `coeffs` maps the places of D to their coefficients, in any order;
    the place at infinity and zero coefficients are skipped, since each
    term carries its own multiple of (O).  None stands for 1 in either
    slot.  If a function hits F, D is re-randomized by a principal
    vertical and that line divided back out.
    """
    curve, ext, terms = basis.curve, basis.ext, basis.place_terms
    num = den = None
    try:
        for key in coeffs.items():
            term = terms.get(key)
            if term is None:
                if not key[1] or key[0].kind == INFINITY:
                    continue
                term = terms[key] = _term(curve, *key, basis)
            num, den = _mul(ext, num, term[0]), _mul(ext, den, term[1])
    except _Hit:
        if _depth >= 4:
            raise SupportHitsF("psi support keeps meeting F") from None
        x0 = (7 * _depth + 3) % curve.field.q
        shift = Divisor({p: 2 if p.kind == RAMIFIED else 1
                         for p in places_at(curve, x0)})
        num, den = _psi_class((Divisor(coeffs) + shift).coeffs, basis, _depth + 1)
        return num, _mul(ext, den, _vertical(ext, basis.theta, x0))
    return num, den


def psi_eval(D: Divisor, basis) -> PsiValue:
    """The canonical class of the degree-0 divisor D.

    Support anywhere over F_q is accepted.
    """
    if D.degree != 0:
        raise ValueError("psi is defined on degree-0 divisors only")
    ext = basis.ext
    num, den = _psi_class(D.coeffs, basis)
    num = _unpacked(ext, num)
    return PsiValue(ext, num if den is None else ext.div(num, ext.unpack(den)))


def psi_elementary(place: Place, basis) -> PsiValue:
    return psi_eval(elementary_divisor(place), basis)


def _same_class(ext: ExtFieldDesc, num, den) -> bool:
    """num ~ den up to F_q^*, for den nonzero: with i the first nonzero
    slot of den, num[i] is nonzero and num[j] den[i] = den[j] num[i] for
    every j."""
    i = next((i for i, c in enumerate(den) if c), None)
    if i is None:
        raise ZeroDivisionError("zero has no class in the unit quotient")
    a, b = num[i], den[i]
    if not a:
        return False
    K = ext.base
    if K.m == 1:
        p = K.p
        return not any([(x * b - y * a) % p for x, y in zip(num, den)])
    return not any(K.sub(K.mul(x, b), K.mul(y, a)) for x, y in zip(num, den))


def verify_relation(lhs, rhs, basis) -> bool:
    """Check that two elementary-divisor combinations have the same class.

    Each side is a list of (Place, int) pairs; a place may repeat or sit on
    both sides, and its coefficients add up.  psi is a homomorphism, so
    the sides agree exactly when psi(DL - DR) is one: one evaluation, with
    no inversion and no root, gives num / den, and the relation holds when
    num and den are proportional over F_q (`_same_class`).  The sides are
    summed into a plain dict of finite coefficients; (O) is implied by each
    term.
    """
    coeffs: dict[Place, int] = {}
    for place, n in lhs:
        coeffs[place] = coeffs.get(place, 0) + n
    for place, n in rhs:
        coeffs[place] = coeffs.get(place, 0) - n
    num, den = _psi_class(coeffs, basis)
    ext = basis.ext
    return _same_class(ext, _unpacked(ext, num), _unpacked(ext, den))


def translation_constant(basis) -> PsiValue:
    """psi((-P1) - (O)): the constant class entering every orbit shift."""
    c_place = place_of_point(basis.curve, point_neg(basis.td.P1))
    return psi_elementary(c_place, basis)
