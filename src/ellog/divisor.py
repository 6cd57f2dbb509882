"""Places of the function field of E, divisors, heights, and translations.

A finite place is stored by the monic irreducible abscissa polynomial u and,
when the ordinates live in F_q[x]/(u), the ordinate polynomial v (deg v <
deg u, y = v(x) on the place).  Ramified places have v = 0; inert places
(ordinates outside F_q[x]/(u)) carry u alone and have degree 2 deg u.

The principal-divisor map factors the norm p0^2 - p1^2 (x^3 + a x + b) of
the primitive part p0 + p1 y of a function (n0 + n1 y)/(x - x1)^e, on the
coefficient tuples of the list kernel.  At each irreducible factor u off
the ramified locus only one conjugate place is a zero, the one with
ordinate v = -p0/p1 mod u, so no square root is taken.  The norm's roots
in F_q lie over F_q-rational points, so its linear factors and their
zeros come from one evaluation pass over the curve's rational abscissas,
off the point table; only the rootless rest of degree >= 4 is factored,
and the places over its factors are kept in a memo on the curve.

Translation by -P1 walks a place along its orbit.  `place_point` reads a
place's point Q in one field L of degree deg(place) over F_q: F_q[x]/(u)
at a split or ramified place, F_q[X]/(u(X^2 - c)) at an inert one.  An
element of L is its own vector of F_q coordinates.  `orbit_places` builds
Q once and reaches every translate from it: the place of Q - s P1 is one
chord with the rational point -s P1, then one elimination over F_q that
reads the minimal polynomial of the new abscissa and the ordinate over
it.  A torsion place is no special case: its walk meets O once, where the
chord gives O.  The bilinear descent evaluates its brackets at the same Q.
"""

from __future__ import annotations

from functools import total_ordering
from operator import itemgetter, mul

from .algebra import (ExtFieldDesc, FieldDesc, NonResidue, Poly, _add, _ext_gcd,
                      _factor_rootless, _gcd, _horner, _monic, _mul, _norm, _poly, _quo,
                      _rem, _sub, poly_factor)
from .curve import Curve, CurveFunction, Point, TorsionData, ZeroFunction, point_add
from .linalg import _rref


class HitsInfinity(ValueError):
    pass


INFINITY = "inf"
SPLIT = "split"
RAMIFIED = "ram"
INERT = "inert"

_KIND_RANK = {INFINITY: 0, SPLIT: 1, RAMIFIED: 2, INERT: 3}
_set = object.__setattr__
_PLACES: dict[tuple, "Place"] = {}  # (kind, u, v) -> the one Place, for the process's life


@total_ordering
class Place:
    """A Galois orbit of curve points, keyed by (kind, u, v).

    An immutable, interned value: `Place(kind, u, v)` returns the one
    object in a module table for that key, so equal places are the same
    object and dicts hash and compare places by identity, at C level.
    Its degree and its sort key (degree, kind rank, u, v) are computed
    once, when it is first built.
    """

    __slots__ = ("kind", "u", "v", "degree", "sort_key")

    kind: str
    u: tuple[int, ...]   # monic abscissa polynomial, low degree first; () at infinity
    v: tuple[int, ...]   # ordinate polynomial; () for inert / infinity
    degree: int
    sort_key: tuple

    def __new__(cls, kind: str, u: tuple[int, ...], v: tuple[int, ...]):
        key = (kind, u, v)
        place = _PLACES.get(key)
        if place is None:
            if kind == INFINITY:
                degree = 1
            else:
                degree = 2 * (len(u) - 1) if kind == INERT else len(u) - 1
            place = _PLACES[key] = object.__new__(cls)
            _set(place, "kind", kind)
            _set(place, "u", u)
            _set(place, "v", v)
            _set(place, "degree", degree)
            _set(place, "sort_key", (degree, _KIND_RANK[kind], u, v))
        return place

    def __setattr__(self, name, value):
        raise AttributeError(f"Place is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"Place is immutable: cannot delete {name}")

    def __lt__(self, other):
        if type(other) is not Place:
            return NotImplemented
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"Place(kind={self.kind!r}, u={self.u!r}, v={self.v!r})"

    def encode(self, K: FieldDesc) -> str:
        if self.kind == INFINITY:
            return "inf::"
        uc = ",".join(K.enc(c) for c in self.u)
        vc = ",".join(K.enc(c) for c in self.v)
        return f"{self.kind}:{uc}:{vc}"


PLACE_AT_INFINITY = Place(INFINITY, (), ())


def place_of_point(curve: Curve, P: Point) -> Place:
    if P.inf:
        return PLACE_AT_INFINITY
    K = curve.field
    u = (K.neg(P.x), 1)
    if P.y == 0:
        return Place(RAMIFIED, u, ())
    return Place(SPLIT, u, (P.y,))


def split_ordinate(curve: Curve, u: Poly) -> Poly | None:
    """A square root of x^3 + a x + b in F_q[x]/(u), or None if inert.

    The root is asked once (`algebra._sqrt`), whose check r^2 = f raises
    NonResidue exactly at an inert u.  At degree 1 the residue field is a
    copy of F_q, and its root is the one F_q gives.
    """
    K = curve.field
    R = ExtFieldDesc(K, u)
    try:
        return Poly(K, R.sqrt(R.from_poly(curve.rhs_poly())))
    except NonResidue:
        return None


def places_over(curve: Curve, u: Poly) -> list[Place]:
    """The places of E above a monic irreducible abscissa polynomial."""
    K = curve.field
    f = curve.rhs_poly()
    if (f % u).is_zero():
        return [Place(RAMIFIED, u.coeffs, ())]
    v = split_ordinate(curve, u)
    if v is None:
        return [Place(INERT, u.coeffs, ())]
    vneg = tuple((-Poly(K, v.coeffs)).coeffs)
    return [Place(SPLIT, u.coeffs, tuple(v.coeffs)), Place(SPLIT, u.coeffs, vneg)]


def places_at(curve: Curve, x0: int) -> tuple[Place, ...]:
    """The places over x = x0, read off the point table and memoized on
    the curve under u = X - x0 (`Curve.u_places`).

    Every pulled-back function has its pole over the same abscissa, and
    every linear norm factor is one of these, so no square root is taken.
    """
    K = curve.field
    u = (K.neg(x0), 1)
    places = curve.u_places.get(u)
    if places is None:
        ys = curve.ordinates().get(x0)
        if ys is None:
            places = (Place(INERT, u, ()),)
        elif ys == (0,):
            places = (Place(RAMIFIED, u, ()),)
        else:
            places = tuple([Place(SPLIT, u, (y,)) for y in ys])
        curve.u_places[u] = places
    return places


def _place_key(item):
    """The stored sort key of an item's place."""
    return item[0].sort_key


class Divisor:
    """Sparse integer combination of places with cached degree and height."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Place, int] | None = None):
        self.coeffs = {p: n for p, n in (coeffs or {}).items() if n}

    def copy(self) -> "Divisor":
        D = Divisor.__new__(Divisor)
        D.coeffs = dict(self.coeffs)
        return D

    def add_place(self, place: Place, n: int):
        c = self.coeffs.get(place, 0) + n
        if c:
            self.coeffs[place] = c
        else:
            self.coeffs.pop(place, None)

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, n in other.coeffs.items():
            c = out.get(p, 0) + n
            if c:
                out[p] = c
            else:
                out.pop(p, None)
        return Divisor(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, n: int) -> "Divisor":
        if n == 0:
            return Divisor()
        return Divisor({p: c * n for p, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return sum(n * p.degree for p, n in self.coeffs.items())

    @property
    def height(self) -> int:
        return sum(n * p.degree for p, n in self.coeffs.items() if n > 0)

    def positive_part(self) -> "Divisor":
        return Divisor({p: n for p, n in self.coeffs.items() if n > 0})

    def finite_places(self):
        return [(p, n) for p, n in sorted(self.coeffs.items(), key=_place_key)
                if p.kind != INFINITY]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{n}*{p.kind}[{p.u},{p.v}]" for p, n in sorted(self.coeffs.items()))


def elementary_divisor(place: Place) -> Divisor:
    """(place) - deg(place) * (O), the degree-0 atom."""
    if place.kind == INFINITY:
        return Divisor()
    return Divisor({place: 1, PLACE_AT_INFINITY: -place.degree})


def height(D: Divisor) -> int:
    return D.height


def negation(D: Divisor, K: FieldDesc) -> Divisor:
    """The image of D under the negation iota: Q -> -Q of E.

    A split place (u, v) goes to (u, -v); ramified, inert and infinite
    places are fixed.  So div(f o iota) = negation(div f).  On the model,
    iota turns (U, V, W) = (x(Q - P1), x(Q), x(Q + P1)) into (W, V, U),
    whence bracket(A^s, B^s) = -bracket(A, B) o iota for s the swap of U
    and V in A and B; the constant -1 does not change a divisor, so the
    bracket divisor of the swapped plane is the negation of this one.
    """
    return Divisor({conjugate(p, K) if p.kind == SPLIT else p: n
                    for p, n in D.coeffs.items()})


def conjugate(place: Place, K: FieldDesc) -> Place:
    """The split place (u, -v) of the points -Q for Q on the split place (u, v)."""
    neg = K.neg
    return Place(SPLIT, place.u, tuple([neg(c) for c in place.v]))


# ---------------------------------------------------------------------------
# the principal divisor map
# ---------------------------------------------------------------------------

def divisor_of(fun: CurveFunction, curve: Curve) -> Divisor:
    """Zeros and poles of (n0 + n1 y)/(x - x1)^e; always degree 0.

    Works on the coefficient tuples of the list kernel, with no `Poly`.
    The affine zero structure comes from the content g = gcd(n0, n1) plus
    the norm N = p0^2 - p1^2 f (`_norm`) of the primitive part p0 + p1 y.
    A norm factor u off the ramified locus lies under two split places
    (u, v) and (u, -v), and p0 + p1 y vanishes at one of them only, the one
    with v = -p0 p1^-1 mod u.

    The roots of N in F_q lie at rational abscissas only: p0 and p1 are
    coprime, so p1(r) = 0 would force p0(r) = 0; hence p1(r) != 0 and
    f(r) = (p0(r)/p1(r))^2 is a square or zero, and r is the abscissa of
    a split or ramified F_q-point.  So one pass evaluates the monic N at
    each rational abscissa through the curve's power table, divides it by
    X - r, with `_horner`, only at the roots, and reads the zero there off
    the point table from the same power row (`_rational_zero`).  The rest
    has no root in F_q: of degree 2 or 3 it is irreducible, and only from
    degree 4 on is it factored, by `_factor_rootless`; `_zero_place` reads
    the zero over each of its factors.  A linear content g = X - r gives
    the places of `places_at(r)`; a longer one goes to `poly_factor` whole,
    since its roots may lie under inert places, and the places over each
    factor are memoized on the curve.  Places are entered content first,
    then the norm's factors in `poly_factor`'s order, then the poles.
    """
    if fun.is_zero():
        raise ZeroFunction("divisor of the zero function")
    K = curve.field
    f = curve.rhs_poly().coeffs
    D = Divisor()

    n0, n1 = fun.n0.coeffs, fun.n1.coeffs
    if not n1:
        g, p0, p1 = _monic(K, n0), (1,), ()
    else:
        g = _gcd(K, n0, n1)
        p0, p1 = (n0, n1) if len(g) == 1 else (_quo(K, n0, g), _quo(K, n1, g))

    # content: valuation mult at split/inert places, doubled at ramified ones
    if len(g) > 1:
        for u, mult in [(_poly(K, g), 1)] if len(g) == 2 else poly_factor(_poly(K, g)):
            for place in _places_above(curve, u):
                D.add_place(place, 2 * mult if place.kind == RAMIFIED else mult)

    # primitive part via its norm
    rest = _norm(K, p0, p1, f)
    if not rest:
        raise ZeroFunction("function vanishes on the curve")
    rest = _monic(K, rest)
    zeros = []  # (u, place, multiplicity), sorted by u as poly_factor sorts
    for r, powers in curve.abscissa_powers(len(rest)).items():
        if len(rest) == 1:
            break
        if _value_at(K, rest, powers):
            continue
        mult = 0
        while True:
            rest, mult = _horner(K, rest, r)[0], mult + 1
            if len(rest) == 1 or _value_at(K, rest, powers):
                break
        zeros.append(((K.neg(r), 1), _rational_zero(curve, p0, p1, r, powers), mult))
    zeros.sort(key=itemgetter(0))
    if len(rest) in (3, 4):
        zeros.append((rest, _zero_place(curve, p0, p1, tuple(rest)), 1))
    elif len(rest) > 4:
        zeros += [(u.coeffs, _zero_place(curve, p0, p1, u.coeffs), mult)
                  for u, mult in _factor_rootless(_poly(K, rest))]
    for _, place, mult in zeros:
        if place.kind == RAMIFIED and mult != 1:
            raise AssertionError("ramified factor of a primitive part with multiplicity > 1")
        D.add_place(place, mult)

    # poles of the denominator (x - x1)^e
    if fun.e:
        for place in places_at(curve, fun.x1):
            D.add_place(place, -fun.e if place.kind != RAMIFIED else -2 * fun.e)

    # balance at infinity
    pole = max(2 * len(n0) - 2 if n0 else -1, 2 * len(n1) + 1 if n1 else -1)
    D.add_place(PLACE_AT_INFINITY, -pole + 2 * fun.e)

    if D.degree != 0:
        raise AssertionError(f"principal divisor of degree {D.degree}")
    return D


def _places_above(curve: Curve, u: Poly) -> tuple[Place, ...]:
    """`places_over` a monic irreducible u, memoized in `Curve.u_places`."""
    if u.degree() == 1:
        return places_at(curve, curve.field.neg(u.coeffs[0]))
    places = curve.u_places.get(u.coeffs)
    if places is None:
        places = curve.u_places[u.coeffs] = tuple(places_over(curve, u))
    return places


def _value_at(K: FieldDesc, cs, powers: list[int]) -> int:
    """The polynomial cs at x, as sum cs[i] x^i from the powers of x."""
    if K.m == 1:
        return sum(map(mul, cs, powers)) % K.p
    add, kmul = K.add, K.mul
    acc = 0
    for c, w in zip(cs, powers):
        if c:
            acc = add(acc, kmul(c, w))
    return acc


def _rational_zero(curve: Curve, p0, p1, r: int, powers: list[int]) -> Place:
    """The place over the rational abscissa r, a root of the norm, where
    p0 + p1 y vanishes: the ramified place, or the split one whose
    ordinate y of the point table has p0(r) + p1(r) y = 0, from the power
    row of r.  Raises AssertionError when neither is a zero."""
    places = places_at(curve, r)
    if places[0].kind == RAMIFIED:
        return places[0]
    K = curve.field
    d0, d1 = _value_at(K, p0, powers), _value_at(K, p1, powers)
    if d1:
        for place in places:
            if K.add(d0, K.mul(d1, place.v[0])) == 0:
                return place
    raise AssertionError("ordinate of a norm factor is off the curve")


def _zero_place(curve: Curve, p0, p1, u) -> Place:
    """The place above the nonlinear norm factor u (coefficient tuples)
    where p0 + p1 y vanishes: the ramified place, or one of the two split
    ones.

    The places over u come from `Curve.u_places`.  A u met for the first
    time gets its ordinate from `_zero_ordinate`, and its places (u, v),
    (u, -v) are stored; at a later u, one product w = p1 v mod u tells
    them apart, p0 = -w at (u, v) and p0 = w at (u, -v).  Raises
    AssertionError when neither place is a zero.  A linear factor is
    `_rational_zero`'s.
    """
    K = curve.field
    places = curve.u_places.get(u)
    if places is None:
        v = _zero_ordinate(curve, p0, p1, u)
        if v is None:
            places = (Place(RAMIFIED, u, ()),)
        else:
            places = (Place(SPLIT, u, v), Place(SPLIT, u, tuple(_sub(K, (), v))))
        curve.u_places[u] = places
        return places[0]
    first = places[0]
    if first.kind == RAMIFIED:
        return first
    if first.kind == SPLIT:
        r0, w = _rem(K, p0, u), _mul(K, p1, first.v, u)
        if w and r0 == w:
            return places[1]
        if w and not _add(K, r0, w):
            return first
    raise AssertionError("ordinate of a norm factor is off the curve")


def _zero_ordinate(curve: Curve, p0, p1, u) -> tuple | None:
    """The ordinate v = -p0 p1^-1 mod u of the zero of p0 + p1 y above the
    norm factor u (coefficient tuples), or None when u is ramified.

    Inverts p1 modulo u alone.  Raises AssertionError when p1 is not a
    unit mod u or v^2 is not x^3 + a x + b mod u.
    """
    K = curve.field
    fres = _rem(K, curve.rhs_poly().coeffs, u)
    if not fres:
        return None
    unit, p1_inv = _ext_gcd(K, _rem(K, p1, u), u)
    if len(unit) != 1:
        raise AssertionError("norm factor divides the y-coefficient of a primitive part")
    v = _sub(K, (), _mul(K, p0, p1_inv, u))
    if _mul(K, v, v, u) != fres:
        raise AssertionError("ordinate of a norm factor is off the curve")
    return tuple(v)


def decompose(D: Divisor, bound: int):
    """Elementary-divisor decomposition of finite support, or None.

    Returns [(place, multiplicity)] covering every finite place (signed),
    sorted as `Divisor.finite_places` sorts them, when all positive finite
    places have degree <= bound; otherwise None.  The unsorted places are
    scanned first, and only a divisor that passes is sorted; the place at
    infinity has degree 1 <= bound and never fails the scan.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for place, n in D.coeffs.items():
        if n > 0 and place.degree > bound:
            return None
    return D.finite_places()


# ---------------------------------------------------------------------------
# the point of a place, translations, orbits
# ---------------------------------------------------------------------------

def place_point(curve: Curve, place: Place) -> Point:
    """A point of a finite place over an `ExtFieldDesc` L of degree
    deg(place); each element of L is its own vector of F_q coordinates.

    A split or ramified place over u is read in L = F_q[x]/(u), at
    (x, v(x)).  An inert one is read in L = F_q[X]/(u(X^2 - c)), at
    x = X^2 - c and y = sqrt(x^3 + a x + b), for the least c that makes
    this modulus irreducible.  With x a root of u of degree d, it is
    irreducible iff X^2 = x + c is a non-square in F_q(x), that is iff the
    norm (-1)^d u(-c) of x + c is a non-square in F_q; so c is found by
    d-step Horner values, with no factoring.  Raises ValueError at the
    place at infinity.
    """
    if place.kind == INFINITY:
        raise ValueError("place_point expects a finite place")
    K = curve.field
    u = place.u
    if place.kind != INERT:
        L = ExtFieldDesc(K, Poly(K, u))
        return Point(curve, L, L.from_poly(Poly(K, (0, 1))), L.from_poly(Poly(K, place.v)))
    sign = 1 if len(u) % 2 else K.neg(1)
    for c in range(K.q):
        w = K.mul(sign, _horner(K, u, K.neg(c))[1])
        if w and not K.is_square(w):
            break
    else:
        raise AssertionError("no c makes u(X^2 - c) irreducible")
    x = Poly(K, (K.neg(c), 0, 1))
    J = Poly(K, ())
    for a in reversed(u):
        J = J * x + Poly(K, (a,))
    L = ExtFieldDesc(K, J)
    x0 = L.from_poly(x)
    return Point(curve, L, x0, L.sqrt(curve.rhs_in(L, x0)))


def _place_of_residue_point(S: Point) -> Place:
    """The place of a point over the residue field L of `place_point`.

    One elimination over the coordinates of 1, x, ..., x^dim and y,
    dim = [L : F_q].  The powers of x span the subfield F_q(x), so the
    first power that depends on the lower ones, x^e, gives the minimal
    polynomial u of x.  When e is dim, y lies in F_q(x) and the last
    column gives its ordinate v (zero on a ramified place); when e is
    dim/2 the place is inert.
    """
    L = S.dom
    K = L.base
    dim = L.k
    cols = [L.one]
    for _ in range(dim):
        cols.append(L.mul(cols[-1], S.x))
    cols.append(S.y)
    rows = [list(r) for r in zip(*cols)]
    e = len(_rref(K, rows, dim + 1))
    u = tuple(K.neg(row[e]) for row in rows[:e]) + (1,)
    if e == dim:
        v = Poly(K, [row[dim + 1] for row in rows]).coeffs
        return Place(SPLIT, u, v) if v else Place(RAMIFIED, u, ())
    if 2 * e == dim:
        return Place(INERT, u, ())
    raise AssertionError(f"translated place degree mismatch: {e} vs {dim}")


def _translate(Q: Point, steps: int, td: TorsionData) -> Place | None:
    """The place of Q - steps * P1 for a point Q of `place_point`, None at O.

    One chord with the rational point -steps * P1, which must not be O.
    """
    L = Q.dom
    T = td.point(-steps)
    S = point_add(Q, Point(td.curve, L, L.embed(T.x), L.embed(T.y)))
    return None if S.inf else _place_of_residue_point(S)


def translate_place(place: Place, steps: int, td: TorsionData) -> Place:
    """The place of {pi^i(Q) - steps * P1}.

    Runs the chord rule in the residue field of the place; raises
    HitsInfinity when the translate is O (torsion places only), and
    ValueError at the place at infinity.
    """
    Q = place_point(td.curve, place)
    steps %= td.k
    if steps == 0:
        return place
    out = _translate(Q, steps, td)
    if out is None:
        raise HitsInfinity("translate reached O")
    return out


def orbit_places(place: Place, td: TorsionData) -> list[Place | None]:
    """The translation cycle through the place: entry s is the place of
    Q - s * P1 for a point Q of the place, None where that is O.

    Every entry is one chord from Q in the place's own residue field; the
    cycle ends where it comes back to the place.
    """
    Q = place_point(td.curve, place)
    out: list[Place | None] = [place]
    for s in range(1, td.k):
        nxt = _translate(Q, s, td)
        if nxt == place:
            break
        out.append(nxt)
    return out
