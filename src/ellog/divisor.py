"""Places of the function field of E, divisors, heights, and translations.

A finite place is stored by the monic irreducible abscissa polynomial u and,
when the ordinates live in F_q[x]/(u), the ordinate polynomial v (deg v <
deg u, y = v(x) on the place).  Ramified places have v = 0; inert places
(ordinates outside F_q[x]/(u)) carry u alone and have degree 2 deg u.

The principal-divisor map factors the norm n0^2 - n1^2 (x^3 + a x + b) of
the primitive part p0 + p1 y of a function (n0 + n1 y)/(x - x1)^e.  At each
irreducible factor u off the ramified locus only one conjugate place is a
zero, the one with ordinate v = -p0/p1 mod u, so no square root is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .algebra import FieldDesc, Poly, poly_ext_gcd, poly_factor
from .curve import Curve, CurveFunction, Point, TorsionData, ZeroFunction, point_add, point_neg


class HitsInfinity(ValueError):
    pass


INFINITY = "inf"
SPLIT = "split"
RAMIFIED = "ram"
INERT = "inert"

_KIND_RANK = {INFINITY: 0, SPLIT: 1, RAMIFIED: 2, INERT: 3}


@total_ordering
@dataclass(frozen=True)
class Place:
    """A Galois orbit of curve points, keyed by (kind, u, v)."""

    kind: str
    u: tuple[int, ...]   # monic abscissa polynomial, low degree first; () at infinity
    v: tuple[int, ...]   # ordinate polynomial; () for inert / infinity

    @property
    def degree(self) -> int:
        if self.kind == INFINITY:
            return 1
        d = len(self.u) - 1
        return 2 * d if self.kind == INERT else d

    def sort_key(self):
        return (self.degree, _KIND_RANK[self.kind], self.u, self.v)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def encode(self, K: FieldDesc) -> str:
        if self.kind == INFINITY:
            return "inf::"
        uc = ",".join(K.enc(c) for c in self.u)
        vc = ",".join(K.enc(c) for c in self.v)
        return f"{self.kind}:{uc}:{vc}"

    @staticmethod
    def decode(K: FieldDesc, text: str) -> "Place":
        kind, uc, vc = text.split(":")
        if kind == INFINITY:
            return PLACE_AT_INFINITY

        def parse(blob):
            if not blob:
                return ()
            digits = [int(t) for t in blob.split(",")]
            if len(digits) % K.m:
                raise ValueError("ragged element encoding")
            return tuple(K.code(digits[i:i + K.m]) for i in range(0, len(digits), K.m))

        return Place(kind, parse(uc), parse(vc))


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

    Over a degree-1 u the residue ring is F_q itself, so the root is taken
    there; both paths run the same Tonelli-Shanks and give the same root.
    """
    K = curve.field
    if u.degree() == 1:
        fx = curve.rhs(K.neg(u.coeffs[0]))
        if fx == 0:
            return Poly(K, ())
        if not K.is_square(fx):
            return None
        return Poly(K, (K.sqrt(fx),))
    R = QuotientRing(K, u)
    fx = R.reduce(curve.rhs_poly())
    if not any(fx):
        return Poly(K, ())
    if not R.is_square(fx):
        return None
    return Poly(K, R.sqrt(fx))


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


class Divisor:
    """Sparse integer combination of places with cached degree and height."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Place, int] | None = None):
        self.coeffs = {p: n for p, n in (coeffs or {}).items() if n}

    def copy(self) -> "Divisor":
        return Divisor(dict(self.coeffs))

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
        return [(p, n) for p, n in sorted(self.coeffs.items()) if p.kind != INFINITY]

    def encode(self, K: FieldDesc) -> str:
        terms = [f"{p.encode(K)}^{n}" for p, n in sorted(self.coeffs.items())]
        return ";".join(terms)

    @staticmethod
    def decode(K: FieldDesc, text: str) -> "Divisor":
        d = Divisor()
        if not text:
            return d
        for term in text.split(";"):
            enc, n = term.rsplit("^", 1)
            d.add_place(Place.decode(K, enc), int(n))
        return d

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


# ---------------------------------------------------------------------------
# the principal divisor map
# ---------------------------------------------------------------------------

def divisor_of(fun: CurveFunction, curve: Curve) -> Divisor:
    """Zeros and poles of (n0 + n1 y)/(x - x1)^e; always degree 0.

    The affine zero structure comes from the content g = gcd(n0, n1) plus
    the norm of the primitive part p0 + p1 y.  A norm factor u off the
    ramified locus is the split place (u, v) with v = -p0 p1^-1 mod u: p1 is
    a unit mod u because gcd(p0, p1) = 1, and p0 + p1 y vanishes only where
    y = v.  The conjugate place (u, -v) is not a zero.
    """
    if fun.is_zero():
        raise ZeroFunction("divisor of the zero function")
    K = curve.field
    f = curve.rhs_poly()
    D = Divisor()

    n0, n1 = fun.n0, fun.n1
    g = n0.gcd(n1) if not n1.is_zero() else n0.monic()
    if n1.is_zero():
        p0, p1 = Poly(K, (1,)), Poly(K, ())
    elif g.degree() > 0:
        p0, p1 = (n0 // g), (n1 // g)
    else:
        p0, p1 = n0, n1

    # content: valuation mult at split/inert places, doubled at ramified ones
    if g.degree() > 0:
        for u, mult in poly_factor(g):
            for place in places_over(curve, u):
                if place.kind == RAMIFIED:
                    D.add_place(place, 2 * mult)
                else:
                    D.add_place(place, mult)

    # primitive part via its norm
    norm = p0 * p0 - (p1 * p1) * f
    if norm.is_zero():
        raise ZeroFunction("function vanishes on the curve")
    if norm.degree() > 0:
        for u, mult in poly_factor(norm):
            fres = f % u
            if fres.is_zero():
                if mult != 1:
                    raise AssertionError("ramified factor of a primitive part with multiplicity > 1")
                D.add_place(Place(RAMIFIED, u.coeffs, ()), 1)
                continue
            unit, p1_inv, _ = poly_ext_gcd(p1 % u, u)
            if unit.degree() != 0:
                raise AssertionError("norm factor divides the y-coefficient of a primitive part")
            v = (-((p0 % u) * p1_inv)) % u
            if not ((v * v - fres) % u).is_zero():
                raise AssertionError("ordinate of a norm factor is off the curve")
            D.add_place(Place(SPLIT, u.coeffs, v.coeffs), mult)

    # poles of the denominator (x - x1)^e
    if fun.e:
        x1 = fun.x1
        u1 = Poly(K, (K.neg(x1), 1))
        for place in places_over(curve, u1):
            D.add_place(place, -fun.e if place.kind != RAMIFIED else -2 * fun.e)

    # balance at infinity
    w0 = 2 * n0.degree() if not n0.is_zero() else None
    w1 = 3 + 2 * n1.degree() if not n1.is_zero() else None
    pole = max(x for x in (w0, w1) if x is not None)
    D.add_place(PLACE_AT_INFINITY, -pole + 2 * fun.e)

    if D.degree != 0:
        raise AssertionError(f"principal divisor of degree {D.degree}")
    return D


def decompose(D: Divisor, bound: int):
    """Elementary-divisor decomposition of finite support, or None.

    Returns [(place, multiplicity)] covering every finite place (signed) when
    all positive finite places have degree <= bound; otherwise None.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = []
    for place, n in D.finite_places():
        if n > 0 and place.degree > bound:
            return None
        out.append((place, n))
    return out


# ---------------------------------------------------------------------------
# residue arithmetic at a place, translations, orbits
# ---------------------------------------------------------------------------

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

    def embed(self, c: int):
        return tuple([c] + [0] * (self.d - 1))

    def add(self, a, b):
        K = self.K
        return tuple(K.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        K = self.K
        return tuple(K.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        K = self.K
        return tuple(K.neg(x) for x in a)

    def mul(self, a, b):
        return self.reduce(Poly(self.K, a) * Poly(self.K, b))

    def inv(self, a):
        from .algebra import poly_ext_gcd
        g, s, _ = poly_ext_gcd(Poly(self.K, a), self.u)
        if g.degree() != 0:
            raise ZeroDivisionError("non-invertible residue")
        return self.reduce(s.scale(self.K.inv(g.coeffs[0])))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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
        from .algebra import _tonelli_shanks
        return _tonelli_shanks(self, a, self.K.q ** self.d)


class PlaceAlgebra:
    """Residue field of a place, as an F_q-algebra holding the point (x, y).

    For split and ramified places this is F_q[x]/(u) with y = v(x); for inert
    places it is the quadratic extension F_q[x,y]/(u, y^2 - rhs), dimension
    2 deg u.  Elements are tuples (a, b) of QuotientRing elements meaning
    a + b y; split/ramified elements keep b = 0.
    """

    __slots__ = ("ring", "place", "curve", "yv", "fx", "dim")

    def __init__(self, curve: Curve, place: Place):
        K = curve.field
        u = Poly(K, place.u)
        self.ring = QuotientRing(K, u)
        self.place = place
        self.curve = curve
        self.fx = self.ring.reduce(curve.rhs_poly())
        if place.kind == INERT:
            self.yv = None
            self.dim = 2 * self.ring.d
        else:
            self.yv = self.ring.reduce(Poly(K, place.v))
            self.dim = self.ring.d

    @property
    def zero(self):
        z = self.ring.zero
        return (z, z)

    @property
    def one(self):
        return (self.ring.one, self.ring.zero)

    def embed(self, c: int):
        return (self.ring.embed(c), self.ring.zero)

    def x_elem(self):
        d = self.ring.d
        if d == 1:
            xred = self.ring.reduce(Poly(self.ring.K, (0, 1)))
        else:
            xred = tuple([0, 1] + [0] * (d - 2))
        return (xred, self.ring.zero)

    def y_elem(self):
        if self.yv is not None:
            return (self.yv, self.ring.zero)
        return (self.ring.zero, self.ring.one)

    def add(self, a, b):
        return (self.ring.add(a[0], b[0]), self.ring.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.ring.sub(a[0], b[0]), self.ring.sub(a[1], b[1]))

    def neg(self, a):
        return (self.ring.neg(a[0]), self.ring.neg(a[1]))

    def mul(self, a, b):
        R = self.ring
        lo = R.add(R.mul(a[0], b[0]), R.mul(R.mul(a[1], b[1]), self.fx))
        hi = R.add(R.mul(a[0], b[1]), R.mul(a[1], b[0]))
        return (lo, hi)

    def inv(self, a):
        R = self.ring
        if not any(a[1]):
            return (R.inv(a[0]), R.zero)
        # (a0 + a1 y)^-1 = (a0 - a1 y) / (a0^2 - a1^2 fx)
        nrm = R.sub(R.mul(a[0], a[0]), R.mul(R.mul(a[1], a[1]), self.fx))
        ninv = R.inv(nrm)
        return (R.mul(a[0], ninv), R.mul(R.neg(a[1]), ninv))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return a[0] == b[0] and a[1] == b[1]

    def coords(self, a) -> list[int]:
        """F_q coordinates, length = dim."""
        if self.yv is not None:
            return list(a[0])
        return list(a[0]) + list(a[1])

    def point(self) -> Point:
        return Point(self.curve, self, self.x_elem(), self.y_elem())


def _min_poly(alg: PlaceAlgebra, elem) -> Poly:
    """Minimal polynomial of an algebra element over F_q (the algebra is a field)."""
    K = alg.ring.K
    dim = alg.dim
    rows = []
    cur = alg.one
    for _ in range(dim + 1):
        rows.append(alg.coords(cur))
        cur = alg.mul(cur, elem)
    # find the first linear dependency among successive powers
    for deg in range(1, dim + 1):
        sol = _solve_dependency(K, rows[: deg + 1], dim)
        if sol is not None:
            return Poly(K, sol)
    raise AssertionError("no minimal polynomial found")


def _solve_dependency(K: FieldDesc, rows: list[list[int]], dim: int):
    """Monic dependency c_0 row_0 + ... + row_last = 0, or None."""
    n = len(rows) - 1
    # solve sum_{i<n} c_i rows[i] = -rows[n]
    A = [[rows[i][j] for i in range(n)] for j in range(dim)]
    b = [K.neg(rows[n][j]) for j in range(dim)]
    sol = _gauss_solve(K, A, b, n)
    if sol is None:
        return None
    return sol + [1]


def _gauss_solve(K: FieldDesc, A: list[list[int]], b: list[int], ncols: int):
    """One solution of A x = b over F_q, or None; A is dense row-major."""
    rows = [list(r) + [bv] for r, bv in zip(A, b)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [K.sub(x, K.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None
    x = [0] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = rows[i][ncols]
    return x


def translate_place(place: Place, steps: int, td: TorsionData) -> Place:
    """The place of {pi^i(Q) - steps * P1}.

    Runs the chord rule inside the residue algebra of the place; raises
    HitsInfinity when the orbit lands on O (torsion places only).
    """
    if place.kind == INFINITY:
        raise ValueError("translate_place expects a finite place")
    steps %= td.k
    if steps == 0:
        return place
    curve = td.curve
    K = curve.field
    # torsion fast path: places over points of <P1>
    j = _torsion_index(place, td)
    if j is not None:
        jj = (j - steps) % td.k
        if jj == 0:
            raise HitsInfinity("translate of a torsion place reached O")
        return place_of_point(curve, td.point(jj))
    alg = PlaceAlgebra(curve, place)
    Q = alg.point()
    T = Point(curve, alg, alg.embed(td.xs[(-steps) % td.k]), alg.embed(td.ys[(-steps) % td.k]))
    S = point_add(Q, T)
    if S.inf:
        raise HitsInfinity("translate reached O")
    return _place_of_algebra_point(curve, alg, S, place.degree)


def _torsion_index(place: Place, td: TorsionData) -> int | None:
    if len(place.u) != 2:
        return None
    K = td.curve.field
    x0 = K.neg(place.u[0])
    if place.kind == SPLIT:
        y0 = place.v[0]
    elif place.kind == RAMIFIED:
        y0 = 0
    else:
        return None
    for j in range(1, td.k):
        if td.xs[j] == x0 and td.ys[j] == y0:
            return j
    return None


def _place_of_algebra_point(curve: Curve, alg: PlaceAlgebra, S: Point, deg: int) -> Place:
    """Classify the place of a point with coordinates in a place algebra."""
    K = curve.field
    mx = _min_poly(alg, S.x)
    e = mx.degree()
    if e == deg:
        # y must lie in F_q[x']: solve for v with v(x') = y'
        R = alg
        pw = R.one
        rows = []
        for _ in range(e):
            rows.append(R.coords(pw))
            pw = R.mul(pw, S.x)
        target = R.coords(S.y)
        A = [[rows[i][j] for i in range(e)] for j in range(alg.dim)]
        sol = _gauss_solve(K, A, target, e)
        if sol is None:
            raise AssertionError("ordinate not rational over the abscissa field")
        v = Poly(K, sol) % mx
        if v.is_zero():
            return Place(RAMIFIED, mx.coeffs, ())
        return Place(SPLIT, mx.coeffs, tuple(v.coeffs))
    if 2 * e == deg:
        return Place(INERT, mx.coeffs, ())
    raise AssertionError(f"translated place degree mismatch: {e} vs {deg}")


def orbit_canonical(place: Place, td: TorsionData) -> tuple[Place, int]:
    """Canonical orbit representative and the shift from it back to place.

    rep is the lexicographically smallest encoding among the finite
    translates; shift s satisfies place = translate_place(rep, s).  The
    orbit of a torsion place walks through O; the gap slot is skipped as a
    candidate but still counts as one step.
    """
    k = td.k
    orbit: list[Place | None] = []
    cur: Place | None = place
    for _ in range(k):
        orbit.append(cur)
        if cur is None:
            nxt = place_of_point(td.curve, point_neg(td.P1))
        else:
            try:
                nxt = translate_place(cur, 1, td)
            except HitsInfinity:
                nxt = None
        if nxt == place:
            break
        cur = nxt
    cycle = len(orbit)
    finite = [(p.sort_key(), i) for i, p in enumerate(orbit) if p is not None]
    _, rep_i = min(finite)
    rep = orbit[rep_i]
    shift = (-rep_i) % cycle if cycle else 0
    return rep, shift


def orbit_places(place: Place, td: TorsionData) -> list[Place | None]:
    """The translation cycle through the place (None marks the O slot)."""
    out: list[Place | None] = []
    cur: Place | None = place
    for _ in range(td.k):
        out.append(cur)
        if cur is None:
            nxt = place_of_point(td.curve, point_neg(td.P1))
        else:
            try:
                nxt = translate_place(cur, 1, td)
            except HitsInfinity:
                nxt = None
        if nxt == place:
            break
        cur = nxt
    return out
