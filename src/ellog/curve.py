"""Weierstrass curves y^2 = x^3 + a x + b over F_q and its extensions.

Besides the chord-tangent group law and one point table per curve, from
which the point count, the point list and the rational abscissas are read,
this module carries the machinery tied to the three-coordinate curve
model: the third summation polynomial S_3, sparse trivariate polynomials
in U, V, W, the forward map phi sending Q to the abscissa triple of
(Q - P1, Q, Q + P1), and the pullback phi_star into functions on the
Weierstrass curve.

A pulled-back function is kept in the shape (n0(X) + n1(X) Y) / (X - x1)^e,
reduced with the curve equation; that normal form is what the divisor
machinery consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import FieldDesc, Poly, _horner, _poly, _sub, factor_modulus


class MixedCurves(ValueError):
    pass


class Singular(ValueError):
    pass


class OrderNotDivisible(ValueError):
    pass


class MapsToInfinity(ValueError):
    pass


class Curve:
    """y^2 = x^3 + a x + b over a FieldDesc, with its point count cached.

    `x_ordinates` is the curve's one point table, the memo of `ordinates`:
    x -> its ordinates in code order, for every abscissa of an affine point
    of E(F_q), in code order.  It is read from the field's `root_table`,
    filled when N is counted or on first use, and serves `count_points`,
    `curve_points`, `rational_abscissas` and `find_point_of_order`.
    `u_places` is the memo of the places over a monic irreducible abscissa
    polynomial u (a coefficient tuple), filled by `divisor.places_at`, by
    the principal-divisor map and by the factor-base build, which enters
    every u up to its degree bound.  `x_powers` holds (n, x -> [1, x, ...,
    x^(n-1)]) for the rational abscissas x, the table `abscissa_powers`
    grows.  None of them is compared.
    """

    __slots__ = ("field", "a", "b", "N", "t", "u_places", "x_ordinates",
                 "x_powers")

    def __init__(self, field: FieldDesc, a: int, b: int, N: int | None = None):
        K = field
        disc = K.add(K.mul(4 % K.p, K.pow_(a, 3)), K.mul(27 % K.p, K.mul(b, b)))
        if disc == 0:
            raise Singular("4a^3 + 27b^2 = 0")
        self.field = field
        self.a = a
        self.b = b
        self.u_places = {}
        self.x_ordinates = None
        self.x_powers = (0, {})
        self.N = N if N is not None else count_points(self)
        self.t = field.q + 1 - self.N
        if self.t * self.t > 4 * field.q:
            raise ValueError("point count violates the Hasse bound")

    def ordinates(self) -> dict[int, tuple[int, ...]]:
        """The point table: x -> (y,) where x^3 + a x + b = 0, else
        x -> (y, -y) with y its least root, for x in code order."""
        table = self.x_ordinates
        if table is None:
            K = self.field
            roots, neg, rhs = K.root_table(), K.neg, self.rhs
            table = self.x_ordinates = {}
            for x in range(K.q):
                y = roots[rhs(x)]
                if y > 0:
                    table[x] = (y, neg(y))
                elif y == 0:
                    table[x] = (0,)
        return table

    def rational_abscissas(self):
        """The codes x of F_q with x^3 + a x + b a square or zero, in code
        order: the abscissas of the affine points of E(F_q), about q/2."""
        return self.ordinates().keys()

    def abscissa_powers(self, n: int) -> dict[int, list[int]]:
        """x -> [1, x, ..., x^(m-1)] for each rational abscissa x, in code
        order, with m >= n; rebuilt at twice the length when too short."""
        m, table = self.x_powers
        if m < n:
            K = self.field
            mul = K.mul
            m = max(n, 2 * m)
            table = {}
            for x in self.rational_abscissas():
                row = table[x] = [1]
                for _ in range(m - 1):
                    row.append(mul(row[-1], x))
            self.x_powers = (m, table)
        return table

    def rhs(self, x: int) -> int:
        """x^3 + a x + b, as (x^2 + a) x + b: two products."""
        K = self.field
        return K.add(K.mul(K.add(K.mul(x, x), self.a), x), self.b)

    def rhs_in(self, dom, x):
        a = dom.embed(self.a)
        b = dom.embed(self.b)
        return dom.add(dom.mul(x, dom.mul(x, x)), dom.add(dom.mul(a, x), b))

    def rhs_poly(self) -> Poly:
        return Poly(self.field, (self.b, self.a, 0, 1))

    def order_over(self, i: int) -> int:
        """#E(F_{q^i}) from the trace recurrence t_i = t t_{i-1} - q t_{i-2}."""
        q = self.field.q
        t_prev, t_cur = 2, self.t
        for _ in range(i - 1):
            t_prev, t_cur = t_cur, self.t * t_cur - q * t_prev
        return q ** i + 1 - t_cur

    def encode(self) -> str:
        K = self.field
        mod = ",".join(str(c) for c in K.modulus)
        parts = [f"{K.p},{K.m},{mod}", K.enc(self.a), K.enc(self.b), str(self.N)]
        return "|".join(parts)

    def __eq__(self, other):
        return (isinstance(other, Curve) and self.field == other.field
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        K = self.field
        return f"E[y^2=x^3+{K.enc(self.a)}x+{K.enc(self.b)}/{K!r}]"


def count_points(curve: Curve) -> int:
    """#E(F_q): O and the ordinates of the point table."""
    return 1 + sum(map(len, curve.ordinates().values()))


class Point:
    """Affine point or infinity, tagged with its coordinate domain.

    The domain may be the base FieldDesc, an ExtFieldDesc, or any object
    exposing the same embed/add/sub/mul/div/neg/eq protocol over its own
    element representation.
    """

    __slots__ = ("curve", "dom", "x", "y", "inf")

    def __init__(self, curve: Curve, dom, x=None, y=None, inf: bool = False):
        self.curve = curve
        self.dom = dom
        self.x = x
        self.y = y
        self.inf = inf

    @staticmethod
    def infinity(curve: Curve, dom=None) -> "Point":
        return Point(curve, dom if dom is not None else curve.field, inf=True)

    @staticmethod
    def make(curve: Curve, dom, x, y) -> "Point":
        p = Point(curve, dom, x, y)
        if not p.on_curve():
            raise ValueError("point is not on the curve")
        return p

    def on_curve(self) -> bool:
        if self.inf:
            return True
        dom = self.dom
        return dom.eq(dom.mul(self.y, self.y), self.curve.rhs_in(dom, self.x))

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.inf or other.inf:
            return self.inf and other.inf
        return self.dom.eq(self.x, other.x) and self.dom.eq(self.y, other.y)

    def __hash__(self):
        if self.inf:
            return hash((self.curve, "inf"))
        return hash((self.curve, _freeze(self.x), _freeze(self.y)))

    def __repr__(self):
        if self.inf:
            return "O"
        return f"({self.x}, {self.y})"


def _freeze(v):
    return tuple(v) if isinstance(v, (list, tuple)) else v


def point_neg(P: Point) -> Point:
    if P.inf:
        return P
    return Point(P.curve, P.dom, P.x, P.dom.neg(P.y))


def point_add(P: Point, Q: Point) -> Point:
    if P.curve != Q.curve or (not P.inf and not Q.inf and P.dom is not Q.dom
                              and P.dom != Q.dom):
        raise MixedCurves("points live on different curves or domains")
    if P.inf:
        return Q
    if Q.inf:
        return P
    dom = P.dom
    if dom.eq(P.x, Q.x):
        if dom.eq(P.y, dom.neg(Q.y)):
            return Point.infinity(P.curve, dom)
        # tangent
        num = dom.add(dom.mul(dom.embed(3 % P.curve.field.p), dom.mul(P.x, P.x)),
                      dom.embed(P.curve.a))
        lam = dom.div(num, dom.mul(dom.embed(2), P.y))
    else:
        lam = dom.div(dom.sub(Q.y, P.y), dom.sub(Q.x, P.x))
    x3 = dom.sub(dom.sub(dom.mul(lam, lam), P.x), Q.x)
    y3 = dom.sub(dom.mul(lam, dom.sub(P.x, x3)), P.y)
    return Point(P.curve, dom, x3, y3)


def scalar_mul(n: int, P: Point) -> Point:
    if n < 0:
        return scalar_mul(-n, point_neg(P))
    R = Point.infinity(P.curve, P.dom)
    A = P
    while n:
        if n & 1:
            R = point_add(R, A)
        A = point_add(A, A)
        n >>= 1
    return R


def point_order(P: Point, group_order: int) -> int:
    """Exact order of P given a multiple of it (the group order)."""
    if P.inf:
        return 1
    n = group_order
    for ell, _ in factor_modulus(group_order):
        while n % ell == 0 and scalar_mul(n // ell, P).inf:
            n //= ell
    return n


def curve_points(curve: Curve) -> list[Point]:
    """All rational points, O first, then in the point table's order."""
    K = curve.field
    return [Point.infinity(curve)] + [Point(curve, K, x, y)
                                      for x, ys in curve.ordinates().items()
                                      for y in ys]


def find_point_of_order(curve: Curve, k: int, seed: int = 0) -> Point | None:
    """A rational point of exact order k, or None if the group has none.

    Random candidates (N/k) * R are tried first, R = (x, y) for a random
    x with y its least ordinate; for small q an exhaustive scan certifies
    a miss.
    """
    if k == 1:
        return Point.infinity(curve)
    if curve.N % k != 0:
        raise OrderNotDivisible(f"k = {k} does not divide N = {curve.N}")
    K = curve.field
    rng = random.Random(seed * 0x9E3779B1 + 0x5EED)
    table = curve.ordinates()
    cof = curve.N // k
    kfac = factor_modulus(k)
    for _ in range(96):
        x = rng.randrange(K.q)
        ys = table.get(x)
        if ys is None:
            continue
        R = Point(curve, K, x, ys[0])
        P = scalar_mul(cof, R)
        if P.inf:
            continue
        if not scalar_mul(k, P).inf:
            continue
        if all(not scalar_mul(k // ell, P).inf for ell, _ in kfac):
            return P
    if K.q <= 1 << 10:
        for R in curve_points(curve):
            P = scalar_mul(cof, R)
            if P.inf or not scalar_mul(k, P).inf:
                continue
            if all(not scalar_mul(k // ell, P).inf for ell, _ in kfac):
                return P
        return None
    return None


class TorsionData:
    """P1 of exact order k with the abscissa/ordinate table of its multiples.

    xs[j], ys[j] are the coordinates of P_j = j * P1 for j in 1..k-1; index 0
    is unused (the multiple 0 * P1 is the point at infinity).

    `pullbacks` is the table behind `phi_star`: for a monomial U^i V^j W^l
    and a power e >= 2 (i + l), the numerator pair (n0, n1) of its pull-back
    over (X - x1)^e, as coefficient tuples.  `bracket_pullbacks` is the
    table behind `plucker_pullback`, the same pair for bracket(m, n) of a
    label (m, n) of monomials in U and V.  Entries are added on first use
    and never change.
    """

    __slots__ = ("curve", "k", "P1", "xs", "ys", "_points", "pullbacks",
                 "bracket_pullbacks")

    def __init__(self, curve: Curve, P1: Point, k: int):
        if k < 3:
            raise ValueError("torsion order must be at least 3")
        if not scalar_mul(k, P1).inf:
            raise ValueError("P1 does not have order dividing k")
        self.curve = curve
        self.k = k
        self.P1 = P1
        pts = [None]
        P = P1
        for j in range(1, k):
            if P.inf:
                raise ValueError(f"P1 has order {j} < k")
            pts.append(P)
            P = point_add(P, P1)
        if not P.inf:
            raise ValueError("P1 does not have exact order k")
        self._points = pts
        self.xs = [None] + [Q.x for Q in pts[1:]]
        self.ys = [None] + [Q.y for Q in pts[1:]]
        self.pullbacks: dict = {}
        self.bracket_pullbacks: dict = {}

    def point(self, j: int) -> Point:
        j %= self.k
        if j == 0:
            return Point.infinity(self.curve)
        return self._points[j]


def semaev3(x1, x2, x3, curve: Curve, dom=None):
    """S_3 = 4 s1 (s3 + b) - (s2 - a)^2 in the given coordinate domain."""
    dom = dom if dom is not None else curve.field
    a = dom.embed(curve.a)
    b = dom.embed(curve.b)
    s1 = dom.add(dom.add(x1, x2), x3)
    s2 = dom.add(dom.add(dom.mul(x1, x2), dom.mul(x1, x3)), dom.mul(x2, x3))
    s3 = dom.mul(x1, dom.mul(x2, x3))
    t = dom.sub(s2, a)
    return dom.sub(dom.mul(dom.embed(4), dom.mul(s1, dom.add(s3, b))), dom.mul(t, t))


# ---------------------------------------------------------------------------
# sparse polynomials in U, V, W
# ---------------------------------------------------------------------------

class TriPoly:
    """Sparse polynomial in U, V, W over the base field.

    Keys are exponent triples (i, j, l); values are nonzero field codes.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldDesc, terms=None):
        self.field = field
        t = {}
        if terms:
            for mono, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    key = tuple(mono)
                    cur = t.get(key)
                    c2 = field.add(cur, c) if cur is not None else c
                    if c2:
                        t[key] = c2
                    elif cur is not None:
                        del t[key]
        self.terms = t

    @staticmethod
    def var(field: FieldDesc, name: str) -> "TriPoly":
        idx = "UVW".index(name)
        mono = [0, 0, 0]
        mono[idx] = 1
        return TriPoly(field, {tuple(mono): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TriPoly) and self.field == other.field and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        K = self.field
        t = dict(self.terms)
        for mono, c in other.terms.items():
            c2 = K.add(t.get(mono, 0), c)
            if c2:
                t[mono] = c2
            else:
                t.pop(mono, None)
        return TriPoly(K, t)

    def __sub__(self, other):
        K = self.field
        t = dict(self.terms)
        for mono, c in other.terms.items():
            c2 = K.sub(t.get(mono, 0), c)
            if c2:
                t[mono] = c2
            else:
                t.pop(mono, None)
        return TriPoly(K, t)

    def __mul__(self, other):
        K = self.field
        if isinstance(other, int):
            return self.scale(other)
        t: dict[tuple, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                c = K.mul(c1, c2)
                cur = t.get(mono)
                c2v = K.add(cur, c) if cur is not None else c
                if c2v:
                    t[mono] = c2v
                elif cur is not None:
                    del t[mono]
        return TriPoly(K, t)

    def scale(self, c: int) -> "TriPoly":
        K = self.field
        if c == 0:
            return TriPoly(K)
        return TriPoly(K, {m: K.mul(v, c) for m, v in self.terms.items()})

    def __neg__(self):
        return self.scale(self.field.neg(1))

    def shift_uv_to_vw(self) -> "TriPoly":
        """Substitute U -> V, V -> W (the right-hand-side twist)."""
        if any(m[2] for m in self.terms):
            raise ValueError("shift only defined for polynomials in U, V")
        return TriPoly(self.field, {(0, m[0], m[1]): c for m, c in self.terms.items()})

    def eval_in(self, dom, u, v, w):
        acc = dom.zero
        for (i, j, l), c in self.terms.items():
            term = dom.embed(c)
            for base, e in ((u, i), (v, j), (w, l)):
                for _ in range(e):
                    term = dom.mul(term, base)
            acc = dom.add(acc, term)
        return acc

    def canonical(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j, l), c in sorted(self.terms.items()):
            mono = "".join(s * e for s, e in zip("UVW", (i, j, l))) or "1"
            parts.append(f"{self.field.enc(c)}*{mono}")
        return " + ".join(parts)


def bracket(A: TriPoly, B: TriPoly) -> TriPoly:
    """A(V,W) B(U,V) - A(U,V) B(V,W): the right side of every relation."""
    return A.shift_uv_to_vw() * B - A * B.shift_uv_to_vw()


def plucker_bracket(field: FieldDesc, coords) -> TriPoly:
    """The bracket of A and B from the Plucker coordinates of A ^ B.

    `coords` holds ((m, n), p_mn) with p_mn = a_m b_n - a_n b_m for
    monomials m < n in U and V.  The bracket is bilinear and alternating,
    so bracket(A, B) = sum p_mn bracket(m, n), where
    bracket(U^a V^b, U^c V^d) = U^c V^(a+d) W^b - U^a V^(b+c) W^d.
    """
    neg = field.neg
    return TriPoly(field, [term for ((a, b, _), (c, d, _)), p in coords
                           for term in (((c, a + d, b), p),
                                        ((a, b + c, d), neg(p)))])


def phi(Q: Point, td: TorsionData):
    """(x_{Q-P1}, x_Q, x_{Q+P1}); the three exceptional points are rejected."""
    if Q.inf:
        raise MapsToInfinity("O maps to infinity on the model")
    dom = Q.dom
    P1 = _lift_point(td.P1, dom, Q.curve)
    if dom.eq(Q.x, P1.x):
        raise MapsToInfinity("Q in {P1, -P1} maps to infinity on the model")
    left = point_add(Q, point_neg(P1))
    right = point_add(Q, P1)
    return (left.x, Q.x, right.x)


def _lift_point(P: Point, dom, curve: Curve) -> Point:
    if dom is P.dom or dom == P.dom:
        return P
    return Point(curve, dom, dom.embed(P.x), dom.embed(P.y))


# ---------------------------------------------------------------------------
# functions on E in the normal form (n0 + n1 Y) / (X - x1)^e
# ---------------------------------------------------------------------------

class ZeroFunction(ValueError):
    pass


@dataclass(frozen=True)
class CurveFunction:
    """(n0(X) + n1(X) Y) / (X - x1)^e on a fixed curve.

    Always reduced: no common (X - x1) factor of n0 and n1 remains while
    e > 0.  Multiplication reduces Y^2 via the curve equation.
    """

    curve: Curve
    x1: int
    n0: Poly
    n1: Poly
    e: int

    @staticmethod
    def make(curve: Curve, x1: int, n0: Poly, n1: Poly, e: int) -> "CurveFunction":
        """The function over (X - x1)^e with every common (X - x1) struck
        out, one synthetic division of each numerator per factor."""
        K = curve.field
        c0, c1 = n0.coeffs, n1.coeffs
        while e > 0 and (c0 or c1):
            q0, r0 = _horner(K, c0, x1)
            if r0:
                break
            q1, r1 = _horner(K, c1, x1)
            if r1:
                break
            c0, c1, e = q0, q1, e - 1
        return CurveFunction(curve, x1, _poly(K, c0), _poly(K, c1), e)

    def is_zero(self) -> bool:
        return self.n0.is_zero() and self.n1.is_zero()

    def mul(self, other: "CurveFunction") -> "CurveFunction":
        if self.curve != other.curve or self.x1 != other.x1:
            raise MixedCurves("functions on different models")
        f = self.curve.rhs_poly()
        n0 = self.n0 * other.n0 + (self.n1 * other.n1) * f
        n1 = self.n0 * other.n1 + self.n1 * other.n0
        return CurveFunction.make(self.curve, self.x1, n0, n1, self.e + other.e)

    def __repr__(self):
        return f"({self.n0!r} + ({self.n1!r})*Y)/(X-x1)^{self.e}"


def phi_star(f: TriPoly, td: TorsionData) -> CurveFunction:
    """Pull a model function back to the Weierstrass curve.

    U and W map to (x1 X^2 + (a + x1^2) X + a x1 + 2b +- 2 y1 Y)/(X - x1)^2,
    V maps to X; the result is put over the smallest power of (X - x1).
    phi_star is linear, so the numerators are c times the image of each
    monomial over the common power e, read from `td.pullbacks`.
    """
    if f.is_zero():
        K = td.curve.field
        return CurveFunction.make(td.curve, td.xs[1], Poly(K, ()), Poly(K, ()), 0)
    e = max(2 * (i + l) for (i, j, l) in f.terms)
    return _combine(td, [(c, _monomial_image(td, mono, e))
                         for mono, c in f.terms.items()], e)


def plucker_pullback(coords, td: TorsionData) -> CurveFunction:
    """phi_star(plucker_bracket(K, coords)), with no TriPoly built.

    The pull-back is linear, so it is sum p_mn phi_star(bracket(m, n)),
    from the image of each label over the common power e, read from
    `td.bracket_pullbacks`.  A larger e than the bracket needs is struck
    out by `CurveFunction.make`, so the result is the same function in the
    same normal form.
    """
    e = max(2 * max(b + c, a + d) for ((a, b, _), (c, d, _)), _ in coords)
    table = td.bracket_pullbacks
    terms = []
    for label, c in coords:
        img = table.get((label, e))
        if img is None:
            K = td.curve.field
            (a, b, _), (c2, d, _) = label
            left = _monomial_image(td, (c2, a + d, b), e)
            right = _monomial_image(td, (a, b + c2, d), e)
            img = table[(label, e)] = (tuple(_sub(K, left[0], right[0])),
                                       tuple(_sub(K, left[1], right[1])))
        terms.append((c, img))
    return _combine(td, terms, e)


def _monomial_image(td: TorsionData, mono: tuple, e: int) -> tuple:
    """`_monomial_pullback`, memoized in `td.pullbacks`."""
    img = td.pullbacks.get((mono, e))
    if img is None:
        img = td.pullbacks[(mono, e)] = _monomial_pullback(td, mono, e)
    return img


def _combine(td: TorsionData, terms, e: int) -> CurveFunction:
    """(sum c n0 + sum c n1 Y)/(X - x1)^e over the (c, (n0, n1)) of terms."""
    curve = td.curve
    K = curve.field
    prime = K.m == 1
    add, mul = K.add, K.mul
    tot0: list[int] = []
    tot1: list[int] = []
    for c, img in terms:
        for tot, n in zip((tot0, tot1), img):
            if len(tot) < len(n):
                tot.extend([0] * (len(n) - len(tot)))
            if prime:
                for d, x in enumerate(n):
                    tot[d] += c * x
            else:
                for d, x in enumerate(n):
                    tot[d] = add(tot[d], mul(c, x))
    if prime:
        p = K.p
        tot0 = [x % p for x in tot0]
        tot1 = [x % p for x in tot1]
    return CurveFunction.make(curve, td.xs[1], Poly(K, tot0), Poly(K, tot1), e)


def _monomial_pullback(td: TorsionData, mono: tuple, e: int) -> tuple:
    """Numerators (n0, n1) of phi_star(U^i V^j W^l) over (X - x1)^e."""
    curve = td.curve
    K = curve.field
    x1 = td.xs[1]
    y1 = td.ys[1]
    a, b = curve.a, curve.b
    quad = Poly(K, (K.add(K.mul(a, x1), K.mul(2, b)), K.add(a, K.mul(x1, x1)), x1))
    two_y1 = K.mul(2, y1)
    NU = (quad, Poly(K, (two_y1,)))          # numerator of U over (X-x1)^2
    NW = (quad, Poly(K, (K.neg(two_y1),)))   # numerator of W
    fpoly = curve.rhs_poly()

    def pair_mul(p, q):
        n0 = p[0] * q[0] + (p[1] * q[1]) * fpoly
        n1 = p[0] * q[1] + p[1] * q[0]
        return (n0, n1)

    i, j, l = mono
    term = (Poly(K, (1,)), Poly(K, ()))
    for _ in range(i):
        term = pair_mul(term, NU)
    for _ in range(l):
        term = pair_mul(term, NW)
    lin = Poly(K, (K.neg(x1), 1))
    for _ in range(e - 2 * (i + l)):
        term = (term[0] * lin, term[1] * lin)
    return (term[0].shift(j).coeffs, term[1].shift(j).coeffs)
