"""Relation collection over the reduced factor base.

The factor base holds one unknown per translation orbit of places (degree
up to the configured bound) plus the single constant c, the log of the
class of ((-P1) - (O)).  Translating a place by -P1 multiplies its class by
the Frobenius and by that constant to the power of the place degree, so the
log of any place is q^s * log(rep) + d * sigma_s * c after s translation
steps, with sigma_s = 1 + q + ... + q^(s-1).  Places over the torsion
points of <P1> need no unknown at all: their whole orbit walks through O
and the walk pins every log to a multiple of c.

A relation equates the image of prod (A - alpha' B) with the image of the
bracket A(V,W)B(U,V) - A(U,V)B(V,W) for a sieve pair (A, B) in
span{1, U, V, UV}.  The pairs come in families (core, m1, special_group,
k1k2, height5), each named by a mode and a few params; `FAMILIES` gives
every family's (A, B) as coefficient vectors, and `reconstruct_pair`, the
one place that turns a name into a pair, serves the sieves and the audit
of stored relations alike.  The core sieve uses the generators
g1 = U - x2, g2 = V - x3, g3 = g1 g2; the extension stages sieve the
height-4 groups and the free height-5 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import combinations, product
from math import gcd

from .algebra import ConfigError, Poly, _scale, poly_irreducibles
from .curve import TriPoly, bracket, phi_star, plucker_bracket, plucker_pullback
from .divisor import (Divisor, Place, _places_above, decompose, divisor_of,
                      negation, orbit_places, place_of_point)
from .linalg import crt, determined_mod_prime, solve_affine_mod


class DegeneratePair(ValueError):
    pass


class GroupDegenerate(RuntimeError):
    pass


C_COLUMN = -1


def _sigma(q: int, s: int, M: int) -> int:
    return ((q ** s - 1) // (q - 1)) % M


class FactorBase:
    """Orbit representatives of places up to a degree bound, plus the c column.

    Column 0 is permanently the constant c (the torsion orbit); column i >= 1
    is the i-th representative.  Extending the degree bound appends columns,
    never renumbers, so stored relations stay valid.
    """

    def __init__(self, basis, bound: int = 3):
        self.basis = basis
        self.bound = 0
        self.reps: list[Place] = []
        self.rep_col: dict[Place, int] = {}
        self.place_map: dict[Place, tuple[int, int, int]] = {}
        self.cycle_len: dict[int, int] = {}
        # the c orbit: entry s is the place of -(s + 1) P1, None at O
        td = basis.td
        for s, p in enumerate(orbit_places(place_of_point(basis.curve, td.point(-1)), td)):
            if p is not None:
                self.place_map[p] = (C_COLUMN, s, 1)
        self.extend_to(bound)

    def extend_to(self, bound: int):
        """Index every place of degree <= bound (appends, keeping old columns).

        The places over each u are taken through the curve's memo
        (`divisor._places_above`), so that later divisors of the sieve find
        every norm factor of degree <= bound there and read its zero with
        one product."""
        basis = self.basis
        K = basis.curve.field
        td = basis.td
        for deg in range(self.bound + 1, bound + 1):
            new_places = []
            # split and ramified places sit over degree-deg polynomials,
            # inert ones over degree-(deg/2)
            dus = [deg] + ([deg // 2] if deg % 2 == 0 else [])
            for du in dus:
                for u in poly_irreducibles(K, du):
                    for p in _places_above(basis.curve, u):
                        if p.degree == deg:
                            new_places.append(p)
            for p in sorted(new_places, key=lambda p: p.sort_key):
                if p in self.place_map:
                    continue
                # places come in sorted order, so the first unmapped one is
                # the least of its orbit: p is the representative
                orbit = orbit_places(p, td)
                assert all(o is not None for o in orbit)
                self.reps.append(p)
                col = len(self.reps)
                self.rep_col[p] = col
                self.cycle_len[col] = len(orbit)
                for shift, member in enumerate(orbit):
                    # member = translate^shift(p) holds along the cycle
                    self.place_map[member] = (col, shift, member.degree)
        self.bound = max(self.bound, bound)

    # -- bookkeeping ----------------------------------------------------

    def columns(self) -> int:
        """Unknown count: the c column plus one per representative."""
        return len(self.reps) + 1

    def rep_of_col(self, col: int) -> Place:
        return self.reps[col - 1]

    def place_log_terms(self, place: Place, mult: int):
        """[(column, coefficient)] of mult * log(place) over the unknowns."""
        q, M = self.basis.q, self.basis.M
        col, s, d = self.place_map[place]
        qs = pow(q, s, M)
        sig = _sigma(q, s, M)
        if col == C_COLUMN:
            return [(0, mult * (qs + d * sig) % M)]
        return [(col, mult * qs % M), (0, mult * d * sig % M)]

    def row_of_divisor(self, D: Divisor) -> dict[int, int] | None:
        """The row of D over the columns, or None when a place of D has none."""
        M = self.basis.M
        row: dict[int, int] = {}
        for place, n in D.finite_places():
            if place not in self.place_map:
                return None
            for col, coef in self.place_log_terms(place, n):
                row[col] = (row.get(col, 0) + coef) % M
        return {c: v for c, v in row.items() if v}

    def log_of_place(self, place: Place, logs: dict[int, int]) -> int | None:
        """log of the place's class given assembled column logs mod M."""
        M = self.basis.M
        acc = 0
        for col, coef in self.place_log_terms(place, 1):
            if col not in logs:
                return None
            acc = (acc + coef * logs[col]) % M
        return acc

    def cycle_relations(self) -> list["Relation"]:
        """Free rows from orbits shorter than k: (q^L - 1) log(rep) + d sigma_L c = 0."""
        q, M, k = self.basis.q, self.basis.M, self.basis.td.k
        out = []
        for col, L in self.cycle_len.items():
            if L == k:
                continue
            d = self.rep_of_col(col).degree
            row = {col: (pow(q, L, M) - 1) % M,
                   0: d * _sigma(q, L, M) % M}
            out.append(Relation("cycle", (col, L), {c: v for c, v in row.items() if v}))
        return out

    def fingerprint(self) -> str:
        K = self.basis.curve.field
        return f"{self.basis.curve.encode()}|k={self.basis.td.k}|P1={K.enc(self.basis.td.P1.x)},{K.enc(self.basis.td.P1.y)}"


@dataclass
class Relation:
    """A homogeneous row over the factor-base columns (c included as a column)."""

    mode: str
    params: tuple
    cols: dict[int, int]

    def key(self):
        return tuple(sorted(self.cols.items()))

    def to_line(self) -> str:
        body = ",".join(f"{c}:{v}" for c, v in sorted(self.cols.items()) if c != 0)
        params = ";".join(str(x) for x in self.params)
        return f"{self.mode}|{params}|{body}|c:{self.cols.get(0, 0)}"

    @staticmethod
    def from_line(line: str) -> "Relation":
        fields = line.rstrip("\n").split("|")
        if len(fields) != 4:
            raise ValueError(f"{len(fields)} '|'-separated fields, not 4")
        mode, params, body, cpart = fields
        cols: dict[int, int] = {}
        if body:
            for item in body.split(","):
                c, v = item.split(":")
                cols[int(c)] = int(v)
        if not cpart.startswith("c:"):
            raise ValueError(f"last field {cpart!r} is not c:<value>")
        cv = int(cpart[2:])
        if cv:
            cols[0] = cv
        ptuple = tuple(int(x) for x in params.split(";")) if params else ()
        return Relation(mode, ptuple, cols)


def build_factor_base(basis, bound: int = 3) -> FactorBase:
    return FactorBase(basis, bound)


# ---------------------------------------------------------------------------
# sieve families
# ---------------------------------------------------------------------------

def k1k2_coefficients(basis):
    """Leading data of the three building brackets over the common denominator.

    Returns (c1, c2, c3, weighted_degree) for <U,UV>, <UV,V>, <U,V>; the
    weighted degree (X counts 2, Y counts 3) must agree across the three or
    the group construction degenerates.  Computed once per basis.
    """
    if basis.k1k2_coeffs is not None:
        return basis.k1k2_coeffs
    K = basis.curve.field
    td = basis.td
    U = TriPoly.var(K, "U")
    V = TriPoly.var(K, "V")
    UV = U * V
    funs = [phi_star(bracket(U, UV), td),
            phi_star(bracket(UV, V), td),
            phi_star(bracket(U, V), td)]
    # put all numerators over the common denominator power
    emax = max(f.e for f in funs)
    lin = Poly(K, (K.neg(td.xs[1]), 1))
    tops = []
    wmax_all = 0
    for f in funs:
        n0, n1 = f.n0, f.n1
        for _ in range(emax - f.e):
            n0, n1 = n0 * lin, n1 * lin
        w0 = 2 * n0.degree() if not n0.is_zero() else -1
        w1 = 3 + 2 * n1.degree() if not n1.is_zero() else -1
        tops.append((n0, n1, max(w0, w1)))
        wmax_all = max(wmax_all, max(w0, w1))
    cs = []
    for n0, n1, w in tops:
        if w < wmax_all:
            cs.append(0)
        elif wmax_all % 2 == 0:
            cs.append(n0.lead())
        else:
            cs.append(n1.lead())
    basis.k1k2_coeffs = (cs[0], cs[1], cs[2], wmax_all)
    return basis.k1k2_coeffs


def k1k2_group_basis(basis, k1: int) -> int:
    """The k2 of the height-4 group with generators UV + k1 U, UV + k2 V, 1.

    k2 is forced by annihilating the top weighted monomial of <g1, g2>;
    the excluded k1 (and any k1 giving k2 = 0) raise GroupDegenerate.
    """
    K = basis.curve.field
    c1, c2, c3, _ = k1k2_coefficients(basis)
    if c2 == 0 or c3 == 0:
        raise GroupDegenerate("bracket leading coefficients vanish (x1 = 0?)")
    excluded = K.neg(K.div(c2, c3))
    if k1 == excluded:
        raise GroupDegenerate("k1 equals the excluded value")
    denom = K.add(c2, K.mul(k1, c3))
    k2 = K.neg(K.div(K.mul(k1, c1), denom))
    if k1 == 0 or k2 == 0:
        raise GroupDegenerate("degenerate generator pair")
    return k2


# Each family maps its params to the coefficient vectors of (A, B) over
# the monomials 1, U, V, UV, in that order.

def _core(basis, K, alpha, beta, gamma):
    """g1 = U - x2, g2 = V - x3, g3 = g1 g2: A = g1 + alpha g3 and
    B = g1 + beta g2 + gamma g3."""
    x2, x3 = basis.td.xs[2], basis.td.xs[3]
    sub, mul = K.sub, K.mul
    x23 = mul(x2, x3)
    return ((sub(mul(alpha, x23), x2), sub(1, mul(alpha, x3)),
             K.neg(mul(alpha, x2)), alpha),
            (sub(mul(gamma, x23), K.add(x2, mul(beta, x3))),
             sub(1, mul(gamma, x3)), sub(beta, mul(gamma, x2)), gamma))


def _m1(basis, K, u, v, w, a, b, c):
    """A = UV + a U + b V + c, B = u U + v V + w."""
    return (c, a, b, 1), (w, u, v, 0)


def _special_group(basis, K, alpha, beta):
    """A = UV + alpha (U + V), B = UV + beta."""
    return (0, alpha, alpha, 1), (beta, 0, 0, 1)


def _k1k2(basis, K, k1, k2, alpha, beta):
    """A = (1 + alpha) UV + k1 U + alpha k2 V, B = UV + k1 U + beta, with
    k2 the value `k1k2_group_basis` derives from k1."""
    try:
        want = k1k2_group_basis(basis, k1)
    except GroupDegenerate as exc:
        raise ConfigError(f"k1k2 group k1 = {k1}: {exc}") from None
    if k2 != want:
        raise ConfigError(f"k1k2 group k1 = {k1} has k2 = {want}, not {k2}")
    return (0, k1, K.mul(alpha, k2), K.add(1, alpha)), (beta, k1, 0, 1)


def _height5(basis, K, a_u, a_1, b_v, b_1):
    """A = UV + a_u U + a_1, B = UV + b_v V + b_1."""
    return (a_1, a_u, 0, 1), (b_1, 0, b_v, 1)


# name -> (parameter count, vectors) for every sieve family
FAMILIES = {"core": (3, _core), "m1": (6, _m1),
            "special_group": (2, _special_group), "k1k2": (4, _k1k2),
            "height5": (4, _height5)}
# every mode a stored relation may carry -> the family naming its pair;
# a "<family>_free" row is a near miss of that family's group sieve
_MODE_FAMILY = {**{m: m for m in FAMILIES},
                "special_group_free": "special_group", "k1k2_free": "k1k2"}
_SPAN = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))  # 1, U, V, UV


def _check_name(mode: str, params: tuple, q: int):
    """Raise ConfigError unless (mode, params) can name a sieve pair over F_q."""
    family = _MODE_FAMILY.get(mode)
    if family is None:
        raise ConfigError(f"unknown relation mode {mode!r}")
    count = FAMILIES[family][0]
    if len(params) != count:
        raise ConfigError(f"mode {mode} takes {count} params, not {len(params)}")
    if not all(0 <= x < q for x in params):
        raise ConfigError(f"params {params} of mode {mode} are not codes of F_{q}")


def reconstruct_pair(basis, mode: str, params: tuple):
    """The sieve pair (A, B) that a relation's (mode, params) names.

    The only place a pair is built from its name: every sieve calls it, so
    `ellog verify` rebuilds exactly the pair that was sieved.  A "_free"
    mode names the pair of its family.  Raises ConfigError for a name no
    sieve can produce.
    """
    K = basis.curve.field
    _check_name(mode, params, K.q)
    a, b = FAMILIES[_MODE_FAMILY[mode]][1](basis, K, *params)
    return TriPoly(K, zip(_SPAN, a)), TriPoly(K, zip(_SPAN, b))


# ---------------------------------------------------------------------------
# pair evaluation
# ---------------------------------------------------------------------------

class PairResult:
    """The divisors of a pair's left factors and of its bracket.

    It holds the memo's own divisors: `left_total` reads them, while
    `left_divisors` and `right_divisor` hand out copies, so the memo
    cannot be changed through a result.
    """

    __slots__ = ("_lefts", "_right")

    def __init__(self, lefts: list[Divisor], right: Divisor):
        self._lefts = lefts
        self._right = right

    @property
    def left_divisors(self) -> list[Divisor]:
        return [D.copy() for D in self._lefts]

    @property
    def right_divisor(self) -> Divisor:
        return self._right.copy()

    def left_total(self) -> Divisor:
        tot: dict[Place, int] = {}
        for d in self._lefts:
            for p, n in d.coeffs.items():
                tot[p] = tot.get(p, 0) + n
        return Divisor(tot)


def _class_key(labels, coords, K) -> tuple:
    """The projective class of a coordinate vector, as a memo key.

    (label, c) for each nonzero coordinate, in the order of `labels`,
    scaled so that the coefficient of the last label is 1; () for zero.
    """
    for top in reversed(coords):
        if top:
            break
    else:
        return ()
    if top != 1:
        coords = _scale(K, coords, K.inv(top))
    return tuple([(l, c) for l, c in zip(labels, coords) if c])


def _pencil_keys(monos: tuple, a: list, b: list, K):
    """(keys, order): the `_class_key` of each line a - t b, t = 0..q-1,
    then of b, and (i, slots), each line's slot in the canonical order of
    its plane (`_pencil_slots`), or None for a dependent pair.

    Every monomial of `monos` is in A or B, so the last coordinate of the
    pencil is nonzero.  The pencil has a basis d, c with 1 and 0 there, c
    scaled to 1 at its own last nonzero coordinate i.  A line x d + y c with
    x != 0 is keyed as d + (y/x) c, which already ends in 1, and takes slot
    d_i + y/x; the line with x = 0 is keyed as c and takes slot q: one
    inverse per line and no vector scaled.  With b_n the last coordinate of
    b and t0 = a_n/b_n, a - t b = l c + (t0 - t) b_n d for l the last
    nonzero coordinate of a - t0 b; with b_n = 0, it is a_n d - t m c for m
    that of b.  Dependent pairs, where a - t0 b or b is zero, are keyed
    line by line.
    """
    q, inv, mul, sub = K.q, K.inv, K.mul, K.sub
    an, bn = a[-1], b[-1]
    if bn:
        t0 = mul(an, inv(bn))
        e = [sub(x, mul(t0, y)) for x, y in zip(a, b)]
        d = _scale(K, b, inv(bn))
    else:
        e, d = b, _scale(K, a, inv(an))
    i = next((j for j in range(len(e) - 1, -1, -1) if e[j]), None)
    if i is None:
        return ([_class_key(monos, [sub(x, mul(t, y)) for x, y in zip(a, b)], K)
                 for t in range(q)] + [_class_key(monos, b, K)]), None
    lam = e[i]
    c = _scale(K, e, inv(lam))
    if bn:
        lam_bn = mul(lam, inv(bn))
        ss = [None if t == t0 else mul(lam_bn, inv(sub(t0, t))) for t in range(q)]
        ss.append(0)
    else:
        r = K.neg(mul(lam, inv(an)))
        ss = [mul(t, r) for t in range(q)]
        ss.append(None)
    key_c = tuple([(l, x) for l, x in zip(monos, c) if x])
    di = d[i]
    if K.m == 1:
        p = K.p
        return ([key_c if s is None else
                 tuple([(l, v) for l, x, y in zip(monos, d, c) if (v := (x + s * y) % p)])
                 for s in ss],
                (i, [q if s is None else (di + s) % p for s in ss]))
    add = K.add
    return ([key_c if s is None else
             tuple([(l, v) for l, x, y in zip(monos, d, c) if (v := add(x, mul(s, y)))])
             for s in ss],
            (i, [q if s is None else add(di, s) for s in ss]))


def _pencil_slots(a: list, b: list, i: int, K) -> list[int]:
    """The slot of each line a - t b, t = 0..q-1, then of b, in the
    canonical order of their plane, for a and b independent.

    Let c be the plane's vector with last coordinate 0, scaled to 1 at
    its last nonzero coordinate, index i.  A line [v] with v_n != 0 takes
    slot v_i / v_n, and [c] takes slot q: a numbering of the q + 1 lines
    that depends on the plane alone, not on the pair that spans it.
    """
    q, an, bn, ai, bi = K.q, a[-1], b[-1], a[i], b[i]
    inv = K.inv
    if K.m == 1:
        p = K.p
        slots = []
        for t in range(q):
            vn = (an - t * bn) % p
            slots.append((ai - t * bi) * inv(vn) % p if vn else q)
        slots.append(bi * inv(bn) % p if bn else q)
        return slots
    mul, sub = K.mul, K.sub
    slots = []
    for t in range(q):
        vn = sub(an, mul(t, bn))
        slots.append(mul(sub(ai, mul(t, bi)), inv(vn)) if vn else q)
    slots.append(mul(bi, inv(bn)) if bn else q)
    return slots


@cache
def _plane_labels(monos: tuple) -> tuple:
    """How `pair_divisors` labels a plane over the sorted monomials `monos`.

    Returns (ij, labels, swapped, moves): the index pairs i < j of the
    Plucker coordinates, their labels (monos[i], monos[j]), and for the
    swap of U and V the image labels in sorted order and, for each, the
    index of the coordinate it takes and whether that is negated.  The swap
    takes U^a V^b to U^b V^a, so the label (m, n) moves to the label of
    the swapped monomials, with its coordinate's sign flipped where they
    come out of order.  Any monomials in U and V work, the descent's
    among them.  Cached for the process's life: a tuple is a subset of
    the sieve span {1, U, V, UV} or of the descent's eight monomials, so
    there are at most 2^8 entries.
    """
    ij = tuple(combinations(range(len(monos)), 2))
    labels = tuple([(monos[i], monos[j]) for i, j in ij])
    moved = []
    for idx, ((a, b, _), (c, d, _)) in enumerate(labels):
        m, n = (b, a, 0), (d, c, 0)
        moved.append(((m, n), idx, False) if m < n else ((n, m), idx, True))
    moved.sort()
    return (ij, labels, tuple([l for l, _, _ in moved]),
            tuple([(i, f) for _, i, f in moved]))


def _swapped_plane(monos: tuple, plucker, K) -> tuple:
    """The `_class_key` of the image under the swap of U and V of the
    plane with Plucker vector `plucker` over `monos` (`_plane_labels`)."""
    _, _, labels, moves = _plane_labels(monos)
    neg = K.neg
    return _class_key(labels, [neg(plucker[i]) if f else plucker[i] for i, f in moves], K)


_UNSEEN = object()


def pullback_divisor(basis, key: tuple, what: str, plane: bool = False) -> Divisor:
    """Divisor of the pull-back of a line or plane class, memoized on the
    basis under key.

    `key` is a class from `_class_key`.  A line is keyed by its coefficient
    vector over its monomials and pulled back by `phi_star`; a plane is
    keyed by its Plucker vector and pulled back by `plucker_pullback`.
    The pull-back is linear and a divisor ignores a factor in F_q^*, so one
    entry serves the whole class.  Raises DegeneratePair("<what> pulls back
    to zero") for the zero class or a zero pull-back, and "<what> vanishes
    identically" for a plane whose bracket is the zero polynomial.
    Returns the memo's own divisor, not to be changed.  `pair_divisors` may
    fill a plane's entry beforehand, from the plane's image under the swap
    of U and V.
    """
    if not key:
        raise DegeneratePair(f"{what} pulls back to zero")
    memo = basis.pullback_divisors
    D = memo.get(key, _UNSEEN)
    if D is _UNSEEN:
        K = basis.curve.field
        if plane:
            f = plucker_pullback(key, basis.td)
            if f.is_zero() and plucker_bracket(K, key).is_zero():
                raise DegeneratePair(f"{what} vanishes identically")
        else:
            f = phi_star(TriPoly(K, key), basis.td)
        D = memo[key] = None if f.is_zero() else divisor_of(f, basis.curve)
    if D is None:
        raise DegeneratePair(f"{what} pulls back to zero")
    return D


def pair_divisors(basis, A: TriPoly, B: TriPoly) -> PairResult:
    """Divisors of every left factor A - alpha' B (alpha' in P^1) and of the bracket.

    A and B are read as vectors a, b over the sorted union of their
    monomials, which must lie in U and V (ValueError otherwise).  Each left
    factor is a line of the plane that A and B span, keyed up to scale
    from one basis of that pencil (`_pencil_keys`); every line lies in
    q + 1 pencils.  The bracket is bilinear and alternating, so it depends
    only on A ^ B, and the plane is keyed by its Plucker vector
    p_mn = a_m b_n - a_n b_m.  A pair whose lines and plane are in the memo
    of `pullback_divisor` is therefore lookups only: one pull-back and
    factorization per line and one per plane in all.
    The pencil memo `basis.pencil_divisors` holds each plane's q + 1 line
    divisors in the order of `_pencil_slots`, which depends on the plane
    alone: a pair whose plane is there reads its left divisors through
    q + 1 slot indices, and keys and looks up no line.  On a miss
    `_pencil_keys` hands back each line's slot with its key, and the
    entry is stored.  Dependent pairs, whose plane key is (), and planes
    with a line that pulls back to zero, which raises first, stay out.
    A plane missing from the memo whose image under the swap of U and V
    (`_swapped_plane`) is there takes that entry's `negation`, a zero
    pull-back included, so the two planes share one factorization; the
    derived entry is stored.  Lines are not mapped: the image of a line
    needs a translation by P1.  The sieve families lie in
    span{1, U, V, UV}, where the memo holds at most q^3 + q^2 + q + 1
    lines and (q^2 + 1)(q^2 + q + 1) planes; the descent's pairs over
    larger monomial sets share the same memo.
    """
    if A == B:
        raise DegeneratePair("A = B")
    K = basis.curve.field
    monos = tuple(sorted(A.terms.keys() | B.terms.keys()))
    if any(m[2] for m in monos):
        raise ValueError("a sieve pair lies in U and V only")
    a = [A.terms.get(m, 0) for m in monos]
    b = [B.terms.get(m, 0) for m in monos]
    ij, labels, _, _ = _plane_labels(monos)
    if K.m == 1:
        p = K.p
        plucker = [(a[i] * b[j] - a[j] * b[i]) % p for i, j in ij]
    else:
        sub, mul = K.sub, K.mul
        plucker = [sub(mul(a[i], b[j]), mul(a[j], b[i])) for i, j in ij]
    plane = _class_key(labels, plucker, K)
    pencils = basis.pencil_divisors
    entry = pencils.get(plane)
    if entry is not None:
        i, lines = entry
        lefts = [lines[s] for s in _pencil_slots(a, b, i, K)]
    else:
        keys, order = _pencil_keys(monos, a, b, K)
        lefts = [pullback_divisor(basis, key, "left factor") for key in keys[:-1]]
        lefts.append(pullback_divisor(basis, keys[-1], "B"))
        if order is not None:
            i, slots = order
            lines = [None] * (K.q + 1)
            for s, D in zip(slots, lefts):
                lines[s] = D
            pencils[plane] = (i, lines)
    memo = basis.pullback_divisors
    if plane not in memo:
        image = memo.get(_swapped_plane(monos, plucker, K), _UNSEEN)
        if image is not _UNSEEN:
            memo[plane] = image if image is None else negation(image, K)
    return PairResult(lefts, pullback_divisor(basis, plane, "bracket", plane=True))


def relation_from_pair(basis, fb: FactorBase, A: TriPoly, B: TriPoly,
                       mode: str, params: tuple):
    """(relation, pair divisors) for the pair; the relation is None unless
    the bracket side decomposes at height 3 and every place left over has
    a column of `fb`, and the row is not zero."""
    pr = pair_divisors(basis, A, B)
    if decompose(pr.right_divisor, 3) is None:
        return None, pr
    row = fb.row_of_divisor(pr.left_total() - pr.right_divisor)
    if not row:
        return None, pr
    return Relation(mode, params, row), pr


# ---------------------------------------------------------------------------
# the core harvest
# ---------------------------------------------------------------------------

@dataclass
class HarvestStats:
    attempts: int = 0
    degenerate: int = 0
    smooth: int = 0
    emitted: int = 0
    left_factors: int = 0
    left_with_compelled: int = 0
    left_height_ok: int = 0
    left_decomposable: int = 0
    right_with_compelled: int = 0
    right_height_ok: int = 0
    right_residual_max: int = 0

    def success_rate(self) -> float:
        trials = self.attempts - self.degenerate
        return self.smooth / trials if trials else 0.0


def _check_core_pair_stats(compelled, pr: PairResult, stats: HarvestStats,
                           left_slack: int, right_slack: int):
    compelled_left, compelled_right = compelled
    for D in pr.left_divisors:
        stats.left_factors += 1
        ok_comp = all(D.coeffs.get(p, 0) >= 1 for p in compelled_left)
        if ok_comp:
            stats.left_with_compelled += 1
        resid = D.positive_part()
        for p in compelled_left:
            resid.add_place(p, -1)
        if resid.height <= left_slack:
            stats.left_height_ok += 1
        if all(p.degree <= 3 for p, n in D.coeffs.items() if n > 0):
            stats.left_decomposable += 1
    R = pr.right_divisor
    if all(R.coeffs.get(p, 0) >= 1 for p in compelled_right):
        stats.right_with_compelled += 1
    resid = R.positive_part()
    for p in compelled_right:
        resid.add_place(p, -1)
    if resid.height <= right_slack:
        stats.right_height_ok += 1
    stats.right_residual_max = max(stats.right_residual_max, resid.height)


def harvest_core(basis, fb: FactorBase):
    """Sieve the full (alpha, beta, gamma) cube.

    Every left factor should carry the compelled place over P3 and every
    bracket those over P3 and P2; `stats` counts how often they do.
    Returns (relations, stats); relations are deduplicated by row and
    sorted by provenance.
    """
    curve, td = basis.curve, basis.td
    p3 = place_of_point(curve, td.point(3))
    compelled = ([p3], [p3, place_of_point(curve, td.point(2))])
    rels, stats = [], HarvestStats()
    for params in product(range(basis.q), repeat=3):
        A, B = reconstruct_pair(basis, "core", params)
        stats.attempts += 1
        try:
            rel, pr = relation_from_pair(basis, fb, A, B, "core", params)
        except DegeneratePair:
            stats.degenerate += 1
            continue
        _check_core_pair_stats(compelled, pr, stats, 3, 6)
        if rel is not None:
            stats.smooth += 1
            rels.append(rel)
    seen, out = set(), []
    for rel in sorted(rels, key=lambda r: r.params):
        k = rel.key()
        if k in seen:
            continue
        seen.add(k)
        out.append(rel)
        stats.emitted += 1
    return out, stats


def harvest_m1(basis, fb: FactorBase):
    """Reinforcement rows from pencils over the full monomial set {1, U, V, UV}.

    A relation depends only on the plane spanned by (A, B), so the core
    generators yield at most q^2 + q + 1 distinct rows; tiny instances can
    need more rank than that.  Here both sides must decompose at the core
    bound outright (no compelled points), which is rare per pencil, over
    q^4 + q^3 + q^2 pencils.  `relation_from_pair` decides it with `fb` at
    height 3: a bracket that decomposes there cannot cancel a left place
    of higher degree, which has no column.  The left factors are the
    q^3 + q^2 + q + 1 lines of span{1, U, V, UV}, each factored once
    through the memo of `pair_divisors`.  Each pencil is a plane of its
    own, and the family is closed under the swap of U and V, so of each
    swapped pair of planes one bracket is factored and the other is its
    negation (see `pair_divisors`); that bracket is most of the cost.
    Returns the first relation of each row, in walk order.
    """
    q = basis.q
    out, seen = [], set()
    b_reps = ([(1, b, c) for b in range(q) for c in range(q)]
              + [(0, 1, c) for c in range(q)] + [(0, 0, 1)])
    for u, v, w in b_reps:
        for a in range(q):
            if u == 1 and a != 0:
                continue
            for b in range(q):
                if u == 0 and v == 1 and b != 0:
                    continue
                for c in range(q):
                    if u == 0 and v == 0 and c != 0:
                        continue
                    params = (u, v, w, a, b, c)
                    A, B = reconstruct_pair(basis, "m1", params)
                    try:
                        rel, _ = relation_from_pair(basis, fb, A, B, "m1", params)
                    except DegeneratePair:
                        continue
                    if rel is None or rel.key() in seen:
                        continue
                    seen.add(rel.key())
                    out.append(rel)
    return out


# ---------------------------------------------------------------------------
# extension of the base: heights 4 and 5
# ---------------------------------------------------------------------------

@dataclass
class ExtendReport:
    """What `extend` learned, counted over all its resolution passes."""

    groups_total: int = 0
    groups_solved: int = 0
    free_logs: int = 0
    passes: int = 0
    relations: list[Relation] = dc_field(default_factory=list)


def _group_rows(basis, fb: FactorBase, mode: str, head: tuple = ()):
    """Sieve one height-4 group once: (smooth rows, near-miss rows).

    The group's pairs are `mode` with params head + (alpha, beta).  A
    near-miss pair has a bracket with exactly one degree-4 place, of
    multiplicity one, and nothing above degree 4; its row, of mode
    "<mode>_free", yields a log once it has a single unknown.
    """
    q = basis.q
    rows, near = [], []
    for alpha, beta in product(range(q), repeat=2):
        params = head + (alpha, beta)
        A, B = reconstruct_pair(basis, mode, params)
        try:
            rel, pr = relation_from_pair(basis, fb, A, B, mode, params)
        except DegeneratePair:
            continue
        if rel is not None:
            rows.append(rel)
            continue
        right = [(p, n) for p, n in pr.right_divisor.coeffs.items() if n > 0]
        deg4 = [n for p, n in right if p.degree == 4]
        if deg4 == [1] and all(p.degree <= 4 for p, _ in right):
            total = pr.left_total() - pr.right_divisor
            near.append(Relation(mode + "_free", params,
                                 fb.row_of_divisor(total)))
    return rows, near


def _single_unknown(row: dict[int, int], logs: dict[int, int],
                    M: int) -> tuple[int, int] | None:
    """(column, log) when the homogeneous row lacks exactly one log and
    its coefficient there is a unit mod M, else None."""
    unknown = [c for c in row if c not in logs]
    if len(unknown) != 1 or gcd(row[unknown[0]], M) != 1:
        return None
    col = unknown[0]
    rest = sum(row[c] * logs[c] for c in row if c != col)
    return col, -rest * pow(row[col], -1, M) % M


def _solve_rows_for_new_cols(basis, rows: list[Relation],
                             logs: dict[int, int],
                             prime_powers: list[tuple[int, int]]) -> dict[int, int]:
    """Solve the rows for columns outside `logs`, per prime power, then CRT.

    Only columns the system determines uniquely are returned.
    """
    M = basis.M
    unknown_cols = sorted({c for rel in rows for c in rel.cols if c not in logs})
    if not unknown_cols:
        return {}
    col_pos = {c: i for i, c in enumerate(unknown_cols)}
    amat, rhs = [], []
    for rel in rows:
        a = {}
        b = 0
        for c, v in rel.cols.items():
            if c in logs:
                b = (b - v * logs[c]) % M
            else:
                a[col_pos[c]] = v % M
        if a:
            amat.append(a)
            rhs.append(b)
    if not amat:
        return {}
    full = 1
    for ell, e in prime_powers:
        full *= ell ** e
    if full != M:
        raise ValueError("prime powers must multiply to M")
    partial: dict[int, list[tuple[int, int]]] = {c: [] for c in unknown_cols}
    for ell, e in prime_powers:
        if e == 1:
            got = determined_mod_prime(amat, rhs, len(unknown_cols), ell)
        else:
            sol = solve_affine_mod(amat, rhs, len(unknown_cols), M, ell, e)
            got = {} if sol is None else dict(enumerate(sol))
        for c in unknown_cols:
            if col_pos[c] in got:
                partial[c].append((got[col_pos[c]], ell ** e))
    out = {}
    for c, residues in partial.items():
        if len(residues) == len(prime_powers):
            out[c] = crt(residues) % M
    return out


def extend_h4(basis, fb: FactorBase) -> list[tuple[list[Relation], list[Relation]]]:
    """Sieve the special group and every paired group once.

    Returns (smooth rows, near-miss rows) per group, in resolution order.
    """
    fb.extend_to(4)
    groups = [_group_rows(basis, fb, "special_group")]
    for k1 in range(basis.q):
        try:
            k2 = k1k2_group_basis(basis, k1)
        except GroupDegenerate:
            continue
        groups.append(_group_rows(basis, fb, "k1k2", (k1, k2)))
    return groups


def extend_h5(basis, fb: FactorBase) -> list[tuple[int, Relation]]:
    """Sieve the free height-5 pairs once: (target column, row) per usable pair.

    A pair is usable when its bracket divisor carries exactly one place of
    degree 5, of multiplicity one, and nothing above degree 5; the row
    yields the log of that place's column once it is the row's only unknown.
    """
    fb.extend_to(5)
    out = []
    for params in product(range(basis.q), repeat=4):
        try:
            pr = pair_divisors(basis, *reconstruct_pair(basis, "height5", params))
        except DegeneratePair:
            continue
        right = [(p, n) for p, n in pr.right_divisor.coeffs.items() if n > 0]
        h5 = [(p, n) for p, n in right if p.degree == 5]
        if (len(h5) != 1 or h5[0][1] != 1
                or any(p.degree > 5 for p, _ in right)):
            continue
        col = fb.place_map[h5[0][0]][0]
        total = pr.left_total() - pr.right_divisor
        out.append((col, Relation("height5", params, fb.row_of_divisor(total))))
    return out


def extend(basis, fb: FactorBase, logs: dict[int, int],
           prime_powers: list[tuple[int, int]]) -> ExtendReport:
    """Learn height-4 and height-5 logs: sieve once, then resolve.

    `logs` maps solved columns (height <= 3 reps and c) to values mod M and
    is updated in place.  Each resolution pass goes group by group (the
    group's rows through the linear solve, then its near-miss rows), then
    over the height-5 rows, which may only give their target's log.  Passes
    repeat until one adds no log.  The report holds every group row and
    each near-miss and height-5 row that gave a log.
    """
    M = basis.M
    groups = extend_h4(basis, fb)
    h5_rows = extend_h5(basis, fb)
    report = ExtendReport(groups_total=len(groups),
                          relations=[rel for rows, _ in groups for rel in rows])
    solved_groups = set()
    while True:
        report.passes += 1
        known = len(logs)
        for i, (rows, near) in enumerate(groups):
            solved = _solve_rows_for_new_cols(basis, rows, logs, prime_powers)
            if solved:
                solved_groups.add(i)
                logs.update(solved)
            for rel in near:
                got = _single_unknown(rel.cols, logs, M)
                if got is not None:
                    logs[got[0]] = got[1]
                    report.free_logs += 1
                    report.relations.append(rel)
        for col, rel in h5_rows:
            got = _single_unknown(rel.cols, logs, M)
            if got is not None and got[0] == col:
                logs[col] = got[1]
                report.relations.append(rel)
        if len(logs) == known:
            break
    report.groups_solved = len(solved_groups)
    return report


# ---------------------------------------------------------------------------
# relations file
# ---------------------------------------------------------------------------

def write_relations(path: str, fb: FactorBase, relations: list[Relation]):
    with open(path, "w") as fh:
        fh.write(f"# factor-base {fb.fingerprint()}\n")
        for rel in relations:
            fh.write(rel.to_line() + "\n")


def read_relations(path: str, fb: FactorBase) -> list[Relation]:
    """The relations of a file written by `write_relations`.

    Each line must have four fields and a (mode, params) that names a
    sieve pair; a malformed line raises ConfigError naming its number.
    """
    out = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                if line.startswith("# factor-base") and fb.fingerprint() not in line:
                    raise ConfigError("relations file belongs to a different basis")
                continue
            try:
                rel = Relation.from_line(line)
                _check_name(rel.mode, rel.params, fb.basis.q)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"{path} line {n}: {exc}") from None
            out.append(rel)
    return out
