"""The representation phase: curve search, torsion point, field modulus, and
the oriented point F = (theta, tau).

The target extension degree k dictates a curve over F_{q0^mu} whose point
count is a multiple of k together with a rational point of exact order k.
The abscissa theta of F is a root of the univariate polynomial obtained by
substituting (X, X^q) into the third summation polynomial evaluated at x1;
its degree-k irreducible factors are exactly the candidate field moduli.
Each root x(Q) has pi(Q) - Q = +-P1, and then degree k, or pi(Q) + Q =
+-P1, and then degree 1 or 2 since pi^2(Q) = Q.  So the factors of degree
<= 2 are stripped by two Frobenius steps and the rest splits at degree k,
with no walk through the degrees in between.
The ordinate tau is the square root of the curve cubic at theta whose sign
makes the q-power map act as translation by P1; the sign is read off the
collinearity of F, P1 and -pi(F), with no inversion.

The evaluation map psi takes an N-th root in the order-M quotient group,
where N = #E(F_q) and M = (q^k - 1)/(q - 1), so a curve is accepted only
when gcd(N, M) = 1.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field as dc_field

from .algebra import (ConfigError, ExtFieldDesc, FieldDesc, NonResidue, Poly,
                      _equal_degree, _gcd, _monic, _poly, _quo, _ring,
                      _squarefree_parts, _sub, field_make)
from .curve import Curve, Point, Singular, TorsionData, find_point_of_order


class SearchExhausted(RuntimeError):
    pass


class NoDegreeKFactor(RuntimeError):
    pass


class NotSquare(RuntimeError):
    pass


class OrientationFailed(RuntimeError):
    pass


class NdNotInvertible(ValueError):
    """#E(F_q) shares a factor with M, so psi has no N-th root."""


def mu_bound(q: int, k: int) -> int:
    """Extension degree that guarantees multiples of k in the Hasse interval."""
    if k * k <= 4:
        return 1
    return math.ceil(math.log(k * k / 4) / math.log(q)) + 1


@dataclass
class EllipticBasis:
    """Everything the later phases need, frozen after construction.

    The exceptions are five memos.  `pullback_divisors`, the memo of
    `harvest.pullback_divisor`, holds divisors of pulled-back sieve lines,
    keyed by coefficient vector up to scale, and of brackets, keyed by the
    Plucker vector of their plane up to scale.  For the sieve families,
    which lie in span{1, U, V, UV}, that is at most q^3 + q^2 + q + 1 lines
    plus one bracket for each of the (q^2 + 1)(q^2 + q + 1) planes of that
    span; descent pairs over larger monomial sets add their own entries.
    A bracket entry may be derived from that of the plane with U and V
    swapped, as its negation; it is stored all the same, one entry per key.
    `pencil_divisors`, the pencil memo of `harvest.pair_divisors`, maps a
    plane's Plucker key to (i, lines): the divisors of its q + 1 lines,
    entries of `pullback_divisors` shared and not copied, in the order of
    `harvest._pencil_slots`, which reads coordinate i.  It holds one entry
    per independent plane met whose lines all pull back to nonzero
    functions: at most those of span{1, U, V, UV} for the sieve families.
    `place_terms`, the memo of `psi._psi_class`, holds the class under psi
    of each term n((P) - deg(P)(O)) of an evaluated divisor, keyed by
    (place, n), and of the term (P, 1) of each such place, from which the
    others follow: a pair (numerator, denominator), None standing for 1.
    `point_classes`, the memo of `psi._point_class`, holds psi((R) - (O))
    for the points R of E(F_q) that reduced terms reach and for those on
    the walk from R by P1 to the first known class, keyed by (x, y): at
    most N - 1 entries.  Both hold elements of `ext` in the packed form of
    `ExtFieldDesc.pmul`, not tuples; `ext.unpack` reads one.
    `k1k2_coeffs` holds the result of `harvest.k1k2_coefficients`, from
    which every k1k2 group's k2 follows.
    No memo is compared, printed or written to basis.json.
    """

    curve: Curve
    td: TorsionData
    ext: ExtFieldDesc
    theta: tuple
    tau: tuple
    M: int
    mu: int
    nu: int
    k: int
    seed: int
    pullback_divisors: dict = dc_field(default_factory=dict, compare=False,
                                       repr=False)
    pencil_divisors: dict = dc_field(default_factory=dict, compare=False,
                                     repr=False)
    place_terms: dict = dc_field(default_factory=dict, compare=False,
                                 repr=False)
    point_classes: dict = dc_field(default_factory=dict, compare=False,
                                   repr=False)
    k1k2_coeffs: tuple | None = dc_field(default=None, compare=False, repr=False)

    @property
    def q(self) -> int:
        return self.curve.field.q


LEVEL_CANDIDATE_CAP = 384


def _level_pairs(field, rng) -> list[tuple[int, int]]:
    """Seeded (a, b) candidates for one level, capped for large fields."""
    q = field.q
    if q * q <= LEVEL_CANDIDATE_CAP:
        pairs = [(a, b) for a in range(q) for b in range(q)]
        rng.shuffle(pairs)
        return pairs
    seen = set()
    pairs = []
    while len(pairs) < LEVEL_CANDIDATE_CAP:
        ab = (rng.randrange(q), rng.randrange(q))
        if ab not in seen:
            seen.add(ab)
            pairs.append(ab)
    return pairs


def _curve_candidates(p: int, m0: int, k: int, seed: int = 0):
    """Yield (mu, curve, P1) with k | #E(F_{q0^mu}) and P1 of exact order k.

    Candidate (a, b) pairs at each level are visited in a seeded shuffled
    order (a capped sample once the level is large); levels run up to the
    guaranteed bound.  Torsion points with nonzero abscissa are preferred
    when available since several sieve constructions degenerate at x1 = 0.
    """
    if k < 3:
        raise ConfigError("extension degree k must be at least 3")
    if m0 < 1:
        raise ConfigError("base field degree m0 must be at least 1")
    rng = random.Random(seed * 0x9E3779B1 + k)
    for mu in range(1, mu_bound(p ** m0, k) + 1):
        field = field_make(p, m0 * mu, seed)
        for a, b in _level_pairs(field, rng):
            try:
                curve = Curve(field, a, b)
            except Singular:
                continue
            if curve.N % k:
                continue
            P1 = find_point_of_order(curve, k, seed)
            if P1 is None:
                continue
            if P1.x == 0:
                better = _order_k_point_nonzero_x(curve, k)
                if better is not None:
                    P1 = better
            yield mu, curve, P1


def search_curve(p: int, m0: int, k: int, seed: int = 0):
    """The first (mu, curve, P1) of the seeded search (see `_curve_candidates`)."""
    for found in _curve_candidates(p, m0, k, seed):
        return found
    q0 = p ** m0
    raise SearchExhausted(
        f"no curve with a k={k} torsion point up to mu={mu_bound(q0, k)} over GF({q0})")


def _order_k_point_nonzero_x(curve: Curve, k: int) -> Point | None:
    from .curve import curve_points, point_order
    if curve.field.q > 1 << 10:
        return None
    for P in curve_points(curve):
        if P.inf or P.x == 0:
            continue
        if point_order(P, curve.N) == k:
            return P
    return None


def theta_equation(curve: Curve, td: TorsionData) -> Poly:
    """S_3(X, X^q, x1), of degree 2q + 2: theta is a root of it."""
    K = curve.field
    q = K.q
    x1 = td.xs[1]
    X = Poly(K, (0, 1))
    Xq = Poly(K, [0] * q + [1])
    s1 = X + Xq + Poly(K, (x1,))
    s2 = X * Xq + (X + Xq).scale(x1)
    s3 = (X * Xq).scale(x1)
    a_p = Poly(K, (curve.a,))
    b_p = Poly(K, (curve.b,))
    S = (s1 * (s3 + b_p)).scale(4 % K.p) - (s2 - a_p) * (s2 - a_p)
    if S.degree() != 2 * q + 2:
        raise AssertionError("summation polynomial substitution has wrong degree")
    return S


def theta_min_poly_candidates(curve: Curve, td: TorsionData) -> list[Poly]:
    """Degree-k irreducible factors of S_3(X, X^q, x1), smallest first.

    A root x(Q) has pi(Q) - Q = +-P1 or pi(Q) + Q = +-P1.  In the first
    case pi^j(Q) = Q +- jP1, which is +-Q only when k | j (or j = 2 at
    k = 4), so x(Q) has degree k (2 at k = 4); these are the N abscissas
    of the points that pi - 1, separable of degree N, sends to +-P1.  In
    the second case pi^2(Q) = Q, so x(Q) has degree 1 or 2.  Hence two
    Frobenius steps per squarefree part, the gcds with X^q - X and
    X^(q^2) - X, strip every factor of degree <= 2, and what is left is
    the product of the degree-k factors that a full distinct-degree walk
    would reach at d = k; it is split by the same draws.  An input
    without that structure raises AssertionError when k does not divide
    the degree left, or Reducible from the split."""
    K = curve.field
    q, k = K.q, td.k
    S = theta_equation(curve, td)
    rng = random.Random(0)
    x = [0, 1]
    factors = []
    for part, _ in _squarefree_parts(K, S.coeffs):
        # h = X^(q^d) in the ring of the part, which the rest divides
        rest, R = part, _ring(K, part)
        h = R.pack(R.from_poly(_poly(K, x)))
        for _ in range(2):  # gcd with X^q - X, then with X^(q^2) - X
            if len(rest) <= 1:
                break
            h = R.ppow(h, q)
            g = _gcd(K, rest, _sub(K, R.unpack(h), x))
            if len(g) > 1:
                rest = _monic(K, _quo(K, rest, g))
        if (len(rest) - 1) % k:
            raise AssertionError(
                f"S_3(X, X^q, x1) has a factor of degree {len(rest) - 1} "
                f"beyond 1, 2 and a multiple of k = {k}")
        if len(rest) > 1:
            factors += _equal_degree(K, rest, k, lambda: rng, R)
    return sorted((_poly(K, g) for g in factors), key=lambda g: g.coeffs)


def frobenius_shift(ext: ExtFieldDesc, theta, tau, P1: Point) -> int:
    """+1 when pi(F) = F + P1 for F = (theta, tau), -1 when pi(F) = F - P1,
    else 0.

    pi(F) = F + S exactly when F, S and -pi(F) lie on one line.  theta is
    not in F_q, so the three abscissas differ and the line is not vertical:
    the slopes from F to S and to -pi(F) agree, which cross-multiplied
    costs two products per sign and no inversion."""
    # (y - tau)(theta^q - theta) = (-tau^q - tau)(x1 - theta), y = +-y1
    dx = ext.sub(ext.frobenius(theta, 1), theta)
    rhs = ext.mul(ext.neg(ext.add(ext.frobenius(tau, 1), tau)),
                  ext.sub(ext.embed(P1.x), theta))
    y1 = ext.embed(P1.y)
    for sign, y in ((1, y1), (-1, ext.neg(y1))):
        if ext.eq(ext.mul(ext.sub(y, tau), dx), rhs):
            return sign
    return 0


def build_basis(curve: Curve, P1: Point, seed: int = 0,
                mu: int = 1) -> EllipticBasis:
    """Assemble the representation from a curve and an exact order-k point.

    Refuses the curve at once when gcd(#E(F_q), M) > 1.  Otherwise tries
    the degree-k factors of S_3(X, X^q, x1) in coefficient order; for each,
    the square root tau of the cubic at theta is taken and its sign chosen
    by the orientation constraint pi(F) = F + P1 (`frobenius_shift`).
    """
    from .curve import point_order
    k = point_order(P1, curve.N)
    if k < 3:
        raise ValueError("P1 must have order at least 3")
    td = TorsionData(curve, P1, k)
    K = curve.field
    q = K.q
    M = (q ** k - 1) // (q - 1)
    if math.gcd(curve.N, M) != 1:
        raise NdNotInvertible(
            f"curve order {curve.N} shares a factor with M = {M}")
    candidates = theta_min_poly_candidates(curve, td)
    if not candidates:
        raise NoDegreeKFactor(
            f"S_3(X, X^q, x1) has no degree-{k} irreducible factor; "
            "retry with k doubled or another curve")
    last_err: Exception | None = None
    for I in candidates:
        ext = ExtFieldDesc(K, I)
        theta = ext.gen()
        f_theta = curve.rhs_in(ext, theta)
        try:
            tau = ext.sqrt(f_theta)
        except NonResidue:
            last_err = NotSquare("cubic at theta is a non-square")
            continue
        # pi(-F) = -F - P1 when pi(F) = F + P1: one root of the two is oriented
        sign = frobenius_shift(ext, theta, tau, P1)
        if not sign:
            last_err = OrientationFailed("neither root satisfies pi(F) = F + P1")
            continue
        oriented = tau if sign == 1 else ext.neg(tau)
        return EllipticBasis(curve, td, ext, theta, oriented, M,
                             mu, curve.N // k, k, seed)
    raise last_err or NoDegreeKFactor("no usable factor")


def find_basis(p: int, m0: int, k: int, seed: int = 0) -> EllipticBasis:
    """Search driver: build a basis on each searched curve in turn, skipping
    curves that fail the invertibility or modulus steps."""
    for mu, curve, P1 in _curve_candidates(p, m0, k, seed):
        try:
            return build_basis(curve, P1, seed, mu)
        except (NoDegreeKFactor, NotSquare, OrientationFailed, NdNotInvertible):
            continue
    raise SearchExhausted(f"no viable basis for p={p}, m0={m0}, k={k}")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def basis_to_json(basis: EllipticBasis) -> str:
    K = basis.curve.field
    ext = basis.ext
    doc = {
        "format": "elliptic-basis-1",
        "p": K.p,
        "m": K.m,
        "field_modulus": list(K.modulus),
        "a": K.enc(basis.curve.a),
        "b": K.enc(basis.curve.b),
        "N": basis.curve.N,
        "k": basis.k,
        "mu": basis.mu,
        "nu": basis.nu,
        "seed": basis.seed,
        "P1": [K.enc(basis.td.P1.x), K.enc(basis.td.P1.y)],
        "torsion_x": [K.enc(c) for c in basis.td.xs[1:]],
        "torsion_y": [K.enc(c) for c in basis.td.ys[1:]],
        "modulus_I": [K.enc(c) for c in ext.I.coeffs],
        "theta": ext.enc(basis.theta),
        "tau": ext.enc(basis.tau),
        "M": basis.M,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


_BASIS_KEYS = ("p", "m", "field_modulus", "a", "b", "N", "k", "mu", "nu",
               "seed", "P1", "torsion_x", "modulus_I", "theta", "tau", "M")


def basis_from_json(text: str) -> EllipticBasis:
    """Load a basis.json; what psi relies on is checked.

    That is M, gcd(N, M) = 1, theta = X mod I (psi reads a polynomial at
    theta as its residue mod I) and tau^2 = theta^3 + a theta + b.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"basis file is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "elliptic-basis-1":
        raise ConfigError("unrecognized basis file format")
    missing = [key for key in _BASIS_KEYS if key not in doc]
    if missing:
        raise ConfigError(f"basis file lacks {', '.join(missing)}")
    field = FieldDesc(doc["p"], doc["m"], tuple(doc["field_modulus"]))
    q, k, M, N = field.q, doc["k"], doc["M"], doc["N"]
    if M != (q ** k - 1) // (q - 1):
        raise ConfigError(f"stored M = {M} is not (q^k - 1)/(q - 1) for "
                          f"q = {q}, k = {k}")
    if math.gcd(N, M) != 1:
        raise ConfigError(f"stored curve order {N} shares a factor with M = {M}")

    def value(key, dec):
        """dec(doc[key]); a value that does not decode is named."""
        try:
            return dec(doc[key])
        except (ValueError, TypeError, AttributeError, IndexError):
            raise ConfigError(f"basis file has a malformed {key}: {doc[key]!r}") from None

    def codes(texts):
        return [field.dec(t) for t in texts]

    curve = Curve(field, value("a", field.dec), value("b", field.dec), N)
    P1 = value("P1", lambda xy: Point.make(curve, field, field.dec(xy[0]),
                                           field.dec(xy[1])))
    try:
        td = TorsionData(curve, P1, k)
    except ValueError as exc:
        raise ConfigError(f"basis file has a P1 without exact order k = {k}: "
                          f"{exc}") from None
    ext = value("modulus_I", lambda texts: ExtFieldDesc(field, Poly(field, codes(texts))))
    theta = value("theta", ext.dec)
    tau = value("tau", ext.dec)
    if theta != ext.gen():
        raise ConfigError("stored theta is not X mod modulus_I")
    if ext.mul(tau, tau) != curve.rhs_in(ext, theta):
        raise ConfigError("stored tau is not a square root of the curve "
                          "cubic at theta")
    if frobenius_shift(ext, theta, tau, P1) != 1:
        raise ConfigError("stored tau is not oriented: pi(F) != F + P1")
    basis = EllipticBasis(curve, td, ext, theta, tau, M,
                          doc["mu"], doc["nu"], k, doc["seed"])
    expected = value("torsion_x", codes)
    if [basis.td.xs[j] for j in range(1, k)] != expected:
        raise ConfigError("stored torsion abscissae disagree")
    return basis
