"""The representation phase: curve search, torsion point, field modulus, and
the oriented point F = (theta, tau).

The target extension degree k dictates a curve over F_{q0^mu} whose point
count is a multiple of k together with a rational point of exact order k.
The abscissa theta of F is a root of the univariate polynomial obtained by
substituting (X, X^q) into the third summation polynomial evaluated at x1;
its degree-k irreducible factors are exactly the candidate field moduli.
The ordinate tau is the square root of the curve cubic at theta whose sign
makes the q-power map act as translation by P1.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .algebra import ExtFieldDesc, FieldDesc, Poly, field_make, poly_factor
from .curve import (Curve, Point, Singular, TorsionData, find_point_of_order,
                    point_add)
from .psi import NdNotInvertible, NdTable, nd_build


class SearchExhausted(RuntimeError):
    pass


class NoDegreeKFactor(RuntimeError):
    pass


class NotSquare(RuntimeError):
    pass


class OrientationFailed(RuntimeError):
    pass


CORE_HEIGHT_BOUND = 3


def mu_bound(q: int, k: int) -> int:
    """Extension degree that guarantees multiples of k in the Hasse interval."""
    if k * k <= 4:
        return 1
    return math.ceil(math.log(k * k / 4) / math.log(q)) + 1


@dataclass
class EllipticBasis:
    """Everything the later phases need, frozen after construction."""

    curve: Curve
    td: TorsionData
    ext: ExtFieldDesc
    theta: tuple
    tau: tuple
    M: int
    nd: NdTable
    mu: int
    nu: int
    k: int
    seed: int

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


def search_curve(p: int, m0: int, k: int, seed: int = 0,
                 require_nonzero_x1: bool = True):
    """Find (mu, curve, P1) with k | #E(F_{q0^mu}) and P1 of exact order k.

    Candidate (a, b) pairs at each level are visited in a seeded shuffled
    order (a capped sample once the level is large); levels run up to the
    guaranteed bound.  Torsion points with nonzero abscissa are preferred
    when available since several sieve constructions degenerate at x1 = 0.
    """
    if k < 3:
        raise ValueError("extension degree k must be at least 3")
    q0 = p ** m0
    bound = mu_bound(q0, k)
    rng = random.Random(seed * 0x9E3779B1 + k)
    for mu in range(1, bound + 1):
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
            if require_nonzero_x1 and P1.x == 0:
                better = _order_k_point_nonzero_x(curve, k)
                if better is not None:
                    P1 = better
            return mu, curve, P1
    raise SearchExhausted(
        f"no curve with a k={k} torsion point up to mu={bound} over GF({q0})")


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


def theta_min_poly_candidates(curve: Curve, td: TorsionData) -> list[Poly]:
    """Degree-k irreducible factors of S_3(X, X^q, x1), smallest first."""
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
    factors = [g for g, _ in poly_factor(S) if g.degree() == td.k]
    return sorted(factors, key=lambda g: g.coeffs)


def build_basis(curve: Curve, P1: Point, seed: int = 0,
                nd_degree: int = CORE_HEIGHT_BOUND, mu: int = 1) -> EllipticBasis:
    """Assemble the representation from a curve and an exact order-k point.

    Tries the degree-k factors of S_3(X, X^q, x1) in coefficient order; for
    each, both square roots of the cubic at theta are tested against the
    orientation constraint pi(F) = F + P1.
    """
    from .curve import point_order
    k = point_order(P1, curve.N)
    if k < 3:
        raise ValueError("P1 must have order at least 3")
    td = TorsionData(curve, P1, k)
    K = curve.field
    q = K.q
    M = (q ** k - 1) // (q - 1)
    candidates = theta_min_poly_candidates(curve, td)
    if not candidates:
        raise NoDegreeKFactor(
            f"S_3(X, X^q, x1) has no degree-{k} irreducible factor; "
            "retry with k doubled or another curve")
    last_err: Exception | None = None
    for I in candidates:
        ext = ExtFieldDesc(K, I, _trusted=True)
        theta = ext.gen()
        f_theta = curve.rhs_in(ext, theta)
        try:
            tau = ext.sqrt(f_theta)
        except ValueError:
            last_err = NotSquare("cubic at theta is a non-square")
            continue
        P1e = Point(curve, ext, ext.embed(P1.x), ext.embed(P1.y))
        oriented = None
        for cand in (tau, ext.neg(tau)):
            Fpt = Point(curve, ext, theta, cand)
            frob = Point(curve, ext, ext.frobenius(theta, 1), ext.frobenius(cand, 1))
            if frob == point_add(Fpt, P1e):
                oriented = cand
                break
        if oriented is None:
            last_err = OrientationFailed("neither root satisfies pi(F) = F + P1")
            continue
        nd = nd_build(curve, k, nd_degree)
        if not nd.inv_ok:
            raise NdNotInvertible(
                "order-table lcm is not invertible modulo M for this curve")
        return EllipticBasis(curve, td, ext, theta, oriented, M, nd,
                             mu, curve.N // k, k, seed)
    raise last_err or NoDegreeKFactor("no usable factor")


def find_basis(p: int, m0: int, k: int, seed: int = 0,
               nd_degree: int = CORE_HEIGHT_BOUND) -> EllipticBasis:
    """Search driver: run search_curve, then build; skip curves that fail
    the modulus or invertibility steps and keep searching."""
    q0 = p ** m0
    bound = mu_bound(q0, k)
    rng = random.Random(seed * 0x9E3779B1 + k)
    for mu in range(1, bound + 1):
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
            try:
                return build_basis(curve, P1, seed, nd_degree, mu)
            except (NoDegreeKFactor, NotSquare, OrientationFailed, NdNotInvertible):
                continue
    raise SearchExhausted(f"no viable basis for p={p}, m0={m0}, k={k}")


def phi_of_F(basis: EllipticBasis):
    """The model image of F: (theta^(q^(k-1)), theta, theta^q)."""
    ext = basis.ext
    return (ext.frobenius(basis.theta, basis.k - 1),
            basis.theta,
            ext.frobenius(basis.theta, 1))


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
        "nd_degree": basis.nd.D,
        "nd_orders": list(basis.nd.N),
        "nd_lcm": basis.nd.lcm,
        "nd_inv_ok": basis.nd.inv_ok,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def basis_from_json(text: str) -> EllipticBasis:
    doc = json.loads(text)
    if doc.get("format") != "elliptic-basis-1":
        raise ValueError("unrecognized basis file format")
    field = FieldDesc(doc["p"], doc["m"], tuple(doc["field_modulus"]))
    curve = Curve(field, field.dec(doc["a"]), field.dec(doc["b"]), doc["N"])
    P1 = Point(curve, field, field.dec(doc["P1"][0]), field.dec(doc["P1"][1]))
    td = TorsionData(curve, P1, doc["k"])
    I = Poly(field, [field.dec(t) for t in doc["modulus_I"]])
    ext = ExtFieldDesc(field, I, _trusted=True)
    theta = ext.dec(doc["theta"])
    tau = ext.dec(doc["tau"])
    nd = nd_build(curve, doc["k"], doc["nd_degree"])
    if list(nd.N) != doc["nd_orders"] or nd.lcm != doc["nd_lcm"]:
        raise ValueError("stored order table disagrees with the curve")
    basis = EllipticBasis(curve, td, ext, theta, tau, doc["M"], nd,
                          doc["mu"], doc["nu"], doc["k"], doc["seed"])
    expected = [field.dec(t) for t in doc["torsion_x"]]
    if [basis.td.xs[j] for j in range(1, doc["k"])] != expected:
        raise ValueError("stored torsion abscissae disagree")
    return basis
