"""Linear algebra modulo the prime factors of M, log assembly, descent, and
independently checked individual logarithms.

Logs are stored relative to a reference class r: the kernel vector of the
relation matrix is normalized so the reference column equals 1, making
every stored value log_r of the column's class.  Individual logarithms
base g then come out as a ratio of two log_r values, so the normalization
cancels; the final exponent is always re-verified by exponentiation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .algebra import ConfigError, Poly, factor_modulus, poly_euclid, poly_factor
from .curve import CurveFunction, TriPoly, phi
from .divisor import Divisor, Place, divisor_of, place_point
from .harvest import (C_COLUMN, DegeneratePair, FactorBase, Relation, _sigma,
                      pair_divisors)
from .linalg import MoreRelationsNeeded, crt, kernel_mod_prime_power, solve_linear
from .psi import PsiValue, psi_elementary, translation_constant


# search bounds: randomizations of a classical split, choices of A per
# descent step, descent recursion depth, points of B per choice of A
_SPLIT_TRIES = 400
_DESCENT_BUDGET = 200_000
_MAX_DEPTH = 4
_B_POINTS = 64
# primes of M up to this bound get their logs by BSGS, not from the matrix
_SMALL_PRIME_BOUND = 10


class BudgetExhausted(RuntimeError):
    pass


class NoSolutionInBudget(RuntimeError):
    pass


class DescentFailed(RuntimeError):
    pass


class NotInSubgroup(ValueError):
    pass


# ---------------------------------------------------------------------------
# group oracles
# ---------------------------------------------------------------------------

def bsgs_oracle(h, g, n: int):
    """Baby-step giant-step discrete log of h base g in a group of order n.

    Accepts PsiValue pairs or (ext, code) pairs; returns the log in [0, n)
    or raises NotInSubgroup.  Memory is O(sqrt(n)): desk scale only.
    """
    if n > 10_000_000_000:
        raise ValueError("group order beyond the desk-scale oracle cap")
    if isinstance(h, PsiValue):
        one = PsiValue(g.ext, g.ext.one)
        mul = PsiValue.mul
        key = lambda v: v.rep
    else:
        ext, _ = g
        one = (ext, ext.one)
        mul = lambda a, b: (ext, ext.mul(a[1], b[1]))
        key = lambda v: v[1]
    m = math.isqrt(n) + 1
    table = {}
    cur = one
    for j in range(m):
        table.setdefault(key(cur), j)
        cur = mul(cur, g)
    giant = _pow_elem(g, (n - m) % n, mul, one)
    y = h
    for i in range(m):
        j = table.get(key(y))
        if j is not None:
            return (i * m + j) % n
        y = mul(y, giant)
    raise NotInSubgroup("element outside the subgroup generated by g")


def _pow_elem(g, e, mul, one):
    r = one
    b = g
    while e:
        if e & 1:
            r = mul(r, b)
        b = mul(b, b)
        e >>= 1
    return r


def find_generator(ext, seed: int = 0):
    """A generator of the multiplicative group of the extension field."""
    n = ext.order_total - 1
    primes = [p for p, _ in factor_modulus(n)]
    rng = random.Random(seed * 31 + 5)
    while True:
        g = ext.rand(rng)
        if not any(g):
            continue
        if all(not ext.eq(ext.pow_(g, n // p), ext.one) for p in primes):
            return g


# ---------------------------------------------------------------------------
# the core solve
# ---------------------------------------------------------------------------

@dataclass
class LogTable:
    """Column logs relative to the reference class, per prime power and mod M."""

    ref_col: int
    per_prime: dict[int, list[int]]      # ell^e -> normalized kernel vector
    mod_m: dict[int, int] = dc_field(default_factory=dict)
    M: int = 0


def column_class(fb: FactorBase, col: int, basis) -> PsiValue:
    if col == 0:
        return translation_constant(basis)
    return psi_elementary(fb.rep_of_col(col), basis)


def solve_core(basis, fb: FactorBase, relations: list[Relation],
               seed: int = 0) -> LogTable:
    """Solve the height-<=3 system for every prime power dividing M.

    Primes up to _SMALL_PRIME_BOUND skip the matrix and read the logs off
    psi values directly (tiny subgroups); the rest go through the kernel.
    The reference column is chosen so its kernel coordinate is a unit in
    every factor and its class generates the full quotient group.
    """
    M = basis.M
    ncols = fb.columns()
    rows = [r.cols for r in relations] + [r.cols for r in fb.cycle_relations()]
    factors = factor_modulus(M)
    vectors: dict[tuple[int, int], list[int]] = {}
    small: list[tuple[int, int]] = []
    for ell, e in factors:
        if ell <= _SMALL_PRIME_BOUND:
            small.append((ell, e))
            continue
        vectors[ell, e] = kernel_mod_prime_power(rows, ncols, ell, e)
    if small:
        gq = PsiValue(basis.ext, find_generator(basis.ext, seed))
        classes = [column_class(fb, c, basis) for c in range(ncols)]
        for ell, e in small:
            pe = ell ** e
            exp = M // pe
            gsub = gq.pow(exp)
            vectors[ell, e] = [bsgs_oracle(cls.pow(exp), gsub, pe) for cls in classes]
    # reference column: unit everywhere, class generating the quotient
    ref = None
    for col in range(ncols):
        if all(vec[col] % ell for (ell, _), vec in vectors.items()):
            cls = column_class(fb, col, basis)
            if all(not cls.pow(M // ell).is_one() for ell, _ in factors):
                ref = col
                break
    if ref is None:
        raise MoreRelationsNeeded("no column usable as a generating reference")
    per_prime = {}
    for (ell, e), vec in vectors.items():
        pe = ell ** e
        inv = pow(vec[ref], -1, pe)
        per_prime[pe] = [(v * inv) % pe for v in vec]
    mod_m = {}
    for col in range(ncols):
        mod_m[col] = crt([(per_prime[pe][col], pe) for pe in per_prime]) % M
    return LogTable(ref, per_prime, mod_m, M)


def verify_log_table(basis, fb: FactorBase, table: LogTable,
                     sample: int = 6, seed: int = 0) -> bool:
    """reference^log must reproduce each sampled column class."""
    rng = random.Random(seed)
    cols = sorted(table.mod_m)
    picks = cols if len(cols) <= sample else rng.sample(cols, sample)
    ref_cls = column_class(fb, table.ref_col, basis)
    for col in picks:
        if ref_cls.pow(table.mod_m[col]) != column_class(fb, col, basis):
            return False
    return True


# ---------------------------------------------------------------------------
# from field elements to factor-base logs
# ---------------------------------------------------------------------------

def poly_to_divisor(f: Poly, curve) -> Divisor:
    """Divisor of the function f(X) on the curve (degree 0)."""
    return divisor_of(CurveFunction.make(curve, 0, f, Poly(f.field, ()), 0), curve)


@dataclass
class LogContext:
    """Solved logs: factor-base columns plus individually descended places."""

    fb: FactorBase
    cols: dict[int, int]
    extra: dict[Place, int] = dc_field(default_factory=dict)

    def log_of_place(self, place: Place) -> int | None:
        if place in self.fb.place_map:
            return self.fb.log_of_place(place, self.cols)
        return self.extra.get(place)

    def log_of_divisor(self, D: Divisor) -> int | None:
        M = self.fb.basis.M
        acc = 0
        for place, n in D.finite_places():
            v = self.log_of_place(place)
            if v is None:
                return None
            acc = (acc + n * v) % M
        return acc

    def missing_places(self, D: Divisor) -> list[Place]:
        return [p for p, _ in D.finite_places() if self.log_of_place(p) is None]


def log_of_poly_image(basis, ctx: LogContext, f: Poly, descender=None) -> int | None:
    """log_r of the class of f(theta) via the divisor of f(X)."""
    D = poly_to_divisor(f, basis.curve)
    val = ctx.log_of_divisor(D)
    if val is not None or descender is None:
        return val
    for p in ctx.missing_places(D):
        if not descender(p):
            return None
    return ctx.log_of_divisor(D)


@dataclass
class SplitResult:
    shift: int                     # w = z * g^shift was resolved
    num_factors: list[tuple[Poly, int]]
    den_factors: list[tuple[Poly, int]]
    log_r: int


def classical_split(z, basis, ctx: LogContext, g, log_r_g: int,
                    d0: int = 4, seed: int = 0, descender=None) -> SplitResult:
    """Express the class of z through factor-base logs.

    Randomizes z by powers of g, lifts to a polynomial in theta, and either
    factors it directly or half-splits it into a quotient of two half-degree
    polynomials via the extended Euclidean algorithm; factors of degree up
    to d0 are accepted when their place logs resolve.  Gives up after
    _SPLIT_TRIES randomizations.
    """
    ext = basis.ext
    M = basis.M
    if ext.is_base(z):
        return SplitResult(0, [], [], 0)
    rng = random.Random(seed * 0x517CC1B7 + 11)
    n_full = ext.order_total - 1
    for _ in range(_SPLIT_TRIES):
        shift = rng.randrange(n_full)
        got = _split_and_resolve(basis, ctx, ext.mul(z, ext.pow_(g, shift)),
                                 d0, descender)
        if got is not None:
            log_w, num, den = got
            return SplitResult(shift, num, den, (log_w - shift * log_r_g) % M)
    raise BudgetExhausted("classical split budget exhausted")


def _split_and_resolve(basis, ctx: LogContext, w, d0: int, descender):
    """(log_r of class w, numerator factors, denominator factors) or None.

    Tries the lift W of w first, then each half-degree quotient num/den of
    W mod I, in the order the extended Euclidean algorithm yields them.
    """
    W = basis.ext.to_poly(w)
    if W.degree() < 1:
        return None
    direct = _resolve_factors(basis, ctx, W, d0, descender)
    if direct is not None:
        return direct[0], direct[1], []
    for num, den in _euclid_splits(W, basis.ext.I, (basis.k - 1) // 2 + 1):
        rnum = _resolve_factors(basis, ctx, num, d0, descender)
        if rnum is None:
            continue
        rden = _resolve_factors(basis, ctx, den, d0, descender)
        if rden is None:
            continue
        return (rnum[0] - rden[0]) % basis.M, rnum[1], rden[1]
    return None


def _resolve_factors(basis, ctx: LogContext, W: Poly, d0: int, descender):
    """(log_r of class W(theta), factors) or None."""
    M = basis.M
    total = 0
    factors = poly_factor(W)
    if any(f.degree() > d0 for f, _ in factors):
        return None
    out = []
    for f, mult in factors:
        v = log_of_poly_image(basis, ctx, f, descender)
        if v is None:
            return None
        total = (total + mult * v) % M
        out.append((f, mult))
    return total, out


def _euclid_splits(W: Poly, I: Poly, half: int):
    """(num, den) pairs with W = num/den mod I and deg num <= half-ish."""
    return [(r, t) for r, t in poly_euclid(I, W % I)
            if not r.is_zero() and r.degree() <= half and not t.is_zero()]


# ---------------------------------------------------------------------------
# bilinear descent
# ---------------------------------------------------------------------------

def _mono_list(t: int) -> list[tuple[int, int]]:
    """Exponent pairs of the monomial set M_t: U^i, V^i, U^i V, U V^i, i <= t."""
    out = set()
    for i in range(t + 1):
        out.update({(i, 0), (0, i), (i, 1), (1, i)})
    return sorted(out, key=lambda m: (m[0] + m[1], m[0]), reverse=True)


# A and B both range over M_2: U^2 V, U V^2, U^2, U V, V^2, U, V, 1, with
# the head U^2 V (slot 0) fixed to 1 in each
_MONOS = _mono_list(2)


def _mono_value(L, m, x, y):
    acc = L.one
    for _ in range(m[0]):
        acc = L.mul(acc, x)
    for _ in range(m[1]):
        acc = L.mul(acc, y)
    return acc


def _compelled(deg: int) -> int:
    """Compelled points imposed on A and B when descending a degree-deg place."""
    return 3 if deg <= 6 else 2


def bilinear_descend(basis, ctx: LogContext, target: Place,
                     compelled: int = 0, seed: int = 0, depth: int = 0,
                     _active: frozenset = frozenset()):
    """Express log(target) through lower-degree places; record it in ctx
    and return it.

    A and B range over the monomials `_MONOS`, each with its head fixed to
    1, and both vanish at the `compelled` points (U, V) = (x_(j-1), x_j),
    j = 2, 3, ...  A runs over its free coefficients (the compelled points
    pin the slots after the head);
    for each A the vanishing of the bracket at a conjugate point of the
    target imposes deg(target) F_q-linear conditions on B.  A surviving
    pair must have all other divisor places resolvable, recursing on
    stubborn ones of degree at most the target's.  At most _DESCENT_BUDGET
    choices of A are tried at each of at most _MAX_DEPTH + 1 levels.
    Raises NoSolutionInBudget when the space is exhausted.
    """
    M = basis.M
    K = basis.curve.field
    q = K.q
    deg = target.degree
    known = ctx.log_of_place(target)
    if known is not None:
        return known
    if depth > _MAX_DEPTH:
        raise DescentFailed("descent recursion too deep")
    if target in _active:
        raise DescentFailed("cyclic descent dependency")
    _active = _active | {target}
    Q = place_point(basis.curve, target)
    L = Q.dom
    xu, xv, xw = phi(Q, basis.td)
    mu = [_mono_value(L, m, xv, xw) for m in _MONOS]   # m(V, W)
    nu = [_mono_value(L, m, xu, xv) for m in _MONOS]   # m(U, V)
    td = basis.td
    # each compelled point's row: the value of every monomial there
    pinned = [[K.mul(K.pow_(cx, m[0]), K.pow_(cy, m[1])) for m in _MONOS]
              for cx, cy in ((td.xs[(j - 1) % td.k], td.xs[j % td.k])
                             for j in range(2, 2 + compelled))]

    rng = random.Random(seed * 7919 + deg)
    for a_vec in _coef_stream(q, len(_MONOS) - 1 - compelled, rng):
        coeffs_a = _build_coeffs(K, a_vec, pinned)
        if coeffs_a is None:
            continue
        a1 = _combo(K, mu, coeffs_a)
        a2 = _combo(K, nu, coeffs_a)
        # bracket(A, B)(Phi Q) = a1 * B(U,V)(Q) - a2 * B(V,W)(Q), linear in
        # B: its value at each monomial is a column of B's system
        rows = [list(r) for r in zip(*[L.sub(L.mul(a1, n), L.mul(a2, m))
                                       for n, m in zip(nu, mu)])]
        A = TriPoly(K, {(m[0], m[1], 0): c for m, c in zip(_MONOS, coeffs_a) if c})
        for coeffs_b in _b_solutions(K, rows + pinned):
            if coeffs_b == coeffs_a:
                continue
            B = TriPoly(K, {(m[0], m[1], 0): c for m, c in zip(_MONOS, coeffs_b) if c})
            try:
                pr = pair_divisors(basis, A, B)
            except DegeneratePair:
                continue
            n_target = pr.right_divisor.coeffs.get(target, 0)
            if n_target <= 0 or math.gcd(n_target, M) != 1:
                continue
            total = pr.left_total() - pr.right_divisor
            ok = True
            for p in ctx.missing_places(total):
                if p == target:
                    continue
                if p.degree > 8 or p.degree > deg:
                    ok = False
                    break
                try:
                    bilinear_descend(basis, ctx, p, _compelled(p.degree),
                                     seed, depth + 1, _active)
                except (NoSolutionInBudget, DescentFailed):
                    ok = False
                    break
                if ctx.log_of_place(p) is None:
                    ok = False
                    break
            if not ok:
                continue
            # every other place now has a log; total carries the target with
            # coefficient -n_target, so rest - n_target * log(target) = 0
            rest = sum(n * ctx.log_of_place(p) for p, n in total.finite_places()
                       if p != target)
            val = rest * pow(n_target, -1, M) % M
            _store_place_log(ctx, target, val)
            return val
    raise NoSolutionInBudget(f"no usable (A, B) for the degree-{deg} target")


def _store_place_log(ctx: LogContext, place: Place, val: int):
    """Record a solved place; inside the base, solve its representative column."""
    fb = ctx.fb
    M = fb.basis.M
    q = fb.basis.q
    if place in fb.place_map:
        col, s, d = fb.place_map[place]
        if col == C_COLUMN or col in ctx.cols:
            return
        rhs = (val - d * _sigma(q, s, M) * ctx.cols[0]) % M
        ctx.cols[col] = rhs * pow(pow(q, s, M), -1, M) % M
    else:
        ctx.extra[place] = val


def _coef_stream(q: int, nfree: int, rng: random.Random):
    total = q ** nfree
    if total <= _DESCENT_BUDGET:
        idx = list(range(total))
        rng.shuffle(idx)
    else:
        idx = (rng.randrange(total) for _ in range(_DESCENT_BUDGET))
    for code in idx:
        vec = []
        c = code
        for _ in range(nfree):
            vec.append(c % q)
            c //= q
        yield vec


def _build_coeffs(K, a_vec, pinned):
    """A's coefficients over _MONOS, or None when the pinned slots are not
    determined: the head (slot 0) is 1, the next len(pinned) slots make A
    vanish at the compelled points, and a_vec fills the rest."""
    c = len(pinned)
    coeffs = [1] + [0] * c + list(a_vec)
    if c:
        rows = [vals[1:c + 1] for vals in pinned]
        rhs = []
        for vals in pinned:
            acc = 0
            for v, x in zip(vals, coeffs):
                acc = K.add(acc, K.mul(v, x))
            rhs.append(K.neg(acc))
        sol, _ = solve_linear(K, rows, rhs, c)
        if sol is None:
            return None
        coeffs[1:c + 1] = sol
    return coeffs


def _combo(K, values, coeffs):
    """sum c * v over F_q, on the coordinate vectors of the values."""
    acc = [0] * len(values[0])
    for v, c in zip(values, coeffs):
        if c:
            acc = [K.add(a, K.mul(c, x)) for a, x in zip(acc, v)]
    return tuple(acc)


def _b_solutions(K, rows):
    """Points of the affine solution space for B with its head (slot 0) = 1.

    The space always contains the degenerate direction proportional to A, so
    up to _B_POINTS points are returned (particular solution plus nullspace
    offsets); the caller filters the useless ones.
    """
    sol, null_basis = solve_linear(K, [row[1:] for row in rows],
                                   [K.neg(row[0]) for row in rows], len(_MONOS) - 1)
    if sol is None:
        return []
    out = [[1] + sol]
    for nb in null_basis:
        for lam in range(1, K.q):
            if len(out) >= _B_POINTS:
                return out
            out.append([1] + [K.add(s, K.mul(lam, w)) for s, w in zip(sol, nb)])
    if len(null_basis) >= 2:
        n1, n2 = null_basis[0], null_basis[1]
        for l1 in range(1, K.q):
            for l2 in range(1, K.q):
                if len(out) >= _B_POINTS:
                    return out
                out.append([1] + [K.add(s, K.add(K.mul(l1, w1), K.mul(l2, w2)))
                                  for s, w1, w2 in zip(sol, n1, n2)])
    return out


# ---------------------------------------------------------------------------
# individual logarithms
# ---------------------------------------------------------------------------

@dataclass
class DlogResult:
    x_mod_m: int
    x_full: int | None
    verified: bool


def _make_descender(basis, ctx: LogContext, seed: int):
    def descender(place: Place) -> bool:
        if ctx.log_of_place(place) is not None:
            return True
        deg = place.degree
        if deg < 4 or deg > 8:
            return False
        try:
            bilinear_descend(basis, ctx, place, _compelled(deg), seed)
            return ctx.log_of_place(place) is not None
        except (NoSolutionInBudget, DescentFailed):
            return False

    return descender


def log_r_of_generator(basis, ctx: LogContext, g,
                       d0: int = 4, seed: int = 0, descender=None) -> int:
    """log_r(class of g) via splits of g^(1+r'') with 1+r'' invertible mod M."""
    ext = basis.ext
    M = basis.M
    rng = random.Random(seed * 131 + 1)
    for _ in range(_SPLIT_TRIES):
        rr = rng.randrange(M)
        if math.gcd(1 + rr, M) != 1:
            continue
        got = _split_and_resolve(basis, ctx, ext.pow_(g, 1 + rr), d0, descender)
        if got is not None:
            return got[0] * pow(1 + rr, -1, M) % M
    raise BudgetExhausted("could not anchor the generator log")


def dlog(z, g, basis, fb: FactorBase, logs: dict[int, int],
         d0: int = 4, seed: int = 0, ctx: LogContext | None = None) -> DlogResult:
    """log_g(z) mod M, plus the full exponent once the mod-M part verifies.

    The mod-M part is the ratio of two reference-based logs, so it never
    depends on the normalization; it is always checked by verifying that
    z / g^x lands in F_q^*.  The remaining F_q^* component comes from a
    baby-step giant-step in the subgroup generated by g^M.
    """
    ext = basis.ext
    M = basis.M
    if ctx is None:
        ctx = LogContext(fb, logs)
    descender = _make_descender(basis, ctx, seed)
    lg = log_r_of_generator(basis, ctx, g, d0, seed, descender)
    if math.gcd(lg, M) != 1:
        raise DescentFailed("generator log is not invertible mod M; is g primitive?")
    split = classical_split(z, basis, ctx, g, lg, d0, seed=seed,
                            descender=descender)
    x = split.log_r * pow(lg, -1, M) % M
    # soundness gate: z * g^(-x) must be a base-field element
    resid = ext.mul(z, ext.pow_(g, (-x) % (ext.order_total - 1)))
    verified = ext.is_base(resid)
    x_full = None
    if verified:
        eta = ext.pow_(g, M)
        y = bsgs_oracle((ext, resid), (ext, eta), basis.curve.field.q - 1)
        x_full = (x + M * y) % (ext.order_total - 1)
        if not ext.eq(ext.pow_(g, x_full), z):
            verified = False
    return DlogResult(x, x_full, verified)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_logs(path: str, basis, fb: FactorBase, table: LogTable,
               extended: dict[int, int] | None = None):
    K = basis.curve.field
    lines = [f"# logs {fb.fingerprint()}", f"# reference-col {table.ref_col}"]
    for pe in sorted(table.per_prime):
        lines.append(f"[mod {pe}]")
        vec = table.per_prime[pe]
        for col, val in enumerate(vec):
            lines.append(f"{_col_name(fb, col, K)} = {val}")
    lines.append(f"[mod M {table.M}]")
    merged = dict(table.mod_m)
    if extended:
        merged.update(extended)
    for col in sorted(merged):
        lines.append(f"{_col_name(fb, col, K)} = {merged[col]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _col_name(fb: FactorBase, col: int, K) -> str:
    if col == 0:
        return "c"
    return fb.rep_of_col(col).encode(K)


def read_logs(path: str, basis, fb: FactorBase) -> tuple[LogTable, dict[int, int]]:
    """The log table of `write_logs` and the mod-M logs of logs.txt.

    `fb` must hold every column the file names, the extended ones too.
    Raises ConfigError for a name that is not a column of `fb`, a name
    twice in one section, [mod p^e] sections of different lengths, or a
    file without its reference column.
    """
    K = basis.curve.field
    name_to_col = {fb.reps[i].encode(K): i + 1 for i in range(len(fb.reps))}
    name_to_col["c"] = 0
    per_prime: dict[int, list[int]] = {}
    mod_m: dict[int, int] = {}
    seen: dict = {}  # section -> the columns it has named
    ref_col = None
    section = None
    M = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# reference-col"):
                ref_col = int(line.split()[-1])
                continue
            if line.startswith("#"):
                continue
            if line.startswith("[mod M"):
                M = int(line[:-1].split()[2])
                section = "M"
                continue
            if line.startswith("[mod "):
                pe = int(line[:-1].split()[1])
                per_prime[pe] = [0] * fb.columns()
                section = pe
                continue
            name, val = line.rsplit(" = ", 1)
            col = name_to_col.get(name)
            if col is None:
                raise ConfigError(f"log file names {name!r}, which is not a column "
                                  "of the factor base")
            cols = seen.setdefault(section, set())
            if col in cols:
                raise ConfigError(f"log file names {name!r} twice in one section")
            cols.add(col)
            if section == "M":
                mod_m[col] = int(val)
            else:
                per_prime[section][col] = int(val)
    if len({len(seen.get(pe, ())) for pe in per_prime}) > 1:
        raise ConfigError("log file's [mod p^e] sections name different numbers of columns")
    if ref_col is None:
        raise ConfigError("log file missing the reference column")
    return LogTable(ref_col, per_prime, dict(mod_m), M), mod_m
