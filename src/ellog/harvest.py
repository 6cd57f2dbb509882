"""Relation collection over the reduced factor base.

The factor base holds one unknown per translation orbit of places (degree
up to the configured bound) plus the single constant c, the log of the
class of ((-P1) - (O)).  Translating a place by -P1 multiplies its class by
the Frobenius and by that constant to the power of the place degree, so the
log of any place is q^s * log(rep) + d * sigma_s * c after s translation
steps, with sigma_s = 1 + q + ... + q^(s-1).  Places over the torsion
points of <P1> need no unknown at all: their whole orbit walks through O
and the walk pins every log to a multiple of c.

Core relations come from sieving pairs A = g1 + alpha g3 and
B = g1 + beta g2 + gamma g3 over the generators g1 = U - x2, g2 = V - x3,
g3 = g1 g2, equating the image of prod (A - alpha' B) with the image of
the bracket A(V,W)B(U,V) - A(U,V)B(V,W).  The extension stages reuse the
same plumbing with the generator triples of the height-4 groups and the
free height-5 sieve.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field as dc_field

from .algebra import Poly, poly_irreducibles
from .curve import TriPoly, bracket, phi_star, point_neg
from .divisor import (Divisor, Place, decompose, divisor_of, orbit_places,
                      place_of_point, places_over)


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
        self.degree_start: dict[int, int] = {}
        self.c_place = place_of_point(basis.curve, point_neg(basis.td.P1))
        self._torsion_places = self._torsion_table()
        self.extend_to(bound)

    def _torsion_table(self):
        td = self.basis.td
        out = {}
        for j in range(1, td.k):
            out[place_of_point(self.basis.curve, td.point(j))] = j
        return out

    def extend_to(self, bound: int):
        """Index every place of degree <= bound (appends, keeping old columns)."""
        basis = self.basis
        K = basis.curve.field
        td = basis.td
        k = td.k
        for deg in range(self.bound + 1, bound + 1):
            self.degree_start[deg] = len(self.reps)
            new_places = []
            # split and ramified places sit over degree-deg polynomials,
            # inert ones over degree-(deg/2)
            dus = [deg] + ([deg // 2] if deg % 2 == 0 else [])
            for du in dus:
                for u in poly_irreducibles(K, du):
                    for p in places_over(basis.curve, u):
                        if p.degree == deg:
                            new_places.append(p)
            for p in sorted(new_places, key=Place.sort_key):
                if p in self.place_map:
                    continue
                j = self._torsion_places.get(p)
                if j is not None:
                    self.place_map[p] = (C_COLUMN, (k - 1 - j) % k, 1)
                    continue
                orbit = orbit_places(p, td)
                assert all(o is not None for o in orbit)
                keyed = sorted(range(len(orbit)), key=lambda i: orbit[i].sort_key())
                rep_i = keyed[0]
                rep = orbit[rep_i]
                self.reps.append(rep)
                col = len(self.reps)
                self.rep_col[rep] = col
                self.cycle_len[col] = len(orbit)
                for i, member in enumerate(orbit):
                    shift = (i - rep_i) % len(orbit)
                    # member = translate^shift(rep) holds along the cycle
                    self.place_map[member] = (col, shift, member.degree)
        self.bound = max(self.bound, bound)

    # -- bookkeeping ----------------------------------------------------

    def columns(self) -> int:
        """Unknown count: the c column plus one per representative."""
        return len(self.reps) + 1

    def c_col(self) -> int:
        return 0

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

    def row_of_divisor(self, D: Divisor) -> dict[int, int]:
        M = self.basis.M
        row: dict[int, int] = {}
        for place, n in D.finite_places():
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

    def to_line(self, fb: FactorBase) -> str:
        body = ",".join(f"{c}:{v}" for c, v in sorted(self.cols.items()) if c != 0)
        params = ";".join(str(x) for x in self.params)
        return f"{self.mode}|{params}|{body}|c:{self.cols.get(0, 0)}"

    @staticmethod
    def from_line(line: str, fb: FactorBase) -> "Relation":
        mode, params, body, cpart = line.rstrip("\n").split("|")
        cols: dict[int, int] = {}
        if body:
            for item in body.split(","):
                c, v = item.split(":")
                cols[int(c)] = int(v)
        cv = int(cpart.split(":")[1])
        if cv:
            cols[0] = cv
        ptuple = tuple(int(x) for x in params.split(";")) if params else ()
        return Relation(mode, ptuple, cols)


def build_factor_base(basis, bound: int = 3) -> FactorBase:
    return FactorBase(basis, bound)


# ---------------------------------------------------------------------------
# sieve bases
# ---------------------------------------------------------------------------

@dataclass
class SieveBasis:
    """Generator triple with the compelled places removed from each side."""

    mode: str
    g1: TriPoly
    g2: TriPoly
    g3: TriPoly
    compelled_left: list[Place] = dc_field(default_factory=list)
    compelled_right: list[Place] = dc_field(default_factory=list)
    params: tuple = ()


def core_sieve_basis(basis) -> SieveBasis:
    K = basis.curve.field
    td = basis.td
    U = TriPoly.var(K, "U")
    V = TriPoly.var(K, "V")
    g1 = U - TriPoly.const(K, td.xs[2])
    g2 = V - TriPoly.const(K, td.xs[3])
    g3 = g1 * g2
    p3 = place_of_point(basis.curve, td.point(3))
    p2 = place_of_point(basis.curve, td.point(2))
    return SieveBasis("core", g1, g2, g3, [p3], [p3, p2])


def special_group_basis(basis) -> SieveBasis:
    K = basis.curve.field
    U = TriPoly.var(K, "U")
    V = TriPoly.var(K, "V")
    return SieveBasis("special_group", U * V, U + V, TriPoly.const(K, 1))


def k1k2_coefficients(basis):
    """Leading data of the three building brackets over the common denominator.

    Returns (c1, c2, c3, weighted_degree) for <U,UV>, <UV,V>, <U,V>; the
    weighted degree (X counts 2, Y counts 3) must agree across the three or
    the group construction degenerates.
    """
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
    return cs[0], cs[1], cs[2], wmax_all


def k1k2_group_basis(basis, k1: int) -> SieveBasis:
    """Height-4 group with generators UV + k1 U, UV + k2 V, 1.

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
    U = TriPoly.var(K, "U")
    V = TriPoly.var(K, "V")
    UV = U * V
    g1 = UV + U.scale(k1)
    g2 = UV + V.scale(k2)
    return SieveBasis("k1k2", g1, g2, TriPoly.const(K, 1), params=(k1, k2))


def height5_pair(basis, a_u: int, a_1: int, b_v: int, b_1: int):
    K = basis.curve.field
    U = TriPoly.var(K, "U")
    V = TriPoly.var(K, "V")
    UV = U * V
    A = UV + U.scale(a_u) + TriPoly.const(K, a_1)
    B = UV + V.scale(b_v) + TriPoly.const(K, b_1)
    return A, B


# ---------------------------------------------------------------------------
# pair evaluation
# ---------------------------------------------------------------------------

@dataclass
class PairResult:
    left_divisors: list[Divisor]
    right_divisor: Divisor
    left_ok: bool            # every left factor decomposes at the core bound
    right_places: list[tuple[Place, int]]

    def left_total(self) -> Divisor:
        tot = Divisor()
        for d in self.left_divisors:
            tot = tot + d
        return tot


def pair_divisors(basis, A: TriPoly, B: TriPoly) -> PairResult:
    """Divisors of every left factor A - alpha' B (alpha' in P^1) and of the bracket."""
    if A == B:
        raise DegeneratePair("A = B")
    K = basis.curve.field
    td = basis.td
    curve = basis.curve
    lefts = []
    for aprime in range(K.q):
        f = phi_star(A - B.scale(aprime), td)
        if f.is_zero():
            raise DegeneratePair("left factor pulls back to zero")
        lefts.append(divisor_of(f, curve))
    fB = phi_star(B, td)
    if fB.is_zero():
        raise DegeneratePair("B pulls back to zero")
    lefts.append(divisor_of(fB, curve))
    br = bracket(A, B)
    if br.is_zero():
        raise DegeneratePair("bracket vanishes identically")
    fR = phi_star(br, td)
    if fR.is_zero():
        raise DegeneratePair("bracket pulls back to zero")
    R = divisor_of(fR, curve)
    return PairResult(lefts, R, True, R.finite_places())


def relation_from_pair(basis, fb: FactorBase, A: TriPoly, B: TriPoly,
                       mode: str, params: tuple, right_bound: int = 3):
    """Build the homogeneous row for the pair, or None if the bracket side
    does not decompose at the bound."""
    pr = pair_divisors(basis, A, B)
    if decompose(pr.right_divisor, right_bound) is None:
        return None, pr
    total = pr.left_total() - pr.right_divisor
    M = basis.M
    row = fb.row_of_divisor(total)
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


def _check_core_pair_stats(sb: SieveBasis, pr: PairResult, stats: HarvestStats,
                           left_slack: int, right_slack: int):
    for D in pr.left_divisors:
        stats.left_factors += 1
        ok_comp = all(D.coeffs.get(p, 0) >= 1 for p in sb.compelled_left)
        if ok_comp:
            stats.left_with_compelled += 1
        resid = D.positive_part()
        for p in sb.compelled_left:
            resid.add_place(p, -1)
        if resid.height <= left_slack:
            stats.left_height_ok += 1
        if all(p.degree <= 3 for p, n in D.coeffs.items() if n > 0):
            stats.left_decomposable += 1
    R = pr.right_divisor
    if all(R.coeffs.get(p, 0) >= 1 for p in sb.compelled_right):
        stats.right_with_compelled += 1
    resid = R.positive_part()
    for p in sb.compelled_right:
        resid.add_place(p, -1)
    if resid.height <= right_slack:
        stats.right_height_ok += 1
    stats.right_residual_max = max(stats.right_residual_max, resid.height)


def _core_chunk(args):
    basis, fb, alphas, seed = args
    sb = core_sieve_basis(basis)
    K = basis.curve.field
    rels, stats = [], HarvestStats()
    for alpha in alphas:
        A = sb.g1 + sb.g3.scale(alpha)
        for beta in range(K.q):
            for gamma in range(K.q):
                B = sb.g1 + sb.g2.scale(beta) + sb.g3.scale(gamma)
                stats.attempts += 1
                try:
                    rel, pr = relation_from_pair(basis, fb, A, B, "core",
                                                 (alpha, beta, gamma))
                except DegeneratePair:
                    stats.degenerate += 1
                    continue
                _check_core_pair_stats(sb, pr, stats, 3, 6)
                if rel is not None:
                    stats.smooth += 1
                    rels.append(rel)
    return rels, stats


def harvest_core(basis, fb: FactorBase, budget: int | None = None,
                 workers: int = 1, seed: int = 0):
    """Sieve the full (alpha, beta, gamma) cube (or a budgeted prefix).

    Returns (relations, stats); relations are deduplicated by row and
    sorted by provenance, so the output is independent of worker count.
    """
    K = basis.curve.field
    alphas = list(range(K.q))
    if workers > 1:
        chunks = [(basis, fb, [a], seed) for a in alphas]
        try:
            pool = multiprocessing.get_context("fork").Pool(workers)
        except (OSError, ValueError, ImportError):
            # no fork start method or no processes to spare: sieve here.
            # An error raised inside a worker is not caught; it propagates.
            parts = [_core_chunk(ch) for ch in chunks]
        else:
            with pool:
                parts = pool.map(_core_chunk, chunks)
    else:
        parts = [_core_chunk((basis, fb, alphas, seed))]
    stats = HarvestStats()
    rels: list[Relation] = []
    for rl, st in parts:
        rels.extend(rl)
        for name in HarvestStats.__dataclass_fields__:
            if name == "right_residual_max":
                stats.right_residual_max = max(stats.right_residual_max, st.right_residual_max)
            else:
                setattr(stats, name, getattr(stats, name) + getattr(st, name))
    if budget is not None:
        rels = rels[:budget]
    seen, out = set(), []
    for rel in sorted(rels, key=lambda r: r.params):
        k = rel.key()
        if k in seen:
            continue
        seen.add(k)
        out.append(rel)
        stats.emitted += 1
    return out, stats


def harvest_m1(basis, fb: FactorBase, budget: int | None = None):
    """Reinforcement rows from pencils over the full monomial set {1, U, V, UV}.

    A relation depends only on the plane spanned by (A, B), so the core
    generators yield at most q^2 + q + 1 distinct rows; tiny instances can
    need more rank than that.  Here both sides must decompose at the core
    bound outright (no compelled points), which is rare per pencil but the
    pencil count is q^4-ish.  Returns deduplicated relations.
    """
    K = basis.curve.field
    q = K.q
    U = TriPoly.var(K, "U")
    V = TriPoly.var(K, "V")
    UV = U * V
    one = TriPoly.const(K, 1)
    out, seen = [], set()
    b_reps = ([(1, b, c) for b in range(q) for c in range(q)]
              + [(0, 1, c) for c in range(q)] + [(0, 0, 1)])
    for u, v, w in b_reps:
        B = U.scale(u) + V.scale(v) + one.scale(w)
        for a in range(q):
            if u == 1 and a != 0:
                continue
            for b in range(q):
                if u == 0 and v == 1 and b != 0:
                    continue
                for c in range(q):
                    if u == 0 and v == 0 and c != 0:
                        continue
                    A = UV + U.scale(a) + V.scale(b) + one.scale(c)
                    try:
                        pr = pair_divisors(basis, A, B)
                    except DegeneratePair:
                        continue
                    if any(decompose(D, 3) is None for D in pr.left_divisors):
                        continue
                    if decompose(pr.right_divisor, 3) is None:
                        continue
                    row = fb.row_of_divisor(pr.left_total() - pr.right_divisor)
                    if not row:
                        continue
                    rel = Relation("m1", (u, v, w, a, b, c), row)
                    if rel.key() in seen:
                        continue
                    seen.add(rel.key())
                    out.append(rel)
                    if budget is not None and len(out) >= budget:
                        return out
    return out


def reconstruct_pair(basis, mode: str, params: tuple):
    """Rebuild the sieve pair (A, B) of a stored relation for auditing."""
    K = basis.curve.field
    if mode == "core":
        sb = core_sieve_basis(basis)
        alpha, beta, gamma = params
        return (sb.g1 + sb.g3.scale(alpha),
                sb.g1 + sb.g2.scale(beta) + sb.g3.scale(gamma))
    if mode == "special_group":
        sb = special_group_basis(basis)
        alpha, beta = params
        return sb.g1 + sb.g2.scale(alpha), sb.g1 + sb.g3.scale(beta)
    if mode == "k1k2":
        k1, k2, alpha, beta = params
        sb = k1k2_group_basis(basis, k1)
        assert sb.params[1] == k2
        return sb.g1 + sb.g2.scale(alpha), sb.g1 + sb.g3.scale(beta)
    if mode == "height5":
        return height5_pair(basis, *params)
    if mode == "m1":
        U = TriPoly.var(K, "U")
        V = TriPoly.var(K, "V")
        one = TriPoly.const(K, 1)
        u, v, w, a, b, c = params
        A = U * V + U.scale(a) + V.scale(b) + one.scale(c)
        B = U.scale(u) + V.scale(v) + one.scale(w)
        return A, B
    raise ValueError(f"unknown relation mode {mode}")


# ---------------------------------------------------------------------------
# extension of the base: heights 4 and 5
# ---------------------------------------------------------------------------

@dataclass
class ExtendReport:
    groups_total: int = 0
    groups_solved: int = 0
    groups_underdetermined: int = 0
    group_attempts: int = 0
    group_smooth: int = 0
    free_logs: int = 0
    solved_reps: dict[int, int] = dc_field(default_factory=dict)
    relations: list[Relation] = dc_field(default_factory=list)
    h5_attempts: int = 0
    h5_hits: int = 0
    h5_two_h5_discarded: int = 0
    h5_left_height_violations: int = 0
    h5_skipped_unknown: int = 0


def _group_sieve(basis, fb: FactorBase, sb: SieveBasis, logs: dict[int, int],
                 prime_powers: list[tuple[int, int]], report: ExtendReport):
    """Run one height-4 group: collect rows, solve members, mine free logs."""
    K = basis.curve.field
    M = basis.M
    c_col = fb.c_col()
    rows = []
    failures = []
    report.groups_total += 1
    for alpha in range(K.q):
        for beta in range(K.q):
            A = sb.g1 + sb.g2.scale(alpha)
            B = sb.g1 + sb.g3.scale(beta)
            report.group_attempts += 1
            try:
                rel, pr = relation_from_pair(
                    basis, fb, A, B, sb.mode, sb.params + (alpha, beta))
            except DegeneratePair:
                continue
            if rel is not None:
                report.group_smooth += 1
                rows.append(rel)
            else:
                deg4_right = [(p, n) for p, n in pr.right_divisor.coeffs.items()
                              if n > 0 and p.degree == 4]
                if len(deg4_right) == 1 and deg4_right[0][1] == 1 and all(
                        p.degree <= 4 for p, n in pr.right_divisor.coeffs.items() if n > 0):
                    failures.append((A, B, pr, sb.params + (alpha, beta)))
    solved_now = _solve_rows_for_new_cols(basis, fb, rows, logs, prime_powers)
    if solved_now:
        report.groups_solved += 1
    else:
        report.groups_underdetermined += 1
    report.solved_reps.update(solved_now)
    logs.update(solved_now)
    report.relations.extend(rows)
    # failures with a single unknown height-4 divisor yield free logs
    for A, B, pr, params in failures:
        total = pr.left_total() - pr.right_divisor
        row = fb.row_of_divisor(total)
        unknown = [c for c in row if c not in logs]
        if len(unknown) != 1:
            continue
        col = unknown[0]
        rest = sum(row[c] * logs[c] for c in row if c != col) % M
        val = _divide_mod((-rest) % M, row[col], M)
        if val is None:
            continue
        logs[col] = val
        report.solved_reps[col] = val
        report.free_logs += 1
        report.relations.append(Relation(sb.mode + "_free", params, row))
    return report


def _divide_mod(a: int, b: int, M: int) -> int | None:
    """a / b mod M when the quotient is unique, else None."""
    from math import gcd
    g = gcd(b, M)
    if g == 1:
        return a * pow(b, -1, M) % M
    return None


def _solve_rows_for_new_cols(basis, fb: FactorBase, rows: list[Relation],
                             logs: dict[int, int],
                             prime_powers: list[tuple[int, int]]) -> dict[int, int]:
    """Solve the rows for columns outside `logs`, per prime power, then CRT.

    Only columns the system determines uniquely are returned.
    """
    from .linalg import solve_affine_mod
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
        sol = solve_affine_mod(amat, rhs, len(unknown_cols), M, ell, e)
        if sol is not None:
            got = {i: v for i, v in enumerate(sol)}
        else:
            got = _partial_solution(amat, rhs, len(unknown_cols), ell, e)
        for c in unknown_cols:
            if col_pos[c] in got:
                partial[c].append((got[col_pos[c]], ell ** e))
    out = {}
    for c, residues in partial.items():
        if len(residues) == len(prime_powers):
            out[c] = _crt(residues) % M
    return out


def _partial_solution(amat, rhs, ncols, ell, e) -> dict[int, int]:
    """Determined coordinates of the affine system mod ell^e (RREF scan)."""
    mod = ell ** e
    dense = []
    for a, b in zip(amat, rhs):
        v = [0] * (ncols + 1)
        for c, x in a.items():
            v[c] = x % mod
        v[ncols] = b % mod
        dense.append(v)
    from .linalg import _rref_mod
    pivots = _rref_mod(dense, ell, ncols)
    det: dict[int, int] = {}
    for i, pc in enumerate(pivots):
        row = dense[i]
        if all(row[c] % ell == 0 for c in range(ncols) if c != pc):
            if e == 1:
                det[pc] = row[ncols] % ell
    return det


def _crt(residues: list[tuple[int, int]]) -> int:
    x, m = 0, 1
    for r, mod in residues:
        g = pow(m, -1, mod)
        x = x + m * ((r - x) * g % mod)
        m *= mod
    return x % m


def extend_h4(basis, fb: FactorBase, logs: dict[int, int],
              prime_powers: list[tuple[int, int]]) -> ExtendReport:
    """Learn height-4 representative logs from the special and paired groups.

    `logs` maps solved columns (height <= 3 reps and c) to values mod M and
    is updated in place; the report lists everything newly solved.
    """
    fb.extend_to(4)
    report = ExtendReport()
    _group_sieve(basis, fb, special_group_basis(basis), logs, prime_powers, report)
    K = basis.curve.field
    c1, c2, c3, _ = k1k2_coefficients(basis)
    if c2 and c3:
        excluded = K.neg(K.div(c2, c3))
        for k1 in range(K.q):
            if k1 == 0 or k1 == excluded:
                continue
            try:
                sb = k1k2_group_basis(basis, k1)
            except GroupDegenerate:
                continue
            _group_sieve(basis, fb, sb, logs, prime_powers, report)
    return report


def extend_h5(basis, fb: FactorBase, logs: dict[int, int]) -> ExtendReport:
    """Height-5 logs with no linear algebra: single-unknown sieve outputs.

    A pair contributes when the bracket divisor carries exactly one
    height-5 place (multiplicity one) and everything else, on both sides,
    is already solved.
    """
    fb.extend_to(5)
    K = basis.curve.field
    M = basis.M
    report = ExtendReport()
    for a_u in range(K.q):
        for a_1 in range(K.q):
            for b_v in range(K.q):
                for b_1 in range(K.q):
                    A, B = height5_pair(basis, a_u, a_1, b_v, b_1)
                    if A == B:
                        continue
                    report.h5_attempts += 1
                    try:
                        pr = pair_divisors(basis, A, B)
                    except DegeneratePair:
                        continue
                    for D in pr.left_divisors:
                        if D.positive_part().height > 4:
                            report.h5_left_height_violations += 1
                    h5_places = [(p, n) for p, n in pr.right_divisor.coeffs.items()
                                 if n > 0 and p.degree == 5]
                    if not h5_places:
                        continue
                    if len(h5_places) > 1 or h5_places[0][1] != 1:
                        report.h5_two_h5_discarded += 1
                        continue
                    if any(p.degree > 5 for p, n in pr.right_divisor.coeffs.items() if n > 0):
                        continue
                    target = h5_places[0][0]
                    col, s, d = fb.place_map[target]
                    if col in logs:
                        continue  # orbit already covered
                    total = pr.left_total() - pr.right_divisor
                    row = fb.row_of_divisor(total)
                    unknown = [c for c in row if c not in logs]
                    if unknown != [col]:
                        report.h5_skipped_unknown += 1
                        continue
                    rest = sum(row[c] * logs[c] for c in row if c != col) % M
                    val = _divide_mod((-rest) % M, row[col], M)
                    if val is None:
                        report.h5_skipped_unknown += 1
                        continue
                    logs[col] = val
                    report.solved_reps[col] = val
                    report.h5_hits += 1
                    report.relations.append(
                        Relation("height5", (a_u, a_1, b_v, b_1), row))
    return report


# ---------------------------------------------------------------------------
# relations file
# ---------------------------------------------------------------------------

def write_relations(path: str, fb: FactorBase, relations: list[Relation],
                    append: bool = False):
    mode = "a" if append else "w"
    with open(path, mode) as fh:
        if not append:
            fh.write(f"# factor-base {fb.fingerprint()}\n")
        for rel in relations:
            fh.write(rel.to_line(fb) + "\n")


def read_relations(path: str, fb: FactorBase) -> list[Relation]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                if line.startswith("# factor-base") and fb.fingerprint() not in line:
                    raise ValueError("relations file belongs to a different basis")
                continue
            out.append(Relation.from_line(line, fb))
    return out
