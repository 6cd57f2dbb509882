"""Linear algebra over a finite field, with a Hensel lift to prime powers.

One Gauss-Jordan elimination (`_rref`) serves every solver in the package.
It runs over any field object with `inv`/`mul`/`sub`/`neg` on reduced
integer elements whose zero is 0: a `FieldDesc` for systems over F_q
(element codes), or `Zmod(ell)` for relation matrices over Z/ell, whose
prime can exceed the F_q cap.  `solve_linear` returns the particular
solution and the nullspace basis.  The sparse entry points take rows as
dicts column -> coefficient, solve modulo ell and lift through ell^e;
`crt` then joins the prime powers.  Row counts stay in the low thousands
at desk scale, so elimination is dense.
"""

from __future__ import annotations


class MoreRelationsNeeded(RuntimeError):
    pass


class InconsistentSystem(RuntimeError):
    pass


class Zmod:
    """Z/ell for a prime ell, with the arithmetic interface of FieldDesc."""

    __slots__ = ("ell",)

    def __init__(self, ell: int):
        self.ell = ell

    def inv(self, a: int) -> int:
        return pow(a, -1, self.ell)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.ell

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.ell

    def neg(self, a: int) -> int:
        return -a % self.ell


def _rref(F, rows: list[list[int]], ncols: int) -> list[int]:
    """In-place reduced row echelon form over F; returns the pivot columns.

    Pivots are taken in the first ncols columns only; further columns (an
    augmented right-hand side) are carried along.  Entries must be reduced
    elements of F.
    """
    mul, sub = F.mul, F.sub
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        prow = rows[r] = [mul(x, inv) if x else 0 for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [sub(x, mul(f, y)) if y else x for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return pivots


def solve_linear(F, A: list[list[int]], b: list[int], ncols: int):
    """Solve A x = b over F: (x0, nullspace basis), or (None, []) if inconsistent.

    A is dense row-major with reduced entries and is left untouched.  x0
    sets every free variable to 0; the basis holds one vector per free
    column, in column order.
    """
    rows = [list(r) + [bv] for r, bv in zip(A, b)]
    pivots = _rref(F, rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None, []
    x = [0] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[ncols]
    pivot_set = set(pivots)
    null = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = F.neg(row[fc])
        null.append(vec)
    return x, null


def _dense(rows: list[dict[int, int]], ncols: int, mod: int) -> list[list[int]]:
    """Sparse rows as dense lists with entries reduced mod `mod`."""
    out = []
    for row in rows:
        v = [0] * ncols
        for c, x in row.items():
            v[c] = x % mod
        out.append(v)
    return out


def crt(residues: list[tuple[int, int]]) -> int:
    """The x mod prod(m) with x = r mod m for each (r, m); moduli coprime."""
    x, m = 0, 1
    for r, mod in residues:
        x += m * ((r - x) * pow(m, -1, mod) % mod)
        m *= mod
    return x % m


def kernel_mod_prime(rows: list[dict[int, int]], ncols: int, ell: int) -> list[list[int]]:
    """Basis of the right kernel of the sparse row set, modulo prime ell."""
    _, null = solve_linear(Zmod(ell), _dense(rows, ncols, ell), [0] * len(rows), ncols)
    return null


def solve_affine_mod(rows: list[dict[int, int]], rhs: list[int], ncols: int,
                     modulus: int, ell: int, e: int):
    """One solution of A x = rhs mod ell^e, or None if underdetermined.

    Requires the mod-ell system to determine every unknown (unique
    solution); lifts it through the prime power.  Raises
    InconsistentSystem when no solution exists even mod ell.
    """
    F = Zmod(ell)
    dense = _dense(rows, ncols, modulus)
    dense_l = [[x % ell for x in v] for v in dense]
    b = [v % modulus for v in rhs]

    def solve_once(target):
        x, null = solve_linear(F, dense_l, [t % ell for t in target], ncols)
        if x is None:
            raise InconsistentSystem("inconsistent rows")
        return None if null else x

    sol = solve_once(b)
    if sol is None:
        return None
    modk = ell
    while modk < ell ** e:
        # residual r = (A sol - rhs)/modk mod ell; correct sol by modk * d
        resid = []
        for v, bv in zip(dense, b):
            acc = sum(x * s for x, s in zip(v, sol) if x) - bv
            if acc % modk:
                raise AssertionError("lift invariant broken")
            resid.append(-(acc // modk))
        d = solve_once(resid)
        if d is None:
            return None
        sol = [(s + modk * dd) % (modk * ell) for s, dd in zip(sol, d)]
        modk *= ell
    return sol


def determined_mod_prime(rows: list[dict[int, int]], rhs: list[int], ncols: int,
                         ell: int) -> dict[int, int]:
    """The coordinates that the consistent system A x = rhs fixes mod ell."""
    x, null = solve_linear(Zmod(ell), _dense(rows, ncols, ell),
                           [b % ell for b in rhs], ncols)
    if x is None:
        raise InconsistentSystem("inconsistent rows")
    return {c: x[c] for c in range(ncols) if not any(v[c] for v in null)}


def kernel_mod_prime_power(rows: list[dict[int, int]], ncols: int,
                           ell: int, e: int) -> list[int]:
    """A kernel vector mod ell^e whose reduction mod ell spans the kernel.

    Raises InconsistentSystem when the mod-ell kernel is empty (the rows
    are homogeneous, so the columns cannot all carry consistent logs) and
    MoreRelationsNeeded when its dimension exceeds 1.  The first nonzero
    coordinate of the mod-ell vector stays fixed; moved to the right-hand
    side, it leaves a system that fixes every other coordinate mod ell,
    which `solve_affine_mod` lifts.
    """
    basis = kernel_mod_prime(rows, ncols, ell)
    if not basis:
        raise InconsistentSystem("homogeneous system with trivial kernel")
    if len(basis) > 1:
        raise MoreRelationsNeeded(f"kernel dimension {len(basis)} mod {ell}")
    vec = basis[0]
    if e == 1:
        return vec
    anchor = next(c for c in range(ncols) if vec[c])
    a = vec[anchor]
    rest = [{c - (c > anchor): x for c, x in row.items() if c != anchor}
            for row in rows]
    rhs = [-row.get(anchor, 0) * a for row in rows]
    sol = solve_affine_mod(rest, rhs, ncols - 1, ell ** e, ell, e)
    return sol[:anchor] + [a] + sol[anchor:]
