"""Finite field towers and univariate polynomial arithmetic.

Two levels are supported: a base field F_q = F_p[w]/(modulus) with q = p^m,
and `ExtFieldDesc`, the residue field F_q[X]/(f) for any monic irreducible f
over it.  That one class is both the target field F_{q^k} = F_q[X]/(I) and
the residue field of a place: F_q[x]/(u), or F_q[X]/(u(X^2 - c)) at an
inert place (`divisor.place_point`).  Base field
elements are stored as integer codes in [0, q): the code is the base-p
expansion of the coefficient vector, low degree first.  A `Poly` over F_q
is a tuple of codes, and its arithmetic, gcds, modular powers and the
factorization all run in one kernel on plain coefficient lists.

Each primitive is computed one way.  A polynomial product modulo another
is that kernel's, whether the operands are polynomials over F_q, digit
vectors of F_{p^m} over F_p (its ops above the table cap, and the tables
below it) or elements of F_{q^k} over an F_{p^m} base; only F_{q^k} over
F_p packs its product into one int (see `ExtFieldDesc`).  Every square
root is `_sqrt`, and a field keeps one table of least square roots
(`FieldDesc.root_table`) for the scans over all of F_q.

The canonical text encoding of an element is its comma-separated base-p digit
vector, low degree first (e.g. "3,0,1"), and is used verbatim by every
persistence format in the package.

The integer primality test and factorizer that the other modules share
live here too; Rabin's irreducibility test takes its prime divisors of
the degree from the factorizer.
"""

from __future__ import annotations

import math
import operator
import random
from functools import cache
from struct import Struct, calcsize


DESK_Q_CAP = 1 << 20
_TABLE_Q_CAP = 1 << 10  # precompute add/mul tables below this size


class ConfigError(ValueError):
    """A bad argument, config.json or stored artifact: the user's to fix.

    The CLI reports this class, and only this class, as a configuration
    error (exit 2); every other exception propagates.
    """


class NotPrime(ConfigError):
    pass


class CharTooSmall(ConfigError):
    pass


class Reducible(ValueError):
    pass


class NonResidue(ValueError):
    """A square root was asked of a non-square."""


class ZeroPolynomial(ValueError):
    pass


class FactorizationTimeout(RuntimeError):
    pass


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word-sized integers we handle."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho_factor(n: int, rng: random.Random, budget: int = 1_000_000) -> int:
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        steps = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            steps += 1
            if steps > budget:
                raise FactorizationTimeout(f"rho stalled on {n}")
        if d != n:
            return d


def factor_modulus(M: int) -> list[tuple[int, int]]:
    """Full factorization, trial division to 10^6 then Pollard rho."""
    if M < 2:
        raise ValueError("modulus must be at least 2")
    out: dict[int, int] = {}
    n = M
    for p in range(2, 1_000_000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = None  # seeded only for rho: Rabin's test factors each degree
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if rng is None:
            rng = random.Random(0xFAC7)
        d = _pollard_rho_factor(m, rng)
        stack.extend([d, m // d])
    return sorted(out.items())


class FieldDesc:
    """Description of F_q = F_p[w]/(modulus), q = p^m, with code arithmetic.

    Element codes are integers 0..q-1; code(sum d_i w^i) = sum d_i p^i.
    All arithmetic methods act on codes.  `_prime` is F_p itself, over which
    the list kernel works on the digit vectors of F_{p^m}.  Instances are
    immutable, apart from the table of `root_table`, filled on first use.
    """

    __slots__ = ("p", "m", "q", "modulus", "_prime", "_ring", "_mul_table",
                 "_add_table", "_neg_table", "_inv_table", "_roots")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        if not is_probable_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p < 5:
            raise CharTooSmall(f"characteristic {p} < 5 unsupported")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** m
        if q > DESK_Q_CAP:
            raise ConfigError(f"q = {q} exceeds desk-scale cap 2^20")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(c % p for c in modulus)
        self._mul_table = None
        self._add_table = None
        self._neg_table = None
        self._inv_table = None
        self._roots = None
        self._prime = _prime_field(p) if m > 1 else self
        self._ring = None
        if m > 1:
            if not _is_irreducible(self._prime, self.modulus):
                raise Reducible("field modulus is reducible")
            self._ring = _ring(self._prime, self.modulus)
        if q <= _TABLE_Q_CAP:
            self._build_tables()

    # -- code <-> vector <-> text -------------------------------------

    def vec(self, code: int) -> tuple[int, ...]:
        p, out = self.p, []
        for _ in range(self.m):
            code, d = divmod(code, p)
            out.append(d)
        return tuple(out)

    def code(self, vec) -> int:
        p, c = self.p, 0
        for d in reversed(vec):
            c = c * p + d % p
        return c

    def enc(self, code: int) -> str:
        return ",".join(str(d) for d in self.vec(code))

    def dec(self, text: str) -> int:
        digits = [int(t) for t in text.split(",")]
        if len(digits) != self.m:
            raise ValueError(f"expected {self.m} digits, got {text!r}")
        if not all(0 <= d < self.p for d in digits):
            raise ValueError(f"a digit of {text!r} is outside 0..{self.p - 1}")
        return self.code(digits)

    # -- arithmetic on codes ------------------------------------------
    #
    # Below _TABLE_Q_CAP every op is a table lookup.  Above it a prime field
    # works on the ints, and F_{p^m} runs the list kernel of F_p[w] (below)
    # on digit vectors, reducing products by the modulus; the tables are
    # filled by the same untabled ops.

    def _build_tables(self):
        """Fill the add, mul, neg and inv tables.

        Over F_p a row is one comprehension.  Over F_{p^m} a row takes m
        untabled products: b -> a + b and b -> a b are F_p-linear up to a
        constant, so the block of codes with top digit t >= 1 at place j,
        [t p^j, (t + 1) p^j), follows from the block p^j below it.  a + b
        is a + (b - p^j) with digit j raised by one (a table of such
        bumps), and a b is a (b - p^j) + a w^j, one lookup in the add
        table's row of a w^j.  neg and inv are read off the rows, as the
        codes of 0 and of 1."""
        p, m, q = self.p, self.m, self.q
        if m == 1:
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            powers = [p ** j for j in range(m)]
            blocks = [(j, pj, t) for j, pj in enumerate(powers) for t in range(1, p)]
            bumps = [[c - (p - 1) * pj if c // pj % p == p - 1 else c + pj
                      for c in range(q)] for pj in powers]
            add, mul = [], []
            for a in range(q):
                row = [a] * q
                for j, pj, t in blocks:
                    row[t * pj:(t + 1) * pj] = map(bumps[j].__getitem__,
                                                   row[(t - 1) * pj:t * pj])
                add.append(row)
            for a in range(q):
                cols = [add[self.mul(a, pj)] for pj in powers]
                row = [0] * q
                for j, pj, t in blocks:
                    row[t * pj:(t + 1) * pj] = map(cols[j].__getitem__,
                                                   row[(t - 1) * pj:t * pj])
                mul.append(row)
        self._add_table = add
        self._mul_table = mul
        self._neg_table = [row.index(0) for row in add]
        self._inv_table = [0] + [row.index(1) for row in mul[1:]]

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        if self.m == 1:
            return (a + b) % self.p
        return self.code(_add(self._prime, self.vec(a), self.vec(b)))

    def sub(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][self._neg_table[b]]
        if self.m == 1:
            return (a - b) % self.p
        return self.code(_sub(self._prime, self.vec(a), self.vec(b)))

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        if self.m == 1:
            return -a % self.p
        return self.code(_sub(self._prime, (), self.vec(a)))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if self.m == 1:
            return a * b % self.p
        return self.code(_mul(self._prime, self.vec(a), self.vec(b), self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if e == 0 else 0
        e %= self.q - 1
        if self.m == 1:
            return pow(a, e, self.p)
        return self.code(self._ring.pow_(self.vec(a), e))

    def embed(self, base_code: int) -> int:
        return base_code

    def eq(self, a: int, b: int) -> bool:
        return a == b

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def is_square(self, a: int) -> bool:
        if a == 0:
            return True
        return self.pow_(a, (self.q - 1) // 2) == 1

    def sqrt(self, a: int) -> int:
        """A square root of a, or raise NonResidue."""
        return _sqrt(self, a, self.q)

    def root_table(self) -> list[int]:
        """The least square root of each code, -1 at a non-square: one scan
        of the q squares, on first use."""
        roots = self._roots
        if roots is None:
            roots = self._roots = [-1] * self.q
            mul = self.mul
            for y in range(self.q - 1, -1, -1):
                roots[mul(y, y)] = y
        return roots

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, FieldDesc) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))


# ---------------------------------------------------------------------------
# polynomials over F_p (for modulus search) and over a FieldDesc
# ---------------------------------------------------------------------------

_PRIME_FIELD_CACHE: dict[int, FieldDesc] = {}


def _prime_field(p: int) -> FieldDesc:
    fd = _PRIME_FIELD_CACHE.get(p)
    if fd is None:
        fd = FieldDesc(p, 1, (0, 1))
        _PRIME_FIELD_CACHE[p] = fd
    return fd


DEG_ZERO = -1  # degree sentinel for the zero polynomial


# ---------------------------------------------------------------------------
# the coefficient-list kernel of F_q[X]
# ---------------------------------------------------------------------------
#
# A polynomial is a list (or tuple) of base codes, low degree first, with no
# trailing zero; the zero polynomial is empty.  The primitives never change
# their arguments, though one may come back as the result.  Over a prime
# base a code is its own residue, so products and remainders accumulate as
# ints and take one `% p` per output coefficient.  Over F_{p^m} they bind
# the base field's add/sub/mul (lookups in its tables below _TABLE_Q_CAP)
# to locals.  Its users: `Poly`; the gcds and quotients of the
# factorization and of Rabin's test, and the square-free parts of the
# basis's candidate search; `ExtFieldDesc.pmul` over an F_{p^m} base,
# `ExtFieldDesc.inv` and the Barrett inverse of the packed product; the
# untabled ops of F_{p^m} itself, on digit vectors over F_p; and, outside
# this module, `divisor_of`, which takes its content, quotients, norm
# (`_norm`, the one primitive of its own) and zero ordinates here and
# builds no `Poly`, the Mumford reductions of `psi`, and `curve`'s
# division by X - x1 and its table of plane pull-backs.  Powers modulo a
# polynomial are not taken here: every one, in Rabin's test, the
# factorization, the basis's candidate search, the Frobenius rows and
# F_{p^m}'s `pow_`, is `ExtFieldDesc.ppow` in the ring of its modulus.

def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _add(K: FieldDesc, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    if K.m == 1:
        p = K.p
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        add = K.add
        out = [add(x, y) for x, y in zip(a, b)]
    out += a[len(b):]
    return _strip(out)


def _sub(K: FieldDesc, a, b) -> list:
    n = len(b)
    if K.m == 1:
        p = K.p
        out = [(x - y) % p for x, y in zip(a, b)]
        out += a[n:]
        out += [-y % p for y in b[len(a):]]
    else:
        sub, neg = K.sub, K.neg
        out = [sub(x, y) for x, y in zip(a, b)]
        out += a[n:]
        out += [neg(y) for y in b[len(a):]]
    return _strip(out)


def _mul(K: FieldDesc, a, b, m=None) -> list:
    """a*b, or a*b mod m when a nonzero m is given."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if K.m == 1:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        if m is not None:
            return _reduce(K, out, m)
        p = K.p
        return [c % p for c in out]
    add, mul = K.add, K.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return out if m is None else _reduce(K, out, m)


def _scale(K: FieldDesc, a, c: int) -> list:
    if not c:
        return []
    if K.m == 1:
        p = K.p
        return [x * c % p for x in a]
    mul = K.mul
    return [mul(x, c) for x in a]


def _monic(K: FieldDesc, a):
    if not a or a[-1] == 1:
        return a
    return _scale(K, a, K.inv(a[-1]))


def _reduce(K: FieldDesc, r: list, b, quot: list | None = None) -> list:
    """r mod a nonzero b, worked in place on r, which the caller owns.

    Over a prime base r may hold unreduced ints; each step reduces only the
    coefficient it clears.  The quotient's coefficients go into quot.
    """
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    low = b[:db]
    inv = 1 if b[-1] == 1 else K.inv(b[-1])
    if K.m == 1:
        p = K.p
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] * inv % p
            if c:
                if quot is not None:
                    quot[i - db] = c
                for j, y in enumerate(low, i - db):
                    r[j] -= c * y
        return _strip([x % p for x in r[:db]])
    sub, mul = K.sub, K.mul
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = mul(c, inv)
            if quot is not None:
                quot[i - db] = c
            for j, y in enumerate(low, i - db):
                if y:
                    r[j] = sub(r[j], mul(c, y))
    return _strip(r[:db])


def _divmod(K: FieldDesc, a, b) -> tuple[list, list]:
    """(quotient, remainder) of a by a nonzero b."""
    quot = [0] * max(len(a) - len(b) + 1, 0)
    return quot, _reduce(K, list(a), b, quot)


def _rem(K: FieldDesc, a, b) -> list:
    return _reduce(K, list(a), b)


def _quo(K: FieldDesc, a, b) -> list:
    return _divmod(K, a, b)[0]


def _derivative(K: FieldDesc, a) -> list:
    p = K.p
    if K.m == 1:
        return _strip([c * i % p for i, c in enumerate(a[1:], 1)])
    mul = K.mul
    return _strip([mul(c, i % p) for i, c in enumerate(a[1:], 1)])


def _horner(K: FieldDesc, a, x: int) -> tuple[list, int]:
    """(quotient, remainder) of a by X - x: Horner's rule at x, whose
    partial sums are the quotient's coefficients and whose value is a(x)."""
    quot = [0] * max(len(a) - 1, 0)
    acc = 0
    if K.m == 1:
        p = K.p
        for i in range(len(a) - 1, 0, -1):
            acc = quot[i - 1] = (acc * x + a[i]) % p
        return quot, (acc * x + a[0]) % p if a else 0
    add, mul = K.add, K.mul
    for i in range(len(a) - 1, 0, -1):
        acc = quot[i - 1] = add(mul(acc, x), a[i])
    return quot, add(mul(acc, x), a[0]) if a else 0


def _norm(K: FieldDesc, a, b, f) -> list:
    """a^2 - b^2 f, the norm of a + b y where y^2 = f.  Over a prime base
    the two products accumulate as ints, with one `% p` per coefficient."""
    if K.m > 1:
        return _sub(K, _mul(K, a, a), _mul(K, _mul(K, b, b), f))
    bb = [0] * (2 * len(b) - 1) if b and f else []
    out = [0] * max(2 * len(a) - 1, len(bb) + len(f) - 1, 0)
    for sq, cs in ((out, a), (bb, b if bb else ())):
        for i, x in enumerate(cs):
            if x:
                for j, y in enumerate(cs, i):
                    sq[j] += x * y
    for i, x in enumerate(bb):
        for j, y in enumerate(f, i):
            out[j] -= x * y
    p = K.p
    return _strip([c % p for c in out])


def _gcd(K: FieldDesc, a, b):
    """The monic gcd (zero only when both are zero).

    The remainder sequence runs on two lists of its own, each step reduced
    in place by `_reduce`."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _reduce(K, a, b)
    return _monic(K, a)


def _euclid(K: FieldDesc, a, b):
    """Yield (r, t) with t*b = r mod a for each remainder after a and b."""
    r0, r1 = a, b
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(K, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _sub(K, t0, _mul(K, q, t1))
        yield r0, t0


def _ext_gcd(K: FieldDesc, a, b):
    """(g, s) with s*a = g mod b, g = gcd(a, b) monic (or zero).

    One loop over the remainder sequence r0 = b, r1 = a and its cofactors
    s0 = 0, s1 = 1, with r_i = s_i a mod b.  A division step clears each
    top coefficient c X^j of r0 by c X^j r1 and takes c X^j s1 off s0 in
    the same pass, so no quotient, product or difference list is built.
    Over a prime base both accumulate as ints and are reduced once a step.
    """
    r0, r1, s0, s1 = list(b), list(a), [], [1]
    prime = K.m == 1
    p, sub, mul = K.p, K.sub, K.mul
    while r1:
        db = len(r1) - 1
        inv = 1 if r1[-1] == 1 else K.inv(r1[-1])
        low = r1[:db]
        s0 += [0] * (len(r0) - db - 1 + len(s1) - len(s0))
        for i in range(len(r0) - 1, db - 1, -1):
            c = r0[i] * inv % p if prime else mul(r0[i], inv)
            if c:
                if prime:
                    for j, y in enumerate(low, i - db):
                        r0[j] -= c * y
                    for j, y in enumerate(s1, i - db):
                        s0[j] -= c * y
                else:
                    for j, y in enumerate(low, i - db):
                        if y:
                            r0[j] = sub(r0[j], mul(c, y))
                    for j, y in enumerate(s1, i - db):
                        if y:
                            s0[j] = sub(s0[j], mul(c, y))
        if prime:
            rem, s0 = [x % p for x in r0[:db]], [x % p for x in s0]
        else:
            rem = r0[:db]
        r0, r1, s0, s1 = r1, _strip(rem), s1, _strip(s0)
    if not r0:
        return r0, s0
    ic = K.inv(r0[-1])
    return _scale(K, r0, ic), _scale(K, s0, ic)


def _poly(K: FieldDesc, cs) -> "Poly":
    """A Poly around kernel output, which is already stripped."""
    f = object.__new__(Poly)
    f.field = K
    f.coeffs = tuple(cs)
    return f


class Poly:
    """Univariate polynomial over a FieldDesc, coefficients low degree first.

    Immutable; no trailing zero coefficients are stored, and the zero
    polynomial has empty coefficients with degree() == DEG_ZERO.  The
    arithmetic methods hand the coefficient tuples to the list kernel above
    (ints with one `% p` per coefficient over a prime base, the base
    field's table-backed ops over F_{p^m}) and wrap its result.  A scalar
    multiple is `scale(code)`; `*` takes only another Poly.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else DEG_ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        return _poly(self.field, _add(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return _poly(self.field, _sub(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        return _poly(self.field, _sub(self.field, (), self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(self.field, _mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c: int) -> "Poly":
        return _poly(self.field, _scale(self.field, self.coeffs, c))

    def shift(self, n: int) -> "Poly":
        """Multiply by X^n."""
        if self.is_zero():
            return self
        return Poly(self.field, (0,) * n + self.coeffs)

    def monic(self) -> "Poly":
        return _poly(self.field, _monic(self.field, self.coeffs))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        K = self.field
        q, r = _divmod(K, self.coeffs, other.coeffs)
        return _poly(K, q), _poly(K, r)

    def __mod__(self, other):
        return _poly(self.field, _rem(self.field, self.coeffs, other.coeffs))

    def __floordiv__(self, other):
        return _poly(self.field, _quo(self.field, self.coeffs, other.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        return _poly(self.field, _gcd(self.field, self.coeffs, other.coeffs))

    def eval_in(self, dom, x):
        """Horner evaluation in any domain exposing zero/embed/add/mul."""
        cs = self.coeffs
        if not cs:
            return dom.zero
        acc = dom.embed(cs[-1])
        for c in reversed(cs[:-1]):
            acc = dom.add(dom.mul(acc, x), dom.embed(c))
        return acc

    def encode(self) -> str:
        K = self.field
        return ";".join(K.enc(c) for c in self.coeffs)

    @staticmethod
    def decode(field: FieldDesc, text: str) -> "Poly":
        if not text:
            return Poly(field, ())
        return Poly(field, [field.dec(t) for t in text.split(";")])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly[" + " ".join(self.field.enc(c) for c in self.coeffs) + "]"


def poly_euclid(a: Poly, b: Poly):
    """Yield (r, t) with t*b = r mod a for each remainder after a and b."""
    K = a.field
    for r, t in _euclid(K, a.coeffs, b.coeffs):
        yield _poly(K, r), _poly(K, t)


def _ring(K: FieldDesc, f) -> "ExtFieldDesc":
    """F_q[X]/(f) for a monic f of degree >= 1 (a list or tuple): every
    power modulo f is taken there, by `ExtFieldDesc.ppow`."""
    return ExtFieldDesc(K, _poly(K, f))


def _is_irreducible(K: FieldDesc, f) -> bool:
    """Rabin's test: X^(q^n) = X mod f, and gcd(f, X^(q^(n/l)) - X) = 1
    for each prime l | n.  The powers are one chain of q-th powers of X in
    the ring of f."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    R = _ring(K, f)
    x = R.pack(R.gen())
    subfields = {n // ell for ell, _ in factor_modulus(n)}
    h = x
    for j in range(1, n + 1):
        h = R.ppow(h, K.q)
        if j in subfields and len(_gcd(K, f, _sub(K, R.unpack(h), (0, 1)))) != 1:
            return False
    return h == x


def poly_is_irreducible(f: Poly) -> bool:
    return _is_irreducible(f.field, f.coeffs)


def field_make(p: int, m: int, seed: int = 0) -> FieldDesc:
    """Build F_{p^m} with a deterministic seeded modulus search.

    For m = 1 the modulus is X.  Otherwise monic degree-m polynomials are
    drawn from a seeded stream and the first irreducible one wins, so a fixed
    seed reproduces the same field.
    """
    if not is_probable_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 5:
        raise CharTooSmall(f"characteristic {p} < 5 unsupported")
    if m == 1:
        return _prime_field(p)
    prime = _prime_field(p)
    rng = random.Random(1_000_003 * seed + 7 * p + m)
    while True:
        coeffs = [rng.randrange(p) for _ in range(m)] + [1]
        if poly_is_irreducible(Poly(prime, coeffs)):
            return FieldDesc(p, m, tuple(coeffs))


# ---------------------------------------------------------------------------
# factorization (distinct-degree with repeats / equal-degree), on lists;
# the square-free split serves the basis's candidate search
# ---------------------------------------------------------------------------

def _pth_root_code(K: FieldDesc, c: int) -> int:
    # c^(p^(m-1)) inverts the p-power map on F_{p^m}
    return K.pow_(c, K.p ** (K.m - 1))


def _squarefree_parts(K: FieldDesc, f) -> list[tuple[list, int]]:
    """[(g_i, e_i)] with f = lc * prod g_i^e_i, g_i squarefree monic, pairwise coprime."""
    f = _monic(K, f)
    out: list[tuple[list, int]] = []

    def rec(g, mult: int):
        if len(g) <= 1:
            return
        gp = _derivative(K, g)
        if not gp:
            # g = h(X^p); take p-th root of coefficients (the identity over F_p)
            root = g[:: K.p]
            if K.m > 1:
                root = [_pth_root_code(K, c) for c in root]
            rec(root, mult * K.p)
            return
        c = _gcd(K, g, gp)
        if len(c) == 1:
            out.append((g, mult))  # g is squarefree
            return
        w = _monic(K, _quo(K, g, c))
        i = 1
        while len(w) > 1:
            y = _gcd(K, w, c)
            part = _monic(K, _quo(K, w, y))
            if len(part) > 1:
                out.append((part, mult * i))
            w = y
            c = _monic(K, _quo(K, c, y))
            i += 1
        if len(c) > 1:
            rec(c, mult)

    rec(f, 1)
    return out


def _distinct_degree(K: FieldDesc, R: "ExtFieldDesc", least: int = 1) -> list[tuple[list, int]]:
    """Split the modulus f of the ring R = F_q[X]/(f), monic with no
    irreducible factor of degree below `least`, into [(g, d)]: g a product
    of distinct irreducibles of degree d.  A factor u^e of f, deg u = d,
    lies in e of the g at degree d.

    h = X^(q^d) stays in R: the rest left to split divides f, so
    gcd(rest, h - X) is gcd(rest, X^(q^d) - X), the product of the
    degree-d irreducibles of rest, each once.  Each such g is peeled off
    the rest again, g := gcd(rest, g), until that is 1; a repeated factor
    of degree d is met at degree d, since then 2d <= deg rest, so no
    square-free split comes first.  Below `least` the gcd can only be 1,
    and it is not taken."""
    f = R.I.coeffs
    if len(f) < 3:
        return [(list(f), 1)] if len(f) == 2 else []
    x, h = [0, 1], R.pack(R.gen())
    out, rest, d = [], f, 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((rest, len(rest) - 1))
            break
        h = R.ppow(h, K.q)
        if d < least:
            continue
        g = _gcd(K, rest, _sub(K, R.unpack(h), x))
        while len(g) > 1:
            out.append((g, d))
            rest = _monic(K, _quo(K, rest, g))
            g = _gcd(K, rest, g)
    return out


def _equal_degree(K: FieldDesc, f, d: int, draws, R: "ExtFieldDesc") -> list:
    """Cantor-Zassenhaus split of a product f of degree-d irreducibles (odd
    q), in the ring R = F_q[X]/(F) of a multiple F of f.

    r^((q^d - 1)/2) is taken in R and reduced modulo f: f divides the
    modulus of R, so this is r^((q^d - 1)/2) mod f, and one ring serves
    every product the factorization splits.  `draws()` gives the random
    generator; it is called only when f splits.  An f that is not such a
    product may never split, so each split takes at most 64 draws and then
    raises Reducible: a true product of two or more factors splits at each
    draw with chance about 1/2.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    exp = (K.q ** d - 1) // 2
    rng = draws()
    for _ in range(64):
        r = _strip([rng.randrange(K.q) for _ in range(n)])
        if len(r) < 2:
            continue
        r = R.pack(r + [0] * (R.k - len(r)))
        g = _gcd(K, f, _sub(K, _rem(K, R.unpack(R.ppow(r, exp)), f), [1]))
        if 0 < len(g) - 1 < n:
            break
    else:
        raise Reducible(f"no split in 64 draws: not a product of degree-{d} "
                        "irreducibles")
    left = _equal_degree(K, g, d, draws, R)
    right = _equal_degree(K, _monic(K, _quo(K, f, g)), d, draws, R)
    return left + right


def poly_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Full factorization into monic irreducibles with multiplicities.

    Deterministic: the equal-degree randomness is seeded from the input, at
    its first draw, and the result is sorted by (degree, coefficient codes).
    """
    return _factor(f, 1)


def _factor_rootless(f: Poly) -> list[tuple[Poly, int]]:
    """`poly_factor` of an f with no root in F_q: the distinct-degree
    split skips its gcd with X^q - X, which could only be 1."""
    return _factor(f, 2)


def _factor(f: Poly, least: int) -> list[tuple[Poly, int]]:
    """`poly_factor` of an f with no irreducible factor of degree below
    `least`: the distinct-degree split of monic f, repeats included, then
    the equal-degree split of each product, all in the one ring of f
    (`_distinct_degree`, `_equal_degree`)."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    K = f.field
    g = _monic(K, f.coeffs)
    if len(g) < 3:
        return [(_poly(K, g), 1)] if len(g) == 2 else []
    rng = None

    def draws() -> random.Random:
        nonlocal rng
        if rng is None:
            seed = 0
            for c in f.coeffs:
                seed = (seed * 1_000_003 + c + 1) & 0x7FFFFFFF
            rng = random.Random(seed ^ (K.q << 8))
        return rng

    R = _ring(K, g)
    factors: dict[tuple, int] = {}
    for prod, d in _distinct_degree(K, R, least):
        for irr in _equal_degree(K, prod, d, draws, R):
            key = tuple(irr)
            factors[key] = factors.get(key, 0) + 1
    return [(_poly(K, g), mult)
            for g, mult in sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def poly_random_monic(K: FieldDesc, degree: int, rng: random.Random) -> Poly:
    return Poly(K, [rng.randrange(K.q) for _ in range(degree)] + [1])


def poly_irreducibles(K: FieldDesc, degree: int) -> list[Poly]:
    """All monic irreducibles of the given degree, in coefficient order."""
    out = []
    for code in range(K.q ** degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % K.q)
            c //= K.q
        coeffs.append(1)
        if _is_irreducible(K, coeffs):
            out.append(_poly(K, coeffs))
    return out


# ---------------------------------------------------------------------------
# the extension F_{q^k} = F_q[X]/(I)
# ---------------------------------------------------------------------------

def _pack(slots: Struct, coeffs) -> int:
    """Codes as one int: slot i holds coeffs[i], in the items of `slots`."""
    return int.from_bytes(slots.pack(*coeffs), "little")


def _slot_mod_plan(p: int, k: int, bits: int, top: int):
    """The plan of `_slot_mod` for k slots of `bits` bits, each at most
    `top`, or None where it does not fit (see `ExtFieldDesc`): the folds,
    each (t, 2^t mod p, mask of the low t bits of every slot, mask of the
    low bits - t bits of every slot), then (p, r, s, mask of the low
    bits - s bits of every slot) for the last step."""
    def per_slot(width):
        return sum(((1 << width) - 1) << bits * i for i in range(k))

    folds = []
    while True:
        # the least s with top * (r p - 2^s) < 2^s: at s = len(top p) it holds
        s = next(s for s in range((top * p).bit_length() + 1)
                 if top * (-(1 << s) % p) < 1 << s)
        r = -(-(1 << s) // p)
        if top * r < 1 << bits:
            return tuple(folds), (p, r, s, per_slot(bits - s))
        t = min(range(1, bits), key=lambda t: (top >> t) * pow(2, t, p) + (1 << t))
        c = pow(2, t, p)
        lower = (top >> t) * c + (1 << t) - 1
        if lower >= top:
            return None
        folds.append((t, c, per_slot(t), per_slot(bits - t)))
        top = lower


def _slot_mod(x: int, plan) -> int:
    """The packed int x with each slot reduced mod p, by `plan`."""
    folds, (p, r, s, q_mask) = plan
    for t, c, low, high in folds:
        x = ((x >> t) & high) * c + (x & low)
    return x - p * ((x * r >> s) & q_mask)


@cache
def _kron_layout(p: int, k: int) -> tuple:
    """The slot layout of `ExtFieldDesc.pmul` over F_p at degree k, shared
    by every modulus of that degree: the Struct of k slots, the shifts of
    the high half and of the quotient, the mask of the low half, the plan
    of `_slot_mod`, and whether the high half and the quotient are reduced
    mod p (see `ExtFieldDesc`).  Cached for the process's life, one entry
    per (p, k)."""
    exact = k * (p - 1) ** 2 + k * (k - 1) ** 2 * (p - 1) ** 4
    for mid_mod, top in ((False, exact), (True, (2 * k - 1) * (p - 1) ** 2)):
        for code in "BHIQ":
            bits = 8 * calcsize("<" + code)
            plan = _slot_mod_plan(p, k, bits, top) if top < 1 << bits else None
            if plan is not None:
                return (Struct("<%d%s" % (k, code)), bits * k, bits * max(k - 2, 0),
                        (1 << bits * k) - 1, plan, mid_mod)
    raise ValueError(f"no slot width of at most 64 bits holds F_{p} at degree {k}")


class ExtFieldDesc:
    """F_q[X]/(I) for a monic I of degree k over the base: a field only
    when I is irreducible.

    The target field of a basis and the residue field of a place
    (`divisor.place_point`) are both of this class, and so is the ring of
    each modulus whose powers Rabin's test, the factorization and the
    basis's candidate search take (`_ring`), reducible or not.  Elements
    are tuples of base codes of length k (low degree first).  The
    constructor checks only that I is monic; `ext_make` also checks that
    it is irreducible.  Sums, products and powers hold in any such ring;
    `inv`, `div` and `sqrt` need a field (`inv` raises ZeroDivisionError
    at a zero divisor).

    Products run on a packed form, in `pmul`; `mul` is `pack`, `pmul` and
    `unpack`, and `pow_` packs once and squares on the packed form, so a
    caller that keeps its elements packed (`psi`) pays no conversion per
    product.  Over an F_{p^m} base (m > 1) the packed form is the tuple
    itself and `pmul` is the list kernel's product mod I, on the base
    field's ops.

    Over a prime base F_p an element packs into one int, k slots of w
    bits, low degree in the low slot, each slot in [0, p), and `pmul` is
    a Kronecker substitution with a Barrett fold: the two ints are
    multiplied once, and the product c has 2k - 1 slots.  With
    mu = floor(X^(2k-2) / I) over F_p, which `__init__` precomputes, the
    quotient is Q = floor(floor(c / X^k) * mu / X^(k-2)), exact for
    deg c <= 2k - 2, and the remainder is the low k slots of
    c + Q * (X^k mod I).  The slots are not reduced in between, only
    congruent mod p to the true coefficients: a slot of the sum holds at
    most k(p-1)^2 + k(k-1)^2(p-1)^4, so no slot carries into the next
    where w is above that.  Where no width holds that (p > 9949 at
    k = 13), the high half and Q are reduced mod p before their products,
    which bounds a slot by (2k-1)(p-1)^2.

    `_slot_mod` then reduces every slot mod p at once, with no unpacking.
    A fold at bit t maps each slot x to (x >> t)(2^t mod p) + (x mod 2^t),
    by two masks, a shift and one product of the whole int; a slot bound
    B becomes floor(B / 2^t)(2^t mod p) + 2^t - 1, and t is chosen to
    make that least (near 2^t = sqrt(B p), so folds take B towards 4p);
    folds repeat until the last step fits (one, at t = 10, at
    (p, k) = (11, 13)).  The last step is x - p floor(x r / 2^s) with r = ceil(2^s / p) and s
    the least with B (r p - 2^s) < 2^s, which makes the quotient exact
    for x <= B (Granlund-Montgomery); it stays in the slot while B r < 2^w,
    and the quotients are read out of x r by a shift and a mask.  w is the
    least of 8, 16, 32 and 64 bits above the slot bound for which the
    folds and the last step fit, first without the reduction of the high
    half and Q, then with it (at k = 1, p = 131 takes 32 bits where 16
    hold the product).  Operands are packed and results unpacked
    by one precomputed little-endian `struct.Struct` of k slots, so the
    layout is the same on every host; it depends on (p, k) alone and is
    built once for each (`_kron_layout`), and only mu and the fold are
    worked out per modulus.

    `frobenius` is the F_q-linear map a -> a^q = sum a_i X^(iq) mod I.
    Over F_p its rows X^(iq) mod I are packed once, on first use, in slots
    of the smallest of 8, 16, 32 and 64 bits above k(p-1)^2, which bounds
    a slot of the sum; over F_{p^m} it runs on the base field's tables.
    """

    __slots__ = ("base", "I", "k", "order_total", "_frob", "_kron")

    def __init__(self, base: FieldDesc, I: Poly):
        if not I.is_monic():
            raise Reducible("extension modulus must be monic")
        self.base = base
        self.I = I
        self.k = I.degree()
        self.order_total = base.q ** self.k
        self._frob = None
        self._kron = None
        if base.m == 1:
            p, k = base.p, self.k
            slots, shift, q_shift, mask, plan, mid_mod = _kron_layout(p, k)
            mu = Poly(base, (0,) * (2 * k - 2) + (1,)) // I
            fold = [-c % p for c in I.coeffs[:k]]  # X^k mod I
            self._kron = (slots, shift, q_shift, mask,
                          _pack(slots, mu.coeffs + (0,) * (k - len(mu.coeffs))),
                          _pack(slots, fold), plan, mid_mod)

    # -- element helpers ----------------------------------------------

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def embed(self, base_code: int):
        return (base_code,) + (0,) * (self.k - 1)

    def gen(self):
        """theta = X mod I (assumes k >= 2)."""
        return (0, 1) + (0,) * (self.k - 2)

    def from_poly(self, f: Poly):
        """f mod I; with theta = X mod I this is also f(theta)."""
        cs = f.coeffs
        if len(cs) > self.k:
            cs = (f % self.I).coeffs
        return tuple(cs) + (0,) * (self.k - len(cs))

    def to_poly(self, a) -> Poly:
        return Poly(self.base, a)

    def add(self, a, b):
        K = self.base
        if K.m == 1:
            p = K.p
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple(K.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        K = self.base
        if K.m == 1:
            p = K.p
            return tuple([(x - y) % p for x, y in zip(a, b)])
        return tuple(K.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        K = self.base
        if K.m == 1:
            p = K.p
            return tuple([-x % p for x in a])
        return tuple(K.neg(x) for x in a)

    def pack(self, a):
        """a in the packed form of `pmul` (see the class notes)."""
        if self._kron is None:
            return tuple(a)
        return int.from_bytes(self._kron[0].pack(*a), "little")

    def unpack(self, x):
        """The element of the packed form x, as a tuple."""
        if self._kron is None:
            return x
        slots = self._kron[0]
        return slots.unpack(x.to_bytes(slots.size, "little"))

    def pmul(self, x, y):
        """x y on the packed form: the product kernel of the class notes."""
        if self._kron is None:
            cs = _mul(self.base, x, y, self.I.coeffs)
            return tuple(cs) + (0,) * (self.k - len(cs))
        _, shift, q_shift, mask, mu, fold, plan, mid_mod = self._kron
        c = x * y
        hi = c >> shift
        if mid_mod:
            hi = _slot_mod(hi, plan)
        quot = hi * mu >> q_shift
        if mid_mod:
            quot = _slot_mod(quot, plan)
        return _slot_mod((c + quot * fold) & mask, plan)

    def ppow(self, x, e: int):
        """x^e on the packed form, for e >= 0."""
        r = None
        while e:
            if e & 1:
                r = x if r is None else self.pmul(r, x)
            e >>= 1
            if e:
                x = self.pmul(x, x)
        return self.pack(self.one) if r is None else r

    def mul(self, a, b):
        return self.unpack(self.pmul(self.pack(a), self.pack(b)))

    def inv(self, a):
        """a^-1 from the Bezout cofactor of a and I; `_ext_gcd` makes the
        gcd monic, so a unit a has g = 1 and s = a^-1, already reduced."""
        if not any(a):
            raise ZeroDivisionError("inverse of zero extension element")
        g, s = _ext_gcd(self.base, _strip(list(a)), self.I.coeffs)
        if len(g) != 1:
            raise ZeroDivisionError("non-invertible element (reducible modulus?)")
        return tuple(s) + (0,) * (self.k - len(s))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e: int):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        return self.unpack(self.ppow(self.pack(a), e))

    def eq(self, a, b) -> bool:
        return tuple(a) == tuple(b)

    def rand(self, rng: random.Random):
        return tuple(rng.randrange(self.base.q) for _ in range(self.k))

    def is_base(self, a) -> bool:
        return not any(a[1:])

    def frobenius(self, a, times: int = 1):
        """a^(q^times), by the packed linear map of the class notes."""
        times %= self.k
        if times == 0:
            return tuple(a)
        if self._frob is None:
            self._frob = self._frobenius_rows()
        if self.base.m == 1:
            p, slots, rows = self._frob
            for _ in range(times):
                acc = sum(map(operator.mul, a, rows))
                a = tuple([x % p for x in slots.unpack(acc.to_bytes(slots.size, "little"))])
            return a
        K, rows = self.base, self._frob
        for _ in range(times):
            acc = self.zero
            for c, row in zip(a, rows):
                if c:
                    acc = self.add(acc, tuple([K.mul(c, y) for y in row]))
            a = acc
        return a

    def _frobenius_rows(self):
        """The rows X^(iq) mod I of `frobenius`: over F_p as (p, slots,
        packed rows), else as elements."""
        x_q = self.pow_(self.from_poly(_poly(self.base, (0, 1))), self.base.q)
        rows = [self.one]
        for _ in range(1, self.k):
            rows.append(self.mul(rows[-1], x_q))
        if self.base.m > 1:
            return rows
        p, k = self.base.p, self.k
        code = next(c for c in "BHIQ" if k * (p - 1) ** 2 < 1 << 8 * calcsize("<" + c))
        slots = Struct("<%d%s" % (k, code))
        return p, slots, [_pack(slots, row) for row in rows]

    def sqrt(self, a):
        """A square root of a, or raise NonResidue."""
        return _sqrt(self, a, self.order_total)

    def enc(self, a) -> str:
        return ";".join(self.base.enc(c) for c in a)

    def dec(self, text: str):
        parts = text.split(";")
        if len(parts) != self.k:
            raise ValueError("bad extension element encoding")
        return tuple(self.base.dec(t) for t in parts)

    def __eq__(self, other):
        return (isinstance(other, ExtFieldDesc) and self.base == other.base
                and self.I == other.I)

    def __hash__(self):
        return hash((self.base, self.I))

    def __repr__(self):
        return f"GF({self.base.q}^{self.k})"


def ext_make(base: FieldDesc, I: Poly) -> ExtFieldDesc:
    """Wrap F_q[X]/(I); irreducibility is rechecked and Reducible raised if bad."""
    if not poly_is_irreducible(I):
        raise Reducible("extension modulus is reducible")
    return ExtFieldDesc(base, I)


def _sqrt(dom, a, order: int):
    """A square root of a in the field `dom` of odd order Q = `order`, or
    raise NonResidue.

    The rule is chosen by Q mod 8; both take one exponentiation, except
    that Tonelli-Shanks may search a non-residue at Q = 1 mod 8:
    - Q = 5 mod 8: Atkin's formula.  There 2 is a non-square, so for a
      square a, i = (2a)^((Q-1)/4) has i^2 = -1; with b = (2a)^((Q-5)/8),
      i = 2a b^2 and r = a b (i - 1) has r^2 = a^2 b^2 (-2i) = a.
    - otherwise Tonelli-Shanks.  At Q = 3 mod 4 it has m = 1 and returns
      r = a^((Q+1)/4) with no search.
    Each rule gives a root whenever a is a square, and a non-square has
    none, so the check r^2 = a decides squareness: it is the Legendre
    test, for the price of one product.
    """
    if dom.eq(a, dom.zero):
        return a
    if order % 8 == 5:
        a2 = dom.add(a, a)
        b = dom.pow_(a2, (order - 5) // 8)
        i = dom.mul(a2, dom.mul(b, b))
        r = dom.mul(dom.mul(a, b), dom.sub(i, dom.one))
    else:
        r = _tonelli_shanks(dom, a, order)
    if not dom.eq(dom.mul(r, r), a):
        raise NonResidue("element is not a square")
    return r


def _tonelli_shanks(dom, a, order: int):
    """For odd Q = `order`: a square root of a if a is a square, else an
    element whose square is not a.

    Q - 1 = 2^m s with s odd.  w = a^((s-1)/2) gives r = a^((s+1)/2) = w a
    and t = a^s = w r, one exponentiation for both.  The non-residue z is
    searched only once t is known to need it: for a non-square, the first
    squarings of t show a^((Q-1)/2) = -1 and end the loop without it.  At
    m = 1 (Q = 3 mod 4) t is 1 or -1, so z is never needed.

    Over a ring that is not a field, where neither step need end, it
    raises Reducible: t^(2^m) = a^(Q-1) is 1 for every nonzero a of a
    field, and a field's z with z^((Q-1)/2) = -1 turns up in 64 seeded
    draws (each misses with chance about 1/2).
    """
    eq = dom.eq
    one = dom.one
    n1 = order - 1
    s, m = n1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    w = dom.pow_(a, (s - 1) // 2)
    r = dom.mul(w, a)
    t = dom.mul(w, r)
    c = None
    while not eq(t, one):
        i, tt = 0, t
        while not eq(tt, one):
            if i == m:
                raise Reducible("t^(2^m) != 1: the ring is not a field")
            tt = dom.mul(tt, tt)
            i += 1
        if i == m:
            # t has order 2^m: a^((Q-1)/2) = -1, a non-square
            break
        if c is None:
            rng = random.Random(0xE11)
            for _ in range(64):
                z = dom.rand(rng)
                if eq(dom.pow_(z, n1 // 2), dom.neg(one)):
                    break
            else:
                raise Reducible("no z with z^((Q-1)/2) = -1: the ring is not a field")
            c = dom.pow_(z, s)
        b = c
        for _ in range(m - i - 1):
            b = dom.mul(b, b)
        m = i
        c = dom.mul(b, b)
        t = dom.mul(t, c)
        r = dom.mul(r, b)
    return r
