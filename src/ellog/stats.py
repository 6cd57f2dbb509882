"""Batch splitting-rate measurements for random monic polynomials.

The acceptance numbers need 10^5 samples per configuration, which rules out
per-polynomial factorization in Python.  Instead every test reduces to an
exact divisibility criterion with a fixed control flow:

    f has all irreducible factors of degree in S
        <=>  f | (prod_{d in D} (x^(q^d) - x))^4,

where D is chosen so every degree in S divides some d in D and nothing
outside S does, and the fourth power covers the worst multiplicity a factor
can carry in a degree-<=8 sample.  All polynomial arithmetic runs across a
numpy batch, with field arithmetic via precomputed add/mul tables.
"""

from __future__ import annotations

import numpy as np

from .algebra import ConfigError, FieldDesc, factor_modulus, field_make

_TABLE_CAP = 2048

# reference rates quoted by the statistics report (large-q limits)
REFERENCE_RATES = {
    (8, 3): 0.147,
    (6, 3): 0.383,
    (7, 3): 0.2405,
    (4, 3): 0.75,
    ("h5", 8): 0.2,
}

_DIV_SETS = {3: (2, 3), 4: (3, 4), 5: (3, 4, 5)}


class TableField:
    """Field arithmetic as numpy gather tables over integer codes."""

    def __init__(self, field: FieldDesc):
        if field.q > _TABLE_CAP:
            raise ConfigError("table field capped at q <= 2048")
        q = field.q
        self.field = field
        self.q = q
        add = np.zeros((q, q), dtype=np.int32)
        mul = np.zeros((q, q), dtype=np.int32)
        for a in range(q):
            for b in range(a, q):
                s = field.add(a, b)
                p = field.mul(a, b)
                add[a, b] = s
                add[b, a] = s
                mul[a, b] = p
                mul[b, a] = p
        self.add = add
        self.mul = mul
        self.neg = np.array([field.neg(a) for a in range(q)], dtype=np.int32)


def _mulmod(tf: TableField, A: np.ndarray, B: np.ndarray, F: np.ndarray) -> np.ndarray:
    """(A * B) mod F for per-sample monic F of degree d; A, B of degree < d."""
    n, d = A.shape
    add, mul = tf.add, tf.mul
    C = np.zeros((n, 2 * d - 1), dtype=np.int32)
    for i in range(d):
        Ai = A[:, i]
        for j in range(d):
            C[:, i + j] = add[C[:, i + j], mul[Ai, B[:, j]]]
    neg = tf.neg
    for i in range(2 * d - 2, d - 1, -1):
        c = C[:, i]
        nc = neg[c]
        for j in range(d):
            C[:, i - d + j] = add[C[:, i - d + j], mul[nc, F[:, j]]]
        C[:, i] = 0
    return C[:, :d]


def _powq(tf: TableField, A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """A^q mod F, square-and-multiply on the field size."""
    n, d = A.shape
    result = np.zeros((n, d), dtype=np.int32)
    result[:, 0] = 1
    base = A
    e = tf.q
    while e:
        if e & 1:
            result = _mulmod(tf, result, base, F)
        e >>= 1
        if e:
            base = _mulmod(tf, base, base, F)
    return result


def _smooth_mask(tf: TableField, F: np.ndarray, bound: int) -> np.ndarray:
    """Boolean mask: all irreducible factors of F have degree <= bound."""
    n, dp1 = F.shape
    d = dp1 - 1
    X = np.zeros((n, d), dtype=np.int32)
    X[:, 1] = 1
    powers = {}
    cur = X
    need = _DIV_SETS[bound]
    for e in range(1, max(need) + 1):
        cur = _powq(tf, cur, F)
        if e in need:
            powers[e] = cur
    T = None
    for e in need:
        term = powers[e].copy()
        term[:, 1] = tf.add[term[:, 1], tf.neg[1]]
        T = term if T is None else _mulmod(tf, T, term, F)
    T = _mulmod(tf, T, T, F)
    T = _mulmod(tf, T, T, F)
    return ~(T.any(axis=1))


def _random_monic(field: FieldDesc, degree: int, samples: int,
                  seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    F = rng.integers(0, field.q, size=(samples, degree + 1), dtype=np.int64)
    F[:, degree] = 1
    return F.astype(np.int32)


def smooth_fraction(q: int, degree: int, bound: int = 3, samples: int = 100_000,
                    seed: int = 0, field: FieldDesc | None = None) -> float:
    """Fraction of random monic degree-d polynomials splitting at the bound."""
    if bound not in _DIV_SETS:
        raise ConfigError("supported bounds: 3, 4, 5")
    if degree > 8:
        raise ConfigError("sample degree capped at 8 (multiplicity analysis)")
    field = field or _field_for(q, seed)
    tf = TableField(field)
    F = _random_monic(field, degree, samples, seed + 101)
    mask = _smooth_mask(tf, F, bound)
    return float(mask.sum()) / samples


def h5_yield_fraction(q: int, samples: int = 100_000, seed: int = 0,
                      field: FieldDesc | None = None) -> float:
    """Fraction of degree-8 samples carrying an irreducible degree-5 factor."""
    field = field or _field_for(q, seed)
    tf = TableField(field)
    F = _random_monic(field, 8, samples, seed + 202)
    mask5 = _smooth_mask(tf, F, 5)
    mask4 = _smooth_mask(tf, F, 4)
    return float((mask5 & ~mask4).sum()) / samples


def _field_for(q: int, seed: int) -> FieldDesc:
    fac = factor_modulus(q) if q >= 2 else []
    if len(fac) != 1:
        raise ConfigError(f"q = {q} is not a prime power")
    (p, m), = fac
    return field_make(p, m, seed)


def rate_report(q: int, samples: int = 100_000, seed: int = 0) -> list[dict]:
    """The standard five measurements with their reference constants."""
    field = _field_for(q, seed)
    out = []
    for (deg, bound), ref in REFERENCE_RATES.items():
        if deg == "h5":
            rate = h5_yield_fraction(q, samples, seed, field)
            label = "degree-8 with a degree-5 factor"
        else:
            rate = smooth_fraction(q, deg, bound, samples, seed, field)
            label = f"degree-{deg} splitting at bound {bound}"
        out.append({"label": label, "degree": deg, "bound": bound,
                    "measured": rate, "reference": ref})
    return out
