import numpy as np
import pytest

from ellog.algebra import Poly, field_make, poly_factor
from ellog.stats import (TableField, _random_monic, _smooth_mask,
                         rate_report, smooth_fraction)

from oracles import smooth_fraction_slow


@pytest.fixture(scope="module")
def f121():
    return field_make(11, 2, 0)


@pytest.mark.parametrize("degree,bound", [(8, 3), (6, 3), (4, 3), (7, 4), (8, 5)])
def test_fast_mask_matches_factorization(f121, degree, bound):
    tf = TableField(f121)
    F = _random_monic(f121, degree, 250, 7 * degree + bound)
    mask = _smooth_mask(tf, F, bound)
    for i in range(F.shape[0]):
        f = Poly(f121, [int(c) for c in F[i]])
        slow = all(g.degree() <= bound for g, _ in poly_factor(f))
        assert slow == bool(mask[i])


def test_fast_mask_handles_multiplicities(f121):
    tf = TableField(f121)
    # (x+1)^4 (x^2+c)^2-style products with known smoothness
    lin = Poly(f121, (1, 1))
    f = lin * lin * lin * lin * lin * lin * lin * lin
    arr = np.array([list(f.coeffs)], dtype=np.int32)
    assert bool(_smooth_mask(tf, arr, 3)[0])


def test_smooth_fraction_prime_field():
    # also covers m = 1 fields
    rate = smooth_fraction(11, 4, 3, samples=4000, seed=1)
    assert 0.6 < rate < 0.9


def test_fast_and_slow_rates_agree(f121):
    fast = smooth_fraction(121, 4, 3, samples=3000, seed=5, field=f121)
    slow = smooth_fraction_slow(f121, 4, 3, samples=3000, seed=5)
    assert abs(fast - slow) < 0.05


def test_rate_report_shape():
    rows = rate_report(121, samples=2000, seed=2)
    assert len(rows) == 5
    for row in rows:
        assert 0.0 <= row["measured"] <= 1.0
