import random

import pytest

from ellog import solve
from ellog.algebra import Poly, poly_irreducibles
from ellog.divisor import PLACE_AT_INFINITY, places_over
from ellog.harvest import build_factor_base, harvest_core, harvest_m1
from ellog.psi import PsiValue, psi_elementary
from ellog.solve import (LogContext, NotInSubgroup, bilinear_descend,
                         bsgs_oracle, classical_split, column_class, dlog,
                         factor_modulus, find_generator, log_r_of_generator,
                         poly_to_divisor, solve_core, verify_log_table)

from oracles import extend_per_pass, pollard_rho_dlog


@pytest.fixture(scope="module")
def solved(basis59, fb59):
    rels, _ = harvest_core(basis59, fb59)
    extra = harvest_m1(basis59, fb59)
    table = solve_core(basis59, fb59, rels + extra)
    return rels + extra, table


def test_factor_modulus_acceptance_instance(basis59):
    M = basis59.M
    assert M == (5 ** 9 - 1) // 4 == 488281
    fac = factor_modulus(M)
    # recompute by plain trial division as the independent oracle
    n, oracle, d = M, [], 2
    while d * d <= n:
        while n % d == 0:
            oracle.append(d)
            n //= d
        d += 1
    if n > 1:
        oracle.append(n)
    assert sorted(oracle) == [p for p, e in fac for _ in range(e)]
    prod = 1
    for p, e in fac:
        prod *= p ** e
        from ellog.algebra import is_probable_prime
        assert is_probable_prime(p)
    assert prod == M


def test_factor_modulus_prime_and_tiny():
    assert factor_modulus(829) == [(829, 1)]
    with pytest.raises(ValueError):
        factor_modulus(1)


def test_solve_core_and_verification(basis59, fb59, solved):
    rels, table = solved
    assert set(table.mod_m) == set(range(fb59.columns()))
    assert verify_log_table(basis59, fb59, table, sample=7)
    assert table.mod_m[table.ref_col] == 1


def test_solved_logs_satisfy_holdout_rows(basis59, fb59, solved):
    rels, table = solved
    rng = random.Random(5)
    holdout = rng.sample(rels, min(50, len(rels)))
    refit = solve_core(basis59, fb59, [r for r in rels if r not in holdout])
    for rel in holdout:
        acc = sum(v * refit.mod_m[c] for c, v in rel.cols.items()) % basis59.M
        assert acc == 0


def test_solved_logs_match_bsgs(basis59, fb59, solved):
    _, table = solved
    rcls = column_class(fb59, table.ref_col, basis59)
    rng = random.Random(6)
    for col in rng.sample(range(fb59.columns()), 5):
        want = bsgs_oracle(column_class(fb59, col, basis59), rcls, basis59.M)
        assert table.mod_m[col] == want


def test_bsgs_oracle_basics(basis59):
    ext = basis59.ext
    g = find_generator(ext, 0)
    gbar = PsiValue(ext, g)
    one = PsiValue(ext, ext.one)
    assert bsgs_oracle(one, gbar, basis59.M) == 0
    rng = random.Random(7)
    for _ in range(5):
        e = rng.randrange(basis59.M)
        assert bsgs_oracle(gbar.pow(e), gbar, basis59.M) == e
    # the field pair flavor
    eta = ext.pow_(g, basis59.M)
    assert bsgs_oracle((ext, ext.pow_(eta, 3)), (ext, eta), 4) == 3


def test_bsgs_not_in_subgroup(basis59):
    ext = basis59.ext
    g = find_generator(ext, 0)
    eta = ext.pow_(g, basis59.M)  # order q - 1 = 4
    with pytest.raises(NotInSubgroup):
        bsgs_oracle((ext, g), (ext, eta), 4)


def test_pollard_rho_agrees_with_bsgs(basis59):
    ext = basis59.ext
    g = PsiValue(ext, find_generator(ext, 0))
    M = basis59.M
    rng = random.Random(8)
    for trial in range(20):
        ell = (19, 31, 829)[trial % 3]
        sub = g.pow(M // ell)
        e = rng.randrange(ell)
        h = sub.pow(e)
        got = pollard_rho_dlog(h, sub, ell, seed=trial)
        assert got == bsgs_oracle(h, sub, ell) == e


def test_poly_to_divisor_shapes(basis59):
    curve = basis59.curve
    K = curve.field
    td = basis59.td
    # linear with torsion abscissa reproduces the vertical lemma divisor
    f = Poly(K, (K.neg(td.xs[4]), 1))
    D = poly_to_divisor(f, curve)
    assert D.degree == 0 and D.height == 2
    assert D.coeffs[PLACE_AT_INFINITY] == -2
    # an irreducible with non-square cubic residue gives one inert place
    for u in poly_irreducibles(K, 2):
        pls = places_over(curve, u)
        if len(pls) == 1 and pls[0].kind == "inert":
            D = poly_to_divisor(u, curve)
            assert D.degree == 0
            assert [(p.kind, n) for p, n in D.finite_places()] == [("inert", 1)]
            break
    else:
        pytest.fail("no inert quadratic found")


def test_classical_split_base_field_is_empty(basis59, fb59, solved):
    _, table = solved
    ctx = LogContext(fb59, dict(table.mod_m))
    g = find_generator(basis59.ext, 0)
    res = classical_split(basis59.ext.embed(3), basis59, ctx, g, 1)
    assert res.log_r == 0 and not res.num_factors


def test_classical_split_theta_shift(basis59, fb59, solved):
    # theta - x_j is already a factor-base image
    _, table = solved
    ctx = LogContext(fb59, dict(table.mod_m))
    ext = basis59.ext
    g = find_generator(ext, 0)
    lg = log_r_of_generator(basis59, ctx, g)
    z = ext.sub(basis59.theta, ext.embed(basis59.td.xs[3]))
    split = classical_split(z, basis59, ctx, g, lg, seed=1)
    rcls = column_class(fb59, table.ref_col, basis59)
    want = bsgs_oracle(PsiValue(ext, z), rcls, basis59.M)
    assert split.log_r == want


def test_classical_split_reconstruction(basis59, fb59, solved):
    _, table = solved
    ctx = LogContext(fb59, dict(table.mod_m))
    ext = basis59.ext
    g = find_generator(ext, 0)
    lg = log_r_of_generator(basis59, ctx, g)
    rng = random.Random(11)
    for _ in range(20):
        z = ext.rand(rng)
        if not any(z):
            continue
        split = classical_split(z, basis59, ctx, g, lg, seed=3)
        w = ext.mul(z, ext.pow_(g, split.shift))
        prod = ext.one
        for f, mult in split.num_factors:
            prod = ext.mul(prod, ext.pow_(ext.from_poly(f), mult))
        for f, mult in split.den_factors:
            prod = ext.div(prod, ext.pow_(ext.from_poly(f), mult))
        ratio = ext.div(w, prod)
        assert ext.is_base(ratio)


def test_bilinear_descend_known_target_returns(basis59, fb59, solved):
    _, table = solved
    ctx = LogContext(fb59, dict(table.mod_m))
    rep = fb59.reps[0]
    assert bilinear_descend(basis59, ctx, rep) == table.mod_m[fb59.rep_col[rep]]


def test_bilinear_descend_rejects_the_place_at_infinity(basis59, fb59):
    with pytest.raises(ValueError, match="finite place"):
        bilinear_descend(basis59, LogContext(fb59, {}), PLACE_AT_INFINITY)


def test_bilinear_descend_degree_six(basis59, fb59, solved):
    from ellog.solve import factor_modulus
    _, table = solved
    logs = dict(table.mod_m)
    fbx = build_factor_base(basis59, 3)
    fbx.extend_to(5)
    pp = factor_modulus(basis59.M)
    extend_per_pass(basis59, fbx, logs, pp, max_passes=1)
    ctx = LogContext(fbx, logs)
    K = basis59.curve.field
    target = next(p for u in poly_irreducibles(K, 3)
                  for p in places_over(basis59.curve, u) if p.degree == 6)
    val = bilinear_descend(basis59, ctx, target, compelled=3, seed=1)
    rcls = column_class(fbx, table.ref_col, basis59)
    assert val == bsgs_oracle(psi_elementary(target, basis59), rcls, basis59.M)
    assert ctx.log_of_place(target) == val


def test_dlog_identity_and_planted(basis59, fb59, solved):
    _, table = solved
    logs = dict(table.mod_m)
    ext = basis59.ext
    g = find_generator(ext, 0)
    res = dlog(g, g, basis59, fb59, logs)
    assert res.verified and res.x_mod_m == 1 % basis59.M and res.x_full == 1
    res = dlog(ext.pow_(g, 12345), g, basis59, fb59, logs)
    assert res.verified and res.x_full == 12345


# five planted targets x from random.Random(1) at (5, 9, seed 0), each
# answered by dlog(..., seed=i) on a fresh LogContext: x, log mod M, and
# the places handed to bilinear_descend (top level and recursion), in order
DLOG_PATHS = [
    (281782, 281782, []),
    (1193707, 217145, ["inert:1,1,3,1:", "inert:4,1,0,1:",
                       "split:4,4,1,0,1,1:2,1,3,0,4",
                       "split:3,1,0,1,2,1:2,4,0,4,1",
                       "split:1,3,3,3,2,1:1,1,1,1"]),
    (1777197, 312354, []),
    (1682471, 217628, ["inert:3,1,1,1:", "split:3,4,2,0,1,1:4,4,2,3,4"]),
    (1601751, 136908, ["inert:4,2,3,2,1:", "split:2,3,4,1,2,1:3,0,0,1,3",
                       "split:3,0,0,0,2,1:3,3,2,2,1"]),
]


def test_dlog_path_is_pinned(pipeline, monkeypatch):
    basis, fb, g = pipeline["basis"], pipeline["fb"], pipeline["g"]
    ext, K = basis.ext, basis.curve.field
    targets = []
    descend = solve.bilinear_descend

    def recording(basis_, ctx, target, *args, **kwargs):
        targets.append(target.encode(K))
        return descend(basis_, ctx, target, *args, **kwargs)

    monkeypatch.setattr(solve, "bilinear_descend", recording)
    rng = random.Random(1)
    for i, (x, x_mod_m, path) in enumerate(DLOG_PATHS):
        assert rng.randrange(ext.order_total - 1) == x
        ctx = LogContext(fb, dict(pipeline["logs"]))
        del targets[:]
        res = dlog(ext.pow_(g, x), g, basis, fb, ctx.cols, seed=i, ctx=ctx)
        assert res.verified and res.x_full == x and res.x_mod_m == x_mod_m
        assert targets == path
