"""The line memo of `harvest.pair_divisors` against memo-free pull-backs."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellog.basis import basis_to_json
from ellog.curve import TriPoly, phi_star
from ellog.divisor import divisor_of
from ellog.harvest import (DegeneratePair, GroupDegenerate, height5_pair,
                           k1k2_group_basis, line_divisor, pair_divisors,
                           reconstruct_pair)

from oracles import pair_divisors_fresh


def _fresh_basis(basis):
    """The same basis with an empty memo of its own."""
    return replace(basis, line_divisors={})


def _m1_params(q):
    """The (u, v, w, a, b, c) of every pencil `harvest_m1` visits."""
    b_reps = ([(1, b, c) for b in range(q) for c in range(q)]
              + [(0, 1, c) for c in range(q)] + [(0, 0, 1)])
    return [(u, v, w, a, b, c) for u, v, w in b_reps
            for a in range(q) for b in range(q) for c in range(q)
            if not ((u == 1 and a) or (u == 0 and v == 1 and b)
                    or (u == 0 and v == 0 and c))]


def _mode_params(basis, mode):
    q = basis.q
    if mode == "core":
        return [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    if mode == "m1":
        return _m1_params(q)
    if mode == "special_group":
        return [(a, b) for a in range(q) for b in range(q)]
    if mode == "k1k2":
        out = []
        for k1 in range(q):
            try:
                k2 = k1k2_group_basis(basis, k1).params[1]
            except GroupDegenerate:
                continue
            out.extend((k1, k2, a, b) for a in range(q) for b in range(q))
        return out
    assert mode == "height5"
    return [(a, b, c, d) for a in range(q) for b in range(q)
            for c in range(q) for d in range(q)]


def _family_member(basis, family, params, aprime):
    """Left factor A - aprime B of a sieve pair (aprime = q gives B)."""
    if family == "core":
        A, B = reconstruct_pair(basis, "core", params[:3])
    elif family == "m1":
        pool = _m1_params(basis.q)
        A, B = reconstruct_pair(basis, "m1", pool[params[0] % len(pool)])
    else:
        A, B = height5_pair(basis, *params)
    return B if aprime == basis.q else A - B.scale(aprime)


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_divisor_ignores_scalar(request, name):
    # the invariant the memo rests on: c F and F have one divisor
    basis = request.getfixturevalue(name)
    td, curve = basis.td, basis.curve
    q = basis.q

    @settings(derandomize=True, max_examples=30 if q > 5 else 60,
              deadline=None)
    @given(family=st.sampled_from(["core", "m1", "height5"]),
           params=st.tuples(*[st.integers(0, 10 ** 6)] * 4),
           aprime=st.integers(0, q))
    def check(family, params, aprime):
        params = tuple(x % q for x in params[:4]) if family != "m1" else params
        F = _family_member(basis, family, params, aprime)
        assume(not F.is_zero())
        f = phi_star(F, td)
        assume(not f.is_zero())
        D = divisor_of(f, curve)
        for c in range(1, q):
            assert divisor_of(phi_star(F.scale(c), td), curve) == D

    check()


@pytest.mark.parametrize("mode", ["core", "m1", "special_group", "k1k2",
                                  "height5"])
def test_warm_memo_matches_fresh_pull_backs(basis59, mode):
    basis = _fresh_basis(basis59)
    rng = random.Random(mode)
    params = _mode_params(basis, mode)
    if len(params) > 200:
        params = rng.sample(params, 200)

    def outcome(fn, ps):
        try:
            pr = fn(basis, *reconstruct_pair(basis, mode, ps))
        except DegeneratePair as exc:
            return str(exc)
        return pr.left_divisors, pr.right_divisor

    # warm the memo in one shuffled order, check in another
    for ps in rng.sample(params, len(params)):
        outcome(pair_divisors, ps)
    assert basis.line_divisors
    for ps in rng.sample(params, len(params)):
        assert outcome(pair_divisors, ps) == outcome(pair_divisors_fresh, ps)


def test_returned_divisors_do_not_alias_the_memo(basis59):
    basis = _fresh_basis(basis59)
    A, B = reconstruct_pair(basis, "core", (1, 2, 3))
    first = pair_divisors(basis, A, B)
    place = next(iter(first.left_divisors[0].coeffs))
    first.left_divisors[0].add_place(place, 7)
    first.left_divisors[-1].coeffs.clear()
    again = pair_divisors(basis, A, B)
    want = pair_divisors_fresh(basis, A, B)
    assert again.left_divisors == want.left_divisors
    assert again.right_divisor == want.right_divisor


def test_line_divisor_degenerate_messages(basis59):
    K = basis59.curve.field
    with pytest.raises(DegeneratePair, match="^left factor pulls back to zero$"):
        line_divisor(basis59, TriPoly(K), "left factor")
    with pytest.raises(DegeneratePair, match="^B pulls back to zero$"):
        line_divisor(basis59, TriPoly(K), "B")


def test_memo_bounded_by_core_lines(basis11):
    # the core pairs span one plane of lines: at most q^2 + q + 1 classes
    basis = _fresh_basis(basis11)
    q = basis.q
    for ps in _mode_params(basis, "core"):
        try:
            pair_divisors(basis, *reconstruct_pair(basis, "core", ps))
        except DegeneratePair:
            pass
    assert 0 < len(basis.line_divisors) <= q * q + q + 1


def test_memo_stays_out_of_basis_file_and_equality(basis59):
    basis = _fresh_basis(basis59)
    before = basis_to_json(basis)
    pair_divisors(basis, *reconstruct_pair(basis, "core", (1, 2, 3)))
    assert basis.line_divisors
    assert basis_to_json(basis) == before
    assert basis == basis59
