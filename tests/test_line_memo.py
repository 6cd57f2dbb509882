"""The pull-back memo of `harvest.pair_divisors` and the monomial table of
`curve.phi_star`, against memo-free and table-free pull-backs, and the
bracket of the plane with U and V swapped, which the memo derives by
`divisor.negation`."""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellog.algebra import Poly, field_make
from ellog.basis import basis_to_json
import ellog.curve
import ellog.divisor
import ellog.harvest
from ellog.curve import (Curve, CurveFunction, Point, TorsionData, TriPoly,
                         bracket, phi_star, plucker_bracket, plucker_pullback)
from ellog.divisor import SPLIT, divisor_of, negation
from ellog.harvest import (DegeneratePair, _class_key, _pencil_keys, _pencil_slots,
                           _swapped_plane, pullback_divisor, pair_divisors,
                           reconstruct_pair)
from ellog.solve import _MONOS, _mono_list

from oracles import (family_params, m1_params, pair_divisors_fresh,
                     phi_star_fresh)


def _fresh_basis(basis):
    """The same basis with empty memos of its own."""
    return replace(basis, pullback_divisors={}, pencil_divisors={})


def _family_member(basis, family, params, aprime):
    """Left factor A - aprime B of a sieve pair (aprime = q gives B)."""
    if family == "core":
        A, B = reconstruct_pair(basis, "core", params[:3])
    elif family == "m1":
        pool = m1_params(basis.q)
        A, B = reconstruct_pair(basis, "m1", pool[params[0] % len(pool)])
    else:
        A, B = reconstruct_pair(basis, "height5", params)
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
    params = family_params(basis, mode)
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
    assert basis.pullback_divisors
    for ps in rng.sample(params, len(params)):
        assert outcome(pair_divisors, ps) == outcome(pair_divisors_fresh, ps)


def test_returned_divisors_do_not_alias_the_memo(basis59):
    basis = _fresh_basis(basis59)
    A, B = reconstruct_pair(basis, "core", (1, 2, 3))
    first = pair_divisors(basis, A, B)
    place = next(iter(first.left_divisors[0].coeffs))
    first.left_divisors[0].add_place(place, 7)
    first.left_divisors[-1].coeffs.clear()
    first.right_divisor.add_place(place, 5)
    again = pair_divisors(basis, A, B)
    want = pair_divisors_fresh(basis, A, B)
    assert again.left_divisors == want.left_divisors
    assert again.right_divisor == want.right_divisor


def test_line_divisor_degenerate_messages(basis59):
    with pytest.raises(DegeneratePair, match="^left factor pulls back to zero$"):
        pullback_divisor(basis59, (), "left factor")
    with pytest.raises(DegeneratePair, match="^B pulls back to zero$"):
        pullback_divisor(basis59, (), "B")


def _projective_class(F: TriPoly):
    # F scaled to make its least monomial's coefficient 1
    K = F.field
    return F.scale(K.inv(F.terms[min(F.terms)])).canonical()


def test_memo_bounded_by_core_lines(basis11):
    # the core pairs span one plane of lines: at most q^2 + q + 1 line
    # classes, and at most one bracket class per pencil of them
    basis = _fresh_basis(basis11)
    q = basis.q
    lines, brackets = set(), set()
    for ps in family_params(basis, "core"):
        A, B = reconstruct_pair(basis, "core", ps)
        try:
            pair_divisors(basis, A, B)
        except DegeneratePair:
            continue
        lines.update(_projective_class(A - B.scale(a)) for a in range(q))
        lines.add(_projective_class(B))
        brackets.add(_projective_class(bracket(A, B)))
    assert (len(lines), len(brackets)) == (133, 122)
    assert len(lines) <= q * q + q + 1
    assert len(basis.pullback_divisors) == len(lines) + len(brackets)


def test_memo_stays_out_of_basis_file_and_equality(basis59):
    basis = _fresh_basis(basis59)
    before = basis_to_json(basis)
    pair_divisors(basis, *reconstruct_pair(basis, "core", (1, 2, 3)))
    assert basis.pullback_divisors
    assert basis_to_json(basis) == before
    assert basis == basis59


def _random_invertible(q, entries):
    a, b, c, d = (x % q for x in entries)
    assume((a * d - b * c) % q)
    return a, b, c, d


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_bracket_memo_invariant_under_change_of_basis(request, name):
    # every pair spanning the plane of A and B has the same left total and
    # right divisor as (A, B)
    basis = _fresh_basis(request.getfixturevalue(name))
    q = basis.q

    def outcome(fn, A, B):
        try:
            pr = fn(basis, A, B)
        except DegeneratePair:
            return "degenerate"
        return pr.left_total(), pr.right_divisor

    @settings(derandomize=True, max_examples=40 if q > 5 else 80,
              deadline=None)
    @given(triple=st.tuples(*[st.integers(0, q - 1)] * 3),
           entries=st.tuples(*[st.integers(0, 10 ** 6)] * 4))
    def check(triple, entries):
        a, b, c, d = _random_invertible(q, entries)
        A, B = reconstruct_pair(basis, "core", triple)
        A2 = A.scale(a) + B.scale(b)
        B2 = A.scale(c) + B.scale(d)
        assert outcome(pair_divisors, A2, B2) == outcome(pair_divisors_fresh, A, B)

    check()


# ---------------------------------------------------------------------------
# the Plucker bracket and pairs outside span{1, U, V, UV}
# ---------------------------------------------------------------------------

_M2 = [(i, j, 0) for i, j in _mono_list(2)]


def _m2_pair(K, a, b, c):
    """A, B over M_2 from two coefficient lists; c != 0 makes B = c A."""
    A = TriPoly(K, dict(zip(_M2, a)))
    B = A.scale(c) if c else TriPoly(K, dict(zip(_M2, b)))
    return A, B


def _plucker(A, B):
    """((m, n), a_m b_n - a_n b_m) for the monomials m < n of A and B."""
    K = A.field
    monos = sorted(A.terms.keys() | B.terms.keys())
    a = [A.terms.get(m, 0) for m in monos]
    b = [B.terms.get(m, 0) for m in monos]
    return [((monos[i], monos[j]),
             K.sub(K.mul(a[i], b[j]), K.mul(a[j], b[i])))
            for i in range(len(monos)) for j in range(i + 1, len(monos))]


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_plucker_bracket_and_general_path(request, name):
    # pairs over M_2, dependent ones included, through one warming memo
    basis = _fresh_basis(request.getfixturevalue(name))
    K = basis.curve.field
    q = basis.q
    coefs = st.lists(st.integers(0, q - 1), min_size=len(_M2),
                     max_size=len(_M2))

    def outcome(fn, A, B):
        try:
            pr = fn(basis, A, B)
        except DegeneratePair as exc:
            return str(exc)
        return pr.left_divisors, pr.right_divisor

    @settings(derandomize=True, max_examples=25 if q > 5 else 50,
              deadline=None)
    @given(a=coefs, b=coefs, c=st.sampled_from([0] * 3 + list(range(q))))
    def check(a, b, c):
        A, B = _m2_pair(K, a, b, c)
        assert plucker_bracket(K, _plucker(A, B)) == bracket(A, B)
        assert outcome(pair_divisors, A, B) == outcome(pair_divisors_fresh, A, B)
        W = TriPoly.var(K, "W")
        for A2, B2 in ((A + W, B), (A, B + W)):
            with pytest.raises(ValueError):
                pair_divisors(basis, A2, B2)

    check()


def _count_calls(monkeypatch, calls, owner, name):
    """Record name in calls at every call of owner.name."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_warm_pair_is_lookups_only(request, monkeypatch, name):
    """Once the memo holds a pair's lines and plane, any other basis of the
    same plane is served from it: no pull-back, no factorization, no square
    root and no TriPoly product or difference."""
    basis = _fresh_basis(request.getfixturevalue(name))
    q = basis.q
    rng = random.Random(name)
    cases = []
    for params in rng.sample(family_params(basis, "core"), 40):
        A, B = reconstruct_pair(basis, "core", params)
        try:
            pr = pair_divisors(basis, A, B)
        except DegeneratePair:
            continue
        for _ in range(3):
            a, b, c, d = (rng.randrange(q) for _ in range(4))
            A2, B2 = A.scale(a) + B.scale(b), A.scale(c) + B.scale(d)
            if (a * d - b * c) % q and A2 != B2:
                cases.append((A2, B2, pr.left_total(), pr.right_divisor))
    assert len(cases) > 20
    calls = []
    for owner in (ellog.curve, ellog.harvest):
        for fn in ("phi_star", "bracket", "plucker_bracket"):
            _count_calls(monkeypatch, calls, owner, fn)
    for owner in (ellog.divisor, ellog.harvest):
        _count_calls(monkeypatch, calls, owner, "divisor_of")
    _count_calls(monkeypatch, calls, ellog.divisor, "places_over")
    _count_calls(monkeypatch, calls, TriPoly, "__mul__")
    _count_calls(monkeypatch, calls, TriPoly, "__sub__")
    entries = len(basis.pullback_divisors)
    for A2, B2, left, right in cases:
        pr = pair_divisors(basis, A2, B2)
        assert (pr.left_total(), pr.right_divisor) == (left, right)
    assert calls == []
    assert len(basis.pullback_divisors) == entries


# ---------------------------------------------------------------------------
# the plane with U and V swapped
# ---------------------------------------------------------------------------

def _swap(T: TriPoly) -> TriPoly:
    """T(V, U): U and V swapped."""
    return TriPoly(T.field, {(j, i, 0): c for (i, j, _), c in T.terms.items()})


def _plane_key(A, B):
    """The memo key of the plane of A and B, as `pair_divisors` forms it."""
    coords = _plucker(A, B)
    return _class_key([l for l, _ in coords], [c for _, c in coords], A.field)


def _swapped_key(A, B):
    """`_swapped_plane` of the plane of A and B, as `pair_divisors` asks it."""
    monos = tuple(sorted(A.terms.keys() | B.terms.keys()))
    return _swapped_plane(monos, [c for _, c in _plucker(A, B)], A.field)


def _swap_cases(basis, rng, n_m1, n_monos):
    """Seeded m1 pencils, then pairs over the descent's monomials `_MONOS`
    with both heads 1, as the descent draws them."""
    K = basis.curve.field
    q = basis.q
    cases = [reconstruct_pair(basis, "m1", ps)
             for ps in rng.sample(m1_params(q), n_m1)]
    monos = [(i, j, 0) for i, j in _MONOS]
    while len(cases) < n_m1 + n_monos:
        A, B = (TriPoly(K, dict(zip(monos, [1] + [rng.randrange(q)
                                                  for _ in monos[1:]])))
                for _ in range(2))
        if A != B:
            cases.append((A, B))
    return cases


def _bracket_outcome(fn, basis, A, B):
    """The bracket divisor that fn gives the pair, or the message of its
    DegeneratePair."""
    try:
        return fn(basis, A, B).right_divisor
    except DegeneratePair as exc:
        return str(exc)


def _warm_lines(basis, A, B) -> bool:
    """Put the lines of the pencil (A, B) in the memo, and no plane; False
    when a line pulls back to zero."""
    K = A.field
    monos = sorted(A.terms.keys() | B.terms.keys())
    try:
        for L in [A - B.scale(t) for t in range(K.q)] + [B]:
            pullback_divisor(basis, _class_key(monos, [L.terms.get(m, 0)
                                                       for m in monos], K),
                             "line")
    except DegeneratePair:
        return False
    return True


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_swapped_pair_matches_fresh(request, name):
    """With the plane of (A, B) in the memo, the bracket of the swapped pair
    is that divisor negated, and equal to the memo-free one; the swapped
    key is the plane of the swapped pair, and swapping twice is the
    identity."""
    basis = _fresh_basis(request.getfixturevalue(name))
    K = basis.curve.field
    memo = basis.pullback_divisors
    rng = random.Random(name)
    derived = 0
    sizes = (40, 20) if basis.q == 5 else (20, 10)
    for A, B in _swap_cases(basis, rng, *sizes):
        A2, B2 = _swap(A), _swap(B)
        key, key2 = _plane_key(A, B), _plane_key(A2, B2)
        assert _swapped_key(A, B) == key2
        assert _swapped_key(A2, B2) == key
        first = _bracket_outcome(pair_divisors, basis, A, B)
        derived += key in memo and key2 not in memo
        got = _bracket_outcome(pair_divisors, basis, A2, B2)
        assert got == _bracket_outcome(pair_divisors_fresh, basis, A2, B2)
        if not isinstance(first, str):
            assert got == negation(first, K)
    assert derived >= sum(sizes) // 2


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_swapped_bracket_is_lookups_only(request, monkeypatch, name):
    """Once the memo holds a plane, the bracket of the swapped plane costs
    no pull-back, no factorization and no Plucker bracket, and its derived
    entry is stored: one entry per swapped plane."""
    basis = _fresh_basis(request.getfixturevalue(name))
    memo = basis.pullback_divisors
    rng = random.Random(name + " lookups")
    cases = []
    for A, B in _swap_cases(basis, rng, 15, 8):
        try:
            pair_divisors(basis, A, B)
        except DegeneratePair:
            continue
        A2, B2 = _swap(A), _swap(B)
        if _plane_key(A2, B2) not in memo and _warm_lines(basis, A2, B2):
            cases.append((A2, B2, _bracket_outcome(pair_divisors_fresh,
                                                    basis, A2, B2)))
    assert len(cases) >= 10
    calls = []
    for owner in (ellog.curve, ellog.harvest):
        for fn in ("phi_star", "plucker_bracket"):
            _count_calls(monkeypatch, calls, owner, fn)
    for owner in (ellog.divisor, ellog.harvest):
        _count_calls(monkeypatch, calls, owner, "divisor_of")
    entries = len(memo)
    for A2, B2, want in cases:
        assert _bracket_outcome(pair_divisors, basis, A2, B2) == want
    assert calls == []
    assert len(memo) == entries + len({_plane_key(A2, B2) for A2, B2, _ in cases})
    entries = len(memo)
    for A2, B2, want in cases:
        assert _bracket_outcome(pair_divisors, basis, A2, B2) == want
    assert len(memo) == entries


@pytest.mark.parametrize("name", ["basis59", "basis11"])
def test_sigma_fixed_plane_is_its_own_negation(request, name):
    """The special group's A and B are symmetric in U and V, so its planes
    are their own swap and each bracket divisor equals its negation."""
    basis = _fresh_basis(request.getfixturevalue(name))
    K = basis.curve.field
    rng = random.Random(name)
    split = 0
    for params in rng.sample(family_params(basis, "special_group"), 15):
        A, B = reconstruct_pair(basis, "special_group", params)
        assert (_swap(A), _swap(B)) == (A, B)
        key = _plane_key(A, B)
        assert _swapped_key(A, B) == key
        try:
            R = pair_divisors(basis, A, B).right_divisor
        except DegeneratePair:
            continue
        assert negation(R, K) == R
        split += any(p.kind == SPLIT for p in R.coeffs)
    assert split >= 5


@pytest.fixture(scope="module")
def td121():
    """A 5-torsion point whose coordinates and curve lie outside F_11."""
    K = field_make(11, 2)
    curve = Curve(K, 12, 23)
    return TorsionData(curve, Point.make(curve, K, 44, 37), 5)


@pytest.mark.parametrize("name", ["basis59", "basis11", "td121"])
def test_phi_star_table_matches_fresh(request, name):
    fix = request.getfixturevalue(name)
    td = fix if name == "td121" else fix.td
    K = td.curve.field
    monos = [(i, j, l) for i in range(3) for j in range(3) for l in range(3)]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from(monos),
                                    st.integers(0, K.q - 1), max_size=6),
                    min_size=1, max_size=5))
    def check(term_lists):
        fs = [TriPoly(K, terms) for terms in term_lists]
        cold = TorsionData(td.curve, td.P1, td.k)
        for f in fs:
            assert phi_star(f, cold) == phi_star_fresh(f, td)
        warm = TorsionData(td.curve, td.P1, td.k)
        for f in reversed(fs):
            phi_star(f, warm)
        for f in fs:
            assert phi_star(f, warm) == phi_star_fresh(f, td)

    check()


@pytest.mark.parametrize("name", ["basis59", "basis11", "td121"])
def test_divisor_of_conjugate_is_negation(request, name):
    """div((n0 - n1 y)/(x - x1)^e) is div((n0 + n1 y)/(x - x1)^e) with every
    split ordinate negated, over F_5, F_11 and F_{11^2}."""
    fix = request.getfixturevalue(name)
    curve = (fix if name == "td121" else fix.td).curve
    K = curve.field
    code = st.integers(0, K.q - 1)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n0=st.lists(code, max_size=7), n1=st.lists(code, max_size=5),
           x1=code, e=st.integers(0, 3))
    def check(n0, n1, x1, e):
        f = CurveFunction.make(curve, x1, Poly(K, n0), Poly(K, n1), e)
        assume(not f.is_zero())
        g = CurveFunction.make(curve, x1, Poly(K, n0), -Poly(K, n1), e)
        D = divisor_of(f, curve)
        assert divisor_of(g, curve) == negation(D, K)
        assert negation(negation(D, K), K) == D

    check()


# ---------------------------------------------------------------------------
# pencil keys from one basis, plane pull-backs from per-label images
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(5, 1), (11, 1), (5, 2)])
def test_pencil_keys_match_class_keys(p, m):
    """The keys of the lines a - t b and of b, read from one basis of the
    pencil, are the `_class_key` of each line, over F_5, F_11 and F_{5^2};
    dependent pairs (b = c a, a = c b, one of them zero) included.  The
    slots handed back with them, and those of `_pencil_slots`, are the
    canonical order of the plane: v_i / v_n for a line [v] with v_n != 0,
    q for the line with v_n = 0, whose last nonzero coordinate is at i; a
    dependent pair has none."""
    K = field_make(p, m, 0)
    code = st.integers(0, K.q - 1)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), a=st.lists(code, min_size=8, max_size=8),
           b=st.lists(code, min_size=8, max_size=8),
           dep=st.sampled_from(["free"] * 4 + ["b = c a", "a = c b", "a = 0", "b = 0"]),
           c=code)
    def check(n, a, b, dep, c):
        a, b = a[:n], b[:n]
        if dep == "b = c a":
            b = [K.mul(c, x) for x in a]
        elif dep == "a = c b":
            a = [K.mul(c, x) for x in b]
        elif dep == "a = 0":
            a = [0] * n
        elif dep == "b = 0":
            b = [0] * n
        # every monomial of a pair is in A or B
        assume(all(x or y for x, y in zip(a, b)) and a != b)
        monos = tuple((i, 7 - i, 0) for i in range(n))
        lines = [[K.sub(x, K.mul(t, y)) for x, y in zip(a, b)]
                 for t in range(K.q)] + [b]
        want = [_class_key(monos, v, K) for v in lines]
        keys, order = _pencil_keys(monos, a, b, K)
        assert keys == want
        dependent = not any(K.sub(K.mul(a[i], b[j]), K.mul(a[j], b[i]))
                            for i in range(n) for j in range(i))
        assert (order is None) == dependent
        if dependent:
            return
        i, slots = order
        c = next(v for v in lines if not v[-1])
        assert i == max(j for j, x in enumerate(c) if x)
        assert slots == [K.div(v[i], v[-1]) if v[-1] else K.q for v in lines]
        assert _pencil_slots(a, b, i, K) == slots
        assert sorted(slots) == list(range(K.q + 1))

    check()


@pytest.mark.parametrize("name", ["basis59", "basis11", "basis25"])
@pytest.mark.parametrize("span", ["sieve", "M_2"])
def test_plucker_pullback_matches_phi_star(request, name, span):
    """The plane pull-back from the images of bracket(m, n) equals
    phi_star of the Plucker bracket and of bracket(A, B) itself, over the
    sieve span {1, U, V, UV} and the descent's M_2, with a cold table and
    a warm one."""
    basis = request.getfixturevalue(name)
    td = basis.td
    K = basis.curve.field
    monos = ([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)] if span == "sieve"
             else sorted(_M2))
    coefs = st.lists(st.integers(0, K.q - 1), min_size=len(monos),
                     max_size=len(monos))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(a=coefs, b=coefs)
    def check(a, b):
        A = TriPoly(K, dict(zip(monos, a)))
        B = TriPoly(K, dict(zip(monos, b)))
        coords = [(l, c) for l, c in _plucker(A, B) if c]
        assume(coords)
        want = phi_star(bracket(A, B), td)
        assert phi_star(plucker_bracket(K, coords), td) == want
        cold = TorsionData(td.curve, td.P1, td.k)
        assert plucker_pullback(coords, cold) == want
        assert plucker_pullback(coords, cold) == want
        assert plucker_pullback(coords, td) == want

    check()


# ---------------------------------------------------------------------------
# the pencil memo: one entry per plane, read in its canonical order
# ---------------------------------------------------------------------------

_SIEVE = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


def _pencil_cases(K, monos, rng, planes):
    """Seeded pairs over `monos`: each of `planes` planes reached through
    three bases (x A + y B, z A + w B) with xw != yz, and through (A, B0)
    with B0 the plane's vector whose coefficient at the last monomial is
    zero; then dependent pairs (B = c A, B = 0, A = B).  Shuffled."""
    q = K.q
    cases = []
    while len(cases) < 4 * planes:
        A, B = (TriPoly(K, dict(zip(monos, [rng.randrange(q) for _ in monos])))
                for _ in range(2))
        top = max(A.terms.keys() | B.terms.keys(), default=None)
        an, bn = A.terms.get(top, 0), B.terms.get(top, 0)
        if not an:
            continue
        B0 = A.scale(bn) - B.scale(an)
        if not B0.terms:
            continue
        bases = []
        while len(bases) < 3:
            x, y, z, w = (rng.randrange(q) for _ in range(4))
            if K.sub(K.mul(x, w), K.mul(y, z)):
                bases.append((A.scale(x) + B.scale(y), A.scale(z) + B.scale(w)))
        cases += bases + [(A, B0)]
    A = cases[0][0]
    cases += [(A, A.scale(2)), (A.scale(3), A), (A, A - A), (A, A)]
    rng.shuffle(cases)
    return cases


def _pair_outcome(fn, basis, A, B):
    try:
        pr = fn(basis, A, B)
    except DegeneratePair as exc:
        return str(exc)
    return pr.left_divisors, pr.right_divisor


@pytest.mark.parametrize("name", ["basis59", "basis11", "basis25"])
@pytest.mark.parametrize("span", ["sieve", "M_2"])
def test_pencil_memo_matches_fresh(request, name, span):
    """Seeded planes over the sieve span {1, U, V, UV} and over the
    descent's M_2, each reached through several bases in shuffled order,
    one of them with b_n = 0, and dependent pairs: `pair_divisors` gives
    the left divisors in order, the right divisor and the DegeneratePair
    message of the memo-free `pair_divisors_fresh`.  The pencil memo holds
    one entry per independent plane, and the later pairs of a plane read
    their lines from it."""
    basis = _fresh_basis(request.getfixturevalue(name))
    K = basis.curve.field
    monos = _SIEVE if span == "sieve" else _M2
    planes = {5: 12, 11: 8, 25: 4}[K.q]
    pencils = basis.pencil_divisors
    hits = 0
    for A, B in _pencil_cases(K, monos, random.Random(f"{name} {span}"), planes):
        key = _plane_key(A, B)
        hits += key in pencils
        got = _pair_outcome(pair_divisors, basis, A, B)
        assert got == _pair_outcome(pair_divisors_fresh, basis, A, B)
        if key and not isinstance(got, str):
            assert key in pencils
    assert () not in pencils and len(pencils) <= planes
    assert hits >= 3 * len(pencils)
