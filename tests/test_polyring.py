"""Weighted graded polynomial rings, substitution, and generic rank."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jordanbundles import polyring
from jordanbundles.field import Field, ext_field_build, prime_field, rank
from jordanbundles.polyring import (
    Poly,
    PolyMatrix,
    Substitution,
    WeightedRing,
    exact_poly_div,
    generic_rank,
    monomial_basis,
    poly_eval,
    substitute,
)

F3 = prime_field(3)
F5 = prime_field(5)
F9 = ext_field_build(3, 2)


def _random_poly(ring, rng, nterms=4, maxexp=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxexp) for _ in range(ring.nvars))
        c = rng.randrange(ring.fld.q)
        if c:
            terms[e] = c
    return Poly(ring, {}) + Poly(ring, terms)  # normalize zero coefficients


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(seed):
    rng = random.Random(seed)
    ring = WeightedRing(F5, ("x", "y"), (1, 1))
    f = _random_poly(ring, rng)
    g = _random_poly(ring, rng)
    h = _random_poly(ring, rng)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ring.zero()
    assert f * ring.one() == f
    assert f * ring.zero() == ring.zero()


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_morphism(seed):
    rng = random.Random(seed)
    ring = WeightedRing(F5, ("x", "y", "z"), (1, 1, 1))
    f = _random_poly(ring, rng)
    g = _random_poly(ring, rng)
    pt = tuple(rng.randrange(5) for _ in range(3))
    assert poly_eval(f + g, pt) == F5.add(poly_eval(f, pt), poly_eval(g, pt))
    assert poly_eval(f * g, pt) == F5.mul(poly_eval(f, pt), poly_eval(g, pt))


def test_eval_prime_poly_at_extension_point():
    ring = WeightedRing(F3, ("x",), (1,))
    f = ring.var(0) ** 2 + ring.one()  # x^2 + 1, modulus of F_9
    root = 3  # the power-basis generator of F_9, encoded as the integer 3
    assert poly_eval(f, (root,), F9) == 0
    assert poly_eval(f, (1,), F9) == 2


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_substitution_commutes_with_evaluation(seed):
    rng = random.Random(seed)
    src = WeightedRing(F5, ("a", "b"), (1, 1))
    tgt = WeightedRing(F5, ("s", "t"), (1, 1))
    images = tuple(_random_poly(tgt, rng, nterms=3, maxexp=2)
                   for _ in range(2))
    sub = Substitution(src, tgt, images, 1)
    f = _random_poly(src, rng)
    pt = tuple(rng.randrange(5) for _ in range(2))
    direct = poly_eval(substitute(f, sub), pt)
    via_images = poly_eval(f, tuple(poly_eval(im, pt) for im in images))
    assert direct == via_images


def test_substitution_scales_weighted_degree():
    # Conic-style substitution: degree-1 variables map to quadrics.
    src = WeightedRing(F3, ("x", "y", "z"), (1, 1, 1))
    tgt = WeightedRing(F3, ("s", "t"), (1, 1))
    s, t = tgt.var(0), tgt.var(1)
    sub = Substitution(src, tgt, (s * s, t * t, s * t), 2)
    f = src.var(0) * src.var(1) + src.var(2) ** 2  # homogeneous of degree 2
    g = substitute(f, sub)
    assert g.is_zero() or g.homogeneous_degree() == 4


def test_homogeneous_degree_weighted():
    ring = WeightedRing(F3, ("x0", "x1"), (1, 3))
    f = ring.var(0) ** 3 + ring.var(1)
    assert f.homogeneous_degree() == 3
    g = ring.var(0) + ring.var(1)
    assert g.homogeneous_degree() is None
    assert ring.zero().is_homogeneous()


@pytest.mark.parametrize("weights,degree,expected", [
    ((1, 1), 3, 4),        # s^3, s^2 t, s t^2, t^3
    ((1, 1, 1), 2, 6),     # C(2+2, 2)
    ((1, 3), 3, 2),        # x0^3 and x1
    ((1, 2), 4, 3),        # x0^4, x0^2 x1, x1^2
])
def test_monomial_basis_counts(weights, degree, expected):
    ring = WeightedRing(F3, tuple("v%d" % i for i in range(len(weights))),
                        weights)
    basis = monomial_basis(ring, degree)
    assert len(basis) == expected
    assert basis == sorted(basis, reverse=True)
    assert all(ring.weighted_degree(e) == degree for e in basis)


def test_exact_poly_div_roundtrip():
    rng = random.Random(5)
    ring = WeightedRing(F5, ("x", "y"), (1, 1))
    for _ in range(20):
        f = _random_poly(ring, rng)
        g = _random_poly(ring, rng)
        if g.is_zero():
            continue
        assert exact_poly_div(f * g, g) == f


# ---------------------------------------------------------------------------
# generic rank: Bareiss on the coefficient form against a frozen copy

RANK_FIELDS = [prime_field(2), F3, F5, prime_field(13), F9, ext_field_build(5, 2)]


def _frozen_exact_poly_div(f, g):
    """Exact division as it was on ``Poly``: a new quotient, product and
    remainder per leading-term step."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring, fld = f.ring, f.ring.fld
    quot, rem = ring.zero(), f
    ge = max(g.terms)
    gc_inv = fld.inv(g.terms[ge])
    while not rem.is_zero():
        re = max(rem.terms)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        t = ring.monomial(diff, fld.mul(rem.terms[re], gc_inv))
        quot = quot + t
        rem = rem - t * g
    return quot


def _frozen_bareiss(mat):
    """``generic_rank`` as it was on the dense grid of ``Poly`` entries, with
    the same pivot rule; returns the rank and the pivots in order."""
    work = [list(r) for r in mat.rows]
    n, m = mat.nrows, mat.ncols
    prev = mat.ring.one()
    pivots = []
    r = 0
    while r < min(n, m):
        piv = next(((i, j) for i in range(r, n) for j in range(r, m)
                    if not work[i][j].is_zero()), None)
        if piv is None:
            break
        pi, pj = piv
        work[r], work[pi] = work[pi], work[r]
        for row in work:
            row[r], row[pj] = row[pj], row[r]
        pivot = work[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, m):
                num = pivot * work[i][j] - work[i][r] * work[r][j]
                work[i][j] = _frozen_exact_poly_div(num, prev)
            work[i][r] = mat.ring.zero()
        pivots.append(pivot)
        prev = pivot
        r += 1
    return r, pivots


def _rank_ring(data):
    fld = data.draw(st.sampled_from(RANK_FIELDS), label="field")
    nvars = data.draw(st.sampled_from([1, 2, 3, 6]), label="nvars")
    weights = tuple(data.draw(st.integers(1, 3), label="weight") for _ in range(nvars))
    return WeightedRing(fld, tuple("x%d" % i for i in range(nvars)), weights)


def _determinant(ring, rows):
    det = ring.zero()
    for perm in itertools.permutations(range(len(rows))):
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        det = det + (-term if inversions % 2 else term)
    return det


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_generic_rank_matches_frozen_bareiss(data):
    # random matrices up to 6 x 7, some rows combinations of the others;
    # the rank, and every pivot the elimination divides by, are the frozen
    # copy's, and the last pivot of a square matrix of full rank is its
    # determinant up to the sign of the swaps
    ring = _rank_ring(data)
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    # largest first: a draw leans to the first choice
    n = data.draw(st.sampled_from(range(6, -1, -1)), label="n")
    m = data.draw(st.sampled_from(range(7, -1, -1)), label="m")
    density = data.draw(st.sampled_from([0.5, 0.8, 1.0]), label="density")
    nterms = 2 if ring.nvars < 6 else 1

    def term():
        return ring.monomial([rng.randrange(2) for _ in range(ring.nvars)],
                             rng.randrange(1, ring.fld.q))

    def entry():
        if rng.random() >= density:
            return ring.zero()
        return sum((term() for _ in range(nterms)), ring.zero())

    extra = min(data.draw(st.sampled_from([0, 0, 1, 2]), label="combinations"), max(n - 1, 0))
    rows = [[entry() for _ in range(m)] for _ in range(n - extra)]
    for _ in range(extra):
        combo = [ring.zero()] * m
        for row in rows:
            f = term()
            combo = [a + f * b for a, b in zip(combo, row)]
        rows.insert(rng.randint(0, len(rows)), combo)
    if data.draw(st.booleans(), label="from the form"):
        mat = PolyMatrix.from_terms(ring, n, m, [([(i, j, 1)], f) for i, r in enumerate(rows)
                                                 for j, f in enumerate(r)])
    else:
        mat = PolyMatrix(ring, rows) if n else PolyMatrix.zero(ring, 0, m)
    want, pivots = _frozen_bareiss(mat)
    seen = []
    real = polyring._exact_divider

    def spy(fld, g):
        seen.append(dict(g))
        return real(fld, g)

    with mock.patch.object(polyring, "_exact_divider", spy):
        got = generic_rank(mat)
    assert got == want
    assert seen == [pv.terms for pv in pivots]
    assert got <= min(n, m) and (extra == 0 or got < n)
    if 0 < n == m == got <= 4:
        det = _determinant(ring, rows)
        assert Poly(ring, seen[-1]) in (det, -det)


@pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (3, 0), (1, 1)])
def test_generic_rank_of_empty_and_zero_shapes(n, m):
    ring = WeightedRing(F5, ("x", "y"), (1, 1))
    assert generic_rank(PolyMatrix.zero(ring, n, m)) == 0
    assert generic_rank(PolyMatrix(ring, [[ring.zero()] * m for _ in range(n)])) == 0
    if n and m:
        assert generic_rank(PolyMatrix(ring, [[ring.var(0)] * m for _ in range(n)])) == 1


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_exact_poly_div_inverts_multiplication(data):
    ring = _rank_ring(data)
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    f = _random_poly(ring, rng, nterms=4, maxexp=3)
    g = _random_poly(ring, rng, nterms=3, maxexp=3)
    with pytest.raises(ZeroDivisionError):
        exact_poly_div(f, ring.zero())
    if g.is_zero():
        return
    assert exact_poly_div(f * g, g) == f == _frozen_exact_poly_div(f * g, g)
    if g.homogeneous_degree() != 0:
        # g divides f g + c only if it divides the constant c
        c = ring.const(rng.randrange(1, ring.fld.q))
        with pytest.raises(ArithmeticError, match="inexact"):
            exact_poly_div(f * g + c, g)


def test_exact_poly_div_raises_on_a_remainder():
    ring = WeightedRing(F3, ("x", "y"), (1, 1))
    x, y = ring.var(0), ring.var(1)
    with pytest.raises(ArithmeticError, match="inexact"):
        exact_poly_div(x * y + ring.one(), x)
    with pytest.raises(ArithmeticError, match="inexact"):
        exact_poly_div(y, x)
    with pytest.raises(ZeroDivisionError):
        exact_poly_div(x, ring.zero())
    assert exact_poly_div(x * x - y * y, x + y) == x - y


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_generic_rank_vs_evaluation_oracle(seed):
    # The rank over the function field is the max rank over scanned points.
    rng = random.Random(seed)
    ring = WeightedRing(F3, ("u", "v"), (1, 1))
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    mat = PolyMatrix(ring, [[_random_poly(ring, rng, nterms=2, maxexp=2)
                             for _ in range(m)] for _ in range(n)])
    gr = generic_rank(mat)
    best = 0
    for a in range(9):
        for b in range(9):
            best = max(best, rank(F9, mat.evaluate((a, b), F9)))
    assert gr == best


def test_polymatrix_power_and_substitute():
    ring = WeightedRing(F3, ("u",), (1,))
    u = ring.var(0)
    mat = PolyMatrix(ring, [[ring.zero(), u], [ring.zero(), ring.zero()]])
    sq = mat.power(2)
    assert sq.is_zero()
    assert mat.entries_homogeneous_of_degree() == 1
    assert mat.evaluate((2,), F3) == [[0, 2], [0, 0]]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_evaluate_matches_entrywise_poly_eval(data):
    # the coefficient form Theta = sum_m A_m x^m, memoised by projection,
    # against one poly_eval per entry: prime-field matrices at prime and
    # extension points, extension matrices at their own points, and GF(5^4)
    # on computed tables, at points whose coordinates are often zero and
    # often repeat, so that the memo answers some of the calls
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    ring_e = data.draw(st.sampled_from([1, 2] + [4] * (p == 5)), label="ring degree")
    point_e = data.draw(st.sampled_from([ring_e, max(ring_e, 2)]), label="point degree")
    ring_fld = ext_field_build(p, ring_e)
    fld = ext_field_build(p, point_e)
    nvars = data.draw(st.integers(1, 3), label="nvars")
    weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    ring = WeightedRing(ring_fld, tuple("x%d" % i for i in range(nvars)), weights)
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mat = PolyMatrix(ring, [[_random_poly(ring, rng, nterms=4, maxexp=6) for _ in range(ncols)]
                            for _ in range(nrows)])
    coord = st.one_of(st.just(0), st.just(1), st.integers(0, fld.q - 1))
    points = data.draw(st.lists(st.tuples(*[coord] * nvars), min_size=1, max_size=8), label="points")
    for point in points + points[::-1]:
        expected = [[poly_eval(a, point, fld) for a in r] for r in mat.rows]
        assert mat.evaluate(point, fld) == expected
        if point_e == ring_e:
            assert mat.evaluate(point) == expected


def _frozen_evaluate(mat, point, fld, memo):
    """``PolyMatrix.evaluate`` as it keyed its memo by the tuple of the
    coordinates the matrix reads, taken by ``map(point.__getitem__, ...)``;
    ``memo`` stands in for the matrix's own."""
    reads = tuple(sorted({v for v, _ in mat.coefficients()[1]}))
    key = (fld, tuple(map(point.__getitem__, reads)))
    hit = memo.get(key)
    if hit is not None:
        return list(map(list, hit))
    out = mat.evaluate_once(point, fld)
    if (len(memo) + 1) * mat.nrows * mat.ncols <= polyring._EVALUATE_MEMO:
        memo[key] = tuple(map(tuple, out))
    return out


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_frozen_memo(data):
    # matrices reading no coordinate (the memo key's projection is ()), one
    # (itemgetter gives a scalar) or several, prime-field matrices at
    # extension points, tuple and list points that repeat, budgets that
    # fill, and callers that change the matrices they are handed: values,
    # stored entries and their projections agree with the frozen memo
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    ring_e = data.draw(st.sampled_from([1, 2]), label="ring degree")
    fld = ext_field_build(p, data.draw(st.sampled_from([ring_e, 2, 4]), label="point degree"))
    nvars = data.draw(st.integers(1, 4), label="nvars")
    ring = WeightedRing(ext_field_build(p, ring_e), tuple("x%d" % i for i in range(nvars)),
                        (1,) * nvars)
    used = data.draw(st.sets(st.integers(0, nvars - 1), max_size=min(nvars, 2)), label="reads")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))

    def entry():
        # a random polynomial in the variables of ``used`` alone
        f = _random_poly(ring, rng, nterms=3, maxexp=4)
        return Poly(ring, {}) + Poly(ring, {e: c for e, c in f.terms.items()
                                             if all(k == 0 or v in used for v, k in enumerate(e))})

    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mat = PolyMatrix(ring, [[entry() for _ in range(ncols)] for _ in range(nrows)])
    budget = data.draw(st.sampled_from([polyring._EVALUATE_MEMO, 20, 40]), label="budget")
    coord = st.one_of(st.just(0), st.just(1), st.integers(0, fld.q - 1))
    points = data.draw(st.lists(st.tuples(*[coord] * nvars), min_size=1, max_size=8), label="points")
    reads = sorted({v for v, _ in mat.coefficients()[1]})
    frozen = {}
    with mock.patch.object(polyring, "_EVALUATE_MEMO", budget):
        for point in points + [list(pt) for pt in points[::-1]]:
            want = _frozen_evaluate(mat, point, fld, frozen)
            got = mat.evaluate(point, fld)
            assert got == want == [[poly_eval(a, point, fld) for a in r] for r in mat.rows]
            got[0][0] = (got[0][0] + 1) % fld.q
            got[-1].append(0)
            stored = {(f, k if len(reads) != 1 else (k,)): v for (f, k), v in mat._memo.items()}
            assert stored == frozen


def test_evaluate_memo_on_matrices_reading_no_or_one_coordinate():
    # a constant matrix has one entry per field, keyed by (); a matrix
    # reading y alone is keyed by the scalar y; changing what evaluate
    # returned changes neither
    ring = WeightedRing(F5, ("x", "y"), (1, 1))
    const = PolyMatrix(ring, [[ring.const(2), ring.zero()]])
    one = PolyMatrix(ring, [[ring.var(1) ** 2, ring.const(1)]])
    for _ in range(2):
        for point in [(0, 3), [4, 3], (1, 2)]:
            out = const.evaluate(point)
            assert out == [[2, 0]]
            out[0][0] = 1
            out = one.evaluate(point)
            assert out == [[point[1] ** 2 % 5, 1]]
            out[0].append(9)
    assert const.evaluate((0, 0), F9) == [[2, 0]]
    assert list(const._memo) == [(F5, ()), (F9, ())]
    assert sorted(one._memo) == [(F5, 2), (F5, 3)]


def test_evaluate_memo_keys_the_field():
    # a prime-field matrix at one integer point over GF(3) and GF(9) stores
    # two entries; over two GF(9)s with different moduli g = 3 squares to
    # different elements, and each field keeps its own entry
    ring = WeightedRing(F3, ("x",), (1,))
    x = ring.var(0)
    mat = PolyMatrix(ring, [[x * x, x], [ring.zero(), x + ring.const(1)]])
    assert mat.evaluate((2,), F3) == mat.evaluate((2,), F9) == [[1, 2], [0, 0]]
    assert sorted(str(fld) for fld, _ in mat._memo) == ["GF(3)", "GF(3^2)"]
    other = Field(3, 2, (2, 1, 1))
    assert other.q == F9.q and other.modulus != F9.modulus
    for _ in range(2):
        for fld in (F9, other):
            assert mat.evaluate((3,), fld) == [[poly_eval(a, (3,), fld) for a in r] for r in mat.rows]
    assert mat.evaluate((3,), F9)[0][0] != mat.evaluate((3,), other)[0][0]


def test_evaluate_returns_a_fresh_matrix():
    ring = WeightedRing(F5, ("x", "y"), (1, 1))
    x, y = ring.var(0), ring.var(1)
    mat = PolyMatrix(ring, [[x, y], [x * y, ring.const(1)]])
    first = mat.evaluate((2, 3))
    first[0][0] = 4
    first[1].append(0)
    assert mat.evaluate((2, 3)) == [[2, 3], [1, 1]]


def test_evaluate_memo_reads_only_the_coordinates_in_the_matrix():
    # the matrix reads x and z: points that differ only in y share an entry
    ring = WeightedRing(F5, ("x", "y", "z"), (1, 1, 1))
    x, z = ring.var(0), ring.var(2)
    mat = PolyMatrix(ring, [[x, z ** 2], [x * z, ring.zero()]])
    for y in range(5):
        assert mat.evaluate((2, y, 3)) == [[2, 4], [1, 0]]
    assert list(mat._memo) == [(F5, (2, 3))]


def test_evaluate_memo_stays_within_its_budget(monkeypatch):
    # 2 x 3 matrices under a budget of 40 elements hold at most 6 entries;
    # points past the budget are evaluated afresh and still correct
    monkeypatch.setattr(polyring, "_EVALUATE_MEMO", 40)
    ring = WeightedRing(F9, ("x", "y"), (1, 1))
    rng = random.Random(7)
    mat = PolyMatrix(ring, [[_random_poly(ring, rng) for _ in range(3)] for _ in range(2)])
    for _ in range(2):
        for point in itertools.product(range(0, 9, 2), repeat=2):
            assert mat.evaluate(point) == [[poly_eval(a, point) for a in r] for r in mat.rows]
            assert len(mat._memo) * 6 <= 40
    assert len(mat._memo) == 6
    # a matrix with more entries than the budget stores nothing
    wide = PolyMatrix(ring, [[ring.var(0)] * 41])
    assert wide.evaluate((1, 0)) == [[1] * 41]
    assert not wide._memo


def _triple_loop_product(x, y):
    """The product entry by entry over every index triple, as PolyMatrix
    multiplied before it listed nonzero entries: the oracle for ``*``."""
    out = []
    for i in range(x.nrows):
        row = []
        for j in range(y.ncols):
            acc = x.ring.zero()
            for t in range(x.ncols):
                a, b = x.rows[i][t], y.rows[t][j]
                if a.terms and b.terms:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return PolyMatrix(x.ring, out)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_product_matches_triple_loop(data):
    # mostly-zero matrices over weighted rings in 2-4 variables, over prime
    # fields, GF(9) and GF(5^4) on computed tables; products of any shape and
    # powers up to the 4th
    fld = data.draw(st.sampled_from([F3, F5, F9, ext_field_build(5, 4)]), label="field")
    nvars = data.draw(st.integers(2, 4), label="nvars")
    weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    ring = WeightedRing(fld, tuple("x%d" % i for i in range(nvars)), weights)
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    density = data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]), label="density")

    def random_matrix(n, m):
        return PolyMatrix(ring, [[_random_poly(ring, rng, nterms=3) if rng.random() < density
                                  else ring.zero() for _ in range(m)] for _ in range(n)])

    n, m, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    x, y = random_matrix(n, m), random_matrix(m, k)
    prod = x * y
    expected = _triple_loop_product(x, y)
    assert prod.rows == expected.rows
    assert all(0 not in a.terms.values() for r in prod.rows for a in r)
    sq = random_matrix(n, n)
    acc = sq
    for e in range(1, 5):
        assert sq.power(e).rows == acc.rows
        acc = _triple_loop_product(acc, sq)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_matrix_substitution_commutes_with_evaluation(data):
    # M.substitute(phi) at x equals M at phi(x), with images of several
    # terms, zero images, and images whose products make terms cancel
    fld = data.draw(st.sampled_from([F3, F5, F9, ext_field_build(5, 4)]), label="field")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    src = WeightedRing(fld, ("a", "b", "c"), (1, 1, 1))
    tgt = WeightedRing(fld, ("s", "t"), (1, 1))
    s, t = tgt.var(0), tgt.var(1)
    pool = [tgt.zero(), s, t, s + t, s - t, s * s - t * t, s * t,
            _random_poly(tgt, rng, nterms=3, maxexp=3)]
    images = tuple(data.draw(st.sampled_from(pool), label="image %d" % i) for i in range(3))
    sub = Substitution(src, tgt, images, 1)
    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mat = PolyMatrix(src, [[_random_poly(src, rng, nterms=4, maxexp=3) for _ in range(ncols)]
                           for _ in range(nrows)])
    image = mat.substitute(sub)
    assert image.ring == tgt and (image.nrows, image.ncols) == (nrows, ncols)
    assert all(0 not in f.terms.values() for r in image.rows for f in r)
    for x in [(0, 0), (1, 0), (0, 1)] + [(rng.randrange(fld.q), rng.randrange(fld.q))
                                         for _ in range(4)]:
        phi_x = tuple(poly_eval(f, x) for f in images)
        assert image.evaluate(x) == mat.evaluate(phi_x)
    # each entry is the substitution of the polynomial there
    assert image.rows == [[substitute(f, sub) for f in r] for r in mat.rows]


def test_substitute_checks_the_source_ring():
    src = WeightedRing(F3, ("a",), (1,))
    tgt = WeightedRing(F3, ("s", "t"), (1, 1))
    sub = Substitution(src, tgt, (tgt.var(0),), 1)
    with pytest.raises(ValueError, match="source ring"):
        substitute(tgt.var(1), sub)
    with pytest.raises(ValueError, match="source ring"):
        PolyMatrix(tgt, [[tgt.var(1)]]).substitute(sub)


def test_from_terms_cancels_and_skips_zero_polynomials():
    ring = WeightedRing(F3, ("x", "y"), (1, 1))
    x, y = ring.var(0), ring.var(1)
    # (x + y) A + (2x) A with A = [[0, 1], [1, 0]] leaves y A: the x terms cancel
    a = [(0, 1, 1), (1, 0, 1)]
    mat = PolyMatrix.from_terms(ring, 2, 3, [(a, x + y), (a, x.scale(2)), (a, ring.zero())])
    assert mat.rows == [[ring.zero(), y, ring.zero()], [y, ring.zero(), ring.zero()]]
    assert mat.coefficients()[0] == [(((1, 1),), [(0, 1, 1), (1, 0, 1)])]


def _frozen_dense_product(x, y):
    """The product as PolyMatrix computed it when it held a dense grid of
    Poly entries: the nonzero entries of each row of ``y`` listed once,
    each term of an entry x_it multiplied into them, one term dict per
    output entry.  The reference for the product on coefficient forms."""
    fld = x.ring.fld
    nonzero = [[(j, b.terms.items()) for j, b in enumerate(r) if b.terms] for r in y.rows]
    out = []
    for row in x.rows:
        acc = [{} for _ in range(y.ncols)]
        for a, entries in zip(row, nonzero):
            for e1, c1 in a.terms.items():
                for j, terms in entries:
                    dj = acc[j]
                    for e2, c2 in terms:
                        e = tuple(u + v for u, v in zip(e1, e2))
                        c = fld.add(dj.get(e, 0), fld.mul(c1, c2))
                        if c:
                            dj[e] = c
                        else:
                            del dj[e]
        out.append([Poly(x.ring, dj) for dj in acc])
    return PolyMatrix(x.ring, out)


def _gln_ring(fld, n=3):
    """k[a0_ij, a1_ij] with weights 1 and p, as the gl_n height-2 rings:
    18 variables at n = 3."""
    names = tuple("a%d_%d%d" % (lvl, i, j) for lvl in (0, 1) for i in range(n) for j in range(n))
    return WeightedRing(fld, names, (1,) * (n * n) + (fld.p,) * (n * n))


def _assert_rows_are_the_form(mat):
    """``rows`` holds exactly the entries of the form, and no zero
    coefficient is stored in either."""
    expected = [[{} for _ in range(mat.ncols)] for _ in range(mat.nrows)]
    for e, entries in mat.terms.items():
        assert entries
        for i, j, c in entries:
            assert c and e not in expected[i][j]
            expected[i][j][e] = c
    assert [[a.terms for a in r] for r in mat.rows] == expected
    assert len(mat.rows) == mat.nrows and all(len(r) == mat.ncols for r in mat.rows)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_form_product_and_powers_match_the_dense_product(data):
    # sparse matrices over GF(p), GF(p^2) and an 18-variable gl_3-style
    # ring; entries are drawn from a small pool of polynomials and their
    # negatives, so that sums of products cancel often
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    fld = data.draw(st.sampled_from([prime_field(p), ext_field_build(p, 2)]), label="field")
    kind = data.draw(st.sampled_from(["s,t", "gl3"]), label="ring")
    ring = WeightedRing(fld, ("s", "t"), (1, 1)) if kind == "s,t" else _gln_ring(fld)
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    pool = [_random_poly(ring, rng, nterms=2, maxexp=2) for _ in range(3)]
    pool += [-f for f in pool] + [ring.var(rng.randrange(ring.nvars))]
    density = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="density")

    def random_matrix(n, m):
        return PolyMatrix(ring, [[rng.choice(pool) if rng.random() < density else ring.zero()
                                  for _ in range(m)] for _ in range(n)])

    n, m, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    x, y = random_matrix(n, m), random_matrix(m, k)
    prod = x * y
    assert prod.rows == _frozen_dense_product(x, y).rows
    _assert_rows_are_the_form(prod)
    sq = random_matrix(n, n)
    acc = PolyMatrix.identity(ring, n)
    for e in range(p + 1):
        got = sq.power(e)
        assert got.rows == acc.rows
        _assert_rows_are_the_form(got)
        acc = _frozen_dense_product(acc, sq)


def test_cancelled_products_store_no_terms():
    # (g g) (f, -f)^T = 0 and the square of a nilpotent Jordan block of size
    # 2 vanish: no entry and no monomial is kept
    ring = WeightedRing(F3, ("x", "y"), (1, 1))
    x, y = ring.var(0), ring.var(1)
    f, g = x * y + y, x + ring.const(2)
    prod = PolyMatrix(ring, [[g, g]]) * PolyMatrix(ring, [[f], [-f]])
    assert prod.terms == {} and prod.is_zero() and prod.rows == [[ring.zero()]]
    sq = PolyMatrix(ring, [[ring.zero(), f], [ring.zero(), ring.zero()]]).power(2)
    assert sq.terms == {} and sq.is_zero()
    half = PolyMatrix(ring, [[x, x]]) * PolyMatrix(ring, [[y + x], [y - x]])
    assert half.terms == {(1, 1): [(0, 0, 2)]}
    _assert_rows_are_the_form(half)


def test_empty_and_zero_shapes():
    ring = WeightedRing(F5, ("x", "y"), (1, 1))
    zero = PolyMatrix.zero(ring, 2, 3)
    assert (zero.nrows, zero.ncols) == (2, 3) and zero.is_zero() and zero.terms == {}
    assert zero.rows == [[ring.zero()] * 3] * 2
    assert zero.entries_homogeneous_of_degree() == 0
    flat = PolyMatrix.zero(ring, 0, 4)
    assert (flat.nrows, flat.ncols) == (0, 4) and flat.rows == [] and flat.is_zero()
    none = PolyMatrix(ring, [])
    assert (none.nrows, none.ncols) == (0, 0) and none.is_zero()
    prod = PolyMatrix.zero(ring, 0, 1) * PolyMatrix(ring, [[ring.var(0), ring.zero()]])
    assert (prod.nrows, prod.ncols) == (0, 2) and prod.is_zero()
    empty = PolyMatrix.identity(ring, 0)
    assert (empty.nrows, empty.ncols) == (0, 0) and empty.terms == {} and empty.rows == []
    assert empty.power(0).terms == {} and empty.power(3).terms == {}
    one = PolyMatrix.identity(ring, 3)
    assert one.terms == {(0, 0): [(0, 0, 1), (1, 1, 1), (2, 2, 1)]}
    assert one.rows == [[ring.one() if i == j else ring.zero() for j in range(3)] for i in range(3)]
    assert PolyMatrix.identity(ring, 3).entries_homogeneous_of_degree() == 0


def test_is_zero_and_homogeneous_degree_read_the_form():
    ring = WeightedRing(F3, ("x0", "x1"), (1, 3))
    x0, x1 = ring.var(0), ring.var(1)
    z = ring.zero()
    cases = [
        ([[z, z], [z, z]], True, 0),
        ([[x0 ** 3, z], [x1, x0 ** 3 + x1]], False, 3),   # weighted-homogeneous of degree 3
        ([[x0, z], [z, x1]], False, None),                 # homogeneous entries, two degrees
        ([[x0 + x1, z], [z, z]], False, None),             # one inhomogeneous entry
        ([[ring.one(), z], [z, ring.const(2)]], False, 0),
    ]
    for rows, zero, degree in cases:
        for mat in (PolyMatrix(ring, rows), PolyMatrix.from_terms(ring, 2, 2, [
                ([(i, j, 1)], f) for i, r in enumerate(rows) for j, f in enumerate(r)])):
            assert mat.is_zero() is zero
            assert mat.entries_homogeneous_of_degree() == degree
    # a sum that cancels leaves the zero matrix
    mat = PolyMatrix(ring, [[x0, z]])
    assert (mat + PolyMatrix(ring, [[-x0, z]])).is_zero()


def test_from_terms_and_sum_keep_no_zero_coefficient():
    ring = _gln_ring(F5)
    rng = random.Random(3)
    pool = [_random_poly(ring, rng, nterms=3, maxexp=2) for _ in range(4)]
    terms = [([(rng.randrange(3), rng.randrange(3), rng.randrange(1, 5)) for _ in range(3)],
              rng.choice(pool)) for _ in range(12)]
    mat = PolyMatrix.from_terms(ring, 3, 3, terms)
    _assert_rows_are_the_form(mat)
    expected = [[ring.zero() for _ in range(3)] for _ in range(3)]
    for entries, f in terms:
        for i, j, c in entries:
            expected[i][j] = expected[i][j] + f.scale(c)
    assert mat.rows == expected
    total = mat + PolyMatrix(ring, [[-a for a in r] for r in expected])
    assert total.is_zero() and total.terms == {}
    twice = mat + mat
    _assert_rows_are_the_form(twice)
    assert twice.rows == [[a + a for a in r] for r in expected]
