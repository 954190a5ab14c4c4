"""Exact finite-field arithmetic and dense linear algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jordanbundles.field import (
    Echelon,
    Field,
    _digits,
    _undigits,
    enumerate_elements,
    ext_field_build,
    identity,
    in_span,
    inverse,
    is_zero_matrix,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    prime_field,
    rank,
    reduce_vector,
    row_reduce,
    solve,
    span_basis,
    transpose,
    zeros,
)

FIELDS = [
    prime_field(2), prime_field(3), prime_field(5), prime_field(7),
    ext_field_build(2, 2), ext_field_build(2, 3), ext_field_build(2, 4),
    ext_field_build(3, 2), ext_field_build(3, 3), ext_field_build(5, 2),
]

# Frozen moduli: lexicographically smallest monic irreducible, coefficients
# listed from the constant term upward including the leading 1.
# [DERIVED] frozen from an independent sieve over all monic polynomials.
FROZEN_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (5, 2): (2, 0, 1),          # x^2 + 2
    (7, 2): (1, 0, 1),          # x^2 + 1
}


@pytest.mark.parametrize("key", sorted(FROZEN_MODULI))
def test_frozen_moduli(key):
    p, e = key
    fld = ext_field_build(p, e)
    assert fld.modulus == FROZEN_MODULI[key]


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: "F%d" % f.q)
def test_field_axioms_exhaustive_small(fld):
    if fld.q > 9:
        pytest.skip("exhaustive check reserved for tiny fields")
    elems = list(enumerate_elements(fld))
    assert len(elems) == fld.q
    for a in elems:
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert fld.add(a, fld.neg(a)) == 0
        if a != 0:
            assert fld.mul(a, fld.inv(a)) == 1
        for b in elems:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in elems:
                assert fld.mul(a, fld.add(b, c)) == fld.add(
                    fld.mul(a, b), fld.mul(a, c))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_field_axioms_random(data):
    fld = data.draw(st.sampled_from(FIELDS))
    a = data.draw(st.integers(0, fld.q - 1))
    b = data.draw(st.integers(0, fld.q - 1))
    c = data.draw(st.integers(0, fld.q - 1))
    assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
    assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
    assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
    assert fld.sub(a, b) == fld.add(a, fld.neg(b))
    if b != 0:
        assert fld.mul(fld.div(a, b), b) == a


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: "F%d" % f.q)
def test_pow_edge_cases(fld):
    assert fld.pow(0, 0) == 1
    assert fld.pow(0, 1) == 0
    assert fld.pow(0, 5) == 0
    for a in list(enumerate_elements(fld))[:9]:
        if a != 0:
            # Lagrange: the multiplicative group has order q-1.
            assert fld.pow(a, fld.q - 1) == 1
        assert fld.pow(a, fld.q) == a  # Frobenius fixed point of x^q


def test_frobenius_additivity():
    fld = ext_field_build(3, 2)
    for a in enumerate_elements(fld):
        for b in enumerate_elements(fld):
            assert fld.pow(fld.add(a, b), 3) == fld.add(
                fld.pow(a, 3), fld.pow(b, 3))


def _random_matrix(fld, rows, cols, rng):
    return [[rng.randrange(fld.q) for _ in range(cols)] for _ in range(rows)]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(data):
    fld = data.draw(st.sampled_from(FIELDS))
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    a = _random_matrix(fld, rows, cols, rng)
    r = rank(fld, a)
    ker = kernel_basis(fld, a)
    assert r + len(ker) == cols
    for v in ker:
        assert all(x == 0 for x in mat_vec(fld, a, v))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_reduce_idempotent_and_canonical(data):
    fld = data.draw(st.sampled_from(FIELDS))
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    a = _random_matrix(fld, rows, cols, rng)
    red, piv = row_reduce(fld, a)
    red2, piv2 = row_reduce(fld, red)
    assert red == red2 and piv == piv2
    for k, j in enumerate(piv):
        assert red[k][j] == 1
        assert all(red[i][j] == 0 for i in range(len(red)) if i != k)
    # Canonical form is a basis invariant: shuffling rows changes nothing.
    shuffled = list(a)
    rng.shuffle(shuffled)
    if rank(fld, shuffled) == rank(fld, a):
        red3, _ = row_reduce(fld, shuffled)
        assert [r for r in red if any(r)] == [r for r in red3 if any(r)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_solve_and_inverse(data):
    fld = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    a = _random_matrix(fld, n, n, rng)
    v = [rng.randrange(fld.q) for _ in range(n)]
    b = mat_vec(fld, a, v)
    x = solve(fld, a, b)
    assert x is not None
    assert mat_vec(fld, a, x) == b
    if rank(fld, a) == n:
        ai = inverse(fld, a)
        assert mat_mul(fld, a, ai) == identity(fld, n)


def test_span_membership():
    fld = prime_field(5)
    vecs = [[1, 2, 0], [0, 1, 1]]
    basis = span_basis(fld, vecs)
    assert len(basis) == 2
    assert in_span(fld, vecs, [1, 3, 1])
    assert not in_span(fld, vecs, [0, 0, 1])


def test_mat_pow_matches_repeated_product():
    rng = random.Random(3)
    for fld in (prime_field(7), prime_field(5), ext_field_build(3, 2)):
        a = _random_matrix(fld, 4, 4, rng)
        frozen = [row[:] for row in a]
        acc = identity(fld, 4)
        for k in range(10):
            got = mat_pow(fld, a, k)
            assert got == acc
            assert got is not a and all(g is not r for g, r in zip(got, a))
            acc = mat_mul(fld, acc, a)
        assert a == frozen


def test_transpose_involution_and_zero():
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(a)) == a
    assert is_zero_matrix(zeros(2, 3))
    assert not is_zero_matrix(a)


# ---------------------------------------------------------------------------
# the table kernel: every field of order <= 512 built by ext_field_build
# carries add/neg/mul/inv tables; larger fields use digit arithmetic


def _primes(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


def _table_fields(qmax):
    return [(p, e) for p in _primes(qmax) for e in range(1, 5) if p ** e <= qmax]


def _check_tables(fld, pairs):
    p, e = fld.p, fld.e
    for a, b in pairs:
        da, db = _digits(a, p, e), _digits(b, p, e)
        assert fld._add_table[a][b] == _undigits([x + y for x, y in zip(da, db)], p)
        assert fld._mul_table[a][b] == fld._mul_slow(a, b)
    for a in range(fld.q):
        assert fld._neg_table[a] == _undigits([-x for x in _digits(a, p, e)], p)
        if a:
            assert fld._mul_slow(a, fld._inv_table[a]) == 1


@pytest.mark.parametrize("key", _table_fields(125), ids=lambda k: "F%d^%d" % k)
def test_tables_exhaustive_small(key):
    fld = ext_field_build(*key)
    elems = range(fld.q)
    _check_tables(fld, [(a, b) for a in elems for b in elems])


@pytest.mark.parametrize("key", [(127, 1), (13, 2), (17, 2), (7, 3), (19, 2), (509, 1)],
                         ids=lambda k: "F%d^%d" % k)
def test_tables_sampled_large(key):
    fld = ext_field_build(*key)
    rng = random.Random(fld.q)
    _check_tables(fld, [(rng.randrange(fld.q), rng.randrange(fld.q)) for _ in range(3000)])


def test_tables_only_up_to_512():
    for key in [(2, 4), (3, 4), (7, 3), (19, 2), (509, 1)]:
        assert ext_field_build(*key)._add_table is not None
    for key in [(5, 4), (7, 4), (23, 2), (521, 1)]:
        fld = ext_field_build(*key)
        assert fld._add_table is None and fld._mul_table is None


def test_tables_do_not_change_equality():
    fld = ext_field_build(3, 2)
    bare = Field(fld.p, fld.e, fld.modulus)
    assert bare._mul_table is None
    assert fld == bare and hash(fld) == hash(bare)


DIFF_FIELDS = [prime_field(3), prime_field(5), ext_field_build(3, 2),
               ext_field_build(5, 2), ext_field_build(3, 4), ext_field_build(5, 4)]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_table_kernel_matches_field_methods(data):
    """The table path against a tableless Field of the same field (GF(5^4)
    is past the table limit, so there both sides take the generic path)."""
    fld = data.draw(st.sampled_from(DIFF_FIELDS), label="field")
    bare = Field(fld.p, fld.e, fld.modulus)
    rows = data.draw(st.integers(1, 9), label="rows")
    cols = data.draw(st.integers(1, 9), label="cols")
    density = data.draw(st.sampled_from([0.15, 0.5, 1.0]), label="density")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))

    def sparse(r, c):
        return [[rng.randrange(1, fld.q) if rng.random() < density else 0
                 for _ in range(c)] for _ in range(r)]

    a, b = sparse(rows, cols), sparse(cols, rng.randint(1, 6))
    v = sparse(1, cols)[0]
    rhs = sparse(1, rows)[0]
    red = row_reduce(fld, a)
    assert red == row_reduce(bare, a)
    assert rank(fld, a) == rank(bare, a) == len(red[1])
    assert kernel_basis(fld, a) == kernel_basis(bare, a)
    assert mat_mul(fld, a, b) == mat_mul(bare, a, b)
    assert mat_vec(fld, a, v) == mat_vec(bare, a, v)
    a2 = sparse(rows, cols)
    c = rng.randrange(fld.q)
    assert mat_add(fld, a, a2) == mat_add(bare, a, a2)
    assert mat_sub(fld, a, a2) == mat_sub(bare, a, a2)
    assert mat_scale(fld, c, a) == mat_scale(bare, c, a)
    assert solve(fld, a, rhs) == solve(bare, a, rhs)
    residual = reduce_vector(fld, red[0], red[1], v)
    assert residual == reduce_vector(bare, red[0], red[1], v)
    assert all(residual[pc] == 0 for pc in red[1])
    assert (not any(residual)) == in_span(bare, a, v)


ECHELON_FIELDS = [prime_field(5), ext_field_build(3, 2),
                  Field(5, 4, ext_field_build(5, 4).modulus)]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_echelon_insert_matches_in_span(data):
    """Inserting vectors one by one: a vector is new exactly when it is not
    in the span of those before it, and the rows stay an echelon basis of
    that span (leading 1, pivots increasing)."""
    fld = data.draw(st.sampled_from(ECHELON_FIELDS), label="field")
    cols = data.draw(st.integers(1, 8), label="cols")
    count = data.draw(st.integers(1, 12), label="count")
    density = data.draw(st.sampled_from([0.2, 0.6, 1.0]), label="density")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    vectors = []
    for _ in range(count):
        if vectors and rng.random() < 0.3:
            # a combination of earlier vectors
            coeffs = [rng.randrange(fld.q) for _ in vectors]
            vectors.append(mat_vec(fld, transpose(vectors), coeffs))
        else:
            vectors.append([rng.randrange(1, fld.q) if rng.random() < density else 0
                            for _ in range(cols)])
    ech = Echelon(fld)
    for k, v in enumerate(vectors):
        before = vectors[:k]
        expected_new = not in_span(fld, before, v) if before else any(v)
        pc = ech.insert(v)
        assert (pc is not None) == expected_new
        assert ech.pivots == sorted(ech.pivots)
        assert all(row[pc] == 1 and not any(row[:pc]) for row, pc in zip(ech.rows, ech.pivots))
        assert len(ech.rows) == rank(fld, vectors[:k + 1])
    assert span_basis(fld, ech.rows) == span_basis(fld, vectors)
