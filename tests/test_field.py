"""Exact finite-field arithmetic and dense linear algebra."""

import random
from bisect import bisect_left
from itertools import compress

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
    mat_combination,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    power_ranks,
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


@pytest.mark.parametrize("p", [4, 9, 1, 0, -3])
def test_ext_field_build_rejects_a_non_prime(p):
    # Z/4 has no primitive element, so building its tables would never end
    with pytest.raises(ValueError, match="prime"):
        ext_field_build(p, 1)


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
    [x] = solve(fld, a, [b])
    assert mat_vec(fld, a, x) == b
    # several right-hand sides at once: each the solution it has alone, or
    # None when one of them (here c, unless rank [a | c] = rank a) has none
    c = [rng.randrange(fld.q) for _ in range(n)]
    alone = [solve(fld, a, [rhs]) for rhs in (b, c, b)]
    assert (alone[1] is None) == (rank(fld, [row + [y] for row, y in zip(a, c)]) > rank(fld, a))
    assert solve(fld, a, [b, c, b]) == (None if None in alone else [sol for sol, in alone])
    assert solve(fld, a, []) == []
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


def _frozen_mat_combination(fld, n, coeffs, mats):
    # frozen reference: one mat_scale and one mat_add per nonzero coefficient
    out = zeros(n, n)
    for c, m in zip(coeffs, mats):
        if c:
            out = mat_add(fld, out, mat_scale(fld, c, m))
    return out


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mat_combination_matches_scale_and_add(data):
    fld = data.draw(st.sampled_from(FIELDS + [ext_field_build(5, 4)]), label="field")
    n = data.draw(st.integers(0, 5), label="n")
    k = data.draw(st.integers(0, 4), label="count")
    elements = st.integers(0, fld.q - 1)
    # zero coefficients are drawn often, and skipped
    coeffs = data.draw(st.lists(st.one_of(st.just(0), elements), min_size=k, max_size=k))
    mats = [[data.draw(st.lists(elements, min_size=n, max_size=n)) for _ in range(n)]
            for _ in range(k)]
    got = mat_combination(fld, n, coeffs, mats)
    assert got == _frozen_mat_combination(fld, n, coeffs, mats)
    assert all(type(row) is list for row in got) and len({id(row) for row in got}) == n


# ---------------------------------------------------------------------------
# the tables: every field of order <= 512 built by ext_field_build holds
# add/neg/mul/inv as tuples; a larger or bare field computes them


def _primes(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


def _table_fields(qmax):
    return [(p, e) for p in _primes(qmax) for e in range(1, 5) if p ** e <= qmax]


def _mul_slow(fld, a, b):
    """The reference product: the digit polynomials of a and b multiplied
    and reduced modulo the modulus, coefficients mod p."""
    p, e = fld.p, fld.e
    da, db = _digits(a, p, e), _digits(b, p, e)
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for deg in range(2 * e - 2, e - 1, -1):
        c = prod[deg]
        for i in range(e + 1):
            prod[deg - e + i] = (prod[deg - e + i] - c * fld.modulus[i]) % p
    return _undigits(prod[:e], p)


def _check_tables(fld, pairs):
    p, e = fld.p, fld.e
    for a, b in pairs:
        da, db = _digits(a, p, e), _digits(b, p, e)
        assert fld._add_table[a][b] == _undigits([x + y for x, y in zip(da, db)], p)
        assert fld._mul_table[a][b] == _mul_slow(fld, a, b)
    for a in {a for a, _ in pairs}:
        assert fld._neg_table[a] == _undigits([-x for x in _digits(a, p, e)], p)
        if a:
            assert _mul_slow(fld, a, fld._inv_table[a]) == 1


@pytest.mark.parametrize("key", _table_fields(125), ids=lambda k: "F%d^%d" % k)
def test_tables_exhaustive_small(key):
    fld = ext_field_build(*key)
    elems = range(fld.q)
    _check_tables(fld, [(a, b) for a in elems for b in elems])


# tuple tables up to GF(509), computed tables from GF(521) on
@pytest.mark.parametrize("key", [(127, 1), (13, 2), (17, 2), (7, 3), (19, 2), (509, 1),
                                 (521, 1), (5, 4), (7, 4), (11, 3), (101, 4)],
                         ids=lambda k: "F%d^%d" % k)
def test_tables_sampled_large(key):
    fld = ext_field_build(*key)
    rng = random.Random(fld.q)
    _check_tables(fld, [(rng.randrange(fld.q), rng.randrange(fld.q)) for _ in range(3000)])


def test_tuple_tables_only_up_to_512():
    for key in [(2, 4), (3, 4), (7, 3), (19, 2), (509, 1)]:
        fld = ext_field_build(*key)
        assert type(fld._add_table) is tuple and type(fld._mul_table) is tuple
    for key in [(5, 4), (7, 4), (23, 2), (521, 1), (101, 4)]:
        fld = ext_field_build(*key)
        tables = (fld._add_table, fld._neg_table, fld._mul_table, fld._inv_table)
        assert not any(type(t) is tuple for t in tables)
        # nothing is computed before it is looked up
        assert not any(map(len, tables))
        assert fld.mul(2, 3) == _mul_slow(fld, 2, 3)
        assert len(fld._mul_table) == 1 and not fld._add_table


def test_tables_do_not_change_equality():
    # nor the stored order and hash: a bare Field's match its tabled twin's
    for p, e in [(2, 1), (3, 2), (5, 2), (7, 3)]:
        fld = ext_field_build(p, e)
        bare = Field(fld.p, fld.e, fld.modulus)
        assert type(fld._mul_table) is tuple and type(bare._mul_table) is not tuple
        assert fld == bare and hash(fld) == hash(bare)
        assert fld.q == bare.q == p ** e
        assert repr(fld) == repr(bare) == "Field(p=%d, e=%d, modulus=%r)" % (p, e, fld.modulus)


DIFF_FIELDS = [prime_field(3), prime_field(5), ext_field_build(3, 2),
               ext_field_build(5, 2), ext_field_build(3, 4), ext_field_build(5, 4)]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_table_kernel_matches_field_methods(data):
    """The tuple tables against the computed tables of a bare Field of the
    same field (GF(5^4) is past the table limit, so both sides compute)."""
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
    k = rng.randrange(3 * fld.q)
    assert fld.pow(c, k) == bare.pow(c, k)
    assert fld.frobenius(c, 2) == bare.frobenius(c, 2)
    sq = sparse(cols, cols)
    assert power_ranks(fld, sq, cols + 1) == power_ranks(bare, sq, cols + 1)
    av = mat_vec(fld, a, v)
    assert solve(fld, a, [av, rhs]) == solve(bare, a, [av, rhs])
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
        assert any(ech.reduce(v)) == expected_new
        pc = ech.insert(v)
        assert (pc is not None) == expected_new
        assert ech.pivots == sorted(ech.pivots)
        assert all(row[pc] == 1 and not any(row[:pc]) for row, pc in zip(ech.rows, ech.pivots))
        assert len(ech.rows) == rank(fld, vectors[:k + 1])
    assert span_basis(fld, ech.rows) == span_basis(fld, vectors)


class _FrozenEchelon:
    """Frozen reference: the echelon on lists, with the slide that the
    graded kernel count made on its rows and pivots, before rows were
    packed."""

    def __init__(self, fld):
        self.fld, self.rows, self.pivots = fld, [], []

    def insert(self, v):
        fld = self.fld
        w = reduce_vector(fld, self.rows, self.pivots, v)
        pc = next(compress(range(len(w)), w), None)
        if pc is None:
            return None
        if w[pc] != 1:
            mc = fld._mul_table[fld.inv(w[pc])]
            w = [mc[x] for x in w]
        k = bisect_left(self.pivots, pc)
        self.rows.insert(k, w)
        self.pivots.insert(k, pc)
        return pc

    def slide(self, shift):
        k = bisect_left(self.pivots, shift)
        self.rows = [row[shift:] + [0] * shift for row in self.rows[k:]]
        self.pivots = [pc - shift for pc in self.pivots[k:]]
        return k


PACKED_PRIMES = [prime_field(p) for p in (2, 3, 5, 7, 11, 13)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_frozen_list_echelon(data):
    """Insert, reduce, rows, pivots and slide against the frozen list echelon over
    GF(2) .. GF(13), at widths on both sides of the packing break-even
    (16 columns), with zero vectors, combinations of earlier vectors,
    vectors given as bytes, and inserts that clear more pivots than the
    h(p) adds a byte has room for."""
    fld = data.draw(st.sampled_from(PACKED_PRIMES), label="field")
    p = fld.p
    headroom = (255 - (p - 1)) // (p - 1) ** 2
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    kind = data.draw(st.sampled_from(["random", "past headroom"]), label="kind")

    def sparse(width, density):
        return [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(width)]

    if kind == "random":
        width = data.draw(st.integers(1, 48), label="width")
        vectors = []
        for _ in range(data.draw(st.integers(1, 40), label="count")):
            roll = rng.random()
            if roll < 0.1:
                vectors.append([0] * width)
            elif roll < 0.35 and vectors:
                # a combination of earlier vectors
                coeffs = [rng.randrange(p) for _ in vectors]
                vectors.append(mat_vec(fld, transpose(vectors), coeffs))
            else:
                vectors.append(sparse(width, rng.choice([0.1, 0.5, 1.0])))
    else:
        # rows e_i + tail, i < k, in shuffled order, then a vector nonzero
        # at every e_i: its insert clears k > h(p) pivots in a row, and the
        # tail bytes would pass 255 without a reduction between adds
        k = headroom + 1 + rng.randrange(3)
        width = k + rng.randrange(1, 9)
        units = [[int(j == i) for j in range(k)] + sparse(width - k, 0.8) for i in range(k)]
        rng.shuffle(units)
        vectors = units + [sparse(k, 1.0) + sparse(width - k, 0.8), [0] * width]
    ech, frozen = Echelon(fld), _FrozenEchelon(fld)

    def insert_all(vs):
        for v in vs:
            given_v = bytes(v) if rng.random() < 0.5 else v
            assert ech.reduce(given_v) == reduce_vector(fld, frozen.rows, frozen.pivots, v)
            assert ech.insert(given_v) == frozen.insert(v)
            assert ech.pivots == frozen.pivots
        assert ech.rows == frozen.rows

    insert_all(vectors)
    for _ in range(2):
        shift = rng.randrange(width + 3)
        assert ech.slide(shift) == frozen.slide(shift)
        assert ech.pivots == frozen.pivots
        assert ech.rows == frozen.rows
        insert_all([sparse(width, 0.5) for _ in range(rng.randrange(4))])


# ---------------------------------------------------------------------------
# rank sequences of powers


def _ranks_of_powers(fld, n, k):
    return [rank(fld, mat_pow(fld, n, j)) for j in range(k + 1)]


def _planted(fld, dim, r, rng):
    """A random dim x dim matrix of rank at most r: its powers' ranks fall
    and then stay, usually above zero."""
    b = _random_matrix(fld, dim, r, rng)
    c = _random_matrix(fld, r, dim, rng)
    return mat_mul(fld, b, c) if r else zeros(dim, dim)


# (p, e): prime fields, GF(p^2), GF(p^3), and GF(11^3), which computes its tables
POWER_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (11, 3)]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_power_ranks_matches_ranks_of_powers(data):
    """power_ranks against rank(n^j) for every j <= k, on the field's
    tuple tables and on computed ones, on p-nilpotent matrices and on
    planted-rank ones whose rank sequence settles above zero."""
    from jordanbundles.modules import random_nilpotent

    p, e = data.draw(st.sampled_from(POWER_FIELDS), label="field")
    fld = ext_field_build(p, e)
    if data.draw(st.booleans(), label="bare"):
        fld = Field(p, e, fld.modulus)
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    dim = data.draw(st.integers(1, 6), label="dim")
    if data.draw(st.booleans(), label="nilpotent"):
        n = random_nilpotent(fld, dim, p, rng)
    else:
        n = _planted(fld, dim, rng.randint(0, dim), rng)
    k = data.draw(st.integers(0, dim + 2), label="k")
    assert power_ranks(fld, n, k) == _ranks_of_powers(fld, n, k)


@pytest.mark.parametrize("fld", [prime_field(3), ext_field_build(3, 2),
                                 Field(3, 2, ext_field_build(3, 2).modulus)],
                         ids=["F3", "F9", "F9-bare"])
def test_power_ranks_edge_cases(fld):
    # zero matrices, 1 x 1 matrices and the empty matrix
    for dim in range(5):
        assert power_ranks(fld, zeros(dim, dim), 4) == [dim] + [0] * 4
    for c in range(fld.q):
        assert power_ranks(fld, [[c]], 3) == [1] + [1 if c else 0] * 3
    assert power_ranks(fld, [[2]], 0) == [1]
    # a Jordan block of size 2 beside an invertible 1 x 1 block: the rank
    # stops falling at 1, above zero
    n = [[0, 1, 0], [0, 0, 0], [0, 0, 2]]
    assert power_ranks(fld, n, 5) == _ranks_of_powers(fld, n, 5) == [3, 2, 1, 1, 1, 1]
    # one Jordan block of size 4
    j4 = [[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    assert power_ranks(fld, j4, 6) == [4, 3, 2, 1, 0, 0, 0]


# ---------------------------------------------------------------------------
# the packed kernel of row_reduce (GF(p), p <= 13) against the per-entry
# elimination it replaced, frozen here


def _frozen_row_reduce(fld, a):
    """``row_reduce`` before rows were packed: every pivot row clears the
    others through its nonzero entries, on lists."""
    work = [list(row) for row in a]
    if not work:
        return [], []
    nrows, ncols = len(work), len(work[0])
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        targets = [wi for wi in work if wi[col] and wi is not prow]
        if targets or prow[col] != 1:
            support = list(compress(range(col, ncols), prow[col:]))
            if prow[col] != 1:
                inv = fld.inv(prow[col])
                for j in support:
                    prow[j] = fld.mul(inv, prow[j])
            nz = [(j, prow[j]) for j in support]
        for wi in targets:
            m = mul[neg[wi[col]]]
            for j, y in nz:
                wi[j] = add[wi[j]][m[y]]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def _frozen_kernel_basis(fld, rref, pivots, ncols):
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [0] * ncols
        v[j] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = fld.neg(row[j])
        basis.append(v)
    return basis


PACKED_SHAPES = ["0xn", "1xn", "nx1", "zero-rows", "dense", "low-rank", "sparse", "commutant",
                 "wide", "rank-one", "pending"]


def _packed_input(shape, p, rng):
    """A matrix over GF(p) of the given shape, and its column count."""
    def entry(density):
        return rng.randrange(1, p) if rng.random() < density else 0

    def rows(m, n, density):
        return [[entry(density) for _ in range(n)] for _ in range(m)]

    def uniform(m, n):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]

    if shape == "0xn":
        return [], rng.randint(1, 20)
    if shape == "1xn":
        n = rng.randint(1, 400)
        return rows(1, n, rng.choice([0.02, 0.5, 1.0])), n
    if shape == "nx1":
        return rows(rng.randint(1, 30), 1, 0.5), 1
    if shape == "zero-rows":
        m, n = rng.randint(1, 30), rng.randint(1, 40)
        return [[0] * n if rng.random() < 0.4 else row for row in rows(m, n, 0.8)], n
    if shape == "dense":
        m, n = rng.randint(1, 50), rng.randint(1, 50)
        return rows(m, n, 1.0), n
    if shape == "low-rank":
        # combinations of a few dense rows: the later rows clear to zero
        m, n = rng.randint(2, 50), rng.randint(2, 50)
        base = rows(rng.randint(1, min(m, n) - 1), n, 1.0)
        out = []
        for _ in range(m):
            acc = [0] * n
            for row in rng.sample(base, min(2, len(base))):
                c = rng.randrange(p)
                acc = [(x + c * y) % p for x, y in zip(acc, row)]
            out.append(acc)
        return out, n
    # wide, rank-one and pending have at least 32 rows: smaller systems clear
    # by each pivot row at once, with no block
    if shape == "wide":
        # 17 unit rows over p - 1 then a row of ones over p - 1: a flush of
        # the most block rows the headroom allows takes its largest sums
        # (p - 1) + depth (p - 1)^2 there; then dense rows, so that blocks
        # of 16 flush at least twice
        n = rng.randint(40, 250)
        m = rng.randint(40, min(n, 120))
        head = [[int(i == j) for j in range(17)] + [p - 1] * (n - 17) for i in range(17)]
        return head + [[1] * 17 + [p - 1] * (n - 17)] + uniform(m - 18, n), n
    if shape == "rank-one":
        # every column after the first pivot is pivotless while its block
        # is pending
        n = rng.randint(30, 150)
        return [row[:] for row in rows(1, n, 1.0) * rng.randint(32, 70)], n
    if shape == "pending":
        # a few dense rows and their combinations: entries as stored differ
        # from those after the pending block's updates
        n = rng.randint(30, 120)
        base = uniform(rng.randint(2, 20), n)
        out = []
        for _ in range(rng.randint(32, 70)):
            acc = [0] * n
            for row in base:
                c = rng.randrange(p) if rng.random() < 0.5 else 0
                acc = [(x + c * y) % p for x, y in zip(acc, row)]
            out.append(acc)
        return out, n
    if shape == "sparse":
        # 5% of the entries, as in a 200 x 400 system: fill-in packs it
        m = rng.randint(30, 100)
        return rows(m, 2 * m, 0.05), 2 * m
    # commutant-like: 3 or 4 nonzeros a row, twice as many rows as columns
    n = rng.randint(10, 80)
    out = []
    for _ in range(2 * n):
        row = [0] * n
        for j in rng.sample(range(n), rng.choice([3, 4])):
            row[j] = rng.randrange(1, p)
        out.append(row)
    return out, n


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_packed_row_reduce_matches_frozen_elimination(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]), label="p")
    fld = data.draw(st.sampled_from([prime_field(p), Field(p, 1, (0, 1))]), label="field")
    shape = data.draw(st.sampled_from(PACKED_SHAPES), label="shape")
    a, ncols = _packed_input(shape, p, random.Random(data.draw(st.integers(0, 10**6), label="seed")))
    before = [row[:] for row in a]
    expected = _frozen_row_reduce(fld, a)
    got = row_reduce(fld, a)
    assert got == expected
    inputs = {id(row) for row in a}
    assert all(type(row) is list and id(row) not in inputs for row in got[0])
    assert row_reduce(fld, (row for row in a)) == expected
    assert a == before
    assert rank(fld, a) == len(expected[1])
    assert kernel_basis(fld, a, ncols) == _frozen_kernel_basis(fld, *expected, ncols)
    assert a == before
