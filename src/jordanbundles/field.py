"""Exact arithmetic in GF(p^e) (e <= 4) and dense exact linear algebra over it.

Field elements are plain ints in [0, p^e).  The base-p digits of an element
are its coordinates in the power basis 1, g, g^2, ... of the extension,
where g is a root of the chosen monic irreducible modulus.  For e == 1 an
element is simply a residue mod p.  This keeps matrices as lists of ints and
makes hashing/comparison trivial.

Fields of order at most 512, prime fields included, are table-driven: the
fields built by ``ext_field_build`` carry addition, negation,
multiplication and inversion tables, and every elimination and product
runs on table lookups.  Larger fields, and a ``Field`` constructed without
tables, use residue arithmetic (e == 1) or digit arithmetic (e > 1)
through the ``Field`` methods.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

Matrix = List[List[int]]
Vector = List[int]
Table = Tuple[Tuple[int, ...], ...]

_TABLE_LIMIT = 512  # build arithmetic tables for fields up to this order


def _poly_mul_mod(a: Tuple[int, ...], b: Tuple[int, ...], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _digits(n: int, p: int, width: int) -> Tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return tuple(out)


def _undigits(coeffs: Sequence[int], p: int) -> int:
    n = 0
    for c in reversed(coeffs):
        n = n * p + (c % p)
    return n


@dataclass(frozen=True)
class Field:
    """GF(p^e) with a fixed monic irreducible modulus.

    ``modulus`` holds the coefficients of the modulus from the constant term
    up, including the leading 1; for e == 1 it is (0, 1), i.e. the polynomial
    g, which is never used.  The tables (see ``ext_field_build``) do not
    take part in equality or hashing.
    """

    p: int
    e: int
    modulus: Tuple[int, ...]
    _mul_table: Optional[Table] = dc_field(default=None, repr=False, compare=False)
    _inv_table: Optional[Tuple[int, ...]] = dc_field(default=None, repr=False, compare=False)
    _add_table: Optional[Table] = dc_field(default=None, repr=False, compare=False)
    _neg_table: Optional[Tuple[int, ...]] = dc_field(default=None, repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        return _undigits(
            [x + y for x, y in zip(_digits(a, p, self.e), _digits(b, p, self.e))], p
        )

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        return _undigits([-x for x in _digits(a, p, self.e)], p)

    def sub(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][self._neg_table[b]]
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if self.e == 1:
            return (a * b) % self.p
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = _poly_mul_mod(_digits(a, p, e), _digits(b, p, e), p)
        # reduce modulo the modulus (monic of degree e)
        for deg in range(len(prod) - 1, e - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(e):
                    prod[deg - e + i] = (prod[deg - e + i] - c * self.modulus[i]) % p
        return _undigits(prod[:e], p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d^%d)" % (self.p, self.e))
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 1 if n == 0 else 0
        n %= self.q - 1
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def frobenius(self, a: int, s: int = 1) -> int:
        """a^(p^s)."""
        return self.pow(a, self.p ** s) if a else 0

    def __str__(self) -> str:
        if self.e == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.e)


def _is_irreducible(coeffs: Tuple[int, ...], p: int) -> bool:
    """Test a monic polynomial (low-to-high coeffs, leading 1) for
    irreducibility over GF(p) by trial division; fine for degree <= 4."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    # no roots rules out all factors for degree 2 and 3
    for r in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # degree 4: also exclude irreducible quadratic factors
    for b in range(p):
        for c in range(p):
            quad = (c, b, 1)
            if not _is_irreducible(quad, p):
                continue
            # polynomial division of coeffs by quad
            rem = list(coeffs)
            for d in range(deg, 1, -1):
                lead = rem[d]
                if lead:
                    rem[d] = 0
                    rem[d - 1] = (rem[d - 1] - lead * b) % p
                    rem[d - 2] = (rem[d - 2] - lead * c) % p
            if not any(rem):
                return False
    return True


def ext_field_build(p: int, e: int) -> Field:
    """Build GF(p^e) with the lexicographically smallest monic irreducible
    modulus (smallest when the coefficient vector is read as a base-p
    integer, constant term least significant)."""
    if e < 1 or e > 4:
        raise ValueError("extension degree must be between 1 and 4")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if e == 1:
        modulus: Optional[Tuple[int, ...]] = (0, 1)
    else:
        modulus = None
        for k in range(p ** e):
            coeffs = _digits(k, p, e) + (1,)
            if _is_irreducible(coeffs, p):
                modulus = coeffs
                break
    assert modulus is not None
    fld = Field(p, e, modulus)
    if fld.q <= _TABLE_LIMIT:
        fld = Field(p, e, modulus, *_tables(fld))
    return fld


def _tables(fld: Field) -> Tuple[Table, Tuple[int, ...], Table, Tuple[int, ...]]:
    """(mul, inv, add, neg) tables of a field, from the exp/log tables of a
    primitive element g and from digitwise addition.  inv[0] is 0."""
    p, e, q = fld.p, fld.e, fld.q
    n = q - 1  # order of the multiplicative group
    for g in range(1, q):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = fld.mul(x, g)
        if len(exp) == n:
            break
    log = [0] * q
    for k, x in enumerate(exp):
        log[x] = k
    # mul[a][b] = g^(log a + log b): a rotation of exp read in the order of
    # log, with a 0 appended at index n for b = 0
    exp2 = exp + exp
    by_log = itemgetter(n, *log[1:])
    mul = [(0,) * q] + [by_log(exp2[log[a]:log[a] + n] + [0]) for a in range(1, q)]
    inv = (0,) + tuple(exp[-log[a] % n] for a in range(1, q))
    # a + b digit by digit; index b = sum b_i p^i, lowest digit fastest
    add = []
    for a in range(q):
        row = [0]
        step, rest = 1, a
        for _ in range(e):
            shifts = [(rest % p + t) % p * step for t in range(p)]
            row = [s + x for s in shifts for x in row]
            step, rest = step * p, rest // p
        add.append(tuple(row))
    neg = tuple(row.index(0) for row in add)
    return tuple(mul), inv, tuple(add), neg


def prime_field(p: int) -> Field:
    return ext_field_build(p, 1)


def enumerate_elements(fld: Field) -> Iterator[int]:
    """All field elements in a fixed deterministic order (0 first)."""
    return iter(range(fld.q))


# ---------------------------------------------------------------------------
# dense exact linear algebra
# ---------------------------------------------------------------------------


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(fld: Field, n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_add(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    add = fld._add_table
    if add is None:
        return [[fld.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[add[x][y] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    add, neg = fld._add_table, fld._neg_table
    if add is None:
        return [[fld.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[add[x][neg[y]] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(fld: Field, c: int, a: Matrix) -> Matrix:
    if fld._mul_table is None:
        return [[fld.mul(c, x) for x in row] for row in a]
    mc = fld._mul_table[c]
    return [[mc[x] for x in row] for row in a]


def mat_mul(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    m = len(b[0])
    add, mul = fld._add_table, fld._mul_table
    # the nonzero entries of each row of b, found once
    b_nz = [[(j, y) for j, y in enumerate(bt) if y] for bt in b]
    out: Matrix = []
    for ai in a:
        oi = [0] * m
        for c, bt in zip(ai, b_nz):
            if not c:
                continue
            if add is None:
                for j, y in bt:
                    oi[j] = fld.add(oi[j], fld.mul(c, y))
            else:
                mc = mul[c]
                for j, y in bt:
                    oi[j] = add[oi[j]][mc[y]]
        out.append(oi)
    return out


def mat_vec(fld: Field, a: Matrix, v: Vector) -> Vector:
    add, mul = fld._add_table, fld._mul_table
    out = [0] * len(a)
    for i, row in enumerate(a):
        acc = 0
        for c, x in zip(row, v):
            if c and x:
                if add is None:
                    acc = fld.add(acc, fld.mul(c, x))
                else:
                    acc = add[acc][mul[c][x]]
        out[i] = acc
    return out


def mat_pow(fld: Field, a: Matrix, n: int) -> Matrix:
    """a^n as a new matrix: starts from the first factor, not from a product
    with the identity, and squares only while bits of n remain."""
    result = None
    base = [row[:] for row in a]
    while n:
        if n & 1:
            result = base if result is None else mat_mul(fld, result, base)
        n >>= 1
        if n:
            base = mat_mul(fld, base, base)
    return identity(fld, len(a)) if result is None else result


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def row_reduce(fld: Field, a: Iterable[Sequence[int]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form.  Returns (rref, pivot column indices); zero
    rows are dropped, which makes the output a canonical form of the row
    space.  The rows are copied, so ``a`` may be a generator.

    Each pivot row is cleared from the other rows through its nonzero
    entries only (it is zero left of its pivot), by table lookups when the
    field has tables and by ``Field`` methods otherwise."""
    work = [list(row) for row in a]
    if not work:
        return [], []
    nrows, ncols = len(work), len(work[0])
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table
    pivots: List[int] = []
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
            c = wi[col]
            if add is None:
                for j, y in nz:
                    wi[j] = fld.sub(wi[j], fld.mul(c, y))
            else:
                m = mul[neg[c]]
                for j, y in nz:
                    wi[j] = add[wi[j]][m[y]]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def reduce_vector(fld: Field, rref: Matrix, pivots: Sequence[int], v: Vector) -> Vector:
    """v minus its combination of the rows of an echelon matrix (with the
    given pivot columns, rows in pivot order, leading entries 1) that clears
    every pivot coordinate: zero exactly when v lies in the row space, and
    the canonical representative of v modulo it when the matrix is in RREF."""
    out = list(v)
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table
    for row, pc in zip(rref, pivots):
        c = out[pc]
        if not c:
            continue
        if add is None:
            out[pc:] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(out[pc:], row[pc:])]
        else:
            m = mul[neg[c]]
            out[pc:] = [add[x][m[y]] for x, y in zip(out[pc:], row[pc:])]
    return out


class Echelon:
    """A basis in row echelon form grown one vector at a time: rows with
    leading entry 1, kept in pivot order.  Deciding whether a vector is new
    costs one ``reduce_vector`` against the rows held so far, instead of a
    re-reduction of the whole span."""

    def __init__(self, fld: Field, vectors: Iterable[Sequence[int]] = ()):
        self.fld = fld
        self.rows: Matrix = []
        self.pivots: List[int] = []
        for v in vectors:
            self.insert(v)

    def insert(self, v: Sequence[int]) -> Optional[int]:
        """Add v to the span.  Returns the pivot column of its reduced form,
        or None when v already lies in the span (which is left unchanged)."""
        fld = self.fld
        w = reduce_vector(fld, self.rows, self.pivots, v)
        pc = next((j for j, x in enumerate(w) if x), None)
        if pc is None:
            return None
        if w[pc] != 1:
            c = fld.inv(w[pc])
            if fld._mul_table is None:
                w = [fld.mul(c, x) for x in w]
            else:
                mc = fld._mul_table[c]
                w = [mc[x] for x in w]
        k = bisect_left(self.pivots, pc)
        self.rows.insert(k, w)
        self.pivots.insert(k, pc)
        return pc


def rank(fld: Field, a: Matrix) -> int:
    return len(row_reduce(fld, a)[1])


def kernel_basis(fld: Field, a: Iterable[Sequence[int]], ncols: Optional[int] = None) -> List[Vector]:
    """Canonical basis of the right kernel {v : a v = 0}, normalized from the
    reduced echelon form (free variable set to 1, read off in column order).
    With ``ncols`` given, ``a`` may be a generator of rows."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    rref, pivots = row_reduce(fld, a)
    pivot_set = set(pivots)
    basis: List[Vector] = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = 1
        for row, pc in zip(rref, pivots):
            if row[j]:
                v[pc] = fld.neg(row[j])
        basis.append(v)
    return basis


def span_basis(fld: Field, vectors: Iterable[Sequence[int]]) -> Matrix:
    """Canonical (RREF) basis of the span of the given vectors."""
    return row_reduce(fld, vectors)[0]


def in_span(fld: Field, vectors: Sequence[Vector], v: Vector) -> bool:
    base = span_basis(fld, vectors)
    return len(row_reduce(fld, base + [list(v)])[1]) == len(base)


def solve(fld: Field, a: Matrix, b: Vector) -> Optional[Vector]:
    """One solution of a x = b, or None."""
    nc = len(a[0]) if a else 0
    aug = [row + [bv] for row, bv in zip(a, b)]
    rref, pivots = row_reduce(fld, aug)
    if nc in pivots:
        return None
    x = [0] * nc
    for i, pc in enumerate(pivots):
        x[pc] = rref[i][nc]
    return x


def inverse(fld: Field, a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(fld, n))]
    rref, pivots = row_reduce(fld, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]


def random_invertible(fld: Field, n: int, rng) -> Matrix:
    while True:
        a = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(n)]
        if rank(fld, a) == n:
            return a


__all__ = [
    "Field",
    "Matrix",
    "Vector",
    "ext_field_build",
    "prime_field",
    "enumerate_elements",
    "zeros",
    "identity",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_mul",
    "mat_vec",
    "mat_pow",
    "transpose",
    "is_zero_matrix",
    "row_reduce",
    "reduce_vector",
    "Echelon",
    "rank",
    "kernel_basis",
    "span_basis",
    "in_span",
    "solve",
    "inverse",
    "random_invertible",
]
