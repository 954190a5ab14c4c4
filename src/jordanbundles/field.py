"""Exact arithmetic in GF(p^e) (e <= 4) and dense exact linear algebra over it.

Field elements are plain ints in [0, p^e).  The base-p digits of an element
are its coordinates in the power basis 1, g, g^2, ... of the extension,
where g is a root of the chosen monic irreducible modulus.  For e == 1 an
element is simply a residue mod p.  This keeps matrices as lists of ints and
makes hashing/comparison trivial.

All arithmetic is a lookup in a field's tables: add[a][b], neg[a],
mul[a][b], inv[a].  The fields of order at most 512 built by
``ext_field_build`` hold them as tuples.  A larger field, or a bare
``Field``, computes them, holding nothing of size q: row a of add or mul is
built at its first lookup and kept, holds a's residue or digits, and
computes each entry when read; an entry of inv or neg is computed at its
first lookup and kept.

``row_reduce`` over GF(p) with p <= 13 packs dense pivot rows, one entry
per byte, after Dumas, Fousse & Salvy (J. Symbolic Comput. 46, 2011):
since (p - 1) + (p - 1)^2 <= 255, clearing row w by a pivot row v is one
big-int add w + (p - c) v with no carry between bytes, and one
``bytes.translate`` reduces every entry mod p.  Elimination switches to
packed rows at the first pivot row dense enough for a measured rule (see
``row_reduce``); sparse systems, such as the commutant systems of the
summand splitter, keep the per-entry update throughout.  Reduction is
delayed, after Dumas, Gautier & Pernet (ISSAC 2002): a byte holding an
entry of at most p - 1 has headroom for h(p) = (255 - (p - 1)) // (p - 1)^2
more terms (p - c) v, 254, 63, 15, 6, 2 and 1 for p = 2 ... 13, so in a
system of 32 rows or more up to min(h(p), 16) packed pivot rows wait in a
block and clear each other row at once, with one ``translate``.  A column
with no pivot flushes the block, so that a rank-deficient system does not
read every row through it in each later column.  The packed kernel's
tables are 256-byte ``translate`` tables per prime, x -> x mod p and
x -> x / c mod p, built on first use.  Extension fields and p >= 17 run
the per-entry elimination only.  ``Echelon`` packs its rows in the same
way, over the same tables, once it is 16 columns wide.

``power_ranks(fld, n, k)`` gives the rank sequence [rank n^0, ..., rank
n^k] of a square matrix from iterated images, never forming a power: the
row space of n^(i+1) is the row space of n^i times n, so each step
eliminates the r_i rows kept from the step before and multiplies them by
n.  Local Jordan types, ker/im fiber dimensions, the rank scans and the
summand splitter's Fitting scans all read it.

``commutant_basis`` solves AX = XA in a basis P where X' = P^-1 X P has
few unknowns: the eigenblocks of an action matrix diagonalisable over
F_q, else the Toeplitz diagonals of the block upper-triangular commutant
of a nilpotent in its Jordan basis (``jordan_basis``, from the top-down
chains of ``jordan_chains``, which the Jordan-chain oracle also reads),
else all n^2 entries.  The images P E_u P^-1 of the unknowns, one
product and one row reduction give the canonical basis of the commutant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import compress
from math import isqrt
from operator import getitem, itemgetter, mul as times
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

Matrix = List[List[int]]
Vector = List[int]
Table = Tuple[Tuple[int, ...], ...]

_TABLE_LIMIT = 512  # build arithmetic tables for fields up to this order


class EngineInvariantError(RuntimeError):
    """A theorem the engine relies on failed to hold in a computation: a
    bug in the engine, never a fault of the input."""


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


class _Computed(dict):
    """A computed table, indexed like a tuple table: the entry for a is
    ``make(a)``, computed at the first lookup of a and then kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, a: int):
        value = self[a] = self.make(a)
        return value


class _ResidueRow:
    """Row a of the addition or multiplication table of GF(p): row[b] is
    (offset + factor b) mod p, with (factor, offset) = (1, a) for a + b
    and (a, 0) for a b."""

    __slots__ = ("p", "factor", "offset")

    def __init__(self, p: int, factor: int, offset: int = 0):
        self.p, self.factor, self.offset = p, factor, offset

    def __getitem__(self, b: int) -> int:
        return (self.offset + self.factor * b) % self.p


class _DigitRow:
    """Row a of the addition or multiplication table of GF(p^e), e > 1: the
    digits of an element are packed into one integer, a field of bits per
    digit, and row[b] is offset + sum b_i cols[i] over the digits b_i of b,
    read back field by field mod p, with (offset, cols[i]) = (a, g^i) for
    a + b and (0, a g^i) for a b."""

    __slots__ = ("p", "mask", "shifts", "offset", "cols")

    def __init__(self, p: int, mask: int, shifts: Tuple[int, ...], offset: int,
                 cols: Tuple[int, ...]):
        self.p, self.mask, self.shifts, self.offset, self.cols = p, mask, shifts, offset, cols

    def __getitem__(self, b: int) -> int:
        p, mask = self.p, self.mask
        acc = self.offset
        for col in self.cols:
            if not b:
                break
            acc += b % p * col
            b //= p
        n = 0
        for shift in self.shifts:
            n = n * p + (acc >> shift & mask) % p
        return n


def _power(mul, a: int, n: int) -> int:
    """a^n by squaring and multiplying on the rows of a multiplication
    table."""
    result = 1
    while n:
        row = mul[a]
        if n & 1:
            result = row[result]
        n >>= 1
        a = row[a]
    return result


def _computed_tables(p: int, e: int, modulus: Tuple[int, ...]) -> Tuple[_Computed, ...]:
    """(mul, inv, add, neg) of GF(p^e) as computed tables."""
    if e == 1:
        mul_row, add_row = partial(_ResidueRow, p), partial(_ResidueRow, p, 1)
    else:
        # powers[j] is g^j packed; a mul row's a g^i = sum_k a_k g^(i+k) is
        # left unreduced, so a field of row[b] sums e^2 products (p - 1)^3
        width = (e * e * (p - 1) ** 3).bit_length()
        mask, shifts = (1 << width) - 1, tuple(k * width for k in reversed(range(e)))
        powers, d = [], [1] + [0] * (e - 1)
        for _ in range(2 * e - 1):
            powers.append(sum(x << (k * width) for k, x in enumerate(d)))
            # times g: shift the digits up and reduce g^e by the modulus
            d = [(x - d[-1] * m) % p for x, m in zip([0] + d[:-1], modulus)]
        units = tuple(powers[:e])  # g^i for i < e: one digit each

        def mul_row(a: int) -> _DigitRow:
            d = _digits(a, p, e)
            return _DigitRow(p, mask, shifts, 0,
                             tuple(sum(map(times, d, powers[i:i + e])) for i in range(e)))

        def add_row(a: int) -> _DigitRow:
            return _DigitRow(p, mask, shifts, sum(map(times, _digits(a, p, e), units)), units)

    # the rows an inverse builds are dropped with it
    return (_Computed(mul_row), _Computed(lambda a: _power(_Computed(mul_row), a, p ** e - 2)),
            _Computed(add_row), _Computed(lambda a: _undigits([-x for x in _digits(a, p, e)], p)))


@dataclass(frozen=True)
class Field:
    """GF(p^e) with a fixed monic irreducible modulus.

    ``modulus`` holds the coefficients of the modulus from the constant term
    up, including the leading 1; for e == 1 it is (0, 1), i.e. the polynomial
    g, which is never used.  The tables (see ``ext_field_build`` and
    ``__post_init__``) do not take part in equality or hashing.  The order
    ``q`` and the hash of (p, e, modulus) are computed once, at
    construction: fields key every memo of evaluated matrices and Jordan
    types, and ``q`` is read by every ``pow`` and point enumeration.
    """

    p: int
    e: int
    modulus: Tuple[int, ...]
    _mul_table: Optional[Table] = dc_field(default=None, repr=False, compare=False)
    _inv_table: Optional[Tuple[int, ...]] = dc_field(default=None, repr=False, compare=False)
    _add_table: Optional[Table] = dc_field(default=None, repr=False, compare=False)
    _neg_table: Optional[Tuple[int, ...]] = dc_field(default=None, repr=False, compare=False)
    q: int = dc_field(init=False, repr=False, compare=False)
    _hash: int = dc_field(init=False, repr=False, compare=False)
    _frobenius: dict = dc_field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", self.p ** self.e)
        object.__setattr__(self, "_hash", hash((self.p, self.e, self.modulus)))
        if not self._mul_table:
            tables = _computed_tables(self.p, self.e, self.modulus)
            for name, table in zip(("_mul_table", "_inv_table", "_add_table", "_neg_table"), tables):
                object.__setattr__(self, name, table)

    def __hash__(self) -> int:
        return self._hash

    def add(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self._add_table[a][self._neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d^%d)" % (self.p, self.e))
        return self._inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 1 if n == 0 else 0
        return _power(self._mul_table, a, n % (self.q - 1))

    def frobenius(self, a: int, s: int = 1) -> int:
        """a^(p^s)."""
        return self.frobenius_table(s)[a]

    def frobenius_table(self, s: int):
        """The table a -> a^(p^s), built at its first use and kept: a tuple
        of q entries when the field's tables are built, computed entries
        when they are computed, so nothing of size q is built past the
        table limit."""
        table = self._frobenius.get(s)
        if table is None:
            n = self.p ** s
            if isinstance(self._mul_table, _Computed):
                table = _Computed(lambda a: self.pow(a, n) if a else 0)
            else:
                table = tuple(self.pow(a, n) if a else 0 for a in range(self.q))
            self._frobenius[s] = table
        return table

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


def is_prime(n: int) -> bool:
    """Whether n is a prime, by trial division."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def ext_field_build(p: int, e: int) -> Field:
    """Build GF(p^e) with the lexicographically smallest monic irreducible
    modulus (smallest when the coefficient vector is read as a base-p
    integer, constant term least significant)."""
    if e < 1 or e > 4:
        raise ValueError("extension degree must be between 1 and 4")
    if not is_prime(p):
        raise ValueError("p must be a prime, got %d" % p)
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
        exp, times_g = [1], fld._mul_table[g]
        x = g
        while x != 1:
            exp.append(x)
            x = times_g[x]
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
    return [[add[x][y] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    add, neg = fld._add_table, fld._neg_table
    return [[add[x][neg[y]] for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(fld: Field, c: int, a: Matrix) -> Matrix:
    mc = fld._mul_table[c]
    return [[mc[x] for x in row] for row in a]


def mat_mul(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    return _mat_mul_nz(fld, a, _row_nonzeros(b), len(b[0]))


def _row_nonzeros(b: Matrix) -> List[List[Tuple[int, int]]]:
    """The nonzero entries (j, y) of each row of b."""
    return [[(j, y) for j, y in enumerate(bt) if y] for bt in b]


def _mat_mul_nz(fld: Field, a: Matrix, b_nz: List[List[Tuple[int, int]]], m: int) -> Matrix:
    """a b for the m-column matrix b given by ``_row_nonzeros(b)``."""
    add, mul = fld._add_table, fld._mul_table
    out: Matrix = []
    for ai in a:
        oi = [0] * m
        for c, bt in zip(ai, b_nz):
            if not c:
                continue
            mc = mul[c]
            for j, y in bt:
                oi[j] = add[oi[j]][mc[y]]
        out.append(oi)
    return out


def mat_sub_scalar(fld: Field, a: Matrix, lam: int) -> Matrix:
    """a - lam * 1 as a new matrix."""
    out = [row[:] for row in a]
    for i in range(len(a)):
        out[i][i] = fld.sub(out[i][i], lam)
    return out


def mat_combination(fld: Field, n: int, coeffs: Sequence[int], mats: Sequence[Matrix]) -> Matrix:
    """The n x n matrix sum of c * m over the pairs of coefficients and
    matrices."""
    out = zeros(n, n)
    for c, m in zip(coeffs, mats):
        if c:
            out = mat_add(fld, out, mat_scale(fld, c, m))
    return out


def _eigenbasis(fld: Field, a: Matrix) -> Optional[Tuple[Matrix, List[int]]]:
    """When a is diagonalisable over F_q with more than one eigenvalue (a is
    no scalar and a^q = a, as x^q - x has the elements of F_q as simple
    roots): a basis of eigenvectors grouped by eigenvalue, and the group
    sizes.  Else None."""
    n = len(a)
    if all(a[i][j] == (a[0][0] if i == j else 0) for i in range(n) for j in range(n)):
        return None
    if mat_pow(fld, a, fld.q) != a:
        return None
    vectors: Matrix = []
    sizes: List[int] = []
    for lam in range(fld.q):
        space = kernel_basis(fld, mat_sub_scalar(fld, a, lam), n)
        if space:
            vectors += space
            sizes.append(len(space))
    return vectors, sizes


def kernel_form(fld: Field, mats: Iterable[Matrix], n: int) -> List[Matrix]:
    """The basis of the span of the n x n matrices ``mats`` that
    ``kernel_basis`` returns for any system in the n^2 entries (row-major)
    whose solutions are that span.  Each of its vectors ends in a 1 at a
    coordinate where the others vanish, so read backwards they are the RREF
    of the span with its rows in reverse order: the basis depends only on
    the span."""
    flat = ([x for row in reversed(m) for x in reversed(row)] for m in mats)
    return _kernel_form_flat(fld, flat, n)


def _kernel_form_flat(fld: Field, flat: Iterable[Vector], n: int) -> List[Matrix]:
    """``kernel_form`` of the matrices given flattened in its order: entry
    (r, c) at coordinate n^2 - 1 - (r n + c)."""
    rref, _ = row_reduce(fld, flat)
    return [[v[i * n:(i + 1) * n] for i in range(n)]
            for v in (row[::-1] for row in reversed(rref))]


def jordan_chains(fld: Field, n: Matrix) -> List[List[Vector]]:
    """Jordan chains of a nilpotent square matrix, longest first, each from
    its bottom, a vector of ker n, up to its top t: [n^(h-1) t, ..., n t, t].

    Built top-down: for h from the height of n down to 1, a vector t of a
    basis of ker n^h starts a chain of length h when it is independent
    modulo ker n^(h-1) and the vectors at height h of the chains begun
    before it.  As n^(h-1) maps ker n^h onto a subspace of ker n with kernel
    ker n^(h-1), and those vectors onto the bottoms of their chains, that
    holds exactly when n^(h-1) t is independent of the bottoms so far.
    Raises ``ValueError`` when n is not nilpotent."""
    dim = len(n)
    powers = [identity(fld, dim), n]
    while not is_zero_matrix(powers[-1]):
        if len(powers) > dim:
            raise ValueError("matrix is not nilpotent")
        powers.append(mat_mul(fld, powers[-1], n))
    height = len(powers) - 1
    bottoms = Echelon(fld)
    tops: List[Tuple[int, Vector]] = []
    for h in range(height, 0, -1):
        # n^(h-1) t for each t: a row times (n^(h-1))^T, or for the unit
        # vectors that span ker n^height a column of n^(h-1)
        if h == height:
            ker, images = powers[0], transpose(powers[h - 1])
        else:
            ker = kernel_basis(fld, powers[h], dim)
            images = ker if h == 1 else mat_mul(fld, ker, transpose(powers[h - 1]))
        tops += [(h, t) for t, b in zip(ker, images) if bottoms.insert(b) is not None]
    chains = [[t] for _, t in tops]  # each from its top down while built
    n_t = transpose(n)
    for i in range(1, height):
        live = [chain for chain, (h, _) in zip(chains, tops) if h > i]
        for chain, v in zip(live, mat_mul(fld, [chain[-1] for chain in live], n_t)):
            chain.append(v)
    return [chain[::-1] for chain in chains]


def jordan_basis(fld: Field, n: Matrix) -> Tuple[Matrix, Matrix, List[int]]:
    """(P, P^-1, block sizes) for a nilpotent square matrix n: the columns
    of P are the chains of ``jordan_chains``, so P^-1 n P is the Jordan
    matrix with blocks of those sizes, longest first, each with 1 on its
    superdiagonal.  A P that is singular, or that does not conjugate n to
    that matrix, is an ``EngineInvariantError``."""
    dim = len(n)
    chains = jordan_chains(fld, n)
    cols = [v for chain in chains for v in chain]
    if len(cols) != dim:
        raise EngineInvariantError("Jordan chains hold %d vectors in dimension %d"
                                   % (len(cols), dim))
    # n P = P J: n maps each chain vector to the one below it, a bottom to 0
    if dim and mat_mul(fld, cols, transpose(n)) != [w for chain in chains
                                                    for w in [[0] * dim] + chain[:-1]]:
        raise EngineInvariantError("Jordan chains do not conjugate the matrix to its Jordan form")
    p = transpose(cols)
    return p, _basis_inverse(fld, p, "Jordan chains"), [len(chain) for chain in chains]


def _basis_inverse(fld: Field, p: Matrix, what: str) -> Matrix:
    """P^-1 for a P whose columns a theorem makes a basis: a singular P is
    an ``EngineInvariantError``, not ``inverse``'s ``ValueError``."""
    try:
        return inverse(fld, p)
    except ValueError:
        raise EngineInvariantError("%s do not form a basis" % what) from None


# The structures of commutant_basis: the positions of X' = P^-1 X P that
# each unknown fills, every other entry of X' being 0.
Cells = List[List[Tuple[int, int]]]


def _block_cells(sizes: Sequence[int]) -> Cells:
    """Every entry of each diagonal block its own unknown."""
    cells: Cells = []
    start = 0
    for d in sizes:
        cells += [[(i, j)] for i in range(start, start + d) for j in range(start, start + d)]
        start += d
    return cells


def _toeplitz_cells(sizes: Sequence[int]) -> Cells:
    """One unknown per diagonal j - i = d of block (a, b) with
    max(0, m_b - m_a) <= d < m_b, for Jordan blocks of sizes m: the
    commutant of a nilpotent Jordan matrix is block upper-triangular
    Toeplitz (Gantmacher, The Theory of Matrices I, ch. VIII)."""
    starts = [sum(sizes[:a]) for a in range(len(sizes))]
    return [[(sa + t, sb + t + d) for t in range(mb - d)]
            for sa, ma in zip(starts, sizes) for sb, mb in zip(starts, sizes)
            for d in range(max(0, mb - ma), mb)]


def _commutant_structure(fld: Field, mats: Sequence[Matrix],
                         n: int) -> Tuple[Optional[int], Matrix, Matrix, Cells]:
    """(k, P, P^-1, cells): a basis P in which the commutant of mats has few
    unknowns, and their cells.  mats[k] commutes with every X' of that form,
    so it adds no equations (k is None when no matrix is used).

    The first matrix diagonalisable over F_q with more than one eigenvalue
    gives its eigenblocks.  Else the nonzero nilpotent A with the smallest
    commutant, sum_i (r_(i-1) - r_i)^2 from its rank sequence r, gives the
    Toeplitz cells of its Jordan basis.  Else P = 1 and all n^2 entries
    are unknowns."""
    nilpotent = None  # (dim C(A), k, A)
    for k, a in enumerate(mats):
        ranks = power_ranks(fld, a, n)
        if ranks[-1]:
            eig = _eigenbasis(fld, a)
            if eig:
                p = transpose(eig[0])
                return k, p, _basis_inverse(fld, p, "eigenvectors"), _block_cells(eig[1])
        elif ranks[1]:
            dim = sum((r0 - r1) ** 2 for r0, r1 in zip(ranks, ranks[1:]))
            if nilpotent is None or dim < nilpotent[0]:
                nilpotent = (dim, k, a)
    if nilpotent is not None:
        p, p_inv, sizes = jordan_basis(fld, nilpotent[2])
        return nilpotent[1], p, p_inv, _toeplitz_cells(sizes)
    return None, identity(fld, n), identity(fld, n), _block_cells([n])


def _cell_images(fld: Field, p: Matrix, p_inv: Matrix, cells: Cells) -> List[List[Tuple[int, int]]]:
    """The nonzero entries of P E_u P^-1 for each unknown u, flattened in
    ``kernel_form``'s order (entry (r, c) at n^2 - 1 - (r n + c)): the sum
    over (i, j) in cells[u] of column i of P times row j of P^-1."""
    n = len(p)
    last = n * n - 1
    cols = [[(last - r * n, x) for r, x in enumerate(col) if x] for col in transpose(p)]
    rows = _row_nonzeros(p_inv)
    add, mul = fld._add_table, fld._mul_table
    images = []
    for cell in cells:
        image: dict = {}
        for i, j in cell:
            row = rows[j]
            for base, x in cols[i]:
                mx = mul[x]
                for c, y in row:
                    image[base - c] = add[image.get(base - c, 0)][mx[y]]
        images.append([(k, y) for k, y in image.items() if y])
    return images


def commutant_basis(fld: Field, mats: Iterable[Matrix], n: int) -> List[Matrix]:
    """A basis of the n x n matrices X with AX = XA for every A in mats: the
    one ``kernel_basis`` returns for the Kronecker system in the entries of X.

    The system is solved in a basis P where X' = P^-1 X P has few unknowns
    (``_commutant_structure``): eigenblocks of a matrix diagonalisable over
    F_q (h, in every u(sl2) module and any basis), else the Toeplitz
    diagonals of a nilpotent in its Jordan basis (any (G_a)^r module), else
    all n^2 entries.  The matrix that gives P adds no equations; each other
    B adds those of P^-1 B P.  Each unknown u, filling the positions
    cells[u] of X', maps back to P E_u P^-1, a sum of outer products of
    columns of P with rows of P^-1: the kernel basis times the stack of
    these images, flattened in ``kernel_form``'s order, is reduced once to
    the basis ``kernel_form`` gives the span."""
    if not n:
        return []
    mats = list(mats)
    skip, p, p_inv, cells = _commutant_structure(fld, mats, n)
    unknowns = len(cells)
    # the unknowns in each column and in each row of X'
    in_col: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    in_row: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for u, cell in enumerate(cells):
        for i, j in cell:
            in_col[j].append((i, u))
            in_row[i].append((j, u))
    rows: List[Vector] = []
    for b in (mat_mul(fld, p_inv, mat_mul(fld, b, p)) for k, b in enumerate(mats) if k != skip):
        b_cols = transpose(b)
        for i in range(n):
            bi = b[i]
            for j in range(n):
                bj = b_cols[j]
                row = [0] * unknowns
                # (B X')_{ij} has coefficient B[i][k] on X'[k][j]
                for k, u in in_col[j]:
                    if bi[k]:
                        row[u] = fld.add(row[u], bi[k])
                # (X' B)_{ij} has coefficient B[k][j] on X'[i][k]
                for k, u in in_row[i]:
                    if bj[k]:
                        row[u] = fld.sub(row[u], bj[k])
                if any(row):
                    rows.append(row)
    solutions = kernel_basis(fld, rows, unknowns)
    images = _cell_images(fld, p, p_inv, cells)
    return _kernel_form_flat(fld, _mat_mul_nz(fld, solutions, images, n * n), n)


def add_scaled_entries(fld: Field, out: Matrix, c: int,
                       entries: Iterable[Tuple[int, int, int]]) -> None:
    """out += c * A in place, for a sparse A given by its entries (i, j, a)."""
    add, mc = fld._add_table, fld._mul_table[c]
    for i, j, a in entries:
        row = out[i]
        row[j] = add[row[j]][mc[a]]


def mat_vec(fld: Field, a: Matrix, v: Vector) -> Vector:
    """a v, as the product of a with the one-column matrix v."""
    return [row[0] for row in _mat_mul_nz(fld, a, [[(0, x)] if x else [] for x in v], 1)]


def mat_pow(fld: Field, a: Matrix, n: int) -> Matrix:
    """a^n as a new matrix: starts from the first factor, not from a product
    with the identity, and squares only while bits of n remain.  The
    nonzero entries of each factor are found once, for both the product
    and the square that take it as their right factor."""
    size = len(a)
    result = None
    base = [row[:] for row in a]
    while n:
        nz = _row_nonzeros(base) if n > 1 or result is not None else None
        if n & 1:
            result = base if result is None else _mat_mul_nz(fld, result, nz, size)
        n >>= 1
        if n:
            base = _mat_mul_nz(fld, base, nz, size)
    return identity(fld, size) if result is None else result


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


# Packed rows: over GF(p) with (p - 1) + (p - 1)^2 <= 255, i.e. p <= 13, a
# row may be held as bytes, one entry per byte.  w - c v is then the integer
# w + (p - c) v read back bytewise: no byte passes 255, so no carry crosses
# an entry, and one ``translate`` reduces every byte mod p.
_PACKED_MAX_P = 13
# Measured on Python 3.11: the per-entry update costs about
# 0.05 + 0.04 k us for a pivot row with k nonzeros; a packed operation
# costs about 0.45 + 0.003 n us on a packed row of n entries, but
# 0.6 + 0.014 n us on a row still held as a list, which int.from_bytes
# reads entry by entry.  So a pivot row is first packed when
# 4 k > n + 64, near the break-even on list rows, and every later pivot
# row is packed too: turning a packed row back into a list costs about
# 0.35 + 0.003 n us, as much as a packed operation, and switching back and
# forth made the 64-100-column commutant systems of (G_a)^2-modules over
# GF(3) slower than the per-entry update alone.  The 1331-column commutant
# systems of P_lambda at p = 11 never pack: their pivot rows stay under 80
# nonzeros, and packing starts at 349.
_PACKED_RATIO, _PACKED_OFFSET = 4, 64
# Blocks of packed pivot rows (see row_reduce), measured on Python 3.11,
# against blocks of 16 over GF(2) and GF(3): dense 300 x 300 eliminations
# took 1.9x with blocks of 4, 1.3-1.4x with 8, 1.1x with 12 and 0.86-1.03x
# with 24-63; dense 120 x 250 and 60 x 60 ones 1.3-1.6x with 4, 1.0-1.05x
# with 12 and 24 and 1.1-1.55x with 32-63, as keeping a block reduced costs
# about d^2 / 2 row operations.  A flush gains on the rows outside the
# block only: with blocks at every row count, 100-column systems over
# GF(3) to GF(11) took 0.92-1.21x the per-pivot clearing at 16 rows,
# 0.77-1.23x at 24, 0.70-0.95x at 32 and 0.59-0.93x at 48, and the
# 19-39-row commutant systems of the summand splitter, whose blocks
# pivotless columns cut short, 1.26x; so smaller systems keep it.
_PACKED_DEPTH, _PACKED_BLOCK_ROWS = 16, 32
# Echelons are packed from this many columns (see Echelon).  Measured on
# Python 3.11, one insert into a packed echelon took, against the list
# path, 0.78-0.83x at 2 columns, 0.51-0.70x at 16, 0.26-0.49x at 64 and
# 0.11-0.25x at 256 (GF(2) to GF(13), dense rank-n/2 systems and sparse
# vectors of 4 nonzeros), since it reads only the pivot columns where the
# vector is nonzero.  Timed case by case in-process, the graded benchmark
# cases took 35.8 ms in all packed from 1 column, 35.9 ms from 8, 36.1 ms
# from 16, 37.8 ms from 64 and 42.6 ms on lists, with no case slower at
# any of them; the pointwise and endomorphism cases, whose echelons hold
# Jordan chains of operators of dimension under 16, moved within +-1% at
# every break-even, as much as repeated runs differ.  So 16 keeps them on
# lists and takes nearly all of the gain.
_PACKED_WIDTH = 16
# p -> (x -> x mod p, [x -> x / c mod p for c in 0..p-1], x -> -x mod p,
# h(p)): 256-byte translate tables (the one for c = 0 is unused), p
# negatives and the headroom of a byte (see the module docstring)
_PACKED_TABLES: dict = {}


def _packed_tables(p: int) -> Tuple[bytes, List[bytes], bytes, int]:
    tables = _PACKED_TABLES.get(p)
    if tables is None:
        inverses = [0] + [pow(c, p - 2, p) for c in range(1, p)]
        tables = _PACKED_TABLES[p] = (bytes(x % p for x in range(256)),
                                      [bytes(c * x % p for x in range(256)) for c in inverses],
                                      bytes(-x % p for x in range(p)),
                                      (255 - (p - 1)) // (p - 1) ** 2)
    return tables


def _flush(work: list, block: List[int], ints: List[int], end: int, p: int, mod: bytes) -> list:
    """``work`` with the pending block, the packed pivot rows
    work[end - len(block):end] with pivot columns ``block`` and integers
    ``ints``, cleared from every other row, each by the coefficients in its
    own bytes."""
    start = end - len(block)
    ncols = len(work[start])
    if len(block) == 1:
        # as row_reduce clears by a pivot row when blocks hold one row
        c, u, v = block[0], work[start], ints[0]
        return [(int.from_bytes(wi, "big") + (p - wi[c]) * v).to_bytes(ncols, "big").translate(mod)
                if wi[c] and wi is not u else wi for wi in work]
    coeffs = itemgetter(*block)
    # multiples[i][x] = (p - x) V_i for block row V_i, 0 for x = 0
    multiples = [[0] + [(p - x) * v for x in range(1, p)] for v in ints]

    def clear(rows: list) -> list:
        return [sum(map(getitem, multiples, cs), int.from_bytes(wi, "big"))
                .to_bytes(ncols, "big").translate(mod) if any(cs := coeffs(wi)) else wi
                for wi in rows]
    return clear(work[:start]) + work[start:end] + clear(work[end:])


def row_reduce(fld: Field, a: Iterable[Sequence[int]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form.  Returns (rref, pivot column indices); zero
    rows are dropped, which makes the output a canonical form of the row
    space.  The rows are copied, so ``a`` may be a generator.

    Each pivot row is cleared from the other rows through its nonzero
    entries only (it is zero left of its pivot), by table lookups.

    Over GF(p) with p <= 13, once a pivot row with k nonzeros in rows of
    length n has 4 k > n + 64, it and every later pivot row are packed:
    the pivot row becomes bytes, one entry per byte, is normalised by one
    ``bytes.translate``, and clears each row w with w[col] = c as
    (w + (p - c) v) mod p on their integers, after which w stays packed.
    Before that, the per-entry update runs on lists.

    With 32 rows or more, packed pivot rows v_1, v_2, ... wait in a block
    of up to min(h(p), 16), h(p) the headroom of a byte (see the module
    docstring): each is 1 at its own pivot c_i and 0 at the others'.  Every
    other row w keeps its bytes from before the block, its entry at col
    read as (w[col] + sum (p - w[c_i]) v_i[col]) mod p.  A new pivot row is
    w + sum (p - w[c_i]) v_i, normalised by one ``translate``, and then
    clears col from the earlier block rows.  A full block, or one pending
    at a column with no pivot, is flushed: each other row w becomes
    (w + sum (p - w[c_i]) v_i) mod p, one ``translate``.  The RREF is
    canonical, so the output is the same as clearing pivot by pivot."""
    work: list = [list(row) for row in a]
    if not work:
        return [], []
    nrows, ncols = len(work), len(work[0])
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table
    # a pivot row with more nonzeros than dense_at is packed: none while
    # dense_at is ncols, every one once it is -1
    dense_at = ncols
    if _PACKED_RATIO * ncols > ncols + _PACKED_OFFSET and fld.e == 1 and fld.p <= _PACKED_MAX_P:
        dense_at = (ncols + _PACKED_OFFSET) // _PACKED_RATIO
        p = fld.p
        mod, divide, minus, headroom = _packed_tables(p)
        depth = min(headroom, _PACKED_DEPTH) if nrows >= _PACKED_BLOCK_ROWS else 1
        ints: List[int] = []
    # the pending block: the pivot columns and integers (ints) of the packed
    # pivot rows work[r - len(block):r], each 1 at its own pivot and 0 at
    # the others'; every other row still holds its bytes from before the
    # block
    block: List[int] = []
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        # the block rows' entries x in col: until the block is flushed, a
        # row w has (w[col] + sum (p - x) w[c]) mod p there
        if block and any(xs := [u[col] for u in work[r - len(block):r]]):
            entries = itemgetter(col, *block)
            weights = [1, *map(minus.__getitem__, xs)]
            for i in range(r, nrows):
                ws = entries(work[i])
                if any(ws):
                    lead = sum(map(times, ws, weights)) % p
                    if lead:
                        piv = i
                        break
        else:
            for i in range(r, nrows):
                if work[i][col]:
                    piv = i
                    break
        if piv is None:
            if block:
                # later columns would pay for the pending block row by row
                work, block, ints = _flush(work, block, ints, r, p, mod), [], []
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        # prow is zero left of col, so ncols - count(0) is its support size
        if dense_at < ncols and (dense_at < 0 or ncols - prow.count(0) > dense_at):
            dense_at = -1
            pending = block and any(xs)
            if block:
                prow = sum(map(times, map(minus.__getitem__, map(prow.__getitem__, block)), ints),
                           int.from_bytes(prow, "big")).to_bytes(ncols, "big")
            if not pending:
                lead = prow[col]
            prow = work[r] = bytes(prow).translate(divide[lead])
            v = int.from_bytes(prow, "big")
            if depth == 1:
                # no block: the pivot row clears the others at once
                work = [(int.from_bytes(wi, "big") + (p - wi[col]) * v).to_bytes(ncols, "big")
                        .translate(mod) if wi[col] and wi is not prow else wi for wi in work]
            else:
                if pending:
                    # clear col from the earlier block rows
                    start = r - len(block)
                    for k, x in enumerate(xs):
                        if x:
                            u = work[start + k] = ((ints[k] + minus[x] * v).to_bytes(ncols, "big")
                                                   .translate(mod))
                            ints[k] = int.from_bytes(u, "big")
                block.append(col)
                ints.append(v)
                if len(block) == depth:
                    work, block, ints = _flush(work, block, ints, r + 1, p, mod), [], []
        else:
            targets = [wi for wi in work if wi[col] and wi is not prow]
            if targets or prow[col] != 1:
                support = list(compress(range(col, ncols), prow[col:]))
                if prow[col] != 1:
                    mc = mul[fld.inv(prow[col])]
                    for j in support:
                        prow[j] = mc[prow[j]]
                nz = [(j, prow[j]) for j in support]
            for wi in targets:
                m = mul[neg[wi[col]]]
                for j, y in nz:
                    wi[j] = add[wi[j]][m[y]]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    if block:
        # the rows from r on are zero, and are dropped
        work = _flush(work[:r], block, ints, r, p, mod)
    if dense_at < 0:
        work = [row if type(row) is list else list(row) for row in work[:r]]
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
        m = mul[neg[c]]
        out[pc:] = [add[x][m[y]] for x, y in zip(out[pc:], row[pc:])]
    return out


def _packs(fld: Field, width: int) -> bool:
    """Whether an ``Echelon`` of vectors of this width holds packed rows."""
    return width >= _PACKED_WIDTH and fld.e == 1 and fld.p <= _PACKED_MAX_P


class Echelon:
    """A basis in row echelon form grown one vector at a time: rows with
    leading entry 1, kept in pivot order.  Deciding whether a vector is new
    costs one reduction against the rows held so far (``reduce_vector``),
    instead of a re-reduction of the whole span.

    Over GF(p) with p <= 13, an echelon whose first vector has at least
    ``_PACKED_WIDTH`` = 16 entries (a measured break-even, see there)
    holds each row packed, as one integer with one entry per byte (see the
    module docstring).  ``insert`` then finds the pivot columns where the
    vector being reduced is nonzero from one mask of its integer, reads
    each coefficient c from its byte, and clears it by one add of (p - c)
    times the row; a ``bytes.translate`` reduces every byte mod p only
    after h(p) adds, and the new pivot is read from the bit length.  The
    rows are the same combinations, normalised the same way, as on lists,
    and ``rows`` returns them as lists.  ``slide`` drops the rows left of
    a column and moves the others left: one shift per packed row."""

    def __init__(self, fld: Field, vectors: Iterable[Sequence[int]] = ()):
        self.fld = fld
        self.pivots: List[int] = []
        # the rows: lists, or integers of ``_width`` bytes once packed
        self._rows: list = []
        self._width = 0
        # packed: 255 in the byte of each pivot column
        self._mask = 0
        for v in vectors:
            self.insert(v)

    @property
    def rows(self) -> Matrix:
        """The rows as lists, in pivot order."""
        if self._width:
            return [list(u.to_bytes(self._width, "big")) for u in self._rows]
        return self._rows

    def insert(self, v: Sequence[int]) -> Optional[int]:
        """Add v to the span.  Returns the pivot column of its reduced form,
        or None when v already lies in the span (which is left unchanged).
        v may be bytes when its entries fit, which a packed echelon reads
        with no conversion."""
        if self._width:
            return self._insert_packed(v)
        fld = self.fld
        if not self._rows and _packs(fld, len(v)):
            self._width = len(v)
            return self._insert_packed(v)
        w = reduce_vector(fld, self._rows, self.pivots, v)
        pc = next(compress(range(len(w)), w), None)
        if pc is None:
            return None
        if w[pc] != 1:
            mc = fld._mul_table[fld.inv(w[pc])]
            w = [mc[x] for x in w]
        k = bisect_left(self.pivots, pc)
        self._rows.insert(k, w)
        self.pivots.insert(k, pc)
        return pc

    def _insert_packed(self, v: Sequence[int]) -> Optional[int]:
        p, n = self.fld.p, self._width
        mod, divide, _, headroom = _packed_tables(p)
        w = int.from_bytes(bytes(v), "big")
        # the bytes of w at pivot columns not yet cleared; column c is byte
        # n - 1 - c from the low end.  While adds are pending a byte may be
        # a nonzero multiple of p, which reads as c = 0 and is passed over.
        rest = w & self._mask
        adds = 0
        while rest:
            at = (rest.bit_length() - 1) & ~7
            c = (rest >> at) % p
            if c:
                if adds == headroom:
                    w = int.from_bytes(w.to_bytes(n, "big").translate(mod), "big")
                    adds = 0
                w += (p - c) * self._rows[bisect_left(self.pivots, n - 1 - (at >> 3))]
                adds += 1
            rest = w & self._mask & ((1 << at) - 1)
        if adds:
            w = int.from_bytes(w.to_bytes(n, "big").translate(mod), "big")
        if not w:
            return None
        at = (w.bit_length() - 1) & ~7
        lead, pc = w >> at, n - 1 - (at >> 3)
        if lead != 1:
            w = int.from_bytes(w.to_bytes(n, "big").translate(divide[lead]), "big")
        k = bisect_left(self.pivots, pc)
        self._rows.insert(k, w)
        self.pivots.insert(k, pc)
        self._mask |= 255 << at
        return pc

    def slide(self, shift: int) -> int:
        """Drop the rows whose pivot lies left of column ``shift``, and move
        every other row ``shift`` columns to the left, with zeros coming in
        at the right.  Returns the number of rows dropped.  The kept rows
        are zero left of ``shift``, so a packed row moves by one shift."""
        k = bisect_left(self.pivots, shift)
        if self._width:
            bits = shift << 3
            self._rows = [u << bits for u in self._rows[k:]]
            self._mask = (self._mask << bits) & ((1 << (self._width << 3)) - 1)
        else:
            self._rows = [row[shift:] + [0] * shift for row in self._rows[k:]]
        self.pivots = [pc - shift for pc in self.pivots[k:]]
        return k


def rank(fld: Field, a: Matrix) -> int:
    return len(row_reduce(fld, a)[1])


def power_ranks(fld: Field, n: Matrix, k: int) -> List[int]:
    """[rank n^0, rank n^1, ..., rank n^k] for a square n, from iterated
    images rather than powers: the row space of n^(i+1) is the row space of
    n^i times n.  So step i eliminates the rows that span the row space of
    n^i, row by row against the independent ones kept so far, and
    multiplies the r_i kept rows by n, one scaled row of n per nonzero
    entry of a kept row.  A rank that stops falling stays there (the row
    spaces of n^(i-1) and n^i are then equal, and so are their images
    under n), so the sequence is padded from the first rank equal to its
    predecessor, zero included."""
    size = len(n)
    ranks = [size]
    add, neg, mul, inv = fld._add_table, fld._neg_table, fld._mul_table, fld._inv_table
    rows = n
    while len(ranks) <= k:
        # kept rows as (pivot column, row, -1 / pivot entry)
        kept: List[Tuple[int, Vector, int]] = []
        for v in rows:
            for pc, e, ninv in kept:
                c = v[pc]
                if not c:
                    continue
                m = mul[mul[c][ninv]]
                v = [add[x][m[y]] for x, y in zip(v, e)]
            pc = next(compress(range(size), v), None)
            if pc is not None:
                ninv = neg[inv[v[pc]]]
                kept.append((pc, v, ninv))
        ranks.append(len(kept))
        if not kept or len(kept) == ranks[-2]:
            break
        # each kept row times n: the sum of c times row i of n over its
        # nonzero entries c (it has one, its pivot)
        rows = []
        for _, e, _ in kept:
            out = None
            for c, nrow in zip(e, n):
                if not c:
                    continue
                mc = mul[c]
                out = ([mc[y] for y in nrow] if out is None
                       else [add[x][mc[y]] for x, y in zip(out, nrow)])
            rows.append(out)
    return ranks + ranks[-1:] * (k + 1 - len(ranks))


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


def solve(fld: Field, a: Matrix, rhs: Sequence[Vector]) -> Optional[List[Vector]]:
    """One solution x of a x = b for each right-hand side b in ``rhs``, its
    free unknowns 0, or None when one of them has none: [a | b_1 ... b_k]
    is reduced once, and a pivot among the b columns is such a b."""
    nc = len(a[0]) if a else 0
    if not rhs:
        return []
    rref, pivots = row_reduce(fld, [row + list(bs) for row, bs in zip(a, zip(*rhs))])
    if pivots and pivots[-1] >= nc:
        return None
    sols = [[0] * nc for _ in rhs]
    for row, pc in zip(rref, pivots):
        for x, y in zip(sols, row[nc:]):
            x[pc] = y
    return sols


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
    "EngineInvariantError",
    "Field",
    "Matrix",
    "Vector",
    "is_prime",
    "ext_field_build",
    "prime_field",
    "enumerate_elements",
    "zeros",
    "identity",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_mul",
    "mat_sub_scalar",
    "mat_combination",
    "kernel_form",
    "jordan_chains",
    "jordan_basis",
    "commutant_basis",
    "add_scaled_entries",
    "mat_vec",
    "mat_pow",
    "transpose",
    "is_zero_matrix",
    "row_reduce",
    "reduce_vector",
    "Echelon",
    "rank",
    "power_ranks",
    "kernel_basis",
    "span_basis",
    "in_span",
    "solve",
    "inverse",
    "random_invertible",
]
