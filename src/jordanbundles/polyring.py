"""Sparse multivariate polynomials over GF(p^e) with weighted gradings, and
matrices of them.

Monomials are exponent tuples; a polynomial is a dict from exponent tuple to
a nonzero field element.  Lexicographic order on exponent tuples (first
variable most significant) is used everywhere a monomial order is needed.

``generic_rank`` is Bareiss's fraction-free elimination (Math. Comp. 22,
1968) on a grid of such dicts: each update (pivot w_ij - w_ir w_rj) / prev
is summed into one dict and divided in place by the one exact division
(``_exact_divider``, behind ``exact_poly_div`` too); no ``Poly`` is built.

A polynomial matrix is held as its coefficient form sum_m A_m x^m: each
monomial that occurs, with the sparse entries (i, j, c), c nonzero, of its
coefficient matrix A_m.  Products, powers, substitutions and evaluations
work on the form, so their cost is counted in nonzeros: a product costs,
for each pair of monomials, the pairs of nonzero entries of the two
coefficient matrices that meet.  A matrix is never written after
construction; its dense grid of ``Poly`` entries (``rows``) is derived from
the form on first read and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add as plus, itemgetter, sub as minus
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .field import Field, Matrix, add_scaled_entries

Expo = Tuple[int, ...]

# field elements ``PolyMatrix.evaluate`` stores per matrix.  The twist
# check meets at most 123 distinct projections of one 4 x 4 Theta at
# p = 11 and 171 at p = 13 (2,736 elements), the benchmark's point scans at
# most 81; 2^11 would drop 57,000 hits at p = 13.
_EVALUATE_MEMO = 1 << 12


@dataclass(frozen=True)
class WeightedRing:
    """Polynomial ring k[names] with positive integer weights per variable."""

    fld: Field
    names: Tuple[str, ...]
    weights: Tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("names/weights length mismatch")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def _coerce(self, c: int) -> int:
        # For extension fields an element is an opaque code in [0, q); only
        # prime-field integers may be reduced arithmetically.
        if self.fld.e == 1:
            return c % self.fld.p
        if not 0 <= c < self.fld.q:
            raise ValueError("coefficient %r is not an encoded GF(%d^%d) element"
                             % (c, self.fld.p, self.fld.e))
        return c

    def const(self, c: int) -> "Poly":
        c = self._coerce(c)
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def var(self, i) -> "Poly":
        if isinstance(i, str):
            i = self.names.index(i)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def monomial(self, expo: Sequence[int], coeff: int = 1) -> "Poly":
        c = self._coerce(coeff)
        return Poly(self, {tuple(expo): c} if c else {})

    def weighted_degree(self, expo: Expo) -> int:
        return sum(w * e for w, e in zip(self.weights, expo))


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: WeightedRing, terms: Dict[Expo, int]):
        self.ring = ring
        self.terms = terms

    # -- basic ring operations ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        fld = self.ring.fld
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = fld.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        fld = self.ring.fld
        return Poly(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        fld = self.ring.fld
        out: Dict[Expo, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = fld.add(out.get(e, 0), fld.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    def scale(self, c: int) -> "Poly":
        fld = self.ring.fld
        return Poly(self.ring, {e: fld.mul(c, v) for e, v in self.terms.items()} if c else {})

    def __pow__(self, n: int) -> "Poly":
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ------------------------------------------------------

    def homogeneous_degree(self) -> Optional[int]:
        """The common weighted degree of all terms, or None if inhomogeneous.
        The zero polynomial counts as homogeneous of every degree (-1)."""
        degs = {self.ring.weighted_degree(e) for e in self.terms} or {-1}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None or self.is_zero()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join("%s^%d" % (n, k) if k > 1 else n
                            for n, k in zip(self.ring.names, e) if k)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append("%d*%s" % (c, mono))
        return " + ".join(bits)

    __repr__ = __str__


def poly_eval(f: Poly, point: Sequence[int], fld: Optional[Field] = None) -> int:
    """Evaluate f at a point with coordinates in fld (defaults to the ring's
    field; pass a bigger field to evaluate prime-field polynomials at
    extension points)."""
    if fld is None:
        fld = f.ring.fld
    acc = 0
    for e, c in f.terms.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = fld.mul(term, fld.pow(x, k))
            if term == 0:
                break
        acc = fld.add(acc, term)
    return acc


@dataclass(frozen=True)
class Substitution:
    """A ring map sending each variable of ``source`` to a polynomial of
    ``target``.  Weighted-degree bookkeeping: ``scale`` is d such that a
    source monomial of weighted degree w maps to a target polynomial of
    weighted degree d*w (when the images are chosen compatibly)."""

    source: WeightedRing
    target: WeightedRing
    images: Tuple[Poly, ...]
    scale: int = 1

    def __post_init__(self):
        if len(self.images) != self.source.nvars:
            raise ValueError("one image per source variable required")


def substitute(f: Poly, sub: Substitution) -> Poly:
    """The image of f under the ring map: ``PolyMatrix.substitute`` on the
    1 x 1 matrix [f]."""
    return PolyMatrix(f.ring, [[f]]).substitute(sub).rows[0][0]


def monomial_basis(ring: WeightedRing, degree: int) -> List[Expo]:
    """All exponent tuples of the given weighted degree, in lex order
    (first variable most significant, descending)."""
    out: List[Expo] = []

    def rec(i: int, remaining: int, prefix: Tuple[int, ...]):
        if i == ring.nvars:
            if remaining == 0:
                out.append(prefix)
            return
        w = ring.weights[i]
        for k in range(remaining // w, -1, -1):
            rec(i + 1, remaining - k * w, prefix + (k,))

    if degree >= 0:
        rec(0, degree, ())
    return out


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------

# the coefficient form of a matrix: each monomial's exponent tuple to the
# sparse entries (i, j, c), c nonzero, of its coefficient matrix
Form = Dict[Expo, List[Tuple[int, int, int]]]


class PolyMatrix:
    """An nrows x ncols matrix over a common ring, held as its coefficient
    form sum_m A_m x^m: each monomial x^m that occurs, with the sparse
    entries (i, j, c) of A_m, c nonzero (``terms``).  No monomial is stored
    without an entry, so the zero matrix has no terms.  A product costs
    the pairs of nonzero entries that meet, per pair of monomials, so on
    the sparse operators of the paper it costs their nonzeros, not
    nrows x ncols ``Poly`` entries.

    A matrix is never written after construction.  Its dense ``rows``, one
    ``Poly`` per entry, are derived from the form on first read and kept;
    ``PolyMatrix(ring, rows)`` builds a matrix from them, and the form is
    then derived from the rows on first use and kept.  So is the view that
    ``evaluate`` reads (``coefficients``)."""

    __slots__ = ("ring", "nrows", "ncols", "_terms", "_rows", "_form", "_memo", "_reads")

    def __init__(self, ring: WeightedRing, rows: Sequence[Sequence[Poly]]):
        self.ring = ring
        self._rows = [list(r) for r in rows]
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        self._terms = self._form = self._memo = None

    @classmethod
    def _of(cls, ring: WeightedRing, nrows: int, ncols: int,
            sums: Dict[Expo, Dict[int, int]]) -> "PolyMatrix":
        """The matrix from its nonzero coefficients per monomial, keyed by
        i ncols + j for entry (i, j); a monomial left without coefficients
        is dropped."""
        mat = cls.__new__(cls)
        mat.ring, mat.nrows, mat.ncols = ring, nrows, ncols
        mat._terms = {e: [divmod(k, ncols) + (c,) for k, c in d.items()]
                      for e, d in sums.items() if d}
        mat._rows = mat._form = mat._memo = None
        return mat

    @property
    def terms(self) -> Form:
        """The coefficient form: each monomial's exponent tuple to the
        entries (i, j, c), c nonzero, of its coefficient matrix."""
        if self._terms is None:
            terms: Form = {}
            for i, r in enumerate(self._rows):
                for j, a in enumerate(r):
                    for e, c in a.terms.items():
                        if c:
                            terms.setdefault(e, []).append((i, j, c))
            self._terms = terms
        return self._terms

    @property
    def rows(self) -> List[List[Poly]]:
        """The dense grid of entries, derived from the form on first read."""
        if self._rows is None:
            self._rows = [[Poly(self.ring, d) for d in r] for r in self._grid()]
        return self._rows

    def _grid(self) -> List[List[Dict[Expo, int]]]:
        """The entries as a new grid of dicts {exponent tuple: coefficient}."""
        grid: List[List[Dict[Expo, int]]] = [[{} for _ in range(self.ncols)]
                                             for _ in range(self.nrows)]
        for e, entries in self.terms.items():
            for i, j, c in entries:
                grid[i][j][e] = c
        return grid

    @classmethod
    def zero(cls, ring: WeightedRing, n: int, m: int) -> "PolyMatrix":
        return cls._of(ring, n, m, {})

    @classmethod
    def identity(cls, ring: WeightedRing, n: int) -> "PolyMatrix":
        return cls._of(ring, n, n, {(0,) * ring.nvars: {i * n + i: 1 for i in range(n)}})

    @classmethod
    def from_terms(cls, ring: WeightedRing, nrows: int, ncols: int,
                   terms: Iterable[Tuple[Sequence[Tuple[int, int, int]], Poly]]) -> "PolyMatrix":
        """The sum of f A over pairs (entries, f) of the sparse entries
        (i, j, c), c nonzero, of a constant matrix A and a Poly f, summed
        per monomial of f.  A sum that cancels is deleted, as in
        ``__mul__``."""
        fld = ring.fld
        add, mul = fld._add_table, fld._mul_table
        acc: Dict[Expo, Dict[int, int]] = {}
        for entries, f in terms:
            for e, cf in f.terms.items():
                d = acc.setdefault(e, {})
                mc = mul[cf]
                for i, j, c in entries:
                    k = i * ncols + j
                    v = add[d.get(k, 0)][mc[c]]
                    if v:
                        d[k] = v
                    else:
                        del d[k]
        return cls._of(ring, nrows, ncols, acc)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        ring = self.ring
        return PolyMatrix.from_terms(ring, self.nrows, self.ncols, [
            (entries, ring.monomial(e)) for mat in (self, other) for e, entries in mat.terms.items()])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product on the forms: A_a B_b x^(a+b) for each pair of
        monomials a of ``self`` and b of ``other``, summed per monomial.
        Each A_a B_b multiplies only the entries that meet: the entries of
        each B_b are listed by row once, and entry (i, t) of A_a meets row
        t of B_b.  A sum that cancels is deleted: its product is nonzero,
        so a zero sum means it was already there."""
        fld = self.ring.fld
        add, mul = fld._add_table, fld._mul_table
        ncols = other.ncols
        right = []
        for eb, entries in other.terms.items():
            by_row: Dict[int, List[Tuple[int, int]]] = {}
            for t, j, c in entries:
                by_row.setdefault(t, []).append((j, c))
            right.append((eb, by_row))
        acc: Dict[Expo, Dict[int, int]] = {}
        for ea, entries in self.terms.items():
            for eb, by_row in right:
                d = acc.setdefault(tuple(x + y for x, y in zip(ea, eb)), {})
                for i, t, c1 in entries:
                    row = by_row.get(t)
                    if row is None:
                        continue
                    mc, base = mul[c1], i * ncols
                    for j, c2 in row:
                        k = base + j
                        v = add[d.get(k, 0)][mc[c2]]
                        if v:
                            d[k] = v
                        else:
                            del d[k]
        return PolyMatrix._of(self.ring, self.nrows, ncols, acc)

    def power(self, n: int) -> "PolyMatrix":
        if self.nrows != self.ncols:
            raise ValueError("square matrix required")
        # square only while bits remain, and start from the first factor
        # rather than from a product with the identity
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return PolyMatrix.identity(self.ring, self.nrows) if result is None else result

    def is_zero(self) -> bool:
        return not self.terms

    def entries_homogeneous_of_degree(self) -> Optional[int]:
        """If every nonzero entry is homogeneous of one common weighted
        degree, return it; else None.  That holds exactly when all the
        monomials of the form have that degree; the zero matrix gives 0."""
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def coefficients(self) -> tuple:
        """The form as read by ``evaluate``: a list of (monomial, entries)
        with the monomial as its (variable, exponent) pairs and the entries
        (i, j, c) of A_m, and the set of the distinct (variable, exponent)
        pairs of the monomials."""
        if self._form is None:
            factors = set()
            form = []
            for e, entries in self.terms.items():
                mono = tuple((v, k) for v, k in enumerate(e) if k)
                factors.update(mono)
                form.append((mono, entries))
            self._form = (form, factors)
        return self._form

    def evaluate(self, point: Sequence[int], fld: Optional[Field] = None) -> Matrix:
        """The matrix at a point with coordinates in fld (defaults to the
        ring's field; a bigger field evaluates prime-field entries at
        extension points), by ``evaluate_once``.

        Results are memoised per matrix, keyed by ``(fld, the point's
        coordinates at the variables the matrix reads)``, the variables of
        the pairs ``coefficients`` lists, taken by one ``itemgetter`` (a
        scalar for one variable, () for none): Theta of a Frobenius twist
        reads few coordinates, and moved points repeat.  Sharing is safe:
        the matrix is not written to after construction; a ``Field``
        compares by (p, e, modulus), so a prime field and its extension, or
        two moduli of one order, never share an entry; values are stored as
        tuples of rows and a hit returns a fresh list of lists.  An entry is
        stored while the count of stored entries times N x M stays within
        ``_EVALUATE_MEMO`` field elements (32 KB of references), so a matrix
        with more entries than that stores nothing.  A scan that meets each
        point once calls ``evaluate_once`` and stores nothing."""
        if fld is None:
            fld = self.ring.fld
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
            reads = sorted({v for v, _ in self.coefficients()[1]})
            self._reads = itemgetter(*reads) if reads else lambda point: ()
        key = (fld, self._reads(point))
        hit = memo.get(key)
        if hit is not None:
            return list(map(list, hit))
        out = self.evaluate_once(point, fld)
        if (len(memo) + 1) * self.nrows * self.ncols <= _EVALUATE_MEMO:
            memo[key] = tuple(map(tuple, out))
        return out

    def evaluate_once(self, point: Sequence[int], fld: Optional[Field] = None) -> Matrix:
        """The matrix at a point, as ``evaluate`` but with no memo: one
        ``Field.pow`` per distinct (variable, exponent) pair, one value per
        distinct monomial, then one sparse linear combination of the
        coefficient matrices."""
        if fld is None:
            fld = self.ring.fld
        form, factors = self.coefficients()
        powers = {(v, k): fld.pow(point[v], k) for v, k in factors}
        out = [[0] * self.ncols for _ in range(self.nrows)]
        mul = fld._mul_table
        for mono, entries in form:
            val = 1
            for vk in mono:
                val = mul[val][powers[vk]]
            if val:
                add_scaled_entries(fld, out, val, entries)
        return out

    def substitute(self, sub: Substitution) -> "PolyMatrix":
        """The image under the ring map: the image of each distinct
        monomial is formed once, then summed with its coefficient matrix."""
        if self.ring != sub.source:
            raise ValueError("polynomial not in the substitution's source ring")
        terms = []
        for mono, entries in self.coefficients()[0]:
            image = sub.target.one()
            for v, k in mono:
                image = image * sub.images[v] ** k
            terms.append((entries, image))
        return PolyMatrix.from_terms(sub.target, self.nrows, self.ncols, terms)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)


def _exact_divider(fld: Field, g: Dict[Expo, int]):
    """Division by g, as a function that empties a term dict f and returns
    f / g: g's lex-leading term is read once, and each step clears f's
    leading term in place; a remainder raises ``ArithmeticError``."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table
    lead = max(g)
    inv_lead = fld.inv(g[lead])
    rest = [(e, c) for e, c in g.items() if e != lead]

    def divide(f: Dict[Expo, int]) -> Dict[Expo, int]:
        quot: Dict[Expo, int] = {}
        while f:
            top = max(f)
            d = tuple(map(minus, top, lead))
            if min(d, default=0) < 0:
                raise ArithmeticError("inexact polynomial division")
            c = quot[d] = mul[f.pop(top)][inv_lead]
            mc = mul[neg[c]]
            for e, v in rest:
                k = tuple(map(plus, d, e))
                s = add[f.get(k, 0)][mc[v]]
                if s:
                    f[k] = s
                else:
                    del f[k]
        return quot
    return divide


def exact_poly_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g assuming the division is exact; raises if it is not."""
    return Poly(f.ring, _exact_divider(f.ring.fld, g.terms)(dict(f.terms)))


def generic_rank(mat: PolyMatrix) -> int:
    """Rank of a polynomial matrix over the fraction field, by fraction-free
    (Bareiss) elimination on its coefficient form (see the module notes)
    with full pivoting: the pivot is the lex-least nonzero position."""
    fld = mat.ring.fld
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table
    n, m = mat.nrows, mat.ncols
    work = mat._grid()
    divide = None  # by the previous pivot; none before the first
    r = 0
    while r < min(n, m):
        piv = next(((i, j) for i in range(r, n) for j in range(r, m) if work[i][j]), None)
        if piv is None:
            break
        pi, pj = piv
        work[r], work[pi] = work[pi], work[r]
        for row in work:
            row[r], row[pj] = row[pj], row[r]
        top = work[r]
        pivot = [(e, mul[c]) for e, c in top[r].items()]
        for row in work[r + 1:]:
            minus_ir = [(e, mul[neg[c]]) for e, c in row[r].items()]
            for j in range(r + 1, m):
                num: Dict[Expo, int] = {}
                for left, right in ((pivot, row[j]), (minus_ir, top[j])):
                    for e1, mc in left:
                        for e2, c2 in right.items():
                            k = tuple(map(plus, e1, e2))
                            s = add[num.get(k, 0)][mc[c2]]
                            if s:
                                num[k] = s
                            else:
                                del num[k]
                row[j] = divide(num) if divide else num
            row[r] = {}
        divide = _exact_divider(fld, top[r])
        r += 1
    return r


__all__ = [
    "Expo",
    "WeightedRing",
    "Poly",
    "PolyMatrix",
    "Substitution",
    "poly_eval",
    "substitute",
    "monomial_basis",
    "exact_poly_div",
    "generic_rank",
]
