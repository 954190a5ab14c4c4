"""Sparse multivariate polynomials over GF(p^e) with weighted gradings.

Monomials are exponent tuples; a polynomial is a dict from exponent tuple to
a nonzero field element.  Lexicographic order on exponent tuples (first
variable most significant) is used everywhere a monomial order is needed,
in particular in the fraction-free rank computation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i) -> "Poly":
        if isinstance(i, str):
            i = self.names.index(i)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def monomial(self, expo: Sequence[int], coeff: int = 1) -> "Poly":
        c = self._coerce(coeff)
        if c == 0:
            return self.zero()
        return Poly(self, {tuple(expo): c})

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
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {e: fld.mul(c, v) for e, v in self.terms.items()})

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

    def degree(self) -> int:
        """Weighted degree (max over terms); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.weighted_degree(e) for e in self.terms)

    def homogeneous_degree(self) -> Optional[int]:
        """The common weighted degree of all terms, or None if inhomogeneous.
        The zero polynomial counts as homogeneous of every degree (-1)."""
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        if not degs:
            return -1
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None or self.is_zero()

    def leading_term(self) -> Tuple[Expo, int]:
        """Lex-leading term (largest exponent tuple)."""
        e = max(self.terms)
        return e, self.terms[e]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (n, k) if k > 1 else n
                for n, k in zip(self.ring.names, e)
                if k
            )
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


class PolyMatrix:
    """Dense matrix with Poly entries over a common ring.  A matrix is not
    written to after construction: its coefficient form sum_m A_m x^m
    (``coefficients``) is built from the entries on first use and kept."""

    __slots__ = ("ring", "rows", "_form", "_memo", "_reads")

    def __init__(self, ring: WeightedRing, rows: Sequence[Sequence[Poly]]):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self._form = None
        self._memo = None

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def zero(cls, ring: WeightedRing, n: int, m: int) -> "PolyMatrix":
        return cls(ring, [[ring.zero() for _ in range(m)] for _ in range(n)])

    @classmethod
    def identity(cls, ring: WeightedRing, n: int) -> "PolyMatrix":
        rows = [[ring.const(1) if i == j else ring.zero() for j in range(n)] for i in range(n)]
        return cls(ring, rows)

    @classmethod
    def from_terms(cls, ring: WeightedRing, nrows: int, ncols: int,
                   terms: Iterable[Tuple[Iterable[Tuple[int, int, int]], Poly]]) -> "PolyMatrix":
        """The sum of f A over pairs (entries, f) of the sparse entries
        (i, j, c), c nonzero, of a constant matrix A and a Poly f, with one
        term dict per output entry.  A term that cancels is deleted, as in
        ``__mul__``."""
        fld = ring.fld
        acc: List[List[Dict[Expo, int]]] = [[{} for _ in range(ncols)] for _ in range(nrows)]
        for entries, f in terms:
            for i, j, c in entries:
                dij = acc[i][j]
                for e, cf in f.terms.items():
                    v = fld.add(dij.get(e, 0), fld.mul(c, cf))
                    if v:
                        dij[e] = v
                    else:
                        del dij[e]
        return cls(ring, [[Poly(ring, d) for d in row] for row in acc])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product over nonzero entries only: the nonzero entries of
        each row of ``other`` are listed once, and each term of an entry
        a_it is multiplied into them, accumulating one term dict per output
        entry (i, j).  A term that cancels is deleted: its product is
        nonzero, so a zero sum means it was already there."""
        fld = self.ring.fld
        add, mul = fld._add_table, fld._mul_table
        nonzero = [[(j, b.terms.items()) for j, b in enumerate(r) if b.terms]
                   for r in other.rows]
        out = []
        for row in self.rows:
            acc: List[Dict[Expo, int]] = [{} for _ in range(other.ncols)]
            for a, entries in zip(row, nonzero):
                for e1, c1 in a.terms.items():
                    mc = mul[c1]
                    for j, terms in entries:
                        dj = acc[j]
                        for e2, c2 in terms:
                            e = tuple(map(operator.add, e1, e2))
                            c = add[dj.get(e, 0)][mc[c2]]
                            if c:
                                dj[e] = c
                            else:
                                del dj[e]
            out.append([Poly(self.ring, dj) for dj in acc])
        return PolyMatrix(self.ring, out)

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
        return all(a.is_zero() for r in self.rows for a in r)

    def entries_homogeneous_of_degree(self) -> Optional[int]:
        """If every nonzero entry is homogeneous of one common weighted
        degree, return it; else None."""
        degs = set()
        for r in self.rows:
            for a in r:
                if a.is_zero():
                    continue
                d = a.homogeneous_degree()
                if d is None:
                    return None
                degs.add(d)
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def coefficients(self) -> tuple:
        """The matrix as sum_m A_m x^m: a list of (monomial, entries) with
        the monomial as its (variable, exponent) pairs and the entries
        (i, j, c) of A_m, one per nonzero coefficient, and the set of the
        distinct (variable, exponent) pairs of the monomials."""
        if self._form is None:
            by_mono: Dict[Expo, List[Tuple[int, int, int]]] = {}
            for i, r in enumerate(self.rows):
                for j, a in enumerate(r):
                    for e, c in a.terms.items():
                        by_mono.setdefault(e, []).append((i, j, c))
            factors = set()
            form = []
            for e, entries in by_mono.items():
                mono = tuple((v, k) for v, k in enumerate(e) if k)
                factors.update(mono)
                form.append((mono, entries))
            self._form = (form, factors)
        return self._form

    def evaluate(self, point: Sequence[int], fld: Optional[Field] = None) -> Matrix:
        """The matrix at a point with coordinates in fld (defaults to the
        ring's field; a bigger field evaluates prime-field entries at
        extension points): one ``Field.pow`` per distinct (variable,
        exponent) pair, one value per distinct monomial, then one sparse
        linear combination of the coefficient matrices.

        Results are memoised per matrix, keyed by ``(fld, the point's
        coordinates at the variables the matrix reads)``, the variables of
        the pairs ``coefficients`` lists: Theta of a Frobenius twist reads
        few coordinates, and Frobenius-moved points repeat, so a scan meets
        the same projection many times.  Sharing is safe: the matrix is not
        written to after construction, so the value depends on nothing
        else; a ``Field`` compares by (p, e, modulus), so a prime field and
        its extension, or two moduli of one order, never share an entry;
        values are stored as tuples of rows and a hit returns a fresh list
        of lists.  An entry is stored while the count of stored entries
        times N x M stays within ``_EVALUATE_MEMO`` field elements, so a
        matrix holds at most about ``_EVALUATE_MEMO`` x 8 bytes of
        references (32 KB), and a matrix with more entries than that stores
        nothing."""
        if fld is None:
            fld = self.ring.fld
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
            self._reads = tuple(sorted({v for v, _ in self.coefficients()[1]}))
        key = (fld, tuple(map(point.__getitem__, self._reads)))
        hit = memo.get(key)
        if hit is not None:
            return list(map(list, hit))
        form, factors = self.coefficients()
        powers = {(v, k): fld.pow(point[v], k) for v, k in factors}
        ncols = self.ncols
        out = [[0] * ncols for _ in self.rows]
        mul = fld._mul_table
        for mono, entries in form:
            val = 1
            for vk in mono:
                val = mul[val][powers[vk]]
            if val:
                add_scaled_entries(fld, out, val, entries)
        if (len(memo) + 1) * len(out) * ncols <= _EVALUATE_MEMO:
            memo[key] = tuple(map(tuple, out))
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


def exact_poly_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g assuming the division is exact; raises if it is not."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    fld = ring.fld
    quot = ring.zero()
    rem = f
    ge, gc = g.leading_term()
    gc_inv = fld.inv(gc)
    while not rem.is_zero():
        re, rc = rem.leading_term()
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        t = ring.monomial(diff, fld.mul(rc, gc_inv))
        quot = quot + t
        rem = rem - t * g
    return quot


def generic_rank(mat: PolyMatrix) -> int:
    """Rank of a polynomial matrix over the fraction field, by fraction-free
    (Bareiss) elimination with exact polynomial division and full pivoting.
    Pivots are chosen as the lex-least position with a nonzero entry."""
    work = [[a for a in r] for r in mat.rows]
    n = len(work)
    m = len(work[0]) if work else 0
    ring = mat.ring
    prev = ring.one()
    r = 0
    while r < min(n, m):
        piv = None
        for i in range(r, n):
            for j in range(r, m):
                if not work[i][j].is_zero():
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != r:
            work[r], work[pi] = work[pi], work[r]
        if pj != r:
            for row in work:
                row[r], row[pj] = row[pj], row[r]
        pivot = work[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, m):
                num = pivot * work[i][j] - work[i][r] * work[r][j]
                work[i][j] = exact_poly_div(num, prev)
            work[i][r] = ring.zero()
        prev = pivot
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
