"""Graded kernels and images of powers of the restricted operator on a
standard-graded P^1 chart, splitting types of the associated sheaves,
subquotients, global sections, projectivity and endotriviality tests, and
K-theory bookkeeping.

Degree conventions: the ambient module is free on generators in degree 0;
a generator of a graded submodule in degree d contributes a line-bundle
summand O(-d).  Components of a graded module in degree d are stored as
coefficient vectors in N (d + 1) coordinates, t-exponent major: block m,
of N coordinates, holds the coefficients of s^(d-m) t^m.  Multiplying by
s^a t^b pads a vector with b blocks of zeros in front and a behind
(``_shift``).  The degree-d map of B^j has as columns the N columns of
sum_m A_m t^m (``_toeplitz_columns``), each shifted by s^(d-k) t^k for
k = 0 .. d (``_degree_map``).  Every map of free graded modules is held
in this layout as (bases, starts, block): source r, in degree starts[r],
maps to bases[r], over t-exponent blocks of ``block`` target coordinates
(whose degrees fix the powers of s); B^j is (Toeplitz columns, [0] * N, N).

Every bundle here comes from kernels alone, by four facts:

- The graded kernel K_j of B^j (N x N, entries homogeneous of degree
  D = j * entry_degree) is free: it is a second syzygy over the
  2-dimensional regular graded ring k[s,t].
- Rank count: K_j is fixed by its Hilbert function, N (d + 1) minus the
  rank of the degree-d map.  It has N - r generators, r the generic rank
  of B^j, and r is at least the rank r0 of B^j at any point of P^1.
- Forney's bound ("Minimal bases of rational vector spaces", SIAM J.
  Control 1975): the generator degrees of K_j sum to the degree of the
  image sheaf, a subsheaf of O(D)^N of rank r, so the sum is at most
  r * D.  A count of N - r0 generators under r0 * D proves r0 = r.
- Block-Toeplitz window (the rank recursion behind Van Dooren's staircase
  algorithm, Lin. Alg. Appl. 27, 1979): indexed by t-exponents, the
  degree-d map of any map of free graded modules, its sources in any
  degrees, is the leading block of one block-Toeplitz matrix, and the
  degree-(d+1) map adds one column per source that vanishes on the output
  blocks <= d - max(starts).  So one echelon, slid by a block per degree,
  gives every rank, each degree paying only for what is new in it.

Subquotients ker(B^j)/im(B^q) and images then follow from additivity in
K_0(P^1): im(B^q) is O(-D)^N modulo K_q(-D), D = q * entry_degree, so
    rk = rk K_j - (N - rk K_q),  deg = deg K_j + (N - rk K_q) D + deg K_q.
Their splitting types come from duality:

- Duality.  A graded module presented as M = coker phi, phi a map of free
  modules, has Hom_S(M, S) = ker phi^T, free again.  If F is the sheaf of
  M and T its torsion, the generator degrees delta_k of ker phi^T give
  F/T = (+) O(delta_k), so T has length deg F - sum delta_k and F is a
  bundle exactly when that is 0.  For K_j / im B^q, phi writes the
  columns of B^q in the generators of K_j; for im B^j it is the matrix of
  those generators.  ker phi^T is counted by the sliding echelon of K_j
  (``_hilbert_function``), to rk F generators under Forney's bound deg F.

A failure of these facts in a computation is an engine fault and raises
``EngineInvariantError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .field import (
    Echelon,
    Field,
    Vector,
    _packs,
    enumerate_elements,
    kernel_basis,
    rank,
    solve,
    span_basis,
    transpose,
)
from .modules import principal_indecomposable_sl2
from .operators import (ThetaMatrix, EngineInvariantError, _on_variety, mj_fiber_dim,
                        orbit_scan, theta_global)
from .polyring import PolyMatrix, Substitution, WeightedRing, generic_rank
from .schemes import p1_chart


@dataclass
class P1Matrix:
    """A square polynomial matrix over k[s,t] with entries homogeneous of a
    common degree, obtained by restricting a global operator to a
    standard-graded P^1 chart of the projectivized subgroup variety."""

    ring: WeightedRing
    mat: PolyMatrix
    entry_degree: int
    p: int

    @property
    def size(self) -> int:
        return self.mat.nrows


def restrict_p1(theta: ThetaMatrix, chart: Optional[Substitution] = None) -> P1Matrix:
    """Restrict the global operator to a standard-graded P^1 chart.  The
    chart defaults to the built-in one (identity for the rank-2
    multi-additive group, the conic for sl2); raises when none exists.
    Theta restricted to the built-in chart is homogeneous by construction,
    so an inhomogeneous result there is an ``EngineInvariantError``; on a
    caller's chart it is a ``ValueError``."""
    builtin = chart is None
    if builtin:
        chart = p1_chart(theta.desc, theta.rep.fld)
    if chart is None:
        raise ValueError(
            "no standard-graded P^1 chart is available for %s" % theta.desc.label()
        )
    mat = theta.mat.substitute(chart)
    degree = mat.entries_homogeneous_of_degree()
    if degree is None:
        if builtin:
            raise EngineInvariantError(
                "Theta of a %s-module restricted to the built-in P^1 chart "
                "is not homogeneous" % theta.desc.label())
        raise ValueError("chart restriction is not homogeneous")
    if degree == 0 and mat.is_zero():
        degree = theta.entry_degree * chart.scale
    return P1Matrix(chart.target, mat, degree, theta.desc.p)


# ---------------------------------------------------------------------------
# graded components
# ---------------------------------------------------------------------------


def _toeplitz_columns(power: PolyMatrix, n: int, D: int) -> List[Vector]:
    """The n columns of sum_m A_m t^m for ``power`` (n x n, entries
    homogeneous of degree D), as component vectors of degree D: the
    coefficient of s^(D-m) t^m in entry (r, i) sits at m n + r of column
    i.  The coefficient matrix of s^(D-m) t^m fills block m."""
    cols = [[0] * (n * (D + 1)) for _ in range(n)]
    for e, entries in power.terms.items():
        off = e[1] * n
        for r, i, c in entries:
            cols[i][off + r] = c
    return cols


def _shift(v: Vector, n: int, a: int, b: int) -> Vector:
    """Multiplication by s^a t^b of a component vector: b blocks of zeros
    in front of it and a behind."""
    return [0] * (n * b) + v + [0] * (n * a)


def _degree_map(cols: List[Vector], d: int) -> Iterator[Vector]:
    """The columns of the degree-d map of the matrix whose Toeplitz columns
    are ``cols``: the image of s^(d-k) t^k e_i is column i shifted by
    s^(d-k) t^k, in the order k n + i of the source coordinates."""
    n = len(cols)
    for k in range(d + 1):
        for c in cols:
            yield _shift(c, n, d - k, k)


# ---------------------------------------------------------------------------
# graded kernels: generator degrees from ranks
# ---------------------------------------------------------------------------


@dataclass
class GradedSubmodule:
    ring: WeightedRing
    ambient_rank: int
    degrees: List[int]
    hilbert: Dict[int, int]
    certified_free: bool
    stable_from: Optional[int]
    label: str = ""

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def free_dim(self, d: int) -> int:
        """Dimension in degree d of the free module on the generators."""
        return sum(max(0, d - g + 1) for g in self.degrees)


def _point_rank(fld: Field, power: PolyMatrix, j: int, p: int) -> int:
    """The largest rank of B^j = ``power`` at the points of P^1(F_q): at
    most its generic rank.  The scan stops at the first point that reaches
    the largest j-rank of any p-nilpotent N x N matrix, a (p - j) +
    max(0, b - j) for N = a p + b (its Jordan blocks have size <= p, and
    b -> max(0, b - j) is convex): B^p = 0 on a chart of V(G), so neither
    a point nor the generic rank can exceed it.  On a caller's chart that
    leaves V(G) the stop may return less than the largest rank, which
    Forney's bound catches as it catches any rank below the generic one.
    Each point is met once, so it is evaluated outside the memo."""
    a, b = divmod(power.nrows, p)
    cap = a * max(0, p - j) + max(0, b - j)
    best = 0
    for pt in [(0, 1)] + [(1, t) for t in enumerate_elements(fld)]:
        best = max(best, rank(fld, power.evaluate_once(pt)))
        if best >= cap:
            break
    return best


def _degree_ranks(fld: Field, bases: List[Vector], starts: List[int],
                  block: int) -> Iterator[int]:
    """The ranks of the degree-d maps of (bases, starts, block), for
    d = min(starts), min(starts) + 1, ..., from one sliding echelon.

    In degree d, source r spans s^(d-starts[r]-k) t^k e_r, k = 0 ..
    d - starts[r], with images bases[r] shifted by k blocks.  The shifts by
    d + 1 - starts[r] that degree d + 1 adds vanish on the blocks <= d - top,
    top = max(starts), so a row whose pivot lies in block d - top is never
    reduced against again: it is counted as finished and dropped, and the
    window moves on by one block.  There each new column of source r is
    bases[r] behind top - starts[r] zero blocks, entering every degree from
    its own: a warm-up below top, and every column at once from there."""
    top = max(starts)
    cols = [[0] * (block * (top - a)) + v for a, v in zip(starts, bases)]
    width = max(map(len, cols))
    cols = [c + [0] * (width - len(c)) for c in cols]
    if _packs(fld, width):
        # every column enters every degree from top on: as bytes, a packed
        # echelon reads it with no conversion
        cols = [bytes(c) for c in cols]
    ech = Echelon(fld)
    finished = 0
    for d in count(min(starts)):
        for c in cols if d >= top else [c for a, c in zip(starts, cols) if a <= d]:
            ech.insert(c)
        yield finished + len(ech.pivots)
        finished += ech.slide(block)


def _hilbert_function(fld: Field, bases: List[Vector], starts: List[int],
                      block: int) -> Callable[[int], int]:
    """The Hilbert function of the kernel of (bases, starts, block): the
    columns inserted so far minus the rank, memoised and filled in degree
    order from min(starts) by one ``_degree_ranks``."""
    lo = min(starts)
    ranks = _degree_ranks(fld, bases, starts, block)
    values: List[int] = []

    def h(d: int) -> int:
        while len(values) <= d - lo:
            e = lo + len(values)
            values.append(sum(e - a + 1 for a in starts if a <= e) - next(ranks))
        return values[d - lo] if d >= lo else 0

    return h


def kernel_graded(b: P1Matrix, j: int = 1) -> GradedSubmodule:
    """The graded kernel K of the j-th power B^j of the restricted operator,
    by its generator degrees, read off ranks (the module docstring gives
    the theorems).  K is free with Hilbert function h(d) = N (d + 1) - rank
    of the degree-d map, so it has h(d) - sum_{a_i < d} (d - a_i + 1)
    generators in degree d.  h comes from one sliding block-Toeplitz
    echelon (``_hilbert_function``), shared by both passes of the count,
    which runs to N - r0 generators, r0 the largest rank of B^j at the
    points of P^1(F_q).  If it passes Forney's bound r0 * D,
    D = j * entry_degree, then r0 is below the generic rank and the count
    runs once more with r = ``generic_rank(B^j)`` (Bareiss); a second stop
    raises ``EngineInvariantError``.  ``hilbert`` holds h on the degrees
    0 .. max a_i; ``certified_free`` is always True."""
    return _kernel_of_power(b, j, b.mat.power(j))


def _generator_degrees(h: Callable[[int], int], start: int, target: int,
                       bound: int) -> Tuple[List[int], int]:
    """Generator degrees of a free graded module, zero below degree
    ``start``, from its Hilbert function ``h``: degree d holds
    h(d) - sum_{a_i < d} (d - a_i + 1) new generators.  The count visits
    d = start, start + 1, ... until it holds ``target`` generators, or
    stops short when the generators still missing, each of degree >= d,
    would take the degree sum past ``bound`` (Forney's bound).  Returns the
    degrees found and the degree where the count stopped."""
    degrees: List[int] = []
    d = start
    while len(degrees) < target and sum(degrees) + (target - len(degrees)) * d <= bound:
        degrees += [d] * (h(d) - sum(d - a + 1 for a in degrees))
        d += 1
    return degrees, d


def _kernel_of_power(b: P1Matrix, j: int, power: PolyMatrix) -> GradedSubmodule:
    """``kernel_graded`` with B^j = ``power`` already formed."""
    fld, n, D = b.ring.fld, b.size, j * b.entry_degree
    h = _hilbert_function(fld, _toeplitz_columns(power, n, D), [0] * n, n)
    for r in (_point_rank(fld, power, j, b.p), None):
        if r is None:
            r = generic_rank(power)
        target, bound = n - r, r * D
        degrees, d = _generator_degrees(h, 0, target, bound)
        if len(degrees) == target:
            break
    else:
        raise EngineInvariantError(
            "kernel count of B^%d stopped at degree %d with %d of %d generators "
            "(Forney's bound %d)" % (j, d, len(degrees), target, bound))
    top = max(degrees, default=-1)
    return GradedSubmodule(
        ring=b.ring,
        ambient_rank=n,
        degrees=degrees,
        hilbert={d: h(d) for d in range(top + 1)},
        certified_free=True,
        stable_from=max(top, 0) + 1,
        label="ker(theta^%d)" % j,
    )


@dataclass
class SplittingType:
    """A direct sum of line bundles on P^1, recorded by twists in
    descending order."""

    twists: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def __str__(self) -> str:
        if not self.twists:
            return "0"
        return " + ".join("O(%d)" % t for t in self.twists)


def splitting_type(sub: GradedSubmodule) -> SplittingType:
    """Splitting type of the sheaf of a certified-free graded submodule:
    a generator in degree d contributes O(-d)."""
    if not sub.certified_free:
        raise ValueError("splitting type from generators needs a certified free module")
    return SplittingType(tuple(sorted((-d for d in sub.degrees), reverse=True)))


# ---------------------------------------------------------------------------
# subquotients and images: splitting types by duality
# ---------------------------------------------------------------------------


@dataclass
class SheafReport:
    fiber_rank: Optional[int]
    degree: Optional[int]
    splitting: Optional[SplittingType]
    stable_from: Optional[int]
    hilbert: Dict[int, int]
    note: str = ""


def _image_class(n: int, kernel: GradedSubmodule, shift: int) -> K0Class:
    """[im B^q] for the kernel K_q of B^q and D = q * entry_degree as
    ``shift``: B^q maps O(-D)^N onto its image with kernel K_q(-D), so
    [im B^q] = (N [O] - [K_q]) twisted by -D."""
    return (K0Class(n, 0) - k0_class(kernel)).twist(-shift)


def _image_dim(n: int, kernel: GradedSubmodule, shift: int, d: int) -> int:
    """Dimension of im(B^q) in degree d: the source component has degree
    d - D, and K_q is free on its generators."""
    return n * max(0, d - shift + 1) - kernel.free_dim(d - shift)


# M = coker phi, as the field and phi^T in the form (bases, starts, block)
Presentation = Tuple[Field, List[Vector], List[int], int]


def _kernel_generators(b: P1Matrix, j: int, power: PolyMatrix,
                       degrees: List[int]) -> List[Tuple[int, Vector]]:
    """Generators of K_j (B^j = ``power``) as (degree, component vector),
    built only in the generator degrees the count found: at each such
    degree a, the kernel of the degree-a map modulo the shifts of the
    generators below a."""
    fld, n = b.ring.fld, b.size
    cols = _toeplitz_columns(power, n, j * b.entry_degree)
    gens: List[Tuple[int, Vector]] = []
    for a in sorted(set(degrees)):
        span = Echelon(fld, (_shift(v, n, a - g - k, k) for g, v in gens for k in range(a - g + 1)))
        kernel = kernel_basis(fld, zip(*_degree_map(cols, a)), n * (a + 1))
        gens += [(a, v) for v in kernel if span.insert(v) is not None]
    if [a for a, _ in gens] != sorted(degrees):
        raise EngineInvariantError("generators of ker(B^%d) found in degrees %s, counted in %s"
                                   % (j, [a for a, _ in gens], sorted(degrees)))
    return gens


def _subquotient_presentation(b: P1Matrix, j: int, kmat: PolyMatrix, kj: GradedSubmodule,
                              q: int, imat: PolyMatrix) -> Presentation:
    """K_j / im B^q as coker phi: with generators k_i of K_j in degrees
    a_i, column c of B^q is sum_i k_i phi_ic, phi_ic of degree
    E - a_i, E = q * entry_degree.  One ``solve`` for all N columns in
    degree E, where K_j has the shifts of the k_i as a basis.  phi^T
    sends source i, in degree -a_i, to (phi_i1 ... phi_iN) in blocks of N."""
    fld, n = b.ring.fld, b.size
    E = q * b.entry_degree
    gens = _kernel_generators(b, j, kmat, kj.degrees)
    shifts = transpose([_shift(v, n, E - a - k, k) for a, v in gens for k in range(E - a + 1)])
    sols = solve(fld, shifts, _toeplitz_columns(imat, n, E))
    if sols is None:
        raise EngineInvariantError("a column of B^%d lies outside ker(B^%d)" % (q, j))
    bases, off = [], 0
    for a, _ in gens:
        width = max(0, E - a + 1)
        bases.append([x[off + k] for k in range(width) for x in sols])
        off += width
    return fld, bases, [-a for a, _ in gens], n


def _image_presentation(b: P1Matrix, j: int, kmat: PolyMatrix,
                        kj: GradedSubmodule) -> Presentation:
    """im B^j = S(-D)^N / K_j(-D), D = j * entry_degree, as coker phi with
    phi = [k_1 ... k_m], the generators of K_j.  phi^T sends source c, in
    degree -D, to row c of phi in blocks of m: entry c of k_i is read off
    its component vector, padded to degree max a_i, at c, c + N, ..."""
    n, D = b.size, j * b.entry_degree
    gens = _kernel_generators(b, j, kmat, kj.degrees)
    top = max((a for a, _ in gens), default=0)
    padded = [v + [0] * (n * (top - a)) for a, v in gens]
    bases = [[v[m * n + c] for m in range(top + 1) for v in padded] for c in range(n)]
    return b.ring.fld, bases, [-D] * n, len(gens)


def _dual_degrees(fld: Field, bases: List[Vector], starts: List[int], block: int,
                  rk: int, deg: int) -> List[int]:
    """Generator degrees of Hom_S(M, S) = ker phi^T, M = coker phi as in
    ``Presentation``, a free module of rank ``rk``: the count of
    ``_generator_degrees`` on K_j's counter ``_hilbert_function``, from
    degree min(starts), with Forney's bound ``deg``: the generators sum to
    the degree of F/T, F the sheaf of M of degree ``deg`` and T its torsion."""
    degrees, d = _generator_degrees(_hilbert_function(fld, bases, starts, block),
                                    min(starts), rk, deg)
    if len(degrees) < rk:
        raise EngineInvariantError(
            "dual count stopped at degree %d with %d of %d generators (Forney's bound %d)"
            % (d, len(degrees), rk, deg))
    return degrees


def _sheaf_report(cls: K0Class, stable_from: int, hilbert: Dict[int, int],
                  presentation: Callable[[], Presentation]) -> SheafReport:
    """Report a sheaf F from its K_0 class: rank 0 and 1 are read off.  A
    rank-0 sheaf is torsion, its K_0 degree the length t of that torsion:
    the zero bundle when t = 0, not locally free otherwise.  A larger rank
    is split by the dual count on a presentation of its module M:
    F/T = (+) O(delta_k) for the generator degrees delta_k of Hom_S(M, S),
    so the torsion T of F has length deg F - sum delta_k, and F is a bundle
    exactly when that is 0."""
    r, deg = cls.rank, cls.degree
    if r < 0:
        raise EngineInvariantError("negative rank %d in K_0 for %s" % (r, cls))
    if r == 0:
        if deg < 0:
            raise EngineInvariantError("rank-0 sheaf of negative degree %d in K_0" % deg)
        if deg:
            return SheafReport(0, deg, None, stable_from, hilbert,
                               note="not locally free: torsion of length %d" % deg)
        return SheafReport(0, 0, SplittingType(()), stable_from, hilbert)
    if r == 1:
        # a line bundle is determined by its degree
        return SheafReport(1, deg, SplittingType((deg,)), stable_from, hilbert)
    twists = sorted(_dual_degrees(*presentation(), r, deg), reverse=True)
    torsion = deg - sum(twists)
    if torsion:
        return SheafReport(r, deg, None, stable_from, hilbert,
                           note="not locally free: torsion of length %d" % torsion)
    return SheafReport(r, deg, SplittingType(tuple(twists)), stable_from, hilbert)


def subquotient_mj(b: P1Matrix, j: int, im_power: Optional[int] = None) -> SheafReport:
    """The sheaf ker(B^j)/im(B^q), q = p - j (im_power overrides q, e.g.
    for operators of nilpotency degree < p), from the kernels alone.

    Write K_i for the graded kernel of B^i (free; see ``kernel_graded``)
    and D = q * entry_degree.  B^q maps O(-D)^N onto im(B^q) with kernel
    K_q(-D), so additivity in K_0(P^1) gives
        rk = rk K_j - (N - rk K_q)
        deg = deg K_j + (N - rk K_q) D + deg K_q.
    The same kernels give the Hilbert function of the graded module in
    every degree; ``hilbert`` holds it up to ``stable_from``, from where on
    it is r (d + 1) + deg.  A splitting of rank >= 2 comes from the dual
    count (``_sheaf_report``).  B^j B^q must vanish: for q = p - j it is
    B^p, zero for a validated module, so a nonzero product is an
    ``EngineInvariantError``; for a caller's ``im_power`` a ``ValueError``."""
    q = b.p - j if im_power is None else im_power
    kmat = b.mat.power(j)
    imat = kmat if q == j else b.mat.power(q)
    if not (kmat * imat).is_zero():
        msg = "image of power %d is not contained in kernel of power %d" % (q, j)
        if im_power is None:
            raise EngineInvariantError(msg + ": B^%d is not zero on the chart" % b.p)
        raise ValueError(msg)
    kj = _kernel_of_power(b, j, kmat)
    kq = kj if q == j else _kernel_of_power(b, q, imat)
    D, n = q * b.entry_degree, b.size
    stable = max(kj.stable_from, kq.stable_from + D)
    hilbert = {d: kj.free_dim(d) - _image_dim(n, kq, D, d) for d in range(stable + 1)}
    return _sheaf_report(k0_class(kj) - _image_class(n, kq, D), stable, hilbert,
                         lambda: _subquotient_presentation(b, j, kmat, kj, q, imat))


def image_sheaf_report(b: P1Matrix, j: int = 1) -> SheafReport:
    """Rank/degree/splitting of the sheaf of the graded image of the j-th
    power, from the kernel K_j: rk = N - rk K_j and
    deg = -D (N - rk K_j) - deg K_j with D = j * entry_degree.  The image
    is a subsheaf of O^N, so torsion found by the dual count is an
    ``EngineInvariantError``."""
    kmat = b.mat.power(j)
    kj = _kernel_of_power(b, j, kmat)
    D, n = j * b.entry_degree, b.size
    stable = kj.stable_from + D
    hilbert = {d: _image_dim(n, kj, D, d) for d in range(stable + 1)}
    rpt = _sheaf_report(_image_class(n, kj, D), stable, hilbert,
                        lambda: _image_presentation(b, j, kmat, kj))
    if rpt.note:
        raise EngineInvariantError("image sheaf of B^%d: %s" % (j, rpt.note))
    return rpt


# ---------------------------------------------------------------------------
# global sections over the full subgroup variety
# ---------------------------------------------------------------------------


def _sections_operator(theta: ThetaMatrix) -> Tuple[PolyMatrix, str]:
    """Theta where its global sections are read, and a note recording the
    route: Theta itself when V(G) is an affine space (polynomial
    identity), Theta on the dominant conic chart for built-in sl2 with p
    odd."""
    desc = theta.desc
    if desc.family in ("multi_additive", "additive_kernel"):
        return theta.mat, "polynomial identity over the affine variety"
    if desc.family == "restricted_lie" and desc.lie is None and desc.p != 2:
        return theta.mat.substitute(p1_chart(desc, theta.rep.fld)), "via the dominant conic chart"
    raise NotImplementedError(
        "global sections need an affine V(G) or the sl2 conic chart"
    )


def _sections_of(fld: Field, power: PolyMatrix, n: int) -> List[Vector]:
    """RREF basis of the m in k^n with power (m x 1) = 0: power vanishes on
    m x 1 iff every coefficient matrix A_m of it kills m."""
    rows: List[Vector] = []
    for _, entries in power.coefficients()[0]:
        by_row: Dict[int, Vector] = {}
        for r, col, c in entries:
            by_row.setdefault(r, [0] * n)[col] = c
        rows.extend(by_row.values())
    return span_basis(fld, kernel_basis(fld, rows, n))


def global_sections(theta: ThetaMatrix, j: int = 1) -> Tuple[List[Vector], str]:
    """Basis of {m in M : theta^j (m x 1) = 0 on V(G)} and a note recording
    the route.  Supported when V(G) is an affine space (polynomial identity)
    or for built-in sl2 with p odd (via the dominant conic chart)."""
    op, note = _sections_operator(theta)
    return _sections_of(theta.rep.fld, op.power(j), theta.dim), note


# ---------------------------------------------------------------------------
# projectivity / endotriviality, K-theory
# ---------------------------------------------------------------------------


@dataclass
class BundleTestReport:
    verdict: bool
    fiber_dims: Dict[int, Tuple[Tuple[int, ...], int]]
    note: str = ""


def _fiber_scan(theta: ThetaMatrix, max_ext: int) -> Dict[int, Tuple[Tuple[int, ...], int]]:
    """Fiber dimensions of ker/im at j = 1, the numbers of Jordan blocks of
    size < p, over the scanned points, each with the first point where it
    occurs."""
    p, evaluate, points = theta.desc.p, theta.mat.evaluate, orbit_scan(theta, max_ext)
    fiber: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    with _on_variety():
        for fld, point, _, _ in points:
            dim1 = mj_fiber_dim(fld, evaluate(point, fld), p, 1)
            fiber.setdefault(dim1, (point, dim1))
    return fiber


def projectivity_test(theta: ThetaMatrix, max_ext: int = 1) -> BundleTestReport:
    """M is projective iff every Theta(x) has type (N/p)[p], i.e. fiber 0
    (Suslin-Friedlander-Bendel 1997).  No j-rank needs a scan: (N/p)[p] has
    the largest j-rank of any p-nilpotent N x N matrix, which bounds the
    generic rank of Theta^j above, as the rank at each point bounds it below."""
    fiber = _fiber_scan(theta, max_ext)
    return BundleTestReport(set(fiber) == {0}, fiber)


def endotrivial_test(theta: ThetaMatrix, max_ext: int = 1) -> BundleTestReport:
    """M is endotrivial iff every Theta(x) has type m[p] + [1] or
    m[p] + [p-1] (Carlson-Friedlander-Pevtsova 2008): fiber 1 and N mod p
    in {1, p-1}.  No j-rank needs a scan, as in ``projectivity_test``:
    m[p] + [a] has the largest j-rank m (p - j) + max(0, a - j) of any
    p-nilpotent N x N matrix, since b -> max(0, b - j) is convex."""
    fiber = _fiber_scan(theta, max_ext)
    p = theta.desc.p
    return BundleTestReport(set(fiber) == {1} and theta.dim % p in (1, p - 1), fiber)


@dataclass(frozen=True)
class K0Class:
    """Class in K_0(P^1) written a*[O] + b*[O(1)]; every [O(n)] decomposes
    as n*[O(1)] - (n-1)*[O]."""

    c0: int
    c1: int

    @property
    def rank(self) -> int:
        return self.c0 + self.c1

    @property
    def degree(self) -> int:
        return self.c1

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(self.c0 - other.c0, self.c1 - other.c1)

    def twist(self, m: int) -> "K0Class":
        a, b = self.c0, self.c1
        return K0Class(-a * (m - 1) - b * m, a * m + b * (m + 1))

    def __str__(self) -> str:
        return "%d[O] + %d[O(1)]" % (self.c0, self.c1)


def k0_class(obj) -> K0Class:
    """K-theory class of a splitting type (or of anything with one)."""
    if isinstance(obj, GradedSubmodule):
        obj = splitting_type(obj)
    if isinstance(obj, SheafReport):
        if obj.splitting is None:
            raise ValueError("no splitting identified")
        obj = obj.splitting
    total = K0Class(0, 0)
    for n in obj.twists:
        total = total + K0Class(-(n - 1), n)
    return total


def rho_kappa_matrix(p: int) -> List[List[int]]:
    """Matrix with rows j = 1..p and columns lam = 0..p-1 whose entries are
    the dimensions of the spaces of global sections of ker(theta^j) on the
    projective cover of the weight-lam simple sl2-module.  Each cover's
    Theta is put on the conic chart once, and Theta^j is Theta^(j-1) Theta."""
    columns: List[List[int]] = []
    for lam in range(p):
        theta = theta_global(principal_indecomposable_sl2(lam, p))
        op, _ = _sections_operator(theta)
        power, column = op, []
        for j in range(1, p + 1):
            if j > 1:
                power = power * op
            column.append(len(_sections_of(theta.rep.fld, power, theta.dim)))
        columns.append(column)
    return [list(row) for row in zip(*columns)]


__all__ = [
    "EngineInvariantError",
    "P1Matrix",
    "GradedSubmodule",
    "SplittingType",
    "SheafReport",
    "BundleTestReport",
    "K0Class",
    "restrict_p1",
    "kernel_graded",
    "splitting_type",
    "subquotient_mj",
    "image_sheaf_report",
    "global_sections",
    "projectivity_test",
    "endotrivial_test",
    "k0_class",
    "rho_kappa_matrix",
]
