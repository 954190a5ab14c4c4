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
k = 0 .. d (``_degree_map``).  The kernel and image components, the
sliding rank count and the two-chart section counts all use this one
layout.

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
  degree-d map is the leading block of one block-Toeplitz matrix, and the
  degree-(d+1) map adds one block column that vanishes on the output
  blocks <= d.  So one echelon, slid by a block per degree, gives every
  rank, each degree paying only for what is new in it.

Subquotients ker(B^j)/im(B^q) and images then follow from additivity in
K_0(P^1): im(B^q) is O(-D)^N modulo K_q(-D), D = q * entry_degree, so
    rk = rk K_j - (N - rk K_q),  deg = deg K_j + (N - rk K_q) D + deg K_q.
A failure of these facts in a computation is an engine fault and raises
``EngineInvariantError``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .field import (
    Echelon,
    Field,
    Matrix,
    Vector,
    enumerate_elements,
    kernel_basis,
    mat_mul,
    rank,
    reduce_vector,
    row_reduce,
    span_basis,
)
from .operators import (ThetaMatrix, EngineInvariantError, _on_variety, mj_fiber_dim,
                        orbit_scan, constant_jrank_report, ConstancyReport)
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
    i.  A homogeneous entry has one term per exponent of t."""
    cols = [[0] * (n * (D + 1)) for _ in range(n)]
    for r, row in enumerate(power.rows):
        for i, f in enumerate(row):
            for e, c in f.terms.items():
                cols[i][e[1] * n + r] = c
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


class ComponentModule:
    """A graded module presented degreewise: each component is a quotient
    (span of ``basis`` rows) / (span of ``sub`` rows) of component vectors
    in a common free ambient.  Supports the kernel, image, and subquotient
    modules of powers of a restricted operator."""

    def __init__(self, b: P1Matrix, ker_power: int = 0, im_power: Optional[int] = None):
        """ker_power = j > 0: components are ker(B^j)_d; im_power = q:
        subtract the degree-shifted image of B^q.  ker_power == 0 with
        im_power = q gives the image module of B^q itself."""
        self.b = b
        self.ker_power = ker_power
        self.im_power = im_power
        self.fld = b.ring.fld
        self.n = b.size
        self._kmat = b.mat.power(ker_power) if ker_power else None
        self._imat = b.mat.power(im_power) if im_power else None
        D = b.entry_degree
        self._kcols = _toeplitz_columns(self._kmat, self.n, ker_power * D) if ker_power else None
        self._icols = _toeplitz_columns(self._imat, self.n, im_power * D) if im_power else None
        if ker_power and im_power:
            prod = self._kmat * self._imat
            if not prod.is_zero():
                raise ValueError(
                    "image of power %d is not contained in kernel of power %d" % (im_power, ker_power)
                )
        self._cache: Dict[int, Tuple[Matrix, Matrix]] = {}

    def component(self, d: int) -> Tuple[Matrix, Matrix]:
        """(basis rows, sub rows) for degree d; the module component is the
        quotient of the two spans.  Both are in RREF."""
        if d not in self._cache:
            self._cache[d] = self._build(d)
        return self._cache[d]

    def _build(self, d: int) -> Tuple[Matrix, Matrix]:
        if d < 0:
            return [], []
        if not self.ker_power:
            return self._image(d), []
        # the kernel of the degree-d map, read by rows
        rows = zip(*_degree_map(self._kcols, d))
        return span_basis(self.fld, kernel_basis(self.fld, rows, self.n * (d + 1))), self.sub(d)

    def _image(self, d: int) -> Matrix:
        """RREF rows of the degree-d component of im(B^q)."""
        src = d - self.im_power * self.b.entry_degree
        return span_basis(self.fld, _degree_map(self._icols, src)) if src >= 0 else []

    def sub(self, d: int) -> Matrix:
        """The sub rows of the degree-d component (im(B^q) in a subquotient,
        none otherwise), built without its basis and not kept."""
        return self._image(d) if self.ker_power and self.im_power else []

    def dim(self, d: int) -> int:
        """Dimension of the degree-d component; a component not already
        held is built for its size and not kept."""
        basis, sub = self._cache[d] if d in self._cache else self._build(d)
        return len(basis) - len(sub)

    def is_zero_element(self, d: int, v: Vector) -> bool:
        _, sub = self.component(d)
        return not any(reduce_vector(self.fld, sub, _pivot_columns(sub), v))


def _pivot_columns(rref: Matrix) -> List[int]:
    """Pivot columns of a matrix in RREF: the first nonzero of each row."""
    return [next(j for j, x in enumerate(row) if x) for row in rref]


# ---------------------------------------------------------------------------
# graded kernels and images: generator degrees from ranks
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


def _point_rank(fld: Field, power: PolyMatrix) -> int:
    """The largest rank of B^j = ``power`` at the points of P^1(F_q): at
    most its generic rank."""
    points = [(0, 1)] + [(1, t) for t in enumerate_elements(fld)]
    return max(rank(fld, power.evaluate(pt)) for pt in points)


def _degree_ranks(fld: Field, power: PolyMatrix, n: int, D: int) -> Iterator[int]:
    """The ranks of the degree-d maps of ``power`` (n x n, entries
    homogeneous of degree D), for d = 0, 1, ..., from one sliding echelon.

    The degree-d map is the leading block of one block-Toeplitz matrix: its
    columns are the Toeplitz columns c_i of ``power``, vectors over the
    output blocks 0 .. D, shifted by k = 0 .. d blocks.  The shifts by
    d + 1 that the degree-(d+1) map adds vanish on the blocks <= d, so a
    row whose pivot lies in block d is never reduced against again: it is
    counted as finished and dropped, and the window of D + 1 blocks moves
    on by one."""
    cols = _toeplitz_columns(power, n, D)
    ech = Echelon(fld)
    finished = 0
    while True:
        for c in cols:
            ech.insert(c)
        yield finished + len(ech.rows)
        k = bisect_left(ech.pivots, n)
        finished += k
        ech.rows = [row[n:] + [0] * n for row in ech.rows[k:]]
        ech.pivots = [pc - n for pc in ech.pivots[k:]]


def kernel_graded(b: P1Matrix, j: int = 1) -> GradedSubmodule:
    """The graded kernel K of the j-th power B^j of the restricted operator,
    by its generator degrees, read off ranks (the module docstring gives
    the theorems).  K is free with Hilbert function h(d) = N (d + 1) - rank
    of the degree-d map, so it has h(d) - sum_{a_i < d} (d - a_i + 1)
    generators in degree d.  The ranks come in degree order from one
    sliding block-Toeplitz echelon (``_degree_ranks``), shared by both
    passes of the count.  The count runs to N - r0 generators, r0 the
    largest rank of B^j at the points of P^1(F_q).  If it passes Forney's
    bound r0 * D, D = j * entry_degree, then r0 is below the generic rank
    and the count runs once more with r = ``generic_rank(B^j)`` (Bareiss);
    a second stop raises ``EngineInvariantError``.  ``hilbert`` holds h on
    the degrees 0 .. max a_i; ``certified_free`` is always True."""
    return _kernel_of_power(b, j, b.mat.power(j))


def _kernel_of_power(b: P1Matrix, j: int, power: PolyMatrix) -> GradedSubmodule:
    """``kernel_graded`` with B^j = ``power`` already formed."""
    fld = b.ring.fld
    n = b.size
    D = j * b.entry_degree
    ranks = _degree_ranks(fld, power, n, D)
    hilbert: Dict[int, int] = {}
    for r in (_point_rank(fld, power), None):
        if r is None:
            r = generic_rank(power)
        target, bound = n - r, r * D
        degrees: List[int] = []
        d = 0
        while len(degrees) < target and sum(degrees) + (target - len(degrees)) * d <= bound:
            if d not in hilbert:
                # both passes visit d = 0, 1, ..., so the next rank is degree d's
                hilbert[d] = n * (d + 1) - next(ranks)
            degrees += [d] * (hilbert[d] - sum(d - a + 1 for a in degrees))
            d += 1
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
        hilbert={d: hilbert[d] for d in range(top + 1)},
        certified_free=True,
        stable_from=max(top, 0) + 1,
        label="ker(theta^%d)" % j,
    )


def image_graded(b: P1Matrix, j: int = 1) -> GradedSubmodule:
    """The graded image of the j-th power, generated by columns of degree
    D = j * entry_degree, as many as its dimension in degree D."""
    n = b.size
    D = j * b.entry_degree
    kj = kernel_graded(b, j)
    hilbert = {d: _image_dim(n, kj, D, d) for d in range(0, D + n + 2)}
    # the image module need not be free, so no freeness certificate here
    return GradedSubmodule(
        ring=b.ring,
        ambient_rank=n,
        degrees=[D] * hilbert[D],
        hilbert=hilbert,
        certified_free=False,
        stable_from=None,
        label="im(theta^%d)" % j,
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
# subquotients and sheaf identification from components
# ---------------------------------------------------------------------------


@dataclass
class SheafReport:
    fiber_rank: Optional[int]
    degree: Optional[int]
    splitting: Optional[SplittingType]
    stable_from: Optional[int]
    hilbert: Dict[int, int]
    note: str = ""


def _twisted_sections_dim(comp: ComponentModule, d: int, bound: int) -> int:
    """dim H^0 of the sheaf of the module twisted by O(d), by two-chart
    gluing with denominator exponent ``bound``."""
    fld = comp.fld
    n = comp.n
    dd = d + bound
    if dd < 0:
        return 0
    basis, _ = comp.component(dd)
    k = len(basis)
    if k == 0:
        return 0
    E = bound
    big_sub = comp.sub(dd + bound + 2 * E)
    big_piv = _pivot_columns(big_sub)
    # map (a, b) -> (st)^E ( t^bound a - s^bound b ) reduced mod the sub
    cols = [reduce_vector(fld, big_sub, big_piv, _shift(v, n, E, bound + E)) for v in basis]
    cols += [reduce_vector(fld, big_sub, big_piv, [fld.neg(x) for x in _shift(v, n, bound + E, E)])
             for v in basis]
    rows = [list(r) for r in zip(*cols)]
    sols = kernel_basis(fld, rows, 2 * k) if rows else []
    if not sols:
        return 0
    # quotient by pairs representing the zero section: s-power kills a and
    # t-power kills b
    sub_a = comp.sub(dd + 2 * E)
    a_piv = _pivot_columns(sub_a)
    # each solution's two chart vectors, as combinations of the basis rows
    vas = mat_mul(fld, [sol[:k] for sol in sols], basis)
    vbs = mat_mul(fld, [sol[k:] for sol in sols], basis)
    zero_rows = [reduce_vector(fld, sub_a, a_piv, _shift(va, n, 2 * E, 0))
                 + reduce_vector(fld, sub_a, a_piv, _shift(vb, n, 0, 2 * E))
                 for va, vb in zip(vas, vbs)]
    # sections = compatible pairs modulo pairs vanishing on both charts;
    # the dimension is the rank of the chartwise evaluation of the solutions
    return len(row_reduce(fld, zero_rows)[1])


def _image_class(n: int, kernel: GradedSubmodule, shift: int) -> K0Class:
    """[im B^q] for the kernel K_q of B^q and D = q * entry_degree as
    ``shift``: B^q maps O(-D)^N onto its image with kernel K_q(-D), so
    [im B^q] = (N [O] - [K_q]) twisted by -D."""
    return (K0Class(n, 0) - k0_class(kernel)).twist(-shift)


def _image_dim(n: int, kernel: GradedSubmodule, shift: int, d: int) -> int:
    """Dimension of im(B^q) in degree d: the source component has degree
    d - D, and K_q is free on its generators."""
    return n * max(0, d - shift + 1) - kernel.free_dim(d - shift)


def _sheaf_report(comp: ComponentModule, cls: K0Class, stable_from: int,
                  hilbert: Dict[int, int]) -> SheafReport:
    """Report a sheaf from its K_0 class: rank 0 and 1 are read off, a
    rank-2 splitting is found by two-chart section counts on ``comp``, a
    larger rank is reported by rank and degree only."""
    r, deg = cls.rank, cls.degree
    if r < 0:
        raise EngineInvariantError("negative rank %d in K_0 for %s" % (r, cls))
    if r == 0:
        return SheafReport(0, 0, SplittingType(()), stable_from, hilbert)
    if r > 2:
        return SheafReport(r, deg, None, stable_from, hilbert,
                           note="rank > 2: splitting not identified")
    if r == 1:
        # a line bundle is determined by its degree
        return SheafReport(1, deg, SplittingType((deg,)), stable_from, hilbert)
    top = _rank2_top_twist(comp, comp.b, deg)
    if top is None:
        return SheafReport(r, deg, None, stable_from, hilbert, note="section scan inconclusive")
    other = deg - top
    if other > top:
        return SheafReport(r, deg, None, stable_from, hilbert, note="twist ordering inconsistent")
    return SheafReport(2, deg, SplittingType((top, other)), stable_from, hilbert)


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
    it is r (d + 1) + deg.  The splitting type is identified for fiber
    rank <= 2 (rank 2 by two-chart section counts); larger ranks are
    reported by rank and degree only."""
    q = b.p - j if im_power is None else im_power
    comp = ComponentModule(b, ker_power=j, im_power=q)
    # B^j and B^q are formed once, by the component module
    kj = _kernel_of_power(b, j, comp._kmat)
    kq = kj if q == j else _kernel_of_power(b, q, comp._imat)
    D = q * b.entry_degree
    n = b.size
    stable = max(kj.stable_from, kq.stable_from + D)
    hilbert = {d: kj.free_dim(d) - _image_dim(n, kq, D, d) for d in range(stable + 1)}
    return _sheaf_report(comp, k0_class(kj) - _image_class(n, kq, D), stable, hilbert)


def _rank2_top_twist(comp: ComponentModule, b: P1Matrix, deg: int) -> Optional[int]:
    """For a rank-2 sheaf O(a) + O(deg - a) with a >= deg - a, find a: walk
    the twist downward from -ceil(deg/2) (where sections certainly exist)
    until the two-chart section count hits zero."""
    bound = max(abs(deg) + 2 * b.entry_degree + 2, 4)
    d = -(deg // 2)
    limit = abs(deg) + b.entry_degree * b.size + 4
    prev_positive = None
    steps = 0
    while steps <= limit:
        h0 = _twisted_sections_dim(comp, d, bound)
        if h0 > 0:
            if _twisted_sections_dim(comp, d, 2 * bound) != h0:
                return None
            prev_positive = d
            d -= 1
            steps += 1
        else:
            if _twisted_sections_dim(comp, d, 2 * bound) != 0:
                return None
            return -prev_positive if prev_positive is not None else None
    return None


def image_sheaf_report(b: P1Matrix, j: int = 1) -> SheafReport:
    """Rank/degree/splitting (rank <= 2) of the sheaf of the graded image
    of the j-th power, from the kernel K_j: rk = N - rk K_j and
    deg = -D (N - rk K_j) - deg K_j with D = j * entry_degree."""
    comp = ComponentModule(b, ker_power=0, im_power=j)
    kj = _kernel_of_power(b, j, comp._imat)
    D = j * b.entry_degree
    n = b.size
    stable = kj.stable_from + D
    hilbert = {d: _image_dim(n, kj, D, d) for d in range(stable + 1)}
    return _sheaf_report(comp, _image_class(n, kj, D), stable, hilbert)


# ---------------------------------------------------------------------------
# global sections over the full subgroup variety
# ---------------------------------------------------------------------------


def global_sections(theta: ThetaMatrix, j: int = 1) -> Tuple[List[Vector], str]:
    """Basis of {m in M : theta^j (m x 1) = 0 on V(G)} and a note recording
    the route.  Supported when V(G) is an affine space (polynomial identity)
    or for built-in sl2 with p odd (via the dominant conic chart)."""
    desc = theta.desc
    fld = theta.rep.fld
    if desc.family in ("multi_additive", "additive_kernel"):
        power = theta.mat.power(j)
        note = "polynomial identity over the affine variety"
    elif desc.family == "restricted_lie" and desc.lie is None and desc.p != 2:
        chart = p1_chart(desc, fld)
        power = theta.mat.substitute(chart).power(j)
        note = "via the dominant conic chart"
    else:
        raise NotImplementedError(
            "global sections need an affine V(G) or the sl2 conic chart"
        )
    # theta^j (m x 1) vanishes iff every coefficient matrix A_m of it kills m
    n = theta.dim
    rows: List[Vector] = []
    for _, entries in power.coefficients()[0]:
        by_row: Dict[int, Vector] = {}
        for r, col, c in entries:
            by_row.setdefault(r, [0] * n)[col] = c
        rows.extend(by_row.values())
    return span_basis(fld, kernel_basis(fld, rows, n)), note


# ---------------------------------------------------------------------------
# projectivity / endotriviality, K-theory
# ---------------------------------------------------------------------------


@dataclass
class BundleTestReport:
    verdict: bool
    fiber_dims: Dict[int, Tuple[Tuple[int, ...], int]]
    rank_reports: List[ConstancyReport]
    note: str = ""


def _fiber_scan(theta: ThetaMatrix, max_ext: int) -> Dict[int, Tuple[Tuple[int, ...], int]]:
    """Fiber dimensions of ker/im at j = 1 over the scanned points, each
    with the first point where it occurs."""
    p = theta.desc.p
    fiber: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    for fld, point, _, _ in orbit_scan(theta, max_ext):
        dim1 = _on_variety(mj_fiber_dim, fld, theta.mat.evaluate(point, fld), p, 1)
        fiber.setdefault(dim1, (point, dim1))
    return fiber


def projectivity_test(theta: ThetaMatrix, max_ext: int = 1) -> BundleTestReport:
    """A module is projective iff the rank of every power of the local
    operator is constant and the fiber of ker/im at j = 1 vanishes
    everywhere."""
    p = theta.desc.p
    reports = [constant_jrank_report(theta, j, max_ext=max_ext) for j in (1, p - 1)]
    fiber = _fiber_scan(theta, max_ext)
    verdict = all(r.constant for r in reports) and max(fiber, default=0) == 0
    return BundleTestReport(verdict, fiber, reports)


def endotrivial_test(theta: ThetaMatrix, max_ext: int = 1) -> BundleTestReport:
    """A module of constant Jordan type is endotrivial iff the fiber of the
    j = 1 subquotient is one-dimensional at every point."""
    p = theta.desc.p
    reports = [constant_jrank_report(theta, j, max_ext=max_ext) for j in range(1, p)]
    fiber = _fiber_scan(theta, max_ext)
    verdict = all(r.constant for r in reports) and set(fiber) == {1}
    return BundleTestReport(verdict, fiber, reports)


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
    projective cover of the weight-lam simple sl2-module."""
    from .modules import principal_indecomposable_sl2
    from .operators import theta_global

    out: List[List[int]] = []
    thetas = [theta_global(principal_indecomposable_sl2(lam, p)) for lam in range(p)]
    for j in range(1, p + 1):
        row = []
        for lam in range(p):
            basis, _ = global_sections(thetas[lam], j)
            row.append(len(basis))
        out.append(row)
    return out


__all__ = [
    "EngineInvariantError",
    "P1Matrix",
    "GradedSubmodule",
    "SplittingType",
    "SheafReport",
    "BundleTestReport",
    "K0Class",
    "ComponentModule",
    "restrict_p1",
    "kernel_graded",
    "image_graded",
    "splitting_type",
    "subquotient_mj",
    "image_sheaf_report",
    "global_sections",
    "projectivity_test",
    "endotrivial_test",
    "k0_class",
    "rho_kappa_matrix",
]
