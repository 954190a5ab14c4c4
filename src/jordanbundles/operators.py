"""The global p-nilpotent operator of a module, its specializations at
points of the one-parameter-subgroup variety, Jordan types, and constancy
reports."""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .field import (
    EngineInvariantError,
    Field,
    Matrix,
    ext_field_build,
    jordan_basis,
    kernel_basis,
    mat_pow,
    power_ranks,
    span_basis,
)
from .modules import ModuleRep, _divided_power_op
from .polyring import PolyMatrix, WeightedRing, generic_rank, monomial_basis
from .schemes import (
    GroupSchemeDesc,
    Point,
    coord_ring,
    generator_names,
    orbit,
    orbit_representatives,
    p1_chart,
    representative_count,
    sample_points,
    validate_point,
)


@dataclass
class ThetaMatrix:
    rep: ModuleRep
    ring: WeightedRing
    mat: PolyMatrix
    entry_degree: int

    @property
    def desc(self) -> GroupSchemeDesc:
        return self.rep.desc

    @property
    def dim(self) -> int:
        return self.rep.dim


def _multinomial_mod(total: int, parts: Sequence[int], p: int) -> int:
    num = math.factorial(total)
    for k in parts:
        num //= math.factorial(k)
    return num % p


def _kron_terms(ring: WeightedRing, a: PolyMatrix, b: PolyMatrix):
    """The Kronecker product of a and b as ``PolyMatrix.from_terms`` reads
    it: A_m (x) B_n at x^(m + n) for each pair of monomials m of a and n of
    b, entry ((i, k), (j, l)) at row i b.nrows + k, column j b.ncols + l."""
    mul = ring.fld._mul_table
    bn, bm = b.nrows, b.ncols
    for ea, left in a.terms.items():
        for eb, right in b.terms.items():
            yield ([(i * bn + k, j * bm + l, mul[c][d]) for i, j, c in left for k, l, d in right],
                   ring.monomial(tuple(x + y for x, y in zip(ea, eb))))


def theta_global(rep: ModuleRep) -> ThetaMatrix:
    """The universal operator of the module as a polynomial matrix over the
    coordinate ring of the ambient space of V(G).  Outside gl_n it is built
    from its coefficient form, a list of (action matrix, monomial) pairs."""
    desc, fld = rep.desc, rep.fld
    p = desc.p
    ring, _ = coord_ring(desc, fld)
    n = rep.dim
    act = rep.action

    def build(terms, degree: int) -> ThetaMatrix:
        entries = [([(i, j, c) for i, row in enumerate(m) for j, c in enumerate(row) if c], f)
                   for m, f in terms]
        return ThetaMatrix(rep, ring, PolyMatrix.from_terms(ring, n, n, entries), degree)

    if desc.family in ("multi_additive", "restricted_lie"):
        return build([(act[nm], ring.var(i)) for i, nm in enumerate(generator_names(desc))], 1)

    if desc.family == "additive_kernel":
        # exponent tuples (i_0..i_{r-1}) with sum_l i_l p^l = p^(r-1)
        target = p ** (desc.r - 1)
        terms = []
        for expo in monomial_basis(ring, target):
            c = _multinomial_mod(sum(expo), expo, p)
            if c:
                terms.append((_divided_power_op(rep, sum(expo)), ring.monomial(expo, c)))
        return build(terms, target)

    if desc.family == "sl2_height2":
        x0, y0, z0, x1, y1, z1 = (ring.var(i) for i in range(6))
        terms = [(act["e"], x1), (act["f"], y1), (act["h"], z1),
                 (act["e[p]"], x0 ** p), (act["f[p]"], y0 ** p), (act["h[p]"], z0 ** p)]
        for i in range(p):
            for j in range(p - i + 1):
                l = p - i - j
                if j < p and l < p:
                    terms.append((act["d(%d,%d,%d)" % (i, j, l)], x0 ** i * y0 ** j * z0 ** l))
        return build(terms, p)

    # gln_height2: level(l, c) is c a_l, a_l the generic matrix of the
    # level-l coordinates
    nsize = desc.n

    def level(l: int, c: int = 1) -> PolyMatrix:
        return PolyMatrix.from_terms(ring, nsize, nsize, [
            ([(i, j, c)], ring.var((l * nsize + i) * nsize + j))
            for i in range(nsize) for j in range(nsize)])

    if rep.construction is None:
        raise ValueError("gln_height2 modules must be structural")
    if rep.construction[0] == "gln_natural":
        return ThetaMatrix(rep, ring, level(1), p)
    d = rep.construction[1]
    # beta_f = a0^f / f! = beta_{f-1} a0 / f for f < p, beta_p = a1
    betas: List[PolyMatrix] = [PolyMatrix.identity(ring, nsize), level(0)]
    for f in range(2, p):
        betas.append(betas[-1] * level(0, pow(f, p - 2, p)))
    betas.append(level(1))
    # convolve tensor factors, tracking coefficients of T^0..T^p: the
    # coefficient of T^m is the sum of conv[a] (x) beta_(m-a), on the forms
    conv: List[PolyMatrix] = [betas[m] for m in range(p + 1)]
    for _ in range(1, d):
        size = conv[0].nrows * nsize
        conv = [PolyMatrix.from_terms(ring, size, size, [
            t for a in range(m + 1) for t in _kron_terms(ring, conv[a], betas[m - a])])
            for m in range(p + 1)]
    return ThetaMatrix(rep, ring, conv[p], p)


def theta_local(theta: ThetaMatrix, point: Sequence[int], fld: Optional[Field] = None) -> Matrix:
    if fld is None:
        fld = theta.rep.fld
    if not validate_point(theta.desc, point, fld):
        raise ValueError("point %r is not on V(%s)" % (tuple(point), theta.desc.label()))
    return theta.mat.evaluate(point, fld)


# ---------------------------------------------------------------------------
# Jordan types
# ---------------------------------------------------------------------------


class JordanType(NamedTuple):
    """``counts[i - 1]`` Jordan blocks of size i, i = 1..p.  It is the tuple
    (p, counts), so it compares equal to the plain tuple ``(p, counts)``,
    and equality, hashing and ``.counts`` run in C."""

    p: int
    counts: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(i * a for i, a in enumerate(self.counts, start=1))

    def partition(self) -> Tuple[int, ...]:
        return tuple(size for size in range(self.p, 0, -1) for _ in range(self.counts[size - 1]))

    def block_count(self, size: int) -> int:
        return self.counts[size - 1]

    def __str__(self) -> str:
        bits = ["%s[%d]" % (a if a > 1 else "", size)
                for size, a in reversed(list(enumerate(self.counts, start=1))) if a]
        return " + ".join(bits) or "0"


_JORDAN_TYPE_MEMO = 1024


def jordan_type(fld: Field, n: Matrix, p: int) -> JordanType:
    """Jordan type of a p-nilpotent matrix from the rank sequence of its
    powers (``power_ranks``): a_i = r_{i-1} - 2 r_i + r_{i+1}.

    Results are memoised by value, least recently used first out, keyed
    by ``(fld, n as a tuple of row tuples, p)``: a scan meets the same
    Theta(x) at many points (twist at p = 13 asks about 400 times per
    matrix).  A hit is the copy of ``n`` and one C ``lru_cache`` lookup.  A
    caller cycling through more matrices than the bound misses every time,
    so ``_JORDAN_TYPE_MEMO`` = 1024 lets callers that revisit a few hundred
    small operators in turn keep hitting.  Sharing is safe: a
    ``Field`` compares by (p, e, modulus), so two fields never share an
    entry; the key is a copy; ``JordanType`` is a tuple; a matrix that is
    not p-nilpotent raises on every call, as exceptions are not stored.  The
    memo holds at most bound x N^2 entries: at N = 122 (the largest
    operator the checks or tests scan, at most 134 times in the fiber scan
    of Omega^2 at p = 11) that is 16 MB, and 120 MB at the bound."""
    return _jordan_type_of(fld, tuple(map(tuple, n)), p)


@lru_cache(maxsize=_JORDAN_TYPE_MEMO)
def _jordan_type_of(fld: Field, n: Tuple[Tuple[int, ...], ...], p: int) -> JordanType:
    ranks = power_ranks(fld, n, p)
    if ranks[p]:
        raise ValueError("matrix is not p-nilpotent (p = %d)" % p)
    ranks.append(0)
    counts = tuple([ranks[i - 1] - 2 * ranks[i] + ranks[i + 1] for i in range(1, p + 1)])
    return JordanType(p, counts)


def jordan_type_chain_oracle(fld: Field, n: Matrix, p: int) -> JordanType:
    """Independent route to the Jordan type: the lengths of explicit Jordan
    chains, from one pass of iterated images that carries preimages
    (``jordan_basis``).  It reads no rank sequence: the sizes count only
    once the chains are certified as a Jordan basis of n, and chains that
    are not one raise ``EngineInvariantError``."""
    _, _, sizes = jordan_basis(fld, n)
    if sizes and sizes[0] > p:
        raise ValueError("matrix is not p-nilpotent (p = %d)" % p)
    return JordanType(p, tuple(map(sizes.count, range(1, p + 1))))


@contextmanager
def _on_variety():
    """Around a loop over Theta(x) at points x of V(G), where it is
    p-nilpotent: a ``ValueError`` saying otherwise is an engine fault.  The
    loop's points must come from an iterator that has checked its input."""
    try:
        yield
    except ValueError as exc:
        raise EngineInvariantError("local operator on V(G): %s" % exc) from exc


def local_jtype(theta: ThetaMatrix, point: Sequence[int], fld: Optional[Field] = None) -> JordanType:
    if fld is None:
        fld = theta.rep.fld
    local = theta_local(theta, point, fld)
    with _on_variety():
        return jordan_type(fld, local, theta.desc.p)


def mj_fiber_dim(fld: Field, n: Matrix, p: int, j: int) -> int:
    """dim ker(n^j) / im(n^(p-j)) for a p-nilpotent matrix (the image is
    contained in the kernel, so this is a plain dimension difference),
    read from the memoised ``jordan_type``: a block of size i adds
    min(i, j) to dim ker n^j and max(0, i + j - p) to rank n^(p-j)."""
    if not 0 <= j <= p:
        raise ValueError("j must be between 0 and p = %d, got %d" % (p, j))
    # the image lies in the kernel exactly when n^j n^(p-j) = n^p = 0,
    # which jordan_type checks
    jt = jordan_type(fld, n, p)
    return sum((min(i, j) - max(0, i + j - p)) * a for i, a in enumerate(jt.counts, start=1))


# ---------------------------------------------------------------------------
# constancy scans
# ---------------------------------------------------------------------------

_SCAN_LIMIT = 250_000
_SAMPLE_COUNT = 60


@dataclass
class ConstancyReport:
    j: int
    constant: bool
    rank: Optional[int]
    generic_rank: Optional[int]
    ranks_seen: Dict[int, Point]
    fields_scanned: List[Tuple[int, int]]
    points_scanned: int
    sampled: bool = False

    def witnesses(self) -> List[Tuple[int, Point]]:
        return sorted(self.ranks_seen.items())


def _scan_fields(base: Field, max_ext: int) -> List[Field]:
    """GF(p^e) for e = 1 .. max_ext over a prime field, or the module's own
    field alone; its extensions are not built, so a larger max_ext over
    GF(p^e), e > 1, is a ``ValueError``."""
    if max_ext < 1:
        raise ValueError("max_ext must be at least 1, got %d" % max_ext)
    if base.e > 1:
        if max_ext > 1:
            raise ValueError("max_ext must be 1 for a module over %s, got %d" % (base, max_ext))
        return [base]
    return [ext_field_build(base.p, e) for e in range(1, max_ext + 1)]


def iter_scan_points(desc: GroupSchemeDesc, base: Field, max_ext: int,
                     rng: Optional[random.Random] = None):
    """Yield (field, point, weight, sampled) over extensions of degree <=
    max_ext.  A field is scanned on P(G): one representative per G_m-orbit
    (``orbit_representatives``), weighing the q - 1 points of its orbit.
    When more than ``_SCAN_LIMIT`` representatives would be walked, a
    seeded sample of ``_SAMPLE_COUNT`` points stands in, each weighing 1.
    A bad ``max_ext`` raises here, before the first point is asked for."""
    if rng is None:
        rng = random.Random(0)
    return _scan(desc, _scan_fields(base, max_ext), rng)


def _scan(desc: GroupSchemeDesc, fields: List[Field], rng: random.Random):
    for fld in fields:
        if representative_count(desc, fld) <= _SCAN_LIMIT:
            for point in orbit_representatives(desc, fld):
                yield fld, point, fld.q - 1, False
        else:
            for point in sample_points(desc, fld, _SAMPLE_COUNT, rng):
                yield fld, point, 1, True


def homogeneous_degree(theta: ThetaMatrix) -> int:
    """The common weighted degree of the entries of Theta.  It makes
    Theta(lambda . x) = lambda^deg Theta(x), so every power of the local
    operator has one rank, kernel, image and Jordan type on each G_m-orbit:
    the theorem the orbit scans rest on.  Raises ``EngineInvariantError``
    when the entries have no common degree."""
    deg = theta.mat.entries_homogeneous_of_degree()
    if deg is None:
        raise EngineInvariantError(
            "Theta of a %s-module is not weighted-homogeneous of one degree, "
            "so it is not constant on G_m-orbits" % theta.desc.label())
    return deg


def orbit_scan(theta: ThetaMatrix, max_ext: int, rng: Optional[random.Random] = None):
    """``iter_scan_points`` for theta, once its homogeneity is checked."""
    homogeneous_degree(theta)
    return iter_scan_points(theta.desc, theta.rep.fld, max_ext, rng)


def constant_jrank_report(theta: ThetaMatrix, j: int, max_ext: int = 2,
                          rng: Optional[random.Random] = None) -> ConstancyReport:
    """Scan the rank of the j-th power of the local operator over all points
    of V(G) with coordinates in extensions up to degree max_ext, and compare
    with the generic rank over a chart when one is available."""
    ranks_seen: Dict[int, Point] = {}
    fields: List[Tuple[int, int]] = []
    count = 0
    sampled = False
    for fld, point, weight, was_sampled in orbit_scan(theta, max_ext, rng):
        sampled = sampled or was_sampled
        if (fld.p, fld.e) not in fields:
            fields.append((fld.p, fld.e))
        m = theta.mat.evaluate(point, fld)
        r = power_ranks(fld, m, j)[j]
        count += weight
        if r not in ranks_seen:
            ranks_seen[r] = point
    gen = generic_jrank(theta, j)
    constant = len(ranks_seen) == 1 and (gen is None or gen in ranks_seen)
    return ConstancyReport(
        j=j,
        constant=constant,
        rank=next(iter(ranks_seen)) if len(ranks_seen) == 1 else None,
        generic_rank=gen,
        ranks_seen=ranks_seen,
        fields_scanned=fields,
        points_scanned=count,
        sampled=sampled,
    )


def generic_jrank(theta: ThetaMatrix, j: int) -> Optional[int]:
    """Rank of the j-th power of the global operator at the generic point.
    On the P^1 chart, when one is built in, it is N minus the rank of the
    graded kernel of B^j, which Forney's bound certifies (see
    ``bundles.kernel_graded``); when V(G) is any other affine space it is
    found by fraction-free elimination; None otherwise."""
    from .bundles import kernel_graded, restrict_p1

    desc = theta.desc
    if p1_chart(desc, theta.rep.fld) is not None:
        return theta.dim - kernel_graded(restrict_p1(theta), j).rank
    if desc.family in ("multi_additive", "additive_kernel"):
        return generic_rank(theta.mat.power(j))
    return None


def jtype_scan(theta: ThetaMatrix, max_ext: int = 1,
               rng: Optional[random.Random] = None) -> Dict[JordanType, Point]:
    """Distinct local Jordan types with one witness point each."""
    seen: Dict[JordanType, Point] = {}
    p, evaluate, points = theta.desc.p, theta.mat.evaluate, orbit_scan(theta, max_ext, rng)
    with _on_variety():
        for fld, point, _, _ in points:
            seen.setdefault(jordan_type(fld, evaluate(point, fld), p), point)
    return seen


def rank_variety_scan(theta: ThetaMatrix, j: int = 1, max_ext: int = 1,
                      rng: Optional[random.Random] = None) -> Dict[Point, int]:
    """Rank of the j-th power of the local operator at every scanned point,
    in lexicographic order (the locus of sub-maximal rank is the
    interesting part).  Each orbit is filled in from its representative."""
    out: Dict[Point, int] = {}
    for fld, point, _, sampled in orbit_scan(theta, max_ext, rng):
        if fld.e != 1:
            continue
        r = power_ranks(fld, theta.mat.evaluate(point, fld), j)[j]
        for pt in [point] if sampled else orbit(theta.desc, point, fld):
            out[pt] = r
    return dict(sorted(out.items()))


def constant_kernel_image_property(theta: ThetaMatrix, j: int, max_ext: int = 1,
                                   rng: Optional[random.Random] = None):
    """Check whether ker and im of the j-th power of the local operator are
    the same subspace at every scanned point.  Returns a dict with the
    verdicts and witnesses."""
    kernels: List[Tuple[Point, Matrix]] = []
    images: List[Tuple[Point, Matrix]] = []
    for fld, point, _, _ in orbit_scan(theta, max_ext, rng):
        if fld.e != 1:
            continue  # subspaces over different fields are not comparable
        m = mat_pow(fld, theta.mat.evaluate(point, fld), j)
        ker = span_basis(fld, kernel_basis(fld, m, theta.dim))
        img = span_basis(fld, [list(col) for col in zip(*m)])
        kernels.append((point, ker))
        images.append((point, img))
    ker_const = all(k == kernels[0][1] for _, k in kernels)
    img_const = all(im == images[0][1] for _, im in images)
    result = {
        "kernel_constant": ker_const,
        "image_constant": img_const,
        "kernel": kernels[0][1] if ker_const else None,
        "image": images[0][1] if img_const else None,
    }
    if not ker_const:
        diff = next((pt, k) for pt, k in kernels if k != kernels[0][1])
        result["kernel_witnesses"] = [kernels[0], diff]
    if not img_const:
        diff = next((pt, im) for pt, im in images if im != images[0][1])
        result["image_witnesses"] = [images[0], diff]
    return result


__all__ = [
    "EngineInvariantError",
    "ThetaMatrix",
    "JordanType",
    "ConstancyReport",
    "theta_global",
    "theta_local",
    "jordan_type",
    "jordan_type_chain_oracle",
    "local_jtype",
    "mj_fiber_dim",
    "iter_scan_points",
    "homogeneous_degree",
    "orbit_scan",
    "constant_jrank_report",
    "generic_jrank",
    "jtype_scan",
    "rank_variety_scan",
    "constant_kernel_image_property",
]
