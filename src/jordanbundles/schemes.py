"""Descriptors for the supported infinitesimal group scheme families and
their one-parameter-subgroup varieties.

Supported families:

* ``multi_additive`` -- r-fold product of the first Frobenius kernel of the
  additive group; coordinates u_0..u_{r-1}, all of weight 1.
* ``additive_kernel`` -- r-th Frobenius kernel of the additive group;
  coordinates x_0..x_{r-1}, with x_i of weight p^i.
* ``restricted_lie`` -- first Frobenius kernel attached to a restricted Lie
  algebra.  sl2 is built in; arbitrary algebras can be given by structure
  constants, in which case the defining equations of the p-nilpotent cone
  are derived from Jacobson's formula.
* ``sl2_height2`` -- second Frobenius kernel of SL2 (p odd); coordinates
  x_0,y_0,z_0 of weight 1 and x_1,y_1,z_1 of weight p.
* ``gln_height2`` -- second Frobenius kernel of GL_n (n <= 3); coordinates
  two n x n matrices of variables, of weights 1 and p.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .field import (
    Field,
    Matrix,
    commutant_basis,
    is_zero_matrix,
    mat_combination,
    mat_mul,
    mat_sub,
    power_ranks,
    prime_field,
)
from .polyring import Poly, PolyMatrix, Substitution, WeightedRing, poly_eval

FAMILIES = ("multi_additive", "additive_kernel", "restricted_lie", "sl2_height2", "gln_height2")


class SamplingError(RuntimeError):
    """Too few points of V(G) were found in the draws a sample may take."""


@dataclass(frozen=True)
class LieData:
    """A restricted Lie algebra by structure constants.

    ``bracket[(i, j)]`` is the coordinate vector of [x_i, x_j] for i < j
    (the other half follows by antisymmetry); ``ppower[i]`` is the
    coordinate vector of x_i^[p].  Coordinates are prime-field integers.
    """

    names: Tuple[str, ...]
    bracket: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    ppower: Tuple[Tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_map(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        return {(i, j): v for i, j, v in self.bracket}


def sl2_lie_data() -> LieData:
    """sl2 with basis e, f, h: [e,f]=h, [h,e]=2e, [h,f]=-2f, e^[p]=f^[p]=0,
    h^[p]=h."""
    return LieData(
        names=("e", "f", "h"),
        bracket=(
            (0, 1, (0, 0, 1)),      # [e,f] = h
            (0, 2, (-2, 0, 0)),     # [e,h] = -2e
            (1, 2, (0, 2, 0)),      # [f,h] = 2f
        ),
        ppower=((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    )


@dataclass(frozen=True)
class GroupSchemeDesc:
    family: str
    p: int
    r: int = 1                    # height parameter for the additive families
    n: int = 2                    # matrix size for gln_height2
    lie: Optional[LieData] = None  # structure data for restricted_lie

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % self.family)
        if self.family in ("multi_additive", "additive_kernel") and self.r < 1:
            raise ValueError("r must be >= 1")
        if self.family == "gln_height2" and not 2 <= self.n <= 3:
            raise ValueError("gln_height2 supports n in {2, 3}")
        if self.family == "sl2_height2" and self.p == 2:
            raise ValueError("sl2_height2 requires p odd")

    @property
    def height(self) -> int:
        return {"multi_additive": 1, "additive_kernel": self.r,
                "restricted_lie": 1, "sl2_height2": 2, "gln_height2": 2}[self.family]

    def label(self) -> str:
        if self.family == "multi_additive":
            return "Ga(1)^x%d" % self.r
        if self.family == "additive_kernel":
            return "Ga(%d)" % self.r
        if self.family == "restricted_lie":
            return "Lie(%s)" % ("sl2" if self.lie is None else ",".join(self.lie.names))
        if self.family == "sl2_height2":
            return "SL2(2)"
        return "GL%d(2)" % self.n


def multi_additive(p: int, r: int) -> GroupSchemeDesc:
    return GroupSchemeDesc("multi_additive", p, r=r)


def additive_kernel(p: int, r: int) -> GroupSchemeDesc:
    return GroupSchemeDesc("additive_kernel", p, r=r)


def restricted_lie_sl2(p: int) -> GroupSchemeDesc:
    return GroupSchemeDesc("restricted_lie", p)


def restricted_lie(p: int, lie: LieData) -> GroupSchemeDesc:
    return GroupSchemeDesc("restricted_lie", p, lie=lie)


def sl2_height2(p: int) -> GroupSchemeDesc:
    return GroupSchemeDesc("sl2_height2", p)


def gln_height2(p: int, n: int) -> GroupSchemeDesc:
    return GroupSchemeDesc("gln_height2", p, n=n)


# ---------------------------------------------------------------------------
# algebra generators acted on by modules
# ---------------------------------------------------------------------------


def generator_names(desc: GroupSchemeDesc) -> Tuple[str, ...]:
    """Names of the distribution-algebra generators whose actions a module
    must supply (gln_height2 modules are built from the natural module
    instead, so no generator list is exposed for it)."""
    if desc.family == "multi_additive":
        return tuple("X_%d" % i for i in range(desc.r))
    if desc.family == "additive_kernel":
        return tuple("u_%d" % i for i in range(desc.r))
    if desc.family == "restricted_lie":
        return ("e", "f", "h") if desc.lie is None else desc.lie.names
    if desc.family == "sl2_height2":
        names = ["e", "f", "h", "e[p]", "f[p]", "h[p]"]
        p = desc.p
        for i in range(p):
            for j in range(p - i + 1):
                l = p - i - j
                if l < p and (i, j, l) not in ((p, 0, 0), (0, p, 0), (0, 0, p)):
                    names.append("d(%d,%d,%d)" % (i, j, l))
        return tuple(names)
    raise ValueError("gln_height2 has no explicit generator list")


# ---------------------------------------------------------------------------
# coordinate rings of the one-parameter-subgroup varieties
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def coord_ring(desc: GroupSchemeDesc, fld: Optional[Field] = None) -> Tuple[WeightedRing, List[Poly]]:
    """The weighted polynomial ring of the ambient affine space of V(G),
    together with the defining relations of V(G) inside it."""
    if fld is None:
        fld = prime_field(desc.p)
    p = desc.p
    if desc.family == "multi_additive":
        ring = WeightedRing(fld, tuple("u_%d" % i for i in range(desc.r)), (1,) * desc.r)
        return ring, []
    if desc.family == "additive_kernel":
        ring = WeightedRing(
            fld,
            tuple("x_%d" % i for i in range(desc.r)),
            tuple(p ** i for i in range(desc.r)),
        )
        return ring, []
    if desc.family == "restricted_lie":
        if desc.lie is None:
            ring = WeightedRing(fld, ("x", "y", "z"), (1, 1, 1))
            x, y, z = ring.var(0), ring.var(1), ring.var(2)
            return ring, [x * y + z * z]
        ring = WeightedRing(
            fld, tuple("c_%s" % nm for nm in desc.lie.names), (1,) * desc.lie.dim
        )
        return ring, [f for f in generic_p_power(desc.lie, p, ring) if not f.is_zero()]
    if desc.family == "sl2_height2":
        ring = WeightedRing(
            fld, ("x_0", "y_0", "z_0", "x_1", "y_1", "z_1"), (1, 1, 1, p, p, p)
        )
        x0, y0, z0, x1, y1, z1 = (ring.var(i) for i in range(6))
        rels = [
            x0 * y0 + z0 * z0,
            x1 * y1 + z1 * z1,
            x0 * y1 - x1 * y0,
            z0 * y1 - z1 * y0,
            x0 * z1 - x1 * z0,
        ]
        return ring, rels
    # gln_height2
    n = desc.n
    names = tuple("a%d_%d%d" % (lvl, i, j) for lvl in (0, 1) for i in range(n) for j in range(n))
    weights = (1,) * (n * n) + (p,) * (n * n)
    ring = WeightedRing(fld, names, weights)
    a0 = PolyMatrix(ring, [[ring.var(i * n + j) for j in range(n)] for i in range(n)])
    a1 = PolyMatrix(ring, [[ring.var(n * n + i * n + j) for j in range(n)] for i in range(n)])
    # the entries of [a0, a1], then of a0^p and of a1^p, row by row
    comm = [x - y for cr, ar in zip((a0 * a1).rows, (a1 * a0).rows) for x, y in zip(cr, ar)]
    powers = [f for mat in (a0, a1) for row in mat.power(p).rows for f in row]
    return ring, [f for f in comm + powers if not f.is_zero()]


def generic_p_power(lie: LieData, p: int, ring: WeightedRing) -> List[Poly]:
    """Coordinates of (sum_i c_i x_i)^[p] as polynomials in c_0..c_{n-1},
    via Jacobson's formula applied one summand at a time."""
    n = lie.dim
    fld = ring.fld
    br = lie.bracket_map()

    # work in ring extended by a formal parameter t
    tring = WeightedRing(fld, ring.names + ("t",), ring.weights + (1,))
    t_index = n

    def lift(v: List[Poly]) -> List[Poly]:
        out = []
        for f in v:
            out.append(Poly(tring, {e + (0,): c for e, c in f.terms.items()}))
        return out

    def bracket_vec(a: List[Poly], b: List[Poly]) -> List[Poly]:
        rng = a[0].ring
        out = [rng.zero() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j or a[i].is_zero() or b[j].is_zero():
                    continue
                if i < j:
                    sc = br.get((i, j))
                    sign = 1
                else:
                    sc = br.get((j, i))
                    sign = -1
                if sc is None:
                    continue
                coeff = a[i] * b[j]
                for k, ck in enumerate(sc):
                    ck = (sign * ck) % fld.p
                    if ck:
                        out[k] = out[k] + coeff.scale(ck)
        return out

    total = [ring.zero() for _ in range(n)]
    # p-semilinear part: (c_j x_j)^[p] = c_j^p x_j^[p]
    for j in range(n):
        cjp = ring.var(j) ** p
        for k, ck in enumerate(lie.ppower[j]):
            ck %= fld.p
            if ck:
                total[k] = total[k] + cjp.scale(ck)
    # Jacobson corrections while adding c_j x_j to the partial sum
    partial = [ring.zero() for _ in range(n)]
    for j in range(n):
        a = [ring.zero() for _ in range(n)]
        a[j] = ring.var(j)
        if j > 0:
            a_t = lift(a)
            b_t = lift(partial)
            ta = [f * tring.var(t_index) for f in a_t]
            tv = [x + y for x, y in zip(ta, b_t)]  # t*a + b
            w = a_t
            for _ in range(p - 1):
                w = bracket_vec(tv, w)
            # w = ad_{ta+b}^{p-1}(a); s_i has i * s_i = coeff of t^{i-1}
            for i in range(1, p):
                inv_i = pow(i, fld.p - 2, fld.p)
                for k in range(n):
                    coeffs: Dict[tuple, int] = {}
                    for e, c in w[k].terms.items():
                        if e[t_index] == i - 1:
                            coeffs[e[:t_index]] = c
                    if coeffs:
                        total[k] = total[k] + Poly(ring, coeffs).scale(inv_i)
        partial = [x + y for x, y in zip(partial, a)]
    return total


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

Point = Tuple[int, ...]


def point_dim(desc: GroupSchemeDesc) -> int:
    if desc.family in ("multi_additive", "additive_kernel"):
        return desc.r
    if desc.family == "restricted_lie":
        return 3 if desc.lie is None else desc.lie.dim
    if desc.family == "sl2_height2":
        return 6
    return 2 * desc.n * desc.n


def _trace_free_matrix(fld: Field, x: int, y: int, z: int) -> Matrix:
    return [[z, x], [y, fld.neg(z)]]


def validate_point(desc: GroupSchemeDesc, point: Sequence[int], fld: Optional[Field] = None) -> bool:
    """Membership of a point in V(G) over fld (defaults to the prime
    field)."""
    if fld is None:
        fld = prime_field(desc.p)
    point = tuple(point)
    if len(point) != point_dim(desc):
        raise ValueError("point has wrong length for %s" % desc.label())
    p = desc.p
    if desc.family in ("multi_additive", "additive_kernel"):
        return True
    if desc.family == "restricted_lie" and desc.lie is None:
        # M = [[z, x], [y, -z]] has M^2 = (z^2 + xy) I, so M is nilpotent
        # (and then M^p = 0) exactly when z^2 + xy = 0
        x, y, z = point
        return fld.add(fld.mul(z, z), fld.mul(x, y)) == 0
    if desc.family in ("restricted_lie", "sl2_height2"):
        _, rels = coord_ring(desc)
        return all(poly_eval(f, point, fld) == 0 for f in rels)
    # gln_height2
    n = desc.n
    a0 = [list(point[i * n:(i + 1) * n]) for i in range(n)]
    a1 = [list(point[n * n + i * n:n * n + (i + 1) * n]) for i in range(n)]
    if not is_zero_matrix(mat_sub(fld, mat_mul(fld, a0, a1), mat_mul(fld, a1, a0))):
        return False
    return all(not power_ranks(fld, m, p)[p] for m in (a0, a1))


def sl2_height2_check_disagreements(desc: GroupSchemeDesc, fld: Field) -> List[Point]:
    """Points where the defining relations of V(SL2(2)) and the naive
    'commuting pair of p-nilpotent trace-free matrices' test disagree
    (empty for p odd)."""
    if desc.family != "sl2_height2":
        raise ValueError("sl2_height2 descriptor required")
    out: List[Point] = []
    ring, rels = coord_ring(desc)
    for point in itertools.product(range(fld.q), repeat=6):
        rel_ok = all(poly_eval(f, point, fld) == 0 for f in rels)
        m0 = _trace_free_matrix(fld, point[0], point[1], point[2])
        m1 = _trace_free_matrix(fld, point[3], point[4], point[5])
        naive_ok = (
            not power_ranks(fld, m0, desc.p)[desc.p]
            and not power_ranks(fld, m1, desc.p)[desc.p]
            and is_zero_matrix(mat_sub(fld, mat_mul(fld, m0, m1), mat_mul(fld, m1, m0)))
        )
        if rel_ok != naive_ok:
            out.append(point)
    return out


def enumerate_points(
    desc: GroupSchemeDesc,
    fld: Optional[Field] = None,
    include_zero: bool = False,
    limit: int = 2_000_000,
) -> Iterator[Point]:
    """All points of V(G)(fld) in lexicographic coordinate order."""
    if fld is None:
        fld = prime_field(desc.p)
    dim = point_dim(desc)
    if fld.q ** dim > limit:
        raise ValueError(
            "refusing to enumerate %d candidate points; use sample_points" % fld.q ** dim
        )
    affine = desc.family in ("multi_additive", "additive_kernel")
    for point in itertools.product(range(fld.q), repeat=dim):
        if not include_zero and not any(point):
            continue
        if affine or validate_point(desc, point, fld):
            yield point


def _is_builtin_sl2(desc: GroupSchemeDesc) -> bool:
    return desc.family == "restricted_lie" and desc.lie is None


def orbit_representatives(desc: GroupSchemeDesc, fld: Optional[Field] = None) -> Iterator[Point]:
    """One point of each G_m-orbit of nonzero points of V(G)(fld), in
    lexicographic order.

    lambda -> lambda^w is a bijection of fld^x for every weight w, so each
    orbit has q - 1 points and exactly one of them has 1 as its first
    nonzero coordinate; that point is yielded.  In the integer coding it
    is also the lex-first point of its orbit, so a scan over
    representatives meets the first witness of any orbit-invariant
    property at the same point as a scan over all of V(G)(fld).

    The affine families take a leading 1 and a free tail, the u(sl2) cone
    z^2 + xy = 0 is (0, 1, 0) and (1, -z^2, z), and the other families keep
    the leading-1 points of the ambient space that lie on V(G)."""
    if fld is None:
        fld = prime_field(desc.p)
    if _is_builtin_sl2(desc):
        yield (0, 1, 0)
        yield from sorted((1, fld.neg(fld.mul(z, z)), z) for z in range(fld.q))
        return
    dim = point_dim(desc)
    affine = desc.family in ("multi_additive", "additive_kernel")
    for lead in range(dim - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(fld.q), repeat=dim - lead - 1):
            point = head + tail
            if affine or validate_point(desc, point, fld):
                yield point


def representative_count(desc: GroupSchemeDesc, fld: Field) -> int:
    """The number of candidate points ``orbit_representatives`` walks
    through: q + 1 on the u(sl2) cone, (q^dim - 1)/(q - 1) elsewhere."""
    if _is_builtin_sl2(desc):
        return fld.q + 1
    return (fld.q ** point_dim(desc) - 1) // (fld.q - 1)


def orbit(desc: GroupSchemeDesc, point: Sequence[int], fld: Optional[Field] = None) -> List[Point]:
    """The G_m-orbit (lambda^(w_i) x_i) of a point, lambda = 1, ..., q - 1,
    where w_i is the weight of the i-th coordinate (1 or a power of p)."""
    if fld is None:
        fld = prime_field(desc.p)
    weights = coord_ring(desc)[0].weights
    return [tuple(fld.mul(fld.pow(lam, w), x) for w, x in zip(weights, point))
            for lam in range(1, fld.q)]


def _ambient_draws(desc: GroupSchemeDesc, fld: Field, rng) -> Iterator[Optional[Point]]:
    """Uniform points of the ambient space, None where off V(G)."""
    dim = point_dim(desc)
    while True:
        point = tuple(rng.randrange(fld.q) for _ in range(dim))
        yield point if validate_point(desc, point, fld) else None


def _gln_draws(desc: GroupSchemeDesc, fld: Field, rng) -> Iterator[Optional[Point]]:
    """Points of V(GL_n(2)) by structure: A_0 uniform among the n x n
    matrices with A_0^p = 0 (1 in q^n draws for n <= p), then A_1 uniform
    among the combinations of a commutant basis of A_0 with A_1^p = 0.
    One random matrix per draw; None when a draw is rejected."""
    n, p = desc.n, desc.p
    add, neg, mul = fld._add_table, fld._neg_table, fld._mul_table

    def det2(a: int, b: int, c: int, d: int) -> int:
        return add[mul[a][d]][neg[mul[b][c]]]

    def nilpotent(m: Matrix) -> bool:
        # A is nilpotent when its characteristic polynomial is x^n: its trace,
        # sum of principal 2 x 2 minors and determinant vanish, tested in that
        # order (most draws fail early).  Then A^p = 0 unless n > p
        if n == 2:
            (a, b), (c, d) = m
            return not add[a][d] and not det2(a, b, c, d)
        (a, b, c), (d, e, f), (g, h, i) = m
        if add[add[a][e]][i] or add[add[det2(a, b, d, e)][det2(a, c, g, i)]][minor := det2(e, f, h, i)]:
            return False
        det = add[add[mul[a][minor]][mul[b][det2(f, d, i, g)]]][mul[c][det2(d, e, g, h)]]
        return not det and (p > 2 or not power_ranks(fld, m, p)[p])

    while True:
        a0 = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(n)]
        if not nilpotent(a0):
            yield None
            continue
        basis = commutant_basis(fld, [a0], n)
        while True:
            a1 = mat_combination(fld, n, [rng.randrange(fld.q) for _ in basis], basis)
            if nilpotent(a1):
                yield tuple(x for m in (a0, a1) for row in m for x in row)
                break
            yield None


def _sl2h2_draws(desc: GroupSchemeDesc, fld: Field, rng) -> Iterator[Point]:
    """Uniform nonzero points (alpha_0, alpha_1) of V(SL2(2)): both on the
    cone z^2 + xy = 0 and proportional.  There are (q^2 - 1)(q + 1) of
    them: alpha_0 = 0 with alpha_1 one of the q^2 - 1 nonzero cone points
    (drawn with probability 1/(q + 1)), or alpha_0 a nonzero cone point and
    alpha_1 = c alpha_0 with c in F_q."""
    q = fld.q

    def cone_point() -> Point:
        # (0, y, 0) with y != 0, or (x, -z^2/x, z) with x != 0
        k = rng.randrange(q * q - 1)
        if k < q - 1:
            return (0, k + 1, 0)
        x, z = divmod(k - (q - 1), q)
        x += 1
        return (x, fld.neg(fld.div(fld.mul(z, z), x)), z)

    while True:
        if rng.randrange(q + 1) == 0:
            yield (0, 0, 0) + cone_point()
        else:
            a0 = cone_point()
            c = rng.randrange(q)
            yield a0 + tuple(fld.mul(c, x) for x in a0)


def sample_points(desc: GroupSchemeDesc, fld: Field, count: int, rng) -> List[Point]:
    """Seeded random sample of (not necessarily distinct) nonzero points,
    from at most 10000 * count draws: by structure for gln_height2 and
    sl2_height2, else uniform in the ambient space and kept when on V(G).
    Raises ``SamplingError`` when the draws run out first."""
    draws = {"gln_height2": _gln_draws, "sl2_height2": _sl2h2_draws}.get(
        desc.family, _ambient_draws)(desc, fld, rng)
    out: List[Point] = []
    attempts = 0
    while len(out) < count and attempts < 10000 * count:
        attempts += 1
        point = next(draws)
        if point is not None and any(point):
            out.append(point)
    if len(out) < count:
        raise SamplingError("could not sample enough points of %s" % desc.label())
    return out


def frobenius_point_map(desc: GroupSchemeDesc, point: Sequence[int], s: int, fld: Optional[Field] = None) -> Point:
    """Image of a point of V(G) under the s-th power of Frobenius: shift the
    coordinate blocks up by s heights and raise entries to the p^s.  A block
    is one coordinate in the additive families (tested first), half the
    point at height 2 and the whole point for a restricted Lie algebra.  The
    table a -> a^(p^s) is read with one dict ``get`` once built.  A point
    whose length is not ``point_dim(desc)``, or s < 0, raises ValueError."""
    if desc.family in ("multi_additive", "additive_kernel"):
        dim, shift = desc.r, s
    else:
        dim = point_dim(desc)
        shift = s * (dim if desc.family == "restricted_lie" else dim // 2)
    if len(point) != dim:
        raise ValueError("point has wrong length for %s" % desc.label())
    if s <= 0:
        if s:
            raise ValueError("s must be >= 0")
        return tuple(point)
    if shift >= dim:
        return (0,) * dim
    if fld is None:
        fld = prime_field(desc.p)
    frob = fld._frobenius.get(s) or fld.frobenius_table(s)
    return (0,) * shift + tuple(map(frob.__getitem__, point[:dim - shift]))


# ---------------------------------------------------------------------------
# charts of the projectivized variety with standard grading
# ---------------------------------------------------------------------------


def st_ring(fld: Field) -> WeightedRing:
    return WeightedRing(fld, ("s", "t"), (1, 1))


def conic_chart_sl2(desc: GroupSchemeDesc, fld: Optional[Field] = None) -> Substitution:
    """The degree-2 parametrization (s, t) -> (s^2, -t^2, s*t) of the conic
    Proj of V(sl2); requires p odd."""
    if not (desc.family == "restricted_lie" and desc.lie is None):
        raise ValueError("built-in sl2 descriptor required")
    if desc.p == 2:
        raise ValueError("the conic chart requires p odd")
    if fld is None:
        fld = prime_field(desc.p)
    source, _ = coord_ring(desc, fld)
    target = st_ring(fld)
    s, t = target.var(0), target.var(1)
    return Substitution(source, target, (s * s, -(t * t), s * t), scale=2)


def identity_chart_rank2(desc: GroupSchemeDesc, fld: Optional[Field] = None) -> Substitution:
    """For a rank-2 multi-additive group the projectivized variety is all of
    P^1; the chart is the identity relabeling (u_0, u_1) -> (s, t)."""
    if desc.family != "multi_additive" or desc.r != 2:
        raise ValueError("rank-2 multi_additive descriptor required")
    if fld is None:
        fld = prime_field(desc.p)
    source, _ = coord_ring(desc, fld)
    target = st_ring(fld)
    return Substitution(source, target, (target.var(0), target.var(1)), scale=1)


def p1_chart(desc: GroupSchemeDesc, fld: Optional[Field] = None) -> Optional[Substitution]:
    """A standard-graded P^1 chart of the projectivized subgroup variety if
    one is built in: identity for rank-2 multi-additive, the conic for sl2."""
    if desc.family == "multi_additive" and desc.r == 2:
        return identity_chart_rank2(desc, fld)
    if desc.family == "restricted_lie" and desc.lie is None and desc.p != 2:
        return conic_chart_sl2(desc, fld)
    return None


__all__ = [
    "FAMILIES",
    "SamplingError",
    "LieData",
    "GroupSchemeDesc",
    "Point",
    "sl2_lie_data",
    "multi_additive",
    "additive_kernel",
    "restricted_lie",
    "restricted_lie_sl2",
    "sl2_height2",
    "gln_height2",
    "generator_names",
    "coord_ring",
    "generic_p_power",
    "point_dim",
    "validate_point",
    "sl2_height2_check_disagreements",
    "enumerate_points",
    "orbit_representatives",
    "representative_count",
    "orbit",
    "sample_points",
    "frobenius_point_map",
    "st_ring",
    "conic_chart_sl2",
    "identity_chart_rank2",
    "p1_chart",
]
