"""The paper's headline checks, as one table.

``CHECKS`` maps a check name to ``(supports, rows)``: ``supports(p)`` says
whether the check is defined at the prime p, and ``rows(p, n_max, seed)``
runs it and returns one dict per comparison, with keys ``check``,
``expected``, ``computed`` (both as strings) and ``pass``.  The
``reproduce`` command and acceptance criteria 01-07 both run this table,
so the paper's values are written down once, in the three formulas below
and in the rows of the checks.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bundles import (
    SplittingType,
    global_sections,
    kernel_graded,
    restrict_p1,
    rho_kappa_matrix,
    splitting_type,
    subquotient_mj,
)
from .field import ext_field_build
from .modules import (
    ModuleRep,
    construct_duals_example,
    construct_syzygy_E2,
    construct_weyl_sl2,
    construct_zigzag,
    dual_module,
    external_product,
    frobenius_twist_gar,
    principal_indecomposable_sl2,
    random_module,
)
from .operators import (
    JordanType,
    ThetaMatrix,
    _on_variety,
    homogeneous_degree,
    jordan_type,
    theta_global,
)
from .polyring import Substitution
from .schemes import (
    Point,
    additive_kernel,
    frobenius_point_map,
    generator_names,
    multi_additive,
    orbit_representatives,
)

Rows = List[dict]


# ---------------------------------------------------------------------------
# the paper's values


def weyl_kernel_twists(m: int, p: int) -> Tuple[int, ...]:
    """Splitting type of ker Theta on the Weyl module V_m of u(sl2),
    0 <= m <= 2p - 2: O(-m) up to m = p - 1, then O(-m) + O(m - 2(p-1))."""
    if m <= p - 1:
        return (-m,)
    return tuple(sorted((-m, m - 2 * (p - 1)), reverse=True))


def pim_kernel_twists(lam: int, p: int) -> Tuple[int, ...]:
    """Splitting type of ker Theta on the projective cover P_lam of the
    simple u(sl2)-module of highest weight lam."""
    if lam == p - 1:
        return (1 - p,)
    return tuple(sorted((lam - 2 * (p - 1), -lam), reverse=True))


def syzygy_subquotient_twists(n: int, p: int) -> Tuple[int, ...]:
    """The line bundle ker Theta / im Theta^(p-1) on the syzygy module
    Omega^n(k) over k[x,y]/(x^p, y^p)."""
    if n % 2 == 0:
        return (-(n * p) // 2,)
    return (-((n + 1) * p // 2 - 1),)


def line_bundles(twists: Sequence[int]) -> str:
    """Twists written as a sum of line bundles, ``O(a) + O(b)``."""
    return str(SplittingType(tuple(twists)))


# ---------------------------------------------------------------------------
# checks


def _row(check: str, expected, computed) -> dict:
    return {"check": check, "expected": str(expected),
            "computed": str(computed), "pass": str(expected) == str(computed)}


def _kernel_splitting(rep: ModuleRep) -> str:
    return str(splitting_type(kernel_graded(restrict_p1(theta_global(rep)), 1)))


def _subquotient(rep: ModuleRep, im_power: Optional[int] = None) -> str:
    sub = subquotient_mj(restrict_p1(theta_global(rep)), 1, im_power)
    return str(sub.splitting) if sub.splitting else sub.note


def sl2_kernels(p: int, n_max: int, seed: int) -> Rows:
    return [_row("Ker on V_%d" % m, line_bundles(weyl_kernel_twists(m, p)),
                 _kernel_splitting(construct_weyl_sl2(m, p)))
            for m in range(0, 2 * p - 1)]


def pim(p: int, n_max: int, seed: int) -> Rows:
    return [_row("Ker on P_%d" % lam, line_bundles(pim_kernel_twists(lam, p)),
                 _kernel_splitting(principal_indecomposable_sl2(lam, p)))
            for lam in range(p)]


def zigzag(p: int, n_max: int, seed: int) -> Rows:
    rows = []
    for n in range(1, n_max + 1):
        rep = construct_zigzag(n, p)
        rows.append(_row("X_%d subquotient" % n, line_bundles((-n,)),
                         _subquotient(rep, im_power=1)))
        rows.append(_row("X_%d dual subquotient" % n, line_bundles((n,)),
                         _subquotient(dual_module(rep), im_power=1)))
    return rows


def syzygy(p: int, n_max: int, seed: int) -> Rows:
    return [_row("Omega^%d subquotient" % n,
                 line_bundles(syzygy_subquotient_twists(n, p)),
                 _subquotient(construct_syzygy_E2(n, p)))
            for n in range(1, n_max + 1)]


def duals_sections(p: int, n_max: int, seed: int) -> Rows:
    rep = construct_duals_example(p)
    basis, _ = global_sections(theta_global(rep), 1)
    basis_d, _ = global_sections(theta_global(dual_module(rep)), 1)
    return [
        _row("sections of M", 2, len(basis)),
        _row("sections of M dual", 1, len(basis_d)),
    ]


def rho_kappa(p: int, n_max: int, seed: int) -> Rows:
    mat = rho_kappa_matrix(p)
    tri = all(mat[j][lam] == 0 for j in range(p) for lam in range(p) if j < lam)
    return [
        _row("diagonal", list(range(1, p + 1)), [mat[j][j] for j in range(p)]),
        _row("triangular", True, tri),
        _row("non-singular diagonal", True, all(mat[j][j] != 0 for j in range(p))),
    ]


def twist(p: int, n_max: int, seed: int) -> Rows:
    """The Frobenius-twist identity: the Jordan type of the s-th twist of M
    at a point equals that of M at the point moved by Frobenius, for 50
    seeded random modules over G_a(2) and G_a(3) at every nonzero F_{p^2}
    point.  Frobenius commutes with the weighted G_m action and both sides
    are constant on G_m-orbits, so each orbit is checked once, at its
    representative, and counts for its q - 1 points.  Frobenius sends many
    representatives to one moved point, whose type is computed once per
    twist; each side still comes from its own Theta.  The representatives
    and their Frobenius images lie on V(G) by construction, so Theta is
    evaluated there directly, with no check of the point."""
    fld2 = ext_field_build(p, 2)
    rng = random.Random(seed)
    checked = failures = 0  # in orbits
    for idx in range(50):
        r = 2 if idx % 2 == 0 else 3
        desc = additive_kernel(p, r)
        rep = random_module(desc, rng.randint(2, 4), rng)
        theta = theta_global(rep)
        homogeneous_degree(theta)
        for s in range(1, r):
            theta_s = theta_global(frobenius_twist_gar(rep, s))
            homogeneous_degree(theta_s)
            at_point, at_moved = theta_s.mat.evaluate, theta.mat.evaluate
            moved_types: Dict[Point, JordanType] = {}
            with _on_variety():
                for point in orbit_representatives(desc, fld2):
                    jt1 = jordan_type(fld2, at_point(point, fld2), p)
                    moved = frobenius_point_map(desc, point, s, fld2)
                    jt2 = moved_types.get(moved)
                    if jt2 is None:
                        jt2 = moved_types[moved] = jordan_type(fld2, at_moved(moved, fld2), p)
                    checked += 1
                    failures += jt1 != jt2
    orbit_size = fld2.q - 1
    return [_row("twist identity failures (of %d checks)" % (checked * orbit_size), 0,
                 failures * orbit_size)]


def ext_prod(p: int, n_max: int, seed: int) -> Rows:
    """Pulling Theta of an external product M1 # M2 back to the first
    factor gives dim M2 copies of each line bundle in ker Theta^j of M1."""
    rng = random.Random(seed)
    rows = []
    pairs = [
        (construct_zigzag(1, p), random_module(multi_additive(p, 2), 2, rng)),
        (random_module(multi_additive(p, 2), 3, rng),
         random_module(multi_additive(p, 2), 2, rng)),
        (random_module(multi_additive(p, 2), 2, rng), construct_zigzag(1, p)),
    ]
    for idx, (m1, m2) in enumerate(pairs):
        prod = external_product(m1, m2)
        theta4 = theta_global(prod)
        ring2 = theta_global(m1).ring
        images = (ring2.var(0), ring2.var(1), ring2.const(0), ring2.const(0))
        sub = Substitution(theta4.ring, ring2, images, 1)
        names4 = generator_names(prod.desc)
        names2 = generator_names(m1.desc)
        pulled = ModuleRep(
            m1.desc, prod.fld, prod.dim,
            {names2[i]: prod.action[names4[i]] for i in range(2)})
        pulled_theta = ThetaMatrix(pulled, ring2, theta4.mat.substitute(sub), 1)
        for j in range(1, p):
            st = splitting_type(kernel_graded(restrict_p1(pulled_theta), j))
            st1 = splitting_type(kernel_graded(restrict_p1(theta_global(m1)), j))
            expected = sorted([t for t in st1.twists for _ in range(m2.dim)],
                              reverse=True)
            rows.append(_row("pair %d, j=%d pullback kernel" % (idx, j),
                             expected, list(st.twists)))
    return rows


CHECKS: Dict[str, Tuple[Callable[[int], bool], Callable[[int, int, int], Rows]]] = {
    "sl2-kernels": (lambda p: p % 2 == 1, sl2_kernels),
    "pim": (lambda p: p % 2 == 1, pim),
    "zigzag": (lambda p: p % 2 == 1, zigzag),
    "syzygy": (lambda p: True, syzygy),
    "duals-sections": (lambda p: True, duals_sections),
    "rho-kappa": (lambda p: p % 2 == 1, rho_kappa),
    "twist": (lambda p: True, twist),
    "ext-prod": (lambda p: True, ext_prod),
}
