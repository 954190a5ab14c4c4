"""Graded kernels/images on the projective line, splitting types, sections.

The graded components by direct elimination (``_Components``), the former
kernel search, the two-chart section counter and the former per-degree
dual count on phi-list presentations are frozen here as independent
routes to the kernel counts and the dual count."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import jordanbundles.bundles as bundles
from jordanbundles.bundles import (
    EngineInvariantError,
    K0Class,
    P1Matrix,
    endotrivial_test,
    global_sections,
    image_sheaf_report,
    k0_class,
    kernel_graded,
    projectivity_test,
    restrict_p1,
    rho_kappa_matrix,
    splitting_type,
    subquotient_mj,
)
from jordanbundles.field import (ext_field_build, kernel_basis, mat_mul, prime_field, rank,
                                 reduce_vector, row_reduce, solve, span_basis, transpose)
from jordanbundles.modules import (
    ModuleRep,
    construct_duals_example,
    construct_steinberg,
    construct_syzygy_E2,
    construct_weyl_sl2,
    construct_zigzag,
    dual_module,
    external_product,
    free_module_E,
    gln_natural,
    principal_indecomposable_sl2,
    random_module,
    regular_module_E,
    sl2_height2_natural,
    tensor_module,
    trivial_module,
)
from jordanbundles.operators import constant_jrank_report, jtype_scan, theta_global
from jordanbundles.polyring import Poly, PolyMatrix, WeightedRing, generic_rank, poly_eval
from jordanbundles.schemes import additive_kernel, multi_additive, p1_chart, restricted_lie_sl2


def test_restrict_p1_entry_degrees():
    b1 = restrict_p1(theta_global(construct_zigzag(1, 3)))
    assert b1.entry_degree == 1
    b2 = restrict_p1(theta_global(construct_weyl_sl2(2, 3)))
    assert b2.entry_degree == 2  # conic chart doubles the degree


def test_restrict_p1_unsupported_family():
    rep = construct_duals_example(3)
    with pytest.raises((ValueError, NotImplementedError)):
        restrict_p1(theta_global(rep))


def test_restrict_p1_inhomogeneous_result(monkeypatch):
    # Theta of a validated module is homogeneous on the built-in chart, so
    # an inhomogeneous restriction there is an engine fault; on a chart the
    # caller supplies it stays a ValueError
    theta = theta_global(construct_weyl_sl2(2, 3))
    chart = p1_chart(theta.desc, theta.rep.fld)
    monkeypatch.setattr(PolyMatrix, "entries_homogeneous_of_degree", lambda self: None)
    with pytest.raises(EngineInvariantError, match="built-in P\\^1 chart"):
        restrict_p1(theta)
    with pytest.raises(ValueError, match="not homogeneous"):
        restrict_p1(theta, chart)


def test_conic_chart_matrix_matches_direct_expansion():
    # Under the conic chart (x, y, z) -> (s^2, -t^2, st) the operator on V_m
    # becomes the classical tridiagonal matrix in s, t:
    # column i carries (i+1)s^2 below, (2i-m)st on, (m-i+1)(-t^2) above.
    p, m = 3, 2
    rep = construct_weyl_sl2(m, p)
    b = restrict_p1(theta_global(rep))
    fld = rep.fld
    for s in range(p):
        for t in range(p):
            got = [[poly_eval(b.mat.rows[i][j], (s, t)) for j in range(m + 1)]
                   for i in range(m + 1)]
            expected = [[0] * (m + 1) for _ in range(m + 1)]
            for i in range(m + 1):
                if i + 1 <= m:
                    expected[i + 1][i] = ((i + 1) * s * s) % p
                expected[i][i] = ((2 * i - m) * s * t) % p
                if i - 1 >= 0:
                    expected[i - 1][i] = (-(m - i + 1) * t * t) % p
            assert got == expected


def test_kernel_generator_for_small_weyl_is_powers_of_t_and_s():
    # the kernel of B_m for m <= p-1 is generated by
    # w_m = (t^m, s t^{m-1}, ..., s^m) up to scalars in each entry
    p, m = 5, 3
    b = restrict_p1(theta_global(construct_weyl_sl2(m, p)))
    sub = kernel_graded(b, 1)
    assert sub.degrees == [m]
    # the generator itself, from the frozen search: entry i is c_i s^i t^(m-i)
    (gd, gv), = _frozen_kernel_search(b, 1)
    assert gd == m
    n = b.size
    for i in range(n):
        # coordinate k n + i of a degree-m vector is the coefficient of
        # s^(m-k) t^k in entry i
        assert [k for k in range(m + 1) if gv[k * n + i]] == [m - i]


@pytest.mark.parametrize("p,m", [(3, 0), (3, 2), (3, 3), (5, 6)])
def test_weyl_kernel_splittings(p, m):
    b = restrict_p1(theta_global(construct_weyl_sl2(m, p)))
    st = splitting_type(kernel_graded(b, 1))
    if m <= p - 1:
        assert st.twists == (-m,)
    else:
        assert st.twists == tuple(sorted((-m, m - 2 * (p - 1)), reverse=True))


def test_kernel_certificate_and_hilbert():
    b = restrict_p1(theta_global(construct_steinberg(3)))
    sub = kernel_graded(b, 1)
    assert sub.certified_free
    # Hilbert function of a free module on generators of degrees d_i is
    # sum max(d - d_i + 1, 0)
    for d, h in sorted(sub.hilbert.items()):
        expected = sum(max(d - g + 1, 0) for g in sub.degrees)
        if d >= sub.stable_from:
            assert h == expected


def test_kernel_rank_complements_generic_rank():
    # rank of Ker Theta^j as a sheaf is dim M minus the generic rank of
    # Theta^j over the function field
    from jordanbundles.operators import generic_jrank

    for rep in (construct_zigzag(2, 3), construct_weyl_sl2(4, 3),
                construct_steinberg(3)):
        th = theta_global(rep)
        b = restrict_p1(th)
        for j in (1, 2):
            ker = kernel_graded(b, j)
            gr = generic_jrank(th, j)
            assert gr is not None
            assert ker.rank + gr == rep.dim
            # and the image sheaf has the generic rank
            assert image_sheaf_report(b, j).fiber_rank == gr


def test_k0_additivity_of_kernel_and_image():
    # [O^N(-D)] = [Ker(-D)] + [Im] degree by degree: B^j maps the degree
    # d - D component of the free module onto im(B^j)_d with kernel
    # Ker(B^j)_{d-D}.  The image's Hilbert function comes from the kernel;
    # a direct elimination per degree is the independent check.
    for rep in (construct_weyl_sl2(3, 3), construct_weyl_sl2(4, 3),
                construct_zigzag(2, 3), construct_syzygy_E2(2, 3)):
        b = restrict_p1(theta_global(rep))
        for j in (1, 2):
            n, D = b.size, j * b.entry_degree
            ker = kernel_graded(b, j)
            im = image_sheaf_report(b, j)
            comp = _Components(b, 0, j)
            assert sorted(im.hilbert) == list(range(im.stable_from + 1))
            for d in range(D + n + 2):
                h = im.hilbert.get(d, im.fiber_rank * (d + 1) + im.degree)
                assert h == comp.dim(d)
                if d >= D:
                    assert ker.free_dim(d - D) + h == n * (d - D + 1)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 3), (1, 5)])
def test_zigzag_subquotients(n, p):
    rep = construct_zigzag(n, p)
    b = restrict_p1(theta_global(rep))
    sub = subquotient_mj(b, 1, im_power=1)
    assert sub.splitting is not None and sub.splitting.twists == (-n,)
    bd = restrict_p1(theta_global(dual_module(rep)))
    subd = subquotient_mj(bd, 1, im_power=1)
    assert subd.splitting is not None and subd.splitting.twists == (n,)


@pytest.mark.parametrize("n,p,twist", [(1, 3, -2), (2, 3, -3), (1, 2, -1), (2, 2, -2)])
def test_syzygy_subquotients(n, p, twist):
    b = restrict_p1(theta_global(construct_syzygy_E2(n, p)))
    sub = subquotient_mj(b, 1)
    assert sub.splitting is not None and sub.splitting.twists == (twist,)


def test_image_sheaf_report_line_bundle():
    # Im(Theta) for the dim-3 zig-zag is a line bundle
    b = restrict_p1(theta_global(construct_zigzag(1, 3)))
    rpt = image_sheaf_report(b, 1)
    assert rpt.fiber_rank == 1


def test_global_sections_duals_example():
    for p in (3, 5):
        rep = construct_duals_example(p)
        basis, note = global_sections(theta_global(rep), 1)
        assert len(basis) == 2
        basis_d, _ = global_sections(theta_global(dual_module(rep)), 1)
        assert len(basis_d) == 1


def test_global_sections_trivial_module_is_everything():
    rep = trivial_module(multi_additive(3, 2))
    basis, _ = global_sections(theta_global(rep), 1)
    assert len(basis) == 1


def test_global_sections_weyl():
    # sections of Ker Theta on V_m: a polynomial identity on the nullcone.
    # For m <= p-1 the kernel is O(-m), which has no sections for m > 0.
    basis, _ = global_sections(theta_global(construct_weyl_sl2(2, 3)), 1)
    assert len(basis) == 0
    basis0, _ = global_sections(theta_global(construct_weyl_sl2(0, 3)), 1)
    assert len(basis0) == 1


def test_projectivity_verdicts():
    assert projectivity_test(theta_global(free_module_E(3, 1))).verdict
    assert projectivity_test(
        theta_global(principal_indecomposable_sl2(1, 3))).verdict
    assert not projectivity_test(theta_global(construct_zigzag(1, 3))).verdict
    assert not projectivity_test(
        theta_global(construct_weyl_sl2(1, 3))).verdict


def test_endotrivial_verdicts():
    assert endotrivial_test(
        theta_global(trivial_module(multi_additive(3, 2)))).verdict
    assert endotrivial_test(theta_global(construct_syzygy_E2(1, 3))).verdict
    assert endotrivial_test(theta_global(construct_syzygy_E2(2, 3))).verdict
    assert not endotrivial_test(theta_global(construct_zigzag(2, 3))).verdict
    # one block of size < p at every point, but of size 2 or 5: V_1 (x) V_1
    # = k + V_2 at p = 5, and dim M^2 = 1 mod p fails for V_11 at p = 7
    assert endotrivial_test(theta_global(construct_weyl_sl2(3, 5))).verdict
    assert not endotrivial_test(theta_global(construct_weyl_sl2(1, 5))).verdict
    assert not endotrivial_test(theta_global(construct_weyl_sl2(11, 7))).verdict


def _per_j_verdicts(theta, max_ext):
    # frozen reference: the route the two tests took before they read the
    # fiber scan alone, a constant_jrank_report for j in {1, p - 1}
    # (projectivity) or every j (endotriviality) next to the fiber scan
    p = theta.desc.p
    fiber = bundles._fiber_scan(theta, max_ext)
    constant = {j: constant_jrank_report(theta, j, max_ext=max_ext).constant for j in range(1, p)}
    projective = constant[1] and constant[p - 1] and max(fiber, default=0) == 0
    return projective, all(constant.values()) and set(fiber) == {1}


def _check_against_per_j(rep, max_ext):
    # projective verdicts agree; endotrivial ones agree except where the
    # single small block has a size other than 1 or p - 1, which the per-j
    # route did not look at.  Returns whether the verdict was corrected.
    theta = theta_global(rep)
    p = rep.desc.p
    projective, endotrivial = _per_j_verdicts(theta, max_ext)
    assert projectivity_test(theta, max_ext).verdict == projective
    corrected = endotrivial and rep.dim % p not in (1, p - 1)
    assert endotrivial_test(theta, max_ext).verdict == (endotrivial and not corrected)
    return corrected


def _verdict_zoo(p):
    return ([construct_syzygy_E2(n, p) for n in (1, 2)]
            + [construct_zigzag(n, p) for n in (1, 2)] + [regular_module_E(p)]
            + [construct_weyl_sl2(m, p) for m in range(2 * p - 1)]
            + [principal_indecomposable_sl2(lam, p) for lam in range(p)]
            + ([sl2_height2_natural(p), gln_natural(p, 2)] if p == 3 else []))


@pytest.mark.parametrize("p,corrected", [(3, set()), (5, {"V_1", "V_2", "V_6", "V_7"})])
@pytest.mark.parametrize("max_ext", [1, 2])
def test_fiber_scan_verdicts_match_per_j_route(p, corrected, max_ext):
    assert {rep.label for rep in _verdict_zoo(p) if _check_against_per_j(rep, max_ext)} == corrected


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fiber_scan_verdicts_match_per_j_route_random(data):
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    desc = data.draw(st.sampled_from([multi_additive(p, 2), additive_kernel(p, 2),
                                      multi_additive(p, 3), restricted_lie_sl2(p)]), label="group")
    rep = random_module(desc, data.draw(st.integers(1, 5), label="dim"),
                        random.Random(data.draw(st.integers(0, 10 ** 6), label="seed")))
    _check_against_per_j(rep, data.draw(st.sampled_from([1, 2]), label="max_ext"))


def _end_is_k_plus_free(rep, max_ext):
    # second route to endotriviality: End(M) = M (x) M* is k + projective,
    # so its local Jordan type is [1] + free at every scanned point
    p = rep.desc.p
    types = jtype_scan(theta_global(tensor_module(rep, dual_module(rep))), max_ext)
    return all(jt.counts[0] == 1 and not any(jt.counts[1:p - 1]) for jt in types)


@pytest.mark.parametrize("p", [3, 5])
def test_endotrivial_verdicts_match_end_of_m(p):
    zoo = [rep for rep in _verdict_zoo(p)
           if rep.desc.family in ("multi_additive", "restricted_lie") and rep.dim <= 10]
    rng = random.Random(p)
    zoo += [random_module(desc, rng.randint(1, 4), rng)
            for desc in (multi_additive(p, 2), restricted_lie_sl2(p)) for _ in range(4)]
    for rep in zoo:
        assert endotrivial_test(theta_global(rep)).verdict == _end_is_k_plus_free(rep, 1), rep.label


def test_bundle_tests_scan_no_rank_of_a_power(monkeypatch):
    # one fiber scan decides both verdicts: no per-j constancy scan, no
    # generic rank, no restriction to P^1
    import jordanbundles.operators as operators

    def boom(*args, **kwargs):
        raise AssertionError("per-j route called")

    for mod, name in ((operators, "constant_jrank_report"), (operators, "generic_jrank"),
                      (bundles, "constant_jrank_report"), (bundles, "generic_jrank"),
                      (bundles, "restrict_p1")):
        monkeypatch.setattr(mod, name, boom, raising=False)
    for rep in (construct_syzygy_E2(2, 5), construct_weyl_sl2(3, 5), free_module_E(3, 1)):
        theta = theta_global(rep)
        projectivity_test(theta, max_ext=2)
        endotrivial_test(theta, max_ext=2)


def test_k0_class_algebra():
    a = K0Class(2, -3)
    b = K0Class(1, 5)
    assert (a + b).c0 == 3 and (a + b).c1 == 2
    assert (a - b).c0 == 1 and (a - b).c1 == -8
    assert a.rank == 2 - (-3) + 2 * (-3) or True  # rank is c0 + c1? check below
    # rank and degree: [c0 O + c1 O(1)] has rank c0 + c1 and degree c1
    assert a.rank == a.c0 + a.c1
    assert a.degree == a.c1
    # twisting by 0 is the identity
    assert a.twist(0) == a


def test_k0_twist_matches_line_bundle_arithmetic():
    # [O(n)] = n[O(1)] - (n-1)[O]; twisting [O(n)] by m gives [O(n+m)]
    def line(n):
        return K0Class(-(n - 1), n)

    for n in range(-3, 4):
        for m in range(-3, 4):
            assert line(n).twist(m) == line(n + m)
    # twist is additive on sums
    a, b = line(2), line(-1)
    s = a + b
    assert s.twist(3) == a.twist(3) + b.twist(3)


def test_k0_class_of_splitting_and_report_agree():
    rep = construct_weyl_sl2(4, 3)
    b = restrict_p1(theta_global(rep))
    sub = kernel_graded(b, 1)
    st = splitting_type(sub)
    assert k0_class(sub) == k0_class(st)
    assert k0_class(st).rank == st.rank
    assert k0_class(st).degree == st.degree


def test_rho_kappa_matrix_p3():
    mat = rho_kappa_matrix(3)
    assert [mat[j][j] for j in range(3)] == [1, 2, 3]
    assert all(mat[j][lam] == 0 for j in range(3) for lam in range(3)
               if j < lam)


def test_kernel_of_random_module_is_free_and_certified():
    rng = random.Random(17)
    for _ in range(5):
        rep = random_module(multi_additive(3, 2), rng.randint(2, 4), rng)
        b = restrict_p1(theta_global(rep))
        sub = kernel_graded(b, 1)
        assert sub.certified_free
        st = splitting_type(sub)
        assert st.rank == len(sub.degrees)


# ---------------------------------------------------------------------------
# the rank-count kernel search and the K_0 route to subquotients, against
# the routes they replaced


class _Components:
    """Frozen reference for graded components, by direct elimination in
    each degree (the former ``ComponentModule``, minimal).  The degree-d
    component of ker(B^j)/im(B^q) is the kernel of the degree-d map of B^j
    (``basis``) modulo the span of the degree-(d - qE) map of B^q
    (``sub``), both in RREF; j = 0 takes im(B^q) itself and q = None no
    sub."""

    def __init__(self, b, j=0, q=None):
        self.fld, self.n = b.ring.fld, b.size
        self.shift = (q or 0) * b.entry_degree
        self.kcols = (bundles._toeplitz_columns(b.mat.power(j), self.n, j * b.entry_degree)
                      if j else None)
        self.icols = bundles._toeplitz_columns(b.mat.power(q), self.n, self.shift) if q else None

    def image(self, d):
        """(RREF rows, pivots) of im(B^q) in degree d."""
        src = d - self.shift
        if self.icols is None or src < 0:
            return [], []
        return row_reduce(self.fld, bundles._degree_map(self.icols, src))

    def sub(self, d):
        return self.image(d) if self.kcols else ([], [])

    def basis(self, d):
        if self.kcols is None:
            return self.image(d)[0]
        if d < 0:
            return []
        rows = zip(*bundles._degree_map(self.kcols, d))
        return span_basis(self.fld, kernel_basis(self.fld, rows, self.n * (d + 1)))

    def dim(self, d):
        return len(self.basis(d)) - len(self.sub(d)[0])


def _twisted_sections_dim(comp, d, bound):
    """Frozen reference (the former rank-2 walk's counter): dim H^0 of the
    sheaf of the module of ``comp`` twisted by O(d), by two-chart gluing
    with denominator exponent ``bound``."""
    fld, n = comp.fld, comp.n
    dd = d + bound
    basis = comp.basis(dd)
    k = len(basis)
    if k == 0:
        return 0
    E = bound
    big_sub, big_piv = comp.sub(dd + bound + 2 * E)
    # map (a, b) -> (st)^E ( t^bound a - s^bound b ) reduced mod the sub
    cols = [reduce_vector(fld, big_sub, big_piv, bundles._shift(v, n, E, bound + E))
            for v in basis]
    cols += [reduce_vector(fld, big_sub, big_piv,
                           [fld.neg(x) for x in bundles._shift(v, n, bound + E, E)])
             for v in basis]
    rows = [list(r) for r in zip(*cols)]
    sols = kernel_basis(fld, rows, 2 * k) if rows else []
    if not sols:
        return 0
    # quotient by pairs representing the zero section: s-power kills a and
    # t-power kills b
    sub_a, a_piv = comp.sub(dd + 2 * E)
    vas = mat_mul(fld, [sol[:k] for sol in sols], basis)
    vbs = mat_mul(fld, [sol[k:] for sol in sols], basis)
    zero_rows = [reduce_vector(fld, sub_a, a_piv, bundles._shift(va, n, 2 * E, 0))
                 + reduce_vector(fld, sub_a, a_piv, bundles._shift(vb, n, 0, 2 * E))
                 for va, vb in zip(vas, vbs)]
    # sections = compatible pairs modulo pairs vanishing on both charts
    return len(row_reduce(fld, zero_rows)[1])


def _stable_rank_degree(comp, max_degree):
    """Hilbert route (the former production code): the smallest d0 >= 1 with
    dim(d) = r*d + c exactly from d0 through max_degree (a window of at
    least 4 degrees) gives (r, c - r, d0, hilbert), since in the stable
    range dim(d) = r*(d+1) + deg."""
    hilbert = {d: comp.dim(d) for d in range(0, max_degree + 1)}
    for d0 in range(1, max_degree - 3):
        diffs = {hilbert[d + 1] - hilbert[d] for d in range(d0, max_degree)}
        if len(diffs) == 1:
            r = diffs.pop()
            c = hilbert[d0] - r * d0
            return r, c - r, d0, hilbert
    return None, None, None, hilbert


def _frozen_kernel_search(b, j):
    """The former kernel search: greedy degree by degree up to the ceiling
    entry_degree * N + 2j (doubled once), certified by a Hilbert window.
    Returns (degrees, generator component vectors)."""
    fld = b.ring.fld
    n = b.size
    comp = _Components(b, j)
    gens = []
    hilbert = {}
    ceiling = b.entry_degree * n + 2 * j
    for _ in range(2):
        for d in range(0, ceiling + 1):
            if d in hilbert:
                continue
            basis = comp.basis(d)
            hilbert[d] = len(basis)
            span_rows = [bundles._shift(gv, n, d - gd - k, k)
                         for gd, gv in gens for k in range(d - gd + 1)]
            current = span_basis(fld, span_rows) if span_rows else []
            for cand in basis:
                trial = span_basis(fld, list(current) + [cand])
                if len(trial) > len(current):
                    current = trial
                    gens.append((d, cand))
        top = max((g for g, _ in gens), default=0)
        degrees = [g for g, _ in gens]
        if ceiling >= top + 2 and all(
                hilbert[d] == sum(max(0, d - g + 1) for g in degrees)
                for d in range(top + 1, ceiling + 1)):
            return gens
        ceiling *= 2
    raise AssertionError("frozen search did not certify")


@pytest.mark.parametrize("p", [3, 5])
def test_kernel_search_matches_frozen_search_on_weyl_and_pim(p):
    modules = [construct_weyl_sl2(m, p) for m in range(2 * p - 1)]
    modules += [principal_indecomposable_sl2(lam, p) for lam in range(p)]
    for rep in modules:
        b = restrict_p1(theta_global(rep))
        sub = kernel_graded(b, 1)
        old = _frozen_kernel_search(b, 1)
        assert sub.degrees == [g for g, _ in old]
        # the count visits degrees 0 .. top generator degree and no more,
        # with the kernel dimensions the search found there
        top = max(sub.degrees)
        comp = _Components(b, 1)
        assert sub.hilbert == {d: comp.dim(d) for d in range(top + 1)}
        assert sub.certified_free and sub.stable_from == top + 1


def _assert_k0_matches_hilbert_route(b, j, q):
    comp = _Components(b, j, q)
    r, deg, _, _ = _stable_rank_degree(comp, b.entry_degree * (b.size + j + q) + 6)
    assert r is not None
    rpt = subquotient_mj(b, j, im_power=q)
    assert rpt.fiber_rank == r
    # the Hilbert function read off the kernels is the module's, degree by
    # degree, and it is r (d + 1) + deg from stable_from on
    assert sorted(rpt.hilbert) == list(range(rpt.stable_from + 1))
    for d, h in rpt.hilbert.items():
        assert comp.dim(d) == h
    if r > 0:
        assert rpt.degree == deg
        for d in range(rpt.stable_from, rpt.stable_from + 3):
            assert comp.dim(d) == r * (d + 1) + deg


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subquotient_k0_route_matches_hilbert_route(p, n):
    for rep in (construct_zigzag(n, p), dual_module(construct_zigzag(n, p))):
        _assert_k0_matches_hilbert_route(restrict_p1(theta_global(rep)), 1, 1)
    _assert_k0_matches_hilbert_route(
        restrict_p1(theta_global(construct_syzygy_E2(n, p))), 1, p - 1)


@given(dim=st.integers(2, 5), seed=st.integers(0, 10**6), j=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_subquotient_k0_route_matches_hilbert_route_random(dim, seed, j):
    rep = random_module(multi_additive(3, 2), dim, random.Random(seed))
    _assert_k0_matches_hilbert_route(restrict_p1(theta_global(rep)), j, 3 - j)


def test_image_sheaf_report_matches_hilbert_route():
    for rep in (construct_zigzag(2, 3), construct_syzygy_E2(2, 3), construct_weyl_sl2(4, 3)):
        b = restrict_p1(theta_global(rep))
        for j in (1, 2):
            comp = _Components(b, 0, j)
            r, deg, _, _ = _stable_rank_degree(comp, b.entry_degree * (b.size + j) + 6)
            rpt = image_sheaf_report(b, j)
            assert (rpt.fiber_rank, rpt.degree) == (r, deg if r else 0)
            for d, h in rpt.hilbert.items():
                assert comp.dim(d) == h


@pytest.mark.parametrize("n,twist", [(1, -4), (2, -5), (3, -9), (4, -10)])
def test_syzygy_subquotients_p5(n, twist):
    b = restrict_p1(theta_global(construct_syzygy_E2(n, 5)))
    sub = subquotient_mj(b, 1)
    assert sub.splitting is not None and sub.splitting.twists == (twist,)


def test_kernel_search_raises_past_forney_bound(monkeypatch):
    # a point rank and a generic rank that are too small ask for more
    # generators than the kernel has; both counts must stop at the degree
    # bound, and the second stop raises
    b = restrict_p1(theta_global(construct_weyl_sl2(4, 3)))
    monkeypatch.setattr(bundles, "_point_rank", lambda fld, power, j, p: 1)
    monkeypatch.setattr(bundles, "generic_rank", lambda mat: 1)
    with pytest.raises(EngineInvariantError, match="Forney"):
        kernel_graded(b, 1)
    assert not issubclass(EngineInvariantError, ValueError)


def test_kernel_count_falls_back_to_generic_rank(monkeypatch):
    # B = [[s^3 t - s t^3, 0], [0, 0]] over GF(3) has rank 0 at all four
    # points of P^1(F_3) and generic rank 1: the count for two generators
    # stops at Forney's bound 0, and one Bareiss rank finishes it
    fld = prime_field(3)
    ring = WeightedRing(fld, ("s", "t"), (1, 1))
    f = ring.monomial((3, 1)) - ring.monomial((1, 3))
    b = P1Matrix(ring, PolyMatrix(ring, [[f, ring.zero()], [ring.zero(), ring.zero()]]), 4, 3)
    calls = []
    real = bundles.generic_rank

    def spy(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(bundles, "generic_rank", spy)
    sub = kernel_graded(b, 1)
    assert len(calls) == 1
    assert sub.rank == 1 and sub.degrees == [0] and sub.hilbert == {0: 1}
    assert splitting_type(sub).twists == (0,)


@pytest.mark.parametrize("p", [3, 5])
def test_kernel_count_needs_no_bareiss_for_paper_modules(p, monkeypatch):
    # on Weyl modules, P_lambda and zig-zag modules some point of P^1(F_p)
    # has the generic rank of every power, so Bareiss is never reached
    def no_bareiss(mat):
        raise AssertionError("generic_rank called")

    monkeypatch.setattr(bundles, "generic_rank", no_bareiss)
    modules = [construct_weyl_sl2(m, p) for m in range(2 * p - 1)]
    modules += [principal_indecomposable_sl2(lam, p) for lam in range(p)]
    modules += [construct_zigzag(n, p) for n in range(1, 5)]
    for rep in modules:
        b = restrict_p1(theta_global(rep))
        for j in range(1, p):
            assert kernel_graded(b, j).certified_free


@given(dim=st.integers(2, 5), seed=st.integers(0, 10**6), j=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_kernel_count_matches_frozen_search_random(dim, seed, j):
    rep = random_module(multi_additive(3, 2), dim, random.Random(seed))
    b = restrict_p1(theta_global(rep))
    assert kernel_graded(b, j).degrees == [g for g, _ in _frozen_kernel_search(b, j)]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_degree_ranks_match_direct_elimination(data):
    # the sliding block-Toeplitz echelon against one elimination of the
    # whole degree-d map, d = min(starts) .. min(starts) + 8: on the
    # Toeplitz columns of random P^1 matrices with zero columns, the zero
    # matrix, products through fewer columns and powers of strictly upper
    # triangular matrices, and on random maps whose sources start in
    # different degrees, as the duals of subquotients do; with n >= 8 the
    # echelon is at least 16 columns wide, and packed over a prime field
    fld = data.draw(st.sampled_from([prime_field(3), prime_field(5), ext_field_build(3, 2)]),
                    label="field")
    D = data.draw(st.sampled_from([1, 2, 3]), label="D")
    n = data.draw(st.integers(1, 5), label="n")
    if data.draw(st.booleans(), label="wide"):
        n = data.draw(st.integers(8, 12), label="wide n")
    kind = data.draw(st.sampled_from(["random", "zero", "low rank", "power", "unequal starts"]),
                     label="kind")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    if kind == "unequal starts":
        # source r in degree starts[r] maps to D + 1 + starts[r] blocks of
        # n targets (none when that is not positive), some of them zero
        starts = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        bases = [[rng.randrange(fld.q) if rng.random() < 0.6 else 0
                  for _ in range(n * max(0, D + 1 + a))] for a in starts]
        ranks = bundles._degree_ranks(fld, bases, starts, n)
        for d in range(min(starts), min(starts) + 9):
            assert next(ranks) == rank(fld, _explicit_degree_map(bases, starts, n, d))
        return
    ring = WeightedRing(fld, ("s", "t"), (1, 1))

    def entry(deg):
        if rng.random() < 0.4:
            return ring.zero()
        terms = {(deg - m, m): rng.randrange(fld.q) for m in range(deg + 1)
                 if rng.random() < 0.6}
        return Poly(ring, {e: c for e, c in terms.items() if c})

    def random_matrix(rows, cols, deg, upper=False):
        return PolyMatrix(ring, [[ring.zero() if upper and j <= i else entry(deg)
                                  for j in range(cols)] for i in range(rows)])

    if kind == "random":
        rows = random_matrix(n, n, D).rows
        dead = [j for j in range(n) if rng.random() < 0.3]
        mat = PolyMatrix(ring, [[ring.zero() if j in dead else f for j, f in enumerate(r)]
                                for r in rows])
    elif kind == "zero":
        mat = PolyMatrix.zero(ring, n, n)
    elif kind == "low rank":
        m, d1 = rng.randint(1, max(1, n - 1)), rng.randint(0, D)
        mat = random_matrix(n, m, d1) * random_matrix(m, n, D - d1)
    else:
        mat = random_matrix(n, n, 1, upper=True).power(D)
    b = P1Matrix(ring, mat, D, fld.p)
    cols = bundles._toeplitz_columns(mat, n, D)
    ranks = bundles._degree_ranks(fld, cols, [0] * n, n)
    for d in range(9):
        expected = rank(fld, _matrix_component_rows(b, mat, d, D))
        assert next(ranks) == expected
        # the degree-d map from the shifted Toeplitz columns, too
        assert rank(fld, list(bundles._degree_map(cols, d))) == expected


def _explicit_degree_map(bases, starts, block, d):
    """The columns of the degree-d map of (bases, starts, block), built
    whole: bases[r] shifted by k blocks for each source monomial
    s^(d - starts[r] - k) t^k e_r, padded to one length."""
    cols = [[0] * (block * k) + v for a, v in zip(starts, bases) for k in range(d - a + 1)]
    width = max(map(len, cols), default=0)
    return [c + [0] * (width - len(c)) for c in cols]


def _matrix_component_rows(b: P1Matrix, power_mat: PolyMatrix, deg_in: int, D: int):
    """The rows of the degree-deg_in map of ``power_mat``, one per
    coordinate of the degree deg_in + D component, generated one at a time
    (the former builder, in the former coordinate-major layout, where the
    block for ambient coordinate i lists the coefficients of s^(d-k) t^k
    for k = 0..d; ranks do not depend on the layout)."""
    n = b.size
    for r in range(n):
        # entry (r, i) by the t-exponent of its terms
        by_t = [{e[1]: c for e, c in f.terms.items()} for f in power_mat.rows[r]]
        for m in range(deg_in + D + 1):
            row = [0] * (n * (deg_in + 1))
            for i, terms in enumerate(by_t):
                for t, c in terms.items():
                    if 0 <= m - t <= deg_in:
                        row[i * (deg_in + 1) + m - t] = c
            yield row


def _assert_kernel_sections_match_splitting(b, j):
    """h^0 of K_j(d) by two-chart gluing on the kernel's components
    against sum max(0, d - a_i + 1) for its generator degrees a_i, on a
    window of twists d around the a_i."""
    degrees = kernel_graded(b, j).degrees
    comp = _Components(b, j)
    for d in range(min(degrees, default=0) - 2, max(degrees, default=0) + 2):
        expected = sum(max(0, d - a + 1) for a in degrees)
        assert _twisted_sections_dim(comp, d, 2) == expected, (j, d, degrees)


def test_kernel_splitting_matches_twisted_sections():
    # Weyl modules, P_lambda and Omega^1 .. Omega^4 at p = 3
    reps = [construct_weyl_sl2(m, 3) for m in range(5)]
    reps += [principal_indecomposable_sl2(lam, 3) for lam in range(3)]
    reps += [construct_syzygy_E2(k, 3) for k in (1, 2, 3, 4)]
    for rep in reps:
        b = restrict_p1(theta_global(rep))
        for j in (1, 2):
            _assert_kernel_sections_match_splitting(b, j)


@given(dim=st.integers(2, 5), seed=st.integers(0, 10**6), j=st.sampled_from([1, 2]))
@settings(max_examples=15, deadline=None)
def test_kernel_splitting_matches_twisted_sections_random(dim, seed, j):
    rep = random_module(multi_additive(3, 2), dim, random.Random(seed))
    _assert_kernel_sections_match_splitting(restrict_p1(theta_global(rep)), j)


def test_negative_k0_rank_raises():
    with pytest.raises(EngineInvariantError, match="negative rank"):
        bundles._sheaf_report(K0Class(-2, 1), 0, {}, None)


def test_dual_count_raises_past_forney_bound():
    # ker theta^2 / im theta^3 on V_6 at p = 5 is O(-5) + O(-5); a K_0
    # degree of -12 is below the sum of its dual generator degrees, so the
    # dual count stops at its bound
    b = restrict_p1(theta_global(construct_weyl_sl2(6, 5)))
    kmat, imat = b.mat.power(2), b.mat.power(3)
    kj = kernel_graded(b, 2)
    with pytest.raises(EngineInvariantError, match="dual count"):
        bundles._sheaf_report(K0Class(14, -12), 0, {}, lambda: bundles._subquotient_presentation(
            b, 2, kmat, kj, 3, imat))


def test_subquotient_forms_each_power_once(monkeypatch):
    # B^j and B^q are formed once and shared by both kernel counts and the
    # check that B^j B^q = 0
    b = restrict_p1(theta_global(construct_syzygy_E2(1, 3)))
    calls = []
    real = PolyMatrix.power

    def power(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(PolyMatrix, "power", power)
    expected = str(subquotient_mj(b, 1).splitting)
    assert sorted(calls) == [1, 2]
    calls.clear()
    image_sheaf_report(b, 1)
    assert calls == [1]
    assert expected == "O(-2)"
    # a rank-2 subquotient's dual count reuses them too
    calls.clear()
    rpt = subquotient_mj(restrict_p1(theta_global(construct_weyl_sl2(6, 5))), 2)
    assert sorted(calls) == [2, 3] and str(rpt.splitting) == "O(-5) + O(-5)"


# ---------------------------------------------------------------------------
# splittings of every rank from the dual count, against the frozen two-chart
# section counter


def _assert_sections_match(comp, twists, torsion=0, stable_from=0):
    """h^0 of the sheaf of ``comp`` twisted by O(d), by the frozen two-chart
    counter, against h^0 of (+) O(delta_k) plus a torsion sheaf of length
    ``torsion`` (on P^1 a coherent sheaf is its torsion-free part plus its
    torsion), on a window of twists around the -delta_k.  The counter's
    denominators reach the degree ``stable_from``, from where on the
    module's components are the sections of its sheaf's twists."""
    bound = max(4, stable_from + max(twists) + 2)
    for d in range(-max(twists) - 2, -min(twists) + 2):
        expected = sum(max(0, x + d + 1) for x in twists) + torsion
        assert _twisted_sections_dim(comp, d, bound) == expected, (d, twists, torsion)


def _dual_count_spy(monkeypatch):
    """Record the generator degrees that each dual count returns."""
    seen = []
    real = bundles._dual_degrees

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(bundles, "_dual_degrees", spy)
    return seen


# The dual count as it stood before it moved onto the kernels' sliding
# echelon, frozen as a reference: presentations as phi-lists and one
# elimination of the whole degree-delta map of phi^T per degree.


def _frozen_subquotient_presentation(b, j, kmat, kj, q, imat):
    """K_j / im B^q as coker phi, (field, phi, u, w): phi maps
    (+)_c S(-w_c) to (+)_r S(-u_r), and phi[r][c] lists the t-coefficients
    of an entry of degree w_c - u_r (empty when that is negative)."""
    fld, n = b.ring.fld, b.size
    E = q * b.entry_degree
    gens = bundles._kernel_generators(b, j, kmat, kj.degrees)
    shifts = transpose([bundles._shift(v, n, E - a - k, k)
                        for a, v in gens for k in range(E - a + 1)])
    sols = [solve(fld, shifts, [col])[0] for col in bundles._toeplitz_columns(imat, n, E)]
    phi, off = [], 0
    for a, _ in gens:
        width = max(0, E - a + 1)
        phi.append([x[off:off + width] for x in sols])
        off += width
    return fld, phi, [a for a, _ in gens], [E] * n


def _frozen_image_presentation(b, j, kmat, kj):
    """im B^j as coker [k_1 ... k_m], in the form above."""
    n, D = b.size, j * b.entry_degree
    gens = bundles._kernel_generators(b, j, kmat, kj.degrees)
    phi = [[v[c::n] for _, v in gens] for c in range(n)]
    return b.ring.fld, phi, [D] * n, [a + D for a, _ in gens]


def _frozen_dual_hilbert(fld, phi, u, w):
    """The Hilbert function of ker phi^T, phi^T mapping (+)_r S(u_r) to
    (+)_c S(w_c): its degree-delta map sends s^(delta+u_r-k) t^k e_r to
    sum_c phi_rc t^k, one block of t-exponents per target c, and is ranked
    whole in each degree."""

    def h(delta):
        offsets = list(accumulate((max(0, delta + x + 1) for x in w), initial=0))
        cols = []
        for r, ur in enumerate(u):
            for k in range(delta + ur + 1):
                col = [0] * offsets[-1]
                for off, f in zip(offsets, phi[r]):
                    col[off + k:off + k + len(f)] = f
                cols.append(col)
        return len(cols) - rank(fld, cols)

    return h


def _frozen_dual_degrees(fld, phi, u, w, rk, deg):
    """Generator degrees of ker phi^T from delta = -max u_r, until rk
    generators or Forney's bound deg."""
    h = _frozen_dual_hilbert(fld, phi, u, w)
    degrees, d = [], -max(u)
    while len(degrees) < rk and sum(degrees) + (rk - len(degrees)) * d <= deg:
        degrees += [d] * (h(d) - sum(d - a + 1 for a in degrees))
        d += 1
    assert len(degrees) == rk
    return degrees


def _assert_dual_count_matches_frozen(b):
    """The dual count of every subquotient and image sheaf of rank >= 2 of
    b against the frozen one, and their Hilbert functions from the first
    source's degree to two past the last (where a count may stop before
    some sources enter); returns the starts of each dual map."""
    p, starts = b.p, []
    for j in range(1, p):
        kmat, imat = b.mat.power(j), b.mat.power(p - j)
        kj = kernel_graded(b, j)
        for rpt, args, new, old in [
                (subquotient_mj(b, j), (b, j, kmat, kj, p - j, imat),
                 bundles._subquotient_presentation, _frozen_subquotient_presentation),
                (image_sheaf_report(b, j), (b, j, kmat, kj),
                 bundles._image_presentation, _frozen_image_presentation)]:
            if rpt.fiber_rank < 2:
                continue
            rk, deg = rpt.fiber_rank, rpt.degree
            presentation, frozen = new(*args), old(*args)
            assert (bundles._dual_degrees(*presentation, rk, deg)
                    == _frozen_dual_degrees(*frozen, rk, deg))
            h, frozen_h = bundles._hilbert_function(*presentation), _frozen_dual_hilbert(*frozen)
            window = range(min(presentation[2]), max(presentation[2]) + 3)
            assert [h(d) for d in window] == [frozen_h(d) for d in window]
            starts.append(presentation[2])
    return starts


def _dual_count_zoo(p):
    """The modules of the splitting tests here at p: Weyl modules, P_lambda,
    zig-zags and their duals, syzygies, and the random (G_a)^2-modules of
    the torsion tests, at p = 5 with the mixed-twist report's module."""
    yield from (construct_weyl_sl2(m, p) for m in range(2 * p))
    yield from (principal_indecomposable_sl2(lam, p) for lam in range(p))
    if p == 7:
        return
    zigzags = [construct_zigzag(n, p) for n in range(1, 5)]
    yield from zigzags + [dual_module(rep) for rep in zigzags]
    yield from (construct_syzygy_E2(k, p) for k in range(1, 5 if p == 3 else 3))
    cases = [(dim, seed) for dim in range(3, 7) for seed in range(6)]
    cases += [(dim, seed) for q, dim, seed, _, _ in WALK_INCONCLUSIVE if q == p]
    cases += [(9, 0)] if p == 5 else []
    yield from (random_module(multi_additive(p, 2), dim, random.Random(seed))
                for dim, seed in cases)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dual_count_matches_frozen_count(p):
    # every rank >= 2 subquotient and image sheaf of the zoo, among them
    # duals whose sources start in different degrees
    starts = [s for rep in _dual_count_zoo(p)
              for s in _assert_dual_count_matches_frozen(restrict_p1(theta_global(rep)))]
    assert len(starts) > 90 and sum(len(set(s)) > 1 for s in starts) > 10


@given(p=st.sampled_from([3, 5]), dim=st.integers(3, 8), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_dual_count_matches_frozen_count_random(p, dim, seed):
    rep = random_module(multi_additive(p, 2), dim, random.Random(seed))
    _assert_dual_count_matches_frozen(restrict_p1(theta_global(rep)))


@pytest.mark.parametrize("family,p", [("weyl", 5), ("weyl", 7), ("zigzag", 3), ("zigzag", 5)])
def test_splittings_of_every_rank_match_twisted_sections(family, p):
    # Weyl modules V_0 .. V_{2p-1} and zig-zags Z_1 .. Z_4 with their duals:
    # every subquotient and image sheaf of rank >= 2 is a bundle whose
    # splitting gives the frozen section counts (images only for p <= 5:
    # at p = 7 their denominators make the frozen counter slow)
    if family == "weyl":
        reps = [construct_weyl_sl2(m, p) for m in range(2 * p)]
    else:
        reps = [construct_zigzag(n, p) for n in range(1, 5)]
        reps += [dual_module(rep) for rep in reps]
    ranks = []
    for rep in reps:
        b = restrict_p1(theta_global(rep))
        for j in range(1, p):
            sheaves = [(subquotient_mj(b, j), _Components(b, j, p - j), False)]
            if p <= 5:
                sheaves.append((image_sheaf_report(b, j), _Components(b, 0, j), True))
            for rpt, comp, image in sheaves:
                if rpt.fiber_rank < 2:
                    continue
                assert rpt.splitting is not None and rpt.splitting.degree == rpt.degree
                _assert_sections_match(comp, rpt.splitting.twists,
                                       stable_from=rpt.stable_from if image else 0)
                ranks.append(rpt.fiber_rank)
    assert ranks and (max(ranks) > 2 or family == "weyl" and p == 5)


def test_subquotients_of_rank_three_and_four():
    # ker theta^3 / im theta^4 on V_9 at p = 7, ker theta / im theta^4 on Z_3
    # at p = 5
    b = restrict_p1(theta_global(construct_weyl_sl2(9, 7)))
    assert subquotient_mj(b, 3).splitting.twists == (-7, -7, -7)
    b = restrict_p1(theta_global(construct_zigzag(3, 5)))
    assert subquotient_mj(b, 1).splitting.twists == (0, 0, 0, -3)


@pytest.mark.parametrize("p", [3, 5])
def test_random_subquotients_split_or_carry_torsion(p, monkeypatch):
    # random (G_a)^2-modules of dimension 3 .. 6, seeds 0 .. 5: the torsion
    # length and the generator degrees of the dual count give h^0 of every
    # twist, with or without torsion
    seen = _dual_count_spy(monkeypatch)
    kinds = set()
    for dim in range(3, 7):
        for seed in range(6):
            b = restrict_p1(theta_global(random_module(multi_additive(p, 2), dim,
                                                       random.Random(seed))))
            for j in range(1, p):
                seen.clear()
                rpt = subquotient_mj(b, j)
                if rpt.fiber_rank < 2:
                    continue
                twists = sorted(seen[0], reverse=True)
                torsion = rpt.degree - sum(twists)
                if torsion:
                    assert rpt.splitting is None
                    assert rpt.note == "not locally free: torsion of length %d" % torsion
                else:
                    assert rpt.splitting.twists == tuple(twists) and rpt.note == ""
                _assert_sections_match(_Components(b, j, p - j), twists, torsion)
                kinds.add((rpt.fiber_rank > 2, torsion > 0))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("p", [3, 5])
def test_rank0_subquotients_keep_their_k0_degree(p):
    # a rank-0 subquotient is a torsion sheaf, and its K_0 degree is its
    # length: where its Hilbert function settles, and h^0 of every twist
    lengths = []
    for dim in range(3, 7):
        for seed in range(6):
            b = restrict_p1(theta_global(random_module(multi_additive(p, 2), dim,
                                                       random.Random(seed))))
            for j in range(1, p):
                rpt = subquotient_mj(b, j)
                if rpt.fiber_rank:
                    continue
                t = rpt.degree
                assert t == rpt.hilbert[rpt.stable_from] >= 0
                if t:
                    assert rpt.splitting is None
                    assert rpt.note == "not locally free: torsion of length %d" % t
                else:
                    assert rpt.splitting.twists == () and rpt.note == ""
                comp = _Components(b, j, p - j)
                bound = max(4, rpt.stable_from + 2)
                assert [_twisted_sections_dim(comp, d, bound) for d in range(-2, 3)] == [t] * 5
                lengths.append(t)
    assert any(lengths)


def test_rank0_k0_class_of_negative_degree_raises():
    with pytest.raises(EngineInvariantError, match="rank-0 sheaf of negative degree"):
        bundles._sheaf_report(K0Class(1, -1), 0, {}, None)


# (p, dim, seed, j, torsion length): random (G_a)^2-modules whose rank-2
# subquotient the former section walk left as "section scan inconclusive"
WALK_INCONCLUSIVE = [
    (3, 3, 7, 2, 1), (3, 4, 0, 2, 2), (3, 5, 2, 1, 2), (3, 6, 6, 1, 1),
    (5, 3, 0, 3, 2), (5, 4, 1, 4, 1), (5, 5, 0, 2, 3), (5, 5, 0, 3, 4),
    (5, 6, 0, 4, 3), (5, 6, 11, 4, 2),
]


@pytest.mark.parametrize("p,dim,seed,j,torsion", WALK_INCONCLUSIVE)
def test_torsion_where_the_section_walk_was_inconclusive(p, dim, seed, j, torsion, monkeypatch):
    seen = _dual_count_spy(monkeypatch)
    b = restrict_p1(theta_global(random_module(multi_additive(p, 2), dim, random.Random(seed))))
    rpt = subquotient_mj(b, j)
    assert rpt.fiber_rank == 2 and rpt.splitting is None
    assert rpt.note == "not locally free: torsion of length %d" % torsion
    assert rpt.degree - sum(seen[0]) == torsion
    _assert_sections_match(_Components(b, j, p - j), seen[0], torsion)


def test_im_power_outside_the_kernel_is_a_value_error():
    # B^j B^q = 0 is a theorem for q = p - j; an im_power too small to land
    # in the kernel is the caller's error
    b = restrict_p1(theta_global(construct_weyl_sl2(4, 3)))
    with pytest.raises(ValueError, match="not contained"):
        subquotient_mj(b, 1, im_power=1)
    assert not issubclass(EngineInvariantError, ValueError)


def test_nonzero_p_th_power_is_an_engine_fault(monkeypatch):
    # for q = p - j the product is B^p, zero on the chart of a validated
    # module, so a nonzero product is an engine fault
    b = restrict_p1(theta_global(construct_weyl_sl2(4, 3)))
    monkeypatch.setattr(PolyMatrix, "is_zero", lambda self: False)
    with pytest.raises(EngineInvariantError, match="not contained"):
        subquotient_mj(b, 1)


def _graded_families(primes=(3, 5), syzygies=((2, range(1, 5)), (3, range(1, 5)), (5, (3,)))):
    """The inputs of the benchmark's ``graded`` workload, as (label, module):
    Weyl modules, zig-zags and their duals, syzygies of k over (G_a)^2, and
    pullbacks of external products along their first factor; by default at
    the benchmark's primes."""
    out = [("weyl V%d p%d" % (m, p), construct_weyl_sl2(m, p))
           for p in primes for m in range(2 * p - 1)]
    for p in primes:
        for n in range(1, 5):
            out.append(("zigzag X%d p%d" % (n, p), construct_zigzag(n, p)))
            out.append(("zigzag dual X%d p%d" % (n, p), dual_module(construct_zigzag(n, p))))
    out += [("Omega%d p%d" % (n, p), construct_syzygy_E2(n, p))
            for p, ns in syzygies for n in ns]
    rng = random.Random(2026)
    for p in primes:
        desc = multi_additive(p, 2)
        zig = construct_zigzag(1, p)
        pairs = [(zig, random_module(desc, 2, rng)),
                 (random_module(desc, 3, rng), random_module(desc, 2, rng)),
                 (random_module(desc, 2, rng), zig)]
        for idx, (m1, m2) in enumerate(pairs):
            prod = external_product(m1, m2)
            pulled = ModuleRep(m1.desc, prod.fld, prod.dim, {"X_0": prod.action["X_0"],
                                                              "X_1": prod.action["X_1"]})
            out.append(("ext-prod pair%d p%d" % (idx, p), pulled))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kernel_count_matches_bareiss_on_graded_families(p):
    # N - rank ker B^j, certified by the graded kernel count, is the rank
    # of B^j over the function field by fraction-free elimination; at p = 7
    # the syzygies stop at Omega^2 (Omega^3 is 97 x 97)
    families = _graded_families((p,), ((p, range(1, 5) if p < 7 else (1, 2)),))
    for label, rep in families:
        b = restrict_p1(theta_global(rep))
        for j in range(1, p):
            assert b.size - kernel_graded(b, j).rank == generic_rank(b.mat.power(j)), (label, j)


def _frozen_toeplitz_columns(power, n, D):
    """``_toeplitz_columns`` as it read the dense entries: the coefficient of
    s^(D-m) t^m in entry (r, i) at m n + r of column i."""
    cols = [[0] * (n * (D + 1)) for _ in range(n)]
    for r, row in enumerate(power.rows):
        for i, f in enumerate(row):
            for e, c in f.terms.items():
                cols[i][e[1] * n + r] = c
    return cols


def test_point_rank_stops_at_the_largest_rank_of_the_full_scan():
    # the scan that stops at a(p - j) + max(0, b - j) returns the largest
    # rank over all of P^1(F_p), for every power of every graded input;
    # the Toeplitz columns read off the form equal those read off the
    # dense entries
    stopped = 0
    for label, rep in _graded_families():
        b = restrict_p1(theta_global(rep))
        fld, n, p = b.ring.fld, b.size, b.p
        points = [(0, 1)] + [(1, t) for t in range(p)]
        for j in range(1, p + 1):
            power = b.mat.power(j)
            full = [rank(fld, power.evaluate_once(pt)) for pt in points]
            assert bundles._point_rank(fld, power, j, p) == max(full), (label, j)
            a, rest = divmod(n, p)
            stopped += max(full) == a * (p - j) + max(0, rest - j)
            D = j * b.entry_degree
            assert bundles._toeplitz_columns(power, n, D) == _frozen_toeplitz_columns(power, n, D)
    # the bound is reached often enough to matter
    assert stopped > 100
