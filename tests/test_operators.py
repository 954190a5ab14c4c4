"""Global/local operators, Jordan types, and rank-constancy scanning."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from jordanbundles import operators
from jordanbundles.field import (
    Field,
    ext_field_build,
    identity,
    is_zero_matrix,
    mat_mul,
    mat_pow,
    prime_field,
    rank,
)
from jordanbundles.modules import (
    ModuleRep,
    construct_duals_example,
    construct_steinberg,
    construct_syzygy_E2,
    construct_weyl_sl2,
    construct_zigzag,
    frobenius_twist_gar,
    gln_natural,
    gln_tensor_power,
    principal_indecomposable_sl2,
    random_module,
    random_nilpotent,
    sl2_height2_natural,
    trivial_module,
)
from jordanbundles.operators import (
    EngineInvariantError,
    JordanType,
    ThetaMatrix,
    constant_jrank_report,
    constant_kernel_image_property,
    generic_jrank,
    jordan_type,
    jordan_type_chain_oracle,
    jtype_scan,
    local_jtype,
    mj_fiber_dim,
    orbit_scan,
    rank_variety_scan,
    theta_global,
    theta_local,
)
from jordanbundles.polyring import PolyMatrix, generic_rank
from jordanbundles.schemes import (
    additive_kernel,
    enumerate_points,
    frobenius_point_map,
    generator_names,
    multi_additive,
    orbit,
    p1_chart,
    restricted_lie,
    restricted_lie_sl2,
    sl2_lie_data,
)


# ---------------------------------------------------------------------------
# worked operator matrices


def test_theta_multi_additive_formula():
    # Theta = sum of A_{X_i} X_i, entries linear.
    rep = construct_zigzag(1, 3)
    th = theta_global(rep)
    assert th.entry_degree == 1
    names = generator_names(rep.desc)
    for i, nm in enumerate(names):
        pt = [0, 0]
        pt[i] = 1
        assert th.mat.evaluate(tuple(pt), rep.fld) == rep.action[nm]


def test_theta_additive_kernel_height2():
    # Theta for height 2 is u_0 x_1 + u_1 x_0^p: check by evaluation.
    p = 3
    rep = construct_duals_example(p)
    th = theta_global(rep)
    assert th.entry_degree == p
    names = generator_names(rep.desc)
    fld = rep.fld
    for x0 in range(p):
        for x1 in range(p):
            expected = [[fld.add(fld.mul(rep.action[names[0]][i][j], x1),
                                 fld.mul(rep.action[names[1]][i][j],
                                         fld.pow(x0, p)))
                         for j in range(rep.dim)] for i in range(rep.dim)]
            assert th.mat.evaluate((x0, x1), fld) == expected


def test_theta_additive_kernel_height3_worked_example():
    # [DERIVED] at p=2, r=3 the operator is
    # u_0 x_2 + u_1 x_1^2 + u_0 u_1 x_0^2 x_1 + u_2 x_0^4
    # frozen from an independent expansion of the divided-power formula.
    p, r = 2, 3
    desc = additive_kernel(p, r)
    rng = random.Random(1)
    rep = random_module(desc, 3, rng)
    th = theta_global(rep)
    fld = rep.fld
    names = generator_names(desc)
    u0, u1, u2 = (rep.action[n] for n in names)
    from jordanbundles.field import mat_add, mat_mul, mat_scale

    for pt in [(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)]:
        x0, x1, x2 = pt
        expected = [[0] * rep.dim for _ in range(rep.dim)]
        expected = mat_add(fld, expected, mat_scale(fld, x2 % p, u0))
        expected = mat_add(fld, expected, mat_scale(fld, (x1 * x1) % p, u1))
        expected = mat_add(fld, expected,
                           mat_scale(fld, (x0 * x0 * x1) % p, mat_mul(fld, u0, u1)))
        expected = mat_add(fld, expected, mat_scale(fld, (x0 ** 4) % p, u2))
        assert th.mat.evaluate(pt, fld) == expected


def test_theta_sl2_formula():
    rep = construct_weyl_sl2(2, 3)
    th = theta_global(rep)
    for pt in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
        if pt == (1, 1, 1):
            continue  # not on the nullcone
        local = theta_local(th, pt)
        x, y, z = pt
        from jordanbundles.field import mat_add, mat_scale

        fld = rep.fld
        expected = mat_add(fld, mat_add(
            fld, mat_scale(fld, x, rep.action["e"]),
            mat_scale(fld, y, rep.action["f"])),
            mat_scale(fld, z, rep.action["h"]))
        assert local == expected


def test_theta_entries_homogeneous():
    # every entry of Theta is homogeneous of weighted degree p^(height-1)
    cases = [
        (construct_zigzag(2, 3), 1),
        (construct_duals_example(3), 3),
        (construct_weyl_sl2(3, 3), 1),
        (sl2_height2_natural(3), 3),
        (gln_natural(3, 2), 3),
        (gln_tensor_power(3, 2, 2), 3),
    ]
    for rep, deg in cases:
        th = theta_global(rep)
        assert th.entry_degree == deg
        assert th.mat.entries_homogeneous_of_degree() in (deg, 0)


def test_theta_local_rejects_bad_point():
    th = theta_global(construct_weyl_sl2(1, 3))
    with pytest.raises(ValueError):
        theta_local(th, (1, 1, 1))  # z^2 + xy != 0


def test_theta_gln_natural_is_second_component():
    rep = gln_natural(3, 2)
    th = theta_global(rep)
    pt = (0, 1, 0, 0, 0, 0, 1, 0)  # alpha_0 = e12, alpha_1 = e21... wait
    # alpha_0 = [[0,1],[0,0]], alpha_1 = [[0,0],[1,0]] do not commute; use
    # alpha_0 = alpha_1 = e12 instead.
    pt = (0, 1, 0, 0, 0, 1, 0, 0)
    local = theta_local(th, pt)
    assert local == [[0, 1], [0, 0]]


def test_theta_gln_tensor_square_blocks():
    # On the d-fold tensor power at a point with alpha_0 = 0, Theta acts as
    # sum over positions of alpha_1 in one slot (degree-p part only).
    p = 3
    rep = gln_tensor_power(p, 2, 2)
    th = theta_global(rep)
    fld = rep.fld
    a1 = [[0, 1], [0, 0]]
    pt = (0, 0, 0, 0, 0, 1, 0, 0)
    local = theta_local(th, pt)
    from jordanbundles.field import identity, mat_add
    from jordanbundles.modules import kron

    expected = mat_add(fld, kron(fld, a1, identity(fld, 2)),
                       kron(fld, identity(fld, 2), a1))
    assert local == expected


# ---------------------------------------------------------------------------
# Jordan types


def test_jordan_type_str_and_partition():
    jt = JordanType(p=3, counts=(1, 2, 0))  # one [1], two [2]
    assert jt.partition() == (2, 2, 1)
    assert jt.dim == 5
    assert str(jt) == "2[2] + [1]"
    assert str(JordanType(3, (0, 0, 0))) == "0"


@given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_jordan_oracle_agreement(seed, p):
    fld = prime_field(p)
    rng = random.Random(seed)
    n = random_nilpotent(fld, rng.randint(1, 7), p, rng)
    a = jordan_type(fld, n, p)
    b = jordan_type_chain_oracle(fld, n, p)
    assert a == b and hash(a) == hash(b)
    assert (str(a), repr(a), a.partition()) == (str(b), repr(b), b.partition())
    assert a.dim == b.dim == len(n) == sum(a.partition())
    # a JordanType is the tuple (p, counts), and prints as the frozen
    # dataclass it replaced did, so reports and digests built from its repr
    # are unchanged
    assert a == (p, a.counts) and hash(a) == hash((p, a.counts))
    assert repr(a) == "JordanType(p=%d, counts=%r)" % (p, a.counts)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_jordan_type_conjugation_invariant(seed):
    from jordanbundles.field import inverse, mat_mul, random_invertible

    p = 3
    fld = prime_field(p)
    rng = random.Random(seed)
    n = random_nilpotent(fld, rng.randint(1, 6), p, rng)
    g = random_invertible(fld, len(n), rng)
    conj = mat_mul(fld, mat_mul(fld, g, n), inverse(fld, g))
    assert jordan_type(fld, n, p) == jordan_type(fld, conj, p)


def test_jordan_type_rank_reconstruction():
    # rank of n^j equals sum_{i>j} (i-j) a_i
    p = 5
    fld = prime_field(p)
    rng = random.Random(9)
    for _ in range(20):
        n = random_nilpotent(fld, rng.randint(2, 8), p, rng)
        jt = jordan_type(fld, n, p)
        for j in range(1, p):
            expected = sum((i - j) * jt.block_count(i)
                           for i in range(j + 1, p + 1))
            assert rank(fld, mat_pow(fld, n, j)) == expected


def test_chain_oracle_raises_engine_fault_on_broken_chain(monkeypatch):
    # the oracle's structural checks are engine faults, not asserts that
    # vanish under python -O: chains built from a zero image break early
    import jordanbundles.field as field
    import jordanbundles.operators as operators

    fld = prime_field(3)
    n = [[1 if j == i + 1 else 0 for j in range(3)] for i in range(3)]
    real = field.jordan_chains
    monkeypatch.setattr(field, "jordan_chains", lambda fld, a: [
        [[0] * len(a) for _ in chain[1:]] + chain[-1:] for chain in real(fld, a)])
    with pytest.raises(operators.EngineInvariantError, match="chain"):
        jordan_type_chain_oracle(fld, n, 3)


def test_jordan_type_rejects_non_p_nilpotent():
    # one Jordan block of size 4: 3-nilpotent fails, 5-nilpotent is fine
    fld = prime_field(3)
    n = [[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="not p-nilpotent"):
        jordan_type(fld, n, 3)
    with pytest.raises(ValueError, match="not p-nilpotent"):
        mj_fiber_dim(fld, n, 3, 1)
    assert jordan_type(fld, n, 5) == JordanType(5, (0, 0, 0, 1, 0))


def test_mj_fiber_dim_formula():
    # per-block contribution to dim ker(n^j)/im(n^(p-j)) is
    # min(i, j) - max(i + j - p, 0); blocks of size p contribute nothing
    p = 3
    fld = prime_field(p)
    rng = random.Random(4)
    for _ in range(15):
        n = random_nilpotent(fld, rng.randint(2, 7), p, rng)
        jt = jordan_type(fld, n, p)
        for j in range(1, p):
            expected = sum((min(i, j) - max(i + j - p, 0)) * jt.block_count(i)
                           for i in range(1, p + 1))
            assert mj_fiber_dim(fld, n, p, j) == expected
        # in particular a fully projective module has zero fiber
    free = [[0]*6 for _ in range(6)]
    for b in range(2):
        for k in range(2):
            free[3*b + k + 1][3*b + k] = 1
    assert mj_fiber_dim(fld, free, p, 1) == 0


# ---------------------------------------------------------------------------
# the rank-sequence route against the former powers-then-rank route


def _frozen_jordan_type(fld, n, p):
    """The former jordan_type: the rank of each power, formed by one full
    product per step, until a rank is 0; otherwise n^p must vanish."""
    ranks = [len(n)]
    power = n
    for _ in range(p - 1):
        ranks.append(rank(fld, power))
        if not ranks[-1]:
            break
        power = mat_mul(fld, power, n)
    else:
        if not is_zero_matrix(power):
            raise ValueError("matrix is not p-nilpotent (p = %d)" % p)
    ranks += [0] * (p + 2 - len(ranks))
    counts = tuple(ranks[i - 1] - 2 * ranks[i] + ranks[i + 1] for i in range(1, p + 1))
    return JordanType(p, counts)


def _frozen_mj_fiber_dim(fld, n, p, j):
    """The former mj_fiber_dim: ranks of the powers n^j and n^(p-j) formed
    by products, with the containment n^j n^(p-j) = 0 checked."""
    dim = len(n)
    powers = [identity(fld, dim), n]
    while len(powers) <= max(j, p - j):
        powers.append(mat_mul(fld, powers[-1], n))
    nj, npj = powers[j], powers[p - j]
    ker_dim = dim - rank(fld, nj)
    if not is_zero_matrix(mat_mul(fld, nj, npj)):
        raise ValueError("image not contained in kernel; matrix not p-nilpotent")
    return ker_dim - rank(fld, npj)


# GF(p), GF(p^2) and GF(p^3); GF(11^3) is past the table limit and computes its tables
JORDAN_FIELDS = {pe: ext_field_build(*pe) for pe in [
    (2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 3),
    (11, 3)]}


def _jordan_field(p, e, tables):
    """GF(p^e), with its tables or as a bare ``Field`` of the same modulus,
    which computes them."""
    fld = JORDAN_FIELDS[p, e]
    return fld if tables else Field(p, e, fld.modulus)


@given(seed=st.integers(0, 10**6), pe=st.sampled_from(sorted(JORDAN_FIELDS)),
       tables=st.booleans())
@settings(max_examples=120, deadline=None)
def test_jordan_type_matches_frozen_route_and_oracle(seed, pe, tables):
    # the rank sequence on tuple tables and on computed ones
    p, e = pe
    fld = _jordan_field(p, e, tables)
    rng = random.Random(seed)
    n = random_nilpotent(fld, rng.randint(1, 7), p, rng)
    # a bare field equals its tabled twin, so an entry from one would
    # answer for the other
    operators._jordan_type_of.cache_clear()
    jt = jordan_type(fld, n, p)
    assert jt == _frozen_jordan_type(fld, n, p)
    assert jt == jordan_type_chain_oracle(fld, n, p)
    assert jt.dim == len(n)


@pytest.mark.parametrize("p,e,tables", [(3, 2, True), (3, 2, False), (5, 2, True)],
                         ids=["F9", "F9-bare", "F25"])
def test_mj_fiber_dim_matches_frozen_formula(p, e, tables):
    fld = _jordan_field(p, e, tables)
    rng = random.Random(p * 10 + e)
    # F9 and F9-bare draw the same matrices: rank them afresh on each
    operators._jordan_type_of.cache_clear()
    for _ in range(25):
        n = random_nilpotent(fld, rng.randint(1, 8), p, rng)
        for j in range(p + 1):
            assert mj_fiber_dim(fld, n, p, j) == _frozen_mj_fiber_dim(fld, n, p, j)


@pytest.mark.parametrize("tables", [True, False], ids=["F9", "F9-bare"])
def test_jordan_type_rejects_rank_settling_above_zero(tables):
    # the rank of the powers stops falling above zero: not nilpotent at all
    fld = _jordan_field(3, 2, tables)
    for n in ([[1]], [[0, 1], [0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 5]]):
        with pytest.raises(ValueError, match="not p-nilpotent"):
            jordan_type(fld, n, 3)
        with pytest.raises(ValueError, match="not p-nilpotent"):
            mj_fiber_dim(fld, n, 3, 1)


def test_mj_fiber_dim_rejects_j_outside_zero_to_p():
    n = [[0, 1], [0, 0]]
    for j in (-1, 4):
        with pytest.raises(ValueError, match="j must be between 0 and p"):
            mj_fiber_dim(prime_field(3), n, 3, j)


# ---------------------------------------------------------------------------
# the memo behind jordan_type


def test_jordan_type_memo_keeps_fields_with_other_moduli_apart():
    # N = [[0, A], [0, 0]] squares to 0 over any field, and its rank is that
    # of A = [[g, 1], [1, 2g]], whose determinant 2g^2 - 1 vanishes when
    # g^2 = -1 (modulus x^2 + 1) but is g + 1 when g^2 = -g - 2 (x^2 + x + 2)
    n = [[0, 0, 3, 1], [0, 0, 1, 6], [0, 0, 0, 0], [0, 0, 0, 0]]
    f1 = ext_field_build(3, 2)
    f2 = Field(3, 2, (2, 1, 1))
    assert f1.modulus == (1, 0, 1) and f1 != f2
    operators._jordan_type_of.cache_clear()
    for _ in range(2):
        assert jordan_type(f1, n, 3) == JordanType(3, (2, 1, 0)) == _frozen_jordan_type(f1, n, 3)
        assert jordan_type(f2, n, 3) == JordanType(3, (0, 2, 0)) == _frozen_jordan_type(f2, n, 3)
    assert operators._jordan_type_of.cache_info().misses == 2


def test_jordan_type_memo_keeps_no_reference_to_the_matrix():
    fld = prime_field(3)
    block = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    n = [row[:] for row in block]
    assert jordan_type(fld, n, 3) == JordanType(3, (0, 0, 1))
    for row in n:
        row[:] = [0, 0, 0]
    assert jordan_type(fld, n, 3) == JordanType(3, (3, 0, 0))
    assert jordan_type(fld, block, 3) == JordanType(3, (0, 0, 1))


def test_jordan_type_memo_stores_no_failure():
    fld = prime_field(3)
    n = [[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)]
    operators._jordan_type_of.cache_clear()
    for calls in range(1, 4):
        with pytest.raises(ValueError, match="not p-nilpotent"):
            jordan_type(fld, n, 3)
        info = operators._jordan_type_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, calls, 0)


def test_jordan_type_memo_stays_within_its_bound():
    # more distinct strictly upper triangular 4 x 4 matrices over GF(5)
    # than the memo holds
    bound = operators._JORDAN_TYPE_MEMO
    fld = prime_field(5)
    for entries in itertools.islice(itertools.product(range(5), repeat=6), bound + 200):
        it = iter(entries)
        n = [[next(it) if j > i else 0 for j in range(4)] for i in range(4)]
        jt = jordan_type(fld, n, 5)
        assert jt == _frozen_jordan_type(fld, n, 5)
    info = operators._jordan_type_of.cache_info()
    assert info.maxsize == bound
    assert info.currsize == bound


@given(seed=st.integers(0, 10**6), pe=st.sampled_from(sorted(JORDAN_FIELDS)))
@settings(max_examples=60, deadline=None)
def test_warm_jordan_type_matches_frozen_route_and_oracle(seed, pe):
    # a second call, and a call on an equal copy, are answered by the memo
    p, e = pe
    fld = JORDAN_FIELDS[p, e]
    rng = random.Random(seed)
    n = random_nilpotent(fld, rng.randint(1, 7), p, rng)
    jordan_type(fld, n, p)
    hits = operators._jordan_type_of.cache_info().hits
    for m in (n, [list(row) for row in n]):
        jt = jordan_type(fld, m, p)
        assert jt == _frozen_jordan_type(fld, m, p)
        assert jt == jordan_type_chain_oracle(fld, m, p)
    assert operators._jordan_type_of.cache_info().hits == hits + 2


def test_zigzag_local_jordan_type():
    # [PAPER-style worked value] the zig-zag module of dim 5 at a generic
    # point has type 2[2] + [1].
    th = theta_global(construct_zigzag(2, 3))
    jt = local_jtype(th, (1, 1))
    assert str(jt) == "2[2] + [1]"
    assert jt.partition() == (2, 2, 1)


def test_weyl_constant_jordan_type():
    # V_m for m <= p-1 has a single block [m+1] at every point.
    p = 5
    for m in range(p):
        th = theta_global(construct_weyl_sl2(m, p))
        types = jtype_scan(th, max_ext=1)
        assert len(types) == 1
        jt = next(iter(types))
        assert jt.partition() == (m + 1,)


# ---------------------------------------------------------------------------
# constancy scanning


def test_constant_rank_trivial_module():
    th = theta_global(trivial_module(additive_kernel(3, 2)))
    rpt = constant_jrank_report(th, 1)
    assert rpt.constant and rpt.rank == 0


def test_syzygy_constant_jordan_type():
    th = theta_global(construct_syzygy_E2(2, 3))
    types = jtype_scan(th, max_ext=2)
    assert len(types) == 1


@pytest.mark.parametrize("max_ext", [0, -1])
def test_scans_reject_max_ext_below_1(max_ext):
    # a scan of no field would give a verdict on no points
    th = theta_global(construct_zigzag(1, 3))
    # (a ValueError, not an engine fault, from the scans that convert one)
    from jordanbundles.bundles import endotrivial_test, projectivity_test

    for scan in (lambda: constant_jrank_report(th, 1, max_ext=max_ext),
                 lambda: jtype_scan(th, max_ext=max_ext),
                 lambda: projectivity_test(th, max_ext), lambda: endotrivial_test(th, max_ext)):
        with pytest.raises(ValueError, match="max_ext must be at least 1"):
            scan()


def test_scans_reject_max_ext_above_1_over_an_extension_field():
    # the extensions of GF(9) are not built: a larger max_ext is refused,
    # never clamped to the module's own field
    rep = random_module(multi_additive(3, 2), 2, random.Random(1), ext_field_build(3, 2))
    th = theta_global(rep)
    assert constant_jrank_report(th, 1, max_ext=1).fields_scanned == [(3, 2)]
    for max_ext in (2, 3):
        with pytest.raises(ValueError, match="max_ext"):
            constant_jrank_report(th, 1, max_ext=max_ext)
        with pytest.raises(ValueError, match="max_ext"):
            jtype_scan(th, max_ext=max_ext)


def test_sl2_height2_natural_nonconstant():
    # the natural module of the height-2 sl2 has rank 0 at points with
    # vanishing second component and rank 1 elsewhere
    rep = sl2_height2_natural(3)
    th = theta_global(rep)
    rpt = constant_jrank_report(th, 1, max_ext=1)
    assert not rpt.constant
    assert sorted(rpt.ranks_seen) == [0, 1]
    # explicit witnesses: (e, 0) gives 0, (0, e) gives 1
    assert rank(rep.fld, theta_local(th, (1, 0, 0, 0, 0, 0))) == 0
    assert rank(rep.fld, theta_local(th, (0, 0, 0, 1, 0, 0))) == 1


def test_generic_rank_bounds_scanned_ranks():
    for rep in (construct_zigzag(3, 3), construct_weyl_sl2(4, 3),
                construct_duals_example(3)):
        th = theta_global(rep)
        for j in (1, 2):
            gr = generic_jrank(th, j)
            rpt = constant_jrank_report(th, j, max_ext=1)
            assert gr is not None
            assert gr == max(rpt.ranks_seen)


def test_rank_variety_scan_zigzag():
    # the dim-3 zig-zag operator has rank 1 at every nonzero point, so no
    # point falls below the generic rank
    th = theta_global(construct_zigzag(1, 3))
    ranks = rank_variety_scan(th, j=1, max_ext=1)
    assert set(ranks.values()) == {1}


def test_rank_variety_scan_nonconstant_witness():
    th = theta_global(sl2_height2_natural(3))
    ranks = rank_variety_scan(th, j=1, max_ext=1)
    generic = max(ranks.values())
    drops = [pt for pt, r in ranks.items() if r < generic]
    assert drops  # rank drops on the locus with vanishing second component
    assert (1, 0, 0, 0, 0, 0) in drops


def test_constant_kernel_image_trivial_and_weyl():
    th = theta_global(construct_weyl_sl2(1, 3))
    rpt = constant_kernel_image_property(th, 1, max_ext=1)
    assert not rpt["kernel_constant"]  # ker theta_v varies with v
    th0 = theta_global(trivial_module(multi_additive(3, 2)))
    rpt0 = constant_kernel_image_property(th0, 1, max_ext=1)
    assert rpt0["kernel_constant"] and rpt0["image_constant"]


# ---------------------------------------------------------------------------
# Frobenius twists


def test_twist_identity_random_samples():
    p = 3
    fld2 = ext_field_build(p, 2)
    rng = random.Random(13)
    for _ in range(5):
        r = rng.choice([2, 3])
        desc = additive_kernel(p, r)
        rep = random_module(desc, rng.randint(2, 4), rng)
        th = theta_global(rep)
        for s in range(1, r):
            ths = theta_global(frobenius_twist_gar(rep, s))
            for pt in list(enumerate_points(desc, fld2))[:40]:
                jt1 = jordan_type(fld2, ths.mat.evaluate(pt, fld2), p)
                moved = frobenius_point_map(desc, pt, s, fld2)
                jt2 = jordan_type(fld2, th.mat.evaluate(moved, fld2), p)
                assert jt1 == jt2


# ---------------------------------------------------------------------------
# naturality under subgroup inclusion


def test_pullback_to_subgroup_is_variable_restriction():
    # restricting a module over (G_a)^3 to the first two factors matches
    # setting the third variable to zero in the big operator
    p = 3
    rng = random.Random(21)
    desc3 = multi_additive(p, 3)
    rep3 = random_module(desc3, 4, rng)
    th3 = theta_global(rep3)
    desc2 = multi_additive(p, 2)
    names3 = generator_names(desc3)
    names2 = generator_names(desc2)
    rep2 = ModuleRep(desc2, rep3.fld, rep3.dim,
                     {names2[i]: rep3.action[names3[i]] for i in range(2)})
    th2 = theta_global(rep2)
    for a in range(p):
        for b in range(p):
            assert th2.mat.evaluate((a, b), rep3.fld) == \
                th3.mat.evaluate((a, b, 0), rep3.fld)


# ---------------------------------------------------------------------------
# the orbit scan on P(G) against the plain affine scan of V(G)


def _custom_sl2(p):
    # u(sl2) given by structure constants: its cone comes from Jacobson's
    # formula rather than from the closed form z^2 + xy = 0
    weyl = construct_weyl_sl2(2, p)
    return ModuleRep(restricted_lie(p, sl2_lie_data()), weyl.fld, weyl.dim, weyl.action)


ORBIT_SCAN_CASES = [
    ("Ga(1)^x2-p3", 2, lambda: random_module(multi_additive(3, 2), 3, random.Random(1))),
    ("Ga(1)^x2-p5", 2, lambda: random_module(multi_additive(5, 2), 3, random.Random(2))),
    ("Ga(1)^x3-p3", 2, lambda: random_module(multi_additive(3, 3), 3, random.Random(3))),
    ("Ga(2)-p3", 2, lambda: random_module(additive_kernel(3, 2), 3, random.Random(4))),
    ("Ga(2)-p5", 2, lambda: random_module(additive_kernel(5, 2), 3, random.Random(5))),
    ("Ga(3)-p3", 2, lambda: random_module(additive_kernel(3, 3), 2, random.Random(6))),
    ("u_sl2-p3", 2, lambda: random_module(restricted_lie_sl2(3), 4, random.Random(7))),
    ("u_sl2-p5", 2, lambda: construct_weyl_sl2(3, 5)),
    ("lie-sl2-p3", 2, lambda: _custom_sl2(3)),
    ("lie-sl2-p5", 2, lambda: _custom_sl2(5)),
    # V(G) over F_9 and F_25 is too large to walk point by point for the
    # height-2 families; their prime fields are compared instead
    ("SL2(2)-p3", 1, lambda: sl2_height2_natural(3)),
    ("GL2(2)-p3", 1, lambda: gln_tensor_power(3, 2, 2)),
    ("GL2(2)-p2", 1, lambda: gln_natural(2, 2)),
]


@pytest.mark.parametrize("label,max_ext,build", ORBIT_SCAN_CASES,
                         ids=[c[0] for c in ORBIT_SCAN_CASES])
def test_orbit_scan_matches_affine_scan(label, max_ext, build):
    th = theta_global(build())
    p = th.desc.p
    # the plain affine scan: every nonzero point of every field, in order
    affine = {}
    first_jt, first_in, first_rank = {}, {}, {}
    flds = []
    for e in range(1, max_ext + 1):
        fld = ext_field_build(p, e)
        flds.append(fld)
        for pt in enumerate_points(th.desc, fld):
            m = th.mat.evaluate(pt, fld)
            jt = jordan_type(fld, m, p)
            affine[(e, pt)] = jt
            first_jt.setdefault(jt, pt)
            first_in.setdefault(jt, fld)
            first_rank.setdefault(rank(fld, m), pt)
    # the orbit scan: one representative per orbit with its orbit size
    weight = 0
    for fld, pt, size, sampled in orbit_scan(th, max_ext):
        assert not sampled and size == fld.q - 1
        jt = jordan_type(fld, th.mat.evaluate(pt, fld), p)
        for q_pt in orbit(th.desc, pt, fld):
            assert affine[(fld.e, q_pt)] == jt
        weight += size
    assert weight == len(affine)
    types = jtype_scan(th, max_ext=max_ext)
    assert types == first_jt
    # the scan's keys answer for the oracle's types and for plain tuples
    for jt, pt in first_jt.items():
        fld = first_in[jt]
        oracle = jordan_type_chain_oracle(fld, th.mat.evaluate(pt, fld), p)
        assert types[oracle] == types[(p, jt.counts)] == pt
    rpt = constant_jrank_report(th, 1, max_ext=max_ext)
    assert rpt.points_scanned == len(affine)
    assert rpt.ranks_seen == first_rank
    assert rpt.fields_scanned == [(f.p, f.e) for f in flds]
    assert not rpt.sampled


def test_rank_variety_scan_fills_every_orbit():
    th = theta_global(sl2_height2_natural(3))
    ranks = rank_variety_scan(th, j=1, max_ext=1)
    fld = prime_field(3)
    pts = list(enumerate_points(th.desc, fld))
    assert list(ranks) == pts
    assert all(ranks[pt] == rank(fld, th.mat.evaluate(pt, fld)) for pt in pts)


def _inhomogeneous_theta():
    # zig-zag's Theta with one entry u_0 replaced by u_0^2 + u_0
    th = theta_global(construct_zigzag(1, 3))
    u0 = th.ring.var(0)
    rows = [list(r) for r in th.mat.rows]
    i, j = next((i, j) for i, r in enumerate(rows) for j, a in enumerate(r) if not a.is_zero())
    rows[i][j] = u0 * u0 + u0
    return ThetaMatrix(th.rep, th.ring, PolyMatrix(th.ring, rows), 1)


@pytest.mark.parametrize("scan", [
    lambda th: constant_jrank_report(th, 1, max_ext=1),
    lambda th: jtype_scan(th, max_ext=1),
    lambda th: rank_variety_scan(th, j=1, max_ext=1),
    lambda th: constant_kernel_image_property(th, 1, max_ext=1),
])
def test_orbit_scans_refuse_inhomogeneous_theta(scan):
    # Theta(l.x) = l^deg Theta(x) is what lets one representative stand
    # for its orbit; without it the scan is an engine fault
    th = _inhomogeneous_theta()
    assert th.mat.entries_homogeneous_of_degree() is None
    with pytest.raises(EngineInvariantError, match="homogeneous"):
        scan(th)


# ---------------------------------------------------------------------------
# Theta from its coefficient form against the former dense-sum builder


def _frozen_matrix_times_poly(ring, m, f):
    return PolyMatrix(ring, [[f.scale(c) if c else ring.zero() for c in r] for r in m])


def _frozen_poly_kron(ring, a, b):
    """The Kronecker product as the gl_n convolution formed it, on the dense
    grids: one ``Poly`` product per pair of entries."""
    zero = ring.zero()
    rows = [[f * g if f.terms and g.terms else zero for f in ra for g in rb]
            for ra in a.rows for rb in b.rows]
    return PolyMatrix(ring, rows)


def _frozen_theta_global(rep):
    """The former builder: one dense n x n matrix per generator, added up
    with ``PolyMatrix.__add__``; its exponent tuples for G_a(r) come from a
    recursion of its own, and gl_n tensor powers convolve dense Kronecker
    products.  The oracle for ``theta_global``."""
    import math

    from jordanbundles.modules import _divided_power_op
    from jordanbundles.operators import _multinomial_mod
    from jordanbundles.schemes import coord_ring

    desc, fld = rep.desc, rep.fld
    p = desc.p
    ring, _ = coord_ring(desc, fld)
    n = rep.dim
    total = PolyMatrix.zero(ring, n, n)
    if desc.family in ("multi_additive", "restricted_lie"):
        for i, nm in enumerate(generator_names(desc)):
            total = total + _frozen_matrix_times_poly(ring, rep.action[nm], ring.var(i))
        return total
    if desc.family == "additive_kernel":
        r = desc.r

        def solutions(l, remaining, prefix):
            w = p ** l
            if l == r - 1:
                if remaining % w == 0:
                    yield prefix + (remaining // w,)
                return
            for k in range(remaining // w + 1):
                yield from solutions(l + 1, remaining - k * w, prefix + (k,))

        for expo in solutions(0, p ** (r - 1), ()):
            c = _multinomial_mod(sum(expo), expo, p)
            if c:
                total = total + _frozen_matrix_times_poly(
                    ring, _divided_power_op(rep, sum(expo)), ring.monomial(expo, c))
        return total
    if desc.family == "sl2_height2":
        x0, y0, z0, x1, y1, z1 = (ring.var(i) for i in range(6))
        for nm, f in (("e", x1), ("f", y1), ("h", z1),
                      ("e[p]", x0 ** p), ("f[p]", y0 ** p), ("h[p]", z0 ** p)):
            total = total + _frozen_matrix_times_poly(ring, rep.action[nm], f)
        for i in range(p):
            for j in range(p - i + 1):
                l = p - i - j
                if j >= p or l >= p:
                    continue
                total = total + _frozen_matrix_times_poly(
                    ring, rep.action["d(%d,%d,%d)" % (i, j, l)], x0 ** i * y0 ** j * z0 ** l)
        return total
    # gln_height2: the convolution of beta(T) over the tensor factors
    m = desc.n
    a0 = PolyMatrix(ring, [[ring.var(i * m + j) for j in range(m)] for i in range(m)])
    a1 = PolyMatrix(ring, [[ring.var(m * m + i * m + j) for j in range(m)] for i in range(m)])
    if rep.construction[0] == "gln_natural":
        return a1
    betas = [PolyMatrix.identity(ring, m), a0]
    for f in range(2, p):
        betas.append(betas[-1] * a0)
    for f in range(2, p):
        inv_fact = pow(math.factorial(f) % p, p - 2, p)
        betas[f] = PolyMatrix(ring, [[g.scale(inv_fact) for g in r] for r in betas[f].rows])
    betas.append(a1)
    conv = list(betas)
    for _ in range(1, rep.construction[1]):
        new = []
        for k in range(p + 1):
            acc = _frozen_poly_kron(ring, conv[0], betas[k])
            for a in range(1, k + 1):
                acc = acc + _frozen_poly_kron(ring, conv[a], betas[k - a])
            new.append(acc)
        conv = new
    return conv[p]


THETA_FAMILIES = [
    ("Ga(1)-p3", lambda: random_module(multi_additive(3, 1), 3, random.Random(11))),
    ("Ga(1)^x2-zigzag", lambda: construct_zigzag(3, 3)),
    ("Ga(1)^x2-syzygy", lambda: construct_syzygy_E2(3, 5)),
    ("Ga(1)^x2-F9", lambda: random_module(multi_additive(3, 2), 4, random.Random(12),
                                          ext_field_build(3, 2))),
    ("Ga(1)^x3-p2", lambda: random_module(multi_additive(2, 3), 4, random.Random(13))),
    ("Ga(2)-duals", lambda: construct_duals_example(5)),
    ("Ga(2)-F625", lambda: random_module(additive_kernel(5, 2), 3, random.Random(14),
                                         ext_field_build(5, 4))),
    ("Ga(3)-p2", lambda: random_module(additive_kernel(2, 3), 4, random.Random(15))),
    ("Ga(3)-p3", lambda: random_module(additive_kernel(3, 3), 3, random.Random(16))),
    ("u_sl2-weyl", lambda: construct_weyl_sl2(6, 5)),
    ("u_sl2-steinberg", lambda: construct_steinberg(3)),
    ("lie-sl2-p3", lambda: _custom_sl2(3)),
    ("lie-sl2-p5", lambda: _custom_sl2(5)),
    ("SL2(2)-p3", lambda: sl2_height2_natural(3)),
    ("SL2(2)-p5", lambda: sl2_height2_natural(5)),
    ("GL2(2)-natural", lambda: gln_natural(3, 2)),
    ("GL3(2)-natural", lambda: gln_natural(2, 3)),
    ("GL2(2)-tensor", lambda: gln_tensor_power(3, 2, 2)),
    ("GL2(2)-tensor3", lambda: gln_tensor_power(5, 2, 3)),
    ("GL2(2)-tensor3-p2", lambda: gln_tensor_power(2, 2, 3)),
    ("GL3(2)-tensor-p2", lambda: gln_tensor_power(2, 3, 2)),
    ("GL3(2)-tensor-p3", lambda: gln_tensor_power(3, 3, 2)),
    ("GL2(2)-tensor-p5", lambda: gln_tensor_power(5, 2, 2)),
]


@pytest.mark.parametrize("label,build", THETA_FAMILIES, ids=[c[0] for c in THETA_FAMILIES])
def test_theta_global_matches_frozen_dense_sum(label, build):
    rep = build()
    theta = theta_global(rep)
    frozen = _frozen_theta_global(rep)
    assert theta.mat.ring == frozen.ring
    assert theta.mat.rows == frozen.rows
    assert all(0 not in f.terms.values() for r in theta.mat.rows for f in r)


# ---------------------------------------------------------------------------
# generic ranks: the kernel count on P^1 charts against Bareiss


def _bareiss_jrank(theta, j):
    chart = p1_chart(theta.desc, theta.rep.fld)
    mat = theta.mat if chart is None else theta.mat.substitute(chart)
    return generic_rank(mat.power(j))


@pytest.mark.parametrize("p", [3, 5])
def test_generic_jrank_on_charts_matches_bareiss(p):
    modules = [construct_weyl_sl2(m, p) for m in range(2 * p - 1)]
    modules += [principal_indecomposable_sl2(lam, p) for lam in range(p)]
    modules += [construct_syzygy_E2(k, p) for k in (1, 2, 3)]
    for rep in modules:
        theta = theta_global(rep)
        for j in range(1, p):
            assert generic_jrank(theta, j) == _bareiss_jrank(theta, j), (rep.label, j)


@given(p=st.sampled_from([2, 3, 5]), dim=st.integers(2, 5), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_generic_jrank_on_charts_matches_bareiss_random(p, dim, seed):
    theta = theta_global(random_module(multi_additive(p, 2), dim, random.Random(seed)))
    for j in range(1, p):
        assert generic_jrank(theta, j) == _bareiss_jrank(theta, j)


def test_generic_jrank_on_charts_needs_no_bareiss(monkeypatch):
    # the chart route is the kernel count, certified by Forney's bound;
    # Bareiss stays for the other affine varieties
    import jordanbundles.bundles as bundles
    import jordanbundles.operators as operators

    def no_bareiss(mat):
        raise AssertionError("generic_rank called")

    monkeypatch.setattr(bundles, "generic_rank", no_bareiss)
    monkeypatch.setattr(operators, "generic_rank", no_bareiss)
    for rep in (construct_syzygy_E2(3, 5), construct_weyl_sl2(7, 5)):
        for j in range(1, 5):
            assert generic_jrank(theta_global(rep), j) is not None
    with pytest.raises(AssertionError, match="generic_rank called"):
        generic_jrank(theta_global(construct_duals_example(3)), 1)


# ---------------------------------------------------------------------------
# a non-p-nilpotent Theta(x) on V(G) is an engine fault


def test_local_operator_faults_are_engine_faults(monkeypatch):
    # Theta(x) of a module is p-nilpotent at every point of V(G), so the
    # scans turn "not p-nilpotent" into EngineInvariantError; jordan_type
    # and mj_fiber_dim on a caller's matrix keep their ValueError
    # (the twist check included); each scan enters the conversion once, and
    # the message is the same from every route
    import re

    from jordanbundles.bundles import projectivity_test
    from jordanbundles.checks import twist

    theta = theta_global(construct_zigzag(1, 3))
    monkeypatch.setattr(PolyMatrix, "evaluate",
                        lambda self, point, fld=None: [[1 if i == j else 0 for j in range(self.ncols)]
                                                       for i in range(self.nrows)])
    fault = re.escape("local operator on V(G): matrix is not p-nilpotent (p = 3)")
    for scan in (lambda: local_jtype(theta, (1, 0)), lambda: jtype_scan(theta),
                 lambda: projectivity_test(theta), lambda: twist(3, 1, 0)):
        with pytest.raises(EngineInvariantError, match=fault) as info:
            scan()
        assert isinstance(info.value.__cause__, ValueError)
    with pytest.raises(ValueError, match="not p-nilpotent"):
        jordan_type(prime_field(3), [[1]], 3)
