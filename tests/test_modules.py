"""Module constructors, functors, and summand decomposition."""

import random

import pytest

from jordanbundles.field import (
    identity,
    is_zero_matrix,
    mat_mul,
    mat_pow,
    prime_field,
    rank,
)
from jordanbundles.modules import (
    ModuleRep,
    _fitting,
    construct_duals_example,
    construct_steinberg,
    construct_syzygy_E2,
    construct_weyl_sl2,
    construct_zigzag,
    decompose_summands,
    direct_sum,
    dual_module,
    external_product,
    free_module_E,
    frobenius_twist_gar,
    gln_natural,
    gln_tensor_power,
    kron,
    module_from_dict,
    module_to_dict,
    principal_indecomposable_sl2,
    random_module,
    regular_module_E,
    restrict_subspace,
    sl2_height2_natural,
    submodule_generated,
    symmetric_power,
    tensor_module,
    trivial_module,
    validate_module,
)
from jordanbundles.schemes import (
    additive_kernel,
    generator_names,
    multi_additive,
    restricted_lie_sl2,
)

ZOO_P3 = [
    ("trivial", lambda: trivial_module(multi_additive(3, 2))),
    ("zigzag2", lambda: construct_zigzag(2, 3)),
    ("weyl3", lambda: construct_weyl_sl2(3, 3)),
    ("steinberg", lambda: construct_steinberg(3)),
    ("syzygy1", lambda: construct_syzygy_E2(1, 3)),
    ("duals", lambda: construct_duals_example(3)),
    ("regular", lambda: regular_module_E(3)),
    ("sl2h2-natural", lambda: sl2_height2_natural(3)),
    ("gl2-natural", lambda: gln_natural(3, 2)),
]


@pytest.mark.parametrize("name,make", ZOO_P3, ids=[n for n, _ in ZOO_P3])
def test_zoo_validates(name, make):
    rep = make()
    assert validate_module(rep) == []


@pytest.mark.parametrize("n,p,dim", [(1, 3, 3), (4, 3, 9), (2, 5, 5)])
def test_zigzag_dimension(n, p, dim):
    rep = construct_zigzag(n, p)
    assert rep.dim == dim == 2 * n + 1
    names = generator_names(rep.desc)
    for nm in names:
        # both generators square to zero on a zig-zag module
        assert is_zero_matrix(mat_pow(rep.fld, rep.action[nm], 2))


def test_weyl_sl2_action():
    p = 5
    rep = construct_weyl_sl2(3, p)
    assert rep.dim == 4
    e, f, h = (rep.action[n] for n in ("e", "f", "h"))
    fld = rep.fld
    # [e, f] = h and h acts diagonally with weights 2i - m
    from jordanbundles.field import mat_sub

    assert mat_sub(fld, mat_mul(fld, e, f), mat_mul(fld, f, e)) == h
    for i in range(4):
        assert h[i][i] == (2 * i - 3) % p


def test_steinberg_is_top_weyl():
    p = 5
    st = construct_steinberg(p)
    assert st.dim == p
    assert module_to_dict(st)["action"] == module_to_dict(
        construct_weyl_sl2(p - 1, p))["action"]


# [DERIVED] dim of the n-th syzygy of the trivial module over k[x,y]/(x^p,y^p):
# Euler characteristic of the minimal free resolution gives
# dim(Omega^n) + dim(Omega^{n-1}) = n * p^2 with dim(Omega^0) = 1.
@pytest.mark.parametrize("p,dims", [(3, [8, 10, 17, 19]), (2, [3, 5, 7, 9])])
def test_syzygy_dimensions(p, dims):
    prev = 1
    for n, expected in enumerate(dims, start=1):
        rep = construct_syzygy_E2(n, p)
        assert rep.dim == expected
        assert rep.dim + prev == n * p * p
        prev = rep.dim
        assert validate_module(rep) == []


def test_submodule_generated_augmentation_ideal():
    # The radical of the 4-dimensional algebra k[x,y]/(x^2,y^2) acting on
    # itself generates a 3-dimensional submodule: the first syzygy at p=2.
    reg = regular_module_E(2)
    names = generator_names(reg.desc)
    one = [0] * reg.dim
    one[0] = 1
    gens = [list(col) for col in (
        [reg.action[names[0]][i][0] for i in range(reg.dim)],
        [reg.action[names[1]][i][0] for i in range(reg.dim)],
    )]
    sub, basis = submodule_generated(reg, gens)
    assert sub.dim == 3
    assert validate_module(sub) == []


def test_free_module_dimensions():
    assert regular_module_E(3).dim == 9
    assert free_module_E(3, 2).dim == 18
    assert free_module_E(2, 3).dim == 12


def test_dual_is_involution_and_reverses_action():
    rep = construct_zigzag(2, 3)
    d = dual_module(rep)
    assert validate_module(d) == []
    dd = dual_module(d)
    assert dd.action == rep.action
    from jordanbundles.field import transpose

    for nm in rep.action:
        neg = [[rep.fld.neg(c) for c in row] for row in transpose(rep.action[nm])]
        assert d.action[nm] == neg


def test_tensor_dimensions_and_validity():
    a = construct_zigzag(1, 3)
    b = construct_zigzag(2, 3)
    t = tensor_module(a, b)
    assert t.dim == a.dim * b.dim
    assert validate_module(t) == []
    # tensoring with the trivial module changes nothing up to the identity map
    triv = trivial_module(a.desc)
    t2 = tensor_module(a, triv)
    assert t2.dim == a.dim
    assert t2.action == a.action


def test_tensor_weyl_weights():
    # [DERIVED] V_1 (x) V_1 at p=3: h-eigenvalues are pairwise sums of the
    # factors' weights {1, -1}: {2, 0, 0, -2}.
    p = 3
    v1 = construct_weyl_sl2(1, p)
    t = tensor_module(v1, v1)
    assert t.dim == 4
    h = t.action["h"]
    eigs = sorted(h[i][i] % p for i in range(4))
    assert eigs == sorted(x % p for x in (2, 0, 0, -2))
    assert validate_module(t) == []


def test_symmetric_power_dimensions():
    rep = construct_zigzag(1, 3)  # dim 3
    assert symmetric_power(rep, 1).dim == rep.dim
    s2 = symmetric_power(rep, 2)
    assert s2.dim == 6  # C(3+1, 2)
    assert validate_module(s2) == []
    triv = trivial_module(rep.desc)
    assert symmetric_power(triv, 5).dim == 1


def test_frobenius_twist_structure():
    p = 3
    desc = additive_kernel(p, 2)
    rng = random.Random(0)
    rep = random_module(desc, 3, rng)
    tw = frobenius_twist_gar(rep, 1)
    names = generator_names(desc)
    assert is_zero_matrix(tw.action[names[0]])
    expected = [[rep.fld.pow(c, p) for c in row] for row in rep.action[names[0]]]
    assert tw.action[names[1]] == expected
    assert frobenius_twist_gar(rep, 0).action == rep.action


def test_external_product_dimensions_and_validity():
    a = construct_zigzag(1, 3)
    b = construct_zigzag(2, 3)
    prod = external_product(a, b)
    assert prod.desc.r == 4
    assert prod.dim == a.dim * b.dim
    assert validate_module(prod) == []


def test_direct_sum_and_decompose_roundtrip():
    a = construct_weyl_sl2(1, 3)
    b = construct_weyl_sl2(2, 3)
    s = direct_sum(a, b)
    summands, rpt = decompose_summands(s, rng=random.Random(1))
    assert rpt.certified
    assert sorted(m.dim for m in summands) == [2, 3]


def test_decompose_indecomposable():
    st = construct_steinberg(3)
    summands, rpt = decompose_summands(st, rng=random.Random(1))
    assert rpt.certified
    assert [m.dim for m in summands] == [3]


def test_steinberg_tensor_v2_splits():
    # [DERIVED] St (x) V_2 at p=3 has summand dimensions {6, 3}: the 6 is the
    # projective cover P_0 and the 3 is the Steinberg itself.
    p = 3
    t = tensor_module(construct_steinberg(p), construct_weyl_sl2(2, p))
    summands, rpt = decompose_summands(t, rng=random.Random(2))
    assert rpt.certified
    assert sorted(m.dim for m in summands) == [3, 6]


def test_decompose_extends_restriction_of_scalars():
    # F_9^2 with X_0 = e21 and X_1 = i e21, viewed over F_3 (A is i, as
    # x^2 + 1 is irreducible over F_3): indecomposable over F_3, and its
    # commutant holds I (x) A, which has no eigenvalue there; over F_9 it
    # splits into two Galois-conjugate 2-dimensional summands.
    fld = prime_field(3)
    e21 = [[0, 0], [1, 0]]
    a = [[0, 2], [1, 0]]
    rep = ModuleRep(multi_additive(3, 2), fld, 4,
                    {"X_0": kron(fld, e21, identity(fld, 2)), "X_1": kron(fld, e21, a)})
    assert validate_module(rep) == []
    summands, rpt = decompose_summands(rep, rng=random.Random(1))
    assert rpt.extended and rpt.certified and rpt.fld.q == 9
    assert sorted(m.dim for m in summands) == [2, 2]
    assert all(m.fld.q == 9 and validate_module(m) == [] for m in summands)


def test_fitting_scan_cases():
    fld = prime_field(3)
    # scalar plus nilpotent: certified, no split
    assert _fitting(fld, [[2, 1], [0, 2]]) is True
    # diag(0, 1) splits at lam = 0 into its kernel and image
    assert _fitting(fld, [[0, 0], [0, 1]]) == ([[1, 0]], [[0, 1]])
    # no eigenvalue in F_3: neither split nor certificate
    assert _fitting(fld, [[0, 2], [1, 0]]) is False


@pytest.mark.parametrize("lam,dim", [(0, 6), (1, 6), (2, 3)])
def test_principal_indecomposable_dims(lam, dim):
    p = 3
    rep = principal_indecomposable_sl2(lam, p)
    assert rep.dim == dim
    assert validate_module(rep) == []
    # highest-weight vector of weight lam generates a (lam+1)-dim submodule
    summands, rpt = decompose_summands(rep, rng=random.Random(3))
    assert rpt.certified and len(summands) == 1


def test_duals_example_structure():
    rep = construct_duals_example(3)
    assert rep.dim == 3
    names = generator_names(rep.desc)
    u0, u1 = (rep.action[n] for n in names)
    # u_0 m_1 = m_2 and u_1 m_1 = m_3; everything else dies
    assert [u0[i][0] for i in range(3)] == [0, 1, 0]
    assert [u1[i][0] for i in range(3)] == [0, 0, 1]
    assert rank(rep.fld, u0) == 1 and rank(rep.fld, u1) == 1


def test_gln_tensor_power_dims():
    assert gln_natural(3, 2).dim == 2
    assert gln_tensor_power(3, 2, 2).dim == 4
    assert gln_tensor_power(2, 3, 2).dim == 9


def test_restrict_subspace_closed():
    rep = construct_weyl_sl2(2, 3)
    fld = rep.fld
    # span of the two lowest basis vectors is NOT closed; the whole space is.
    whole = identity(fld, rep.dim)
    r = restrict_subspace(rep, whole)
    assert r.dim == rep.dim


@pytest.mark.parametrize("family", ["multi_additive", "additive_kernel", "u_sl2"])
def test_random_modules_validate(family):
    rng = random.Random(7)
    for trial in range(10):
        if family == "multi_additive":
            desc = multi_additive(3, rng.randint(1, 3))
        elif family == "additive_kernel":
            desc = additive_kernel(3, rng.randint(1, 3))
        else:
            desc = restricted_lie_sl2(3)
        rep = random_module(desc, rng.randint(1, 5), rng)
        assert validate_module(rep) == []


def test_module_json_roundtrip():
    for rep in (construct_zigzag(2, 3), construct_weyl_sl2(3, 5),
                construct_duals_example(3)):
        data = module_to_dict(rep)
        back = module_from_dict(data)
        assert back.desc == rep.desc
        assert back.dim == rep.dim
        assert back.action == rep.action
