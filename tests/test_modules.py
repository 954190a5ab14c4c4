"""Module constructors, functors, and summand decomposition."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import jordanbundles.modules as modules
from jordanbundles.bundles import kernel_graded, restrict_p1, splitting_type
import jordanbundles.field as field
from jordanbundles.field import (
    EngineInvariantError,
    Field,
    commutant_basis,
    ext_field_build,
    identity,
    inverse,
    is_zero_matrix,
    jordan_basis,
    kernel_basis,
    kernel_form,
    mat_combination,
    mat_mul,
    mat_pow,
    mat_sub_scalar,
    mat_vec,
    prime_field,
    random_invertible,
    rank,
    reduce_vector,
    row_reduce,
    span_basis,
    transpose,
    zeros,
)
from jordanbundles.modules import (
    ModuleRep,
    _fitting,
    _local_certificate,
    coords_in_basis,
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
from jordanbundles.operators import jordan_type, theta_global
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


def _closure_rounds(rep, vectors):
    # frozen reference: the closure loop the spin replaced, the whole span
    # times every m^T, round after round, until its dimension stops growing
    fld = rep.fld
    current = span_basis(fld, vectors)
    while True:
        images = [w for m in rep.action.values() for w in mat_mul(fld, current, transpose(m))]
        nxt = span_basis(fld, current + images)
        if len(nxt) == len(current):
            return nxt
        current = nxt


SPIN_FIELDS = [prime_field(2), prime_field(3), prime_field(5), ext_field_build(5, 4)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_spin_matches_closure_rounds(data):
    # the same RREF basis and action matrices as the closure loop, on
    # random modules and their direct sums over GF(p), extended to GF(5^4)
    # (which computes its tables) for random generators there, from 0-3
    # generators among them zero and repeated vectors
    fld = data.draw(st.sampled_from(SPIN_FIELDS), label="field")
    p = fld.p
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    desc = data.draw(st.sampled_from([multi_additive(p, 2), additive_kernel(p, 2),
                                      multi_additive(p, 3), restricted_lie_sl2(p)]), label="group")
    rep = random_module(desc, data.draw(st.integers(1, 5), label="dim"), rng)
    if data.draw(st.booleans(), label="direct sum"):
        rep = direct_sum(rep, random_module(desc, data.draw(st.integers(1, 4)), rng))
    rep = replace(rep, fld=fld)
    vectors = []
    for kind in rng.choices(["random", "unit", "zero", "repeat"], k=rng.randint(0, 3)):
        if kind == "random":
            vectors.append([rng.randrange(fld.q) for _ in range(rep.dim)])
        elif kind == "unit":
            vectors.append([int(i == rng.randrange(rep.dim)) for i in range(rep.dim)])
        elif kind == "zero" or not vectors:
            vectors.append([0] * rep.dim)
        else:
            vectors.append(list(rng.choice(vectors)))
    sub, basis = submodule_generated(rep, vectors)
    assert basis == _closure_rounds(rep, vectors)
    assert sub.dim == len(basis)
    assert sub.action == _restrict_by_vectors(rep, basis)


def test_free_module_dimensions():
    assert regular_module_E(3).dim == 9
    assert free_module_E(3, 2).dim == 18
    assert free_module_E(2, 3).dim == 12


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_free_module_matches_chained_direct_sums(p):
    # frozen reference: the free module as n - 1 chained direct sums of
    # the regular module, relabelled
    for n in range(1, 5):
        rep = regular_module_E(p)
        chained = rep
        for _ in range(n - 1):
            chained = direct_sum(chained, rep)
        free = free_module_E(p, n)
        assert (free.desc, free.fld, free.dim, free.action, free.label) == (
            chained.desc, chained.fld, chained.dim, chained.action, "kE^%d" % n)
    with pytest.raises(ValueError):
        free_module_E(p, 0)


def test_dual_is_involution_and_reverses_action():
    rep = construct_zigzag(2, 3)
    d = dual_module(rep)
    assert validate_module(d) == []
    dd = dual_module(d)
    assert dd.action == rep.action
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
    # scalar plus nilpotent: certified at its scalar, no split
    assert _fitting(fld, [[2, 1], [0, 2]]) == 2
    assert _fitting(fld, [[0, 1], [0, 0]]) == 0
    # diag(0, 1) splits at lam = 0 into its kernel and image
    assert _fitting(fld, [[0, 0], [0, 1]]) == ([[1, 0]], [[0, 1]])
    # no eigenvalue in F_3: neither split nor certificate
    assert _fitting(fld, [[0, 2], [1, 0]]) is None


def _certificate(fld, basis):
    lams = [_fitting(fld, c) for c in basis]
    assert all(isinstance(lam, int) for lam in lams)
    return _local_certificate(fld, [mat_sub_scalar(fld, c, lam) for c, lam in zip(basis, lams)])


def test_local_certificate_rejects_matrix_ring():
    # a basis of M_2(GF(3)) whose elements are each a scalar plus a
    # nilpotent: M_2 is not local, and N = sl_2 is not closed under products
    fld = prime_field(3)
    basis = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [2, 2]]]
    assert rank(fld, [[x for row in c for x in row] for c in basis]) == 4
    assert not _certificate(fld, basis)
    # closed under products but not nilpotent: the chain k*1 > k*1 stalls
    assert not _local_certificate(fld, [identity(fld, 2)])
    assert _local_certificate(fld, [[[0, 1], [0, 0]]])
    # nilpotent but not closed: e12 e23 = e13 lies outside N
    assert not _local_certificate(fld, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                        [[0, 0, 0], [0, 0, 1], [0, 0, 0]]])


def test_local_certificate_accepts_zigzag(monkeypatch):
    # End(X_2) is local: X_2 is indecomposable, and no draw is made
    rep = construct_zigzag(2, 3)
    assert _certificate(rep.fld, commutant_basis(rep.fld, rep.action.values(), rep.dim))
    draws = []
    real = modules.mat_combination

    def spy(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "mat_combination", spy)
    summands, rpt = decompose_summands(rep, rng=random.Random(1))
    assert rpt.certified and [m.dim for m in summands] == [5] and draws == []


def _generates_simple(rep, lam):
    """Whether a highest-weight vector of weight lam generates a
    (lam+1)-dimensional submodule of rep."""
    rows = rep.action["e"] + mat_sub_scalar(rep.fld, rep.action["h"], lam % rep.desc.p)
    return any(submodule_generated(rep, [v])[0].dim == lam + 1
               for v in kernel_basis(rep.fld, rows, rep.dim))


def _frozen_pim_by_splitter(lam, p):
    # the route P_lam was built by before the Casimir kernel: split
    # St (x) V_{p-1-lam} and keep the 2p-dimensional summand whose
    # weight-lam highest-weight vector generates a simple submodule
    if lam == p - 1:
        return construct_steinberg(p)
    big = tensor_module(construct_steinberg(p), construct_weyl_sl2(p - 1 - lam, p))
    parts, _ = decompose_summands(big, random.Random(0))
    for part in parts:
        if part.dim == 2 * p and _generates_simple(part, lam):
            return part
    raise AssertionError("projective summand P_%d not found" % lam)


def _intertwiner(a, b, rng):
    """An invertible module map a -> b, read off the lower-left block of a
    seeded element of End(a + b), or None if no draw gives one."""
    n, fld = a.dim, a.fld
    s = direct_sum(a, b)
    comm = commutant_basis(fld, s.action.values(), s.dim)
    for _ in range(20):
        x = mat_combination(fld, s.dim, [rng.randrange(fld.q) for _ in comm], comm)
        y = [row[:n] for row in x[n:]]
        if rank(fld, y) == n:
            return y
    return None


@pytest.mark.parametrize("p,lam", [(p, lam) for p in (2, 3, 5, 7) for lam in range(p)])
def test_principal_indecomposable_dims(p, lam):
    rep = principal_indecomposable_sl2(lam, p)
    assert rep.dim == (2 * p if lam < p - 1 else p)
    assert validate_module(rep) == []
    summands, rpt = decompose_summands(rep, rng=random.Random(3))
    assert rpt.certified and len(summands) == 1
    assert _generates_simple(rep, lam)
    # the Casimir block and the splitter's summand are isomorphic modules
    old = _frozen_pim_by_splitter(lam, p)
    assert old.dim == rep.dim
    y = _intertwiner(rep, old, random.Random(lam))
    assert y is not None
    assert all(mat_mul(rep.fld, y, rep.action[nm]) == mat_mul(rep.fld, old.action[nm], y)
               for nm in rep.action)
    if p % 2:
        new_b, old_b = (restrict_p1(theta_global(m)) for m in (rep, old))
        for j in range(1, p):
            assert (splitting_type(kernel_graded(new_b, j))
                    == splitting_type(kernel_graded(old_b, j)))


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


def _restrict_by_vectors(rep, basis_rows):
    # the induced action one basis vector at a time, by mat_vec
    fld = rep.fld
    basis, pivots = row_reduce(fld, basis_rows)
    action = {}
    for nm, m in rep.action.items():
        sub = zeros(len(basis), len(basis))
        for col, b in enumerate(basis):
            for row, c in enumerate(coords_in_basis(fld, basis, pivots, mat_vec(fld, m, b))):
                sub[row][col] = c
        action[nm] = sub
    return action


@pytest.mark.parametrize("p", [2, 3, 5])
def test_restrict_subspace_matches_vector_route_on_syzygies(p, monkeypatch):
    # the one-mat_mul restriction gives the same action matrices as the
    # per-vector route on every subspace the syzygies Omega^1..Omega^4 use
    calls = []
    real = modules.restrict_subspace

    def spy(rep, basis_rows):
        out = real(rep, basis_rows)
        calls.append((rep, basis_rows, out))
        return out

    monkeypatch.setattr(modules, "restrict_subspace", spy)
    for n in range(1, 5):
        construct_syzygy_E2(n, p)
    assert len(calls) == 4
    for rep, basis_rows, out in calls:
        assert out.action == _restrict_by_vectors(rep, basis_rows)


def test_random_candidates_do_not_clear_certified(monkeypatch):
    # only a commutant basis element without an eigenvalue clears the
    # certificate; a random combination that finds none must not.  The
    # local certificate is forced to fail, so that the draws run.
    comms = []
    real_commutant = modules.commutant_basis

    def commutant(fld, mats, n):
        comms.append(real_commutant(fld, mats, n))
        return comms[-1]

    seen = {"basis": 0, "draw": 0}

    def fitting(fld, c):
        if any(c is b for b in comms[-1]):
            seen["basis"] += 1
            return 0
        seen["draw"] += 1
        return None

    monkeypatch.setattr(modules, "commutant_basis", commutant)
    monkeypatch.setattr(modules, "_fitting", fitting)
    monkeypatch.setattr(modules, "_local_certificate", lambda fld, nil: False)
    summands, rpt = decompose_summands(construct_steinberg(3), rng=random.Random(1))
    assert seen["basis"] == len(comms[0]) and seen["draw"] > 0
    assert rpt.certified and not rpt.extended
    assert [m.dim for m in summands] == [3]


def test_restrict_subspace_closed():
    rep = construct_weyl_sl2(2, 3)
    fld = rep.fld
    # span of the two lowest basis vectors is NOT closed; the whole space is.
    whole = identity(fld, rep.dim)
    r = restrict_subspace(rep, whole)
    assert r.dim == rep.dim
    with pytest.raises(ValueError, match="not in span"):
        restrict_subspace(rep, whole[:2])


def _off_block(fld, rows):
    """The span of ``rows`` with its first row swapped for the first unit
    vector outside it: as large, but in general no longer invariant."""
    basis, pivots = row_reduce(fld, rows)
    n = len(rows[0])
    i = next(i for i in range(n) if any(reduce_vector(fld, basis, pivots, identity(fld, n)[i])))
    return [identity(fld, n)[i]] + [list(r) for r in rows[1:]]


@pytest.mark.parametrize("side", [0, 1])
def test_non_invariant_fitting_subspace_is_an_engine_fault(side, monkeypatch):
    # the kernel and image of (c - lam)^n are invariant for c in End(M); a
    # split that finds one not invariant is an engine fault, while
    # restrict_subspace keeps its ValueError for a caller's subspace
    real = modules._fitting

    def fitting(fld, c):
        got = real(fld, c)
        if isinstance(got, tuple):
            got = list(got)
            got[side] = _off_block(fld, got[side])
            got = tuple(got)
        return got

    monkeypatch.setattr(modules, "_fitting", fitting)
    rep = direct_sum(construct_weyl_sl2(1, 3), construct_weyl_sl2(2, 3))
    what = ["Fitting kernel", "Fitting image"][side]
    with pytest.raises(EngineInvariantError, match=what + " is not invariant"):
        decompose_summands(rep, rng=random.Random(1))


def test_singular_eigenbasis_is_an_engine_fault(monkeypatch):
    # eigenvectors of distinct eigenvalues are independent, so a singular
    # eigenbasis is an engine fault, not inverse's ValueError
    fld = prime_field(3)
    monkeypatch.setattr(field, "_eigenbasis", lambda fld, a: ([[1, 0], [1, 0]], [1, 1]))
    with pytest.raises(EngineInvariantError, match="eigenvectors do not form a basis"):
        commutant_basis(fld, [[[0, 0], [0, 1]]], 2)


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


def _kronecker_commutant(fld, mats, n):
    # the plain Kronecker system in the n^2 entries of X, kept as the
    # reference for commutant_basis
    rows = []
    for a in mats:
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] = fld.add(row[k * n + j], a[i][k])
                    row[i * n + k] = fld.sub(row[i * n + k], a[k][j])
                rows.append(row)
    return [[v[i * n:(i + 1) * n] for i in range(n)] for v in kernel_basis(fld, rows, n * n)]


# the last is built bare, on computed tables (for an extension field past
# the table limit see test_commutant_basis_on_computed_tables_over_gf625)
COMMUTANT_FIELDS = [prime_field(3), prime_field(5), ext_field_build(3, 2), Field(5, 1, (0, 1))]


def _dense(rep, rng):
    fld = rep.fld
    s = random_invertible(fld, rep.dim, rng)
    si = inverse(fld, s)
    return ModuleRep(rep.desc, fld, rep.dim,
                     {nm: mat_mul(fld, mat_mul(fld, s, m), si) for nm, m in rep.action.items()})


def _check_jordan_basis(fld, a):
    # P^-1 a P is the Jordan matrix with the block sizes of jordan_type(a)
    # (a is len(a)-nilpotent)
    p_mat, p_inv, sizes = jordan_basis(fld, a)
    assert mat_mul(fld, p_inv, p_mat) == identity(fld, len(a))
    assert tuple(sizes) == jordan_type(fld, a, len(a)).partition()
    starts = {sum(sizes[:b]) for b in range(len(sizes))}
    assert mat_mul(fld, p_inv, mat_mul(fld, a, p_mat)) == [
        [1 if j == i + 1 and j not in starts else 0 for j in range(len(a))] for i in range(len(a))]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_commutant_basis_matches_kronecker_system(data):
    # eigenblocks, Jordan-basis Toeplitz diagonals and the full system all
    # give the basis of the system in all n^2 unknowns, element for
    # element: on u(sl2) Weyl sums and tensors in dense bases (h
    # diagonalisable), on random (G_a)^r and G_(a(r)) modules and one
    # nilpotent in a dense basis (no such matrix), on zero matrices, and on
    # a matrix with no eigenvalue over GF(3), with and without a nilpotent
    fld = data.draw(st.sampled_from(COMMUTANT_FIELDS), label="field")
    p = fld.p
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    kind = data.draw(st.sampled_from(["weyl-sum", "tensor", "multi_additive", "additive_kernel",
                                      "nilpotent", "zero", "non-split"]), label="kind")
    if kind == "weyl-sum":
        weights = data.draw(st.lists(st.integers(0, 2 * p - 2), min_size=1, max_size=3)
                            .filter(lambda ws: sum(ws) + len(ws) <= 10))
        rep = construct_weyl_sl2(weights[0], p, fld)
        for m in weights[1:]:
            rep = direct_sum(rep, construct_weyl_sl2(m, p, fld))
        mats, n = list(_dense(rep, rng).action.values()), rep.dim
    elif kind == "tensor":
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, 9 // (a + 1) - 1))
        rep = _dense(tensor_module(construct_weyl_sl2(a, p, fld), construct_weyl_sl2(b, p, fld)), rng)
        mats, n = list(rep.action.values()), rep.dim
    elif kind in ("multi_additive", "additive_kernel"):
        desc = (multi_additive if kind == "multi_additive" else additive_kernel)(
            p, data.draw(st.integers(1, 3)))
        rep = random_module(desc, data.draw(st.integers(1, 6)), rng, fld)
        mats, n = list(rep.action.values()), rep.dim
    elif kind == "nilpotent":
        n = data.draw(st.integers(1, 7))
        mats = [modules.random_nilpotent(fld, n, p, rng)]
    elif kind == "zero":
        n = data.draw(st.integers(1, 4))
        mats = [zeros(n, n)] * data.draw(st.integers(1, 2))
    else:
        # x^2 - 2 has no root in GF(3): [[0, 2], [1, 0]] plus a scalar
        # block, in a dense basis
        fld = prime_field(3)
        n = 2 + data.draw(st.integers(0, 3))
        split = [[0, 2] + [0] * (n - 2), [1, 0] + [0] * (n - 2)] + [
            [0] * i + [rng.randrange(3)] + [0] * (n - 1 - i) for i in range(2, n)]
        s = random_invertible(fld, n, rng)
        mats = [mat_mul(fld, mat_mul(fld, s, split), inverse(fld, s))]
        if data.draw(st.booleans(), label="with nilpotent"):
            mats.insert(data.draw(st.integers(0, 1)), modules.random_nilpotent(fld, n, 3, rng))
    assert commutant_basis(fld, mats, n) == _kronecker_commutant(fld, mats, n)
    for a in mats:
        if any(map(any, a)) and is_zero_matrix(mat_pow(fld, a, n)):
            _check_jordan_basis(fld, a)


def test_commutant_basis_on_computed_tables_over_gf625():
    # GF(5^4) is past the table limit: Jordan bases, Toeplitz diagonals and
    # the back-map run on computed tables
    fld = ext_field_build(5, 4)
    assert type(fld._mul_table) is not tuple
    rng = random.Random(3)
    for dim in (2, 3, 4, 5):
        a = modules.random_nilpotent(fld, dim, 5, rng)
        mats = [a, mat_combination(fld, dim, [rng.randrange(fld.q) for _ in "ab"],
                                   [a, mat_mul(fld, a, a)])]
        assert commutant_basis(fld, mats, dim) == _kronecker_commutant(fld, mats, dim)
        _check_jordan_basis(fld, a)


def _corner_rings(fld, comm, u, w):
    # frozen reference: the rings of the summands U and W of a split
    # M = U + W as the corners pi_U End(M) iota_U and pi_W End(M) iota_W of
    # a basis comm of End(M), in the coordinates restrict_subspace gives U
    # and W, in the basis kernel_form gives their span
    q = transpose(u + w)
    q_inv = inverse(fld, q)
    a = len(u)
    xq = [mat_mul(fld, x, q) for x in comm]
    return (kernel_form(fld, (mat_mul(fld, q_inv[:a], [row[:a] for row in y]) for y in xq), a),
            kernel_form(fld, (mat_mul(fld, q_inv[a:], [row[a:] for row in y]) for y in xq), len(w)))


def _check_corner_rings(m, rng):
    # every split a basis element or a random combination makes: the corner
    # rings equal the commutants of the restricted summands; recurse on the
    # first split
    fld = m.fld
    comm = commutant_basis(fld, m.action.values(), m.dim)
    cands = comm + [modules.mat_combination(fld, m.dim, [rng.randrange(fld.q) for _ in comm], comm)
                    for _ in range(3)]
    splits = [got for got in (_fitting(fld, c) for c in cands) if isinstance(got, tuple)]
    for got in splits:
        for sub, ring in zip(got, _corner_rings(fld, comm, *got)):
            part = restrict_subspace(m, sub)
            assert ring == commutant_basis(fld, part.action.values(), part.dim)
    return len(splits) + (sum(_check_corner_rings(restrict_subspace(m, sub), rng)
                              for sub in splits[0]) if splits else 0)


def test_corner_rings_are_summand_commutants():
    rng = random.Random(5)
    reps = [tensor_module(construct_steinberg(p), construct_weyl_sl2(p - 1 - lam, p))
            for p, lam in ((3, 0), (5, 1), (5, 2))]
    reps.append(_dense(direct_sum(construct_weyl_sl2(1, 3), direct_sum(
        construct_weyl_sl2(1, 3), construct_weyl_sl2(2, 3))), rng))
    reps.append(_dense(direct_sum(construct_zigzag(1, 3), dual_module(construct_zigzag(1, 3))), rng))
    assert all(_check_corner_rings(rep, rng) > 0 for rep in reps)
