"""Acceptance suite: ten end-to-end checks of the engine's headline results.

Each test prints exactly one PASS/FAIL line so the suite doubles as a
reproduction report when run with ``pytest -v -s tests/test_acceptance.py``.
Criteria 01-07 run the paper checks of ``jordanbundles.checks.CHECKS``, the
same table the ``reproduce`` command runs.
"""

import random
import time

from jordanbundles.checks import CHECKS
from jordanbundles.field import mat_pow, prime_field, rank
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
    principal_indecomposable_sl2,
    random_module,
    random_nilpotent,
    sl2_height2_natural,
    trivial_module,
    validate_module,
)
from jordanbundles.operators import (
    ThetaMatrix,
    constant_jrank_report,
    jordan_type,
    jordan_type_chain_oracle,
    jtype_scan,
    mj_fiber_dim,
    theta_global,
    theta_local,
)
from jordanbundles.bundles import (
    endotrivial_test,
    k0_class,
    kernel_graded,
    projectivity_test,
    restrict_p1,
    splitting_type,
)
from jordanbundles.schemes import (
    additive_kernel,
    generator_names,
    multi_additive,
    restricted_lie_sl2,
    sample_points,
)
from jordanbundles.polyring import Substitution


def _report(num, label, ok):
    print("CRITERION %2d [%s]: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


def _all_pass(name, p, n_max=4, seed=0):
    """Run one paper check of ``CHECKS`` and say whether every row passes."""
    supports, rows = CHECKS[name]
    return supports(p) and all(row["pass"] for row in rows(p, n_max, seed))


def test_criterion_01_weyl_kernel_splittings():
    t0 = time.time()
    ok = all([_all_pass("sl2-kernels", p) for p in (3, 5)])
    ok = ok and (time.time() - t0) < 10
    _report(1, "kernel splittings of V_m, p in {3,5}", ok)


def test_criterion_02_principal_indecomposable_splittings():
    t0 = time.time()
    ok = _all_pass("pim", 3)  # P_lambda as one Casimir kernel
    ok = ok and (time.time() - t0) < 30
    _report(2, "P_lambda kernel splittings, p=3", ok)


def test_criterion_03_zigzag_subquotients():
    t0 = time.time()
    ok = all([_all_pass("zigzag", p, n_max=6) for p in (3, 5)])
    ok = ok and (time.time() - t0) < 10
    _report(3, "zig-zag subquotients O(-n) and O(n), n<=6", ok)


def test_criterion_04_syzygy_subquotients():
    t0 = time.time()
    ok = all([_all_pass("syzygy", p, n_max) for p, n_max in ((3, 4), (2, 4))])
    ok = ok and (time.time() - t0) < 60
    _report(4, "syzygy module subquotient line bundles, n<=4", ok)


def test_criterion_05_duals_example_sections():
    ok = all([_all_pass("duals-sections", p) for p in (3, 5)])
    _report(5, "section dimensions 2 and 1 for the duals example", ok)


def test_criterion_06_section_dimension_matrix():
    ok = _all_pass("rho-kappa", 3)
    _report(6, "triangular section-dimension matrix, diagonal (1,2,3)", ok)


def test_criterion_07_frobenius_twist_identity():
    ok = _all_pass("twist", 3, seed=2026)
    _report(7, "twist identity for 50 random modules at all F_9 points", ok)


def test_criterion_08_property_suite():
    t0 = time.time()
    p = 3
    ok = True
    rng = random.Random(88)

    # -- invariants on the built-in zoo ---------------------------------
    zoo = [
        trivial_module(multi_additive(p, 2)),
        construct_zigzag(2, p), construct_zigzag(3, p),
        construct_weyl_sl2(2, p), construct_weyl_sl2(4, p),
        construct_steinberg(p),
        construct_syzygy_E2(1, p), construct_syzygy_E2(2, p),
        construct_duals_example(p),
        free_module_E(p, 1),
        principal_indecomposable_sl2(0, p),
        sl2_height2_natural(p),
    ]
    for rep in zoo:
        ok = ok and validate_module(rep) == []
        th = theta_global(rep)
        # grading: all entries homogeneous of the declared degree
        ok = ok and th.mat.entries_homogeneous_of_degree() in (
            th.entry_degree, 0)
    # equivalence of constancy notions: modules of constant Jordan type have
    # constant j-rank for every j; projectives additionally have zero fibers
    for rep in (construct_weyl_sl2(2, p), construct_syzygy_E2(1, p),
                construct_steinberg(p)):
        th = theta_global(rep)
        ok = ok and len(jtype_scan(th, max_ext=1)) == 1
        for j in (1, 2):
            ok = ok and constant_jrank_report(th, j, max_ext=1).constant
    # projectivity / endotriviality verdicts on known cases
    ok = ok and projectivity_test(theta_global(free_module_E(p, 1))).verdict
    ok = ok and not projectivity_test(
        theta_global(construct_zigzag(1, p))).verdict
    ok = ok and endotrivial_test(
        theta_global(construct_syzygy_E2(1, p))).verdict
    ok = ok and not endotrivial_test(
        theta_global(construct_zigzag(2, p))).verdict

    # -- random modules per family --------------------------------------
    families = [multi_additive(p, 2), additive_kernel(p, 2),
                restricted_lie_sl2(p)]
    fld = prime_field(p)
    for desc in families:
        for _ in range(100):
            rep = random_module(desc, rng.randint(1, 5), rng)
            if validate_module(rep) != []:
                ok = False
                continue
            th = theta_global(rep)
            if th.mat.entries_homogeneous_of_degree() not in (
                    th.entry_degree, 0):
                ok = False
            dualth = theta_global(dual_module(rep))
            for pt in sample_points(desc, fld, 3, rng):
                n = theta_local(th, pt)
                jt = jordan_type(fld, n, p)
                # oracle equivalence at module level
                if jt != jordan_type_chain_oracle(fld, n, p):
                    ok = False
                # sub-rank identity: rk theta^j = sum_{i>j} (i-j) a_i
                for j in range(1, p):
                    expected = sum((i - j) * jt.block_count(i)
                                   for i in range(j + 1, p + 1))
                    if rank(fld, mat_pow(fld, n, j)) != expected:
                        ok = False
                    # fiber-dimension formula for the graded subquotient
                    fexp = sum(
                        (min(i, j) - max(i + j - p, 0)) * jt.block_count(i)
                        for i in range(1, p + 1))
                    if mj_fiber_dim(fld, n, p, j) != fexp:
                        ok = False
                # duality: the dual module has the same local Jordan type
                if jordan_type(fld, theta_local(dualth, pt), p) != jt:
                    ok = False

    # -- external product pullback identity ------------------------------
    for _ in range(3):
        m1 = random_module(multi_additive(p, 2), rng.randint(2, 3), rng)
        m2 = random_module(multi_additive(p, 2), 2, rng)
        prod = external_product(m1, m2)
        th4 = theta_global(prod)
        ring2 = theta_global(m1).ring
        sub = Substitution(th4.ring, ring2,
                           (ring2.var(0), ring2.var(1),
                            ring2.const(0), ring2.const(0)), 1)
        names4 = generator_names(prod.desc)
        names2 = generator_names(m1.desc)
        pulled = ModuleRep(m1.desc, prod.fld, prod.dim,
                           {names2[i]: prod.action[names4[i]]
                            for i in range(2)})
        pth = ThetaMatrix(pulled, ring2, th4.mat.substitute(sub), 1)
        for j in range(1, p):
            st = splitting_type(kernel_graded(restrict_p1(pth), j))
            st1 = splitting_type(kernel_graded(
                restrict_p1(theta_global(m1)), j))
            expected = tuple(sorted(
                [t for t in st1.twists for _ in range(m2.dim)], reverse=True))
            if st.twists != expected:
                ok = False

    # -- naturality: restriction to a subgroup = killing extra variables --
    desc3 = multi_additive(p, 3)
    desc2 = multi_additive(p, 2)
    names3 = generator_names(desc3)
    names2 = generator_names(desc2)
    for _ in range(5):
        rep3 = random_module(desc3, rng.randint(2, 4), rng)
        th3 = theta_global(rep3)
        rep2 = ModuleRep(desc2, rep3.fld, rep3.dim,
                         {names2[i]: rep3.action[names3[i]] for i in range(2)})
        th2 = theta_global(rep2)
        for a in range(p):
            for b in range(p):
                if th2.mat.evaluate((a, b), fld) != \
                        th3.mat.evaluate((a, b, 0), fld):
                    ok = False

    # -- K-class recurrence on projectives -------------------------------
    for lam in range(p):
        b = restrict_p1(theta_global(principal_indecomposable_sl2(lam, p)))
        ks = [k0_class(kernel_graded(b, j)) for j in range(1, p)]
        for j in range(2, p):
            if ks[j - 1] != ks[0] + ks[j - 2].twist(2):
                ok = False

    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(8, "property suite on zoo + 300 random modules "
               "(%.0fs)" % elapsed, ok)


def test_criterion_09_negative_control_nonconstant():
    p = 3
    rep = sl2_height2_natural(p)
    th = theta_global(rep)
    rpt = constant_jrank_report(th, 1, max_ext=1)
    ok = not rpt.constant and sorted(rpt.ranks_seen) == [0, 1]
    # explicit witness pair: nilpotent in the first factor only vs second only
    ok = ok and rank(rep.fld, theta_local(th, (1, 0, 0, 0, 0, 0))) == 0
    ok = ok and rank(rep.fld, theta_local(th, (0, 0, 0, 1, 0, 0))) == 1
    _report(9, "natural module of height-2 sl2 is non-constant, with witnesses",
            ok)


def test_criterion_10_jordan_oracle_equivalence():
    ok = True
    for p in (2, 3, 5, 7):
        fld = prime_field(p)
        rng = random.Random(1000 + p)
        for _ in range(200):
            n = random_nilpotent(fld, rng.randint(1, 8), p, rng)
            if jordan_type(fld, n, p) != jordan_type_chain_oracle(fld, n, p):
                ok = False
    _report(10, "rank-sequence vs chain-basis Jordan oracle, 200 per prime",
            ok)
