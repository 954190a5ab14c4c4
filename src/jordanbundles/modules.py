"""Finite-dimensional module representations for the supported group scheme
families, plus constructions: duals, tensor products, spun submodules,
zigzag, syzygy and Weyl modules, Frobenius twists, projective covers of
u(sl2), and a Fitting-style direct sum decomposition over finite fields.

A module stores one square action matrix per distribution-algebra generator
(matrices act on column vectors).  Modules for gln_height2 are an exception:
they are described structurally (natural module and its tensor powers) and
carry no generator matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .field import (
    Echelon,
    EngineInvariantError,
    Field,
    Matrix,
    Vector,
    _mat_mul_nz,
    _row_nonzeros,
    commutant_basis,
    ext_field_build,
    identity,
    inverse,
    is_zero_matrix,
    kernel_basis,
    mat_add,
    mat_combination,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_sub_scalar,
    power_ranks,
    prime_field,
    random_invertible,
    reduce_vector,
    row_reduce,
    span_basis,
    transpose,
    zeros,
)
from .schemes import (
    GroupSchemeDesc,
    additive_kernel,
    generator_names,
    gln_height2,
    multi_additive,
    restricted_lie_sl2,
    sl2_lie_data,
)


@dataclass
class ModuleRep:
    desc: GroupSchemeDesc
    fld: Field
    dim: int
    action: Dict[str, Matrix]
    label: str = ""
    construction: Optional[Tuple] = None  # ("gln_natural",) / ("gln_tensor", d)

    def act(self, name: str) -> Matrix:
        return self.action[name]

    def __str__(self) -> str:
        return "%s-module %s (dim %d)" % (self.desc.label(), self.label or "?", self.dim)


def kron(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    out = zeros(na * nb, na * nb)
    for i in range(na):
        for j in range(na):
            c = a[i][j]
            if not c:
                continue
            for k in range(nb):
                for l in range(nb):
                    if b[k][l]:
                        out[i * nb + k][j * nb + l] = fld.mul(c, b[k][l])
    return out


def commutator(fld: Field, a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(fld, mat_mul(fld, a, b), mat_mul(fld, b, a))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_module(rep: ModuleRep) -> List[str]:
    """Check the defining relations appropriate to the family; returns a
    list of human-readable failures (empty means valid)."""
    failures: List[str] = []
    desc, fld, p = rep.desc, rep.fld, rep.desc.p
    if desc.family == "gln_height2":
        if rep.construction is None or rep.construction[0] not in ("gln_natural", "gln_tensor"):
            failures.append("gln_height2 modules must be natural or tensor-power constructions")
        return failures
    names = generator_names(desc)
    for nm in names:
        if nm not in rep.action:
            failures.append("missing action matrix for generator %s" % nm)
            return failures
        m = rep.action[nm]
        if len(m) != rep.dim or any(len(r) != rep.dim for r in m):
            failures.append("action of %s has wrong shape" % nm)
            return failures
    if desc.family in ("multi_additive", "additive_kernel"):
        for nm in names:
            if not is_zero_matrix(mat_pow(fld, rep.action[nm], p)):
                failures.append("%s^p != 0" % nm)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if not is_zero_matrix(commutator(fld, rep.action[a], rep.action[b])):
                    failures.append("[%s, %s] != 0" % (a, b))
    elif desc.family == "restricted_lie":
        lie = desc.lie if desc.lie is not None else sl2_lie_data()
        bm = lie.bracket_map()
        gens = [rep.action[nm] for nm in names]
        for (i, j), coeffs in bm.items():
            lhs = commutator(fld, rep.action[names[i]], rep.action[names[j]])
            rhs = mat_combination(fld, rep.dim, [c % p for c in coeffs], gens)
            if not is_zero_matrix(mat_sub(fld, lhs, rhs)):
                failures.append("bracket relation [%s, %s] fails" % (names[i], names[j]))
        for i, nm in enumerate(names):
            rhs = mat_combination(fld, rep.dim, [c % p for c in lie.ppower[i]], gens)
            if not is_zero_matrix(mat_sub(fld, mat_pow(fld, rep.action[nm], p), rhs)):
                failures.append("restricted power relation for %s fails" % nm)
    elif desc.family == "sl2_height2":
        e, f, h = rep.action["e"], rep.action["f"], rep.action["h"]
        checks = [
            ("[e,f]=h", mat_sub(fld, commutator(fld, e, f), h)),
            ("[h,e]=2e", mat_sub(fld, commutator(fld, h, e), mat_scale(fld, 2 % p, e))),
            ("[h,f]=-2f", mat_add(fld, commutator(fld, h, f), mat_scale(fld, 2 % p, f))),
            ("e^p=0", mat_pow(fld, e, p)),
            ("f^p=0", mat_pow(fld, f, p)),
            ("h^p=h", mat_sub(fld, mat_pow(fld, h, p), h)),
            ("e[p]^p=0", mat_pow(fld, rep.action["e[p]"], p)),
            ("f[p]^p=0", mat_pow(fld, rep.action["f[p]"], p)),
            ("[e,e[p]]=0", commutator(fld, e, rep.action["e[p]"])),
            ("[f,f[p]]=0", commutator(fld, f, rep.action["f[p]"])),
        ]
        for label, m in checks:
            if not is_zero_matrix(m):
                failures.append(label)
    return failures


# ---------------------------------------------------------------------------
# duals, tensors, direct sums, symmetric powers
# ---------------------------------------------------------------------------


def dual_module(rep: ModuleRep) -> ModuleRep:
    """Linear dual: each generator acts by the negative transpose (the
    antipode sends the relevant divided-power generators to +/- themselves,
    and the sign is -1 in every case that matters, including p = 2 where
    -1 = 1)."""
    if rep.construction is not None:
        raise NotImplementedError("dual of a structural gln module is not supported")
    fld = rep.fld
    action = {
        nm: [[fld.neg(m[j][i]) for j in range(rep.dim)] for i in range(rep.dim)]
        for nm, m in rep.action.items()
    }
    return ModuleRep(rep.desc, fld, rep.dim, action, label=(rep.label or "M") + "^#")


def _divided_power_op(rep: ModuleRep, a: int) -> Matrix:
    """Action of the a-th divided power u^(a) on an additive_kernel module:
    the product of the generator actions along the base-p digits of a,
    divided by the digit factorials."""
    fld, p = rep.fld, rep.desc.p
    out = identity(fld, rep.dim)
    denom = 1
    digits = []
    n = a
    while n:
        digits.append(n % p)
        n //= p
    for l, j in enumerate(digits):
        if j:
            out = mat_mul(fld, out, mat_pow(fld, rep.action["u_%d" % l], j))
            denom = (denom * math.factorial(j)) % p
    if denom != 1:
        out = mat_scale(fld, fld.inv(denom % p), out)
    return out


def tensor_module(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """Tensor product over the group scheme.  Generators of multi_additive
    and restricted_lie modules are primitive; additive_kernel generators
    follow the divided-power comultiplication."""
    if m1.desc != m2.desc:
        raise ValueError("modules over different group schemes")
    desc, fld = m1.desc, m1.fld
    n1, n2 = m1.dim, m2.dim
    dim = n1 * n2
    action: Dict[str, Matrix] = {}
    if desc.family in ("multi_additive", "restricted_lie"):
        for nm in generator_names(desc):
            action[nm] = mat_add(
                fld,
                kron(fld, m1.action[nm], identity(fld, n2)),
                kron(fld, identity(fld, n1), m2.action[nm]),
            )
    elif desc.family == "additive_kernel":
        p = desc.p
        for i in range(desc.r):
            nm = "u_%d" % i
            total = zeros(dim, dim)
            for a in range(p ** i + 1):
                b = p ** i - a
                total = mat_add(
                    fld,
                    total,
                    kron(fld, _divided_power_op(m1, a), _divided_power_op(m2, b)),
                )
            action[nm] = total
    else:
        raise NotImplementedError("tensor products for %s are not supported" % desc.family)
    return ModuleRep(desc, fld, dim, action,
                     label="(%s)x(%s)" % (m1.label or "M", m2.label or "N"))


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    if m1.desc != m2.desc:
        raise ValueError("modules over different group schemes")
    fld = m1.fld
    dim = m1.dim + m2.dim
    action = {}
    for nm in m1.action:
        m = zeros(dim, dim)
        for i in range(m1.dim):
            for j in range(m1.dim):
                m[i][j] = m1.action[nm][i][j]
        for i in range(m2.dim):
            for j in range(m2.dim):
                m[m1.dim + i][m1.dim + j] = m2.action[nm][i][j]
        action[nm] = m
    return ModuleRep(m1.desc, fld, dim, action,
                     label="(%s)+(%s)" % (m1.label or "M", m2.label or "N"))


def external_product(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """External product M1 x M2 over the product group scheme.

    Both factors must live over elementary abelian groups (multi_additive);
    the result is a module over multi_additive(p, r1 + r2) where the first
    r1 generators act as A_i (x) I and the last r2 act as I (x) B_i.
    """
    if m1.desc.family != "multi_additive" or m2.desc.family != "multi_additive":
        raise ValueError("external_product requires multi_additive factors")
    if m1.desc.p != m2.desc.p or m1.fld.q != m2.fld.q:
        raise ValueError("factors must share the same base field")

    fld = m1.fld
    r1, r2 = m1.desc.r, m2.desc.r
    desc = multi_additive(m1.desc.p, r1 + r2)
    names = generator_names(desc)
    id1 = identity(fld, m1.dim)
    id2 = identity(fld, m2.dim)
    action = {}
    for i in range(r1):
        action[names[i]] = kron(fld, m1.action[generator_names(m1.desc)[i]], id2)
    for i in range(r2):
        action[names[r1 + i]] = kron(fld, id1, m2.action[generator_names(m2.desc)[i]])
    return ModuleRep(desc, fld, m1.dim * m2.dim, action,
                     label="(%s)x(%s)" % (m1.label or "M", m2.label or "N"))


def symmetric_power(rep: ModuleRep, d: int) -> ModuleRep:
    """d-th symmetric power for families with primitive generators, acting
    by derivations on monomials."""
    if rep.desc.family not in ("multi_additive", "restricted_lie"):
        raise NotImplementedError("symmetric powers need primitive generators")
    fld, n = rep.fld, rep.dim
    basis: List[Tuple[int, ...]] = []

    def gen(start: int, left: int, prefix: Tuple[int, ...]):
        if left == 0:
            basis.append(prefix)
            return
        for i in range(start, n):
            gen(i, left - 1, prefix + (i,))

    gen(0, d, ())
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    action: Dict[str, Matrix] = {}
    for nm, a in rep.action.items():
        m = zeros(dim, dim)
        for col, mono in enumerate(basis):
            for k in range(d):
                for j in range(n):
                    c = a[j][mono[k]]
                    if c:
                        new = tuple(sorted(mono[:k] + (j,) + mono[k + 1:]))
                        m[index[new]][col] = fld.add(m[index[new]][col], c)
        action[nm] = m
    return ModuleRep(rep.desc, fld, dim, action, label="Sym^%d(%s)" % (d, rep.label or "M"))


def frobenius_twist_gar(rep: ModuleRep, s: int) -> ModuleRep:
    """s-th Frobenius twist of an additive_kernel module: generator u_i acts
    by the entrywise p^s power of the former u_{i-s} action (zero for
    i < s)."""
    if rep.desc.family != "additive_kernel":
        raise NotImplementedError("frobenius_twist_gar applies to additive_kernel modules")
    fld, r = rep.fld, rep.desc.r
    action: Dict[str, Matrix] = {}
    for i in range(r):
        if i < s:
            action["u_%d" % i] = zeros(rep.dim, rep.dim)
        else:
            src = rep.action["u_%d" % (i - s)]
            action["u_%d" % i] = [[fld.frobenius(x, s) for x in row] for row in src]
    return ModuleRep(rep.desc, fld, rep.dim, action, label="(%s)^(%d)" % (rep.label or "M", s))


# ---------------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------------


def coords_in_basis(fld: Field, basis: Matrix, pivots: Sequence[int], v: Vector) -> Vector:
    """Coordinates of v in an RREF basis (raises if v is outside the span)."""
    if any(reduce_vector(fld, basis, pivots, v)):
        raise ValueError("vector not in span of basis")
    return [v[pc] for pc in pivots]


def submodule_generated(rep: ModuleRep, vectors: Sequence[Vector]) -> Tuple[ModuleRep, Matrix]:
    """Smallest subrepresentation containing the given vectors, spun on one
    echelon that takes the images of each new vector once.  Returns the
    induced module and its (RREF) basis as rows in ambient coordinates."""
    if rep.construction is not None:
        raise NotImplementedError("structural gln modules have no action matrices")
    fld = rep.fld
    # the images m b of rows b are the rows of b m^T
    mats_nz = [_row_nonzeros(transpose(m)) for m in rep.action.values()]
    span = Echelon(fld)
    batch = [list(v) for v in vectors if span.insert(v) is not None]
    while batch:
        images = [w for nz in mats_nz for w in _mat_mul_nz(fld, batch, nz, rep.dim)]
        batch = [w for w in images if span.insert(w) is not None]
    basis = span_basis(fld, span.rows)
    sub = _restrict_invariant(rep, basis, "spun submodule")
    sub.label = "sub(%s)" % (rep.label or "M")
    return sub, basis


def restrict_subspace(rep: ModuleRep, basis_rows: Matrix) -> ModuleRep:
    """Induced action on an invariant subspace given by RREF basis rows."""
    fld = rep.fld
    basis, pivots = row_reduce(fld, basis_rows)
    dim = len(basis)
    action: Dict[str, Matrix] = {}
    for nm, m in rep.action.items():
        # the images m b of the basis rows b are the rows of basis m^T; the
        # coordinates of the image of row col fill column col
        images = mat_mul(fld, basis, transpose(m)) if dim else []
        action[nm] = transpose([coords_in_basis(fld, basis, pivots, img) for img in images])
    return ModuleRep(rep.desc, fld, dim, action, label=rep.label)


def _restrict_invariant(rep: ModuleRep, basis_rows: Matrix, what: str) -> ModuleRep:
    """``restrict_subspace`` on a subspace that a theorem makes invariant:
    one found not invariant is an ``EngineInvariantError``, not the
    ``ValueError`` kept for a subspace a caller supplies."""
    try:
        return restrict_subspace(rep, basis_rows)
    except ValueError as exc:
        raise EngineInvariantError("%s is not invariant: %s" % (what, exc)) from exc


# ---------------------------------------------------------------------------
# built-in constructions
# ---------------------------------------------------------------------------


def trivial_module(desc: GroupSchemeDesc, fld: Optional[Field] = None) -> ModuleRep:
    if fld is None:
        fld = prime_field(desc.p)
    action = {nm: [[0]] for nm in generator_names(desc)}
    return ModuleRep(desc, fld, 1, action, label="k")


def construct_zigzag(n: int, p: int, fld: Optional[Field] = None) -> ModuleRep:
    """The zigzag module W_n over the rank-2 multi-additive group: basis
    v_0..v_n, b_1..b_n with X_0 v_i = b_i and X_1 v_i = -b_{i+1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    desc = multi_additive(p, 2)
    if fld is None:
        fld = prime_field(p)
    dim = 2 * n + 1
    x0 = zeros(dim, dim)
    x1 = zeros(dim, dim)
    # v_i occupies index i, b_j occupies index n + j
    for i in range(1, n + 1):
        x0[n + i][i] = 1
    for i in range(0, n):
        x1[n + i + 1][i] = fld.neg(1)
    return ModuleRep(desc, fld, dim, {"X_0": x0, "X_1": x1}, label="zigzag(%d)" % n)


def construct_weyl_sl2(m: int, p: int, fld: Optional[Field] = None) -> ModuleRep:
    """Highest-weight-m Weyl module for sl2: basis v_0..v_m with
    h v_i = (2i - m) v_i, f v_i = (m - i + 1) v_{i-1}, e v_i = (i+1) v_{i+1}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    desc = restricted_lie_sl2(p)
    if fld is None:
        fld = prime_field(p)
    dim = m + 1
    e = zeros(dim, dim)
    f = zeros(dim, dim)
    h = zeros(dim, dim)
    for i in range(dim):
        h[i][i] = (2 * i - m) % p
        if i + 1 <= m:
            e[i + 1][i] = (i + 1) % p
        if i - 1 >= 0:
            f[i - 1][i] = (m - i + 1) % p
    return ModuleRep(desc, fld, dim, {"e": e, "f": f, "h": h}, label="V_%d" % m)


def construct_steinberg(p: int, fld: Optional[Field] = None) -> ModuleRep:
    rep = construct_weyl_sl2(p - 1, p, fld)
    rep.label = "St"
    return rep


def regular_module_E(p: int, fld: Optional[Field] = None) -> ModuleRep:
    """The group algebra k[x,y]/(x^p, y^p) of the rank-2 multi-additive
    group acting on itself; basis x^i y^j in lex order."""
    desc = multi_additive(p, 2)
    if fld is None:
        fld = prime_field(p)
    dim = p * p
    idx = lambda i, j: i * p + j
    x0 = zeros(dim, dim)
    x1 = zeros(dim, dim)
    for i in range(p):
        for j in range(p):
            if i + 1 < p:
                x0[idx(i + 1, j)][idx(i, j)] = 1
            if j + 1 < p:
                x1[idx(i, j + 1)][idx(i, j)] = 1
    return ModuleRep(desc, fld, dim, {"X_0": x0, "X_1": x1}, label="kE")


def free_module_E(p: int, ncopies: int, fld: Optional[Field] = None) -> ModuleRep:
    """The free module kE^ncopies, ncopies >= 1: its action is block
    diagonal, with the regular module's matrices down the diagonal."""
    if ncopies < 1:
        raise ValueError("ncopies must be >= 1")
    rep = regular_module_E(p, fld)
    size, dim = rep.dim, rep.dim * ncopies
    action = {}
    for nm, m in rep.action.items():
        out = zeros(dim, dim)
        for k in range(0, dim, size):
            for i, row in enumerate(m):
                out[k + i][k:k + size] = row
        action[nm] = out
    return ModuleRep(rep.desc, rep.fld, dim, action, label="kE^%d" % ncopies)


def construct_syzygy_E2(n: int, p: int, fld: Optional[Field] = None) -> ModuleRep:
    """n-th syzygy of the trivial module of the rank-2 multi-additive group,
    as the standard submodule of the free module on a_1..a_n (n >= 1)."""
    if n == 0:
        return trivial_module(multi_additive(p, 2), fld)
    if n < 0:
        raise ValueError("n must be >= 0")
    amb = free_module_E(p, n, fld)
    fld = amb.fld
    pp = p * p

    def unit(k: int, i: int, j: int) -> Vector:
        # x^i y^j in the k-th copy (1-based k)
        v = [0] * amb.dim
        v[(k - 1) * pp + i * p + j] = 1
        return v

    def diff(u: Vector, v: Vector) -> Vector:
        return mat_sub(fld, [u], [v])[0]

    gens: List[Vector] = []
    if n % 2 == 0:
        gens.append(unit(1, p - 1, 0))
        for k in range(1, n):
            if k % 2 == 1:
                gens.append(diff(unit(k, 0, 1), unit(k + 1, 1, 0)))
            else:
                gens.append(diff(unit(k, 0, p - 1), unit(k + 1, p - 1, 0)))
        gens.append(unit(n, 0, p - 1))
    else:
        gens.append(unit(1, 1, 0))
        for k in range(1, n):
            if k % 2 == 1:
                gens.append(diff(unit(k, 0, 1), unit(k + 1, p - 1, 0)))
            else:
                gens.append(diff(unit(k, 0, p - 1), unit(k + 1, 1, 0)))
        gens.append(unit(n, 0, 1))
    sub, _ = submodule_generated(amb, gens)
    sub.label = "Omega^%d(k)" % n
    return sub


def construct_duals_example(p: int, fld: Optional[Field] = None) -> ModuleRep:
    """Three-dimensional module over the height-2 additive kernel with
    u_0 m_1 = m_2 and u_1 m_1 = m_3."""
    desc = additive_kernel(p, 2)
    if fld is None:
        fld = prime_field(p)
    u0 = zeros(3, 3)
    u1 = zeros(3, 3)
    u0[1][0] = 1
    u1[2][0] = 1
    return ModuleRep(desc, fld, 3, {"u_0": u0, "u_1": u1}, label="M3")


def sl2_height2_natural(p: int, fld: Optional[Field] = None) -> ModuleRep:
    """Natural 2-dimensional module of the second Frobenius kernel of SL2;
    all divided-power generators beyond e, f, h act by zero."""
    desc = GroupSchemeDesc("sl2_height2", p)
    if fld is None:
        fld = prime_field(p)
    action: Dict[str, Matrix] = {}
    for nm in generator_names(desc):
        action[nm] = zeros(2, 2)
    action["e"] = [[0, 1], [0, 0]]
    action["f"] = [[0, 0], [1, 0]]
    action["h"] = [[1, 0], [0, fld.neg(1)]]
    return ModuleRep(desc, fld, 2, action, label="V2")


def gln_natural(p: int, n: int, fld: Optional[Field] = None) -> ModuleRep:
    desc = gln_height2(p, n)
    if fld is None:
        fld = prime_field(p)
    return ModuleRep(desc, fld, n, {}, label="V%d" % n, construction=("gln_natural",))


def gln_tensor_power(p: int, n: int, d: int, fld: Optional[Field] = None) -> ModuleRep:
    desc = gln_height2(p, n)
    if fld is None:
        fld = prime_field(p)
    if d < 1:
        raise ValueError("d must be >= 1")
    return ModuleRep(desc, fld, n ** d, {}, label="V%d^x%d" % (n, d),
                     construction=("gln_tensor", d))


# ---------------------------------------------------------------------------
# Fitting decomposition into indecomposable summands
# ---------------------------------------------------------------------------


@dataclass
class DecompositionReport:
    fld: Field
    extended: bool
    certified: bool


# Random commutant combinations tried when no basis element splits a module.
_SPLIT_TRIES = 25
# Random commutant combinations drawn per matrix in random_commuting_nilpotents.
_COMMUTING_TRIES = 400


def _fitting(fld: Field, c: Matrix) -> Union[None, int, Tuple[Matrix, Matrix]]:
    """Fitting scan of an n x n endomorphism c over lam in F_q, in order.

    The rank of (c - lam)^n comes from ``power_ranks``, so an invertible or
    nilpotent c - lam takes no power.  At the first lam with
    0 < rank (c - lam)^n < n, returns the kernel and the image of
    (c - lam)^n: two complementary c-invariant subspaces (RREF row bases).
    Returns lam itself at a lam with (c - lam)^n = 0: c - lam is nilpotent,
    so c - lam' is invertible for every other lam' and no split exists.
    Returns None when no lam gives either."""
    n = len(c)
    for lam in range(fld.q):
        shifted = mat_sub_scalar(fld, c, lam)
        rank = power_ranks(fld, shifted, n)[n]
        if not rank:
            return lam
        if rank < n:
            power = mat_pow(fld, shifted, n)
            return span_basis(fld, kernel_basis(fld, power, n)), span_basis(fld, transpose(power))
    return None


def _local_certificate(fld: Field, nil: Sequence[Matrix]) -> bool:
    """Whether the span N of the matrices nil is a nilpotent ideal of
    k*1 + N: N*N lies in N and the chain N > N^2 > ... reaches 0 (each
    power strictly inside the one before, so within dim N steps).  Given
    nil = {c_i - lam_i} for a basis c_i of End(M) that holds 1, this proves
    End(M) = k*1 + N local with residue field k, so M is absolutely
    indecomposable."""
    n = len(nil[0]) if nil else 0

    def flat(m: Matrix) -> Vector:
        return [x for row in m for x in row]

    def square(v: Vector) -> Matrix:
        return [v[i * n:(i + 1) * n] for i in range(n)]

    span, pivots = row_reduce(fld, map(flat, nil))
    gens = [square(v) for v in span]
    power = gens
    while power:
        products = [flat(mat_mul(fld, a, b)) for a in power for b in gens]
        if power is gens and any(any(reduce_vector(fld, span, pivots, v)) for v in products):
            return False
        nxt = span_basis(fld, products)
        if len(nxt) == len(power):
            return False
        power = [square(v) for v in nxt]
    return True


def decompose_summands(rep: ModuleRep, rng) -> Tuple[List[ModuleRep], DecompositionReport]:
    """Split a module into indecomposable direct summands by Fitting
    decompositions of commuting endomorphisms.

    Each module met in the recursion, M and then every summand a split
    gives, solves its own commutant End(M) in eigenblocks or in a Jordan
    basis (``commutant_basis``).  Each basis element is scanned; when none
    splits M and each is a scalar lam_i plus a nilpotent, the local
    certificate (``_local_certificate`` on the c_i - lam_i) proves M
    indecomposable.  Otherwise up to ``_SPLIT_TRIES`` random combinations of
    the basis are scanned.  If the commutant has an endomorphism with no
    eigenvalue in the base field the computation is retried over a
    degree-one-larger extension (reported in the result)."""

    def split_all(m: ModuleRep) -> Tuple[List[ModuleRep], bool]:
        """The summands of m, and whether every basis element of each
        summand's ring is a scalar plus a nilpotent."""
        fld = m.fld
        comm = commutant_basis(fld, m.action.values(), m.dim)
        lams = []
        for cand in comm:
            got = _fitting(fld, cand)
            if isinstance(got, tuple):
                return split(m, got)
            lams.append(got)
        certified = None not in lams
        if certified and _local_certificate(fld, [mat_sub_scalar(fld, c, lam)
                                                  for c, lam in zip(comm, lams)]):
            return [m], True
        for _ in range(_SPLIT_TRIES):
            got = _fitting(fld, mat_combination(fld, m.dim, [rng.randrange(fld.q) for _ in comm], comm))
            if isinstance(got, tuple):
                return split(m, got)
        return [m], certified

    def split(m: ModuleRep, got: Tuple[Matrix, Matrix]) -> Tuple[List[ModuleRep], bool]:
        ls, lc = split_all(_restrict_invariant(m, got[0], "Fitting kernel"))
        rs, rc = split_all(_restrict_invariant(m, got[1], "Fitting image"))
        return ls + rs, lc and rc

    parts, certified = split_all(rep)
    fld = rep.fld
    extended = not certified and fld.e == 1
    if extended:
        fld = ext_field_build(fld.p, 2)
        parts, certified = split_all(replace(rep, fld=fld))
    return parts, DecompositionReport(fld, extended, certified)


def principal_indecomposable_sl2(lam: int, p: int, fld: Optional[Field] = None) -> ModuleRep:
    """Projective cover P_lam of the simple sl2-module of highest weight lam
    (0 <= lam <= p-1); for lam = p-1 the Steinberg module itself.  Otherwise
    P_lam = ker (C - c_lam)^{2p} on St (x) V_{p-1-lam}, with the Casimir
    C = h^2 + 2h + 4fe and c_lam = lam^2 + 2lam: the value of C tells the
    blocks of u(sl2) apart, linking lam only with p-2-lam, and St (x)
    V_{p-1-lam} holds P_lam once and P_{p-2-lam} never (Humphreys, J. Algebra
    19 (1971); Jantzen, NATO ASI C 514 (1998)).  A kernel of dimension other
    than 2p, or one that is not invariant, is an ``EngineInvariantError``.
    At p = 2, h acts as 0 on St (x) V_1, so C = 0 = c_0 and the kernel is
    all of it, P_0."""
    if not 0 <= lam <= p - 1:
        raise ValueError("lam must satisfy 0 <= lam <= p-1")
    if lam == p - 1:
        rep = construct_steinberg(p, fld)
        rep.label = "P_%d" % lam
        return rep
    big = tensor_module(construct_steinberg(p, fld), construct_weyl_sl2(p - 1 - lam, p, fld))
    fld, e, f, h = big.fld, big.action["e"], big.action["f"], big.action["h"]
    casimir = mat_add(fld, mat_add(fld, mat_mul(fld, h, h), mat_scale(fld, 2 % p, h)),
                      mat_scale(fld, 4 % p, mat_mul(fld, f, e)))
    shifted = mat_sub_scalar(fld, casimir, (lam * lam + 2 * lam) % p)
    block = kernel_basis(fld, mat_pow(fld, shifted, 2 * p), big.dim)
    if len(block) != 2 * p:
        raise EngineInvariantError("projective summand P_%d not found" % lam)
    rep = _restrict_invariant(big, block, "Casimir block of P_%d" % lam)
    rep.label = "P_%d" % lam
    return rep


# ---------------------------------------------------------------------------
# random modules (seeded) for property testing
# ---------------------------------------------------------------------------


def random_nilpotent(fld: Field, dim: int, p: int, rng) -> Matrix:
    """Random matrix with N^p = 0: a random Jordan shape with parts <= p in
    a random basis."""
    parts: List[int] = []
    left = dim
    while left > 0:
        k = rng.randint(1, min(p, left))
        parts.append(k)
        left -= k
    n = zeros(dim, dim)
    pos = 0
    for k in parts:
        for i in range(k - 1):
            n[pos + i][pos + i + 1] = 1 + rng.randrange(fld.q - 1)
        pos += k
    s = random_invertible(fld, dim, rng)
    return mat_mul(fld, mat_mul(fld, s, n), inverse(fld, s))


def random_commuting_nilpotents(fld: Field, dim: int, count: int, p: int, rng) -> List[Matrix]:
    """A list of pairwise-commuting matrices, each with N^p = 0."""
    first = random_nilpotent(fld, dim, p, rng)
    out = [first]
    comm = commutant_basis(fld, [first], dim)
    while len(out) < count:
        for _ in range(_COMMUTING_TRIES):
            cand = mat_combination(fld, dim, [rng.randrange(fld.q) for _ in comm], comm)
            # N^p = 0 read from the rank sequence, which stops once it settles
            if not power_ranks(fld, cand, p)[p]:
                ok = all(is_zero_matrix(commutator(fld, cand, m)) for m in out)
                if ok:
                    out.append(cand)
                    break
        else:
            out.append(zeros(dim, dim))
    return out


def random_module(desc: GroupSchemeDesc, dim: int, rng, fld: Optional[Field] = None) -> ModuleRep:
    """A seeded random module for the additive families and sl2."""
    if fld is None:
        fld = prime_field(desc.p)
    p = desc.p
    if desc.family in ("multi_additive", "additive_kernel"):
        mats = random_commuting_nilpotents(fld, dim, desc.r, p, rng)
        names = generator_names(desc)
        return ModuleRep(desc, fld, dim, dict(zip(names, mats)), label="random")
    if desc.family == "restricted_lie" and desc.lie is None:
        # random direct sum of Weyl modules conjugated by a random basis
        parts: List[ModuleRep] = []
        left = dim
        while left > 0:
            m = rng.randint(1, min(p, left))
            parts.append(construct_weyl_sl2(m - 1, p, fld))
            left -= m
        rep = parts[0]
        for extra in parts[1:]:
            rep = direct_sum(rep, extra)
        s = random_invertible(fld, dim, rng)
        si = inverse(fld, s)
        action = {nm: mat_mul(fld, mat_mul(fld, s, m), si) for nm, m in rep.action.items()}
        return ModuleRep(desc, fld, dim, action, label="random")
    raise NotImplementedError("random modules for %s are not supported" % desc.family)


# ---------------------------------------------------------------------------
# serialization (used by the command line interface)
# ---------------------------------------------------------------------------


def module_to_dict(rep: ModuleRep) -> dict:
    out = {
        "family": rep.desc.family,
        "p": rep.desc.p,
        "dim": rep.dim,
        "label": rep.label,
        "field": {"p": rep.fld.p, "e": rep.fld.e},
        "action": rep.action,
    }
    if rep.desc.family in ("multi_additive", "additive_kernel"):
        out["r"] = rep.desc.r
    if rep.desc.family == "gln_height2":
        out["n"] = rep.desc.n
        out["construction"] = list(rep.construction or ())
    return out


def module_from_dict(data: dict) -> ModuleRep:
    family = data["family"]
    p = int(data["p"])
    if family == "multi_additive":
        desc = multi_additive(p, int(data.get("r", 1)))
    elif family == "additive_kernel":
        desc = additive_kernel(p, int(data.get("r", 1)))
    elif family == "restricted_lie":
        desc = restricted_lie_sl2(p)
    elif family == "sl2_height2":
        desc = GroupSchemeDesc("sl2_height2", p)
    elif family == "gln_height2":
        desc = gln_height2(p, int(data.get("n", 2)))
    else:
        raise ValueError("unknown family %r" % family)
    fd = data.get("field", {"p": p, "e": 1})
    fld = ext_field_build(int(fd["p"]), int(fd.get("e", 1)))
    construction = tuple(data["construction"]) if data.get("construction") else None
    rep = ModuleRep(desc, fld, int(data["dim"]),
                    {nm: [list(map(int, row)) for row in m] for nm, m in data.get("action", {}).items()},
                    label=data.get("label", "input"), construction=construction)
    return rep


__all__ = [
    "ModuleRep",
    "DecompositionReport",
    "kron",
    "commutator",
    "validate_module",
    "dual_module",
    "tensor_module",
    "direct_sum",
    "external_product",
    "symmetric_power",
    "frobenius_twist_gar",
    "coords_in_basis",
    "submodule_generated",
    "restrict_subspace",
    "trivial_module",
    "construct_zigzag",
    "construct_weyl_sl2",
    "construct_steinberg",
    "regular_module_E",
    "free_module_E",
    "construct_syzygy_E2",
    "construct_duals_example",
    "sl2_height2_natural",
    "gln_natural",
    "gln_tensor_power",
    "decompose_summands",
    "principal_indecomposable_sl2",
    "random_nilpotent",
    "random_commuting_nilpotents",
    "random_module",
    "module_to_dict",
    "module_from_dict",
]
