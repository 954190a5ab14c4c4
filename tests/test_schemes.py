"""Group-scheme descriptors, coordinate rings, point sets, and charts."""

import random
import re

import pytest

import itertools

from jordanbundles.field import (
    commutant_basis,
    ext_field_build,
    is_zero_matrix,
    mat_combination,
    mat_mul,
    mat_pow,
    power_ranks,
    prime_field,
)
from jordanbundles.polyring import poly_eval, substitute
from jordanbundles.schemes import (
    LieData,
    additive_kernel,
    conic_chart_sl2,
    coord_ring,
    enumerate_points,
    frobenius_point_map,
    generator_names,
    gln_height2,
    multi_additive,
    orbit,
    orbit_representatives,
    p1_chart,
    point_dim,
    representative_count,
    restricted_lie,
    restricted_lie_sl2,
    sample_points,
    sl2_height2,
    sl2_height2_check_disagreements,
    sl2_lie_data,
    validate_point,
    _trace_free_matrix,
)


def test_descriptor_labels_and_height():
    assert multi_additive(3, 2).height == 1
    assert additive_kernel(3, 2).height == 2
    assert restricted_lie_sl2(5).height == 1
    assert sl2_height2(3).height == 2
    assert gln_height2(3, 2).height == 2
    for desc in (multi_additive(2, 3), additive_kernel(5, 3),
                 restricted_lie_sl2(7), sl2_height2(5), gln_height2(2, 3)):
        assert desc.label()


def test_descriptor_validation():
    with pytest.raises(ValueError):
        sl2_height2(2)  # needs p odd
    with pytest.raises(ValueError):
        gln_height2(3, 5)  # only n = 2, 3 supported


def test_coordinate_ring_weights():
    ring, rels = coord_ring(multi_additive(5, 3))
    assert ring.weights == (1, 1, 1) and not rels
    ring, rels = coord_ring(additive_kernel(3, 3))
    assert ring.weights == (1, 3, 9) and not rels
    ring, rels = coord_ring(restricted_lie_sl2(3))
    assert ring.weights == (1, 1, 1) and len(rels) == 1
    assert all(r.homogeneous_degree() == 2 for r in rels)
    ring, rels = coord_ring(sl2_height2(3))
    assert ring.weights == (1, 1, 1, 3, 3, 3)
    assert len(rels) == 5


# [DERIVED] #{p-nilpotent trace-zero 2x2 over F_p} = p^2 (the nullcone is a
# cone over a conic); oracle: brute-force matrix scan.
@pytest.mark.parametrize("p", [3, 5, 7])
def test_sl2_nullcone_point_count(p):
    desc = restricted_lie_sl2(p)
    pts = list(enumerate_points(desc, include_zero=True))
    assert len(pts) == p * p
    for pt in pts:
        assert validate_point(desc, pt)


def test_nullcone_matches_bruteforce():
    p = 3
    fld = prime_field(p)
    desc = restricted_lie_sl2(p)
    pts = set(enumerate_points(desc, include_zero=True))
    brute = set()
    for x in range(p):
        for y in range(p):
            for z in range(p):
                # [[z, x], [y, -z]] is p-nilpotent iff its determinant
                # -z^2 - xy vanishes (trace is already zero).
                if (z * z + x * y) % p == 0:
                    brute.add((x, y, z))
    assert pts == brute


def test_custom_lie_reproduces_sl2():
    p = 5
    builtin = restricted_lie_sl2(p)
    custom = restricted_lie(p, sl2_lie_data())
    pts_b = set(enumerate_points(builtin, include_zero=True))
    pts_c = set(enumerate_points(custom, include_zero=True))
    assert pts_b == pts_c


def test_jacobson_p_power_on_abelian_lie():
    # With all brackets zero the p-operation is purely the semilinear part.
    p = 3
    lie = LieData(names=("a", "b"), bracket=(), ppower=((0, 0), (0, 0)))
    desc = restricted_lie(p, lie)
    ring, rels = coord_ring(desc)
    assert not rels  # x^[p] = 0 identically: every point is p-nilpotent
    pts = list(enumerate_points(desc, include_zero=True))
    assert len(pts) == p ** 2


def test_multi_additive_points_are_everything():
    desc = multi_additive(2, 3)
    pts = list(enumerate_points(desc))
    assert len(pts) == 2 ** 3 - 1  # origin excluded by default
    fld4 = ext_field_build(2, 2)
    pts4 = list(enumerate_points(desc, fld4))
    assert len(pts4) == 4 ** 3 - 1


def test_sample_points_deterministic_and_valid():
    desc = restricted_lie_sl2(5)
    fld = ext_field_build(5, 2)
    a = sample_points(desc, fld, 10, random.Random(42))
    b = sample_points(desc, fld, 10, random.Random(42))
    assert a == b
    assert all(validate_point(desc, pt, fld) for pt in a)


def test_sample_points_raises_sampling_error(monkeypatch):
    # draws that never land on V(G) exhaust the 10000 * count allowed
    import itertools

    import jordanbundles.schemes as schemes

    monkeypatch.setattr(schemes, "_ambient_draws", lambda desc, fld, rng: itertools.repeat(None))
    with pytest.raises(schemes.SamplingError, match="could not sample"):
        sample_points(restricted_lie_sl2(5), ext_field_build(5, 2), 2, random.Random(0))


def test_frobenius_point_map_shift_and_power():
    desc = additive_kernel(3, 3)
    fld = ext_field_build(3, 2)
    pt = (2, 5, 7)
    moved = frobenius_point_map(desc, pt, 1, fld)
    # coordinate block shifts down, entries are cubed
    assert moved == (0, fld.pow(2, 3), fld.pow(5, 3))
    again = frobenius_point_map(desc, moved, 1, fld)
    assert again == (0, 0, fld.pow(2, 9))
    assert frobenius_point_map(desc, pt, 0, fld) == pt


def _frozen_frobenius(fld, a, s):
    """a^(p^s) by square-and-multiply on ``Field.mul``."""
    result, n = 1, fld.p ** s
    while n:
        if n & 1:
            result = fld.mul(result, a)
        a = fld.mul(a, a)
        n >>= 1
    return result


def _frozen_frobenius_point_map(desc, point, s, fld):
    """``frobenius_point_map`` as it raised each coordinate by
    square-and-multiply."""
    point = tuple(point)
    if s == 0:
        return point
    if desc.family in ("multi_additive", "additive_kernel"):
        out = [0] * desc.r
        for i in range(s, desc.r):
            out[i] = _frozen_frobenius(fld, point[i - s], s)
        return tuple(out)
    if desc.family == "restricted_lie":
        return (0,) * len(point)
    if desc.family == "sl2_height2":
        if s >= 2:
            return (0,) * 6
        return (0, 0, 0) + tuple(_frozen_frobenius(fld, c, 1) for c in point[:3])
    n2 = desc.n * desc.n
    if s >= 2:
        return (0,) * (2 * n2)
    return (0,) * n2 + tuple(_frozen_frobenius(fld, c, 1) for c in point[:n2])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (3, 2), (5, 2), (7, 4)])
def test_frobenius_point_map_matches_square_and_multiply(p, e):
    # every family, s = 0..3, at random coordinates (the map is
    # coordinatewise) and at 0, 1 and the largest element
    fld = ext_field_build(p, e)
    descs = [multi_additive(p, 1), multi_additive(p, 3), additive_kernel(p, 2),
             additive_kernel(p, 3), restricted_lie_sl2(p), gln_height2(p, 2), gln_height2(p, 3)]
    descs += [sl2_height2(p)] if p % 2 else []
    rng = random.Random(p * 10 + e)
    for desc in descs:
        nvars = coord_ring(desc, fld)[0].nvars
        points = [tuple(rng.randrange(fld.q) for _ in range(nvars)) for _ in range(20)]
        points += [(c,) * nvars for c in (0, 1, fld.q - 1)]
        for point in points:
            for s in range(4):
                assert frobenius_point_map(desc, point, s, fld) == \
                    _frozen_frobenius_point_map(desc, point, s, fld), (desc, point, s)
    for s in range(4):
        table = fld.frobenius_table(s)
        assert isinstance(table, tuple) == (fld.q <= 512)
        assert fld.frobenius_table(s) is table
        assert all(fld.frobenius(a, s) == table[a] == _frozen_frobenius(fld, a, s)
                   for a in rng.sample(range(fld.q), min(fld.q, 200)))


def _frozen_table_frobenius_point_map(desc, point, s, fld):
    """``frobenius_point_map`` as it read ``Field.frobenius_table`` on a
    tuple copy of the point, cut to its block with ``min``/``max``."""
    point = tuple(point)
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return point
    frob = fld.frobenius_table(s)
    if desc.family in ("multi_additive", "additive_kernel"):
        return (0,) * min(s, desc.r) + tuple(map(frob.__getitem__, point[:max(desc.r - s, 0)]))
    if desc.family == "restricted_lie":
        return (0,) * len(point)
    if desc.family == "sl2_height2":
        if s >= 2:
            return (0,) * 6
        return (0, 0, 0) + tuple(map(frob.__getitem__, point[:3]))
    n2 = desc.n * desc.n
    if s >= 2:
        return (0,) * (2 * n2)
    return (0,) * n2 + tuple(map(frob.__getitem__, point[:n2]))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (5, 1), (5, 4)])
def test_frobenius_point_map_matches_frozen_table_route(p, e):
    # every family, s = 0 .. r + 1 (past the height, where the image is 0),
    # tuple and list points, prime and extension fields (GF(5^4) on
    # computed tables), and the prime field when no field is given
    fld = ext_field_build(p, e)
    descs = [multi_additive(p, 1), multi_additive(p, 3), additive_kernel(p, 1),
             additive_kernel(p, 2), additive_kernel(p, 4), restricted_lie_sl2(p),
             restricted_lie(p, sl2_lie_data()), gln_height2(p, 2), gln_height2(p, 3)]
    descs += [sl2_height2(p)] if p % 2 else []
    rng = random.Random(p * 10 + e)
    for desc in descs:
        dim = point_dim(desc)
        points = [tuple(rng.randrange(fld.q) for _ in range(dim)) for _ in range(8)]
        points += [(c,) * dim for c in (0, 1, fld.q - 1)]
        for point in points:
            for s in range(max(desc.r, 2) + 2):
                want = _frozen_table_frobenius_point_map(desc, point, s, fld)
                for pt in (point, list(point)):
                    got = frobenius_point_map(desc, pt, s, fld)
                    assert type(got) is tuple and got == want, (desc, point, s)
                base = tuple(c % p for c in point)
                assert frobenius_point_map(desc, base, s) == \
                    _frozen_table_frobenius_point_map(desc, base, s, prime_field(p))
            with pytest.raises(ValueError, match="s must be >= 0"):
                frobenius_point_map(desc, point, -1, fld)


def test_frobenius_point_map_rejects_a_point_of_the_wrong_length():
    # a point one coordinate too long was cut to its block, and one too
    # short gave a point of the wrong length
    fld = ext_field_build(3, 2)
    for desc in (multi_additive(3, 2), additive_kernel(3, 3), restricted_lie_sl2(3),
                 sl2_height2(3), gln_height2(3, 2)):
        dim = point_dim(desc)
        for length in (0, dim - 1, dim + 1, 2 * dim):
            for s in (0, 1, 2):
                with pytest.raises(ValueError, match=re.escape("wrong length for " + desc.label())):
                    frobenius_point_map(desc, (1,) * length, s, fld)


def test_conic_chart_kills_the_relation():
    for p in (3, 5):
        desc = restricted_lie_sl2(p)
        ring, rels = coord_ring(desc)
        chart = conic_chart_sl2(desc)
        for rel in rels:
            assert substitute(rel, chart).is_zero()
        # and the chart image really consists of p-nilpotent points
        fld = prime_field(p)
        for s in range(p):
            for t in range(p):
                pt = tuple(poly_eval(img, (s, t)) for img in chart.images)
                if any(pt):
                    assert validate_point(desc, pt)


def test_p1_chart_availability():
    assert p1_chart(multi_additive(3, 2)) is not None
    assert p1_chart(restricted_lie_sl2(3)) is not None
    assert p1_chart(restricted_lie_sl2(2)) is None  # conic needs p odd
    assert p1_chart(additive_kernel(3, 2)) is None  # weighted, not standard
    assert p1_chart(multi_additive(3, 3)) is None   # ambient P^2, not P^1


def test_sl2_height2_point_validation():
    desc = sl2_height2(3)
    ring, rels = coord_ring(desc)
    # a point with both components scalar multiples of the same nilpotent
    pt = (1, 0, 0, 1, 0, 0)  # x0=1, x1=1, rest 0
    assert validate_point(desc, pt)
    assert not validate_point(desc, (1, 1, 1, 0, 0, 0))
    for rel in rels:
        assert poly_eval(rel, pt) == 0


def test_sl2_height2_relations_vs_direct_check():
    # The variety cut out by the published relations agrees with the direct
    # matrix condition at every F_3 point.
    desc = sl2_height2(3)
    assert sl2_height2_check_disagreements(desc, prime_field(3)) == []


def test_gln_height2_points_commute():
    from jordanbundles.field import mat_mul

    desc = gln_height2(2, 2)
    fld = prime_field(2)
    count = 0
    for pt in enumerate_points(desc, fld):
        a0 = [[pt[0], pt[1]], [pt[2], pt[3]]]
        a1 = [[pt[4], pt[5]], [pt[6], pt[7]]]
        assert mat_mul(fld, a0, a1) == mat_mul(fld, a1, a0)
        assert mat_mul(fld, a0, a0) == [[0, 0], [0, 0]]
        assert mat_mul(fld, a1, a1) == [[0, 0], [0, 0]]
        count += 1
    assert count > 0


def test_generator_names_by_family():
    assert generator_names(multi_additive(3, 2)) == ("X_0", "X_1")
    assert generator_names(additive_kernel(3, 3)) == ("u_0", "u_1", "u_2")
    assert generator_names(restricted_lie_sl2(3)) == ("e", "f", "h")
    names = generator_names(sl2_height2(3))
    assert names[:6] == ("e", "f", "h", "e[p]", "f[p]", "h[p]")
    assert len(names) == 6 + len([
        (i, j, l) for i in range(3) for j in range(3) for l in range(3)
        if i + j + l == 3])
    assert "d(1,2,0)" in names and "d(2,1,0)" in names


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2)])
def test_sl2_nilpotent_cone_closed_form_matches_matrix_power(p, e):
    # a point (x, y, z) lies on the cone when [[z, x], [y, -z]]^p = 0;
    # validate_point tests z^2 + xy = 0 instead, at every point of F_q^3
    fld = ext_field_build(p, e)
    desc = restricted_lie_sl2(p)
    for point in itertools.product(range(fld.q), repeat=3):
        m = _trace_free_matrix(fld, *point)
        assert validate_point(desc, point, fld) == is_zero_matrix(mat_pow(fld, m, p))


# ---------------------------------------------------------------------------
# G_m-orbits and the structural GL_n(2) sampler

ORBIT_DESCS = [
    (multi_additive(3, 3), ext_field_build(3, 2)),
    (additive_kernel(5, 2), ext_field_build(5, 2)),
    (restricted_lie_sl2(3), ext_field_build(3, 2)),
    (restricted_lie_sl2(5), ext_field_build(5, 2)),
    (restricted_lie(3, sl2_lie_data()), ext_field_build(3, 2)),
    (sl2_height2(3), prime_field(3)),
    (gln_height2(3, 2), prime_field(3)),
]


@pytest.mark.parametrize("desc,fld", ORBIT_DESCS, ids=lambda x: str(x))
def test_orbit_representatives_partition_the_points(desc, fld):
    # each representative is the lex-first point of its orbit, the
    # representatives come in lex order, and their orbits of q - 1 points
    # each cover every nonzero point exactly once
    reps = list(orbit_representatives(desc, fld))
    assert reps == sorted(reps)
    assert representative_count(desc, fld) >= len(reps)
    covered = []
    for rep in reps:
        orb = orbit(desc, rep, fld)
        assert len(set(orb)) == fld.q - 1
        assert min(orb) == rep and rep[next(i for i, x in enumerate(rep) if x)] == 1
        covered += orb
    points = list(enumerate_points(desc, fld))
    assert len(covered) == len(points) == len(reps) * (fld.q - 1)
    assert set(covered) == set(points)


def test_sl2_cone_representatives_are_p1():
    fld = ext_field_build(5, 2)
    reps = list(orbit_representatives(restricted_lie_sl2(5), fld))
    assert len(reps) == representative_count(restricted_lie_sl2(5), fld) == fld.q + 1
    assert reps[0] == (0, 1, 0)


def _frozen_gln_sample(desc, fld, count, rng):
    # the structural draws with nilpotency tested by the rank of A^p alone
    n, p = desc.n, desc.p
    out = []
    while len(out) < count:
        a0 = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(n)]
        if power_ranks(fld, a0, p)[p]:
            continue
        basis = commutant_basis(fld, [a0], n)
        a1 = None
        while a1 is None or power_ranks(fld, a1, p)[p]:
            a1 = mat_combination(fld, n, [rng.randrange(fld.q) for _ in basis], basis)
        point = tuple(x for m in (a0, a1) for row in m for x in row)
        if any(point):
            out.append(point)
    return out


@pytest.mark.parametrize("p,n,e", [(3, 3, 1), (2, 3, 1), (3, 2, 2), (5, 2, 1)])
def test_gln_sampler_draws_valid_points_by_structure(p, n, e):
    desc = gln_height2(p, n)
    fld = ext_field_build(p, e)
    a = sample_points(desc, fld, 60, random.Random(11))
    b = _frozen_gln_sample(desc, fld, 60, random.Random(11))
    assert len(a) == 60 and a == b
    assert all(any(pt) and validate_point(desc, pt, fld) for pt in a)
    # the draws are not all alike: A_0 varies
    assert len({pt[:n * n] for pt in a}) > 1


def test_sl2h2_sampler_covers_every_point_over_f3():
    # V(SL2(2))(F_3) has (q^2 - 1)(q + 1) = 32 nonzero points
    desc, fld = sl2_height2(3), prime_field(3)
    every = {pt for pt in itertools.product(range(3), repeat=6)
             if any(pt) and validate_point(desc, pt, fld)}
    assert len(every) == 32
    drawn = sample_points(desc, fld, 2000, random.Random(5))
    assert all(validate_point(desc, pt, fld) for pt in drawn)
    assert set(drawn) == every
    assert sample_points(desc, fld, 50, random.Random(5)) == drawn[:50]


def test_sl2h2_sampler_over_f25_finds_points_at_once():
    # rejection in F_25^6 hits V(G) about once in q^3 draws; the structural
    # draws never miss
    desc, fld = sl2_height2(5), ext_field_build(5, 2)
    drawn = sample_points(desc, fld, 60, random.Random(0))
    assert len(drawn) == 60 and len(set(drawn)) > 50
    assert all(any(pt) and validate_point(desc, pt, fld) for pt in drawn)


def test_gln3_scan_samples_sixty_points():
    from jordanbundles.operators import iter_scan_points

    desc = gln_height2(3, 3)
    got = list(iter_scan_points(desc, prime_field(3), 1, random.Random(0)))
    assert len(got) == 60
    assert all(w == 1 and sampled for _, _, w, sampled in got)


def test_commutant_basis():
    rng = random.Random(4)
    fld = ext_field_build(3, 2)
    for n in (1, 2, 3):
        a = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(n)]
        basis = commutant_basis(fld, [a], n)
        assert len(basis) >= n  # the powers of a are independent up to its degree
        assert all(mat_mul(fld, a, x) == mat_mul(fld, x, a) for x in basis)
    assert len(commutant_basis(fld, [[[0] * 3 for _ in range(3)]], 3)) == 9
