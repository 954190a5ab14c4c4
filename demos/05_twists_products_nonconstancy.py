"""Frobenius twists shift points, external products restrict freely, and
the height-2 sl2 natural module is the canonical non-constant example."""

import random

from jordanbundles import (
    additive_kernel,
    constant_jrank_report,
    construct_zigzag,
    ext_field_build,
    external_product,
    frobenius_point_map,
    frobenius_twist_gar,
    jordan_type,
    random_module,
    sl2_height2_natural,
    theta_global,
    theta_local,
)
from jordanbundles.field import rank

p = 3
rng = random.Random(0)

# 1. Twisting a module by Frobenius is the same as moving the evaluation
# point by the (shifted, entrywise-powered) Frobenius map.
desc = additive_kernel(p, 2)
rep = random_module(desc, 3, rng)
theta = theta_global(rep)
theta_tw = theta_global(frobenius_twist_gar(rep, 1))
fld9 = ext_field_build(p, 2)
pt = (5, 7)  # a point with coordinates in F_9
jt_tw = jordan_type(fld9, theta_tw.mat.evaluate(pt, fld9), p)
jt_moved = jordan_type(
    fld9, theta.mat.evaluate(frobenius_point_map(desc, pt, 1, fld9), fld9), p)
print("twisted module at v:        ", jt_tw)
print("original module at F(v):    ", jt_moved)

# 2. External products: the operator of M1 x M2 over (G_a)^4 restricts to
# the first factor as Theta_{M1} tensor identity.
from jordanbundles import multi_additive

m1 = construct_zigzag(1, p)
m2 = random_module(multi_additive(p, 2), 2, rng)
prod = external_product(m1, m2)
print("\nexternal product dims: %d x %d -> %d over %s"
      % (m1.dim, m2.dim, prod.dim, prod.desc.label()))

# 3. Non-constancy: the natural module of the height-2 sl2 has j-rank 0 on
# the locus where the second matrix component vanishes and 1 elsewhere.
nat = sl2_height2_natural(p)
th = theta_global(nat)
rpt = constant_jrank_report(th, 1, max_ext=1)
print("\nheight-2 sl2 natural module constant rank?", rpt.constant)
print("witnesses:", {r: pt for r, pt in rpt.witnesses()})
print("rank at (e, 0):", rank(nat.fld, theta_local(th, (1, 0, 0, 0, 0, 0))))
print("rank at (0, e):", rank(nat.fld, theta_local(th, (0, 0, 0, 1, 0, 0))))
