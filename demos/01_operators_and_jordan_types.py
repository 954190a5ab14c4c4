"""A first tour: build a module, form its global operator, and read off
local Jordan types at points of the one-parameter-subgroup variety."""

from jordanbundles import (
    construct_zigzag,
    jtype_scan,
    local_jtype,
    theta_global,
)

# The 5-dimensional zig-zag module over (G_a)^2 at p = 3: two commuting
# square-zero operators weaving a zig-zag between two rows of basis vectors.
rep = construct_zigzag(2, 3)
print("module:", rep.label, "dim", rep.dim)

theta = theta_global(rep)
print("\nglobal operator (entries are linear forms in X_0, X_1):")
print(theta.mat)

print("\nlocal Jordan types at a few points:")
for point in [(1, 0), (0, 1), (1, 1), (1, 2)]:
    print("  at", point, "->", local_jtype(theta, point))

types = jtype_scan(theta, max_ext=2)
print("\ndistinct Jordan types over F_3 and F_9:",
      ", ".join(str(t) for t in sorted(types, key=str)))
print("constant Jordan type?" , len(types) == 1)
