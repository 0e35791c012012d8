"""Author a ray set from scratch, save it, and run the full pipeline.

Workflow shown here: build rays with exact coordinates, validate them
into a canonical ray set, inspect its orthogonality structure, prune rays
that belong to no complete basis, write the result to the flat file
format, and read it back unchanged.
"""

from kscertify import (
    DefinitionMode,
    ScalarMode,
    build_instance,
    check_colorable,
    emit_rayset,
    exact_ray,
    is_orthogonal,
    parse_rayset,
    prune_unbased,
    validate_rayset,
)

# A hand-made example in dimension 3: the computational basis, a second
# basis sharing the ray (0,0,1), and one stray ray orthogonal to nothing.
rays = [
    exact_ray([1, 0, 0], disc=1),
    exact_ray([0, 1, 0], disc=1),
    exact_ray([0, 0, 1], disc=1),
    exact_ray([1, 1, 0], disc=1),
    exact_ray([1, -1, 0], disc=1),
    exact_ray([1, 2, 3], disc=1),
]
rayset = validate_rayset(rays, name="hand-made", mode=ScalarMode.integer())

# Canonicalization is projective: (2,0,0) and (-1,0,0) would both have
# collapsed onto (1,0,0) and been rejected as duplicates of ray 0.
print("canonical rays:")
for i, ray in enumerate(rayset.rays):
    print(f"  {i}: {tuple(a for a, _ in ray.coords)}")

instance = build_instance(rayset)
print(f"\northogonal pairs: {instance.graph.sorted_edges()}")
print(f"complete bases:   {list(instance.bases)}")
assert is_orthogonal(rayset.rays[3], rayset.rays[4])

# The stray ray (1,2,3) sits in no basis; pruning removes it and keeps
# the verdict-relevant structure.
pruned = prune_unbased(instance)
print(f"\npruned {instance.graph.vertex_count - pruned.graph.vertex_count} ray(s); "
      f"{pruned.graph.vertex_count} remain")

# Two overlapping bases are easily colorable under either definition.
for mode in (DefinitionMode.ORIGINAL, DefinitionMode.EXTENDED):
    result = check_colorable(pruned, mode)
    print(f"{mode.name.lower():8s}: colorable = {result.colorable}, "
          f"witness = {result.witness}")

# Round-trip through the file format: emission is canonical, so parsing
# what we emit reproduces the ray set exactly.
text = emit_rayset(pruned.rayset)
print("\nfile form:")
for line in text.splitlines():
    print(f"  {line}")
assert parse_rayset(text) == pruned.rayset

# Exact irrational coordinates use a:b components meaning a + b*sqrt(m).
quad = validate_rayset(
    [exact_ray([(0, 1), (1, 0), (1, 0)], disc=2),   # (sqrt2, 1, 1)
     exact_ray([(0, 0), (1, 0), (-1, 0)], disc=2),  # (0, 1, -1)
     exact_ray([(0, 1), (-1, 0), (-1, 0)], disc=2)],
    name="quad-demo", mode=ScalarMode.exact(2),
)
print("\nwith sqrt(2) coordinates:")
print(emit_rayset(quad))
