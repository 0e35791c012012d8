"""Build the state-independent noncontextuality inequality for a KS set.

Every original KS set yields an inequality that every noncontextual
hidden-variable model must obey but that quantum mechanics violates with
*every* state.  The recipe: weight each ray by the number of complete
bases it belongs to, penalize each orthogonal pair by the larger of its
endpoint weights, and compare the exact weighted independence number of
the orthogonality graph (the classical bound) with the number of bases
(the quantum value).
"""

from kscertify import (
    DefinitionMode,
    build_inequality,
    build_instance,
    check_colorable,
    compute_weights,
    emit_inequality,
    load_rayset,
)

rayset = load_rayset("peres-33")
instance = build_instance(rayset)
print(f"{rayset.name}: {len(rayset.rays)} rays, {instance.n_bases} bases")

# Step 1 - vertex weights are basis-membership counts.
weights = compute_weights(instance)
histogram = {w: weights.count(w) for w in sorted(set(weights))}
print(f"weight histogram: {histogram}")
print(f"sum of weights = {sum(weights)} = bases x dimension = "
      f"{instance.n_bases} x {rayset.dimension}")

# Step 2 - the classical bound is the exact maximum weight of an
# independent set in the orthogonality graph, computed once, by branch and
# bound, when the inequality is built.
inequality = build_inequality(instance)
print(f"classical bound alpha(G,w) = {inequality.classical_bound}")

# Step 3 - the quantum value is simply the number of bases, because the
# weighted projectors sum to that multiple of the identity.
print(f"quantum value N = {inequality.quantum_value}")
print(f"gap = {inequality.gap}  ->  original KS set: {inequality.is_original_ks}")

# The gap is an independent route to the verdict of the coloring search:
# alpha = N exactly when some original 0/1 coloring exists.
colorable = check_colorable(instance, DefinitionMode.ORIGINAL).colorable
assert inequality.is_original_ks == (not colorable)

# The full inequality serializes to a small text format.
text = emit_inequality(inequality)
print("\nserialized inequality (first and last lines):")
lines = text.splitlines()
for line in lines[:3] + ["..."] + lines[-4:]:
    print(f"  {line}")

# The same machinery on a small set: one basis alone has no gap, so a
# single basis is never a KS set.
from kscertify import ScalarMode, exact_ray, validate_rayset

single = build_instance(validate_rayset(
    [exact_ray([1, 0, 0], disc=1),
     exact_ray([0, 1, 0], disc=1),
     exact_ray([0, 0, 1], disc=1)],
    name="one-basis", mode=ScalarMode.integer(),
))
small = build_inequality(single)
print(f"\none basis: alpha = {small.classical_bound}, N = {small.quantum_value}, "
      f"gap = {small.gap} (not a KS set)")
# Three mutually orthogonal rays of weight 1: any one of them is a maximum
# independent set.
assert small.classical_bound == 1
