"""Show that the quantum value of the inequality is state independent.

The weighted sum of projectors built from a KS set equals N times the
identity, where N is the number of complete bases.  Its expectation value
is therefore N for every quantum state - pure or mixed, aligned with the
rays or not.  This script checks the operator identity exactly, then
sweeps many random states and reports how far the numerical expectation
strays from N.
"""

import numpy as np

from kscertify import (
    StateSpec,
    build_instance,
    compute_weights,
    load_rayset,
    operator_sum_check,
    quantum_value,
)

# The edge terms pair orthogonal projectors and vanish on every state, so the
# quantum value needs only the vertex weights, not the classical bound.
for entry_id in ("peres-33", "conway-kochen-31", "ceg-18"):
    instance = build_instance(load_rayset(entry_id))
    weights = compute_weights(instance)
    n = instance.n_bases

    # Exact check of the underlying operator identity sum_i w_i P_i = N*I,
    # carried out in the quadratic ring without any floating point.
    assert operator_sum_check(instance, weights)

    mixed = quantum_value(instance, weights, StateSpec.maximally_mixed())

    deviations = []
    for seed in range(200):
        value = quantum_value(instance, weights, StateSpec.random_pure(seed))
        deviations.append(abs(value - n))

    print(f"{entry_id}: N = {n}")
    print(f"  operator identity sum w_i P_i = N*I holds exactly")
    print(f"  maximally mixed state: W = {mixed!r}")
    print(f"  200 random pure states: max |W - N| = {max(deviations):.3e}, "
          f"mean {np.mean(deviations):.3e}")

# An explicit state works too - here the first basis vector of the
# computational basis in dimension 3.
instance = build_instance(load_rayset("peres-33"))
rho = np.zeros((3, 3), dtype=complex)
rho[0, 0] = 1.0
value = quantum_value(instance, compute_weights(instance), StateSpec.explicit(rho))
print(f"\nexplicit |0><0| state on peres-33: W = {value!r}")
