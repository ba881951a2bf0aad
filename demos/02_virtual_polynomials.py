"""Virtual polynomials and bottleneck factorization.

For a fixed input, every node of a ReLU network computes one polynomial in
the weights per activation pattern. This script enumerates them for a tiny
[2,2,1] network, then factors the output polynomial of a deeper network
across its one-active-node layers.
"""

from fractions import Fraction as F

from losscarto import (
    ActivationSet,
    NetworkShape,
    enumerate_virtual_polynomials,
    factorize,
    layerwise_degree,
    virtual_polynomial,
)

s = NetworkShape([2, 2, 1])
x = (F(1), F(2))

print("=== all virtual polynomials of the [2,2,1] output node, x=(1,2) ===")
for witness, u in enumerate_virtual_polynomials(s, x, (1, 3)):
    flags = {n: witness.is_active(*n) for n in s.hidden_nodes()}
    print(f"  {flags}  ->  {u}")

print()
print("=== layer-wise degrees ===")
for k in range(2, s.depth + 1):
    u = virtual_polynomial(s, x, ActivationSet.all_active(s), (1, k))
    print(f"  node (1,{k}): degree profile {layerwise_degree(u, s)}")

print()
print("=== bottleneck factorization on [2,2,2,2,1] ===")
deep = NetworkShape([2, 2, 2, 2, 1])
act = ActivationSet.from_mapping(deep, {(2, 3): False})
u = virtual_polynomial(deep, x, act, (1, 5))
fac = factorize(deep, x, act, (1, 5))
print(f"  u = {u}")
print(f"  {len(fac)} factors, segments {fac.segments}")
for i, g in enumerate(fac):
    print(f"  g{i} = {g}")
print(f"  product == u: {fac.product() == u}")
