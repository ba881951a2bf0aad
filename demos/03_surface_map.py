"""Map the loss surface of a small network: regions, walls, sheets.

Weight space splits into finitely many regions on which the square loss is
a single polynomial. Walls between regions are either singular (the loss
kinks there) or invisible (the two pieces agree). The singular walls lie on
algebraic sheets, some of which do not depend on the training inputs at all.
"""

import random
from fractions import Fraction as F

from losscarto import (
    BoundaryError,
    NetworkShape,
    TrainingSample,
    enumerate_singular_sheets,
    loss,
    region_loss_polynomial,
    region_of,
    wall_between,
)

s = NetworkShape([2, 2, 1])
samples = [TrainingSample((F(1), F(2)), (F(3),))]

# classify a random point and check the piece reproduces the loss exactly
rng = random.Random(0)
w = tuple(F(rng.randint(-64, 64), 16) for _ in range(s.weight_count))
r = region_of(s, samples, w)
piece = region_loss_polynomial(s, samples, r)
print("region flags:", r.key)
print("piece(w) == E(w):", piece.evaluate(w) == loss(s, w, samples))

# walk to an adjacent region and classify the wall between them
neighbour = None
while neighbour is None:
    w2 = tuple(F(rng.randint(-64, 64), 16) for _ in range(s.weight_count))
    try:
        r2 = region_of(s, samples, w2)
    except BoundaryError:
        continue
    diff = [n for n in s.hidden_nodes()
            if r.activation_sets[0].is_active(*n) != r2.activation_sets[0].is_active(*n)]
    if len(diff) == 1:
        neighbour = r2
sheet = wall_between(s, samples, r, neighbour)
print(f"wall to neighbour: poly={sheet.poly}, singular={sheet.singular}")

print()
print("=== full singular sheet set ===")
sheets = enumerate_singular_sheets(s, samples, 64, seed=0)
for sh in sheets:
    origin = "input-independent" if sh.sample_index is None else f"sample {sh.sample_index}"
    print(f"  {str(sh.poly):<40}  singular={str(sh.singular):<5}  {origin}")
