"""Reconstruct training inputs from black-box loss access.

The attacker can evaluate E(w) at weight vectors of their choosing and knows
nothing else: no gradients, no training data, no weights. Kinks of E along
random lines are located where the polynomial pieces on either side cross
(a crossing guess, a two-query check, a bisection fallback), finite
differences on both sides of each kink give the jump of the gradient,
which is the normal of the wall through the kink, and first-layer walls
hand back training inputs up to a scalar multiple. A first-layer wall's
jump lies in one aligned window of d_1 weights, so a screen of one
directional jump per window comes first; only a kink on its wall whose
screen shows exactly one window jumping gets that window measured in full.
"""

import time

from losscarto import AttackConfig, gen_instance, make_oracle, run_attack

inst = gen_instance([3, 4, 2], 5, seed=7)
oracle = make_oracle(inst)
true_inputs = [tuple(float(v) for v in smp.input) for smp in inst.samples]

t0 = time.time()
report = run_attack(
    oracle,
    inst.shape.weight_count,
    inst.shape.width(1),
    AttackConfig(budget=200_000, seed=0),
    true_inputs=true_inputs,
)
elapsed = time.time() - t0

print(f"queries used: {report.oracle_queries} / {report.budget}")
print(f"wall time:    {elapsed:.1f}s")
print(f"kinks found:  {len(report.kinks)}")
print(f"directions:   {len(report.directions)}")
for m in report.matches:
    d = report.directions[m.direction_index]
    print(
        f"  direction {m.direction_index} ({d.provenance}) matches sample "
        f"{m.sample_index} with |cos| = {m.cosine:.9f}, scale {m.scale:+.4f}"
    )
