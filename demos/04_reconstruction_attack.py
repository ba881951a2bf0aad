"""Reconstruct training inputs from black-box loss access.

The attacker can evaluate E(w) at weight vectors of their choosing and knows
nothing else: no gradients, no training data, no weights. It scans the path
loss v -> E(v, r), with the first d_1 weights free and every other weight a
small seeded positive r_j: every node above layer 2 then passes its input
on, so the loss in v has one wall v . x_p = 0 per training input and no deep
wall. Kinks of the path loss along random lines are located where the
polynomial pieces on either side cross (a crossing guess and a two-query
check), and the side models give each kink's slope and curvature jumps.
Those jumps group the kinks by wall, and each wall's kinks give linear
equations whose solution is the training input up to a scalar multiple:
no query goes past the scan.
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
print(f"kinks found:  {len(report.kinks)} on {report.lines_scanned} lines (stop: {report.stop})")
print(f"directions:   {len(report.directions)}")
for m in report.matches:
    d = report.directions[m.direction_index]
    print(
        f"  direction {m.direction_index} ({d.provenance}) matches sample "
        f"{m.sample_index} with |cos| = {m.cosine:.9f}, scale {m.scale:+.4f}"
    )
