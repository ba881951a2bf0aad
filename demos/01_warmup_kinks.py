"""Warm-up: find the hinge locations of a 1-D ReLU loss by probing it.

h(a) = sum_i 0.5 * max(0, y_i - a*x_i)^2 is smooth except at a = y_i/x_i,
where the curvature jumps. We only get to *evaluate* h, yet the kink
locations (and hence the ratios y_i/x_i) fall out of a grid scan plus a
refine of each flagged cell: a crossing guess where the quadratic pieces
on either side meet, a two-query check, and bisection where the check
fails.
"""

from losscarto import detect_kinks_on_line, one_d_warmup_oracle

pairs = [(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)]
oracle = one_d_warmup_oracle(pairs, budget=2000)

kinks = detect_kinks_on_line(oracle, [0.0], [1.0], (-4.0, 4.0), 257)

print("training pairs (x, y):", pairs)
print("true ratios y/x:      ", sorted(y / x for x, y in pairs))
print("recovered kinks:      ", sorted(round(k.t, 9) for k in kinks))
print("oracle queries:       ", oracle.query_count)
for k in sorted(kinks, key=lambda k: k.t):
    print(f"  t={k.t:+.9f}  curvature jump={k.curvature_jump:.4f}")
