"""Warm-up: find the hinge locations of a 1-D ReLU loss by probing it.

h(a) = sum_i 0.5 * max(0, y_i - a*x_i)^2 is the loss of the [2,1,1]
network with one sample ((x_i, y_i), (0,)) per pair, along the line
w = (-a, 1, 1): base (0, 1, 1), direction (-1, 0, 0), so t = a.  It is
piecewise quadratic, smooth except at a = y_i/x_i, where the curvature
jumps. We only get to *evaluate* the loss, yet the kink locations (and
hence the ratios y_i/x_i) fall out of one 33-point grid scanned at
degree 2: windows of consecutive points that lie on one quadratic are
clean, and each kink sits where the exact quadratics on either side of
it meet, here where their slopes meet, since every hinge is flat (C^1)."""

from losscarto import LossOracle, NetworkShape, TrainingSample, detect_kinks_on_line, make_loss_fn

pairs = [(1.0, 2.0), (3.0, 1.0), (-2.0, 1.5)]
samples = [TrainingSample((x, y), (0.0,)) for x, y in pairs]
oracle = LossOracle(make_loss_fn(NetworkShape([2, 1, 1]), samples), budget=2000)

kinks = detect_kinks_on_line(oracle, [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], (-4.0, 4.0), 33, 2)

print("training pairs (x, y):", pairs)
print("true ratios y/x:      ", sorted(y / x for x, y in pairs))
print("recovered kinks:      ", sorted(round(k.t, 9) for k in kinks))
print("oracle queries:       ", oracle.query_count)
for k in sorted(kinks, key=lambda k: k.t):
    print(f"  t={k.t:+.9f}  curvature jump (right minus left)={k.curvature_jump:+.4f}")
