"""Bias-free ReLU networks: shapes, weight indexing, forward pass, square loss.

Conventions used everywhere in this package:

* Layers are numbered 1..L (1-based); layer 1 is the input, layer L the
  output.  Widths d_1..d_L, L >= 2.  ReLU acts on hidden layers 2..L-1
  only; the output layer is linear.
* Weight layer k (1..L-1) maps layer k to layer k+1.  The flat parameter
  vector is ordered layer-major, then target-major, then source-major:

      index_of(k, i, j) = offset(k) + (j - 1) * d_k + (i - 1)

  with offset(k) = sum_{m<k} d_{m+1} * d_m.  Flat indices are 0-based;
  (k, i, j) are 1-based with i the source node and j the target node.
  Consequently the block for weight layer k, reshaped to (d_{k+1}, d_k)
  row-major, is the usual matrix W_k acting by W_k @ x.
* forward, loss and the activation sets compute with fractions.Fraction
  throughout (floats are converted exactly, so every float is treated as
  the dyadic rational it is); make_loss_fn is the double-precision loss,
  batch-capable: it evaluates one weight vector or a (Q, N) stack of them
  in one forward pass.

All types here are immutable; functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BoundaryError, ShapeError

Scalar = int | float | Fraction


def as_fraction(x: Scalar | str) -> Fraction:
    """Exact conversion; floats map to the dyadic rational they denote."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class NetworkShape:
    """Architecture d_1..d_L plus the frozen flat weight indexing."""

    __slots__ = ("widths", "_offsets")

    def __init__(self, widths: Sequence[int]):
        widths = tuple(int(d) for d in widths)
        if len(widths) < 2:
            raise ShapeError(f"need at least input and output layer, got {widths}")
        if any(d < 1 for d in widths):
            raise ShapeError(f"layer widths must be positive, got {widths}")
        object.__setattr__(self, "widths", widths)
        offsets = [0]
        for k in range(len(widths) - 1):
            offsets.append(offsets[-1] + widths[k + 1] * widths[k])
        object.__setattr__(self, "_offsets", tuple(offsets))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("NetworkShape is immutable")

    def __repr__(self) -> str:
        return f"NetworkShape({list(self.widths)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, NetworkShape) and self.widths == other.widths

    def __hash__(self) -> int:
        return hash(self.widths)

    @property
    def depth(self) -> int:
        """Number of layers L."""
        return len(self.widths)

    @property
    def weight_count(self) -> int:
        """Total number of weight parameters N."""
        return self._offsets[-1]

    def width(self, k: int) -> int:
        """d_k for layer k in 1..L."""
        if not 1 <= k <= self.depth:
            raise IndexError(f"layer {k} out of range 1..{self.depth}")
        return self.widths[k - 1]

    def index_of(self, k: int, i: int, j: int) -> int:
        """Flat index of the weight from node (i,k) to node (j,k+1)."""
        if not 1 <= k <= self.depth - 1:
            raise IndexError(f"weight layer {k} out of range 1..{self.depth - 1}")
        if not 1 <= i <= self.widths[k - 1]:
            raise IndexError(f"source node {i} out of range 1..{self.widths[k - 1]}")
        if not 1 <= j <= self.widths[k]:
            raise IndexError(f"target node {j} out of range 1..{self.widths[k]}")
        return self._offsets[k - 1] + (j - 1) * self.widths[k - 1] + (i - 1)

    def unpack(self, flat: int) -> tuple[int, int, int]:
        """Inverse of index_of: flat -> (k, i, j)."""
        if not 0 <= flat < self.weight_count:
            raise IndexError(f"flat index {flat} out of range 0..{self.weight_count - 1}")
        for k in range(1, self.depth):
            if flat < self._offsets[k]:
                rel = flat - self._offsets[k - 1]
                j, i = divmod(rel, self.widths[k - 1])
                return k, i + 1, j + 1
        raise AssertionError("unreachable")

    def weight_layer_of(self, flat: int) -> int:
        """Weight layer k owning the flat index."""
        return self.unpack(flat)[0]

    def layer_slice(self, k: int) -> slice:
        """Slice of the flat vector holding weight layer k."""
        if not 1 <= k <= self.depth - 1:
            raise IndexError(f"weight layer {k} out of range 1..{self.depth - 1}")
        return slice(self._offsets[k - 1], self._offsets[k])

    def hidden_nodes(self) -> Iterator[tuple[int, int]]:
        """All hidden nodes as (i, k) pairs, layer-major then node order."""
        for k in range(2, self.depth):
            for i in range(1, self.widths[k - 1] + 1):
                yield i, k

    @property
    def hidden_count(self) -> int:
        return sum(self.widths[1:-1])

    def check_weights(self, w: Sequence[Scalar]) -> None:
        if len(w) != self.weight_count:
            raise ShapeError(
                f"weight vector has length {len(w)}, expected {self.weight_count}"
            )

    def check_input(self, x: Sequence[Scalar]) -> None:
        if len(x) != self.widths[0]:
            raise ShapeError(f"input has length {len(x)}, expected {self.widths[0]}")

    def as_fraction_matrices(self, w: Sequence[Scalar]) -> list[list[list[Fraction]]]:
        """Exact weight matrices as nested lists of Fractions."""
        self.check_weights(w)
        mats = []
        for k in range(1, self.depth):
            rows = []
            for j in range(1, self.widths[k] + 1):
                rows.append(
                    [as_fraction(w[self.index_of(k, i, j)]) for i in range(1, self.widths[k - 1] + 1)]
                )
            mats.append(rows)
        return mats


@dataclass(frozen=True)
class ActivationSet:
    """Formal active/negative flags for every hidden node.

    flags[k-2][i-1] is True when node (i,k) is flagged active, for hidden
    layers k = 2..L-1.  The tie convention everywhere is that a realized
    pre-output of exactly zero counts as negative.
    """

    widths: tuple[int, ...]
    flags: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        hidden = self.widths[1:-1]
        if len(self.flags) != len(hidden) or any(
            len(row) != d for row, d in zip(self.flags, hidden)
        ):
            raise ShapeError("activation flags do not match hidden layer widths")

    @staticmethod
    def all_active(shape: NetworkShape) -> "ActivationSet":
        return ActivationSet(
            shape.widths, tuple(tuple([True] * d) for d in shape.widths[1:-1])
        )

    @staticmethod
    def from_mapping(shape: NetworkShape, mapping: dict[tuple[int, int], bool]) -> "ActivationSet":
        """Build from {(i, k): active}; unmentioned nodes default to active."""
        rows = []
        for k in range(2, shape.depth):
            rows.append(
                tuple(mapping.get((i, k), True) for i in range(1, shape.width(k) + 1))
            )
        for (i, k) in mapping:
            if not (2 <= k <= shape.depth - 1) or not (1 <= i <= shape.width(k)):
                raise IndexError(f"node ({i},{k}) is not a hidden node of {shape}")
        return ActivationSet(shape.widths, tuple(rows))

    def is_active(self, i: int, k: int) -> bool:
        if not 2 <= k <= len(self.widths) - 1:
            raise IndexError(f"layer {k} has no activation flags")
        if not 1 <= i <= self.widths[k - 1]:
            raise IndexError(f"node {i} out of range for layer {k}")
        return self.flags[k - 2][i - 1]

    def flipped(self, i: int, k: int) -> "ActivationSet":
        """Copy with the flag of node (i,k) toggled."""
        self.is_active(i, k)  # bounds check
        rows = [list(row) for row in self.flags]
        rows[k - 2][i - 1] = not rows[k - 2][i - 1]
        return ActivationSet(self.widths, tuple(tuple(r) for r in rows))

    def active_in_layer(self, k: int) -> tuple[int, ...]:
        """1-based ids of active nodes in hidden layer k."""
        return tuple(
            i for i in range(1, self.widths[k - 1] + 1) if self.flags[k - 2][i - 1]
        )


@dataclass(frozen=True)
class TrainingSample:
    """One (input, target output) pair; values kept as given."""

    input: tuple[Scalar, ...]
    output: tuple[Scalar, ...]

    def __init__(self, input: Sequence[Scalar], output: Sequence[Scalar]):
        object.__setattr__(self, "input", tuple(input))
        object.__setattr__(self, "output", tuple(output))


def check_samples(shape: NetworkShape, samples: Sequence[TrainingSample]) -> None:
    for idx, s in enumerate(samples):
        if len(s.input) != shape.widths[0]:
            raise ShapeError(f"sample {idx}: input length {len(s.input)} != d_1 {shape.widths[0]}")
        if len(s.output) != shape.widths[-1]:
            raise ShapeError(f"sample {idx}: output length {len(s.output)} != d_L {shape.widths[-1]}")


@dataclass(frozen=True)
class ForwardTrace:
    """Pre- and post-activation values for one forward pass.

    pre[k-2] is z^{(k)} for layers k = 2..L; post[k-1] is x^{(k)} for
    layers k = 1..L, with x^{(1)} the input and x^{(L)} = z^{(L)} (no
    output ReLU).
    """

    pre: tuple[tuple[Scalar, ...], ...]
    post: tuple[tuple[Scalar, ...], ...]

    @property
    def output(self) -> tuple[Scalar, ...]:
        return self.post[-1]


def forward(shape: NetworkShape, w: Sequence[Scalar], x: Sequence[Scalar]) -> ForwardTrace:
    """Run the network in Fraction arithmetic; ReLU on hidden layers only."""
    shape.check_weights(w)
    shape.check_input(x)
    mats = shape.as_fraction_matrices(w)
    cur: list[Fraction] = [as_fraction(v) for v in x]
    pre = []
    post = [tuple(cur)]
    for k in range(2, shape.depth + 1):
        z = [sum((wij * xi for wij, xi in zip(row, cur)), Fraction(0)) for row in mats[k - 2]]
        pre.append(tuple(z))
        cur = [v if v > 0 else Fraction(0) for v in z] if k < shape.depth else z
        post.append(tuple(cur))
    return ForwardTrace(pre=tuple(pre), post=tuple(post))


def loss(shape: NetworkShape, w: Sequence[Scalar], samples: Sequence[TrainingSample]) -> Fraction:
    """E(w) = sum_p (1/2) * || b_p - F_w(a_p) ||^2, exactly."""
    check_samples(shape, samples)
    total = Fraction(0)
    for s in samples:
        out = forward(shape, w, s.input).output
        for b, f in zip(s.output, out):
            r = as_fraction(b) - f
            total += Fraction(1, 2) * r * r
    return total


def strict_activation_set(
    shape: NetworkShape, w: Sequence[Scalar], x: Sequence[Scalar]
) -> ActivationSet:
    """Flags realized at (w, x), active iff z > 0; refuses boundary points (some z == 0)."""
    trace = forward(shape, w, x)
    rows = []
    for k in range(2, shape.depth):
        z = trace.pre[k - 2]
        if any(v == 0 for v in z):
            raise BoundaryError(f"pre-output exactly zero in layer {k}: walls touch this point")
        rows.append(tuple(bool(v > 0) for v in z))
    return ActivationSet(shape.widths, tuple(rows))


def make_loss_fn(
    shape: NetworkShape, samples: Sequence[TrainingSample]
) -> Callable[[np.ndarray], float | np.ndarray]:
    """Vectorized float loss w -> E(w), all samples in one pass.

    The function is batch-capable (its ``batched`` attribute is True): a
    (Q, N) stack of weight vectors gives the Q losses as a float array in
    one stacked forward pass, each equal bit for bit to the loss of its
    row alone.  A single (N,) vector gives a float.
    """
    check_samples(shape, samples)
    X = np.asarray([s.input for s in samples], dtype=float).T  # (d_1, M)
    B = np.asarray([s.output for s in samples], dtype=float).T  # (d_L, M)
    depth = shape.depth
    slices = [shape.layer_slice(k) for k in range(1, depth)]
    dims = shape.widths
    n = shape.weight_count

    def E(w: np.ndarray) -> float | np.ndarray:
        W = np.asarray(w, dtype=float)
        if W.ndim not in (1, 2) or W.shape[-1] != n:
            raise ShapeError(f"weight array has shape {W.shape}, expected ({n},) or (Q, {n})")
        lead = W.shape[:-1]
        H = X
        for k in range(1, depth):
            Z = W[..., slices[k - 1]].reshape(*lead, dims[k], dims[k - 1]) @ H
            H = Z if k == depth - 1 else np.maximum(Z, 0.0)
        R = B - H
        total = 0.5 * np.sum(R * R, axis=(-2, -1))
        return float(total) if not lead else total

    E.batched = True
    return E
