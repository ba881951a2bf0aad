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
* There is one forward pass, _pre_outputs: each layer is
  W[layer_slice(k)].reshape(d_{k+1}, d_k) @ H over all samples at once,
  and it runs at three dtypes.  make_loss_fn runs it on float arrays, for
  one weight vector or a (Q, N) stack of them.  forward runs it on object
  arrays of fractions.Fraction (floats are converted exactly, so every
  float is treated as the dyadic rational it is), and loss reads forward.
  Region classification (surface.region_of and sheet enumeration) runs it
  on object arrays of Python ints: each weight layer and each input is
  scaled by the lcm of its denominators, a positive scaling that keeps
  every pre-output's sign and every exact zero.  The ReLU clamps with the
  integer 0, not 0.0: on exact values a float 0.0 would turn every later
  product into a float.

All types here are immutable; functions are pure.
"""

from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ShapeError

Scalar = int | float | Fraction


def as_fraction(x: Scalar) -> Fraction:
    """Exact conversion of a Python or NumPy number; a float of any width is the dyadic rational it denotes."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, np.integer):
        return Fraction(int(x))
    if isinstance(x, np.floating):
        return Fraction(*x.as_integer_ratio())
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def _check_integer(what: str, value, least: int, most: int | None = None, error=ValueError) -> None:
    """error unless value is an integer (not a bool) from least to most."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least
            or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise error(f"{what} must be an integer {bound}, got {value!r}")


@dataclass(frozen=True, slots=True)
class NetworkShape:
    """Architecture d_1..d_L plus the frozen flat weight indexing.

    widths: any non-string sequence of integers (NumPy's too, not bools).
    """

    widths: tuple[int, ...]
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.widths, (str, bytes)) or not np.iterable(self.widths):
            raise ShapeError(f"widths must be a sequence of integers, got {self.widths!r}")
        widths = tuple(self.widths)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in widths):
            raise ShapeError(f"layer widths must be integers, got {widths}")
        widths = tuple(map(int, widths))
        if len(widths) < 2:
            raise ShapeError(f"need at least input and output layer, got {widths}")
        if any(d < 1 for d in widths):
            raise ShapeError(f"layer widths must be positive, got {widths}")
        object.__setattr__(self, "widths", widths)
        sizes = (widths[k + 1] * widths[k] for k in range(len(widths) - 1))
        object.__setattr__(self, "_offsets", tuple(accumulate(sizes, initial=0)))

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

    def weight_layer_of(self, flat: int) -> int:
        """Weight layer k owning the flat index."""
        if not 0 <= flat < self.weight_count:
            raise IndexError(f"flat index {flat} out of range 0..{self.weight_count - 1}")
        return bisect.bisect_right(self._offsets, flat)

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


def _pre_outputs(shape: NetworkShape, W: np.ndarray, X: np.ndarray) -> list[np.ndarray]:
    """z^(2..L) of the stacked inputs X (d_1, M) under W, (N,) or (Q, N).

    The package's only forward pass, for float, Fraction and int (object)
    arrays alike; ReLU on hidden layers only, clamping with the integer 0
    so that exact values stay exact.
    """
    lead = W.shape[:-1]
    d = shape.widths
    zs = []
    H = X
    for k in range(1, len(d)):
        Z = W[..., shape.layer_slice(k)].reshape(*lead, d[k], d[k - 1]) @ H
        zs.append(Z)
        if k < len(d) - 1:
            H = np.maximum(Z, 0)
    return zs


def _fraction_columns(rows: Sequence[Sequence[Scalar]], width: int) -> np.ndarray:
    """(width, M) object array of Fractions whose column p is rows[p]."""
    cols = np.array([[as_fraction(v) for v in r] for r in rows], dtype=object)
    return cols.reshape(len(rows), width).T


def forward(
    shape: NetworkShape, w: Sequence[Scalar], inputs: Sequence[Sequence[Scalar]]
) -> list[np.ndarray]:
    """Exact pre-outputs z^(2..L) of every input, in Fraction arithmetic.

    Entry k-2 is the object array z^(k) of shape (d_k, M): column p holds
    the pre-outputs of inputs[p], and z^(L) is the network output.
    """
    shape.check_weights(w)
    for x in inputs:
        shape.check_input(x)
    W = np.array([as_fraction(v) for v in w], dtype=object)
    return _pre_outputs(shape, W, _fraction_columns(inputs, shape.widths[0]))


def loss(shape: NetworkShape, w: Sequence[Scalar], samples: Sequence[TrainingSample]) -> Fraction:
    """E(w) = sum_p (1/2) * || b_p - F_w(a_p) ||^2, exactly."""
    check_samples(shape, samples)
    out = forward(shape, w, [s.input for s in samples])[-1]
    R = _fraction_columns([s.output for s in samples], shape.widths[-1]) - out
    return Fraction(1, 2) * sum((R * R).ravel(), Fraction(0))


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
    # reshaped so that no samples still give (d_1, 0) and (d_L, 0), and the loss 0
    X = np.asarray([s.input for s in samples], dtype=float).reshape(-1, shape.widths[0]).T
    B = np.asarray([s.output for s in samples], dtype=float).reshape(-1, shape.widths[-1]).T
    n = shape.weight_count

    def E(w: np.ndarray) -> float | np.ndarray:
        W = np.asarray(w, dtype=float)
        if W.ndim not in (1, 2) or W.shape[-1] != n:
            raise ShapeError(f"weight array has shape {W.shape}, expected ({n},) or (Q, {n})")
        R = B - _pre_outputs(shape, W, X)[-1]
        total = 0.5 * np.sum(R * R, axis=(-2, -1))
        return float(total) if W.ndim == 1 else total

    E.batched = True
    return E
