"""Virtual polynomials of the linearized network and their bottleneck factors.

Fixing an activation set P turns the ReLU network into a linear network:
active nodes pass their pre-output through, negative nodes emit zero.
The virtual polynomial of type (i,k) for an input a is the pre-output of
node (i,k) in that linear network, viewed as a polynomial in the weights
(the input enters as rational coefficients).  The node's own flag is not
applied; masking concerns layers strictly below k.  virtual_polynomial
returns that Poly; enumerate_virtual_polynomials pairs each distinct one
with a witness activation set.

When the P-active subnetwork pinches to a single node at some interior
layer, the polynomial factors as the product of the segment outputs
between consecutive pinch points; factorize computes exactly that
decomposition and the product recovers the virtual polynomial exactly.
Both read only the flags of layers below the node.

Propagation builds each node's pre-output sum_i w_{k,i,j} x_i in one
pass: the terms of all incoming edges are gathered in one dict and
sorted once into a Poly, rather than through one ring addition per edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EnumerationBudgetError, ShapeError, ZeroVirtualPolynomialError
from .network import ActivationSet, NetworkShape, Scalar, as_fraction
from .polyalg import Poly, TermKey

# enumerate_virtual_polynomials refuses shapes with more hidden nodes than this
ENUMERATION_CAP = 16


def _check_node(shape: NetworkShape, node: tuple[int, int]) -> tuple[int, int]:
    i, k = node
    if not 2 <= k <= shape.depth:
        raise IndexError(f"node layer {k} out of range 2..{shape.depth}")
    if not 1 <= i <= shape.width(k):
        raise IndexError(f"node {i} out of range 1..{shape.width(k)} in layer {k}")
    return i, k


def _propagate(
    shape: NetworkShape,
    activation_set: ActivationSet,
    start_layer: int,
    start_values: Sequence[Poly],
    end_layer: int,
) -> list[Poly]:
    """Push polynomial node values from start_layer up to pre-outputs at end_layer.

    start_values are the *outputs* x^(start_layer), constant polynomials;
    masking applies to the layers strictly between start and end, which
    are hidden since every caller has 1 <= start_layer < end_layer <= L.
    Returns z^(end_layer).
    """
    if tuple(activation_set.widths) != shape.widths:
        raise ShapeError("activation set belongs to a different shape")
    cur = list(start_values)
    pre: list[Poly] = []
    for k in range(start_layer, end_layer):
        pre = []
        for j in range(1, shape.width(k + 1) + 1):
            # z_j = sum_i w_{k,i,j} * x_i.  Every variable in x_i's keys
            # belongs to a weight layer below k, so it precedes the edge
            # variable in the flat order: key + edge is already sorted.
            # Distinct sources i give distinct edges, so no two terms land
            # on one monomial and each is written once, never summed.
            acc: dict[TermKey, Fraction] = {}
            for i in range(1, shape.width(k) + 1):
                edge = ((shape.index_of(k, i, j), 1),)
                for key, c in cur[i - 1].terms:
                    acc[key + edge] = c
            pre.append(Poly._canonical(acc))
        if k + 1 < end_layer:
            cur = [
                pre[j - 1] if activation_set.is_active(j, k + 1) else Poly.zero()
                for j in range(1, shape.width(k + 1) + 1)
            ]
    return pre


def virtual_polynomial(
    shape: NetworkShape,
    x: Sequence[Scalar],
    activation_set: ActivationSet,
    node: tuple[int, int],
) -> Poly:
    """Pre-output of `node` in the P-masked linear network, input as coefficients."""
    shape.check_input(x)
    i, k = _check_node(shape, node)
    start = [Poly.constant(as_fraction(v)) for v in x]
    return _propagate(shape, activation_set, 1, start, k)[i - 1]


def enumerate_virtual_polynomials(
    shape: NetworkShape,
    x: Sequence[Scalar],
    node: tuple[int, int],
) -> list[tuple[ActivationSet, Poly]]:
    """All distinct virtual polynomials of one type, as (witness, poly) pairs.

    Iterates activation sets of the hidden nodes that can influence the
    node (layers below it); flags elsewhere are completed as active in
    the witness, the first activation set found to give the polynomial.
    Ordered by descending polynomial.  Refuses shapes with more than
    ENUMERATION_CAP hidden nodes.
    """
    i, k = _check_node(shape, node)
    if shape.hidden_count > ENUMERATION_CAP:
        raise EnumerationBudgetError(
            f"{shape.hidden_count} hidden nodes exceed enumeration cap {ENUMERATION_CAP}"
        )
    relevant_layers = list(range(2, min(k, shape.depth)))
    per_layer = [
        [tuple(bits) for bits in itertools.product((True, False), repeat=shape.width(m))]
        for m in relevant_layers
    ]
    witness: dict[Poly, ActivationSet] = {}
    for combo in itertools.product(*per_layer):
        flags = combo + tuple((True,) * shape.width(m) for m in range(k, shape.depth))
        P = ActivationSet(shape.widths, flags)
        witness.setdefault(virtual_polynomial(shape, x, P, (i, k)), P)
    return [
        (P, u) for u, P in sorted(witness.items(), key=lambda item: item[0].terms, reverse=True)
    ]


@dataclass(frozen=True)
class Factorization:
    """Ordered factors of a virtual polynomial, one per bottleneck segment.

    Behaves as a sequence of Poly; `segments` records the (start, end)
    layer of the subnetwork each factor is the symbolic output of.
    """

    factors: tuple[Poly, ...]
    segments: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, idx):
        return self.factors[idx]

    def product(self) -> Poly:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = out * f
        return out


def factorize(
    shape: NetworkShape,
    x: Sequence[Scalar],
    activation_set: ActivationSet,
    node: tuple[int, int],
) -> Factorization:
    """Bottleneck factorization of the virtual polynomial of `node`.

    Cut layers are the hidden layers below the node with exactly one
    active node; each factor is the symbolic output of the subnetwork
    between consecutive cuts (the first starts at the input with the
    sample as coefficients, later ones start at the unique active node
    with value 1).  The product of the factors equals the virtual
    polynomial exactly; the factor count is 1 + number of interior cuts.

    Raises ZeroVirtualPolynomialError when the polynomial is zero (for
    instance behind a dead cut): the zero polynomial has no meaningful
    factorization.  Q[w] has no zero divisors, so that is exactly when
    some factor is zero, and no separate expansion is needed to see it.
    """
    shape.check_input(x)
    i, k = _check_node(shape, node)
    cuts = [
        m for m in range(2, k) if len(activation_set.active_in_layer(m)) == 1
    ]
    boundaries = [1, *cuts, k]
    inputs = tuple(as_fraction(v) for v in x)
    factors: list[Poly] = []
    segments: list[tuple[int, int]] = []
    for s, e in zip(boundaries[:-1], boundaries[1:]):
        if s == 1:
            start_vals = [Poly.constant(v) for v in inputs]
        else:
            unique = activation_set.active_in_layer(s)[0]
            start_vals = [
                Poly.constant(1) if idx == unique else Poly.zero()
                for idx in range(1, shape.width(s) + 1)
            ]
        pre = _propagate(shape, activation_set, s, start_vals, e)
        end_node = i if e == k else activation_set.active_in_layer(e)[0]
        if pre[end_node - 1].is_zero():
            raise ZeroVirtualPolynomialError(
                f"virtual polynomial of node ({i},{k}) is zero under these flags"
            )
        factors.append(pre[end_node - 1])
        segments.append((s, e))
    return Factorization(tuple(factors), tuple(segments))
