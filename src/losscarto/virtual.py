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
Both read only the flags of layers below the node.  The factors' variables
lie in consecutive layer ranges, so the product concatenates their term
keys, already in canonical order, with no merge and no sort.

All of them propagate through one segment builder.  A segment starts at
the input, with the sample as coefficients, or at a cut's unique active
node, with value 1; its pre-outputs depend on that start and on the
flags strictly inside it only, not on the sample behind a cut nor on
the node read off its end layer.  The builder caches them under exactly
that key (an input start by the sample's index in the cache's input
list, so a lookup never rehashes Fractions), each built one layer on
from the entry one layer shorter, so a caller that shares one cache over
many nodes, flags and samples propagates each (start, flags) once.  One
layer step sorts the source terms once and appends each edge in place:
the result is in canonical order for every target node, and no term is
re-sorted.  virtual_polynomial and factorize use a fresh cache per call,
enumerate_virtual_polynomials one over its flag combinations, and sheet
enumeration in surface one over every region, sample and node, through
_factorize, which takes the pattern as its flag tuple: an ActivationSet
is built only at the public functions.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EnumerationBudgetError, ShapeError, ZeroVirtualPolynomialError
from .network import ActivationSet, NetworkShape, Scalar, as_fraction
from .polyalg import Poly

# enumerate_virtual_polynomials refuses shapes with more hidden nodes than this
ENUMERATION_CAP = 16


def _check_node(shape: NetworkShape, node: tuple[int, int]) -> tuple[int, int]:
    i, k = node
    if not 2 <= k <= shape.depth:
        raise IndexError(f"node layer {k} out of range 2..{shape.depth}")
    if not 1 <= i <= shape.width(k):
        raise IndexError(f"node {i} out of range 1..{shape.width(k)} in layer {k}")
    return i, k


# A segment starts at layer s from constant outputs: the inputs of sample
# p (s = 1) or value 1 on a cut's unique active node.  It is named by
# (start, inner): start is (1, p) or (s, node), inner the flags of the
# layers strictly inside it, and its pre-outputs depend on nothing else.
_Start = tuple[int, int]

_ONE = Fraction(1)


class _Segments(dict):
    """A segment cache, (start, inner) -> end-layer pre-outputs, for one shape and sample list.

    inputs[p] is the start of (1, p), so a lookup hashes ints, never the
    sample's Fractions.
    """

    def __init__(self, inputs: Sequence[tuple[Fraction, ...]]):
        super().__init__()
        self.inputs = inputs


def _check_flags(shape: NetworkShape, activation_set: ActivationSet) -> None:
    if tuple(activation_set.widths) != shape.widths:
        raise ShapeError("activation set belongs to a different shape")


def _segment(
    shape: NetworkShape, cache: _Segments, start: _Start, inner: tuple[tuple[bool, ...], ...]
) -> tuple[Poly, ...]:
    """Pre-outputs of the end layer (s + 1 + len(inner)) of a segment, built once per cache."""
    pre = cache.get((start, inner))
    if pre is None:
        pre = cache[start, inner] = _extend(shape, cache, start, inner)
    return pre


def _extend(
    shape: NetworkShape, cache: _Segments, start: _Start, inner: tuple[tuple[bool, ...], ...]
) -> tuple[Poly, ...]:
    """Build a segment one layer on from the segment one layer shorter.

    Every term of a layer's outputs has the same degree, each variable
    once: they are path monomials of one length.  Target j's terms are
    the source terms with the edge (i -> j) appended; the edge follows
    every variable of the key, so the canonical order of target j's terms
    is the order of their source keys, the same for every j.  Distinct
    sources carry distinct keys (each ends on an edge into its source),
    except the empty key of a constant start, which the stable sort
    leaves in source order, which is edge order.  One sort per layer
    step orders every target, and no two terms land on one monomial.
    """
    s, at = start
    k = s + len(inner)  # the layer whose outputs feed the end layer
    if inner:
        below = _segment(shape, cache, start, inner[:-1])
        outputs = [p.terms if on else () for p, on in zip(below, inner[-1])]
    elif s == 1:
        outputs = [(((), v),) if v else () for v in cache.inputs[at]]
    else:
        outputs = [(((), _ONE),) if i == at else () for i in range(1, shape.width(s) + 1)]
    # ascending keys of one length, each variable with exponent 1, are
    # the descending graded-lex order
    sources = sorted(
        ((key, c, i) for i, terms in enumerate(outputs) for key, c in terms),
        key=itemgetter(0),
    )
    d, first = shape.width(k), shape.index_of(k, 1, 1)
    return tuple(
        Poly._presorted(tuple((key + ((first + j * d + i, 1),), c) for key, c, i in sources))
        for j in range(shape.width(k + 1))
    )


def virtual_polynomial(
    shape: NetworkShape,
    x: Sequence[Scalar],
    activation_set: ActivationSet,
    node: tuple[int, int],
) -> Poly:
    """Pre-output of `node` in the P-masked linear network, input as coefficients."""
    shape.check_input(x)
    i, k = _check_node(shape, node)
    _check_flags(shape, activation_set)
    cache = _Segments([tuple(as_fraction(v) for v in x)])
    return _segment(shape, cache, (1, 0), activation_set.flags[: k - 2])[i - 1]


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
    shape.check_input(x)
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
    cache = _Segments([tuple(as_fraction(v) for v in x)])
    first: dict[Poly, tuple[tuple[bool, ...], ...]] = {}
    for combo in itertools.product(*per_layer):
        first.setdefault(_segment(shape, cache, (1, 0), combo)[i - 1], combo)
    above = tuple((True,) * shape.width(m) for m in range(k, shape.depth))
    return [
        (ActivationSet(shape.widths, combo + above), u)
        for u, combo in sorted(first.items(), key=lambda item: item[0].terms, reverse=True)
    ]


@dataclass(frozen=True)
class Factorization:
    """Ordered factors of a virtual polynomial, one per bottleneck segment.

    Behaves as a sequence of Poly; `segments` records the (start, end)
    layer of the subnetwork each factor is the symbolic output of.  Each
    segment starts where the one before it ends, so each factor's variables
    lie below the next factor's, as product needs; construction checks it.
    """

    factors: tuple[Poly, ...]
    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ends, starts = [e for _, e in self.segments[:-1]], [s for s, _ in self.segments[1:]]
        if len(self.factors) != len(self.segments) or ends != starts:
            raise ValueError(f"{len(self.factors)} factors need as many chained segments: {self.segments}")

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, idx):
        return self.factors[idx]

    def product(self) -> Poly:
        # a factor's keys are path monomials of one length, below every key of the
        # next factor: each ka + kb is a distinct canonical key, met in canonical order
        out = self.factors[0]
        for f in self.factors[1:]:
            out = Poly._presorted(tuple((ka + kb, ca * cb) for ka, ca in out.terms for kb, cb in f.terms))
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
    node = _check_node(shape, node)
    _check_flags(shape, activation_set)
    cache = _Segments([tuple(as_fraction(v) for v in x)])
    return _factorize(shape, 0, activation_set.flags, node, cache)


def _factorize(
    shape: NetworkShape,
    sample: int,
    flags: tuple[tuple[bool, ...], ...],
    node: tuple[int, int],
    cache: _Segments,
) -> Factorization:
    """factorize of the cache's inputs[sample] under checked flags and node, filling the cache.

    A cut is a row of flags below the node with one True, and a segment
    runs from the input or a cut's active node to the next such node or
    the node itself.  The factors are the cache's own Poly objects,
    shared by every caller that reaches the same segment.
    """
    i, k = node
    cuts = [(m, row.index(True) + 1) for m, row in enumerate(flags[: k - 2], 2) if sum(row) == 1]
    factors: list[Poly] = []
    segments: list[tuple[int, int]] = []
    for (s, at), (e, end_node) in zip([(1, sample), *cuts], [*cuts, (k, i)]):
        factor = _segment(shape, cache, (s, at), flags[s - 1 : e - 2])[end_node - 1]
        if factor.is_zero():
            raise ZeroVirtualPolynomialError(
                f"virtual polynomial of node ({i},{k}) is zero under these flags"
            )
        factors.append(factor)
        segments.append((s, e))
    return Factorization(tuple(factors), tuple(segments))
