"""Semi-algebraic map of the loss surface: regions, pieces, walls, sheets.

A region is a choice of realized activation set per training sample with
a witness weight point strictly off every wall.  On a region the loss is
one exact polynomial (the piece).  Crossing the zero set of a flipped
node's virtual polynomial moves to the adjacent region; the crossing is
singular exactly when the two pieces differ: when every hidden layer
above the node keeps a P-active node (see _wall_is_singular).

Sheet enumeration records, for every realizable region its random
probes hit: the hidden-node wall polynomials themselves, their
bottleneck factors, and the bottleneck factors of the output nodes'
virtual polynomials.  A region's key is every sample's flag tuple, and
a sample's sheets depend on its own flag tuple (its pattern) alone, so
enumeration walks each distinct (sample, pattern) pair once and builds
no Region, ActivationSet or witness point; those are the types of the
public functions only.  The factors are the irreducible components the
walls and retained defining polynomials split into; weight-only
components (no first-layer variable) are precisely the sample-independent
ones.  A node's wall and factors depend only on the sample and on the
flags of the layers below the node, so one enumeration factorizes each
(sample, node, lower flags) once; the singular bit reads the layers
above and is decided per pattern.  Below that, one segment cache (see
virtual) is shared by the whole enumeration: a segment behind a cut is
one polynomial for every sample, and a layer's pre-outputs serve every
node of it, so each is propagated once.  Inputs enter it divided by
their first nonzero entry and a cut's segment starts from 1, so every
wall and factor comes out normalized by construction (see _lead_scaled);
wall_between lead-scales its sample's input the same way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    AdjacencyError, BoundaryError, SamplingError, ShapeError, ZeroVirtualPolynomialError,
)
from .network import (
    ActivationSet,
    NetworkShape,
    Scalar,
    TrainingSample,
    _check_integer,
    _pre_outputs,
    as_fraction,
    check_samples,
)
from .polyalg import Poly
from .virtual import _Segments, _check_flags, _factorize, factorize, virtual_polynomial

RegionKey = tuple[tuple[tuple[bool, ...], ...], ...]


@dataclass(frozen=True)
class Region:
    """Per-sample activation sets plus one witness weight point."""

    activation_sets: tuple[ActivationSet, ...]
    witness: tuple[Scalar, ...]

    @property
    def key(self) -> RegionKey:
        return tuple(p.flags for p in self.activation_sets)


def _scaled_by_lcm(values: Sequence[Scalar]) -> list[int]:
    """values times the lcm of their denominators: Python ints, same signs."""
    fs = [as_fraction(v) for v in values]
    m = math.lcm(*(f.denominator for f in fs))
    return [f.numerator * (m // f.denominator) for f in fs]


def _integer_inputs(shape: NetworkShape, samples: Sequence[TrainingSample]) -> np.ndarray:
    """(d_1, M) object array of ints: column p is sample p's input, scaled up to integers."""
    cols = [_scaled_by_lcm(s.input) for s in samples]
    return np.array(cols, dtype=object).reshape(len(samples), shape.widths[0]).T


def _region_keys(shape: NetworkShape, X: np.ndarray, W: np.ndarray) -> list[RegionKey | int]:
    """Region key of each row of the (Q, N) weights W, inputs X (d_1, M).

    An entry is the layer k of the first exactly-zero hidden pre-output
    instead, when the row sits on a wall.  W and X hold Python ints, the
    rational weights and inputs scaled up: scaling a weight layer or an
    input column by a positive constant scales every later pre-output
    positively, keeping each sign and each exact zero, so the one forward
    pass in integer arithmetic decides what the Fraction pass would,
    without normalizing a Fraction.  The output layer has no flags, so
    the pass stops below it.
    """
    Q, M = W.shape[0], X.shape[1]
    if shape.depth == 2:
        return [((),) * M] * Q
    below = NetworkShape(shape.widths[:-1])
    hidden = _pre_outputs(below, W[:, : below.weight_count], X)  # (Q, d_k, M) each
    zero_layer = [0] * Q
    for k in range(len(hidden) + 1, 1, -1):  # shallowest layer wins
        for q in np.flatnonzero((hidden[k - 2] == 0).reshape(Q, -1).any(axis=1)):
            zero_layer[q] = k
    signs = [(z > 0).transpose(0, 2, 1).tolist() for z in hidden]  # [layer][q][p][node]
    return [
        zero_layer[q] or tuple(tuple(tuple(s[q][p]) for s in signs) for p in range(M))
        for q in range(Q)
    ]


def region_of(
    shape: NetworkShape,
    samples: Sequence[TrainingSample],
    w: Sequence[Scalar],
) -> Region:
    """Region containing w; BoundaryError when any pre-output is exactly zero."""
    check_samples(shape, samples)
    shape.check_weights(w)
    W = np.array([_scaled_by_lcm(w)], dtype=object)
    key = _region_keys(shape, _integer_inputs(shape, samples), W)[0]
    if isinstance(key, int):
        raise BoundaryError(f"pre-output exactly zero in layer {key}: walls touch this point")
    return Region(tuple(ActivationSet(shape.widths, flags) for flags in key), tuple(w))


def region_loss_polynomial(
    shape: NetworkShape,
    samples: Sequence[TrainingSample],
    region: Region,
) -> Poly:
    """Exact loss piece on the region: sum_p (1/2)|b_p - Z^(L)(a_p)|^2."""
    check_samples(shape, samples)
    if len(region.activation_sets) != len(samples):
        raise ShapeError("region does not cover the sample list")
    total = Poly.zero()
    for s, P in zip(samples, region.activation_sets):
        total = total + _sample_piece(shape, s, P)
    return total


def _sample_piece(shape: NetworkShape, sample: TrainingSample, P: ActivationSet) -> Poly:
    half = Fraction(1, 2)
    acc = Poly.zero()
    for o in range(1, shape.widths[-1] + 1):
        z = virtual_polynomial(shape, sample.input, P, (o, shape.depth))
        r = Poly.constant(as_fraction(sample.output[o - 1])) - z
        acc = acc + half * (r * r)
    return acc


@dataclass(frozen=True)
class Sheet:
    """One candidate component of the singular locus.

    poly is normalized (leading coefficient 1) so equality means equality
    up to nonzero rational scale.  sample_index is the training sample
    whose wall produced it, or None when the polynomial contains no
    first-layer variable and therefore cannot depend on any sample.
    singular records whether crossing it changes the loss piece.
    """

    poly: Poly
    sample_index: int | None
    singular: bool

    def to_json(self) -> dict:
        return {
            "poly": self.poly.to_json(),
            "sample_index": "independent" if self.sample_index is None else self.sample_index,
            "singular": self.singular,
        }


def _wall_is_singular(flags: tuple[tuple[bool, ...], ...], k: int) -> bool:
    """Whether crossing a nonzero wall of a layer-k hidden node changes the piece.

    Flipping node (i,k) changes output o by u*g_o, where u is the node's
    virtual polynomial and g_o the P-masked path sum from the node to o.
    Paths through the node and paths avoiding it have disjoint monomials,
    so the two pieces differ iff some g_o is nonzero; with u nonzero and
    fully connected layers that holds iff every hidden layer above k has
    a P-active node: every row of flags past layer k's, flags[k-2], holds
    a True.  It depends on the pattern alone, not on the sample.
    """
    return all(map(any, flags[k - 1 :]))


def wall_between(
    shape: NetworkShape,
    samples: Sequence[TrainingSample],
    r1: Region,
    r2: Region,
) -> Sheet:
    """Sheet separating two regions that differ in exactly one node flag.

    The sheet polynomial is the flipped node's wall, built as enumeration
    builds it: the product of the bottleneck factors of its virtual
    polynomial under the shared flags (its own flag is irrelevant to its
    pre-output), from the sample's input divided by its first nonzero
    entry, so it comes out normalized (_lead_scaled).  Every monomial of
    a hidden node's wall holds a first-layer weight, so sample_index is
    the flipped sample's.  The singular bit asks whether every hidden
    layer above the node keeps an active node, which is when the two
    exact pieces differ.
    """
    check_samples(shape, samples)
    if not len(r1.activation_sets) == len(r2.activation_sets) == len(samples):
        raise ShapeError("regions do not cover the sample list")
    for act in (*r1.activation_sets, *r2.activation_sets):
        _check_flags(shape, act)
    diffs: list[tuple[int, tuple[int, int]]] = []
    for p, (a, b) in enumerate(zip(r1.activation_sets, r2.activation_sets)):
        for k in range(2, shape.depth):
            for i in range(1, shape.width(k) + 1):
                if a.is_active(i, k) != b.is_active(i, k):
                    diffs.append((p, (i, k)))
    if len(diffs) != 1:
        raise AdjacencyError(f"regions differ in {len(diffs)} flags, expected exactly 1")
    p, (i, k) = diffs[0]
    P = r1.activation_sets[p]
    try:
        wall = factorize(shape, _lead_scaled(samples[p].input), P, (i, k)).product()
    except ZeroVirtualPolynomialError:
        raise AdjacencyError(
            f"no wall: node ({i},{k}) has identically zero pre-output here"
        ) from None
    return Sheet(wall, p, _wall_is_singular(P.flags, k))


def _lead_scaled(x: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """x divided by its first nonzero entry (the zero input as it is).

    W_1 is indexed by target node, then input, and a canonical lead term
    has the lowest first variable: for a polynomial built from x, the edge
    from x's first nonzero entry, whose coefficient is that entry.
    """
    fs = [as_fraction(v) for v in x]
    lead = next((f for f in fs if f), 1)
    return tuple(f / lead for f in fs)


def _node_components(
    shape: NetworkShape,
    sample: int,
    flags: tuple[tuple[bool, ...], ...],
    node: tuple[int, int],
    cache: _Segments,
) -> tuple[tuple[Poly, bool], ...]:
    """Sample cache.inputs[sample]'s candidates at node, as (poly, sample independent).

    A hidden node gives its wall (the product of its bottleneck factors)
    and then each factor; an output node gives only its factors.  Empty
    when the virtual polynomial is zero.  Reads the flags below the
    node's layer only, as factorize does.  A factor is sample independent
    iff its segment starts past layer 1; the wall holds the input factor.
    """
    try:
        factors = _factorize(shape, sample, flags, node, cache)
    except ZeroVirtualPolynomialError:
        return ()
    comps = tuple((f, start > 1) for f, (start, _) in zip(factors, factors.segments))
    return ((factors.product(), False), *comps) if node[1] < shape.depth else comps


# probe weights are n / _PROBE_SCALE for integers |n| <= _PROBE_SCALE
_PROBE_SCALE = 1 << 20
_PROBE_SPAN = 2 * _PROBE_SCALE + 1
# enumerate_singular_sheets classifies its probes this many at a time
_PROBE_CHUNK = 256


def _random_numerators(shape: NetworkShape, rng: random.Random) -> list[int]:
    # rng.randint(-_PROBE_SCALE, _PROBE_SCALE) per weight: its own getrandbits loop
    # without its call chain, so each value and the final state stay the same
    getrandbits, bits = rng.getrandbits, _PROBE_SPAN.bit_length()
    out = []
    for _ in range(shape.weight_count):
        r = getrandbits(bits)
        while r >= _PROBE_SPAN:
            r = getrandbits(bits)
        out.append(r - _PROBE_SCALE)
    return out


def _random_dyadic_weights(shape: NetworkShape, rng: random.Random) -> list[Fraction]:
    return [Fraction(n, _PROBE_SCALE) for n in _random_numerators(shape, rng)]


def _sample_regions(
    shape: NetworkShape, samples: Sequence[TrainingSample], probe_budget: int, seed: int
) -> set[RegionKey]:
    """Keys of the regions hit by probe_budget random probes.

    The probes are those of a loop of _random_dyadic_weights and region_of
    on random.Random(seed), classified _PROBE_CHUNK at a time; probes on a
    wall are skipped.
    """
    rng = random.Random(seed)
    X = _integer_inputs(shape, samples)
    keys: set[RegionKey] = set()
    for start in range(0, probe_budget, _PROBE_CHUNK):
        # every probe weight shares the denominator _PROBE_SCALE, so the
        # numerators are already a positive rescaling of w, as in region_of
        rows = [
            _random_numerators(shape, rng)
            for _ in range(min(_PROBE_CHUNK, probe_budget - start))
        ]
        W = np.array(rows, dtype=object)
        keys.update(key for key in _region_keys(shape, X, W) if not isinstance(key, int))
    return keys


def enumerate_singular_sheets(
    shape: NetworkShape,
    samples: Sequence[TrainingSample],
    probe_budget: int,
    *,
    seed: int = 0,
) -> list[Sheet]:
    """Sheets discovered from probe_budget random probe points.

    For every sample's pattern in every realizable region, each distinct
    (sample, pattern) pair once, this emits, deduplicated up to nonzero
    rational scale:

    * each hidden node's nonzero wall polynomial, marked singular when
      every hidden layer above it keeps an active node, which is when
      the adjacent pieces differ (every bottleneck factor of the wall
      inherits that flag: crossing any component flips the same node
      between the same two pieces);
    * the bottleneck factors of each output node's virtual polynomial,
      non-singular by default (crossing them flips nothing) but OR-merged
      if the same polynomial also arises from a singular wall.

    Raises SamplingError when no probe lands strictly inside a region.
    """
    check_samples(shape, samples)
    _check_integer("probe budget", probe_budget, 1, error=SamplingError)
    keys = _sample_regions(shape, samples, probe_budget, seed)
    if not keys:
        raise SamplingError(f"no realizable region found in {probe_budget} probes")

    # a node's components depend on the sample and on the flags below its
    # layer only (all factorize reads), not on the region: compute each once
    components: dict[tuple, tuple[tuple[Poly, bool], ...]] = {}
    segments = _Segments([_lead_scaled(sample.input) for sample in samples])
    found: dict[Poly, Sheet] = {}
    outputs = [(o, shape.depth) for o in range(1, shape.widths[-1] + 1)]
    nodes = [*shape.hidden_nodes(), *outputs]

    # first-seen order keeps each sheet's sample_index and singular bit
    for p, flags in dict.fromkeys((p, flags) for key in sorted(keys) for p, flags in enumerate(key)):
        for i, k in nodes:
            memo_key = (p, (i, k), flags[: k - 2])
            comps = components.get(memo_key)
            if comps is None:
                comps = components[memo_key] = _node_components(shape, p, flags, (i, k), segments)
            singular = k < shape.depth and _wall_is_singular(flags, k)
            for norm, independent in comps:
                prev = found.get(norm)
                if prev is None:
                    found[norm] = Sheet(norm, None if independent else p, singular)
                elif singular and not prev.singular:
                    found[norm] = Sheet(norm, prev.sample_index, True)

    return sorted(found.values(), key=lambda s: s.poly.terms, reverse=True)


def sample_independent_sheets(
    shape: NetworkShape,
    samples_a: Sequence[TrainingSample],
    samples_b: Sequence[TrainingSample],
    probe_budget: int,
    *,
    seed: int = 0,
) -> list[Poly]:
    """Input-free sheet polynomials discovered for both sample sets.

    Runs the enumeration once per sample set and intersects, up to scale,
    the polynomials containing no first-layer variable.  These are the
    components of the singular locus that cannot depend on the data.
    """
    runs = []
    for idx, samples in enumerate((samples_a, samples_b)):
        sheets = enumerate_singular_sheets(
            shape, samples, probe_budget, seed=seed + idx
        )
        runs.append({s.poly for s in sheets if s.sample_index is None})
    return sorted(runs[0] & runs[1], key=lambda q: q.terms, reverse=True)


def sheet_report(sheets: Sequence[Sheet]) -> list[dict]:
    """JSON-ready rows, deterministic order."""
    return [s.to_json() for s in sheets]
