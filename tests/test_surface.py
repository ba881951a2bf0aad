import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losscarto import (
    ActivationSet,
    AdjacencyError,
    BoundaryError,
    NetworkShape,
    Poly,
    Region,
    SamplingError,
    ShapeError,
    TrainingSample,
    ZeroVirtualPolynomialError,
    enumerate_singular_sheets,
    enumerate_virtual_polynomials,
    forward,
    loss,
    region_loss_polynomial,
    region_of,
    sample_independent_sheets,
    sheet_report,
    wall_between,
)
from losscarto.surface import (
    _PROBE_CHUNK,
    _PROBE_SCALE,
    Sheet,
    _integer_inputs,
    _random_dyadic_weights,
    _random_numerators,
    _region_keys,
    _sample_piece,
    _sample_regions,
    _scaled_by_lcm,
    _wall_is_singular,
)
from losscarto import virtual
from losscarto.virtual import factorize, virtual_polynomial

V = Poly.variable
F = Fraction


def sample_221():
    return [TrainingSample((F(1), F(2)), (F(1),))]


def toggled(P, node):
    """P with the flag of hidden node (i, k) toggled."""
    i, k = node
    rows = [list(row) for row in P.flags]
    rows[k - 2][i - 1] = not rows[k - 2][i - 1]
    return ActivationSet(P.widths, tuple(map(tuple, rows)))


def across(region, p, node):
    """The formal neighbor of region across node's wall for sample p."""
    sets = list(region.activation_sets)
    sets[p] = toggled(sets[p], node)
    return Region(tuple(sets))


class TestRegions:
    def test_region_of_matches_signs(self):
        s = NetworkShape([2, 2, 1])
        w = (F(1), F(1), F(-1), F(-1), F(1), F(1))
        r = region_of(s, sample_221(), w)
        # hidden pre-outputs: node (1,2): 1+2 = 3 > 0; node (2,2): -1-2 < 0
        assert r.activation_sets[0].is_active(1, 2)
        assert not r.activation_sets[0].is_active(2, 2)

    def test_boundary_raises(self):
        s = NetworkShape([2, 2, 1])
        w = (F(2), F(-1), F(1), F(1), F(1), F(1))  # node (1,2): 2 - 2 = 0
        with pytest.raises(BoundaryError):
            region_of(s, sample_221(), w)

    def test_piece_equals_loss_on_region(self):
        s = NetworkShape([2, 2, 1])
        samples = sample_221()
        rng = random.Random(7)
        hits = 0
        while hits < 30:
            w = tuple(F(rng.randint(-64, 64), 16) for _ in range(6))
            try:
                r = region_of(s, samples, w)
            except BoundaryError:
                continue
            hits += 1
            piece = region_loss_polynomial(s, samples, r)
            assert piece.evaluate(w) == loss(s, w, samples)

    @settings(max_examples=30)
    @given(st.lists(st.integers(1, 3), min_size=3, max_size=4), st.integers(0, 10**6))
    def test_piece_equals_loss_random_shapes(self, widths, seed):
        s = NetworkShape(widths)
        rng = random.Random(seed)
        samples = [
            TrainingSample(
                tuple(F(rng.randint(-8, 8), 4) for _ in range(s.width(1))),
                tuple(F(rng.randint(-8, 8), 4) for _ in range(s.width(s.depth))),
            )
            for _ in range(2)
        ]
        for _ in range(3):
            w = tuple(F(rng.randint(-64, 64), 16) for _ in range(s.weight_count))
            try:
                r = region_of(s, samples, w)
            except BoundaryError:
                continue
            piece = region_loss_polynomial(s, samples, r)
            assert piece.evaluate(w) == loss(s, w, samples)


def fraction_key(shape, samples, w):
    """Reference classification from the exact Fraction forward: key, or first tie layer."""
    hidden = forward(shape, w, [smp.input for smp in samples])[:-1]
    for k, z in enumerate(hidden, start=2):
        if (z == 0).any():
            return k
    return tuple(
        tuple(tuple(bool(v > 0) for v in z[:, p]) for z in hidden) for p in range(len(samples))
    )


TINY = F(1, 2**50)


class TestIntegerClassification:
    """The scaled-integer region signs against the exact Fraction forward pass."""

    def check(self, shape, samples, weights):
        # every row one at a time through region_of, and all rows in one batch
        want = [fraction_key(shape, samples, w) for w in weights]
        for w, key in zip(weights, want):
            if isinstance(key, int):
                with pytest.raises(BoundaryError, match=f"layer {key}"):
                    region_of(shape, samples, w)
            else:
                assert region_of(shape, samples, w).key == key
        W = np.array([_scaled_by_lcm(w) for w in weights], dtype=object)
        assert _region_keys(shape, _integer_inputs(shape, samples), W) == want
        return want

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 4), min_size=2, max_size=5),
        n_samples=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_signs_on_random_dyadic_probes(self, widths, n_samples, seed):
        s = NetworkShape(widths)
        rng = random.Random(seed)
        # inputs with mixed denominators, dyadic and not
        samples = [
            TrainingSample(
                [F(rng.randint(-9, 9), rng.choice((1, 3, 4, 1024))) for _ in range(widths[0])],
                [0] * widths[-1],
            )
            for _ in range(n_samples)
        ]
        self.check(s, samples, [_random_dyadic_weights(s, rng) for _ in range(6)])

    def test_exact_ties_in_layer_two_and_deeper(self):
        s = NetworkShape([2, 2, 2, 1])
        samples = [TrainingSample((F(1, 2), F(3, 4)), (0,))]
        # layer 2 from input (1/2, 3/4): node 1 is 3/2 * 1/2 - 3/4 = 0, node 2 is 5/4
        tie2 = [F(3, 2), F(-1), F(1), F(1), F(1), F(1), F(1), F(1), F(1), F(1)]
        # layer 2 is (5/4, 1/2); layer 3 node 1 is 2/5 * 5/4 - 1/2 = 0
        tie3 = [F(1), F(1), F(1), F(0), F(2, 5), F(-1), F(1), F(1), F(1), F(1)]
        # layer 2 is (0, 1/2) and layer 3 node 1 is 0 too: the shallower layer is reported
        both = [F(3, 2), F(-1), F(1), F(0), F(1), F(0), F(1), F(1), F(1), F(1)]
        # layer 3 node 1 is 1/2 * 5/4 - 1/2 = 1/8
        clear = [F(1), F(1), F(1), F(0), F(1, 2), F(-1), F(1), F(1), F(1), F(1)]
        assert self.check(s, samples, [tie2, tie3, clear, both]) == [
            2, 3, (((True, True), (True, True)),), 2,
        ]
        assert forward(s, both, [samples[0].input])[1][0, 0] == 0

    def test_layers_with_different_denominators(self):
        # thirds in W_1 and 1/1024 in W_2: one lcm over all of w scales every layer alike
        s = NetworkShape([2, 2, 2, 1])
        samples = [TrainingSample((F(1), F(2)), (0,))]
        w1 = [F(1, 3), F(1, 3), F(1, 3), F(-2, 3)]  # layer 2 is (1, -1)
        both = [F(1, 3)] * 4  # layer 2 is (1, 1)
        w2 = [F(3, 1024), F(-5, 1024), F(-1, 1024), F(7, 1024)]
        tie2 = [F(1, 3), F(1, 3), F(2, 3), F(-1, 3), *w2, F(1), F(1)]
        tie3 = [*both, F(1, 1024), F(-1, 1024), *w2[2:], F(1), F(1)]
        near3 = [*both, F(1, 1024), -(F(1, 1024) - TINY), *w2[2:], F(1), F(1)]
        clear = [*w1, *w2, F(1), F(1)]  # layer 3 is (3/1024, -1/1024)
        assert self.check(s, samples, [tie2, tie3, near3, clear]) == [
            2, 3, (((True, True), (True, True)),), (((True, False), (True, False)),),
        ]
        rng = random.Random(3)
        rows = [
            [F(rng.randint(-9, 9), d) for d, n in ((3, 4), (1024, 4), (7, 2)) for _ in range(n)]
            for _ in range(20)
        ]
        self.check(s, samples, rows)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_ties(self, sign):
        # |z| = 2^-50 beside weights of order 1, in layer 2 and in layer 3
        s2 = NetworkShape([2, 1, 1])
        near2 = [F(1), -(1 - sign * TINY), F(1)]
        s3 = NetworkShape([1, 2, 1, 1])
        near3 = [F(1), F(1), F(1), -(1 - sign * TINY), F(1)]
        for s, w in ((s2, near2), (s3, near3)):
            samples = [TrainingSample((1,) * s.width(1), (0,))]
            (key,) = self.check(s, samples, [w])
            assert key[0][-1] == (sign > 0,)
            # the same near-tie in floats, exact dyadics as well
            assert region_of(s, samples, [float(v) for v in w]).key == key

    @pytest.mark.parametrize("widths", [[1, 1], [2, 1], [3, 4, 2], [2, 2, 2, 2, 1]])
    @pytest.mark.parametrize("seed", [0, 7, 11, 2**70 + 3])
    def test_numerators_are_the_randint_stream(self, widths, seed):
        # the inlined draw loop against randint itself, values and final state
        s = NetworkShape(widths)
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert _random_numerators(s, got) == [
                want.randint(-_PROBE_SCALE, _PROBE_SCALE) for _ in range(s.weight_count)
            ]
        assert got.getstate() == want.getstate()

    @pytest.mark.parametrize(
        "budget", [1, _PROBE_CHUNK - 1, _PROBE_CHUNK, _PROBE_CHUNK + 1, 2 * _PROBE_CHUNK + 1]
    )
    def test_batches_keep_the_probe_stream(self, budget):
        s = NetworkShape([2, 3, 2, 1])
        samples = [
            TrainingSample((F(1), F(-2)), (0,)),
            TrainingSample((F(3, 4), F(1, 3)), (0,)),
            TrainingSample((F(-1), F(5, 2)), (0,)),
        ]
        rng = random.Random(11)
        want = set()
        for _ in range(budget):
            w = _random_dyadic_weights(s, rng)
            try:
                want.add(region_of(s, samples, w).key)
            except BoundaryError:
                continue
        assert _sample_regions(s, samples, budget, 11) == want


class TestWalls:
    def _region(self, s, samples, w):
        return region_of(s, samples, w)

    def test_wall_polynomial_is_the_nodes_pre_output(self):
        s = NetworkShape([2, 2, 1])
        samples = sample_221()
        r = self._region(s, samples, (F(1), F(1), F(1), F(1), F(1), F(1)))
        sheet = wall_between(s, samples, r, across(r, 0, (1, 2)))
        assert sheet.poly == (V(0) + 2 * V(1)).normalized()
        assert sheet.sample_index == 0
        assert sheet.singular

    def test_adjacency_guard(self):
        s = NetworkShape([2, 2, 1])
        samples = sample_221()
        r = self._region(s, samples, (F(1), F(1), F(1), F(1), F(1), F(1)))
        with pytest.raises(AdjacencyError):
            wall_between(s, samples, r, r)
        r2 = across(across(r, 0, (1, 2)), 0, (2, 2))
        with pytest.raises(AdjacencyError):
            wall_between(s, samples, r, r2)

    def test_regions_must_cover_the_sample_list(self):
        # as region_loss_polynomial does: neither a bare IndexError on sample 1
        # nor a sheet for a sample list the regions do not describe
        s = NetworkShape([2, 2, 1])
        samples = sample_221() + [TrainingSample((F(-1), F(3)), (F(0),))]
        w = (F(1), F(1), F(1), F(1), F(1), F(1))
        r = self._region(s, samples, w)
        for p in (0, 1):
            with pytest.raises(ShapeError):
                wall_between(s, samples[:1], r, across(r, p, (2, 2)))
        one = self._region(s, samples[:1], w)
        with pytest.raises(ShapeError):
            wall_between(s, samples, one, across(one, 0, (1, 2)))
        assert wall_between(s, samples, r, across(r, 1, (2, 2))).sample_index == 1

    def test_regions_must_match_the_shape(self):
        # as region_loss_polynomial does: a ShapeError, not a bare IndexError from the flag diff
        samples = sample_221()
        r = self._region(NetworkShape([2, 2, 1]), samples, (F(1), F(1), F(1), F(1), F(1), F(1)))
        r2 = across(r, 0, (1, 2))
        for widths in ([2, 2, 2, 1], [2, 3, 1]):
            s = NetworkShape(widths)
            with pytest.raises(ShapeError):
                region_loss_polynomial(s, samples, r)
            with pytest.raises(ShapeError):
                wall_between(s, samples, r, r2)

    def test_dead_downstream_wall_is_smooth(self):
        # flipping a layer-2 node whose layer-3 successors are all negative
        # cannot change the loss piece
        s = NetworkShape([2, 2, 2, 1])
        samples = [TrainingSample((F(1), F(2)), (F(3),))]
        act = ActivationSet.from_mapping(s, {(1, 3): False, (2, 3): False})
        r1 = Region((act,))
        r2 = across(r1, 0, (1, 2))
        sheet = wall_between(s, samples, r1, r2)
        assert not sheet.singular
        assert sheet.poly == (V(0) + 2 * V(1)).normalized()

    def test_vanished_wall_raises(self):
        # with layer 2 fully negative, a layer-3 node has zero pre-output
        s = NetworkShape([2, 2, 2, 1])
        samples = [TrainingSample((F(1), F(2)), (F(3),))]
        act = ActivationSet.from_mapping(s, {(1, 2): False, (2, 2): False})
        r1 = Region((act,))
        with pytest.raises(AdjacencyError):
            wall_between(s, samples, r1, across(r1, 0, (1, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 3), min_size=3, max_size=5),
        x=st.lists(st.fractions(-3, 3, max_denominator=3), min_size=3, max_size=3),
        seed=st.integers(0, 10**6),
    )
    # the wall is built from x divided by its first nonzero entry: here that entry
    # is the second one, or a negative first one
    @example(widths=[3, 2, 2, 1], x=[F(0), F(-2), F(1, 3)], seed=1)
    @example(widths=[3, 2, 2, 1], x=[F(-3, 2), F(2), F(0)], seed=1)
    @example(widths=[1, 2, 2, 1], x=[F(0), F(1), F(1)], seed=1)  # the zero input: no wall
    def test_matches_the_raw_input_formula(self, widths, x, seed):
        # the lead-scaled wall against factorizing the raw input and normalizing after
        s = NetworkShape(widths)
        rng = random.Random(seed)
        samples = [*random_samples(s, 1, rng), TrainingSample(x[: s.width(1)], [0] * s.width(s.depth))]
        sets = tuple(
            ActivationSet.from_mapping(s, {node: rng.random() < 0.6 for node in s.hidden_nodes()})
            for _ in samples
        )
        region = Region(sets)
        for p, (i, k) in [(p, node) for p in range(2) for node in s.hidden_nodes()]:
            P = sets[p]
            try:
                want = factorize(s, samples[p].input, P, (i, k)).product().normalized()
            except ZeroVirtualPolynomialError:
                with pytest.raises(AdjacencyError, match=rf"^no wall: node \({i},{k}\) has identically"):
                    wall_between(s, samples, region, across(region, p, (i, k)))
                continue
            sheet = wall_between(s, samples, region, across(region, p, (i, k)))
            assert (sheet.poly, sheet.sample_index, sheet.singular) == (
                want, p, _wall_is_singular(P.flags, k)
            )
            # every monomial holds a first-layer weight, so the wall is never input-free
            terms = sheet.poly.terms
            assert all(any(s.weight_layer_of(v) == 1 for v, _ in key) for key, _ in terms)


class TestSingularBit:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=3, max_size=5), st.integers(0, 10**6))
    def test_active_path_rule_matches_piece_comparison(self, widths, seed):
        # the pattern-only rule against the exact reference: expand both
        # squared pieces and compare them
        s = NetworkShape(widths)
        rng = random.Random(seed)

        def value():
            return F(0) if rng.random() < 0.3 else F(rng.randint(-8, 8), 4)

        sample = TrainingSample(
            tuple(value() for _ in range(s.width(1))), tuple(value() for _ in range(s.width(s.depth)))
        )
        dead = {k for k in range(2, s.depth) if rng.random() < 0.2}
        P = ActivationSet.from_mapping(
            s, {(i, k): k not in dead and rng.random() < 0.6 for i, k in s.hidden_nodes()}
        )
        piece = _sample_piece(s, sample, P)
        for i, k in s.hidden_nodes():
            if virtual_polynomial(s, sample.input, P, (i, k)).is_zero():
                continue
            differs = piece != _sample_piece(s, sample, toggled(P, (i, k)))
            assert _wall_is_singular(P.flags, k) == differs, (widths, P.flags, (i, k))


class TestSheetEnumeration:
    def test_221_sheet_set_frozen(self):
        s = NetworkShape([2, 2, 1])
        sheets = enumerate_singular_sheets(s, sample_221(), 64, seed=0)
        polys = {sh.poly for sh in sheets}
        expected = {
            (V(0) + 2 * V(1)).normalized(),
            (V(2) + 2 * V(3)).normalized(),
            V(4).normalized(),
            V(5).normalized(),
            (V(0) * V(4) + 2 * V(1) * V(4) + V(2) * V(5) + 2 * V(3) * V(5)).normalized(),
        }
        assert polys == expected
        by_poly = {sh.poly: sh for sh in sheets}
        assert by_poly[(V(0) + 2 * V(1)).normalized()].singular
        assert by_poly[(V(2) + 2 * V(3)).normalized()].singular
        # weight-only factors carry no sample dependence
        assert by_poly[V(4)].sample_index is None
        assert by_poly[V(5)].sample_index is None

    def test_deterministic(self):
        s = NetworkShape([2, 2, 1])
        a = enumerate_singular_sheets(s, sample_221(), 64, seed=3)
        b = enumerate_singular_sheets(s, sample_221(), 64, seed=3)
        assert a == b

    def test_no_witnesses_raises(self):
        s = NetworkShape([2, 2, 1])
        with pytest.raises(SamplingError):
            enumerate_singular_sheets(s, sample_221(), 0, seed=0)

    @pytest.mark.parametrize("budget", [2.5, True, "64"])
    def test_probe_budget_must_be_an_integer(self, budget):
        # rejected before any probe, as a budget below 1 is, not deep inside range()
        s = NetworkShape([2, 2, 1])
        sb = [TrainingSample((F(-3), F(5)), (F(2),))]
        with pytest.raises(SamplingError, match="probe budget must be an integer >= 1"):
            enumerate_singular_sheets(s, sample_221(), budget, seed=0)
        with pytest.raises(SamplingError, match="probe budget must be an integer >= 1"):
            sample_independent_sheets(s, sample_221(), sb, budget, seed=0)

    def test_sample_independent_intersection(self):
        s = NetworkShape([2, 2, 1])
        sa = sample_221()
        sb = [TrainingSample((F(-3), F(5)), (F(2),))]
        common = sample_independent_sheets(s, sa, sb, 64, seed=0)
        assert set(common) == {V(4).normalized(), V(5).normalized()}

    def test_report_shape(self):
        s = NetworkShape([2, 2, 1])
        sheets = enumerate_singular_sheets(s, sample_221(), 64, seed=0)
        rows = sheet_report(sheets)
        assert len(rows) == len(sheets)
        for row in rows:
            assert set(row) >= {"poly", "sample_index", "singular"}
        independents = [r for r in rows if r["sample_index"] == "independent"]
        assert len(independents) == 2


def reference_propagate(shape, P, start_layer, start_values, end_layer):
    """Pre-outputs z^(end_layer) from the outputs at start_layer, one node at a time.

    Each call propagates every layer whole and sorts every pre-output
    through the public Poly constructor, so it shares neither a cache
    nor an ordering shortcut with the package.
    """
    cur = list(start_values)
    pre = []
    for k in range(start_layer, end_layer):
        pre = []
        for j in range(1, shape.width(k + 1) + 1):
            acc = {}
            for i in range(1, shape.width(k) + 1):
                edge = ((shape.index_of(k, i, j), 1),)
                for key, c in cur[i - 1].terms:
                    acc[key + edge] = c
            pre.append(Poly(acc))
        if k + 1 < end_layer:
            cur = [
                pre[j - 1] if P.is_active(j, k + 1) else Poly.zero()
                for j in range(1, shape.width(k + 1) + 1)
            ]
    return pre


def active_nodes(P, k):
    """1-based ids of the active nodes of hidden layer k under P."""
    return [i for i, on in enumerate(P.flags[k - 2], 1) if on]


def reference_segments(shape, x, P, node):
    """(start layer, end layer, factor) per segment, up to and including a zero factor."""
    i, k = node
    cuts = [m for m in range(2, k) if len(active_nodes(P, m)) == 1]
    out = []
    for s, e in zip([1, *cuts], [*cuts, k]):
        if s == 1:
            start = [Poly.constant(v) for v in x]
        else:
            unique = active_nodes(P, s)[0]
            start = [Poly.constant(int(idx == unique)) for idx in range(1, shape.width(s) + 1)]
        end_node = i if e == k else active_nodes(P, e)[0]
        factor = reference_propagate(shape, P, s, start, e)[end_node - 1]
        out.append((s, e, factor))
        if factor.is_zero():
            break
    return out


def reference_factorize(shape, x, P, node):
    """(factors, segments), or None when the virtual polynomial is zero."""
    parts = reference_segments(shape, x, P, node)
    if parts[-1][2].is_zero():
        return None
    return tuple(f for _, _, f in parts), tuple((s, e) for s, e, _ in parts)


def is_sorted(p):
    return Poly(p.terms).terms == p.terms


@st.composite
def flagged_networks(draw):
    """Depth 3-5, widths 1-3, inputs with zeros, any flags (dead layers included)."""
    s = NetworkShape(draw(st.lists(st.integers(1, 3), min_size=3, max_size=5)))
    x = tuple(F(v) for v in draw(st.lists(st.integers(-2, 2), min_size=s.width(1), max_size=s.width(1))))
    flags = tuple(
        tuple(draw(st.lists(st.booleans(), min_size=d, max_size=d))) for d in s.widths[1:-1]
    )
    return s, x, ActivationSet(s.widths, flags)


def _case(widths, x, flags):
    return NetworkShape(widths), tuple(map(F, x)), ActivationSet(tuple(widths), flags)


class TestFactorizeAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(flagged_networks())
    @example(_case([2, 2, 2, 1], (1, 2), ((True, True), (False, False))))  # a dead layer
    @example(_case([2, 1, 2, 1, 1], (1, -1), ((True,), (True, False), (True,))))  # width-1 cuts
    @example(_case([3, 2, 1], (0, 0, 0), ((True, True),)))  # the zero input
    @example(_case([2, 3, 1, 2, 1], (0, 2), ((True, False, True), (False,), (True, True))))
    def test_factors_segments_and_zero(self, case):
        s, x, P = case
        for k in range(2, s.depth + 1):
            for i in range(1, s.width(k) + 1):
                want = reference_factorize(s, x, P, (i, k))
                u = virtual_polynomial(s, x, P, (i, k))
                assert is_sorted(u)
                if want is None:
                    assert u.is_zero()
                    with pytest.raises(ZeroVirtualPolynomialError):
                        factorize(s, x, P, (i, k))
                    continue
                got = factorize(s, x, P, (i, k))
                # Poly equality compares the term sequences, order included
                assert (got.factors, got.segments) == want
                assert all(is_sorted(f) for f in got)
                assert u == reference_propagate(s, P, 1, [Poly.constant(v) for v in x], k)[i - 1]


def unmemoised_sheets(shape, samples, probe_budget, seed):
    """Reference enumeration: one reference factorization per (region, sample, node), no memo."""
    rng = random.Random(seed)
    regions = {}
    for _ in range(probe_budget):
        w = _random_dyadic_weights(shape, rng)
        try:
            r = region_of(shape, samples, w)
        except BoundaryError:
            continue
        regions.setdefault(r.key, r)
    if not regions:
        raise SamplingError("no region")
    found = {}

    def emit(poly, p, singular):
        norm = poly.normalized()
        idx = None if all(shape.weight_layer_of(v) != 1 for v in norm.variables()) else p
        prev = found.get(norm)
        if prev is None:
            found[norm] = Sheet(norm, idx, singular)
        elif singular and not prev.singular:
            found[norm] = Sheet(norm, prev.sample_index, True)

    for key in sorted(regions):
        for p, sample in enumerate(samples):
            P = regions[key].activation_sets[p]
            outputs = [(o, shape.depth) for o in range(1, shape.widths[-1] + 1)]
            for i, k in [*shape.hidden_nodes(), *outputs]:
                fac = reference_factorize(shape, sample.input, P, (i, k))
                if fac is None:
                    continue
                factors = fac[0]
                hidden = k < shape.depth
                singular = hidden and _wall_is_singular(P.flags, k)
                if hidden:
                    wall = factors[0]
                    for g in factors[1:]:
                        wall = wall * g
                    emit(wall, p, singular)
                for g in factors:
                    emit(g, p, singular)
    return sorted(found.values(), key=lambda s: s.poly.terms, reverse=True)


def random_samples(s, n_samples, rng):
    samples = []
    for _ in range(n_samples):
        x = [F(rng.randint(-4, 4), 2) for _ in range(s.width(1))]
        x[rng.randrange(len(x))] = F(rng.choice((-3, -1, 1, 3)), 2)  # never the zero input
        samples.append(TrainingSample(x, [F(rng.randint(-4, 4)) for _ in range(s.width(s.depth))]))
    return samples


class TestMemoisedEnumeration:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=3, max_size=5),
        st.integers(1, 3),
        st.integers(8, 32),
        st.integers(0, 10**6),
    )
    @example([2, 1, 2, 1], 2, 32, 0)  # a width-1 layer is dead wherever its node is negative
    @example([2, 3, 1, 2, 1], 3, 32, 5)
    # d_1 = 1 makes every input proportional, so the samples share their sheets and each
    # sheet's sample_index is whichever sample the walk reaches first
    @example([1, 2, 2, 1], 3, 32, 0)
    # enumeration divides each input by its first nonzero entry: here samples lead with
    # one or two zero entries, and the first nonzero entry is negative
    @example([3, 2, 2, 1], 3, 32, 13)
    @example([3, 1, 2, 1], 2, 32, 13)
    def test_matches_unmemoised_reference(self, widths, n_samples, probes, seed):
        s = NetworkShape(widths)
        samples = random_samples(s, n_samples, random.Random(seed))
        try:
            want = sheet_report(unmemoised_sheets(s, samples, probes, seed))
        except SamplingError:
            with pytest.raises(SamplingError):
                enumerate_singular_sheets(s, samples, probes, seed=seed)
            return
        assert sheet_report(enumerate_singular_sheets(s, samples, probes, seed=seed)) == want

    @pytest.mark.parametrize(
        "widths, n_samples, probes, seed",
        [([3, 4, 2], 3, 32, 7), ([2, 2, 2, 2, 1], 2, 64, 1), ([2, 3, 1, 2, 1], 3, 32, 5),
         ([3, 2, 2, 1], 2, 64, 11)],
    )
    def test_each_segment_built_once(self, widths, n_samples, probes, seed):
        # one cache serves the whole enumeration, keyed by (start, inner flags), an
        # input start by the sample's index: every segment some node's factorization
        # reaches is built exactly once, shared across regions, samples and the nodes
        # of its end layer
        s = NetworkShape(widths)
        samples = random_samples(s, n_samples, random.Random(seed))
        built = []
        extend = virtual._extend

        def spy(shape, cache, start, inner):
            built.append((start, inner))
            return extend(shape, cache, start, inner)

        with mock.patch.object(virtual, "_extend", spy):
            sheets = enumerate_singular_sheets(s, samples, probes, seed=seed)

        reached = set()
        for key in _sample_regions(s, samples, probes, seed):
            for p, (sample, flags) in enumerate(zip(samples, key)):
                P = ActivationSet(s.widths, flags)
                outputs = [(o, s.depth) for o in range(1, s.widths[-1] + 1)]
                for node in [*s.hidden_nodes(), *outputs]:
                    for start, end, _ in reference_segments(s, sample.input, P, node):
                        head = (1, p) if start == 1 else (start, active_nodes(P, start)[0])
                        inner = P.flags[start - 1 : end - 2]
                        reached.update((head, inner[:m]) for m in range(len(inner) + 1))
        assert Counter(built).most_common(1)[0][1] == 1
        assert set(built) == reached
        assert all(is_sorted(sh.poly) for sh in sheets)

    def test_enumeration_builds_no_pattern_objects(self):
        # enumeration walks region keys, the flag tuples themselves: it builds
        # no ActivationSet or Region (nor a witness) per probed region
        s = NetworkShape([2, 3, 2, 1])
        samples = random_samples(s, 3, random.Random(5))

        def spy(cls):
            return mock.patch.object(cls, "__init__", autospec=True, side_effect=cls.__init__)

        with spy(ActivationSet) as made_sets, spy(Region) as made_regions:
            sheets = enumerate_singular_sheets(s, samples, 64, seed=5)
            assert sheets and made_sets.call_count == made_regions.call_count == 0
            region_of(s, samples, _random_dyadic_weights(s, random.Random(5)))  # seen when built
            assert made_sets.call_count == 3 and made_regions.call_count == 1

    def test_enumerated_virtual_polynomials_are_sorted(self):
        s = NetworkShape([2, 2, 2, 1])
        vps = enumerate_virtual_polynomials(s, (F(1), F(-2)), (1, 4))
        assert len(vps) > 4 and all(is_sorted(u) for _, u in vps)
        assert all(virtual_polynomial(s, (F(1), F(-2)), P, (1, 4)) == u for P, u in vps)


class TestSampleIndependence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=3, max_size=5),
        st.integers(1, 3),
        st.integers(0, 10**6),
    )
    @example([2, 2, 2, 2, 1], 2, 1)
    @example([3, 1, 2, 1], 2, 13)
    def test_enumeration_marks_exactly_the_input_free_sheets(self, widths, n_samples, seed):
        # enumeration reads independence off each factor's segment start, not its terms
        s = NetworkShape(widths)
        samples = random_samples(s, n_samples, random.Random(seed))
        try:
            sheets = enumerate_singular_sheets(s, samples, 32, seed=seed)
        except SamplingError:
            return
        for sh in sheets:
            input_free = all(s.weight_layer_of(v) != 1 for v in sh.poly.variables())
            assert (sh.sample_index is None) == input_free
