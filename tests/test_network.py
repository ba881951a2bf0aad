import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losscarto import (
    ActivationSet,
    BoundaryError,
    NetworkShape,
    ShapeError,
    TrainingSample,
    as_fraction,
    check_samples,
    forward,
    loss,
    make_loss_fn,
    region_of,
)

shapes = st.lists(st.integers(1, 4), min_size=2, max_size=4).map(NetworkShape)


def canonical_weight_order(shape):
    """Independent derivation of the flat order: layer, then target, then source."""
    out = []
    for k in range(1, shape.depth):
        for j in range(1, shape.width(k + 1) + 1):
            for i in range(1, shape.width(k) + 1):
                out.append((k, i, j))
    return out


class TestIndexing:
    def test_frozen_221(self):
        s = NetworkShape([2, 2, 1])
        assert s.index_of(1, 1, 1) == 0
        assert s.index_of(1, 2, 2) == 3
        assert s.index_of(2, 1, 1) == 4
        assert s.index_of(2, 2, 1) == 5

    def test_frozen_342(self):
        s = NetworkShape([3, 4, 2])
        assert s.weight_count == 20
        assert s.index_of(2, 1, 2) == 16

    @given(shapes)
    def test_matches_canonical_enumeration(self, s):
        order = canonical_weight_order(s)
        assert len(order) == s.weight_count
        for flat, (k, i, j) in enumerate(order):
            assert s.index_of(k, i, j) == flat
            assert s.weight_layer_of(flat) == k

    @given(shapes)
    def test_layer_slice_partition(self, s):
        covered = []
        for k in range(1, s.depth):
            sl = s.layer_slice(k)
            covered.extend(range(sl.start, sl.stop))
            assert sl.stop - sl.start == s.width(k) * s.width(k + 1)
        assert covered == list(range(s.weight_count))

    def test_out_of_range(self):
        s = NetworkShape([2, 2, 1])
        with pytest.raises(IndexError):
            s.index_of(0, 1, 1)
        with pytest.raises(IndexError):
            s.index_of(2, 1, 2)  # target out of range in the last layer
        with pytest.raises(IndexError):
            s.weight_layer_of(6)
        with pytest.raises(IndexError):
            s.weight_layer_of(-1)

    def test_bad_widths(self):
        # neither truncated ([2.7, 1] is not [2, 1]) nor read digit by digit ("342")
        for widths in ([3], [2, 0, 1], [2.7, 1], [2.0, 1], "342", b"\x03\x04", [True, 2], 3, None):
            with pytest.raises(ShapeError):
                NetworkShape(widths)

    def test_value_semantics(self):
        s = NetworkShape([3, 4, 2])
        for twin in (NetworkShape((3, 4, 2)), NetworkShape(np.array([3, 4, 2]))):
            assert twin == s and hash(twin) == hash(s)
            assert all(type(d) is int for d in twin.widths)
        assert s != NetworkShape([3, 4, 1]) and s != (3, 4, 2)
        assert {s: "a", NetworkShape((3, 4, 2)): "b"} == {s: "b"}
        for name in ("widths", "_offsets"):
            with pytest.raises(AttributeError):
                setattr(s, name, (1, 1))
        assert s.widths == (3, 4, 2) and s.weight_count == 20

    def test_as_matrices_agrees_with_index_of(self):
        # the forward pass reads weight layer k as its slice reshaped to (d_{k+1}, d_k)
        s = NetworkShape([3, 4, 2])
        w = np.arange(s.weight_count)
        for k in range(1, s.depth):
            mat = w[s.layer_slice(k)].reshape(s.width(k + 1), s.width(k))
            for j in range(1, s.width(k + 1) + 1):
                for i in range(1, s.width(k) + 1):
                    assert mat[j - 1, i - 1] == s.index_of(k, i, j)


def reference_pre_outputs(shape, w, x):
    """z^(2..L) of one input by a Python loop over index_of: the reference."""
    cur = [as_fraction(v) for v in x]
    pre = []
    for k in range(1, shape.depth):
        z = [
            sum(
                (as_fraction(w[shape.index_of(k, i, j)]) * cur[i - 1] for i in range(1, shape.width(k) + 1)),
                Fraction(0),
            )
            for j in range(1, shape.width(k + 1) + 1)
        ]
        pre.append(tuple(z))
        cur = [v if v > 0 else Fraction(0) for v in z]
    return pre


class TestForward:
    @settings(max_examples=150, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 4), min_size=2, max_size=5),
        n_samples=st.integers(1, 6),
        integral=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_loss_and_region_match_reference(self, widths, n_samples, integral, seed):
        s = NetworkShape(widths)
        rng = random.Random(seed)

        def draw(n):  # integral draws put exact zeros on the ReLU
            return [rng.randint(-2, 2) if integral else rng.uniform(-2, 2) for _ in range(n)]

        w = draw(s.weight_count)
        samples = [TrainingSample(draw(widths[0]), draw(widths[-1])) for _ in range(n_samples)]
        pre = forward(s, w, [smp.input for smp in samples])
        ref = [reference_pre_outputs(s, w, smp.input) for smp in samples]
        assert [z.shape for z in pre] == [(d, n_samples) for d in widths[1:]]
        for k, z in enumerate(pre):
            for p in range(n_samples):
                assert all(type(v) is Fraction for v in z[:, p])
                assert tuple(z[:, p]) == ref[p][k]

        want = sum(
            (Fraction(1, 2) * (as_fraction(b) - f) ** 2
             for smp, r in zip(samples, ref) for b, f in zip(smp.output, r[-1])),
            Fraction(0),
        )
        got = loss(s, w, samples)
        assert type(got) is Fraction and got == want

        if any(v == 0 for r in ref for z in r[:-1] for v in z):
            with pytest.raises(BoundaryError):
                region_of(s, samples, w)
        else:
            key = tuple(tuple(tuple(v > 0 for v in z) for z in r[:-1]) for r in ref)
            assert region_of(s, samples, w).key == key

    def test_hand_computed_loss(self):
        # [2,1,1], w = (1,1,2): hidden = 1*1 + 1*2 = 3 (active), out = 2*3 = 6
        s = NetworkShape([2, 1, 1])
        sample = TrainingSample((1, 2), (3,))
        assert loss(s, (1, 1, 2), [sample]) == Fraction(9, 2)

    def test_relu_masks_hidden_only(self):
        # negative hidden pre-output is clamped; a negative *output* is not
        s = NetworkShape([2, 1, 1])
        hidden, out = forward(s, (-1, -1, 5), [(1, 1)])
        assert hidden[0, 0] == -2 and out[0, 0] == 0
        assert forward(s, (1, 1, -5), [(1, 1)])[-1][0, 0] == -10

    def test_exact_vs_float(self):
        s = NetworkShape([2, 3, 2])
        rng = random.Random(0)
        for _ in range(20):
            w = [rng.uniform(-1, 1) for _ in range(s.weight_count)]
            x = [rng.uniform(-1, 1) for _ in range(2)]
            exact = forward(s, [as_fraction(v) for v in w], [[as_fraction(v) for v in x]])[-1][:, 0]
            # double-precision reference: W_k is the layer-k block, row-major (d_{k+1}, d_k)
            w1 = np.array(w[:6]).reshape(3, 2)
            w2 = np.array(w[6:]).reshape(2, 3)
            approx = w2 @ np.maximum(w1 @ np.array(x), 0.0)
            for zf, za in zip(exact, approx):
                assert float(zf) == pytest.approx(za, abs=1e-12)

    def test_make_loss_fn_matches_loss(self):
        s = NetworkShape([3, 4, 2])
        rng = random.Random(1)
        samples = [
            TrainingSample(
                tuple(as_fraction(rng.uniform(-1, 1)) for _ in range(3)),
                tuple(as_fraction(rng.uniform(-1, 1)) for _ in range(2)),
            )
            for _ in range(4)
        ]
        fn = make_loss_fn(s, samples)
        for _ in range(25):
            w = np.array([rng.uniform(-2, 2) for _ in range(s.weight_count)])
            assert fn(w) == pytest.approx(float(loss(s, w, samples)), rel=1e-12)


    @given(
        widths=st.lists(st.integers(1, 4), min_size=2, max_size=5),
        n_samples=st.integers(1, 8),
        n_rows=st.integers(1, 12),
        integral=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_rows_bit_for_bit(self, widths, n_samples, n_rows, integral, seed):
        s = NetworkShape(widths)
        rng = np.random.default_rng(seed)

        def draw(*size):  # integral draws put exact zeros on the ReLU and ties in the loss
            v = rng.normal(size=size) * 2.0
            return np.round(v) if integral else v

        samples = [
            TrainingSample(draw(widths[0]).tolist(), draw(widths[-1]).tolist())
            for _ in range(n_samples)
        ]
        fn = make_loss_fn(s, samples)
        assert fn.batched is True
        W = draw(n_rows, s.weight_count)
        batch = fn(W)
        assert isinstance(batch, np.ndarray) and batch.shape == (n_rows,)
        rows = [fn(w) for w in W]
        assert all(type(v) is float for v in rows)
        assert batch.tolist() == rows

    def test_no_samples_give_zero_loss(self):
        s = NetworkShape([2, 2, 1])
        fn = make_loss_fn(s, [])
        assert loss(s, np.zeros(6), []) == 0
        assert fn(np.arange(6.0)) == 0.0 and type(fn(np.zeros(6))) is float
        assert fn(np.ones((3, 6))).tolist() == [0.0, 0.0, 0.0]

    def test_numpy_integers_convert_exactly(self):
        s = NetworkShape([2, 2, 1])
        sample = TrainingSample((1, 2), (1,))
        want = loss(s, list(range(6)), [sample])
        assert loss(s, np.arange(6), [sample]) == want
        assert loss(s, np.arange(6), [TrainingSample(np.array([1, 2]), np.array([1]))]) == want
        big = np.int64(2**62 + 1)  # not a double: a float detour would round it
        assert as_fraction(big) == Fraction(2**62 + 1) and type(as_fraction(big)) is Fraction
        assert as_fraction(np.uint8(255)) == 255 and as_fraction(np.int32(-7)) == -7

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble])
    def test_numpy_floats_convert_exactly(self, dtype):
        s = NetworkShape([2, 2, 1])
        sample = TrainingSample((1, 2), (1,))
        exact = [Fraction(1, 2), Fraction(-5, 4), Fraction(2), Fraction(3, 8), Fraction(-3), Fraction(3, 2)]
        w = np.array([float(v) for v in exact], dtype=dtype)  # dyadic, so exact at every width
        want = loss(s, exact, [sample])
        assert loss(s, w, [sample]) == want
        assert loss(s, w, [TrainingSample(np.array([1, 2], dtype=dtype), np.array([1], dtype=dtype))]) == want
        assert region_of(s, [sample], w) == region_of(s, [sample], exact)
        tenth = dtype(0.1)  # the dyadic rational the rounded value denotes, not 1/10
        assert as_fraction(tenth) == Fraction(*tenth.as_integer_ratio()) != Fraction(1, 10)
        if dtype is not np.longdouble:  # widening to a double is exact
            assert as_fraction(tenth) == Fraction(float(tenth))
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises((ValueError, OverflowError)):
                as_fraction(dtype(bad))

    def test_make_loss_fn_rejects_bad_shapes(self):
        s = NetworkShape([2, 2, 1])
        fn = make_loss_fn(s, [TrainingSample((1, 2), (1,))])
        for bad in (np.zeros(5), np.zeros((3, 7)), np.zeros((2, 3, 6)), np.float64(1.0)):
            with pytest.raises(ShapeError):
                fn(bad)


class TestActivationSets:
    def test_tie_counts_as_negative(self):
        s = NetworkShape([2, 1, 1])
        # hidden pre-output is exactly zero at w = (1, -1, 1), x = (1, 1)
        hidden, out = forward(s, (1, -1, 1), [(1, 1)])
        assert hidden[0, 0] == 0 and out[0, 0] == 0
        with pytest.raises(BoundaryError):
            region_of(s, [TrainingSample((1, 1), (0,))], (1, -1, 1))

    def test_from_mapping_defaults_active(self):
        s = NetworkShape([2, 2, 2, 1])
        act = ActivationSet.from_mapping(s, {(2, 3): False})
        assert act.is_active(1, 2) and act.is_active(2, 2)
        assert act.is_active(1, 3) and not act.is_active(2, 3)
        with pytest.raises(IndexError):
            ActivationSet.from_mapping(s, {(1, 4): False})  # output has no flag


class TestSamples:
    def test_check_samples(self):
        s = NetworkShape([2, 2, 1])
        with pytest.raises(ShapeError):
            check_samples(s, [TrainingSample((1,), (1,))])
        with pytest.raises(ShapeError):
            check_samples(s, [TrainingSample((1, 2), (1, 2))])
