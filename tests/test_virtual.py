import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losscarto import (
    ActivationSet,
    EnumerationBudgetError,
    Factorization,
    NetworkShape,
    Poly,
    ZeroVirtualPolynomialError,
    enumerate_virtual_polynomials,
    factorize,
    forward,
    layerwise_degree,
    virtual_polynomial,
)

V = Poly.variable
F = Fraction


def path_sum_family_221(x1, x2):
    """The four distinct node-(1,3) polynomials on [2,2,1], built by hand.

    Path sums: through hidden node 1 uses weights 0,1 into output weight 4;
    through hidden node 2 uses weights 2,3 into output weight 5.
    """
    s = NetworkShape([2, 2, 1])
    via1 = (x1 * V(s.index_of(1, 1, 1)) + x2 * V(s.index_of(1, 2, 1))) * V(s.index_of(2, 1, 1))
    via2 = (x1 * V(s.index_of(1, 1, 2)) + x2 * V(s.index_of(1, 2, 2))) * V(s.index_of(2, 2, 1))
    return {via1 + via2, via1, via2, Poly.zero()}


class TestVirtualPolynomial:
    def test_all_active_221(self):
        s = NetworkShape([2, 2, 1])
        x = (F(1), F(2))
        u = virtual_polynomial(s, x, ActivationSet.all_active(s), (1, 3))
        assert u == V(0) * V(4) + 2 * V(1) * V(4) + V(2) * V(5) + 2 * V(3) * V(5)

    def test_enumeration_gives_exactly_four(self):
        s = NetworkShape([2, 2, 1])
        x = (F(1), F(2))
        vps = enumerate_virtual_polynomials(s, x, (1, 3))
        assert {u for _, u in vps} == path_sum_family_221(F(1), F(2))
        assert len(vps) == 4
        # descending order, and each witness activation set gives its polynomial
        assert [u.terms for _, u in vps] == sorted((u.terms for _, u in vps), reverse=True)
        assert all(virtual_polynomial(s, x, P, (1, 3)) == u for P, u in vps)

    def test_pre_output_ignores_own_flag(self):
        # masking applies strictly below the node: its own flag is irrelevant
        s = NetworkShape([2, 2, 1])
        x = (F(1), F(2))
        act = ActivationSet.from_mapping(s, {(1, 2): False})
        u = virtual_polynomial(s, x, act, (1, 2))
        assert u == V(0) + 2 * V(1)

    def test_masked_layer_kills_paths(self):
        s = NetworkShape([2, 2, 1])
        x = (F(1), F(2))
        act = ActivationSet.from_mapping(s, dict.fromkeys(s.hidden_nodes(), False))
        assert virtual_polynomial(s, x, act, (1, 3)).is_zero()

    def test_homogeneity_profile_examples(self):
        s = NetworkShape([2, 2, 2, 2, 1])
        x = (F(3), F(-2))
        act = ActivationSet.all_active(s)
        for k in range(2, 6):
            u = virtual_polynomial(s, x, act, (1, k))
            assert layerwise_degree(u, s) == tuple(1 if m < k else 0 for m in range(1, 5))

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(1, 3), min_size=3, max_size=4),
        st.integers(0, 10**6),
    )
    def test_homogeneity_random(self, widths, seed):
        s = NetworkShape(widths)
        rng = random.Random(seed)
        flags = ActivationSet(
            s.widths,
            tuple(tuple(rng.random() < 0.6 for _ in range(d)) for d in s.widths[1:-1]),
        )
        k = rng.randrange(2, s.depth + 1)
        node = (rng.randrange(1, s.width(k) + 1), k)
        x = tuple(F(rng.randint(-5, 5)) for _ in range(s.width(1)))
        u = virtual_polynomial(s, x, flags, node)
        if u.is_zero():
            return
        assert layerwise_degree(u, s) == tuple(1 if m < k else 0 for m in range(1, s.depth))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=2, max_size=5),
        st.integers(0, 10**6),
    )
    def test_evaluates_to_forward_pre_output(self, widths, seed):
        # pins the propagation against exact Fraction arithmetic, not the
        # Poly ring: under the flags realized at w, each node's virtual
        # polynomial evaluated at w is the node's pre-output there
        s = NetworkShape(widths)
        rng = random.Random(seed)
        w = [F(rng.randint(-64, 64), 16) for _ in range(s.weight_count)]
        x = tuple(F(rng.randint(-8, 8), 4) for _ in range(s.width(1)))
        pre = [z[:, 0] for z in forward(s, w, [x])]
        realized = ActivationSet(
            s.widths, tuple(tuple(z > 0 for z in pre[k - 2]) for k in range(2, s.depth))
        )
        for k in range(2, s.depth + 1):
            for i in range(1, s.width(k) + 1):
                u = virtual_polynomial(s, x, realized, (i, k))
                assert u.evaluate(w) == pre[k - 2][i - 1], (widths, (i, k))

    def test_input_enters_exactly(self):
        s = NetworkShape([2, 1, 1])
        u = virtual_polynomial(s, (0.5, F(1, 3)), ActivationSet.all_active(s), (1, 2))
        assert u == F(1, 2) * V(0) + F(1, 3) * V(1)

    def test_enumeration_cap(self):
        s = NetworkShape([2, 9, 8, 1])  # 17 hidden nodes > default cap 16
        with pytest.raises(EnumerationBudgetError):
            enumerate_virtual_polynomials(s, (F(1), F(1)), (1, 4))


class TestFactorization:
    def test_depth5_two_factor_decomposition(self):
        s = NetworkShape([2, 2, 2, 2, 1])
        x = (F(1), F(2))
        act = ActivationSet.from_mapping(s, {(2, 3): False})
        u = virtual_polynomial(s, x, act, (1, 5))
        fac = factorize(s, x, act, (1, 5))
        assert len(fac) == 2
        assert fac.segments == ((1, 3), (3, 5))
        assert fac.product() == u
        g1 = V(0) * V(4) + 2 * V(1) * V(4) + V(2) * V(5) + 2 * V(3) * V(5)
        g2 = V(8) * V(12) + V(10) * V(13)
        assert fac[0].normalized() == g1.normalized()
        assert fac[1].normalized() == g2.normalized()
        # the second factor is input-free: it cannot be a wall polynomial,
        # only a component of one node's sheet
        assert all(v >= 8 for v in fac[1].variables())

    def test_every_one_active_layer_cuts(self):
        # layers 2, 3, 4 each end up with exactly one active node
        s = NetworkShape([2, 1, 2, 1, 1])
        act = ActivationSet.from_mapping(s, {(2, 3): False})
        fac = factorize(s, (F(1), F(1)), act, (1, 5))
        assert len(fac) == 4
        assert fac.segments == ((1, 2), (2, 3), (3, 4), (4, 5))
        assert fac.product() == virtual_polynomial(s, (F(1), F(1)), act, (1, 5))

    def test_no_cut_single_factor(self):
        s = NetworkShape([2, 2, 1])
        x = (F(1), F(2))
        act = ActivationSet.all_active(s)
        fac = factorize(s, x, act, (1, 3))
        assert len(fac) == 1
        assert fac.product() == virtual_polynomial(s, x, act, (1, 3))

    def test_segments_must_chain(self):
        f = V(0)
        Factorization((f, f), ((1, 3), (3, 5)))
        with pytest.raises(ValueError):
            Factorization((f, f), ((1, 3),))
        with pytest.raises(ValueError):
            Factorization((f, f), ((1, 3), (4, 5)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_matches_ring_product(self, data):
        # product concatenates keys; the generic multiplication merges and
        # sorts them. Layers are often width-1 cuts, so many nodes factor
        s = NetworkShape(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=6)))
        rows = []
        for d in s.widths[1:-1]:
            one_hot = st.integers(0, d - 1).map(lambda a, d=d: tuple(j == a for j in range(d)))
            rows.append(data.draw(one_hot | st.lists(st.booleans(), min_size=d, max_size=d).map(tuple)))
        P = ActivationSet(s.widths, tuple(rows))
        x = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=s.width(1),
                               max_size=s.width(1)))
        for k in range(2, s.depth + 1):
            for i in range(1, s.width(k) + 1):
                u = virtual_polynomial(s, x, P, (i, k))
                if u.is_zero():
                    continue
                fac = factorize(s, x, P, (i, k))
                assert fac.product() == functools.reduce(Poly.__mul__, fac) == u

    def test_zero_rejected(self):
        s = NetworkShape([2, 2, 1])
        all_negative = ActivationSet.from_mapping(s, dict.fromkeys(s.hidden_nodes(), False))
        with pytest.raises(ZeroVirtualPolynomialError):
            factorize(s, (F(1), F(2)), all_negative, (1, 3))

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(1, 3), min_size=3, max_size=5),
        st.integers(0, 10**6),
    )
    def test_product_identity_random(self, widths, seed):
        s = NetworkShape(widths)
        rng = random.Random(seed)
        flags = ActivationSet(
            s.widths,
            tuple(tuple(rng.random() < 0.7 for _ in range(d)) for d in s.widths[1:-1]),
        )
        x = tuple(F(rng.randint(-4, 4)) for _ in range(s.width(1)))
        node = (rng.randrange(1, s.width(s.depth) + 1), s.depth)
        u = virtual_polynomial(s, x, flags, node)
        if u.is_zero():
            return
        fac = factorize(s, x, flags, node)
        assert fac.product() == u

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(1, 3), min_size=3, max_size=5),
        st.integers(0, 10**6),
    )
    def test_zero_exactly_when_virtual_polynomial_is_zero(self, widths, seed):
        # factorize reads zero off its factors; the reference expands the
        # whole virtual polynomial
        s = NetworkShape(widths)
        rng = random.Random(seed)
        flags = ActivationSet(
            s.widths,
            tuple(tuple(rng.random() < 0.5 for _ in range(d)) for d in s.widths[1:-1]),
        )
        x = tuple(F(rng.randint(-2, 2)) for _ in range(s.width(1)))
        for k in range(2, s.depth + 1):
            for i in range(1, s.width(k) + 1):
                u = virtual_polynomial(s, x, flags, (i, k))
                if u.is_zero():
                    with pytest.raises(ZeroVirtualPolynomialError):
                        factorize(s, x, flags, (i, k))
                else:
                    assert factorize(s, x, flags, (i, k)).product() == u
