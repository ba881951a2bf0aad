import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from losscarto import (
    DegreeError,
    NetworkShape,
    Poly,
    layerwise_degree,
)
from losscarto.polyalg import _sorted_terms

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def polys(draw, max_vars=4, max_terms=4, max_exp=2):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        nvars = draw(st.integers(0, 2))
        key = tuple(
            sorted(
                (draw(st.integers(0, max_vars - 1)), draw(st.integers(1, max_exp)))
                for _ in range(nvars)
            )
        )
        # merge duplicate variables inside a key
        merged: dict[int, int] = {}
        for v, e in key:
            merged[v] = merged.get(v, 0) + e
        terms[tuple(sorted(merged.items()))] = draw(coeffs)
    return Poly(terms)


V = Poly.variable


class TestRing:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p
        assert p * Poly.constant(1) == p
        assert p - p == Poly.zero()

    @given(polys(), polys())
    def test_evaluate_is_homomorphism(self, p, q):
        point = {v: Fraction(3, 2) if v % 2 else Fraction(-1, 3) for v in range(5)}
        pv = p.evaluate(point)
        qv = q.evaluate(point)
        assert (p + q).evaluate(point) == pv + qv
        assert (p * q).evaluate(point) == pv * qv

    def test_scalar_coercion(self):
        p = 2 * V(0) + Fraction(1, 2)
        assert dict(p.terms) == {((0, 1),): 2, (): Fraction(1, 2)}

    def test_float_coefficients_become_exact_dyadics(self):
        p = Poly({((0, 1),): 0.5})
        assert p.terms == ((((0, 1),), Fraction(1, 2)),)
        assert isinstance(p.terms[0][1], Fraction)

    @given(polys(), polys())
    def test_equal_polys_hash_equal(self, p, q):
        # the same polynomial by two routes: ring operations and the public constructor
        routes = [(p + q) * (p - q), p * p - q * q, Poly(dict((p * p - q * q).terms))]
        assert all(r == routes[0] and hash(r) == hash(routes[0]) for r in routes)
        assert len(set(routes)) == 1

    @given(polys())
    def test_copies_and_pickles_equal_and_hash_equal(self, p):
        hash(p)  # cached first, as any set or dict lookup would leave it
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and hash(twin) == hash(p)

    @given(polys(), st.data())
    def test_hash_follows_equality(self, p, data):
        # equal through the constructor, the ring, normalized and pickle: hash equal
        n = p.normalized()
        routes = [n, (Fraction(-7, 3) * p).normalized(), Poly(dict(n.terms)), n * 1 + 0,
                  pickle.loads(pickle.dumps(n))]
        assert all(r == n and hash(r) == hash(n) for r in routes)
        if p.is_zero():
            return
        # one coefficient changed, its numerator and denominator swapped included
        key, c = data.draw(st.sampled_from(p.terms))
        other = data.draw(st.sampled_from([c + 1, -c, Fraction(c.denominator, c.numerator)]))
        q = Poly({**dict(p.terms), key: other})
        if other != c:
            both = {p, q}
            assert q != p and len(both) == 2 and p in both and q in both

    def test_poly_never_equals_a_scalar(self):
        # a Poly equal to an int would need the int's hash, which a Poly does not have
        c = Poly.constant(3)
        assert c != 3 and 3 != c and c != Fraction(3)
        assert 3 not in {c} and c not in {3}
        assert c == Poly.constant(Fraction(6, 2)) and hash(c) == hash(Poly({(): 3.0}))

    @given(polys())
    def test_normalized_is_scale_invariant(self, p):
        if p.is_zero():
            return
        assert (Fraction(-7, 3) * p).normalized() == p.normalized()
        assert p.normalized().terms[0][1] == 1


canonical_keys = st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)


class TestTrustedConstructor:
    @given(st.lists(st.tuples(canonical_keys, coeffs), max_size=12), st.data())
    def test_canonical_matches_public_constructor(self, pairs, data):
        # accumulate with cancellations: some terms get their negation added
        acc: dict = {}
        for key, c in pairs:
            acc[key] = acc.get(key, Fraction(0)) + c
            if data.draw(st.booleans()):
                acc[key] -= c
        assert Poly._presorted(_sorted_terms(acc)).terms == Poly(acc).terms

    @given(polys(), polys())
    def test_ring_results_are_canonical(self, p, q):
        # re-validating through the public constructor changes nothing
        for r in (p + q, p * q, -p, p - q, p.normalized()):
            assert Poly(dict(r.terms)).terms == r.terms
        n = p.normalized()
        assert n.normalized() is n  # a normal form is its own


class TestStructure:
    def test_repeated_variable_in_a_key_multiplies(self):
        # x1 * x1 is x1^2: one canonical key, so equal to the ring product
        p = Poly({((1, 1), (1, 1)): 1})
        assert p == V(1) * V(1)
        assert p.terms == ((((1, 2),), Fraction(1)),)
        assert p.to_json() == [{"coeff": "1/1", "exps": {"1": 2}}]
        assert p.total_degree() == 2
        # keys that merge to one monomial add their coefficients
        q = Poly({((2, 1), (0, 3), (2, 2)): 1, ((0, 3), (2, 3)): 1})
        assert q.terms == ((((0, 3), (2, 3)), Fraction(2)),)

    def test_term_order_graded_lex(self):
        # degree first, then earlier variables dominate
        p = V(0) * V(4) + 2 * V(1) * V(4) + V(3) + 5
        keys = [k for k, _ in p.terms]
        assert keys[0] == ((0, 1), (4, 1))
        assert keys[1] == ((1, 1), (4, 1))
        assert keys[2] == ((3, 1),)
        assert keys[3] == ()

    def test_degrees(self):
        p = V(0) * V(0) * V(1) + V(2)
        assert p.total_degree() == 3
        assert p.variables() == (0, 1, 2)
        with pytest.raises(DegreeError):
            Poly.zero().total_degree()

    def test_json_round_trip(self):
        # the sheet reports' polynomial form loses nothing: parsing it back,
        # as a reader of the report would, gives the polynomial again
        p = Fraction(3, 7) * V(0) * V(5) - V(2) * V(2) + Fraction(1, 2)
        data = p.to_json()
        assert data[0] == {"coeff": "3/7", "exps": {"0": 1, "5": 1}}
        parsed = Poly(
            (tuple((int(v), e) for v, e in row["exps"].items()), Fraction(row["coeff"]))
            for row in data
        )
        assert parsed == p


class TestLayerwiseDegree:
    def test_homogeneous_profiles(self):
        s = NetworkShape([2, 2, 1])
        u = V(0) * V(4) + 2 * V(1) * V(4)  # layer-1 x layer-2
        assert layerwise_degree(u, s) == (1, 1)
        assert layerwise_degree(V(0) + 2 * V(1), s) == (1, 0)
        assert layerwise_degree(V(4), s) == (0, 1)

    def test_inhomogeneous_is_none(self):
        s = NetworkShape([2, 2, 1])
        assert layerwise_degree(V(0) + V(4), s) is None
        # still layer-homogeneous, just not multilinear: profile (2, 0)
        assert layerwise_degree(V(0) * V(1), s) == (2, 0)

    def test_zero_raises(self):
        s = NetworkShape([2, 2, 1])
        with pytest.raises(DegreeError):
            layerwise_degree(Poly.zero(), s)
