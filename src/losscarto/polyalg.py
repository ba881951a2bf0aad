"""Exact sparse multivariate polynomials over the flat weight variables.

Coefficients are fractions.Fraction, exponents are sparse.  A term key is
a tuple of (variable, exponent) pairs sorted by variable; the zero-degree
term key is ().  Polynomials are immutable and kept in a canonical order
(graded lexicographic, descending: higher total degree first, ties broken
lexicographically with lower variable index more significant), so
structural equality is mathematical equality and hashing works.

Float coefficients never appear here.  The public constructor checks and
canonicalizes its input, merging a variable repeated in one key; results
of the ring operations, whose keys are canonical already, are only sorted
(_sorted_terms) and handed to the trusted Poly._presorted.  Every other
caller of _presorted emits its terms in order: normalized and negation
keep every key, and so the order, and the segment builder and
Factorization.product in virtual build them in order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DegreeError
from .network import NetworkShape, Scalar, as_fraction

TermKey = tuple[tuple[int, int], ...]
MultiDegree = tuple[int, ...]


def _term_sort_key(key: TermKey):
    total = sum(e for _, e in key)
    return total, tuple((-v, e) for v, e in key)


def _sorted_terms(acc: Mapping[TermKey, Fraction]) -> tuple[tuple[TermKey, Fraction], ...]:
    """The nonzero terms of a canonical-key mapping, in canonical order."""
    return tuple(
        sorted(((k, c) for k, c in acc.items() if c), key=lambda kc: _term_sort_key(kc[0]), reverse=True)
    )


def _merge_keys(a: TermKey, b: TermKey) -> TermKey:
    out: dict[int, int] = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


class Poly:
    """Immutable exact polynomial; supports +, -, * and scalar ops."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[TermKey, Scalar] | Iterable[tuple[TermKey, Scalar]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[TermKey, Fraction] = {}
        for key, coeff in items:
            exps: dict[int, int] = {}
            for v, e in key:
                v, e = int(v), int(e)
                if e == 0:
                    continue
                if v < 0 or e < 0:
                    raise ValueError(f"bad term key {key}")
                exps[v] = exps.get(v, 0) + e  # x_v^a * x_v^b = x_v^(a+b)
            key = tuple(sorted(exps.items()))
            c = as_fraction(coeff)
            if c == 0:
                continue
            acc[key] = acc.get(key, Fraction(0)) + c
        object.__setattr__(self, "_terms", _sorted_terms(acc))

    @classmethod
    def _presorted(cls, terms: tuple[tuple[TermKey, Fraction], ...]) -> "Poly":
        """Trusted constructor: canonical keys, nonzero Fractions, canonical order."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a Poly from its terms, never through __setattr__,
        # and the cached hash is computed afresh
        return Poly, (self._terms,)

    # construction helpers

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def variable(v: int) -> "Poly":
        """The polynomial x_v; kept as the tests' reference constructor."""
        return Poly({((int(v), 1),): 1})

    # inspection

    @property
    def terms(self) -> tuple[tuple[TermKey, Fraction], ...]:
        """Canonical (descending graded-lex) term sequence."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        if not self._terms:
            raise DegreeError("zero polynomial has no degree")
        return sum(e for _, e in self._terms[0][0])

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for key, _ in self._terms:
            for v, _e in key:
                seen.add(v)
        return tuple(sorted(seen))

    def normalized(self) -> "Poly":
        """Scale so the leading coefficient is 1; kept as the tests' reference normal form."""
        if not self._terms or self._terms[0][1] == 1:
            return self
        lead = self._terms[0][1]
        return Poly._presorted(tuple((k, c / lead) for k, c in self._terms))

    # ring operations

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        # computed once, and from each coefficient's numerator and denominator:
        # hashing a Fraction takes a modular inverse, while a Fraction in lowest
        # terms already names its value, so equal polys still hash equal
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple((k, c.numerator, c.denominator) for k, c in self._terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __neg__(self) -> "Poly":
        return Poly._presorted(tuple((k, -c) for k, c in self._terms))

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return Poly._presorted(_sorted_terms(acc))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[TermKey, Fraction] = {}
        for ka, ca in self._terms:
            for kb, cb in other._terms:
                k = _merge_keys(ka, kb)
                acc[k] = acc.get(k, Fraction(0)) + ca * cb
        return Poly._presorted(_sorted_terms(acc))

    __rmul__ = __mul__

    # evaluation

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a point indexed by flat variable (floats enter as dyadics)."""
        vals = [as_fraction(p) for p in point]
        total = Fraction(0)
        pow_cache: dict[tuple[int, int], Fraction] = {}
        for key, coeff in self._terms:
            m = coeff
            for v, e in key:
                if v >= len(vals):
                    raise IndexError(f"variable {v} outside point of length {len(vals)}")
                p = pow_cache.get((v, e))
                if p is None:
                    p = vals[v] ** e
                    pow_cache[(v, e)] = p
                m *= p
            total += m
        return total

    # serialization

    def to_json(self) -> list[dict]:
        return [
            {"coeff": f"{c.numerator}/{c.denominator}", "exps": {str(v): e for v, e in key}}
            for key, c in self._terms
        ]

    def __repr__(self) -> str:
        if not self._terms:
            return "Poly(0)"
        bits = []
        for key, c in self._terms[:8]:
            mono = "*".join(f"w{v}" + (f"^{e}" if e > 1 else "") for v, e in key) or "1"
            bits.append(f"{c}*{mono}")
        suffix = " + ..." if len(self._terms) > 8 else ""
        return "Poly(" + " + ".join(bits) + suffix + ")"


def _coerce(x) -> "Poly":
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    return NotImplemented


_ZERO = Poly({})


# layer-aware operations


def layerwise_degree(p: Poly, shape: NetworkShape) -> MultiDegree | None:
    """Common layer-wise multidegree of p, or None when not homogeneous.

    Entry k-1 of the result is the total exponent of weight-layer-k
    variables in every monomial.  Raises DegreeError on the zero
    polynomial (its multidegree is undefined).
    """
    if p.is_zero():
        raise DegreeError("zero polynomial has no layer-wise degree")
    expected: MultiDegree | None = None
    n_layers = shape.depth - 1
    for key, _ in p.terms:
        vec = [0] * n_layers
        for v, e in key:
            vec[shape.weight_layer_of(v) - 1] += e
        cur = tuple(vec)
        if expected is None:
            expected = cur
        elif cur != expected:
            return None
    return expected
