"""Symbolic character scalars: Q(sqrt q) coefficients, Laurent monomials."""

from fractions import Fraction

import pytest

from waldq.hecke import HeckeElement
from waldq.lattice import Coweight
from waldq.scalars import (
    LaurentScalar,
    NotAMonomial,
    ResidualSqrtQ,
    SqrtQ,
    ZeroAssignment,
    monomial_count,
    monomial_invert,
    specialize,
)
from waldq.waldspurger import WaldFunction


def rand_scalar(rng, q, nterms=3, span=2):
    x = LaurentScalar.zero(q)
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(-span, span) for _ in range(3))
        coeff = SqrtQ.of(q, Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)))
        x = x + LaurentScalar.monomial(q, exps, coeff) if not coeff.is_zero() else x
    return x


class TestSqrtQ:
    def test_r_squares_to_q(self):
        q = 3
        r = SqrtQ.of(q, 0, 1)
        assert r * r == SqrtQ.of(q, 3)
        assert (r + SqrtQ.one(q)) * (r - SqrtQ.one(q)) == SqrtQ.of(q, 2)

    def test_inverse(self):
        q = 5
        x = SqrtQ.of(q, Fraction(2), Fraction(3))  # 2 + 3r, norm 4 - 45 = -41
        assert x * x.inverse() == SqrtQ.one(q)
        with pytest.raises(ZeroDivisionError):
            SqrtQ.zero(q).inverse()

    def test_specialize_r(self):
        q = 9  # any odd prime power is fine at this layer; use 9 = 3^2, r = 3
        x = SqrtQ.of(9, 1, 1)
        assert x.specialize_r(3) == Fraction(4)
        rational = SqrtQ.of(9, Fraction(7, 2))
        assert rational.specialize_r() == Fraction(7, 2)
        with pytest.raises(ResidualSqrtQ):
            x.specialize_r()

    def test_is_rational(self):
        assert SqrtQ.of(3, 2).is_rational()
        assert not SqrtQ.of(3, 2, 1).is_rational()


class TestLaurentScalar:
    def test_constructors(self):
        q = 3
        assert LaurentScalar.zero(q).is_zero()
        assert LaurentScalar.one(q) == 1
        assert LaurentScalar.from_fraction(q, Fraction(2, 3)) == Fraction(2, 3)
        assert LaurentScalar.from_int(q, 7) == 7
        a = LaurentScalar.alpha(q)
        assert a.is_monomial() and a.sorted_terms()[0][0] == (1, 0, 0)

    def test_ring_axioms_random(self, rng):
        q = 3
        for _ in range(60):
            x, y, z = (rand_scalar(rng, q) for _ in range(3))
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + LaurentScalar.zero(q) == x
            assert x * LaurentScalar.one(q) == x
            assert x - x == LaurentScalar.zero(q)

    def test_pow_positive_and_negative(self):
        q = 3
        ab = LaurentScalar.alpha(q) * LaurentScalar.beta(q)
        cube = ab ** 3
        assert cube.sorted_terms()[0][0] == (3, 3, 0)
        inv = ab ** -2
        assert inv.sorted_terms()[0][0] == (-2, -2, 0)
        two = LaurentScalar.alpha(q) + LaurentScalar.beta(q)
        with pytest.raises(NotAMonomial):
            two ** -1

    def test_monomial_invert(self):
        q = 3
        g2 = LaurentScalar.monomial(q, (0, 0, 2), Fraction(3, 4))
        assert monomial_invert(g2) * g2 == LaurentScalar.one(q)
        with pytest.raises(NotAMonomial):
            monomial_invert(LaurentScalar.zero(q))

    def test_int_fraction_promotion(self):
        q = 3
        x = LaurentScalar.from_int(q, 2)
        assert x + 1 == 3
        assert 1 + x == 3
        assert x * Fraction(1, 2) == 1
        assert x - 2 == LaurentScalar.zero(q)

    def test_json_roundtrip(self, rng):
        q = 5
        for _ in range(25):
            x = rand_scalar(rng, q)
            assert LaurentScalar.from_json(q, x.to_json()) == x

    def test_str_is_deterministic(self):
        q = 3
        x = LaurentScalar.alpha(q) + LaurentScalar.beta(q) * 2
        assert str(x) == str(LaurentScalar.beta(q) * 2 + LaurentScalar.alpha(q))


class TestSpecialize:
    def test_split_assignment(self):
        q = 3
        x = LaurentScalar.alpha(q) ** 2 + LaurentScalar.beta(q)
        v = specialize(x, {"alpha": Fraction(2), "beta": Fraction(1, 3)})
        assert v == Fraction(4) + Fraction(1, 3)

    def test_negative_exponents(self):
        q = 3
        x = LaurentScalar.gamma(q) ** -2
        assert specialize(x, {"gamma": Fraction(2)}) == Fraction(1, 4)

    def test_zero_assignment_rejected(self):
        q = 3
        x = LaurentScalar.alpha(q)
        with pytest.raises(ZeroAssignment):
            specialize(x, {"alpha": 0})

    def test_missing_variable_raises(self):
        q = 3
        x = LaurentScalar.alpha(q) * LaurentScalar.gamma(q)
        with pytest.raises(KeyError):
            specialize(x, {"alpha": 1})

    def test_unused_variables_are_fine(self):
        q = 3
        x = LaurentScalar.alpha(q)
        assert specialize(x, {"alpha": 2, "gamma": 5}) == 2

    def test_residual_sqrt(self):
        q = 3
        x = LaurentScalar.r(q)
        with pytest.raises(ResidualSqrtQ):
            specialize(x, {})
        assert specialize(x, {}, r_value=Fraction(7)) == 7
        # even powers of r collapse to integers without an r assignment
        assert specialize(x * x, {}) == 3


def test_monomial_count_projections():
    q = 3
    a, b, g = LaurentScalar.alpha(q), LaurentScalar.beta(q), LaurentScalar.gamma(q)
    x = a * b + a ** 2 * b ** -1 + g
    assert monomial_count(x, ("alpha", "beta")) == 3
    assert monomial_count(x, ("alpha",)) == 3
    # a*b and g project to the same (beta, gamma) pattern? no: (1,0) vs (0,1)
    assert monomial_count(x, ("beta", "gamma")) == 3
    assert monomial_count(x, ()) == 1
    assert monomial_count(LaurentScalar.zero(q), ("alpha",)) == 0
    with pytest.raises(ValueError):
        monomial_count(x, ("delta",))


# (constructor from terms, the terms attribute, two keys, coefficient for an int)
NORMALISED_TYPES = {
    "LaurentScalar": (LaurentScalar, "terms", (1, 0, -1), (0, 2, 0), SqrtQ.of),
    "HeckeElement": (
        HeckeElement, "terms", Coweight(1, 0), Coweight(2, 2), LaurentScalar.from_fraction,
    ),
    "WaldFunction": (
        lambda q, t: WaldFunction(q, "split", t), "values", 0, 3, LaurentScalar.from_fraction,
    ),
}


@pytest.mark.parametrize("kind", sorted(NORMALISED_TYPES))
@pytest.mark.parametrize("form", ["dict", "pairs", "iterator"])
def test_constructor_is_the_normalisation_point(kind, form):
    make, attr, k1, k2, coeff = NORMALISED_TYPES[kind]
    q = 3
    if form == "dict":
        x = make(q, {k1: 7, k2: 0})
    else:
        pairs = [(k1, 2), (k2, 3), (k1, 5), (k2, -3)]
        x = make(q, pairs if form == "pairs" else iter(pairs))
    # repeats merged, cancelled and zero coefficients dropped
    assert getattr(x, attr) == {k1: coeff(q, 7)}
    assert getattr(x - x, attr) == {}
