"""Spherical Hecke algebra: convolution tables, the satake_basis family, characters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from waldq.hecke import (
    HeckeElement,
    ZeroEigenvalue,
    central_normalize,
    convolve,
    satake_basis,
    schur_gl2,
    to_satake,
)
from waldq.lattice import Coweight
from waldq.scalars import LaurentScalar, specialize
from waldq.torus import EtaleKind
from waldq.waldspurger import WaldFunction


def T(q, a1, a2):
    return HeckeElement.basis(q, Coweight(a1, a2))


def rand_element(rng, q, npool):
    h = HeckeElement.zero(q)
    for _ in range(rng.randint(1, 3)):
        a2 = rng.randint(-1, 1)
        a1 = a2 + rng.randint(0, 2)
        h = h + T(q, a1, a2).scaled(rng.randint(-3, 3))
    return h


# every entry point that takes a coweight checks it the same way: ints (not
# bool) and dominant, else a ValueError; the lattice side (_shifted) is
# covered in test_lattice
COWEIGHT_ENTRY_POINTS = {
    "basis": lambda lam: HeckeElement.basis(3, lam),
    "terms": lambda lam: HeckeElement(3, {lam: 1}),
    "satake_basis": lambda lam: satake_basis(3, lam),
    "schur_gl2": lambda lam: schur_gl2(lam, 2, 3),
}


@pytest.mark.parametrize("entry", sorted(COWEIGHT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "lam, message",
    [
        ((1.5, 0), "must be integers"),
        ((True, 0), "must be integers"),
        (Coweight(2, False), "must be integers"),
        (("2", 0), "must be integers"),
        ((0, 1), "not dominant"),
        (Coweight(-1, 0), "not dominant"),
    ],
)
def test_coweight_entry_points_check_alike(entry, lam, message):
    with pytest.raises(ValueError, match=message):
        COWEIGHT_ENTRY_POINTS[entry](lam)


class TestElement:
    def test_constructors_and_support(self):
        q = 3
        h = T(q, 2, 0) + T(q, 1, 1).scaled(5)
        assert h.support() == (Coweight(1, 1), Coweight(2, 0))
        assert h.coefficient(Coweight(2, 0)) == LaurentScalar.one(q)
        assert h.coefficient(Coweight(0, 0)).is_zero()
        assert HeckeElement.unit(q) == T(q, 0, 0)
        assert HeckeElement.zero(q).is_zero()

    def test_nondominant_rejected(self):
        with pytest.raises(ValueError):
            HeckeElement.basis(3, Coweight(0, 1))

    def test_scaling_and_zero_drop(self):
        q = 3
        h = T(q, 1, 0).scaled(2) - T(q, 1, 0).scaled(2)
        assert h.is_zero() and h.support() == ()

    def test_eq_hash_json(self):
        q = 3
        h = T(q, 2, 1).scaled(Fraction(1, 2)) + T(q, 0, 0)
        assert HeckeElement.from_json(h.to_json()) == h
        assert hash(h) == hash(T(q, 0, 0) + T(q, 2, 1).scaled(Fraction(1, 2)))


# Pairs whose term dicts are equal but which lie in different spaces: the
# two types share one sum implementation, so only the type, q and kind
# keep them apart.
APART = {
    "hecke-vs-function": (HeckeElement.zero(3), WaldFunction(3, "split")),
    "hecke-q": (HeckeElement.zero(3), HeckeElement.zero(5)),
    "function-q": (WaldFunction(3, "split"), WaldFunction(5, "split")),
    "function-kind": (WaldFunction(3, "split", {0: 1}), WaldFunction(3, "ramified", {0: 1})),
}


class TestSharedSums:
    @pytest.mark.parametrize("name", sorted(APART))
    def test_equal_terms_in_different_spaces_are_unequal(self, name):
        x, y = APART[name]
        assert x.terms == y.terms
        assert x != y and y != x

    def test_hecke_and_function_do_not_combine(self):
        h, f = HeckeElement.unit(3), WaldFunction(3, "split", {0: 1})
        for a, b in ((h, f), (f, h)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b

    @pytest.mark.parametrize(
        "x, y",
        [
            (HeckeElement.unit(3), HeckeElement.unit(5)),
            (WaldFunction(3, "split", {0: 1}), WaldFunction(5, "split", {0: 1})),
            (WaldFunction(3, "split", {0: 1}), WaldFunction(3, "ramified", {0: 1})),
        ],
        ids=["hecke-q", "function-q", "function-kind"],
    )
    def test_mixed_spaces_raise(self, x, y):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            y - x

    def test_equal_objects_hash_alike(self):
        q = 3
        built = [
            (
                HeckeElement(q, {(1, 0): 2, (0, 0): 1}),
                HeckeElement(q, [(Coweight(0, 0), 1), (Coweight(1, 0), 2)]),
            ),
            (HeckeElement.zero(q), T(q, 1, 0) - T(q, 1, 0)),
            (
                WaldFunction(q, "split", {2: 1, 0: 3}),
                WaldFunction(q, "split", [(0, 1), (2, 1), (0, 2)]),
            ),
            (WaldFunction(q, "ramified"), -WaldFunction(q, "ramified")),
        ]
        for x, y in built:
            assert x == y
            assert hash(x) == hash(y)


class TestConvolution:
    def test_unit_is_neutral(self, rng):
        q = 3
        for _ in range(10):
            h = rand_element(rng, q, 3)
            assert convolve(HeckeElement.unit(q), h) == h
            assert h * HeckeElement.unit(q) == h

    def test_minuscule_square(self):
        # T(1,0) * T(1,0) = T(2,0) + (q+1) T(1,1) at every q
        for q in (3, 5):
            got = T(q, 1, 0) * T(q, 1, 0)
            want = T(q, 2, 0) + T(q, 1, 1).scaled(q + 1)
            assert got == want

    def test_depth_two_product(self):
        # T(1,0) * T(2,0) = T(3,0) + q T(2,1); the q (not q+1) reflects the
        # boundary cell being strictly smaller
        for q in (3, 5):
            got = T(q, 1, 0) * T(q, 2, 0)
            want = T(q, 3, 0) + T(q, 2, 1).scaled(q)
            assert got == want

    def test_central_shift_is_free(self, rng):
        q = 3
        for _ in range(10):
            h = rand_element(rng, q, 3)
            shifted = convolve(T(q, 1, 1), h)
            assert shifted.support() == tuple(
                Coweight(cw.a1 + 1, cw.a2 + 1) for cw in h.support()
            )

    def test_commutative_and_associative(self, rng):
        q = 3
        for _ in range(12):
            x, y, z = (rand_element(rng, q, 3) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)

    def test_distributes(self, rng):
        q = 5
        for _ in range(8):
            x, y, z = (rand_element(rng, q, 3) for _ in range(3))
            assert x * (y + z) == x * y + x * z


class TestSatakeBasis:
    POOL = [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
        (4, 0), (4, 2),
    ]

    def test_nonnegative_integer_coefficients(self):
        for q in (3, 5):
            for lam in self.POOL:
                el = satake_basis(q, lam)
                for cw in el.support():
                    c = specialize(el.coefficient(cw), {})
                    assert c == int(c) and c >= 0

    def test_unitriangular(self):
        q = 3
        for lam in self.POOL:
            el = satake_basis(q, lam)
            lead = el.coefficient(Coweight(*lam))
            assert lead == LaurentScalar.one(q)
            for cw in el.support():
                assert cw.total() == Coweight(*lam).total()
                assert cw.a1 <= lam[0]

    def test_expansion_roundtrip(self, rng):
        q = 3
        for _ in range(10):
            h = rand_element(rng, q, 3)
            expansion = to_satake(h)
            back = HeckeElement.zero(q)
            for lam, coeff in expansion.items():
                back = back + satake_basis(q, lam).scaled(coeff)
            assert back == h

    def test_expansion_of_basis_is_delta(self):
        q = 3
        for lam in self.POOL:
            exp = to_satake(satake_basis(q, lam))
            assert exp == {Coweight(*lam): LaurentScalar.one(q)}

    def test_pieri_rule(self):
        # A(1,0) * A(d,0) = A(d+1,0) + A(d,1) with unit coefficients
        q = 3
        one = LaurentScalar.one(q)
        for d in range(1, 5):
            prod = convolve(satake_basis(q, (1, 0)), satake_basis(q, (d, 0)))
            assert to_satake(prod) == {
                Coweight(d + 1, 0): one,
                Coweight(d, 1): one,
            }

    def test_low_rank_closed_forms(self):
        q = 3
        a20 = satake_basis(q, (2, 0))
        assert a20 == T(q, 2, 0) + T(q, 1, 1).scaled(q)
        a30 = satake_basis(q, (3, 0))
        assert a30 == T(q, 3, 0) + T(q, 2, 1).scaled(2 * q - 1)


class TestSchur:
    def test_known_value(self):
        assert schur_gl2((2, 0), 2, 3) == 19  # 4 + 6 + 9

    def test_degenerate_equal_eigenvalues(self):
        assert schur_gl2((3, 0), 2, 2) == 4 * 8  # (n+1) e^n
        assert schur_gl2((2, 1), Fraction(1, 2), Fraction(1, 2)) == Fraction(2, 8)

    def test_dimension_at_one(self):
        for a1 in range(0, 5):
            for a2 in range(0, a1 + 1):
                assert schur_gl2((a1, a2), 1, 1) == a1 - a2 + 1

    def test_errors(self):
        with pytest.raises(ValueError):
            schur_gl2((0, 1), 2, 3)
        with pytest.raises(ZeroEigenvalue):
            schur_gl2((1, 0), 0, 3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 9),
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
        st.one_of(
            st.none(), st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
        ),
    )
    def test_integer_sum_matches_fraction_powers(self, n, a2, e1, e2):
        # e2 = None stands for e2 == e1, the degenerate case
        e2 = e1 if e2 is None else e2
        got = schur_gl2((a2 + n, a2), e1, e2)
        assert type(got) is Fraction
        assert got == oracles.schur_gl2_naive((a2 + n, a2), e1, e2)
        with pytest.raises(ValueError):
            schur_gl2((a2, a2 + n + 1), e1, e2)
        for zero in ((0, e2), (e1, 0)):
            with pytest.raises(ZeroEigenvalue):
                schur_gl2((a2 + n, a2), *zero)


class TestCentralNormalize:
    def test_rewrites_central_component(self):
        q = 3
        h = T(q, 2, 1)
        out = central_normalize(h, EtaleKind.SPLIT)
        assert out.support() == (Coweight(1, 0),)
        ab = LaurentScalar.alpha(q) * LaurentScalar.beta(q)
        assert out.coefficient(Coweight(1, 0)) == ab

    def test_ramified_uses_gamma_squared(self):
        q = 3
        out = central_normalize(T(q, 1, 1), "ramified")
        assert out.coefficient(Coweight(0, 0)) == LaurentScalar.gamma(q) ** 2

    def test_is_multiplicative(self, rng):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            for _ in range(8):
                x, y = rand_element(rng, q, 3), rand_element(rng, q, 3)
                lhs = central_normalize(convolve(x, y), kind)
                rhs_x = central_normalize(x, kind)
                rhs_y = central_normalize(y, kind)
                assert lhs == central_normalize(convolve(rhs_x, rhs_y), kind)
