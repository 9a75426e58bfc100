"""Torus embeddings, orbit invariants, and envelope characters."""

import pytest

from waldq.lattice import Lattice2, relative_position
from waldq.scalars import LaurentScalar
from waldq.series import LaurentPoly
from waldq.torus import (
    EtaleKind,
    NotInvertible,
    TorusClass,
    act_by_class,
    chi_c,
    embed,
    envelope,
    normalize,
    orbit_representative,
)


def rand_unit(rng, q, lead_at=0, width=3):
    terms = {lead_at: rng.randrange(1, q)}
    for k in range(lead_at + 1, lead_at + width):
        terms[k] = rng.randrange(q)
    return LaurentPoly.from_terms(q, terms)


def mat_mul(a, b):
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
        (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
    )


class TestEtaleKind:
    def test_parse(self):
        assert EtaleKind.parse("split") is EtaleKind.SPLIT
        assert EtaleKind.parse("Ramified") is EtaleKind.RAMIFIED
        with pytest.raises(ValueError):
            EtaleKind.parse("unramified")


class TestEmbed:
    def test_split_is_multiplicative(self, rng):
        q = 3
        for _ in range(30):
            x1, y1 = rand_unit(rng, q, rng.randint(-1, 1)), rand_unit(rng, q, rng.randint(-1, 1))
            x2, y2 = rand_unit(rng, q, rng.randint(-1, 1)), rand_unit(rng, q, rng.randint(-1, 1))
            lhs = embed(q, EtaleKind.SPLIT, x1 * x2, y1 * y2)
            rhs = mat_mul(
                embed(q, EtaleKind.SPLIT, x1, y1), embed(q, EtaleKind.SPLIT, x2, y2)
            )
            assert lhs == rhs

    def test_ramified_is_multiplicative(self, rng):
        # (x1 + s*y1)(x2 + s*y2) = (x1*x2 + t*y1*y2) + s*(x1*y2 + x2*y1)
        q = 3
        t = LaurentPoly.t_power(q, 1)
        for _ in range(30):
            x1, y1 = rand_unit(rng, q, rng.randint(-1, 1)), rand_unit(rng, q, rng.randint(-1, 1))
            x2, y2 = rand_unit(rng, q, rng.randint(-1, 1)), rand_unit(rng, q, rng.randint(-1, 1))
            lhs = embed(q, EtaleKind.RAMIFIED, x1 * x2 + t * y1 * y2, x1 * y2 + x2 * y1)
            rhs = mat_mul(
                embed(q, EtaleKind.RAMIFIED, x1, y1),
                embed(q, EtaleKind.RAMIFIED, x2, y2),
            )
            assert lhs == rhs

    def test_not_invertible(self):
        q = 3
        zero = LaurentPoly.zero(q)
        one = LaurentPoly.const(q, 1)
        with pytest.raises(NotInvertible):
            embed(q, EtaleKind.SPLIT, zero, one)
        # x + s*y with x^2 - t*y^2 = 0 never happens over a field of odd
        # residue characteristic unless both are zero
        with pytest.raises(NotInvertible):
            embed(q, EtaleKind.RAMIFIED, zero, zero)


class TestTorusClass:
    def test_identity_compose_inverse(self):
        c = TorusClass(EtaleKind.SPLIT, (2, -1))
        ident = TorusClass.identity(EtaleKind.SPLIT)
        assert ident.is_identity()
        assert c.compose(ident) == c
        assert c.compose(c.inverse()) == ident
        r = TorusClass(EtaleKind.RAMIFIED, (3,))
        assert r.compose(r.inverse()).is_identity()

    def test_exponent_arity_validated(self):
        with pytest.raises(ValueError):
            TorusClass(EtaleKind.SPLIT, (1,))
        with pytest.raises(ValueError):
            TorusClass(EtaleKind.RAMIFIED, (1, 2))

    def test_chi_monomials(self):
        q = 3
        c = TorusClass(EtaleKind.SPLIT, (2, 1))
        assert c.chi(q) == LaurentScalar.alpha(q) ** 2 * LaurentScalar.beta(q)
        r = TorusClass(EtaleKind.RAMIFIED, (-1,))
        assert r.chi(q) == LaurentScalar.gamma(q) ** -1

    def test_coordinates_embed(self):
        q = 3
        c = TorusClass(EtaleKind.SPLIT, (1, 0))
        x, y = c.coordinates(q)
        m = embed(q, EtaleKind.SPLIT, x, y)
        assert m[0][0] == LaurentPoly.t_power(q, 1)
        assert m[1][1] == LaurentPoly.const(q, 1)


class TestOrbits:
    def test_chi_c_values(self):
        q = 3
        assert chi_c(q, EtaleKind.SPLIT) == LaurentScalar.alpha(q) * LaurentScalar.beta(q)
        assert chi_c(q, EtaleKind.RAMIFIED) == LaurentScalar.gamma(q) ** 2

    def test_representative_normalizes_back(self):
        for q in (3, 5):
            for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
                for m in range(0, 6):
                    rep = orbit_representative(q, kind, m)
                    pt = normalize(rep, kind)
                    assert pt.m == m
                    assert pt.chi == LaurentScalar.one(q)

    def test_skew_lattice_example(self):
        # span{(t^3, 0), (t, 1)}: its split envelope is diag(t, 1) * O^2,
        # giving invariant m = 2 and character alpha.
        q = 3
        lat = Lattice2.from_triple(q, 3, 0, (1, (1,)))
        pt = normalize(lat, EtaleKind.SPLIT)
        assert pt.m == 2
        assert pt.chi == LaurentScalar.alpha(q)

    def test_envelope_contains_lattice(self):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            for m in range(0, 4):
                rep = orbit_representative(q, kind, m)
                cls, m_out = envelope(rep, kind)
                assert m_out == m
                env = act_by_class(cls, orbit_representative(q, kind, 0).scale(0))
                # relative position of L inside its envelope is dominant
                lam = relative_position(env, rep)
                assert lam.is_dominant()
                assert lam.a2 >= 0

    def test_action_twists_character(self, rng):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            arity = 2 if kind is EtaleKind.SPLIT else 1
            for _ in range(12):
                m = rng.randint(0, 4)
                exps = tuple(rng.randint(-2, 2) for _ in range(arity))
                cls = TorusClass(kind, exps)
                lat = orbit_representative(q, kind, m)
                moved = normalize(act_by_class(cls, lat), kind)
                assert moved.m == m
                assert moved.chi == cls.chi(q)

    def test_action_composes(self, rng):
        q = 3
        kind = EtaleKind.SPLIT
        for _ in range(10):
            c1 = TorusClass(kind, (rng.randint(-1, 2), rng.randint(-1, 2)))
            c2 = TorusClass(kind, (rng.randint(-1, 2), rng.randint(-1, 2)))
            lat = orbit_representative(q, kind, rng.randint(0, 3))
            assert act_by_class(c1, act_by_class(c2, lat)) == act_by_class(
                c1.compose(c2), lat
            )
