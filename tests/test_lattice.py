"""Lattice canonicalization, relative position, and colength enumeration."""

import math

import pytest

import oracles
from waldq.lattice import (
    Coweight,
    Lattice2,
    SingularGenerators,
    canonicalize,
    closure_members,
    enumerate_in_position,
    position_count_formula,
    relative_position,
)
from waldq.series import LaurentPoly


def rand_unimodular(rng, q, steps=6):
    """Random product of elementary column operations (determinant a unit)."""
    rows = [[LaurentPoly.const(q, 1), LaurentPoly.const(q, 0)],
            [LaurentPoly.const(q, 0), LaurentPoly.const(q, 1)]]
    for _ in range(steps):
        c = rng.randrange(1, q)
        k = rng.randint(0, 3)
        f = LaurentPoly.from_terms(q, {k: c})
        if rng.random() < 0.5:
            # col0 += f * col1
            for r in rows:
                r[0] = r[0] + f * r[1]
        else:
            for r in rows:
                r[1] = r[1] + f * r[0]
        if rng.random() < 0.3:
            for r in rows:
                r[0], r[1] = r[1], r[0]
    return rows


def apply_cols(q, cols, u):
    """Multiply the 2x2 column matrix `cols` by `u` on the right."""
    (a, c), (b, d) = cols  # columns (a,c), (b,d)
    u00, u01 = u[0]
    u10, u11 = u[1]
    return (
        (a * u00 + b * u10, c * u00 + d * u10),
        (a * u01 + b * u11, c * u01 + d * u11),
    )


class TestCoweight:
    def test_parse_and_accessors(self):
        lam = Coweight.parse("3,1")
        assert lam == Coweight(3, 1)
        assert lam.is_dominant()
        assert lam.total() == 4
        assert not Coweight(0, 2).is_dominant()
        with pytest.raises(ValueError):
            Coweight.parse("3")

    def test_sort_order(self):
        assert Coweight(2, 0) < Coweight(3, 0)
        assert sorted([Coweight(1, 1), Coweight(2, 0)]) == [
            Coweight(1, 1),
            Coweight(2, 0),
        ]


class TestCanonicalize:
    def test_standard_and_diagonal(self):
        q = 3
        std = Lattice2.standard(q)
        assert std.triple == (0, 0, LaurentPoly.const(q, 0).raw)
        diag = Lattice2.diagonal(q, 2, -1)
        assert diag.triple == (2, -1, (0, ()))

    def test_skew_example(self):
        # span{(t^3, 0), (t, 1)} reduces to a=3, b=0, c=t
        q = 3
        t3 = LaurentPoly.t_power(q, 3)
        t1 = LaurentPoly.t_power(q, 1)
        one = LaurentPoly.const(q, 1)
        zero = LaurentPoly.const(q, 0)
        lat = canonicalize(q, ((t3, zero), (t1, one)))
        assert lat.triple == (3, 0, (1, (1,)))

    def test_singular_rejected(self):
        q = 3
        t1 = LaurentPoly.t_power(q, 1)
        zero = LaurentPoly.const(q, 0)
        with pytest.raises(SingularGenerators):
            canonicalize(q, ((t1, zero), (t1 + t1, zero)))

    def test_column_operations_invariant(self, rng):
        q = 3

        def rand_col():
            lo = rng.randint(-2, 1)
            terms = {k: rng.randrange(q) for k in range(lo, lo + 3)}
            return LaurentPoly.from_terms(q, terms)

        done = 0
        while done < 40:
            raw_cols = ((rand_col(), rand_col()), (rand_col(), rand_col()))
            try:
                base = canonicalize(q, raw_cols)
            except SingularGenerators:
                continue
            done += 1
            cols = base.basis()
            u = rand_unimodular(rng, q)
            moved = canonicalize(q, apply_cols(q, cols, u))
            assert moved == base

    def test_scale(self):
        q = 3
        lat = Lattice2.from_triple(q, 2, 0, (1, (1,)))
        up = lat.scale(3)
        assert up.triple == (5, 3, (4, (1,)))

    def test_json_roundtrip(self, rng):
        q = 5
        for _ in range(20):
            a = rng.randint(-2, 3)
            b = rng.randint(-2, a)
            if b < a:
                c = LaurentPoly.from_terms(
                    q, {k: rng.randrange(q) for k in range(b, a)}
                )
            else:
                c = LaurentPoly.const(q, 0)
            lat = Lattice2.from_triple(q, a, b, c.truncate(a).raw)
            assert Lattice2.from_json(q, lat.to_json()) == lat


class TestIntegerData:
    @pytest.mark.parametrize("bad", [1.7, True, "2", 2.0])
    def test_non_int_exponents_are_value_errors(self, bad):
        q = 3
        with pytest.raises(ValueError):
            Lattice2(q, bad, 0)
        with pytest.raises(ValueError):
            Lattice2(q, 1, bad)
        with pytest.raises(ValueError):
            Lattice2.from_json(q, {"a": bad, "b": 0, "c": LaurentPoly.zero(q).to_json()})
        with pytest.raises(ValueError):
            Lattice2.from_json(q, {"a": 1, "b": bad, "c": LaurentPoly.zero(q).to_json()})

    @pytest.mark.parametrize(
        "bad", [Coweight(True, 0), Coweight(2.5, 0), Coweight(2, False), Coweight("2", 0)]
    )
    def test_non_int_coweights_are_value_errors(self, bad):
        std = Lattice2.standard(3)
        for members in (closure_members, enumerate_in_position):
            with pytest.raises(ValueError):
                members(std, bad)


class TestRelativePosition:
    def test_self_is_zero(self):
        q = 3
        std = Lattice2.standard(q)
        assert relative_position(std, std) == Coweight(0, 0)

    def test_diagonal_pairs(self):
        q = 3
        std = Lattice2.standard(q)
        for a in range(0, 4):
            for b in range(-1, a + 1):
                lat = Lattice2.diagonal(q, a, b)
                assert relative_position(std, lat) == Coweight(a, b)

    def test_scaling_shifts(self):
        q = 3
        std = Lattice2.standard(q)
        for k in range(-2, 3):
            assert relative_position(std, std.scale(k)) == Coweight(k, k)

    def test_matches_quotient_type_oracle(self):
        # For sublattices of the standard lattice, the coweight equals the
        # elementary-divisor type of the finite quotient module.
        q = 3
        std = Lattice2.standard(q)
        for d in range(1, 4):
            for lam in [Coweight(d - i, i) for i in range(0, d // 2 + 1)]:
                for lat in closure_members(std, lam):
                    a2, b2, c2 = lat.triple
                    rows, pivots = oracles.lattice_rows(q, d, a2, b2, c2)
                    assert oracles.quotient_type(q, d, rows, pivots) == tuple(
                        relative_position(std, lat)
                    )


class TestEnumeration:
    def test_exact_counts_vs_formula_and_oracle(self):
        for q, dmax in ((3, 3), (5, 2)):
            std = Lattice2.standard(q)
            for d in range(1, dmax + 1):
                total_oracle, cyclic_oracle = oracles.stable_subspace_counts(q, d)
                members = list(enumerate_in_position(std, Coweight(d, 0)))
                assert len(members) == cyclic_oracle
                assert position_count_formula(q, d) == cyclic_oracle
                closure = list(closure_members(std, Coweight(d, 0)))
                assert len(closure) == total_oracle

    def test_members_distinct_sorted_and_positioned(self):
        q = 3
        std = Lattice2.standard(q)
        for lam in (Coweight(2, 0), Coweight(2, 1), Coweight(3, 0)):
            members = list(enumerate_in_position(std, lam))
            assert members == sorted(members, key=lambda m: m.sort_key)
            assert len(set(members)) == len(members)
            for m in members:
                assert relative_position(std, m) == lam

    def test_closure_is_disjoint_union_of_cells(self):
        q = 3
        std = Lattice2.standard(q)
        for d in range(1, 4):
            lam = Coweight(d, 0)
            closure = set(closure_members(std, lam))
            cells = []
            for e in range(0, d // 2 + 1):
                cells.extend(enumerate_in_position(std, Coweight(d - e, e)))
            assert set(cells) == closure
            assert len(cells) == len(closure)

    def test_count_formula_edge_cases(self):
        assert position_count_formula(3, 0) == 1
        assert position_count_formula(3, 1) == 4
        assert position_count_formula(3, 2) == 12
        assert position_count_formula(5, 2) == 30


def test_val_of_zero_poly_is_inf():
    q = 3
    assert LaurentPoly.const(q, 0).val == math.inf
