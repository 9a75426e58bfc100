"""The torus-equivariant function module and its basis/eigenvector checks."""

from fractions import Fraction

import pytest

import oracles
from waldq import hecke, waldspurger
from waldq.hecke import HeckeElement, ZeroEigenvalue, convolve, satake_basis
from waldq.lattice import Coweight
from waldq.scalars import LaurentScalar
from waldq.torus import EtaleKind, chi_c
from waldq.waldspurger import (
    CharacterParams,
    TruncationTooSmall,
    WaldFunction,
    WaldModel,
)


def T(q, a1, a2):
    return HeckeElement.basis(q, Coweight(a1, a2))


def rand_hecke(rng, q):
    h = HeckeElement.zero(q)
    for _ in range(rng.randint(1, 2)):
        a2 = rng.randint(-1, 1)
        a1 = a2 + rng.randint(0, 2)
        h = h + T(q, a1, a2).scaled(rng.randint(-2, 3))
    return h


def rand_fn(rng, q, kind):
    vals = {}
    for _ in range(rng.randint(1, 3)):
        vals[rng.randint(0, 3)] = rng.randint(-3, 3)
    return WaldFunction(q, kind, vals)


class TestCharacterParams:
    def test_symbolic_default(self):
        p = CharacterParams(EtaleKind.SPLIT)
        assert p.symbolic and p.values() == {}
        with pytest.raises(ValueError):
            CharacterParams(EtaleKind.SPLIT, assignment={"alpha": 1})

    def test_numeric_split(self):
        p = CharacterParams(
            EtaleKind.SPLIT, symbolic=False, assignment={"alpha": 2, "beta": "1/2"}
        )
        assert p.values() == {"alpha": Fraction(2), "beta": Fraction(1, 2)}
        # class-exponent order, whatever the order given
        assert p.assignment == (("alpha", Fraction(2)), ("beta", Fraction(1, 2)))
        swapped = CharacterParams(EtaleKind.SPLIT, symbolic=False, assignment={"beta": 3, "alpha": 1})
        assert [name for name, _v in swapped.assignment] == ["alpha", "beta"]

    def test_numeric_validation(self):
        with pytest.raises(ValueError):
            CharacterParams(EtaleKind.SPLIT, symbolic=False, assignment={"alpha": 1})
        with pytest.raises(ValueError):
            CharacterParams(
                EtaleKind.SPLIT, symbolic=False, assignment={"alpha": 1, "beta": 0}
            )
        with pytest.raises(ValueError):
            CharacterParams(
                EtaleKind.RAMIFIED, symbolic=False, assignment={"gamma": 1, "alpha": 2}
            )
        p = CharacterParams(EtaleKind.RAMIFIED, symbolic=False, assignment={"gamma": 3})
        assert p.values() == {"gamma": Fraction(3)}


class TestWaldFunction:
    def test_arithmetic_and_eq(self):
        q = 3
        f = WaldFunction(q, "split", {0: 1, 2: Fraction(1, 2)})
        g = WaldFunction(q, "split", {2: Fraction(1, 2)})
        assert (f - g).support() == (0,)
        assert f + (-f) == WaldFunction(q, "split", {})
        assert f.scaled(2).value(2) == 1
        assert (2 * f).value(0) == 2

    def test_validation(self):
        q = 3
        with pytest.raises(ValueError):
            WaldFunction(q, "split", {-1: 1})
        f = WaldFunction(q, "split", {0: 1})
        g = WaldFunction(q, "ramified", {0: 1})
        with pytest.raises(ValueError):
            f + g

    def test_bool_orbit_index_rejected(self):
        # True == 1, but an orbit index that serializes as "m": true is not one
        q = 3
        model = WaldModel(q, EtaleKind.SPLIT)
        with pytest.raises(ValueError):
            WaldFunction(q, "split", {True: 1})
        with pytest.raises(ValueError):
            model.delta(True)
        with pytest.raises(ValueError):
            model.ic_basis(True)
        assert model.delta(1).to_json()["values"][0]["m"] == 1

    def test_json_roundtrip(self, rng):
        q = 3
        for kind in ("split", "ramified"):
            for _ in range(10):
                f = rand_fn(rng, q, kind)
                assert WaldFunction.from_json(f.to_json()) == f

    def test_symbolic_values(self):
        q = 3
        f = WaldFunction(q, "split", {1: LaurentScalar.alpha(q)})
        assert f.value(1) == LaurentScalar.alpha(q)
        assert f.value(5).is_zero()


class TestBasisFunctions:
    def test_degree_one_split(self):
        q = 3
        model = WaldModel(q, EtaleKind.SPLIT)
        w1 = model.ic_basis(1)
        a, b = LaurentScalar.alpha(q), LaurentScalar.beta(q)
        assert w1.values == {0: a + b, 1: a * b}

    def test_degree_two_split(self):
        q = 3
        model = WaldModel(q, EtaleKind.SPLIT)
        w2 = model.ic_basis(2)
        a, b = LaurentScalar.alpha(q), LaurentScalar.beta(q)
        assert w2.value(0) == b * b + a * b * q + a * a
        assert w2.value(1) == a * b * b + a * a * b
        assert w2.value(2) == a * a * b * b

    def test_degree_one_ramified(self):
        q = 3
        model = WaldModel(q, EtaleKind.RAMIFIED)
        w1 = model.ic_basis(1)
        g = LaurentScalar.gamma(q)
        assert w1.values == {0: g, 1: g * g}

    def test_monomial_count_pattern(self):
        q = 3
        for kind, expect in (
            (EtaleKind.SPLIT, lambda d, m: d - m + 1),
            (EtaleKind.RAMIFIED, lambda d, m: 1),
        ):
            model = WaldModel(q, kind)
            for d in range(0, 5):
                wd = model.ic_basis(d)
                assert set(wd.support()) == set(range(d + 1))
                for m in range(d + 1):
                    assert len(wd.value(m).terms) == expect(d, m)

    def test_recurrence(self):
        # T(1,0) * w_d = w_(d+1) + chi_c * w_(d-1), exactly, symbolically
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            model = WaldModel(q, kind)
            cc = chi_c(q, kind)
            for d in range(1, 5):
                lhs = model.act(T(q, 1, 0), model.ic_basis(d))
                rhs = model.ic_basis(d + 1) + model.ic_basis(d - 1).scaled(cc)
                assert lhs == rhs

    def test_generated_from_delta(self):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            model = WaldModel(q, kind)
            for d in range(0, 4):
                assert model.ic_basis(d) == model.act(
                    satake_basis(q, (d, 0)), model.delta0()
                )


class TestAction:
    def test_support_window(self, rng):
        q = 3
        model = WaldModel(q, EtaleKind.SPLIT)
        for _ in range(12):
            a2 = rng.randint(-1, 1)
            a1 = a2 + rng.randint(0, 3)
            width = a1 - a2
            m0 = rng.randint(0, 3)
            out = model.act(T(q, a1, a2), model.delta(m0))
            assert all(abs(m - m0) <= width for m in out.support())

    def test_module_axiom_both_conventions(self, rng):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            for convention in ("standard", "mirror"):
                model = WaldModel(q, kind, convention)
                for _ in range(6):
                    h1, h2 = rand_hecke(rng, q), rand_hecke(rng, q)
                    f = rand_fn(rng, q, kind)
                    assert model.act(h1, model.act(h2, f)) == model.act(
                        convolve(h1, h2), f
                    )

    def test_linear_in_both_slots(self, rng):
        q = 3
        model = WaldModel(q, EtaleKind.RAMIFIED)
        for _ in range(6):
            h1, h2 = rand_hecke(rng, q), rand_hecke(rng, q)
            f1, f2 = rand_fn(rng, q, "ramified"), rand_fn(rng, q, "ramified")
            assert model.act(h1 + h2, f1) == model.act(h1, f1) + model.act(h2, f1)
            assert model.act(h1, f1 + f2) == model.act(h1, f1) + model.act(h1, f2)

    def test_kind_and_q_mismatch(self):
        model = WaldModel(3, EtaleKind.SPLIT)
        f_ram = WaldFunction(3, "ramified", {0: 1})
        with pytest.raises(ValueError):
            model.act(T(3, 1, 0), f_ram)
        f5 = WaldFunction(5, "split", {0: 1})
        with pytest.raises(ValueError):
            model.act(T(3, 1, 0), f5)
        with pytest.raises(TypeError):
            model.act("T", f_ram)


class TestCounts:
    def test_minimal_orbit_grid(self):
        q = 3
        for kind, on_orbit in (
            (EtaleKind.SPLIT, lambda d, m: d - m + 1),
            (EtaleKind.RAMIFIED, lambda d, m: 1),
        ):
            model = WaldModel(q, kind)
            for d in range(0, 5):
                for m in range(0, 5):
                    want = 0 if d < m else on_orbit(d, m)
                    assert model.minimal_orbit_counts(d, m) == want

    def test_stratum_counts_sum_to_closure_size(self):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            model = WaldModel(q, kind)
            for d in range(1, 4):
                total, _cyclic = oracles.stable_subspace_counts(q, d)
                got = sum(
                    model.orbit_stratum_counts(Coweight(d, 0), m)
                    for m in range(0, d + 1)
                )
                assert got == total

    def test_stratum_zero_matches_minimal(self):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            model = WaldModel(q, kind)
            for d in range(0, 5):
                assert model.orbit_stratum_counts(
                    Coweight(d, 0), 0
                ) == model.minimal_orbit_counts(d, 0)


class TestMatrices:
    def test_multone_upper_triangular_chi_c_diagonal(self):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            model = WaldModel(q, kind)
            mat = model.multone_matrix(4)
            cc = chi_c(q, kind)
            for m in range(5):
                for a in range(m):
                    assert mat[m][a].is_zero()
                assert mat[m][m] == cc ** m

    def test_cs_matrix_columns_are_basis_functions(self):
        q = 3
        for kind in (EtaleKind.SPLIT, EtaleKind.RAMIFIED):
            model = WaldModel(q, kind)
            mat = model.cs_matrix(4)
            for d in range(5):
                wd = model.ic_basis(d)
                for m in range(5):
                    assert mat[m][d] == wd.value(m)
                    if m > d:
                        assert mat[m][d].is_zero()

    def test_depth_validation(self):
        model = WaldModel(3, EtaleKind.SPLIT)
        with pytest.raises(ValueError):
            model.multone_matrix(-1)
        with pytest.raises(ValueError):
            model.cs_matrix(-2)


class TestEigenCheck:
    def test_hand_example(self):
        q = 3
        model = WaldModel(q, EtaleKind.SPLIT)
        params = CharacterParams(
            EtaleKind.SPLIT, symbolic=False, assignment={"alpha": 1, "beta": 1}
        )
        out = model.eigen_check(2, 2, params)
        assert out["e2"] == "1/2"
        assert out["window_required"] == 1
        assert out["window"] >= 1
        assert out["eigen_pass"] and out["defect_pass"] and out["central_pass"]
        assert out["pass"]

    def test_numeric_draws(self, rng):
        q = 3
        for kind, names in (
            (EtaleKind.SPLIT, ("alpha", "beta")),
            (EtaleKind.RAMIFIED, ("gamma",)),
        ):
            model = WaldModel(q, kind)
            for depth in (3, 4):
                assignment = {
                    n: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for n in names
                }
                params = CharacterParams(kind, symbolic=False, assignment=assignment)
                e1 = Fraction(rng.randint(1, 4))
                out = model.eigen_check(depth, e1, params)
                assert out["pass"], out

    def test_errors(self):
        q = 3
        model = WaldModel(q, EtaleKind.SPLIT)
        numeric = CharacterParams(
            EtaleKind.SPLIT, symbolic=False, assignment={"alpha": 1, "beta": 2}
        )
        with pytest.raises(TruncationTooSmall):
            model.eigen_check(1, 2, numeric)
        with pytest.raises(ValueError):
            model.eigen_check(3, 2, CharacterParams(EtaleKind.SPLIT))
        with pytest.raises(ZeroEigenvalue):
            model.eigen_check(3, 0, numeric)
        ram = CharacterParams(EtaleKind.RAMIFIED, symbolic=False, assignment={"gamma": 2})
        with pytest.raises(ValueError):
            model.eigen_check(3, 2, ram)

    def test_matches_the_symbolic_route(self, rng):
        # the whole result dict against the check run over LaurentScalars
        def draw():
            return Fraction(rng.choice((-9, -5, -4, -3, -2, -1, 1, 2, 3, 5, 7)), rng.randint(1, 9))

        for kind, names in (
            (EtaleKind.SPLIT, ("alpha", "beta")),
            (EtaleKind.RAMIFIED, ("gamma",)),
        ):
            for q in (3, 5, 7):
                model = WaldModel(q, kind)
                for depth in range(2, 8):
                    assignment = {n: draw() for n in names}
                    params = CharacterParams(kind, symbolic=False, assignment=assignment)
                    e1 = draw()
                    want = oracles.eigen_check_symbolic(model, depth, e1, params)
                    assert model.eigen_check(depth, e1, params) == want

    def test_window_past_the_required_one(self):
        # alpha*beta = -4 and e1 = 2 give e2 = -e1, so every odd h_n vanishes:
        # at even depth both sides agree through degree depth, not depth-1
        params = CharacterParams(
            EtaleKind.SPLIT, symbolic=False, assignment={"alpha": -4, "beta": 1}
        )
        model = WaldModel(3, EtaleKind.SPLIT)
        for depth in range(2, 8):
            out = model.eigen_check(depth, 2, params)
            assert out == oracles.eigen_check_symbolic(model, depth, 2, params)
            assert out["e2"] == "-2"
            assert out["window"] == (depth if depth % 2 == 0 else depth - 1)
            assert out["pass"]

    # Each planted defect doubles the counts of some transition rows, and so
    # fails one flag of the check: T(1,0) moving from orbit 1 to orbit 2
    # (the eigen side; the defect identity fails with it), the rows into
    # orbit 0 at total degree depth + 1 (they double W_{depth+1} alone, so
    # the window still holds), and T(1,1) fixing orbit 1 (the central
    # element).  No row into orbit 0 of degree <= depth changes, so the
    # basis functions W_0..W_depth stay as they are.
    PLANTED = {
        "eigen_pass": lambda top, lam, m0, m1: lam == (1, 0) and (m0, m1) == (1, 2),
        "defect_pass": lambda top, lam, m0, m1: sum(lam) == top and m1 == 0,
        "central_pass": lambda top, lam, m0, m1: lam == (1, 1) and m0 == 1,
    }

    @pytest.mark.parametrize("flag", sorted(PLANTED))
    @pytest.mark.parametrize("kind", [EtaleKind.SPLIT, EtaleKind.RAMIFIED])
    def test_planted_defect_fails_like_the_symbolic_route(self, monkeypatch, flag, kind):
        tables = (
            hecke._pair_product,
            hecke._satake_cached,
            waldspurger._transitions,
            waldspurger._arrivals,
            waldspurger._stratum_table,
            waldspurger._ic_cached,
        )
        planted = self.PLANTED[flag]
        true_rows = waldspurger._transitions
        depth, e1 = 3, Fraction(-2, 7)

        def transitions(q, kind_value, m0, lam):
            return tuple(
                (m1, exps, 2 * n if planted(depth + 1, lam, m0, m1) else n)
                for m1, exps, n in true_rows(q, kind_value, m0, lam)
            )

        params = CharacterParams(
            kind, symbolic=False, assignment=dict(zip(kind.variables, (Fraction(3, 2), -5)))
        )
        model = WaldModel(3, kind)
        for table in tables:
            table.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(waldspurger, "_transitions", transitions)
                out = model.eigen_check(depth, e1, params)
                want = oracles.eigen_check_symbolic(model, depth, e1, params)
        finally:
            for table in tables:
                table.cache_clear()
        assert out == want
        assert not out[flag] and not out["pass"]
        # the defect is the only fault: a failing eigen side fails the defect
        # identity too, and nothing else fails
        failed = {f for f in self.PLANTED if not out[f]}
        assert failed == ({"eigen_pass", "defect_pass"} if flag == "eigen_pass" else {flag})
        assert model.eigen_check(depth, e1, params)["pass"]

    def test_ramified_needs_r_or_even_powers(self):
        # gamma assignments keep everything rational: chi_c = gamma^2
        q = 3
        model = WaldModel(q, EtaleKind.RAMIFIED)
        params = CharacterParams(
            EtaleKind.RAMIFIED, symbolic=False, assignment={"gamma": Fraction(3, 2)}
        )
        out = model.eigen_check(3, 3, params)
        assert out["pass"]


def test_convention_validation():
    with pytest.raises(ValueError):
        WaldModel(3, EtaleKind.SPLIT, convention="sideways")
