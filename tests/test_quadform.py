"""Symmetric forms over O: diagonalization certificates and covering types."""

import pytest

import oracles
from waldq import _purekern as _pk
from waldq.quadform import (
    CoveringType,
    Delta,
    FormInvariant,
    PrecisionExhausted,
    SymMatrixO,
    covering_type,
    default_precision,
    diagonalize,
    isotropic_line_count,
    least_nonsquare,
    legendre,
    normal_form,
    normal_transport,
)
from waldq.series import LaurentPoly


def rand_form(rng, q, vmax=2, width=3):
    """A random symmetric matrix over O with det valuation <= 2*vmax + width."""
    while True:
        entries = []
        for _ in range(3):
            v = rng.randint(0, vmax)
            terms = {v + k: rng.randrange(q) for k in range(width)}
            entries.append(LaurentPoly.from_terms(q, terms))
        try:
            return SymMatrixO(*entries)
        except ValueError:
            continue


def rand_change(rng, q):
    """A random matrix in GL2(O) (unit determinant) and a unit scalar."""
    while True:
        rows = []
        for _ in range(2):
            row = []
            for _ in range(2):
                terms = {k: rng.randrange(q) for k in range(0, 2)}
                row.append(LaurentPoly.from_terms(q, terms))
            rows.append(tuple(row))
        a_mat = (tuple(rows[0]), tuple(rows[1]))
        det = a_mat[0][0] * a_mat[1][1] - a_mat[0][1] * a_mat[1][0]
        if not det.is_zero() and det.off == 0:
            break
    eps = LaurentPoly.from_terms(q, {0: rng.randrange(1, q), 1: rng.randrange(q)})
    return a_mat, eps


class TestResidueHelpers:
    def test_legendre(self):
        assert [legendre(3, r) for r in range(3)] == [0, 1, -1]
        assert [legendre(5, r) for r in range(5)] == [0, 1, -1, -1, 1]
        assert legendre(7, 2) == 1 and legendre(7, 3) == -1

    def test_least_nonsquare(self):
        assert least_nonsquare(3) == 2
        assert least_nonsquare(5) == 2
        assert least_nonsquare(7) == 3


class TestSymMatrixO:
    def test_validation(self):
        q = 3
        one = LaurentPoly.const(q, 1)
        zero = LaurentPoly.zero(q)
        neg = LaurentPoly.t_power(q, -1)
        with pytest.raises(ValueError):
            SymMatrixO(neg, zero, one)
        with pytest.raises(ValueError):
            SymMatrixO(one, one, one)  # det = 0
        m = SymMatrixO(one, zero, one)
        with pytest.raises(AttributeError):
            m.e11 = one

    def test_det(self):
        q = 3
        b = SymMatrixO.from_entries(q, {1: 1}, {1: 1}, {1: 1, 2: 1})
        assert b.det == LaurentPoly.t_power(q, 3)
        assert b.det_valuation == 3
        assert default_precision(b) == 8

    def test_json_roundtrip_and_symmetry_check(self):
        q = 3
        b = SymMatrixO.from_entries(q, {0: 1}, {1: 2}, {0: 1, 1: 1})
        assert SymMatrixO.from_json(q, b.to_json()) == b
        bad = b.to_json()
        bad[1][0] = LaurentPoly.const(q, 1).to_json()
        with pytest.raises(ValueError):
            SymMatrixO.from_json(q, bad)


class TestDiagonalize:
    def test_diag_unit_t(self):
        q = 3
        b = SymMatrixO.from_entries(q, {0: 1}, {}, {1: 1})
        inv, a_mat, eps = diagonalize(b)
        assert inv == FormInvariant(1, 0, Delta.SQUARE)

    def test_skew_example(self):
        q = 3
        b = SymMatrixO.from_entries(q, {1: 1}, {1: 1}, {1: 1, 2: 1})
        inv, _, _ = diagonalize(b)
        assert inv == FormInvariant(2, 1, Delta.SQUARE)

    def test_certificate_verifies(self, rng):
        q = 3
        for _ in range(25):
            b = rand_form(rng, q)
            prec = default_precision(b)
            inv, a_mat, eps = diagonalize(b)
            res = b.congruent_by(a_mat, eps).truncate(prec)
            assert res.e12.is_zero() or res.e12.off >= prec
            assert res.e11.off == inv.a
            assert res.e22.off == inv.b
            w = res.e22.shift(-inv.b)
            want = 1 if inv.delta is Delta.SQUARE else -1
            assert legendre(q, w.raw[1][0]) == want
            assert inv.a + inv.b == b.det_valuation
            assert inv.a >= inv.b

    def test_invariance_under_congruence(self, rng):
        for q in (3, 5):
            for _ in range(15):
                b = rand_form(rng, q, vmax=1, width=2)
                a_mat, eps = rand_change(rng, q)
                moved = b.congruent_by(a_mat, eps).truncate(8)
                inv_b, _, _ = diagonalize(b, 10)
                inv_m, _, _ = diagonalize(moved, 10)
                assert inv_b == inv_m

    def test_normal_transport(self, rng):
        q = 3
        for _ in range(15):
            b = rand_form(rng, q, vmax=1)
            prec = default_precision(b)
            inv, a_mat, eps = normal_transport(b)
            res = b.congruent_by(a_mat, eps).truncate(prec)
            assert res == normal_form(inv, q).truncate(prec)

    def test_normal_transport_matches_the_whole_certificate_route(self, rng):
        # w is read from slot 22 alone; the reference multiplies out all of
        # A B A^t eps through congruent_by and reads the same slot
        def reference(b, precision):
            prec = default_precision(b) if precision is None else precision
            inv, a_mat, eps = diagonalize(b, prec)
            w = b.congruent_by(a_mat, eps).e22.shift(-inv.b)
            w0 = 1 if inv.delta is Delta.SQUARE else least_nonsquare(b.q)
            u = LaurentPoly.from_raw(b.q, _pk.rescale(b.q, w.raw, w0, prec))
            (a11, a12), (a21, a22) = a_mat
            return inv, ((a11, a12), (u * a21, u * a22)), eps

        for q in (3, 5, 7, 11):
            for _ in range(12):
                b = rand_form(rng, q, vmax=rng.randint(0, 2), width=rng.randint(1, 4))
                low = b.det_valuation + 1
                for precision in (None, low, low + rng.randint(1, 6)):
                    got = normal_transport(b, precision)
                    assert got == reference(b, precision), (q, b, precision)

    def test_precision_exhausted(self):
        q = 3
        b = SymMatrixO.from_entries(q, {2: 1}, {}, {2: 1})  # det val 4
        with pytest.raises(PrecisionExhausted):
            diagonalize(b, precision=4)
        with pytest.raises(PrecisionExhausted):
            diagonalize(b, precision=2)
        inv, _, _ = diagonalize(b, precision=5)
        assert inv == FormInvariant(2, 2, Delta.SQUARE)

    @pytest.mark.parametrize("precision", [0, -3])
    def test_nonpositive_precision_is_value_error(self, precision):
        b = SymMatrixO.from_entries(3, {0: 1}, {}, {0: 1})
        for fn in (diagonalize, normal_transport):
            with pytest.raises(ValueError, match="precision must be >= 1"):
                fn(b, precision=precision)

    @pytest.mark.parametrize("precision", [True, False, "5", 7.9, 8.0])
    def test_non_int_precision_is_value_error(self, precision):
        b = SymMatrixO.from_entries(3, {0: 1}, {}, {0: 1})
        for fn in (diagonalize, normal_transport):
            with pytest.raises(ValueError, match="precision must be an integer"):
                fn(b, precision=precision)


class TestCoveringType:
    def test_rules(self):
        # q = 3: -1 is a nonsquare; q = 5: -1 is a square
        assert covering_type(FormInvariant(1, 0, Delta.SQUARE), 3) == (
            CoveringType.RAMIFIED,
            True,
        )
        assert covering_type(FormInvariant(2, 0, Delta.NONSQUARE), 3) == (
            CoveringType.SPLIT,
            True,
        )
        assert covering_type(FormInvariant(2, 0, Delta.SQUARE), 3) == (
            CoveringType.UNRAMIFIED_NONSPLIT,
            False,
        )
        assert covering_type(FormInvariant(2, 0, Delta.SQUARE), 5) == (
            CoveringType.SPLIT,
            True,
        )
        assert covering_type(FormInvariant(2, 0, Delta.NONSQUARE), 5) == (
            CoveringType.UNRAMIFIED_NONSPLIT,
            False,
        )

    def test_hyperbolic_plane_splits_everywhere(self):
        for q in (3, 5, 7):
            b = SymMatrixO.from_entries(q, {}, {0: 1}, {})
            inv, _, _ = diagonalize(b, 4)
            kind, in_scope = covering_type(inv, q)
            assert kind is CoveringType.SPLIT and in_scope


class TestIsotropicLines:
    def test_exhaustive_vs_scan(self):
        for q in (3, 5):
            for f11 in range(q):
                for f12 in range(q):
                    for f22 in range(q):
                        got = isotropic_line_count(q, ((f11, f12), (f12, f22)))
                        assert got == oracles.isotropic_scan(q, f11, f12, f22)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            isotropic_line_count(3, ((1, 1), (2, 1)))

    def test_counts_by_rank(self):
        q = 3
        assert isotropic_line_count(q, ((0, 0), (0, 0))) == q + 1
        assert isotropic_line_count(q, ((1, 0), (0, 0))) == 1
        assert isotropic_line_count(q, ((0, 1), (1, 0))) == 2
        assert isotropic_line_count(q, ((1, 0), (0, 1))) == 0
