"""The form layer's fused truncated products against the routes they replaced.

``_purekern.pdot`` sums exact products and normalizes once, truncated below
``t^prec``.  ``sym_diag`` and ``sym_normal_cert`` take the kernel's shared
route to a diagonal pivot and its shared pivot step, both built on it;
``sym_normal_cert`` verifies its certificate mod ``t^check_prec`` with it, and
``SymMatrixO`` computes its determinant once.  ``pcongruent`` is the one
product A B A^t eps: exact at ``INF`` behind ``SymMatrixO.congruent_by``, and
mod ``t^prec`` in the ``quadform-orbits`` invariance cells, which move and
classify raw entries.
The references are the routes these replaced: ``pmul``/``padd``/``ptrunc``
chains here, and in ``tests/oracles.py`` a generic ``E T E^t`` update with 24
products per elementary matrix and the general certificate ``A B A^t eps``
multiplied out exactly and truncated at the end; ``LaurentPoly`` arithmetic
checks ``congruent_by``, and a finite-prec ``pcongruent`` is checked against
its exact product truncated.  The invariance cells' two invariants are checked
against ``oracles.closed_form_invariant``, which reads valuations and one
Legendre symbol off the entries, and a kernel refusal (val(det) >= prec) must
raise ``PrecisionExhausted``, never pass.  The ``quadform-orbits`` planner's
determinant test on raw entries is checked against ``SymMatrixO`` and its
``det_valuation``, and its ``getrandbits`` draws against the
``randint``/``randrange`` body in ``tests/oracles.py``.  ``pinv_unit``, which
``sym_diag`` calls twice, is checked against its defining product.
"""

import copy
import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    closed_form_invariant,
    random_poly_raw_reference,
    sym_diag_reference,
    sym_normal_cert_reference,
)
from waldq import backend, campaigns
from waldq._purekern import (
    INF,
    PONE,
    PZERO,
    padd,
    pcongruent,
    pconstmul,
    pdot,
    pinv_unit,
    pmul,
    pneg,
    pnorm,
    ptrunc,
    sym_diag,
    sym_normal_cert,
)
from waldq.cli import wald_main
from waldq.quadform import PrecisionExhausted, SymMatrixO, least_nonsquare
from waldq.series import LaurentPoly

QS = st.sampled_from([3, 5, 7])


@st.composite
def raw_polys(draw, q, min_off=-4, max_off=4, max_len=5):
    """A normalized raw poly: zero, or offsets in [min_off, max_off]."""
    co = draw(st.lists(st.integers(0, q - 1), max_size=max_len))
    return pnorm(q, draw(st.integers(min_off, max_off)), co)


@st.composite
def dot_cases(draw):
    q = draw(QS)
    pairs = draw(st.lists(st.tuples(raw_polys(q), raw_polys(q)), max_size=4))
    prec = draw(st.one_of(st.just(INF), st.integers(-10, 10)))
    return q, prec, pairs


def dot_reference(q, prec, pairs):
    total = PZERO
    for x, y in pairs:
        total = padd(q, total, pmul(q, x, y))
    return ptrunc(total, prec)


class TestPdot:
    @settings(max_examples=500, deadline=None)
    @given(dot_cases())
    def test_matches_truncated_sum_of_products(self, case):
        assert pdot(*case) == dot_reference(*case)

    def test_edges(self):
        q = 5
        x, y = (-2, (1, 2, 3)), (1, (4, 0, 1))
        exact = pmul(q, x, y)  # exponents -1 .. 3
        assert pdot(q, INF, [(x, y)]) == exact
        assert pdot(q, INF, []) == PZERO
        assert pdot(q, INF, [(x, PZERO), (PZERO, y)]) == PZERO
        for prec in (-5, -1):  # at or below the lowest exponent
            assert pdot(q, prec, [(x, y)]) == PZERO
        for prec in range(0, 6):
            assert pdot(q, prec, [(x, y)]) == ptrunc(exact, prec)
        # terms that cancel leave no zero fringe behind
        assert pdot(q, INF, [(x, y), (pneg(q, x), y)]) == PZERO
        assert pdot(q, 2, [(x, y), ((0, (1,)), (2, (3,)))]) == ptrunc(exact, 2)


def o_entries(q, vmax=3, width=4):
    return raw_polys(q, min_off=0, max_off=vmax, max_len=width)


@st.composite
def form_cases(draw):
    q = draw(QS)
    b = tuple(draw(o_entries(q)) for _ in range(3))
    prec = draw(st.integers(1, 10))
    check_prec = draw(st.integers(0, prec + 2))
    return q, prec, check_prec, b


def _cube(q, width):
    """Every polynomial of degree < width over F_q, by coefficient code."""
    return [pnorm(q, 0, [c // q**i % q for i in range(width)]) for c in range(q**width)]


# The None paths of both kernels, as (q, prec, check_prec, (b11, b12, b22)):
# every entry 0 mod t^prec, with terms at and above t^prec; vb < prec <=
# va + vb (diag-like [[t, t], [t, t + t^2]], det t^3); det exactly 0 with
# unit entries [[1, 1], [1, 1]]; the e1 += e2 route on [[t^3, t^2], [t^2,
# t^3]], det t^6 - t^4 == 0 mod t^4
NONE_CASES = [
    (3, 2, 2, ((2, (1,)), (3, (1, 2)), (2, (2, 1)))),
    (5, 3, 3, ((1, (1,)), (1, (1,)), (1, (1, 1)))),
    (7, 4, 4, ((0, (1,)), (0, (1,)), (0, (1,)))),
    (7, 4, 4, ((3, (1,)), (2, (1,)), (3, (1,)))),
]


def none_examples(test):
    for case in NONE_CASES:
        test = example(case)(test)
    return test


class TestSymKernels:
    @settings(max_examples=800, deadline=None)
    @given(form_cases())
    @none_examples
    def test_sym_diag_matches_reference(self, case):
        q, prec, _cp, b = case
        assert sym_diag(q, prec, *b) == sym_diag_reference(q, prec, *b)

    @settings(max_examples=800, deadline=None)
    @given(form_cases())
    # entries past t^prec with check_prec > prec: the certificate reads mh
    # (first case) and w (second) mod t^prec, as sym_diag does, and only then
    # agrees with the reference
    @example((3, 5, 6, ((1, (1,)), (2, (1, 1, 1, 2)), (1, (1, 2)))))
    @example((3, 3, 4, ((1, (1, 2, 1)), (0, ()), (1, (1, 2)))))
    @none_examples
    def test_sym_normal_cert_matches_reference(self, case):
        q, prec, cp, b = case
        ns = least_nonsquare(q)
        got = sym_normal_cert(q, prec, cp, *b, ns)
        assert got == sym_normal_cert_reference(q, prec, cp, *b, ns)

    @pytest.mark.sweep
    def test_whole_q3_width3_cube(self):
        # the exhaustive campaign's precisions (4, check 4), and a higher
        # working precision (8, check 4), on every form
        q, ns = 3, least_nonsquare(3)
        polys = _cube(q, 3)
        for b in itertools.product(polys, repeat=3):
            assert sym_diag(q, 8, *b) == sym_diag_reference(q, 8, *b)
            for prec in (4, 8):
                assert sym_normal_cert(q, prec, 4, *b, ns) == sym_normal_cert_reference(
                    q, prec, 4, *b, ns
                )


def _poly(q, raw):
    return LaurentPoly.from_raw(q, raw)


def _nonsingular(q, b):
    return pdot(q, INF, ((b[0], b[2]), (pneg(q, b[1]), b[1])))[1]


def _matrices_over(q):
    entries = st.tuples(*(o_entries(q, vmax=2, width=3) for _ in range(3)))
    return entries.filter(lambda b: _nonsingular(q, b)).map(
        lambda b: SymMatrixO(*(_poly(q, r) for r in b))
    )


matrices = QS.flatmap(_matrices_over)


class TestSymMatrixO:
    @settings(max_examples=300, deadline=None)
    @given(matrices)
    def test_stored_det(self, m):
        want = m.e11 * m.e22 - m.e12 * m.e12
        assert m.det == want
        assert m.det_valuation == want.off
        for other in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert other == m
            assert other.det == want
            assert other.det_valuation == want.off

    @settings(max_examples=300, deadline=None)
    @given(matrices, st.data())
    def test_congruent_by_matches_object_route(self, m, data):
        q = m.q
        entries = [_poly(q, data.draw(raw_polys(q, 0, 2, 3))) for _ in range(5)]
        (a11, a12, a21, a22, eps) = entries
        x1 = a11 * m.e11 + a12 * m.e12
        x2 = a11 * m.e12 + a12 * m.e22
        y1 = a21 * m.e11 + a22 * m.e12
        y2 = a21 * m.e12 + a22 * m.e22
        want = [
            (x1 * a11 + x2 * a12) * eps,
            (x1 * a21 + x2 * a22) * eps,
            (y1 * a21 + y2 * a22) * eps,
        ]
        a_mat = ((a11, a12), (a21, a22))
        if (want[0] * want[2] - want[1] * want[1]).is_zero():
            with pytest.raises(ValueError, match="determinant is zero"):
                m.congruent_by(a_mat, eps)
            return
        got = m.congruent_by(a_mat, eps)
        assert (got.e11, got.e12, got.e22) == tuple(want)
        assert got.det == want[0] * want[2] - want[1] * want[1]

    def test_congruent_by_int_entries_and_mixed_fields(self):
        q = 5
        m = SymMatrixO.from_entries(q, {0: 1}, {1: 2}, {1: 3})
        one = LaurentPoly.one(q)
        zero = LaurentPoly.zero(q)
        assert m.congruent_by(((1, 0), (0, 1)), 1) == m
        assert m.congruent_by(((one, zero), (zero, one)), 2) == m.congruent_by(
            ((one, zero), (zero, one)), LaurentPoly.const(q, 2)
        )
        with pytest.raises(ValueError, match="mixed"):
            m.congruent_by(((LaurentPoly.one(3), zero), (zero, one)), one)


@st.composite
def _planner_entries(draw, q):
    """A raw poly of degree <= 3, as the planner draws; its low terms are
    often 0, so that val(det) often lies near the limit 3."""
    off = draw(st.integers(0, 3))
    return pnorm(q, off, draw(st.lists(st.integers(0, q - 1), max_size=4 - off)))


def _planner_triples(q):
    """Raw triples as the planner draws them, and rank-one ones (a^2 c, a b c,
    b^2 c for constants a, b), whose det is exactly 0."""
    entry = _planner_entries(q)
    const = st.integers(0, q - 1)
    rank_one = st.builds(
        lambda a, b, c: tuple(pconstmul(q, c, x) for x in (a * a, a * b, b * b)),
        const, const, entry,
    )
    return st.one_of(st.tuples(entry, entry, entry), rank_one)


class TestQuadformOrbitsPlanner:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keeps_a_triple_iff_symmatrix_builds_with_det_valuation_at_most_3(self, data):
        # the planner's B draws are replaced by the drawn triples, then by the
        # unit form diag(1, 1); its invariance cells must keep exactly the
        # triples that SymMatrixO accepts with val(det) <= 3, in order
        q = data.draw(st.sampled_from([3, 5, 7, 13]))
        triples = data.draw(st.lists(_planner_triples(q), min_size=1, max_size=8))
        diag11 = (PONE, PZERO, PONE)
        entries = itertools.chain(itertools.chain(*triples), itertools.cycle(diag11))
        draw = campaigns._random_poly_raw

        def fake_draw(rng, q_, max_deg, unit=False):
            return next(entries) if max_deg == 3 else draw(rng, q_, max_deg, unit)

        with mock.patch.object(campaigns, "_random_poly_raw", fake_draw):
            cells = campaigns._plan_quadform_orbits(campaigns.SessionConfig(q=q).validate())
        kept = [c[3] for c in cells if c[0] is campaigns._cell_quad_invariance]

        def builds(b):
            try:
                return SymMatrixO(*(_poly(q, r) for r in b)).det_valuation <= 3
            except ValueError:
                return False

        want = [b for b in triples if builds(b)]
        assert kept[: len(want)] == want
        assert kept[len(want):] == [diag11] * (len(kept) - len(want))

    @pytest.mark.parametrize("unit", [False, True])
    @pytest.mark.parametrize("max_deg", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 43, 10007])
    def test_draws_are_randint_and_randrange(self, q, max_deg, unit):
        # the getrandbits draw takes the values, and leaves the generator in
        # the state, of the randint/randrange reference
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            got = campaigns._random_poly_raw(rng, q, max_deg, unit)
            assert got == random_poly_raw_reference(ref, q, max_deg, unit)
            assert rng.getstate() == ref.getstate()


@st.composite
def unit_cases(draw):
    """A valuation-0 unit of 1-8 coefficients and a prec of 1-10: some units
    are longer than prec, and some inverses end in zeros below t^prec."""
    q = draw(st.sampled_from([3, 5, 7, 13]))
    co = [draw(st.integers(1, q - 1))] + draw(st.lists(st.integers(0, q - 1), max_size=7))
    return q, pnorm(q, 0, co), draw(st.integers(1, 10))


class TestPinvUnit:
    @settings(max_examples=500, deadline=None)
    @given(unit_cases())
    def test_inverse_mod_t_prec_and_normalized(self, case):
        q, x, prec = case
        inv = pinv_unit(q, x, prec)
        assert ptrunc(pmul(q, x, inv), prec) == PONE
        off, co = inv
        assert off == 0 and co[-1] != 0
        assert all(0 <= c < q for c in co)

    def test_trailing_zeros_are_trimmed(self):
        # 1 / (1 + t^2) = 1 - t^2 + ..., so mod t^2 the inverse is 1
        assert pinv_unit(3, (0, (1, 0, 1)), 2) == (0, (1,))


class TestPcongruent:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_finite_prec_is_the_exact_product_truncated(self, data):
        # operands in O: each partial product may be truncated at prec
        q = data.draw(st.sampled_from([3, 5, 7, 13]))
        ops = [data.draw(o_entries(q)) for _ in range(8)]
        prec = data.draw(st.integers(1, 10))
        exact = pcongruent(q, INF, *ops)
        assert pcongruent(q, prec, *ops) == tuple(ptrunc(m, prec) for m in exact)


def _invariance_cells(q, seed):
    cfg = campaigns.SessionConfig(q=q, seed=seed).validate()
    cells = campaigns._plan_quadform_orbits(cfg)
    return [c for c in cells if c[0] is campaigns._cell_quad_invariance]


class TestInvarianceCell:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_both_invariants_are_the_closed_form(self, q, seed):
        cells = _invariance_cells(q, seed)
        assert len(cells) == 200
        for payload in cells:
            _f, _name, _q, braw, araw, uraw, prec = payload
            va, vb, delta = closed_form_invariant(q, *braw)
            moved = pcongruent(q, prec, *braw, *araw, uraw)
            assert closed_form_invariant(q, *moved) == (va, vb, delta)
            want = f"({va},{vb},{'Square' if delta == 1 else 'NonSquare'})"
            row = campaigns._run_cell(payload)
            assert (row["expected"], row["computed"], row["pass"]) == (want, want, True)

    def test_val_det_at_least_prec_raises(self):
        # B = [[t, t], [t, t + t^2]] has det t^3, so the kernel refuses it at prec 3
        braw = ((1, (1,)), (1, (1,)), (1, (1, 1)))
        ident = (PONE, PZERO, PZERO, PONE)
        payload = (campaigns._cell_quad_invariance, "invar-x", 5, braw, ident, PONE, 3)
        with pytest.raises(PrecisionExhausted, match="working precision 3"):
            campaigns._run_cell(payload)

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_kernel_none_on_either_form_is_never_a_pass(self, which):
        payload = _invariance_cells(5, 0)[0]
        real = backend.sym_diag
        calls = []

        def fake(*args):
            calls.append(args)
            return None if len(calls) == which + 1 else real(*args)

        with mock.patch.object(backend, "sym_diag", fake):
            with pytest.raises(PrecisionExhausted):
                campaigns._run_cell(payload)
        assert len(calls) == 2

    def test_the_campaign_reports_it_undetermined(self, capsys):
        # the refusal surfaces as exit 1 with no report, not as a row
        braw = _invariance_cells(5, 0)[0][3]
        real = backend.sym_diag

        def fake(q, prec, *b):
            return None if b == braw else real(q, prec, *b)

        with mock.patch.object(backend, "sym_diag", fake):
            code = wald_main(["quadform-orbits", "--q", "5", "--workers", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "wald: undetermined: val(det) >= working precision 6\n"
