"""The counting tables against the public object route.

waldspurger's orbit tables and hecke's structure constants read members only
through lattice._member_histogram.  Each table is checked here against the
Lattice2 lists of enumerate_in_position / closure_members, binned by
envelope() or relative_position(); a counting body for the histogram must
keep these passing.  The histogram itself is checked against the enumerated
rows of _raw_members on an exhaustive small grid and on random triples, and
at large q, where nothing can be enumerated, against closed formulas.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from waldq import _purekern
from waldq.hecke import _pair_product
from waldq.lattice import (
    Coweight,
    Lattice2,
    _member_histogram,
    _raw_members,
    closure_members,
    enumerate_in_position,
    position_count_formula,
    relative_position,
)
from waldq.torus import EtaleKind, envelope, orbit_representative
from waldq.waldspurger import WaldModel, _arrivals, _stratum_table, _transitions

# dominant coweights with lam1 - lam2 <= 3
LAMS = [(a2 + width, a2) for a2 in (-1, 0, 1) for width in range(4)]
KINDS = list(EtaleKind)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_transitions(q, kind):
    for m0 in range(4):
        rep = orbit_representative(q, kind, m0)
        for lam in LAMS:
            want = Counter()
            for lat in enumerate_in_position(rep, Coweight(*lam)):
                cls, m = envelope(lat, kind)
                want[m, cls.exps] += 1
            got = _transitions(q, kind.value, m0, lam)
            assert got == tuple(sorted((m, exps, n) for (m, exps), n in want.items()))
    # the rows into m1 are the padded rows out of its window's sources, and
    # no source past the window, |m1 - m0| > lam1 - lam2, has one
    lo, hi = kind.pads
    for m1 in range(4):
        for lam in LAMS:
            width = lam[0] - lam[1]
            want = [
                (m0, lo + exps + hi, n)
                for m0 in range(max(0, m1 - width), m1 + width + 1)
                for m, exps, n in _transitions(q, kind.value, m0, lam)
                if m == m1
            ]
            assert list(_arrivals(q, kind.value, m1, lam)) == want
            for m0 in range(m1 + width + 1, m1 + 2 * width + 3):
                assert all(m != m1 for m, _exps, _n in _transitions(q, kind.value, m0, lam))


@pytest.mark.parametrize("q", [3, 5])
def test_stratum_table(q):
    std = Lattice2.standard(q)
    for lam in LAMS:
        want = Counter()
        for lat in closure_members(std, Coweight(*lam)):
            for kind in KINDS:
                want[kind.value, envelope(lat, kind)[1]] += 1
        assert _stratum_table(q, lam) == tuple(sorted(want.items()))


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_minimal_orbit_counts(q, kind):
    model = WaldModel(q, kind)
    for m in range(4):
        rep = orbit_representative(q, kind, m)
        for d in range(4):
            lats = closure_members(rep, Coweight(d, 0))
            want = sum(1 for lat in lats if envelope(lat, kind)[1] == 0)
            assert model.minimal_orbit_counts(d, m) == want


@pytest.mark.parametrize("q", [3, 5])
def test_pair_product(q):
    std = Lattice2.standard(q)
    for lam in LAMS:
        mids = enumerate_in_position(std, Coweight(*lam))
        for mu in LAMS:
            total = sum(lam) + sum(mu)
            want = []
            # nu1 runs past lam1 + mu1, so the support bound is checked too
            for nu1 in range(-(-total // 2), total + 4):
                target = Lattice2.diagonal(q, nu1, total - nu1)
                n = sum(1 for mid in mids if relative_position(mid, target) == mu)
                if n:
                    want.append(((nu1, total - nu1), n))
            assert _pair_product(q, lam, mu) == tuple(want)


@st.composite
def triple_and_diagonal(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    a, b, n1, n2 = (draw(st.integers(-3, 8)) for _ in range(4))
    coeffs = draw(st.lists(st.integers(0, q - 1), max_size=6))
    c = _purekern.ptrunc(_purekern.pnorm(q, draw(st.integers(a - 8, a)), coeffs), a)
    return q, a, b, c, n1, n2


@given(triple_and_diagonal())
def test_rel_pos_to_a_diagonal_reads_only_val_c(args):
    q, a, b, c, n1, n2 = args
    stand_in = (_purekern.pval(c), (1,)) if c[1] else _purekern.PZERO
    zero = _purekern.PZERO
    assert _purekern.rel_pos(q, a, b, c, n1, n2, zero) == _purekern.rel_pos(
        q, a, b, stand_in, n1, n2, zero
    )


def enumerated(q, triple, lam):
    """The histogram read off the enumerated member rows."""
    rows = _raw_members(q, triple, lam)
    return Counter((a2, b2, _purekern.pval(c2), s) for a2, b2, c2, s in rows)


def grid_cs(q, a):
    """c reduced mod t^a: zero, and offsets a-4..a-1 (negative ones too) with
    a few coefficient patterns, so that the shifted c t^beta falls both below
    t^a and at or above it, and both branches of the count run."""
    cs = {_purekern.PZERO}
    for off in range(a - 4, a):
        for co in ([1], [q - 1], [1, 1], [2, 0, 1], [1, 0, 1, 2], [0, 2, q - 1]):
            cs.add(_purekern.ptrunc(_purekern.pnorm(q, off, co), a))
    return sorted(cs)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_histogram_counts_what_enumeration_finds(q):
    widths = range(5) if q == 3 else range(4)
    for a in range(4):
        for b in range(-1, 3):
            for c in grid_cs(q, a):
                for lam in (Coweight(a2 + w, a2) for a2 in (-1, 0, 1) for w in widths):
                    assert _member_histogram(q, (a, b, c), lam) == enumerated(q, (a, b, c), lam)


@st.composite
def triple_and_lam(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    a, b = draw(st.integers(-3, 5)), draw(st.integers(-3, 5))
    coeffs = draw(st.lists(st.integers(0, q - 1), max_size=7))
    c = _purekern.ptrunc(_purekern.pnorm(q, draw(st.integers(a - 7, a)), coeffs), a)
    a2 = draw(st.integers(-2, 2))
    width = draw(st.integers(0, 4 if q == 3 else 3))
    return q, (a, b, c), Coweight(a2 + width, a2)


@given(triple_and_lam())
def test_histogram_matches_enumeration_on_random_triples(args):
    q, triple, lam = args
    hist = _member_histogram(q, triple, lam)
    assert hist == enumerated(q, triple, lam)
    assert all(n > 0 for n in hist.values())


def test_histogram_rejects_a_non_dominant_coweight():
    with pytest.raises(ValueError, match="not dominant"):
        _member_histogram(3, (0, 0, _purekern.PZERO), Coweight(0, 1))


@pytest.mark.parametrize("q", [101, 997])
def test_histogram_at_large_q_meets_the_closed_formulas(q):
    for d in range(13):
        hist = _member_histogram(q, (0, 0, _purekern.PZERO), Coweight(d, 0))
        assert sum(n for key, n in hist.items() if key[3] == 0) == position_count_formula(q, d)
        closure = sum(position_count_formula(q, d - 2 * e) for e in range(d // 2 + 1))
        assert sum(hist.values()) == closure


@pytest.mark.parametrize("q", [101, 997])
@pytest.mark.parametrize("kind", KINDS)
def test_minimal_orbit_counts_at_large_q(q, kind):
    model = WaldModel(q, kind)
    for d in range(10):
        for m in range(5):
            want = 0 if d < m else (d - m + 1 if kind is EtaleKind.SPLIT else 1)
            assert model.minimal_orbit_counts(d, m) == want
