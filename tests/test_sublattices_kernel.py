"""The pure ``sublattices`` kernel and the ``counts`` cells against their references.

``sublattices`` walks the digit tuples of ``w`` in ``itertools.product``
order, slices ``w t^a`` out of each tuple and adds ``c t^beta mod
t^(a+alpha)``, computed once per ``alpha``, only when it is nonzero.  The
reference below is the per-member route it replaced: one base-q digit loop,
``pnorm``, ``pshift``, ``padd`` and ``ptrunc`` per member.  It must give the
same list, in the same order, and so must ``sublattice_rows``, the generator
that ``sublattices`` lists.

The ``counts`` cells count the rows as ``sublattice_rows`` yields them,
without building lattices or holding the rows; they are checked against the
sorted ``Lattice2`` lists of the public enumerators, the closed forms, and
the t-stable subspaces of ``tests/oracles.py``.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from waldq import campaigns
from waldq._purekern import padd, pnorm, pshift, ptrunc, pval, sublattice_rows, sublattices
from waldq.lattice import (
    Coweight,
    Lattice2,
    _member_count,
    closure_members,
    enumerate_in_position,
    position_count_formula,
)

QS = (3, 5, 7)
EXPONENTS = range(-2, 4)
# digits of c below t^a on the grid: q^width values of c per a
WIDTH = {3: 3, 5: 2, 7: 1}


def sublattices_reference(q, a, b, c, n):
    out = []
    for alpha in range(n + 1):
        beta = n - alpha
        ca, cb = a + alpha, b + beta
        cshift = pshift(c, beta)
        for code in range(q**alpha):
            m, wc = code, []
            while m:
                m, r = divmod(m, q)
                wc.append(r)
            w = pnorm(q, 0, wc)
            c2 = ptrunc(padd(q, pshift(w, a), cshift), ca)
            out.append((ca, cb, c2, min(alpha, beta, pval(w))))
    return out


def reduced_cs(q, a, width):
    """Every c whose exponents lie in [a - width, a): zero included, and
    negative offsets whenever a < width."""
    for code in range(q**width):
        digits = [code // q**i % q for i in range(width)]
        yield pnorm(q, a - width, digits)


@pytest.mark.parametrize("q", QS)
def test_matches_reference_on_the_grid(q):
    # b enters only as b2 = b + beta, so the c of each a take the b in turn
    seen = set()
    i = 0
    for a in EXPONENTS:
        for c in reduced_cs(q, a, WIDTH[q]):
            b = EXPONENTS[i % len(EXPONENTS)]
            i += 1
            seen.add((a, b))
            for n in range(5):
                rows = sublattices(q, a, b, c, n)
                assert rows == sublattices_reference(q, a, b, c, n), (q, a, b, c, n)
                assert rows == list(sublattice_rows(q, a, b, c, n)), (q, a, b, c, n)
    assert len({b for _a, b in seen}) == len(EXPONENTS)


@st.composite
def triples(draw):
    q = draw(st.sampled_from(QS))
    a = draw(st.integers(-4, 5))
    b = draw(st.integers(-4, 5))
    width = draw(st.integers(0, 6))
    digits = draw(st.lists(st.integers(0, q - 1), min_size=width, max_size=width))
    n = draw(st.integers(0, 4 if q == 3 else 3))
    return q, a, b, pnorm(q, a - width, digits), n


@settings(max_examples=200, deadline=None)
@given(triples())
def test_matches_reference_on_random_triples(args):
    rows = sublattices(*args)
    assert rows == sublattices_reference(*args)
    assert rows == list(sublattice_rows(*args))


@pytest.mark.parametrize("q", QS)
def test_count_cells_match_enumerators_formulas_and_oracle(q):
    std = Lattice2.standard(q)
    for d in range(5):
        lam = Coweight(d, 0)
        exact = campaigns._cell_count_exact("c", q, d)
        closure = campaigns._cell_count_closure("c", q, d)
        assert exact["pass"] and closure["pass"]
        total, cyclic = oracles.stable_subspaces_by_extension(q, d)
        assert int(exact["computed"]) == len(enumerate_in_position(std, lam)) == cyclic
        assert int(exact["computed"]) == position_count_formula(q, d)
        assert int(closure["computed"]) == len(closure_members(std, lam)) == total
        assert total == sum(q**alpha for alpha in range(d + 1))


def test_extension_oracle_agrees_with_the_subspace_scan():
    for q, d in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)):
        assert oracles.stable_subspaces_by_extension(q, d) == oracles.stable_subspace_counts(q, d)


def test_member_count_off_the_standard_lattice():
    q = 3
    for lat in (Lattice2(q, 2, -1), Lattice2.from_triple(q, 2, 0, (-1, (1, 2))), Lattice2(q, 1, 1)):
        for lam in (Coweight(3, 0), Coweight(2, 1), Coweight(1, -1)):
            assert _member_count(lat, lam, exact=True) == len(enumerate_in_position(lat, lam))
            assert _member_count(lat, lam, exact=False) == len(closure_members(lat, lam))


@pytest.mark.parametrize("exact", (True, False))
def test_member_count_holds_no_rows(exact):
    # 19,531 rows, about 4 MB as a list; counted as they are yielded, a few
    # rows at a time are alive
    lat, lam = Lattice2.standard(5), Coweight(6, 0)
    tracemalloc.start()
    try:
        got = _member_count(lat, lam, exact=exact)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (position_count_formula(5, 6) if exact else sum(5**alpha for alpha in range(7)))
    assert peak < 64 * 1024, peak
