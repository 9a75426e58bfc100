"""The counting tables against the public object route.

waldspurger's orbit tables and hecke's structure constants read members only
through lattice._member_histogram.  Each table is checked here against the
Lattice2 lists of enumerate_in_position / closure_members, binned by
envelope() or relative_position(); a counting body for the histogram must
keep these passing.
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
    closure_members,
    enumerate_in_position,
    relative_position,
)
from waldq.torus import EtaleKind, envelope, orbit_representative
from waldq.waldspurger import WaldModel, _stratum_table, _transitions

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
