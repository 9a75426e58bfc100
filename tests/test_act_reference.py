"""WaldModel.act, hecke.convolve and scalars.specialize against term-by-term routes.

``act`` walks from the function's support, over the rows into each orbit
where it is nonzero (``waldspurger._arrivals``), and ``convolve`` over the
structure constants; both multiply each coefficient in term by term as the
rows are added, summing each output coefficient as plain (a, b) parts
(``scalars._add_scaled``, the one raw-sum loop, which Laurent products with
sqrt(q) parts also take), and build it once.  ``specialize`` sums over a
common denominator in integers (``scalars._specialize_sums``), for one value
or, in the eigen check, a whole table of values at once.  The references
here are the object routes those replace: per row out of every source orbit
in a window wider than any row reaches (``_transitions``), one character
monomial times the function value times the coefficient; per pair of Hecke
terms, their product times each structure constant; products taken term by
term as SqrtQ products and merged by the LaurentScalar constructor, so no
reference goes through the raw sums; and one Fraction product per term and
variable, value by value.  The eigen check's ``_act_table``, which acts by
one coweight's arrival rows on an integer vector times one rational scale at
rational character values, is checked against ``specialize`` of ``act`` by
that coweight's basis element; sums of basis elements follow by linearity.
``campaigns._scalar_as_int``, which reads an integer constant off the
scalar's terms, is checked against specializing at no values.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scalar_as_int_reference, specialize_reference
from waldq.campaigns import _scalar_as_int
from waldq.hecke import HeckeElement, _pair_product, convolve
from waldq.lattice import Coweight
from waldq.scalars import (
    VARS,
    LaurentScalar,
    ResidualSqrtQ,
    SqrtQ,
    _specialize_sums,
    specialize,
)
from waldq.torus import EtaleKind
from waldq.waldspurger import WaldFunction, WaldModel, _transitions

QS = st.sampled_from([3, 5])
KINDS = st.sampled_from([EtaleKind.SPLIT, EtaleKind.RAMIFIED])
CONVENTIONS = st.sampled_from(["standard", "mirror"])
# small numerators over denominators 1..3: integral values and proper fractions
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
EXPS = st.tuples(*(st.integers(-3, 3) for _ in range(3)))

# (alpha, beta, gamma) exponents of a class, written out per kind: split
# classes (k1, k2) give alpha^k1 beta^k2, ramified classes (k,) give gamma^k
EXPS3 = {
    EtaleKind.SPLIT: lambda exps: (exps[0], exps[1], 0),
    EtaleKind.RAMIFIED: lambda exps: (0, 0, exps[0]),
}


def times(x, y):
    """x * y as one SqrtQ product per pair of terms, merged by the constructor."""
    return LaurentScalar(
        x.q,
        [
            (tuple(e1 + e2 for e1, e2 in zip(k1, k2)), c1 * c2)
            for k1, c1 in x.terms.items()
            for k2, c2 in y.terms.items()
        ],
    )


def act_reference(model, h, f):
    """Sum over terms, target orbits and transition rows of chi * coeff * f[m1].

    The mirror convention acts by the dual coweight (-lam2, -lam1).  Every
    target orbit from 0 to twice the width past f's support is visited, wider
    than any row can reach, so a window that ``act`` cuts too short shows.
    """
    q, kind = model.q, model.kind
    if h.is_zero() or f.is_zero():
        return WaldFunction(q, kind, {})
    mhi = max(f.values)
    values = []
    for (lam1, lam2), coeff in h.terms.items():
        if model.convention == "mirror":
            lam1, lam2 = -lam2, -lam1
        width = lam1 - lam2
        for m0 in range(mhi + 2 * width + 2):
            for m1, exps, count in _transitions(q, kind.value, m0, (lam1, lam2)):
                fv = f.values.get(m1)
                if fv is not None:
                    chi = LaurentScalar.monomial(q, EXPS3[kind](exps), count)
                    values.append((m0, times(times(chi, fv), coeff)))
    return WaldFunction(q, kind, values)


def convolve_reference(x, y):
    """Per pair of terms, their product times each structure constant."""
    q = x.q
    terms = []
    for lam, cx in x.terms.items():
        for mu, cy in y.terms.items():
            for nu, count in _pair_product(q, tuple(lam), tuple(mu)):
                terms.append((nu, times(times(cx, cy), LaurentScalar.from_int(q, count))))
    return HeckeElement(q, terms)


@st.composite
def scalars(draw, q, max_terms=3, sqrt_parts=True):
    """A LaurentScalar of up to max_terms terms, possibly with sqrt(q) parts."""
    b = st.one_of(st.just(0), RATIONALS) if sqrt_parts else st.just(0)
    rows = draw(
        st.lists(st.tuples(EXPS, st.builds(SqrtQ, st.just(q), RATIONALS, b)), max_size=max_terms)
    )
    return LaurentScalar(q, rows)


@st.composite
def hecke_elements(draw, q):
    """Up to three basis terms with integer, Fraction, r or Laurent coefficients."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a2 = draw(st.integers(-1, 1))
        lam = Coweight(a2 + draw(st.integers(0, 2)), a2)
        coeff = draw(
            st.one_of(
                st.integers(-3, 3),
                RATIONALS,
                st.just(LaurentScalar.r(q)),
                scalars(q, max_terms=2),
            )
        )
        terms.append((lam, coeff))
    return HeckeElement(q, terms)


@st.composite
def act_cases(draw):
    q, kind = draw(QS), draw(KINDS)
    model = WaldModel(q, kind, convention=draw(CONVENTIONS))
    support = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
    f = WaldFunction(q, kind, {m: draw(scalars(q)) for m in support})
    return model, draw(hecke_elements(q)), f


@settings(max_examples=150, deadline=None)
@given(act_cases())
def test_act_matches_per_row_products(case):
    model, h, f = case
    got = model.act(h, f)
    assert got == act_reference(model, h, f)
    assert all(v.terms and not v.is_zero() for v in got.values.values())


def test_act_on_the_ic_basis_matches_per_row_products():
    for q in (3, 5):
        for kind in EtaleKind:
            for convention in ("standard", "mirror"):
                model = WaldModel(q, kind, convention=convention)
                f = model.ic_basis(2)
                for d in range(4):
                    t = HeckeElement.basis(q, Coweight(d, 0))
                    assert model.act(t, f) == act_reference(model, t, f)


@st.composite
def convolve_cases(draw):
    q = draw(QS)
    return draw(hecke_elements(q)), draw(hecke_elements(q))


@settings(max_examples=150, deadline=None)
@given(convolve_cases())
def test_convolve_matches_per_pair_products(case):
    x, y = case
    got = convolve(x, y)
    assert got == convolve_reference(x, y)
    assert all(c.terms and not c.is_zero() for c in got.terms.values())


def test_convolve_merges_sqrt_q_parts():
    # (1 + r) T(1,0) * (1 - r) T(1,0) = (1 - q) (T(2,0) + (q + 1) T(1,1)); the
    # r parts cancel only once the products of both pairs are summed
    q = 5
    r = LaurentScalar.r(q)
    one = LaurentScalar.one(q)
    a = LaurentScalar.alpha(q)
    x = HeckeElement(q, [((1, 0), one + r), ((0, 0), a * r)])
    y = HeckeElement(q, [((1, 0), one - r), ((0, 0), a**-1 * r)])
    got = convolve(x, y)
    assert got == convolve_reference(x, y)
    assert got.coefficient((2, 0)) == LaurentScalar.from_int(q, 1 - q)
    assert got.coefficient((1, 1)) == LaurentScalar.from_int(q, (1 - q) * (q + 1))
    # T(1,0) from both cross terms: (1 + r) r alpha^-1 + alpha r (1 - r)
    want = (one + r) * r * a**-1 + a * r * (one - r)
    assert got.coefficient((1, 0)) == want
    assert all(c.b for c in got.coefficient((1, 0)).terms.values())
    assert got.coefficient((0, 0)) == LaurentScalar.from_int(q, q)


@st.composite
def evaluated_act_cases(draw):
    q, kind = draw(QS), draw(KINDS)
    model = WaldModel(q, kind, convention=draw(CONVENTIONS))
    support = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
    values = {m: draw(RATIONALS) for m in support}
    nonzero = RATIONALS.filter(bool)
    vals = {name: draw(nonzero) for name in kind.variables}
    a2 = draw(st.integers(-1, 1))
    return model, Coweight(a2 + draw(st.integers(0, 2)), a2), values, vals


def as_table(values, k=1):
    """k times rational values as an integer vector, over their common denominator times k."""
    lcd = math.lcm(*(v.denominator for v in values.values()))
    return {m: k * int(v * lcd) for m, v in values.items() if v}, Fraction(1, k * lcd)


@settings(max_examples=150, deadline=None)
@given(evaluated_act_cases())
def test_evaluated_act_matches_specialized_act(case):
    model, lam, values, vals = case
    f = WaldFunction(model.q, model.kind, values)
    t = HeckeElement.basis(model.q, lam)
    acted = {m: specialize(v, vals) for m, v in model.act(t, f).values.items()}
    want = {m: v for m, v in acted.items() if v}
    vec, scale = model._act_table(lam, as_table(values), vals)
    assert {m: v * scale for m, v in vec.items()} == want
    # reduced: a primitive vector of nonzero ints and a positive scale
    assert all(type(v) is int and v for v in vec.values())
    assert type(scale) is Fraction and scale > 0
    assert not vec or math.gcd(*vec.values()) == 1
    # the same function as a table that is not reduced gives the same table
    assert model._act_table(lam, as_table(values, 6), vals) == (vec, scale)


def outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


@st.composite
def specialize_cases(draw):
    q = draw(QS)
    x = draw(scalars(q, max_terms=5, sqrt_parts=draw(st.booleans())))
    values = st.one_of(st.just(0), RATIONALS.filter(bool), st.integers(-3, 3))
    names = draw(st.lists(st.sampled_from(VARS), unique=True))
    assignment = {name: draw(values) for name in names}
    r_value = draw(st.one_of(st.none(), RATIONALS, st.integers(-3, 3)))
    return x, assignment, r_value


@settings(max_examples=400, deadline=None)
@given(specialize_cases())
def test_specialize_matches_per_term_fractions(case):
    x, assignment, r_value = case
    got = outcome(specialize, x, assignment, r_value)
    assert got == outcome(specialize_reference, x, assignment, r_value)
    if got[0] == "value":
        assert got[1] is Fraction


def test_specialize_error_order_follows_the_terms():
    q = 3
    key_first = LaurentScalar(q, [((1, 0, 0), 1), ((0, 0, 0), SqrtQ(q, 0, 1))])
    r_first = LaurentScalar(q, [((0, 0, 0), SqrtQ(q, 0, 1)), ((1, 0, 0), 1)])
    for x in (key_first, r_first):
        assert outcome(specialize, x, {}) == outcome(specialize_reference, x, {})
    assert outcome(specialize, key_first, {})[1] is KeyError
    assert outcome(specialize, r_first, {})[2] == (
        "value contains sqrt(q) but no r value was given"
    )
    # both faults in one term: the missing r value is met first
    both = LaurentScalar(q, [((0, 2, 0), SqrtQ(q, 1, 1))])
    assert outcome(specialize, both, {"alpha": 2}) == outcome(
        specialize_reference, both, {"alpha": 2}
    )


def test_specialize_wide_negative_exponents():
    q = 5
    x = LaurentScalar(q, [((-7, 4, 0), 3), ((5, -6, 0), Fraction(-2, 3)), ((0, 0, 0), 1)])
    for a, b in ((Fraction(-2, 3), Fraction(5, 7)), (Fraction(1, 9), Fraction(-4))):
        got = specialize(x, {"alpha": a, "beta": b})
        assert type(got) is Fraction
        assert got == 3 * a**-7 * b**4 + Fraction(-2, 3) * a**5 * b**-6 + 1


@st.composite
def specialize_many_cases(draw):
    q = draw(QS)
    xs = []
    for _ in range(draw(st.integers(1, 4))):
        # each value's exponents sit in their own window, so the ranges differ
        shift = draw(st.tuples(*(st.integers(-4, 4) for _ in range(3))))
        x = draw(scalars(q, max_terms=4, sqrt_parts=draw(st.booleans())))
        xs.append(
            LaurentScalar(
                q, [(tuple(e + s for e, s in zip(k, shift)), c) for k, c in x.terms.items()]
            )
        )
    values = st.one_of(RATIONALS.filter(bool), st.integers(-3, 3).filter(bool))
    names = draw(st.lists(st.sampled_from(VARS), unique=True, min_size=2))
    assignment = {name: draw(values) for name in names}
    r_value = draw(st.one_of(st.none(), RATIONALS))
    return xs, assignment, r_value


def specialize_each(xs, assignment, r_value=None):
    return [specialize_reference(x, assignment, r_value) for x in xs]


def specialize_many(xs, assignment, r_value=None):
    """Each value of ``_specialize_sums`` as a Fraction: the eigen check's many-value route."""
    sums, num, den = _specialize_sums(xs, assignment, r_value)
    return [Fraction(s * num, den) for s in sums]


@settings(max_examples=100, deadline=None)
@given(specialize_many_cases())
def test_specialize_many_matches_each_value(case):
    xs, assignment, r_value = case
    got = outcome(specialize_many, xs, assignment, r_value)
    assert got == outcome(specialize_each, xs, assignment, r_value)
    if got[0] == "value":
        assert all(type(v) is Fraction for v in got[2])


def test_specialize_many_errors_come_in_value_order():
    q = 3
    needs_beta = LaurentScalar(q, [((1, 0, 0), 2), ((0, -2, 0), 1)])
    needs_r = LaurentScalar(q, [((-3, 0, 0), SqrtQ(q, 1, 1))])
    zero = LaurentScalar.zero(q)
    plain = LaurentScalar(q, [((4, 0, 0), Fraction(1, 2))])
    for xs in (
        [plain, needs_beta, needs_r],
        [zero, needs_r, needs_beta],
        [needs_r, plain, needs_beta],
    ):
        got = outcome(specialize_many, xs, {"alpha": 2})
        assert got == outcome(specialize_each, xs, {"alpha": 2})
        first = next(x for x in xs if x in (needs_beta, needs_r))
        assert got[1] is (KeyError if first is needs_beta else ResidualSqrtQ)
    # with r given, beta is the only fault left, wherever its value stands
    assert outcome(specialize_many, [needs_r, zero, needs_beta], {"alpha": 2}, 1)[1] is KeyError
    got = specialize_many([plain, zero, needs_r], {"alpha": 2}, Fraction(1, 3))
    assert got == [8, 0, Fraction(4, 3) / 8]
    assert [specialize(x, {"alpha": 2}, Fraction(1, 3)) for x in (plain, zero, needs_r)] == got


@st.composite
def constant_like_scalars(draw):
    """A term a + b*r, maybe zero and maybe constant, plus at most two more terms.

    a and b are big integers or small Fractions, b often zero, so this draws
    zero, integer and Fraction constants, monomials, terms with sqrt(q) parts,
    and a constant beside other terms.
    """
    q = draw(QS)
    parts = st.one_of(st.integers(-10**30, 10**30), RATIONALS)
    first = SqrtQ(q, draw(parts), draw(st.one_of(st.just(0), parts)))
    terms = [(draw(st.one_of(st.just((0, 0, 0)), EXPS)), first)]
    terms += draw(st.lists(st.tuples(EXPS, st.builds(SqrtQ, st.just(q), RATIONALS)), max_size=2))
    return LaurentScalar(q, terms)


@settings(max_examples=300, deadline=None)
@given(constant_like_scalars())
def test_scalar_as_int_matches_specializing_at_no_values(x):
    got = _scalar_as_int(x)
    assert got == scalar_as_int_reference(x)
    assert got is None or type(got) is int
