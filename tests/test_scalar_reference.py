"""SqrtQ and LaurentScalar arithmetic against a plain two-Fraction reference.

The reference keeps each coefficient a + b*r as a pair of Fractions and each
Laurent scalar as a dict of such pairs, with none of the int fast paths, so it
checks both the int and the Fraction paths of the scalar layer, with and
without a sqrt(q) part.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from waldq.scalars import LaurentScalar, SqrtQ

QS = st.sampled_from([3, 5, 7])
# small numerators over denominators 1..4: integral values and proper fractions
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
EXPS = st.tuples(*(st.integers(-2, 2) for _ in range(3)))


def pair(x):
    return (Fraction(x.a), Fraction(x.b))


def ref_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def ref_mul(q, u, v):
    return (u[0] * v[0] + q * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def ref_inverse(q, u):
    n = u[0] * u[0] - q * u[1] * u[1]
    return (u[0] / n, -u[1] / n)


def assert_normal(x):
    """a and b are ints exactly when integral, Fractions otherwise."""
    for part in (x.a, x.b):
        assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


@st.composite
def sqrtqs(draw, q):
    return SqrtQ.of(q, draw(RATIONALS), draw(st.one_of(st.just(0), RATIONALS)))


@st.composite
def sqrtq_pairs(draw):
    q = draw(QS)
    return q, draw(sqrtqs(q)), draw(sqrtqs(q))


@given(sqrtq_pairs())
def test_sqrtq_ring_ops_match_reference(args):
    q, x, y = args
    u, v = pair(x), pair(y)
    for got, want in (
        (x + y, ref_add(u, v)),
        (x - y, ref_add(u, (-v[0], -v[1]))),
        (x * y, ref_mul(q, u, v)),
        (-x, (-u[0], -u[1])),
    ):
        assert pair(got) == want
        assert_normal(got)
    if not x.is_zero():
        inv = x.inverse()
        assert pair(inv) == ref_inverse(q, u)
        assert_normal(inv)
        assert x * inv == SqrtQ.one(q)


@given(QS, RATIONALS, RATIONALS)
def test_sqrtq_normal_form_and_hash(q, a, b):
    x = SqrtQ.of(q, a, b)
    assert_normal(x)
    assert x == SqrtQ(q, Fraction(a), Fraction(b)) == SqrtQ.of(q, str(a), str(b))
    assert hash(x) == hash(SqrtQ(q, Fraction(a), Fraction(b)))
    assert x.specialize_r(3) == a + 3 * b
    if not b:
        assert type(x.specialize_r()) is Fraction and x.specialize_r() == a


def test_integral_values_store_as_int():
    q = 3
    two = SqrtQ.of(q, Fraction(4, 2))
    assert two == SqrtQ.of(q, 2) and hash(two) == hash(SqrtQ.of(q, 2))
    assert type(two.a) is int and type(two.b) is int
    assert repr(two) == "SqrtQ(q=3, a=Fraction(2, 1), b=Fraction(0, 1))"
    assert str(SqrtQ.of(q, Fraction(-6, 4), 2)) == "-3/2 + 2*r"
    rows = [
        LaurentScalar.monomial(q, (1, 0, -1), c).to_json()
        for c in (SqrtQ.of(q, 2), SqrtQ.of(q, Fraction(4, 2)), 2, Fraction(2))
    ]
    assert all(r == rows[0] for r in rows)
    assert rows[0] == [
        {"ea": 1, "eb": 0, "eg": -1, "num_a": 2, "den_a": 1, "num_b": 0, "den_b": 1}
    ]


def ref_scalar(x):
    return {k: pair(c) for k, c in x.terms.items()}


def ref_product(q, u, v):
    out = {}
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = ref_add(out.get(k, (Fraction(0), Fraction(0))), ref_mul(q, c1, c2))
    return {k: c for k, c in out.items() if c != (0, 0)}


@st.composite
def laurent_scalars(draw, q):
    terms = draw(st.lists(st.tuples(EXPS, sqrtqs(q)), max_size=4))
    return LaurentScalar(q, terms)


@st.composite
def laurent_pairs(draw):
    q = draw(QS)
    return q, draw(laurent_scalars(q)), draw(laurent_scalars(q)), draw(RATIONALS)


@given(laurent_pairs())
def test_laurent_products_match_reference(args):
    q, x, y, s = args
    u, v = ref_scalar(x), ref_scalar(y)
    prod = x * y
    assert ref_scalar(prod) == ref_product(q, u, v)
    assert prod == y * x
    scaled = ref_product(q, u, {(0, 0, 0): (s, Fraction(0))})
    for got in (x * s, s * x, x * LaurentScalar.from_fraction(q, s)):
        assert ref_scalar(got) == scaled
    if s.denominator == 1:
        assert ref_scalar(x * int(s)) == scaled
    total = x + y
    want = dict(u)
    for k, c in v.items():
        want[k] = ref_add(want.get(k, (Fraction(0), Fraction(0))), c)
    assert ref_scalar(total) == {k: c for k, c in want.items() if c != (0, 0)}
    assert (x - y) + y == x
    for z in (prod, total, x * s):
        for c in z.terms.values():
            assert_normal(c)
            assert not c.is_zero()
        assert LaurentScalar.from_json(q, z.to_json()) == z
