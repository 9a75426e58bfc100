"""Laurent polynomial layer: exact arithmetic over F_q((t))."""

import math

import pytest

import oracles
from waldq.series import (
    _MILLER_RABIN_BELOW,
    FqElem,
    LaurentPoly,
    NotAUnit,
    _check_q,
    _miller_rabin,
    invert_unit,
    poly_arith,
    valuation,
)


def rand_poly(rng, q, span=8):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[rng.randint(-span, span)] = rng.randrange(q)
    return LaurentPoly.from_terms(q, terms)


def test_fq_elem_field_ops():
    q = 5
    a, b = FqElem(q, 3), FqElem(q, 4)
    assert (a + b).r == 2
    assert (a - b).r == 4
    assert (a * b).r == 2
    assert (-a).r == 2
    assert a.inverse().r == 2  # 3 * 2 = 6 = 1 mod 5
    assert FqElem(q, 0).is_zero()
    with pytest.raises(ZeroDivisionError):
        FqElem(q, 0).inverse()


def test_fq_elem_rejects_mixed_fields():
    with pytest.raises(ValueError):
        FqElem(3, 1) + FqElem(5, 1)


def test_constructors_and_normalization():
    q = 3
    z = LaurentPoly.zero(q)
    assert z.is_zero() and z.raw == (0, ())
    one = LaurentPoly.one(q)
    assert one.raw == (0, (1,))
    assert LaurentPoly.t_power(q, -2).raw == (-2, (1,))
    # from_terms drops zero coefficients and trims both ends
    f = LaurentPoly.from_terms(q, {5: 0, 2: 1, 4: 3})
    assert f.raw == (2, (1,))
    assert LaurentPoly.from_terms(q, {}).is_zero()


def test_valuation_and_degree():
    q = 3
    f = LaurentPoly.from_terms(q, {-1: 2, 3: 1})
    assert f.val == -1
    assert f.degree() == 3
    assert valuation(LaurentPoly.zero(q)) == math.inf
    assert LaurentPoly.zero(q).val == math.inf


def test_arithmetic_matches_dict_oracle(rng):
    q = 3
    for _ in range(200):
        f = rand_poly(rng, q)
        g = rand_poly(rng, q)
        df, dg = oracles.dict_from_raw(f.raw), oracles.dict_from_raw(g.raw)
        assert (f + g).raw == oracles.raw_from_dict(oracles.dict_add(q, df, dg))
        assert (f * g).raw == oracles.raw_from_dict(oracles.dict_mul(q, df, dg))
        neg = {k: (-c) % q for k, c in dg.items()}
        assert (f - g).raw == oracles.raw_from_dict(oracles.dict_add(q, df, neg))


def test_pow_and_shift(rng):
    q = 5
    for _ in range(50):
        f = rand_poly(rng, q)
        assert (f.shift(3) * LaurentPoly.one(q)).raw == f.shift(3).raw
        assert f.shift(2).shift(-2) == f
        g = f * f * f
        assert f ** 3 == g
    assert LaurentPoly.one(q) ** 0 == LaurentPoly.one(q)


def test_truncate_keeps_low_order_terms():
    q = 3
    f = LaurentPoly.from_terms(q, {-2: 1, 0: 2, 3: 1, 7: 2})
    assert f.truncate(4).raw == (-2, (1, 0, 2, 0, 0, 1))
    assert f.truncate(-2).is_zero()


def test_invert_unit_frozen_example():
    # (1 + t)^-1 = 1 + 2t + t^2 + 2t^3 + ... over F_3
    q = 3
    f = LaurentPoly.from_terms(q, {0: 1, 1: 1})
    inv = f.invert_unit(3)
    assert inv.raw == (0, (1, 2, 1))
    assert (f * inv).truncate(3) == LaurentPoly.one(q)


def test_invert_unit_random_roundtrip(rng):
    q = 7
    for _ in range(40):
        coeffs = {0: rng.randrange(1, q)}
        for k in range(1, 6):
            coeffs[k] = rng.randrange(q)
        f = LaurentPoly.from_terms(q, coeffs)
        prec = rng.randint(1, 9)
        inv = f.invert_unit(prec)
        assert (f * inv).truncate(prec) == LaurentPoly.one(q)


def test_invert_non_unit_raises():
    q = 3
    with pytest.raises(NotAUnit):
        LaurentPoly.zero(q).invert_unit(4)
    with pytest.raises(NotAUnit):
        LaurentPoly.t_power(q, 1).invert_unit(4)
    with pytest.raises(NotAUnit):
        LaurentPoly.t_power(q, -1).invert_unit(4)
    assert invert_unit(LaurentPoly.one(q), 2) == LaurentPoly.one(q)


def test_poly_arith_dispatch():
    q = 3
    f = LaurentPoly.from_terms(q, {0: 1, 2: 2})
    g = LaurentPoly.from_terms(q, {1: 1})
    assert poly_arith(f, g, "add") == f + g
    assert poly_arith(f, g, "sub") == f - g
    assert poly_arith(f, g, "mul") == f * g
    assert poly_arith(f, None, "neg") == -f
    with pytest.raises(ValueError):
        poly_arith(f, g, "div")


def test_equality_hash_and_immutability():
    q = 3
    f = LaurentPoly.from_terms(q, {1: 2})
    g = LaurentPoly.t_power(q, 1).shift(0) * LaurentPoly.const(q, 2)
    assert f == g and hash(f) == hash(g)
    assert f != LaurentPoly.from_terms(5, {1: 2})
    with pytest.raises(AttributeError):
        f.off = 3


def test_json_roundtrip(rng):
    q = 3
    for _ in range(25):
        f = rand_poly(rng, q)
        blob = f.to_json()
        assert set(blob) == {"offset", "coeffs"}
        assert LaurentPoly.from_json(q, blob) == f


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(3) + LaurentPoly.one(5)


# 2^61 - 1 is a Mersenne prime; 3215031751 is a strong pseudoprime
# to bases 2, 3, 5 and 7, and 318665857834031151167461 to each of the first 12
# primes, so only the 13th base (41) exposes it.
@pytest.mark.parametrize("q", [3, 13, 262139, 262147, 1000000007, 2**61 - 1])
def test_check_q_accepts_primes(q):
    _check_q(q)


@pytest.mark.parametrize(
    "q", [4, 9, -3, 561, 262143, 3215031751, 2**61 + 1, 318665857834031151167461]
)
def test_check_q_rejects_composites(q):
    with pytest.raises(ValueError, match="odd prime"):
        _check_q(q)


def test_check_q_refuses_q_past_the_exact_range():
    with pytest.raises(ValueError, match="must be below"):
        _check_q(_MILLER_RABIN_BELOW + 2)


def test_miller_rabin_agrees_with_trial_division():
    def trial(n):
        return all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    for n in range(43, 20000, 2):
        assert _miller_rabin(n) == trial(n), n
