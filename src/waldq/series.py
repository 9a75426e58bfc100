"""Exact Laurent polynomials over F_q, q an odd prime.

Every element of F_q((t)) that this package manipulates is a Laurent
polynomial (finitely many terms), so all ring operations are exact — there
is no global precision.  The only genuinely infinite objects are inverses of
units, and ``invert_unit`` produces those modulo an explicit ``t**precision``
chosen by the caller from valuation bookkeeping.

``LaurentPoly`` stores a normalized pair (offset, coeffs): ``coeffs`` is a
tuple of residues in [0, q) with nonzero first and last entry, denoting
``sum(coeffs[i] * t**(offset + i))``; zero is ``(0, ())``.  The same raw
pairs are the currency of the batch kernels in ``waldq.backend``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _purekern as _pk


class NotAUnit(ArithmeticError):
    """Raised when inverting an element of nonzero valuation (or zero)."""


#: Below this, trial division up to sqrt(q) is faster than Miller-Rabin.
_TRIAL_DIVISION_BELOW = 1 << 18

#: Miller-Rabin bases: the first 13 primes.  No composite below
#: _MILLER_RABIN_BELOW is a strong pseudoprime to all of them (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017),
#: so the test is exact there; larger q are refused.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BELOW = 3317044064679887385961981


def _miller_rabin(q):
    """Is the odd q > 41 a strong probable prime to every base?"""
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _check_q(q):
    if not isinstance(q, int) or q < 3 or q % 2 == 0:
        raise ValueError(f"q must be an odd prime, got {q!r}")
    if q < _TRIAL_DIVISION_BELOW:
        d = 3
        while d * d <= q:
            if q % d == 0:
                raise ValueError(f"q must be an odd prime, got {q!r}")
            d += 2
    elif q >= _MILLER_RABIN_BELOW:
        raise ValueError(f"q must be below {_MILLER_RABIN_BELOW}, got {q}")
    elif not _miller_rabin(q):
        raise ValueError(f"q must be an odd prime, got {q!r}")


@dataclass(frozen=True)
class FqElem:
    """A residue in the prime field F_q."""

    q: int
    r: int

    def __post_init__(self):
        _check_q(self.q)
        object.__setattr__(self, "r", self.r % self.q)

    def _same(self, other):
        if not isinstance(other, FqElem) or other.q != self.q:
            raise ValueError("mixed fields")
        return other

    def __add__(self, other):
        return FqElem(self.q, self.r + self._same(other).r)

    def __sub__(self, other):
        return FqElem(self.q, self.r - self._same(other).r)

    def __mul__(self, other):
        return FqElem(self.q, self.r * self._same(other).r)

    def __neg__(self):
        return FqElem(self.q, -self.r)

    def inverse(self):
        if self.r == 0:
            raise ZeroDivisionError("zero residue")
        return FqElem(self.q, pow(self.r, self.q - 2, self.q))

    def is_zero(self):
        return self.r == 0

    def __str__(self):
        return f"{self.r} (mod {self.q})"


class LaurentPoly:
    """Immutable Laurent polynomial over F_q."""

    __slots__ = ("q", "off", "co")

    def __init__(self, q, off=0, coeffs=()):
        _check_q(q)
        object.__setattr__(self, "q", q)
        o, c = _pk.pnorm(q, off, list(coeffs))
        object.__setattr__(self, "off", o)
        object.__setattr__(self, "co", c)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return (LaurentPoly, (self.q, self.off, self.co))

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, q):
        return cls(q)

    @classmethod
    def one(cls, q):
        return cls(q, 0, (1,))

    @classmethod
    def const(cls, q, c):
        return cls(q, 0, (c,))

    @classmethod
    def t_power(cls, q, k):
        return cls(q, k, (1,))

    @classmethod
    def from_terms(cls, q, terms):
        """Build from a {exponent: coefficient} mapping."""
        if not terms:
            return cls(q)
        lo = min(terms)
        hi = max(terms)
        co = [0] * (hi - lo + 1)
        for k, c in terms.items():
            co[k - lo] = c
        return cls(q, lo, co)

    @classmethod
    def from_raw(cls, q, raw):
        p = cls.__new__(cls)
        object.__setattr__(p, "q", q)
        object.__setattr__(p, "off", raw[0] if raw[1] else 0)
        object.__setattr__(p, "co", raw[1])
        return p

    @property
    def raw(self):
        return (self.off, self.co)

    # structure ----------------------------------------------------------

    def is_zero(self):
        return not self.co

    def is_unit(self):
        return bool(self.co) and self.off == 0

    @property
    def val(self):
        """Valuation; +inf for zero."""
        return self.off if self.co else math.inf

    def coeff(self, k):
        """Coefficient of t^k."""
        i = k - self.off
        return self.co[i] if self.co and 0 <= i < len(self.co) else 0

    def residue(self):
        """Leading coefficient (at the valuation); 0 for zero."""
        return self.co[0] if self.co else 0

    def degree(self):
        """Largest exponent; -inf for zero."""
        return self.off + len(self.co) - 1 if self.co else -math.inf

    # arithmetic ----------------------------------------------------------

    def _same(self, other):
        if not isinstance(other, LaurentPoly) or other.q != self.q:
            raise ValueError("mixed coefficient fields")
        return other

    def __add__(self, other):
        return LaurentPoly.from_raw(self.q, _pk.padd(self.q, self.raw, self._same(other).raw))

    def __sub__(self, other):
        return LaurentPoly.from_raw(self.q, _pk.psub(self.q, self.raw, self._same(other).raw))

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly.from_raw(self.q, _pk.pconstmul(self.q, self.raw, other))
        return LaurentPoly.from_raw(self.q, _pk.pmul(self.q, self.raw, self._same(other).raw))

    __rmul__ = __mul__

    def __neg__(self):
        return LaurentPoly.from_raw(self.q, _pk.pneg(self.q, self.raw))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = LaurentPoly.one(self.q)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPoly.from_raw(self.q, _pk.pshift(self.raw, k))

    def truncate(self, k):
        """Drop every term of exponent >= k."""
        return LaurentPoly.from_raw(self.q, _pk.ptrunc(self.raw, k))

    def invert_unit(self, precision):
        """Inverse modulo t^precision; requires valuation 0."""
        if not self.is_unit():
            raise NotAUnit(f"valuation {self.val} != 0")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        return LaurentPoly.from_raw(self.q, _pk.pinv_unit(self.q, self.raw, precision))

    # protocol ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.q == other.q
            and self.off == other.off
            and self.co == other.co
        )

    def __hash__(self):
        return hash((self.q, self.off, self.co))

    def __bool__(self):
        return bool(self.co)

    def __repr__(self):
        return f"LaurentPoly(q={self.q}, {self})"

    def __str__(self):
        if not self.co:
            return "0"
        parts = []
        for i, c in enumerate(self.co):
            if not c:
                continue
            k = self.off + i
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return " + ".join(parts)

    # serialization -------------------------------------------------------

    def to_json(self):
        return {"offset": self.off, "coeffs": list(self.co)}

    @classmethod
    def from_json(cls, q, obj):
        try:
            off, coeffs = obj["offset"], obj["coeffs"]
        except (KeyError, TypeError):
            off = coeffs = None
        ints = type(off) is int and type(coeffs) is list and all(type(c) is int for c in coeffs)
        if not ints:
            raise ValueError(
                f'polynomial record must be {{"offset": k, "coeffs": [...]}} of integers, '
                f"got {obj!r}"
            )
        return cls(q, off, coeffs)


def valuation(x: LaurentPoly):
    """Valuation of x: an integer, or +inf for zero."""
    return x.val


def invert_unit(x: LaurentPoly, precision: int) -> LaurentPoly:
    """Inverse of a valuation-0 unit modulo t^precision."""
    return x.invert_unit(precision)


def poly_arith(x: LaurentPoly, y: LaurentPoly | None, op: str) -> LaurentPoly:
    """Dispatch exact ring operations: op in {"add", "sub", "mul", "neg"}."""
    if op == "neg":
        return -x
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    raise ValueError(f"unknown op {op!r}")
