"""Spherical Hecke algebra of GL2 over F_q((t)).

Elements are finite sums of double-coset indicator functions T_lam indexed by
dominant coweights, with coefficients in the symbolic character ring.  Their
sum arithmetic (merging, +, -, scaling, equality, hashing) is ``_FiniteSum``,
which ``waldspurger.WaldFunction`` shares: the two types differ only in
their keys and in what two sums must share before they combine.
Multiplication is convolution, computed exactly by lattice counting: the
structure constant of T_nu in T_lam * T_mu is the number of chains
L0 -> L'' -> L_nu with the prescribed relative positions (``_pair_product``).
``convolve`` sums each output coefficient as plain (a, b) parts per
exponent triple (``scalars._add_scaled``): each structure constant adds the
second coefficient's raw terms once per term of the first, shifted by its
exponents and scaled by its parts, and each output coefficient is built
once from its sums.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from operator import itemgetter

from . import backend
from ._purekern import INF, PZERO
from .lattice import Coweight, _dominant, _member_histogram
from .scalars import LaurentScalar, _add_scaled
from .torus import chi_c

__all__ = [
    "HeckeElement",
    "ZeroEigenvalue",
    "central_normalize",
    "convolve",
    "satake_basis",
    "schur_gl2",
    "to_satake",
]


class ZeroEigenvalue(ValueError):
    """A character evaluation received a zero eigenvalue."""


def _as_scalar(q, value):
    if isinstance(value, LaurentScalar):
        if value.q != q:
            raise ValueError("mixed residue characteristics")
        return value
    if type(value) is int:
        return LaurentScalar._from_sums(q, {(0, 0, 0): (value, 0)})
    if isinstance(value, (int, Fraction)):
        return LaurentScalar.from_fraction(q, Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class _FiniteSum:
    """Immutable finite sum: ``terms`` maps keys to nonzero LaurentScalars.

    The arithmetic HeckeElement and WaldFunction share.  Keys are merged in
    the constructor and nowhere else.  A subclass supplies ``_key``, which
    checks (and may convert) one key, and ``_space``, its leading constructor
    arguments: what two sums must share to be combined or equal.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=()):
        key = self._key
        cleaned = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for k, c in items:
            k = key(k)
            if type(c) is not LaurentScalar or c.q != q:
                c = _as_scalar(q, c)
            prev = cleaned.get(k)
            cleaned[k] = c if prev is None else prev + c
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", {k: c for k, c in cleaned.items() if c.terms})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (*self._space(), self.terms))

    def _like(self, terms):
        """A sum of this type and space with the given terms."""
        return type(self)(*self._space(), terms)

    def _from_merged(self, terms):
        """``_like`` for a dict of checked keys and coefficients of q; only
        zeros are dropped (for -, scaling, ``convolve`` and ``WaldModel.act``)."""
        x = self._like(())
        object.__setattr__(x, "terms", {k: c for k, c in terms.items() if c.terms})
        return x

    def is_zero(self):
        return not self.terms

    def support(self):
        """Sorted tuple of the keys with nonzero coefficient."""
        return tuple(sorted(self.terms))

    def coefficient(self, key) -> LaurentScalar:
        """The coefficient at key; zero where the sum has none."""
        return self.terms.get(key, LaurentScalar.zero(self.q))

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        if other.q != self.q:
            raise ValueError("mixed residue characteristics")
        if other._space() != self._space():
            raise ValueError("mixed function spaces")
        return self._like([*self.terms.items(), *((k, c * sign) for k, c in other.terms.items())])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._from_merged({k: -c for k, c in self.terms.items()})

    def scaled(self, value):
        s = _as_scalar(self.q, value)
        return self._from_merged({k: c * s for k, c in self.terms.items()})

    __mul__ = __rmul__ = scaled

    def __eq__(self, other):
        same = type(other) is type(self) and self.terms == other.terms
        return same and self._space() == other._space()

    def __hash__(self):
        return hash((self._space(), tuple(sorted(self.terms.items(), key=itemgetter(0)))))


class HeckeElement(_FiniteSum):
    """A finite linear combination of basis elements T_lam.

    ``terms`` maps dominant Coweights to nonzero LaurentScalar coefficients.
    Addition and scalar multiplication are componentwise (``_FiniteSum``);
    ``*`` between two elements is convolution.
    """

    __slots__ = ()

    _key = staticmethod(_dominant)

    def _space(self):
        return (self.q,)

    @classmethod
    def basis(cls, q, lam) -> "HeckeElement":
        return cls(q, [(lam, 1)])

    @classmethod
    def unit(cls, q) -> "HeckeElement":
        return cls.basis(q, Coweight(0, 0))

    @classmethod
    def zero(cls, q) -> "HeckeElement":
        return cls(q)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return convolve(self, other)
        return self.scaled(other)

    def __repr__(self):
        if not self.terms:
            return f"HeckeElement({self.q}, 0)"
        bits = " + ".join(f"({c})*T{tuple(cw)}" for cw, c in sorted(self.terms.items()))
        return f"HeckeElement({self.q}, {bits})"

    def to_json(self):
        return {
            "q": self.q,
            "terms": [
                {"coweight": [cw.a1, cw.a2], "scalar": c.to_json()}
                for cw, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "HeckeElement":
        q = obj["q"]
        terms = [
            (Coweight(*row["coweight"]), LaurentScalar.from_json(q, row["scalar"]))
            for row in obj["terms"]
        ]
        return cls(q, terms)


@functools.lru_cache(maxsize=None)
def _pair_product(q, lam, mu):
    """Structure constants of T_lam * T_mu: tuple of (Coweight nu, count).

    Counts, for each dominant nu of total degree |lam| + |mu|, the lattices
    L'' in exact position lam from the standard lattice such that the
    position of L'' relative to the diagonal lattice L_nu is mu.
    """
    total = lam[0] + lam[1] + mu[0] + mu[1]
    counts = Counter()
    for (a, b, vc, s), n in _member_histogram(q, (0, 0, PZERO), Coweight(*lam)).items():
        if s == 0:
            # against a diagonal lattice (c2 = 0) rel_pos reads only val c1, so t^(val c1) will do
            c1 = (vc, (1,)) if vc < INF else PZERO
            for nu1 in range(-(-total // 2), lam[0] + mu[0] + 1):
                if backend.rel_pos(q, a, b, c1, nu1, total - nu1, PZERO) == mu:
                    counts[nu1, total - nu1] += n
    return tuple(sorted((Coweight(*nu), n) for nu, n in counts.items()))


def convolve(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Convolution product, bilinear over the structure constants.

    Each output coefficient is built once, with no product of two
    coefficients taken beforehand: for each structure constant count of
    T_nu in T_lam * T_mu, each term (a + b*r) * x^k of x's coefficient at
    lam adds count * a times y's raw (exponents, a, b) triples at mu,
    shifted by k, and, when b is nonzero, count * b times their r-rotated
    triples, into plain (a, b) sums per output coweight.
    """
    if not isinstance(x, HeckeElement) or not isinstance(y, HeckeElement):
        raise TypeError("convolve expects two HeckeElements")
    if x.q != y.q:
        raise ValueError("mixed residue characteristics")
    q = x.q
    sums = {}  # nu -> exps -> [a, b]
    for lam, cx in x.terms.items():
        xs = [(k, c.a, c.b) for k, c in cx.terms.items()]
        rotate = any(b for _k, _a, b in xs)
        for mu, cy in y.terms.items():
            ys = [(k, c.a, c.b) for k, c in cy.terms.items()]
            rys = [(k, q * tb, ta) for k, ta, tb in ys] if rotate else ()
            for nu, count in _pair_product(q, tuple(lam), tuple(mu)):
                out = sums.setdefault(nu, {})
                for k, a, b in xs:
                    _add_scaled(out, count * a, k, ys)
                    if b:
                        _add_scaled(out, count * b, k, rys)
    return x._from_merged({nu: LaurentScalar._from_sums(q, s) for nu, s in sums.items()})


@functools.lru_cache(maxsize=None)
def _satake_cached(q, lam):
    a, b = lam
    if a == b:
        # a central orbit closure is a single point
        return HeckeElement.basis(q, Coweight(a, b))
    if b != 0:
        core = _satake_cached(q, (a - b, 0))
        return HeckeElement(
            q, {Coweight(c1 + b, c2 + b): v for (c1, c2), v in core.terms.items()}
        )
    if a == 1:
        return HeckeElement.basis(q, Coweight(1, 0))
    # two-step recursion from the minuscule generator; the correction term
    # is the central shift of the basis element two degrees down
    head = convolve(HeckeElement.basis(q, Coweight(1, 0)), _satake_cached(q, (a - 1, 0)))
    corr = _satake_cached(q, (a - 2, 0))
    shifted = HeckeElement(
        q, {Coweight(c1 + 1, c2 + 1): v for (c1, c2), v in corr.terms.items()}
    )
    return head - shifted


def satake_basis(q, lam) -> HeckeElement:
    """A(lam), of the basis A whose Pieri rule has coefficient 1.

    Minuscule and central A are single basis terms, and A(1,0) * A(d,0) =
    A(d+1,0) + A(d,1) (``_satake_cached``); all coefficients are nonnegative
    integers.  A is not the orbit-closure basis C (C(lam) is the sum of T_mu
    over dominant mu <= lam of the same total): A(2,0) = T(2,0) + q T(1,1),
    C(2,0) = T(2,0) + T(1,1).  C's recursion has q T(1,1), so A = C at q = 1.
    """
    lam = _dominant(lam)
    return _satake_cached(q, (lam.a1, lam.a2))


def to_satake(h: HeckeElement) -> dict:
    """Expand h over the satake_basis family; returns {Coweight: LaurentScalar}.

    Greedy peeling from the dominance-largest remaining term; terminates
    because each basis element is unitriangular against the T-basis.
    """
    rem = h
    out = {}
    while rem.terms:
        lam = max(rem.terms, key=lambda cw: (cw.a1 - cw.a2, cw.a1, cw.a2))
        coeff = rem.terms[lam]
        out[lam] = coeff
        rem = rem - satake_basis(h.q, lam).scaled(coeff)
    return out


def schur_gl2(lam, e1, e2) -> Fraction:
    """Character of the irreducible GL2 representation with highest weight lam.

    Evaluated at diagonal (e1, e2): (e1*e2)^lam2 * h_{lam1-lam2}(e1, e2),
    using the complete homogeneous polynomial form (no division, so the
    degenerate case e1 = e2 is fine).

    With e1 = n1/d1 and e2 = n2/d2, h_n is the integer sum of
    (n1*d2)^i (n2*d1)^(n-i) over (d1*d2)^n, and (e1*e2)^lam2 is
    (n1*n2)^lam2 over (d1*d2)^lam2, so one Fraction is built at the end.
    """
    lam = _dominant(lam)
    e1 = Fraction(e1)
    e2 = Fraction(e2)
    if e1 == 0 or e2 == 0:
        raise ZeroEigenvalue("character values must be nonzero")
    n, k = lam.a1 - lam.a2, lam.a2
    x = e1.numerator * e2.denominator
    y = e2.numerator * e1.denominator
    h = sum(x**i * y ** (n - i) for i in range(n + 1))
    num = e1.numerator * e2.numerator
    den = e1.denominator * e2.denominator
    if k >= 0:
        return Fraction(h * num**k, den ** (n + k))
    return Fraction(h * den**-k, den**n * num**-k)


def central_normalize(h: HeckeElement, kind) -> HeckeElement:
    """Rewrite each T_(a,b) as chi_c(t)^b * T_(a-b,0).

    This is the presentation of the character-twisted algebra in which the
    central coweight acts through the torus character; it is exactly how the
    central element acts on equivariant functions, so the identification is
    harmless there and explicit here.
    """
    unit_char = chi_c(h.q, kind)
    terms = [((cw.a1 - cw.a2, 0), c * unit_char ** cw.a2) for cw, c in h.terms.items()]
    return HeckeElement(h.q, terms)
