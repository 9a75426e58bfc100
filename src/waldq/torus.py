"""Quadratic etale algebras over F = F_q((t)) acting on rank-2 lattices.

Two kinds are implemented, each with its fixed coordinate frame on F^2:

* Split: the algebra F x F with standard basis (e1, e2); an element (x, y)
  acts as diag(x, y).  Its integers are O x O and the unit-class group of the
  algebra is Z^2 via componentwise valuation.
* Ramified: the algebra F(s) with s^2 = t, in the basis (1, s); an element
  x + y*s acts as [[x, t*y], [y, x]].  Its integers are O[s] and the class
  group is Z via the s-adic valuation val_s(x + y*s) = min(2 val x,
  2 val y + 1).

For a lattice L, its *envelope* is the smallest free rank-one module over the
algebra's integers containing L; it equals u * (integers) for a unit class u,
and the invariant m = valdet(L) - valdet(envelope) >= 0 measures how far L is
from being free of rank one.  Orbits of the algebra's unit group on lattices
are indexed by m; normalize(L) recovers (m, chi(u)) where chi(u) is the
character monomial of the envelope class (alpha^k1 * beta^k2 split, gamma^k
ramified).  Every per-kind datum read outside this module is a row of
``_KIND_TABLE``, read through ``EtaleKind``'s members; only the geometry
(embed, coordinates, orbit representatives, envelopes) branches on the kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ._purekern import pval
from .lattice import Lattice2
from .scalars import LaurentScalar
from .series import LaurentPoly


class NotInvertible(ValueError):
    """Raised when embedding a non-invertible algebra element."""


class EtaleKind(enum.Enum):
    SPLIT = "split"
    RAMIFIED = "ramified"

    @classmethod
    def parse(cls, text):
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise ValueError(f"kind must be 'split' or 'ramified', got {text!r}") from None

    @property
    def variables(self) -> tuple[str, ...]:
        """The character variables, in class-exponent order."""
        return _KIND_TABLE[self].variables

    @property
    def pads(self) -> tuple[tuple, tuple]:
        """Zeros (lo, hi): lo + exps + hi is the (alpha, beta, gamma) triple of exps."""
        return _KIND_TABLE[self].pads

    def closed_orbit_count(self, d, m) -> int:
        """Colength-d sublattices of the orbit-m representative on the closed orbit."""
        return 0 if d < m else _KIND_TABLE[self].closed(d - m)


class _KindRow(NamedTuple):
    variables: tuple[str, ...]
    pads: tuple[tuple, tuple]  # zeros around the variables in (alpha, beta, gamma)
    uniformizer: tuple[int, ...]  # class exponents of t; chi_c is its character
    closed: Callable[[int], int]  # closed-orbit count at d >= m, from d - m


_KIND_TABLE = {
    EtaleKind.SPLIT: _KindRow(("alpha", "beta"), ((), (0,)), (1, 1), lambda n: n + 1),
    EtaleKind.RAMIFIED: _KindRow(("gamma",), ((0, 0), ()), (2,), lambda n: 1),
}


@dataclass(frozen=True)
class TorusClass:
    """A unit class of the algebra: exponents (k1, k2) split, (k,) ramified."""

    kind: EtaleKind
    exps: tuple[int, ...]

    def __post_init__(self):
        want = len(self.kind.variables)
        if len(self.exps) != want:
            raise ValueError(f"{self.kind.value} class needs {want} exponent(s)")

    @classmethod
    def identity(cls, kind):
        return cls(kind, (0,) * len(kind.variables))

    def is_identity(self):
        return all(e == 0 for e in self.exps)

    def inverse(self):
        return TorusClass(self.kind, tuple(-e for e in self.exps))

    def compose(self, other):
        if other.kind is not self.kind:
            raise ValueError("mixed kinds")
        return TorusClass(self.kind, tuple(x + y for x, y in zip(self.exps, other.exps)))

    def chi(self, q) -> LaurentScalar:
        """The character monomial of this class."""
        lo, hi = self.kind.pads
        return LaurentScalar.monomial(q, lo + tuple(self.exps) + hi)

    def coordinates(self, q):
        """A representative of the class as coordinates (x, y) in the frame.

        Split: (t^k1, t^k2).  Ramified: s^k, i.e. (t^(k/2), 0) for even k and
        (0, t^((k-1)/2)) for odd k (s^k = t^((k-1)/2) * s).
        """
        if self.kind is EtaleKind.SPLIT:
            k1, k2 = self.exps
            return (LaurentPoly.t_power(q, k1), LaurentPoly.t_power(q, k2))
        k = self.exps[0]
        if k % 2 == 0:
            return (LaurentPoly.t_power(q, k // 2), LaurentPoly.zero(q))
        return (LaurentPoly.zero(q), LaurentPoly.t_power(q, (k - 1) // 2))


class OrbitPoint(NamedTuple):
    """normalize() result: orbit invariant and envelope-class character."""

    m: int
    chi: LaurentScalar


def embed(q, kind, x: LaurentPoly, y: LaurentPoly):
    """Matrix of multiplication by the algebra element with coordinates (x, y).

    Split: the element (x, y) of F x F.  Ramified: the element x + y*s.
    Raises NotInvertible when the element is not a unit of the algebra.
    """
    kind = EtaleKind(kind)
    zero = LaurentPoly.zero(q)
    if kind is EtaleKind.SPLIT:
        if x.is_zero() or y.is_zero():
            raise NotInvertible("zero component in F x F")
        return ((x, zero), (zero, y))
    if x.is_zero() and y.is_zero():
        raise NotInvertible("zero element")
    # norm x^2 - t y^2 is nonzero: its two halves have different parity of val
    return ((x, y.shift(1)), (y, x))


def _envelope_raw(kind, a, b, vc):
    """(class exponents, m) for a triple (a, b, c) with val c = vc: O(1) arithmetic.

    Read by envelope() and by the orbit tables on _member_histogram rows.
    Split: the envelope is t^v1 O x t^v2 O, v1 = min(a, val c), v2 = b.
    Ramified: s^k O[s], k the minimum s-valuation of the two basis vectors.
    """
    if kind is EtaleKind.SPLIT:
        v1 = min(a, vc)
        v2 = b
        return ((v1, v2), a + b - v1 - v2)
    k = min(2 * a, 2 * vc, 2 * b + 1)
    return ((k,), a + b - k)


def envelope(lat: Lattice2, kind) -> tuple[TorusClass, int]:
    """Minimal free rank-one module over the algebra integers containing lat.

    Returns (class, m): the envelope is (class representative) * integers and
    m = valdet(lat) - valdet(envelope) >= 0.
    """
    kind = EtaleKind(kind)
    exps, m = _envelope_raw(kind, lat.a, lat.b, pval(lat.c.raw))
    return TorusClass(kind, exps), m


def envelope_lattice(cls: TorusClass, q) -> Lattice2:
    """The envelope u * integers as a lattice: u moves the standard lattice."""
    return act_by_class(cls, Lattice2.standard(q))


def orbit_representative(q, kind, m) -> Lattice2:
    """The canonical lattice with invariant m and identity envelope class.

    Split: span{(t^m, 0), (1, 1)} (the standard lattice when m = 0).
    Ramified: O * 1 + O * t^m s, i.e. the triple (0, m, 0).
    """
    kind = EtaleKind(kind)
    if m < 0:
        raise ValueError("m must be >= 0")
    if kind is EtaleKind.SPLIT:
        if m == 0:
            return Lattice2.standard(q)
        return Lattice2(q, m, 0, LaurentPoly.one(q))
    return Lattice2(q, 0, m)


def normalize(lat: Lattice2, kind) -> OrbitPoint:
    """Orbit data of a lattice: invariant m and envelope-class character."""
    cls, m = envelope(lat, kind)
    return OrbitPoint(m, cls.chi(lat.q))


def chi_c(q, kind) -> LaurentScalar:
    """Character value of the central uniformizer t: alpha*beta or gamma^2."""
    kind = EtaleKind(kind)
    return TorusClass(kind, _KIND_TABLE[kind].uniformizer).chi(q)


def act_by_class(cls: TorusClass, lat: Lattice2) -> Lattice2:
    """Transform a lattice by the representative of a unit class."""
    x, y = cls.coordinates(lat.q)
    return lat.transform(embed(lat.q, cls.kind, x, y))
