"""Rank-2 lattices over O = F_q[[t]] inside F^2, F = F_q((t)).

A lattice is a finitely generated O-submodule of F^2 of rank 2, stored by its
canonical triangular basis: columns (t^a, 0) and (c, t^b) with c reduced mod
t^a (every exponent of c is < a; the offset may be negative).  Two lattices
are equal iff their triples coincide, so equality, hashing, and deterministic
ordering are structural.

Sublattice enumeration is exact and duplicate-free: the colength-n
sublattices of L biject with triangular triples (alpha, beta, w), alpha +
beta = n, w a polynomial of degree < alpha, giving sum(q^alpha) members, of
which the ones in exact relative position (n, 0) are q^(n-1) * (q+1).
closure_members and enumerate_in_position enumerate them as sorted
lattices, through _raw_members and the sublattices kernel.  The counts
campaign reads _member_count, which counts the same rows as the
sublattice_rows kernel yields them, one at a time: it builds no lattice,
sorts nothing and holds no list, so its memory does not grow with q or n.
The orbit tables and the Hecke structure constants read only
_member_histogram, which counts the members of each (a2, b2, val c2, s)
class in closed form and enumerates nothing.

Exponents and coweight entries must be ints (bool and float are rejected).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import backend
from ._purekern import INF, pshift, ptrunc, pval
from .series import LaurentPoly


class SingularGenerators(ValueError):
    """Raised when proposed generators do not span a rank-2 lattice."""


class Coweight(NamedTuple):
    """An integral coweight (a1, a2) of GL2; dominant means a1 >= a2."""

    a1: int
    a2: int

    def is_dominant(self):
        return self.a1 >= self.a2

    def total(self):
        return self.a1 + self.a2

    def __str__(self):
        return f"({self.a1},{self.a2})"

    @classmethod
    def parse(cls, text):
        try:  # two parts, each an integer
            a1, a2 = map(int, text.strip().lstrip("(").rstrip(")").split(","))
        except ValueError:
            raise ValueError(f"cannot parse coweight from {text!r}") from None
        return cls(a1, a2)


class Lattice2:
    """A rank-2 O-lattice in canonical triangular form."""

    __slots__ = ("q", "a", "b", "c")

    def __init__(self, q, a, b, c=None):
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"lattice exponents must be integers, got a={a!r}, b={b!r}")
        c = LaurentPoly.zero(q) if c is None else c
        if c.q != q:
            raise ValueError("mixed coefficient fields")
        if not c.is_zero() and c.degree() >= a:
            raise ValueError("c must be reduced mod t^a")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice2 is immutable")

    def __reduce__(self):
        return (Lattice2, (self.q, self.a, self.b, self.c))

    # construction ---------------------------------------------------------

    @classmethod
    def standard(cls, q):
        """The standard lattice O^2."""
        return cls(q, 0, 0)

    @classmethod
    def diagonal(cls, q, k1, k2):
        """span{(t^k1, 0), (0, t^k2)}."""
        return cls(q, k1, k2)

    @classmethod
    def from_triple(cls, q, a, b, c_raw):
        return cls(q, a, b, LaurentPoly.from_raw(q, c_raw))

    # structure --------------------------------------------------------------

    @property
    def valdet(self):
        """Valuation of the determinant of any basis."""
        return self.a + self.b

    @property
    def triple(self):
        return (self.a, self.b, self.c.raw)

    def basis(self):
        """Canonical basis as columns ((t^a, 0), (c, t^b))."""
        q = self.q
        return (
            (LaurentPoly.t_power(q, self.a), LaurentPoly.zero(q)),
            (self.c, LaurentPoly.t_power(q, self.b)),
        )

    @property
    def sort_key(self):
        return (self.a, self.b, self.c.off, self.c.co)

    def scale(self, k):
        """t^k * L."""
        return Lattice2(self.q, self.a + k, self.b + k, self.c.shift(k))

    def transform(self, m):
        """g * L for a 2x2 matrix g over F (rows of LaurentPoly)."""
        (g11, g12), (g21, g22) = m
        cols = []
        for top, bot in self.basis():
            cols.append((g11 * top + g12 * bot, g21 * top + g22 * bot))
        return canonicalize(self.q, (cols[0], cols[1]))

    def __eq__(self, other):
        return (
            isinstance(other, Lattice2)
            and self.q == other.q
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.q, self.a, self.b, self.c))

    def __repr__(self):
        return f"Lattice2(q={self.q}, a={self.a}, b={self.b}, c={self.c})"

    def to_json(self):
        return {"a": self.a, "b": self.b, "c": self.c.to_json()}

    @classmethod
    def from_json(cls, q, obj):
        return cls(q, obj["a"], obj["b"], LaurentPoly.from_json(q, obj["c"]))


def canonicalize(q, columns) -> Lattice2:
    """Canonical form of the lattice spanned by two column vectors.

    ``columns`` is ((x1, y1), (x2, y2)) with LaurentPoly entries.  Raises
    SingularGenerators when the columns are linearly dependent over F.
    """
    (x1, y1), (x2, y2) = columns
    out = backend.canon(q, x1.raw, y1.raw, x2.raw, y2.raw)
    if out is None:
        raise SingularGenerators("generators do not span a rank-2 lattice")
    return Lattice2.from_triple(q, *out)


def relative_position(l1: Lattice2, l2: Lattice2) -> Coweight:
    """Elementary-divisor exponents (larger first) of the transition l1 -> l2.

    relative_position(L, g L) is the Cartan invariant of g; it is invariant
    under a common transform and antisymmetric: swapping the arguments
    negates and swaps the pair.
    """
    if l1.q != l2.q:
        raise ValueError("mixed coefficient fields")
    r = backend.rel_pos(l1.q, l1.a, l1.b, l1.c.raw, l2.a, l2.b, l2.c.raw)
    return Coweight(*r)


def _dominant(lam):
    """lam as a Coweight, checked: both entries ints (not bool) and a1 >= a2."""
    cw = lam if type(lam) is Coweight else Coweight(*lam)
    if type(cw.a1) is not int or type(cw.a2) is not int:
        raise ValueError(f"coweight entries must be integers, got {lam!r}")
    if cw.a1 < cw.a2:
        raise ValueError(f"coweight {cw} is not dominant")
    return cw


def _shifted(triple, lam):
    """(a, b, c, n): the triple of t^lam2 * L and the colength lam1 - lam2."""
    lam = _dominant(lam)
    a, b, c = triple
    return a + lam.a2, b + lam.a2, ptrunc(pshift(c, lam.a2), a + lam.a2), lam.a1 - lam.a2


def _raw_members(q, triple, lam):
    """Every member row, enumerated: read by _members, and as the reference
    that _member_histogram's counts are tested against.

    Returns (a2, b2, c2_raw, s) tuples for all sublattices of t^lam2 * L of
    colength lam1 - lam2; s = 0 exactly for the members in position lam.
    """
    return backend.sublattices(q, *_shifted(triple, lam))


def _member_histogram(q, triple, lam) -> Counter:
    """Counter of (a2, b2, val c2, s) over the rows of _raw_members, counted
    in O(n^2) steps without enumerating them.

    Its readers (waldspurger's orbit tables, hecke._pair_product) need no
    more: envelopes and rel_pos against a diagonal lattice read c2 only
    through val c2.  The counts are Hall polynomials in q.

    The member (alpha, beta, w) has a2 = a + alpha, b2 = b + beta,
    c2 = w t^a + cs mod t^a2 with cs = c t^beta mod t^a2, and s =
    min(alpha, beta, val w); w runs over the q^alpha polynomials of degree
    < alpha.  So the class of w is fixed by v = val w and by val c2.
    """
    a, b, c, n = _shifted(triple, lam)
    hist = Counter()
    for alpha in range(n + 1):
        beta = n - alpha
        ca, cb, top = a + alpha, b + beta, min(alpha, beta)
        vs = pval(ptrunc(pshift(c, beta), ca))

        def tail(k):
            # the w with w_i fixed for i < k, w_k off one value, any w_i after
            return (q - 1) * q ** (alpha - k - 1) if k < alpha else 1

        if vs < a:
            # w t^a misses the terms of cs below t^a: val c2 = vs, only v varies
            for v in range(alpha + 1):
                hist[ca, cb, vs, min(top, v)] += tail(v)
            continue
        # val c2 = a + j at the first j with w_j != d_j := -coef_(a+j) cs (INF
        # if there is none); the first nonzero d_i is at z = val cs - a (alpha
        # if cs = 0)
        z = min(vs, ca) - a
        for k in range(z):
            # j = v = k < z: w_i = 0 = d_i below k, w_k != 0
            hist[ca, cb, a + k, min(top, k)] += tail(k)
        if z == alpha:
            # d = 0: w = 0 gives c2 = 0
            hist[ca, cb, INF, top] += 1
            continue
        # j = v = z: w_z is neither 0 nor d_z
        hist[ca, cb, a + z, min(top, z)] += (q - 2) * q ** (alpha - z - 1)
        for k in range(z + 1, alpha + 1):
            # j = z < v = k: w_z = 0 != d_z
            hist[ca, cb, a + z, min(top, k)] += tail(k)
            # v = z < j = k: w_z = d_z, then w_i = d_i up to k
            hist[ca, cb, a + k if k < alpha else INF, min(top, z)] += tail(k)
    return hist


def _members(lat, lam, exact):
    """The rows of _raw_members as sorted lattices; only s = 0 rows if exact."""
    rows = _raw_members(lat.q, lat.triple, lam)
    out = [Lattice2.from_triple(lat.q, a2, b2, c2) for a2, b2, c2, s in rows if s == 0 or not exact]
    return sorted(out, key=lambda l: l.sort_key)


def _member_count(lat, lam, exact):
    """The number of rows of _raw_members, or of its s = 0 rows if exact: the
    size of _members, counted as the sublattice_rows kernel yields the rows,
    without a lattice and without holding a row."""
    rows = backend.sublattice_rows(lat.q, *_shifted(lat.triple, lam))
    if exact:
        return sum(1 for row in rows if row[3] == 0)
    return sum(1 for _row in rows)


def closure_members(lat: Lattice2, lam: Coweight) -> list[Lattice2]:
    """All lattices whose relative position w.r.t. lat is dominated by lam.

    These are exactly the colength-(lam1 - lam2) sublattices of t^lam2 * lat;
    the result is sorted by the canonical structural key.
    """
    return _members(lat, lam, exact=False)


def enumerate_in_position(lat: Lattice2, lam: Coweight) -> list[Lattice2]:
    """All lattices in exact relative position lam from lat, sorted."""
    return _members(lat, lam, exact=True)


def position_count_formula(q, d):
    """q^(d-1) * (q+1) for d >= 1, else 1: the size of an exact (d, 0) shell."""
    return 1 if d == 0 else q ** (d - 1) * (q + 1)
