"""Symmetric bilinear forms over O = F_q[[t]] up to unit-scaled congruence.

The group GL2(O) x O* acts on nondegenerate symmetric 2x2 matrices over O by
B -> A B A^t eps.  Over a residue field of odd characteristic every orbit
contains diag(t^a, t^b w) with a >= b >= 0 and w a unit whose residue class
(square or not) is the third invariant: the complete invariant is

    FormInvariant(a, b, delta),   delta = square class of the leading unit
                                          of det B  (squares drop out of
                                          (det A)^2 eps^2).

``diagonalize`` computes the invariant together with an explicit certificate
(A, eps), working modulo a caller-chosen t-precision that only needs to
exceed val(det B).  ``normal_transport`` pushes the certificate all the way
to the literal normal form diag(t^a, t^b w0), w0 in {1, fixed nonsquare},
which makes "same invariant => explicitly congruent" checkable by composing
certificates.

The covering type of the associated quadratic space over F: scaling by t^-b
and splitting off the units leaves [t^(a-b), w]; for odd a - b the space is
anisotropic over F with ramified splitting algebra, for even a - b it is
hyperbolic exactly when delta matches the class of -1 (the discriminant of
the hyperbolic plane).  The remaining case (even parity, delta differing
from class(-1)) splits only over the unramified quadratic extension and is
flagged as outside the implemented pair of algebra kinds.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from . import backend
from . import _purekern as _pk
from .series import FqElem, LaurentPoly


class PrecisionExhausted(ArithmeticError):
    """Raised when val(det B) >= the working precision."""


class Delta(enum.Enum):
    SQUARE = "Square"
    NONSQUARE = "NonSquare"


class CoveringType(enum.Enum):
    SPLIT = "SplitCover"
    RAMIFIED = "RamifiedCover"
    UNRAMIFIED_NONSPLIT = "UnramifiedNonsplit"


class FormInvariant(NamedTuple):
    """Complete congruence invariant: exponents a >= b >= 0 and unit class."""

    a: int
    b: int
    delta: Delta


def legendre(q, r):
    """+1 for nonzero squares mod q, -1 for nonsquares, 0 for 0."""
    r %= q
    if r == 0:
        return 0
    return 1 if pow(r, (q - 1) // 2, q) == 1 else -1


def least_nonsquare(q):
    """The smallest nonsquare residue mod the odd prime q."""
    for r in range(2, q):
        if legendre(q, r) == -1:
            return r
    raise ValueError("no nonsquare residue (q must be an odd prime > 2)")


class SymMatrixO:
    """A symmetric 2x2 matrix over O with nonzero determinant."""

    __slots__ = ("q", "e11", "e12", "e22", "_det")

    def __init__(self, e11: LaurentPoly, e12: LaurentPoly, e22: LaurentPoly):
        q = e11.q
        if e12.q != q or e22.q != q:
            raise ValueError("mixed coefficient fields")
        for e in (e11, e12, e22):
            if not e.is_zero() and e.off < 0:
                raise ValueError("entries must lie in O (valuation >= 0)")
        r12 = e12.raw
        det = _pk.pdot(q, _pk.INF, ((e11.raw, e22.raw), (_pk.pneg(q, r12), r12)))
        if not det[1]:
            raise ValueError("determinant is zero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e11", e11)
        object.__setattr__(self, "e12", e12)
        object.__setattr__(self, "e22", e22)
        object.__setattr__(self, "_det", LaurentPoly.from_raw(q, det))

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrixO is immutable")

    def __reduce__(self):
        return (SymMatrixO, (self.e11, self.e12, self.e22))

    @classmethod
    def from_entries(cls, q, e11, e12, e22):
        mk = lambda v: v if isinstance(v, LaurentPoly) else LaurentPoly.from_terms(q, v)
        return cls(mk(e11), mk(e12), mk(e22))

    @property
    def det(self) -> LaurentPoly:
        return self._det

    @property
    def det_valuation(self) -> int:
        return self._det.off

    def _raw(self, x):
        if isinstance(x, int):
            return _pk.pconst(self.q, x)
        if not isinstance(x, LaurentPoly) or x.q != self.q:
            raise ValueError("mixed coefficient fields")
        return x.raw

    def congruent_by(self, a_mat, eps: LaurentPoly) -> "SymMatrixO":
        """A B A^t eps for a 2x2 matrix A (rows) and a scalar eps."""
        (a11, a12), (a21, a22) = [[self._raw(x) for x in row] for row in a_mat]
        eps = self._raw(eps)
        q, inf = self.q, _pk.INF
        b11, b12, b22 = self.e11.raw, self.e12.raw, self.e22.raw
        x1 = _pk.pdot(q, inf, ((a11, b11), (a12, b12)))
        x2 = _pk.pdot(q, inf, ((a11, b12), (a12, b22)))
        y1 = _pk.pdot(q, inf, ((a21, b11), (a22, b12)))
        y2 = _pk.pdot(q, inf, ((a21, b12), (a22, b22)))
        m11 = _pk.pdot(q, inf, ((x1, a11), (x2, a12)))
        m12 = _pk.pdot(q, inf, ((x1, a21), (x2, a22)))
        m22 = _pk.pdot(q, inf, ((y1, a21), (y2, a22)))
        return SymMatrixO(*(
            LaurentPoly.from_raw(q, _pk.pdot(q, inf, ((m, eps),))) for m in (m11, m12, m22)
        ))

    def __eq__(self, other):
        return (
            isinstance(other, SymMatrixO)
            and (self.e11, self.e12, self.e22) == (other.e11, other.e12, other.e22)
        )

    def __hash__(self):
        return hash((self.e11, self.e12, self.e22))

    def __repr__(self):
        return f"SymMatrixO([[{self.e11}, {self.e12}], [{self.e12}, {self.e22}]])"

    def truncate(self, k):
        return SymMatrixO(self.e11.truncate(k), self.e12.truncate(k), self.e22.truncate(k))

    def to_json(self):
        r1 = [self.e11.to_json(), self.e12.to_json()]
        r2 = [self.e12.to_json(), self.e22.to_json()]
        return [r1, r2]

    @classmethod
    def from_json(cls, q, obj):
        return cls(*cls._json_entries(q, obj))

    @staticmethod
    def _json_entries(q, obj):
        if not (
            isinstance(obj, list)
            and len(obj) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in obj)
        ):
            raise ValueError(f"matrix must be 2x2 rows [[b11,b12],[b12,b22]], got {obj!r}")
        e11 = LaurentPoly.from_json(q, obj[0][0])
        e12 = LaurentPoly.from_json(q, obj[0][1])
        e21 = LaurentPoly.from_json(q, obj[1][0])
        e22 = LaurentPoly.from_json(q, obj[1][1])
        if e12 != e21:
            raise ValueError("matrix is not symmetric")
        return e11, e12, e22


def default_precision(b: SymMatrixO) -> int:
    """Working precision 2 val(det B) + 2: enough for every certificate step."""
    return 2 * b.det_valuation + 2


def _precision(b: SymMatrixO, precision) -> int:
    """The working precision: ``precision``, or the default when it is None."""
    if precision is None:
        return default_precision(b)
    if type(precision) is not int:
        raise ValueError(f"precision must be an integer, got {precision!r}")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return precision


def diagonalize(b: SymMatrixO, precision: int | None = None):
    """Invariant and certificate: A B A^t eps == diag(t^a, t^b w) mod t^precision.

    w is a unit polynomial whose residue class is the delta invariant.
    Raises PrecisionExhausted when val(det B) >= precision, and ValueError
    when precision is not an int (bool included) or is below 1.
    """
    prec = _precision(b, precision)
    out = backend.sym_diag(b.q, prec, b.e11.raw, b.e12.raw, b.e22.raw)
    if out is None:
        raise PrecisionExhausted(
            f"val(det) = {b.det_valuation} >= working precision {prec}"
        )
    va, vb, w, a_raw, eps_raw = out
    delta = Delta.SQUARE if legendre(b.q, w[1][0]) == 1 else Delta.NONSQUARE
    q = b.q
    a_mat = (
        (LaurentPoly.from_raw(q, a_raw[0]), LaurentPoly.from_raw(q, a_raw[1])),
        (LaurentPoly.from_raw(q, a_raw[2]), LaurentPoly.from_raw(q, a_raw[3])),
    )
    eps = LaurentPoly.from_raw(q, eps_raw)
    return FormInvariant(va, vb, delta), a_mat, eps


def normal_form(inv: FormInvariant, q) -> SymMatrixO:
    """The literal normal form diag(t^a, t^b w0), w0 = 1 or the least nonsquare."""
    w0 = 1 if inv.delta is Delta.SQUARE else least_nonsquare(q)
    return SymMatrixO(
        LaurentPoly.t_power(q, inv.a),
        LaurentPoly.zero(q),
        LaurentPoly.const(q, w0).shift(inv.b),
    )


def normal_transport(b: SymMatrixO, precision: int | None = None):
    """Certificate to the literal normal form: (inv, A, eps) with
    A B A^t eps == normal_form(inv) mod t^precision."""
    prec = _precision(b, precision)
    inv, a_mat, eps = diagonalize(b, prec)
    q, inf = b.q, _pk.INF
    # slot 22 of A B A^t eps, the only one w is read from
    r21, r22 = a_mat[1][0].raw, a_mat[1][1].raw
    y1 = _pk.pdot(q, inf, ((r21, b.e11.raw), (r22, b.e12.raw)))
    y2 = _pk.pdot(q, inf, ((r21, b.e12.raw), (r22, b.e22.raw)))
    m22 = _pk.pdot(q, inf, ((y1, r21), (y2, r22)))
    w = LaurentPoly.from_raw(q, _pk.pdot(q, inf, ((m22, eps.raw),))).shift(-inv.b)
    w0 = 1 if inv.delta is Delta.SQUARE else least_nonsquare(q)
    u = LaurentPoly.from_raw(q, _pk.rescale(q, w.raw, w0, prec))
    (a11, a12), (a21, a22) = a_mat
    return inv, ((a11, a12), (u * a21, u * a22)), eps


def covering_type(inv: FormInvariant, q):
    """Covering type of the quadratic space, plus a scope flag.

    Returns (CoveringType, in_scope): odd a - b gives RamifiedCover, even
    a - b gives SplitCover exactly when delta equals the square class of -1;
    the remaining even case is UnramifiedNonsplit with in_scope False (its
    splitting algebra is the unramified quadratic extension, outside the two
    implemented kinds).
    """
    if (inv.a - inv.b) % 2 == 1:
        return CoveringType.RAMIFIED, True
    minus_one_square = legendre(q, q - 1) == 1
    delta_square = inv.delta is Delta.SQUARE
    if delta_square == minus_one_square:
        return CoveringType.SPLIT, True
    return CoveringType.UNRAMIFIED_NONSPLIT, False


def _residue(x):
    if isinstance(x, FqElem):
        return x.r
    return int(x)


def isotropic_line_count(q, mat) -> int:
    """Number of isotropic lines of a symmetric bilinear form on F_q^2.

    ``mat`` is ((f11, f12), (f21, f22)) with f12 == f21, entries FqElem or
    ints.  The quadratic form is Q(x, y) = f11 x^2 + 2 f12 xy + f22 y^2; the
    count over the q + 1 projective lines is q + 1 for the zero form, 1 for
    rank one, and for rank two: 2 when -det is a nonzero square, else 0.
    """
    (f11, f12), (f21, f22) = mat
    f11, f12, f21, f22 = (_residue(v) % q for v in (f11, f12, f21, f22))
    if f12 != f21:
        raise ValueError("matrix is not symmetric")
    if f11 == f12 == f22 == 0:
        return q + 1
    det = (f11 * f22 - f12 * f12) % q
    if det == 0:
        return 1
    return 2 if legendre(q, -det) == 1 else 0
