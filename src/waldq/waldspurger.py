"""Torus-equivariant functions on rank-2 lattices and the Hecke module structure.

A function here is determined by finitely many values on orbit representatives
(indexed by the nonnegative invariant m) and extends to the whole lattice set
by chi-equivariance.  The Hecke action is computed by exact counting of
sublattice transitions (lattice._member_histogram); everything stays symbolic
in the character variables unless explicitly specialized.  ``WaldFunction``
is a finite sum over orbit indices and takes its arithmetic from
``hecke._FiniteSum``, the one implementation it shares with HeckeElement.

The transition rows (``_transitions``, the moves out of one orbit) are
regrouped by where they arrive (``_arrivals``, the moves into one orbit), so
both actions walk from the function's support: ``WaldModel.act`` visits, per
Hecke term, the rows into each orbit where the function is nonzero, and no
row that misses the support.  It makes one LaurentScalar per orbit index of
its result: each row adds shifted, rescaled copies of the function's terms,
as raw (exponents, a, b) triples, into plain (a, b) sums
(``scalars._add_scaled``), once per term of the Hecke coefficient, and each
value is built once from its sums, so no intermediate SqrtQ, sum or product
is built.  The eigen window check runs in integers on the same rows: each
table of values is an integer vector times one rational scale, the
basis-function values are specialized in one pass over one common
denominator (``scalars._specialize_sums``), and the window is read off a
fraction-free back-substitution.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction

from .hecke import HeckeElement, ZeroEigenvalue, _FiniteSum, satake_basis
from .lattice import Coweight, Lattice2, _member_histogram
from .scalars import (
    LaurentScalar,
    _add_scaled,
    _frame_sums,
    _specialize_sums,
    specialize,
)
from .torus import EtaleKind, _envelope_raw, chi_c, orbit_representative

__all__ = [
    "CharacterParams",
    "TruncationTooSmall",
    "WaldFunction",
    "WaldModel",
]


class TruncationTooSmall(ValueError):
    """The requested window is too small for a meaningful truncated check."""


@dataclasses.dataclass(frozen=True)
class CharacterParams:
    """A nonramified character of the torus: symbolic, or pinned to rationals.

    Numeric parameters assign nonzero rationals to the character variables of
    the kind (``EtaleKind.variables``, read from the torus per-kind table).
    """

    kind: EtaleKind
    symbolic: bool = True
    assignment: tuple = ()

    def __init__(self, kind, symbolic=True, assignment=None):
        kind = EtaleKind(kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "symbolic", bool(symbolic))
        if self.symbolic:
            if assignment:
                raise ValueError("symbolic parameters take no assignment")
            object.__setattr__(self, "assignment", ())
            return
        given = dict(assignment or {})
        rows = []
        for name in kind.variables:
            if name not in given:
                raise ValueError(f"numeric parameters need a value for {name}")
            v = Fraction(given.pop(name))
            if v == 0:
                raise ValueError(f"{name} must be nonzero")
            rows.append((name, v))
        if given:
            raise ValueError(f"unexpected variables: {sorted(given)}")
        object.__setattr__(self, "assignment", tuple(rows))

    def values(self) -> dict:
        """The assignment as a plain dict (empty when symbolic)."""
        return dict(self.assignment)


class WaldFunction(_FiniteSum):
    """Finitely supported values on orbit indices, with symbolic coefficients.

    ``values`` maps nonnegative int orbit indices to nonzero LaurentScalars;
    it is the ``terms`` of the finite sum (``hecke._FiniteSum``), whose
    arithmetic this shares with HeckeElement.  Two functions combine only
    when their q and kind agree.
    """

    __slots__ = ("kind",)

    def __init__(self, q, kind, values=()):
        object.__setattr__(self, "kind", EtaleKind(kind))
        _FiniteSum.__init__(self, q, values)

    @staticmethod
    def _key(m):
        if type(m) is not int or m < 0:
            raise ValueError("orbit indices are nonnegative integers")
        return m

    def _space(self):
        return (self.q, self.kind)

    @property
    def values(self):
        return self.terms

    value = _FiniteSum.coefficient

    def __repr__(self):
        body = ", ".join(f"{m}: {v}" for m, v in sorted(self.values.items()))
        return f"WaldFunction({self.q}, {self.kind.value}, {{{body}}})"

    def to_json(self):
        return {
            "q": self.q,
            "kind": self.kind.value,
            "values": [
                {"m": m, "scalar": v.to_json()} for m, v in sorted(self.values.items())
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "WaldFunction":
        q = obj["q"]
        return cls(
            q,
            obj["kind"],
            [(row["m"], LaurentScalar.from_json(q, row["scalar"])) for row in obj["values"]],
        )


@functools.lru_cache(maxsize=None)
def _transitions(q, kind_value, m0, lam):
    """Exact-position moves out of orbit m0, aggregated by (target, character).

    Returns a sorted tuple of (m_target, class_exponents, multiplicity): the
    lattices in exact position lam from representative m0 grouped by their
    orbit data.  Every target satisfies |m_target - m0| <= lam1 - lam2
    because envelopes are monotone under inclusion.  The actions read these
    rows regrouped by target (``_arrivals``).
    """
    kind = EtaleKind(kind_value)
    rep = orbit_representative(q, kind, m0)
    agg = Counter()
    for (a2, b2, vc, s), n in _member_histogram(q, rep.triple, Coweight(*lam)).items():
        if s == 0:
            exps, m1 = _envelope_raw(kind, a2, b2, vc)
            agg[m1, exps] += n
    return tuple(sorted((m1, exps, n) for (m1, exps), n in agg.items()))


@functools.lru_cache(maxsize=None)
def _arrivals(q, kind_value, m1, lam):
    """The ``_transitions`` rows into orbit m1, as (m0, exponents, multiplicity).

    Gathered over the sources m0 in [max(0, m1 - w), m1 + w], w = lam1 - lam2,
    which holds every source with a move into m1 (``_transitions``); the
    class exponents are padded to an exponent triple (``EtaleKind.pads``).
    """
    lo, hi = EtaleKind(kind_value).pads
    width = lam[0] - lam[1]
    return tuple(
        (m0, lo + exps + hi, n)
        for m0 in range(max(0, m1 - width), m1 + width + 1)
        for m, exps, n in _transitions(q, kind_value, m0, lam)
        if m == m1
    )


@functools.lru_cache(maxsize=None)
def _stratum_table(q, lam):
    """Orbit-data histogram of ALL colength sublattices of the standard lattice.

    One enumeration serves both algebra kinds: returns a sorted tuple of
    ((kind_value, m), count) over closure members of position lam.
    """
    counts = Counter()
    hist = _member_histogram(q, Lattice2.standard(q).triple, Coweight(*lam))
    for (a2, b2, vc, _s), n in hist.items():
        for kind in EtaleKind:
            counts[kind.value, _envelope_raw(kind, a2, b2, vc)[1]] += n
    return tuple(sorted(counts.items()))


@functools.lru_cache(maxsize=None)
def _ic_cached(q, kind_value, mirror, d):
    model = WaldModel(q, kind_value, convention="mirror" if mirror else "standard")
    return model.act(satake_basis(q, Coweight(d, 0)), model.delta(0))


class WaldModel:
    """The Hecke-module structure on equivariant functions for one algebra kind.

    ``convention`` picks the direction lattices move under the action:
    "standard" sums over sublattice-type positions (this is the convention
    under which the degree-d basis function is supported on {0..d});
    "mirror" applies the dual coweight (-lam2, -lam1) instead.
    """

    __slots__ = ("q", "kind", "convention")

    def __init__(self, q, kind, convention="standard"):
        if convention not in ("standard", "mirror"):
            raise ValueError(f"unknown convention {convention!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "kind", EtaleKind(kind))
        object.__setattr__(self, "convention", convention)

    def __setattr__(self, name, value):
        raise AttributeError("WaldModel is immutable")

    def __reduce__(self):
        return (WaldModel, (self.q, self.kind, self.convention))

    def delta(self, m) -> WaldFunction:
        """The unit value at orbit index m."""
        return WaldFunction(self.q, self.kind, {m: 1})

    def delta0(self) -> WaldFunction:
        return self.delta(0)

    def _effective(self, lam: Coweight) -> Coweight:
        if self.convention == "standard":
            return lam
        return Coweight(-lam.a2, -lam.a1)

    def act(self, h: HeckeElement, f: WaldFunction) -> WaldFunction:
        """Convolution action of a Hecke element on an equivariant function.

        Value at representative m0: sum over lattices L' in exact position
        lam of chi(class of L') * f[invariant of L'], summed over the terms
        of h with their coefficients.

        The walk starts from f's support: for each term of h and each orbit
        m1 where f is nonzero, the rows into m1 (``_arrivals``) each add
        f[m1]'s raw (exponents, a, b) triples, shifted by the row's
        character class and a coefficient term's exponents and scaled by
        the row's multiplicity times that term's parts, into plain (a, b)
        sums per m0 (``scalars._add_scaled``).  A coefficient part b * r
        scales f[m1]'s r-rotated triples.  Each output value is built once
        from its sums.
        """
        if not isinstance(h, HeckeElement) or not isinstance(f, WaldFunction):
            raise TypeError("act expects (HeckeElement, WaldFunction)")
        if h.q != self.q or f.q != self.q:
            raise ValueError("mixed residue characteristics")
        if f.kind is not self.kind:
            raise ValueError("function kind does not match the model")
        q = self.q
        if h.is_zero() or f.is_zero():
            return WaldFunction(q, self.kind, {})
        coeffs = []  # (lam, raw terms of its coefficient, None for exponents (0, 0, 0))
        for lam, coeff in h.terms.items():
            cterms = [(k if any(k) else None, c.a, c.b) for k, c in coeff.terms.items()]
            coeffs.append((tuple(self._effective(lam)), cterms))
        rotate = any(b for _lam, cterms in coeffs for _e, _a, b in cterms)
        fterms = []  # (m1, raw terms of f[m1], their r-rotations when some b is nonzero)
        for m1, fv in f.values.items():
            ys = [(k, c.a, c.b) for k, c in fv.terms.items()]
            fterms.append((m1, ys, [(k, q * tb, ta) for k, ta, tb in ys] if rotate else ()))
        sums = {}  # m0 -> exps -> [a, b]
        kind_value = self.kind.value
        for lam, cterms in coeffs:
            for m1, ys, rys in fterms:
                for m0, exps, count in _arrivals(q, kind_value, m1, lam):
                    out = sums.get(m0)
                    if out is None:
                        out = sums[m0] = {}
                    for e, a, b in cterms:
                        shift = exps
                        if e is not None:
                            shift = (exps[0] + e[0], exps[1] + e[1], exps[2] + e[2])
                        _add_scaled(out, count * a, shift, ys)
                        if b:
                            _add_scaled(out, count * b, shift, rys)
        return f._from_merged({m0: LaurentScalar._from_sums(q, s) for m0, s in sums.items()})

    def ic_basis(self, d) -> WaldFunction:
        """Action of A(d,0) (``hecke.satake_basis``) on the delta at 0.

        Supported on {0..d}; the value at m sums ``kind.closed_orbit_count(d,
        m)`` character monomials, a count from the torus per-kind table.
        """
        if type(d) is not int or d < 0:
            raise ValueError("degree must be a nonnegative integer")
        return _ic_cached(self.q, self.kind.value, self.convention == "mirror", d)

    def minimal_orbit_counts(self, d, m) -> int:
        """Number of colength-d sublattices of representative m on the closed orbit.

        Counts closure members (all sublattices of colength d) whose invariant
        is 0.  Expected: ``kind.closed_orbit_count(d, m)``, from the torus kind table.
        """
        if d < 0 or m < 0:
            raise ValueError("arguments must be nonnegative")
        rep = orbit_representative(self.q, self.kind, m)
        rows = _member_histogram(self.q, rep.triple, Coweight(d, 0)).items()
        return sum(n for (a, b, vc, _s), n in rows if _envelope_raw(self.kind, a, b, vc)[1] == 0)

    def orbit_stratum_counts(self, lam, m) -> int:
        """Number of closure members of the standard lattice with invariant m."""
        return dict(_stratum_table(self.q, tuple(Coweight(*lam)))).get((self.kind.value, m), 0)

    def multone_matrix(self, depth) -> list:
        """Matrix of {T_(a,0) acting on delta0}_{a<=depth} in the delta basis.

        Entry [m][a] is the value at orbit index m.  Upper-triangular with
        unit-monomial diagonal: the certificate that the module is free of
        rank one over the central-normalized algebra, to this truncation.
        """
        return self._delta_matrix(
            depth,
            lambda a_: self.act(HeckeElement.basis(self.q, Coweight(a_, 0)), self.delta(0)),
        )

    def cs_matrix(self, depth) -> list:
        """Matrix of the degree-d basis functions in the delta basis.

        Entry [m][d] = ic_basis(d) value at m; triangular, with the
        monomial counts of ``ic_basis`` below the diagonal.  Its inverse is
        where nontrivial denominators appear.
        """
        return self._delta_matrix(depth, self.ic_basis)

    def _delta_matrix(self, depth, column) -> list:
        """Entry [m][k] is the value at orbit index m of the function column(k)."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        cols = [column(k) for k in range(depth + 1)]
        zero = LaurentScalar.zero(self.q)
        return [[col.values.get(m, zero) for col in cols] for m in range(depth + 1)]

    # -- truncated eigenfunction window check ---------------------------------

    def _act_table(self, h, table, assignment, r_value):
        """``act(h, f)`` at rational character values, for f the table (vec, scale).

        Equals specializing ``act(h, f)`` (evaluation is a ring homomorphism)
        without building a LaurentScalar or a Fraction per row: it walks the
        rows ``act`` walks (``_arrivals`` into each orbit of the support),
        and each adds count * vec[m1] into an integer sum per orbit index m0
        and character class, the Hecke coefficients specialized and brought
        to one denominator first.  The classes are then evaluated at the
        character values from integer power tables over one common
        denominator (``scalars._frame_sums``).  Returns the reduced table.
        """
        vec, scale = table
        if not vec:
            return _ZERO
        vals = {name: Fraction(assignment[name]) for name in self.kind.variables}
        terms = [(lam, specialize(c, assignment, r_value)) for lam, c in h.terms.items()]
        terms = [(lam, c) for lam, c in terms if c]
        lcd = math.lcm(*(c.denominator for _lam, c in terms))
        q, kind_value = self.q, self.kind.value
        sums = {}  # m0 -> exponent triple -> integer sum
        for lam, c in terms:
            k = c.numerator * (lcd // c.denominator)
            eff = tuple(self._effective(lam))
            for m1, v in vec.items():
                v *= k
                for m0, exps, count in _arrivals(q, kind_value, m1, eff):
                    out = sums.get(m0)
                    if out is None:
                        out = sums[m0] = {}
                    out[exps] = out.get(exps, 0) + count * v
        coeffs, exps, ends = [], [], []
        for by_class in sums.values():
            for e, v in by_class.items():
                coeffs.append(v)
                exps.append(e)
            ends.append(len(coeffs))
        values, num, den = _frame_sums(coeffs, exps, ends, vals)
        return _table(
            dict(zip(sums, values)), scale.numerator * num, scale.denominator * den * lcd
        )

    def eigen_check(self, depth, e1, params: CharacterParams, r_value=None) -> dict:
        """Window check that the truncated eigen-sum behaves as an eigenvector.

        Builds K = sum_{d<=depth} c_d * W_d with W_d the specialized degree-d
        basis function and c_d = schur((d,0), e1, e2)/(e1*e2)^d, e2 being
        determined by the central character value.  The full (untruncated)
        sum is a formal eigenvector but is not locally finite, so pointwise
        values never stabilize; the checkable exact statements are:

        * expanding both sides of the degree-1 eigen identity over the
          triangular basis {W_e}, the coefficients agree for every degree
          e <= depth-1 (reported as the window);
        * the top-degree defect is exactly
          c_depth * W_{depth+1} - (e1*e2) * c_{depth+1} * W_depth;
        * the central element acts by e1*e2 exactly (no truncation loss).

        Everything runs in integers.  Each table of values (the W_d, K,
        each action's output, the defect and the difference of the two
        sides) is an integer vector times one rational scale (``_table``):
        the W_d share the one denominator of a single specialization pass,
        c_d is H_d / P^d for integers H_d and P, the Hecke elements act on
        K's integer vector (``_act_table``), and two tables are compared by
        cross-multiplying their scales (``_agree``).  The window is read off
        the zero pattern of a fraction-free back-substitution
        (``_lowest_degree``).
        """
        if not isinstance(depth, int) or depth < 2:
            raise TruncationTooSmall("window checks need depth at least 2")
        if not isinstance(params, CharacterParams):
            raise TypeError("params must be CharacterParams")
        if params.kind is not self.kind:
            raise ValueError("parameter kind does not match the model")
        if params.symbolic:
            raise ValueError("the eigen check needs numeric parameters")
        assignment = params.values()
        e1 = Fraction(e1)
        if e1 == 0:
            raise ZeroEigenvalue("e1 must be nonzero")
        central = specialize(chi_c(self.q, self.kind), assignment, r_value)
        e2 = central / e1
        top = depth + 1

        # W_d = wsum[d] * num / den: the basis tables over the one common
        # denominator of a single specialization pass
        ics = [self.ic_basis(d).values for d in range(top + 1)]
        flat, num, den = _specialize_sums(
            [v for w in ics for v in w.values()], assignment, r_value
        )
        flat = iter(flat)
        wsum = [{m: next(flat) for m in w} for w in ics]

        # with e1 = a1/b1 and e2 = a2/b2, c_d = H_d / P^d for the integers
        # H_d = sum_i (a1 b2)^i (a2 b1)^(d-i) and P = a1 a2, and the central
        # value is P / B with B = b1 b2
        x = e1.numerator * e2.denominator
        y = e2.numerator * e1.denominator
        p = e1.numerator * e2.numerator
        b = e1.denominator * e2.denominator
        hs = [1]
        for d in range(1, top + 1):
            hs.append(x * hs[-1] + y**d)

        # K over num / (den P^depth)
        kvec = {}
        for d in range(depth + 1):
            c = hs[d] * p ** (depth - d)
            for m, v in wsum[d].items():
                kvec[m] = kvec.get(m, 0) + c * v
        k = _table(kvec, num, den * p**depth)

        lhs = self._act_table(satake_basis(self.q, Coweight(1, 0)), k, assignment, r_value)
        diff = _difference(lhs, _times(k, e1 + e2))

        # exact defect identity at every orbit index: c_depth W_top - central
        # c_top W_depth is (B H_depth wsum[top] - H_top wsum[depth]) over
        # den P^depth B
        dvec = {m: b * hs[depth] * v for m, v in wsum[top].items()}
        for m, v in wsum[depth].items():
            dvec[m] = dvec.get(m, 0) - hs[top] * v
        defect_ok = _agree(diff, _table(dvec, num, den * p**depth * b), range(top + 1))

        # the two sides' expansions agree below the first nonzero coefficient
        # of the expansion of their difference
        window = _lowest_degree(diff[0], wsum, top) - 1
        eigen_ok = window >= depth - 1

        acted_c = self._act_table(
            HeckeElement.basis(self.q, Coweight(1, 1)), k, assignment, r_value
        )
        central_ok = _agree(acted_c, _times(k, central), range(depth + 1)) and all(
            m <= depth for m in acted_c[0]
        )

        return {
            "kind": self.kind.value,
            "q": self.q,
            "depth": depth,
            "e1": str(e1),
            "e2": str(e2),
            "window_required": depth - 1,
            "window": window,
            "eigen_pass": eigen_ok,
            "defect_pass": defect_ok,
            "central_pass": central_ok,
            "pass": eigen_ok and defect_ok and central_ok,
        }


# A table is a function on orbit indices as (vec, scale): a dict m -> nonzero
# int times one Fraction.
_ZERO = ({}, Fraction(1))


def _table(vec, num, den):
    """The reduced table of vec * num / den (ints, num and den nonzero).

    Zero entries are dropped, the rest divided by their gcd, and the sign
    moved into the vector, so the scale is positive and a nonzero vector
    is primitive.
    """
    vec = {m: v for m, v in vec.items() if v}
    if not vec:
        return _ZERO
    g = math.gcd(*vec.values())
    if (num < 0) != (den < 0):
        g = -g
    return {m: v // g for m, v in vec.items()}, Fraction(g * num, den)


def _times(table, c):
    """The table times the rational c (the scale takes c's sign)."""
    return (table[0], table[1] * c) if c else _ZERO


def _difference(a, b):
    """a - b as a reduced table.

    With a's scale over b's as x/y in lowest terms, a - b is the integer
    vector x * a_vec - y * b_vec times b's scale over y.
    """
    (av, s), (bv, t) = a, b
    if not bv:
        return a
    r = s / t
    x, y = r.numerator, r.denominator
    out = {m: x * v for m, v in av.items()}
    for m, v in bv.items():
        out[m] = out.get(m, 0) - y * v
    return _table(out, t.numerator, t.denominator * y)


def _agree(a, b, ms):
    """Whether the tables a and b take equal values at each orbit index in ms.

    The values are compared by cross-multiplying the two scales, so neither
    table needs to be reduced.
    """
    (av, s), (bv, t) = a, b
    x = s.numerator * t.denominator
    y = t.numerator * s.denominator
    return all(av.get(m, 0) * x == bv.get(m, 0) * y for m in ms)


def _lowest_degree(vec, wtab, top):
    """The lowest degree whose coefficient is nonzero in the expansion of vec.

    The expansion is over the triangular family wtab[0..top] of integer
    vectors, each with a nonzero diagonal entry wtab[e][e]; a zero vec has
    no nonzero coefficient, and gives top + 1.  Scales do not matter, only
    the zero pattern.  The back-substitution runs from the top degree
    fraction-free, as in Bareiss elimination: the coefficient at e is
    nonzero exactly when the remainder is nonzero at e, and w * rem - r *
    wtab[e] (w, r the two entries at e over their gcd) removes that entry
    while only rescaling the rest.  Each remainder is divided by the gcd of
    its entries, which keeps its integers short.
    """
    rem = {m: v for m, v in vec.items() if v}
    if any(m > top for m in rem):
        raise ValueError("support exceeds the expansion range")
    lowest = top + 1
    for e in range(top, -1, -1):
        r = rem.get(e)
        if r is None:
            continue
        lowest = e
        g = math.gcd(*wtab[e].values())
        row = {m: v // g for m, v in wtab[e].items()}
        w = row[e]
        g = math.gcd(w, r)
        w, r = w // g, r // g
        out = {m: w * v for m, v in rem.items()}
        for m, v in row.items():
            out[m] = out.get(m, 0) - r * v
        rem = {m: v for m, v in out.items() if v}
        if rem:
            g = math.gcd(*rem.values())
            rem = {m: v // g for m, v in rem.items()}
    if rem:
        raise ValueError("expansion residue should be empty")
    return lowest
