"""Torus-equivariant functions on rank-2 lattices and the Hecke module structure.

A function here is determined by finitely many values on orbit representatives
(indexed by the nonnegative invariant m) and extends to the whole lattice set
by chi-equivariance.  The Hecke action is computed by exact counting of
sublattice transitions (lattice._member_histogram); everything stays symbolic
in the character variables unless explicitly specialized.

``WaldModel.act`` reads the cached transition rows (``_transitions``) and
makes one LaurentScalar per orbit index of its result: each row adds
shifted, rescaled copies of the function's terms, as raw (exponents, a, b)
triples, into plain (a, b) sums (``scalars._add_scaled``), and each value is
built once from its sums, so no intermediate SqrtQ, sum or product is built.
The eigen window check specializes its whole table of basis-function values
in one pass (``scalars._specialize_many``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction

from .hecke import HeckeElement, ZeroEigenvalue, _as_scalar, satake_basis, schur_gl2
from .lattice import Coweight, Lattice2, _member_histogram
from .scalars import LaurentScalar, _add_scaled, _product_triples, _specialize_many, specialize
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


class WaldFunction:
    """Finitely supported values on orbit indices, with symbolic coefficients.

    ``values`` maps orbit indices to nonzero LaurentScalars, merged and cleared
    of zeros in the constructor and nowhere else.
    """

    __slots__ = ("q", "kind", "values")

    def __init__(self, q, kind, values=()):
        kind = EtaleKind(kind)
        cleaned = {}
        items = values.items() if isinstance(values, dict) else values
        for m, v in items:
            if type(m) is not int or m < 0:
                raise ValueError("orbit indices are nonnegative integers")
            v = _as_scalar(q, v)
            prev = cleaned.get(m)
            cleaned[m] = v if prev is None else prev + v
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", {m: v for m, v in cleaned.items() if not v.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("WaldFunction is immutable")

    def __reduce__(self):
        return (WaldFunction, (self.q, self.kind, self.values))

    def is_zero(self):
        return not self.values

    def support(self):
        return tuple(sorted(self.values))

    def value(self, m) -> LaurentScalar:
        return self.values.get(m, LaurentScalar.zero(self.q))

    def _combine(self, other, sign):
        if not isinstance(other, WaldFunction):
            return NotImplemented
        if self.q != other.q or self.kind is not other.kind:
            raise ValueError("mixed function spaces")
        pairs = [*self.values.items(), *((m, v * sign) for m, v in other.values.items())]
        return WaldFunction(self.q, self.kind, pairs)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return WaldFunction(self.q, self.kind, {m: -v for m, v in self.values.items()})

    def scaled(self, value) -> "WaldFunction":
        s = _as_scalar(self.q, value)
        return WaldFunction(self.q, self.kind, {m: v * s for m, v in self.values.items()})

    def __mul__(self, other):
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def __eq__(self, other):
        return (
            isinstance(other, WaldFunction)
            and self.q == other.q
            and self.kind is other.kind
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.q, self.kind, tuple(sorted(self.values.items(), key=lambda p: p[0]))))

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
    because envelopes are monotone under inclusion.
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

        Each output value is built once, from plain (a, b) sums: the Hecke
        coefficient is multiplied into the function values once per term, as
        raw (exponents, a, b) triples, and every transition row adds copies
        of them shifted by its character class and scaled by its
        multiplicity (``scalars._add_scaled``).
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
        mlo = min(f.values)
        mhi = max(f.values)
        sums = {}  # m0 -> exps -> [a, b]
        lo, hi = self.kind.pads  # around the class exponents in an exponent triple
        kind_value = self.kind.value
        for lam, coeff in h.terms.items():
            eff = self._effective(lam)
            width = eff.a1 - eff.a2
            scaled = {m1: _product_triples(coeff, fv) for m1, fv in f.values.items()}
            for m0 in range(max(0, mlo - width), mhi + width + 1):
                out = sums.setdefault(m0, {})
                for m1, exps, count in _transitions(q, kind_value, m0, (eff.a1, eff.a2)):
                    terms = scaled.get(m1)
                    if terms is not None:
                        _add_scaled(out, count, lo + exps + hi, terms)
        return WaldFunction(
            q, self.kind, {m0: LaurentScalar._from_sums(q, s) for m0, s in sums.items() if s}
        )

    def ic_basis(self, d) -> WaldFunction:
        """Action of the degree-d self-dual basis element on the delta at 0.

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

    def _act_evaluated(self, h, values, assignment, r_value, chi):
        """``act(h, f)`` at rational character values, for f with rational values.

        Equals specializing ``act(h, WaldFunction(values))`` (evaluation is a
        ring homomorphism) without building a LaurentScalar: each transition
        row adds count * chi(exps) * values[m1] at its m0.  ``chi`` caches
        the character values, the product of the kind's variables (the torus
        per-kind table) to the class exponents, by class exponents across
        calls.  Zero values are dropped, as in WaldFunction.
        """
        xs = [Fraction(assignment[name]) for name in self.kind.variables]
        vals = {m: v for m, v in values.items() if v}
        out = {}
        if not vals:
            return out
        mlo, mhi = min(vals), max(vals)
        q, kind_value = self.q, self.kind.value
        for lam, coeff in h.terms.items():
            c = specialize(coeff, assignment, r_value)
            eff = self._effective(lam)
            width = eff.a1 - eff.a2
            for m0 in range(max(0, mlo - width), mhi + width + 1):
                s = 0
                for m1, exps, count in _transitions(q, kind_value, m0, (eff.a1, eff.a2)):
                    v = vals.get(m1)
                    if v is None:
                        continue
                    w = chi.get(exps)
                    if w is None:
                        w = chi[exps] = math.prod(x**e for x, e in zip(xs, exps))
                    s += count * w * v
                if s:
                    out[m0] = out.get(m0, 0) + c * s
        return {m: v for m, v in out.items() if v}

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

        Everything runs in Q: the Hecke elements act on K's rational values
        through ``_act_evaluated``, and the window is read from the one
        expansion of the difference of the two sides.
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

        # the W_d tables, specialized in one pass
        ics = [self.ic_basis(d).values for d in range(depth + 2)]
        flat = iter(_specialize_many([v for w in ics for v in w.values()], assignment, r_value))
        wtab = [{m: next(flat) for m in w} for w in ics]
        coeff = [
            schur_gl2(Coweight(d, 0), e1, e2) / central ** d for d in range(depth + 2)
        ]

        kvals = {}
        for d in range(depth + 1):
            for m, v in wtab[d].items():
                kvals[m] = kvals.get(m, Fraction(0)) + coeff[d] * v

        chi = {}
        lhs = self._act_evaluated(
            satake_basis(self.q, Coweight(1, 0)), kvals, assignment, r_value, chi
        )
        rhs = {m: (e1 + e2) * v for m, v in kvals.items() if v != 0}
        diff = {m: lhs.get(m, 0) - rhs.get(m, 0) for m in lhs.keys() | rhs.keys()}

        # exact defect identity at every orbit index
        defect_ok = all(
            diff.get(m, 0)
            == coeff[depth] * wtab[depth + 1].get(m, 0)
            - central * coeff[depth + 1] * wtab[depth].get(m, 0)
            for m in range(depth + 2)
        )

        # the two sides' expansions agree below the first nonzero coefficient
        # of the expansion of their difference
        x = _basis_expand(diff, wtab, depth + 1)
        window = next((e for e, c in enumerate(x) if c), depth + 2) - 1
        eigen_ok = window >= depth - 1

        acted_c = self._act_evaluated(
            HeckeElement.basis(self.q, Coweight(1, 1)), kvals, assignment, r_value, chi
        )
        central_ok = all(
            acted_c.get(m, 0) == central * kvals.get(m, 0) for m in range(depth + 1)
        ) and all(m <= depth for m in acted_c)

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


def _basis_expand(values, wtab, top):
    """Coefficients of a function over the triangular family wtab[0..top].

    Back-substitution from the top degree; wtab[e][e] is a nonzero rational
    (a power of the central character value), so the expansion is exact and
    unique for functions supported in {0..top}.
    """
    rem = {m: v for m, v in values.items() if v != 0}
    if any(m > top for m in rem):
        raise ValueError("support exceeds the expansion range")
    out = [Fraction(0)] * (top + 1)
    for e in range(top, -1, -1):
        ce = rem.get(e, Fraction(0)) / wtab[e][e]
        out[e] = ce
        if ce:
            for m, v in wtab[e].items():
                nv = rem.get(m, Fraction(0)) - ce * v
                if nv:
                    rem[m] = nv
                else:
                    rem.pop(m, None)
    if rem:
        raise ValueError("expansion residue should be empty")
    return out
