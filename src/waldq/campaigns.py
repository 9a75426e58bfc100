"""Batch verification campaigns over the exact-arithmetic core.

A campaign is a named family of independent *cells*.  Each cell checks one
concrete claim — a closed-form count, an algebra identity, an invariance
instance — and reports expected vs computed.  Cells are planned up front as
picklable payloads so a campaign can fan out over a process pool; all random
draws happen during planning from a single seeded generator, which makes the
report a pure function of (campaign, config): worker count and output path
never influence a single byte of it.  Most runs start no pool, so the pool's
modules (``concurrent.futures`` and ``multiprocessing``) load only when one
starts: the first pool in a process pays that import on top of its start and
join.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import backend
from ._purekern import STAY, SWAP, pcongruent, pdot, pivot, pivot_certs, pneg, pnorm, pval, route
from ._version import __version__
from .hecke import HeckeElement, convolve, satake_basis, to_satake
from .lattice import Coweight, Lattice2, _member_count, position_count_formula
from .quadform import (
    CoveringType,
    Delta,
    FormInvariant,
    PrecisionExhausted,
    SymMatrixO,
    _invariant,
    covering_type,
    diagonalize,
    isotropic_line_count,
    least_nonsquare,
    normal_form,
)
from .scalars import LaurentScalar, monomial_count
from .series import LaurentPoly, _check_q
from .torus import EtaleKind, chi_c
from .waldspurger import CharacterParams, WaldFunction, WaldModel


class ConfigInvalid(ValueError):
    """A session configuration field is out of range or malformed."""


#: The largest accepted ``workers``; a pool also never outnumbers cores or cells.
MAX_WORKERS = 64

#: Seconds of cells run in the calling process before the cells left go to a
#: pool: about what starting and joining a two-process pool costs.  The first
#: pool in a process also pays for importing the pool's modules, about as long
#: again.
POOL_AFTER_S = 0.02

#: The largest ``dmax``, ``mmax`` and ``depth`` any campaign accepts.  The
#: cost of ``ic-basis`` (``dmax``) and of ``multone``, ``cs-matrix`` and
#: ``eigen`` (``depth``) grows about as the fourth power of the degree:
#: ``ic-basis --dmax 30`` takes about 1 s and 31 MB, ``--dmax 60`` 17 s and
#: 183 MB.  ``min-orbit`` and ``stratum-dim`` plan a cell per (dmax, mmax)
#: pair; ``min-orbit --dmax 120 --mmax 120`` took 86 s.
MAX_DEGREE = 30

#: The largest ``q`` ``isotropic`` accepts.  It plans a cell per residue mod q
#: and each cell scans q^2 forms, so its cost grows as q^4.  Timed inside
#: ``wald_main`` in fresh interpreters (median of 5, 2-core host):
#: ``--q 37`` 0.77 s, ``--q 41`` 1.16 s, ``--q 43`` 1.31 s and ``--q 47``
#: 1.79 s, against 1.61 s for ``eigen --D 30``, the slowest config accepted
#: at ``MAX_DEGREE``.
MAX_ISOTROPIC_Q = 43

#: Odd primes used by the polynomial-fit campaign, smallest first.
PROBE_PRIMES = (3, 5, 7, 11, 13, 17, 19)


@dataclasses.dataclass
class SessionConfig:
    """Knobs shared by every campaign; validated before any cell is planned."""

    q: int = 3
    kind: str = "split"
    dmax: int = 5
    mmax: int = 5
    depth: int = 6
    seed: int = 0
    workers: int = 1
    out: str | None = None
    fmt: str = "ndjson"

    def validate(self) -> "SessionConfig":
        try:
            _check_q(self.q)
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(str(exc)) from None
        try:
            self.kind = EtaleKind.parse(self.kind).value
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None
        for name in ("dmax", "mmax"):
            v = getattr(self, name)
            if type(v) is not int or v < 0:
                raise ConfigInvalid(f"{name} must be a nonnegative integer")
        if type(self.depth) is not int or self.depth < 2:
            raise ConfigInvalid("depth must be an integer >= 2")
        for name in ("dmax", "mmax", "depth"):
            v = getattr(self, name)
            if v > MAX_DEGREE:
                raise ConfigInvalid(f"{name} = {v} exceeds the limit {MAX_DEGREE}")
        if type(self.seed) is not int:
            raise ConfigInvalid("seed must be an integer")
        if type(self.workers) is not int or not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigInvalid(f"workers must be an integer from 1 to {MAX_WORKERS}")
        if self.fmt == "json":
            self.fmt = "ndjson"
        if self.fmt not in ("ndjson", "csv"):
            raise ConfigInvalid("format must be ndjson (json) or csv")
        return self


def _row(cell, claim, expected, computed, basis, ok=None):
    if ok is None:
        ok = expected == computed
    return {
        "cell": cell,
        "claim": claim,
        "expected": str(expected),
        "computed": str(computed),
        "basis": basis,
        "pass": bool(ok),
    }


# -- exact polynomial fitting ------------------------------------------------


def _newton_fit(points):
    """The polynomial through exact points with distinct x: (degree, evaluator).

    Newton's divided differences: the degree is the index of the last nonzero
    difference, -1 for the zero polynomial.
    """
    xs = [x for x, _y in points]
    diffs = [Fraction(y) for _x, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    deg = max((i for i, c in enumerate(diffs) if c), default=-1)

    def at(x):
        acc = Fraction(0)
        for i in range(deg, -1, -1):
            acc = acc * (x - xs[i]) + diffs[i]
        return acc

    return deg, at


# -- cell handlers -------------------------------------------------------------
#
# A payload is (handler, cell_id, *args).  Handlers are module-level, so a
# payload pickles by reference for the process pool; args are drawn from
# ints/strings/tuples only.


def _cell_min_orbit(cell, q, kind, d, m):
    model = WaldModel(q, kind)
    want = model.kind.closed_orbit_count(d, m)
    got = model.minimal_orbit_counts(d, m)
    claim = (
        f"colength-{d} sublattices of orbit-{m} representative landing on the "
        f"closed orbit (q={q}, {kind})"
    )
    return _row(cell, claim, want, got, "formula")


def _cell_stratum_fit(cell, kind, a, m, probes, holdout):
    pts = []
    for p in probes:
        pts.append((p, WaldModel(p, kind).orbit_stratum_counts((a, 0), m)))
    deg, fit = _newton_fit(pts)
    positive = all(n > 0 for _p, n in pts)
    predicted = fit(holdout)
    counted = WaldModel(holdout, kind).orbit_stratum_counts((a, 0), m)
    ok = positive and deg == m and predicted == counted
    claim = (
        f"stratum count for position ({a},0) at invariant {m} ({kind}): "
        f"positive, polynomial in q of degree exactly {m}, verified at a "
        f"fresh prime"
    )
    expected = f"degree {m}, positive at q={probes}, fit matches q={holdout}"
    computed = (
        f"degree {deg}, counts {tuple(n for _p, n in pts)}, "
        f"predicted {predicted} vs counted {counted}"
    )
    return _row(cell, claim, expected, computed, "oracle", ok)


def _cell_stratum_zero(cell, kind, a, m, probes):
    got = tuple(
        WaldModel(p, kind).orbit_stratum_counts((a, 0), m) for p in probes
    )
    want = tuple(0 for _ in probes)
    claim = (
        f"stratum count for position ({a},0) vanishes at invariant {m} > {a} "
        f"({kind}, q={probes})"
    )
    return _row(cell, claim, want, got, "formula")


def _cell_count_exact(cell, q, d):
    got = _member_count(Lattice2.standard(q), Coweight(d, 0), exact=True)
    want = position_count_formula(q, d)
    claim = f"exact-position ({d},0) sublattice count at q={q}"
    return _row(cell, claim, want, got, "formula")


def _cell_count_closure(cell, q, d):
    got = _member_count(Lattice2.standard(q), Coweight(d, 0), exact=False)
    want = sum(position_count_formula(q, d - 2 * e) for e in range(d // 2 + 1))
    claim = f"closure of position ({d},0): total colength-{d} sublattices at q={q}"
    return _row(cell, claim, want, got, "formula")


def _cell_hecke_identity(cell, q):
    t10 = HeckeElement.basis(q, Coweight(1, 0))
    lhs = convolve(t10, t10)
    rhs = HeckeElement.basis(q, Coweight(2, 0)) + HeckeElement.basis(
        q, Coweight(1, 1)
    ).scaled(q + 1)
    claim = f"T(1,0) * T(1,0) = T(2,0) + (q+1) T(1,1) at q={q}"
    computed = "equal" if lhs == rhs else f"different: {lhs!r}"
    return _row(cell, claim, "equal", computed, "identity")


def _cell_hecke_triple(cell, q, lams):
    a, b, c = (HeckeElement.basis(q, Coweight(*l)) for l in lams)
    assoc = (a * b) * c == a * (b * c)
    comm = a * b == b * a
    claim = f"convolution associativity and commutativity on {lams} at q={q}"
    computed = f"assoc={'ok' if assoc else 'bad'}, comm={'ok' if comm else 'bad'}"
    return _row(cell, claim, "assoc=ok, comm=ok", computed, "random")


def _cell_hecke_pieri(cell, q, d):
    prod = convolve(satake_basis(q, Coweight(1, 0)), satake_basis(q, Coweight(d, 0)))
    expansion = {tuple(k): v for k, v in to_satake(prod).items()}
    want = {(d + 1, 0): 1, (d, 1): 1}
    ok = set(expansion) == set(want) and all(
        expansion[k] == want[k] for k in want
    )
    claim = f"A(1,0) * A({d},0) = A({d + 1},0) + A({d},1) at q={q}"
    computed = "equal" if ok else f"expansion over {sorted(expansion)}"
    return _row(cell, claim, "equal", computed, "identity", ok)


def _scalar_as_int(x):
    """The scalar as a plain integer, or None when it is not an integer constant.

    An integer constant has no term but the one at exponents (0, 0, 0), and
    that term has no r part and an ``int`` part (integral parts are ints).
    """
    if not x.terms:
        return 0
    c = x.terms.get((0, 0, 0))
    if len(x.terms) == 1 and c is not None and not c.b and type(c.a) is int:
        return c.a
    return None


def _cell_hecke_satake(cell, q, lam, mu):
    prod = convolve(satake_basis(q, Coweight(*lam)), satake_basis(q, Coweight(*mu)))
    expansion = to_satake(prod)
    bad = []
    for nu, coeff in sorted(expansion.items()):
        c = _scalar_as_int(coeff)
        if c is None or c < 0:
            bad.append(tuple(nu))
    claim = (
        f"A{lam} * A{mu} expands with nonnegative integer constants at q={q}"
    )
    computed = "all nonnegative integers" if not bad else f"bad at {bad}"
    return _row(cell, claim, "all nonnegative integers", computed, "identity")


def _cell_ic_support(cell, q, kind, d):
    fn = WaldModel(q, kind).ic_basis(d)
    want = set(range(d + 1))
    got = set(fn.support())
    claim = f"degree-{d} basis function is supported exactly on 0..{d} ({kind}, q={q})"
    return _row(cell, claim, sorted(want), sorted(got), "formula")


def _cell_ic_monomials(cell, q, kind, d):
    model = WaldModel(q, kind)
    fn = model.ic_basis(d)
    want = [(m, model.kind.closed_orbit_count(d, m)) for m in range(d + 1)]
    got = [(m, monomial_count(fn.value(m), model.kind.variables)) for m in range(d + 1)]
    claim = (
        f"per-orbit monomial counts of the degree-{d} basis function "
        f"({kind}, q={q})"
    )
    return _row(cell, claim, want, got, "formula")


def _cell_ic_twist(cell, q, kind, d):
    model = WaldModel(q, kind)
    fn = model.ic_basis(d)
    acted = model.act(HeckeElement.basis(q, Coweight(1, 1)), fn)
    ok = acted == fn.scaled(chi_c(q, model.kind))
    claim = (
        f"central element T(1,1) twists the degree-{d} basis function by the "
        f"central character ({kind}, q={q})"
    )
    return _row(cell, claim, "exact twist", "exact twist" if ok else "mismatch", "identity", ok)


def _cell_multone_col(cell, q, kind, a):
    model = WaldModel(q, kind)
    col = model.act(HeckeElement.basis(q, Coweight(a, 0)), model.delta(0))
    support_ok = all(0 <= m <= a for m in col.support())
    diag = col.value(a)
    diag_ok = (not diag.is_zero()) and diag.is_monomial()
    unit_ok = False
    if diag_ok:
        ((_exps, coeff),) = diag.sorted_terms()
        unit_ok = coeff == coeff.one(q)
    ok = support_ok and diag_ok and unit_ok
    claim = (
        f"T({a},0) on the unit delta: supported on 0..{a} with a unit "
        f"character monomial at {a} ({kind}, q={q})"
    )
    computed = (
        f"support {sorted(col.support())}, top value {col.value(a)}"
        if not ok
        else "triangular with unit-monomial diagonal"
    )
    return _row(cell, claim, "triangular with unit-monomial diagonal", computed, "identity", ok)


def _cell_cs_triangular(cell, q, kind, depth):
    mat = WaldModel(q, kind).cs_matrix(depth)
    tri = all(
        mat[m][d].is_zero() for m in range(depth + 1) for d in range(depth + 1) if m > d
    )
    diag = all(not mat[d][d].is_zero() for d in range(depth + 1))
    ok = tri and diag
    claim = f"basis-function matrix to depth {depth} is triangular with nonzero diagonal ({kind}, q={q})"
    computed = f"triangular={'ok' if tri else 'bad'}, diagonal={'ok' if diag else 'bad'}"
    return _row(cell, claim, "triangular=ok, diagonal=ok", computed, "identity", ok)


def _cell_cs_diag_monomial(cell, q, kind, depth):
    mat = WaldModel(q, kind).cs_matrix(depth)
    bad = [d for d in range(depth + 1) if not mat[d][d].is_monomial()]
    claim = (
        f"basis-function matrix diagonal entries are single character "
        f"monomials to depth {depth} ({kind}, q={q})"
    )
    computed = "all monomials" if not bad else f"non-monomial at {bad}"
    return _row(cell, claim, "all monomials", computed, "identity")


def _cell_cs_nonsemisimple(cell, q, kind):
    mat = WaldModel(q, kind).cs_matrix(1)
    got = mat[0][1]
    ok = not got.is_zero()
    claim = (
        f"degree-1 basis function has a nonzero value at orbit 0, so the "
        f"basis change away from deltas is not diagonal ({kind}, q={q})"
    )
    return _row(cell, claim, "nonzero", str(got) if ok else "0", "identity", ok)


def _build_hecke(q, rows):
    return HeckeElement(q, [((a1, a2), c) for a1, a2, c in rows])


def _build_fn(q, kind, rows):
    values = [(m, LaurentScalar.monomial(q, e, Fraction(n, d))) for m, e, n, d in rows]
    return WaldFunction(q, kind, values)


def _cell_module_axiom(cell, q, kind, hrows1, hrows2, frows):
    model = WaldModel(q, kind)
    h1, h2 = _build_hecke(q, hrows1), _build_hecke(q, hrows2)
    f = _build_fn(q, kind, frows)
    lhs = model.act(h1, model.act(h2, f))
    rhs = model.act(convolve(h1, h2), f)
    ok = lhs == rhs
    claim = (
        f"act(h1, act(h2, f)) = act(h1 * h2, f) for h1={hrows1}, h2={hrows2}, "
        f"f on {sorted(set(r[0] for r in frows))} ({kind}, q={q})"
    )
    return _row(cell, claim, "equal", "equal" if ok else "different", "random", ok)


def _cell_eigen(cell, q, kind, depth, e1_text, assignment_rows):
    params = CharacterParams(
        kind, symbolic=False, assignment={k: Fraction(v) for k, v in assignment_rows}
    )
    report = WaldModel(q, kind).eigen_check(depth, Fraction(e1_text), params)
    expected = (
        f"window >= {report['window_required']}, exact top defect, "
        f"central eigenvalue"
    )
    computed = (
        f"window {report['window']}, defect "
        f"{'ok' if report['defect_pass'] else 'bad'}, central "
        f"{'ok' if report['central_pass'] else 'bad'}"
    )
    claim = (
        f"truncated eigen-sum at depth {depth} with e1={e1_text}, "
        f"{dict(assignment_rows)} ({kind}, q={q})"
    )
    return _row(cell, claim, expected, computed, "random", report["pass"])


def _cell_quad_hyperbolic(cell, q):
    b = SymMatrixO(LaurentPoly.zero(q), LaurentPoly.one(q), LaurentPoly.zero(q))
    inv, _a, _eps = diagonalize(b, 6)
    cover, in_scope = covering_type(inv, q)
    got = f"{cover.value}, in_scope={in_scope}"
    claim = f"the hyperbolic plane [[0,1],[1,0]] splits at q={q}"
    return _row(cell, claim, "SplitCover, in_scope=True", got, "formula")


def _cell_quad_invariance(cell, q, braw, araw, uraw, prec):
    # sym_diag reads both forms mod t^prec, so B is moved mod t^prec too
    moved = pcongruent(q, prec, *braw, *araw, uraw)
    outs = [backend.sym_diag(q, prec, *b) for b in (braw, moved)]
    if None in outs:
        raise PrecisionExhausted(f"val(det) >= working precision {prec}")
    inv0, inv1 = (_invariant(q, out) for out in outs)
    claim = (
        f"diagonal invariant is constant under unit-similitude congruence "
        f"(q={q}, precision {prec})"
    )
    want = f"({inv0.a},{inv0.b},{inv0.delta.value})"
    got = f"({inv1.a},{inv1.b},{inv1.delta.value})"
    return _row(cell, claim, want, got, "random")


def _cell_quad_grid(cell, q, a, bexp, delta_name):
    inv = FormInvariant(a, bexp, Delta(delta_name))
    mat = normal_form(inv, q)
    back, _amat, _eps = diagonalize(mat, 2 * a + 2)
    round_ok = back == inv
    cover, in_scope = covering_type(inv, q)
    parity_ok = (
        cover is CoveringType.RAMIFIED
        if (a - bexp) % 2 == 1
        else cover in (CoveringType.SPLIT, CoveringType.UNRAMIFIED_NONSPLIT)
    )
    scope_ok = in_scope == (cover is not CoveringType.UNRAMIFIED_NONSPLIT)
    ok = round_ok and parity_ok and scope_ok
    claim = (
        f"normal form ({a},{bexp},{delta_name}) at q={q}: invariant roundtrip "
        f"and odd-parity ramification"
    )
    computed = (
        f"roundtrip {'ok' if round_ok else 'bad'}, cover {cover.value}, "
        f"in_scope={in_scope}"
    )
    expected =f"roundtrip ok, {'RamifiedCover' if (a - bexp) % 2 else 'even-parity cover'}"
    return _row(cell, claim, expected, computed, "formula", ok)


def _shard_certs(q, shard, width, prec, check_prec):
    """Per e12 of one sweep shard, in code order: the results for each e22.

    The shard fixes the coefficient code of e11; e12 and e22 range over all
    q**width codes (code c stands for the polynomial whose coefficients are
    c's base-q digits; width <= prec).  Each form gets what
    ``sym_normal_cert(q, prec, check_prec, e11, e12, e22, ns)`` returns:
    None exactly when val(det) >= prec, read off the pivot step.

    ``_purekern.route`` sorts the forms.  One it leaves on a nonzero e11 is
    certified by ``_purekern.pivot_certs`` with its whole (e11, e12) row; one
    it swaps by the same routine on [[e22, e12], [e12, e11]], as
    ``sym_normal_cert`` does; the rest (e1 += e2, and the zero form) go
    through ``backend.sym_normal_cert``.
    """
    ns = least_nonsquare(q)
    cert = backend.sym_normal_cert
    polys = [pnorm(q, 0, [c // q**i % q for i in range(width)]) for c in range(q**width)]
    vals = [pval(p) for p in polys]
    pivots = [pivot(q, prec, p) if p[1] else None for p in polys]
    e11, v11 = polys[shard], vals[shard]
    for e12, v12 in zip(polys, vals):
        out = [None] * len(polys)
        row = []
        for j, (e22, v22) in enumerate(zip(polys, vals)):
            r = route(v11, v12, v22)
            if r == STAY and e11[1]:
                row.append(j)
            elif r == SWAP:
                (out[j],) = pivot_certs(q, prec, check_prec, pivots[j], e12, (e11,), ns)
            else:
                out[j] = cert(q, prec, check_prec, e11, e12, e22, ns)
        if row:
            certs = pivot_certs(q, prec, check_prec, pivots[shard], e12, [polys[j] for j in row], ns)
            for j, r in zip(row, certs):
                out[j] = r
        yield out


def _cell_quad_exhaustive(cell, q, shard, width, vmax, check_prec):
    """Certify every truncated symmetric form in one shard of the full cube.

    Forms whose determinant valuation exceeds vmax are undetermined at this
    truncation and are skipped (the certificate needs val(det) strictly
    inside the data).  ``_shard_certs`` works at precision vmax + 1, so its
    pivot step both finds them and certifies the others.
    """
    n_all = n_skip = n_ok = 0
    for certs in _shard_certs(q, shard, width, vmax + 1, check_prec):
        for r in certs:
            n_all += 1
            if r is None:
                n_skip += 1
            elif r[3] and r[0] >= r[1] >= 0:
                n_ok += 1
    checked = n_all - n_skip
    claim = (
        f"every truncated form with det valuation <= {vmax} in shard {shard} "
        f"transports to its normal form (q={q}, certified mod t^{check_prec})"
    )
    computed = f"{n_ok}/{checked} certified, {n_skip} undetermined"
    return _row(cell, claim, f"{checked}/{checked} certified, {n_skip} undetermined", computed, "exhaustive")


def _scan_isotropic(q, f11, f12, f22):
    """Independent projective count: try all q + 1 lines directly."""
    n = 0
    for x, y in [(1, y) for y in range(q)] + [(0, 1)]:
        if (f11 * x * x + 2 * f12 * x * y + f22 * y * y) % q == 0:
            n += 1
    return n


def _cell_isotropic(cell, q, f11):
    bad = []
    for f12 in range(q):
        for f22 in range(q):
            want = _scan_isotropic(q, f11, f12, f22)
            got = isotropic_line_count(q, ((f11, f12), (f12, f22)))
            if want != got:
                bad.append((f12, f22, want, got))
    claim = (
        f"isotropic-line trichotomy matches the projective scan for all "
        f"{q * q} forms with first entry {f11} (q={q})"
    )
    computed = "all match" if not bad else f"mismatch at {bad[:4]}"
    return _row(cell, claim, "all match", computed, "exhaustive")


def _run_cell(payload):
    return payload[0](*payload[1:])


# -- planners ------------------------------------------------------------------


def _plan_min_orbit(cfg):
    return [
        (_cell_min_orbit, f"d{d}-m{m}", cfg.q, cfg.kind, d, m)
        for d in range(cfg.dmax + 1)
        for m in range(cfg.mmax + 1)
    ]


def _plan_stratum_dim(cfg):
    # a fit at invariant m needs max(m + 1, 3) probe primes plus a held-out one
    top = len(PROBE_PRIMES) - 2
    if min(cfg.dmax, cfg.mmax) > top:
        raise ConfigInvalid(
            f"stratum-dim fits need min(dmax, mmax) <= {top}: the probe primes "
            f"{PROBE_PRIMES} run out above that"
        )
    cells = []
    base = PROBE_PRIMES[:3]
    for a in range(cfg.dmax + 1):
        for m in range(min(a, cfg.mmax) + 1):
            probes = PROBE_PRIMES[: max(m + 1, 3)]
            holdout = PROBE_PRIMES[len(probes)]
            cells.append((_cell_stratum_fit, f"a{a}-m{m}", cfg.kind, a, m, probes, holdout))
        for m in range(a + 1, cfg.mmax + 1):
            cells.append((_cell_stratum_zero, f"a{a}-m{m}", cfg.kind, a, m, base))
    return cells


def _plan_counts(cfg):
    cells = []
    for d in range(cfg.dmax + 1):
        cells.append((_cell_count_exact, f"exact-d{d}", cfg.q, d))
        cells.append((_cell_count_closure, f"closure-d{d}", cfg.q, d))
    return cells


_TRIPLE_POOL = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0))
_SATAKE_POOL = ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0))


def _plan_hecke_tables(cfg):
    cells = [(_cell_hecke_identity, "identity", cfg.q)]
    rng = random.Random(cfg.seed)
    for i in range(50):
        lams = tuple(rng.choice(_TRIPLE_POOL) for _ in range(3))
        cells.append((_cell_hecke_triple, f"rand-{i:02d}", cfg.q, lams))
    for d in range(1, 5):
        cells.append((_cell_hecke_pieri, f"pieri-d{d}", cfg.q, d))
    k = 0
    for i in range(len(_SATAKE_POOL)):
        for j in range(i, len(_SATAKE_POOL)):
            cells.append(
                (_cell_hecke_satake, f"satake-{k:02d}", cfg.q, _SATAKE_POOL[i], _SATAKE_POOL[j])
            )
            k += 1
    return cells


def _plan_ic_basis(cfg):
    cells = []
    for d in range(cfg.dmax + 1):
        cells.append((_cell_ic_support, f"d{d}-support", cfg.q, cfg.kind, d))
        cells.append((_cell_ic_monomials, f"d{d}-monomials", cfg.q, cfg.kind, d))
        cells.append((_cell_ic_twist, f"d{d}-twist", cfg.q, cfg.kind, d))
    return cells


def _plan_multone(cfg):
    return [
        (_cell_multone_col, f"col{a}", cfg.q, cfg.kind, a)
        for a in range(cfg.depth + 1)
    ]


def _plan_cs_matrix(cfg):
    return [
        (_cell_cs_triangular, "triangular", cfg.q, cfg.kind, cfg.depth),
        (_cell_cs_diag_monomial, "diag-monomial", cfg.q, cfg.kind, cfg.depth),
        (_cell_cs_nonsemisimple, "nonsemisimple", cfg.q, cfg.kind),
    ]


_MODULE_H_POOL = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1))
_MODULE_H_COEFFS = (-2, -1, 1, 2, 3)
_MODULE_F_NUMS = (-5, -3, -2, -1, 1, 2, 3, 5)


def _plan_module_axiom(cfg):
    """Fifty random (h1, h2, f) cells.

    Each value below n is drawn by Random's own rejection loop, getrandbits
    of n's bit length again while it is >= n, so the draws, and the state
    the generator is left in, are those of ``randint``, ``choice`` and
    ``sample(range(4), k)`` (a partial shuffle of a pool of 4), without
    their argument checks.
    """
    bits = random.Random(cfg.seed).getrandbits

    def below(n):
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    kind = EtaleKind.parse(cfg.kind)
    lo, hi = kind.pads
    cells = []
    for i in range(50):
        hrows = []
        for _ in range(2):
            rows = []
            for _ in range(1 + below(2)):
                a1, a2 = _MODULE_H_POOL[below(len(_MODULE_H_POOL))]
                rows.append((a1, a2, _MODULE_H_COEFFS[below(len(_MODULE_H_COEFFS))]))
            hrows.append(tuple(rows))
        # the orbit indices are all drawn before their values, as sample draws them
        pool = [0, 1, 2, 3]
        ms = []
        for j in range(1 + below(3)):
            p = below(4 - j)
            ms.append(pool[p])
            pool[p] = pool[3 - j]
        frows = []
        for m in ms:
            exps = lo + tuple(below(4) - 1 for _ in kind.variables) + hi
            num = _MODULE_F_NUMS[below(len(_MODULE_F_NUMS))]
            frows.append((m, exps, num, 1 + below(3)))
        cells.append(
            (
                _cell_module_axiom,
                f"rand-{i:02d}",
                cfg.q,
                cfg.kind,
                hrows[0],
                hrows[1],
                tuple(frows),
            )
        )
    return cells


def _nonzero_fraction(rng):
    num = rng.choice((-9, -7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9))
    den = rng.randint(1, 9)
    return Fraction(num, den)


def _plan_eigen(cfg):
    rng = random.Random(cfg.seed)
    kind = EtaleKind.parse(cfg.kind)
    cells = []
    for i in range(20):
        rows = tuple((name, str(_nonzero_fraction(rng))) for name in kind.variables)
        e1 = str(_nonzero_fraction(rng))
        cells.append((_cell_eigen, f"draw-{i:02d}", cfg.q, cfg.kind, cfg.depth, e1, rows))
    return cells


def _random_poly_raw(rng, q, max_deg, unit=False):
    """Raw (offset, coeffs) data for a random polynomial, possibly forced unit.

    Each value below n is drawn by Random's own rejection loop: getrandbits
    of n's bit length, again while it is >= n.  So the draws, and the state
    ``rng`` is left in, are those of ``randint(0, max_deg)``, ``randrange(q)``
    per coefficient and, for a unit, ``randrange(1, q)``, without their
    argument checks.
    """
    bits = rng.getrandbits
    n = max_deg + 1
    k = n.bit_length()
    deg = bits(k)
    while deg >= n:
        deg = bits(k)
    k = q.bit_length()
    coeffs = []
    for _ in range(deg + 1):
        c = bits(k)
        while c >= q:
            c = bits(k)
        coeffs.append(c)
    if unit:
        n = q - 1
        k = n.bit_length()
        c = bits(k)
        while c >= n:
            c = bits(k)
        coeffs[0] = 1 + c
    return pnorm(q, 0, coeffs)


def _const(p):
    """Constant term of a raw polynomial with offset >= 0."""
    return p[1][0] if p[1] and not p[0] else 0


def _plan_quadform_orbits(cfg):
    q = cfg.q
    cells = [(_cell_quad_hyperbolic, "hyperbolic", q)]
    for a in range(4):
        for bexp in range(a + 1):
            for dname in ("Square", "NonSquare"):
                tag = "s" if dname == "Square" else "n"
                cells.append((_cell_quad_grid, f"grid-a{a}b{bexp}{tag}", q, a, bexp, dname))
    rng = random.Random(cfg.seed)
    i = 0
    while i < 200:
        braw = tuple(_random_poly_raw(rng, q, 3) for _ in range(3))
        b11, b12, b22 = braw
        if not pdot(q, 4, ((b11, b22), (pneg(q, b12), b12)))[1]:
            continue  # det B == 0 mod t^4: det B is 0 or val(det B) > 3
        while True:
            araw = tuple(_random_poly_raw(rng, q, 2) for _ in range(4))
            c11, c12, c21, c22 = map(_const, araw)
            # A is unimodular iff det A has a nonzero constant term
            if (c11 * c22 - c12 * c21) % q:
                break
        uraw = _random_poly_raw(rng, q, 2, unit=True)
        cells.append((_cell_quad_invariance, f"invar-{i:03d}", q, braw, araw, uraw, 6))
        i += 1
    if q == 3:
        width = 4
        for shard in range(q ** width):
            cells.append(
                (_cell_quad_exhaustive, f"exhaustive-{shard:02d}", q, shard, width, 3, 4)
            )
    return cells


def _plan_isotropic(cfg):
    if cfg.q > MAX_ISOTROPIC_Q:
        raise ConfigInvalid(
            f"isotropic scans q^2 forms in each of q cells: q = {cfg.q} exceeds the limit "
            f"{MAX_ISOTROPIC_Q}"
        )
    return [(_cell_isotropic, f"b11-{v}", cfg.q, v) for v in range(cfg.q)]


class Campaign(NamedTuple):
    """One ``wald`` campaign: its name, planner, knobs, CLI help and CLI aliases.

    ``knobs`` names every SessionConfig field the planner reads; its ``wald``
    subcommand has a flag for each of them and for the run settings, and no
    other.
    """

    name: str
    planner: Callable
    knobs: tuple
    help: str
    aliases: tuple = ()


#: Every campaign, in ``wald --help`` and ``CAMPAIGNS`` order.
CAMPAIGN_TABLE = (
    Campaign("min-orbit", _plan_min_orbit, ("q", "kind", "dmax", "mmax"),
             "count closed-orbit sublattices from each orbit representative",
             aliases=("verify-min-orbit",)),
    Campaign("stratum-dim", _plan_stratum_dim, ("kind", "dmax", "mmax"),
             "fit orbit-stratum counts to polynomials in q and cross-check"),
    Campaign("counts", _plan_counts, ("q", "dmax"),
             "check sublattice counts against the closed-form formula"),
    Campaign("hecke-tables", _plan_hecke_tables, ("q", "seed"),
             "convolution identities, ring axioms, structure constants"),
    Campaign("ic-basis", _plan_ic_basis, ("q", "kind", "dmax"),
             "support, monomial counts and central twist of the basis functions"),
    Campaign("multone", _plan_multone, ("q", "kind", "depth"),
             "triangularity of the algebra action on the unit delta"),
    Campaign("cs-matrix", _plan_cs_matrix, ("q", "kind", "depth"),
             "shape of the basis-function matrix in the delta basis"),
    Campaign("module-axiom", _plan_module_axiom, ("q", "kind", "seed"),
             "compatibility of the action with convolution on random data"),
    Campaign("eigen", _plan_eigen, ("q", "kind", "depth", "seed"),
             "truncated eigenfunction window checks (batch or single run)"),
    Campaign("quadform-orbits", _plan_quadform_orbits, ("q", "seed"),
             "symmetric-form invariants: constancy, parity, completeness"),
    Campaign("isotropic", _plan_isotropic, ("q",),
             "isotropic line counts against a direct projective scan"),
)

CAMPAIGNS = tuple(c.name for c in CAMPAIGN_TABLE)


def plan(name, cfg: SessionConfig):
    """The cell payloads a campaign will run, in report order."""
    for campaign in CAMPAIGN_TABLE:
        if campaign.name == name:
            return campaign.planner(cfg)
    raise ConfigInvalid(f"unknown campaign {name!r} (choose from {CAMPAIGNS})")


def _report(name, cfg, rows):
    failed = sum(1 for r in rows if not r["pass"])
    header = {
        "campaign": name,
        "q": cfg.q,
        "kind": cfg.kind,
        "dmax": cfg.dmax,
        "mmax": cfg.mmax,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "backend": backend.active_name(),
        "version": __version__,
    }
    summary = {"cells": len(rows), "failed": failed, "pass": failed == 0}
    return {"header": header, "rows": rows, "summary": summary}


def run_campaign(name, cfg: SessionConfig) -> dict:
    """Plan and execute one campaign, returning the full report.

    The report is deterministic for fixed (name, cfg.q, kind, bounds, seed):
    cells are planned up front, random draws happen only during planning, and
    rows keep plan order no matter how many workers execute them.

    Cells run in plan order in this process.  When more than one worker may
    run, the cells left once ``POOL_AFTER_S`` seconds have passed go to one
    pool of at most that many workers, cores and cells left; a campaign that
    ends sooner starts no pool at all, and imports none of the pool's modules.
    """
    cfg = cfg.validate()
    cells = plan(name, cfg)
    cap = min(cfg.workers, os.cpu_count() or 1)
    rows = []
    start = time.perf_counter()
    for cell in cells:
        rows.append(_run_cell(cell))
        if cap > 1 and time.perf_counter() - start >= POOL_AFTER_S:
            break
    left = cells[len(rows):]
    workers = min(cap, len(left))
    if workers > 1:
        # the module attribute, so that a replaced pool class is the one used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            rows += pool.map(_run_cell, left, chunksize=1)
    else:
        rows += map(_run_cell, left)
    return _report(name, cfg, rows)


def __getattr__(name):
    # PEP 562: ``ProcessPoolExecutor`` is imported on its first use, then kept
    # in the module's globals like any other name
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def single_eigen_report(cfg: SessionConfig, e1_text, assignment_rows) -> dict:
    """A one-row report for a single numeric eigen-window check."""
    cfg = cfg.validate()
    row = _cell_eigen("single", cfg.q, cfg.kind, cfg.depth, str(e1_text), tuple(assignment_rows))
    return _report("eigen", cfg, [row])


#: One encoder for every report line; ``json.dumps`` with these arguments
#: would build a new one per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def render_report(report, fmt="ndjson") -> str:
    """Serialize a report: newline-delimited JSON, or a CSV cell table."""
    if fmt == "json":
        fmt = "ndjson"
    if fmt == "ndjson":
        lines = [_dumps({"type": "header", **report["header"]})]
        lines += [_dumps({"type": "cell", **row}) for row in report["rows"]]
        lines.append(_dumps({"type": "summary", **report["summary"]}))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import csv as _csv

        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(["cell", "claim", "expected", "computed", "basis", "pass"])
        for row in report["rows"]:
            writer.writerow(
                [
                    row["cell"],
                    row["claim"],
                    row["expected"],
                    row["computed"],
                    row["basis"],
                    "true" if row["pass"] else "false",
                ]
            )
        return buf.getvalue()
    raise ConfigInvalid(f"unknown format {fmt!r}")
