"""Independent brute-force routes used to cross-check the library.

Everything here is deliberately written from scratch against different
representations than the package uses: dense dict polynomials, row-reduced
subspace enumeration over F_q, and direct projective scans.  Slow and simple
beats fast and shared when the point is to catch the library lying.  The form
references multiply the general certificate ``A B A^t eps`` out with the
package's exact raw-poly primitives, and share no code with its form kernels.
"""

from __future__ import annotations

import functools
import itertools
import random

from waldq._purekern import (
    PZERO,
    issquare,
    padd,
    pconst,
    pconstmul,
    pinv_unit,
    pmul,
    pneg,
    pnorm,
    pshift,
    psqrt_unit,
    psub,
    ptrunc,
    pval,
)
from waldq.quadform import least_nonsquare


# -- dict-based Laurent polynomial arithmetic ---------------------------------


def dict_add(q, f, g):
    out = dict(f)
    for k, c in g.items():
        out[k] = (out.get(k, 0) + c) % q
    return {k: c for k, c in out.items() if c}


def dict_mul(q, f, g):
    out = {}
    for i, a in f.items():
        for j, b in g.items():
            k = i + j
            out[k] = (out.get(k, 0) + a * b) % q
    return {k: c for k, c in out.items() if c}


def dict_from_raw(raw):
    off, coeffs = raw
    return {off + i: c for i, c in enumerate(coeffs) if c}


def raw_from_dict(f):
    if not f:
        return (0, ())
    lo, hi = min(f), max(f)
    return (lo, tuple(f.get(k, 0) for k in range(lo, hi + 1)))


# -- linear algebra over F_q ---------------------------------------------------


def rref(q, rows):
    """Row-reduce a list of vectors (tuples) over F_q; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    out, pivots = [], []
    col = 0
    while rows and col < n:
        pivot_row = None
        for r in rows:
            if r[col] % q:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        rows.remove(pivot_row)
        inv = pow(pivot_row[col], q - 2, q)
        pivot_row = [(inv * x) % q for x in pivot_row]
        for r in rows:
            f = r[col] % q
            if f:
                for k in range(n):
                    r[k] = (r[k] - f * pivot_row[k]) % q
        for r in out:
            f = r[col] % q
            if f:
                for k in range(n):
                    r[k] = (r[k] - f * pivot_row[k]) % q
        out.append(pivot_row)
        pivots.append(col)
        col += 1
        rows = [r for r in rows if any(x % q for x in r)]
    return [tuple(r) for r in out], pivots


def reduce_vector(q, v, basis_rows, pivots):
    """Remainder of v after eliminating the pivot coordinates of an RREF set."""
    v = list(v)
    for row, p in zip(basis_rows, pivots):
        f = v[p] % q
        if f:
            for k in range(len(v)):
                v[k] = (v[k] - f * row[k]) % q
    return tuple(v)


def matrix_rank(q, rows):
    return len(rref(q, rows)[0]) if rows else 0


# -- t-stable subspace enumeration ---------------------------------------------
#
# Colength-d sublattices of O^2 correspond to t-stable d-dimensional
# subspaces of (O/t^d)^2 = F_q^(2d), where t shifts each block of d
# coordinates down by one.  Coordinate layout: index i*d + j holds the
# coefficient of t^j in component i.


def _t_shift(vec, d):
    out = [0] * (2 * d)
    for i in range(2):
        for j in range(d - 1):
            out[i * d + j + 1] = vec[i * d + j]
    return tuple(out)


def _all_rref_bases(q, n, k):
    """Every k-dimensional subspace of F_q^n, as (rows, pivots) in RREF."""
    for pivots in itertools.combinations(range(n), k):
        free_cols = []
        for r, p in enumerate(pivots):
            cols = [c for c in range(p + 1, n) if c not in pivots]
            free_cols.append(cols)
        slots = sum(len(c) for c in free_cols)
        for assign in itertools.product(range(q), repeat=slots):
            rows = []
            pos = 0
            for r, p in enumerate(pivots):
                row = [0] * n
                row[p] = 1
                for c in free_cols[r]:
                    row[c] = assign[pos]
                    pos += 1
                rows.append(tuple(row))
            yield rows, list(pivots)


def _is_t_stable(q, rows, pivots, d):
    for r in rows:
        if any(reduce_vector(q, _t_shift(r, d), rows, pivots)):
            return False
    return True


def _quotient_t_kernel_dim(q, rows, pivots, d):
    """dim ker(t) acting on F_q^(2d) / S for a t-stable subspace S."""
    n = 2 * d
    nonpiv = [c for c in range(n) if c not in pivots]
    cols = []
    for c in nonpiv:
        e = [0] * n
        e[c] = 1
        shifted = reduce_vector(q, _t_shift(tuple(e), d), rows, pivots)
        cols.append(tuple(shifted[j] for j in nonpiv))
    rank = matrix_rank(q, cols)
    return len(nonpiv) - rank


def stable_subspace_counts(q, d):
    """(total, cyclic) counts of t-stable d-dim subspaces of (O/t^d)^2.

    ``total`` counts every colength-d sublattice of O^2; ``cyclic`` counts the
    ones whose quotient is a cyclic module, i.e. relative position (d, 0).
    """
    if d == 0:
        return 1, 1
    total = cyclic = 0
    for rows, pivots in _all_rref_bases(q, 2 * d, d):
        if not _is_t_stable(q, rows, pivots, d):
            continue
        total += 1
        if _quotient_t_kernel_dim(q, rows, pivots, d) <= 1:
            cyclic += 1
    return total, cyclic


def _t_preimage(q, rows, pivots, d):
    """A spanning set of t^-1(S) for the t-stable S with RREF data (rows, pivots).

    If t v lies in S then v - u(t v) lies in ker t, where u shifts each block
    up by one; so t^-1(S) lies in span(u(S) + ker t).  Its members are the
    combinations whose t-image reduces to zero mod S: the left-null vectors of
    the matrix [reduced t-images | identity].
    """
    n = 2 * d
    gens = [tuple(r[i * d + j + 1] if j < d - 1 else 0 for i in range(2) for j in range(d))
            for r in rows]
    for i in range(2):
        e = [0] * n
        e[i * d + d - 1] = 1
        gens.append(tuple(e))
    m = len(gens)
    aug = [
        reduce_vector(q, _t_shift(g, d), rows, pivots) + tuple(int(k == j) for k in range(m))
        for j, g in enumerate(gens)
    ]
    red, piv = rref(q, aug)
    out = []
    for r, p in zip(red, piv):
        if p >= n:
            out.append(tuple(sum(r[n + j] * g[k] for j, g in enumerate(gens)) % q for k in range(n)))
    return out


def stable_subspaces_by_extension(q, d):
    """(total, cyclic) as stable_subspace_counts, by growing the t-stable
    subspaces one dimension at a time instead of scanning every subspace.

    t is nilpotent on a t-stable S of dimension k + 1, so S has a t-stable
    hyperplane S'; S = S' + span(v) with t v in S'.  Each level is the set of
    RREFs of those spans, which is what makes q = 7, d = 4 reachable.
    """
    level = {((), ())}
    for _ in range(d):
        nxt = set()
        for rows, pivots in level:
            # a basis of t^-1(S) / S, then every nonzero vector of it
            rest = [reduce_vector(q, v, rows, pivots) for v in _t_preimage(q, rows, pivots, d)]
            rest = rref(q, [v for v in rest if any(v)])[0]
            for cs in itertools.product(range(q), repeat=len(rest)):
                if any(cs):
                    w = tuple(sum(c * v[k] for c, v in zip(cs, rest)) % q for k in range(2 * d))
                    red, piv = rref(q, list(rows) + [w])
                    nxt.add((tuple(red), tuple(piv)))
        level = nxt
    cyclic = sum(1 for rows, pivots in level if _quotient_t_kernel_dim(q, rows, pivots, d) <= 1)
    return len(level), cyclic


def quotient_type(q, d, rows, pivots):
    """Elementary-divisor exponents (a, b) of F_q^(2d)/S, a >= b, a + b = d."""
    n = 2 * d
    nonpiv = [c for c in range(n) if c not in pivots]
    # iterate t on the quotient, tracking kernel growth: dim ker t^i = min(i,a)+min(i,b)
    mats = []
    for c in nonpiv:
        e = [0] * n
        e[c] = 1
        shifted = reduce_vector(q, _t_shift(tuple(e), d), rows, pivots)
        mats.append([shifted[j] for j in nonpiv])
    # column j of T holds the image of basis vector j
    dim = len(nonpiv)
    power = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
    k_prev = 0
    a = b = 0
    for step in range(1, d + 1):
        power = [mat_apply_t(mats, power[j], q, dim) for j in range(dim)]
        rows_i = [tuple(power[j]) for j in range(dim)]
        k_i = dim - matrix_rank(q, rows_i)
        growth = k_i - k_prev
        # growth = #{parts >= step}
        if growth >= 2:
            a += 1
            b += 1
        elif growth == 1:
            a += 1
        k_prev = k_i
        if k_i == dim:
            break
    return (a, b)


def mat_apply_t(mats, vec, q, dim):
    out = [0] * dim
    for j, x in enumerate(vec):
        if x:
            for i in range(dim):
                out[i] = (out[i] + x * mats[j][i]) % q
    return out


def lattice_rows(q, d, a2, b2, c_raw):
    """RREF data of the subspace of (O/t^d)^2 spanned by a canonical triple."""
    vecs = []
    c = dict_from_raw(c_raw)
    for j in range(d):
        if a2 + j < d:
            e = [0] * (2 * d)
            e[a2 + j] = 1
            vecs.append(tuple(e))
        e = [0] * (2 * d)
        for k, coeff in c.items():
            if 0 <= k + j < d:
                e[k + j] = coeff % q
        if b2 + j < d:
            e[d + b2 + j] = 1
        if any(e):
            vecs.append(tuple(e))
    return rref(q, vecs)


# -- isotropic lines -----------------------------------------------------------


def isotropic_scan(q, f11, f12, f22):
    """Count projective zeros of f11 x^2 + 2 f12 xy + f22 y^2 directly."""
    n = 0
    for x, y in [(1, y) for y in range(q)] + [(0, 1)]:
        if (f11 * x * x + 2 * f12 * x * y + f22 * y * y) % q == 0:
            n += 1
    return n


# -- symbolic eigen window check -----------------------------------------------


def schur_gl2_naive(lam, e1, e2):
    """(e1*e2)^lam2 * h_{lam1-lam2}(e1, e2) as one Fraction power per summand."""
    from fractions import Fraction

    e1, e2 = Fraction(e1), Fraction(e2)
    n = lam[0] - lam[1]
    return (e1 * e2) ** lam[1] * sum(e1**i * e2 ** (n - i) for i in range(n + 1))


def specialize_reference(x, assignment, r_value=None):
    """``scalars.specialize`` with one Fraction product per term and variable.

    The terms are taken in ``terms`` order, so the same errors come first.
    """
    from fractions import Fraction

    from waldq.scalars import VARS, ZeroAssignment

    vals = {}
    for name, v in (assignment or {}).items():
        if name not in VARS:
            raise ValueError(f"unknown variable {name!r}")
        v = Fraction(v)
        if v == 0:
            raise ZeroAssignment(f"{name} = 0")
        vals[name] = v
    total = Fraction(0)
    for exps, coeff in x.terms.items():
        c = coeff.specialize_r(r_value)
        for name, e in zip(VARS, exps):
            if e:
                if name not in vals:
                    raise KeyError(f"no value for {name}")
                c *= vals[name] ** e
        total += c
    return total


def scalar_as_int_reference(x):
    """``campaigns._scalar_as_int`` by specializing at no values.

    A scalar with a character variable or a sqrt(q) part cannot be
    specialized without values, so it is no constant.
    """
    from waldq.scalars import ResidualSqrtQ, specialize

    try:
        v = specialize(x, {})
    except (KeyError, ResidualSqrtQ):
        return None
    return int(v) if v.denominator == 1 else None


def basis_expand(values, wtab, top):
    """Coefficients of a function over the triangular family wtab[0..top].

    Back-substitution in Fractions from the top degree; wtab[e][e] is a
    nonzero rational (a power of the central character value), so the
    expansion is exact and unique for functions supported in {0..top}.
    """
    from fractions import Fraction

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


def eigen_check_symbolic(model, depth, e1, params, r_value=None):
    """``WaldModel.eigen_check`` as it ran over LaurentScalars, in Fractions.

    K is built as a WaldFunction, the Hecke elements act symbolically through
    ``model.act`` and the acted values are specialized afterwards, term by
    term (``specialize_reference``); both sides of the eigen identity are
    expanded over the basis (``basis_expand``) and compared degree by
    degree.  Only the argument checks are left out.
    """
    from fractions import Fraction

    from waldq.hecke import HeckeElement, satake_basis
    from waldq.lattice import Coweight
    from waldq.torus import chi_c
    from waldq.waldspurger import WaldFunction

    assignment = params.values()
    e1 = Fraction(e1)
    central = specialize_reference(chi_c(model.q, model.kind), assignment, r_value)
    e2 = central / e1
    wtab = [
        {
            m: specialize_reference(v, assignment, r_value)
            for m, v in model.ic_basis(d).values.items()
        }
        for d in range(depth + 2)
    ]
    coeff = [schur_gl2_naive((d, 0), e1, e2) / central**d for d in range(depth + 2)]
    kvals = {}
    for d in range(depth + 1):
        for m, v in wtab[d].items():
            kvals[m] = kvals.get(m, Fraction(0)) + coeff[d] * v
    kfun = WaldFunction(model.q, model.kind, kvals)

    acted = model.act(satake_basis(model.q, Coweight(1, 0)), kfun)
    lhs = {m: specialize_reference(v, assignment, r_value) for m, v in acted.values.items()}
    rhs = {m: (e1 + e2) * v for m, v in kvals.items() if v != 0}
    defect_ok = True
    for m in range(depth + 2):
        want = coeff[depth] * wtab[depth + 1].get(m, Fraction(0)) - (
            central * coeff[depth + 1] * wtab[depth].get(m, Fraction(0))
        )
        if lhs.get(m, Fraction(0)) - rhs.get(m, Fraction(0)) != want:
            defect_ok = False
            break
    xl = basis_expand(lhs, wtab, depth + 1)
    xr = basis_expand(rhs, wtab, depth + 1)
    window = -1
    for e in range(depth + 2):
        if xl[e] != xr[e]:
            break
        window = e
    eigen_ok = window >= depth - 1
    acted_c = model.act(HeckeElement.basis(model.q, Coweight(1, 1)), kfun)
    central_ok = all(
        specialize_reference(acted_c.value(m), assignment, r_value)
        == central * kvals.get(m, Fraction(0))
        for m in range(depth + 1)
    ) and all(m <= depth for m in acted_c.values)
    return {
        "kind": model.kind.value,
        "q": model.q,
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


# -- symmetric forms: diagonalization and certificate --------------------------


def _sym_apply_reference(q, prec, e11, e12, e21, e22, t11, t12, t22, A):
    # T <- E T E^t, A <- E A, everything truncated mod t^prec
    x1 = padd(q, pmul(q, e11, t11), pmul(q, e12, t12))
    x2 = padd(q, pmul(q, e11, t12), pmul(q, e12, t22))
    y1 = padd(q, pmul(q, e21, t11), pmul(q, e22, t12))
    y2 = padd(q, pmul(q, e21, t12), pmul(q, e22, t22))
    n11 = ptrunc(padd(q, pmul(q, x1, e11), pmul(q, x2, e12)), prec)
    n12 = ptrunc(padd(q, pmul(q, x1, e21), pmul(q, x2, e22)), prec)
    n22 = ptrunc(padd(q, pmul(q, y1, e21), pmul(q, y2, e22)), prec)
    a11, a12, a21, a22 = A
    nA = (
        ptrunc(padd(q, pmul(q, e11, a11), pmul(q, e12, a21)), prec),
        ptrunc(padd(q, pmul(q, e11, a12), pmul(q, e12, a22)), prec),
        ptrunc(padd(q, pmul(q, e21, a11), pmul(q, e22, a21)), prec),
        ptrunc(padd(q, pmul(q, e21, a12), pmul(q, e22, a22)), prec),
    )
    return n11, n12, n22, nA


def sym_diag_reference(q, prec, b11, b12, b22):
    """Diagonalization by generic elementary-matrix updates and exact products."""
    det = psub(q, pmul(q, b11, b22), pmul(q, b12, b12))
    if not det[1] or pval(det) >= prec:
        return None
    one, zero = pconst(q, 1), PZERO
    t11, t12, t22 = ptrunc(b11, prec), ptrunc(b12, prec), ptrunc(b22, prec)
    A = (one, zero, zero, one)
    v11, v12, v22 = pval(t11), pval(t12), pval(t22)
    if v12 < v11 and v12 < v22:
        t11, t12, t22, A = _sym_apply_reference(
            q, prec, one, one, zero, one, t11, t12, t22, A
        )
    if pval(t22) < pval(t11):
        t11, t22 = t22, t11
        A = (A[2], A[3], A[0], A[1])
    vb = pval(t11)
    if t12[1]:
        uinv = pinv_unit(q, pshift(t11, -vb), prec)
        h = ptrunc(pmul(q, pshift(t12, -vb), uinv), prec)
        t11, t12, t22, A = _sym_apply_reference(
            q, prec, one, zero, pneg(q, h), one, t11, t12, t22, A
        )
    va = pval(t22)
    t11, t22 = t22, t11
    A = (A[2], A[3], A[0], A[1])
    eps = pinv_unit(q, pshift(t11, -va), prec)
    w = ptrunc(pshift(pmul(q, t22, eps), -vb), prec)
    return (va, vb, w, A, eps)


# cached for the test session: the width-3 cube and the sweep shards are
# certified by several tests, and every caller still diffs each form
@functools.lru_cache(maxsize=None)
def sym_normal_cert_reference(q, prec, check_prec, b11, b12, b22, ns):
    """The certificate multiplied out exactly, truncated only for the comparison."""
    r = sym_diag_reference(q, prec, b11, b12, b22)
    if r is None:
        return None
    va, vb, w, A, eps = r
    issq = 1 if issquare(q, w[1][0]) else 0
    w0 = 1 if issq else ns
    target = ptrunc(pconstmul(q, pinv_unit(q, w, prec), w0), prec)
    u = psqrt_unit(q, target, prec)
    a11, a12, a21, a22 = A
    a21, a22 = ptrunc(pmul(q, u, a21), prec), ptrunc(pmul(q, u, a22), prec)
    x1 = padd(q, pmul(q, a11, b11), pmul(q, a12, b12))
    x2 = padd(q, pmul(q, a11, b12), pmul(q, a12, b22))
    y1 = padd(q, pmul(q, a21, b11), pmul(q, a22, b12))
    y2 = padd(q, pmul(q, a21, b12), pmul(q, a22, b22))
    m11 = padd(q, pmul(q, x1, a11), pmul(q, x2, a12))
    m12 = padd(q, pmul(q, x1, a21), pmul(q, x2, a22))
    m22 = padd(q, pmul(q, y1, a21), pmul(q, y2, a22))
    ok = 1
    if ptrunc(pmul(q, m11, eps), check_prec) != ptrunc((va, (1,)), check_prec):
        ok = 0
    if ptrunc(pmul(q, m12, eps), check_prec) != PZERO:
        ok = 0
    if ptrunc(pmul(q, m22, eps), check_prec) != ptrunc((vb, (w0,)), check_prec):
        ok = 0
    return (va, vb, issq, ok)


def closed_form_invariant(q, b11, b12, b22):
    """(va, vb, delta) of a nondegenerate symmetric O-matrix, q odd, read off
    its entries alone: vb is the least entry valuation, va = val(det) - vb,
    and delta is the Legendre symbol (+1 or -1) of det's leading coefficient,
    since det(A B A^t eps) is det B times a square.  The determinant is taken
    exactly in dict arithmetic; nothing here routes or pivots."""
    f11, f12, f22 = (dict_from_raw(b) for b in (b11, b12, b22))
    det = dict_add(q, dict_mul(q, f11, f22), dict_mul(q, {0: q - 1}, dict_mul(q, f12, f12)))
    if not det:
        raise ValueError("determinant is zero")
    vb = min(min(f) for f in (f11, f12, f22) if f)
    vdet = min(det)
    delta = 1 if pow(det[vdet], (q - 1) // 2, q) == 1 else -1
    return vdet - vb, vb, delta


def random_poly_raw_reference(rng, q, max_deg, unit=False):
    """The ``quadform-orbits`` planner's random entry, drawn through
    ``randint`` and ``randrange``."""
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randrange(q) for _ in range(deg + 1)]
    if unit:
        coeffs[0] = rng.randrange(1, q)
    return pnorm(q, 0, coeffs)


def plan_module_axiom_reference(cfg):
    """The ``module-axiom`` planner's cells, drawn through ``randint``,
    ``choice`` and ``sample``."""
    from waldq.campaigns import _MODULE_H_POOL, _cell_module_axiom
    from waldq.torus import EtaleKind

    rng = random.Random(cfg.seed)
    kind = EtaleKind.parse(cfg.kind)
    lo, hi = kind.pads
    cells = []
    for i in range(50):
        hrows = []
        for _ in range(2):
            rows = []
            for _ in range(rng.randint(1, 2)):
                a1, a2 = rng.choice(_MODULE_H_POOL)
                c = rng.choice((-2, -1, 1, 2, 3))
                rows.append((a1, a2, c))
            hrows.append(tuple(rows))
        frows = []
        for m in rng.sample(range(4), rng.randint(1, 3)):
            exps = lo + tuple(rng.randint(-1, 2) for _ in kind.variables) + hi
            num = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
            den = rng.randint(1, 3)
            frows.append((m, exps, num, den))
        cells.append(
            (_cell_module_axiom, f"rand-{i:02d}", cfg.q, cfg.kind, hrows[0], hrows[1], tuple(frows))
        )
    return cells


# -- exhaustive form sweep -----------------------------------------------------


def quad_shard_certs(q, shard, width, vmax, prec, check_prec):
    """Per (e12, e22) of one sweep shard, certifying every form first.

    Every form gets ``sym_normal_cert_reference``; the result stands, or None
    where it refuses the form (val(det) >= prec) or its va + vb exceeds vmax.
    """
    ns = least_nonsquare(q)
    polys = [pnorm(q, 0, [c // q**i % q for i in range(width)]) for c in range(q**width)]
    e11 = polys[shard]
    out = []
    for e12 in polys:
        for e22 in polys:
            r = sym_normal_cert_reference(q, prec, check_prec, e11, e12, e22, ns)
            out.append(None if r is None or r[0] + r[1] > vmax else r)
    return out


def quad_exhaustive_counts(q, shard, width, vmax, prec, check_prec):
    """(n_ok, checked, n_skip) of one sweep shard, certifying every form first."""
    certs = quad_shard_certs(q, shard, width, vmax, prec, check_prec)
    n_skip = certs.count(None)
    n_ok = sum(1 for r in certs if r is not None and r[3] and r[0] >= r[1] >= 0)
    return n_ok, len(certs) - n_skip, n_skip
