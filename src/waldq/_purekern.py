"""Raw exact-arithmetic kernels (pure Python).

A *raw* Laurent polynomial over F_q is a pair ``(offset, coeffs)``: ``coeffs``
is a tuple of ints in ``[0, q)`` whose first and last entries are nonzero, and
the pair denotes ``sum(coeffs[i] * t**(offset + i))``.  Zero is ``(0, ())``.

The batch kernels at the bottom (``rel_pos``, ``canon``, ``sublattices``,
``sublattice_rows``, ``sym_diag``, ``sym_normal_cert``) are what
``waldq.backend`` binds by name, and callers reach them through it.
Everything here is exact: no global truncation, and unit inverses are
produced to an explicit finite precision that each caller derives from
valuations.

``pmul`` is the exact product.  ``pdot(q, prec, pairs)`` is the fused one:
the sum of the products of raw pairs, truncated below ``t^prec`` (``INF``
keeps everything) and normalized once.  The form layer (``sym_diag``,
``pivot_certs``, and ``pcongruent``, the product A B A^t eps behind
``quadform.SymMatrixO`` and the ``quadform-orbits`` invariance cells) builds
every product with it.

The form kernels share one route to a diagonal pivot (``route``: e1 += e2,
the swap, or none) and one pivot step that clears slot 12 (``_mh``,
``_t22``, ``_eps_w``); ``sym_diag`` returns its A and eps.
``pivot_certs`` is the one form certificate: ``sym_normal_cert`` runs it on
one form, and the form sweep (``campaigns._shard_certs``) on whole rows.
Both return None when val(det B) >= prec, read off the pivot step (the sweep
skips val(det) > vmax only so, at prec = vmax + 1): route and step have det
+-1 and clear slot 12 mod t^prec, so det B == +-piv t22 mod t^prec, 0
exactly when the pivot (least valuation) is or va + vb >= prec.
"""

from __future__ import annotations

from itertools import product

INF = 1 << 60  # valuation of the zero polynomial
PZERO = (0, ())
PONE = (0, (1,))


def pnorm(q, off, co):
    """Normalize a coefficient list into a raw poly (mod q, trim zero fringes)."""
    co = [c % q for c in co]
    lo, hi = 0, len(co)
    while lo < hi and co[lo] == 0:
        lo += 1
    while hi > lo and co[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return PZERO
    return (off + lo, tuple(co[lo:hi]))


def pval(p):
    return p[0] if p[1] else INF


def pconst(q, c):
    c %= q
    return ((0, (c,)) if c else PZERO)


def pshift(p, k):
    return (p[0] + k, p[1]) if p[1] else PZERO


def padd(q, x, y):
    xo, xc = x
    yo, yc = y
    if not xc:
        return y
    if not yc:
        return x
    off = min(xo, yo)
    acc = [0] * (max(xo + len(xc), yo + len(yc)) - off)
    for i, c in enumerate(xc):
        acc[xo - off + i] = c
    for i, c in enumerate(yc):
        acc[yo - off + i] += c
    return pnorm(q, off, acc)


def pneg(q, x):
    return (x[0], tuple(q - c if c else 0 for c in x[1])) if x[1] else PZERO


def psub(q, x, y):
    return padd(q, x, pneg(q, y))


def pmul(q, x, y):
    xo, xc = x
    yo, yc = y
    if not xc or not yc:
        return PZERO
    acc = [0] * (len(xc) + len(yc) - 1)
    for i, a in enumerate(xc):
        if a:
            for j, b in enumerate(yc):
                acc[i + j] += a * b
    return pnorm(q, xo + yo, acc)


def pdot(q, prec, pairs):
    """Sum of x * y over the raw pairs (x, y), keeping the terms below t^prec.

    ``prec = INF`` keeps every term.  Each product is exact, so operands of
    any valuation are fine; only the sum is truncated.  The accumulator spans
    the exponents the products reach below ``prec``, and the sum is reduced
    mod q and trimmed once, as ``pnorm`` would.
    """
    lo, hi = INF, -INF
    for (xo, xc), (yo, yc) in pairs:
        if xc and yc:
            o = xo + yo
            if o < lo:
                lo = o
            o += len(xc) + len(yc) - 1
            if o > hi:
                hi = o
    if hi > prec:
        hi = prec
    if lo >= hi:
        return PZERO
    n = hi - lo
    acc = [0] * n
    for (xo, xc), (yo, yc) in pairs:
        if not xc or not yc:
            continue
        if len(xc) > len(yc):
            xc, yc = yc, xc
        k = xo + yo - lo
        for a in xc:
            if k >= n:
                break
            if a:
                if k + len(yc) > n:
                    yc = yc[: n - k]
                for j, b in enumerate(yc, k):
                    acc[j] += a * b
            k += 1
    i = 0
    while i < n and not acc[i] % q:
        i += 1
    if i == n:
        return PZERO
    while not acc[n - 1] % q:
        n -= 1
    return (lo + i, tuple([c % q for c in acc[i:n]]))


def pconstmul(q, x, c):
    c %= q
    if not c or not x[1]:
        return PZERO
    return (x[0], tuple(c * a % q for a in x[1]))


def ptrunc(x, k):
    """Drop every term of exponent >= k."""
    xo, xc = x
    if not xc or xo + len(xc) <= k:
        return x
    if xo >= k:
        return PZERO
    co = list(xc[: k - xo])
    while co and co[-1] == 0:
        co.pop()
    return (xo, tuple(co)) if co else PZERO


def pcongruent(q, prec, b11, b12, b22, a11, a12, a21, a22, eps):
    """(m11, m12, m22) of A B A^t eps mod t^prec, A = ((a11, a12), (a21, a22));
    ``INF`` keeps every term.  A finite prec is exact mod t^prec when every
    operand lies in O: a product's terms below t^prec then read only its
    factors mod t^prec, so each partial product may be truncated there."""
    x1 = pdot(q, prec, ((a11, b11), (a12, b12)))
    x2 = pdot(q, prec, ((a11, b12), (a12, b22)))
    y1 = pdot(q, prec, ((a21, b11), (a22, b12)))
    y2 = pdot(q, prec, ((a21, b12), (a22, b22)))
    m11 = pdot(q, prec, ((x1, a11), (x2, a12)))
    m12 = pdot(q, prec, ((x1, a21), (x2, a22)))
    m22 = pdot(q, prec, ((y1, a21), (y2, a22)))
    return tuple(pdot(q, prec, ((m, eps),)) for m in (m11, m12, m22))


def pinv_unit(q, x, prec):
    """Inverse of a valuation-0 unit modulo t^prec (prec >= 1)."""
    xc = x[1]
    u0 = pow(xc[0], q - 2, q)
    out = [u0]
    for n in range(1, prec):
        s = 0
        for i in range(1, min(n + 1, len(xc))):
            s += xc[i] * out[n - i]
        out.append(-u0 * s % q)
    # out[0] is a unit and every digit is reduced: only trailing zeros go
    while not out[-1]:
        out.pop()
    return (0, tuple(out))


def psqrt_unit(q, x, prec):
    """Square root of a valuation-0 unit whose residue is a square, mod t^prec.

    Digit-by-digit Hensel lift; the smaller of the two residue roots is taken
    so the result is deterministic.  The residue must be a nonzero square.
    """
    xc = x[1]
    x0 = xc[0]
    s0 = 0
    for s in range(1, q):
        if s * s % q == x0:
            s0 = min(s, q - s)
            break
    if s0 == 0:
        raise ValueError("residue is not a nonzero square")
    inv2s = pow(2 * s0 % q, q - 2, q)
    out = [s0] + [0] * (prec - 1)
    for n in range(1, prec):
        xn = xc[n] if n < len(xc) else 0
        s = 0
        for i in range(1, n):
            s += out[i] * out[n - i]
        out[n] = (xn - s) * inv2s % q
    return pnorm(q, 0, out)


def issquare(q, r):
    """Is r a nonzero square residue mod the odd prime q?"""
    return r % q != 0 and pow(r, (q - 1) // 2, q) == 1


# ---------------------------------------------------------------------------
# batch kernels (bound by name in waldq.backend)
# ---------------------------------------------------------------------------


def rel_pos(q, a1, b1, c1, a2, b2, c2):
    """Cartan invariant (r1 >= r2) of the transition between canonical triples.

    The triples describe lattices with bases (t^a, 0), (c, t^b); the invariant
    is the pair of elementary-divisor exponents of the transition matrix,
    larger first.
    """
    s = psub(q, pshift(c2, b1), pshift(c1, b2))
    v12 = pval(s) - a1 - b1 if s[1] else INF
    m1 = min(a2 - a1, b2 - b1, v12)
    dd = (a2 + b2) - (a1 + b1)
    return (dd - m1, m1)


def canon(q, p11, p21, p12, p22):
    """Canonical triple (a, b, c) of the lattice spanned by two column vectors.

    Columns are (p11, p21) and (p12, p22).  Returns None when the columns do
    not span a rank-2 lattice.  The pivot column is the one of minimal bottom
    valuation b; with w = (w_top, w_bot) the pivot and u = w_bot * t^-b its
    unit part, c = w_top * u^-1 mod t^a is exact because u^-1 is only needed
    modulo t^(a - val(w_top)).
    """
    det = psub(q, pmul(q, p11, p22), pmul(q, p12, p21))
    if not det[1]:
        return None
    d = pval(det)
    v1, v2 = pval(p21), pval(p22)
    if v2 <= v1:
        w_top, w_bot, b = p12, p22, v2
    else:
        w_top, w_bot, b = p11, p21, v1
    a = d - b
    vt = pval(w_top)
    if vt >= a:
        return (a, b, PZERO)
    uinv = pinv_unit(q, pshift(w_bot, -b), a - vt)
    return (a, b, ptrunc(pmul(q, w_top, uinv), a))


def sublattices(q, a, b, c, n):
    """All colength-n sublattices of the lattice with canonical triple (a,b,c).

    Returns (a2, b2, c2, s) tuples where s = min(alpha, beta, val w) for the
    triangular coordinates (alpha, beta, w) of the sublattice, so its relative
    position in (a, b, c) is (n - s, s).  Exactly sum(q^alpha) tuples, no
    duplicates: the rows of ``sublattice_rows``, in its order.
    """
    return list(sublattice_rows(q, a, b, c, n))


def sublattice_rows(q, a, b, c, n):
    """Yield the rows of ``sublattices`` one at a time, in the same order, so
    that a caller that only counts them holds none."""
    digits = range(q)
    for alpha in range(n + 1):
        beta = n - alpha
        ca, cb, top = a + alpha, b + beta, min(alpha, beta)
        # c2 = w t^a + cs with cs = c t^beta mod t^ca; both lie below t^ca.
        # Product order with each tuple reversed is code order: w_0 = code
        # mod q, then w_1, ...; s = min(top, val w), and v = alpha if w = 0
        cs = ptrunc(pshift(c, beta), ca)
        add = bool(cs[1])
        for t in product(digits, repeat=alpha):
            w = t[::-1]
            v = 0
            while v < alpha and not w[v]:
                v += 1
            if v < alpha:
                h = alpha
                while not w[h - 1]:
                    h -= 1
                c2 = (a + v, w[v:h])
            else:
                c2 = PZERO
            if add:
                c2 = padd(q, c2, cs)
            yield (ca, cb, c2, v if v < top else top)


STAY, SWAP, ADD = range(3)


def route(v11, v12, v22):
    """The move to a diagonal pivot, from the entries' valuations mod t^prec:
    ADD (e1 += e2) when v12 is below both diagonal ones, else SWAP when
    v22 < v11, else STAY.  After ADD, val e11 = v12 < v22 (q is odd)."""
    if v12 < v11 and v12 < v22:
        return ADD
    return SWAP if v22 < v11 else STAY


def _to_pivot(q, prec, b11, b12, b22):
    """The form moved exactly by its ``route``, and the move's rows R."""
    r = route(pval(ptrunc(b11, prec)), pval(ptrunc(b12, prec)), pval(ptrunc(b22, prec)))
    if r == ADD:
        b11 = pdot(q, INF, ((b11, PONE), (b12, pconst(q, 2)), (b22, PONE)))
        return b11, padd(q, b12, b22), b22, (PONE, PONE, PZERO, PONE)
    if r == SWAP:
        return b22, b12, b11, (PZERO, PONE, PONE, PZERO)
    return b11, b12, b22, (PONE, PZERO, PZERO, PONE)


def pivot(q, prec, piv):
    """What every form pivoted on the diagonal entry ``piv`` shares:
    ``(piv, piv mod t^prec, its valuation, the inverse of its unit part mod
    t^prec, a memo for pivot_certs)``."""
    tpiv = ptrunc(piv, prec)
    vb = pval(tpiv)
    return piv, tpiv, vb, pinv_unit(q, pshift(tpiv, -vb), prec), {}


def _mh(q, prec, pv, e12):
    """mh = -e12 / piv mod t^prec: e2 += mh e1 clears slot 12."""
    return pneg(q, pdot(q, prec, ((pshift(ptrunc(e12, prec), -pv[2]), pv[3]),)))


def _t22(s, prec, k):
    """(va, u22) for t22 = s mod t^prec: its valuation, and its unit part mod
    t^k.  s = o + mh e12 is slot 22 after e2 += mh e1, since that slot is
    o + 2 mh e12 + mh^2 piv and mh piv == -e12 mod t^prec.  Callers form s:
    pivot_certs adds its row's mh e12, sym_diag fuses both terms in one pdot."""
    t22 = ptrunc(s, prec)
    va = pval(t22)
    return va, ptrunc(pshift(t22, -va), k)


def _eps_w(q, prec, pv, u22):
    """eps = 1 / u22 mod t^prec, and w with piv eps == t^vb w mod t^(prec + vb)."""
    eps = pinv_unit(q, u22, prec)
    return eps, pshift(pdot(q, prec + pv[2], ((pv[1], eps),)), -pv[2])


def rescale(q, w, w0, k):
    """u = sqrt(w0 / w) mod t^k: scaling row 2 by u turns t^vb w into t^vb w0."""
    return psqrt_unit(q, pconstmul(q, pinv_unit(q, w, k), w0), k)


def sym_diag(q, prec, b11, b12, b22):
    """Diagonalize a symmetric O-matrix under B -> E B E^t, mod t^prec.

    The entries must lie in O (valuation >= 0).  None when val(det) >= prec,
    that is when the pivot is 0 mod t^prec or va + vb >= prec (module
    docstring); else (va, vb, w, A, eps) with va >= vb, A unimodular, eps a
    unit, and A B A^t eps == diag(t^va, t^vb * w) mod t^prec, w a unit
    polynomial.  q must be odd: the route's e1 += e2 relies on 2 != 0.  On
    the entries mod t^prec, A is the route's move, then the pivot step e2 +=
    mh e1, then the swap that puts the larger exponent first.
    """
    p11, p12, p22, (r11, r12, r21, r22) = _to_pivot(
        q, prec, ptrunc(b11, prec), ptrunc(b12, prec), ptrunc(b22, prec)
    )
    if not p11[1]:
        return None  # every entry is 0 mod t^prec; pivot cannot invert it
    pv = pivot(q, prec, p11)
    mh = _mh(q, prec, pv, p12)
    va, u22 = _t22(pdot(q, prec, ((p22, PONE), (mh, p12))), prec, prec)
    if va + pv[2] >= prec:
        return None  # val(det) >= prec
    eps, w = _eps_w(q, prec, pv, u22)
    a21 = padd(q, r21, mh) if r11[1] else r21
    a22 = padd(q, r22, mh) if r12[1] else r22
    return (va, pv[2], w, (a21, a22, r11, r12), eps)


def pivot_certs(q, prec, check_prec, pv, e12, others, ns):
    """``sym_normal_cert(q, prec, check_prec, piv, e12, o, ns)`` for each ``o``
    in ``others``, with ``pv = pivot(q, prec, piv)``.

    Each form [[piv, e12], [e12, o]] has entries in O and ``route`` STAY.  It
    takes ``sym_diag``'s pivot step: ``mh``, the certificate's A = (mh, 1, u,
    0), ``mh e12`` and ``x1 = mh piv + e12`` are fixed by the row.  ``eps``,
    ``w``, ``issq`` and the ``rescale`` u depend only on the unit part of t22
    mod t^k (k = min(prec, check_prec), at least 1), so the pivot's dict
    memoises them.  The check multiplies the exact entries and compares
    A B A^t eps with diag(t^va, t^vb * w0) mod t^check_prec.
    """
    piv, _tpiv, vb, _uinv, memo = pv
    cp = check_prec
    k = max(1, min(prec, cp))
    mh = _mh(q, prec, pv, e12)
    mhe12 = pdot(q, max(prec, cp), ((mh, e12),))
    x1 = pdot(q, cp, ((mh, piv), (e12, PONE)))
    mhx1 = pdot(q, cp, ((x1, mh),))
    out = []
    for o in others:
        s = padd(q, o, mhe12)
        va, key = _t22(s, prec, k)
        if va + vb >= prec:
            out.append(None)  # val(det) >= prec
            continue
        hit = memo.get(key)
        if hit is None:
            eps, w = _eps_w(q, prec, pv, key)
            issq = 1 if issquare(q, w[1][0]) else 0
            w0 = 1 if issq else ns
            hit = memo[key] = (eps, issq, w0, rescale(q, w, w0, k))
        eps, issq, w0, u = hit
        m11 = pdot(q, cp, ((pdot(q, cp, ((mhx1, PONE), (s, PONE))), eps),))
        m12 = pdot(q, cp, ((pdot(q, cp, ((x1, u),)), eps),))
        m22 = pdot(q, cp, ((pdot(q, cp, ((pdot(q, cp, ((u, piv),)), u),)), eps),))
        ok = int(
            m11 == ptrunc((va, (1,)), cp)
            and m12 == PZERO
            and m22 == ptrunc((vb, (w0,)), cp)
        )
        out.append((va, vb, issq, ok))
    return out


def sym_normal_cert(q, prec, check_prec, b11, b12, b22, ns):
    """Transport a symmetric matrix to its literal normal form and verify.

    Returns (va, vb, issq, ok), or None by ``sym_diag``'s rule for val(det)
    >= prec.  The normal form is diag(t^va, t^vb * w0), w0 = 1 for square
    class and ns otherwise; ok reports whether the certificate A, eps gives it
    mod t^check_prec when multiplied out against the original matrix.  The
    exact entries take the shared route, ``pivot_certs`` the shared step.
    """
    p11, p12, p22, _r = _to_pivot(q, prec, b11, b12, b22)
    if pval(p11) >= prec:
        return None  # every entry is 0 mod t^prec
    return pivot_certs(q, prec, check_prec, pivot(q, prec, p11), p12, (p22,), ns)[0]
