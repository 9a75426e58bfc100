"""Scalar coefficient ring for unramified-character bookkeeping.

Values live in Q(sqrt(q))[alpha^±1, beta^±1, gamma^±1]: Laurent monomials in
three formal character variables (alpha, beta for the two uniformizer classes
of the split torus, gamma for the ramified one) with coefficients a + b*r,
where r is a formal square root of q (r*r = q) and a, b are exact rationals.
Nothing is ever evaluated in floating point: ``specialize`` substitutes exact
rationals for the variables, and r survives symbolically unless a value for
it is supplied.

``Rational`` is the stdlib Fraction: exact, hashable, and sufficient.  A
coefficient part stays a plain ``int`` while it is integral and becomes a
Fraction only when it is not, so the integer values that almost every
computation produces cost integer arithmetic; an int and the equal Fraction
compare and hash alike, and both carry ``numerator``/``denominator``.

Products are summed before anything is built: ``_add_terms`` adds
(a + b*r) * x^shift * terms into a dict exps -> [a, b] of plain parts, and
``LaurentScalar._from_sums`` makes one SqrtQ per nonzero sum.  Laurent
products are built this way.  The module action (``WaldModel.act``) and
Hecke convolution take each coefficient product once as raw terms
(``_product_triples``) and add count-scaled, shifted copies of them
(``_add_scaled``, the r-free case of ``_add_terms``), so each of their
coefficients is built once too.
``_specialize_many`` specializes a whole table of values in one pass over
shared power tables and one common denominator; ``specialize`` is its
one-value case.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

Rational = Fraction

VARS = ("alpha", "beta", "gamma")


class NotAMonomial(ValueError):
    """Raised when a single-monomial operation meets a non-monomial."""


class ZeroCoefficient(ValueError):
    """Raised when a monomial is built with coefficient zero."""


class ZeroAssignment(ValueError):
    """Raised when specialize is given 0 for an occurring variable."""


class ResidualSqrtQ(ValueError):
    """Raised when specialize leaves a sqrt(q) term with no value for it."""


def _rational(x):
    """x as a plain int when it is integral, else as a Fraction."""
    x = x if type(x) is Fraction else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class SqrtQ:
    """An element a + b*r of Q(r), r = sqrt(q) formal with r*r = q.

    Immutable.  ``a`` and ``b`` are plain ints while they are integral and
    Fractions otherwise, normalised here in the constructor.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q, a, b=0):
        if type(a) is not int:
            a = _rational(a)
        if type(b) is not int:
            b = _rational(b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtQ is immutable")

    def __reduce__(self):
        return (SqrtQ, (self.q, self.a, self.b))

    @classmethod
    def of(cls, q, a, b=0):
        return cls(q, a, b)

    @classmethod
    def zero(cls, q):
        return cls(q, 0)

    @classmethod
    def one(cls, q):
        return cls(q, 1)

    def _same(self, other):
        if not isinstance(other, SqrtQ) or other.q != self.q:
            raise ValueError("mixed scalar fields")
        return other

    def __add__(self, other):
        o = self._same(other)
        return SqrtQ(self.q, self.a + o.a, self.b + o.b)

    def __sub__(self, other):
        o = self._same(other)
        return SqrtQ(self.q, self.a - o.a, self.b - o.b)

    def __mul__(self, other):
        o = self._same(other)
        a, b, oa, ob = self.a, self.b, o.a, o.b
        if not b:
            return SqrtQ(self.q, a * oa, a * ob)
        return SqrtQ(self.q, a * oa + self.q * b * ob, a * ob + b * oa)

    def __neg__(self):
        return SqrtQ(self.q, -self.a, -self.b)

    def __eq__(self, other):
        if not isinstance(other, SqrtQ):
            return NotImplemented
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __repr__(self):
        return f"SqrtQ(q={self.q!r}, a={Fraction(self.a)!r}, b={Fraction(self.b)!r})"

    def is_zero(self):
        return not self.a and not self.b

    def is_rational(self):
        return not self.b

    def inverse(self):
        # norm a^2 - q b^2 vanishes only at 0 (sqrt(q) is irrational)
        n = Fraction(self.a * self.a - self.q * self.b * self.b)
        if n == 0:
            raise ZeroDivisionError("zero scalar")
        return SqrtQ(self.q, self.a / n, -self.b / n)

    def specialize_r(self, r_value=None) -> Fraction:
        if not self.b:
            return Fraction(self.a)
        if r_value is None:
            raise ResidualSqrtQ("value contains sqrt(q) but no r value was given")
        return self.a + self.b * Fraction(r_value)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*r"
        return f"{self.a} + {self.b}*r"


class LaurentScalar:
    """Exact Laurent 'polynomial' in alpha, beta, gamma over Q(sqrt(q)).

    Stored as a map from exponent triples (ea, eb, eg) in Z^3 to nonzero
    SqrtQ coefficients.  Given as a dict or as (exps, coeff) pairs, terms are
    merged and zeros dropped here in the constructor; ``_from_sums`` takes
    terms already merged as plain sums and only drops the zeros.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=None):
        object.__setattr__(self, "q", q)
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms or ()
        for exps, coeff in items:
            if not isinstance(coeff, SqrtQ):
                coeff = SqrtQ(q, coeff)
            elif coeff.q != q:
                raise ValueError("mixed scalar fields")
            key = (int(exps[0]), int(exps[1]), int(exps[2]))
            prev = clean.get(key)
            clean[key] = coeff if prev is None else prev + coeff
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c.a or c.b})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentScalar is immutable")

    def __reduce__(self):
        return (LaurentScalar, (self.q, self.terms))

    # construction -------------------------------------------------------

    @classmethod
    def zero(cls, q):
        return cls(q)

    @classmethod
    def one(cls, q):
        return cls(q, {(0, 0, 0): SqrtQ.one(q)})

    @classmethod
    def from_fraction(cls, q, x):
        return cls(q, {(0, 0, 0): SqrtQ(q, x)})

    from_int = from_fraction

    @classmethod
    def _from_sums(cls, q, sums):
        """The scalar whose terms are the dict exps -> [a, b] of plain parts.

        The keys are valid exponent triples and the parts ints or Fractions,
        as ``_add_terms`` leaves them, so only the zero sums are dropped here:
        one SqrtQ is built per surviving key, and nothing is merged again.
        """
        x = object.__new__(cls)
        object.__setattr__(x, "q", q)
        object.__setattr__(x, "terms", {k: SqrtQ(q, a, b) for k, (a, b) in sums.items() if a or b})
        return x

    @classmethod
    def monomial(cls, q, exps, coeff=1):
        if not isinstance(coeff, SqrtQ):
            coeff = SqrtQ(q, coeff)
        if coeff.is_zero():
            raise ZeroCoefficient("monomial with zero coefficient")
        return cls(q, {tuple(exps): coeff})

    @classmethod
    def alpha(cls, q):
        return cls.monomial(q, (1, 0, 0))

    @classmethod
    def beta(cls, q):
        return cls.monomial(q, (0, 1, 0))

    @classmethod
    def gamma(cls, q):
        return cls.monomial(q, (0, 0, 1))

    @classmethod
    def r(cls, q):
        return cls(q, {(0, 0, 0): SqrtQ.of(q, 0, 1)})

    # structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def sorted_terms(self):
        return sorted(self.terms.items())

    # arithmetic -----------------------------------------------------------

    def _same(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentScalar.from_fraction(self.q, other)
        if not isinstance(other, LaurentScalar) or other.q != self.q:
            raise ValueError("mixed scalar fields")
        return other

    def __add__(self, other):
        o = self._same(other)
        return LaurentScalar(self.q, [*self.terms.items(), *o.terms.items()])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._same(other))

    def __neg__(self):
        return LaurentScalar(self.q, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = self.q
            return LaurentScalar(
                q, {k: SqrtQ(q, v.a * other, v.b * other) for k, v in self.terms.items()}
            )
        return LaurentScalar._from_sums(self.q, _product_sums(self, self._same(other)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            return monomial_invert(self) ** (-n)
        out = LaurentScalar.one(self.q)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentScalar.from_fraction(self.q, other)
        return (
            isinstance(other, LaurentScalar)
            and self.q == other.q
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.q, tuple(self.sorted_terms())))

    def __repr__(self):
        return f"LaurentScalar(q={self.q}, {self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (ea, eb, eg), coeff in self.sorted_terms():
            factors = []
            for name, e in (("a", ea), ("b", eb), ("g", eg)):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            cs = str(coeff)
            if not factors:
                parts.append(cs if coeff.b == 0 else f"({cs})")
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                cs = cs if coeff.b == 0 and coeff.a >= 0 else f"({cs})"
                parts.append("*".join([cs] + factors))
        return " + ".join(parts)

    # serialization ----------------------------------------------------------

    def to_json(self):
        out = []
        for (ea, eb, eg), c in self.sorted_terms():
            out.append(
                {
                    "ea": ea,
                    "eb": eb,
                    "eg": eg,
                    "num_a": c.a.numerator,
                    "den_a": c.a.denominator,
                    "num_b": c.b.numerator,
                    "den_b": c.b.denominator,
                }
            )
        return out

    @classmethod
    def from_json(cls, q, rows):
        terms = {}
        for row in rows:
            key = (int(row["ea"]), int(row["eb"]), int(row["eg"]))
            terms[key] = SqrtQ(
                q,
                Fraction(int(row["num_a"]), int(row["den_a"])),
                Fraction(int(row["num_b"]), int(row["den_b"])),
            )
        return cls(q, terms)


def _add_terms(sums, q, a, b, shift, triples):
    """Add (a + b*r) * x^shift * triples into ``sums``, a dict exps -> [a, b].

    ``triples`` holds raw terms (exps, ta, tb), each (ta + tb*r) * x^exps.
    The parts are summed as plain ints and Fractions in lists that this
    function creates itself; ``LaurentScalar._from_sums`` builds the result.
    """
    s0, s1, s2 = shift
    get = sums.get
    qb = q * b
    for (e0, e1, e2), ta, tb in triples:
        key = (e0 + s0, e1 + s1, e2 + s2)
        na, nb = a * ta + qb * tb, a * tb + b * ta
        cur = get(key)
        if cur is None:
            sums[key] = [na, nb]
        else:
            cur[0] += na
            cur[1] += nb


def _add_scaled(sums, a, shift, triples):
    """Add a * x^shift * triples into ``sums``, for a rational ``a`` (no r part).

    The sums of ``_add_terms(sums, q, a, 0, shift, triples)``, without
    multiplying the zero r part into every term: on Fraction parts each such
    product and sum is a Fraction operation.  Row counts in ``act`` and
    ``convolve`` take this loop, and so do the r-free terms of a product:
    in the campaigns, which make no r, all of them.
    """
    s0, s1, s2 = shift
    get = sums.get
    for (e0, e1, e2), ta, tb in triples:
        key = (e0 + s0, e1 + s1, e2 + s2)
        cur = get(key)
        if cur is None:
            sums[key] = [a * ta, a * tb]
        else:
            cur[0] += a * ta
            cur[1] += a * tb


def _product_sums(x: LaurentScalar, y: LaurentScalar) -> dict:
    """x * y as a dict exps -> [a, b], in the order x * y meets its terms.

    Sums that cancel to zero are kept; ``_from_sums`` drops them.
    """
    q = x.q
    ys = [(k, c.a, c.b) for k, c in y.terms.items()]
    sums = {}
    for k, c in x.terms.items():
        if c.b:
            _add_terms(sums, q, c.a, c.b, k, ys)
        else:
            _add_scaled(sums, c.a, k, ys)
    return sums


def _product_triples(x: LaurentScalar, y: LaurentScalar) -> list:
    """x * y as raw terms (exps, a, b) for ``_add_terms``, zero sums dropped."""
    return [(k, a, b) for k, (a, b) in _product_sums(x, y).items() if a or b]


def monomial_invert(x: LaurentScalar) -> LaurentScalar:
    """Invert a single Laurent monomial (negate exponents, invert coefficient)."""
    if len(x.terms) != 1:
        raise NotAMonomial(f"{len(x.terms)} terms")
    ((ea, eb, eg), c), = x.terms.items()
    return LaurentScalar(x.q, {(-ea, -eb, -eg): c.inverse()})


def specialize(x: LaurentScalar, assignment, r_value=None) -> Fraction:
    """Evaluate at rational character values.

    ``assignment`` maps variable names ("alpha", "beta", "gamma") to nonzero
    rationals; only variables that occur with nonzero exponent are required.
    ``r_value`` substitutes sqrt(q) when coefficients involve it; if omitted
    and some coefficient has a sqrt(q) part, ResidualSqrtQ is raised.

    This is the one-value case of ``_specialize_many``.
    """
    return _specialize_many((x,), assignment, r_value)[0]


def _specialize_many(xs, assignment, r_value=None) -> list:
    """``specialize`` of each scalar in ``xs``, in one pass.

    The sums share their power tables and their common denominator: with
    v = n/d and the exponents e of v in all of xs running over lo..lo+K,
    each v^e is n^(e-lo) d^(K-e+lo) over the shared d^K (n/d)^(-lo), so the
    terms add as integers (as Fractions only where a coefficient is not
    integral) and one Fraction is built per value at the end.  Errors are
    raised as evaluating the values in order, each term by term in
    ``terms`` order, would meet them.
    """
    vals = {}
    for name, v in (assignment or {}).items():
        if name not in VARS:
            raise ValueError(f"unknown variable {name!r}")
        v = Fraction(v)
        if v == 0:
            raise ZeroAssignment(f"{name} = 0")
        vals[name] = v
    missing = [i for i in range(3) if VARS[i] not in vals]
    products = []
    ends = []
    for x in xs:
        for exps, coeff in x.terms.items():
            products.append(coeff.specialize_r(r_value) if coeff.b else coeff.a)
            for i in missing:
                if exps[i]:
                    raise KeyError(f"no value for {VARS[i]}")
        ends.append(len(products))
    num = den = 1
    if products:
        cols = tuple(zip(*(exps for x in xs for exps in x.terms)))
        for i in range(3):
            col = cols[i]
            lo = min(col)
            span = max(col) - lo
            if not (lo or span):
                continue
            v = vals[VARS[i]]
            n, d = v.numerator, v.denominator
            table = [n**k * d ** (span - k) for k in range(span + 1)]
            products = list(map(mul, products, [table[e - lo] for e in col]))
            if lo >= 0:
                num *= n**lo
                den *= d ** (lo + span)
            else:
                num *= d**-lo
                den *= n**-lo * d**span
    out = []
    start = 0
    for end in ends:
        out.append(Fraction(sum(products[start:end]) * num, den))
        start = end
    return out


def monomial_count(x: LaurentScalar, variables) -> int:
    """Number of distinct exponent patterns in the given variables.

    Projects each term's exponent triple onto ``variables`` (a subset of
    alpha/beta/gamma) and counts distinct projections.
    """
    idx = []
    for name in variables:
        if name not in VARS:
            raise ValueError(f"unknown variable {name!r}")
        idx.append(VARS.index(name))
    seen = {tuple(k[i] for i in idx) for k in x.terms}
    return len(seen)
