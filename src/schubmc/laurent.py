"""Exact multivariate Laurent arithmetic over the weight lattice with y adjoined.

``LaurentPolynomial`` stores terms as ``(exponent tuple, y power) -> int``
with arbitrary-precision coefficients and a canonical lex term order for
serialization.  ``FactoredFraction`` keeps denominators as multisets of
binomial factors ``1 - e^mu`` and ``1 + y e^mu``, reduced only by exact
division.  The hot term arithmetic lives in a swappable kernel: a compiled
Cython module when available, with a pure-Python fallback.
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import _kernel_py

_BACKENDS = {"pure": _kernel_py}
try:  # compiled kernel is optional
    from . import _kernel_cy

    _BACKENDS["cython"] = _kernel_cy
except ImportError:  # pragma: no cover - depends on the build
    _kernel_cy = None

if os.environ.get("SCHUBMC_BACKEND", "").lower() == "pure" or "cython" not in _BACKENDS:
    _impl = _BACKENDS["pure"]
    BACKEND = "pure"
else:
    _impl = _BACKENDS["cython"]
    BACKEND = "cython"


def available_backends():
    return tuple(sorted(_BACKENDS))


def use_backend(name):
    """Swap the term-arithmetic kernel (benchmarking hook, not thread safe)."""
    global _impl, BACKEND
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; have {available_backends()}")
    _impl = _BACKENDS[name]
    BACKEND = name


class LaurentPolynomial:
    """Element of Z[e^{+-weights}][y, y^-1], immutable once built."""

    __slots__ = ("terms", "nvars", "_hash")

    def __init__(self, terms, nvars):
        self.terms = terms
        self.nvars = nvars
        self._hash = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls({}, nvars)

    @classmethod
    def const(cls, c, nvars):
        c = int(c)
        if c == 0:
            return cls.zero(nvars)
        return cls({((0,) * nvars, 0): c}, nvars)

    @classmethod
    def monomial(cls, weight, ypow=0, coeff=1, *, nvars=None):
        weight = tuple(weight)
        if coeff == 0:
            return cls.zero(len(weight))
        return cls({(weight, int(ypow)): int(coeff)}, len(weight))

    @classmethod
    def e(cls, weight):
        return cls.monomial(weight)

    @classmethod
    def y(cls, nvars, power=1):
        return cls({((0,) * nvars, int(power)): 1}, nvars)

    def one_like(self):
        return LaurentPolynomial.const(1, self.nvars)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return LaurentPolynomial(_impl.lp_add(self.terms, other.terms), self.nvars)

    def __sub__(self, other):
        other = self._coerce(other)
        return LaurentPolynomial(
            _impl.lp_add(self.terms, _impl.lp_neg(other.terms)), self.nvars
        )

    def __neg__(self):
        return LaurentPolynomial(_impl.lp_neg(self.terms), self.nvars)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial(_impl.lp_scale(self.terms, other), self.nvars)
        other = self._coerce(other)
        return LaurentPolynomial(_impl.lp_mul(self.terms, other.terms), self.nvars)

    __rmul__ = __mul__
    __radd__ = __add__

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("rank mismatch")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.const(other, self.nvars)
        raise TypeError(f"cannot combine LaurentPolynomial with {type(other)!r}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(other, self.nvars)
        return (
            isinstance(other, LaurentPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(self.sorted_terms())))
        return self._hash

    def sorted_terms(self):
        """Canonical order: lex on exponent, then y power, descending."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -- queries and maps ------------------------------------------------------

    def is_term(self):
        return len(self.terms) == 1

    def y_degree(self):
        if not self.terms:
            return -1
        return max(k[1] for k in self.terms)

    def y_coefficient(self, power):
        """Coefficient of y^power, as a Laurent polynomial with y power zero."""
        out = {(e, 0): c for (e, yp), c in self.terms.items() if yp == power}
        return LaurentPolynomial(out, self.nvars)

    def star(self):
        """The duality e^lam -> e^-lam, fixing y."""
        out = {(tuple(-x for x in e), yp): c for (e, yp), c in self.terms.items()}
        return LaurentPolynomial(out, self.nvars)

    def weyl_map(self, w):
        """Apply a Weyl element to every exponent."""
        out = {}
        for (e, yp), c in self.terms.items():
            k = (w.act(e), yp)
            out[k] = out.get(k, 0) + c
        return LaurentPolynomial({k: v for k, v in out.items() if v}, self.nvars)

    def y_specialize(self, v):
        """Substitute y -> v (integer), keeping exponents."""
        out = {}
        for (e, yp), c in self.terms.items():
            if yp < 0 and v == 0:
                raise ZeroDivisionError("negative y power at y=0")
            k = (e, 0)
            val = c * (v**yp if yp >= 0 else Fraction(1, v**-yp))
            out[k] = out.get(k, 0) + val
        for k, v2 in out.items():
            if v2 and isinstance(v2, Fraction):
                if v2.denominator != 1:
                    raise ValueError("non-integral y specialization")
                out[k] = int(v2)
        return LaurentPolynomial({k: int(v2) for k, v2 in out.items() if v2}, self.nvars)

    def substitute_nonequivariant(self):
        """Set every e^lam to 1 and collect in y."""
        coeffs = {}
        for (_, yp), c in self.terms.items():
            coeffs[yp] = coeffs.get(yp, 0) + c
        return YPolynomial.from_dict(coeffs)

    def to_json_obj(self):
        return [
            {"exp": list(e), "y": yp, "coeff": str(c)}
            for (e, yp), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj, nvars):
        terms = {}
        for t in obj:
            terms[(tuple(t["exp"]), int(t["y"]))] = int(t["coeff"])
        return cls({k: v for k, v in terms.items() if v}, nvars)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, yp), c in self.sorted_terms():
            part = str(c)
            if any(e):
                part += "*e" + str(list(e))
            if yp:
                part += f"*y^{yp}" if yp != 1 else "*y"
            bits.append(part)
        return " + ".join(bits)


def divide_exact(p, q):
    """Exact quotient p/q, or None when q does not divide p."""
    if p.nvars != q.nvars:
        raise ValueError("rank mismatch")
    res = _impl.lp_divide_exact(p.terms, q.terms)
    if res is None:
        return None
    return LaurentPolynomial(res, p.nvars)


# -- structured fractions ------------------------------------------------------

# denominator factor keys: ("om", mu) is 1 - e^mu, ("opy", mu) is 1 + y e^mu
_FACTOR_CACHE = {}


def factor_polynomial(key):
    kind, mu = key
    cached = _FACTOR_CACHE.get(key)
    if cached is not None:
        return cached
    n = len(mu)
    if kind == "om":
        if not any(mu):
            raise ZeroDivisionError("1 - e^0 is the zero factor")
        p = LaurentPolynomial({((0,) * n, 0): 1, (tuple(mu), 0): -1}, n)
    elif kind == "opy":
        p = LaurentPolynomial({((0,) * n, 0): 1, (tuple(mu), 1): 1}, n)
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    _FACTOR_CACHE[key] = p
    return p


def one_minus_e(mu):
    return ("om", tuple(mu))


def one_plus_ye(mu):
    return ("opy", tuple(mu))


def product_of_factors(factors, nvars):
    out = LaurentPolynomial.const(1, nvars)
    for f in factors:
        out = out * factor_polynomial(f)
    return out


class FactoredFraction:
    """Laurent polynomial over a multiset of binomial denominator factors."""

    __slots__ = ("num", "den", "nvars")

    def __init__(self, num, den=()):
        self.num = num
        self.den = tuple(sorted(den))
        self.nvars = num.nvars

    @classmethod
    def zero(cls, nvars):
        return cls(LaurentPolynomial.zero(nvars))

    @classmethod
    def from_int(cls, c, nvars):
        return cls(LaurentPolynomial.const(c, nvars))

    @classmethod
    def inverse_of_factors(cls, factors, nvars):
        return cls(LaurentPolynomial.const(1, nvars), factors)

    def is_zero(self):
        return not self.num.terms

    def __add__(self, other):
        if other == 0:
            return self
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        common = _multiset_intersection(self.den, other.den)
        extra_self = _multiset_difference(other.den, common)
        extra_other = _multiset_difference(self.den, common)
        num = self.num * product_of_factors(extra_self, self.nvars) + other.num * product_of_factors(
            extra_other, self.nvars
        )
        return FactoredFraction(num, common + extra_self + extra_other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FactoredFraction(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPolynomial)):
            return FactoredFraction(self.num * other, self.den)
        return FactoredFraction(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def scale_monomial(self, weight, ypow=0, coeff=1):
        return self * LaurentPolynomial.monomial(weight, ypow, coeff)

    def divide_by_factors(self, factors):
        return FactoredFraction(self.num, self.den + tuple(factors))

    def reduce(self):
        """Cancel denominator factors that divide the numerator exactly."""
        if not self.num.terms:
            return FactoredFraction.zero(self.nvars)
        num = self.num
        remaining = []
        pending = list(self.den)
        progress = True
        while pending and progress and num.terms:
            progress = False
            still = []
            for f in pending:
                q = divide_exact(num, factor_polynomial(f))
                if q is None:
                    still.append(f)
                else:
                    num = q
                    progress = True
            pending = still
        remaining = pending
        return FactoredFraction(num, remaining)

    def as_polynomial(self):
        """The reduced numerator; raises if a denominator factor survives."""
        red = self.reduce()
        if red.den:
            raise ArithmeticError(f"fraction does not reduce to a polynomial: {red!r}")
        return red.num

    def try_polynomial(self):
        red = self.reduce()
        return None if red.den else red.num

    def __eq__(self, other):
        if isinstance(other, int):
            other = FactoredFraction.from_int(other, self.nvars)
        elif isinstance(other, LaurentPolynomial):
            other = FactoredFraction(other)
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        common = _multiset_intersection(self.den, other.den)
        left = self.num * product_of_factors(_multiset_difference(other.den, common), self.nvars)
        right = other.num * product_of_factors(_multiset_difference(self.den, common), self.nvars)
        return left == right

    def __hash__(self):
        raise TypeError("FactoredFraction is unhashable; compare with ==")

    def star(self):
        return FactoredFraction(
            self.num.star(), tuple((k, tuple(-x for x in mu)) for k, mu in self.den)
        )

    def weyl_map(self, w):
        return FactoredFraction(
            self.num.weyl_map(w), tuple((k, w.act(mu)) for k, mu in self.den)
        )

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        return f"({self.num!r}) / {list(self.den)!r}"


def _multiset_intersection(a, b):
    ca, cb = dict(), dict()
    for x in a:
        ca[x] = ca.get(x, 0) + 1
    for x in b:
        cb[x] = cb.get(x, 0) + 1
    out = []
    for x, n in ca.items():
        out.extend([x] * min(n, cb.get(x, 0)))
    return tuple(sorted(out))


def _multiset_difference(a, b):
    counts = {}
    for x in b:
        counts[x] = counts.get(x, 0) + 1
    out = []
    for x in a:
        if counts.get(x, 0) > 0:
            counts[x] -= 1
        else:
            out.append(x)
    return tuple(sorted(out))


# -- univariate coefficient sequences -------------------------------------------


class YPolynomial:
    """Integer (or rational) coefficient sequence in one variable."""

    __slots__ = ("coeffs", "offset")

    def __init__(self, coeffs, offset=0):
        # trim leading/trailing zeros; offset is the valuation (can be negative)
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        shift = 0
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            shift += 1
        self.coeffs = tuple(coeffs)
        self.offset = offset + shift if coeffs else 0

    @classmethod
    def from_dict(cls, d):
        d = {k: v for k, v in d.items() if v}
        if not d:
            return cls(())
        lo, hi = min(d), max(d)
        return cls([d.get(i, 0) for i in range(lo, hi + 1)], lo)

    def to_dict(self):
        return {self.offset + i: c for i, c in enumerate(self.coeffs) if c}

    def degree(self):
        return self.offset + len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = YPolynomial([other])
        return (
            isinstance(other, YPolynomial)
            and self.coeffs == other.coeffs
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.coeffs, self.offset))

    def __add__(self, other):
        d = self.to_dict()
        for k, v in other.to_dict().items():
            d[k] = d.get(k, 0) + v
        return YPolynomial.from_dict(d)

    def __neg__(self):
        return YPolynomial([-c for c in self.coeffs], self.offset)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return YPolynomial([c * other for c in self.coeffs], self.offset)
        d = {}
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                k = self.offset + other.offset + i + j
                d[k] = d.get(k, 0) + a * b
        return YPolynomial.from_dict(d)

    __rmul__ = __mul__

    def evaluate(self, v):
        return sum(c * Fraction(v) ** (self.offset + i) for i, c in enumerate(self.coeffs))

    def to_laurent(self, nvars):
        zero = (0,) * nvars
        return LaurentPolynomial(
            {(zero, self.offset + i): c for i, c in enumerate(self.coeffs) if c}, nvars
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            p = self.offset + i
            if p == 0:
                bits.append(str(c))
            elif p == 1:
                bits.append(f"{c}*y")
            else:
                bits.append(f"{c}*y^{p}")
        return " + ".join(bits)


def has_internal_zeros(p):
    """True when a zero coefficient sits strictly inside the support."""
    return any(c == 0 for c in p.coeffs)


def check_unimodal(p):
    """Single rise-then-fall profile of the coefficient sequence."""
    c = p.coeffs
    if len(c) <= 1:
        return True
    i = 0
    while i + 1 < len(c) and c[i] <= c[i + 1]:
        i += 1
    while i + 1 < len(c) and c[i] >= c[i + 1]:
        i += 1
    return i == len(c) - 1


def check_log_concave(p):
    """a_i^2 >= a_{i-1} a_{i+1} for every interior index."""
    c = p.coeffs
    return all(c[i] * c[i] >= c[i - 1] * c[i + 1] for i in range(1, len(c) - 1))
