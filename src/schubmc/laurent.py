"""Exact multivariate Laurent arithmetic over the weight lattice with y adjoined.

``LaurentPolynomial`` keys each term by one ``int`` packing its exponent
vector and y power, and runs its sums and products on the term loops of
``_kernel_py``; integer order of the keys is the lex term order used for
serialization.  Each polynomial carries an upper bound on |digit|, updated
in O(1) per operation and made exact only when it reaches the packing range,
so a product, quotient or Weyl image whose digits could leave the range
raises OverflowError instead of carrying.  ``FactoredFraction`` keeps
denominators as multisets of binomial factors ``1 - e^mu`` and
``1 + y e^mu``, reduced only by exact division.  ``divide_exact`` is the
kernel's one division, by a monomial or by a binomial with coefficients
+-1 (line sums in one pass over the dividend); it refuses any other divisor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# kernel calls go through ``_impl.<name>``, so that a tracer can wrap them
from . import _kernel_py as _impl
from ._kernel_py import (
    HALF, MASK, WIDTH, digit_offset, digits, pack, product_bound, sorted_digits, unpack, ypow_of,
)

BACKEND = "pure"  # the one kernel; benchmark records report it


def _lp(packed, nvars, bound):
    """Polynomial on packed terms whose digits are at most ``bound`` in size."""
    p = object.__new__(LaurentPolynomial)
    p.packed = packed
    p.nvars = nvars
    p._bound = bound
    p._hash = None
    return p


class LaurentPolynomial:
    """Element of Z[e^{+-weights}][y, y^-1], immutable once built.

    ``packed`` maps packed monomial keys to nonzero coefficients; ``terms``
    is the same polynomial keyed by ``(exponent tuple, y power)``, built on
    each access.
    """

    __slots__ = ("packed", "nvars", "_bound", "_hash")

    def __init__(self, terms, nvars):
        if any(len(e) != nvars for e, _ in terms):
            raise ValueError("rank mismatch")
        self.packed = {pack(e, yp): c for (e, yp), c in terms.items()}
        self.nvars = nvars
        self._hash = None
        self._tighten()

    @property
    def terms(self):
        n = self.nvars
        return {unpack(k, n): c for k, c in self.packed.items()}

    def _tighten(self):
        """Set the digit bound to the largest |digit| of any term, and return it."""
        n = self.nvars + 1
        self._bound = max((abs(d) for k in self.packed for d in digits(k, n)), default=0)
        return self._bound

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return _lp({}, nvars, 0)

    @classmethod
    def const(cls, c, nvars):
        c = int(c)
        if c == 0:
            return cls.zero(nvars)
        return _lp({0: c}, nvars, 0)

    @classmethod
    def monomial(cls, weight, ypow=0, coeff=1):
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

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return _lp(
            _impl.lp_add(self.packed, other.packed), self.nvars, max(self._bound, other._bound)
        )

    def __sub__(self, other):
        other = self._coerce(other)
        return _lp(
            _impl.lp_sub(self.packed, other.packed), self.nvars, max(self._bound, other._bound)
        )

    def __neg__(self):
        return _lp(_impl.lp_neg(self.packed), self.nvars, self._bound)

    def __mul__(self, other):
        if isinstance(other, int):
            return _lp(_impl.lp_scale(self.packed, other), self.nvars, self._bound)
        other = self._coerce(other)
        bound = product_bound(self, other)
        return _lp(_impl.lp_mul(self.packed, other.packed), self.nvars, bound)

    __rmul__ = __mul__
    __radd__ = __add__

    def add_product(self, a, b):
        """self + a * b, the product added into a copy of self's terms by one
        kernel call; a and b are polynomials of the same rank."""
        bound = max(self._bound, product_bound(a, b))
        return _lp(_impl.lp_mul(a.packed, b.packed, dict(self.packed)), self.nvars, bound)

    def y_image(self, bits, off):
        """The image at y = 2^bits over y^off: one integer per x-monomial,
        keyed with y digit 0 (``_kernel_py.kron_pack`` at the lowest digit).
        Every y power is at least off, and every coefficient below
        2^(bits-1) in size."""
        return _lp(_impl.kron_pack(self.packed, 0, bits, off), self.nvars, self._bound)

    def y_decoded(self, bits, off, ybound):
        """The polynomial whose image at y = 2^bits over y^off is self, read in
        balanced digits (``_kernel_py.kron_unpack``); its y powers are at most
        ybound in size."""
        terms = _impl.kron_unpack(self.packed, 0, bits, off)
        return _lp(terms, self.nvars, max(self._bound, ybound))

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("rank mismatch")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.const(other, self.nvars)
        raise TypeError(f"cannot combine LaurentPolynomial with {type(other)!r}")

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.const(other, self.nvars)
        return (
            isinstance(other, LaurentPolynomial)
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.packed.items())))
        return self._hash

    def term_rows(self):
        """(exponents followed by the y power, coefficient) of each term, in
        the canonical order: lex on exponent, then y power, descending."""
        return sorted_digits(self.packed, self.nvars + 1, self.nvars + 1)

    def sorted_terms(self):
        """((exponent tuple, y power), coefficient) pairs in the canonical order."""
        return [((r[:-1], r[-1]), c) for r, c in self.term_rows()]

    # -- queries and maps ------------------------------------------------------

    def y_degree(self):
        if not self.packed:
            return -1
        return max(map(ypow_of, self.packed))

    def y_coefficient(self, power):
        """Coefficient of y^power, as a Laurent polynomial with y power zero."""
        out = {k - power: c for k, c in self.packed.items() if ypow_of(k) == power}
        return _lp(out, self.nvars, self._bound)

    def star(self):
        """The duality e^lam -> e^-lam, fixing y."""
        # key = E + y maps to -E + y
        out = {2 * ypow_of(k) - k: c for k, c in self.packed.items()}
        return _lp(out, self.nvars, self._bound)

    def weyl_map(self, w):
        """Apply a Weyl element to every exponent."""
        if w.rs.rank != self.nvars:
            raise ValueError("rank mismatch")
        moves, norm, off = _weyl_moves(w)
        bound = self._bound * norm
        if bound >= HALF:
            bound = self._tighten() * norm
            if bound >= HALF:
                raise OverflowError("a Weyl image exponent could leave the packing range")
        # w is a bijection on exponents, so no two images coincide
        out = {}
        for k, c in self.packed.items():
            u = k + off
            for shift, d in moves:
                k += ((u >> shift & MASK) - HALF) * d
            out[k] = c
        return _lp(out, self.nvars, bound)

    def y_specialize(self, v):
        """Substitute y -> v (integer), keeping exponents."""
        out = {}
        for k, c in self.packed.items():
            yp = ypow_of(k)
            if yp < 0 and v == 0:
                raise ZeroDivisionError("negative y power at y=0")
            out[k - yp] = out.get(k - yp, 0) + c * (v**yp if yp >= 0 else Fraction(1, v**-yp))
        if any(x.denominator != 1 for x in out.values()):
            raise ValueError("non-integral y specialization")
        return _lp({k: int(x) for k, x in out.items() if x}, self.nvars, self._bound)

    def substitute_nonequivariant(self):
        """Set every e^lam to 1 and collect in y."""
        coeffs = {}
        for k, c in self.packed.items():
            yp = ypow_of(k)
            coeffs[yp] = coeffs.get(yp, 0) + c
        return YPolynomial.from_dict(coeffs)

    def to_json_obj(self):
        return [
            {"exp": list(e), "y": yp, "coeff": str(c)}
            for (e, yp), c in self.sorted_terms()
        ]

    def __repr__(self):
        if not self.packed:
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


@lru_cache(maxsize=256)
def _weyl_moves(w):
    """w on packed keys: key -> key + sum_j d_j pack(w om_j - om_j).

    Returns a ``(shift, packed step)`` pair for each om_j that w moves (d_j is
    the digit at ``shift``), the largest row sum of |w|, which bounds the
    growth of a digit, and the offset that reads digits.
    """
    n = w.rs.rank
    mat = w.mat
    moves = []
    for j in range(n):
        step = [mat[i][j] - (i == j) for i in range(n)]
        if any(step):
            moves.append(((n - j) * WIDTH, pack(step, 0)))
    norm = max(sum(map(abs, row)) for row in mat)
    return tuple(moves), norm, digit_offset(n + 1)


def divide_exact(p, q):
    """Exact quotient p/q, or None when q does not divide p.

    q is a monomial or a binomial with coefficients +-1; any other divisor
    raises ValueError (``_kernel_py.lp_divide_exact``).
    """
    if p.nvars != q.nvars:
        raise ValueError("rank mismatch")
    b = q.packed
    if len(b) == 1:
        # a quotient digit is a digit of p minus one of q
        bound = product_bound(p, q)
    else:
        # A line base k - t*v (see lp_divide_exact) has digits up to
        # |p| (1 + 2|q|); below HALF distinct lines keep distinct keys.
        if (
            p._bound * (1 + 2 * q._bound) >= HALF
            and p._tighten() * (1 + 2 * q._tighten()) >= HALF
        ):
            raise OverflowError("a line of the division could leave the packing range")
        # The Newton polytope of p is that of the quotient plus that of q, so
        # when q has a constant term no quotient digit is larger than p's.
        bound = p._bound if 0 in b else p._bound + q._bound
    res = _impl.lp_divide_exact(p.packed, b, p.nvars)
    if res is None:
        return None
    return _lp(res, p.nvars, bound)


# -- structured fractions ------------------------------------------------------

# denominator factor keys: ("om", mu) is 1 - e^mu, ("opy", mu) is 1 + y e^mu
# interned here, not per root system: every mu is a root, so the table stays small
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
    """The product of the factors with keys ``factors``, 1 for none.

    The product starts from the first factor, so a tuple of k factors costs
    k - 1 kernel products, and one factor is its interned polynomial itself.
    """
    out = None
    for f in factors:
        p = factor_polynomial(f)
        out = p if out is None else out * p
    return LaurentPolynomial.const(1, nvars) if out is None else out


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

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not self:
            return other
        if not other:
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
        """Cancel denominator factors that divide the numerator exactly.

        One pass suffices: a factor that does not divide the numerator does
        not divide any of its quotients either.
        """
        if not self.num:
            return FactoredFraction.zero(self.nvars)
        num = self.num
        remaining = []
        for f in self.den:
            q = divide_exact(num, factor_polynomial(f))
            if q is None:
                remaining.append(f)
            else:
                num = q
        return FactoredFraction(num, remaining)

    def as_polynomial(self):
        """The reduced numerator; raises if a denominator factor survives."""
        red = self.reduce()
        if red.den:
            raise ArithmeticError(f"fraction does not reduce to a polynomial: {red!r}")
        return red.num

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
