"""Exact polynomial and truncated-series arithmetic for the cohomology layers.

``Poly`` is a sparse multivariate polynomial over an exact coefficient ring:
integers for ordinary equivariant cohomology (variables are the simple roots,
with the degree-one formal variable appended last when homogenizing), with a
``Fraction`` only for a value that is not integral, or ``YFrac`` (rationals
in y with powers of 1+y inverted) for the Hirzebruch layer.  Constructors
keep an ``int`` an ``int``, and exact division by an integer polynomial with
coprime coefficients keeps an integral quotient integral (Gauss's lemma).
``GradedSeries`` is a degree-truncated series, the working form of completed
equivariant (co)homology: one ``Poly`` with no term above its cap, the last
degree it knows.  A sum or product keeps the least cap of its operands,
``truncate`` never raises the cap, and ``divide_exact`` lowers it by the
divisor's degree.  A term's degree is its key's lowest digit, so the
homogeneous components (``comps``, ``component``) are views read off the
keys.  The localization sums over fixed points that use these types live in
``cohomology.GKMEngine.localize``.

``Poly`` keys each term by one nonnegative ``int``, packed as the Laurent
kernel packs its keys (``_kernel_py.pack``): the exponents are digits, the
first variable the most significant, and the lowest digit holds the total
degree.  A monomial product is a sum of keys, integer order is the lex order
of the exponent tuples, the degree of a term is ``key & MASK``, and one
subtraction with a guard bit above each digit tests whether one monomial
divides another.  ``Poly.packed`` is the stored dict; ``Poly.terms`` is the
same polynomial keyed by exponent tuples, built on each access.  A product or
quotient step whose degree could reach the digit limit raises
``OverflowError``; no key ever carries into its neighbour.  ``Poly``s of
different numbers of variables do not combine: that raises ``ValueError``.

A ``YFrac`` stores integer numerators over one positive integer denominator
and a power of (1+y), in a single normal form, so its arithmetic is integer
convolution and gcd; ``YFrac.num`` is a ``Fraction`` view of the coefficients.

One ``_lifted_product`` multiplies the terms of ``Poly``s with a ``YFrac``
coefficient and the terms of two series.  It groups each operand by degree
once, so a series product skips every pair of degree blocks above the cap,
and a kept pair whose degree reaches the digit limit raises
``OverflowError``.  With a ``YFrac`` coefficient the product is lifted: each
operand is written once over one denominator D and one (1+y) power K, with
an integer-list numerator per key, every pair of terms is an integer
convolution summed into its output key, and each output coefficient becomes
one ``YFrac``, normalized once.  ``series_combination`` sums series times
integer y-polynomials the same way.  The lifted form lives only inside the
product.  Sums, negatives, scalar multiples and the products of
``int``/``Fraction`` terms run on the Laurent kernel's term loops
(``_kernel_py.lp_add``, ``lp_neg``, ``lp_scale``, ``lp_mul``), which serve
every coefficient type.  ``Poly.divide_exact`` keeps its own leading-term
elimination: its divisors are linear forms and Euler classes, not the
kernel's binomials.  The one-variable Todd-type coefficient lists are
one-variable series, built by ``series_of_linear``, ``inverse`` and ``*``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import add

# kernel calls go through ``_impl.<name>``, so that a tracer can wrap them
from . import _kernel_py as _impl
from ._kernel_py import (
    HALF, MASK, WIDTH, digit_offset, digits, pack, product_bound, sorted_digits,
)


class YFrac:
    """Element of Q[y, (1+y)^-1]: a y-polynomial over a power of (1+y).

    The value is ``(n_0 + n_1 y + ... + n_m y^m) / (d (1+y)^k)`` with integer
    numerators ``n_i`` and one positive integer denominator ``d``.  Each value
    has one form: ``n_m != 0``, ``gcd(n_0, ..., n_m, d) == 1`` and, when
    ``k > 0``, ``1 + y`` does not divide the numerator (zero is ``()``,
    ``d = 1``, ``k = 0``).  ``num`` is a read-only view of the coefficients
    as ``Fraction``s, ``n_i / d``.
    """

    __slots__ = ("_n", "_d", "k")

    def __init__(self, num, k=0):
        num = [c if isinstance(c, int) else Fraction(c) for c in num]
        d = lcm(*(c.denominator for c in num)) if num else 1
        _set(self, [c.numerator * (d // c.denominator) for c in num], d, k)

    @property
    def num(self):
        d = self._d
        return tuple(Fraction(c, d) for c in self._n)

    @classmethod
    def const(cls, c):
        if isinstance(c, int):
            return _make([c], 1, 0)
        c = Fraction(c)
        return _make([c.numerator], c.denominator, 0)

    @classmethod
    def y_power(cls, p, c=1):
        c = Fraction(c)
        return _make([0] * p + [c.numerator], c.denominator, 0)

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = YFrac.const(other)
        return (
            isinstance(other, YFrac)
            and self._n == other._n
            and self._d == other._d
            and self.k == other.k
        )

    def __hash__(self):
        n = self._n
        if self.k == 0 and len(n) <= 1:
            # a constant hashes as the rational number it equals
            return hash(Fraction(n[0], self._d)) if n else 0
        return hash((n, self._d, self.k))

    def __add__(self, other):
        if not isinstance(other, YFrac):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = YFrac.const(other)
        a, b = self._n, other._n
        if not b:
            return self
        if not a:
            return other
        k = self.k
        if k < other.k:
            a, k = _mul_one_plus_y_power(a, other.k - k), other.k
        elif k > other.k:
            b = _mul_one_plus_y_power(b, k - other.k)
        d, db = self._d, other._d
        if d != db:
            g = gcd(d, db)
            ma, mb = db // g, d // g
            d *= ma
            if ma != 1:
                a = [x * ma for x in a]
            if mb != 1:
                b = [x * mb for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return _make(out, d, k)

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple(-c for c in self._n), self._d, self.k)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, YFrac):
            if isinstance(other, int):
                return _make([c * other for c in self._n], self._d, self.k)
            if isinstance(other, Fraction):
                p = other.numerator
                return _make([c * p for c in self._n], self._d * other.denominator, self.k)
            return NotImplemented
        a, b = self._n, other._n
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            out = [x * c for x in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for j, c in enumerate(b):
                if c:
                    for i, x in enumerate(a, j):
                        out[i] += x * c
        return _make(out, self._d * other._d, self.k + other.k)

    __rmul__ = __mul__

    def divide_by_one_plus_y(self, power=1):
        return _make(list(self._n), self._d, self.k + power)

    def inverse(self):
        """Inverse when the numerator is c (1+y)^m; raises otherwise."""
        num = self._n
        m = 0
        while len(num) > 1:
            q = _divide_one_plus_y(num)
            if q is None:
                raise ArithmeticError(f"{self!r} is not invertible in Q[y,(1+y)^-1]")
            num = q
            m += 1
        if not num:
            raise ZeroDivisionError("inverting zero")
        c = num[0]
        d = self._d if c > 0 else -self._d
        return _make(_mul_one_plus_y_power((d,), self.k), abs(c), m)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = 1 / Fraction(other)
            return _make([c * other.numerator for c in self._n], self._d * other.denominator, self.k)
        return self * other.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = YFrac.const(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def cleared(self):
        """True when no (1+y) denominator remains."""
        return self.k == 0

    def evaluate(self, v):
        v = Fraction(v)
        val = sum(c * v**i for i, c in enumerate(self.num))
        if self.k:
            if v == -1:
                raise ZeroDivisionError("pole at y = -1")
            val /= (1 + v) ** self.k
        return val

    def __repr__(self):
        body = " + ".join(f"{c}*y^{i}" if i else str(c) for i, c in enumerate(self.num) if c)
        body = body or "0"
        return f"({body})/(1+y)^{self.k}" if self.k else f"({body})"


def _new(n, d, k):
    out = object.__new__(YFrac)
    out._n, out._d, out.k = n, d, k
    return out


def _set(out, n, d, k):
    """Store n / (d (1+y)^k) in out, brought to the one form (n a list of ints)."""
    while n and not n[-1]:
        n.pop()
    if not n:
        out._n, out._d, out.k = (), 1, 0
        return out
    # 1 + y divides n exactly when n(-1) = 0
    while k > 0 and sum(n[::2]) == sum(n[1::2]):
        n = _divide_one_plus_y(n)
        k -= 1
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = [c // g for c in n]
            d //= g
    out._n, out._d, out.k = tuple(n), d, k
    return out


def _make(n, d, k):
    return _set(object.__new__(YFrac), n, d, k)


_ZERO = _new((), 1, 0)


def _divide_one_plus_y(num):
    """Exact quotient of an integer coefficient list by (1 + y), or None."""
    if not num:
        return []
    out = []
    carry = 0
    for c in num:
        carry = c - carry
        out.append(carry)
    if carry:
        return None
    out.pop()
    return out


def _mul_one_plus_y_power(num, p):
    """The integer coefficient list num times (1 + y)^p."""
    if p == 1:
        return [num[0], *map(add, num[1:], num[:-1]), num[-1]]
    binom = [comb(p, j) for j in range(p + 1)]
    out = [0] * (len(num) + p)
    for i, c in enumerate(num):
        if c:
            for j, b in enumerate(binom, i):
                out[j] += c * b
    return out


# -- lifted products: integer numerators over one denominator -----------------------


def _has_yfrac(*term_dicts):
    return any(YFrac in map(type, terms.values()) for terms in term_dicts)


def _lift(*term_dicts):
    """Write every coefficient of the term dicts over one D (1+y)^K.

    Each dict maps a key to an ``int``, ``Fraction`` or ``YFrac``
    coefficient.  Returns ``D``, ``K`` and the dicts with each coefficient
    replaced by a list of ints n, the coefficient being ``n / (D (1+y)^K)``
    with D the lcm of the denominators and K the largest (1+y) power.
    """
    parts = []
    D, K = 1, 0
    for terms in term_dicts:
        items = []
        for m, c in terms.items():
            if type(c) is YFrac:
                n, d, k = c._n, c._d, c.k
            elif type(c) is int:
                n, d, k = (c,), 1, 0
            else:
                n, d, k = (c.numerator,), c.denominator, 0
            items.append((m, n, d, k))
            D = lcm(D, d)
            if k > K:
                K = k
        parts.append(items)
    out = []
    for items in parts:
        lifted = {}
        for m, n, d, k in items:
            if d != D:
                s = D // d
                n = [x * s for x in n]
            if k != K:
                n = _mul_one_plus_y_power(n, K - k)
            lifted[m] = n
        out.append(lifted)
    return D, K, out


def _width(lifted):
    return max(map(len, lifted.values()), default=1)


def _convolve_into(acc, width, a, b):
    """Add the product of every (key, n) of a and every one of b to acc.

    ``acc`` maps a key to its accumulated numerator, a list of ``width``
    ints; the product of two numerators is their convolution.
    """
    get = acc.get
    b = b.items()
    for ka, na in a.items():
        for kb, nb in b:
            k = ka + kb
            c = get(k)
            if c is None:
                c = acc[k] = [0] * width
            for i, x in enumerate(na):
                if x:
                    for j, z in enumerate(nb, i):
                        c[j] += x * z


def _lower(acc, D, K):
    """{key: n} to {key: n / (D (1+y)^K)}, zeros dropped."""
    out = {}
    for k, n in acc.items():
        c = _make(n, D, K)
        if c:
            out[k] = c
    return out


def _by_degree(terms):
    """A term dict split by degree: {degree: {key: value}}."""
    out = {}
    for k, v in terms.items():
        d = k & MASK
        block = out.get(d)
        if block is None:
            out[d] = {k: v}
        else:
            block[k] = v
    return out


def _lifted_product(a, b, cap):
    """The terms of degree at most cap of the product of two term dicts.

    Each operand is grouped by degree once, and lifted once when a
    coefficient is a ``YFrac``.  Every pair of blocks whose degrees add up to
    at most cap is one pass: integer convolutions, each output coefficient
    normalized once at the end, or else the kernel's product and sum.  A
    kept pair of degree ``HALF`` or more raises ``OverflowError``: its keys
    could carry.
    """
    lifted = _has_yfrac(a, b)
    if lifted:
        Da, Ka, (a,) = _lift(a)
        Db, Kb, (b,) = _lift(b)
        width = _width(a) + _width(b) - 1
    blocks = _by_degree(b).items()
    out = {}
    for da, ta in _by_degree(a).items():
        for db, tb in blocks:
            d = da + db
            if d > cap:
                continue
            if d >= HALF:
                raise OverflowError("a product degree could leave the packing range")
            if lifted:
                _convolve_into(out, width, ta, tb)
            else:
                out = _impl.lp_add(out, _impl.lp_mul(ta, tb))
    return _lower(out, Da * Db, Ka + Kb) if lifted else out


def series_combination(pairs, cap, nvars):
    """sum of s * (n_0 + n_1 y + ...) over (GradedSeries s, int list n) pairs.

    The terms of degree at most cap of all the series are lifted together,
    so that each output coefficient is one integer sum, normalized once.
    """
    D, K, lifted = _lift(*(_truncated(s.poly, cap) for s, _ in pairs))
    width = max(map(_width, lifted), default=1) + max((len(n) for _, n in pairs), default=1) - 1
    out = {}
    for terms, (_, n) in zip(lifted, pairs):
        # 0 is the key of the constant monomial
        _convolve_into(out, width, terms, {0: n})
    return _series(_lower(out, D, K), cap, nvars)


# -- packed monomial keys ---------------------------------------------------------------


def _key(exps, nvars):
    """The packed key of the monomial with exponent tuple exps."""
    if len(exps) != nvars or any(e < 0 for e in exps):
        raise ValueError(f"{exps!r} is not an exponent vector of {nvars} variables")
    return pack(exps, sum(exps))


def _shift(j, nvars):
    """The bit offset of the digit of variable j (the degree digit is at 0)."""
    if not 0 <= j < nvars:
        raise ValueError(f"no variable {j} among {nvars}")
    return WIDTH * (nvars - j)


def _var_key(j, nvars):
    """The key of the variable x_j: a 1 in its digit and in the degree digit."""
    return (1 << _shift(j, nvars)) + 1


def _poly(packed, nvars, bound):
    """Poly on packed terms (nonzero coefficients) of degree at most bound."""
    p = object.__new__(Poly)
    p.packed = packed
    p.nvars = nvars
    p._bound = bound
    return p


def _same_nvars(a, b):
    if a.nvars != b.nvars:
        raise ValueError(f"cannot combine {a.nvars} and {b.nvars} variables")


class Poly:
    """Sparse multivariate polynomial over an exact coefficient ring.

    ``packed`` maps the packed key of each monomial to its nonzero
    coefficient.  The key of x_0^e_0 ... x_{n-1}^e_{n-1} is
    ``_kernel_py.pack((e_0, ..., e_{n-1}), e_0 + ... + e_{n-1})``: the
    Laurent layer's packing, with the total degree in the digit that holds
    the y power there.  Every digit is nonnegative and below ``HALF``, the
    first variable is the most significant, so integer order of the keys is
    the lex order of the exponent tuples, a monomial product is a key sum,
    and the degree is ``key & MASK``.  ``terms`` is the same polynomial keyed
    by exponent tuples, built on each access.  Each ``Poly`` carries an upper
    bound on its degree, its largest digit; a product whose degree could
    reach ``HALF`` raises ``OverflowError`` instead of carrying.
    """

    __slots__ = ("packed", "nvars", "_bound")

    def __init__(self, terms, nvars):
        packed = {}
        for e, c in terms.items():
            k = _key(e, nvars)
            if c:
                packed[k] = c
        self.packed = packed
        self.nvars = nvars
        self._tighten()

    @property
    def terms(self):
        n = self.nvars + 1
        return {tuple(digits(k, n)[:-1]): c for k, c in self.packed.items()}

    def _tighten(self):
        """Set the degree bound to the degree (0 for zero), and return it."""
        self._bound = max(map(MASK.__and__, self.packed), default=0)
        return self._bound

    @classmethod
    def zero(cls, nvars):
        return _poly({}, nvars, 0)

    @classmethod
    def const(cls, c, nvars):
        return _poly({0: c} if c else {}, nvars, 0)

    @classmethod
    def variable(cls, j, nvars, coeff=1):
        return _poly({_var_key(j, nvars): coeff} if coeff else {}, nvars, 1)

    @classmethod
    def linear(cls, coeffs):
        nvars = len(coeffs)
        return _poly({_var_key(j, nvars): c for j, c in enumerate(coeffs) if c}, nvars, 1)

    def __bool__(self):
        return bool(self.packed)

    def _coerce(self, other):
        if isinstance(other, Poly):
            _same_nvars(self, other)
            return other
        if isinstance(other, (int, Fraction, YFrac)):
            return Poly.const(other, self.nvars)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self.packed == other.packed

    def __hash__(self):
        packed = self.packed
        if not packed:
            return 0
        if len(packed) == 1 and 0 in packed:
            # a constant hashes as the coefficient it equals
            return hash(packed[0])
        return hash((self.nvars, frozenset(packed.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly(
            _impl.lp_add(self.packed, other.packed), self.nvars, max(self._bound, other._bound)
        )

    __radd__ = __add__

    def __neg__(self):
        return _poly(_impl.lp_neg(self.packed), self.nvars, self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            return _poly(_impl.lp_scale(self.packed, other), self.nvars, self._bound)
        if not isinstance(other, Poly):
            return NotImplemented
        _same_nvars(self, other)
        a, b = self.packed, other.packed
        bound = product_bound(self, other)
        if _has_yfrac(a, b):
            return _poly(_lifted_product(a, b, bound), self.nvars, bound)
        return _poly(_impl.lp_mul(a, b), self.nvars, bound)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def map_coefficients(self, fn):
        out = {}
        for k, v in self.packed.items():
            c = fn(v)
            if c:
                out[k] = c
        return _poly(out, self.nvars, self._bound)

    def degree(self):
        return max(map(MASK.__and__, self.packed), default=-1)

    def homogeneous_component(self, d):
        return _poly({k: v for k, v in self.packed.items() if k & MASK == d}, self.nvars, d)

    def homogeneous_split(self):
        return {d: _poly(t, self.nvars, d) for d, t in sorted(_by_degree(self.packed).items())}

    def is_homogeneous(self, d=None):
        degs = set(map(MASK.__and__, self.packed))
        if not degs:
            return True
        return len(degs) == 1 and (d is None or degs == {d})

    def evaluate(self, values):
        total = None
        for k, v in self.terms.items():
            term = v
            for x, e in zip(values, k):
                for _ in range(e):
                    term = term * x
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def set_variable(self, j, value):
        """Substitute a constant for variable j."""
        shift = _shift(j, self.nvars)
        out = {}
        for k, v in self.packed.items():
            e = (k >> shift) & MASK
            if e:
                v = v * value**e
                k -= (e << shift) + e
            prev = out.get(k)
            c = v if prev is None else prev + v
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return _poly(out, self.nvars, self._bound)

    def drop_last_variable(self):
        """Forget the final variable (which must not occur)."""
        if not self.nvars:
            raise ValueError("no variable to drop")
        out = {}
        for k, v in self.packed.items():
            if (k >> WIDTH) & MASK:
                raise ValueError("last variable still occurs")
            out[(k >> 2 * WIDTH << WIDTH) + (k & MASK)] = v
        return _poly(out, self.nvars - 1, self._bound)

    def substitute_linear(self, images):
        """Substitute variable j -> images[j] (a Poly), ring homomorphism."""
        if len(images) != self.nvars:
            raise ValueError(f"{len(images)} images for {self.nvars} variables")
        out = Poly.zero(images[0].nvars if images else self.nvars)
        n = self.nvars + 1
        for k, v in self.packed.items():
            term = Poly.const(v, out.nvars)
            for j, e in enumerate(digits(k, n)[:-1]):
                for _ in range(e):
                    term = term * images[j]
            out = out + term
        return out

    def divide_exact(self, q):
        """Exact quotient self/q over the coefficient ring, else None.

        Lex leading-term elimination on the keys.  The leading exponent of
        the remainder is divisible by that of q exactly when no digit of
        their difference borrows, which a guard bit above each digit tests
        in one subtraction.  A quotient step whose ``int`` coefficient the
        divisor's ``int`` leading coefficient divides stays an ``int``
        (always, for a primitive divisor of an integral multiple); any other
        step multiplies by the exact inverse of that leading coefficient.
        """
        _same_nvars(self, q)
        if not q.packed:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.packed:
            return Poly.zero(self.nvars)
        rem = dict(self.packed)
        lead_q = max(q.packed)
        cq = q.packed[lead_q]
        try:
            inv = cq.inverse() if isinstance(cq, YFrac) else Fraction(1) / cq
        except ArithmeticError:
            return None
        integral = type(cq) is int
        # the leading term of the remainder cancels exactly at each step
        tail = [(k, -c) for k, c in q.packed.items() if k != lead_q]
        guard = digit_offset(self.nvars + 1)
        room = HALF - q._tighten()
        get = rem.get
        quot = {}
        while rem:
            lead_r = max(rem)
            if ((lead_r | guard) - lead_q) & guard != guard:
                return None
            r = rem.pop(lead_r)
            if integral and type(r) is int and not r % cq:
                qc = r // cq
            else:
                qc = inv * r
            qk = lead_r - lead_q
            if qk & MASK >= room:
                raise OverflowError("a remainder degree could leave the packing range")
            quot[qk] = qc
            for bk, bc in tail:
                k = qk + bk
                c = get(k)
                c = qc * bc if c is None else c + qc * bc
                if c:
                    rem[k] = c
                else:
                    del rem[k]
        return _poly(quot, self.nvars, self._bound)

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in descending lex order."""
        return list(sorted_digits(self.packed, self.nvars + 1, self.nvars))

    def __repr__(self):
        if not self.packed:
            return "0"
        bits = []
        for e, v in self.sorted_terms():
            mono = "*".join(f"x{j}^{x}" if x > 1 else f"x{j}" for j, x in enumerate(e) if x)
            bits.append(f"{v}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _truncated(poly, cap):
    """The packed terms of poly of degree at most cap (its own dict when all are)."""
    if poly._bound <= cap or poly._tighten() <= cap:
        return poly.packed
    return {k: c for k, c in poly.packed.items() if k & MASK <= cap}


def _series(packed, cap, nvars):
    """GradedSeries on packed terms (nonzero coefficients) of degree at most cap."""
    s = object.__new__(GradedSeries)
    s.poly = _poly(packed, nvars, max(cap, 0))
    s.cap = cap
    return s


class GradedSeries:
    """Degree-truncated series: one ``Poly`` with no term above ``cap``.

    A term's degree is its key's lowest digit, so the homogeneous components
    are views: ``comps`` maps each degree of a nonzero component to it, and
    ``component(d)`` is one of them.  A ``Poly`` operand of a sum or product
    is the series of its terms up to this series' cap.
    """

    __slots__ = ("poly", "cap")

    def __init__(self, comps, cap, nvars):
        """The series of the homogeneous components ``comps`` ({degree: Poly})."""
        packed = {}
        for p in comps.values():
            packed.update(_truncated(p, cap))
        self.poly = _poly(packed, nvars, max(cap, 0))
        self.cap = cap

    @classmethod
    def zero(cls, cap, nvars):
        return _series({}, cap, nvars)

    @classmethod
    def const(cls, c, cap, nvars):
        return cls.from_poly(Poly.const(c, nvars), cap)

    @classmethod
    def from_poly(cls, poly, cap):
        return _series(_truncated(poly, cap), cap, poly.nvars)

    @property
    def nvars(self):
        return self.poly.nvars

    @property
    def comps(self):
        """{degree: Poly} of the nonzero homogeneous components, by degree."""
        return self.poly.homogeneous_split()

    def __bool__(self):
        return bool(self.poly)

    def component(self, d):
        return self.poly.homogeneous_component(d)

    def truncate(self, cap):
        """The series below ``min(cap, self.cap)``: a series never claims a
        degree it does not know."""
        return GradedSeries.from_poly(self.poly, min(cap, self.cap))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            return GradedSeries.const(other, self.cap, self.nvars)
        if isinstance(other, Poly):
            other = GradedSeries.from_poly(other, self.cap)
        elif not isinstance(other, GradedSeries):
            return None
        _same_nvars(self, other)
        return other

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        cap = min(self.cap, other.cap)
        return self.truncate(cap).poly == other.truncate(cap).poly

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GradedSeries.from_poly(self.poly + other.poly, min(self.cap, other.cap))

    __radd__ = __add__

    def __neg__(self):
        return _series(_impl.lp_neg(self.poly.packed), self.cap, self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            return _series(_impl.lp_scale(self.poly.packed, other), self.cap, self.nvars)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cap = min(self.cap, other.cap)
        return _series(_lifted_product(self.poly.packed, other.poly.packed, cap), cap, self.nvars)

    __rmul__ = __mul__

    def inverse(self):
        """Series inverse; the constant term must be an invertible coefficient."""
        c = self.poly.packed.get(0)
        if c is None:
            raise ArithmeticError("constant term is not a unit")
        cinv = c.inverse() if isinstance(c, YFrac) else Fraction(1) / c
        minus_g = -((self * cinv) - GradedSeries.const(1, self.cap, self.nvars))
        acc = GradedSeries.const(1, self.cap, self.nvars)
        power = GradedSeries.const(1, self.cap, self.nvars)
        for _ in range(self.cap):
            power = power * minus_g
            if not power:
                break
            acc = acc + power
        return acc * cinv

    def divide_exact(self, q):
        """Exact quotient self/q by a homogeneous polynomial, else None.

        The contract of ``Poly.divide_exact``; the quotient's cap is lowered
        by the degree of q.
        """
        if not q.is_homogeneous():
            raise ValueError("divisor must be homogeneous")
        r = self.poly.divide_exact(q)
        if r is None:
            return None
        return _series(r.packed, self.cap - q.degree(), self.nvars)

    def scale_degrees(self, factor):
        """Each term of degree d times ``factor(d)``."""
        factors = {}
        out = {}
        for k, c in self.poly.packed.items():
            d = k & MASK
            f = factors.get(d)
            if f is None:
                f = factors[d] = factor(d)
            c = c * f
            if c:
                out[k] = c
        return _series(out, self.cap, self.nvars)

    def __repr__(self):
        return "Series{" + ", ".join(f"{d}: {p!r}" for d, p in self.comps.items()) + f"}}@{self.cap}"


def series_of_linear(coeff_list, linear, cap):
    """sum_k c_k L^k as a graded series, for a homogeneous linear L."""
    packed = {}
    power = Poly.const(Fraction(1), linear.nvars)
    for k, c in enumerate(coeff_list[: cap + 1]):
        if k:
            power = power * linear
        # L^k is homogeneous of degree k, so the terms of distinct k never meet
        packed.update((power * c).packed)
    return _series(packed, cap, linear.nvars)


def exp_linear(linear, cap, coeff_one=None):
    """Truncated exponential of a homogeneous linear polynomial."""
    one = Fraction(1) if coeff_one is None else coeff_one
    return series_of_linear([one / factorial(k) for k in range(cap + 1)], linear, cap)


def _todd_of(linear, cap):
    """-L / (1 - e^L) for a linear form L in one variable."""
    coeffs = [YFrac.const(Fraction(1, factorial(k + 1))) for k in range(cap + 1)]
    return series_of_linear(coeffs, linear, cap).inverse()


def _hirzebruch_of(linear, cap):
    """(1 + y e^L) (-L) / (1 - e^L) for a linear form L in one variable."""
    return (exp_linear(linear, cap, YFrac.y_power(1)) + 1) * _todd_of(linear, cap)


def _coefficients(series):
    """The coefficients of a one-variable series, from degree 0 to its cap."""
    packed = series.poly.packed
    return [packed.get(_key((k,), 1), _ZERO) for k in range(series.cap + 1)]


def todd_coefficients(cap):
    """Coefficients of x/(1 - e^-x) as a univariate series."""
    return _coefficients(_todd_of(-Poly.variable(0, 1), cap))


def unnormalized_hirzebruch_coefficients(cap):
    """Coefficients of x (1 + y e^-x) / (1 - e^-x)."""
    return _coefficients(_hirzebruch_of(-Poly.variable(0, 1), cap))


def normalized_hirzebruch_coefficients(cap):
    """Coefficients of x (1 + y e^{-x(1+y)}) / (1 - e^{-x(1+y)})."""
    linear = Poly.variable(0, 1, YFrac([-1, -1]))
    return _coefficients(_hirzebruch_of(linear, cap) * YFrac([1], 1))
