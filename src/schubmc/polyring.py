"""Exact polynomial and truncated-series arithmetic for the cohomology layers.

``Poly`` is a sparse multivariate polynomial over an exact coefficient ring:
integers for ordinary equivariant cohomology (variables are the simple roots,
with the degree-one formal variable appended last when homogenizing), with a
``Fraction`` only for a value that is not integral, or ``YFrac`` (rationals
in y with powers of 1+y inverted) for the Hirzebruch layer.  Constructors
keep an ``int`` an ``int``, and exact division by an integer polynomial with
coprime coefficients keeps an integral quotient integral (Gauss's lemma).
``GradedSeries`` is a degree-truncated series with homogeneous components,
the working form of completed equivariant (co)homology.  Its cap is the last
degree it knows: a sum or product keeps the least cap of its operands,
``truncate`` never raises the cap, and ``divide_exact`` lowers it by the
divisor's degree.  The localization sums over fixed points that use these
types live in ``cohomology.GKMEngine.localize``.

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

A product of ``Poly``s or ``GradedSeries`` with a ``YFrac`` coefficient is
lifted: each operand is written once over one denominator D and one (1+y)
power K, with an integer-list numerator per key, every pair of terms (of
every pair of degrees, for a series) is an integer convolution summed into
its output key, and each output coefficient becomes one ``YFrac``,
normalized once.  ``series_combination`` sums series times integer
y-polynomials the same way.  The lifted form lives only inside the product.
Sums, negatives, scalar multiples and the products of ``int``/``Fraction``
polynomials run on the Laurent kernel's term loops (``_kernel_py.lp_add``,
``lp_neg``, ``lp_scale``, ``lp_mul``), which serve every coefficient type.
``Poly.divide_exact`` keeps its own leading-term elimination: its divisors
are linear forms and Euler classes, not the kernel's binomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add

# kernel calls go through ``_impl.<name>``, so that a tracer can wrap them
from . import _kernel_py as _impl
from ._kernel_py import HALF, MASK, WIDTH, digit_offset, digits, pack, product_bound


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


def _lift(blocks):
    """Write every coefficient of blocks over one D (1+y)^K.

    ``blocks`` maps a tag to a ``{key: coefficient}`` dict of ``int``,
    ``Fraction`` or ``YFrac`` coefficients.  Returns ``D``, ``K`` and the same
    tags mapped to ``(key, n)`` lists, each coefficient being
    ``n / (D (1+y)^K)`` with ``n`` a list of ints, D the lcm of the
    denominators and K the largest (1+y) power.
    """
    parts = []
    D, K = 1, 0
    for tag, terms in blocks.items():
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
        parts.append((tag, items))
    out = {}
    for tag, items in parts:
        lifted = []
        for m, n, d, k in items:
            if d != D:
                s = D // d
                n = [x * s for x in n]
            if k != K:
                n = _mul_one_plus_y_power(n, K - k)
            lifted.append((m, n))
        out[tag] = lifted
    return D, K, out


def _width(lifted):
    return max((len(n) for items in lifted.values() for _, n in items), default=1)


def _convolve_into(acc, width, a, b):
    """Add the product of every (key, n) of a and every one of b to acc.

    ``acc`` maps a key to its accumulated numerator, a list of ``width``
    ints; the product of two numerators is their convolution.
    """
    get = acc.get
    for ka, na in a:
        for kb, nb in b:
            k = ka + kb
            c = get(k)
            if c is None:
                c = acc[k] = [0] * width
            for i, x in enumerate(na):
                if x:
                    for j, z in enumerate(nb, i):
                        c[j] += x * z


def _lower(acc, D, K, nvars):
    """{degree: {key: n}} to {degree: Poly with coefficients n / (D (1+y)^K)}."""
    out = {}
    for d, terms in acc.items():
        packed = {}
        for k, n in terms.items():
            c = _make(n, D, K)
            if c:
                packed[k] = c
        out[d] = _poly(packed, nvars, max(map(MASK.__and__, packed), default=0))
    return out


def _lifted_product(a, b, cap, nvars):
    """The product of two {degree: Poly} dicts as {degree: Poly}.

    Each operand is lifted once; every pair of blocks whose degrees add up to
    at most cap is one pass of integer convolutions, and each output
    coefficient is normalized once.
    """
    Da, Ka, la = _lift({d: p.packed for d, p in a.items()})
    Db, Kb, lb = _lift({d: p.packed for d, p in b.items()})
    width = _width(la) + _width(lb) - 1
    out = {}
    for da, ta in la.items():
        for db, tb in lb.items():
            if da + db <= cap:
                product_bound(a[da], b[db])
                _convolve_into(out.setdefault(da + db, {}), width, ta, tb)
    return _lower(out, Da * Db, Ka + Kb, nvars)


def series_combination(pairs, cap, nvars):
    """sum of s * (n_0 + n_1 y + ...) over (GradedSeries s, int list n) pairs.

    The series are lifted together, so that each output coefficient is one
    integer sum, normalized once.
    """
    blocks = {(i, d): p.packed for i, (s, _) in enumerate(pairs) for d, p in s.comps.items()}
    D, K, lifted = _lift(blocks)
    width = _width(lifted) + max((len(n) for _, n in pairs), default=1) - 1
    out = {}
    for (i, d), items in lifted.items():
        if d <= cap:
            # 0 is the key of the constant monomial
            _convolve_into(out.setdefault(d, {}), width, items, [(0, pairs[i][1])])
    return GradedSeries(_lower(out, D, K, nvars), cap, nvars)


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
        if _has_yfrac(a, b):
            out = _lifted_product({0: self}, {0: other}, 0, self.nvars)
            return out.get(0) or Poly.zero(self.nvars)
        bound = product_bound(self, other)
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
        out = {}
        for k, v in self.packed.items():
            d = k & MASK
            t = out.get(d)
            if t is None:
                out[d] = {k: v}
            else:
                t[k] = v
        return {d: _poly(t, self.nvars, d) for d, t in sorted(out.items())}

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
        n = self.nvars + 1
        return [(tuple(digits(k, n)[:-1]), c) for k, c in sorted(self.packed.items(), reverse=True)]

    def __repr__(self):
        if not self.packed:
            return "0"
        bits = []
        for e, v in self.sorted_terms():
            mono = "*".join(f"x{j}^{x}" if x > 1 else f"x{j}" for j, x in enumerate(e) if x)
            bits.append(f"{v}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class GradedSeries:
    """Degree-truncated series: homogeneous components indexed by degree <= cap."""

    __slots__ = ("comps", "cap", "nvars")

    def __init__(self, comps, cap, nvars):
        self.comps = {d: p for d, p in comps.items() if p and d <= cap}
        self.cap = cap
        self.nvars = nvars

    @classmethod
    def zero(cls, cap, nvars):
        return cls({}, cap, nvars)

    @classmethod
    def const(cls, c, cap, nvars):
        p = Poly.const(c, nvars)
        return cls({0: p} if p else {}, cap, nvars)

    @classmethod
    def from_poly(cls, poly, cap):
        return cls(poly.homogeneous_split(), cap, poly.nvars)

    def __bool__(self):
        return bool(self.comps)

    def component(self, d):
        return self.comps.get(d, Poly.zero(self.nvars))

    def truncate(self, cap):
        """The series below ``min(cap, self.cap)``: a series never claims a
        degree it does not know."""
        cap = min(cap, self.cap)
        return GradedSeries({d: p for d, p in self.comps.items() if d <= cap}, cap, self.nvars)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        cap = min(self.cap, other.cap)
        for d in range(cap + 1):
            if self.component(d) != other.component(d):
                return False
        return True

    def __add__(self, other):
        if isinstance(other, GradedSeries):
            cap = min(self.cap, other.cap)
            out = {d: p for d, p in self.comps.items() if d <= cap}
            for d, p in other.comps.items():
                if d > cap:
                    continue
                q = out.get(d)
                q = p if q is None else q + p
                if q:
                    out[d] = q
                else:
                    out.pop(d, None)
            return GradedSeries(out, cap, self.nvars)
        return self + GradedSeries.const(other, self.cap, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return GradedSeries({d: -p for d, p in self.comps.items()}, self.cap, self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            return GradedSeries({d: p * other for d, p in self.comps.items()}, self.cap, self.nvars)
        if isinstance(other, Poly):
            other = GradedSeries(other.homogeneous_split(), self.cap, self.nvars)
        _same_nvars(self, other)
        cap = min(self.cap, other.cap)
        a, b = self.comps, other.comps
        if _has_yfrac(*(p.packed for p in a.values()), *(p.packed for p in b.values())):
            return GradedSeries(_lifted_product(a, b, cap, self.nvars), cap, self.nvars)
        out = {}
        for da, pa in self.comps.items():
            for db, pb in other.comps.items():
                d = da + db
                if d > cap:
                    continue
                q = pa * pb
                prev = out.get(d)
                q = q if prev is None else prev + q
                if q:
                    out[d] = q
                else:
                    out.pop(d, None)
        return GradedSeries(out, cap, self.nvars)

    __rmul__ = __mul__

    def inverse(self):
        """Series inverse; the constant term must be an invertible coefficient."""
        c0 = self.component(0).packed
        if len(c0) != 1 or 0 not in c0:
            raise ArithmeticError("constant term is not a unit")
        c = c0[0]
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

        The contract of ``Poly.divide_exact``, component by component; the
        quotient's cap is lowered by the degree of q.
        """
        if not q.is_homogeneous():
            raise ValueError("divisor must be homogeneous")
        dq = q.degree()
        out = {}
        for d, p in self.comps.items():
            r = p.divide_exact(q)
            if r is None:
                return None
            if r:
                out[d - dq] = r
        return GradedSeries(out, self.cap - dq, self.nvars)

    def map_coefficients(self, fn):
        out = {}
        for d, p in self.comps.items():
            q = p.map_coefficients(fn)
            if q:
                out[d] = q
        return GradedSeries(out, self.cap, self.nvars)

    def __repr__(self):
        return "Series{" + ", ".join(f"{d}: {p!r}" for d, p in sorted(self.comps.items())) + f"}}@{self.cap}"


def exp_linear(linear, cap, coeff_one=None):
    """Truncated exponential of a homogeneous linear polynomial."""
    one = Fraction(1) if coeff_one is None else coeff_one
    comps = {0: Poly.const(one, linear.nvars)}
    power = Poly.const(one, linear.nvars)
    fact = 1
    for k in range(1, cap + 1):
        power = power * linear
        fact *= k
        comp = power * Fraction(1, fact)
        if comp:
            comps[k] = comp
    return GradedSeries(comps, cap, linear.nvars)


def series_of_linear(coeff_list, linear, cap):
    """sum_k c_k L^k as a graded series, for a homogeneous linear L."""
    comps = {}
    power = Poly.const(Fraction(1), linear.nvars)
    for k, c in enumerate(coeff_list):
        if k > cap:
            break
        if k:
            power = power * linear
        comp = power * c
        if comp:
            comps[k] = comp
    return GradedSeries(comps, cap, linear.nvars)


def univ_mul(a, b, cap):
    out = [YFrac.const(0) for _ in range(cap + 1)]
    for i, x in enumerate(a[: cap + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def univ_inverse(a, cap):
    """Inverse of a univariate coefficient list with invertible constant term."""
    c0 = a[0]
    c0inv = c0.inverse() if isinstance(c0, YFrac) else YFrac.const(1) / YFrac.const(c0)
    out = [c0inv] + [YFrac.const(0)] * cap
    for n in range(1, cap + 1):
        s = YFrac.const(0)
        for k in range(1, min(n, len(a) - 1) + 1):
            s = s + a[k] * out[n - k]
        out[n] = -(c0inv * s)
    return out


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def todd_coefficients(cap):
    """Coefficients of x/(1 - e^-x) as a univariate series."""
    v = [YFrac.const(Fraction((-1) ** k, _factorial(k + 1))) for k in range(cap + 1)]
    return univ_inverse(v, cap)


def unnormalized_hirzebruch_coefficients(cap):
    """Coefficients of x (1 + y e^-x) / (1 - e^-x)."""
    v = [YFrac.const(Fraction((-1) ** k, _factorial(k + 1))) for k in range(cap + 1)]
    n = [
        (YFrac.const(1) if k == 0 else YFrac.const(0))
        + YFrac.y_power(1, Fraction((-1) ** k, _factorial(k)))
        for k in range(cap + 1)
    ]
    return univ_mul(n, univ_inverse(v, cap), cap)


def normalized_hirzebruch_coefficients(cap):
    """Coefficients of x (1 + y e^{-x(1+y)}) / (1 - e^{-x(1+y)})."""
    one_plus_y = YFrac([1, 1])
    v = [
        YFrac.const(Fraction((-1) ** k, _factorial(k + 1))) * one_plus_y**k
        for k in range(cap + 1)
    ]
    n = []
    for k in range(cap + 1):
        term = YFrac.y_power(1, Fraction((-1) ** k, _factorial(k))) * one_plus_y**k
        if k == 0:
            term = term + YFrac.const(1)
        n.append(term.divide_by_one_plus_y())
    return univ_mul(n, univ_inverse(v, cap), cap)
