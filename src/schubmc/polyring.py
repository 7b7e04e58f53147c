"""Exact polynomial and truncated-series arithmetic for the cohomology layers.

``Poly`` is a sparse multivariate polynomial over an exact coefficient ring:
integers for ordinary equivariant cohomology (variables are the simple roots,
with the degree-one formal variable appended last when homogenizing), with a
``Fraction`` only for a value that is not integral, or ``YFrac`` (rationals
in y with powers of 1+y inverted) for the Hirzebruch layer.  Constructors
keep an ``int`` an ``int``, and exact division by an integer polynomial with
coprime coefficients keeps an integral quotient integral (Gauss's lemma).
There is one division, ``Poly.divide_exact``, by a divisor of degree one
only: the GKM engines divide by linear forms and products of them, one
factor at a time.
``GradedSeries`` is a degree-truncated series, the working form of completed
equivariant (co)homology: one ``Poly`` with no term above its cap, the last
degree it knows.  A sum or product keeps the least cap of its operands,
``truncate`` never raises the cap, and ``divide_exact`` by a linear form
lowers it by one.  A term's degree is its key's lowest digit, so the
homogeneous components (``comps``, ``component``) are views read off the
keys.  The localization sums over fixed points that use these types live in
``cohomology.GKMEngine.localize``.

``Poly`` keys each term by one ``int``, packed as the Laurent kernel packs
its keys (``_kernel_py.pack``): the exponents are digits, the
first variable the most significant, and the lowest digit holds the total
degree.  A monomial product is a sum of keys, integer order is the lex order
of the exponent tuples, and the degree of a term is ``key & MASK``.
``Poly.packed`` maps each key to its coefficient; ``Poly.terms`` is the same
polynomial keyed by exponent tuples, built on each access.  A product whose
degree could reach the digit limit raises ``OverflowError``, and no quotient
key outgrows its dividend's, so no key ever carries into its neighbour.
``Poly``s of different numbers of variables do not combine: that raises
``ValueError``.

The Hirzebruch ring Q[y, (1+y)^-1] is stored in the variable t = 1 + y, as
the Laurent ring Q[t, t^-1]: a (1+y) denominator is a negative power of t.
A ``YFrac`` stores the integer coefficients of one Laurent polynomial in t
over one positive integer denominator, so its arithmetic is integer
convolution and gcd, and its one normal form asks only that the denominator
share no factor with every coefficient.  The y basis survives only at the
API edge: ``YFrac(num, k)``, ``YFrac.const`` and ``YFrac.y_power`` read a
value in y, and ``YFrac.num``, ``YFrac.k``, ``repr`` and ``evaluate`` write
it back in y, so every artifact is written in y.

A ``Poly`` with a ``YFrac`` coefficient is lifted: it is stored as one integer
Laurent polynomial in the variables and t, over one positive integer D.  t is
one more packed digit, above the variables' digits, so ``key & MASK`` is
still the degree and every degree-block and truncation path reads lifted
keys unchanged.  The t digit is the most significant: a negative power of t
makes a negative key, and ``key >> shift`` reads its exponent back, since
every digit below it is nonnegative; no product carries out of it.  The
normal form is D sharing no factor with all of the coefficients.  It is
unique, so equality and hashing read it directly.  A product is the kernel's
``lp_mul`` over D_a D_b, a sum aligns D and calls ``lp_add``, a power of t is
a key shift (``GradedSeries.shift_t``, the Adams normalization of the
Hirzebruch layer), and each result is normalized by one gcd.  A lifted
series product (``GradedSeries.__mul__``) and the Horner loop of
``times_series_of_linear`` substitute in t (Kronecker): the kernel's codec
(``kron_pack`` at the t digit's offset) packs each x-monomial's
t-polynomial, over the least power of t of its operand, into one integer
N = n_0 + n_1 2^S + ..., with S (``_t_width``) proven wide enough for every
coefficient of every partial sum, so ``lp_mul`` multiplies {x-key: N} dicts,
and ``kron_unpack`` reads the result back into balanced S-bit digits once
before it is normalized.  ``Poly.__mul__`` and ``series_combination``
multiply short t-polynomials and stay on the lifted terms, where packing
measured slower.  The one division divides a lifted numerator in integers
(``_lifted_divisor``) and normalizes once.  The ``YFrac`` of each monomial is
a view, built only when read (``packed``, ``terms``, ``sorted_terms``), so
nothing is lifted before or lowered after an operation.  ``int``/``Fraction``
polynomials store their coefficients as they are, and their sums, negatives,
scalar multiples, products and quotients keep their own code path on the
same kernel loops (``lp_add``, ``lp_neg``, ``lp_scale``, ``lp_mul``), which
serve every coefficient type.  ``GradedSeries`` products (packed in t when
lifted) and ``series_combination`` run on the same kernel loops; a series
product multiplies only the pairs of degree blocks that stay within the cap.
The one-variable Todd-type coefficient lists have closed forms in the
Bernoulli numbers; a series times the series of one linear form
(``times_series_of_linear``) is Horner's rule in that form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

# kernel calls go through ``_impl.<name>``, so that a tracer can wrap them
from . import _kernel_py as _impl
from ._kernel_py import (
    HALF, MASK, WIDTH, digits, kron_pack, kron_unpack, l1, pack, product_bound,
    sorted_digits,
)


class YFrac:
    """Element of Q[y, (1+y)^-1], stored as a Laurent polynomial in t = 1 + y.

    The value is ``(n_0 t^lo + n_1 t^(lo+1) + ... + n_m t^(lo+m)) / d`` with
    integer numerators ``n_i`` and one positive integer denominator ``d``.
    Each value has one form: ``n_0 != 0``, ``n_m != 0`` and
    ``gcd(n_0, ..., n_m, d) == 1`` (zero is ``()``, ``lo = 0``, ``d = 1``).

    The y basis is read and written only here.  ``YFrac(num, k)`` is
    ``(num_0 + num_1 y + ...) / (1+y)^k``.  ``k`` is ``max(0, -lo)`` and
    ``num`` the coefficients, as ``Fraction``s, of the y-numerator over
    ``(1+y)^k``.  The change of variable is unimodular, so that numerator has
    the content of the t one; when ``k > 0`` its value at y = -1 is ``n_0``,
    not zero, so 1 + y does not divide it.
    """

    __slots__ = ("_n", "_lo", "_d")

    def __init__(self, num, k=0):
        num = [c if isinstance(c, int) else Fraction(c) for c in num]
        d = lcm(*(c.denominator for c in num)) if num else 1
        _set(self, _taylor_shift([c.numerator * (d // c.denominator) for c in num], -1), -k, d)

    @property
    def num(self):
        d = self._d
        return tuple(Fraction(c, d) for c in _y_numerator(self))

    @property
    def k(self):
        return max(-self._lo, 0)

    @classmethod
    def const(cls, c):
        if isinstance(c, int):
            return _make([c], 0, 1)
        c = Fraction(c)
        return _make([c.numerator], 0, c.denominator)

    @classmethod
    def y_power(cls, p, c=1):
        c = Fraction(c)
        return _make(_taylor_shift([0] * p + [c.numerator], -1), 0, c.denominator)

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = YFrac.const(other)
        return (
            isinstance(other, YFrac)
            and self._n == other._n
            and self._lo == other._lo
            and self._d == other._d
        )

    def __hash__(self):
        n = self._n
        if not self._lo and len(n) <= 1:
            # a constant hashes as the rational number it equals
            return hash(Fraction(n[0], self._d)) if n else 0
        return hash((n, self._lo, self._d))

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
        lo = self._lo
        if lo < other._lo:
            b = (0,) * (other._lo - lo) + b
        elif lo > other._lo:
            a, lo = (0,) * (lo - other._lo) + a, other._lo
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
        return _make(out, lo, d)

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple(-c for c in self._n), self._lo, self._d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, YFrac):
            if isinstance(other, int):
                return _make([c * other for c in self._n], self._lo, self._d)
            if isinstance(other, Fraction):
                p = other.numerator
                return _make([c * p for c in self._n], self._lo, self._d * other.denominator)
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
        return _make(out, self._lo + other._lo, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse of a unit, c t^lo; raises for any other value."""
        n = self._n
        if len(n) != 1:
            if not n:
                raise ZeroDivisionError("inverting zero")
            raise ArithmeticError(f"{self!r} is not invertible in Q[y,(1+y)^-1]")
        c = n[0]
        return _new((self._d if c > 0 else -self._d,), -self._lo, abs(c))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = 1 / Fraction(other)
            return _make([c * other.numerator for c in self._n], self._lo, self._d * other.denominator)
        return self * other.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = YFrac.const(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def cleared(self):
        """True when no (1+y) denominator remains: no negative power of t."""
        return self._lo >= 0

    def evaluate(self, v):
        t = 1 + Fraction(v)
        if not t and self._lo < 0:
            raise ZeroDivisionError("pole at y = -1")
        return sum((c * t**e for e, c in enumerate(self._n, self._lo)), Fraction(0)) / self._d

    def __repr__(self):
        num, k = self.num, self.k
        body = " + ".join(f"{c}*y^{i}" if i else str(c) for i, c in enumerate(num) if c)
        body = body or "0"
        return f"({body})/(1+y)^{k}" if k else f"({body})"


def _new(n, lo, d):
    out = object.__new__(YFrac)
    out._n, out._lo, out._d = n, lo, d
    return out


def _set(out, n, lo, d):
    """Store (n_0 t^lo + n_1 t^(lo+1) + ...) / d in out, brought to the one
    form (n a list of ints)."""
    while n and not n[-1]:
        n.pop()
    if not n:
        out._n, out._lo, out._d = (), 0, 1
        return out
    i = 0
    while not n[i]:
        i += 1
    if i:
        n, lo = n[i:], lo + i
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = [c // g for c in n]
            d //= g
    out._n, out._lo, out._d = tuple(n), lo, d
    return out


def _make(n, lo, d):
    return _set(object.__new__(YFrac), n, lo, d)


_ZERO = _new((), 0, 1)


def _taylor_shift(n, s):
    """The coefficients of sum_i n_i (z + s)^i, by Horner's rule: with s = -1
    those of a y-polynomial in t = y + 1, with s = 1 those of a t-polynomial
    in y."""
    out = []
    for c in reversed(n):
        out = [a + s * b for a, b in zip([c, *out], [*out, 0])]
    return out


def _y_numerator(x):
    """The integer y-numerator of x over d (1+y)^k: the t-polynomial x t^k,
    written in y."""
    return _taylor_shift([0] * x._lo + list(x._n), 1)


# -- lifted polynomials: one integer Laurent numerator in the variables and t -----------


def _t_shift(nvars):
    """The bit offset of the t digit of a lifted key: above every variable."""
    return WIDTH * (nvars + 1)


def _parts(c):
    """(t-coefficients, least power of t, denominator) of an int, Fraction or YFrac."""
    if type(c) is YFrac:
        return c._n, c._lo, c._d
    if type(c) is int:
        return (c,), 0, 1
    return (c.numerator,), 0, c.denominator


def _t_terms(n, lo, nvars):
    """The integer t-polynomial n_0 t^lo + n_1 t^(lo+1) + ... as lifted terms."""
    sh = _t_shift(nvars)
    return {e << sh: x for e, x in enumerate(n, lo) if x}


def _lifted_terms(coeffs, nvars):
    """{key: int, Fraction or YFrac} written as (t, D): the value at a key is
    the sum over e of ``t[key + (e << t_shift)] t^e``, over D.

    D is the lcm of the denominators.  Each coefficient is in its own normal
    form, so the result is in the normal form of a lifted ``Poly``: a
    coefficient with the largest power of a prime in D keeps that factor from
    cancelling.
    """
    parts = [_parts(c) for c in coeffs.values()]
    D = lcm(*(d for *_, d in parts))
    sh = _t_shift(nvars)
    t = {}
    for key, (n, lo, d) in zip(coeffs, parts):
        s = D // d
        for e, x in enumerate(n, lo):
            if x:
                t[key + (e << sh)] = x * s
    return t, D


def _normal(t, d, nvars, bound):
    """The lifted Poly t / d in its normal form: d shares no factor with
    every value of t."""
    if not t:
        return _poly({}, nvars, bound, 1)
    if d != 1:
        g = gcd(d, *t.values())
        if g != 1:
            t = {key: c // g for key, c in t.items()}
            d //= g
    return _poly(t, nvars, bound, d)


def _lifted(p):
    """p itself when lifted, else its int and Fraction terms lifted."""
    if p._d is not None:
        return p
    t, d = _lifted_terms(p._t, p.nvars)
    return _poly(t, p.nvars, p._bound, d)


def _lifted_sum(a, b, sign=1):
    """a + sign * b for lifted a and b, sign +-1: D aligned, then the kernel's
    sum or difference."""
    ta, tb = a._t, b._t
    if not tb:
        return a
    if not ta:
        return b if sign == 1 else -b
    da, db = a._d, b._d
    if da != db:
        g = gcd(da, db)
        ma, mb = db // g, da // g
        ta = {key: c * ma for key, c in ta.items()}
        mb *= sign
        tb = {key: c * mb for key, c in tb.items()}
        da *= ma
        t = _impl.lp_add(ta, tb)
    else:
        t = _impl.lp_add(ta, tb) if sign == 1 else _impl.lp_sub(ta, tb)
    return _normal(t, da, a.nvars, max(a._bound, b._bound))


# -- lifted products on packed t-integers (Kronecker substitution in t) ----------------


def _t_width(bound):
    """The bits S of one t-digit of a packed t-integer whose coefficients are
    at most ``bound`` in absolute value: a balanced digit holds |n| < 2^(S-1)."""
    return bound.bit_length() + 1


def _least_t(t, nvars):
    """The least power of t among lifted terms (0 for none)."""
    return min(t, default=0) >> _t_shift(nvars)


def _t_product(ta, tb, nvars, cap):
    """The terms of degree at most cap of the product of two lifted term
    dicts, by Kronecker substitution in t.

    Each x-monomial's t-polynomial, over the least power of t of its operand,
    is packed into one integer N, the kernel multiplies the {x-key: N} dicts
    block by block (``_truncated_product``), and the sum is read back in
    balanced digits once, times the two least powers.  A term of a meets at
    most one term of b in each coefficient of the product, so no partial or
    final sum exceeds min(L1(a) max|b|, max|a| L1(b)) in absolute value: it
    fits one digit, no digit carries into the next, and an N is zero exactly
    when its t-polynomial is.
    """
    if not ta or not tb:
        return {}
    top_a, top_b = max(map(abs, ta.values())), max(map(abs, tb.values()))
    S = _t_width(min(l1(ta) * top_b, top_a * l1(tb)))
    oa, ob = _least_t(ta, nvars), _least_t(tb, nvars)
    sh = _t_shift(nvars)
    out = _truncated_product(kron_pack(ta, sh, S, oa), kron_pack(tb, sh, S, ob), cap)
    return kron_unpack(out, sh, S, oa + ob)


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


def _truncated_product(a, b, cap):
    """The terms of degree at most cap of the product of two term dicts.

    Each operand is grouped by degree once, and every pair of blocks whose
    degrees add up to at most cap is one kernel product, summed in place.  A
    kept pair of degree ``HALF`` or more raises ``OverflowError``: its keys
    could carry.
    """
    blocks = _by_degree(b).items()
    out = {}
    for da, ta in _by_degree(a).items():
        for db, tb in blocks:
            d = da + db
            if d > cap:
                continue
            if d >= HALF:
                raise OverflowError("a product degree could leave the packing range")
            _impl.lp_mul(ta, tb, out)
    return out


def series_combination(pairs, cap, nvars):
    """sum of s * (n_0 + n_1 y + ...) over (GradedSeries s, int list n) pairs.

    The terms of degree at most cap of every series are written over one D,
    each times its y-polynomial, written in t, is one kernel product, and the
    sum is normalized once.
    """
    polys = [_lifted(_truncated(s.poly, cap)) for s, _ in pairs]
    D = lcm(*(p._d for p in polys))
    out = {}
    for p, (_, n) in zip(polys, pairs):
        s = D // p._d
        _impl.lp_mul(p._t, _t_terms([x * s for x in _taylor_shift(n, -1)], 0, nvars), out)
    return _series(_normal(out, D, nvars, max(cap, 0)), cap)


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


def _poly(t, nvars, bound, d=None):
    """Poly on packed terms of degree at most bound: nonzero int or Fraction
    values, or with d given the lifted t / d in its normal form."""
    p = object.__new__(Poly)
    p._t = t
    p.nvars = nvars
    p._bound = bound
    p._d = d
    return p


def _from_coeffs(coeffs, nvars, bound):
    """Poly on {key: nonzero coefficient}: lifted when a coefficient is a YFrac."""
    if YFrac not in map(type, coeffs.values()):
        return _poly(coeffs, nvars, bound)
    t, d = _lifted_terms(coeffs, nvars)
    return _poly(t, nvars, bound, d)


def _same_nvars(a, b):
    if a.nvars != b.nvars:
        raise ValueError(f"cannot combine {a.nvars} and {b.nvars} variables")


class Poly:
    """Sparse multivariate polynomial over an exact coefficient ring.

    The key of x_0^e_0 ... x_{n-1}^e_{n-1} is
    ``_kernel_py.pack((e_0, ..., e_{n-1}), e_0 + ... + e_{n-1})``: the
    Laurent layer's packing, with the total degree in the digit that holds
    the y power there.  Every digit is nonnegative and below ``HALF``, the
    first variable is the most significant, so integer order of the keys is
    the lex order of the exponent tuples, a monomial product is a key sum,
    and the degree is ``key & MASK``.

    With ``int`` and ``Fraction`` coefficients the stored terms map each key
    to its coefficient.  With ``YFrac`` coefficients the polynomial is
    lifted: one integer Laurent polynomial in the variables and t = 1 + y
    over one positive integer D, t the top digit, above the variables' (see
    the module docstring).  ``packed`` maps each key to its coefficient in both
    cases, a view built on each access when lifted; ``terms`` is the same
    polynomial keyed by exponent tuples.  Each ``Poly`` carries an upper
    bound on its degree; a product whose degree could reach ``HALF`` raises
    ``OverflowError`` instead of carrying.
    """

    __slots__ = ("_t", "nvars", "_bound", "_d")

    def __init__(self, terms, nvars):
        packed = {}
        for e, c in terms.items():
            k = _key(e, nvars)
            if c:
                packed[k] = c
        p = _from_coeffs(packed, nvars, 0)
        self._t, self.nvars, self._d = p._t, nvars, p._d
        self._tighten()

    @property
    def packed(self):
        """{key: coefficient}; when lifted, a ``YFrac`` per key, built here."""
        if self._d is None:
            return self._t
        sh = _t_shift(self.nvars)
        mask = (1 << sh) - 1
        powers = {}
        for key, c in self._t.items():
            x = key & mask
            ts = powers.get(x)
            if ts is None:
                powers[x] = {key >> sh: c}
            else:
                ts[key >> sh] = c
        d = self._d
        out = {}
        for x, ts in powers.items():
            lo = min(ts)
            n = [0] * (max(ts) - lo + 1)
            for e, c in ts.items():
                n[e - lo] = c
            out[x] = _make(n, lo, d)
        return out

    @property
    def terms(self):
        n = self.nvars + 1
        return {tuple(digits(k, n)[:-1]): c for k, c in self.packed.items()}

    def _tighten(self):
        """Set the degree bound to the degree (0 for zero), and return it."""
        self._bound = max(map(MASK.__and__, self._t), default=0)
        return self._bound

    def _select(self, t, bound):
        """The Poly of some of this one's stored terms, in its normal form."""
        if self._d is None:
            return _poly(t, self.nvars, bound)
        return _normal(t, self._d, self.nvars, bound)

    @classmethod
    def zero(cls, nvars):
        return _poly({}, nvars, 0)

    @classmethod
    def const(cls, c, nvars):
        return _from_coeffs({0: c} if c else {}, nvars, 0)

    @classmethod
    def variable(cls, j, nvars, coeff=1):
        return _from_coeffs({_var_key(j, nvars): coeff} if coeff else {}, nvars, 1)

    @classmethod
    def linear(cls, coeffs):
        nvars = len(coeffs)
        return _from_coeffs({_var_key(j, nvars): c for j, c in enumerate(coeffs) if c}, nvars, 1)

    def __bool__(self):
        return bool(self._t)

    def cleared(self):
        """True when no (1+y) denominator remains in any coefficient: no
        negative power of t, so no negative key."""
        return self._d is None or min(self._t, default=0) >= 0

    def _coerce(self, other):
        if isinstance(other, Poly):
            _same_nvars(self, other)
            return other
        if isinstance(other, (int, Fraction, YFrac)):
            return Poly.const(other, self.nvars)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return False
        a, b = self, other
        if (a._d is None) != (b._d is None):
            a, b = _lifted(a), _lifted(b)
        return a._t == b._t and a._d == b._d

    def __hash__(self):
        t = self._t
        if not t:
            return 0
        if self._d is None:
            if len(t) == 1 and 0 in t:
                # a constant hashes as the coefficient it equals
                return hash(t[0])
            return hash((self.nvars, frozenset(t.items())))
        sh = _t_shift(self.nvars)
        mask = (1 << sh) - 1
        if not any(key & mask for key in t):
            return hash(self.packed[0])
        if min(t) >= 0 and max(t) >> sh == 0:
            # no power of t: hash as the int and Fraction terms it equals
            d = self._d
            return hash((self.nvars, frozenset((key, Fraction(c, d)) for key, c in t.items())))
        return hash((self.nvars, self._d, frozenset(t.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._d is None and other._d is None:
            return _poly(
                _impl.lp_add(self._t, other._t), self.nvars, max(self._bound, other._bound)
            )
        return _lifted_sum(_lifted(self), _lifted(other))

    __radd__ = __add__

    def __neg__(self):
        return _poly(_impl.lp_neg(self._t), self.nvars, self._bound, self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._d is None and other._d is None:
            return _poly(
                _impl.lp_sub(self._t, other._t), self.nvars, max(self._bound, other._bound)
            )
        return _lifted_sum(_lifted(self), _lifted(other), -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if self._d is None:
                return _poly(_impl.lp_scale(self._t, other), self.nvars, self._bound)
            if not other:
                return _poly({}, self.nvars, self._bound, 1)
            if type(other) is int:
                # the stored terms share no factor with d, so gcd(d, other) is all that cancels
                g = gcd(self._d, other)
                t = _impl.lp_scale(self._t, other // g)
                return _poly(t, self.nvars, self._bound, self._d // g)
            t = _impl.lp_scale(self._t, other.numerator)
            return _normal(t, self._d * other.denominator, self.nvars, self._bound)
        if isinstance(other, YFrac):
            other = Poly.const(other, self.nvars)
        elif not isinstance(other, Poly):
            return NotImplemented
        _same_nvars(self, other)
        bound = product_bound(self, other)
        if self._d is None and other._d is None:
            return _poly(_impl.lp_mul(self._t, other._t), self.nvars, bound)
        a, b = _lifted(self), _lifted(other)
        return _normal(_impl.lp_mul(a._t, b._t), a._d * b._d, self.nvars, bound)

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
        return _from_coeffs(out, self.nvars, self._bound)

    def degree(self):
        return max(map(MASK.__and__, self._t), default=-1)

    def homogeneous_component(self, d):
        return self._select({k: v for k, v in self._t.items() if k & MASK == d}, d)

    def homogeneous_split(self):
        return {d: self._select(t, d) for d, t in sorted(_by_degree(self._t).items())}

    def is_homogeneous(self, d=None):
        degs = set(map(MASK.__and__, self._t))
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
        return _from_coeffs(out, self.nvars, self._bound)

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
        """Exact quotient self/q, else None; q = c x_j + m has degree one.

        Synthetic division in x_j, the first variable of q; any other divisor
        raises ``ValueError``.  A quotient coefficient is an ``int`` where c
        divides an ``int`` and the exact ``Fraction`` elsewhere.  A lifted
        operand divides on the integer numerators (``_lifted_divisor``).
        """
        _same_nvars(self, q)
        if not q._t:
            raise ZeroDivisionError("division by the zero polynomial")
        if q._tighten() != 1:
            raise ValueError("the divisor is not of degree one")
        if self._d is not None or q._d is not None:
            a = _lifted(self)
            if not a._t:
                return _poly({}, self.nvars, a._bound, 1)
            return _lifted_divisor(_lifted(q), a)
        xkey = max(q._t)
        m = dict(q._t)
        c = m.pop(xkey)
        inv = Fraction(1) / c

        def divide(s):
            return {
                k - xkey: v // c if type(v) is type(c) is int and not v % c else inv * v
                for k, v in s.items()
            }

        quot = _synthetic_quotient(self._t, xkey, m, divide)
        return None if quot is None else _poly(quot, self.nvars, self._bound)

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in descending lex order."""
        return list(sorted_digits(self.packed, self.nvars + 1, self.nvars))

    def __repr__(self):
        if not self._t:
            return "0"
        bits = []
        for e, v in self.sorted_terms():
            mono = "*".join(f"x{j}^{x}" if x > 1 else f"x{j}" for j, x in enumerate(e) if x)
            bits.append(f"{v}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _synthetic_quotient(t, xkey, m, divide):
    """The terms t over c x_j + m (x_j of key ``xkey``, m free of it), or None.

    ``divide`` divides terms by c x_j, or returns None.  With a_k the x_j^k
    slice of t and b_k that of the quotient, a_k = c b_(k-1) + m b_k, so
    b_(k-1) = (a_k - m b_k) / c from the top slice down, one kernel product
    per slice, and the division is exact when a_0 = m b_0.  Slices keep
    their keys, and no quotient key outgrows t's.
    """
    shift = (xkey - 1).bit_length() - 1
    # no x_j exponent exceeds the degree of t
    slices = [{} for _ in range(max(map(MASK.__and__, t), default=0) + 1)]
    for key, c in t.items():
        slices[key >> shift & MASK][key] = c
    neg_m = _impl.lp_neg(m)
    quot = {}
    b = {}
    for r in slices[:0:-1]:
        if b:
            _impl.lp_mul(neg_m, b, r)
        b = divide(r) if r else {}
        if b is None:
            return None
        quot.update(b)
    r = slices[0]
    if b:
        _impl.lp_mul(neg_m, b, r)
    return None if r else quot


def _lifted_divisor(q, a):
    """a / q for lifted a and q of degree one, or None.

    q's leading coefficient must be a unit, h t^r; else None.  With q's
    numerator g P, g its content and P primitive, a / q is (a's numerator /
    P) over a D read off the parts.  By Gauss's lemma that quotient is
    integral, so the synthetic division runs on integers, each slice divided
    by P's leading term h t^r x_j, a monomial; a slice that h does not divide
    proves q does not divide a.
    """
    nvars = a.nvars
    mask = (1 << _t_shift(nvars)) - 1
    tq = q._t
    xkey = max(k & mask for k in tq)
    lead = [k for k in tq if k & mask == xkey]
    if len(lead) != 1:
        return None
    g = gcd(*tq.values())
    if g != 1:
        tq = {k: c // g for k, c in tq.items()}
    h = {lead[0]: tq[lead[0]]}
    rest = {k: c for k, c in tq.items() if k & mask != xkey}
    quot = _synthetic_quotient(a._t, xkey, rest, lambda s: _impl.lp_divide_exact(s, h, nvars + 1))
    if quot is None:
        return None
    if q._d != 1:
        quot = _impl.lp_scale(quot, q._d)
    return _normal(quot, a._d * g, nvars, a._bound)


def _truncated(poly, cap):
    """poly's terms of degree at most cap (poly itself when all are)."""
    if poly._bound <= cap or poly._tighten() <= cap:
        return poly
    return poly._select({k: c for k, c in poly._t.items() if k & MASK <= cap}, cap)


def _series(poly, cap):
    """GradedSeries on a Poly with no term above cap."""
    s = object.__new__(GradedSeries)
    s.poly = poly
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
        poly = Poly.zero(nvars)
        for p in comps.values():
            poly = poly + _truncated(p, cap)
        self.poly = poly
        self.cap = cap

    @classmethod
    def zero(cls, cap, nvars):
        return _series(Poly.zero(nvars), cap)

    @classmethod
    def const(cls, c, cap, nvars):
        return cls.from_poly(Poly.const(c, nvars), cap)

    @classmethod
    def from_poly(cls, poly, cap):
        return _series(_truncated(poly, cap), cap)

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
        return _series(-self.poly, self.cap)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GradedSeries.from_poly(self.poly - other.poly, min(self.cap, other.cap))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            return _series(self.poly * other, self.cap)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        cap = min(self.cap, other.cap)
        a, b = self.poly, other.poly
        bound = max(cap, 0)
        if a._d is None and b._d is None:
            return _series(_poly(_truncated_product(a._t, b._t, cap), a.nvars, bound), cap)
        a, b = _lifted(a), _lifted(b)
        t = _t_product(a._t, b._t, a.nvars, cap)
        return _series(_normal(t, a._d * b._d, a.nvars, bound), cap)

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
        """Exact quotient self/q by a linear form q, else None; the cap drops by one."""
        if not q.is_homogeneous():
            raise ValueError("divisor must be homogeneous")
        r = self.poly.divide_exact(q)
        if r is None:
            return None
        return _series(r, self.cap - 1)

    def shift_t(self, by):
        """Each term of degree d times t^by(d), t = 1 + y; the result is lifted.

        A power of t is a shift of the t digit, so no coefficient changes and
        the normal form holds.
        """
        p = _lifted(self.poly)
        sh = _t_shift(self.nvars)
        shifts = {}
        t = {}
        for key, c in p._t.items():
            d = key & MASK
            e = shifts.get(d)
            if e is None:
                e = shifts[d] = by(d) << sh
            t[key + e] = c
        return _series(_poly(t, p.nvars, p._bound, p._d), self.cap)

    def __repr__(self):
        return "Series{" + ", ".join(f"{d}: {p!r}" for d, p in self.comps.items()) + f"}}@{self.cap}"


def series_of_linear(coeff_list, linear, cap):
    """sum_k c_k L^k as a graded series, for a homogeneous linear L."""
    out = Poly.zero(linear.nvars)
    power = Poly.const(Fraction(1), linear.nvars)
    for k, c in enumerate(coeff_list[: cap + 1]):
        if k:
            power = power * linear
        out = out + power * c
    return _series(out, cap)


def times_series_of_linear(s, coeff_list, linear, cap):
    """s * sum_k c_k L^k below min(cap, s.cap), for a linear form L with no
    constant term; the product is lifted.

    Horner's rule, s c_0 + L (s c_1 + L (s c_2 + ...)), on the stored
    integers: with L = t^r u / E, u free of negative powers of t, and the c_k
    over one D as n_k, the sum is sum_k n_k E^(m-k) t^(k r) u^k s over
    D E^m.  The partial sum that u^k will multiply only needs its terms of
    degree at most the cap minus k, so each step is one kernel product by u
    and one by a t-polynomial, no power of L is expanded, and the result is
    normalized once.  Every operand is packed in t (``kron_pack``), over the
    least power of t of its kind, so a kernel term product is one per
    x-monomial pair.
    """
    cap = min(cap, s.cap)
    if cap >= HALF:
        raise OverflowError("a product degree could leave the packing range")
    p, lin = _lifted(s.poly), _lifted(linear)
    nvars = p.nvars
    m = min(cap, len(coeff_list) - 1)
    parts = [_parts(c) for c in coeff_list[: m + 1]]
    D = lcm(*(d for *_, d in parts))
    sh = _t_shift(nvars)
    r = _least_t(lin._t, nvars)
    u = {key - (r << sh): c for key, c in lin._t.items()}
    ys = [
        _t_terms([x * (D // d) * lin._d ** (m - k) for x in n], lo + k * r, nvars)
        for k, (n, lo, d) in enumerate(parts)
    ]
    # the partial sum after step k is sum_{j >= k} n_j u^(j-k) s_j, s_j some
    # terms of s, so none of its coefficients exceeds sum_j L1(n_j) L1(u)^j L1(s)
    l1_lin = max(l1(u), 1)
    S = _t_width(l1(p._t) * sum(l1(n) * l1_lin**k for k, n in enumerate(ys)))
    off = min((_least_t(n, nvars) for n in ys if n), default=0)
    ys = [kron_pack(n, sh, S, off) for n in ys]
    u = kron_pack(u, sh, S, 0)
    least = _least_t(p._t, nvars)
    blocks = _by_degree(kron_pack(p._t, sh, S, least))
    # the terms of s of degree at most cap - k, grown as k falls
    low = {}
    for d, block in blocks.items():
        if d < cap - m:
            low.update(block)
    out = {}
    for k in range(m, -1, -1):
        if out:
            out = _impl.lp_mul(out, u)
        block = blocks.get(cap - k)
        if block:
            low.update(block)
        if ys[k] and low:
            _impl.lp_mul(low, ys[k], out)
    out = kron_unpack(out, sh, S, least + off)
    return _series(_normal(out, p._d * D * lin._d**m, nvars, max(cap, 0)), cap)


def exp_linear(linear, cap, coeff_one=None):
    """Truncated exponential of a homogeneous linear polynomial."""
    one = Fraction(1) if coeff_one is None else coeff_one
    return series_of_linear([one / factorial(k) for k in range(cap + 1)], linear, cap)


def _todd_numbers(cap):
    """b_k = (-1)^k B_k / k!, k from 0 to cap, the coefficients of x / (1 - e^-x),
    with the Bernoulli numbers B_m = -(sum_{j<m} C(m+1, j) B_j) / (m + 1)."""
    bernoulli = []
    for m in range(cap + 1):
        b = -sum(comb(m + 1, j) * x for j, x in enumerate(bernoulli)) / (m + 1) if m else Fraction(1)
        bernoulli.append(b)
    return [(-1) ** k * b / factorial(k) for k, b in enumerate(bernoulli)]


def todd_coefficients(cap):
    """Coefficients of x/(1 - e^-x) as a univariate series: the b_k."""
    return [YFrac.const(b) for b in _todd_numbers(cap)]


def unnormalized_hirzebruch_coefficients(cap):
    """Coefficients of x (1 + y e^-x) / (1 - e^-x): b_k (1 + (-1)^k y), which
    is b_k t for even k and b_k (2 - t) for odd k."""
    even, odd = _new((1,), 1, 1), _new((2, -1), 0, 1)
    return [(odd if k % 2 else even) * b for k, b in enumerate(_todd_numbers(cap))]


def normalized_hirzebruch_coefficients(cap):
    """Coefficients of x (1 + y e^{-x(1+y)}) / (1 - e^{-x(1+y)}): those of
    x (1 + y e^-x) / (1 - e^-x) times t^(k-1)."""
    return [c * _new((1,), k - 1, 1) for k, c in enumerate(unnormalized_hirzebruch_coefficients(cap))]
