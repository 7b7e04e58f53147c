"""The tuple-keyed ``Poly`` and ``GradedSeries``, kept as a reference model.

This is the polynomial layer as it stood before ``Poly`` keyed its terms by
packed ints: every term is keyed by its exponent tuple, and a monomial
product is ``tuple(map(add, ...))``.  ``YFrac`` comes from
``schubmc.polyring``, since the coefficient ring is not under test, and is
read and written in y only (``num``, ``k``, ``YFrac(num, k)``); the (1+y)
helpers come from ``lifted_reference``.  The
differential tests in ``test_polyring.py`` check the packed layer against it.
"""

from fractions import Fraction
from math import lcm
from operator import add

from lifted_reference import mul_one_plus_y_power
from lifted_reference import parts as y_parts
from schubmc.polyring import YFrac


def _has_yfrac(*term_dicts):
    return any(YFrac in map(type, terms.values()) for terms in term_dicts)


def _lift(blocks):
    """Write every coefficient of blocks over one D (1+y)^K.

    ``blocks`` maps a tag to a ``{monomial: coefficient}`` dict of ``int``,
    ``Fraction`` or ``YFrac`` coefficients.  Returns ``D``, ``K`` and the same
    tags mapped to ``(monomial, n)`` lists, each coefficient being
    ``n / (D (1+y)^K)`` with ``n`` a list of ints, D the lcm of the
    denominators and K the largest (1+y) power.
    """
    parts = []
    D, K = 1, 0
    for tag, terms in blocks.items():
        items = []
        for m, c in terms.items():
            n, d, k = y_parts(c)
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
                n = mul_one_plus_y_power(n, K - k)
            lifted.append((m, n))
        out[tag] = lifted
    return D, K, out


def _width(lifted):
    return max((len(n) for items in lifted.values() for _, n in items), default=1)


def _convolve_into(acc, width, a, b):
    """Add the product of every (monomial, n) of a and every one of b to acc.

    ``acc`` maps a monomial to its accumulated numerator, a list of ``width``
    ints; the product of two numerators is their convolution.
    """
    for ma, na in a:
        for mb, nb in b:
            m = tuple(map(add, ma, mb))
            c = acc.get(m)
            if c is None:
                c = acc[m] = [0] * width
            for i, x in enumerate(na):
                if x:
                    for j, z in enumerate(nb, i):
                        c[j] += x * z


def _lower(acc, D, K, nvars):
    """{degree: {monomial: n}} to {degree: Poly with coefficients n / (D (1+y)^K)}."""
    return {
        d: Poly({m: YFrac([Fraction(x, D) for x in n], K) for m, n in terms.items()}, nvars)
        for d, terms in acc.items()
    }


def _lifted_product(a, b, cap, nvars):
    """The product of two block dicts {degree: terms} as {degree: Poly}.

    Each operand is lifted once; every pair of blocks whose degrees add up to
    at most cap is one pass of integer convolutions, and each output
    coefficient is normalized once.
    """
    Da, Ka, la = _lift(a)
    Db, Kb, lb = _lift(b)
    width = _width(la) + _width(lb) - 1
    out = {}
    for da, ta in la.items():
        for db, tb in lb.items():
            if da + db <= cap:
                _convolve_into(out.setdefault(da + db, {}), width, ta, tb)
    return _lower(out, Da * Db, Ka + Kb, nvars)


class Poly:
    """Sparse multivariate polynomial over an exact coefficient ring."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms, nvars):
        self.terms = {k: v for k, v in terms.items() if v}
        self.nvars = nvars

    @classmethod
    def zero(cls, nvars):
        return cls({}, nvars)

    @classmethod
    def const(cls, c, nvars):
        return cls({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def variable(cls, j, nvars, coeff=1):
        exp = tuple(int(i == j) for i in range(nvars))
        return cls({exp: coeff}, nvars)

    @classmethod
    def linear(cls, coeffs):
        nvars = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                exp = tuple(int(i == j) for i in range(nvars))
                terms[exp] = c
        return cls(terms, nvars)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            other = Poly.const(other, self.nvars)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            other = Poly.const(other, self.nvars)
        out = dict(self.terms)
        for k, v in other.terms.items():
            c = out.get(k)
            c = v if c is None else c + v
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return Poly(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, YFrac)):
            if not other:
                return Poly.zero(self.nvars)
            return Poly({k: v * other for k, v in self.terms.items()}, self.nvars)
        if _has_yfrac(self.terms, other.terms):
            out = _lifted_product({0: self.terms}, {0: other.terms}, 0, self.nvars)
            return out.get(0, Poly.zero(self.nvars))
        out = {}
        bterms = list(other.terms.items())
        for ka, va in self.terms.items():
            for kb, vb in bterms:
                k = tuple(map(add, ka, kb))
                c = out.get(k)
                out[k] = va * vb if c is None else c + va * vb
        return Poly(out, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def map_coefficients(self, fn):
        return Poly({k: fn(v) for k, v in self.terms.items()}, self.nvars)

    def degree(self):
        return max((sum(k) for k in self.terms), default=-1)

    def homogeneous_component(self, d):
        return Poly({k: v for k, v in self.terms.items() if sum(k) == d}, self.nvars)

    def homogeneous_split(self):
        out = {}
        for k, v in self.terms.items():
            out.setdefault(sum(k), {})[k] = v
        return {d: Poly(t, self.nvars) for d, t in sorted(out.items())}

    def is_homogeneous(self, d=None):
        degs = {sum(k) for k in self.terms}
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
        out = {}
        for k, v in self.terms.items():
            c = v
            if k[j]:
                c = c * value ** k[j]
            key = k[:j] + (0,) + k[j + 1 :]
            prev = out.get(key)
            c2 = c if prev is None else prev + c
            if c2:
                out[key] = c2
            else:
                out.pop(key, None)
        return Poly(out, self.nvars)

    def drop_last_variable(self):
        """Forget the final variable (which must not occur)."""
        out = {}
        for k, v in self.terms.items():
            if k[-1]:
                raise ValueError("last variable still occurs")
            out[k[:-1]] = v
        return Poly(out, self.nvars - 1)

    def substitute_linear(self, images):
        """Substitute variable j -> images[j] (a Poly), ring homomorphism."""
        out = Poly.zero(images[0].nvars if images else self.nvars)
        for k, v in self.terms.items():
            term = Poly.const(v, out.nvars)
            for j, e in enumerate(k):
                for _ in range(e):
                    term = term * images[j]
            out = out + term
        return out

    def divide_exact(self, q):
        """Exact quotient self/q over the coefficient ring, else None.

        A quotient step whose ``int`` coefficient the divisor's ``int``
        leading coefficient divides stays an ``int`` (always, for a primitive
        divisor of an integral multiple); any other step multiplies by the
        exact inverse of that leading coefficient.
        """
        if not q.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return Poly.zero(self.nvars)
        rem = dict(self.terms)
        lead_q = max(q.terms)
        cq = q.terms[lead_q]
        try:
            inv = cq.inverse() if isinstance(cq, YFrac) else Fraction(1) / cq
        except ArithmeticError:
            return None
        integral = type(cq) is int
        quot = {}
        while rem:
            lead_r = max(rem)
            if any(x < y for x, y in zip(lead_r, lead_q)):
                return None
            r = rem[lead_r]
            if integral and type(r) is int and not r % cq:
                qc = r // cq
            else:
                qc = inv * r
            qk = tuple(x - y for x, y in zip(lead_r, lead_q))
            quot[qk] = qc
            for bk, bc in q.terms.items():
                k = tuple(x + y for x, y in zip(qk, bk))
                c = rem.get(k, None)
                c = -qc * bc if c is None else c - qc * bc
                if c:
                    rem[k] = c
                else:
                    rem.pop(k, None)
        return Poly(quot, self.nvars)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in sorted(self.terms.items(), reverse=True):
            mono = "*".join(f"x{j}^{e}" if e > 1 else f"x{j}" for j, e in enumerate(k) if e)
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
        cap = min(self.cap, other.cap)
        a = {d: p.terms for d, p in self.comps.items()}
        b = {d: p.terms for d, p in other.comps.items()}
        if _has_yfrac(*a.values(), *b.values()):
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
        c0 = self.component(0)
        if len(c0.terms) != 1 or (0,) * self.nvars not in c0.terms:
            raise ArithmeticError("constant term is not a unit")
        c = c0.terms[(0,) * self.nvars]
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
