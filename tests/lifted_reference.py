"""The y layout of lifted polynomials, kept as a reference model.

A ``Poly`` with ``YFrac`` coefficients is lifted (see ``schubmc.polyring``):
one integer Laurent polynomial in the variables and t = 1 + y over one
positive integer D.  Before t, the lifted form was one integer polynomial in
the variables and y over D (1+y)^K, kept in a normal form where 1 + y does
not divide the numerator when K > 0.  Every sum aligned K, every normal form
cancelled 1 + y by the kernel's binomial division, and ``scale_degrees``
normalized each degree block on its own and then wrote the blocks over one
D (1+y)^K.  ``YLifted`` is that layout.  The routes below are its sums,
products, series products (one (x, y) term pair at a time, as the kernel
multiplied before any packing), Horner products and degree scaling, kept so
that the t layout can be checked against them by value and by ``packed``
views.  A ``YLifted`` is read from a ``Poly``, and written back to one,
through the y edge of ``YFrac`` alone: ``num``, ``k`` and ``YFrac(num, k)``.

``divide_by_one_plus_y`` (a ``YFrac`` over one more power of 1 + y) and
``drop_last_variable`` (a ``Poly`` with its last, absent, variable dropped)
had test callers only, and live here too.
"""

from fractions import Fraction
from math import comb, gcd, lcm

from schubmc import _kernel_py as kernel
from schubmc._kernel_py import HALF, MASK, WIDTH
from schubmc.polyring import YFrac, _by_degree, _from_coeffs, _poly, _series


def divide_by_one_plus_y(x, power=1):
    """The YFrac x / (1+y)^power."""
    return YFrac(x.num, x.k + power)


def drop_last_variable(p):
    """Forget the final variable of a Poly (which must not occur)."""
    if not p.nvars:
        raise ValueError("no variable to drop")
    out = {}
    for k, v in p._t.items():
        if (k >> WIDTH) & MASK:
            raise ValueError("last variable still occurs")
        # a lifted key's t digit moves down with the variables above it
        out[(k >> 2 * WIDTH << WIDTH) + (k & MASK)] = v
    return _poly(out, p.nvars - 1, p._bound, p._d)


# -- integer y-polynomials and (1+y) ----------------------------------------------------


def y_shift(nvars):
    """The bit offset of the y digit of a y-layout key: above every variable."""
    return WIDTH * (nvars + 1)


def divide_one_plus_y(num):
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


def mul_one_plus_y_power(num, p):
    """The integer coefficient list num times (1 + y)^p."""
    binom = [comb(p, j) for j in range(p + 1)]
    out = [0] * (len(num) + p)
    for i, c in enumerate(num):
        if c:
            for j, b in enumerate(binom, i):
                out[j] += c * b
    return out


def y_terms(n, nvars):
    """The integer y-polynomial n_0 + n_1 y + ... as y-layout terms."""
    sh = y_shift(nvars)
    return {i << sh: x for i, x in enumerate(n) if x}


def one_plus_y_power(p, nvars):
    """(1 + y)^p as y-layout terms."""
    return y_terms([comb(p, i) for i in range(p + 1)], nvars)


def cancel_one_plus_y(t, most, nvars):
    """t divided by (1 + y) while it divides, at most ``most`` times (None:
    no limit); returns the quotient and the number of factors removed."""
    sh = y_shift(nvars)
    one_plus_y = {0: 1, 1 << sh: 1}
    j = 0
    while j != most:
        # 1 + y divides t only if t vanishes at y = -1 and every variable 1
        if sum(-c if key >> sh & 1 else c for key, c in t.items()):
            break
        q = kernel.lp_divide_exact(t, one_plus_y, nvars + 1)
        if q is None:
            break
        t, j = q, j + 1
    return t, j


# -- the y layout ---------------------------------------------------------------------


class YLifted:
    """One integer polynomial ``t`` in the variables and y over d (1+y)^k."""

    __slots__ = ("t", "nvars", "bound", "d", "k")

    def __init__(self, t, nvars, bound, d, k):
        self.t, self.nvars, self.bound, self.d, self.k = t, nvars, bound, d, k

    def to_poly(self):
        """The ``Poly`` of this value, each coefficient written as ``YFrac(num, k)``."""
        if not self.t:
            return _poly({}, self.nvars, self.bound, 1)
        sh = y_shift(self.nvars)
        mask = (1 << sh) - 1
        lists = {}
        for key, c in self.t.items():
            x, i = key & mask, key >> sh
            n = lists.setdefault(x, [])
            n.extend([0] * (i + 1 - len(n)))
            n[i] = c
        d, k = self.d, self.k
        coeffs = {x: YFrac([Fraction(c, d) for c in n], k) for x, n in lists.items()}
        return _from_coeffs(coeffs, self.nvars, self.bound)


def parts(c):
    """(integer y-numerator, d, k) of an int, Fraction or YFrac, read at the y edge."""
    if isinstance(c, YFrac):
        num = c.num
        d = lcm(*(x.denominator for x in num)) if num else 1
        return [x.numerator * (d // x.denominator) for x in num], d, c.k
    c = Fraction(c)
    return [c.numerator], c.denominator, 0


def over_common(triples):
    """(numerator lists, D, K) of (n, d, k) triples, each n / (d (1+y)^k),
    all written over one D (1+y)^K: D the lcm of the d, K the largest k."""
    D = lcm(*(d for _, d, _ in triples))
    K = max((k for *_, k in triples), default=0)
    out = []
    for n, d, k in triples:
        if n and k != K:
            n = mul_one_plus_y_power(n, K - k)
        s = D // d
        out.append([x * s for x in n] if s != 1 else n)
    return out, D, K


def normal(t, d, k, nvars, bound):
    """t / (d (1+y)^k) in the y layout's normal form: 1 + y does not divide t
    when k > 0, and d shares no factor with every value of t."""
    if not t:
        return YLifted({}, nvars, bound, 1, 0)
    if k:
        t, j = cancel_one_plus_y(t, k, nvars)
        k -= j
    if d != 1:
        g = gcd(d, *t.values())
        if g != 1:
            t = {key: c // g for key, c in t.items()}
            d //= g
    return YLifted(t, nvars, bound, d, k)


def lift(p):
    """The y layout of a Poly of any coefficient type, read off ``packed``."""
    coeffs = p.packed
    ns, D, K = over_common([parts(c) for c in coeffs.values()])
    sh = y_shift(p.nvars)
    t = {}
    for key, n in zip(coeffs, ns):
        for i, x in enumerate(n):
            if x:
                t[key + (i << sh)] = x
    return normal(t, D, K, p.nvars, p._bound)


def lifted_sum(a, b):
    """a + b for Polys, on the y layout: D and K aligned, then the kernel's sum."""
    ya, yb = lift(a), lift(b)
    ta, tb, k = ya.t, yb.t, ya.k
    if k < yb.k:
        ta, k = kernel.lp_mul(ta, one_plus_y_power(yb.k - k, a.nvars)), yb.k
    elif k > yb.k:
        tb = kernel.lp_mul(tb, one_plus_y_power(k - yb.k, a.nvars))
    D = lcm(ya.d, yb.d)
    ta = {key: c * (D // ya.d) for key, c in ta.items()}
    tb = {key: c * (D // yb.d) for key, c in tb.items()}
    return normal(kernel.lp_add(ta, tb), D, k, a.nvars, max(a._bound, b._bound)).to_poly()


def lifted_product(a, b):
    """a * b for Polys, on the y layout: one kernel product over D_a D_b (1+y)^(K_a + K_b)."""
    ya, yb = lift(a), lift(b)
    t = kernel.lp_mul(ya.t, yb.t)
    return normal(t, ya.d * yb.d, ya.k + yb.k, a.nvars, a._bound + b._bound).to_poly()


def truncated_product(a, b, cap):
    """The terms of degree at most cap of the product of two term dicts,
    one kernel product per pair of degree blocks."""
    blocks = _by_degree(b).items()
    out = {}
    for da, ta in _by_degree(a).items():
        for db, tb in blocks:
            d = da + db
            if d > cap:
                continue
            if d >= HALF:
                raise OverflowError("a product degree could leave the packing range")
            kernel.lp_mul(ta, tb, out)
    return out


def series_product(a, b):
    """a * b for GradedSeries, below the lesser cap, term pair by term pair on
    the y layout."""
    cap = min(a.cap, b.cap)
    pa, pb = lift(a.poly), lift(b.poly)
    t = truncated_product(pa.t, pb.t, cap)
    return _series(normal(t, pa.d * pb.d, pa.k + pb.k, pa.nvars, max(cap, 0)).to_poly(), cap)


def times_series_of_linear(s, coeff_list, linear, cap):
    """s * sum_k c_k L^k below min(cap, s.cap): Horner's rule on the y
    layout, one kernel product by L's numerator and one by a y-polynomial per
    step, normalized once."""
    cap = min(cap, s.cap)
    if cap >= HALF:
        raise OverflowError("a product degree could leave the packing range")
    p, lin = lift(s.poly), lift(linear)
    nvars = p.nvars
    m = min(cap, len(coeff_list) - 1)
    ns, D, K = over_common([parts(c) for c in coeff_list[: m + 1]])
    ys = []
    for k, n in enumerate(ns):
        e = m - k
        if n and lin.k:
            n = mul_one_plus_y_power(n, lin.k * e)
        ys.append(y_terms([x * lin.d**e for x in n], nvars))
    blocks = _by_degree(p.t)
    low = {}
    for d, block in blocks.items():
        if d < cap - m:
            low.update(block)
    out = {}
    for k in range(m, -1, -1):
        if out:
            out = kernel.lp_mul(out, lin.t)
        block = blocks.get(cap - k)
        if block:
            low.update(block)
        if ys[k] and low:
            kernel.lp_mul(low, ys[k], out)
    d, k = p.d * D * lin.d**m, p.k + K + lin.k * m
    return _series(normal(out, d, k, nvars, max(cap, 0)).to_poly(), cap)


def scale_degrees(s, factor):
    """Each term of degree d of a GradedSeries times ``factor(d)``, on the y
    layout: each degree block is one kernel product by its factor's
    numerator, normalized on its own, so a (1+y) denominator of the factor
    cancels against that block alone; the blocks, which share no key, are
    then written over one D (1+y)^K."""
    p = lift(s.poly)
    nvars = p.nvars
    blocks = []
    for d, block in _by_degree(p.t).items():
        n, dd, k = parts(factor(d))
        if n:
            t = kernel.lp_mul(block, y_terms(n, nvars))
            blocks.append(normal(t, p.d * dd, p.k + k, nvars, d))
    D = lcm(*(b.d for b in blocks))
    K = max((b.k for b in blocks), default=0)
    out = {}
    for b in blocks:
        t = b.t
        if b.k != K:
            t = kernel.lp_mul(t, one_plus_y_power(K - b.k, nvars))
        s_ = D // b.d
        out.update({key: c * s_ for key, c in t.items()} if s_ != 1 else t)
    return _series(normal(out, D, K, nvars, p.bound).to_poly(), s.cap)
