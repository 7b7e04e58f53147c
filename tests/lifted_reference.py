"""Lifted-polynomial helpers kept as reference models.

A ``Poly`` with ``YFrac`` coefficients is lifted: one integer polynomial in
the variables and y over D (1+y)^K (see ``schubmc.polyring``).  Its series
products and the Horner loop of ``times_series_of_linear`` pack each
x-monomial's y-polynomial into one integer (Kronecker substitution in y) and
multiply those.  Before that, the kernel multiplied the lifted terms one
(x, y) term pair at a time; ``series_product`` and ``times_series_of_linear``
are those term-by-term routes, kept so that the packed products can be
checked against them.  Each returns its result in the lifted normal form, so
the two routes compare as stored terms, D and K.

``divide_by_one_plus_y`` (a ``YFrac`` over one more power of 1 + y) and
``drop_last_variable`` (a ``Poly`` with its last, absent, variable dropped)
had test callers only, and live here too.
"""

from schubmc import _kernel_py as kernel
from schubmc._kernel_py import HALF, MASK, WIDTH
from schubmc.polyring import (
    _by_degree,
    _lifted,
    _lifted_product,
    _make,
    _mul_one_plus_y_power,
    _normal,
    _over_common,
    _parts,
    _poly,
    _series,
    _y_terms,
)


def divide_by_one_plus_y(x, power=1):
    """The YFrac x / (1+y)^power."""
    return _make(list(x._n), x._d, x.k + power)


def drop_last_variable(p):
    """Forget the final variable of a Poly (which must not occur)."""
    if not p.nvars:
        raise ValueError("no variable to drop")
    out = {}
    for k, v in p._t.items():
        if (k >> WIDTH) & MASK:
            raise ValueError("last variable still occurs")
        # a lifted key's y digit moves down with the variables above it
        out[(k >> 2 * WIDTH << WIDTH) + (k & MASK)] = v
    return _poly(out, p.nvars - 1, p._bound, p._d, p._k)


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
    """a * b for GradedSeries, at least one lifted, below the lesser cap."""
    cap = min(a.cap, b.cap)
    pa, pb = _lifted(a.poly), _lifted(b.poly)
    t = truncated_product(pa._t, pb._t, cap)
    return _series(_lifted_product(pa, pb, t, max(cap, 0), False), cap)


def times_series_of_linear(s, coeff_list, linear, cap):
    """s * sum_k c_k L^k below min(cap, s.cap): Horner's rule on the lifted
    terms, one kernel product by L's numerator and one by a y-polynomial per
    step, normalized once."""
    cap = min(cap, s.cap)
    if cap >= HALF:
        raise OverflowError("a product degree could leave the packing range")
    p, lin = _lifted(s.poly), _lifted(linear)
    nvars = p.nvars
    m = min(cap, len(coeff_list) - 1)
    ns, D, K = _over_common([_parts(c) for c in coeff_list[: m + 1]])
    ys = []
    for k, n in enumerate(ns):
        e = m - k
        if n and lin._k:
            n = _mul_one_plus_y_power(n, lin._k * e)
        ys.append(_y_terms([x * lin._d**e for x in n], nvars))
    blocks = _by_degree(p._t)
    low = {}
    for d, block in blocks.items():
        if d < cap - m:
            low.update(block)
    out = {}
    for k in range(m, -1, -1):
        if out:
            out = kernel.lp_mul(out, lin._t)
        block = blocks.get(cap - k)
        if block:
            low.update(block)
        if ys[k] and low:
            kernel.lp_mul(low, ys[k], out)
    d, k = p._d * D * lin._d**m, p._k + K + lin._k * m
    return _series(_normal(out, d, k, nvars, max(cap, 0)), cap)
