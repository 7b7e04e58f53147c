"""The general exact division of ``Poly``, kept as a reference model.

``Poly.divide_exact`` divides by a divisor of degree one only, by synthetic
division in its leading variable.  This module keeps the two eliminations it
replaced, which divide by any polynomial: the lex leading-term loop over
``int`` and ``Fraction`` coefficients, and the heap-ordered loop on the
integer numerators of lifted polynomials, in the y layout of
``lifted_reference`` (over D (1+y)^K, 1 + y cancelled by the kernel's
binomial division), read from and written back to a ``Poly`` at the y edge
of ``YFrac``.  The differential test in
``test_polyring.py`` checks the one division against them, and the reference
localization routes in ``test_localization_routes.py`` and
``test_cohomology.py`` divide their common-denominator sums by products of
Euler classes with them, so those routes stay independent of the production
division.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from lifted_reference import (
    cancel_one_plus_y,
    divide_one_plus_y,
    lift,
    normal,
    one_plus_y_power,
    y_shift,
)
from schubmc import _kernel_py as _impl
from schubmc._kernel_py import HALF, MASK, digit_offset
from schubmc.polyring import Poly, _poly, _same_nvars, _series


def divide_exact(a, q):
    """Exact quotient a/q over the coefficient ring, else None, for any q.

    Lex leading-term elimination on the keys.  The leading exponent of the
    remainder is divisible by that of q exactly when no digit of their
    difference borrows, which a guard bit above each digit tests in one
    subtraction.  A quotient step whose ``int`` coefficient the divisor's
    ``int`` leading coefficient divides stays an ``int``; any other step
    multiplies by the exact inverse of that leading coefficient.  A lifted
    operand divides on the numerators (``lifted_quotient``).
    """
    _same_nvars(a, q)
    if not q._t:
        raise ZeroDivisionError("division by the zero polynomial")
    if a._d is not None or q._d is not None:
        quot = lifted_quotient(lift(a), lift(q), HALF - q._tighten())
        return None if quot is None else quot.to_poly()
    if not a._t:
        return Poly.zero(a.nvars)
    rem = dict(a._t)
    lead_q = max(q._t)
    cq = q._t[lead_q]
    inv = Fraction(1) / cq
    integral = type(cq) is int
    # the leading term of the remainder cancels exactly at each step
    tail = [(k, -c) for k, c in q._t.items() if k != lead_q]
    guard = digit_offset(a.nvars + 1)
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
    return _poly(quot, a.nvars, a._bound)


def lifted_quotient(a, q, room):
    """a / q for ``lifted_reference.YLifted`` a and q, or None when q does not
    divide a; no quotient term may reach the degree ``room``.

    The divisor's leading coefficient in the variables must be a unit of
    Q[y, (1+y)^-1], c (1+y)^m.  Its numerator is written (1+y)^m g P with g
    an integer and P primitive and prime to 1 + y.  Then a / q is (a's
    numerator / P) over a D (1+y)^K read off the parts, and by Gauss's lemma
    the leading-term elimination (lex, y first, its keys kept in a heap) runs
    on integers; a step that the leading coefficient of P does not divide
    proves q does not divide a.  The result is normalized once.
    """
    nvars = a.nvars
    if not a.t:
        return normal({}, 1, 0, nvars, a.bound)
    tq = q.t
    sh = y_shift(nvars)
    mask = (1 << sh) - 1
    lead_x = max(k & mask for k in tq)
    ys = {k >> sh: c for k, c in tq.items() if k & mask == lead_x}
    lead = [ys.get(i, 0) for i in range(max(ys) + 1)]
    while len(lead) > 1:
        lead = divide_one_plus_y(lead)
        if lead is None:
            return None
    tq, m = cancel_one_plus_y(tq, None, nvars)
    g = gcd(*tq.values())
    if g != 1:
        tq = {k: c // g for k, c in tq.items()}
    rem = dict(a.t)
    lead_q = max(tq)
    cq = tq[lead_q]
    tail = [(k, -c) for k, c in tq.items() if k != lead_q]
    guard = digit_offset(nvars + 2)
    get = rem.get
    heap = [-k for k in rem]
    heapify(heap)
    quot = {}
    while heap:
        lead_r = -heappop(heap)
        r = rem.pop(lead_r, None)
        if r is None:
            continue
        if ((lead_r | guard) - lead_q) & guard != guard:
            return None
        qc, bad = divmod(r, cq)
        if bad:
            return None
        qk = lead_r - lead_q
        if qk & MASK >= room:
            raise OverflowError("a remainder degree could leave the packing range")
        quot[qk] = qc
        for bk, bc in tail:
            k = qk + bk
            c = get(k)
            if c is None:
                rem[k] = qc * bc
                heappush(heap, -k)
            elif c := c + qc * bc:
                rem[k] = c
            else:
                del rem[k]
    k = a.k + m - q.k
    if k < 0:
        quot, k = _impl.lp_mul(quot, one_plus_y_power(-k, nvars)), 0
    if q.d != 1:
        quot = _impl.lp_scale(quot, q.d)
    return normal(quot, a.d * g, k, nvars, a.bound)


def series_divide_exact(s, q):
    """``GradedSeries.divide_exact`` by any homogeneous q, on ``divide_exact``:
    the quotient's cap is lowered by the degree of q."""
    if not q.is_homogeneous():
        raise ValueError("divisor must be homogeneous")
    r = divide_exact(s.poly, q)
    if r is None:
        return None
    return _series(r, s.cap - q.degree())
