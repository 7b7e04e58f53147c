"""Two earlier divisions of Laurent polynomials, kept as reference models.

Before the kernel's one division was the line sum of a binomial or monomial
divisor, ``_kernel_py`` also divided by any divisor through lex leading-term
elimination on unpacked exponent tuples (``long_division``).  No production
divisor needs it: every denominator is a binomial ``1 - e^mu`` or
``1 + y e^mu``.  Before the kernel swept each line once, it walked each line
twice: once for the line's signed sum, and, when every sum was zero, once
more for the quotient (``line_sum_division``).  The tests in
``test_laurent.py`` check the kernel division against both, and the round
trip of general divisors runs on ``long_division``.
"""

from schubmc._kernel_py import HALF, MASK, WIDTH, digit_offset, digits, pack


def long_division(a, b, nvars):
    """Quotient a/b of packed term dicts when it is exact over the integers, else None.

    The keys are unpacked at the boundary.  Laurent divisibility reduces to
    polynomial divisibility after pulling the monomial content out of each
    operand: per-variable minimum orders of a product add, so the normalized
    quotient has no negative exponents.  Division is lex leading-term
    elimination; any failed coefficient or exponent step certifies
    non-divisibility.  A quotient digit out of range raises OverflowError.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    nv = nvars + 1
    akeys = [digits(k, nv) for k in a]
    bkeys = [digits(k, nv) for k in b]
    ma = [min(k[i] for k in akeys) for i in range(nv)]
    mb = [min(k[i] for k in bkeys) for i in range(nv)]
    rem = {tuple(k[i] - ma[i] for i in range(nv)): c for k, c in zip(akeys, a.values())}
    div = {tuple(k[i] - mb[i] for i in range(nv)): c for k, c in zip(bkeys, b.values())}
    lead_b = max(div)
    cb = div[lead_b]
    quot = {}
    while rem:
        lead_a = max(rem)
        ca = rem[lead_a]
        if ca % cb:
            return None
        qk = tuple(x - y for x, y in zip(lead_a, lead_b))
        if any(x < 0 for x in qk):
            return None
        qc = ca // cb
        quot[qk] = qc
        for bk, bc in div.items():
            k = tuple(x + y for x, y in zip(qk, bk))
            c = rem.get(k, 0) - qc * bc
            if c:
                rem[k] = c
            else:
                rem.pop(k, None)
    off = [ma[i] - mb[i] for i in range(nv)]
    return {
        pack([q[i] + off[i] for i in range(nvars)], q[nvars] + off[nvars]): c
        for q, c in quot.items()
    }


def line_sum_division(a, b, nvars):
    """Exact quotient a/b of packed term dicts for a monomial or a +-1
    binomial divisor, or None, by two passes over each line.

    With b = c0 X^k0 (1 + c X^v), the terms of a fall on lines
    k = base + t v, and on each line the quotient by 1 + c X^v is the running
    sum q_t = a_t - c q_{t-1}.  The first pass checks that every line's
    signed sum, sum_t (-c)^t a_t, is zero; only then does the second build
    the quotient, from each line's least t to its greatest.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(b) == 1:
        ((k0, c0),) = b.items()
        if any(c % c0 for c in a.values()):
            return None
        return {k - k0: c // c0 for k, c in a.items()}
    (k0, c0), (k1, c1), *more = b.items()
    if more or c0 not in (1, -1) or c1 not in (1, -1):
        raise ValueError("the divisor is not a monomial or a binomial with coefficients +-1")
    if not a:
        return {}
    v = k1 - k0
    r = -c0 * c1
    if r == 1 and sum(a.values()):
        return None
    shift = 0
    while not (vj := ((v >> shift) + HALF & MASK) - HALF):
        shift += WIDTH
    off = digit_offset(nvars + 1)
    lines = {}
    for k, c in a.items():
        t = (((k + off) >> shift & MASK) - HALF) // vj
        lines.setdefault(k - t * v, {})[t] = c
    for line in lines.values():
        if r == 1:
            signed = sum(line.values())
        else:
            signed = sum(-c if t & 1 else c for t, c in line.items())
        if signed:
            return None
    out = {}
    for base, line in lines.items():
        lo, hi = min(line), max(line)
        key = base + lo * v - k0
        q = 0
        for t in range(lo, hi):
            q = line.get(t, 0) + r * q
            if q:
                out[key] = c0 * q
            key += v
    return out
