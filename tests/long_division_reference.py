"""Long division of Laurent polynomials, kept as a reference model.

Before the kernel's one division was the line sum of a binomial or monomial
divisor, ``_kernel_py`` also divided by any divisor through lex leading-term
elimination on unpacked exponent tuples.  No production divisor needs it:
every denominator is a binomial ``1 - e^mu`` or ``1 + y e^mu``.  The tests in
``test_laurent.py`` check the kernel division against it, and the round trip
of general divisors runs on it.
"""

from schubmc._kernel_py import digits, pack


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
