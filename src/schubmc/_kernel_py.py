"""Exact Laurent-polynomial term arithmetic on packed monomial keys.

Terms are dicts mapping a key to a nonzero integer coefficient.  The key of
e^(e_1, ..., e_n) y^k is e_1 B^n + ... + e_n B + k with B = 2**WIDTH, every
digit strictly inside (-HALF, HALF).  Packing is linear, so the key of a
product of monomials is the sum of their keys, and integer order is the lex
order on (e, k).  A digit out of range would carry into its neighbour:
``pack`` refuses one, and ``schubmc.laurent`` bounds the digits of every
operand so that no sum of keys can carry (packed exponent vectors,
Monagan-Pearce, CASC 2007).
"""

WIDTH = 16
BASE = 1 << WIDTH
HALF = BASE >> 1
MASK = BASE - 1


def pack(exps, ypow):
    """Key of e^exps y^ypow; OverflowError when a digit is out of range."""
    key = 0
    for d in (*exps, ypow):
        if not -HALF < d < HALF:
            raise OverflowError(f"exponent {d} outside the packing range")
        key = (key << WIDTH) + d
    return key


def digits(key, ndigits):
    """The ndigits balanced digits of a key, most significant first."""
    out = []
    for _ in range(ndigits):
        d = ((key + HALF) & MASK) - HALF
        out.append(d)
        key = (key - d) >> WIDTH
    return out[::-1]


def unpack(key, nvars):
    """(exponent tuple, y power) of a key with nvars exponent digits."""
    *e, y = digits(key, nvars + 1)
    return tuple(e), y


def ypow_of(key):
    """The y power of a key: its lowest digit."""
    return ((key + HALF) & MASK) - HALF


def digit_offset(ndigits):
    """HALF in each of the lowest ndigits digits: digit p < ndigits of a key
    is ``((key + offset) >> (p * WIDTH) & MASK) - HALF``."""
    return HALF * ((1 << (WIDTH * ndigits)) - 1) // MASK


def lp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        c = out.get(k, 0) + v
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def lp_neg(a):
    return {k: -v for k, v in a.items()}


def lp_scale(a, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def lp_mul(a, b):
    """Product of two term dicts; the caller guarantees no digit can carry."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def lp_divide_exact(a, b, nvars):
    """Quotient a/b when it is exact over the integers, else None.

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
