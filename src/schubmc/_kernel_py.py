"""Exact term arithmetic on packed monomial keys, for both polynomial types.

Terms are dicts mapping a key to a nonzero coefficient.  The key of
e^(e_1, ..., e_n) y^k is e_1 B^n + ... + e_n B + k with B = 2**WIDTH, every
digit strictly inside (-HALF, HALF).  Packing is linear, so the key of a
product of monomials is the sum of their keys, and integer order is the lex
order on (e, k).  A digit out of range would carry into its neighbour:
``pack`` refuses one, and the callers bound the digits of every operand
(``product_bound``) so that no sum of keys can carry (packed exponent
vectors, Monagan-Pearce, CASC 2007).

``laurent.LaurentPolynomial`` (integer coefficients) and ``polyring.Poly``
(``int`` or ``Fraction`` coefficients, or, lifted, integer terms over one
denominator; the total degree in the lowest digit) both run on these loops.
The loops never look at a coefficient's type: a missing key is tested with
``None`` and a zero with truth, so no coefficient meets an ``int`` 0.  A
lifted ``Poly`` holds its Hirzebruch variable as t = 1 + y: its top digit is
a power of t, so a (1+y) denominator is a negative exponent there, as a
negative exponent of e^mu is here.

One codec serves both rings, by Kronecker substitution in one digit
(``kron_pack``, ``kron_unpack``; Harvey, J. Symb. Comp. 44, 2009): each
x-monomial's polynomial in that digit, over a least power, becomes one
integer at 2^S under its key with the digit cleared, and is read back in
balanced S-bit digits.  With every coefficient below 2^(S-1) an image is
zero exactly when its polynomial is, and the loops run on images unchanged:
the y-images of ``kclasses.KTheory.expand`` (the lowest digit) and the
t-images of ``polyring``'s series products (the top digit).  Each caller
proves its S from ``l1`` bounds.

The one division, ``lp_divide_exact``, divides by a monomial or by a
binomial with coefficients +-1, the only divisors the denominators
``1 - e^mu`` and ``1 + y e^mu`` create.  By a binomial it sweeps each line of
the dividend once, and a line is exact iff the running quotient at its last
term is zero; on y-images its line sums are the images of the y-polynomials'
line sums.  A monomial with a coefficient other than +-1 divides an image's
integers, not their digits, so no such division reaches an image.
"""

from struct import Struct

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


def sorted_digits(packed, ndigits, keep):
    """Each term of ``packed`` in descending key order, as (digits,
    coefficient): a tuple of the ``keep`` most significant of the key's
    ndigits balanced digits.  Each key is unpacked once, in C: adding HALF to
    every digit leaves no borrow, and flipping each digit's top bit then
    leaves the digit in 16-bit two's complement (WIDTH is 16)."""
    off = digit_offset(ndigits)
    read = Struct(f">{keep}h{2 * (ndigits - keep)}x").unpack
    size = 2 * ndigits
    for k in sorted(packed, reverse=True):
        yield read(((k + off) ^ off).to_bytes(size, "big")), packed[k]


def ypow_of(key):
    """The y power of a key: its lowest digit."""
    return ((key + HALF) & MASK) - HALF


def digit_offset(ndigits):
    """HALF in each of the lowest ndigits digits: digit p < ndigits of a key
    is ``((key + offset) >> (p * WIDTH) & MASK) - HALF``."""
    return HALF * ((1 << (WIDTH * ndigits)) - 1) // MASK


def product_bound(a, b):
    """A digit bound of a product of a and b: the sum of their digit bounds.

    ``a`` and ``b`` carry ``_bound``, an upper bound on |digit|, and
    ``_tighten()``, which makes it exact.  OverflowError when even the exact
    bounds could let a digit of the product reach HALF.
    """
    bound = a._bound + b._bound
    if bound >= HALF:
        bound = a._tighten() + b._tighten()
        if bound >= HALF:
            raise OverflowError("a product digit could leave the packing range")
    return bound


def lp_add(a, b):
    out = dict(a)
    get = out.get
    for k, v in b.items():
        c = get(k)
        if c is None:
            out[k] = v
        elif c := c + v:
            out[k] = c
        else:
            del out[k]
    return out


def lp_sub(a, b):
    """a - b: each term of b subtracted in place from a copy of a."""
    out = dict(a)
    get = out.get
    for k, v in b.items():
        c = get(k)
        if c is None:
            out[k] = -v
        elif c := c - v:
            out[k] = c
        else:
            del out[k]
    return out


def lp_neg(a):
    return {k: -v for k, v in a.items()}


def lp_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def lp_mul(a, b, out=None):
    """Product of two term dicts, added into ``out`` (and returned) when it
    is given; the caller guarantees no digit can carry."""
    if len(a) > len(b):
        a, b = b, a
    if out is None:
        out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = get(k)
            if c is None:
                out[k] = ca * cb
            elif c := c + ca * cb:
                out[k] = c
            else:
                del out[k]
    return out


def lp_divide_exact(a, b, nvars):
    """Exact quotient a/b of integer term dicts, or None when b does not divide a.

    A monomial c0 X^k0 divides when c0 divides every coefficient, and the
    quotient is a key shift.  A binomial must be b = c0 X^k0 + c1 X^k1 with
    c0, c1 = +-1; any other divisor raises ValueError.  With c = c0 c1 and
    v = k1 - k0, b = c0 X^k0 (1 + c X^v).  The terms of a fall on lines
    k = base + t v; on each line the quotient by 1 + c X^v is the running sum
    q_t = a_t - c q_{t-1}.  One pass over a sorts its terms into lines of
    (t, a_t), and one sweep of each sorted line emits q_t from its first
    term up to its last, through the gaps too, where q_t is constant
    (c = -1) or alternates in sign (c = 1).  The line is exact iff the
    running value at its last term is zero, so a one-term line never is.
    A failing division may stop with some quotient terms built, but it
    returns None.  All of it is arithmetic on packed keys; the caller keeps
    every quotient key and line base inside the packing range.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(b) == 1:
        ((k0, c0),) = b.items()
        if c0 not in (1, -1) and any(c % c0 for c in a.values()):
            return None
        return {k - k0: c // c0 for k, c in a.items()}
    (k0, c0), (k1, c1), *more = b.items()
    if more or c0 not in (1, -1) or c1 not in (1, -1):
        raise ValueError("the divisor is not a monomial or a binomial with coefficients +-1")
    if not a:
        return {}
    v = k1 - k0
    r = -c0 * c1
    # for 1 - X^v every line sum is plain, and the line sums add up to a(1)
    if r == 1 and sum(a.values()):
        return None
    # a term's place t on its line is read off the lowest digit where v is nonzero
    shift = 0
    while not (vj := ((v >> shift) + HALF & MASK) - HALF):
        shift += WIDTH
    off = digit_offset(nvars + 1)
    lines = {}
    for k, c in a.items():
        t = (((k + off) >> shift & MASK) - HALF) // vj
        base = k - t * v
        line = lines.get(base)
        if line is None:
            lines[base] = [(t, c)]
        else:
            line.append((t, c))
    out = {}
    for base, line in lines.items():
        line.sort()
        t, q = line[0]
        # the quotient by b is c0 X^-k0 times the quotient by 1 + c X^v
        key = base + t * v - k0
        for u, c in line[1:]:
            if u - t == 1:
                if q:
                    out[key] = c0 * q
                q = c + r * q
                key += v
            elif q:
                # in a gap a_t = 0, so q_t = r q_{t-1}; q carries c0 here
                q *= c0
                for _ in range(u - t):
                    out[key] = q
                    q *= r
                    key += v
                q = c + c0 * q
            else:
                key += (u - t) * v
                q = c
            t = u
        if q:
            return None
    return out


def l1(terms):
    """The sum of the absolute values of a term dict's coefficients."""
    return sum(map(abs, terms.values()))


def kron_pack(terms, sh, S, off):
    """The image of integer terms at 2^S in the digit at bit offset sh, over
    its power off, as {x-key: N}.

    Each x-monomial's polynomial sum_e n_e z^e in that digit becomes the one
    integer N = sum_e n_e 2^(S (e - off)), keyed by the term's key with the
    digit cleared.  The digit is a Laurent y (sh = 0: the lowest digit, under
    balanced x digits) or a lifted t (sh > 0: the top digit, over x digits
    that are nonnegative).  Either way (key + HALF 2^sh) & field is (e +
    HALF) 2^sh, with field the digit's own bits for y and every bit from sh
    up for t, so a power of t is read whole, never out of range.  The caller
    keeps off at most every power and every |n_e| below 2^(S-1), so N is
    zero exactly when its polynomial is.
    """
    field = (MASK if not sh else -1) << sh
    bias = HALF << sh
    lead = HALF + off
    out = {}
    get = out.get
    for k, c in terms.items():
        k += bias
        f = k & field
        n = c << S * ((f >> sh) - lead)
        x = k - f
        prev = get(x)
        out[x] = n if prev is None else prev + n
    return out


def kron_unpack(packed, sh, S, off):
    """The integer terms whose image at 2^S in the digit at bit offset sh,
    over its power off, is {x-key: N} (``kron_pack``): each N read in
    balanced S-bit digits, the lowest at power off."""
    half = 1 << (S - 1)
    mask = (1 << S) - 1
    step, base = 1 << sh, off << sh
    out = {}
    for k, n in packed.items():
        k += base
        while n:
            c = n & mask
            n >>= S
            if c >= half:
                c -= mask + 1
                n += 1
            if c:
                out[k] = c
            k += step
    return out
