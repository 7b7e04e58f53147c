import json
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubmc
from long_division_reference import line_sum_division, long_division
from schubmc import _kernel_py, root_system
from schubmc._kernel_py import HALF, pack, unpack
from schubmc.laurent import (
    FactoredFraction,
    LaurentPolynomial,
    YPolynomial,
    check_log_concave,
    check_unimodal,
    divide_exact,
    factor_polynomial,
    has_internal_zeros,
    one_minus_e,
    one_plus_ye,
    product_of_factors,
)


# -- reference models: the tuple-keyed arithmetic that packed keys replaced -----


def ref_lp_mul(a, b):
    """Product of {(exponent tuple, y power): c} dicts."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (ea, ya), ca in a.items():
        for (eb, yb), cb in b.items():
            k = (tuple(x + y for x, y in zip(ea, eb)), ya + yb)
            c = out.get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def ref_divide_binomial(a, b):
    """Quotient a/b for b = c0 X^k0 + c1 X^k1 with c0, c1 = +-1, else None.

    With c = c0 c1 and v = k1 - k0, b = c0 X^k0 (1 + c X^v).  The terms of a
    fall on lines k = base + t v; on each line the quotient by 1 + c X^v is
    the running sum q_t = a_t - c q_{t-1}, and it is exact iff the line's
    signed sum, sum_t (-c)^t a_t, is zero.  Every line's sum is checked
    before any quotient term is built.
    """
    if not a:
        return {}
    ((e0, y0), c0), ((e1, y1), c1) = b.items()
    ve = tuple(map(sub, e1, e0))
    vy = y1 - y0
    r = -c0 * c1
    # a term's place t on its line is read off one coordinate where v is nonzero
    j = None if vy else next(i for i, w in enumerate(ve) if w)
    vj = vy if vy else ve[j]
    shifts = {}
    lines = {}
    for (e, yp), c in a.items():
        t = (yp if j is None else e[j]) // vj
        if t:
            s = shifts.get(t)
            if s is None:
                s = shifts[t] = tuple([t * w for w in ve])
            base = (tuple(map(sub, e, s)), yp - t * vy)
        else:
            base = (e, yp)
        line = lines.get(base)
        if line is None:
            lines[base] = {t: c}
        else:
            line[t] = c
    for line in lines.values():
        if r == 1:
            signed = sum(line.values())
        else:
            signed = sum(-c if t & 1 else c for t, c in line.items())
        if signed:
            return None
    out = {}
    for (be, by), line in lines.items():
        lo, hi = min(line), max(line)
        # the quotient by b is c0 X^-k0 times the quotient by 1 + c X^v
        ke = tuple([x - x0 + lo * w for x, x0, w in zip(be, e0, ve)])
        ky = by - y0 + lo * vy
        q = 0
        for t in range(lo, hi):
            q = line.get(t, 0) + r * q
            if q:
                out[(ke, ky)] = c0 * q
            ke = tuple(map(add, ke, ve))
            ky += vy
    return out


def packed(terms):
    return {pack(e, y): c for (e, y), c in terms.items()}


def unpacked(keys, nvars=2):
    return {unpack(k, nvars): c for k, c in keys.items()}


def fits(terms):
    return all(abs(x) < HALF for e, y in terms for x in (*e, y))


def L(terms, nvars=2):
    return LaurentPolynomial(dict(terms), nvars)


exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
term_keys = st.tuples(exps, st.integers(-2, 3))
polys = st.dictionaries(term_keys, st.integers(-9, 9).filter(bool), max_size=6).map(
    lambda d: L(d)
)


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    one = LaurentPolynomial.const(1, 2)
    assert p * one == p
    assert p + (-p) == LaurentPolynomial.zero(2)


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_star_involution(p, q):
    assert p.star().star() == p
    assert (p * q).star() == p.star() * q.star()
    assert (p + q).star() == p.star() + q.star()


def kernel_divisor(q):
    """A monomial, or a binomial with coefficients +-1: the divisors of the kernel."""
    return len(q.packed) == 1 or (len(q.packed) == 2 and all(c in (1, -1) for c in q.packed.values()))


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divide_exact_roundtrip(p, q):
    # the reference long division takes any divisor; the kernel refuses all but its own
    if not q:
        return
    prod = p * q
    assert long_division(prod.packed, q.packed, 2) == p.packed
    if kernel_divisor(q):
        assert divide_exact(prod, q) == p
    else:
        with pytest.raises(ValueError):
            divide_exact(prod, q)


factor_keys = st.one_of(
    st.just(("opy", (0, 0))),  # 1 + y
    st.tuples(st.just("opy"), exps),
    st.tuples(st.just("om"), exps.filter(any)),
)


@given(polys, factor_keys, st.integers(0, 2), term_keys, st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_binomial_division_matches_kernel(p, key, power, shift, sign):
    # the kernel's line sums and the reference long division against the
    # tuple-keyed line sums, on p, p*f and p*f*f;
    # the shifted divisor sign*X^shift*f exercises the monomial normalization
    f = factor_polynomial(key)
    g = f * L({shift: sign})
    for b in (f, g):
        a = p
        for _ in range(power):
            a = a * b
        want = ref_divide_binomial(a.terms, b.terms)
        assert long_division(a.packed, b.packed, 2) == (None if want is None else packed(want))
        assert _kernel_py.lp_divide_exact(a.packed, b.packed, 2) == (
            None if want is None else packed(want)
        )
        got = divide_exact(a, b)
        assert (got is None) if want is None else (got.terms == want)
        assert divide_exact(p * b, b) == p


# a line of a dividend: its terms' places t along the divisor's direction,
# sparse, so that most lines have gaps
line_places = st.dictionaries(st.integers(-3, 6), st.integers(-9, 9).filter(bool), max_size=4)


@given(
    st.lists(st.tuples(term_keys, line_places), max_size=3),
    factor_keys,
    st.one_of(st.none(), st.tuples(term_keys, st.sampled_from([1, -1]))),
    term_keys,
    st.integers(-9, 9).filter(bool),
)
@settings(max_examples=200, deadline=None)
def test_line_sweep_matches_two_pass_division(lines, key, shift, stray, c):
    # the kernel's one sweep per line against the two-pass line sums, as
    # dicts with None included: on sparse lines q along the divisor's
    # direction (exact or not, one-term lines among them), on the exact
    # product q*b, which has the gaps of q, and on q*b plus one stray term
    # (never exact); 1 - e^mu has r = 1 and 1 + y e^mu has r = -1, and the
    # shifted divisor exercises the monomial normalization
    f = factor_polynomial(key)
    b = f if shift is None else f * L({shift[0]: shift[1]})
    ((e0, y0), _), ((e1, y1), _) = f.terms.items()
    q = L({})
    for (e, y), line in lines:
        q = q + L({
            (tuple(x + t * (x1 - x0) for x, x0, x1 in zip(e, e0, e1)), y + t * (y1 - y0)): ct
            for t, ct in line.items()
        })
    exact = q * b
    near = exact + L({stray: c})
    for a in (q, exact, near, L({stray: c})):
        got = _kernel_py.lp_divide_exact(a.packed, b.packed, 2)
        assert got == line_sum_division(a.packed, b.packed, 2)
        if a is exact:
            assert got == q.packed
        elif a is near or len(a.packed) == 1:
            assert got is None


def test_fraction_reduce_single_pass_is_complete():
    f1 = one_minus_e((2, -1))
    f2 = one_plus_ye((-1, 0))
    f3 = one_minus_e((1, 1))
    for p in (L({((1, 0), 0): 2, ((0, 1), 1): -1, ((0, 0), 0): 3}), factor_polynomial(f3)):
        for num_factors, den in [
            ((f1, f1, f2), (f1, f2, f2)),
            ((f2, f1, f2), (f1, f1, f2, f2)),
            ((f3, f1), (f2, f3, f1, f1, f3)),
            ((), (f2, f1, f2)),
        ]:
            x = FactoredFraction(p * product_of_factors(num_factors, 2), den)
            r = x.reduce()
            assert r == x
            assert r.reduce().den == r.den
            assert all(divide_exact(r.num, factor_polynomial(f)) is None for f in r.den)


def test_kernels_agree():
    a = {((1, 0), 0): 2, ((0, -1), 1): -3, ((0, 0), 0): 1}
    b = {((-1, 2), -1): 4, ((0, 0), 1): 7}
    kernel = _kernel_py
    pa, pb = packed(a), packed(b)
    # add, neg and scale never look inside a key: the tuple dicts are their model
    assert unpacked(kernel.lp_add(pa, pb)) == kernel.lp_add(a, b)
    assert unpacked(kernel.lp_mul(pa, pb)) == ref_lp_mul(a, b)
    assert unpacked(kernel.lp_neg(pa)) == kernel.lp_neg(a)
    assert unpacked(kernel.lp_scale(pa, -5)) == kernel.lp_scale(a, -5)
    # a general divisor goes to the reference long division; the kernel divides by a monomial
    prod = kernel.lp_mul(pa, pb)
    assert long_division(prod, pb, 2) == pa
    mono = packed({((-1, 2), -1): -4})
    assert kernel.lp_divide_exact(kernel.lp_mul(pa, mono), mono, 2) == pa
    assert kernel.lp_divide_exact({0: 3}, {0: 2}, 2) is None


digits = st.integers(-HALF + 1, HALF - 1)
RANK2 = {t: root_system(t, 2) for t in ("A", "B", "G")}


@given(st.lists(digits, max_size=8), digits)
@settings(max_examples=200, deadline=None)
def test_pack_unpack_round_trip(exps, ypow):
    assert unpack(pack(exps, ypow), len(exps)) == (tuple(exps), ypow)
    for bad in (HALF, -HALF):
        with pytest.raises(OverflowError):
            pack(exps + [bad], ypow)
        with pytest.raises(OverflowError):
            pack(exps, bad)


y_terms = st.dictionaries(
    st.tuples(exps, st.integers(-3, 6)), st.integers(-(2**100), 2**100).filter(bool), max_size=8
)


@given(y_terms, st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_y_image_round_trip(terms, below, extra):
    # any offset at most the least y power, any width with every coefficient
    # below 2^(S-1): one integer per x-monomial, read back digit for digit
    p = L(terms)
    off = min((y for _, y in terms), default=0) - below
    S = max((abs(c).bit_length() for c in terms.values()), default=0) + 1 + extra
    img = p.y_image(S, off)
    want = {}
    for (e, y), c in terms.items():
        k = pack(e, 0)
        want[k] = want.get(k, 0) + c * 2 ** (S * (y - off))
    assert img.packed == want and all(want.values())
    assert img.y_decoded(S, off, max(6, -off)) == p


@pytest.mark.parametrize("mode", ["other", "overlap", "same"])
@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_sub_adds_the_negation(mode, p, q):
    b = {"other": q, "overlap": p + q, "same": p}[mode]
    a_terms, b_terms = dict(p.packed), dict(b.packed)
    got = _kernel_py.lp_sub(p.packed, b.packed)
    assert got == _kernel_py.lp_add(p.packed, _kernel_py.lp_neg(b.packed))
    assert all(got.values()) and (mode != "same" or got == {})
    assert p.packed == a_terms and b.packed == b_terms
    assert p - b == p + (-b)


@given(st.lists(st.tuples(st.tuples(digits, digits), digits), max_size=8, unique=True), polys)
@settings(max_examples=200, deadline=None)
def test_packed_order_is_lex_order(monos, p):
    assert [unpack(k, 2) for k in sorted(pack(e, y) for e, y in monos)] == sorted(monos)
    assert [k for k, _ in p.sorted_terms()] == sorted(p.terms, reverse=True)


@pytest.mark.parametrize("lie_type", sorted(RANK2))
@given(p=polys, data=st.data())
@settings(max_examples=60, deadline=None)
def test_weyl_map_matches_tuple_route(lie_type, p, data):
    w = data.draw(st.sampled_from(RANK2[lie_type].weyl_group()))
    got = p.weyl_map(w)
    assert got.terms == {(w.act(e), y): c for (e, y), c in p.terms.items()}
    assert got.weyl_map(w.inverse()) == p


def check_no_carry(compute, want):
    """compute() raises OverflowError or returns want, and raises if want is out of range."""
    try:
        got = compute()
    except OverflowError:
        return
    assert fits(want) and got.terms == want


edge = st.one_of(
    st.integers(HALF - 4, HALF - 1), st.integers(-HALF + 1, -HALF + 4), st.integers(-3, 3)
)
edge_terms = st.dictionaries(
    st.tuples(st.tuples(edge, edge), edge), st.integers(-9, 9).filter(bool), min_size=1, max_size=4
)
divisors = st.one_of(
    st.tuples(factor_keys, term_keys, st.sampled_from([1, -1])).map(
        lambda k: factor_polynomial(k[0]) * L({k[1]: k[2]})
    ),
    st.tuples(term_keys, st.integers(-3, 3).filter(bool)).map(lambda k: L({k[0]: k[1]})),
)


@given(edge_terms, edge_terms, divisors, st.sampled_from([HALF, HALF + 1, -HALF, -HALF - 1]), st.data())
@settings(max_examples=200, deadline=None)
def test_no_carry_past_digit_range(a, b, d, big, data):
    # products, quotients and Weyl images near the edge of the digit range
    check_no_carry(lambda: L(a) * L(b), ref_lp_mul(a, b))
    w = data.draw(st.sampled_from(RANK2[data.draw(st.sampled_from(sorted(RANK2)))].weyl_group()))
    check_no_carry(lambda: L(a).weyl_map(w), {(w.act(e), y): c for (e, y), c in a.items()})
    num = ref_lp_mul(a, d.terms)
    if fits(num):
        check_no_carry(lambda: divide_exact(L(num), d), a)
    # a quotient with a digit out of range, of a dividend and divisor inside it
    num = ref_lp_mul({**a, ((big, 0), 0): 1}, d.terms)
    if fits(num):
        with pytest.raises(OverflowError):
            divide_exact(L(num), d)


def test_digit_range_edge():
    top = LaurentPolynomial.e((HALF - 2, 0))
    assert (top * LaurentPolynomial.e((1, 0))).terms == {((HALF - 1, 0), 0): 1}
    with pytest.raises(OverflowError):
        top * LaurentPolynomial.e((2, 0))
    with pytest.raises(OverflowError):
        divide_exact(LaurentPolynomial.e((-HALF + 1, 0)), LaurentPolynomial.e((1, 0)))
    with pytest.raises(OverflowError):
        LaurentPolynomial.e((HALF, 0))
    # without a constant term in the divisor, a quotient digit can pass the dividend's
    q = divide_exact(LaurentPolynomial.e((-HALF + 10, 0)), LaurentPolynomial.e((5, 0)))
    assert q.terms == {((-HALF + 5, 0), 0): 1}
    with pytest.raises(OverflowError):
        q * LaurentPolynomial.e((-6, 0))


def test_divide_exact_refuses_other_divisors():
    # the kernel divides only by a monomial or a binomial with coefficients +-1
    one = LaurentPolynomial.const(1, 2)
    e = LaurentPolynomial.e
    p = (one - e((1, 0))) * (one + e((0, 1)) + e((1, 1)))
    for q in (one + e((0, 1)) + e((1, 1)), one + 2 * e((1, 0)), 2 * one - e((1, 0))):
        with pytest.raises(ValueError):
            schubmc.divide_exact(p * q, q)
    assert schubmc.divide_exact(p, one - e((1, 0))) == one + e((0, 1)) + e((1, 1))


def test_monomial_quotient_out_of_range():
    # a monomial quotient is a key shift, bounded like a product
    top = HALF - 1
    y = LaurentPolynomial.y(2)
    cases = [
        (L({((top, 0), 0): 3}), L({((-1, 0), 0): 1})),
        (L({((0, 0), -top): 1, ((1, 1), 0): 2}), y),
        (L({((2, -top), 1): 6}), L({((-2, 1), 0): -2})),
    ]
    for p, q in cases:
        with pytest.raises(OverflowError):
            divide_exact(p, q)
    # a stale bound is tightened before the quotient is refused
    p = L({((top, 0), 0): 3}) + L({((0, 0), 0): 3}) - L({((top, 0), 0): 3})
    assert p._bound == top
    assert divide_exact(p, L({((0, 5), 1): -3})).terms == {((0, -5), -1): -1}


def test_divide_exact_examples():
    # geometric factorization in one variable
    one = LaurentPolynomial.const(1, 1)
    e = lambda k: LaurentPolynomial.e((k,))
    assert divide_exact(one - e(2) * e(2), one - e(2)) == one + e(2)
    # scalar (1+y) factor
    t = LaurentPolynomial.e((1,))
    y = LaurentPolynomial.y(1)
    sq = (one + y) * (one + y) * t
    assert divide_exact(sq, one + y) == (one + y) * t
    # non-divisibility is a signal, not an exception
    assert divide_exact(one + y, one - e(1)) is None
    # quotient with negative exponents
    assert divide_exact(e(-1), e(1)) == e(-2)


def test_y_specialize_and_substitution():
    e = lambda mu: LaurentPolynomial.e(mu)
    y = LaurentPolynomial.y(2)
    one = LaurentPolynomial.const(1, 2)
    p = one + y * e((-2, 1))
    assert p.y_specialize(0) == one
    assert (one + y).y_specialize(-1) == LaurentPolynomial.zero(2)
    q = one + (one + e((-2, 1))) * y
    assert q.y_specialize(-1) == -e((-2, 1))
    # e -> 1 collapses to the y-coefficient sequence
    prod = (one + e((-2, 1)) * y) * (one + e((-1, -1)) * y)
    assert prod.substitute_nonequivariant() == YPolynomial([1, 2, 1])


def test_fraction_reduce_preserves_value():
    f1 = one_minus_e((2, -1))
    f2 = one_plus_ye((-1, 0))
    num = product_of_factors((f1, f1, f2), 2)
    frac = FactoredFraction(num, (f1, f2, f2))
    red = frac.reduce()
    assert red == frac
    assert red.den == (f2,)
    assert frac.as_polynomial() if not red.den else True


def test_fraction_zero_factor_rejected():
    with pytest.raises(ZeroDivisionError):
        factor_polynomial(one_minus_e((0, 0)))


def test_fraction_arithmetic():
    one = LaurentPolynomial.const(1, 1)
    f = one_minus_e((2,))
    g = one_minus_e((-2,))
    a = FactoredFraction(one, (f,))
    b = FactoredFraction(one, (g,))
    s = a + b
    # 1/(1-e^a) + 1/(1-e^-a) = 1
    assert s == FactoredFraction(one)
    assert (a * b).den == tuple(sorted((f, g)))
    assert a - a == FactoredFraction.zero(1)


def test_fraction_as_polynomial_raises():
    one = LaurentPolynomial.const(1, 1)
    frac = FactoredFraction(one, (one_minus_e((2,)),))
    with pytest.raises(ArithmeticError):
        frac.as_polynomial()


def test_json_canonical_order():
    p = L({((0, 1), 0): 3, ((1, 0), 2): -1, ((0, 1), 1): 7})
    obj = p.to_json_obj()
    assert obj == sorted(obj, key=lambda t: (t["exp"], t["y"]), reverse=True)
    assert LaurentPolynomial.from_json_obj(obj, 2) == p
    json.dumps(obj)


def test_ypolynomial_basics():
    p = YPolynomial([1, 2, 0])
    assert p.coeffs == (1, 2)
    assert p.degree() == 1
    assert (p * p).coeffs == (1, 4, 4)
    assert p.evaluate(-1) == -1
    q = YPolynomial.from_dict({3: 5, 1: -1})
    assert q.offset == 1 and q.coeffs == (-1, 0, 5)
    assert has_internal_zeros(q)


@pytest.mark.parametrize(
    "coeffs,unimodal,logconcave",
    [
        ([5, 8, 6, 1], True, True),
        ([6, 18, 26, 11, 5, 1], True, False),
        ([1, 3, 2, 4], False, False),
        ([1], True, True),
        ([], True, True),
    ],
)
def test_unimodal_log_concave(coeffs, unimodal, logconcave):
    p = YPolynomial(coeffs)
    assert check_unimodal(p) == unimodal
    assert check_log_concave(p) == logconcave
