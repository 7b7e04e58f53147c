import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubmc import _kernel_py, laurent
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

KERNELS = [_kernel_py]
try:
    from schubmc import _kernel_cy

    KERNELS.append(_kernel_cy)
except ImportError:
    pass


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


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divide_exact_roundtrip(p, q):
    if not q:
        return
    prod = p * q
    got = divide_exact(prod, q)
    assert got is not None and got == p


factor_keys = st.one_of(
    st.just(("opy", (0, 0))),  # 1 + y
    st.tuples(st.just("opy"), exps),
    st.tuples(st.just("om"), exps.filter(any)),
)


@given(polys, factor_keys, st.integers(0, 2), term_keys, st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_binomial_division_matches_kernel(p, key, power, shift, sign):
    # the binomial route against the general kernel division, on p, p*f and p*f*f;
    # the shifted divisor sign*X^shift*f exercises the monomial normalization
    f = factor_polynomial(key)
    g = f * L({shift: sign})
    for b in (f, g):
        a = p
        for _ in range(power):
            a = a * b
        want = _kernel_py.lp_divide_exact(a.terms, b.terms)
        assert laurent._divide_binomial(a.terms, b.terms) == want
        got = divide_exact(a, b)
        assert (got is None) if want is None else (got.terms == want)
        assert divide_exact(p * b, b) == p


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


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__.rsplit("_", 1)[-1])
def test_kernels_agree(kernel):
    a = {((1, 0), 0): 2, ((0, -1), 1): -3, ((0, 0), 0): 1}
    b = {((-1, 2), -1): 4, ((0, 0), 1): 7}
    ref = _kernel_py
    assert kernel.lp_add(a, b) == ref.lp_add(a, b)
    assert kernel.lp_mul(a, b) == ref.lp_mul(a, b)
    assert kernel.lp_neg(a) == ref.lp_neg(a)
    assert kernel.lp_scale(a, -5) == ref.lp_scale(a, -5)
    prod = ref.lp_mul(a, b)
    assert kernel.lp_divide_exact(prod, b) == a
    assert kernel.lp_divide_exact({((0, 0), 0): 3}, {((0, 0), 0): 2}) is None


def test_backend_swap_roundtrip():
    current = laurent.BACKEND
    for name in laurent.available_backends():
        laurent.use_backend(name)
        p = L({((1, 1), 0): 1}) * L({((-1, 0), 2): 3})
        assert p == L({((0, 1), 2): 3})
    laurent.use_backend(current)
    with pytest.raises(ValueError):
        laurent.use_backend("nope")


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
