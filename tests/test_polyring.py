from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lifted_reference as lifted_ref
import poly_division_reference as division_ref
import tuple_poly_reference as tuple_ref

from schubmc._kernel_py import HALF, WIDTH
from schubmc.polyring import (
    GradedSeries,
    Poly,
    YFrac,
    exp_linear,
    normalized_hirzebruch_coefficients,
    series_of_linear,
    times_series_of_linear,
    todd_coefficients,
    unnormalized_hirzebruch_coefficients,
)


def test_yfrac_normalization_and_ops():
    a = YFrac([1, 2, 1], 1)  # (1+y)^2/(1+y)
    assert a == YFrac([1, 1])
    b = YFrac([0, 1])  # y
    assert (a * b).num == (0, 1, 1)
    assert a + b == YFrac([1, 2])
    assert (a - a) == YFrac([])
    assert a / YFrac([1, 1]) == YFrac([1])
    assert (YFrac([1]) / YFrac([1, 1])).k == 1
    assert YFrac([3, 3], 1) == YFrac([3])


def test_yfrac_inverse_limits():
    assert YFrac([2]).inverse() == YFrac([F(1, 2)])
    assert YFrac([1, 1]).inverse().k == 1
    with pytest.raises(ArithmeticError):
        YFrac([1, 2]).inverse()


def test_yfrac_hash_agrees_with_rational_equality():
    assert YFrac.const(3) == 3 and hash(YFrac.const(3)) == hash(3)
    assert len({YFrac.const(3), 3}) == 1
    half = YFrac([F(1, 2)])
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    assert len({half, F(1, 2), YFrac([1, 1], 1) / 2}) == 1
    assert YFrac([]) == 0 and hash(YFrac([])) == hash(0)
    assert {YFrac([1], 1): "a"}[YFrac([2, 2], 2) / 2] == "a"


# -- differential test: YFrac against a list of Fractions over a power of (1+y) --


def _ref_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ref_one_plus_y(m):
    return [F(comb(m, j)) for j in range(m + 1)]


def _ref_add(a, b):
    (p, kp), (q, kq) = a, b
    k = max(kp, kq)
    p = _ref_mul(p, _ref_one_plus_y(k - kp))
    q = _ref_mul(q, _ref_one_plus_y(k - kq))
    n = max(len(p), len(q))
    p, q = p + [F(0)] * (n - len(p)), q + [F(0)] * (n - len(q))
    return [x + y for x, y in zip(p, q)], k


def _ref_normal(a):
    """(num, k) with no trailing zero and no (1+y) left to cancel while k > 0."""
    p, k = list(a[0]), a[1]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return (), 0
    while k > 0 and len(p) > 1:
        # synthetic division by y - (-1), highest coefficient first
        b = [p[-1]]
        for c in p[-2::-1]:
            b.append(c - b[-1])
        if b.pop():
            break
        p, k = b[::-1], k - 1
    return tuple(p), k


def _check(x, ref):
    num, k = _ref_normal(ref)
    assert all(type(c) is F for c in x.num)
    assert (x.num, x.k) == (num, k)
    # the same value written with two more (1+y) factors has the same form
    again = YFrac(_ref_mul(list(num), _ref_one_plus_y(2)), k + 2)
    assert again == x and hash(again) == hash(x)
    assert (again.num, again.k) == (x.num, x.k)
    if k == 0 and len(num) <= 1:
        assert hash(x) == hash(num[0] if num else 0)


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_nonzero = _coeffs.filter(bool)
# (p, j, k): the value p (1+y)^j / (1+y)^k
_values = st.tuples(st.lists(_coeffs, max_size=4), st.integers(0, 2), st.integers(0, 4))
# (c, m, k): the unit c (1+y)^m / (1+y)^k
_units = st.tuples(_nonzero, st.integers(0, 3), st.integers(0, 4))


@given(_values, _values, _units, st.integers(-6, 6).filter(bool), _nonzero)
@settings(max_examples=300, deadline=None)
def test_yfrac_matches_reference_model(a, b, unit, n, f):
    ra = (_ref_mul(a[0], _ref_one_plus_y(a[1])), a[2])
    rb = (_ref_mul(b[0], _ref_one_plus_y(b[1])), b[2])
    c, m, ku = unit
    ru = ([c * x for x in _ref_one_plus_y(m)], ku)
    x, y, u = YFrac(*ra), YFrac(*rb), YFrac(*ru)
    _check(x, ra)
    _check(u, ru)
    _check(x + y, _ref_add(ra, rb))
    _check(x - y, _ref_add(ra, ([-v for v in rb[0]], rb[1])))
    _check(x * y, (_ref_mul(ra[0], rb[0]), ra[1] + rb[1]))
    _check(-x, ([-v for v in ra[0]], ra[1]))
    _check(x + n, _ref_add(ra, ([F(n)], 0)))
    _check(n * x, ([n * v for v in ra[0]], ra[1]))
    _check(x * f, ([f * v for v in ra[0]], ra[1]))
    _check(x / n, ([v / n for v in ra[0]], ra[1]))
    _check(x / f, ([v / f for v in ra[0]], ra[1]))
    inv = ([v / c for v in _ref_one_plus_y(ku)], m)
    _check(u.inverse(), inv)
    _check(x / u, (_ref_mul(ra[0], inv[0]), ra[1] + inv[1]))
    _check(lifted_ref.divide_by_one_plus_y(x), (ra[0], ra[1] + 1))
    _check(lifted_ref.divide_by_one_plus_y(x, 2), (ra[0], ra[1] + 2))
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert (x * y) * u == x * (y * u)


def test_yfrac_evaluate():
    a = YFrac([1, 2])  # 1 + 2y
    assert a.evaluate(-1) == -1
    b = YFrac([1], 1)
    with pytest.raises(ZeroDivisionError):
        b.evaluate(-1)
    assert b.evaluate(0) == 1


# -- the y edge of the t layout: YFrac(num, k), num, k and repr ---------------------


def _ref_repr(num, k):
    """The text of a value in its y form (num, k), as ``_ref_normal`` gives it."""
    body = " + ".join(f"{c}*y^{i}" if i else str(c) for i, c in enumerate(num) if c) or "0"
    return f"({body})/(1+y)^{k}" if k else f"({body})"


@given(st.lists(_coeffs, max_size=5), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_y_to_t_to_y_round_trip(p, j, k):
    # p (1+y)^j / (1+y)^k: a numerator that 1 + y divides j times or more
    ref = (_ref_mul(p, _ref_one_plus_y(j)), k)
    num, kk = _ref_normal(ref)
    x = YFrac(*ref)
    assert (x.num, x.k) == (num, kk)
    assert repr(x) == _ref_repr(num, kk)
    assert repr(Poly.const(x, 2).packed.get(0, YFrac([]))) == repr(x)
    # in t = 1 + y a (1+y) denominator is the least, negative, power of t
    assert not x or (x._n[0] and x._n[-1])
    assert x._lo == -kk if kk else x._lo >= 0
    assert x.cleared() == (kk == 0)
    again = YFrac(x.num, x.k)
    assert (again._n, again._lo, again._d) == (x._n, x._lo, x._d)
    for v in (0, 2, F(-1, 2), -1):
        if v == -1 and kk:
            with pytest.raises(ZeroDivisionError, match="pole at y = -1"):
                x.evaluate(v)
        else:
            assert x.evaluate(v) == sum(c * F(v) ** i for i, c in enumerate(num)) / (1 + F(v)) ** kk


def test_poly_arithmetic_and_division():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.divide_exact(x + y) == x - y
    assert p.divide_exact(x + Poly.const(1, 2)) is None
    assert p.degree() == 2
    assert p.homogeneous_component(2) == p
    assert (x * y).evaluate([F(2), F(3)]) == 6


def test_poly_divide_exact_stays_exact_over_int_coefficients():
    q = Poly({(1,): 3}, 1).divide_exact(Poly({(1,): 2}, 1))
    assert q.terms == {(0,): F(3, 2)}
    assert all(type(c) is F for c in q.terms.values())
    # the quotient steps need a divisor whose leading coefficient is a unit
    x = Poly.variable(0, 1, YFrac([1, 2]))
    assert (x * x).divide_exact(x) is None
    yx = Poly.variable(0, 1, YFrac([1, 1], 2))
    assert (yx * yx).divide_exact(yx) == yx


def _coefficient_types(p):
    return {type(c) for c in p.terms.values()}


def test_poly_divide_exact_over_int_polynomials():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    q = x * x * 2 - x * y * 5 + Poly.const(7, 2)
    # a leading coefficient of 1 or -1 is its own inverse: the quotient stays integral
    for d in (x - y * 3, y * 2 - x):
        assert (d * q).divide_exact(d) == q
        assert _coefficient_types((d * q).divide_exact(d)) == {int}
    # a leading 2: the quotient is exact, an int where 2 divides ...
    d = x * 2 + y
    got = (d * q).divide_exact(d)
    assert got == q and _coefficient_types(got) == {int}
    # ... and the exact Fraction where it does not
    got = (x * x * 3 + x * y * 4).divide_exact(x * 2)
    assert got.terms == {(1, 0): F(3, 2), (0, 1): 2}
    # a divisor that does not divide gives None
    assert (x * x + y).divide_exact(d) is None
    assert (x * x + Poly.const(1, 2)).divide_exact(x + y) is None
    assert (d * q + Poly.const(1, 2)).divide_exact(d) is None
    # no float anywhere
    for p in (q, d * q, got, (d * q).divide_exact(d)):
        assert not _coefficient_types(p) - {int, F}


_int_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9), max_size=5
).map(lambda t: Poly(t, 2))
# c0 x + c1 y + c2 with (c0, c1) != (0, 0): the divisors of the one division
_int_forms = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda c: c[0] or c[1]
).map(lambda c: Poly({(1, 0): c[0], (0, 1): c[1], (0, 0): c[2]}, 2))


@given(_int_polys, _int_forms)
@settings(max_examples=200, deadline=None)
def test_poly_divide_exact_matches_fraction_division(a, b):
    """Dividing int polynomials by a form of degree one agrees with dividing
    their Fraction copies."""
    p = a * b
    for num in (p, p + Poly.const(1, 2)):
        got = num.divide_exact(b)
        want = num.map_coefficients(F).divide_exact(b.map_coefficients(F))
        assert got == want
        if got is not None:
            assert got * b == num
            assert not _coefficient_types(got) - {int, F}
    assert p.divide_exact(b) == a
    if gcd(*b.terms.values()) == 1:
        # Gauss's lemma: a primitive divisor leaves the quotient integral
        assert _coefficient_types(p.divide_exact(b)) <= {int}


def test_poly_substitution():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    p = x * x + y
    q = p.substitute_linear([y, x])
    assert q == y * y + x
    assert p.set_variable(1, 5) == x * x + Poly.const(5, 2)
    lifted = (x + Poly.const(1, 2)).set_variable(1, 0)
    assert lifted_ref.drop_last_variable(lifted) == Poly.variable(0, 1) + Poly.const(1, 1)


def test_graded_series_matches_polynomials_below_cap():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    p = (x + y) ** 2 + x
    q = x * y + Poly.const(3, 2)
    cap = 6
    sp, sq = GradedSeries.from_poly(p, cap), GradedSeries.from_poly(q, cap)
    assert sp * sq == GradedSeries.from_poly(p * q, cap)
    assert sp + sq == GradedSeries.from_poly(p + q, cap)
    # truncation discards degrees above the cap
    tight = GradedSeries.from_poly(p, 1)
    assert 2 not in tight.comps


def test_graded_series_inverse_and_division():
    x = Poly.variable(0, 1)
    e = exp_linear(x, 7)
    em = exp_linear(-x, 7)
    assert e * em == GradedSeries.const(F(1), 7, 1)
    assert e * e.inverse() == GradedSeries.const(F(1), 7, 1)
    num = GradedSeries.from_poly(x * x * x + x * x, 5)
    q = num.divide_exact(x)
    assert q == GradedSeries.from_poly(x * x + x, 4)
    assert GradedSeries.from_poly(x + Poly.const(1, 1), 5).divide_exact(x) is None
    # an int constant term inverts exactly
    inv = GradedSeries.from_poly(Poly({(0,): 2, (1,): 1}, 1), 3).inverse()
    assert inv.component(0) == Poly.const(F(1, 2), 1)
    assert all(type(c) is F for p in inv.comps.values() for c in p.terms.values())


def test_series_plus_or_minus_a_poly():
    x = Poly.variable(0, 1)
    s = GradedSeries.from_poly(x, 3)
    double = GradedSeries.from_poly(2 * x, 3)
    assert s + x == double and x + s == double
    zero = GradedSeries.zero(3, 1)
    assert s - x == zero and x - s == zero
    # a Poly operand is the series of its terms up to the series' cap
    got = s + (x + x**5)
    assert got.cap == 3 and got == double and got.comps == {1: 2 * x}


@pytest.mark.parametrize("coeff", [1, YFrac([1, 1])], ids=["int", "YFrac"])
def test_series_product_guard_is_exact(coeff):
    half = Poly({(HALF // 2,): 1}, 1) * coeff
    below = Poly({(HALF // 2 - 1,): 1}, 1) * coeff
    # a kept pair of degree HALF raises: only a cap of HALF or more keeps one
    with pytest.raises(OverflowError):
        GradedSeries.from_poly(half, HALF) * GradedSeries.from_poly(half, HALF)
    s = GradedSeries.from_poly(half, HALF - 1)
    assert s * s == GradedSeries.zero(HALF - 1, 1)
    # the kept pair of degree HALF - 1 keeps its degree digit: no carry
    got = GradedSeries.from_poly(half, HALF) * GradedSeries.from_poly(below, HALF)
    assert got.comps == {HALF - 1: half * below}


@pytest.mark.parametrize("cap", [6, 8])
def test_todd_series_values(cap):
    td = todd_coefficients(cap)
    assert [c.evaluate(0) for c in td[:5]] == [1, F(1, 2), F(1, 12), 0, F(-1, 720)]
    un = unnormalized_hirzebruch_coefficients(cap)
    assert un[0] == YFrac([1, 1])
    assert [c.evaluate(-1) for c in un[:4]] == [0, 1, 0, 0]
    assert [c.evaluate(0) for c in un[:3]] == [1, F(1, 2), F(1, 12)]
    nm = normalized_hirzebruch_coefficients(cap)
    assert all(c.cleared() for c in nm)
    assert [c.evaluate(-1) for c in nm[:4]] == [1, 1, 0, 0]
    assert [c.evaluate(0) for c in nm[:3]] == [1, F(1, 2), F(1, 12)]


def _series_todd_lists(cap):
    """The three Todd-type lists as the series they expand: -L / (1 - e^L) by a
    series inversion, (1 + y e^L) times it, and the normalized list from
    L = -(1+y) x over (1+y)."""

    def todd_of(linear):
        coeffs = [YFrac.const(F(1, factorial(k + 1))) for k in range(cap + 1)]
        return series_of_linear(coeffs, linear, cap).inverse()

    def hirzebruch_of(linear):
        return (exp_linear(linear, cap, YFrac.y_power(1)) + 1) * todd_of(linear)

    def coefficients(series):
        terms = series.poly.terms
        return [terms.get((k,), YFrac([])) for k in range(cap + 1)]

    x = Poly.variable(0, 1)
    normalized = hirzebruch_of(Poly.variable(0, 1, YFrac([-1, -1]))) * YFrac([1], 1)
    return coefficients(todd_of(-x)), coefficients(hirzebruch_of(-x)), coefficients(normalized)


@pytest.mark.parametrize("cap", [0, 1, 5, 20])
def test_closed_form_todd_lists_match_the_series_inversion(cap):
    got = (
        todd_coefficients(cap),
        unnormalized_hirzebruch_coefficients(cap),
        normalized_hirzebruch_coefficients(cap),
    )
    for have, want in zip(got, _series_todd_lists(cap)):
        assert len(have) == len(want) == cap + 1
        assert all(type(c) is YFrac for c in have)
        assert have == want and list(map(repr, have)) == list(map(repr, want))


def test_series_of_linear_is_homogeneous():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    s = series_of_linear([YFrac([1]), YFrac([0, 1]), YFrac([2])], x + y, 4)
    assert s.component(1) == (x + y) * YFrac([0, 1])
    assert s.component(2) == (x + y) * (x + y) * YFrac([2])
    for d, comp in s.comps.items():
        assert comp.is_homogeneous(d)


# -- differential test: the lifted YFrac products against the per-coefficient loop --


def ref_poly_mul(a, b):
    """Product of two Polys, one coefficient product and sum at a time."""
    out = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            c = out.get(k)
            out[k] = va * vb if c is None else c + va * vb
    return Poly(out, a.nvars)


def ref_series_mul(a, b):
    """Product of two GradedSeries, one pair of components at a time."""
    cap = min(a.cap, b.cap)
    out = {}
    for da, pa in a.comps.items():
        for db, pb in b.comps.items():
            d = da + db
            if d > cap:
                continue
            q = ref_poly_mul(pa, pb)
            prev = out.get(d)
            q = q if prev is None else prev + q
            if q:
                out[d] = q
            else:
                out.pop(d, None)
    return GradedSeries(out, cap, a.nvars)


def _assert_same_poly(got, want):
    assert got.nvars == want.nvars
    assert all(got.terms.values()), "a zero coefficient was stored"
    assert got.terms == want.terms
    for m, c in got.terms.items():
        w = want.terms[m]
        if isinstance(w, YFrac):
            assert (c.num, c.k) == (w.num, w.k)


# a YFrac (p (1+y)^j) / (d (1+y)^k): mixed denominators, k from 0 to 3, and a
# (1+y) factor for the normalization to cancel
_lift_yfracs = st.builds(
    lambda p, j, d, k: YFrac([F(c, d) for c in _ref_mul(p, _ref_one_plus_y(j))], k),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(0, 2),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(0, 3),
)
# a small pool of values and their negatives, so that term products cancel
_lift_coeffs = st.one_of(
    _lift_yfracs,
    _lift_yfracs.map(lambda c: -c),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
_yfrac_polys = st.dictionaries(_monomials, _lift_coeffs, max_size=5).map(lambda t: Poly(t, 2))


def _series(polys, cap):
    comps = {}
    for p in polys:
        for d, q in p.homogeneous_split().items():
            comps[d] = comps[d] + q if d in comps else q
    return GradedSeries(comps, cap, 2)


@given(_yfrac_polys, _yfrac_polys, _yfrac_polys, st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_lifted_products_match_per_coefficient_loop(a, b, c, cap_a, cap_b):
    for x, y in ((a, b), (b, a), (a, a), (a, b + c), (a, b - b), (a - c, a + c)):
        _assert_same_poly(x * y, ref_poly_mul(x, y))
        sx, sy = _series([x], cap_a), _series([y, c], cap_b)
        got, want = sx * sy, ref_series_mul(sx, sy)
        assert got.cap == want.cap and set(got.comps) == set(want.comps)
        for d, p in want.comps.items():
            _assert_same_poly(got.comps[d], p)


def test_lifted_product_cancels_to_zero():
    u = YFrac([F(1, 2), 1], 3)  # (1 + 2y) / (2 (1+y)^3)
    v = YFrac([F(2, 3)], 1)
    x = Poly.variable(0, 2, u)
    y = Poly.variable(1, 2, v)
    got = (x + y) * (x - y)
    assert got.terms == {(2, 0): u * u, (0, 2): -(v * v)}
    _assert_same_poly(got, ref_poly_mul(x + y, x - y))
    assert not (x * y - y * x)
    # a (1+y) factor of the output cancels against the lifted denominator
    w = Poly.const(YFrac([1, 1]), 2)
    assert (w * Poly.const(YFrac([1], 2), 2)).terms[(0, 0)] == YFrac([1], 1)
    # every coefficient an int: the cohomology loop, with int results
    p = Poly.variable(0, 2, 3) + Poly.const(2, 2)
    assert _coefficient_types(p * p) == {int}


def test_poly_takes_a_yfrac_scalar():
    two = Poly.const(YFrac.const(2), 2)
    assert two + YFrac.const(1) == Poly.const(YFrac.const(3), 2)
    assert YFrac.const(1) + two == Poly.const(YFrac.const(3), 2)
    assert two - YFrac.const(2) == Poly.zero(2)
    assert two == YFrac.const(2) and two == 2
    assert two != YFrac([0, 2])
    assert Poly.zero(2) == YFrac([])
    x = Poly.variable(0, 2, YFrac([1, 1], 1))
    assert (x + YFrac([0, 1])).terms == {(1, 0): YFrac([1]), (0, 0): YFrac([0, 1])}


def test_int_minus_yfrac():
    y = YFrac([0, 1])
    assert 2 - y == YFrac([2, -1]) == -(y - 2)
    assert F(1, 2) - y == YFrac([F(1, 2), -1])
    # divisions whose remainders subtract a YFrac from an int
    x = Poly.variable(0, 1)
    d = x + Poly.const(y, 1)
    assert Poly({(1,): 1, (0,): 5}, 1).divide_exact(d) is None
    p = Poly({(2,): 1, (1,): 3, (0,): YFrac([0, 3, -1])}, 1)  # (x + y)(x + 3 - y)
    assert p.divide_exact(d) == x + Poly.const(3 - y, 1)


def test_negative_powers():
    one_plus_y = YFrac([1, 1])
    assert one_plus_y ** -1 == one_plus_y.inverse() == YFrac([1], 1)
    assert one_plus_y ** -2 == YFrac([1], 2)
    assert YFrac.const(2) ** -3 == YFrac.const(F(1, 8))
    assert one_plus_y ** 0 == 1
    with pytest.raises(ArithmeticError):
        YFrac([1, 2]) ** -1
    with pytest.raises(ZeroDivisionError):
        YFrac([]) ** -1
    x = Poly.variable(0, 2)
    assert x ** 0 == 1 and x ** 2 == x * x
    with pytest.raises(ValueError):
        x ** -2


# -- guards of the packed Poly ----------------------------------------------------------


@pytest.mark.parametrize("exps", [(1, 0), (1, 0, 0, 0), (1, -1, 0), ()])
def test_poly_rejects_a_wrong_exponent_vector(exps):
    with pytest.raises(ValueError):
        Poly({exps: 1}, 3)


def test_poly_arithmetic_across_nvars_raises():
    a = Poly({(1, 0): 1}, 2)
    b = Poly({(0, 1, 0): 1}, 3)
    for op in (
        lambda: a * b,
        lambda: a + b,
        lambda: a - b,
        lambda: a == b,
        lambda: b.divide_exact(a),
        lambda: GradedSeries.from_poly(a, 2) * GradedSeries.from_poly(b, 2),
        lambda: GradedSeries.from_poly(a, 2) * b,
    ):
        with pytest.raises(ValueError):
            op()
    assert a == Poly({(1, 0): 1}, 2) and a != Poly.variable(1, 2)


def test_constant_poly_hashes_as_its_constant():
    for c in (2, F(1, 2), YFrac.const(3), YFrac.const(F(-2, 3))):
        p = Poly.const(c, 2)
        assert p == c and hash(p) == hash(c)
    assert Poly.zero(3) == 0 and hash(Poly.zero(3)) == hash(0)
    assert len({Poly.const(2, 2), 2, Poly.const(F(2), 2), Poly.const(YFrac.const(2), 2)}) == 1
    x = Poly.variable(0, 2)
    assert hash(x * 2) == hash(x * F(2)) == hash(x * YFrac.const(2))


def test_packing_limit_raises_overflow():
    with pytest.raises(OverflowError):
        Poly({(HALF,): 1}, 1)
    # the degree has a digit of its own, so a degree at the limit is refused too
    with pytest.raises(OverflowError):
        Poly({(HALF - 1, 1): 1}, 2)
    Poly({(HALF - 2, 1): 1}, 2)
    half = Poly({(HALF // 2,): 1}, 1)
    assert (half * Poly({(HALF // 2 - 1,): 1}, 1)).degree() == HALF - 1
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        GradedSeries.from_poly(half, HALF) * GradedSeries.from_poly(half, HALF)
    with pytest.raises(OverflowError):
        Poly.const(YFrac([1, 1]), 1) * half * half
    # x0 - x1^(HALF/2) is not of degree one: the one division refuses it
    x0 = Poly.variable(0, 2)
    with pytest.raises(ValueError):
        (x0 * x0).divide_exact(x0 - Poly({(0, HALF // 2): 1}, 2))


def test_packed_keys_follow_lex_order():
    p = Poly({(0, 2, 1): 1, (1, 0, 0): 2, (0, 3, 0): 3, (0, 0, 0): 4}, 3)
    assert [k for k, _ in p.sorted_terms()] == sorted(p.terms, reverse=True)
    assert [p.terms[k] for k in sorted(p.terms)] == [p.packed[k] for k in sorted(p.packed)]
    assert p.degree() == 3 and set(p.homogeneous_split()) == {0, 1, 3}


# -- differential test: the packed Poly against the tuple-keyed one -----------------------

_coefficients = {
    "int": st.integers(-4, 4),
    "Fraction": st.fractions(min_value=-2, max_value=2, max_denominator=3),
    "YFrac": _lift_coeffs,
}


@st.composite
def _operands(draw):
    """nvars, three tuple-keyed term dicts of one coefficient kind and a
    fourth of degree one, a divisor."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(sorted(_coefficients)))
    mono = st.tuples(*[st.integers(0, 2)] * n)
    terms = st.dictionaries(mono, _coefficients[kind], max_size=4)
    low = [tuple(int(i == j) for i in range(n)) for j in range(-1, n)]
    form = st.dictionaries(st.sampled_from(low), _coefficients[kind], max_size=n + 1).filter(
        lambda t: any(v for e, v in t.items() if any(e))
    )
    return n, [draw(terms) for _ in range(3)] + [draw(form)]


def _typed(terms):
    return {k: (type(v), v) for k, v in terms.items()}


def _has_yfrac(terms):
    """Whether a term dict has a nonzero ``YFrac`` coefficient: a Poly made
    from it is lifted."""
    return any(type(v) is YFrac and v for v in terms.values())


def _same(got, want, lifted):
    """A packed Poly and a reference Poly with equal terms, coefficient types
    and printed coefficients included.

    ``lifted`` says that an operand had a ``YFrac`` coefficient.  The packed
    result is then lifted, and reads every coefficient as a ``YFrac``: where
    the reference keeps an int or a Fraction c, the packed Poly reads
    ``YFrac.const(c)``, so ``2`` prints as ``(2)``.  Otherwise the types are
    the reference's.
    """
    if want is None:
        assert got is None
        return
    assert got.nvars == want.nvars
    expect = want.terms
    if lifted:
        expect = {k: v if type(v) is YFrac else YFrac.const(v) for k, v in expect.items()}
    assert _typed(got.terms) == _typed(expect)
    assert {k: str(v) for k, v in got.terms.items()} == {k: str(v) for k, v in expect.items()}
    assert all(got.packed.values()), "a zero coefficient was stored"


def _same_series(got, want, lifted):
    if want is None:
        assert got is None
        return
    assert (got.cap, set(got.comps)) == (want.cap, set(want.comps))
    for d, p in want.comps.items():
        _same(got.comps[d], p, lifted)


def _both(terms, n):
    return Poly(terms, n), tuple_ref.Poly(terms, n)


@given(_operands())
@settings(max_examples=150, deadline=None)
def test_packed_poly_matches_tuple_reference(operands):
    n, dicts = operands
    (a, ra), (b, rb), (c, rc), (d, rd) = (_both(t, n) for t in dicts)
    la, lb, lc, ld = map(_has_yfrac, dicts)
    pairs = (((a, ra), (b, rb), la or lb), ((a, ra), (a, ra), la), ((b, rb), (c, rc), lb or lc))
    for (x, rx), (y, ry), lifted in pairs:
        _same(x * y, rx * ry, lifted)
        _same(x + y, rx + ry, lifted)
        _same(x - y, rx - ry, lifted)
    # exact, and failing unless c happens to be a multiple of the divisor d
    _same((a * d).divide_exact(d), (ra * rd).divide_exact(rd), la or ld)
    _same((a * d + c).divide_exact(d), (ra * rd + rc).divide_exact(rd), la or ld or lc)
    _same(a.divide_exact(d), ra.divide_exact(rd), la or ld)
    assert a.degree() == ra.degree()
    split, rsplit = a.homogeneous_split(), ra.homogeneous_split()
    assert list(split) == list(rsplit)
    for d in rsplit:
        _same(split[d], rsplit[d], la)
        assert split[d].is_homogeneous(d)
    for j in range(n):
        for value in (0, 2, F(1, 2)):
            _same(a.set_variable(j, value), ra.set_variable(j, value), la)
    _same(
        lifted_ref.drop_last_variable(a.set_variable(n - 1, 0)),
        ra.set_variable(n - 1, 0).drop_last_variable(),
        la,
    )
    # a substitution of linear forms, on the terms of degree at most 4
    low = {e: v for e, v in dicts[0].items() if sum(e) <= 4}
    coeffs = [[(i + 2 * j) % 3 - 1 for i in range(n)] for j in range(n)]
    images = [Poly.linear(cs) for cs in coeffs]
    rimages = [tuple_ref.Poly.linear(cs) for cs in coeffs]
    _same(
        Poly(low, n).substitute_linear(images),
        tuple_ref.Poly(low, n).substitute_linear(rimages),
        _has_yfrac(low),
    )


@given(_operands(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
# a divisor lifted by its constant term alone: its linear part is lifted too
@example((1, [{}, {(1,): 1}, {}, {(0,): YFrac.const(1), (1,): 1}]), 0)
def test_packed_series_match_tuple_reference(operands, cap):
    n, dicts = operands
    (a, ra), (b, rb), _, (d, rd) = (_both(t, n) for t in dicts)
    la, lb = _has_yfrac(dicts[0]), _has_yfrac(dicts[1])
    sa, rsa = GradedSeries.from_poly(a, cap), tuple_ref.GradedSeries.from_poly(ra, cap)
    sb, rsb = GradedSeries.from_poly(b, cap + 1), tuple_ref.GradedSeries.from_poly(rb, cap + 1)
    _same_series(sa * sb, rsa * rsb, la or lb)
    # the linear part of the divisor d
    # which is lifted when d is, even if d's YFrac coefficients are all outside it
    top, rtop = d.homogeneous_component(1), rd.homogeneous_component(1)
    lt = _has_yfrac(dicts[3])
    st_, rst = GradedSeries.from_poly(top, cap + 2), tuple_ref.GradedSeries.from_poly(rtop, cap + 2)
    prod, rprod = sa * st_, rsa * rst
    _same_series(prod.divide_exact(top), rprod.divide_exact(rtop), la or lt)
    _same_series(sb.divide_exact(top), rsb.divide_exact(rtop), lb or lt)
    # a unit constant term: the constant term of a replaced by 3
    unit = YFrac.const(3) if any(type(v) is YFrac for v in dicts[0].values()) else 3
    dicts[0][(0,) * n] = unit
    (u, ru) = _both(dicts[0], n)
    _same_series(
        GradedSeries.from_poly(u, cap).inverse(),
        tuple_ref.GradedSeries.from_poly(ru, cap).inverse(),
        _has_yfrac(dicts[0]),
    )


# -- the kernel's term loops against the Poly loops they replaced -------------------------


def replaced_add(a, b):
    out = dict(a)
    for k, v in b.items():
        c = out.get(k)
        c = v if c is None else c + v
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def replaced_neg(a):
    return {k: -v for k, v in a.items()}


def replaced_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def replaced_mul(a, b):
    out = {}
    get = out.get
    b = list(b.items())
    for ka, va in a.items():
        for kb, vb in b:
            k = ka + kb
            c = get(k)
            out[k] = va * vb if c is None else c + va * vb
    return {k: v for k, v in out.items() if v}


@given(st.sampled_from(sorted(_coefficients)), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_loops_match_replaced_poly_loops(kind, data):
    # "int" and "Fraction" draw one coefficient type, "YFrac" mixes all three;
    # a YFrac product is lifted, so the replaced loop checks its values only
    coeffs = _coefficients[kind]
    polys = st.dictionaries(_monomials, coeffs, max_size=5).map(lambda t: Poly(t, 2))
    a, b, s = data.draw(polys), data.draw(polys), data.draw(coeffs)
    pairs = [
        (a + b, replaced_add(a.packed, b.packed)),
        (a - b, replaced_add(a.packed, replaced_neg(b.packed))),
        (a - a, {}),
        (-a, replaced_neg(a.packed)),
        (a * s, replaced_scale(a.packed, s)),
        (a * b, replaced_mul(a.packed, b.packed)),
        (b * a, replaced_mul(b.packed, a.packed)),
    ]
    for got, want in pairs:
        assert all(got.packed.values()), "a zero coefficient was stored"
        if kind == "YFrac":
            assert got.packed == want
        else:
            assert _typed(got.packed) == _typed(want)


class _Coefficient:
    """A ring element that refuses to meet an int, as a YFrac must never meet an int 0."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def _other(self, o):
        assert type(o) is _Coefficient, f"a coefficient met {o!r}"
        return o.v

    def __add__(self, o):
        return _Coefficient(self.v + self._other(o))

    def __mul__(self, o):
        return _Coefficient(self.v * self._other(o))

    def __neg__(self):
        return _Coefficient(-self.v)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, o):
        return self.v == self._other(o)


def test_kernel_loops_never_mix_in_an_int():
    from schubmc import _kernel_py as kernel

    def terms(d):
        return {k: _Coefficient(v) for k, v in d.items()}

    a, b = {1: 2, 3: -1, 5: 4}, {1: -2, 2: 1, 4: 1}
    assert kernel.lp_add(terms(a), terms(b)) == terms({2: 1, 3: -1, 4: 1, 5: 4})
    assert kernel.lp_neg(terms(a)) == terms({k: -v for k, v in a.items()})
    assert kernel.lp_scale(terms(a), _Coefficient(3)) == terms({k: 3 * v for k, v in a.items()})
    assert kernel.lp_scale(terms(a), _Coefficient(0)) == {}
    # (2 x + 1)(2 x - 1) = 4 x^2 - 1: the x terms cancel inside the loop
    assert kernel.lp_mul(terms({1: 2, 0: 1}), terms({1: 2, 0: -1})) == terms({2: 4, 0: -1})


# -- the lifted form: one integer polynomial in the variables and y over D (1+y)^K --


def _assert_normal(p):
    """A lifted Poly stores the one normal form of its value: lifting its own
    coefficients again gives the same numerator and D."""
    if p._d is None or not p:
        return
    again = Poly(p.terms, p.nvars)
    assert (again._t, again._d) == (p._t, p._d)
    assert p._d > 0 and gcd(p._d, *p._t.values()) == 1


def _t_powers(p):
    """The powers of t = 1 + y among a lifted Poly's stored terms."""
    return {key >> WIDTH * (p.nvars + 1) for key in p._t}


def _ref_sum(a, b):
    """a + b one coefficient at a time."""
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


# unequal denominators and (1+y) powers: a value times c / (d (1+y)^k)
_rescale = st.builds(
    lambda c, d, k: YFrac([F(c, d)], k),
    st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 6]), st.integers(0, 3),
)


@given(_yfrac_polys, _yfrac_polys, _yfrac_polys, _rescale, _rescale)
@settings(max_examples=300, deadline=None)
def test_lifted_sums_and_products_match_the_coefficients(a, b, c, r, s):
    a, b = a * r, b * s
    for x, y in ((a, b), (b, a), (a, a * YFrac([1, 1])), (a, -a), (a, b * YFrac([1], 2))):
        for got, want in ((x + y, _ref_sum(x, y)), (x - y, _ref_sum(x, -y))):
            _assert_normal(got)
            assert got.terms == want
        _assert_normal(x * y)
        _assert_same_poly(x * y, ref_poly_mul(x, y))
    # two routes to one value: equal, and equal hashes
    for left, right in (
        ((a + b) * c, a * c + b * c),
        (a * b * c, c * (b * a)),
        ((a - b) * (a + b), a * a - b * b),
        (a * YFrac([1, 1]) * YFrac([1], 1), a),
    ):
        _assert_normal(left)
        _assert_normal(right)
        assert left == right and hash(left) == hash(right)


def test_lifted_normal_form_cancels_one_plus_y_and_d():
    x = Poly.variable(0, 2)
    over = YFrac([1], 1)  # 1 / (1+y)
    # x / (1+y) + y x / (1+y) = x: the sum cancels (1+y), and reads as the int polynomial x
    got = x * over + x * YFrac([0, 1], 1)
    assert got == x and hash(got) == hash(x) and got.cleared() and got._t == x._t
    # (1+y) x times 1 / (1+y)^2: one factor cancels in the product
    got = Poly.variable(0, 2, YFrac([1, 1])) * Poly.const(YFrac([1], 2), 2)
    assert got.terms == {(1, 0): over} and _t_powers(got) == {-1} and not got.cleared()
    # x/2 + x/2 = x: the sum cancels D
    half = x * YFrac.const(F(1, 2))
    assert (half + half)._d == 1 and half + half == x
    # unequal D and K: x/(2 (1+y)) + x/3
    got = x * YFrac([F(1, 2)], 1) + x * YFrac.const(F(1, 3))
    assert got.terms == {(1, 0): YFrac([F(5, 6), F(1, 3)], 1)}
    # (5 + 2y) / (6 (1+y)) = (3 t^-1 + 2) / 6
    assert got._d == 6 and _t_powers(got) == {-1, 0}
    # a truncated series product can hold a (1+y) that the whole product does not:
    # ((1+y)(1 + x) + x^2)/(1+y) times (1 + x)/(1+y) below degree 2 is (1 + 2x)/(1+y)
    one = Poly.const(1, 2)
    sa = GradedSeries.from_poly(((one + x) * YFrac([1, 1]) + x * x) * over, 2)
    sb = GradedSeries.from_poly((one + x) * over, 1)
    assert min(_t_powers(sa.poly)) == min(_t_powers(sb.poly)) == -1
    got = (sa * sb).poly
    assert got == (one + x * 2) * over and _t_powers(got) == {-1}
    # a quotient by (1+y) x is normalized once
    num = Poly.variable(0, 2, YFrac([1, 2, 1])) * Poly.variable(1, 2)
    assert num.divide_exact(Poly.variable(0, 2, YFrac([1, 1]))) == Poly.variable(1, 2, YFrac([1, 1]))
    assert Poly.variable(0, 2).divide_exact(Poly.variable(0, 2, YFrac([1, 1]))) == Poly.const(over, 2)


@given(_yfrac_polys, st.sampled_from([YFrac([1]), YFrac([2, 2]), YFrac([F(1, 3)], 2)]))
@settings(max_examples=150, deadline=None)
def test_lifted_quotients_undo_products(a, unit):
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    for divisor in ((x * 2 - y) * unit, (x + y * YFrac([0, 1])) * unit, x * 3 * unit):
        got = (a * divisor).divide_exact(divisor)
        _assert_normal(got)
        assert got == a and hash(got) == hash(a)
        if a:
            assert (a * divisor + Poly.variable(1, 2, YFrac([1], 1)) ** 3).divide_exact(divisor) is None


_linear_coeffs = st.one_of(st.integers(-2, 2), _lift_yfracs)


@given(
    _yfrac_polys,
    st.lists(_lift_coeffs, min_size=1, max_size=6),
    st.tuples(_linear_coeffs, _linear_coeffs).filter(any),
    st.integers(0, 5),
    st.integers(0, 6),
)
@settings(max_examples=200, deadline=None)
def test_horner_product_matches_the_series_product(a, coeffs, lin, cap_s, cap):
    s = GradedSeries.from_poly(a * YFrac([1]), cap_s)
    linear = Poly.linear(list(lin))
    got = times_series_of_linear(s, coeffs, linear, cap)
    want = s * series_of_linear(coeffs, linear, cap)
    assert got.cap == want.cap == min(cap, cap_s)
    _assert_normal(got.poly)
    assert got.poly == want.poly and hash(got.poly) == hash(want.poly)


# -- packed y-integer products against the term-by-term loops they replaced --


def _stored(p):
    """A lifted Poly as it is stored: integer terms and D."""
    return p._t, p._d


def _same_lifted(got, want):
    """Two lifted Polys equal by value, as stored, and by their ``packed``
    views with coefficient types."""
    assert got == want and hash(got) == hash(want)
    assert _stored(got) == _stored(want)
    assert _typed(got.packed) == _typed(want.packed)


_huge = st.one_of(st.integers(-3, 3), st.integers(-(2**300), 2**300)).filter(bool)
# a y-polynomial of degree 0 to 40 with a few nonzero coefficients, some huge
_ylists = st.dictionaries(st.integers(0, 40), _huge, min_size=1, max_size=4).map(
    lambda ys: [ys.get(i, 0) for i in range(max(ys) + 1)]
)
_wide_coeffs = st.one_of(
    _huge,
    st.builds(
        lambda n, d, k: YFrac([F(c, d) for c in n], k),
        _ylists, st.sampled_from([1, 2, 3, 6]), st.integers(0, 3),
    ),
)


@st.composite
def _wide_case(draw):
    """nvars (1 to 3), three polys with wide coefficients, and a cap from -1
    to above their top degree."""
    n = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 3)] * n)
    polys = [Poly(draw(st.dictionaries(mono, _wide_coeffs, max_size=5)), n) for _ in range(3)]
    top = max(p.degree() for p in polys)
    return n, polys, draw(st.integers(-1, 2 * max(top, 0) + 2))


@given(_wide_case(), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_products_match_the_term_loops(case, data):
    n, (a, b, c), cap = case
    series = lambda p, extra=0: GradedSeries.from_poly(p * YFrac([1]), cap + extra)
    # (a + b)(a - b): the cross terms cancel exactly, as does b * (c - c)
    for x, y in ((a, b), (b, a), (a + b, a - b), (a, c - c), (a * b, c)):
        sx, sy = series(x), series(y, data.draw(st.integers(0, 2)))
        got, want = sx * sy, lifted_ref.series_product(sx, sy)
        assert got.cap == want.cap
        _same_lifted(got.poly, want.poly)
    coeffs = data.draw(st.lists(_wide_coeffs, min_size=1, max_size=6))
    lin = Poly.linear(data.draw(st.lists(st.one_of(st.integers(-3, 3), _wide_coeffs), min_size=n, max_size=n)))
    for s in (series(a), series(a + b), series(c - c)):
        got = times_series_of_linear(s, coeffs, lin, cap)
        want = lifted_ref.times_series_of_linear(s, coeffs, lin, cap)
        assert got.cap == want.cap
        _same_lifted(got.poly, want.poly)


def test_packed_products_cancel_exactly():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    big = YFrac([2**300, -(2**299), 0, 1], 2)
    a, b = x * big, y * YFrac([-(2**300), 7], 1)
    sp, sm = GradedSeries.from_poly(a + b, 3), GradedSeries.from_poly(a - b, 3)
    # the xy terms cancel, and x^2 big^2 - y^2 (...)^2 is stored over one D (1+y)^K
    got = sp * sm
    assert _stored(got.poly) == _stored(lifted_ref.series_product(sp, sm).poly)
    assert got.poly == a * a - b * b
    # below the lowest degree of the product nothing is left
    assert not GradedSeries.from_poly(a + b, 1) * sm
    # (x + y)(1 + L) with L = (1+y)(x - y): the xy terms of s L cancel
    s = GradedSeries.from_poly(x + y, 4)
    lin = Poly.linear([YFrac([1, 1]), YFrac([-1, -1])])
    got = times_series_of_linear(s, [1, 1], lin, 4)
    assert _stored(got.poly) == _stored(lifted_ref.times_series_of_linear(s, [1, 1], lin, 4).poly)
    assert got.poly == (x + y) + (x * x - y * y) * YFrac([1, 1])


# -- the t layout against the y layout it replaced ---------------------------------------


@given(
    _yfrac_polys, _yfrac_polys, _rescale, _rescale, st.integers(0, 4),
    st.lists(_lift_coeffs, min_size=1, max_size=6),
    st.tuples(_linear_coeffs, _linear_coeffs).filter(any),
)
@settings(max_examples=200, deadline=None)
def test_t_layout_matches_the_y_layout(a, b, r, s, cap, coeffs, lin):
    a, b = a * r, b * s
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    for p, q in ((a, b), (b, a), (a, -a), (a, b * YFrac([1], 2)), (a * YFrac([1, 1]), b)):
        _same_lifted(p + q, lifted_ref.lifted_sum(p, q))
        _same_lifted(p - q, lifted_ref.lifted_sum(p, -q))
        _same_lifted(p * q, lifted_ref.lifted_product(p, q))
        sp, sq = GradedSeries.from_poly(p, cap), GradedSeries.from_poly(q, cap + 1)
        _same_lifted((sp * sq).poly, lifted_ref.series_product(sp, sq).poly)
    # quotients by forms with unit leads: 2, t^-2 / 3, t
    for divisor in ((x * 2 - y) * r, (x + y * YFrac([0, 1])) * YFrac([F(1, 3)], 2), x * YFrac([1, 1])):
        for num in (a * divisor, a * divisor + y ** 3 * s):
            got, want = num.divide_exact(divisor), division_ref.divide_exact(num, divisor)
            assert (got is None) == (want is None)
            if got is not None:
                _same_lifted(got, want)
    # Horner products, by a form with negative powers of t among its coefficients
    linear = Poly.linear(list(lin))
    for series in (GradedSeries.from_poly(a, cap + 2), GradedSeries.from_poly(a * b, cap)):
        got = times_series_of_linear(series, coeffs, linear, cap + 1)
        want = lifted_ref.times_series_of_linear(series, coeffs, linear, cap + 1)
        assert got.cap == want.cap
        _same_lifted(got.poly, want.poly)


@given(_yfrac_polys, _rescale, st.integers(-1, 6), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_t_shift_is_the_degree_scaling_of_the_y_layout(a, r, cap, dim):
    one_plus_y = YFrac([1, 1])
    for s in (GradedSeries.from_poly(a * r, cap), GradedSeries.from_poly(a.map_coefficients(lambda c: 3), cap)):
        for by in (lambda d: d - dim, lambda d: 1, lambda d: -d):
            got = s.shift_t(by)
            want = lifted_ref.scale_degrees(s, lambda d: one_plus_y ** by(d))
            assert got.cap == want.cap == s.cap
            _same_lifted(got.poly, want.poly)
            # a power of t moves keys and keeps every coefficient
            assert sorted(got.poly._t.values()) == sorted((s.poly * YFrac([1]))._t.values())


# -- the one division against the general eliminations it replaced --------------------

# leading coefficients of a divisor: units, (1+y)^m units, the non-unit 1 + 2y,
# and 2, which is a unit of Q[y, (1+y)^-1] but not of Z
_division_leads = {
    "int": [1, -1, 2, 3],
    "Fraction": [F(1), F(-2, 3), F(5, 2)],
    "lifted": [YFrac([1]), YFrac([-1, -1]), YFrac([1, 2, 1]), YFrac([F(1, 3)], 2), YFrac([1, 2]), 2],
}
_division_coeffs = {
    "int": st.integers(-4, 4),
    "Fraction": st.fractions(min_value=-2, max_value=2, max_denominator=3),
    "lifted": _lift_coeffs,
}


@st.composite
def _division_case(draw):
    """A dividend, a divisor c x_j + (later variables) [+ constant] of one
    coefficient kind, its content doubled or not, and a stray term."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(sorted(_division_coeffs)))
    coeff = _division_coeffs[kind]
    mono = st.tuples(*[st.integers(0, 3)] * n)
    a = Poly(draw(st.dictionaries(mono, coeff, max_size=5)), n)
    j = draw(st.integers(0, n - 1))
    forms = {tuple(int(i == k) for i in range(n)): draw(coeff) for k in range(j + 1, n)}
    forms[tuple(int(i == j) for i in range(n))] = draw(st.sampled_from(_division_leads[kind]))
    affine = draw(st.booleans())
    if affine:
        forms[(0,) * n] = draw(coeff.filter(bool))
    q = Poly(forms, n)
    if draw(st.booleans()):
        q = q * 2
    stray = Poly({draw(mono): draw(coeff.filter(bool))}, n)
    return a, q, stray, affine


def _exact_form(p):
    """A quotient as it is stored, coefficient types included, or None."""
    if p is None:
        return None
    return p.nvars, {k: (type(v), v) for k, v in p._t.items()}, p._d


@given(_division_case(), st.lists(st.integers(-1, 8), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_one_division_matches_the_general_eliminations(case, caps):
    a, q, stray, affine = case
    for num in (a * q, a * q + stray, a):
        got = num.divide_exact(q)
        assert _exact_form(got) == _exact_form(division_ref.divide_exact(num, q))
        if got is not None:
            _assert_normal(got)
    got = (a * q).divide_exact(q)
    if got is not None:
        assert got == a
    if affine:
        with pytest.raises(ValueError):
            GradedSeries.from_poly(a, 3).divide_exact(q)
        return
    for cap in caps:
        for s in (GradedSeries.from_poly(a * q, cap), GradedSeries.from_poly(a * q + stray, cap)):
            got, want = s.divide_exact(q), division_ref.series_divide_exact(s, q)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.cap == want.cap == cap - 1
                assert _exact_form(got.poly) == _exact_form(want.poly)


@pytest.mark.parametrize("lifted", [False, True])
def test_the_one_division_refuses_other_degrees(lifted):
    c = YFrac([1, 1]) if lifted else 1
    x, y = Poly.variable(0, 2, c), Poly.variable(1, 2)
    p = x * x * y + y
    for q in (Poly.const(c, 2), Poly.const(3, 2), x * y, x * x + y, x * y + x):
        with pytest.raises(ValueError):
            p.divide_exact(q)
    with pytest.raises(ValueError):
        GradedSeries.from_poly(p, 4).divide_exact(x * y)
    with pytest.raises(ZeroDivisionError):
        p.divide_exact(Poly.zero(2))
    # the reference eliminations divide by any of them
    assert division_ref.divide_exact(p * (x * y + x), x * y + x) == p


def test_a_lead_with_a_one_plus_y_factor_must_divide_every_slice():
    # (x + 1) / ((1+y) x + 1): the x slice, 1, is not a multiple of 1 + y, though the
    # constant slice equals m times 1 / h, h = 1
    x, one = Poly.variable(0, 1), Poly.const(1, 1)
    q = Poly.variable(0, 1, YFrac([1, 1])) + one
    assert (x + one).divide_exact(q) is None
    assert division_ref.divide_exact(x + one, q) is None
    assert (q * (x + one * 2)).divide_exact(q) == x + one * 2
