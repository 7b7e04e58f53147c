"""The kernel's one Kronecker codec, driven to its width boundary at both
digit placements: a Laurent y (the lowest digit, under balanced x digits)
and a lifted t (the top digit, over nonnegative x digits)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubmc._kernel_py import HALF, WIDTH, kron_pack, kron_unpack, lp_mul, pack, unpack
from schubmc.laurent import LaurentPolynomial
from schubmc.polyring import _t_product, _t_shift, _t_width

NVARS = 2
SH = _t_shift(NVARS)


def _coefficients(S):
    """Coefficients that fit S-bit balanced digits, the extremes included."""
    top = (1 << (S - 1)) - 1
    return st.one_of(st.sampled_from([top, -top]), st.integers(-top, top)).filter(bool)


@st.composite
def _laurent(draw):
    """(S, terms): keys with negative digits above y and negative y powers,
    one coefficient at the boundary +-(2^(S-1) - 1)."""
    S = draw(st.integers(3, 80))
    keys = st.builds(
        lambda e, y: pack(e, y),
        st.lists(st.integers(-5, 5), min_size=NVARS, max_size=NVARS),
        st.integers(-6, 6),
    )
    terms = draw(st.dictionaries(keys, _coefficients(S), min_size=1, max_size=10))
    k = draw(st.sampled_from(sorted(terms)))
    terms[k] = draw(st.sampled_from([1, -1])) * ((1 << (S - 1)) - 1)
    return S, terms


def _lifted_keys(base):
    """Lifted keys: nonnegative exponents and their degree under a t power
    near ``base``."""
    return st.builds(
        lambda e, t: (t << SH) + pack(e, sum(e)),
        st.lists(st.integers(0, 4), min_size=NVARS, max_size=NVARS),
        st.integers(base - 4, base + 2),
    )


# t powers around 0 and at and past the top digit's +-HALF: read whole
_bases = st.sampled_from([0, -3, HALF - 1, -HALF, 3 * HALF])


@st.composite
def _lifted(draw):
    """(S, terms): lifted keys with negative t powers, one coefficient at
    the boundary +-(2^(S-1) - 1)."""
    S = draw(st.integers(3, 80))
    keys = _lifted_keys(draw(_bases))
    terms = draw(st.dictionaries(keys, _coefficients(S), min_size=1, max_size=10))
    k = draw(st.sampled_from(sorted(terms)))
    terms[k] = draw(st.sampled_from([1, -1])) * ((1 << (S - 1)) - 1)
    return S, terms


def _power(key, sh):
    """The power of the packed digit, read the long way: the balanced
    lowest digit at sh = 0, everything from sh up over nonnegative digits."""
    if sh:
        return key >> sh
    return ((key + HALF) & ((1 << WIDTH) - 1)) - HALF


def _image(terms, sh, S, off):
    """The image by its definition: sum_e n_e 2^(S (e - off)) per key with
    the digit cleared."""
    out = {}
    for k, c in terms.items():
        e = _power(k, sh)
        x = k - (e << sh)
        out[x] = out.get(x, 0) + c * 2 ** (S * (e - off))
    return out


def _round_trip(terms, sh, S, below):
    off = min(_power(k, sh) for k in terms) - below
    img = kron_pack(terms, sh, S, off)
    assert img == _image(terms, sh, S, off)
    return kron_unpack(img, sh, S, off), off


@given(_laurent(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_codec_round_trip_at_the_lowest_digit(case, below):
    S, terms = case
    back, off = _round_trip(terms, 0, S, below)
    assert back == terms
    # through the LaurentPolynomial wrappers, at the solve's width rule:
    # every coefficient below 2^(bits-1)
    p = LaurentPolynomial({unpack(k, NVARS): c for k, c in terms.items()}, NVARS)
    assert p.y_image(S, off).y_decoded(S, off, 6 + below) == p
    # one bit too narrow: the extreme coefficient is no balanced digit
    assert _round_trip(terms, 0, S - 1, below)[0] != terms


@given(_lifted(), st.integers(0, 3))
@example((3, {(-HALF << SH) + pack([1, 0], 1): 3, (HALF << SH) + pack([1, 0], 1): -1}), 0)
@settings(max_examples=300, deadline=None)
def test_codec_round_trip_at_the_top_digit(case, below):
    S, terms = case
    back, _ = _round_trip(terms, SH, S, below)
    assert back == terms
    # the width policy of the lifted products: S from the largest coefficient
    bound = max(map(abs, terms.values()))
    assert _t_width(bound) == S
    assert _round_trip(terms, SH, S - 1, below)[0] != terms


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packed_lifted_products_match_the_kernel_product(data):
    # negative t powers and t powers past +-HALF on both sides, at the width
    # _t_product proves from its operands' l1 norms
    S = data.draw(st.integers(3, 40))
    a, b = (
        data.draw(st.dictionaries(_lifted_keys(data.draw(_bases)), _coefficients(S),
                                  min_size=1, max_size=6))
        for _ in range(2)
    )
    assert _t_product(a, b, NVARS, HALF - 1) == lp_mul(a, b)
