"""Streamed artifacts against the payload tree that the CLI used to build.

``cli._emit`` writes each coefficient's text straight from its packed terms.
The reference here is the tree route it replaced: term lists read off the
tuple-keyed ``terms`` view, ``_poly_obj``/``_ypoly_obj`` dicts, and
``cli._dumps`` (itself checked against ``json.dumps(indent=2)`` in
test_dumps.py).  Every route out of ``_emit`` must give those bytes.
"""

import argparse
import contextlib
import io
import itertools
import os
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from schubmc import cli
from schubmc._kernel_py import HALF
from schubmc.laurent import LaurentPolynomial, YPolynomial
from schubmc.polyring import Poly, YFrac

# -- the reference: the payload tree and its _dumps text --------------------------------


def _laurent_obj(p):
    terms = sorted(p.terms.items(), reverse=True)
    return [{"exp": list(e), "y": yp, "coeff": str(c)} for (e, yp), c in terms]


def _poly_obj(p, varnames):
    terms = [{"exp": list(e), "coeff": str(c)} for e, c in sorted(p.terms.items(), reverse=True)]
    return {"vars": varnames, "terms": terms}


def _ypoly_obj(p):
    return {"offset": p.offset, "coeffs": [str(c) for c in p.coeffs]}


# -- random classes ------------------------------------------------------------------------

# small digits, any digit, and the two extremes of the packing range
_digit = st.one_of(
    st.integers(-3, 3), st.integers(-(HALF - 1), HALF - 1), st.sampled_from([1 - HALF, HALF - 1])
)
_int = st.one_of(st.integers(-5, 5).filter(bool), st.integers(-(10**30), 10**30).filter(bool))
_fraction = st.builds(Fraction, _int, st.integers(1, 10**6))
_yfrac = st.builds(YFrac, st.lists(_fraction, min_size=1, max_size=4), st.integers(0, 3)).filter(bool)


@st.composite
def _laurent(draw, nvars):
    keys = st.tuples(st.tuples(*[_digit] * nvars), _digit)
    return LaurentPolynomial(draw(st.dictionaries(keys, _int, max_size=8)), nvars)


@st.composite
def _poly(draw, nvars):
    top = (HALF - 1) // nvars  # the total degree is a digit too
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, top))] * nvars)
    coeff = draw(st.sampled_from([_int, _fraction, _yfrac]))
    return Poly(draw(st.dictionaries(exps, coeff, max_size=8)), nvars)


_ypoly = st.builds(
    YPolynomial, st.lists(st.one_of(_int, _fraction, st.just(0)), max_size=6), st.integers(-5, 5)
)

_names = st.lists(
    st.sampled_from(["id", "s1", "s2", "s1s2", "s2s1", "w0"]), min_size=1, max_size=3, unique=True
)


@st.composite
def _artifact(draw):
    """(payload with leaves, the same payload as a tree): one artifact kind's layout."""
    kind = draw(st.sampled_from(["laurent", "ypoly", "poly", "series", "chi"]))
    nvars = draw(st.integers(1, 8))
    varnames = [f"a{i}" for i in range(1, nvars + 1)]
    if kind == "chi":  # the class itself is the leaf
        p = draw(_ypoly)
        leaves, tree = cli._Leaf(cli._ypoly_text, p), _ypoly_obj(p)
        names = []
    else:
        leaves, tree = {}, {}
        names = draw(_names)
    for name in names:
        if kind == "laurent":  # hecke, mc compute and its --parabolic numerators
            p = draw(_laurent(nvars))
            leaves[name], tree[name] = cli._Leaf(cli._laurent_text, p), _laurent_obj(p)
        elif kind == "ypoly":  # mc compute --nonequivariant
            p = draw(_ypoly)
            leaves[name], tree[name] = cli._Leaf(cli._ypoly_text, p), _ypoly_obj(p)
        elif kind == "poly":  # csm
            p = draw(_poly(nvars))
            leaves[name] = cli._Leaf(cli._poly_text, p, varnames)
            tree[name] = _poly_obj(p, varnames)
        else:  # hirzebruch: one Poly per degree
            degrees = draw(st.lists(st.integers(0, 9), max_size=3))
            comps = {str(d): draw(_poly(nvars)) for d in degrees}
            leaves[name] = {d: cli._Leaf(cli._poly_text, p, varnames) for d, p in comps.items()}
            tree[name] = {d: _poly_obj(p, varnames) for d, p in comps.items()}
    # the keys every cached mc compute payload has, then the coefficients
    envelope = {"space": "X", "cell": "w0", "basis": "O", "nonequivariant": kind == "ypoly"}
    return {**envelope, "coeffs": leaves}, {**envelope, "coeffs": tree}


def test_the_reference_terms_are_the_canonical_terms():
    p = LaurentPolynomial({((1, -2), 0): 3, ((1, -2), -1): -1, ((0, 5), 2): 7}, 2)
    assert _laurent_obj(p) == p.to_json_obj()
    assert [t["y"] for t in _laurent_obj(p)] == [0, -1, 2]


_count = itertools.count()


@settings(max_examples=100, deadline=None)
@given(_artifact())
def test_streamed_bytes_are_the_dumps_of_the_payload_tree(tmp_path_factory, artifact):
    payload, tree = artifact
    want = cli._dumps(tree) + "\n"
    # stdout
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(argparse.Namespace(out=None), payload)
    assert out.getvalue() == want
    # --out
    root = tmp_path_factory.mktemp("emit")
    path = root / "out.json"
    cli._emit(argparse.Namespace(out=str(path)), payload)
    assert path.read_text() == want
    # the cache: a miss streams into the cache file, a hit copies it
    with mock.patch.dict(os.environ, {"SCHUBMC_CACHE_DIR": str(root / "cache")}):
        key = f"case {next(_count)}"
        miss = cli._cached_json("mc", key, lambda: payload)
        assert miss == cli._cache_path("mc", key)
        with open(miss) as fh:
            assert fh.read() + "\n" == want
        hit = cli._cached_json("mc", key, lambda: 1 / 0)
        for route, found in (("miss", miss), ("hit", hit)):
            path = root / f"{route}.json"
            cli._emit(argparse.Namespace(out=str(path)), found)
            assert path.read_text() == want
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit(argparse.Namespace(out=None), hit)
        assert out.getvalue() == want


def test_a_cache_file_longer_than_a_chunk_is_copied_whole(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(tmp_path / "cache"))
    p = LaurentPolynomial({((e, -e), e % 3): e + 1 for e in range(3000)}, 2)
    leaf = cli._Leaf(cli._laurent_text, p)
    payload = {"space": "A2", "cell": "w0", "basis": "O", "coeffs": {"id": leaf}}
    want = cli._dumps({**payload, "coeffs": {"id": _laurent_obj(p)}}) + "\n"
    assert len(want) > 3 * (1 << 16)
    for build in (lambda: payload, lambda: 1 / 0):  # a miss, then a hit
        path = cli._cached_json("mc", "long", build)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit(argparse.Namespace(out=None), path)
        assert out.getvalue() == want
