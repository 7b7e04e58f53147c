"""``cli._dumps`` against the stdlib's indented encoder, its reference."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubmc.cli import _dumps

GOLDEN = pathlib.Path(__file__).parent / "golden"

# quote, backslash, control characters, non-ASCII (BMP and astral) and plain text
_text = st.one_of(
    st.text(),
    st.text(alphabet='"\\\x00\x01\n\r\t\x1f\x7f \u00e9\u2028\u20ac\U0001f600/:,[]{}ab', max_size=12),
)
_ints = st.one_of(st.integers(), st.integers(min_value=-(10 ** 40), max_value=10 ** 40))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _text)
_keys = st.one_of(_text, _ints, st.booleans())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_ints, max_size=6),  # the one-join path of int vectors
        st.dictionaries(_keys, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_dumps_is_the_indented_stdlib_dump(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), [[]], {"a": {}}, [1, True, 2], [False, 0], {1: "a", False: "b", None: 1.5},
     [1.0, -0.5, float("inf")], {"exp": [0, -3, 10 ** 30], "coeff": "-7/2"}, "\u00e9\u2028\"\\"],
)
def test_dumps_edge_cases(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, [object()], {"a": {1, 2}}])
def test_dumps_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _dumps(obj)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_dumps_writes_every_golden(name):
    raw = (GOLDEN / name).read_bytes()
    assert (_dumps(json.loads(raw)) + "\n").encode() == raw
