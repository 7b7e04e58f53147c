"""Weyl elements keyed by their rho-image against the matrix route they replaced.

``weyl_matrix_reference.MatrixWeylGroup`` enumerates W by matrix products
and reads words, lengths, products, inverses, reflections and the Bruhat
order off the matrices.  Every element of A3, B3, G2 and F4, and a seeded
sample of E6, must agree with it; the structural tests pin what the
rho-image route is for: interned elements, equal by identity, an
enumeration that makes no matrix product, and root and reflection tables
that fill on first use and are read after it.
"""

import itertools
import random

import pytest

from schubmc import roots
from schubmc.roots import ParabolicDatum, RootSystem, WeylElement
from weyl_matrix_reference import MatrixWeylGroup, mat_mul, mat_vec


def _fundamental_weights(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


def _agree(rs, ref, w, m, by_mat):
    """w and the matrix m are the same element, down to every derived datum."""
    assert w.mat == m and w.image == ref.rho_image(m)
    assert (w.word, w.length, w.name()) == (ref.word(m), ref.length(m), ref.name(m))
    assert w.right_descents() == ref.right_descents(m)
    assert w.inverse() is by_mat(ref.inverse(m))
    for i in range(1, rs.rank + 1):
        s = rs.simple_reflection(i)
        assert w * s is by_mat(mat_mul(m, ref.simple[i]))
        assert s * w is by_mat(mat_mul(ref.simple[i], m))
        assert w.act(rs.simple_root(i)) == mat_vec(m, rs.simple_root(i))
    for om in _fundamental_weights(rs.rank):
        assert w.act(om) == mat_vec(m, om)


@pytest.mark.parametrize("t,r", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_every_element_matches_the_matrix_route(t, r):
    rs = RootSystem(t, r)
    ref = MatrixWeylGroup(rs)
    mats = ref.elements()
    W = rs.weyl_group()
    # the same elements, in exactly the same cell_order
    assert [w.mat for w in W] == mats
    by_mat = dict(zip(mats, W)).__getitem__
    for w, m in zip(W, mats):
        _agree(rs, ref, w, m, by_mat)
    rng = random.Random(20240)
    for _ in range(300):
        a, b = rng.randrange(len(W)), rng.randrange(len(W))
        assert W[a] * W[b] is by_mat(mat_mul(mats[a], mats[b]))
    for beta in rs.positive_roots:
        assert rs.reflection(beta) is by_mat(ref.reflection(beta))


@pytest.mark.parametrize("t,r", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_root_images_and_reflection_products_match_the_matrix_route(monkeypatch, t, r):
    rs = RootSystem(t, r)
    ref = MatrixWeylGroup(rs)
    mats = ref.elements()
    W = rs.weyl_group()
    by_mat = dict(zip(mats, W)).__getitem__
    # set-up, enumeration and names, fills no table
    [w.name() for w in W]
    for name in ("_images", "_times"):
        assert [w for w in W if roots._known(w, name) is not None] == []
    all_roots = list(rs.positive_roots) + [tuple(-x for x in b) for b in rs.positive_roots]
    reflections = [(rs.reflection(b), ref.reflection(b)) for b in rs.positive_roots]
    for w, m in zip(W, mats):
        for _ in range(2):  # the first pass fills the tables, the second reads them
            for beta in all_roots:
                assert w.act(beta) == mat_vec(m, beta)
            for s, sm in reflections:
                assert w * s is by_mat(mat_mul(m, sm))
        # one entry per root and per reflection, interned, and nothing else
        assert set(w._images) == set(all_roots)
        assert set(w._times) == {s for s, _ in reflections}
        assert all(rs._roots[k] is k and rs._roots[v] is v for k, v in w._images.items())
    # every further root image and reflection product is a table read
    calls = []
    mat_vec_ = roots._mat_vec
    monkeypatch.setattr(roots, "_mat_vec", lambda mm, v: calls.append(v) or mat_vec_(mm, v))
    for w in W:
        for beta in all_roots:
            w.act(beta)
        for s, _ in reflections:
            w * s
    assert calls == []
    # any other weight takes the matrix and is not stored, whatever its type
    w = W[-1]
    others = [om for om in _fundamental_weights(r) + [rs.rho] if om not in rs._roots]
    for om in others:
        assert w.act(om) == w.act(list(om)) == mat_vec(w.mat, om)
    assert len(w._images) == len(all_roots) and len(calls) == 2 * len(others) > 0


@pytest.mark.parametrize("t,r", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_min_reps_and_right_descents_match_the_matrix_route(t, r):
    # right descents read off w^-1 rho, and the minimal coset representatives
    # of every parabolic, against the descents of the matrices
    rs = RootSystem(t, r)
    ref = MatrixWeylGroup(rs)
    W = rs.weyl_group()
    descents = [ref.right_descents(m) for m in ref.elements()]
    assert [w.right_descents() for w in W] == descents
    for k in range(r + 1):
        for subset in itertools.combinations(range(1, r + 1), k):
            want = tuple(w for w, d in zip(W, descents) if not set(d) & set(subset))
            assert ParabolicDatum(rs, subset).min_reps == want


@pytest.mark.parametrize("t,r", [("A", 3), ("G", 2)])
def test_bruhat_order_matches_the_matrix_route(t, r):
    rs = RootSystem(t, r)
    ref = MatrixWeylGroup(rs)
    pairs = list(zip(rs.weyl_group(), ref.elements()))
    for u, mu in pairs:
        for w, mw in pairs:
            assert rs.bruhat_leq(u, w) == ref.bruhat_leq(mu, mw)


def test_a_sample_of_e6_matches_the_matrix_route():
    rs = RootSystem("E", 6)
    ref = MatrixWeylGroup(rs)
    rng = random.Random(6)
    # elements made before W is enumerated: words and matrices down descent chains
    words = [[rng.randint(1, 6) for _ in range(rng.randint(0, 40))] for _ in range(60)]
    sample = [(rs.from_word(word), ref.from_word(word)) for word in words]
    known = {m: w for w, m in sample}

    def by_mat(m):
        w = known.get(m)
        return w if w is not None else rs.from_word(ref.word(m))

    for w, m in sample:
        _agree(rs, ref, w, m, by_mat)
        assert rs.from_word(ref.word(m)) is w
    for (u, mu), (v, mv) in zip(sample, sample[1:]):
        assert (u * v).mat == mat_mul(mu, mv)
    for beta in rs.positive_roots:
        assert rs.reflection(beta).mat == ref.reflection(beta)
    # the enumeration reuses the elements made before it, and lists a
    # sample of its own in the reference's words and order
    W = rs.weyl_group()
    assert len(W) == 51840
    index = {w: k for k, w in enumerate(W)}
    distinct = list(known.items())
    assert sorted(distinct, key=lambda mw: index[mw[1]]) == sorted(
        distinct, key=lambda mw: (ref.length(mw[0]), ref.word(mw[0]))
    )
    picked = W[::997]
    assert [(w.word, w.length) for w in picked] == [
        (ref.word(w.mat), ref.length(w.mat)) for w in picked
    ]
    keys = [(ref.length(w.mat), ref.word(w.mat)) for w in picked]
    assert keys == sorted(keys)


def test_elements_are_interned_and_equal_by_identity():
    rs = RootSystem("A", 3)
    W = rs.weyl_group()
    assert WeylElement.__eq__ is object.__eq__ and WeylElement.__hash__ is object.__hash__
    assert len({w.image for w in W}) == len(W) == len(rs._elements) == 24
    for w in W:
        assert rs.from_word(w.word) is w
        assert rs._elements[w.image] is w
    s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
    assert s1 * s2 * s1 is s2 * s1 * s2
    assert rs.longest_element().image == (-1, -1, -1)


def test_enumerating_w_e6_makes_no_matrix_product(monkeypatch):
    calls = []
    mat_vec_, mul_ = roots._mat_vec, WeylElement.__mul__
    monkeypatch.setattr(roots, "_mat_vec", lambda m, v: calls.append("mat_vec") or mat_vec_(m, v))
    monkeypatch.setattr(WeylElement, "__mul__", lambda u, v: calls.append("mul") or mul_(u, v))
    rs = RootSystem("E", 6)
    W = rs.weyl_group()
    assert len(W) == 51840 and calls == []
    # no matrix was built either: the identity's is set at construction
    assert [w for w in W if roots._known(w, "mat") is not None] == [rs.identity]
    # a parabolic subgroup is enumerated the same way
    assert len(rs._generate([1, 3])) == 6 and calls == []  # W(A2)


def test_min_reps_of_e6_make_no_matrix(monkeypatch):
    calls = []
    mat_vec_ = roots._mat_vec
    monkeypatch.setattr(roots, "_mat_vec", lambda m, v: calls.append("mat_vec") or mat_vec_(m, v))
    rs = RootSystem("E", 6)
    pd = ParabolicDatum(rs, {1})
    assert len(pd.min_reps) == 51840 // 2 and calls == []
    assert [w for w in rs.weyl_group() if roots._known(w, "mat") is not None] == [rs.identity]


@pytest.mark.parametrize("t,r", [("A", 3), ("B", 3), ("G", 2)])
def test_a_second_inverse_makes_no_left_step(monkeypatch, t, r):
    rs = RootSystem(t, r)
    W = rs.weyl_group()
    steps = []
    left_step = rs._left_step
    monkeypatch.setattr(rs, "_left_step", lambda image, i: steps.append(i) or left_step(image, i))
    for w in W:
        before = len(steps)
        u = w.inverse()
        assert len(steps) - before <= w.length
        # kept both ways: w^-1 knows w, and no call walks again
        before = len(steps)
        assert w.inverse() is u and u.inverse() is w and u.inverse().inverse() is u
        w.right_descents(), u.right_descents()
        assert len(steps) == before
    assert all((w * w.inverse()).is_identity() for w in W)
