"""Every class family grown by ``RootSystem.along_word`` against the loop it replaced.

The ``ref_*`` functions are the earlier routes, kept here as references: the
ascent searches of the dual CSM class and of the opposite dual MC class, the
word loops of the Hirzebruch class and of its dual (each with the slack of
its own word), and the numeric Schubert loop.  They memoize in local dicts,
so they never read the root system's memo.
"""

import json
from fractions import Fraction

import pytest

from schubmc.cohomology import cohomology, numeric_cohomology
from schubmc.hirzebruch import hirzebruch
from schubmc.kclasses import ktheory
from schubmc.mc import dual_motivic_chern
from schubmc.roots import RootSystem


def ref_dual_csm(ctx, v, seen):
    if v not in seen:
        w0 = ctx.rs.longest_element()
        if v == w0:
            seen[v] = ctx.point_class(w0)
        else:
            for i in range(1, ctx.rs.rank + 1):
                vs = v * ctx.rs.simple_reflection(i)
                if vs.length > v.length:
                    seen[v] = ctx.dl_coh(i, ref_dual_csm(ctx, vs, seen), dual=True)
                    break
    return seen[v]


def ref_dual_mc_opposite(kt, w, seen):
    if w not in seen:
        w0 = kt.rs.longest_element()
        if w == w0:
            seen[w] = kt.opp_structure_sheaf(w0)
        else:
            for i in range(1, kt.rs.rank + 1):
                ws = w * kt.rs.simple_reflection(i)
                if ws.length > w.length:
                    seen[w] = kt.l_operator(i, ref_dual_mc_opposite(kt, ws, seen))
                    break
    return seen[w]


def ref_hirzebruch_word(hz, w, cap):
    cur = hz.point_class(hz.rs.identity, cap + w.length)
    for i in w.word:
        cur = hz.dl_h(i, cur, normalized=False)
    return cur.truncate(cap)


def ref_dual_hirzebruch(hz, v, cap):
    w0 = hz.rs.longest_element()
    word = (v.inverse() * w0).word
    cur = hz.point_class(w0, cap + len(word))
    for i in reversed(word):
        cur = hz.l_h(i, cur, normalized=False)
    return cur.truncate(cap)


def ref_numeric_schubert(num, w, seen):
    if w not in seen:
        if w.length == 0:
            seen[w] = {w: num.euler_at(w)}
        else:
            i = w.word[-1]
            s = num.rs.simple_reflection(i)
            alpha = num.rs.simple_root(i)
            prev = ref_numeric_schubert(num, w * s, seen)
            f = {}
            for u in set(prev) | {v * s for v in prev}:
                val = prev.get(u * s, Fraction(0)) - prev.get(u, Fraction(0))
                if val:
                    f[u] = val / num.weight_value(u.act(alpha))
            seen[w] = f
    return seen[w]


def _typed(packed):
    return {k: (type(c).__name__, c) for k, c in packed.items()}


def poly_form(cls):
    """Fixed point -> the packed terms of its polynomial, coefficient types included."""
    return {w: _typed(p.packed) for w, p in cls.coeffs.items()}


def series_form(cls):
    """Fixed point -> cap and packed terms per degree of its series."""
    return {
        w: (s.cap, {d: _typed(p.packed) for d, p in s.comps.items()})
        for w, s in cls.coeffs.items()
    }


SYSTEMS = [("A", 2), ("B", 2), ("G", 2)]


@pytest.mark.parametrize("lie_type,rank", SYSTEMS + [("A", 3)])
def test_dual_csm_matches_the_ascent_search(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    ctx, seen = cohomology(rs), {}
    for v in rs.weyl_group():
        assert poly_form(ctx.dual_csm(v)) == poly_form(ref_dual_csm(ctx, v, seen)), v.name()


@pytest.mark.parametrize("lie_type,rank", SYSTEMS + [("A", 3)])
def test_numeric_schubert_matches_the_loop(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    num, seen = numeric_cohomology(rs), {}
    for w in rs.weyl_group():
        got, want = num.schubert(w), ref_numeric_schubert(num, w, seen)
        assert got == want and all(type(c) is Fraction for c in got.values()), w.name()
        assert num.opposite_schubert(w) == {
            rs.longest_element() * u: c
            for u, c in ref_numeric_schubert(
                num._transformed_twin(), rs.longest_element() * w, {}
            ).items()
        }


@pytest.mark.parametrize("lie_type,rank", SYSTEMS)
def test_opposite_dual_mc_matches_the_ascent_search(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    kt, seen = ktheory(rs), {}
    for w in rs.weyl_group():
        got, want = dual_motivic_chern(kt, w, opposite=True), ref_dual_mc_opposite(kt, w, seen)
        assert got == want, w.name()
        text = [json.dumps(kt.expand(c, "Oop").to_json_obj()) for c in (got, want)]
        assert text[0] == text[1], w.name()


@pytest.mark.parametrize("lie_type,rank,cap", [("A", 2, 8), ("B", 2, 8), ("G", 2, 8)])
def test_hirzebruch_word_routes_match_the_loops(lie_type, rank, cap):
    rs = RootSystem(lie_type, rank)
    hz = hirzebruch(rs, cap)
    for w in rs.weyl_group():
        got = hz.hirzebruch_class(w, check_routes=False)
        assert series_form(got) == series_form(ref_hirzebruch_word(hz, w, cap)), w.name()
        got = hz.dual_hirzebruch_class(w)
        assert series_form(got) == series_form(ref_dual_hirzebruch(hz, w, cap)), w.name()
