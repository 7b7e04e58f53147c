"""Every class family grown by ``RootSystem.along_word`` against the loop it replaced.

The ``ref_*`` functions are the earlier routes, kept here as references: the
ascent searches of the dual CSM class and of the opposite dual MC class, the
word loops of the Hirzebruch class and of its dual (each with the slack of
its own word), and the numeric Schubert loop.  They memoize in local dicts,
so they never read the root system's memo.  The w0-twist routes of the
opposite families are in ``w0_twist_reference``.
"""

import functools
import json
from fractions import Fraction

import pytest
import w0_twist_reference as twist

from schubmc.cohomology import cohomology, numeric_cohomology
from schubmc.hirzebruch import hirzebruch
from schubmc.kclasses import ktheory
from schubmc.mc import dual_motivic_chern, motivic_chern
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
    # the opposite class of w is the Schubert class of w0 w at the w0-image
    # of the parameter point, translated by w0
    twin, w0, twin_seen = twist.numeric_twin(num), rs.longest_element(), {}
    for w in rs.weyl_group():
        got, want = num.schubert(w), ref_numeric_schubert(num, w, seen)
        assert got == want and all(type(c) is Fraction for c in got.values()), w.name()
        want = {w0 * u: c for u, c in ref_numeric_schubert(twin, w0 * w, twin_seen).items()}
        got = num.opposite_schubert(w)
        assert got == want and all(type(c) is Fraction for c in got.values()), w.name()


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


def _expansion_texts(kt, ctx, rs):
    """Cell name -> the JSON of the Oop and Iop expansions of the MC, dual MC
    and structure-sheaf classes, and the opposite Schubert expansions of the
    CSM and dual CSM classes."""
    out = {}
    for w in rs.weyl_group():
        classes = [
            motivic_chern(kt, w),
            dual_motivic_chern(kt, w, opposite=True),
            dual_motivic_chern(kt, w, opposite=False),
            kt.structure_sheaf(w),
            kt.opp_structure_sheaf(w),
        ]
        texts = [json.dumps(kt.expand(c, b).to_json_obj()) for c in classes for b in ("Oop", "Iop")]
        for c in (ctx.csm(w), ctx.dual_csm(w)):
            texts.append({u.name(): _typed(p.packed) for u, p in ctx.expand(c, opposite=True).items()})
        out[w.name()] = texts
    return out


@pytest.mark.parametrize("lie_type,rank", SYSTEMS + [("A", 3)])
def test_opposite_families_match_the_w0_twists(lie_type, rank, monkeypatch):
    rs = RootSystem(lie_type, rank)
    kt, ctx, num = ktheory(rs), cohomology(rs), numeric_cohomology(rs)
    for v in rs.weyl_group():
        for got, want in [
            (ctx.opposite_schubert_class(v), twist.opposite_schubert_class(ctx, v)),
            (ctx.csm_opposite(v), twist.csm_opposite(ctx, v)),
        ]:
            assert poly_form(got) == poly_form(want), v.name()
        # equal as values: an entry may carry 1 - e^-mu where the twist has
        # 1 - e^mu, times a unit
        assert kt.opp_structure_sheaf(v) == twist.opp_structure_sheaf(kt, v), v.name()
        assert kt.opp_ideal_sheaf(v) == twist.opp_ideal_sheaf(kt, v), v.name()
        assert num.opposite_schubert(v) == twist.numeric_opposite_schubert(num, v), v.name()
    # the expansions against the twisted bases, on a root system of their own
    old = RootSystem(lie_type, rank)
    kt_old, ctx_old = ktheory(old), cohomology(old)
    for name in ("opp_structure_sheaf", "opp_ideal_sheaf"):
        build = getattr(twist, name)
        monkeypatch.setattr(kt_old, name, functools.cache(lambda v, build=build: build(kt_old, v)))
    monkeypatch.setattr(
        ctx_old, "opposite_schubert_class", functools.cache(lambda v: twist.opposite_schubert_class(ctx_old, v))
    )
    assert _expansion_texts(kt, ctx, rs) == _expansion_texts(kt_old, ctx_old, old)
