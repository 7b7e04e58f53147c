from fractions import Fraction as F

import pytest

from lifted_reference import drop_last_variable
from schubmc.cohomology import cohomology
from schubmc.hirzebruch import (
    HClass,
    Hirzebruch,
    TruncationError,
    hirzebruch,
    hirzebruch_duality_check,
    segre_hirzebruch,
)
from schubmc.mc import motivic_chern
from schubmc.kclasses import ktheory
from schubmc.polyring import GradedSeries, Poly, YFrac
from schubmc.roots import RootSystem, RootSystemError, root_system


def test_chern_character_basics():
    rs = root_system("A", 1)
    kt = ktheory(rs)
    hz = hirzebruch(rs, 6)
    # ch of the unit class is 1 at every point
    unit = kt.structure_sheaf(rs.longest_element())
    ch = hz.chern_character(unit, 6)
    one = GradedSeries.const(YFrac.const(1), 6, 1)
    assert all(s == one for s in ch.coeffs.values())
    # symmetric combination kills the degree-one part
    from schubmc.laurent import LaurentPolynomial

    a1 = rs.simple_root(1)
    sym = kt.iota(rs.identity).scale(
        LaurentPolynomial.e(a1) + LaurentPolynomial.e(tuple(-x for x in a1))
    )
    # strip the self-intersection: use restriction-polynomial input directly
    cls = kt.structure_sheaf(rs.longest_element()).scale(
        LaurentPolynomial.e(a1) + LaurentPolynomial.e(tuple(-x for x in a1))
    )
    ch2 = hz.chern_character(cls, 6)
    for s in ch2.coeffs.values():
        assert not s.component(1)


def test_chern_character_rejects_fractions():
    rs = root_system("A", 1)
    kt = ktheory(rs)
    hz = hirzebruch(rs, 4)
    from schubmc.laurent import FactoredFraction, LaurentPolynomial, one_minus_e

    frac = FactoredFraction(
        LaurentPolynomial.const(1, 1), (one_minus_e((2,)), one_minus_e((2,)))
    )
    bad = kt.iota(rs.identity).scale(frac)
    with pytest.raises(ArithmeticError):
        hz.chern_character(bad, 4)


def _termwise_chern_character(hz, a, cap):
    """ch as the sum of exp(lambda) y^k c over the Laurent terms, one term at a time."""
    out = {}
    for w in a.coeffs:
        total = GradedSeries.zero(cap, hz.rs.rank)
        for (lam, k), c in a.restriction(w).as_polynomial().terms.items():
            total = total + hz._exp_cached(lam, cap) * YFrac.y_power(k, c)
        out[w] = total
    return out


@pytest.mark.parametrize("t", ["A", "B"])
def test_chern_character_matches_termwise_sum(t):
    rs = root_system(t, 2)
    kt = ktheory(rs)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        a = motivic_chern(kt, w)
        got = hz.chern_character(a, 8)
        want = _termwise_chern_character(hz, a, 8)
        assert set(got.coeffs) == set(want), w.name()
        for u, s in want.items():
            assert got.coeffs[u].cap == s.cap
            assert {d: p.terms for d, p in got.coeffs[u].comps.items()} == {
                d: p.terms for d, p in s.comps.items()
            }, (w.name(), u.name())


def test_todd_series_multiplicativity_and_units():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    assert hz.todd_series_of_weights((), "Td", 8) == GradedSeries.const(YFrac.const(1), 8, 2)
    w1, w2 = rs.simple_root(1), rs.simple_root(2)
    prod = hz.todd_series_of_weights((w1, w2), "uTdy", 8)
    assert prod == hz.todd_series(w1, "uTdy", 8) * hz.todd_series(w2, "uTdy", 8)
    # constant terms
    assert hz.todd_series(w1, "uTdy", 8).component(0) == Poly.const(YFrac([1, 1]), 2)
    assert hz.todd_series(w1, "nTdy", 8).component(0) == Poly.const(YFrac([1]), 2)


def test_point_class_and_identity_cell():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    cls = hz.hirzebruch_class(rs.identity, cap=8)
    assert cls.eq_mod_cap(hz.point_class(rs.identity, 8))


@pytest.mark.parametrize(
    "t,r,cap", [("A", 1, 6), ("A", 1, 8), ("A", 2, 8), ("B", 2, 8), ("G", 2, 8), ("A", 3, 8)]
)
def test_route_agreement(t, r, cap):
    # the word route against the Todd transform of the motivic Chern class
    rs = root_system(t, r)
    hz = hirzebruch(rs, cap)
    for w in rs.weyl_group():
        hz.hirzebruch_class(w, cap=cap, check_routes=True)


def _count_todd_transforms(monkeypatch):
    calls = []
    todd = Hirzebruch.todd_transform
    monkeypatch.setattr(
        Hirzebruch, "todd_transform", lambda *a, **k: calls.append(a) or todd(*a, **k)
    )
    return calls


def test_default_classes_take_the_word_route_alone(monkeypatch):
    rs = RootSystem("A", 2)  # a memo of its own
    hz = hirzebruch(rs, 6)
    calls = _count_todd_transforms(monkeypatch)
    cells = rs.weyl_group()
    for w in cells:
        hz.hirzebruch_class(w)
        hz.hirzebruch_class(w, normalized=True)
        segre_hirzebruch(hz, w)
        for v in cells:
            assert hirzebruch_duality_check(hz, w, v)[0]
    assert calls == []
    assert not [key for key in rs._memo if key[0] == "k"], "a K-theory class was built"


def test_route_check_runs_once_per_cell_and_cap(monkeypatch):
    rs = RootSystem("B", 2)
    hz = hirzebruch(rs, 6)
    w = rs.element_by_name("s1s2")
    built = hz.hirzebruch_class(w)
    calls = _count_todd_transforms(monkeypatch)
    assert hz.hirzebruch_class(w, check_routes=True) is built
    assert len(calls) == 1
    hz.hirzebruch_class(w, check_routes=True)
    hz.hirzebruch_class(w, normalized=True, check_routes=True)
    assert len(calls) == 1
    hz.hirzebruch_class(w, cap=4, check_routes=True)
    assert len(calls) == 2


def test_a_wrong_todd_route_fails_the_route_check(monkeypatch):
    rs = RootSystem("A", 2)
    hz = hirzebruch(rs, 6)
    todd = Hirzebruch.todd_transform
    monkeypatch.setattr(
        Hirzebruch, "todd_transform",
        lambda self, a, cap=None: todd(self, a, cap).scale(YFrac.const(2)),
    )
    for w in rs.weyl_group():
        hz.hirzebruch_class(w)
        with pytest.raises(TruncationError, match="routes disagree"):
            hz.hirzebruch_class(w, check_routes=True)


def test_y0_specialization_is_ideal_sheaf_todd():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        h = hz.hirzebruch_class(w, cap=8)
        lhs = h.evaluate_y(0)
        rhs = hz.todd_transform(kt.ideal_sheaf(w), 8).evaluate_y(0)
        assert lhs == rhs, w.name()


def test_normalized_y_minus1_is_csm():
    rs = root_system("A", 2)
    ctx = cohomology(rs)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        h = hz.hirzebruch_class(w, normalized=True, cap=8)
        vals = h.evaluate_y(-1)
        csm = ctx.csm(w).set_hbar(1)
        for u in set(vals) | set(csm.coeffs):
            got = vals.get(u, Poly.zero(rs.rank))
            want = drop_last_variable(csm.coefficient(u))
            assert got == want, (w.name(), u.name())


def test_adams_smooth_normalization():
    # the Adams operation carries the unnormalized class of the full space to
    # the normalized one
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    w0 = rs.longest_element()
    unnorm = HClass(
        hz,
        {w: hz.tangent_todd(w, "uTdy", 8) for w in rs.weyl_group()},
    )
    norm = HClass(
        hz,
        {w: hz.tangent_todd(w, "nTdy", 8) for w in rs.weyl_group()},
    )
    assert hz.adams_normalize(unnorm).eq_mod_cap(norm)


def test_adams_degree_scaling():
    rs = root_system("A", 1)
    hz = hirzebruch(rs, 4)
    pt = hz.point_class(rs.identity, 4)  # pure degree 1 = dim
    assert hz.adams_normalize(pt).eq_mod_cap(pt)
    one = HClass(hz, {rs.identity: GradedSeries.const(YFrac.const(1), 4, 1)})
    scaled = hz.adams_normalize(one)
    assert scaled.coefficient(rs.identity).component(0) == Poly.const(
        YFrac([1], 1), 1
    )


@pytest.mark.parametrize("lie_type, rank", [("A", 2), ("B", 2), ("G", 2)])
def test_normalized_classes_store_as_many_terms_as_unnormalized(lie_type, rank):
    # the Adams normalization shifts powers of t = 1 + y: every stored term
    # moves, none is added or cancelled
    rs = root_system(lie_type, rank)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        plain = hz.hirzebruch_class(w)
        normalized = hz.hirzebruch_class(w, normalized=True)
        assert set(normalized.coeffs) == set(plain.coeffs)
        for u, s in plain.coeffs.items():
            n = normalized.coeffs[u].poly
            assert len(n._t) == len(s.poly._t) and n._d == s.poly._d, (w.name(), u.name())
            assert sorted(n._t.values()) == sorted(s.poly._t.values())


def test_adams_intertwines_operators():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    a = hz.hirzebruch_class(rs.element_by_name("s1s2"), cap=8)
    for i in (1, 2):
        lhs = hz.adams_normalize(hz.dl_h(i, a, normalized=False))
        rhs = hz.dl_h(i, hz.adams_normalize(a), normalized=True)
        assert lhs.eq_mod_cap(rhs)


def test_operator_relations_mod_cap():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    a = hz.hirzebruch_class(rs.element_by_name("s2"), cap=8)
    one_plus_y = YFrac([1, 1])
    y = YFrac([0, 1])
    for i in (1, 2):
        t = hz.dl_h(i, a)
        # quadratic relation modulo cap
        expr = hz.dl_h(i, t + a) + (t + a).truncate(t.cap() - 1).scale(y)
        assert expr.eq_mod_cap(HClass(hz, {}), expr.cap())
    # braid relation
    lhs = hz.dl_h(1, hz.dl_h(2, hz.dl_h(1, a)))
    rhs = hz.dl_h(2, hz.dl_h(1, hz.dl_h(2, a)))
    assert lhs.eq_mod_cap(rhs)


def test_hirzebruch_duality_pairs():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    w0 = rs.longest_element()
    pairs = [(rs.identity, rs.identity), (w0, w0), (rs.identity, w0),
             (rs.element_by_name("s1"), rs.element_by_name("s1")),
             (rs.element_by_name("s1"), rs.element_by_name("s2"))]
    for u, v in pairs:
        val = hz.pair(hz.hirzebruch_class(u, cap=8), hz.dual_hirzebruch_class(v, cap=8))
        if u == v:
            want = hz.todd_series_of_weights(hz.tangent_weights(w0), "uTdy", val.cap)
        else:
            want = GradedSeries.zero(val.cap, 2)
        assert val == want, (u.name(), v.name())


def test_todd_chern_orthogonality():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    hz = hirzebruch(rs, 8)
    W = rs.weyl_group()
    for u in W:
        a = hz.todd_transform(kt.ideal_sheaf(u), 8)
        for v in W:
            b = hz.chern_character(kt.opp_structure_sheaf(v), 8)
            val = hz.pair(a, b)
            want = GradedSeries.const(YFrac.const(1 if u == v else 0), val.cap, 2)
            assert val == want, (u.name(), v.name())


def test_segre_identity():
    from schubmc.hirzebruch import segre_hirzebruch

    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        segre_hirzebruch(hz, w, cap=8)


def test_ghrr_operator_commutation():
    # the Todd transformation intertwines the two Demazure-Lusztig actions
    rs = root_system("A", 2)
    kt = ktheory(rs)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        a = motivic_chern(kt, w)
        for i in (1, 2):
            lhs = hz.todd_transform(kt.dl_operator(i, a), 8)
            rhs = hz.dl_h(i, hz.todd_transform(a, 8))
            assert lhs.eq_mod_cap(rhs), (w.name(), i)
        # the dual operator intertwines through the Chern character
        for i in (1, 2):
            lhs = hz.chern_character(kt.dl_dual(i, a).reduce(), 8)
            ch = hz.chern_character(a, 8)
            rhs = hz.dl_h(i, ch, dual=True)
            assert lhs.eq_mod_cap(rhs), (w.name(), i)


def test_rigidity_of_genus():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    for w in rs.weyl_group():
        val = hz.integrate(hz.hirzebruch_class(w, cap=8))
        # constant in the equivariant parameters, equal to (-y)^length
        want_map = {0: Poly.const(YFrac.y_power(w.length, (-1) ** w.length), 2)}
        assert val == GradedSeries(want_map, val.cap, 2)


def test_cap_stability():
    rs = root_system("A", 2)
    hz8 = hirzebruch(rs, 8)
    hz10 = hirzebruch(rs, 10)
    for w in rs.weyl_group():
        a = hz8.hirzebruch_class(w, cap=8)
        b = hz10.hirzebruch_class(w, cap=10)
        assert b.truncate(8).eq_mod_cap(a, 8)
        na = hz8.hirzebruch_class(w, normalized=True, cap=8)
        nb = hz10.hirzebruch_class(w, normalized=True, cap=10)
        assert nb.truncate(8).eq_mod_cap(na, 8)


def test_parabolic_pushforward_hirzebruch():
    from schubmc.hirzebruch import parabolic_pushforward_h

    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    pd = rs.parabolic([2])
    # pushing the class of a non-minimal cell matches (-y) times the minimal one
    w = rs.element_by_name("s2")  # not a minimal representative for P = {2}
    assert pd.min_rep(w) is rs.identity
    lhs = parabolic_pushforward_h(hz, hz.hirzebruch_class(w, cap=8), pd)
    rhs = parabolic_pushforward_h(hz, hz.hirzebruch_class(rs.identity, cap=8), pd)
    y = YFrac.y_power(1, -1)
    cap = min(s.cap for s in lhs.values())
    for u in set(lhs) | set(rhs):
        assert lhs[u].truncate(cap) == (rhs[u] * y).truncate(cap)
    # minimal representatives push to their own quotient classes
    for u in pd.min_reps:
        pushed = parabolic_pushforward_h(hz, hz.hirzebruch_class(u, cap=8), pd)
        assert u in pushed


def test_duality_check_api():
    from schubmc.hirzebruch import hirzebruch_duality_check

    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    s1, s2 = rs.element_by_name("s1"), rs.element_by_name("s2")
    assert hirzebruch_duality_check(hz, s1, s1, 8)[0]
    assert hirzebruch_duality_check(hz, s1, s2, 8)[0]


def test_engines_of_one_root_system_share_classes():
    from schubmc.hirzebruch import hirzebruch_duality_check

    # the memoized class is built by the cap-8 engine and handed to the default one
    rs = RootSystem("A", 2)
    s1 = rs.element_by_name("s1")
    built = hirzebruch(rs, 8).hirzebruch_class(s1, cap=6)
    assert hirzebruch(rs).hirzebruch_class(s1) is built
    assert hirzebruch_duality_check(hirzebruch(rs), s1, s1)[0]
    assert built + hirzebruch(rs).point_class(s1) == hirzebruch(rs, 8).point_class(s1, 6) + built


def test_truncating_upward_keeps_the_cap():
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    low = hz.tangent_todd(rs.identity, "Td", 4)
    high = hz.tangent_todd(rs.identity, "Td", 8)
    assert low.truncate(8).cap == 4
    assert low.truncate(8) == high
    assert high.truncate(4).cap == 4


def test_integral_stops_at_the_cap_of_its_class():
    # asked for more degrees than the class knows, the integral stops where
    # the class does, instead of reading the missing components as zero
    rs = root_system("A", 2)
    hz = hirzebruch(rs, 8)
    for u in rs.weyl_group():
        a = hz.hirzebruch_class(u, cap=4) * hz.dual_hirzebruch_class(u, cap=4)
        val = hz.integrate(a, cap=8)
        assert val.cap == 4 - hz.dim, u.name()
        full = hz.integrate(hz.hirzebruch_class(u, cap=8) * hz.dual_hirzebruch_class(u, cap=8))
        assert val == full, u.name()


def test_todd_lists_are_built_once_per_mode_and_served_as_prefixes(monkeypatch):
    import sys

    module = sys.modules["schubmc.hirzebruch"]
    fresh = {"Td": module.todd_coefficients, "uTdy": module.unnormalized_hirzebruch_coefficients}
    built = []
    for name, mode in [("todd_coefficients", "Td"), ("unnormalized_hirzebruch_coefficients", "uTdy")]:
        build = fresh[mode]
        monkeypatch.setattr(
            module, name, lambda cap, mode=mode, build=build: built.append((mode, cap)) or build(cap)
        )
    hz = hirzebruch(RootSystem("A", 1), 4)
    for mode, cap in [("uTdy", 3), ("uTdy", 7), ("uTdy", 5), ("uTdy", 0), ("Td", 2), ("uTdy", 7)]:
        assert hz._univ(mode, cap)[: cap + 1] == fresh[mode](cap)
    assert built == [("uTdy", 3), ("uTdy", 7), ("Td", 2)]


def test_the_euler_class_limit_lies_between_a7_and_d7():
    # A7 has the largest Euler class bound served, 1,344,904 monomials;
    # D7 (12,271,512) and E7 are refused before anything is built
    for t, r in (("E", 6), ("B", 6), ("C", 6), ("A", 7)):
        Hirzebruch(root_system(t, r))
    for t, r in (("D", 7), ("B", 7), ("A", 8), ("E", 7)):
        with pytest.raises(RootSystemError, match=f"an Euler class of {t}{r}"):
            Hirzebruch(root_system(t, r))
