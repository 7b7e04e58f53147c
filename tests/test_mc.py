import pytest

from conftest import random_kclass
from schubmc import mc as M
from schubmc.kclasses import ktheory
from schubmc.laurent import (
    FactoredFraction,
    LaurentPolynomial,
    YPolynomial,
    one_plus_ye,
    product_of_factors,
)
from schubmc.roots import RootSystem, neg_weight, root_system


def nonequiv_table(rs, kt, dual=False):
    out = {}
    for w in rs.weyl_group():
        cls = (
            M.dual_motivic_chern(kt, w, opposite=True)
            if dual
            else M.motivic_chern(kt, w)
        )
        exp = kt.expand(cls, "Oop" if dual else "O")
        out[w.name()] = {
            u.name(): p.to_dict() for u, p in exp.nonequivariant().items()
        }
    return out


def test_projective_line_class():
    rs = root_system("A", 1)
    kt = ktheory(rs)
    s = rs.simple_reflection(1)
    exp = kt.expand(M.motivic_chern(kt, s), "O")
    na = neg_weight(rs.simple_root(1))
    one = LaurentPolynomial.const(1, 1)
    y = LaurentPolynomial.y(1)
    e = LaurentPolynomial.e(na)
    assert exp.coefficient(s) == one + e * y
    assert exp.coefficient(rs.identity) == -(one + (one + e) * y)
    assert kt.expand(M.motivic_chern(kt, rs.identity), "O").coeffs == {
        rs.identity: one
    }


def test_rank2_equivariant_cell_class():
    """The length-two cell in the rank-2 type-A flag manifold, all four coefficients."""
    rs = root_system("A", 2)
    kt = ktheory(rs)
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    e = LaurentPolynomial.e
    one = LaurentPolynomial.const(1, 2)
    y = LaurentPolynomial.y(2)
    na1, na2 = neg_weight(a1), neg_weight(a2)
    na12 = neg_weight(tuple(x + z for x, z in zip(a1, a2)))
    w = rs.element_by_name("s1s2")
    exp = kt.expand(M.motivic_chern(kt, w), "O")
    assert exp.coefficient(w) == (one + e(na1) * y) * (one + e(na12) * y)
    assert exp.coefficient(rs.element_by_name("s1")) == -(
        (one + e(na1) * y) * (one + (one + e(na12)) * y)
    )
    assert exp.coefficient(rs.element_by_name("s2")) == -(
        one
        + (one + e(na1)) * (one + e(na2)) * y
        + e(na2) * (one + e(na1) + e(na1) * e(na1)) * y * y
    )
    s2all = e(na1) + e(na2) + e(na12)
    assert exp.coefficient(rs.identity) == (
        one
        + (one + one + s2all) * y
        + (one + s2all + e(na1) * e(na12)) * y * y
    )


FL3_MC = {
    "id": {"id": {0: 1}},
    "s1": {"s1": {0: 1, 1: 1}, "id": {0: -1, 1: -2}},
    "s2": {"s2": {0: 1, 1: 1}, "id": {0: -1, 1: -2}},
    "s1s2": {
        "s1s2": {0: 1, 1: 2, 2: 1},
        "s1": {0: -1, 1: -3, 2: -2},
        "s2": {0: -1, 1: -4, 2: -3},
        "id": {0: 1, 1: 5, 2: 5},
    },
    "s2s1": {
        "s2s1": {0: 1, 1: 2, 2: 1},
        "s2": {0: -1, 1: -3, 2: -2},
        "s1": {0: -1, 1: -4, 2: -3},
        "id": {0: 1, 1: 5, 2: 5},
    },
    "s1s2s1": {
        "s1s2s1": {0: 1, 1: 3, 2: 3, 3: 1},
        "s1s2": {0: -1, 1: -4, 2: -5, 3: -2},
        "s2s1": {0: -1, 1: -4, 2: -5, 3: -2},
        "s1": {0: 1, 1: 5, 2: 9, 3: 5},
        "s2": {0: 1, 1: 5, 2: 9, 3: 5},
        "id": {0: -1, 1: -5, 2: -11, 3: -8},
    },
}

FL3_DUAL = {
    "s1s2s1": {"s1s2s1": {0: 1}},
    "s1s2": {"s1s2": {0: 1, 1: 1}, "s1s2s1": {1: 1}},
    "s2s1": {"s2s1": {0: 1, 1: 1}, "s1s2s1": {1: 1}},
    "s1": {
        "s1": {0: 1, 1: 2, 2: 1},
        "s1s2": {1: 1, 2: 1},
        "s2s1": {1: 2, 2: 2},
        "s1s2s1": {2: 1},
    },
    "s2": {
        "s2": {0: 1, 1: 2, 2: 1},
        "s1s2": {1: 2, 2: 2},
        "s2s1": {1: 1, 2: 1},
        "s1s2s1": {2: 1},
    },
    "id": {
        "id": {0: 1, 1: 3, 2: 3, 3: 1},
        "s1": {1: 1, 2: 2, 3: 1},
        "s2": {1: 1, 2: 2, 3: 1},
        "s1s2": {2: 2, 3: 2},
        "s2s1": {2: 2, 3: 2},
        "s1s2s1": {3: 1},
    },
}


def test_rank2_nonequivariant_tables():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    assert nonequiv_table(rs, kt) == FL3_MC
    assert nonequiv_table(rs, kt, dual=True) == FL3_DUAL


@pytest.mark.parametrize("t,r", [("A", 1), ("A", 2)])
def test_duality_pairings(t, r):
    rs = root_system(t, r)
    kt = ktheory(rs)
    for u in rs.weyl_group():
        for v in rs.weyl_group():
            ok, got, want = M.verify_mc_duality(kt, u, v)
            assert ok, (u.name(), v.name())


def test_reduced_word_independence():
    rs = root_system("B", 2)
    kt = ktheory(rs)
    import itertools

    for w in rs.weyl_group():
        target = M.motivic_chern(kt, w)
        # every reduced word gives the same class
        for word in itertools.permutations(w.word):
            if rs.from_word(word) is not w:
                continue
            cur = kt.iota(rs.identity)
            for i in word:
                cur = kt.dl_operator(i, cur)
            assert cur == target


@pytest.mark.parametrize("t,r", [("A", 2), ("G", 2)])
def test_specializations(t, r):
    rs = root_system(t, r)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        for mode in ("y=-1", "y=0", "top"):
            got, want, ok = M.specialize_mc(kt, w, mode)
            assert ok, (w.name(), mode)
        assert M.motivic_chern(kt, w).y_degree() == w.length
        for mode in ("y=-1", "y=0"):
            got, want, ok = M.specialize_dual_mc(kt, w, mode)
            assert ok, (w.name(), mode)


def test_sum_rule_and_divisibility_rank2():
    rs = root_system("B", 2)
    kt = ktheory(rs)
    from schubmc.laurent import divide_exact

    one_plus_y = LaurentPolynomial({((0, 0), 0): 1, ((0, 0), 1): 1}, 2)
    for w in rs.weyl_group():
        exp = kt.expand(M.motivic_chern(kt, w), "O")
        total = LaurentPolynomial.zero(2)
        for c in exp.coeffs.values():
            total = total + c
        assert total == LaurentPolynomial.monomial((0, 0), w.length, (-1) ** w.length)
        for u, c in exp.coeffs.items():
            p = c.substitute_nonequivariant().to_laurent(2)
            for _ in range(u.length):
                p = divide_exact(p, one_plus_y)
                assert p is not None
        assert exp.coefficient(rs.identity).substitute_nonequivariant().evaluate(-1) == 1


def test_negative_cone_normal_form():
    rs = root_system("B", 2)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        for u, c in kt.expand(M.motivic_chern(kt, w), "O").items():
            assert M.coefficients_in_negative_cone(rs, c), (w.name(), u.name())


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2)])
def test_segre_two_routes(t, r):
    rs = root_system(t, r)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        M.segre_mc(kt, w)


def test_star_duality_full():
    for t, r in [("A", 2), ("B", 2)]:
        rs = root_system(t, r)
        kt = ktheory(rs)
        for w in rs.weyl_group():
            rep = M.star_duality_report(kt, w)
            assert all(rep.values()), (t, r, w.name(), rep)


def test_psi_intertwining_random(rng):
    rs = root_system("B", 2)
    kt = ktheory(rs)
    for _ in range(5):
        a = random_kclass(rs, rng)
        for i in (1, 2):
            assert M.psi_intertwines_dl(kt, a, i)


def test_chi_genus():
    rs = root_system("A", 2)
    assert M.chi_minus_q(rs) == YPolynomial([1, 2, 2, 1])
    pt = root_system("A", 1)
    assert M.chi_y_genus(pt, cell=pt.identity) == YPolynomial([1])
    rs4 = root_system("A", 3)
    fact4 = YPolynomial([1, 1]) * YPolynomial([1, 1, 1]) * YPolynomial([1, 1, 1, 1])
    assert M.chi_minus_q(rs4) == fact4
    gr = rs4.parabolic([1, 3])
    assert M.chi_minus_q(rs4, gr) == YPolynomial([1, 1, 2, 1, 1])
    # cell-level truncation
    w = rs4.parse_element("s2")
    assert M.chi_minus_q(rs4, gr, w) == YPolynomial([1, 1])


def test_parabolic_pushforward_gates():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    pd = rs.parabolic([2])
    sp = M.quotient_space(kt, pd)
    for w in rs.weyl_group():
        u = pd.min_rep(w)
        assert M.parabolic_pushforward(kt, kt.iota(w), pd) == sp.point_class(u)
        assert M.parabolic_pushforward(kt, kt.structure_sheaf(w), pd) == M.quotient_structure_sheaf(kt, pd, u)
    # identity parabolic acts as the identity on coefficients
    pid = rs.parabolic([])
    for w in [rs.identity, rs.element_by_name("s1s2")]:
        cls = M.motivic_chern(kt, w)
        pushed = M.parabolic_pushforward(kt, cls, pid)
        assert {v: c for v, c in pushed.coeffs.items()} == dict(cls.coeffs)


def test_parabolic_pushforward_mc_factor():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    pd = rs.parabolic([2])
    for w in rs.weyl_group():
        assert M.check_pushforward_mc(kt, pd, w)
    # sum rule over the quotient
    for u in pd.min_reps:
        cls = M.motivic_chern_parabolic(kt, pd, u)
        total = FactoredFraction.zero(2)
        for c in cls.coeffs.values():
            total = total + c
        assert total == FactoredFraction(
            LaurentPolynomial.monomial((0, 0), u.length, (-1) ** u.length)
        )


def test_parabolic_two_step_factorization():
    rs = root_system("A", 3)
    kt = ktheory(rs)
    small = rs.parabolic([3])
    big = rs.parabolic([2, 3])
    for w in [rs.identity, rs.parse_element("s1"), rs.parse_element("s2s3"), rs.longest_element()]:
        cls = M.motivic_chern(kt, w)
        direct = M.parabolic_pushforward(kt, cls, big)
        composed = M.parabolic_pushforward(kt, M.parabolic_pushforward(kt, cls, small), big)
        assert direct == composed
    # the target parabolic must contain the source one
    on_small = M.parabolic_pushforward(kt, M.motivic_chern(kt, rs.parse_element("s1")), small)
    with pytest.raises(ValueError):
        M.parabolic_pushforward(kt, on_small, rs.parabolic([1, 2]))


def test_parabolic_specialize_on_quotient():
    rs = root_system("A", 3)
    kt = ktheory(rs)
    gr = rs.parabolic([1, 3])
    sp = M.quotient_space(kt, gr)
    for u in gr.min_reps:
        cls = M.motivic_chern_parabolic(kt, gr, u)
        assert cls.y_specialize(-1) == sp.point_class(u)
        assert cls.y_specialize(0) == M.quotient_ideal_sheaf(kt, gr, u)
        assert cls.y_degree() == u.length
        top = cls.y_coefficient(u.length)
        omega = M.parabolic_pushforward(kt, M.omega_class(kt, u), gr)
        assert top == omega


def _subsets(rank):
    return [tuple(i for i in range(1, rank + 1) if mask >> (i - 1) & 1) for mask in range(1 << rank)]


@pytest.mark.parametrize(
    "lie_type,rank,subsets",
    [
        pytest.param(t, r, _subsets(r), id=f"{t}{r}")
        for t, r in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                     ("C", 2), ("C", 3), ("D", 3), ("G", 2))
    ]
    + [pytest.param("D", 4, [(), (2,)], id="D4"), pytest.param("F", 4, [(), (1, 2)], id="F4")],
)
def test_chi_by_macdonald_matches_enumeration(lie_type, rank, subsets):
    rs = root_system(lie_type, rank)
    for subset in subsets:
        reps = rs.parabolic(subset).min_reps if subset else rs.weyl_group()
        counts = {}
        for v in reps:
            counts[v.length] = counts.get(v.length, 0) + 1
        want = YPolynomial.from_dict({n: c * (-1) ** n for n, c in counts.items()})
        assert rs.poincare_polynomial(subset) == [counts[n] for n in range(len(counts))]
        assert M.chi_y_genus(rs, subset or None) == want
        assert M.chi_y_genus(rs, rs.parabolic(subset)) == want


@pytest.mark.parametrize("lie_type,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_mc_expansion_is_the_memoized_expansion_of_the_mc_class(lie_type, rank, monkeypatch):
    rs = RootSystem(lie_type, rank)
    kt = ktheory(rs)
    solve, calls = kt.expand, []
    monkeypatch.setattr(kt, "expand", lambda a, basis="O": calls.append(basis) or solve(a, basis))
    for w in rs.weyl_group():
        for basis in ("O", "I", "Oop", "Iop"):
            calls.clear()
            got = M.mc_expansion(kt, w, basis)
            # the O and I coefficients are read off the Hecke form, with no solve
            assert calls == ([] if basis in ("O", "I") else [basis]), (w.name(), basis)
            want = solve(M.motivic_chern(kt, w), basis)
            assert got.basis == basis and got.coeffs == want.coeffs, (w.name(), basis)
            assert got.to_json_obj() == want.to_json_obj()
            assert M.mc_expansion(kt, w, basis) is got
