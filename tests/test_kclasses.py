import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kclass
from fraction_solve_reference import expand_by_fractions
from kclass_reference import dl_dual_inverse, from_expansion
from schubmc import kclasses, laurent
from schubmc.kclasses import IntegralityError, ktheory, rebase
from schubmc.laurent import (
    FactoredFraction,
    LaurentPolynomial,
    one_minus_e,
    one_plus_ye,
    product_of_factors,
)
from schubmc.mc import dual_motivic_chern, motivic_chern, quotient_space
from schubmc.roots import RootSystem, cell_order, neg_weight, root_system, triangular_solve


def one_plus_y(n):
    z = (0,) * n
    return LaurentPolynomial({(z, 0): 1, (z, 1): 1}, n)


def test_point_class_pairings():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        iota = kt.iota(w)
        self_pair = kt.pair(iota, iota)
        lam = product_of_factors(kt.space.selfint_factors(w), 2)
        assert self_pair == FactoredFraction(lam)
    u, v = rs.simple_reflection(1), rs.simple_reflection(2)
    assert kt.pair(kt.iota(u), kt.iota(v)) == FactoredFraction.zero(2)


def test_demazure_on_structure_sheaves():
    rs = root_system("B", 2)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        for i in (1, 2):
            ws = w * rs.simple_reflection(i)
            img = kt.demazure(i, kt.structure_sheaf(w))
            expected = kt.structure_sheaf(ws if ws.length > w.length else w)
            assert img == expected


def test_demazure_idempotent(rng):
    rs = root_system("A", 2)
    kt = ktheory(rs)
    for _ in range(4):
        a = random_kclass(rs, rng)
        for i in (1, 2):
            d = kt.demazure(i, a)
            assert kt.demazure(i, d) == d


def test_dl_quadratic_relation(rng):
    rs = root_system("A", 2)
    kt = ktheory(rs)
    opy = one_plus_y(2)
    y = LaurentPolynomial.y(2)
    for _ in range(3):
        a = random_kclass(rs, rng)
        for op in (kt.dl_operator, kt.dl_dual):
            for i in (1, 2):
                t = op(i, a)
                # (T + 1)(T + y) = 0
                lhs = op(i, t + a) + (t + a).scale(y)
                assert lhs == kt.zero() or lhs == kt.zero() + kt.zero()
                assert op(i, t) + t + (t + a).scale(y) == kt.zero()


def test_dl_inverse_formula(rng):
    rs = root_system("B", 2)
    kt = ktheory(rs)
    yinv = LaurentPolynomial.y(2, -1)
    one = LaurentPolynomial.const(1, 2)
    for _ in range(3):
        a = random_kclass(rs, rng, y_inverted=True)
        for i in (1, 2):
            forward = kt.dl_dual(i, dl_dual_inverse(kt, i, a))
            assert forward == a
            # T^-1 = -(1/y) T - ((1+y)/y) id
            rhs = kt.dl_dual(i, a).scale(-1 * yinv) - a.scale(yinv * (one + LaurentPolynomial.y(2)))
            assert dl_dual_inverse(kt, i, a) == rhs


def test_l_operator_two_routes(rng):
    rs = root_system("A", 2)
    kt = ktheory(rs)
    y = LaurentPolynomial.y(2)
    for _ in range(3):
        a = random_kclass(rs, rng)
        for i in (1, 2):
            direct = kt.l_operator(i, a)
            via_inverse = dl_dual_inverse(kt, i, a).scale(-1 * y)
            assert direct == via_inverse


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_one_pass_operators_match_their_two_pass_definitions(t, r, rng):
    # the ideal step is demazure minus the identity, and the shifted dual
    # operator is dual DL plus (1+y) times the identity; each runs as one
    # _apply with a single diagonal
    rs = root_system(t, r)
    kt = ktheory(rs)
    opy = one_plus_y(r)
    for a in (random_kclass(rs, rng), random_kclass(rs, rng)):
        for i in range(1, r + 1):
            assert kt._ideal_step(i, a) == kt.demazure(i, a) - a
            assert kt.l_operator(i, a) == kt.dl_dual(i, a) + a.scale(opy)


def test_dl_specializations():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        for i in (1, 2):
            # at y = -1 the operator realizes right multiplication on points
            moved = kt.dl_operator(i, kt.iota(w)).y_specialize(-1)
            assert moved == kt.iota(w * rs.simple_reflection(i))
            # at y = 0 it degenerates to the shifted divided difference on ideal sheaves
            ws = w * rs.simple_reflection(i)
            img = kt.dl_operator(i, kt.ideal_sheaf(w)).y_specialize(0)
            want = kt.ideal_sheaf(ws) if ws.length > w.length else -kt.ideal_sheaf(w)
            assert img == want


BRAID_SYSTEMS = [("A", 2), ("B", 2), ("G", 2), ("A", 3)]


def _braid_words(rs):
    out = []
    for i in range(1, rs.rank + 1):
        for j in range(i + 1, rs.rank + 1):
            x = rs.simple_reflection(i) * rs.simple_reflection(j)
            cur, m = x, 1
            while not cur.is_identity():
                cur = cur * x
                m += 1
                if m > 12:
                    raise AssertionError("braid order runaway")
            word1 = [(i if k % 2 == 0 else j) for k in range(m)]
            word2 = [(j if k % 2 == 0 else i) for k in range(m)]
            out.append((word1, word2))
    return out


@pytest.mark.parametrize("t,r", BRAID_SYSTEMS)
def test_braid_relations(t, r, rng):
    rs = root_system(t, r)
    kt = ktheory(rs)
    a = random_kclass(rs, rng)
    for op in (kt.demazure, kt.dl_operator, kt.dl_dual, kt.l_operator):
        for word1, word2 in _braid_words(rs):
            lhs, rhs = a, a
            for i in reversed(word1):
                lhs = op(i, lhs)
            for i in reversed(word2):
                rhs = op(i, rhs)
            assert lhs == rhs


def test_adjointness(rng):
    rs = root_system("A", 2)
    kt = ktheory(rs)
    for _ in range(3):
        a = random_kclass(rs, rng)
        b = random_kclass(rs, rng)
        for i in (1, 2):
            assert kt.pair(kt.dl_operator(i, a), b) == kt.pair(a, kt.dl_dual(i, b))
            assert kt.pair(kt.demazure(i, a), b) == kt.pair(a, kt.demazure(i, b))


def test_line_bundle_action():
    rs = root_system("A", 1)
    kt = ktheory(rs)
    s = rs.simple_reflection(1)
    a1 = rs.simple_root(1)
    assert kt.line_bundle_mul((0,), kt.iota(s)) == kt.iota(s)
    assert kt.line_bundle_mul(a1, kt.iota(rs.identity)) == kt.iota(rs.identity).scale(
        LaurentPolynomial.e(a1)
    )
    assert kt.line_bundle_mul(a1, kt.iota(s)) == kt.iota(s).scale(
        LaurentPolynomial.e(neg_weight(a1))
    )


def test_structure_ideal_duality_and_inclusion_exclusion():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    W = rs.weyl_group()
    for u in W:
        for v in W:
            val = kt.pair(kt.structure_sheaf(u), kt.opp_ideal_sheaf(v))
            assert val == FactoredFraction.from_int(1 if u == v else 0, 2)
    for w in W:
        total = kt.zero()
        for v in W:
            if rs.bruhat_leq(v, w):
                total = total + kt.ideal_sheaf(v)
        assert total == kt.structure_sheaf(w)
        alt = kt.zero()
        for v in W:
            if rs.bruhat_leq(v, w):
                sign = -1 if (w.length - v.length) % 2 else 1
                alt = alt + kt.structure_sheaf(v).scale(sign)
        assert alt == kt.ideal_sheaf(w)


def test_integrate_structure_sheaves():
    rs = root_system("B", 2)
    kt = ktheory(rs)
    for w in rs.weyl_group():
        assert kt.integrate(kt.iota(w)) == FactoredFraction.from_int(1, 2)
        assert kt.integrate(kt.structure_sheaf(w)) == FactoredFraction.from_int(1, 2)


def test_expand_roundtrip_all_bases(rng):
    rs = root_system("A", 2)
    kt = ktheory(rs)
    w = rs.element_by_name("s1s2")
    cls = kt.structure_sheaf(w) + kt.ideal_sheaf(rs.simple_reflection(1)).scale(
        LaurentPolynomial.y(2)
    )
    for basis in ("O", "I", "Oop", "Iop"):
        exp = kt.expand(cls, basis)
        back = from_expansion(kt, exp)
        assert back == cls
    assert kt.expand(kt.structure_sheaf(w), "O").coeffs == {w: LaurentPolynomial.const(1, 2)}
    # the iota coefficients are the class's own, here Laurent polynomials
    fixed = kt.iota(w).scale(LaurentPolynomial.y(2)) + kt.iota(rs.simple_reflection(1)).scale(
        LaurentPolynomial.const(3, 2)
    )
    assert from_expansion(kt, kt.expand(fixed, "iota")) == fixed


def test_expand_triangular_support():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    from schubmc.mc import motivic_chern

    for w in rs.weyl_group():
        exp = kt.expand(motivic_chern(kt, w), "O")
        for u in exp.coeffs:
            assert rs.bruhat_leq(u, w)


def test_expand_integrality_error():
    rs = root_system("A", 1)
    kt = ktheory(rs)
    frac = FactoredFraction(
        LaurentPolynomial.const(1, 1), (one_minus_e(rs.simple_root(1)),)
    )
    weird = kt.iota(rs.identity).scale(frac)
    for basis in ("O", "I", "Oop", "Iop", "iota"):
        with pytest.raises(IntegralityError):
            kt.expand(weird, basis)


def _differential_classes(rs, kt):
    """The classes whose expansions the local solve must reproduce."""
    y = LaurentPolynomial.y(rs.rank)
    s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
    out = [
        # two incomparable tops, and an unreduced sum of fractions
        kt.structure_sheaf(s1) + kt.ideal_sheaf(s2).scale(y),
        # the class of test_expand_roundtrip_all_bases
        kt.structure_sheaf(s1 * s2) + kt.ideal_sheaf(s1).scale(y),
    ]
    for w in rs.weyl_group():
        out += [
            motivic_chern(kt, w),
            dual_motivic_chern(kt, w, opposite=True),
            dual_motivic_chern(kt, w, opposite=False),
            kt.structure_sheaf(w),
            kt.ideal_sheaf(w),
        ]
    return out


@pytest.mark.parametrize(
    "t,r,bases",
    [
        ("A", 2, ("O", "I", "Oop", "Iop")),
        ("B", 2, ("O", "I", "Oop", "Iop")),
        ("G", 2, ("O", "I", "Oop", "Iop")),
        ("A", 3, ("O", "I", "Oop", "Iop")),
    ],
)
def test_local_solve_matches_fraction_solve(t, r, bases):
    rs = root_system(t, r)
    kt = ktheory(rs)
    for basis in bases:
        for cls in _differential_classes(rs, kt):
            try:
                want = expand_by_fractions(kt, cls, basis)
            except IntegralityError:
                with pytest.raises(IntegralityError):
                    kt.expand(cls, basis)
                with pytest.raises(IntegralityError):
                    kt._solve(cls, (basis,))
                continue
            got = kt.expand(cls, basis)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
            assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())
            # expand may solve in the other member of the pair and rebase;
            # the solve in the requested basis itself gives the same bytes
            direct = kt._solve(cls, (basis,))
            assert direct.basis == basis
            assert list(direct.coeffs.items()) == list(got.coeffs.items())
            assert json.dumps(direct.to_json_obj()) == json.dumps(got.to_json_obj())


@pytest.mark.parametrize("t,r", BRAID_SYSTEMS)
def test_the_probe_solves_mc_classes_in_i_and_dual_classes_in_o(t, r, monkeypatch):
    # an MC class has the smaller coefficients in I and Iop, a dual MC class
    # in O and Oop; the probe reads this off the first layer of the top
    # pivot, and a class whose top pivot has no layer keeps the basis asked
    rs = root_system(t, r)
    kt = ktheory(rs)
    solve, solved = kt._solve, []

    def spy(a, members):
        exp = solve(a, members)
        solved.append(exp.basis)
        return exp

    monkeypatch.setattr(kt, "_solve", spy)

    def has_layer(cls, opposite):
        p0 = (min if opposite else max)(cls.coeffs, key=cell_order)
        if opposite:
            return any(v.length == p0.length + 1 and rs.bruhat_leq(p0, v) for v in cls.coeffs)
        return any(v.length == p0.length - 1 and rs.bruhat_leq(v, p0) for v in cls.coeffs)

    layered = 0
    for w in rs.weyl_group():
        for cls, ideal in (
            (motivic_chern(kt, w), True),
            (dual_motivic_chern(kt, w, opposite=True), False),
            (dual_motivic_chern(kt, w, opposite=False), False),
        ):
            for basis in ("O", "I", "Oop", "Iop"):
                opposite = basis.endswith("op")
                solved.clear()
                kt.expand(cls, basis)
                if has_layer(cls, opposite):
                    layered += 1
                    want = ("I" if ideal else "O") + ("op" if opposite else "")
                else:
                    want = basis
                assert solved == [want], (w.name(), basis, ideal)
    # only the cells at an end of the Bruhat order have no layer
    assert layered == 3 * 4 * (len(rs.weyl_group()) - 1)


@pytest.mark.parametrize("t,r", BRAID_SYSTEMS)
def test_own_factors_are_the_basis_pivots(t, r):
    # the probe's entry at a layer cell is read off _own_factors, with no
    # basis class built: it is the denominator, as a multiset of keys, of
    # every basis class of that cell at the cell itself
    rs = root_system(t, r)
    kt = ktheory(rs)
    for v in rs.weyl_group():
        for basis in ("O", "I", "Oop", "Iop"):
            own = kt._own_factors(v, basis.endswith("op"))
            pivot = kt.basis_class(basis, v).coefficient(v)
            assert pivot.num == 1 and sorted(pivot.den) == sorted(own)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("A", 3), ("B", 3)]), st.data())
def test_zeta_and_moebius_are_inverse(system, data):
    rs = root_system(*system)
    kt = ktheory(rs)
    W = rs.weyl_group()
    values = data.draw(
        st.dictionaries(st.sampled_from(W), st.integers(-9, 9).filter(bool), max_size=len(W))
    )
    vec = {w: LaurentPolynomial.const(c, rs.rank) for w, c in values.items()}
    for structure, ideal in (("O", "I"), ("Oop", "Iop")):
        opposite = structure == "Oop"
        # zeta by its definition: [O_u] = sum of [I_v] over v <= u (v >= u)
        zeta = {}
        for v in W:
            c = sum(
                (d for u, d in vec.items() if (rs.bruhat_leq(u, v) if opposite else rs.bruhat_leq(v, u))),
                LaurentPolynomial.zero(rs.rank),
            )
            if c:
                zeta[v] = c
        assert rebase(kt.space, vec, structure, ideal) == zeta
        for source, target in ((structure, ideal), (ideal, structure)):
            back = rebase(kt.space, rebase(kt.space, vec, source, target), target, source)
            assert back == vec
            assert list(back) == sorted(vec, key=cell_order, reverse=not opposite)


def test_rebase_refuses_a_quotient_and_a_mixed_pair():
    rs = root_system("A", 2)
    kt = ktheory(rs)
    coeffs = {rs.identity: LaurentPolynomial.const(1, 2)}
    with pytest.raises(ValueError):
        rebase(quotient_space(kt, rs.parabolic((1,))), coeffs, "O", "I")
    with pytest.raises(ValueError):
        rebase(kt.space, coeffs, "O", "Iop")


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2)])
def test_scaled_classes_expand_to_scaled_coefficients(t, r):
    # 3**50 > 2**63: the first images would not fit 64-bit digits, so the
    # solve restarts wider, and its tracked bounds are tightened on the way;
    # y**-2 puts the least y power below zero
    rs = root_system(t, r)
    kt = ktheory(rs)
    scales = (LaurentPolynomial.const(3**50, r), LaurentPolynomial.y(r, -2))
    classes = [motivic_chern(kt, w) for w in rs.weyl_group()]
    classes += [dual_motivic_chern(kt, w, opposite=True) for w in rs.weyl_group()]
    for basis in ("O", "I", "Oop", "Iop"):
        for cls in classes:
            want = kt.expand(cls, basis).coeffs
            for s in scales:
                got = kt.expand(cls.scale(s), basis).coeffs
                assert list(got.items()) == [(w, c * s) for w, c in want.items()]


@pytest.mark.parametrize("start", [2, 5, 1024])
@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2), ("G", 2)])
def test_every_tracked_bound_covers_its_image(monkeypatch, t, r, start):
    # real classes stay far inside the bounds, so an undercounting rule would
    # not show in their expansions: every (image, bound) pair the solve hands
    # on is decoded at its width, and its bound checked against the L1 norm
    # of its polynomial and against half the width.  From a narrow first
    # width nearly every solve restarts and many images are tightened, and
    # the expansions stay those from the first width of 64 bits.
    rs = root_system(t, r)
    kt = ktheory(rs)
    classes = _differential_classes(rs, kt)
    want = {}
    for basis in ("O", "I", "Oop", "Iop"):
        for i, cls in enumerate(classes):
            try:
                want[basis, i] = list(kt.expand(cls, basis).coeffs.items())
            except IntegralityError:
                pass
    runs = []

    def spy_solve(vector, pick, basis, solve, subtract, zero, error):
        # a solve doubles its width from start until its entries fit, and
        # again on each restart
        if runs:
            bits = 2 * runs[-1][0]
        else:
            bits = start
            while any(b >= 2 ** (bits - 1) for _, b in vector.values()):
                bits *= 2
        pairs = list(vector.values())
        runs.append((bits, pairs))

        def spy(step):
            def run(*args):
                out = step(*args)
                if out is not None:
                    pairs.append(out)
                return out

            return run

        return triangular_solve(vector, pick, basis, spy(solve), spy(subtract), zero, error)

    monkeypatch.setattr(kclasses, "_IMAGE_BITS", start)
    monkeypatch.setattr(kclasses, "triangular_solve", spy_solve)
    checked = 0
    for (basis, i), coeffs in want.items():
        runs.clear()
        assert list(kt.expand(classes[i], basis).coeffs.items()) == coeffs
        for bits, pairs in runs:
            for img, bound in pairs:
                l1 = sum(map(abs, img.y_decoded(bits, 0, 0).packed.values()))
                assert l1 <= bound < 2 ** (bits - 1)
                checked += 1
    assert checked > 100


def test_expansions_outlive_the_memo_and_the_cell_order():
    # the factor products and reflections in the root system's memo, and the
    # root and reflection tables of its elements, change no expansion
    rs = RootSystem("A", 3)
    families = (motivic_chern, dual_motivic_chern)
    bases = ("O", "I", "Oop", "Iop")

    def expand_all(cells):
        kt = ktheory(rs)
        out = {}
        for w in cells:
            for family in families:
                cls = family(kt, w)
                for basis in bases:
                    exp = kt.expand(cls, basis)
                    out[family.__name__, w, basis] = (exp.items(), exp.to_json_obj())
        return out

    cells = rs.weyl_group()
    first = expand_all(cells)
    assert any(key[:2] == ("k", "product") for key in rs._memo)
    rs.clear_memo()
    assert not rs._memo
    again = expand_all(reversed(cells))
    assert list(again) != list(first) and again == first
    assert len(first) == len(cells) * len(families) * len(bases)


def test_factor_products_are_built_once_per_root_system(monkeypatch):
    # one product per factor tuple across every solve and restriction
    rs = RootSystem("A", 3)
    kt = ktheory(rs)
    built = []
    product = kclasses.product_of_factors
    monkeypatch.setattr(
        kclasses, "product_of_factors", lambda f, n: built.append(f) or product(f, n)
    )
    for w in rs.weyl_group():
        cls = motivic_chern(kt, w)
        for basis in ("O", "Iop"):
            kt.expand(cls, basis)
        kt.pair(cls, kt.iota(w))
    assert built and len(built) == len(set(built))
    assert {f for f in built} >= {kt.space.selfint_factors(w) for w in rs.weyl_group()}


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2)])
def test_no_pivot_entry_is_multiplied_back(monkeypatch, t, r):
    # solve's exact divisions prove value = c * (the pivot's own entry), so
    # subtract drops the pivot without a product: no add_product and no
    # kernel product receives that entry, in any basis
    rs = root_system(t, r)
    kt = ktheory(rs)
    classes = [motivic_chern(kt, w) for w in rs.weyl_group()]
    pivot_entries, operands = [], []

    def spy_solve(vector, pick, basis, *rest):
        def spy_basis(pivot):
            entries = basis(pivot)
            pivot_entries.append(entries[pivot])
            return entries

        return triangular_solve(vector, pick, spy_basis, *rest)

    add_product, lp_mul = LaurentPolynomial.add_product, laurent._impl.lp_mul

    def spy_add_product(cur, a, b):
        operands.extend((cur, a, b))
        return add_product(cur, a, b)

    def spy_lp_mul(a, b, out=None):
        operands.extend((a, b))
        return lp_mul(a, b, out)

    monkeypatch.setattr(kclasses, "triangular_solve", spy_solve)
    monkeypatch.setattr(LaurentPolynomial, "add_product", spy_add_product)
    monkeypatch.setattr(laurent._impl, "lp_mul", spy_lp_mul)
    npivots = 0
    for basis in ("O", "I", "Oop", "Iop"):
        for cls in classes:
            npivots += len(kt.expand(cls, basis).coeffs)
    assert len(pivot_entries) == npivots > 0 and operands
    seen = {id(x) for x in operands}
    assert not any(id(e) in seen or id(e.packed) in seen for e in pivot_entries)


def test_top_coefficient_formula():
    from schubmc.mc import motivic_chern

    for t, r in [("A", 2), ("B", 2)]:
        rs = root_system(t, r)
        kt = ktheory(rs)
        for w in rs.weyl_group():
            exp = kt.expand(motivic_chern(kt, w), "O")
            factors = tuple(
                one_plus_ye(w.act(a))
                for a in rs.positive_roots
                if not rs.is_positive_root(w.act(a))
            )
            assert exp.coefficient(w) == product_of_factors(factors, r)


def test_json_envelope():
    rs = root_system("A", 1)
    kt = ktheory(rs)
    exp = kt.expand(kt.structure_sheaf(rs.simple_reflection(1)), "O")
    obj = exp.to_json_obj()
    assert obj["basis"] == "O"
    assert list(obj["coeffs"]) == ["s1"]
