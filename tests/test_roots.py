import importlib
import itertools
import pkgutil
from fractions import Fraction

import pytest

import schubmc
from schubmc.cohomology import NumericCohomology, cohomology, numeric_cohomology
from schubmc.hecke import t_word
from schubmc.hirzebruch import Hirzebruch, hirzebruch, segre_hirzebruch
from schubmc.kclasses import ktheory
from schubmc.mc import dual_motivic_chern, motivic_chern
from schubmc.roots import (
    MAX_WEYL_ORDER,
    RootSystem,
    RootSystemError,
    cartan_matrix,
    parse_type,
    root_system,
    triangular_solve,
)


@pytest.mark.parametrize(
    "lie_type,rank,npos,order",
    [
        ("A", 2, 3, 6),
        ("A", 3, 6, 24),
        ("B", 2, 4, 8),
        ("C", 2, 4, 8),
        ("B", 3, 9, 48),
        ("D", 3, 6, 24),
        ("G", 2, 6, 12),
    ],
)
def test_counts(lie_type, rank, npos, order):
    rs = root_system(lie_type, rank)
    assert rs.num_positive_roots == npos
    assert len(rs.weyl_group()) == order
    assert rs.longest_element().length == npos


@pytest.mark.parametrize("lie_type,rank,npos", [("F", 4, 24), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)])
def test_root_closure_large_types(lie_type, rank, npos):
    # root closure only; the Weyl group is not enumerated here
    rs = root_system(lie_type, rank)
    assert rs.num_positive_roots == npos


@pytest.mark.parametrize("lie_type,rank", [("D", 7), ("A", 8), ("E", 7), ("E", 8)])
def test_a_weyl_group_over_the_limit_is_refused_before_enumerating(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    known = len(rs._elements)
    with pytest.raises(RootSystemError, match=f"over the {MAX_WEYL_ORDER:,}"):
        rs.weyl_group()
    # a parabolic datum asks for W before it enumerates its own subgroup
    with pytest.raises(RootSystemError):
        rs.parabolic(range(1, rank))
    assert len(rs._elements) == known


def test_the_weyl_group_limit_lies_between_e6_and_d7():
    # W(E6) is the largest finite Weyl group under the limit, W(D7) the smallest over it
    order = {t: sum(RootSystem(*t).poincare_polynomial()) for t in [("E", 6), ("D", 7)]}
    assert order == {("E", 6): 51840, ("D", 7): 322560}
    assert order["E", 6] <= MAX_WEYL_ORDER < order["D", 7]


def test_invalid_types():
    for lie_type, rank in [("A", 0), ("B", 1), ("E", 9), ("F", 3), ("G", 3), ("Z", 2)]:
        with pytest.raises(RootSystemError):
            cartan_matrix(lie_type, rank)
    with pytest.raises(RootSystemError):
        parse_type("XY")


def test_cartan_invariants():
    for t, r in [("A", 3), ("B", 2), ("G", 2), ("F", 4)]:
        c = cartan_matrix(t, r)
        assert all(c[i][i] == 2 for i in range(r))
        assert all(c[i][j] <= 0 for i in range(r) for j in range(r) if i != j)


def test_weyl_action_basics():
    rs = root_system("A", 2)
    s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    lam = (3, -1)
    assert rs.identity.act(lam) == lam
    assert s1.act(a1) == tuple(-x for x in a1)
    # in rank 2 type A the rotation s1 s2 carries the first simple root to the second
    assert (s1 * s2).act(a1) == a2


def test_weyl_action_rank_mismatch():
    rs = root_system("A", 2)
    with pytest.raises(RootSystemError):
        rs.identity.act((1, 2, 3))


def test_reduced_words_and_length():
    for t, r in [("A", 3), ("B", 2), ("G", 2)]:
        rs = root_system(t, r)
        for w in rs.weyl_group():
            word = w.word
            assert len(word) == w.length
            assert rs.from_word(word) is w
            # length compatibility with descents
            for i in range(1, r + 1):
                ws = w * rs.simple_reflection(i)
                assert abs(ws.length - w.length) == 1
                assert (ws.length < w.length) == (
                    not rs.is_positive_root(w.act(rs.simple_root(i)))
                )


def _descent_chain_words(rs):
    """Each element's (word, length) by the route the word memo replaced.

    The length counts the positive roots an element makes negative, and the
    word walks the element's whole chain of smallest left descents, each
    found by trying s_i * cur for a length drop.
    """
    lengths = {}

    def length(w):
        if w not in lengths:
            lengths[w] = sum(1 for a in rs.positive_roots if not rs.is_positive_root(w.act(a)))
        return lengths[w]

    out = {}
    for w in rs.weyl_group():
        parts, cur = [], w
        while length(cur) > 0:
            for i in range(1, rs.rank + 1):
                cand = rs.simple_reflection(i) * cur
                if length(cand) < length(cur):
                    parts.append(i)
                    cur = cand
                    break
        out[w] = (tuple(parts), length(w))
    return out


@pytest.mark.parametrize(
    "t,r", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_memoized_words_match_descent_chains(t, r):
    rs = RootSystem(t, r)
    W = rs.weyl_group()
    want = _descent_chain_words(rs)
    assert len(want) == len(W)
    assert [(w.word, w.length) for w in W] == [want[w] for w in W]
    assert list(W) == sorted(W, key=lambda w: (want[w][1], want[w][0]))
    # elements made outside the enumeration get the same words and lengths
    fresh = RootSystem(t, r)
    for w in W[:: max(1, len(W) // 40)]:
        v = fresh.from_word(w.word)
        assert (v.word, v.length) == want[w]


@pytest.mark.parametrize("t,r", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_reflection_is_the_conjugate_simple_reflection(t, r):
    rs = root_system(t, r)
    for w in rs.weyl_group():
        for i in range(1, r + 1):
            beta = w.act(rs.simple_root(i))
            if rs.is_positive_root(beta):
                assert rs.reflection(beta) is w * rs.simple_reflection(i) * w.inverse()
    with pytest.raises(RootSystemError):
        rs.reflection(tuple(-x for x in rs.simple_root(1)))


def test_length_complement():
    rs = root_system("B", 2)
    w0 = rs.longest_element()
    for w in rs.weyl_group():
        assert (w0 * w).length == w0.length - w.length


def test_inverse_via_word():
    rs = root_system("A", 3)
    for w in rs.weyl_group():
        assert (w * w.inverse()).is_identity()


def _bruhat_by_subwords(rs, u, w):
    word = w.word
    target = u.mat
    k = u.length
    for positions in itertools.combinations(range(len(word)), k):
        v = rs.from_word([word[i] for i in positions])
        if v.mat == target and v.length == k:
            return True
    return k == 0


@pytest.mark.parametrize("t,r", [("B", 2), ("G", 2), ("A", 3)])
def test_bruhat_matches_subword_criterion(t, r):
    rs = root_system(t, r)
    small = [w for w in rs.weyl_group() if w.length <= 4]
    for w in small:
        for u in rs.weyl_group():
            assert rs.bruhat_leq(u, w) == _bruhat_by_subwords(rs, u, w)


def test_bruhat_basics():
    rs = root_system("A", 2)
    s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
    for w in rs.weyl_group():
        assert rs.bruhat_leq(rs.identity, w)
        assert rs.bruhat_leq(w, w)
    assert rs.bruhat_leq(s1, s2 * s1)
    assert not rs.bruhat_leq(s1, s2)


@pytest.mark.parametrize("t,r", [("A", 3), ("B", 3), ("G", 2)])
def test_intervals_are_the_bruhat_intervals(t, r):
    rs = root_system(t, r)
    W = rs.weyl_group()
    for w in W:
        below = rs.lower_interval(w)
        above = rs.upper_interval(w)
        assert len(set(below)) == len(below) and len(set(above)) == len(above)
        assert set(below) == {u for u in W if rs.bruhat_leq(u, w)}
        assert set(above) == {u for u in W if rs.bruhat_leq(w, u)}


def test_bruhat_antiautomorphism():
    for t, r in [("A", 2), ("B", 2), ("A", 3)]:
        rs = root_system(t, r)
        w0 = rs.longest_element()
        W = rs.weyl_group()
        for u in W:
            for w in W:
                assert rs.bruhat_leq(u, w) == rs.bruhat_leq(w0 * w, w0 * u)


def test_parabolic_data():
    rs = root_system("A", 3)
    full = rs.parabolic([1, 2, 3])
    assert len(full.min_reps) == 1
    empty = rs.parabolic([])
    assert len(empty.min_reps) == len(rs.weyl_group())
    gr24 = rs.parabolic([1, 3])
    assert len(gr24.min_reps) == 6
    assert len(gr24.subgroup) * len(gr24.min_reps) == len(rs.weyl_group())
    for w in rs.weyl_group():
        rep, inner = gr24.factorize(w)
        assert rep * inner is w
        assert rep.length + inner.length == w.length
        assert rep in set(gr24.min_reps)
    # the Levi split: the outer roots are the positive roots not in the Levi
    assert set(gr24.levi_positive_roots) == {rs.simple_root(1), rs.simple_root(3)}
    assert len(gr24.outer_positive_roots) == 4
    assert set(gr24.outer_positive_roots) == set(rs.positive_roots) - set(gr24.levi_positive_roots)
    assert empty.outer_positive_roots == rs.positive_roots
    assert full.outer_positive_roots == ()


def test_enumeration_order_deterministic():
    rs = root_system("B", 2)
    names = [w.name() for w in rs.weyl_group()]
    assert names[0] == "id"
    lengths = [w.length for w in rs.weyl_group()]
    assert lengths == sorted(lengths)


def test_parse_element_aliases():
    rs = root_system("A", 2)
    assert rs.parse_element("id").is_identity()
    assert rs.parse_element("w0") is rs.longest_element()
    assert rs.parse_element("s1s2s1") is rs.parse_element("s2s1s2")
    with pytest.raises(RootSystemError):
        rs.parse_element("s9")
    with pytest.raises(RootSystemError):
        rs.parse_element("garbage")
    with pytest.raises(RootSystemError, match="s1s2s1s2 is not a reduced word; it is the element s2s1$"):
        rs.parse_element("s1s2s1s2")


def test_triangular_solve_guards():
    rs = root_system("A", 1)
    e, s1 = rs.identity, rs.simple_reflection(1)

    def solve(vector, basis, solve_fn):
        return triangular_solve(
            vector, max, basis, solve_fn, lambda cur, b, c: (cur - c * b) or None, 0, ArithmeticError
        )

    unitriangular = {e: {e: 1}, s1: {e: 2, s1: 1}}
    assert solve({e: 3, s1: 1}, unitriangular.get, lambda w, v: v) == {s1: 1, e: 1}
    # the basis element at id reaches above id: s1 comes back as a pivot
    with pytest.raises(ArithmeticError, match="did not terminate"):
        solve({s1: 1}, {e: {e: 1, s1: 1}, s1: {e: 1, s1: 1}}.get, lambda w, v: v)
    # a wrong pivot coefficient leaves the pivot uncancelled
    with pytest.raises(ArithmeticError, match="did not cancel"):
        solve({s1: 1}, unitriangular.get, lambda w, v: 2 * v)


def _classes(rs):
    """Every memoized class of each layer, per cell, in comparable form."""
    kt, coh, num, hz = ktheory(rs), cohomology(rs), numeric_cohomology(rs), hirzebruch(rs, 4)
    return {
        w: (
            kt.structure_sheaf(w).coeffs,
            coh.schubert_class(w).coeffs,
            coh.csm(w).coeffs,
            num.opposite_schubert(w),
            hz.hirzebruch_class(w).coeffs,
        )
        for w in rs.weyl_group()
    }


@pytest.mark.parametrize("lie_type", ["A", "B"])
def test_memo_is_per_root_system_and_clearable(lie_type):
    rs = RootSystem(lie_type, 2)
    kt = ktheory(rs)
    assert ktheory(rs) is kt
    before = _classes(rs)
    rs.clear_memo()
    assert ktheory(rs) is not kt
    assert _classes(rs) == before
    # a second object of the same type starts from an empty memo
    other = RootSystem(lie_type, 2)
    assert ktheory(other) is not ktheory(rs)
    assert other.memo(("k", "O", other.longest_element()), lambda: "unset") == "unset"


@pytest.mark.parametrize("lie_type", ["A", "B"])
def test_numeric_twin_keys_carry_the_parameter_point(lie_type):
    rs = RootSystem(lie_type, 2)
    alone = {w: numeric_cohomology(rs).opposite_schubert(w) for w in rs.weyl_group()}
    rs.clear_memo()
    # an engine at another point shares the memo, not its classes
    twin = NumericCohomology(rs, (Fraction(3), Fraction(5)))
    num = numeric_cohomology(rs)
    for w in rs.weyl_group():
        twin.opposite_schubert(w)
        num.schubert(w)
    assert {w: num.opposite_schubert(w) for w in rs.weyl_group()} == alone


def _word_families(rs):
    """Family name -> (memo key prefix, the class it stores at each element u),
    for every family grown along a word whose value is the stored class."""
    kt, coh, num = ktheory(rs), cohomology(rs), numeric_cohomology(rs)
    w0 = rs.longest_element()
    return {
        "k/O": (("k", "O"), kt.structure_sheaf),
        "k/I": (("k", "I"), kt.ideal_sheaf),
        "k/MC": (("k", "MC"), lambda w: motivic_chern(kt, w)),
        "k/MCdualX": (("k", "MCdualX"), lambda w: dual_motivic_chern(kt, w, opposite=False)),
        "coh/X": (("coh", "X"), coh.schubert_class),
        "coh/csm": (("coh", "csm"), coh.csm),
        "coh/csmX": (("coh", "csmX"), coh.csm_schubert),
        "hecke/T": (("hecke", "T"), lambda w: t_word(rs, w)),
        "num/X": (("num", num.alphas, "X"), num.schubert),
        # grown down from w0: the class of v is stored at w0 * v
        "k/MCdualY": (("k", "MCdualY"), lambda u: dual_motivic_chern(kt, w0 * u)),
        "coh/csmdual": (("coh", "csmdual"), lambda u: coh.dual_csm(w0 * u)),
        "coh/Y": (("coh", "Y"), lambda u: coh.opposite_schubert_class(w0 * u)),
        "coh/csmY": (("coh", "csmY"), lambda u: coh.csm_opposite(w0 * u)),
        "k/Oop": (("k", "Oop"), lambda u: kt.opp_structure_sheaf(w0 * u)),
        "k/Iop": (("k", "Iop"), lambda u: kt.opp_ideal_sheaf(w0 * u)),
        "num/Y": (("num", num.alphas, "Y"), lambda u: num.opposite_schubert(w0 * u)),
    }


@pytest.mark.parametrize("name", list(_word_families(RootSystem("A", 1))))
def test_word_recursion_stores_every_prefix(name):
    rs = RootSystem("A", 2)
    key, build = _word_families(rs)[name]
    w = rs.longest_element()
    top = build(w)

    def fail():
        raise AssertionError("the recursion did not store this class")

    assert rs.memo(key + (w,), fail) is top
    for n in range(w.length):
        prefix = rs.from_word(w.word[:n])
        assert rs.memo(key + (prefix,), fail) is build(prefix)


@pytest.mark.parametrize("family", ["Hword", "Hdual", "segre"])
def test_hirzebruch_word_routes_store_every_prefix(family):
    # the stored classes keep the slack of the longest word, one degree per
    # letter still to come; the values read from them are truncated to the cap
    rs, cap = RootSystem("A", 2), 4
    hz, w0 = hirzebruch(rs, cap), rs.longest_element()
    value = {
        "Hword": hz.hirzebruch_class,
        "Hdual": lambda u: hz.dual_hirzebruch_class(w0 * u),
        "segre": lambda u: segre_hirzebruch(hz, u),
    }[family]
    value(w0)

    def fail():
        raise AssertionError("the recursion did not store this class")

    for n in range(w0.length + 1):
        prefix = rs.from_word(w0.word[:n])
        stored = rs.memo(("hz", family, cap, prefix), fail)
        assert stored.cap() == cap + w0.length - n
        if family != "segre":
            assert stored.truncate(cap).coeffs == value(prefix).coeffs


def test_normalized_hirzebruch_class_reads_the_unnormalized_one(monkeypatch):
    rs = RootSystem("B", 2)
    w = rs.element_by_name("s1s2")
    hirzebruch(rs, 6).hirzebruch_class(w)
    calls = []
    todd = Hirzebruch.todd_transform
    monkeypatch.setattr(
        Hirzebruch, "todd_transform", lambda *a, **k: calls.append(a) or todd(*a, **k)
    )
    normalized = hirzebruch(rs, 6).hirzebruch_class(w, normalized=True)
    assert calls == []
    rs.clear_memo()
    fresh = hirzebruch(rs, 6).hirzebruch_class(w, normalized=True)
    assert calls == []  # the word route alone
    hirzebruch(rs, 6).hirzebruch_class(w, normalized=True, check_routes=True)
    assert len(calls) == 1  # the route check of the unnormalized class
    assert normalized.normalized and fresh.normalized
    assert {u: (s.cap, s.comps) for u, s in normalized.coeffs.items()} == {
        u: (s.cap, s.comps) for u, s in fresh.coeffs.items()
    }


# module-level dicts that are not unbounded memo tables
ALLOWED_MODULE_DICTS = {
    ("schubmc.laurent", "_FACTOR_CACHE"),  # binomials of roots only: bounded by the roots
    ("schubmc.conjectures", "CHECKERS"),  # name -> checker dispatch
}


def test_no_module_level_memo_tables():
    found = set()
    for info in pkgutil.iter_modules(schubmc.__path__):
        mod = importlib.import_module(f"schubmc.{info.name}")
        for name, val in vars(mod).items():
            if isinstance(val, dict) and not name.startswith("__"):
                found.add((mod.__name__, name))
    assert found <= ALLOWED_MODULE_DICTS, f"memoize in RootSystem.memo, not in {found - ALLOWED_MODULE_DICTS}"
