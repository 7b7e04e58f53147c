"""Acceptance suite: every release criterion, exact values, stated budgets.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run).  All comparisons are exact symbolic
equalities; the only tolerances are wall-clock budgets.
"""

import random
import time

import pytest

from conftest import random_kclass
from lifted_reference import drop_last_variable
from schubmc import conjectures as C
from schubmc import mc as M
from schubmc.cohomology import (
    SchubertCalculus,
    cohomology,
    csm_expansion,
    csm_vector,
    h_polynomial,
)
from schubmc.hecke import mc_coefficients_oracle, t_generator
from schubmc.hirzebruch import hirzebruch
from schubmc.kclasses import ktheory
from schubmc.laurent import (
    FactoredFraction,
    LaurentPolynomial,
    YPolynomial,
    check_log_concave,
    check_unimodal,
    divide_exact,
    one_plus_ye,
    product_of_factors,
)
from schubmc.polyring import GradedSeries, Poly, YFrac
from schubmc.roots import neg_weight, root_system


def _report(num, label, ok, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:>2} [{status}] {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {label}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_projective_line():
    t0 = time.time()
    rs = root_system("A", 1)
    kt = ktheory(rs)
    s = rs.simple_reflection(1)
    exp = kt.expand(M.motivic_chern(kt, s), "O")
    e = LaurentPolynomial.e(neg_weight(rs.simple_root(1)))
    one = LaurentPolynomial.const(1, 1)
    y = LaurentPolynomial.y(1)
    ok = exp.coefficient(s) == one + e * y and exp.coefficient(rs.identity) == -(
        one + (one + e) * y
    )
    # string-level canonicalization
    ok = ok and exp.to_json_obj()["coeffs"]["s1"] == (one + e * y).to_json_obj()
    _report(1, "rank-1 motivic class", ok, t0, 1.0)


def test_criterion_02_rank2_equivariant_cell():
    t0 = time.time()
    rs = root_system("A", 2)
    kt = ktheory(rs)
    e = LaurentPolynomial.e
    one = LaurentPolynomial.const(1, 2)
    y = LaurentPolynomial.y(2)
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    na1, na2 = neg_weight(a1), neg_weight(a2)
    na12 = neg_weight(tuple(x + z for x, z in zip(a1, a2)))
    w = rs.element_by_name("s1s2")
    exp = kt.expand(M.motivic_chern(kt, w), "O")
    want = {
        w: (one + e(na1) * y) * (one + e(na12) * y),
        rs.element_by_name("s1"): -(one + e(na1) * y) * (one + (one + e(na12)) * y),
        rs.element_by_name("s2"): -(
            one
            + (one + e(na1)) * (one + e(na2)) * y
            + e(na2) * (one + e(na1) + e(na1) * e(na1)) * y * y
        ),
        rs.identity: one
        + (one + one + e(na1) + e(na2) + e(na12)) * y
        + (one + e(na1) + e(na2) + e(na12) + e(na1) * e(na12)) * y * y,
    }
    ok = set(exp.coeffs) == set(want) and all(exp.coefficient(u) == want[u] for u in want)
    _report(2, "rank-2 equivariant cell class (five displayed coefficients)", ok, t0, 5.0)


FL3_MC = {
    "id": {"id": {0: 1}},
    "s1": {"s1": {0: 1, 1: 1}, "id": {0: -1, 1: -2}},
    "s2": {"s2": {0: 1, 1: 1}, "id": {0: -1, 1: -2}},
    "s1s2": {"s1s2": {0: 1, 1: 2, 2: 1}, "s1": {0: -1, 1: -3, 2: -2},
             "s2": {0: -1, 1: -4, 2: -3}, "id": {0: 1, 1: 5, 2: 5}},
    "s2s1": {"s2s1": {0: 1, 1: 2, 2: 1}, "s2": {0: -1, 1: -3, 2: -2},
             "s1": {0: -1, 1: -4, 2: -3}, "id": {0: 1, 1: 5, 2: 5}},
    "s1s2s1": {"s1s2s1": {0: 1, 1: 3, 2: 3, 3: 1},
               "s1s2": {0: -1, 1: -4, 2: -5, 3: -2},
               "s2s1": {0: -1, 1: -4, 2: -5, 3: -2},
               "s1": {0: 1, 1: 5, 2: 9, 3: 5}, "s2": {0: 1, 1: 5, 2: 9, 3: 5},
               "id": {0: -1, 1: -5, 2: -11, 3: -8}},
}

FL3_DUAL = {
    "s1s2s1": {"s1s2s1": {0: 1}},
    "s1s2": {"s1s2": {0: 1, 1: 1}, "s1s2s1": {1: 1}},
    "s2s1": {"s2s1": {0: 1, 1: 1}, "s1s2s1": {1: 1}},
    "s1": {"s1": {0: 1, 1: 2, 2: 1}, "s1s2": {1: 1, 2: 1},
           "s2s1": {1: 2, 2: 2}, "s1s2s1": {2: 1}},
    "s2": {"s2": {0: 1, 1: 2, 2: 1}, "s1s2": {1: 2, 2: 2},
           "s2s1": {1: 1, 2: 1}, "s1s2s1": {2: 1}},
    "id": {"id": {0: 1, 1: 3, 2: 3, 3: 1}, "s1": {1: 1, 2: 2, 3: 1},
           "s2": {1: 1, 2: 2, 3: 1}, "s1s2": {2: 2, 3: 2},
           "s2s1": {2: 2, 3: 2}, "s1s2s1": {3: 1}},
}


def test_criterion_03_rank2_tables_and_pairings():
    t0 = time.time()
    rs = root_system("A", 2)
    kt = ktheory(rs)
    ok = True
    for w in rs.weyl_group():
        exp = kt.expand(M.motivic_chern(kt, w), "O")
        got = {u.name(): p.to_dict() for u, p in exp.nonequivariant().items()}
        ok = ok and got == FL3_MC[w.name()]
        expd = kt.expand(M.dual_motivic_chern(kt, w, opposite=True), "Oop")
        gotd = {u.name(): p.to_dict() for u, p in expd.nonequivariant().items()}
        ok = ok and gotd == FL3_DUAL[w.name()]
    for u in rs.weyl_group():
        for v in rs.weyl_group():
            ok = ok and M.verify_mc_duality(kt, u, v)[0]
    _report(3, "rank-2 tables and the 36 orthogonality pairings", ok, t0, 10.0)


def test_criterion_04_rank3_sums_divisibility():
    t0 = time.time()
    rs = root_system("A", 3)
    kt = ktheory(rs)
    one_plus_y = LaurentPolynomial({((0, 0, 0), 0): 1, ((0, 0, 0), 1): 1}, 3)
    ok = True
    for w in rs.weyl_group():
        exp = kt.expand(M.motivic_chern(kt, w), "O")
        total = LaurentPolynomial.zero(3)
        for c in exp.coeffs.values():
            total = total + c
        ok = ok and total == LaurentPolynomial.monomial((0, 0, 0), w.length, (-1) ** w.length)
        for u, c in exp.coeffs.items():
            p = c.substitute_nonequivariant().to_laurent(3)
            for _ in range(u.length):
                p = divide_exact(p, one_plus_y)
                if p is None:
                    ok = False
                    break
        ok = ok and exp.coefficient(rs.identity).substitute_nonequivariant().evaluate(-1) == 1
    _report(4, "24-cell sum rule, divisibility, unit specialization", ok, t0, 300.0)


def test_criterion_05_g2_duality():
    t0 = time.time()
    rs = root_system("G", 2)
    kt = ktheory(rs)
    ok = all(
        M.verify_mc_duality(kt, u, v)[0] for u in rs.weyl_group() for v in rs.weyl_group()
    )
    _report(5, "144 orthogonality pairings in the exceptional rank-2 type", ok, t0, 300.0)


def test_criterion_06_specializations():
    t0 = time.time()
    ok = True
    for t, r in [("A", 2), ("G", 2)]:
        rs = root_system(t, r)
        kt = ktheory(rs)
        for w in rs.weyl_group():
            for mode in ("y=-1", "y=0", "top"):
                ok = ok and M.specialize_mc(kt, w, mode)[2]
            for mode in ("y=-1", "y=0"):
                ok = ok and M.specialize_dual_mc(kt, w, mode)[2]
    _report(6, "specializations at y=-1, y=0, and the top coefficient", ok, t0, 300.0)


def test_criterion_07_hecke_oracle():
    t0 = time.time()
    ok = True
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        rs = root_system(t, r)
        kt = ktheory(rs)
        for w in rs.weyl_group():
            oracle = mc_coefficients_oracle(rs, w)
            exp = kt.expand(M.motivic_chern(kt, w), "O")
            for u in set(oracle) | set(exp.coeffs):
                ok = ok and oracle.get(u, LaurentPolynomial.zero(r)) == exp.coefficient(u)
    # the displayed rank-2 product, term by term
    rs = root_system("A", 2)
    e = LaurentPolynomial.e
    one = LaurentPolynomial.const(1, 2)
    y = LaurentPolynomial.y(2)
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    na1, na2 = neg_weight(a1), neg_weight(a2)
    na12 = neg_weight(tuple(x + z for x, z in zip(a1, a2)))
    t21 = t_generator(rs, 2) * t_generator(rs, 1)
    s1, s2 = rs.simple_reflection(1), rs.simple_reflection(2)
    ok = ok and t21.coefficient(s2 * s1) == (one + e(na1) * y) * (one + e(na12) * y)
    ok = ok and t21.coefficient(s1) == -(one + e(na1) * y) * (one + y + e(na12) * y)
    ok = ok and t21.coefficient(s2) == -(
        (one + e(na2) * y) * (one + y + e(na1) * y) + y * (one + e(na1) * y) * e(na12)
    )
    ok = ok and t21.coefficient(rs.identity) == (one + y + e(na1) * y) * (
        one + y + e(na2) * y
    ) + y * (one + e(na1) * y) * e(na12)
    _report(7, "Hecke-algebra oracle equality and the displayed product", ok, t0, 120.0)


def test_criterion_08_star_duality():
    t0 = time.time()
    ok = True
    for t, r in [("A", 2), ("B", 2)]:
        rs = root_system(t, r)
        kt = ktheory(rs)
        for w in rs.weyl_group():
            rep = M.star_duality_report(kt, w)
            ok = ok and all(rep.values())
    rs = root_system("B", 2)
    kt = ktheory(rs)
    rng = random.Random(8)
    checks = 0
    while checks < 100:
        a = random_kclass(rs, rng)
        for i in (1, 2):
            ok = ok and M.psi_intertwines_dl(kt, a, i)
            checks += 1
    _report(8, "star duality identities plus 100 intertwining checks", ok, t0, 300.0)


def test_criterion_09_csm():
    t0 = time.time()
    ok = True
    # rank 1: homogenized class
    rs1 = root_system("A", 1)
    ctx1 = cohomology(rs1)
    s = rs1.simple_reflection(1)
    exp1 = csm_expansion(ctx1, s)
    from fractions import Fraction as F

    ok = ok and exp1[s] == Poly.linear([F(-1), F(1)]) and exp1[rs1.identity] == Poly.const(1, 2)
    # rank 2 integers
    rs2 = root_system("A", 2)
    vec = csm_vector(cohomology(rs2), rs2.element_by_name("s1s2"))
    ok = ok and {u.name(): c for u, c in vec.items()} == {"s1s2": 1, "s1": 1, "s2": 2, "id": 1}
    # route agreement in B2
    rsb = root_system("B", 2)
    ctxb = cohomology(rsb)
    ktb = ktheory(rsb)
    for w in rsb.weyl_group():
        rec = csm_expansion(ctxb, w)
        ext = M.csm_from_mc_equivariant(ktb, ctxb, w)
        ok = ok and set(rec) == set(ext) and all(rec[u] == ext[u] for u in rec)
    _report(9, "CSM worked values and recursion/extraction agreement", ok, t0, 300.0)


def test_criterion_10_sm_structure_constants():
    t0 = time.time()
    rs = root_system("G", 2)
    calc = SchubertCalculus(rs)
    e = calc.sm_structure_constants(rs.identity, rs.identity)
    want = {
        "id": 1, "s1": -1, "s2": -1, "s2s1": 2, "s1s2": 4, "s1s2s1": -9,
        "s2s1s2": -11, "s2s1s2s1": 22, "s1s2s1s2": 34, "s1s2s1s2s1": -57,
        "s2s1s2s1s2": -51, "s1s2s1s2s1s2": 67,
    }
    ok = {w.name(): c for w, c in e.items()} == want and sum(e.values()) == 0
    for t, r in [("A", 2), ("G", 2)]:
        rsx = root_system(t, r)
        calcx = SchubertCalculus(rsx)
        w0 = rsx.longest_element()
        for u in rsx.weyl_group():
            for v in rsx.weyl_group():
                ex = calcx.sm_structure_constants(u, v)
                ok = ok and sum(ex.values()) == (1 if w0 * u == v else 0)
    _report(10, "SM structure constants: 12 integers and all sum rules", ok, t0, 600.0)


def test_criterion_11_h_polynomials():
    t0 = time.time()
    rs = root_system("A", 5)
    pd = rs.parabolic([1, 2, 4, 5])
    target = [
        w for w in pd.min_reps
        if w.length == 3 and sum(1 for v in pd.min_reps if rs.bruhat_leq(v, w)) == 5
    ][0]
    ctx = cohomology(rs)
    reps = set(pd.min_reps)
    tot = {}
    for v in pd.min_reps:
        if rs.bruhat_leq(v, target):
            for u, c in csm_vector(ctx, v).items():
                if u in reps:
                    tot[u] = tot.get(u, 0) + c
    H1 = h_polynomial(tot)
    ok = H1 == YPolynomial([5, 8, 6, 1]) and check_log_concave(H1)
    rsb = root_system("B", 3)
    ctxb = cohomology(rsb)
    pdb = rsb.parabolic([2, 3])
    repsb = set(pdb.min_reps)
    totb = {}
    for w in pdb.min_reps:
        for u, c in csm_vector(ctxb, w).items():
            if u in repsb:
                totb[u] = totb.get(u, 0) + c
    H2 = h_polynomial(totb)
    ok = ok and H2 == YPolynomial([6, 18, 26, 11, 5, 1])
    ok = ok and check_unimodal(H2) and not check_log_concave(H2)
    _report(11, "H-polynomials: 3x3 subspace variety and the 5-dim quadric", ok, t0, 300.0)


def test_criterion_12_chi_genera():
    t0 = time.time()
    rs = root_system("A", 3)
    fact4 = YPolynomial([1, 1]) * YPolynomial([1, 1, 1]) * YPolynomial([1, 1, 1, 1])
    ok = M.chi_minus_q(rs) == fact4
    gr = rs.parabolic([1, 3])
    ok = ok and M.chi_minus_q(rs, gr) == YPolynomial([1, 1, 2, 1, 1])
    _report(12, "point-count genera of the rank-3 flag space and Gr(2,4)", ok, t0, 1.0)


def test_criterion_13_rank3_dual_coefficient():
    t0 = time.time()
    rs = root_system("A", 3)
    kt = ktheory(rs)
    dual_id = M.dual_motivic_chern(kt, rs.identity, opposite=True)
    exp = kt.expand(dual_id, "Oop")
    got = exp.coefficient(rs.parse_element("s3s1s2")).substitute_nonequivariant()
    want = YPolynomial([0, 0, -1, 4]) * YPolynomial([1, 3, 3, 1])
    _report(13, "rank-3 dual-class coefficient y^2(4y-1)(1+y)^3", got == want, t0, 60.0)


def test_criterion_14_g2_big_cell_coefficient():
    t0 = time.time()
    rs = root_system("G", 2)
    kt = ktheory(rs)
    exp = kt.expand(M.motivic_chern(kt, rs.longest_element()), "O")
    # the coefficient on the opposite big-cell basis element equals, after the
    # nonequivariant collapse, the coefficient at the identity
    got = exp.coefficient(rs.identity).substitute_nonequivariant()
    want = YPolynomial([1, 8, 29, 69, 125, 141, 64])
    ok = got == want and check_log_concave(got) and got.evaluate(-1) == 1
    _report(14, "big-cell sextic coefficient, log-concave", ok, t0, 60.0)


def test_criterion_15_hirzebruch_layer():
    t0 = time.time()
    rs = root_system("A", 2)
    kt = ktheory(rs)
    ctx = cohomology(rs)
    hz = hirzebruch(rs, 8)
    hz10 = hirzebruch(rs, 10)
    ok = True
    for w in rs.weyl_group():
        h = hz.hirzebruch_class(w, cap=8, check_routes=True)
        ok = ok and h.evaluate_y(0) == hz.todd_transform(kt.ideal_sheaf(w), 8).evaluate_y(0)
        n = hz.hirzebruch_class(w, normalized=True, cap=8)
        vals = n.evaluate_y(-1)
        csm = ctx.csm(w).set_hbar(1)
        for u in set(vals) | set(csm.coeffs):
            ok = ok and vals.get(u, Poly.zero(2)) == drop_last_variable(csm.coefficient(u))
        # cap stability
        h10 = hz10.hirzebruch_class(w, cap=10)
        ok = ok and h10.truncate(8).eq_mod_cap(h, 8)
    for u in rs.weyl_group():
        a = hz.todd_transform(kt.ideal_sheaf(u), 8)
        for v in rs.weyl_group():
            b = hz.chern_character(kt.opp_structure_sheaf(v), 8)
            val = hz.pair(a, b)
            ok = ok and val == GradedSeries.const(YFrac.const(1 if u == v else 0), val.cap, 2)
    _report(15, "Hirzebruch layer at cap 8: routes, specializations, duality", ok, t0, 600.0)


def test_criterion_16_parabolic():
    t0 = time.time()
    ok = True
    # projection to the projective plane
    rs = root_system("A", 2)
    kt = ktheory(rs)
    pd = rs.parabolic([2])
    for w in rs.weyl_group():
        ok = ok and M.check_pushforward_mc(kt, pd, w)
    # two-step factorization in rank 3
    rs3 = root_system("A", 3)
    kt3 = ktheory(rs3)
    small = rs3.parabolic([3])
    big = rs3.parabolic([2, 3])
    for w in rs3.weyl_group():
        cls = M.motivic_chern(kt3, w)
        direct = M.parabolic_pushforward(kt3, cls, big)
        composed = M.parabolic_pushforward(kt3, M.parabolic_pushforward(kt3, cls, small), big)
        ok = ok and direct == composed
        # the (-y)-power factorization between the quotients
        u_small = small.min_rep(w)
        u_big = big.min_rep(w)
        drop = u_small.length - u_big.length
        lhs = M.parabolic_pushforward(kt3, M.motivic_chern_parabolic(kt3, small, u_small), big)
        rhs = M.motivic_chern_parabolic(kt3, big, u_big).scale(
            M.minus_y_power(3, drop)
        )
        ok = ok and lhs == rhs
    # Hirzebruch push-forward (normalized statement via the unnormalized class)
    hz = hirzebruch(rs, 8)
    from schubmc.hirzebruch import parabolic_pushforward_h

    w = rs.element_by_name("s2")
    lhs = parabolic_pushforward_h(hz, hz.hirzebruch_class(w, cap=8), pd)
    rhs = parabolic_pushforward_h(hz, hz.hirzebruch_class(rs.identity, cap=8), pd)
    cap = min(s.cap for s in lhs.values())
    my = YFrac.y_power(1, -1)
    for u in set(lhs) | set(rhs):
        ok = ok and lhs[u].truncate(cap) == (rhs[u] * my).truncate(cap)
    # specializations on Gr(2,4)
    gr = rs3.parabolic([1, 3])
    sp = M.quotient_space(kt3, gr)
    for u in gr.min_reps:
        cls = M.motivic_chern_parabolic(kt3, gr, u)
        ok = ok and cls.y_specialize(-1) == sp.point_class(u)
        ok = ok and cls.y_specialize(0) == M.quotient_ideal_sheaf(kt3, gr, u)
        ok = ok and cls.y_coefficient(u.length) == M.parabolic_pushforward(
            kt3, M.omega_class(kt3, u), gr
        )
    _report(16, "parabolic push-forwards and quotient specializations", ok, t0, 300.0)


def test_criterion_17_conjecture_harness():
    t0 = time.time()
    ok = True
    for t, r in [("A", 3), ("B", 2), ("C", 2), ("G", 2)]:
        rs = root_system(t, r)
        ok = ok and C.check_mc_positivity(rs).status == "verified"
        ok = ok and C.check_mc_log_concavity(rs).status == "verified"
    _report(17, "positivity and log-concavity sweeps at desk scale", ok, t0, 1800.0)
