"""Every localization sum of the GKM engines against the route it replaced.

The ``ref_*`` functions are the earlier routes, kept here as references: the
common-denominator sum of p/d over the fixed points (one product of every
Euler class, then one division), its two callers in the cohomology and
Hirzebruch layers (the Hirzebruch one over a padded degree window), the
coset grouping with a Levi Euler factor at every point, the numeric
point-by-point loops, and the G/P structure constants as a sum over the
minimal representatives of the pulled-back restrictions.  Their sums are
divided by products of Euler classes with the general elimination of
``poly_division_reference``, independent of ``Poly.divide_exact``.
``GKMEngine.localize`` replaces all of them with one signed sum divided once;
``test_localization_identities`` checks the three identities that makes
exact.
"""

from fractions import Fraction

import pytest

import poly_division_reference as division_ref

from schubmc.cohomology import (
    SchubertCalculus,
    cohomology,
    integrate_quotient,
    numeric_cohomology,
    parabolic_pushforward_coh,
)
from schubmc.hirzebruch import hirzebruch, parabolic_pushforward_h
from schubmc.polyring import GradedSeries, Poly, YFrac
from schubmc.roots import RootSystem


def ref_fraction_sum(pairs, zero, one):
    num, den = zero, one
    for p, d in pairs:
        num = num * d + p * den
        den = den * d
    return num, den


def ref_coh_sum(ctx, pairs):
    num, den = ref_fraction_sum(pairs, Poly.zero(ctx.nvars), ctx.one)
    q = division_ref.divide_exact(num, den)
    assert q is not None
    return q


def ref_integrate(ctx, a, extra_denominator=None):
    pairs = []
    for w, p in a.coeffs.items():
        d = ctx.euler_at(w)
        if extra_denominator is not None:
            d = d * extra_denominator(w)
        pairs.append((p, d))
    return ref_coh_sum(ctx, pairs)


def ref_cosets(eng, pdat, coeffs):
    groups = {}
    for v, p in coeffs.items():
        levi = eng.weight_product(pdat.levi_positive_roots, v)
        groups.setdefault(pdat.min_rep(v), []).append((p, levi))
    return groups


def ref_pushforward_coh(ctx, a, pdat):
    out = {}
    for u, pairs in ref_cosets(ctx, pdat, a.coeffs).items():
        q = ref_coh_sum(ctx, pairs)
        if q:
            out[u] = q
    return out


def ref_integrate_quotient(ctx, pdat, a):
    pairs = [(p, ctx.weight_product(pdat.outer_positive_roots, u)) for u, p in a.coeffs.items()]
    return ref_coh_sum(ctx, pairs)


def ref_hz_sum(pairs, dim, cap, nvars):
    pad = cap + dim * (len(pairs) - 1)
    num, den = ref_fraction_sum(
        ((GradedSeries(dict(s.comps), pad, s.nvars), e) for s, e in pairs),
        GradedSeries.zero(pad, nvars),
        Poly.const(YFrac.const(1), nvars),
    )
    target_cap = cap - dim
    m = den.degree()
    comps = {}
    for d in range(0, target_cap + 1):
        comp = num.component(d + m)
        if comp:
            q = division_ref.divide_exact(comp, den)
            assert q is not None
            comps[d] = q
    return GradedSeries(comps, target_cap, nvars)


def ref_hz_integrate(hz, a, cap=None):
    cap = a.cap() if cap is None else cap
    pairs = [(s, hz.euler_at(w)) for w, s in a.coeffs.items()]
    return ref_hz_sum(pairs, hz.dim, cap, hz.rs.rank)


def ref_pushforward_h(hz, a, pdat):
    fiber_dim = len(pdat.levi_positive_roots)
    return {
        u: ref_hz_sum(pairs, fiber_dim, min(s.cap for s, _ in pairs), hz.rs.rank)
        for u, pairs in ref_cosets(hz, pdat, a.coeffs).items()
    }


def ref_num_integrate(num, f):
    return sum(v / num.euler_at(w) for w, v in f.items())


def ref_triple(calc, a, b, c):
    """<[Y_P(a)] [Y_P(b)], [X_P(c)]> over G/P, with the Euler class of G/P at
    each minimal representative, on the pulled-back restrictions."""
    if a.length + b.length != c.length:
        return 0
    num = calc._numeric
    pulled = _pulled_back(calc)
    fa, fb, fc = pulled("Y", a), pulled("Y", b), pulled("X", c)
    total = Fraction(0)
    for u, va in fa.items():
        if u in fb and u in fc:
            total += va * fb[u] * fc[u] / num.weight_product(calc.parabolic.outer_positive_roots, u)
    assert total.denominator == 1
    return int(total)


# -- exact comparison forms ------------------------------------------------------------


def _typed(packed):
    return {k: (type(c).__name__, c) for k, c in packed.items()}


def poly_form(p):
    """The packed terms of a polynomial, coefficient types included."""
    return p.nvars, _typed(p.packed)


def series_form(s):
    """The cap and the packed terms per degree of a series."""
    return s.cap, {d: _typed(p.packed) for d, p in s.comps.items()}


def _rational(x):
    return type(x).__name__, x


SYSTEMS = [("A", 2), ("B", 2), ("G", 2)]


def _small_pairs(rs, most):
    """The pairs v <= u whose Bruhat interval has at most ``most`` points."""
    cells = rs.weyl_group()
    for u in cells:
        for v in cells:
            if rs.bruhat_leq(v, u) and sum(rs.bruhat_leq(v, x) and rs.bruhat_leq(x, u) for x in cells) <= most:
                yield u, v


def _quotients(rs):
    return [rs.parabolic(s) for s in ([1], [2])] + ([rs.parabolic([1, 3])] if rs.rank == 3 else [])


@pytest.mark.parametrize("lie_type,rank", SYSTEMS + [("A", 3)])
def test_cohomology_integrals_match_the_fraction_sum(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    ctx = cohomology(rs)
    most = 12 if rank == 2 else 6
    for u, v in _small_pairs(rs, most):
        for a, b in [
            (ctx.schubert_class(u), ctx.opposite_schubert_class(v)),
            (ctx.csm(u), ctx.dual_csm(v)),
            (ctx.csm(u), ctx.csm_opposite(v)),
        ]:
            got, want = ctx.pair(a, b), ref_integrate(ctx, a * b)
            assert poly_form(got) == poly_form(want), (u.name(), v.name())
    # a class that is not a product of two: the point classes
    for w in rs.weyl_group():
        assert poly_form(ctx.integrate(ctx.point_class(w))) == poly_form(Poly.const(1, ctx.nvars))
    assert poly_form(ctx.integrate(ctx.zero())) == poly_form(Poly.zero(ctx.nvars))


@pytest.mark.parametrize("lie_type,rank", SYSTEMS + [("A", 3)])
def test_cohomology_pushforwards_match_the_coset_sums(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    ctx = cohomology(rs)
    for pdat in _quotients(rs):
        for w in rs.weyl_group():
            for a in (ctx.schubert_class(w), ctx.csm(w), ctx.opposite_schubert_class(w), ctx.dual_csm(w)):
                got = parabolic_pushforward_coh(ctx, a, pdat)
                want = ref_pushforward_coh(ctx, a, pdat)
                assert {u: poly_form(p) for u, p in got.coeffs.items()} == {
                    u: poly_form(p) for u, p in want.items()
                }, (pdat.subset, w.name())
                if len(pdat.min_reps) <= 6 or w.length <= 1:
                    q = integrate_quotient(ctx, pdat, got)
                    assert poly_form(q) == poly_form(ref_integrate_quotient(ctx, pdat, got))


@pytest.mark.parametrize("lie_type,rank", SYSTEMS)
def test_sm_pairing_matches_the_total_chern_sum(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    ctx = cohomology(rs)
    most = 8 if lie_type != "G" else 4
    for u, v in _small_pairs(rs, most):
        for w, x in ((u, v), (v, u)):
            sm = ctx.sm(w, opposite=True)
            sm = type(sm)(ctx, sm.numerator.set_hbar(1))
            other = ctx.csm(x).set_hbar(1)
            got = sm.pair_with(other)
            want = ref_integrate(ctx, sm.numerator * other, ctx.total_chern_at)
            assert poly_form(got) == poly_form(want), (w.name(), x.name())


@pytest.mark.parametrize("lie_type,rank,cap", [("A", 2, 8), ("B", 2, 8), ("G", 2, 7)])
def test_hirzebruch_integrals_match_the_padded_sum(lie_type, rank, cap):
    rs = RootSystem(lie_type, rank)
    hz = hirzebruch(rs, cap)
    most = 6 if lie_type != "G" else 3
    for u, v in _small_pairs(rs, most):
        a = hz.hirzebruch_class(u, check_routes=False) * hz.dual_hirzebruch_class(v)
        assert series_form(hz.integrate(a)) == series_form(ref_hz_integrate(hz, a)), (u.name(), v.name())
        low = a.cap() - 1
        assert series_form(hz.integrate(a, low)) == series_form(ref_hz_integrate(hz, a, low))
    for pdat in _quotients(rs):
        for w in rs.weyl_group():
            a = hz.hirzebruch_class(w, check_routes=False)
            got, want = parabolic_pushforward_h(hz, a, pdat), ref_pushforward_h(hz, a, pdat)
            assert {u: series_form(s) for u, s in got.items()} == {
                u: series_form(s) for u, s in want.items()
            }, (pdat.subset, w.name())


@pytest.mark.parametrize("lie_type,rank", SYSTEMS)
def test_numeric_sums_match_the_point_loops(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    num = numeric_cohomology(rs)
    cells = rs.weyl_group()
    for u in cells:
        fx = num.schubert(u)
        for v in cells:
            fy = num.opposite_schubert(v)
            f = {w: fx[w] * fy[w] for w in fx if w in fy}
            if f:
                assert _rational(num.integrate(f)) == _rational(ref_num_integrate(num, f))
            else:
                assert num.integrate(f) == 0
    for pdat in [rs.parabolic(s) for s in _subsets(rs.rank) if len(s) < rs.rank]:
        assert _count_constants(rs, pdat)


def _count_constants(rs, pdat):
    """Check every constant of ``SchubertCalculus`` on G/P against the sum over
    G/P, and return how many are nonzero."""
    calc = SchubertCalculus(rs, pdat)
    nonzero = 0
    for a in calc.cells:
        for b in calc.cells:
            row = calc._constants(a, b)
            # the G/B row of two minimal representatives stays among them
            assert set(row) <= set(calc.cells), (a.name(), b.name())
            for c in calc.cells:
                n = ref_triple(calc, a, b, c)
                assert row.get(c, 0) == n, (pdat.subset, a.name(), b.name(), c.name())
                nonzero += n != 0
    return nonzero


def test_parabolic_constants_are_the_pulled_back_ones():
    a2 = RootSystem("A", 2)
    calc = SchubertCalculus(a2, a2.parabolic([1]))
    assert _count_constants(a2, calc.parabolic) == 6
    ones = [n for a in calc.cells for b in calc.cells for n in calc._constants(a, b).values()]
    assert ones == [1] * 6
    # Gr(2,4) = A3/P{1,3}
    a3 = RootSystem("A", 3)
    assert _count_constants(a3, a3.parabolic([1, 3])) == 21


def _pulled_back(calc):
    """G/P Schubert restrictions as pull-backs: Y(v) and X(v w_P) of G/B at the
    minimal representatives."""
    num, pdat = calc._numeric, calc.parabolic
    top = max(pdat.subgroup, key=lambda x: x.length)

    def values(kind, v):
        f = num.opposite_schubert(v) if kind == "Y" else num.schubert(v * top)
        return {u: f[u] for u in pdat.min_reps if u in f}

    return values


# -- the identities the signed sum rests on -------------------------------------------------


def _subsets(rank):
    return [tuple(j for j in range(1, rank + 1) if mask >> (j - 1) & 1) for mask in range(1 << rank)]


def _chern_product(eng, w):
    """c(T)|_w c(T*)|_w, as the product of (1 - f)(1 + f) over f = form(w beta)."""
    tangent = cotangent = eng.one
    for beta in eng.rs.positive_roots:
        f = eng.form(w.act(beta))
        tangent = tangent * (eng.one - f)
        cotangent = cotangent * (eng.one + f)
    return tangent * cotangent


@pytest.mark.parametrize("lie_type,rank", SYSTEMS + [("A", 3), ("B", 3)])
def test_localization_identities(lie_type, rank):
    rs = RootSystem(lie_type, rank)
    cells = rs.weyl_group()
    for eng in (cohomology(rs), hirzebruch(rs), numeric_cohomology(rs)):
        name = type(eng).__name__
        e_id = eng.euler_at(rs.identity)
        chern_id = _chern_product(eng, rs.identity)
        for w in cells:
            # e(T_w) = (-1)^l(w) e(T_id)
            assert eng.euler_at(w) == (-e_id if w.length % 2 else e_id), (name, w.name())
            # c(T) c(T*) is the same at every fixed point
            assert _chern_product(eng, w) == chern_id, (name, w.name())
        if name == "Cohomology":
            assert all(
                eng.total_chern_at(w) * eng.total_chern_at(w, dual=True) == chern_id for w in cells
            )
        # e_L(u x) = (-1)^l(x) e_L(u) for x in W_P, u the minimal representative
        for subset in _subsets(rank):
            pdat = rs.parabolic(subset)
            for w in cells:
                u = pdat.min_rep(w)
                e_u = eng.levi_euler_at(pdat, u)
                sign = (w.length - u.length) % 2
                assert eng.levi_euler_at(pdat, w) == (-e_u if sign else e_u), (name, subset, w.name())
