"""Motivic Chern classes of Schubert cells: duals, Segre forms, specializations,
star duality, chi_y genera, and push-forwards to partial flag manifolds.

Every operator-word class is grown by ``RootSystem.along_word``; the dual
class of an opposite cell is grown down from w0 by ``RootSystem.down_from_w0``.
``mc_expansion`` is the one expansion of an MC class in a Schubert-type
basis, memoized in the root system: the ``mc compute`` command, the MC
conjecture checkers, star duality and the ``csm_from_mc_*`` functions all
read it, so each cell is solved once.

The ``csm_from_mc_*`` functions take CSM classes as leading terms of MC
classes, the paper's route; the program's CSM classes come from the
recursion in ``cohomology``, and these are its independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from . import hecke
from .cohomology import GKMError
from .kclasses import KClass, SchubertExpansion, Space, rebase
from .laurent import (
    FactoredFraction,
    LaurentPolynomial,
    YPolynomial,
    divide_exact,
    one_minus_e,
    one_plus_ye,
    product_of_factors,
)
from .polyring import Poly, exp_linear
from .roots import ParabolicDatum, cell_order, neg_weight


class ConventionError(AssertionError):
    """An identity that pins a sign or basis convention failed."""


# -- class constructors -----------------------------------------------------------


def motivic_chern(kt, w):
    """MC_y of the cell indexed by w, by the Demazure-Lusztig recursion."""
    return kt.rs.along_word(("k", "MC"), w, kt.iota, kt.dl_operator)


def mc_expansion(kt, w, basis="O"):
    """The coefficients of ``motivic_chern(kt, w)`` in a Schubert-type basis
    (a ``SchubertExpansion``): the one expansion of an MC class, memoized in
    the root system, so every command and checker expands a cell once.

    The O coefficients are read off the Hecke right-normal form of
    T_{w^-1} (``hecke.mc_coefficients_oracle``), with no fixed-point solve,
    and the I coefficients off the O ones by the Bruhat zeta sum of
    ``kclasses.rebase``, over [id, w] only.  The other bases keep the
    triangular solve of ``KTheory.expand``.  Coefficients are listed in
    descending ``cell_order``, the order in which that solve finds them.
    """

    def build():
        if basis == "O":
            coeffs = hecke.mc_coefficients_oracle(kt.rs, w)
            order = sorted(coeffs, key=cell_order, reverse=True)
            return SchubertExpansion(kt.space, basis, {u: coeffs[u] for u in order})
        if basis == "I":
            o = mc_expansion(kt, w, "O").coeffs
            return SchubertExpansion(kt.space, basis, rebase(kt.space, o, "O", "I"))
        return kt.expand(motivic_chern(kt, w), basis)

    return kt.rs.memo(("k", "MCexp", basis, w), build)


def csm_from_mc_nonequivariant(kt, w):
    """Integer CSM coefficients by divide-then-specialize on MC coefficients."""
    rank = kt.rs.rank
    one_plus_y = LaurentPolynomial({((0,) * rank, 0): 1, ((0,) * rank, 1): 1}, rank)
    out = {}
    for u, c in mc_expansion(kt, w).coeffs.items():
        p = c.substitute_nonequivariant().to_laurent(rank)
        for _ in range(u.length):
            p = divide_exact(p, one_plus_y)
            if p is None:
                raise GKMError(f"coefficient at {u.name()} not divisible by (1+y)^len")
        out[u] = p.y_specialize(-1).terms.get(((0,) * rank, 0), 0)
    return out


def csm_from_mc_equivariant(kt, ctx, w):
    """Leading terms of the equivariant MC coefficients, with y = -exp(-hbar).

    Returns the map u -> homogeneous polynomial of degree length(u) in the
    simple roots and the homogenizing variable.
    """
    out = {}
    for u, c in mc_expansion(kt, w).coeffs.items():
        total = Poly.zero(ctx.nvars)
        for (lam, k), coeff in c.terms.items():
            series = exp_linear(ctx.form(lam) - ctx.hbar() * Fraction(k), u.length)
            total = total + series.component(u.length) * (Fraction(coeff) * (-1) ** k)
        out[u] = total
    return out


def dual_motivic_chern(kt, w, opposite=True):
    """The orthogonal-dual class, built by the shifted dual operator word.

    With ``opposite`` set this is the class attached to the opposite cell
    Y(w), grown from the opposite big point class; otherwise the ordinary
    variant grown from the identity point class.
    """
    if not opposite:
        return kt.rs.along_word(("k", "MCdualX"), w, kt.iota, kt.l_operator)
    return kt.rs.down_from_w0(("k", "MCdualY"), w, kt.opp_structure_sheaf, kt.l_operator)


def lambda_y_opposite_cotangent(kt):
    """prod over positive roots of (1 + y e^{-alpha}), as a Laurent polynomial."""
    factors = tuple(one_plus_ye(neg_weight(a)) for a in kt.rs.positive_roots)
    return product_of_factors(factors, kt.rs.rank)


def verify_mc_duality(kt, u, v):
    """Pairing of MC at u against the dual class at v; returns (ok, got, want)."""
    got = kt.pair(motivic_chern(kt, u), dual_motivic_chern(kt, v, opposite=True))
    if u == v:
        want = FactoredFraction(lambda_y_opposite_cotangent(kt))
    else:
        want = FactoredFraction.zero(kt.rs.rank)
    return got == want, got, want


def coefficients_in_negative_cone(rs, poly):
    """Every monomial e^mu of poly has mu a nonpositive integer combination of simple roots."""
    for exp, _ in poly.terms:
        coords = rs.memo(("roots", "simple", exp), lambda: rs.weight_in_simple_roots(exp))
        for q in coords:
            if q.denominator != 1 or q > 0:
                return False
    return True


# -- Segre form --------------------------------------------------------------------


def segre_mc(kt, w):
    """Segre form MC / lambda_y(T*X), pointwise, checked against the
    dual-operator route divided by the scalar product over positive roots."""
    mc = motivic_chern(kt, w)
    out = {}
    for u, c in mc.coeffs.items():
        out[u] = c.divide_by_factors(kt.lambda_y_cotangent_factors(u))
    pointwise = KClass(kt.space, out)
    word_route = kt.rs.along_word(("k", "segre"), w, kt.iota, kt.dl_dual)
    scalar = tuple(one_plus_ye(a) for a in kt.rs.positive_roots)
    word_route = word_route.map_coefficients(lambda c: c.divide_by_factors(scalar))
    if not pointwise == word_route:
        raise ConventionError("Segre routes disagree")
    return pointwise


# -- specializations -----------------------------------------------------------------


def omega_class(kt, w):
    """Dualizing-sheaf class: boundary ideal sheaf twisted by rho both ways."""
    cls = kt.line_bundle_mul(kt.rs.rho, kt.ideal_sheaf(w))
    return kt.trivial_bundle_mul(neg_weight(kt.rs.rho), cls)


def specialize_mc(kt, w, mode):
    """Specializations of MC at the cell w; returns (class, expected, ok)."""
    mc = motivic_chern(kt, w)
    if mode == "y=-1":
        got = mc.y_specialize(-1)
        want = kt.iota(w)
    elif mode == "y=0":
        got = mc.y_specialize(0)
        want = kt.ideal_sheaf(w)
    elif mode == "top":
        if mc.y_degree() != w.length:
            raise ConventionError(f"y-degree {mc.y_degree()} differs from length {w.length}")
        got = mc.y_coefficient(w.length)
        want = omega_class(kt, w)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return got, want, got == want


def specialize_dual_mc(kt, w, mode):
    cls = dual_motivic_chern(kt, w, opposite=True)
    if mode == "y=0":
        got = cls.y_specialize(0)
        want = kt.opp_structure_sheaf(w)
    elif mode == "y=-1":
        got = cls.y_specialize(-1)
        num = product_of_factors(
            tuple(one_minus_e(neg_weight(a)) for a in kt.rs.positive_roots), kt.rs.rank
        )
        ratio = FactoredFraction(num, tuple(one_minus_e(w.act(a)) for a in kt.rs.positive_roots))
        want = kt.iota(w).scale(ratio)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return got, want, got == want


# -- star duality ----------------------------------------------------------------------


def _sign(k):
    return -1 if k % 2 else 1


def star_duality_report(kt, w):
    """All star-duality identities at the cell w; returns dict of booleans."""
    rs = kt.rs
    n = kt.space.dim
    rho = rs.rho
    results = {}

    mc = motivic_chern(kt, w)
    mdx = dual_motivic_chern(kt, w, opposite=False)
    sign = _sign(n - w.length)

    lhs = kt.trivial_bundle_mul(neg_weight(rho), kt.line_bundle_mul(neg_weight(rho), mc))
    rhs = kt.star(mdx).scale(sign)
    results["rho_twist_vs_star"] = lhs == rhs

    def starred_with_signs(a_exp, b_exp):
        # a_u = (-1)^(l(u) - l(w)) star(b_u) at every cell u
        return all(
            a_exp.coefficient(u) == _sign(u.length - w.length) * b_exp.coefficient(u).star()
            for u in set(a_exp.coeffs) | set(b_exp.coeffs)
        )

    results["coeffs_O_vs_starI"] = starred_with_signs(
        mc_expansion(kt, w, "O"), kt.expand(mdx, "I")
    )
    results["coeffs_I_vs_O"] = starred_with_signs(mc_expansion(kt, w, "I"), kt.expand(mdx, "O"))

    ideal = kt.ideal_sheaf(w)
    lhs = kt.trivial_bundle_mul(neg_weight(rho), kt.line_bundle_mul(neg_weight(rho), ideal))
    rhs = kt.star(kt.structure_sheaf(w)).scale(_sign(n - w.length))
    results["ideal_vs_star_structure"] = lhs == rhs

    psi = kt.psi(kt.iota(w))
    mono = LaurentPolynomial.monomial(
        neg_weight(tuple(a - b for a, b in zip(w.act(rho), rho))), coeff=_sign(n)
    )
    results["psi_on_point"] = psi == kt.iota(w).scale(mono)

    return results


def psi_intertwines_dl(kt, a, i):
    """Psi(T_i(a)) must equal -L_i(Psi(a))."""
    return kt.psi(kt.dl_operator(i, a)) == -kt.l_operator(i, kt.psi(a))


# -- chi_y genus --------------------------------------------------------------------------


def chi_y_genus(rs, parabolic=None, cell=None):
    """Length generating polynomial in (-y) over the relevant coset set.

    ``parabolic`` is a ``ParabolicDatum``, a list of simple-root indices, or
    None for the full flag manifold.  Without a cell the coset set is all of
    W^P, whose length polynomial is Macdonald's product
    (``RootSystem.poincare_polynomial``), and W is not enumerated; with a
    cell it is the Bruhat interval below the cell.
    """
    if cell is None:
        counts = rs.poincare_polynomial(getattr(parabolic, "subset", parabolic) or ())
        return YPolynomial.from_dict({n: c * (-1) ** n for n, c in enumerate(counts)})
    if parabolic is not None and not isinstance(parabolic, ParabolicDatum):
        parabolic = rs.parabolic(parabolic)
    pool = rs.weyl_group() if parabolic is None else parabolic.min_reps
    pool = [v for v in pool if rs.bruhat_leq(v, cell)]
    coeffs = {}
    for v in pool:
        coeffs[v.length] = coeffs.get(v.length, 0) + (-1) ** v.length
    return YPolynomial.from_dict(coeffs)


def chi_minus_q(rs, parabolic=None, cell=None):
    """Point-count form: substitute y = -q, giving nonnegative coefficients."""
    chi = chi_y_genus(rs, parabolic, cell)
    return YPolynomial.from_dict({k: c * (-1) ** k for k, c in chi.to_dict().items()})


# -- parabolic push-forward ------------------------------------------------------------------


def quotient_space(kt, pdat):
    return kt.rs.memo(("k", "QSPACE", pdat.subset), lambda: Space(kt.rs, pdat))


def parabolic_pushforward(kt, a, pdat):
    """Push a class on G/B or G/P forward to G/Q by fixed-point summation.

    The source parabolic P is read from the class's space and must be
    contained in the target Q.  In iota-coordinates the fiberwise sum
    telescopes: each source point v contributes its coefficient times the
    ratio of the target quotient's self-intersection products at v and at
    its coset representative.
    """
    source = a.ctx.parabolic
    if source is not None and not set(source.subset) <= set(pdat.subset):
        raise ValueError(
            f"cannot push forward from P{list(source.subset)} to P{list(pdat.subset)}: "
            "the source parabolic must be contained in the target"
        )
    target = quotient_space(kt, pdat)
    out = {}
    for v, c in a.coeffs.items():
        u = pdat.min_rep(v)
        outer = tuple(one_minus_e(v.act(beta)) for beta in pdat.outer_positive_roots)
        contrib = FactoredFraction(
            c.num * product_of_factors(outer, kt.rs.rank),
            c.den + target.selfint_factors(u),
        )
        out[u] = out.get(u, FactoredFraction.zero(kt.rs.rank)) + contrib
    return KClass(target, {u: c.reduce() for u, c in out.items()})


def quotient_structure_sheaf(kt, pdat, u):
    return kt.rs.memo(
        ("k", "QO", pdat.subset, u), lambda: parabolic_pushforward(kt, kt.structure_sheaf(u), pdat)
    )


def quotient_ideal_sheaf(kt, pdat, u):
    return kt.rs.memo(
        ("k", "QI", pdat.subset, u), lambda: parabolic_pushforward(kt, kt.ideal_sheaf(u), pdat)
    )


def motivic_chern_parabolic(kt, pdat, u):
    """MC of the cell of G/P indexed by a minimal representative u."""
    if u not in set(pdat.min_reps):
        raise ValueError("cell label must be a minimal coset representative")
    return kt.rs.memo(
        ("k", "QMC", pdat.subset, u), lambda: parabolic_pushforward(kt, motivic_chern(kt, u), pdat)
    )


def minus_y_power(nvars, k):
    return LaurentPolynomial.monomial((0,) * nvars, ypow=k, coeff=(-1) ** k)


def check_pushforward_mc(kt, pdat, w):
    """pi_* MC(cell of w) against (-y)^{length drop} MC(parabolic cell)."""
    lhs = parabolic_pushforward(kt, motivic_chern(kt, w), pdat)
    u = pdat.min_rep(w)
    drop = w.length - u.length
    rhs = motivic_chern_parabolic(kt, pdat, u).scale(minus_y_power(kt.rs.rank, drop))
    return lhs == rhs
