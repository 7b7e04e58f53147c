"""Equivariant Chern character, Todd transformation, and Hirzebruch classes.

All values live in the completed equivariant homology: GKM restriction maps
into degree-truncated series over Q[y, (1+y)^-1], which ``polyring`` stores
in t = 1 + y as Q[t, t^-1]; y survives only where a value is read or
written (``YFrac``).  Every identity is checked
modulo the truncation degree.  A series never claims a degree it does not
know: a sum keeps the least cap of its terms, and truncating to a larger cap
keeps the series' own.  A localization sum divides the signed sum of the
restrictions by the d linear forms of an Euler class, one cap lower each,
so it is exact below the least cap of its terms minus d.

``Hirzebruch`` is a ``cohomology.GKMEngine``: it supplies the first Chern
class of a weight over ``YFrac``, and takes its Euler classes, divided
differences and localization sums (integrals and push-forwards) from there.  ``HClass``
is a ``cohomology.RestrictionMap`` that also carries its truncation cap and
whether it is normalized; it combines with the classes of every Hirzebruch
engine of its root system, since those differ only in their default cap.
Operator words are grown by ``RootSystem.along_word`` (the dual classes by
``RootSystem.down_from_w0``) from a point class at ``cap + dim``, the slack
of the longest word, under keys that carry ``cap``.

The Hirzebruch class of a cell has one production route, the
Demazure-Lusztig word route of ``hirzebruch_class``.  Below the cell's
codimension, at a cap under |positive roots| - l(w), the class is zero
(``Hirzebruch.vanishes``), and it is returned without building an Euler
class.  The Todd transform of
the motivic Chern class (``todd_transform``) is its independent
cross-check: it runs only when ``check_routes=True`` is passed, once per
cell and cap, and nothing in the CLI passes it.
"""

from __future__ import annotations

from math import comb

from .cohomology import GKMEngine, RestrictionMap
from .polyring import (
    GradedSeries,
    Poly,
    YFrac,
    exp_linear,
    normalized_hirzebruch_coefficients,
    series_combination,
    series_of_linear,
    times_series_of_linear,
    todd_coefficients,
    unnormalized_hirzebruch_coefficients,
)
from .roots import RootSystemError, neg_weight


# The most monomials the Euler class of a fixed point may have: it is a product
# of |positive roots| linear forms in rank variables, so it has at most
# C(|positive roots| + rank - 1, rank - 1) monomials, and every point class,
# divided difference and localization sum of the engine is at least that big.
# ``hirzebruch --cell s1 --cap 2`` (one run each, one core, Python 3.11): D5
# (10,626) 0.5 s; D6 (324,632) 3.5 s and 280 MiB; B6 (749,398) 9.5 s and
# 616 MiB; E6 (749,398) 13.2 s and 838 MiB; A7 (1,344,904) 5.4 s and 473 MiB;
# D7 (12,271,512), the next bound above A7's, ran out of a 3 GiB address space
# after 112 s; E7 (119,877,472) has run past 120 s.  The bound does not depend
# on the cap, and a large cap is not refused: D6 at cap 60 ran past 100 s.
MAX_EULER_TERMS = 2_000_000


class TruncationError(ArithmeticError):
    """A quantity was requested beyond the valid truncation window."""


class HClass(RestrictionMap):
    """Hirzebruch-layer class: fixed point -> truncated graded series."""

    __slots__ = ("normalized",)

    def __init__(self, hz, coeffs, normalized=False):
        super().__init__(hz, coeffs)
        self.normalized = normalized

    def like(self, coeffs):
        return HClass(self.ctx, coeffs, self.normalized)

    def _domain(self):
        # the engines of one root system differ only in their default cap and
        # share its memo, so a memoized class may carry any of them
        return self.ctx.rs

    def coefficient(self, w):
        s = self.coeffs.get(w)
        if s is not None:
            return s
        return GradedSeries.zero(self.cap(), self.ctx.rs.rank)

    def cap(self):
        return min((s.cap for s in self.coeffs.values()), default=self.ctx.cap)

    def eq_mod_cap(self, other, cap=None):
        caps = [self.cap(), other.cap()]
        if cap is not None:
            caps.append(cap)
        cap = min(caps)
        for w in set(self.coeffs) | set(other.coeffs):
            if not self.coefficient(w).truncate(cap) == other.coefficient(w).truncate(cap):
                return False
        return True

    def truncate(self, cap):
        return self.map_coefficients(lambda s: s.truncate(cap))

    def evaluate_y(self, v):
        """Specialize y, returning fixed point -> Poly over Fractions."""
        return {w: s.poly.map_coefficients(lambda c: c.evaluate(v)) for w, s in self.coeffs.items()}


class Hirzebruch(GKMEngine):
    """Hirzebruch-transformation calculus for one root system at a default cap."""

    prefix = ("hz",)

    def __init__(self, rs, cap=None):
        """Raises ``RootSystemError`` when an Euler class could have more than
        ``MAX_EULER_TERMS`` monomials."""
        self.rs = rs
        self.dim = rs.num_positive_roots
        terms = comb(self.dim + rs.rank - 1, rs.rank - 1)
        if terms > MAX_EULER_TERMS:
            raise RootSystemError(
                f"an Euler class of {rs.lie_type}{rs.rank} may have {terms:,} monomials, "
                f"over the {MAX_EULER_TERMS:,} that a Hirzebruch class may build"
            )
        self.cap = 2 * self.dim if cap is None else cap
        self.one = Poly.const(YFrac.const(1), rs.rank)

    # -- linear forms and basic series -----------------------------------------

    def form(self, weight):
        """c_1 of a weight; same global sign convention as the cohomology layer."""
        weight = tuple(weight)
        return self.memo(
            ("form", weight),
            lambda: Poly.linear([YFrac.const(-c) for c in self.rs.weight_in_simple_roots(weight)]),
        )

    def _univ(self, mode, cap):
        """The Todd-type coefficient list of mode, at least cap + 1 long: one
        list per mode, built at the largest cap asked so far (a truncated
        series knows each coefficient up to its cap exactly, so the list of a
        smaller cap is a prefix of it)."""

        def build():
            if mode == "Td":
                return todd_coefficients(cap)
            if mode == "uTdy":
                return unnormalized_hirzebruch_coefficients(cap)
            if mode == "nTdy":
                return normalized_hirzebruch_coefficients(cap)
            raise ValueError(f"unknown Todd mode {mode!r}")

        lists = self.memo(("univ",), dict)
        have = lists.get(mode)
        if have is None or len(have) <= cap:
            have = lists[mode] = build()
        return have

    def todd_series(self, weight, mode="Td", cap=None):
        """The chosen Todd-type series of a single weight, truncated."""
        cap = self.cap if cap is None else cap
        weight = tuple(weight)
        return self.memo(
            ("ts", weight, mode, cap),
            lambda: series_of_linear(self._univ(mode, cap), self.form(weight), cap),
        )

    def times_todd(self, s, weight, mode, cap):
        """s times the Todd-type series of one weight, below min(cap, s.cap)."""
        return times_series_of_linear(s, self._univ(mode, cap), self.form(tuple(weight)), cap)

    def todd_series_of_weights(self, weights, mode="Td", cap=None):
        cap = self.cap if cap is None else cap
        out = GradedSeries.const(YFrac.const(1), cap, self.rs.rank)
        for mu in weights:
            out = self.times_todd(out, mu, mode, cap)
        return out

    def tangent_weights(self, w):
        return tuple(neg_weight(w.act(a)) for a in self.rs.positive_roots)

    def tangent_todd(self, w, mode="Td", cap=None):
        cap = self.cap if cap is None else cap
        return self.memo(
            ("tt", w, mode, cap),
            lambda: self.todd_series_of_weights(self.tangent_weights(w), mode, cap),
        )

    def point_class(self, w, cap=None):
        cap = self.cap if cap is None else cap
        return HClass(self, {w: GradedSeries.from_poly(self.euler_at(w), cap)})

    # -- Chern character and Todd transformation ----------------------------------

    def chern_character(self, a, cap=None):
        """ch of a K-class given by polynomial restrictions, as an HClass.

        The input must restrict to genuine Laurent polynomials at every
        fixed point; a surviving denominator raises.
        """
        cap = self.cap if cap is None else cap
        out = {}
        for w in a.coeffs:
            # one integer y-list per weight: sum_k c y^k
            ys = {}
            for (lam, k), c in a.restriction(w).as_polynomial().terms.items():
                if k < 0:
                    raise TruncationError("negative y power in a Chern character input")
                y = ys.setdefault(lam, [])
                y.extend([0] * (k + 1 - len(y)))
                y[k] += c
            pairs = [(self._exp_cached(lam, cap), y) for lam, y in ys.items()]
            out[w] = series_combination(pairs, cap, self.rs.rank)
        return HClass(self, out)

    def _exp_cached(self, lam, cap):
        lam = tuple(lam)
        return self.memo(
            ("exp", lam, cap),
            lambda: exp_linear(self.form(lam), cap, coeff_one=YFrac.const(1)),
        )

    def todd_transform(self, a, cap=None):
        """td of a K-theory class: ch times the tangent Todd class, pointwise."""
        cap = self.cap if cap is None else cap
        ch = self.chern_character(a, cap)
        return HClass(self, {w: s * self.tangent_todd(w, "Td", cap) for w, s in ch.coeffs.items()})

    # -- operators -------------------------------------------------------------------

    def _times_relative_todd(self, s, u, i, mode, cap):
        # relative tangent weight of the rank-one projection at the point u
        return self.times_todd(s, neg_weight(u.act(self.rs.simple_root(i))), mode, cap)

    def dl_h(self, i, a, normalized=False, dual=False):
        """Hirzebruch analogues of the Demazure-Lusztig operators."""
        mode = "nTdy" if normalized else "uTdy"
        cap = a.cap()
        if dual:
            scaled = a.like(
                {u: self._times_relative_todd(s, u, i, mode, cap) for u, s in a.coeffs.items()}
            )
            first = self.bgg(i, scaled)
        else:
            d = self.bgg(i, a)
            first = d.like(
                {u: self._times_relative_todd(s, u, i, mode, s.cap) for u, s in d.coeffs.items()}
            )
        return first - a.truncate(first.cap())

    def l_h(self, i, a, normalized=False):
        b = self.dl_h(i, a, normalized, dual=True)
        # the factor 1 + y is t, a shift
        return b + a.truncate(b.cap()).map_coefficients(lambda s: s.shift_t(lambda d: 1))

    # -- Adams operation ----------------------------------------------------------------

    def adams_normalize(self, a):
        """Scale homological degree j by (1+y)^-j; degrees measured against
        dim, so a term of degree d is shifted by t^(d - dim)."""
        out = {w: s.shift_t(lambda d: d - self.dim) for w, s in a.coeffs.items()}
        return HClass(self, out, normalized=True)

    def assert_cleared(self, a):
        for w, s in a.coeffs.items():
            if not s.poly.cleared():
                raise TruncationError(f"(1+y) denominator survives at {w.name()}")
        return a

    # -- the Hirzebruch classes of cells ---------------------------------------------------

    def hirzebruch_class(self, w, normalized=False, cap=None, check_routes=False):
        """Hirzebruch class of the cell of w by the Demazure-Lusztig word route;
        the normalized class is the Adams normalization of the unnormalized one.

        Below the codimension (see ``vanishes``) the class is zero, and it is
        returned as such without building an Euler class.  With
        ``check_routes`` the unnormalized class is also compared, modulo
        cap, with the Todd transform of the motivic Chern class, and
        ``TruncationError`` is raised if they differ.  The comparison is
        memoized on its own, once per (w, cap), so it runs even when the class
        is already built.
        """
        cap = self.cap if cap is None else cap

        def build():
            if normalized:
                unnormalized = self.hirzebruch_class(w, False, cap)
                return self.assert_cleared(self.adams_normalize(unnormalized))
            if self.vanishes(w, cap):
                return HClass(self, {})
            return self.rs.along_word(
                self.prefix + ("Hword", cap), w,
                lambda e: self.point_class(e, cap + self.dim), self.dl_h,
            ).truncate(cap)

        cls = self.memo(("H", w, normalized, cap), build)
        if check_routes:
            self.memo(("Hcheck", w, cap), lambda: self._check_routes(w, cap))
        return cls

    def vanishes(self, w, cap):
        """Whether the Hirzebruch class of the cell of w is zero below cap.

        The word route starts at a point class, homogeneous of degree dim,
        and each ``dl_h`` lowers the least degree by at most one, so every
        term of the class has degree at least dim - l(w).
        """
        return cap < self.dim - w.length

    def _check_routes(self, w, cap):
        """The cross-check of ``hirzebruch_class`` at (w, cap)."""
        from .kclasses import ktheory
        from .mc import motivic_chern

        direct = self.todd_transform(motivic_chern(ktheory(self.rs), w), cap)
        if not self.hirzebruch_class(w, cap=cap).eq_mod_cap(direct, cap):
            raise TruncationError(f"Hirzebruch routes disagree at {w.name()}")
        return True

    def dual_hirzebruch_class(self, v, cap=None):
        """The orthogonal-dual class of v, grown down from the point class at w0."""
        cap = self.cap if cap is None else cap
        return self.rs.down_from_w0(
            self.prefix + ("Hdual", cap), v,
            lambda e: self.point_class(e, cap + self.dim), self.l_h,
        ).truncate(cap)

    # -- localization integrals --------------------------------------------------------------

    def integrate(self, a, cap=None):
        """Localization sum over the fixed points, exact below ``cap - dim``.

        A sum of series keeps the least cap of its terms, so ``cap`` can only
        lower the class's own cap.
        """
        zero = GradedSeries.zero(a.cap() if cap is None else cap, self.rs.rank)
        return self.localize(a.coeffs, self.euler_factors(self.rs.identity), zero)

    def pair(self, a, b, cap=None):
        return self.integrate(a * b, cap)


def hirzebruch_duality_check(hz, u, v, cap=None):
    """Orthogonality of a cell class against a dual class, modulo the cap."""
    cap = hz.cap if cap is None else cap
    val = hz.pair(hz.hirzebruch_class(u, cap=cap), hz.dual_hirzebruch_class(v, cap=cap))
    if u == v:
        want = hz.tangent_todd(hz.rs.longest_element(), "uTdy", val.cap)
    else:
        want = GradedSeries.zero(val.cap, hz.rs.rank)
    return val == want, val


def segre_hirzebruch(hz, w, cap=None):
    """Hirzebruch class divided pointwise by the tangent class of the space.

    The quotient is checked against the adjoint operator word applied to the
    normalized point class, modulo the cap.
    """
    cap = hz.cap if cap is None else cap
    h = hz.hirzebruch_class(w, cap=cap)
    out = {}
    for u, s in h.coeffs.items():
        out[u] = s * hz.tangent_todd(u, "uTdy", s.cap).inverse()
    result = HClass(hz, out)
    top = cap + hz.dim
    word_route = hz.rs.along_word(
        hz.prefix + ("segre", cap), w,
        lambda e: hz.point_class(e, top).scale(hz.tangent_todd(e, "uTdy", top).inverse()),
        lambda i, a: hz.dl_h(i, a, dual=True),
    )
    if not result.eq_mod_cap(word_route):
        raise TruncationError(f"Segre routes disagree at {w.name()}")
    return result


def parabolic_pushforward_h(hz, a, pdat):
    """Localization push-forward of a Hirzebruch-layer class to a quotient,
    exact below ``a.cap()`` minus the fiber dimension."""
    return hz.coset_sums(pdat, a.coeffs, GradedSeries.zero(a.cap(), hz.rs.rank))


def hirzebruch(rs, cap=None):
    return rs.memo(("hz", cap), lambda: Hirzebruch(rs, cap))
