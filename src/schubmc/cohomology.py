"""Equivariant cohomology of flag manifolds in the GKM fixed-point model.

Classes are maps from fixed points to polynomials in the simple roots and a
degree-one formal variable (the homogenizing parameter, always the last
variable).  Divided differences and their twisted variants act pointwise;
CSM classes are produced by the twisted recursion; their leading-term route
from motivic Chern classes is in ``mc``, and this layer imports no K-theory.

``GKMEngine`` is the fixed-point machinery every localization engine shares:
Euler classes, the divided difference ``bgg`` and ``localize``, the one
localization sum.  w permutes the positive roots up to l(w) signs, so
e(T_w) = (-1)^l(w) e(T_id), and an integral over G/B is the signed sum of
the restrictions divided by e(T_id).  Within a coset u W_P the Levi
Euler factor obeys the same rule, so a push-forward to G/P
(``coset_sums``) is one ``localize`` per coset, and the Euler class of G/P at
u is e(T_u) / e_L(u).  An engine supplies ``form(weight)``, its unit
``one`` and its memo-key ``prefix``: ``Cohomology`` here over
Z[alpha, hbar], ``NumericCohomology`` at a rational point, and
``hirzebruch.Hirzebruch`` over truncated series.  Every divisor is a tuple
of degree-one factors (``weight_factors``, ``chern_factors``,
``diagonal_factors``), and ``divide`` divides by one at a time with
polyring's one division; the numeric engine divides by their product.
``RestrictionMap`` holds
the pointwise arithmetic of their classes (``CohClass``, ``HClass``) and of
the K-theory classes (``kclasses.KClass``, whose context is a ``Space``):
sums, products, scaling, coefficient maps, coefficient-wise equality and the
guard that refuses to combine classes of two engines (of two root systems,
for ``HClass``).  Every class family, the numeric one too, is grown along a
reduced word by ``RootSystem.along_word``.  The operators act on the right,
so they commute with left translation by w0: every opposite family (the
opposite Schubert, CSM and dual CSM classes) is grown down from the point
class at w0 by its own forward step.

Restrictions are polynomials with ``int`` coefficients.  Roots have integer,
coprime simple-root coordinates, so every divided difference and every
localization sum that clears to a polynomial divides exactly over the
integers: Schubert, CSM and dual CSM classes, their opposite classes and
their Schubert expansions all stay in Z[alpha, hbar].  A Segre-MacPherson
pairing divides by c(T) c(T*), which is the same product of (1 - gamma^2)
over the positive roots at every fixed point.  ``Cohomology.expand``
is the layer's result boundary and returns ``Fraction`` coefficients, the
one canonical form of its output.

The Schubert expansion of a CSM class (``csm_expansion``) does not go
through ``expand``: ``Cohomology.csm_schubert`` runs the twisted recursion
on the Schubert coefficients themselves.  The divided difference shifts the
basis, bgg(i, X(v)) = X(v s_i) when v s_i > v and 0 otherwise; s_i a =
a + L_i bgg(i, a) with L_i|_u = form(u alpha_i); and the equivariant
Chevalley formula L_i X(x) = form(x alpha_i) X(x) - sum <alpha_i, beta^vee>
X(x s_beta), over the covers x s_beta of x, expands the product
(``Cohomology.chevalley``).  A step is one linear-times-polynomial product
per term and integer multiples, with no Schubert restriction and no
division.  ``expand``, the general GKM triangular solve, is its
independent cross-check.  ``csm_vector``, the non-equivariant CSM class
that ``SchubertCalculus`` and the sweeps use, is its alpha-free part.

The numeric engine evaluates classes at a generic rational point of the
parameter space; any pairing whose value is a degree-zero constant is
computed exactly this way.  ``SchubertCalculus`` takes its structure
constants from G/B for G/P too: the pull-back G/B -> G/P is an injective
ring map taking each G/P Schubert class to the G/B class of the same minimal
representative (Kostant-Kumar), so G/B and G/P share one table of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add, neg, sub

from .laurent import YPolynomial
from .polyring import Poly
from .roots import RootSystemError, cell_order, neg_weight, triangular_solve


class GKMError(ArithmeticError):
    """A divided difference or localization sum failed to divide exactly."""


class GKMEngine:
    """Fixed-point machinery shared by the localization engines.

    A subclass sets ``rs``, ``one`` (the unit of its restriction values) and
    ``prefix`` (the start of its memo keys), and defines ``form(weight)``,
    the first Chern class of a weight.
    """

    def memo(self, key, build):
        return self.rs.memo(self.prefix + key, build)

    def weight_factors(self, roots, w):
        """The forms ``form(-w beta)`` over the roots beta: the degree-one
        factors of the Euler class at w of the tangent directions they span."""
        return tuple(self.form(neg_weight(w.act(beta))) for beta in roots)

    def weight_product(self, roots, w):
        return prod(self.weight_factors(roots, w), start=self.one)

    def euler_factors(self, w):
        """The degree-one factors of the Euler class at the fixed point w."""
        return self.memo(("eulerf", w), lambda: self.weight_factors(self.rs.positive_roots, w))

    def euler_at(self, w):
        """Equivariant Euler class of the tangent space at the fixed point w."""
        return self.memo(("euler", w), lambda: prod(self.euler_factors(w), start=self.one))

    def levi_euler_at(self, pdat, u):
        """Euler class at u of the fiber of G/B -> G/P (the Levi's positive roots)."""
        return self.memo(
            ("levi", pdat.subset, u), lambda: self.weight_product(pdat.levi_positive_roots, u)
        )

    def divide(self, num, factors):
        """num over the product of degree-one factors; GKMError if inexact."""
        for f in factors:
            num = num.divide_exact(f)
            if num is None:
                raise GKMError("quotient is not exact; not a GKM class")
        return num

    def localize(self, values, factors, zero):
        """``zero`` plus the sum of ``(-1)^l(w) p`` over the items (w, p) of
        ``values``, divided by the product of ``factors``.

        ``zero`` is the value of an empty sum; a zero series also bounds the
        cap of the sum.  This is every localization sum of the engines.  w permutes the
        positive roots up to l(w) signs, so e(T_w) = (-1)^l(w) e(T_id) and
        the integral of a is ``localize(a, euler_factors(id))``; likewise
        e_L(ux) = (-1)^l(x) e_L(u) for x in W_P, as ``coset_sums`` uses.
        """
        total = zero
        for w, p in values.items():
            total = total - p if w.length & 1 else total + p
        return self.divide(total, factors)

    def coset_sums(self, pdat, values, zero):
        """Push-forward of restriction values to the fixed points of G/P.

        At each minimal representative u it is the sum of values[v] / e_L(v)
        over the coset u W_P: one ``localize`` by e_L(u), times (-1)^l(u).
        """
        groups = {}
        for v, p in values.items():
            groups.setdefault(pdat.min_rep(v), {})[v] = p
        out = {}
        for u, group in groups.items():
            q = self.localize(group, self.weight_factors(pdat.levi_positive_roots, u), zero)
            out[u] = -q if u.length & 1 else q
        return out

    def bgg(self, i, a):
        """The divided difference (a - s_i a) / alpha_i, pointwise."""
        s = self.rs.simple_reflection(i)
        alpha = self.rs.simple_root(i)
        out = {}
        # a's points, then their images: a set of elements, hashed by address, has no fixed order
        for u in dict.fromkeys([*a.coeffs, *(v * s for v in a.coeffs)]):
            num = a.coefficient(u * s) - a.coefficient(u)
            if not num:
                continue
            out[u] = self.divide(num, (self.form(u.act(alpha)),))
        return a.like(out)


class RestrictionMap:
    """A class as its restrictions to the fixed points, with pointwise arithmetic.

    Classes combine only on the same ``_domain()``, by default their ``ctx``;
    a subclass whose zero is not ``0`` replaces ``coefficient(w)``.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = {w: p for w, p in coeffs.items() if p}

    def like(self, coeffs):
        """A class of the same kind on the same engine, with other restrictions."""
        return type(self)(self.ctx, coeffs)

    def coefficient(self, w):
        return self.coeffs.get(w, 0)

    def _domain(self):
        return self.ctx

    def _check(self, other):
        if self._domain() is not other._domain():
            raise RootSystemError("classes live on different engines")

    def _pointwise(self, other, op, lone):
        """op(self|_w, other|_w) at each point, ``lone(other|_w)`` where self
        has no entry; zeros dropped."""
        self._check(other)
        out = dict(self.coeffs)
        for w, p in other.coeffs.items():
            q = out.get(w)
            q = lone(p) if q is None else op(q, p)
            if q:
                out[w] = q
            else:
                out.pop(w, None)
        return self.like(out)

    def __add__(self, other):
        return self._pointwise(other, add, lambda p: p)

    def __sub__(self, other):
        return self._pointwise(other, sub, neg)

    def __neg__(self):
        return self.map_coefficients(lambda p: -p)

    def __mul__(self, other):
        """Pointwise (cup) product of restriction functions."""
        self._check(other)
        out = {}
        for w, p in self.coeffs.items():
            q = other.coeffs.get(w)
            if q is not None:
                out[w] = p * q
        return self.like(out)

    def scale(self, s):
        return self.map_coefficients(lambda p: p * s)

    def map_coefficients(self, fn):
        return self.like({w: fn(p) for w, p in self.coeffs.items()})

    def support(self):
        return sorted(self.coeffs, key=cell_order)

    def __eq__(self, other):
        if not isinstance(other, RestrictionMap) or self._domain() is not other._domain():
            return NotImplemented
        points = self.coeffs.keys() | other.coeffs.keys()
        return all(self.coefficient(w) == other.coefficient(w) for w in points)

    def __repr__(self):
        bits = [f"{w.name()}: {self.coeffs[w]!r}" for w in self.support()]
        return type(self).__name__ + "{" + ", ".join(bits) + "}"


class Cohomology(GKMEngine):
    """GKM operator calculus for one root system; variables (alpha..., hbar)."""

    prefix = ("coh",)

    def __init__(self, rs):
        self.rs = rs
        self.nvars = rs.rank + 1
        self.one = Poly.const(1, self.nvars)

    def form(self, weight):
        """First Chern class of the weight, as a linear polynomial.

        The sign convention (the class of the weight lambda is minus the
        simple-root expansion of lambda) is the one fixed by the worked
        rank-one value (hbar - alpha_1) and by Schubert positivity of CSM
        expansions; the opposite choice is the global flip.
        """
        weight = tuple(weight)

        def build():
            coords = self.rs.weight_in_simple_roots(weight)
            # root-lattice coordinates are integral: the class is built over Z
            return Poly.linear([-int(c) if c.denominator == 1 else -c for c in coords] + [0])

        return self.memo(("form", weight), build)

    def root_variable_form(self, weight):
        """The display polynomial of a root-lattice weight in the alpha variables."""
        return -self.form(weight)

    def hbar(self):
        return Poly.variable(self.nvars - 1, self.nvars)

    def point_class(self, w):
        return CohClass(self, {w: self.euler_at(w)})

    def zero(self):
        return CohClass(self, {})

    def chern_factors(self, w, dual=False):
        """The factors 1 -+ form(w alpha), alpha > 0, of ``total_chern_at``."""
        forms = (self.form(w.act(a)) for a in self.rs.positive_roots)
        return tuple(self.one + f if dual else self.one - f for f in forms)

    def total_chern_at(self, w, dual=False):
        """c of the (co)tangent space restricted at w: prod (1 -+ w alpha)."""
        return prod(self.chern_factors(w, dual), start=self.one)

    # -- operators -------------------------------------------------------------

    def si_auto(self, i, a):
        s = self.rs.simple_reflection(i)
        points = dict.fromkeys([*a.coeffs, *(v * s for v in a.coeffs)])
        return CohClass(self, {u: a.coefficient(u * s) for u in points})

    def dl_coh(self, i, a, dual=False):
        """Homogenized twisted operator: hbar * bgg -+ right-translation."""
        first = self.bgg(i, a).scale(self.hbar())
        second = self.si_auto(i, a)
        return first + second if dual else first - second

    # -- distinguished classes ---------------------------------------------------

    def schubert_class(self, w):
        return self.rs.along_word(self.prefix + ("X",), w, self.point_class, self.bgg)

    def opposite_schubert_class(self, v):
        """The opposite Schubert class of v, grown down from the point class at w0."""
        return self.rs.down_from_w0(self.prefix + ("Y",), v, self.point_class, self.bgg)

    def csm(self, w):
        """Homogenized CSM class of the cell of w, by the twisted recursion."""
        return self.rs.along_word(self.prefix + ("csm",), w, self.point_class, self.dl_coh)

    def csm_schubert(self, w):
        """Schubert coefficients of ``csm(w)`` by the same recursion, run on
        the coefficients: a dict from cells to polynomials with ``int``
        coefficients."""
        return self.rs.along_word(
            self.prefix + ("csmX",), w, lambda e: {e: self.one}, self.dl_schubert
        )

    def chevalley(self, x, i):
        """``(hbar - L_i) X(x)`` in the Schubert basis, L_i|_u = form(u alpha_i).

        Returns ``(hbar - form(x alpha_i), ((y, k), ...))``: the coefficient
        of X(x), and the integer coefficient k = <alpha_i, beta^vee> of each
        cover y = x s_beta below x, by the equivariant Chevalley formula
        L_i X(x) = form(x alpha_i) X(x) - sum k X(x s_beta).
        """

        def build():
            rs = self.rs
            covers = []
            for beta in rs.positive_roots:
                if rs.is_positive_root(x.act(beta)):
                    continue
                ref = rs.reflection(beta)
                y = x * ref
                if y.length != x.length - 1:
                    continue
                # s_beta alpha_j = alpha_j - <alpha_j, beta^vee> beta
                j = next(j for j, b in enumerate(beta) if b)
                pairs = tuple(
                    (rs.simple_root(i)[j] - ref.act(rs.simple_root(i))[j]) // beta[j]
                    for i in range(1, rs.rank + 1)
                )
                covers.append((y, pairs))
            return tuple(
                (
                    self.hbar() - self.form(x.act(rs.simple_root(i))),
                    tuple((y, pairs[i - 1]) for y, pairs in covers if pairs[i - 1]),
                )
                for i in range(1, rs.rank + 1)
            )

        return self.memo(("chevalley", x), build)[i - 1]

    def dl_schubert(self, i, a):
        """``dl_coh`` on Schubert coefficients.

        With ``s_i a = a + L_i bgg(i, a)`` the operator is
        ``(hbar - L_i) bgg(i, a) - a``; ``bgg(i, X(v))`` is X(v s_i) when
        v s_i > v and 0 otherwise, and ``chevalley`` expands the product.
        """
        s = self.rs.simple_reflection(i)
        out = {v: -c for v, c in a.items()}
        for v, c in a.items():
            x = v * s
            if x.length < v.length:
                continue
            lin, covers = self.chevalley(x, i)
            terms = [(x, c * lin)]
            terms += [(y, c * k) for y, k in covers]
            for y, p in terms:
                q = out.get(y)
                q = p if q is None else q + p
                if q:
                    out[y] = q
                else:
                    out.pop(y, None)
        return out

    def csm_opposite(self, v):
        """Homogenized CSM class of the opposite cell of v, grown down from
        the point class at w0 by the twisted recursion."""
        return self.rs.down_from_w0(self.prefix + ("csmY",), v, self.point_class, self.dl_coh)

    def sm(self, w, opposite=False):
        """Segre-MacPherson class: CSM with the total-Chern denominator implicit."""
        numerator = self.csm_opposite(w) if opposite else self.csm(w)
        return SegreMacPherson(self, numerator)

    def dual_csm(self, v):
        """Dual CSM class attached to the opposite cell of v: the adjoint
        operators at ascents of v, grown down from the point class at w0."""
        return self.rs.down_from_w0(
            self.prefix + ("csmdual",), v, self.point_class,
            lambda i, a: self.dl_coh(i, a, dual=True),
        )

    # -- pairings -----------------------------------------------------------------

    def integrate(self, a):
        """Localization sum over fixed points; must clear to a polynomial."""
        return self.localize(a.coeffs, self.euler_factors(self.rs.identity), Poly.zero(self.nvars))

    def pair(self, a, b):
        return self.integrate(a * b)

    # -- Schubert expansion ----------------------------------------------------------

    def diagonal_factors(self, w, opposite=False):
        """The degree-one factors of X(w)|_w, or of Y(w)|_w when ``opposite``:
        form(-w beta) over the beta > 0 with w beta > 0 (w beta < 0)."""
        rs = self.rs
        roots = [b for b in rs.positive_roots if rs.is_positive_root(w.act(b)) != opposite]
        return self.weight_factors(roots, w)

    def expand(self, a, opposite=False):
        """Triangular solve against the (opposite) Schubert classes.

        The solve runs in the coefficients of ``a`` (integers for the classes
        built here); every coefficient of the result is a ``Fraction``.
        """
        basis = self.opposite_schubert_class if opposite else self.schubert_class

        def solve(pivot, value):
            return self.divide(value, self.diagonal_factors(pivot, opposite))

        coeffs = triangular_solve(
            a.coeffs,
            min if opposite else max,
            lambda w: basis(w).coeffs,
            solve,
            lambda cur, p, c: (cur - c * p) or None,
            Poly.zero(self.nvars),
            GKMError,
        )
        # the result boundary: coefficients leave the layer as Fractions
        return {w: c.map_coefficients(Fraction) for w, c in coeffs.items()}


class SegreMacPherson:
    """A CSM class divided by the total Chern class of the tangent bundle.

    The quotient is kept as (numerator, implicit denominator): restrictions
    of the denominator vanish nowhere but are not polynomial inverses, so
    honest values only exist inside localization integrals.
    """

    __slots__ = ("ctx", "numerator")

    def __init__(self, ctx, numerator):
        self.ctx = ctx
        self.numerator = numerator

    def pair_with(self, other):
        """Poincare pairing against an ordinary class.

        c(T)|_w c(T*)|_w is the product of (1 - gamma^2) over the positive
        roots at every fixed point, so the pairing is the integral of
        numerator * c(T*) * other divided by that one constant class.
        """
        ctx = self.ctx
        ident = ctx.rs.identity
        values = {
            w: p * ctx.total_chern_at(w, dual=True)
            for w, p in (self.numerator * other).coeffs.items()
        }
        factors = ctx.euler_factors(ident) + ctx.chern_factors(ident)
        return ctx.localize(values, factors + ctx.chern_factors(ident, True), Poly.zero(ctx.nvars))


class CohClass(RestrictionMap):
    """GKM class: map from fixed points to polynomial restrictions."""

    __slots__ = ()

    def coefficient(self, w):
        p = self.coeffs.get(w)
        return p if p is not None else Poly.zero(self.ctx.nvars)

    def set_hbar(self, value):
        return self.map_coefficients(lambda p: p.set_variable(self.ctx.nvars - 1, value))


def cohomology(rs):
    return rs.memo(("coh",), lambda: Cohomology(rs))


def csm_expansion(ctx, w):
    """Schubert coefficients of the homogenized CSM class (recursion route).

    The recursion runs on the Schubert coefficients (``csm_schubert``); this
    is its result boundary, where the coefficients become ``Fraction``s, as
    out of ``Cohomology.expand``, in its order: by ``cell_order``, descending.
    """

    def build():
        coeffs = ctx.csm_schubert(w)
        return {u: coeffs[u].map_coefficients(Fraction) for u in _descending(coeffs)}

    return ctx.memo(("csmexp", w), build)


def csm_vector(ctx, w):
    """Non-equivariant CSM Schubert coefficients as plain integers, in the
    order of ``csm_expansion``: the coefficient of X(u) in ``csm_schubert``
    is homogeneous of degree l(u), and its alpha-free term c hbar^l(u)
    gives c, its value at alpha = 0 and hbar = 1."""
    point = [0] * ctx.rs.rank + [1]

    def build():
        coeffs = ctx.csm_schubert(w)
        values = ((u, coeffs[u].evaluate(point)) for u in _descending(coeffs))
        return {u: c for u, c in values if c}

    return ctx.memo(("csmvec", w), build)


def _descending(coeffs):
    """The cells of a Schubert expansion by ``cell_order``, descending."""
    return sorted(coeffs, key=cell_order, reverse=True)


# -- numeric engine for constant pairings ----------------------------------------------

_GENERIC_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079)


class NumericCohomology(GKMEngine):
    """GKM classes evaluated at a fixed generic rational parameter point.

    The values are those of ``Cohomology`` at the simple roots ``-alphas``
    and hbar = 1.  Memo keys carry the point ``alphas``, so engines at two
    points share the root system's memo without mixing their classes.
    """

    one = Fraction(1)

    def __init__(self, rs, alphas=None):
        self.rs = rs
        if alphas is None:
            alphas = tuple(Fraction(p) for p in _GENERIC_PRIMES[: rs.rank])
        self.alphas = tuple(alphas)
        self.prefix = ("num", self.alphas)

    def weight_value(self, weight):
        coords = self.rs.weight_in_simple_roots(weight)
        return sum(c * a for c, a in zip(coords, self.alphas))

    form = weight_value

    def divide(self, num, factors):
        return num / prod(factors, start=self.one)

    def schubert(self, w):
        """The restrictions of the Schubert class of w, as a dict."""
        return self.rs.along_word(
            self.prefix + ("X",), w, lambda e: {e: self.euler_at(e)}, self._bgg_values
        )

    def opposite_schubert(self, v):
        """The restrictions of the opposite Schubert class of v, grown down
        from the point class at w0."""
        return self.rs.down_from_w0(
            self.prefix + ("Y",), v, lambda e: {e: self.euler_at(e)}, self._bgg_values
        )

    def _bgg_values(self, i, f):
        return self.bgg(i, RestrictionMap(self, f)).coeffs

    def integrate(self, f):
        # one factor, the memoized product of the values, for the structure constants' many sums
        return self.localize(f, (self.euler_at(self.rs.identity),), Fraction(0))


def numeric_cohomology(rs):
    return rs.memo(("num",), lambda: NumericCohomology(rs))


# -- non-equivariant vector calculus ------------------------------------------------------


class SchubertCalculus:
    """Integer Schubert-basis calculus on G/B or G/P, non-equivariant.

    Classes are dicts mapping cells (minimal representatives) to integers,
    relative to the Schubert-variety basis.  Products go through cached
    triple-intersection constants of G/B from the numeric engine.  The
    pull-back G/B -> G/P is an injective ring map taking [Y_P(v)] to [Y(v)]
    (Kostant-Kumar), so the constants of G/P are those of G/B on minimal
    representatives, and every calculator of a root system reads the same
    rows; G/B is the parabolic of no simple roots.
    """

    def __init__(self, rs, parabolic=None):
        self.rs = rs
        self.parabolic = parabolic or rs.parabolic(())
        self.cells = self.parabolic.min_reps
        self._cell_set = frozenset(self.cells)
        self._numeric = numeric_cohomology(rs)
        w0 = rs.longest_element()
        self._opposite = {v: self.parabolic.min_rep(w0 * v) for v in self.cells}
        # rows[a][b] is the row of [Y(a)][Y(b)], shared by the root system's calculators
        self._rows = rs.memo(("num", "const"), dict)

    def opposite_label(self, v):
        """The cell whose opposite Schubert variety equals the variety of the cell v."""
        return self._opposite[v]

    def _constants(self, a, b):
        """Cup constants of [Y(a)][Y(b)] over the [Y(c)] basis of G/B (codims add).

        The row is built on the first request and stored once per root
        system.  When a and b are minimal representatives, so is every c of
        the row.
        """
        rows = self._rows.setdefault(a, {})
        row = rows.get(b)
        if row is None:
            row = {}
            for c in self.rs.weyl_group():
                if c.length == a.length + b.length:
                    n = self._triple(a, b, c)
                    if n:
                        row[c] = n
            rows[b] = row
        return row

    def _triple(self, a, b, c):
        """<[Y(a)] [Y(b)], [X(c)]> on G/B, the coefficient of [Y(c)] in the product."""
        if a.length + b.length != c.length:
            return 0
        num = self._numeric
        fa, fb, fc = num.opposite_schubert(a), num.opposite_schubert(b), num.schubert(c)
        values = {u: va * fb[u] * fc[u] for u, va in fa.items() if u in fb and u in fc}
        total = num.integrate(values)
        if total.denominator != 1:
            raise GKMError("structure constant did not come out integral")
        return int(total)

    def multiply(self, va, vb):
        """Cup product of two classes given in the Schubert-variety basis."""
        opposite = self.opposite_label
        ybs = [(opposite(b), cb) for b, cb in vb.items() if cb]
        out = {}  # keyed by Y-labels; the relabelling is a bijection, so order is kept
        for a, ca in va.items():
            if not ca:
                continue
            ya = opposite(a)
            rows = self._rows.setdefault(ya, {})
            for yb, cb in ybs:
                row = rows.get(yb)
                if row is None:
                    row = self._constants(ya, yb)
                for c, n in row.items():
                    out[c] = out.get(c, 0) + ca * cb * n
        return {opposite(c): v for c, v in out.items() if v}

    def csm(self, w):
        """CSM vector of the cell of w (w any element; coefficients restrict)."""
        return {u: c for u, c in csm_vector(cohomology(self.rs), w).items() if u in self._cell_set}

    def sm_of_opposite(self, u):
        """SM class of the opposite cell of u, in the Schubert-variety basis."""
        return self.sm_of_cell(self.opposite_label(u))

    def sm_of_cell(self, u):
        csm = self.csm(u)
        return {v: c * (-1) ** ((u.length - v.length) % 2) for v, c in csm.items()}

    def expand_in_sm_basis(self, vec):
        """Triangular solve against the SM vectors of cells (diagonal 1)."""

        def solve(pivot, value):
            if self.sm_of_cell(pivot).get(pivot) != 1:
                raise GKMError("SM basis diagonal is not 1")
            return value

        return triangular_solve(
            vec,
            max,
            self.sm_of_cell,
            solve,
            lambda cur, b, c: (cur - c * b) or None,
            0,
            GKMError,
        )

    def sm_structure_constants(self, u, v):
        """Coefficients e of the SM product of two opposite cells."""
        su = self.sm_of_opposite(u)
        sv = self.sm_of_opposite(v)
        prod = self.multiply(su, sv)
        exp = self.expand_in_sm_basis(prod)
        # the basis element at z is the SM vector of the cell of z, which is
        # the SM class of the opposite cell of w0 z (restricted to cells)
        return {self.opposite_label(z): c for z, c in exp.items()}

    def richardson_csm(self, u, v):
        """CSM vector of the intersection of the opposite cell of u with the
        cell of v in G/B, expanded over opposite Schubert varieties.

        That class is SM(opposite cell of u) SM(cell of v) c(T), and
        SM(cell of v) c(T) is the CSM class of the cell of v: one product.
        The signed CSM vectors of ``sm_of_cell`` are SM classes on G/B only,
        so a calculator of a proper G/P refuses.
        """
        if self.parabolic.subset:
            raise GKMError("Richardson cells are served on G/B only")
        total = self.multiply(self.sm_of_opposite(u), self.csm(v))
        # re-express over opposite varieties: [Y(w)] = [X(w0 w)]
        return {self.opposite_label(c): val for c, val in total.items()}


def h_polynomial(vector):
    """Generating polynomial of a Schubert vector by cell dimension."""
    coeffs = {}
    for w, c in vector.items():
        coeffs[w.length] = coeffs.get(w.length, 0) + c
    return YPolynomial.from_dict(coeffs)


# -- parabolic push-forward (GKM form) -----------------------------------------------------


def parabolic_pushforward_coh(ctx, a, pdat):
    """Localization push-forward of restriction functions to the quotient."""
    return CohClass(ctx, ctx.coset_sums(pdat, a.coeffs, Poly.zero(ctx.nvars)))


def integrate_quotient(ctx, pdat, a):
    """The integral over G/P of a class given at minimal representatives.

    The Euler class of G/P at u is e(T_u) / e_L(u), so the integral is one
    ``localize`` of a|_u e_L(u) by e(T_id).
    """
    values = {u: p * ctx.levi_euler_at(pdat, u) for u, p in a.coeffs.items()}
    return ctx.localize(values, ctx.euler_factors(ctx.rs.identity), Poly.zero(ctx.nvars))
