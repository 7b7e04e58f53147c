"""Localized torus-equivariant K-theory of flag manifolds in the fixed-point basis.

A ``KClass`` is a finitely supported vector over the fixed points (Weyl
group elements for the full flag manifold, minimal coset representatives
for a quotient), with ``FactoredFraction`` coefficients relative to the
point-class basis ``iota_w``.  It is a ``cohomology.RestrictionMap`` whose
``ctx`` is its ``Space``: sums, negation, scaling, equality and the
same-space guard are the shared pointwise ones, and ``KClass`` adds only the
self-intersection normalization of its product and of its restrictions.
Demazure and Demazure-Lusztig operators act through their explicit
fixed-point formulas.  Structure and ideal sheaves, and the motivic classes
of ``mc``, are grown along a reduced word by ``RootSystem.along_word`` and
memoized in the root system.  The operators act on the right and commute
with left translation by w0, so the opposite structure and ideal sheaves
(the Oop and Iop bases) are grown down from the point class at w0 by the
same steps.

The bases O and I form a pair, as do Oop and Iop: [O_u] is the sum of [I_v]
over v <= u (over v >= u for the opposite pair), so one member's
coefficients are the other's Bruhat zeta sums, and the inverse sums carry
Verma's Moebius function (-1)^(l(v) - l(u)).  The change of basis is
unitriangular over Z, so ``rebase`` between the members is exact, and a
class is integral in one member exactly when it is in the other.  An MC
class has its small coefficients in I and Iop (at y = 0 it is the ideal
sheaf of its cell's boundary), a dual MC class in O and Oop, and the
triangular solve costs about half as much in the member with the small
coefficients.  So ``KTheory.expand`` solves in the member that a probe
picks from the class itself and rebases to the basis asked for.  The probe
is the ideal member's first pivot step on the first layer of the top pivot,
the cells of the support that it covers; both members share that pivot and
its coefficient d0, and at a layer cell v their residuals differ by d0 times
v's own entry, the same in both.  The member whose layer residuals have
fewer terms is solved, and its first step takes those residuals.

``KTheory.expand`` solves against the triangular bases O, I, Oop and Iop on
local restrictions, not on fractions.  The restriction a|_v = c_v times
prod(1 - e^{v beta}) over the positive roots beta; the local restriction
keeps only the factors whose T-curve v -- v s_beta stays below a
Bruhat-maximal cell of the support (above a minimal one, for the opposite
bases).  A curve that leaves the support's intervals ends where a vanishes,
so by the GKM condition (Goresky-Kottwitz-MacPherson; Knutson-Rosu for
equivariant K-theory) its factor divides a|_v: the local restriction is a
Laurent polynomial for every integral class.  Keeping only the local factors
keeps the entries of small cells small at every rank.  A pivot's own entry
is never multiplied back by its coefficient: the coefficient is the pivot
value divided exactly by that entry's factors, so the pivot cancels by
construction.  The product of each tuple of leftover local factors, like each
point's self-intersection product in ``KClass.restriction``, is built once
per root system, in its memo (``factor_product``).  That memo is bounded:
every key is a sub-tuple of the N cotangent factors 1 - e^{v beta} at one
point v, and the tuples that occur repeat across cells, bases and classes.

The basis entries, their associate units and the local factors carry no y,
so the solve is Z[y]-linear and runs on images: each entry of a becomes its
image at y = 2^S over y^oy, oy the least y power among the entries, one
integer N = sum_k n_k 2^(S (k - oy)) per x-monomial (Kronecker substitution;
Harvey, J. Symb. Comp. 44, 2009).  Each image carries an upper bound B on the
L1 norm of its polynomial, kept without decoding: B(cur + e c) = B(cur) +
L1(e) B(c); a unit leaves B unchanged; and a quotient by a +-1 binomial
takes at each x-monomial a signed sum of the dividend's y-polynomials along
one line, so its digits are at most B(dividend), and B(quotient) = (its
number of x-monomials) B(dividend).  Every B stays below 2^(S-1): a bound
that would reach it is tightened by decoding the operands (a quotient, whose
digits are exact, by decoding itself), and if it still reaches it the solve
restarts at 2S, from S = 64.  Below that bound an N is zero exactly when its
polynomial is and decodes to its own digits, so the line remainders, the
early exit of a binomial division, the residual entries that reach zero and
the final decode of each coefficient are all exact.  No monomial division by
c0 other than +-1 meets an image: it would divide N, not its digits.
"""

from __future__ import annotations

from . import laurent
from ._kernel_py import l1, ypow_of
from .cohomology import RestrictionMap
from .laurent import (
    FactoredFraction,
    LaurentPolynomial,
    factor_polynomial,
    one_minus_e,
    one_plus_ye,
    product_of_factors,
)
from .roots import RootSystemError, cell_order, neg_weight, triangular_solve


class IntegralityError(ArithmeticError):
    """An expansion coefficient failed to reduce to a Laurent polynomial."""


class StructuralError(RuntimeError):
    """A triangular solve did not terminate against the requested basis."""


class _Widen(Exception):
    """An image bound reached half the digit width: solve again at twice it."""


# the digit width, in bits, of the first attempt of a solve on y-images
_IMAGE_BITS = 64

# the bases in pairs, a pair's members adjacent: [O_u] = sum of [I_v] over
# v <= u, and [Oop_u] = sum of [Iop_v] over v >= u
_PAIRED = ("O", "I", "Oop", "Iop")


def _partner(basis):
    """The other member of basis's pair."""
    if basis not in _PAIRED:
        raise ValueError(f"unknown basis {basis!r}")
    return _PAIRED[_PAIRED.index(basis) ^ 1]


class _Seed:
    """A residual entry that the probe has already computed for the first pivot."""

    __slots__ = ("residual",)

    def __init__(self, residual):
        self.residual = residual


def _integral(w, c):
    try:
        return c.as_polynomial()
    except ArithmeticError as exc:
        raise IntegralityError(f"coefficient at {w.name()} is not a Laurent polynomial") from exc


def _match_associates(den, local):
    """Cancel the denominator factors ``den`` against the local factors.

    A factor cancels against its own key in ``local`` or against its
    associate: 1 - e^mu = -e^mu (1 - e^-mu), so (1 - e^-mu) / (1 - e^mu) is
    the unit -e^-mu.  Returns the local factors left over, the denominator
    factors left over, and the product of the units used, a monomial
    +-e^lam, or None when no associate was used.
    """
    rest = list(local)
    left = []
    units = []
    for f in den:
        if f in rest:
            rest.remove(f)
        elif f[0] == "om" and (g := one_minus_e(neg_weight(f[1]))) in rest:
            rest.remove(g)
            units.append(g[1])
        else:
            left.append(f)
    if not units:
        return rest, left, None
    unit = LaurentPolynomial.monomial(tuple(map(sum, zip(*units))), coeff=(-1) ** len(units))
    return rest, left, unit


def rebase(space, coeffs, source, target):
    """The coefficients in ``target`` of the class with coefficients ``coeffs``
    in ``source``, the other member of its pair ({O, I} or {Oop, Iop}).

    With [O_u] the sum of [I_v] over v <= u, the I coefficient at v is the sum
    of the O coefficients at the u >= v (zeta), and the O coefficient at u is
    the sum of (-1)^(l(v) - l(u)) times the I coefficients at the v >= u, the
    Moebius function of Bruhat order being (-1)^(l(v) - l(u)) (Verma, Ann.
    Sci. ENS 4, 1971); the opposite pair reverses the order.  Each source
    cell scatters over its interval, so the sums run over the down-closure of
    ``coeffs`` (up-closure, for the opposite pair).  Zero coefficients are
    dropped, and the rest listed in descending ``cell_order`` (ascending, for
    the opposite pair), the order of the triangular solve.  The Moebius
    function of W^P is not (-1)^(l(v) - l(u)), so ``space`` is G/B.
    """
    if space.parabolic is not None:
        raise ValueError("the Bruhat change of basis is for G/B, not a quotient")
    if _partner(source) != target:
        raise ValueError(f"{source!r} and {target!r} are not a basis pair")
    rs = space.rs
    opposite = source in ("Oop", "Iop")
    signed = source in ("I", "Iop")
    interval = rs.upper_interval if opposite else rs.lower_interval
    sums = {}
    for v, c in coeffs.items():
        for u in interval(v):
            prev = sums.get(u)
            if signed and (v.length - u.length) % 2:
                sums[u] = -c if prev is None else prev - c
            else:
                sums[u] = c if prev is None else prev + c
    order = sorted(sums, key=cell_order, reverse=not opposite)
    return {u: sums[u] for u in order if sums[u]}


class Space:
    """Fixed-point data shared by the full flag manifold and its quotients."""

    def __init__(self, rs, parabolic=None):
        self.rs = rs
        self.parabolic = parabolic
        if parabolic is None:
            self.points = rs.weyl_group()
            self._outer_roots = rs.positive_roots
        else:
            self.points = parabolic.min_reps
            self._outer_roots = parabolic.outer_positive_roots
        self._point_set = set(self.points)
        self.dim = len(self._outer_roots)

    def is_point(self, w):
        return w in self._point_set

    def cotangent_weights(self, w):
        """Cotangent weights of the space at the fixed point labelled by w."""
        return tuple(w.act(a) for a in self._outer_roots)

    def selfint_factors(self, w):
        """Factors of lambda_-1 of the cotangent space at w, i.e. prod(1 - e^{w a})."""
        subset = None if self.parabolic is None else self.parabolic.subset
        return self.rs.memo(
            ("k", "selfint", subset, w),
            lambda: tuple(one_minus_e(mu) for mu in self.cotangent_weights(w)),
        )

    def zero(self):
        return KClass(self, {})

    def point_class(self, w):
        if not self.is_point(w):
            raise RootSystemError(f"{w!r} is not a fixed point of this space")
        return KClass(self, {w: FactoredFraction.from_int(1, self.rs.rank)})

    def __repr__(self):
        tag = "" if self.parabolic is None else f"/P{list(self.parabolic.subset)}"
        return f"Space({self.rs.lie_type}{self.rs.rank}{tag})"


class KClass(RestrictionMap):
    """Vector of iota-basis coefficients over the fixed points of its ``ctx``, a ``Space``."""

    __slots__ = ()

    def coefficient(self, w):
        c = self.coeffs.get(w)
        return c if c is not None else FactoredFraction.zero(self.ctx.rs.rank)

    def restriction(self, w):
        """Localization a|_w = coeff(w) * lambda_-1(T*_w), as a fraction."""
        return self.coefficient(w) * factor_product(self.ctx.rs, self.ctx.selfint_factors(w))

    def __mul__(self, other):
        """Tensor product: the pointwise product times the self-intersection factors."""
        prod = super().__mul__(other)
        return prod.like({w: prod.restriction(w) for w in prod.coeffs})

    def reduce(self):
        return self.map_coefficients(FactoredFraction.reduce)

    def y_specialize(self, v):
        """Set y to 0 or -1 in every coefficient."""
        if v not in (0, -1):
            raise ValueError("fraction-level specialization supports y in {0, -1}")

        def spec(frac):
            den = []
            for kind, mu in frac.den:
                if kind == "om":
                    den.append((kind, mu))
                elif v == -1:
                    if not any(mu):
                        raise ZeroDivisionError("1 + y vanishes at y = -1")
                    den.append(("om", mu))
                # at y = 0 an opy factor becomes 1 and drops out
            return FactoredFraction(frac.num.y_specialize(v), tuple(den))

        return self.map_coefficients(spec)

    def y_coefficient(self, power):
        """Extract the y^power part; denominators must be y-free."""

        def part(frac):
            if any(kind != "om" for kind, _ in frac.den):
                frac = frac.reduce()
                if any(kind != "om" for kind, _ in frac.den):
                    raise ArithmeticError("y appears in a denominator factor")
            return FactoredFraction(frac.num.y_coefficient(power), frac.den)

        return self.map_coefficients(part)

    def y_degree(self):
        deg = -1
        for c in self.coeffs.values():
            c = c.reduce()
            if any(kind != "om" for kind, _ in c.den):
                raise ArithmeticError("y appears in a denominator factor")
            deg = max(deg, c.num.y_degree())
        return deg


class SchubertExpansion:
    """Coefficients of a class in one of the Schubert-type bases."""

    BASES = ("O", "Oop", "I", "Iop", "iota")

    def __init__(self, space, basis, coeffs):
        if basis not in self.BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.space = space
        self.basis = basis
        self.coeffs = dict(coeffs)

    def coefficient(self, w):
        c = self.coeffs.get(w)
        if c is None:
            return LaurentPolynomial.zero(self.space.rs.rank)
        return c

    def items(self):
        return [(u, self.coeffs[u]) for u in sorted(self.coeffs, key=cell_order)]

    def nonequivariant(self):
        """Substitute e^lam -> 1 in every coefficient; map of YPolynomials."""
        return {w: c.substitute_nonequivariant() for w, c in self.coeffs.items()}

    def to_json_obj(self):
        return {
            "basis": self.basis,
            "coeffs": {w.name(): c.to_json_obj() for w, c in self.items()},
        }


class KTheory:
    """Operator calculus on the localized K-theory of G/B for one root system."""

    def __init__(self, rs):
        self.rs = rs
        self.space = Space(rs)
        self.nvars = rs.rank

    # -- generators of the fixed point basis ---------------------------------

    def iota(self, w):
        return self.space.point_class(w)

    def zero(self):
        return self.space.zero()

    def _minus_one_plus_y(self):
        n = self.nvars
        z = (0,) * n
        return LaurentPolynomial({(z, 0): -1, (z, 1): -1}, n)

    # -- operators ------------------------------------------------------------

    def _apply(self, a, i, diag, off):
        """Linear extension of op(iota_v) = diag(v) iota_v + off(v) iota_{v s_i}."""
        s = self.rs.simple_reflection(i)
        alpha = self.rs.simple_root(i)
        out = {}
        for v, c in a.coeffs.items():
            va = v.act(alpha)
            d = c * diag(va)
            if v in out:
                out[v] = out[v] + d
            else:
                out[v] = d
            vs = v * s
            o = c * off(va)
            if vs in out:
                out[vs] = out[vs] + o
            else:
                out[vs] = o
        return KClass(self.space, {w: c.reduce() for w, c in out.items()})

    def demazure(self, i, a):
        n = self.nvars
        one = LaurentPolynomial.const(1, n)
        return self._apply(
            a,
            i,
            lambda va: FactoredFraction(one, (one_minus_e(va),)),
            lambda va: FactoredFraction(one, (one_minus_e(neg_weight(va)),)),
        )

    def dl_operator(self, i, a):
        m1y = self._minus_one_plus_y()
        return self._apply(
            a,
            i,
            lambda va: FactoredFraction(m1y, (one_minus_e(neg_weight(va)),)),
            lambda va: FactoredFraction(
                factor_polynomial(one_plus_ye(neg_weight(va))), (one_minus_e(neg_weight(va)),)
            ),
        )

    def dl_dual(self, i, a):
        m1y = self._minus_one_plus_y()
        return self._apply(
            a,
            i,
            lambda va: FactoredFraction(m1y, (one_minus_e(neg_weight(va)),)),
            lambda va: FactoredFraction(
                factor_polynomial(one_plus_ye(va)), (one_minus_e(neg_weight(va)),)
            ),
        )

    def l_operator(self, i, a):
        """The shifted dual operator, dual DL plus (1+y) times the identity, in
        one pass: its diagonal (-1-y)/(1 - e^{-v alpha}) + 1 + y is
        (1+y)/(1 - e^{v alpha})."""
        n = self.nvars
        z = (0,) * n
        one_plus_y = LaurentPolynomial({(z, 0): 1, (z, 1): 1}, n)
        return self._apply(
            a,
            i,
            lambda va: FactoredFraction(one_plus_y, (one_minus_e(va),)),
            lambda va: FactoredFraction(
                factor_polynomial(one_plus_ye(va)), (one_minus_e(neg_weight(va)),)
            ),
        )

    def line_bundle_mul(self, lam, a):
        lam = tuple(lam)
        if len(lam) != self.nvars:
            raise RootSystemError("weight rank mismatch")
        return KClass(
            a.ctx,
            {w: c.scale_monomial(w.act(lam)) for w, c in a.coeffs.items()},
        )

    def trivial_bundle_mul(self, lam, a):
        """Tensor by the trivial line bundle of weight lam (a global scalar)."""
        mono = LaurentPolynomial.monomial(tuple(lam))
        return a.scale(mono)

    def star(self, a):
        """Vector-bundle duality: e^lam -> e^{-lam} on restrictions, y fixed.

        On iota-basis coefficients this is the coefficientwise duality times
        the bookkeeping monomial (-1)^dim e^{-2 w rho} coming from dualizing
        the self-intersection product at each fixed point.
        """
        sign = (-1) ** self.space.dim
        two_rho = tuple(2 * r for r in self.rs.rho)
        out = {}
        for w, c in a.coeffs.items():
            twist = LaurentPolynomial.monomial(neg_weight(w.act(two_rho)), coeff=sign)
            out[w] = c.star() * twist
        return KClass(a.ctx, out)

    def psi(self, a):
        """The rho-twisted duality: trivial weight rho, line bundle rho, then star."""
        b = self.star(a)
        b = self.line_bundle_mul(self.rs.rho, b)
        return self.trivial_bundle_mul(self.rs.rho, b)

    # -- Schubert-type classes -------------------------------------------------

    def structure_sheaf(self, w):
        return self.rs.along_word(("k", "O"), w, self.iota, self.demazure)

    def ideal_sheaf(self, w):
        return self.rs.along_word(("k", "I"), w, self.iota, self._ideal_step)

    def _ideal_step(self, i, prev):
        """The Demazure operator minus the identity, in one pass: its diagonal
        1/(1 - e^{v alpha}) - 1 is e^{v alpha}/(1 - e^{v alpha})."""
        n = self.nvars
        one = LaurentPolynomial.const(1, n)
        return self._apply(
            prev,
            i,
            lambda va: FactoredFraction(LaurentPolynomial.e(va), (one_minus_e(va),)),
            lambda va: FactoredFraction(one, (one_minus_e(neg_weight(va)),)),
        )

    def opp_structure_sheaf(self, v):
        """Structure sheaf of the opposite Schubert variety of v, grown down
        from the point class at w0."""
        return self.rs.down_from_w0(("k", "Oop"), v, self.iota, self.demazure)

    def opp_ideal_sheaf(self, v):
        """Ideal sheaf of the boundary of the opposite Schubert variety of v,
        grown down from the point class at w0 by the step of ``ideal_sheaf``."""
        return self.rs.down_from_w0(("k", "Iop"), v, self.iota, self._ideal_step)

    def basis_class(self, basis, w):
        if basis == "O":
            return self.structure_sheaf(w)
        if basis == "I":
            return self.ideal_sheaf(w)
        if basis == "Oop":
            return self.opp_structure_sheaf(w)
        if basis == "Iop":
            return self.opp_ideal_sheaf(w)
        if basis == "iota":
            return self.iota(w)
        raise ValueError(f"unknown basis {basis!r}")

    # -- pairings ---------------------------------------------------------------

    def integrate(self, a):
        """Push-forward to the point: the sum of iota-basis coefficients."""
        total = FactoredFraction.zero(self.nvars)
        for c in a.coeffs.values():
            total = total + c
        return total.reduce()

    def pair(self, a, b):
        return self.integrate(a * b)

    def lambda_y_cotangent_factors(self, w):
        """Factors of lambda_y(T*X) restricted at the fixed point w."""
        return tuple(one_plus_ye(mu) for mu in self.space.cotangent_weights(w))

    # -- expansions ---------------------------------------------------------------

    def expand(self, a, basis="O"):
        """Coefficients of a in a Schubert-type basis.

        In the ``iota`` basis these are a's own coefficients, reduced to
        Laurent polynomials (``IntegralityError`` when one is not).  The other
        bases come in pairs, {O, I} and {Oop, Iop}, whose members differ by a
        unitriangular change of basis over Z.  ``_solve`` runs the triangular
        solve in the member that its probe picks from the class: the one whose
        residuals on the top pivot's first layer have fewer terms, so I or
        Iop for an MC class and O or Oop for a dual one.  When that member is
        not ``basis``, ``rebase`` reads ``basis`` off by the Bruhat zeta sum
        or its Moebius inverse, over the down-closure (up-closure) of the
        support.  Both steps are exact, so the coefficients, their order and
        the ``IntegralityError`` cases are those of the solve in ``basis``
        itself, ``_solve(a, (basis,))``.
        """
        if basis == "iota":
            return SchubertExpansion(a.ctx, basis, {w: _integral(w, c) for w, c in a.coeffs.items()})
        exp = self._solve(a, (basis, _partner(basis)))
        if exp.basis == basis:
            return exp
        return SchubertExpansion(a.ctx, basis, rebase(a.ctx, exp.coeffs, exp.basis, basis))

    def _solve(self, a, members):
        """The triangular solve of a in ``members[0]``, or, given both members
        of a pair, in whichever the probe picks; a ``SchubertExpansion`` in
        the member solved.

        The solve runs on local restrictions (see ``local_factors``): every
        entry, of the residual and of the basis classes alike, is a Laurent
        polynomial, so a subtraction is ``cur - d * c`` with no fraction
        arithmetic.  The coefficient at a pivot p is p's entry divided by its
        local normal factors, the local factors that do not divide the basis
        class's own restriction at p; these exact binomial divisions succeed
        for every integral class, and otherwise raise ``IntegralityError``.
        The basis class's own entry at p is an associate unit times those
        factors, read off the same factorization, so the exact divisions
        prove that the coefficient times it is p's entry: ``subtract`` drops
        the pivot from the residual without that product, and subtracts every
        other entry.

        The solve runs on the entries' images at y = 2^S over their least y
        power, each with an L1 bound (see the module docstring), and decodes
        each coefficient once.  A bound that would reach 2^(S-1) is first
        tightened by decoding; if it still would, the solve restarts at 2S.
        A basis entry with y raises ``StructuralError``.

        Given a pair, the first pivot p0 runs the probe of the module
        docstring on its layer, the cells of the support that p0 covers (that
        cover p0, for the opposite pair), with v's own entry read off
        ``_own_factors``, so that no basis class of a layer cell is built.
        The member whose layer residuals have fewer terms is solved,
        ``members[0]`` on a tie or when p0 has no layer, and its first pivot
        step takes those residuals as they are.
        """
        basis = members[0]
        opposite = basis in ("Oop", "Iop")
        ideal = "Iop" if opposite else "I"
        rs = self.rs
        local = self.local_factors(a.coeffs, opposite)

        def scaled(num, rest, unit):
            """num times the associate unit and the leftover local factors,
            whose product is memoized in the root system (``factor_product``);
            num None stands for 1 and multiplies nothing."""
            if unit is not None:
                num = unit if num is None else num * unit
            if rest:
                prod = factor_product(rs, tuple(rest))
                num = prod if num is None else num * prod
            return LaurentPolynomial.const(1, self.nvars) if num is None else num

        def entry(w, c):
            rest, left, unit = _match_associates(c.den, local(w))
            num = scaled(c.num, rest, unit)
            return _integral(w, FactoredFraction(num, left)) if left else num

        def basis_entry(pivot, w, c):
            e = entry(w, c)
            if any(map(ypow_of, e.packed)):
                raise StructuralError(f"basis class of {pivot.name()} carries y")
            return e

        def own_entry(v):
            """v's own entry in either member: the product of its local factors
            over those of its basis classes' own restriction at v."""
            rest, left, unit = _match_associates(self._own_factors(v, opposite), local(v))
            if left:
                raise StructuralError("basis pivot has a factor outside the local set")
            return scaled(None, rest, unit)

        vector = {w: entry(w, c) for w, c in a.coeffs.items()}
        ys = [ypow_of(k) for p in vector.values() for k in p.packed]
        oy, ytop = min(ys, default=0), max(ys, default=0)
        ybound = max(abs(oy), abs(ytop))

        def solve_at(bits):
            """The member solved and its coefficients as (image at y = 2^bits,
            bound) pairs; _Widen when a bound reaches 2^(bits-1) even from
            exact operands."""
            lim = 1 << (bits - 1)

            def exact(img):
                # below lim every digit of an image is its polynomial's own
                return l1(img.y_decoded(bits, oy, ybound).packed)

            def image(p):
                bound = l1(p.packed)
                if bound >= lim:
                    raise _Widen
                return p.y_image(bits, oy), bound

            images = {w: image(p) for w, p in vector.items()}
            # triangular_solve subtracts a pivot's basis entries right after
            # solving the pivot, so its coefficient is negated once, here,
            # and the pivot's own entry is kept to be told apart by identity;
            # the probe, in the first solve, sets the member and the first
            # pivot's residuals on its layer
            neg_c = pivot_entry = None
            member, pending, seeds = basis, len(members) > 1, {}

            def layer(p0):
                step = 1 if opposite else -1
                return [
                    v
                    for v in images
                    if v.length == p0.length + step
                    and (rs.bruhat_leq(p0, v) if opposite else rs.bruhat_leq(v, p0))
                ]

            def probe(p0, cells):
                """The member whose residuals on p0's layer have fewer terms,
                and those residuals."""
                top = self.basis_class(ideal, p0).coeffs
                by_ideal, by_structure = {}, {}
                for v in cells:
                    c = top.get(v)
                    cur = images[v] if c is None else subtract(images[v], basis_entry(p0, v, c))
                    by_ideal[v] = cur
                    by_structure[v] = subtract(cur or zero, own_entry(v))

                def terms(residuals):
                    return sum(len(r[0].packed) for r in residuals.values() if r is not None)

                n_ideal, n_structure = terms(by_ideal), terms(by_structure)
                if n_ideal < n_structure or (n_ideal == n_structure and basis == ideal):
                    return ideal, by_ideal
                return _partner(ideal), by_structure

            def solve(pivot, value):
                nonlocal neg_c, pivot_entry, member, pending, seeds
                cells = layer(pivot) if pending else ()
                pending = False
                value, bound = value
                # the members' own coefficients at the pivot agree; the probe
                # reads the ideal member's, whose class it needs
                pivot_coeff = self.basis_class(ideal if cells else member, pivot).coefficient(pivot)
                if pivot_coeff.num != 1:
                    pivot_coeff = pivot_coeff.reduce()
                    if pivot_coeff.num != 1:
                        raise StructuralError("basis pivot is not an inverted product")
                rest, left, unit = _match_associates(pivot_coeff.den, local(pivot))
                if left:
                    raise StructuralError("basis pivot has a factor outside the local set")
                # the pivot's entry is unit * prod(rest), built on the unit or
                # on a fresh 1, so that it is no memoized product and no other
                # entry is the same object; d = value / entry: the inverse of
                # the unit (star inverts a monomial +-e^lam), then the local
                # normal factors, all free of y
                fresh = LaurentPolynomial.const(1, self.nvars) if unit is None else unit
                pivot_entry = scaled(fresh, rest, None)
                if unit is not None:
                    value = value * unit.star()
                for f in rest:
                    value = laurent.divide_exact(value, factor_polynomial(f))
                    if value is None:
                        raise IntegralityError(
                            f"coefficient at {pivot.name()} is not a Laurent polynomial"
                        )
                    # a quotient's y-polynomial at each x-monomial is a signed
                    # sum of the dividend's along one line: its digits are
                    # exact, and its L1 norm is at most the dividend's
                    bound *= len(value.packed)
                    if bound >= lim:
                        bound = exact(value)
                        if bound >= lim:
                            raise _Widen
                neg_c = (-value, bound)
                if cells:
                    member, seeds = probe(pivot, cells)
                return value, bound

            def basis_entries(pivot):
                nonlocal seeds
                out = {}
                for w, c in self.basis_class(member, pivot).coeffs.items():
                    if w is pivot:
                        out[w] = pivot_entry
                    elif w not in seeds:
                        out[w] = basis_entry(pivot, w, c)
                # the probe's residuals close the first pivot's step on its layer
                for w, r in seeds.items():
                    out[w] = _Seed(r)
                seeds = {}
                return out

            def subtract(cur, e, c=None):
                # the exact divisions in solve prove value = c * pivot_entry
                if e is pivot_entry:
                    return None
                if type(e) is _Seed:
                    return e.residual
                nonlocal neg_c
                (p, bp), (q, bq) = cur, neg_c
                scale = l1(e.packed)
                bound = bp + scale * bq
                if bound >= lim:
                    bp, bq = exact(p), exact(q)
                    neg_c = q, bq
                    bound = bp + scale * bq
                    if bound >= lim:
                        raise _Widen
                p = p.add_product(e, q)
                return (p, bound) if p else None

            zero = (LaurentPolynomial.zero(self.nvars), 0)
            coeffs = triangular_solve(
                images,
                min if opposite else max,
                basis_entries,
                solve,
                subtract,
                zero,
                StructuralError,
            )
            return member, coeffs

        bits = _IMAGE_BITS
        while True:
            try:
                member, images = solve_at(bits)
                break
            except _Widen:
                bits *= 2
        coeffs = {w: img.y_decoded(bits, oy, ybound) for w, (img, _) in images.items()}
        return SchubertExpansion(a.ctx, member, coeffs)

    def _own_factors(self, v, opposite):
        """The denominator of every basis class of v at v itself (O and I, or
        Oop and Iop): the keys 1 - e^{v beta} over the positive roots beta with
        v beta negative (positive, for the opposite pair), the restriction at
        v of the structure sheaf of v's Schubert variety being lambda_-1 of
        its conormal space there."""
        rs = self.rs
        weights = (v.act(beta) for beta in rs.positive_roots)
        return tuple(one_minus_e(mu) for mu in weights if rs.is_positive_root(mu) == opposite)

    def local_factors(self, support, opposite=False):
        """The local factor sets of a triangular solve over ``support``.

        Returns a memoized map v -> the keys 1 - e^{v beta} over the positive
        roots beta whose T-curve v -- v s_beta stays below a Bruhat-maximal
        cell of the support (above a minimal one when ``opposite``).  Every
        other curve at v leaves the support's intervals, so by the GKM
        condition its factor divides the restriction a|_v: the local
        restriction c_v * prod(local factors) is a|_v with those factors
        divided out, a Laurent polynomial for every integral class, and all
        of a|_v when w0 (id when ``opposite``) is in the support.  A basis
        class of a cell below an end has its support below that end too, so
        its entries use the same sets.
        """
        rs = self.rs

        def below(u, e):
            return rs.bruhat_leq(e, u) if opposite else rs.bruhat_leq(u, e)

        ends = []
        for v in sorted(support, key=cell_order, reverse=not opposite):
            if not any(below(v, e) for e in ends):
                ends.append(v)
        reflections = [(beta, rs.reflection(beta)) for beta in rs.positive_roots]
        sets = {}

        def local(v):
            keys = sets.get(v)
            if keys is None:
                keys = sets[v] = tuple(
                    one_minus_e(v.act(beta))
                    for beta, r in reflections
                    if any(below(v * r, e) for e in ends)
                )
            return keys

        return local


def factor_product(rs, factors):
    """The product of the factor tuple ``factors``, memoized in ``rs``.

    Every key is a tuple of factors 1 - e^{v beta} at one fixed point v: its
    self-intersection factors, or the local factors left over at v by one
    entry of a triangular solve, a sub-tuple of them.  Those tuples repeat
    across the cells, bases and classes expanded over one root system, so
    the memo keeps one product per tuple that occurs, at most the 2^N subsets
    of the N cotangent factors at each point, and far fewer in practice: the
    MC and dual MC classes of every A3 cell, each expanded in O, I, Oop and
    Iop, leave 242 products (of 24 * 2^6 possible), and those of the B3 cell
    w0 leave 630.  ``RootSystem.clear_memo`` frees them with every class.
    """
    return rs.memo(("k", "product", factors), lambda: product_of_factors(factors, rs.rank))


def ktheory(rs):
    return rs.memo(("k",), lambda: KTheory(rs))
