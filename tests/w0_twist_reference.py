"""The w0-twist routes of the opposite classes, kept as a reference model.

Before the opposite families were grown down from the point class at w0,
each was the left translation by w0 of a forward class: ``Cohomology``
substituted the w0-images of the simple-root variables, ``KTheory`` applied
w0 to every exponent and denominator weight, and ``NumericCohomology`` ran a
second engine at the w0-image of its parameter point.  These functions
rebuild those routes from the forward classes and never read the stored
opposite families.  The differential tests in ``test_word_routes.py`` check
the grown-down families against them.
"""

from schubmc.cohomology import CohClass, NumericCohomology
from schubmc.kclasses import KClass
from schubmc.laurent import FactoredFraction


def coh_twist(ctx, a):
    """Left translation by w0: alpha_j -> w0(alpha_j) on every restriction."""
    rs = ctx.rs
    w0 = rs.longest_element()
    images = [ctx.root_variable_form(w0.act(rs.simple_root(j))) for j in range(1, rs.rank + 1)]
    images.append(ctx.hbar())
    return CohClass(ctx, {w0 * u: p.substitute_linear(images) for u, p in a.coeffs.items()})


def opposite_schubert_class(ctx, v):
    return coh_twist(ctx, ctx.schubert_class(ctx.rs.longest_element() * v))


def csm_opposite(ctx, v):
    return coh_twist(ctx, ctx.csm(ctx.rs.longest_element() * v))


def weyl_map(c, w):
    """w applied to every exponent of a factored fraction and every weight of its denominator."""
    return FactoredFraction(c.num.weyl_map(w), tuple((k, w.act(mu)) for k, mu in c.den))


def k_twist(kt, a):
    w0 = kt.rs.longest_element()
    return KClass(a.ctx, {w0 * w: weyl_map(c, w0) for w, c in a.coeffs.items()})


def opp_structure_sheaf(kt, v):
    return k_twist(kt, kt.structure_sheaf(kt.rs.longest_element() * v))


def opp_ideal_sheaf(kt, v):
    return k_twist(kt, kt.ideal_sheaf(kt.rs.longest_element() * v))


def numeric_twin(num):
    """The numeric engine at the w0-images of the parameter point of ``num``."""
    rs = num.rs
    w0 = rs.longest_element()
    return NumericCohomology(
        rs, tuple(num.weight_value(w0.act(rs.simple_root(j))) for j in range(1, rs.rank + 1))
    )


def numeric_opposite_schubert(num, v):
    w0 = num.rs.longest_element()
    return {w0 * u: c for u, c in numeric_twin(num).schubert(w0 * v).items()}
