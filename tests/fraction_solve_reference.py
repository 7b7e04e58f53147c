"""The fraction-arithmetic triangular solve, kept as a reference model.

This is ``KTheory.expand`` for the bases O, I, Oop and Iop as it stood before
the solve ran on local restrictions: every residual entry is an iota-basis
coefficient, a ``FactoredFraction``, each subtraction is reduced by exact
division, and a pivot's coefficient is its value times the basis pivot's
denominator.  The differential tests in ``test_kclasses.py`` check the local
solve against it.
"""

from schubmc.kclasses import IntegralityError, SchubertExpansion, StructuralError
from schubmc.laurent import FactoredFraction, LaurentPolynomial, product_of_factors
from schubmc.roots import triangular_solve


def expand_by_fractions(kt, a, basis):
    """Coefficients of a in the triangular basis ``basis``, by fraction arithmetic."""

    def solve(pivot, value):
        pivot_coeff = kt.basis_class(basis, pivot).coefficient(pivot).reduce()
        if pivot_coeff.num != LaurentPolynomial.const(1, kt.nvars):
            raise StructuralError("basis pivot is not an inverted product")
        c_frac = (value * product_of_factors(pivot_coeff.den, kt.nvars)).reduce()
        try:
            return c_frac.as_polynomial()
        except ArithmeticError as exc:
            raise IntegralityError(
                f"coefficient at {pivot.name()} is not a Laurent polynomial"
            ) from exc

    def subtract(cur, d, c):
        nxt = (cur - d * c).reduce()
        return nxt or None

    coeffs = triangular_solve(
        a.coeffs,
        max if basis in ("O", "I") else min,
        lambda w: kt.basis_class(basis, w).coeffs,
        solve,
        subtract,
        FactoredFraction.zero(kt.nvars),
        StructuralError,
    )
    return SchubertExpansion(a.ctx, basis, coeffs)
