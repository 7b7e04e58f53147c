"""Test-only constructions on ``KTheory``, kept out of the library.

``from_expansion`` sums a ``SchubertExpansion`` back into a class, the
inverse that the round-trip tests check ``KTheory.expand`` against.
``dl_dual_inverse`` is the inverse of the dual Demazure-Lusztig operator by
its explicit fixed-point formula, which the operator tests compare with the
quadratic relation T^-1 = -(1/y) T - ((1+y)/y) id.
"""

from schubmc.laurent import FactoredFraction, LaurentPolynomial, one_minus_e
from schubmc.roots import neg_weight


def from_expansion(kt, expansion):
    """The class whose coefficients in ``expansion.basis`` are ``expansion``'s."""
    out = kt.zero()
    for w, c in expansion.coeffs.items():
        out = out + kt.basis_class(expansion.basis, w).scale(c)
    return out


def dl_dual_inverse(kt, i, a):
    """The inverse of ``kt.dl_dual(i, -)`` applied to a."""
    n = kt.nvars
    z = (0,) * n
    minus_one_plus_yinv = LaurentPolynomial({(z, 0): -1, (z, -1): -1}, n)

    def off_num(va):
        return LaurentPolynomial({(z, -1): -1, (tuple(va), 0): -1}, n)

    return kt._apply(
        a,
        i,
        lambda va: FactoredFraction(minus_one_plus_yinv, (one_minus_e(va),)),
        lambda va: FactoredFraction(off_num(va), (one_minus_e(neg_weight(va)),)),
    )
