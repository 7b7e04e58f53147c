"""Symbolic Kostant-Kumar Hecke algebra in right-normal form.

Elements are finite sums D_w * p_w with every lattice exponential moved to
the right of the divided-difference symbols.  The straightening rule moves
a monomial past one simple symbol at a time:

    e^lam D_i  =  D_i e^{s_i lam} + (e^lam - e^{s_i lam}) / (1 - e^{alpha_i})

where the quotient is the exact finite geometric Laurent polynomial.  The
quadratic-relation generators T_i = (1 + y e^{alpha_i}) D_i - 1 expand
motivic Chern coefficients purely combinatorially, giving an oracle that is
independent of the fixed-point operator calculus.
"""

from __future__ import annotations

from .laurent import LaurentPolynomial, divide_exact, factor_polynomial, one_minus_e
from .roots import MAX_WEYL_ORDER, RootSystemError, cell_order


class HeckeElement:
    """Sum of D_w times a Laurent coefficient on the right; unique normal form."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs, terms):
        self.rs = rs
        self.terms = {w: p for w, p in terms.items() if p}

    @classmethod
    def zero(cls, rs):
        return cls(rs, {})

    @classmethod
    def one(cls, rs):
        return cls(rs, {rs.identity: LaurentPolynomial.const(1, rs.rank)})

    @classmethod
    def scalar(cls, rs, poly):
        return cls(rs, {rs.identity: poly})

    @classmethod
    def d(cls, rs, w):
        return cls(rs, {w: LaurentPolynomial.const(1, rs.rank)})

    def coefficient(self, w):
        p = self.terms.get(w)
        return p if p is not None else LaurentPolynomial.zero(self.rs.rank)

    def __add__(self, other):
        out = dict(self.terms)
        for w, p in other.terms.items():
            out[w] = out[w] + p if w in out else p
        return HeckeElement(self.rs, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HeckeElement(self.rs, {w: -p for w, p in self.terms.items()})

    def scale(self, poly):
        """Right multiplication by a scalar polynomial."""
        return HeckeElement(self.rs, {w: p * poly for w, p in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.rs is other.rs
            and self.terms == other.terms
        )

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.scale(other)
        out = HeckeElement.zero(self.rs)
        for w, p in self.terms.items():
            for v, q in other.terms.items():
                out = out + _basis_product(self.rs, w, p, v).scale(q)
        return out

    def items(self):
        return [(u, self.terms[u]) for u in sorted(self.terms, key=cell_order)]

    def __repr__(self):
        bits = [f"D[{w.name()}]*({p!r})" for w, p in self.items()]
        return " + ".join(bits) if bits else "0"


def straighten_past_simple(rs, poly, i):
    """Write poly * D_i as D_i * (reflected poly) + remainder polynomial."""
    s = rs.simple_reflection(i)
    reflected = poly.weyl_map(s)
    diff = poly - reflected
    if not diff:
        return reflected, LaurentPolynomial.zero(rs.rank)
    denom = factor_polynomial(one_minus_e(rs.simple_root(i)))
    rem = divide_exact(diff, denom)
    if rem is None:
        raise ArithmeticError("straightening quotient is not exact")
    return reflected, rem


def _d_times_simple(rs, w, i):
    ws = w * rs.simple_reflection(i)
    return ws if ws.length > w.length else w


def _basis_product(rs, w, poly, v):
    """Normal form of D_w * poly * D_v (coefficient 1 on the right)."""
    if v.length == 0:
        return HeckeElement(rs, {w: poly})
    i = v.word[0]
    v_rest = rs.simple_reflection(i) * v
    reflected, rem = straighten_past_simple(rs, poly, i)
    out = _basis_product(rs, _d_times_simple(rs, w, i), reflected, v_rest)
    if rem:
        out = out + _basis_product(rs, w, rem, v_rest)
    return out


def t_generator(rs, i):
    """(1 + y e^{alpha_i}) D_i - 1 in right-normal form."""
    alpha = rs.simple_root(i)
    s = rs.simple_reflection(i)
    one = LaurentPolynomial.const(1, rs.rank)
    lead = one + LaurentPolynomial.monomial(alpha, 1)
    # straighten (1 + y e^alpha) past D_i
    reflected, rem = straighten_past_simple(rs, lead, i)
    return HeckeElement(rs, {s: reflected, rs.identity: rem - one})


def t_word(rs, w):
    """Product of quadratic generators along a reduced word of w.

    Its terms are indexed by the Bruhat interval [id, w], which by the
    subword property has at most min(|W|, 2^l(w)) elements; ``RootSystemError``
    is raised, before anything is built, when that bound is over
    ``roots.MAX_WEYL_ORDER``.
    """
    size = min(sum(rs.poincare_polynomial()), 2**w.length)
    if size > MAX_WEYL_ORDER:
        raise RootSystemError(
            f"the Bruhat interval below an element of length {w.length} in "
            f"{rs.lie_type}{rs.rank} may hold {size:,} elements, over the "
            f"{MAX_WEYL_ORDER:,} that a command may build"
        )
    return rs.along_word(
        ("hecke", "T"), w, lambda _: HeckeElement.one(rs), lambda i, prev: prev * t_generator(rs, i)
    )


def mc_coefficients_oracle(rs, w):
    """Coefficients of the motivic class of the cell w, read off T_{w^{-1}}."""
    el = t_word(rs, w.inverse())
    return {u.inverse(): p for u, p in el.terms.items()}
