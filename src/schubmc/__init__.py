"""Exact torus-equivariant motivic Chern, CSM, and Hirzebruch classes of Schubert cells."""

from .roots import RootSystem, RootSystemError, root_system, parse_type
from .laurent import (
    BACKEND,
    FactoredFraction,
    LaurentPolynomial,
    YPolynomial,
    check_log_concave,
    check_unimodal,
    divide_exact,
    has_internal_zeros,
)
from .kclasses import KClass, KTheory, SchubertExpansion, ktheory
from .mc import (
    chi_minus_q,
    chi_y_genus,
    dual_motivic_chern,
    mc_expansion,
    motivic_chern,
    motivic_chern_parabolic,
    parabolic_pushforward,
    segre_mc,
    specialize_dual_mc,
    specialize_mc,
    star_duality_report,
    verify_mc_duality,
)
from .cohomology import (
    SchubertCalculus,
    cohomology,
    csm_expansion,
    csm_vector,
    h_polynomial,
)
from .hecke import HeckeElement, mc_coefficients_oracle, t_generator, t_word
from .hirzebruch import hirzebruch

__all__ = [
    "BACKEND",
    "FactoredFraction",
    "HeckeElement",
    "KClass",
    "KTheory",
    "LaurentPolynomial",
    "RootSystem",
    "RootSystemError",
    "SchubertCalculus",
    "SchubertExpansion",
    "YPolynomial",
    "check_log_concave",
    "check_unimodal",
    "chi_minus_q",
    "chi_y_genus",
    "cohomology",
    "csm_expansion",
    "csm_vector",
    "divide_exact",
    "dual_motivic_chern",
    "h_polynomial",
    "has_internal_zeros",
    "hirzebruch",
    "ktheory",
    "mc_coefficients_oracle",
    "mc_expansion",
    "motivic_chern",
    "motivic_chern_parabolic",
    "parabolic_pushforward",
    "parse_type",
    "root_system",
    "segre_mc",
    "specialize_dual_mc",
    "specialize_mc",
    "star_duality_report",
    "t_generator",
    "t_word",
    "verify_mc_duality",
]

__version__ = "0.1.0"
