"""Test-only reading of ``LaurentPolynomial`` JSON, kept out of the library.

No command reads a Laurent polynomial back from an artifact, so the inverse
of ``LaurentPolynomial.to_json_obj`` lives here, where the serialization
tests use it to check that every emitted term list reads back to the same
polynomial.
"""

from schubmc.laurent import LaurentPolynomial


def from_json_obj(obj, nvars):
    """The polynomial whose ``to_json_obj`` is ``obj``: one term per entry."""
    terms = {}
    for t in obj:
        terms[(tuple(t["exp"]), int(t["y"]))] = int(t["coeff"])
    return LaurentPolynomial({k: v for k, v in terms.items() if v}, nvars)
