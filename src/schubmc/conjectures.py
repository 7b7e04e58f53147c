"""Batch verification of positivity, unimodality, and log-concavity predicates.

Each checker sweeps the relevant family of cells (or cell pairs), evaluates
its predicate exactly, and returns a machine-readable report whose
counterexample payloads are re-verifiable in isolation.  Refutation is data,
not an error.
"""

from __future__ import annotations

from .cohomology import SchubertCalculus, cohomology, csm_expansion, csm_vector, h_polynomial
from .kclasses import ktheory
from .laurent import check_log_concave, check_unimodal, has_internal_zeros
from .mc import _sign, coefficients_in_negative_cone, mc_expansion


class ConjectureReport:
    def __init__(self, conjecture, lie_type, parabolic, cells_checked, status,
                 counterexamples=None, notes=None):
        self.conjecture = conjecture
        self.lie_type = lie_type
        self.parabolic = parabolic
        self.cells_checked = cells_checked
        self.status = status
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.notes = {} if notes is None else notes

    def to_json_obj(self):
        return {
            "conjecture": self.conjecture,
            "system": self.lie_type,
            "parabolic": list(self.parabolic),
            "cells_checked": self.cells_checked,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
        }


def _finish(report):
    report.status = "verified" if not report.counterexamples else "refuted"
    return report


def _cells(rs, maxlen):
    if maxlen is None:
        maxlen = rs.longest_element().length if rs.rank <= 3 else 6
    return [w for w in rs.weyl_group() if w.length <= maxlen], maxlen


def check_mc_positivity(rs, maxlen=None):
    """Sign-normalized Schubert coefficients of motivic classes lie in the
    nonnegative cone of y and inverse simple-root monomials."""
    kt = ktheory(rs)
    cells, maxlen = _cells(rs, maxlen)
    rep = ConjectureReport("mc-positivity", f"{rs.lie_type}{rs.rank}", (), len(cells), "partial")
    rep.notes["maxlen"] = maxlen
    for w in cells:
        exp = mc_expansion(kt, w)
        for u, c in exp.items():
            normalized = c if _sign(w.length - u.length) == 1 else -c
            bad_coeff = any(v < 0 for v in normalized.terms.values())
            if bad_coeff or not coefficients_in_negative_cone(rs, c):
                rep.counterexamples.append(
                    {
                        "cell": w.name(),
                        "basis_cell": u.name(),
                        "reason": "negative coefficient" if bad_coeff else "exponent outside cone",
                        "coefficient": c.to_json_obj(),
                    }
                )
    return _finish(rep)


def check_mc_log_concavity(rs, maxlen=None):
    """Log concavity of the sign-normalized non-equivariant coefficients."""
    kt = ktheory(rs)
    cells, maxlen = _cells(rs, maxlen)
    rep = ConjectureReport("mc-log-concavity", f"{rs.lie_type}{rs.rank}", (), len(cells), "partial")
    rep.notes["maxlen"] = maxlen
    for w in cells:
        exp = mc_expansion(kt, w)
        for u, c in exp.items():
            p = c.substitute_nonequivariant()
            p = p if _sign(w.length - u.length) == 1 else -p
            if not check_log_concave(p) or has_internal_zeros(p):
                rep.counterexamples.append(
                    {
                        "cell": w.name(),
                        "basis_cell": u.name(),
                        "coefficients": [str(x) for x in p.coeffs],
                        "offset": p.offset,
                    }
                )
    return _finish(rep)


def check_csm_positivity(rs, parabolic=None, equivariant=False):
    """Nonnegativity of CSM Schubert coefficients.

    Equivariantly the test expands coefficients in simple-root monomials (the
    weakest standard reading of positivity in the positive roots); zero
    coefficients are collected separately from negative ones.
    """
    ctx = cohomology(rs)
    pd = rs.parabolic(parabolic) if parabolic else None
    cells = pd.min_reps if pd else rs.weyl_group()
    label = tuple(parabolic) if parabolic else ()
    rep = ConjectureReport("csm-positivity", f"{rs.lie_type}{rs.rank}", label, len(cells), "partial")
    minset = set(cells)
    zeros = []
    if equivariant:
        # The positivity statement lives in the parameter convention opposite
        # to the one our display values fix, so flip the root variables first.
        for w in cells:
            for u, p in csm_expansion(ctx, w).items():
                if u not in minset:
                    continue
                # with h set to 1, a monomial's degree is its degree in the roots
                q = p.set_variable(ctx.nvars - 1, 1)
                bad = any(
                    c * _sign(d) < 0
                    for d, comp in q.homogeneous_split().items()
                    for c in comp.packed.values()
                )
                if bad:
                    rep.counterexamples.append(
                        {"cell": w.name(), "basis_cell": u.name(), "reason": "negative alpha monomial"}
                    )
    else:
        for w in cells:
            vec = csm_vector(ctx, w)
            for u in cells:
                if not rs.bruhat_leq(u, w):
                    continue
                c = vec.get(u, 0)
                if c < 0:
                    rep.counterexamples.append(
                        {"cell": w.name(), "basis_cell": u.name(), "coefficient": c}
                    )
                elif c == 0:
                    zeros.append({"cell": w.name(), "basis_cell": u.name()})
    rep.notes["equivariant"] = equivariant
    rep.notes["zero_coefficients"] = zeros
    return _finish(rep)


def check_h_unimodality(rs, parabolic=None):
    """Unimodality (and in type A, log concavity) of variety H-polynomials."""
    ctx = cohomology(rs)
    pd = rs.parabolic(parabolic) if parabolic else None
    cells = pd.min_reps if pd else rs.weyl_group()
    minset = set(cells)
    label = tuple(parabolic) if parabolic else ()
    rep = ConjectureReport("h-unimodality", f"{rs.lie_type}{rs.rank}", label, len(cells), "partial")
    for w in cells:
        total = {}
        for v in cells:
            if rs.bruhat_leq(v, w):
                for u, c in csm_vector(ctx, v).items():
                    if u in minset:
                        total[u] = total.get(u, 0) + c
        H = h_polynomial(total)
        issues = []
        if not check_unimodal(H) or has_internal_zeros(H):
            issues.append("not unimodal or internal zeros")
        if rs.lie_type == "A" and not check_log_concave(H):
            issues.append("not log-concave in type A")
        if issues:
            rep.counterexamples.append(
                {"cell": w.name(), "h_polynomial": [str(c) for c in H.coeffs], "issues": issues}
            )
    return _finish(rep)


def check_euler_alternation(rs, parabolic=None):
    """Alternating signs of SM structure constants, with the sum-rule audit."""
    pd = rs.parabolic(parabolic) if parabolic else None
    calc = SchubertCalculus(rs, pd)
    cells = list(calc.cells)
    label = tuple(parabolic) if parabolic else ()
    rep = ConjectureReport(
        "euler-alternation", f"{rs.lie_type}{rs.rank}", label, len(cells) ** 2, "partial"
    )
    audit_failures = []
    for u in cells:
        w0u = calc.opposite_label(u)
        for v in cells:
            e = calc.sm_structure_constants(u, v)
            for w, c in e.items():
                if _sign(u.length + v.length + w.length) * c < 0:
                    rep.counterexamples.append(
                        {"u": u.name(), "v": v.name(), "w": w.name(), "value": c}
                    )
            want = 1 if w0u == v else 0
            if sum(e.values()) != want:
                audit_failures.append({"u": u.name(), "v": v.name(), "sum": sum(e.values())})
    rep.notes["sum_rule_failures"] = audit_failures
    if audit_failures:
        rep.counterexamples.extend(audit_failures)
    return _finish(rep)


def check_richardson_positivity(rs):
    """Schubert positivity of CSM classes of intersections of opposite cells."""
    calc = SchubertCalculus(rs)
    cells = list(calc.cells)
    rep = ConjectureReport(
        "richardson-positivity", f"{rs.lie_type}{rs.rank}", (), len(cells) ** 2, "partial"
    )
    for u in cells:
        for v in cells:
            f = calc.richardson_csm(u, v)
            for w, c in f.items():
                if c < 0:
                    rep.counterexamples.append(
                        {"u": u.name(), "v": v.name(), "w": w.name(), "value": c}
                    )
    return _finish(rep)


CHECKERS = {
    "mc-positivity": check_mc_positivity,
    "mc-log-concavity": check_mc_log_concavity,
    "csm-positivity": check_csm_positivity,
    "h-unimodality": check_h_unimodality,
    "euler-alternation": check_euler_alternation,
    "richardson-positivity": check_richardson_positivity,
}
