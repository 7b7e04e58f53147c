"""Layer spans for the traced benchmark run, installed from outside the program.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` by wrappers that record one span per call: a name, start and end
times, the span that was open when the call began, and the process's run id.
Spans are kept in flat arrays and written when the run ends.  Counters that
need a call's arguments or result (term products, failed divisions, ...)
are taken at the same boundary, after the span closes.

A span's self time is its duration minus the time covered by its direct
child spans; a layer's self time is the sum over the layer's spans.
"""

import gzip
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter


def _nterms(x):
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


def _lp_divide_exact(t, args, res):
    c = t.counters
    c["kernel.lp_divide_exact.failed"] += res is None
    c["kernel.lp_divide_exact.terms_in"] += len(args[0]) + len(args[1])


def _lp_mul(t, args, res):
    t.counters["kernel.lp_mul.term_products"] += len(args[0]) * len(args[1])


def _divide_exact(t, args, res):
    t.counters["laurent.divide_exact.failed"] += res is None


def _reduce(t, args, res):
    c = t.counters
    c["laurent.FactoredFraction.reduce.den_in"] += len(args[0].den)
    c["laurent.FactoredFraction.reduce.den_out"] += len(res.den)


def _poly_mul(t, args, res):
    t.counters["polyring.Poly.__mul__.term_products"] += len(args[0].terms) * _nterms(args[1])


def _poly_divide_exact(t, args, res):
    t.counters["polyring.Poly.divide_exact.failed"] += res is None


def _oracle(t, args, res):
    t.counters["hecke.mc_coefficients_oracle.terms_out"] += sum(len(p.terms) for p in res.values())


def _motivic_chern(t, args, res):
    key = (id(args[0]), args[1])
    t.counters["mc.motivic_chern.repeats"] += key in t.cells_seen
    t.cells_seen.add(key)


def _cache_probe(args):
    from schubmc import cli

    path = cli._cache_path(args[0], args[1])
    return path is not None and os.path.exists(path)


def _cached_json(t, args, res, existed):
    if existed:
        t.counters["cli.cache.files_read"] += 1
    elif os.environ.get("SCHUBMC_CACHE_DIR"):
        t.counters["cli.cache.files_written"] += 1


# (span name, module, attribute path, counter hook, pre-call probe)
TARGETS = [
    ("kernel.lp_divide_exact", "schubmc.laurent", "_impl.lp_divide_exact", _lp_divide_exact, None),
    ("kernel.lp_mul", "schubmc.laurent", "_impl.lp_mul", _lp_mul, None),
    ("kernel.lp_add", "schubmc.laurent", "_impl.lp_add", None, None),
    ("kernel.lp_neg", "schubmc.laurent", "_impl.lp_neg", None, None),
    ("kernel.lp_scale", "schubmc.laurent", "_impl.lp_scale", None, None),
    ("laurent.divide_exact", "schubmc.laurent", "divide_exact", _divide_exact, None),
    ("laurent.FactoredFraction.reduce", "schubmc.laurent", "FactoredFraction.reduce", _reduce, None),
    ("laurent.FactoredFraction.__add__", "schubmc.laurent", "FactoredFraction.__add__", None, None),
    ("laurent.LaurentPolynomial.__mul__", "schubmc.laurent", "LaurentPolynomial.__mul__", None, None),
    ("laurent.LaurentPolynomial.__add__", "schubmc.laurent", "LaurentPolynomial.__add__", None, None),
    ("laurent.LaurentPolynomial.weyl_map", "schubmc.laurent", "LaurentPolynomial.weyl_map", None, None),
    ("roots.weyl_group", "schubmc.roots", "RootSystem.weyl_group", None, None),
    ("roots.WeylElement.act", "schubmc.roots", "WeylElement.act", None, None),
    ("roots.WeylElement.__mul__", "schubmc.roots", "WeylElement.__mul__", None, None),
    ("roots.bruhat_leq", "schubmc.roots", "RootSystem.bruhat_leq", None, None),
    ("kclasses.KTheory.dl_operator", "schubmc.kclasses", "KTheory.dl_operator", None, None),
    ("kclasses.KTheory.demazure", "schubmc.kclasses", "KTheory.demazure", None, None),
    ("kclasses.KTheory.expand", "schubmc.kclasses", "KTheory.expand", None, None),
    ("mc.motivic_chern", "schubmc.mc", "motivic_chern", _motivic_chern, None),
    ("hecke.straighten_past_simple", "schubmc.hecke", "straighten_past_simple", None, None),
    ("hecke.t_word", "schubmc.hecke", "t_word", None, None),
    ("hecke.HeckeElement.__mul__", "schubmc.hecke", "HeckeElement.__mul__", None, None),
    ("hecke.HeckeElement.__add__", "schubmc.hecke", "HeckeElement.__add__", None, None),
    ("hecke.mc_coefficients_oracle", "schubmc.hecke", "mc_coefficients_oracle", _oracle, None),
    ("polyring.Poly.__mul__", "schubmc.polyring", "Poly.__mul__", _poly_mul, None),
    ("polyring.Poly.__add__", "schubmc.polyring", "Poly.__add__", None, None),
    ("polyring.Poly.divide_exact", "schubmc.polyring", "Poly.divide_exact", _poly_divide_exact, None),
    ("polyring.Poly.substitute_linear", "schubmc.polyring", "Poly.substitute_linear", None, None),
    ("polyring.GradedSeries.__mul__", "schubmc.polyring", "GradedSeries.__mul__", None, None),
    ("polyring.GradedSeries.__add__", "schubmc.polyring", "GradedSeries.__add__", None, None),
    ("polyring.GradedSeries.inverse", "schubmc.polyring", "GradedSeries.inverse", None, None),
    ("polyring.YFrac.__mul__", "schubmc.polyring", "YFrac.__mul__", None, None),
    ("polyring.YFrac.__add__", "schubmc.polyring", "YFrac.__add__", None, None),
    ("polyring.YFrac.inverse", "schubmc.polyring", "YFrac.inverse", None, None),
    ("cohomology.csm_expansion", "schubmc.cohomology", "csm_expansion", None, None),
    ("cohomology.Cohomology.csm", "schubmc.cohomology", "Cohomology.csm", None, None),
    ("cohomology.Cohomology.integrate", "schubmc.cohomology", "Cohomology.integrate", None, None),
    ("cohomology.Cohomology.expand", "schubmc.cohomology", "Cohomology.expand", None, None),
    ("hirzebruch.Hirzebruch.hirzebruch_class", "schubmc.hirzebruch", "Hirzebruch.hirzebruch_class", None, None),
    ("hirzebruch.Hirzebruch.dl_h", "schubmc.hirzebruch", "Hirzebruch.dl_h", None, None),
    ("hirzebruch.Hirzebruch.todd_transform", "schubmc.hirzebruch", "Hirzebruch.todd_transform", None, None),
    ("hirzebruch.Hirzebruch.integrate", "schubmc.hirzebruch", "Hirzebruch.integrate", None, None),
    ("hirzebruch.Hirzebruch.dual_hirzebruch_class", "schubmc.hirzebruch", "Hirzebruch.dual_hirzebruch_class", None, None),
    ("hirzebruch.hirzebruch_duality_check", "schubmc.hirzebruch", "hirzebruch_duality_check", None, None),
    ("conjectures.check_mc_positivity", "schubmc.conjectures", "check_mc_positivity", None, None),
    ("conjectures.check_mc_log_concavity", "schubmc.conjectures", "check_mc_log_concavity", None, None),
    ("conjectures.check_csm_positivity", "schubmc.conjectures", "check_csm_positivity", None, None),
    ("conjectures.check_h_unimodality", "schubmc.conjectures", "check_h_unimodality", None, None),
    ("conjectures.check_euler_alternation", "schubmc.conjectures", "check_euler_alternation", None, None),
    ("conjectures.check_richardson_positivity", "schubmc.conjectures", "check_richardson_positivity", None, None),
    ("cli._emit", "schubmc.cli", "_emit", None, None),
    ("cli._cached_json", "schubmc.cli", "_cached_json", _cached_json, _cache_probe),
]
SPAN_NAMES = [t[0] for t in TARGETS]
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})

# Spans whose call count / self time is a per-layer metric of the benchmark.
# The other spans only sharpen self-time attribution and the layer totals.
REPORTED_CALLS = [
    "kernel.lp_divide_exact", "kernel.lp_mul", "kernel.lp_add",
    "laurent.FactoredFraction.reduce", "laurent.divide_exact",
    "roots.WeylElement.act", "roots.bruhat_leq",
    "kclasses.KTheory.dl_operator", "kclasses.KTheory.demazure", "kclasses.KTheory.expand",
    "mc.motivic_chern",
    "hecke.straighten_past_simple", "hecke.t_word", "hecke.HeckeElement.__mul__",
    "polyring.Poly.__mul__", "polyring.Poly.divide_exact", "polyring.GradedSeries.__mul__",
    "polyring.YFrac.__mul__", "polyring.YFrac.__add__",
    "cohomology.Cohomology.integrate", "cohomology.Cohomology.expand",
    "hirzebruch.Hirzebruch.hirzebruch_class", "hirzebruch.Hirzebruch.dl_h",
    "hirzebruch.Hirzebruch.todd_transform", "hirzebruch.Hirzebruch.integrate",
]
REPORTED_SELF = [
    name for name in REPORTED_CALLS
    if name not in ("laurent.divide_exact", "mc.motivic_chern")
] + ["roots.weyl_group", "cohomology.csm_expansion", "cli._emit"] + [
    name for name in SPAN_NAMES if name.startswith("conjectures.check_")
]


class Tracer:
    """In-memory span recorder for one process (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = Counter()
        self.cells_seen = set()
        self._stack = []
        self._on = False

    def _wrap(self, name_id, fn, hook, probe):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack

        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            pre = probe(args) if probe else None
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                if probe:
                    hook(self, args, res, pre)
                else:
                    hook(self, args, res)
            return res

        return traced

    def install(self):
        """Wrap every target and rebind every schubmc global that aliases one."""
        originals = {}
        for name_id, (name, modname, path, hook, probe) in enumerate(TARGETS):
            owner = importlib.import_module(modname)
            *head, attr = path.split(".")
            for part in head:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(name_id, fn, hook, probe)
            setattr(owner, attr, wrapped)
            originals[id(fn)] = wrapped
        # `from .x import f` copies and tables such as conjectures.CHECKERS
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("schubmc") or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if id(val) in originals and callable(val):
                    setattr(mod, key, originals[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if callable(v) and id(v) in originals:
                            val[k] = originals[id(v)]
        self._on = True

    def stop(self):
        self._on = False

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        n = len(self.names)
        child = [0.0] * n
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)]

    def summary(self):
        """Raw per-span sums (calls, self time) and counters, for merging."""
        selfs = self.self_times()
        calls = Counter()
        self_s = Counter()
        for i, name_id in enumerate(self.names):
            name = SPAN_NAMES[name_id]
            calls[name] += 1
            self_s[name] += selfs[i]
        reduce_id = SPAN_NAMES.index("laurent.FactoredFraction.reduce")
        divide_id = SPAN_NAMES.index("laurent.divide_exact")
        tried = sum(
            1 for i, name_id in enumerate(self.names)
            if name_id == divide_id and self.parents[i] >= 0
            and self.names[self.parents[i]] == reduce_id
        )
        counters = dict(self.counters)
        counters["laurent.FactoredFraction.reduce.factors_tried"] = tried
        return {"calls": dict(calls), "self_s": dict(self_s), "counters": counters,
                "spans": len(self.names)}

    def write(self, path):
        """Write every span as one tab-separated line: run, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id\tname\tstart\tend\tparent\n")
            for i, name_id in enumerate(self.names):
                fh.write(f"{self.run_id}\t{SPAN_NAMES[name_id]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\n")


def merge(summaries):
    """Sum the raw summaries of several traced processes."""
    out = {"calls": Counter(), "self_s": Counter(), "counters": Counter(), "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counters"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return out
