"""One library workload in one fresh process: set up, answer queries, report.

Spawned by run.py as

    python3 bench/worker.py WORKLOAD OPS_FILE [--spans SPANS_FILE] [--probe-every S]
                            [--setup-only]

OPS_FILE holds the generated query list (JSON), in the order to run it; an
empty list asks for every query of the workload in canonical order, which is
how the reference is recorded.  The worker prints ``ready`` once set-up is
done, with a snapshot of its clock, then one JSON line with its result: each
query's wall time, and the same time at the reference speed of the
host-speed probe (see probe.py), which runs from the start, around each
query and, with --probe-every, every S seconds.  Checks run after the clock
stops.
"""

import argparse
import json
import os
import sys
from importlib import import_module

import probe
import workloads


def _lib(name):
    # Look modules up at call time, so that the traced run's wrappers are seen.
    # (import_module, because schubmc re-exports functions that shadow
    # the cohomology and hirzebruch module names.)
    return import_module(f"schubmc.{name}")


def setup(workload):
    """Build each root system of the workload and enumerate its Weyl group."""
    roots = _lib("roots")
    systems = {}
    for label in workloads.ROOT_SYSTEMS[workload]:
        rs = roots.root_system(*roots.parse_type(label))
        rs.weyl_group()
        systems[label] = rs
    return systems


def all_ops(workload, systems):
    cells = {label: [w.name() for w in rs.weyl_group()] for label, rs in systems.items()}
    if workload == "fixed-point-a3":
        return [f"mc-expand A3 {w}" for w in cells["A3"]]
    if workload == "hecke-a4":
        return [f"hecke-oracle A4 {w}" for w in cells["A4"]]
    ops = [f"csm A3 {w}" for w in cells["A3"]] + ["csm B3 w0"]
    ops += [f"hirzebruch{n} B2 {w}" for w in cells["B2"] for n in ("", "-normalized")]
    ops += [f"hz-duality A2 {u} {v}" for u in cells["A2"] for v in cells["A2"]]
    return ops


def run_op(op, systems):
    """Answer one query; returns (result, ok) where ok is a built-in check."""
    kind, label, *cells = op.split()
    rs = systems[label]
    ws = [rs.parse_element(c) for c in cells]
    if kind == "mc-expand":
        kt = _lib("kclasses").ktheory(rs)
        return kt.expand(_lib("mc").motivic_chern(kt, ws[0]), "O"), True
    if kind == "hecke-oracle":
        return _lib("hecke").mc_coefficients_oracle(rs, ws[0]), True
    if kind == "csm":
        coh = _lib("cohomology")
        return coh.csm_expansion(coh.cohomology(rs), ws[0]), True
    hzmod = _lib("hirzebruch")
    if kind in ("hirzebruch", "hirzebruch-normalized"):
        hz = hzmod.hirzebruch(rs, workloads.HZ_CAP)
        cls = hz.hirzebruch_class(ws[0], normalized=kind.endswith("normalized"),
                                  cap=workloads.HZ_CAP, check_routes=True)
        return cls, True
    if kind == "hz-duality":
        hz = hzmod.hirzebruch(rs, workloads.HZ_CAP)
        ok, val = hzmod.hirzebruch_duality_check(hz, ws[0], ws[1], workloads.HZ_CAP)
        return (ok, val), ok
    raise ValueError(f"unknown query {op!r}")


def cross_route_ok(op, result, systems):
    """The O-basis expansion equals the Hecke oracle as a full coefficient dict."""
    kind, label, *cells = op.split()
    if kind != "mc-expand":
        return True
    rs = systems[label]
    oracle = _lib("hecke").mc_coefficients_oracle(rs, rs.parse_element(cells[0]))
    return set(result.coeffs) == set(oracle) and all(
        result.coeffs[u] == oracle[u] for u in oracle
    )


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.LIBRARY)
    ap.add_argument("ops_file")
    ap.add_argument("--spans", help="trace layer spans and write them here")
    ap.add_argument("--probe-every", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    clock = probe.Clock(args.probe_every)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-{os.getpid()}")
        tracer.install()
    systems = setup(args.workload)
    with open(args.ops_file) as fh:
        ops = json.load(fh) or all_ops(args.workload, systems)
    sys.stdout.write(f"ready {json.dumps(clock.snapshot())}\n")
    sys.stdout.flush()
    if args.setup_only:
        clock.stop()
        return 0

    results, latency, errors, builtin_ok = [], [], [], []
    for op in ops:
        s0, w0 = clock.mark()
        try:
            res, ok = run_op(op, systems)
            err = None
        except Exception as exc:  # a failed query is data, not a crash
            res, ok, err = None, False, f"{type(exc).__name__}: {exc}"
        s1, w1 = clock.mark()
        latency.append((s1 - s0, w1 - w0))
        results.append(res)
        errors.append(err)
        builtin_ok.append(ok)
    clock.stop()

    trace = None
    if tracer is not None:
        tracer.stop()
        trace = tracer.summary()
        tracer.write(args.spans)
    out = []
    for op, res, lat, err, ok in zip(ops, results, latency, errors, builtin_ok):
        entry = {"op": op, "s": lat[0], "wall_s": lat[1], "error": err, "digest": None,
                 "ok": ok}
        if err is None:
            entry["digest"] = workloads.digest(res)
            entry["ok"] = ok and cross_route_ok(op, res, systems)
        out.append(entry)
    print(json.dumps({"ops": out, "trace": trace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
