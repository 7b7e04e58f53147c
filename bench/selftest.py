"""Self-test of the benchmark's checks: a wrong output must count as failed.

    python3 bench/selftest.py

Runs a few cheap real queries (in child processes, as the benchmark does),
then perturbs the reference, the outputs and the golden files and asserts
that each perturbation is reported as a failed operation.  It also checks
that BENCHMARK.json names exactly the workloads and metrics the code reports.
Exits 0 when every check holds.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

CHECKS = []


def check(name, cond):
    CHECKS.append((name, bool(cond)))
    print(f"{'ok  ' if cond else 'FAIL'} {name}")


def perturbed(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def library_checks(run_dir, deadline):
    ops = ["mc-expand A3 id", "mc-expand A3 s1", "mc-expand A3 s2s1"]
    ref = run.load_reference("fixed-point-a3")
    res = run.library_iteration("fixed-point-a3", ops, run_dir, deadline)
    check("library: real outputs match the reference", run.library_failures(res["ops"], ref) == [])

    bad_ref = dict(ref, **{ops[1]: perturbed(ref[ops[1]])})
    check("library: a perturbed reference digest fails that query",
          run.library_failures(res["ops"], bad_ref) == [ops[1]])

    wrong = copy.deepcopy(res["ops"])
    wrong[2]["digest"] = perturbed(wrong[2]["digest"])
    check("library: a wrong output fails that query", run.library_failures(wrong, ref) == [ops[2]])

    wrong = copy.deepcopy(res["ops"])
    wrong[0]["ok"] = False
    wrong[1]["error"] = "ArithmeticError: boom"
    check("library: failed cross-route checks and exceptions count",
          run.library_failures(wrong, ref) == ops[:2])


def cross_route_checks():
    sys.path.insert(0, str(run.ROOT / "src"))
    import worker

    systems = worker.setup("fixed-point-a3")
    op = "mc-expand A3 s2s1"
    exp, _ = worker.run_op(op, systems)
    check("cross-route: the O expansion equals the Hecke oracle", worker.cross_route_ok(op, exp, systems))

    missing = copy.copy(exp)
    missing.coeffs = dict(exp.coeffs)
    missing.coeffs.pop(next(iter(missing.coeffs)))
    check("cross-route: a missing coefficient is a mismatch", not worker.cross_route_ok(op, missing, systems))

    changed = copy.copy(exp)
    changed.coeffs = dict(exp.coeffs)
    u = next(iter(changed.coeffs))
    changed.coeffs[u] = changed.coeffs[u] + changed.coeffs[u]
    check("cross-route: a changed coefficient is a mismatch", not worker.cross_route_ok(op, changed, systems))


def cli_checks(run_dir, deadline):
    # the B3 hecke artifact is 3.5 MB, written while the probe's timer runs
    commands = ["chi --type A3", "mc compute --type A1 --cell s1",
                "hecke expand --type B3 --element w0"]
    ref = run.load_reference(workloads.CLI)
    golden = run.load_golden()
    pass1, pass2 = run.cli_session(commands, run_dir, deadline,
                                   probe_every=run.PROBE_EVERY_S)["passes"]
    check("cli: real artifacts match reference and golden files",
          run.cli_failures(pass1, pass2, ref, golden) == [])

    bad_golden = dict(golden, **{commands[0]: golden[commands[0]] + b" "})
    check("cli: a perturbed golden file fails both passes",
          run.cli_failures(pass1, pass2, ref, bad_golden) == [f"pass 1: {commands[0]}",
                                                              f"pass 2: {commands[0]}"])

    bad_ref = dict(ref, **{commands[1]: perturbed(ref[commands[1]])})
    check("cli: a perturbed reference digest fails both passes",
          len(run.cli_failures(pass1, pass2, bad_ref, golden)) == 2)

    drift = copy.deepcopy(pass2)
    drift[1]["artifact"] += b"\n"
    check("cli: pass 2 differing from pass 1 fails",
          run.cli_failures(pass1, drift, ref, golden) == [f"pass 2: {commands[1]}"])

    crashed = copy.deepcopy(pass1)
    crashed[0]["rc"] = 2
    check("cli: a nonzero exit fails", run.cli_failures(crashed, pass2, ref, golden)[0]
          == f"pass 1: {commands[0]}")


def benchmark_json_checks():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json: workloads", [w["name"] for w in spec["workloads"]]
          == [name for name in workloads.NAMES if name not in workloads.MANUAL])
    fake = {"trace": {"calls": {}, "self_s": {}, "counters": {}, "spans": 1},
            "import_s": [], "emit_bytes": 0, "solve_s": 1.0, "solve_wall_s": 1.0}
    check("BENCHMARK.json: per-layer metrics", [m["name"] for m in spec["per_layer"]]
          == list(run.per_layer(fake, fake)))
    metrics, _ = run.end_to_end([{"solve_s": 1.0, "latencies": [1.0, 2.0]}], [1.0])
    check("BENCHMARK.json: end-to-end metrics", [m["name"] for m in spec["end_to_end"]]
          == list(metrics))


def main():
    run.OUT.mkdir(parents=True, exist_ok=True)
    deadline = run.Deadline(run.RUN_LIMIT_S)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        run_dir = Path(tmp)
        library_checks(run_dir, deadline)
        cross_route_checks()
        cli_checks(run_dir, deadline)
    benchmark_json_checks()
    failed = [name for name, ok in CHECKS if not ok]
    print(f"{len(CHECKS) - len(failed)}/{len(CHECKS)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
