"""Run one benchmark workload, check every output, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record     # re-record the reference

Workloads (see bench/README.md): fixed-point-a3, hecke-a4, gkm-hirzebruch,
cli-session.  Each is a closed loop with one client and one query at a time,
and every query set runs in a fresh process, so the program's memo tables and
its disk cache start empty.  The seed only permutes the order of the queries.

--trace 0 repeats the workload while the next repetition fits in S seconds
(at least once) and reports the end-to-end metrics.  --trace 1 runs it once
untraced and once traced and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object; the full record goes
to bench/out/.
"""

import argparse
import json
import os
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
GOLDEN_DIR = ROOT / "tests" / "golden"
SETUP_SAMPLES = 15
# How often a library worker or a CLI command probes the host's speed while
# it runs (end-to-end runs only; a traced run probes only between queries and
# commands, so the probe's time is in no span).
PROBE_EVERY_S = 0.1
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed query)."""


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def remaining(self):
        left = self.end - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def child_env(cache_dir):
    env = dict(os.environ)
    # An installed package imports from cached bytecode; warm_up() writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SCHUBMC_CACHE_DIR"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_until_ready(cmd, env, deadline):
    """Start a child that prints ``ready`` and a snapshot of its clock.

    Returns the child and its set-up time until then at the probe's
    reference speed (probe.child_time).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    readable, _, _ = select.select([proc.stdout], [], [], deadline.remaining())
    line = proc.stdout.readline() if readable else b""
    wall = time.perf_counter() - t0
    if not line.startswith(b"ready {"):
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(map(str, cmd))} did not become ready")
    return proc, probe.child_time(wall, json.loads(line[len(b"ready "):]))[0]


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=deadline.remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return out


def setup_command(workload, run_dir):
    probe_every = ["--probe-every", str(PROBE_EVERY_S)]
    if workload == workloads.CLI:
        return [sys.executable, str(BENCH / "clirun.py"), *probe_every, "--setup-only"]
    ops = run_dir / "no-ops.json"
    ops.write_text("[]")
    return [sys.executable, str(BENCH / "worker.py"), workload, str(ops), *probe_every,
            "--setup-only"]


def setup_samples(workload, run_dir, deadline, count):
    """Set-up times of ``count`` set-up-only children."""
    cmd = setup_command(workload, run_dir)
    samples = []
    for _ in range(count):
        proc, setup_s = spawn_until_ready(cmd, child_env(run_dir / "setup-cache"), deadline)
        finish(proc, deadline)
        samples.append(setup_s)
    return samples


def library_iteration(workload, ops, run_dir, deadline, spans=None, probe_every=0.0):
    """One fresh worker process over the ordered query list."""
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run_dir, delete=False) as fh:
        json.dump(ops, fh)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, fh.name]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--probe-every", str(probe_every)]
    cache = tempfile.mkdtemp(dir=run_dir)
    proc, setup_s = spawn_until_ready(cmd, child_env(cache), deadline)
    result = json.loads(finish(proc, deadline).splitlines()[-1])
    result["setup_s"] = setup_s
    result["solve_s"] = sum(e["s"] for e in result["ops"])
    result["solve_wall_s"] = sum(e["wall_s"] for e in result["ops"])
    return result


def cli_session(commands, run_dir, deadline, spans_dir=None, probe_every=0.0):
    """Two passes over the command list against one fresh SCHUBMC_CACHE_DIR.

    A command's ``s`` is its time at the probe's reference speed, from its
    wall time and its own clock (see clirun.py and probe.child_time).
    """
    session = Path(tempfile.mkdtemp(dir=run_dir))
    env = child_env(session / "cache")
    passes = []
    summaries = []
    clock_file = session / "clock.json"
    # A command's stdout goes to a file, not a pipe: CPython 3.11 can drop
    # part of a large write to a pipe that a signal (the probe's timer)
    # interrupts, and a regular file write is not interrupted.
    stdout_file = session / "stdout"
    for p in (1, 2):
        results = []
        for k, command in enumerate(commands):
            argv = command.split()
            out_file = None
            if "OUT" in argv:
                out_file = session / f"p{p}-{k}.json"
                argv[argv.index("OUT")] = str(out_file)
            cmd = [sys.executable, str(BENCH / "clirun.py")]
            spans = None
            if spans_dir is not None:
                spans = spans_dir / f"p{p}-{k}.tsv.gz"
                cmd += ["--spans", str(spans)]
            cmd += ["--clock", str(clock_file), "--probe-every", str(probe_every)]
            clock_file.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                with open(stdout_file, "wb") as fh:
                    proc = subprocess.run(cmd + ["--"] + argv, stdout=fh, env=env, cwd=ROOT,
                                          timeout=deadline.remaining())
            except subprocess.TimeoutExpired:
                raise BenchError(f"command timed out: {command}")
            wall = scaled = time.perf_counter() - t0
            if clock_file.exists():
                scaled, wall = probe.child_time(wall, json.loads(clock_file.read_text()))
            artifact = stdout_file.read_bytes()
            if out_file is not None:
                artifact = out_file.read_bytes() if out_file.exists() else b""
            results.append({"op": command, "s": scaled, "wall_s": wall, "rc": proc.returncode,
                            "artifact": artifact})
            if spans is not None and proc.returncode == 0:
                summaries.append(json.loads(Path(str(spans) + ".json").read_text()))
        passes.append(results)
    runs = passes[0] + passes[1]
    return {"solve_s": sum(r["s"] for r in runs), "solve_wall_s": sum(r["wall_s"] for r in runs),
            "passes": passes, "trace": summaries}


def library_failures(ops_out, reference):
    """Queries that raised, failed a built-in or cross-route check, or differ from the reference."""
    return [
        e["op"] for e in ops_out
        if e["error"] or not e["ok"] or e["digest"] != reference.get(e["op"])
    ]


def cli_failures(pass1, pass2, reference, golden):
    """Commands that exited nonzero or whose artifact differs from the reference,
    from its golden file, or (pass 2) from pass 1."""
    failed = []
    for first, second in zip(pass1, pass2):
        op = first["op"]
        for n, res in ((1, first), (2, second)):
            bad = res["rc"] != 0 or workloads.digest(res["artifact"]) != reference.get(op)
            bad = bad or (op in golden and res["artifact"] != golden[op])
            bad = bad or (n == 2 and res["artifact"] != first["artifact"])
            if bad:
                failed.append(f"pass {n}: {op}")
    return failed


def load_reference(workload):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if workload not in refs:
        raise BenchError(f"no reference recorded for {workload}; run with --record")
    return refs[workload]


def load_golden():
    return {cmd: (GOLDEN_DIR / name).read_bytes() for cmd, name in workloads.GOLDEN.items()}


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def warm_up(run_dir, deadline):
    """Compile the program's bytecode and read the kernel backend (not timed)."""
    cmd = [sys.executable, "-c", "import schubmc, schubmc.cli; print(schubmc.BACKEND)"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(run_dir / "warm"),
                          cwd=ROOT, timeout=deadline.remaining(), text=True)
    if proc.returncode != 0:
        raise BenchError("cannot import schubmc from src/")
    return proc.stdout.strip()


class Run:
    """One workload at one seed: query order, iterations, checks, metrics."""

    def __init__(self, workload, seed, run_dir, deadline, probe_every=0.0):
        self.workload = workload
        self.probe_every = probe_every
        self.rng = random.Random(seed)
        self.run_dir = run_dir
        self.deadline = deadline
        self.reference = load_reference(workload)
        self.is_cli = workload == workloads.CLI
        self.golden = load_golden() if self.is_cli else {}
        self.iterations = []
        self.failures = []
        self.attempted = 0

    def order(self):
        ops = list(workloads.CLI_COMMANDS if self.is_cli else sorted(self.reference))
        self.rng.shuffle(ops)
        return ops

    def iterate(self, spans=None):
        """Run the workload once on a fresh order; returns the iteration record."""
        ops = self.order()
        t0 = time.perf_counter()
        if self.is_cli:
            spans_dir = None
            if spans is not None:
                spans_dir = Path(spans)
                shutil.rmtree(spans_dir, ignore_errors=True)
                spans_dir.mkdir(parents=True)
            res = cli_session(ops, self.run_dir, self.deadline, spans_dir, self.probe_every)
            pass1, pass2 = res["passes"]
            failed = cli_failures(pass1, pass2, self.reference, self.golden)
            attempted = len(pass1) + len(pass2)
            # a command is one schubmc process
            it = {"solve_s": res["solve_s"], "solve_wall_s": res["solve_wall_s"],
                  "latencies": [r["s"] for r in pass1 + pass2],
                  "ops": [[r["op"], r["s"], r["wall_s"]] for r in pass1 + pass2],
                  "emit_bytes": sum(len(r["artifact"]) for r in pass1 + pass2),
                  "import_s": [s["import_s"] for s in res["trace"]],
                  "trace": tracer.merge(res["trace"]) if spans is not None else None}
        else:
            res = library_iteration(self.workload, ops, self.run_dir, self.deadline, spans,
                                    self.probe_every)
            failed = library_failures(res["ops"], self.reference)
            attempted = len(res["ops"])
            # a command is one class-table job: a fresh process over the whole
            # query list (per-cell latencies depend on the memo state left by
            # the cells before them, so they are recorded but not reported)
            it = {"solve_s": res["solve_s"], "solve_wall_s": res["solve_wall_s"],
                  "setup_s": res["setup_s"],
                  "latencies": [res["setup_s"] + res["solve_s"]],
                  "ops": [[e["op"], e["s"], e["wall_s"]] for e in res["ops"]],
                  "emit_bytes": 0, "import_s": [],
                  "trace": res["trace"]}
        it["wall_s"] = time.perf_counter() - t0
        self.attempted += attempted
        self.failures += failed
        self.iterations.append(it)
        return it


def end_to_end(iterations, setup):
    solve = [it["solve_s"] for it in iterations]
    latencies = [s for it in iterations for s in it["latencies"]]
    setup = setup + [it["setup_s"] for it in iterations if "setup_s" in it]
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "solve_s": (statistics.median(solve), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "cmd_p50_s": (percentile(latencies, 50), "s"),
        "cmd_p90_s": (percentile(latencies, 90), "s"),
    }
    samples = {"solve_s": len(solve), "setup_s": len(setup), "cmd": len(latencies)}
    return metrics, samples


def per_layer(untraced, traced):
    t = traced["trace"]
    calls, self_s, c = t["calls"], t["self_s"], t["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in tracer.REPORTED_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in tracer.REPORTED_SELF:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    for name in ("kernel.lp_divide_exact", "laurent.divide_exact", "polyring.Poly.divide_exact"):
        m[f"{name}.fail_frac"] = (ratio(c.get(f"{name}.failed", 0), calls.get(name, 0)), "ratio")
    for name in ("kernel.lp_divide_exact.terms_in", "kernel.lp_mul.term_products",
                 "polyring.Poly.__mul__.term_products", "hecke.mc_coefficients_oracle.terms_out",
                 "laurent.FactoredFraction.reduce.factors_tried",
                 "cli.cache.files_written", "cli.cache.files_read"):
        m[name] = (c.get(name, 0), "count")
    den_in = c.get("laurent.FactoredFraction.reduce.den_in", 0)
    den_out = c.get("laurent.FactoredFraction.reduce.den_out", 0)
    m["laurent.FactoredFraction.reduce.cancel_ratio"] = (ratio(den_in - den_out, den_in), "ratio")
    m["mc.motivic_chern.repeat_ratio"] = (
        ratio(c.get("mc.motivic_chern.repeats", 0), calls.get("mc.motivic_chern", 0)), "ratio")
    m["cli.import_s"] = (statistics.median(traced["import_s"]) if traced["import_s"] else 0.0, "s")
    m["cli._emit.bytes"] = (traced["emit_bytes"] if calls.get("cli._emit") else 0, "bytes")
    m["trace.spans"] = (t["spans"], "count")
    # raw wall times, like the spans' self times they are compared with
    m["trace.solve_s"] = (traced["solve_wall_s"], "s")
    m["trace.untraced_solve_s"] = (untraced["solve_wall_s"], "s")
    m["trace.overhead"] = (traced["solve_wall_s"] / untraced["solve_wall_s"] - 1, "ratio")
    return m


def record_reference(workload, run_dir, deadline):
    """Run every query once in canonical order and store its output digests."""
    if workload == workloads.CLI:
        res = cli_session(list(workloads.CLI_COMMANDS), run_dir, deadline)
        pass1, pass2 = res["passes"]
        ref = {r["op"]: workloads.digest(r["artifact"]) for r in pass1}
        bad = cli_failures(pass1, pass2, ref, load_golden())
    else:
        res = library_iteration(workload, [], run_dir, deadline)
        ref = {e["op"]: e["digest"] for e in res["ops"]}
        bad = [e["op"] for e in res["ops"] if e["error"] or not e["ok"]]
    if bad:
        raise BenchError(f"not recording a reference with failed queries: {bad}")
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[workload] = dict(sorted(ref.items()))
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ref)} reference digests for {workload}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the reference digests of the workload and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "schubmc").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()), "commit": git_commit(),
        "started_unix": time.time(),
    }
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
    deadline = Deadline(RUN_LIMIT_S)
    try:
        meta["backend"] = warm_up(run_dir, deadline)
        if args.record:
            record_reference(args.workload, run_dir, deadline)
            return 0
        run = Run(args.workload, args.seed, run_dir, deadline,
                  0.0 if args.trace else PROBE_EVERY_S)
        record = dict(meta)
        if args.trace:
            untraced = run.iterate()
            spans = OUT / f"spans-{args.workload}-seed{args.seed}"
            if not run.is_cli:
                spans = spans.with_suffix(".tsv.gz")
            traced = run.iterate(spans=spans)
            metrics = per_layer(untraced, traced)
            record["spans"] = str(spans.relative_to(ROOT))
        else:
            # set-up samples before and after the timed loop, so they see the
            # host in more than one period
            setup = setup_samples(args.workload, run_dir, deadline, SETUP_SAMPLES // 2)
            t_start = time.perf_counter()
            while True:
                it = run.iterate()
                elapsed = time.perf_counter() - t_start
                if elapsed + it["wall_s"] > args.seconds or \
                        deadline.remaining() < 3 * it["wall_s"]:
                    break
            setup += setup_samples(args.workload, run_dir, deadline,
                                   SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics, record["samples"] = end_to_end(run.iterations, setup)
            record["setup_samples_s"] = setup
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result)
    record["ops_failed_frac"] = len(run.failures) / run.attempted
    record["failures"] = run.failures
    record["iterations"] = [
        {k: v for k, v in it.items() if k not in ("latencies",)} for it in run.iterations
    ]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: {len(run.iterations)} iteration(s), "
          f"{run.attempted} queries, {len(run.failures)} failed; record in "
          f"{path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
