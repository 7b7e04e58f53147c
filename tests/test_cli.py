import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubmc import cli
from schubmc.cli import main
from schubmc.hirzebruch import Hirzebruch
from schubmc.roots import cell_order, parse_type, root_system

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


@pytest.mark.parametrize(
    "args,golden",
    [
        (["mc", "compute", "--type", "A1", "--cell", "s1"], "mc_a1_s1.json"),
        (
            ["mc", "compute", "--type", "A2", "--cell", "s1s2"],
            "mc_a2_s1s2.json",
        ),
        (
            ["mc", "compute", "--type", "A2", "--cell", "s1", "--dual", "--opposite",
             "--basis", "Oop", "--nonequivariant"],
            "mcdual_a2_s1.json",
        ),
        (["chi", "--type", "A3"], "chi_a3.json"),
        (["chi", "--type", "A3", "--parabolic", "1,3"], "chi_gr24.json"),
        (["hecke", "expand", "--type", "A2", "--element", "s2s1"], "hecke_a2_s2s1.json"),
        (["csm", "--type", "A2", "--cell", "s1s2", "--nonequivariant"], "csm_a2_s1s2.json"),
        (["hirzebruch", "--type", "A1", "--cell", "s1", "--cap", "4"], "hz_a1_s1.json"),
        (
            ["hirzebruch", "--type", "A2", "--cell", "s1s2", "--normalized", "--cap", "4"],
            "hz_a2_s1s2_norm.json",
        ),
        (["csm", "--type", "B2", "--cell", "w0"], "csm_b2_w0.json"),
        (
            ["csm", "--type", "B3", "--cell", "w0", "--nonequivariant"],
            "csm_b3_w0_noneq.json",
        ),
    ],
)
def test_golden_files(args, golden, tmp_path):
    code, text = run_cli(args, tmp_path)
    assert code == 0
    path = GOLDEN / golden
    assert text == path.read_text(), f"golden mismatch for {golden}"


# sha256 of the `hirzebruch` artifacts of every cell (default cap), concatenated in
# cell_order, as written when a Poly kept one int, Fraction or YFrac coefficient
# per term.  No Poly they emitted mixed an int or a Fraction with YFracs, so the
# lifted form, which reads every coefficient as a YFrac, prints them unchanged.
_HIRZEBRUCH_DIGESTS = {
    ("A2", False): "5d33d2728d1205f39eece940e2e713f089fb47716e2bd7e93f2e9e4553641f41",
    ("A2", True): "dfdd018dd069fec89046d1e5303e722b5e65319806f30a0066884f25aceb3804",
    ("B2", False): "4a1d781b798a87f99875064207f6c5e6bebd4b0c3b231e3c48d4c4fae9dc65e4",
    ("B2", True): "66379bef76b34009c9597b09e1e4a43f90247f96e3f34a23b59738e5efe4e9a9",
    ("G2", False): "48fb2cdfb55a3a093e8e314218c1fa2f5b50d19cfce01108217057df6decf2b0",
    ("G2", True): "a16e6890e48a6227e1a3adaff30e20073d585ffce2bd2ba3710b5f518d1c03f5",
    ("A3", False): "1297e25241d7bf222e1d027be7522ed18508d8af62901f458739ee44283cfc1b",
    ("A3", True): "47634a9d297b4b62d92605db9b36d875287769d56061c225716af266066d2515",
}


@pytest.mark.parametrize("space,normalized", sorted(_HIRZEBRUCH_DIGESTS))
def test_hirzebruch_artifacts_of_every_cell_keep_their_bytes(space, normalized, tmp_path):
    rs = root_system(*parse_type(space))
    digest = hashlib.sha256()
    for w in sorted(rs.weyl_group(), key=cell_order):
        args = ["hirzebruch", "--type", space, "--cell", w.name()]
        code, text = run_cli(args + ["--normalized"] * normalized, tmp_path)
        assert code == 0
        digest.update(text.encode())
    assert digest.hexdigest() == _HIRZEBRUCH_DIGESTS[space, normalized]


def test_byte_stable_across_runs(tmp_path):
    args = ["mc", "compute", "--type", "A2", "--cell", "s2s1"]
    _, first = run_cli(args, tmp_path, "a.json")
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second


def test_exit_codes(tmp_path, capsys):
    assert main(["mc", "compute", "--type", "Q7", "--cell", "s1"]) == 2
    assert main(["mc", "compute", "--type", "A2", "--cell", "s9"]) == 2
    assert main(["conjectures", "run", "--type", "A2", "--which", "nope"]) == 2
    assert main(["hirzebruch", "--type", "A1", "--cell", "s1", "--cap", "-3"]) == 2
    maxlen = ["conjectures", "run", "--type", "A2", "--which", "mc-positivity", "--maxlen"]
    assert main(maxlen + ["-1"]) == 2
    # every listed checker gets the bound, whatever the spacing of the list
    code, text = run_cli(maxlen[:-2] + ["mc-positivity, mc-log-concavity", "--maxlen", "1"], tmp_path)
    assert code == 0
    assert [r["notes"]["maxlen"] for r in json.loads(text)["reports"]] == [1, 1]
    # and both verify suites run every check of a spaced list
    for verify in (["mc", "verify"], ["verify"]):
        code, text = run_cli(verify + ["--type", "A1", "--which", "duality, star"], tmp_path)
        assert code == 0
        assert list(json.loads(text)["checks"]) == ["duality", "star"]
    assert main(["csm", "--type", "A2", "--cell", "s1", "--parabolic", "5"]) == 2
    csm_positivity = ["conjectures", "run", "--type", "A2", "--which", "csm-positivity"]
    assert main(csm_positivity + ["--parabolic", "z"]) == 2
    # an --out that cannot be written is a bad flag, not a refutation
    missing = str(tmp_path / "missing" / "x.json")
    assert main(["mc", "compute", "--type", "A2", "--cell", "s1", "--out", missing]) == 2
    assert main(["csm", "--type", "A2", "--cell", "s1", "--parabolic", "1"]) == 2
    # a class with no polynomial iota coefficients is an invalid request, not a
    # refutation; this case stands only until --basis iota emits its denominators
    capsys.readouterr()
    assert main(["mc", "compute", "--type", "A2", "--cell", "s1", "--basis", "iota"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    code, _ = run_cli(
        ["conjectures", "run", "--type", "A2", "--which", "mc-positivity"], tmp_path
    )
    assert code == 0
    code, _ = run_cli(["verify", "--type", "A1"], tmp_path)
    assert code == 0
    code, _ = run_cli(["mc", "verify", "--type", "A2", "--which", "duality"], tmp_path)
    assert code == 0
    # a flag that the command or a checker named in --which would ignore is invalid
    capsys.readouterr()
    conjectures = ["conjectures", "run", "--type", "A2", "--which"]
    for args, refused in [
        (conjectures + ["richardson-positivity", "--parabolic", "1"], "--parabolic"),
        (conjectures + ["mc-positivity", "--parabolic", "1"], "--parabolic"),
        (conjectures + ["csm-positivity,mc-log-concavity", "--parabolic", "1"], "--parabolic"),
        (conjectures + ["h-unimodality", "--maxlen", "1"], "--maxlen"),
        (conjectures + ["euler-alternation", "--maxlen", "0"], "--maxlen"),
        (["mc", "verify", "--type", "A1", "--which", "duality", "--parabolic", "1", "--basis",
          "I", "--dual"], "--parabolic, --dual, --basis"),
        (["mc", "verify", "--type", "A1", "--opposite"], "--opposite"),
        (["mc", "verify", "--type", "A1", "--nonequivariant"], "--nonequivariant"),
        (["mc", "compute", "--type", "A1", "--cell", "s1", "--which", "star"], "--which"),
    ]:
        assert main(args) == 2, args
        assert f"does not take {refused}" in capsys.readouterr().err
    # the default list passes each flag only to the checkers that take it
    code, text = run_cli(["conjectures", "run", "--type", "A2", "--parabolic", "1"], tmp_path)
    assert code in (0, 1)
    assert {r["conjecture"]: r["parabolic"] for r in json.loads(text)["reports"]} == {
        "csm-positivity": [1], "euler-alternation": [1], "h-unimodality": [1],
        "mc-log-concavity": [], "mc-positivity": [], "richardson-positivity": [],
    }


def test_parabolic_compute(tmp_path):
    code, text = run_cli(
        ["mc", "compute", "--type", "A2", "--cell", "s2s1", "--parabolic", "2"], tmp_path
    )
    assert code == 0
    obj = json.loads(text)
    assert obj["space"] == "A2/P[2]"
    assert obj["cell"] == "s2s1"


@pytest.mark.parametrize(
    "extra", [["--dual"], ["--opposite"], ["--nonequivariant"], ["--basis", "I"], ["--basis", "O"]]
)
def test_parabolic_compute_rejects_flags_it_ignores(extra, capsys):
    # the G/P route computes the iota-basis class only; a flag it would ignore is invalid
    args = ["mc", "compute", "--type", "A2", "--cell", "s2s1", "--parabolic", "1"]
    assert main(args + extra) == 2
    assert "--parabolic does not take " + extra[0] in capsys.readouterr().err


def test_cache_dir_round_trip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    args = ["mc", "compute", "--type", "A2", "--cell", "s1s2"]
    _, first = run_cli(args, tmp_path, "a.json")
    assert any(cache.iterdir())
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second
    # an unreadable cache file is a miss: recomputed, same bytes, exit 0
    for path in cache.iterdir():
        path.write_text("{corrupt")
    code, third = run_cli(args, tmp_path, "c.json")
    assert code == 0
    assert third == first
    _, fourth = run_cli(args, tmp_path, "d.json")
    assert fourth == first


def test_cache_dir_that_is_a_file_is_refused(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    code, text = run_cli(["mc", "compute", "--type", "A2", "--cell", "s1s2"], tmp_path)
    assert code == 2 and text is None
    assert capsys.readouterr().err.startswith("error: cannot use SCHUBMC_CACHE_DIR")


def test_directory_at_the_cache_file_path_is_refused(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    args = ["mc", "compute", "--type", "A2", "--cell", "s1s2"]
    run_cli(args, tmp_path, "a.json")
    (path,) = cache.iterdir()
    path.unlink()
    path.mkdir()
    code, text = run_cli(args, tmp_path, "b.json")
    assert code == 2 and text is None
    assert capsys.readouterr().err.startswith("error: cannot read cache file")


def test_cached_json_that_is_not_a_payload_is_a_miss(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    args = ["mc", "compute", "--type", "A2", "--cell", "s1s2"]
    run_cli(args, tmp_path, "a.json")
    (path,) = cache.iterdir()
    path.write_text("[1, 2]")
    code, text = run_cli(args, tmp_path, "b.json")
    assert code == 0
    assert text == (GOLDEN / "mc_a2_s1s2.json").read_text()
    # the recomputed payload replaced the file
    assert json.loads(path.read_text())["cell"] == "s1s2"


@pytest.mark.parametrize("name,other", [("__version__", "0.0.0"), ("_CACHE_SCHEMA", "0")])
def test_cache_from_other_key_ignored(name, other, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    args = ["mc", "compute", "--type", "A2", "--cell", "s1s2"]
    with monkeypatch.context() as m:
        m.setattr(cli, name, other)
        run_cli(args, tmp_path, "old.json")
    (stale,) = cache.iterdir()
    # a valid payload that would change the output if it were served
    stale.write_text(json.dumps({"stale": True}))
    code, text = run_cli(args, tmp_path, "new.json")
    assert code == 0
    assert text == (GOLDEN / "mc_a2_s1s2.json").read_text()
    assert len(list(cache.iterdir())) == 2


def _run_module(module):
    # the child finds the package where this process did, installed or not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "chi", "--type", "A2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["chi"]["coeffs"] == ["1", "2", "2", "1"]


def test_console_script_entry():
    _run_module("schubmc.cli")


def test_package_main_entry():
    _run_module("schubmc")


def _schubmc(*argv):
    """Run the CLI in a child process; returns (exit code, stdout, stderr, seconds)."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schubmc", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def test_chi_of_e8_does_not_enumerate_w():
    code, out, _, seconds = _schubmc("chi", "--type", "E8")
    assert code == 0 and seconds < 5
    coeffs = [int(c) for c in json.loads(out)["chi"]["coeffs"]]
    assert len(coeffs) == 121 and sum(coeffs) == 696729600  # |W(E8)|


@pytest.mark.parametrize("command", [
    f"{cmd} --type {t} --cell s1" for cmd in ("mc compute", "chi") for t in ("E7", "E8", "A8")
])
def test_commands_that_enumerate_a_huge_weyl_group_are_refused(command):
    code, out, err, seconds = _schubmc(*command.split())
    assert code == 2 and out == "" and seconds < 10
    assert len(err.splitlines()) == 1 and err.startswith("error: the Weyl group of")


@pytest.mark.parametrize("command", ["csm --type E7 --cell s1", "hecke expand --type E8 --element s1s2s3"])
def test_commands_that_never_enumerate_w_run_on_e7_and_e8(command):
    code, out, err, _ = _schubmc(*command.split())
    assert code == 0 and err == "" and json.loads(out)


@pytest.mark.parametrize("command,start", [
    ("hecke expand --type E7 --element w0", "error: the Bruhat interval below"),
    ("hecke expand --type E8 --element w0", "error: the Bruhat interval below"),
    ("hirzebruch --type E7 --cell s1 --cap 2", "error: an Euler class of E7"),
    ("hirzebruch --type D7 --cell s1 --cap 2", "error: an Euler class of D7"),
])
def test_commands_too_large_to_finish_are_refused(command, start):
    code, out, err, seconds = _schubmc(*command.split())
    assert code == 2 and out == "" and seconds < 10
    assert len(err.splitlines()) == 1 and err.startswith(start)


@pytest.mark.parametrize("command,element", [
    ("mc compute --type A2 --cell s1s1", "id"),
    ("csm --type A2 --cell s1s2s2", "s1"),
    ("hecke expand --type A3 --element s2s1s2s1", "s1s2"),
    ("chi --type A3 --cell s1s2s1s2", "s2s1"),
])
def test_a_cell_word_that_is_not_reduced_is_refused(command, element, capsys):
    # cells are named by reduced words: s1s1 is not a name of the identity cell
    assert main(command.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        f"error: {command.split()[-1]} is not a reduced word; it is the element {element}"
    ]


def test_hirzebruch_below_the_euler_class_limit_still_runs():
    code, out, err, _ = _schubmc("hirzebruch", "--type", "D5", "--cell", "s1", "--cap", "2")
    assert code == 0 and err == "" and json.loads(out)["space"] == "D5"


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_hirzebruch_below_the_codimension_is_answered_up_front(t, r, tmp_path, monkeypatch):
    # the class is zero exactly below the codimension, and there the artifact
    # answered up front equals the one the word route builds, byte for byte
    rs = root_system(t, r)
    dim = rs.num_positive_roots
    runs = [
        (w, cap, normalized)
        for w in rs.weyl_group()
        for cap in range(dim - w.length + 2)
        for normalized in (False, True)
    ]

    def artifacts():
        rs.clear_memo()
        out = []
        for w, cap, normalized in runs:
            args = ["hirzebruch", "--type", f"{t}{r}", "--cell", w.name(), "--cap", str(cap)]
            code, text = run_cli(args + ["--normalized"] * normalized, tmp_path)
            assert code == 0
            out.append(text)
        rs.clear_memo()
        return out

    up_front = artifacts()
    monkeypatch.setattr(Hirzebruch, "vanishes", lambda self, w, cap: False)
    built = artifacts()
    assert up_front == built
    for (w, cap, _), text in zip(runs, built):
        assert (json.loads(text)["coeffs"] == {}) == (cap < dim - w.length)


@pytest.mark.parametrize("lie_type,rank,spec", [("A", 2, "1"), ("A", 3, "1,3")])
def test_chi_names_a_parabolic_cell_by_its_minimal_representative(lie_type, rank, spec, tmp_path):
    rs = root_system(lie_type, rank)
    pd = rs.parabolic([int(i) for i in spec.split(",")])
    for w in rs.weyl_group():
        u = pd.min_rep(w)
        head = ["chi", "--type", f"{lie_type}{rank}", "--parabolic", spec, "--cell"]
        code, got = run_cli(head + [w.name()], tmp_path)
        assert code == 0
        _, want = run_cli(head + [u.name()], tmp_path, "min_rep.json")
        assert json.loads(got)["cell"] == u.name() and got == want, w.name()


@pytest.mark.parametrize("spec", ["0", "3", "1,x"])
def test_chi_rejects_a_bad_parabolic_before_enumerating(spec, tmp_path):
    code, _ = run_cli(["chi", "--type", "A2", "--parabolic", spec], tmp_path)
    assert code == 2


def _bench_cli_commands():
    """The command lines of the benchmark's cli-session, from bench/workloads.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.CLI_COMMANDS, workloads.GOLDEN


_COMMANDS, _GOLDEN_OF = _bench_cli_commands()
_A2_MC_COMPUTE = [c for c in _COMMANDS if c.startswith("mc compute --type A2 ")]


def _argv(command):
    """The arguments of a benchmark command line, without its --out."""
    return command.replace(" --out OUT", "").split()


@pytest.mark.parametrize("command", _A2_MC_COMPUTE)
def test_cold_and_hot_cache_runs_give_the_same_bytes(command, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    cold = run_cli(_argv(command), tmp_path, "cold.json")
    (path,) = cache.iterdir()
    written = path.read_bytes()
    hot = run_cli(_argv(command), tmp_path, "hot.json")
    assert cold == hot and cold[0] == 0
    # the file holds the artifact without its final newline, and a hit leaves it as it was
    assert cold[1] == written.decode() + "\n"
    assert path.read_bytes() == written
    if command in _GOLDEN_OF:
        assert cold[1] == (GOLDEN / _GOLDEN_OF[command]).read_text()


def _run_python(code, **env):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cache_hit_enumerates_no_weyl_group(tmp_path):
    commands = [_argv(c) for c in _A2_MC_COMPUTE + ["mc compute --type F4 --cell s1s2s3"]]

    def session(run):
        """One process running every command once, printing the root systems whose W it enumerated."""
        return json.loads(_run_python(f"""
import json
from schubmc.cli import main
from schubmc.hirzebruch import Hirzebruch
from schubmc.roots import RootSystem
calls = []
enumerate_w = RootSystem.weyl_group
RootSystem.weyl_group = lambda rs: calls.append(repr(rs)) or enumerate_w(rs)
for i, command in enumerate({commands!r}):
    if main(command + ["--out", {str(tmp_path)!r} + f"/{run}{{i}}.json"]) != 0:
        raise SystemExit(f"exit code of {{command}}")
print(json.dumps(calls))
""", SCHUBMC_CACHE_DIR=str(tmp_path / "cache")))

    assert "RootSystem(F4)" in session("miss")
    assert session("hit") == []
    for i in range(len(commands)):
        assert (tmp_path / f"miss{i}.json").read_bytes() == (tmp_path / f"hit{i}.json").read_bytes()


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    loaded = _run_python(
        "import sys; import schubmc.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules])"
    )
    assert loaded.strip() == "[]"


class _FailingStdout(io.StringIO):
    def __init__(self, fail):
        super().__init__()
        self.fail = fail

    def write(self, text):
        if self.fail == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.fail == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fail", ["write", "flush"])
def test_a_failed_stdout_write_is_a_bad_configuration(fail, monkeypatch, capsys):
    # a full disk or a closed pipe is exit 2, not a refutation, and no traceback
    monkeypatch.setattr(sys, "stdout", _FailingStdout(fail))
    assert main(["chi", "--type", "A2"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: cannot write the artifact to stdout: {os.strerror(errno.ENOSPC)}"
    ]


@pytest.mark.parametrize("exc", [MemoryError(), RecursionError("maximum recursion depth exceeded")])
def test_running_out_of_memory_or_stack_is_exit_2(exc, tmp_path, monkeypatch, capsys):
    # a builder past the process's memory or stack: one error line, no
    # traceback, exit 2 (1 means refuted), and no --out file
    def builder(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "hirzebruch", builder)
    out = tmp_path / "hz.json"
    assert main(["hirzebruch", "--type", "A2", "--cell", "w0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {type(exc).__name__}: {str(exc) or 'out of memory'}"]
    assert not out.exists()


@pytest.mark.parametrize("exc", [MemoryError, RecursionError, OSError])
@pytest.mark.parametrize("cached", [False, True])
def test_an_artifact_that_fails_midway_leaves_no_file(exc, cached, tmp_path, monkeypatch, capsys):
    # the envelope is written, then a coefficient's text fails: neither the
    # --out file nor a cache file (nor its temporary) is left behind
    def fail(*args):
        raise exc(errno.ENOSPC, os.strerror(errno.ENOSPC)) if exc is OSError else exc()

    cache = tmp_path / "cache"
    if cached:
        monkeypatch.setenv("SCHUBMC_CACHE_DIR", str(cache))
    monkeypatch.setattr(cli, "_laurent_text", fail)
    out = tmp_path / "mc.json"
    assert main(["mc", "compute", "--type", "A2", "--cell", "s1", "--out", str(out)]) == 2
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert not out.exists()
    assert not cache.exists() or not any(cache.iterdir())


def test_a_failed_artifact_removes_no_link(tmp_path, monkeypatch):
    # --out through a link (or a device such as /dev/null) is not the
    # program's own file: a failure midway leaves the link in place
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_laurent_text", fail)
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "target.json")
    assert main(["mc", "compute", "--type", "A2", "--cell", "s1", "--out", str(link)]) == 2
    assert link.is_symlink()


# -- every subcommand under random flag sets, malformed values included --------------------

_cell = st.sampled_from(["id", "s1", "s2", "s1s2", "s2s1", "w0", "s9", "s1s1", "x"])
_subset = st.sampled_from(["", "1", "2", "1,2", "0", "3", "x", "1,x"])


def _which(names):
    return st.lists(st.sampled_from(names + ["nope"]), min_size=1, max_size=3).map(",".join)


_verifications = _which(["duality", "specialize", "star", "parabolic", "segre"])
_switch = st.none()
_MC_FLAGS = {
    "--cell": _cell, "--basis": st.sampled_from(["O", "I", "iota", "Oop", "Iop", "Z"]),
    "--dual": _switch, "--opposite": _switch, "--nonequivariant": _switch,
    "--parabolic": _subset, "--which": _verifications,
}
_SUBCOMMANDS = {
    ("mc", "compute"): _MC_FLAGS,
    ("mc", "verify"): _MC_FLAGS,
    ("csm",): {"--cell": _cell, "--nonequivariant": _switch, "--parabolic": _subset},
    ("hirzebruch",): {"--cell": _cell, "--normalized": _switch,
                      "--cap": st.sampled_from(["-1", "0", "1", "3", "x"])},
    ("hecke", "expand"): {"--element": _cell},
    ("chi",): {"--parabolic": _subset, "--cell": _cell},
    ("conjectures", "run"): {"--which": _which(sorted(cli.conj.CHECKERS)), "--parabolic": _subset,
                             "--maxlen": st.sampled_from(["-3", "0", "1", "x"])},
    ("verify",): {"--which": _verifications},
}


@st.composite
def _command_line(draw):
    words = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flags = draw(st.fixed_dictionaries({}, optional=_SUBCOMMANDS[words]))
    lie_type = draw(st.sampled_from(["A1", "A2", "B2", "C2", "G2", "A0", "Q2", "B"]))
    argv = [*words, "--type", lie_type]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(_command_line(), st.booleans())
def test_every_command_line_exits_0_1_or_2_without_a_traceback(tmp_path_factory, argv, cached):
    out, err = io.StringIO(), io.StringIO()
    cache = str(tmp_path_factory.getbasetemp() / "fuzz-cache")
    env = {"SCHUBMC_CACHE_DIR": cache} if cached else {}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag or its value
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        # refused before any byte of the artifact was written
        assert out.getvalue() == "" and err.getvalue()
    else:
        json.loads(out.getvalue())
