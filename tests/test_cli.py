import json
import os
import pathlib
import subprocess
import sys

import pytest

from schubmc import cli
from schubmc.cli import main

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
    ],
)
def test_golden_files(args, golden, tmp_path):
    code, text = run_cli(args, tmp_path)
    assert code == 0
    path = GOLDEN / golden
    assert text == path.read_text(), f"golden mismatch for {golden}"


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
    assert main(["csm", "--type", "A2", "--cell", "s1", "--parabolic", "5"]) == 2
    assert main(["csm", "--type", "A2", "--cell", "s1", "--parabolic", "1"]) == 2
    code, _ = run_cli(
        ["conjectures", "run", "--type", "A2", "--which", "mc-positivity"], tmp_path
    )
    assert code == 0
    code, _ = run_cli(["verify", "--type", "A1"], tmp_path)
    assert code == 0
    code, _ = run_cli(["mc", "verify", "--type", "A2", "--which", "duality"], tmp_path)
    assert code == 0


def test_parabolic_compute(tmp_path):
    code, text = run_cli(
        ["mc", "compute", "--type", "A2", "--cell", "s2s1", "--parabolic", "2"], tmp_path
    )
    assert code == 0
    obj = json.loads(text)
    assert obj["space"] == "A2/P[2]"
    assert obj["cell"] == "s2s1"


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


def test_console_script_entry():
    # the child finds the package where this process did, installed or not
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "schubmc.cli", "chi", "--type", "A2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["chi"]["coeffs"] == ["1", "2", "2", "1"]
