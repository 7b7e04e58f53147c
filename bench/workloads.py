"""Workload definitions shared by the benchmark parent and its child processes.

Nothing here imports schubmc at module level: the parent never imports the
program, so every query runs in a fresh child whose memo tables start empty.
"""

import hashlib
import json
from fractions import Fraction

LIBRARY = ("fixed-point-a3", "hecke-a4", "gkm-hirzebruch")
CLI = "cli-session"
NAMES = LIBRARY + (CLI,)
# Runnable by hand but not listed in BENCHMARK.json: one hecke-a4 repetition
# takes 20-45 s here, so it cannot repeat within a run, and its runs would
# take a third of the benchmark's time budget.
MANUAL = ("hecke-a4",)

# Root systems each library workload builds (and enumerates W of) in set-up.
ROOT_SYSTEMS = {
    "fixed-point-a3": ("A3",),
    "hecke-a4": ("A4",),
    "gkm-hirzebruch": ("A3", "B3", "B2", "A2"),
}
HZ_CAP = 8

# The eight configs of tests/golden, byte-compared on every cli-session run.
GOLDEN = {
    "mc compute --type A1 --cell s1": "mc_a1_s1.json",
    "mc compute --type A2 --cell s1s2": "mc_a2_s1s2.json",
    "mc compute --type A2 --cell s1 --dual --opposite --basis Oop --nonequivariant":
        "mcdual_a2_s1.json",
    "chi --type A3": "chi_a3.json",
    "chi --type A3 --parabolic 1,3": "chi_gr24.json",
    "hecke expand --type A2 --element s2s1": "hecke_a2_s2s1.json",
    "csm --type A2 --cell s1s2 --nonequivariant": "csm_a2_s1s2.json",
    "hirzebruch --type A1 --cell s1 --cap 4": "hz_a1_s1.json",
}

# Distinct commands of one cli-session pass.  "OUT" is replaced by a file in
# the session's scratch directory; that file is the command's artifact.
CLI_COMMANDS = tuple(GOLDEN) + (
    # every mc compute flag form
    "mc compute --type A2 --cell s2s1 --basis I",
    "mc compute --type A2 --cell id --basis iota",
    "mc compute --type A2 --cell s2s1 --basis Oop",
    "mc compute --type A2 --cell s2s1 --basis Iop",
    "mc compute --type A2 --cell s1s2 --dual",
    "mc compute --type A2 --cell s1s2 --dual --opposite",
    "mc compute --type A2 --cell s2 --opposite",
    "mc compute --type A2 --cell w0 --nonequivariant",
    "mc compute --type A2 --cell s2s1 --parabolic 1",
    "mc compute --type A2 --cell s1s2 --parabolic 2",
    "mc compute --type A2 --cell s1 --out OUT",
    "mc compute --type B2 --cell s1s2",
    "mc compute --type B2 --cell w0 --basis I --nonequivariant",
    "mc compute --type G2 --cell s2",
    "mc compute --type A3 --cell s2s1 --parabolic 1,3",
    "mc compute --type A3 --cell w0",
    "mc compute --type F4 --cell s1s2s3",
    # csm
    "csm --type A2 --cell s1s2",
    "csm --type A2 --cell w0",
    "csm --type A2 --cell s2s1 --nonequivariant --parabolic 1",
    "csm --type B2 --cell s1s2",
    "csm --type B2 --cell w0 --nonequivariant",
    "csm --type B2 --cell s2 --out OUT",
    "csm --type B4 --cell s1s2",
    # hirzebruch
    "hirzebruch --type A2 --cell s1s2 --cap 8",
    "hirzebruch --type A2 --cell s1s2 --normalized --cap 8",
    "hirzebruch --type A2 --cell w0",
    "hirzebruch --type B2 --cell s1 --cap 6",
    # chi
    "chi --type A2",
    "chi --type B2",
    "chi --type B2 --parabolic 1",
    "chi --type A2 --cell s1s2",
    "chi --type G2",
    # conjectures and verification
    "conjectures run --type A2",
    "conjectures run --type B2",
    "conjectures run --type A2 --which mc-positivity --maxlen 2",
    "conjectures run --type B2 --which csm-positivity --parabolic 1",
    "verify --type A2",
    "verify --type A1",
    "mc verify --type A2 --which duality",
    # hecke
    "hecke expand --type A2 --element w0",
    "hecke expand --type B2 --element w0",
    "hecke expand --type G2 --element s1s2",
    "hecke expand --type B3 --element w0",
)


def canon(x):
    """JSON-ready canonical form of a schubmc result (order-independent)."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        # keys are unique and of one type, so the pairs sort by key alone
        return sorted([canon(k), canon(v)] for k, v in x.items())
    kind = type(x).__name__
    if kind == "WeylElement":
        return x.name()
    if kind == "LaurentPolynomial":
        return sorted([list(e), y, c] for (e, y), c in x.terms.items())
    if kind == "Poly":
        return sorted([list(e), canon(c)] for e, c in x.terms.items())
    if kind == "YFrac":
        return [canon(x.num), x.k]
    if kind == "GradedSeries":
        return [x.cap, canon(x.comps)]
    if kind == "HClass":
        return [x.normalized, canon(x.coeffs)]
    if kind == "SchubertExpansion":
        return [x.basis, canon(x.coeffs)]
    raise TypeError(f"no canonical form for {kind}")


def digest(data):
    """sha256 of bytes, or of the canonical JSON of a result."""
    if not isinstance(data, bytes):
        data = json.dumps(canon(data), separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()
