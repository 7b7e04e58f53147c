"""Command-line entry point: compute classes, run verifications, write JSON.

Artifacts are canonical: coefficients are emitted in the fixed term order and
Weyl elements are keyed by their minimal reduced words, so identical configs
produce byte-identical output.  Exit codes: 0 success, 1 a conjecture or
verification was refuted, 2 invalid configuration or internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from . import conjectures as conj
from . import mc as mcmod
from .cohomology import cohomology, csm_expansion, csm_vector
from .hecke import t_word
from .hirzebruch import hirzebruch
from .kclasses import ktheory
from .roots import RootSystemError, parse_type, root_system


class ConfigError(ValueError):
    pass


def _root_system(args):
    lie_type, rank = parse_type(args.type)
    return root_system(lie_type, rank)


def _parabolic(rs, spec):
    if not spec:
        return None
    try:
        subset = [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse parabolic subset {spec!r}")
    return rs.parabolic(subset)


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Bump when the layout of a cached payload changes.
_CACHE_SCHEMA = "1"


def _cache_path(kind, key):
    root = os.environ.get("SCHUBMC_CACHE_DIR")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    # a file written by another version or schema hashes elsewhere: never served
    stamped = f"schubmc {__version__} schema {_CACHE_SCHEMA}\n{key}"
    digest = hashlib.sha256(stamped.encode()).hexdigest()[:24]
    return os.path.join(root, f"{kind}-{digest}.json")


def _cached_json(kind, key, builder):
    """The cached payload, or builder() when the cache file is missing or unreadable."""
    path = _cache_path(kind, key)
    if path:
        try:
            with open(path) as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            pass
    payload = builder()
    if path:
        # a reader never sees a partly written file
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2)
        os.replace(tmp, path)
    return payload


def _ypoly_obj(p):
    return {"offset": p.offset, "coeffs": [str(c) for c in p.coeffs]}


def _poly_obj(p, varnames):
    out = []
    for k, v in sorted(p.terms.items(), reverse=True):
        out.append({"exp": list(k), "coeff": str(v)})
    return {"vars": varnames, "terms": out}


# -- subcommand: mc ------------------------------------------------------------------


def cmd_mc(args):
    rs = _root_system(args)
    kt = ktheory(rs)
    if args.action == "compute":
        w = rs.parse_element(args.cell)
        pd = _parabolic(rs, args.parabolic)

        def build():
            if pd is not None:
                u = pd.min_rep(w)
                cls = mcmod.motivic_chern_parabolic(kt, pd, u)
                coeffs = {
                    v.name(): c.reduce().num.to_json_obj() for v, c in sorted(
                        cls.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].word)
                    )
                }
                return {"space": f"{rs.lie_type}{rs.rank}/P{sorted(pd.subset)}",
                        "cell": u.name(), "basis": "iota", "coeffs": coeffs}
            rec = mcmod.motivic_record(kt, w, dual=args.dual, opposite=args.opposite)
            basis = args.basis
            exp = rec.expansion(basis)
            if args.nonequivariant:
                coeffs = {
                    u.name(): _ypoly_obj(p)
                    for u, p in sorted(exp.nonequivariant().items(), key=lambda kv: (kv[0].length, kv[0].word))
                }
            else:
                coeffs = {u.name(): c.to_json_obj() for u, c in exp.items()}
            return {
                "space": f"{rs.lie_type}{rs.rank}",
                "cell": w.name(),
                "dual": args.dual,
                "opposite": args.opposite,
                "basis": basis,
                "nonequivariant": bool(args.nonequivariant),
                "coeffs": coeffs,
            }

        key = json.dumps([args.type, args.cell, args.dual, args.opposite, args.basis,
                          bool(args.nonequivariant), args.parabolic or ""])
        _emit(args, _cached_json("mc", key, build))
        return 0
    if args.action == "verify":
        return _run_mc_verify(args, rs, kt)
    raise ConfigError(f"unknown mc action {args.action!r}")


def _run_mc_verify(args, rs, kt):
    which = args.which.split(",") if args.which else ["duality", "specialize", "star"]
    report = {"system": f"{rs.lie_type}{rs.rank}", "checks": {}}
    failed = False
    W = rs.weyl_group()
    for name in which:
        if name == "duality":
            bad = [
                (u.name(), v.name())
                for u in W
                for v in W
                if not mcmod.verify_mc_duality(kt, u, v)[0]
            ]
        elif name == "specialize":
            bad = []
            for w in W:
                for mode in ("y=-1", "y=0", "top"):
                    if not mcmod.specialize_mc(kt, w, mode)[2]:
                        bad.append((w.name(), mode))
                for mode in ("y=-1", "y=0"):
                    if not mcmod.specialize_dual_mc(kt, w, mode)[2]:
                        bad.append((w.name(), "dual " + mode))
        elif name == "star":
            bad = []
            for w in W:
                rep = mcmod.star_duality_report(kt, w)
                bad.extend((w.name(), k) for k, v in rep.items() if not v)
        elif name == "parabolic":
            bad = []
            for i in range(1, rs.rank + 1):
                pd = rs.parabolic([j for j in range(1, rs.rank + 1) if j != i])
                for w in W:
                    if not mcmod.check_pushforward_mc(kt, pd, w):
                        bad.append((w.name(), f"P{i}"))
        elif name == "segre":
            bad = []
            for w in W:
                try:
                    mcmod.segre_mc(kt, w, check=True)
                except mcmod.ConventionError:
                    bad.append((w.name(), "segre"))
        else:
            raise ConfigError(f"unknown verification {name!r}")
        report["checks"][name] = {"status": "ok" if not bad else "failed", "failures": bad}
        failed = failed or bool(bad)
    _emit(args, report)
    return 1 if failed else 0


# -- subcommand: csm ------------------------------------------------------------------


def cmd_csm(args):
    rs = _root_system(args)
    w = rs.parse_element(args.cell)
    pd = _parabolic(rs, args.parabolic)
    varnames = [f"a{i}" for i in range(1, rs.rank + 1)] + ["h"]
    if args.nonequivariant:
        kt = ktheory(rs)
        vec = csm_vector(kt, w)
        if pd is not None:
            keep = set(pd.min_reps)
            vec = {u: c for u, c in vec.items() if u in keep}
        coeffs = {
            u.name(): c for u, c in sorted(vec.items(), key=lambda kv: (kv[0].length, kv[0].word))
        }
        payload = {
            "space": f"{rs.lie_type}{rs.rank}" + (f"/P{sorted(pd.subset)}" if pd else ""),
            "cell": (pd.min_rep(w) if pd else w).name(),
            "basis": "schubert",
            "nonequivariant": True,
            "coeffs": coeffs,
        }
    else:
        if pd is not None:
            raise ConfigError("--parabolic requires --nonequivariant: no equivariant G/P CSM route")
        ctx = cohomology(rs)
        exp = csm_expansion(ctx, w)
        coeffs = {
            u.name(): _poly_obj(p, varnames)
            for u, p in sorted(exp.items(), key=lambda kv: (kv[0].length, kv[0].word))
        }
        payload = {
            "space": f"{rs.lie_type}{rs.rank}",
            "cell": w.name(),
            "basis": "schubert",
            "nonequivariant": False,
            "coeffs": coeffs,
        }
    _emit(args, payload)
    return 0


# -- subcommand: hirzebruch -------------------------------------------------------------


def cmd_hirzebruch(args):
    rs = _root_system(args)
    w = rs.parse_element(args.cell)
    if args.cap is not None and args.cap < 0:
        raise ConfigError(f"--cap must be nonnegative, got {args.cap}")
    cap = args.cap if args.cap is not None else 2 * rs.num_positive_roots
    hz = hirzebruch(rs, cap)
    cls = hz.hirzebruch_class(w, normalized=args.normalized, cap=cap)
    varnames = [f"a{i}" for i in range(1, rs.rank + 1)]
    coeffs = {}
    for u, s in sorted(cls.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].word)):
        coeffs[u.name()] = {
            str(d): _poly_obj(p.map_coefficients(lambda c: c), varnames)
            for d, p in sorted(s.comps.items())
        }
    payload = {
        "space": f"{rs.lie_type}{rs.rank}",
        "cell": w.name(),
        "normalized": bool(args.normalized),
        "cap": cap,
        "coeffs": coeffs,
    }
    _emit(args, payload)
    return 0


# -- subcommand: hecke -------------------------------------------------------------------


def cmd_hecke(args):
    rs = _root_system(args)
    w = rs.parse_element(args.element)
    el = t_word(rs, w)
    payload = {
        "system": f"{rs.lie_type}{rs.rank}",
        "element": w.name(),
        "terms": el.to_json_obj(),
    }
    _emit(args, payload)
    return 0


# -- subcommand: chi ----------------------------------------------------------------------


def cmd_chi(args):
    rs = _root_system(args)
    pd = _parabolic(rs, args.parabolic)
    cell = rs.parse_element(args.cell) if args.cell else None
    chi = mcmod.chi_minus_q(rs, pd, cell)
    payload = {
        "space": f"{rs.lie_type}{rs.rank}" + (f"/P{sorted(pd.subset)}" if pd else ""),
        "cell": cell.name() if cell else None,
        "variable": "q",
        "chi": _ypoly_obj(chi),
    }
    _emit(args, payload)
    return 0


# -- subcommand: conjectures ----------------------------------------------------------------


def cmd_conjectures(args):
    rs = _root_system(args)
    pd_spec = args.parabolic or ""
    which = args.which.split(",") if args.which else sorted(conj.CHECKERS)
    reports = []
    refuted = False
    for name in which:
        checker = conj.CHECKERS.get(name.strip())
        if checker is None:
            raise ConfigError(f"unknown conjecture checker {name!r}")
        kwargs = {}
        if name in ("csm-positivity", "h-unimodality", "euler-alternation"):
            kwargs["parabolic"] = [int(x) for x in pd_spec.split(",") if x] or None
        if name in ("mc-positivity", "mc-log-concavity") and args.maxlen is not None:
            kwargs["maxlen"] = args.maxlen
        rep = checker(rs, **kwargs)
        refuted = refuted or rep.status == "refuted"
        reports.append(rep.to_json_obj())
    _emit(args, {"system": f"{rs.lie_type}{rs.rank}", "reports": reports})
    return 1 if refuted else 0


# -- subcommand: verify ------------------------------------------------------------------------


def cmd_verify(args):
    args.which = args.which or "duality,specialize,star,segre"
    rs = _root_system(args)
    kt = ktheory(rs)
    return _run_mc_verify(args, rs, kt)


def build_parser():
    p = argparse.ArgumentParser(
        prog="schubmc",
        description="Exact equivariant motivic Chern, CSM, and Hirzebruch classes of Schubert cells.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("mc", help="motivic Chern classes")
    mc.add_argument("action", choices=["compute", "verify"])
    mc.add_argument("--type", required=True)
    mc.add_argument("--cell", default="id")
    mc.add_argument("--basis", default="O", choices=["O", "I", "iota", "Oop", "Iop"])
    mc.add_argument("--dual", action="store_true")
    mc.add_argument("--opposite", action="store_true")
    mc.add_argument("--nonequivariant", action="store_true")
    mc.add_argument("--parabolic", default="")
    mc.add_argument("--which", default="")
    mc.add_argument("--out")
    mc.set_defaults(fn=cmd_mc)

    csm = sub.add_parser("csm", help="CSM classes")
    csm.add_argument("--type", required=True)
    csm.add_argument("--cell", required=True)
    csm.add_argument("--nonequivariant", action="store_true")
    csm.add_argument("--parabolic", default="")
    csm.add_argument("--out")
    csm.set_defaults(fn=cmd_csm)

    hz = sub.add_parser("hirzebruch", help="Hirzebruch classes")
    hz.add_argument("--type", required=True)
    hz.add_argument("--cell", required=True)
    hz.add_argument("--normalized", action="store_true")
    hz.add_argument("--cap", type=int)
    hz.add_argument("--out")
    hz.set_defaults(fn=cmd_hirzebruch)

    hk = sub.add_parser("hecke", help="Hecke-algebra expansions")
    hk.add_argument("action", choices=["expand"])
    hk.add_argument("--type", required=True)
    hk.add_argument("--element", required=True)
    hk.add_argument("--out")
    hk.set_defaults(fn=cmd_hecke)

    chi = sub.add_parser("chi", help="chi_y genus (in the point-count variable q)")
    chi.add_argument("--type", required=True)
    chi.add_argument("--parabolic", default="")
    chi.add_argument("--cell", default="")
    chi.add_argument("--out")
    chi.set_defaults(fn=cmd_chi)

    cj = sub.add_parser("conjectures", help="batch conjecture verification")
    cj.add_argument("action", choices=["run"])
    cj.add_argument("--type", required=True)
    cj.add_argument("--which", default="")
    cj.add_argument("--parabolic", default="")
    cj.add_argument("--maxlen", type=int)
    cj.add_argument("--out")
    cj.set_defaults(fn=cmd_conjectures)

    vf = sub.add_parser("verify", help="identity verification suites")
    vf.add_argument("--type", required=True)
    vf.add_argument("--which", default="")
    vf.add_argument("--out")
    vf.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RootSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
