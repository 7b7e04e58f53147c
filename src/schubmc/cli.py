"""Command-line entry point: compute classes, run verifications, write JSON.

Artifacts are canonical: coefficients are emitted in the fixed term order and
Weyl elements are keyed by their minimal reduced words, so identical configs
produce byte-identical output.  Exit codes: 0 success, 1 a conjecture or
verification was refuted, 2 invalid configuration or internal failure.

Each command pays only for its own work.  An artifact is the text of
``json.dumps(payload, indent=2)`` plus a newline, streamed to its output by
``_emit``: the small envelope first, then one coefficient at a time, each
coefficient's text built straight from its polynomial's packed terms (a
``_Leaf``), so neither a tree of the terms nor the whole text is ever held.
Everything else is written by ``_write``, a direct recursive writer with
the stdlib's bytes (``_dumps`` is its string form); the small report
payloads of ``conjectures`` and ``verify`` have no leaves.  With
``SCHUBMC_CACHE_DIR`` set, ``mc compute`` streams the text (without the
newline) into its cache file and copies the file to the output in chunks; a
hit is parsed to check it is a payload and then copied the same way, before
any engine is built.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import __version__
from . import conjectures as conj
from . import mc as mcmod
from .cohomology import GKMError, cohomology, csm_expansion, csm_vector
from .hecke import t_word
from .hirzebruch import TruncationError, hirzebruch
from .kclasses import IntegralityError, ktheory
from .roots import RootSystemError, cell_order, parse_type, root_system


class ConfigError(ValueError):
    pass


def _root_system(args):
    lie_type, rank = parse_type(args.type)
    return root_system(lie_type, rank)


def _subset(spec):
    """Simple-root indices of a comma-separated --parabolic value."""
    try:
        return [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse parabolic subset {spec!r}")


def _parabolic(rs, spec):
    if not spec:
        return None
    return rs.parabolic(_subset(spec))


def _refuse(args, names, what):
    """ConfigError naming each flag of ``names`` that is set: ``what`` would ignore it."""
    # a flag is set unless it holds its default, None, False or "" (--maxlen 0 is set)
    values = {name: getattr(args, name) for name in names}
    given = [f"--{n}" for n, v in values.items() if v is not None and v is not False and v != ""]
    if given:
        raise ConfigError(f"{what} does not take {', '.join(given)}")


_INTS = {int}


def _key(k):
    """A dict key as ``json.dumps`` writes it: a string, or an int, float, bool or None as text."""
    if isinstance(k, str):
        return _escape(k)
    if isinstance(k, (int, float)) or k is None:
        return _escape(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(o, nl, put):
    """Pass the pieces of ``o``'s indent-2 JSON text to ``put``; ``nl`` is a
    newline and the indent of the line ``o`` starts on."""
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        lead, sep = "{" + inner, "," + inner
        for k, v in o.items():
            head = lead + (_escape(k) if type(k) is str else _key(k)) + ": "
            # exact str and int values, most of every payload, are written in line
            if type(v) is str:
                put(head + _escape(v))
            elif type(v) is int:
                put(head + int.__repr__(v))
            else:
                put(head)
                _write(v, inner, put)
            lead = sep
        put(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        if set(map(type, o)) == _INTS:  # an exponent vector: one join
            put(_items(list(map(int.__repr__, o)), nl))
            return
        inner = nl + "  "
        lead, sep = "[" + inner, "," + inner
        for v in o:
            put(lead)
            _write(v, inner, put)
            lead = sep
        put(nl + "]")
    elif isinstance(o, str):
        put(_escape(o))
    elif type(o) is _Leaf:
        put(o.text(*o.args, nl))
    else:
        put(json.dumps(o))  # int, float, bool or None; TypeError for anything else


def _dumps(obj):
    """Exactly ``json.dumps(obj, indent=2)``, without the stdlib's pure-Python
    indented encoder: strings go through its C escaper."""
    parts = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


class _Leaf:
    """A payload value whose text is built only as it is written:
    ``text(*args, nl)``, from a polynomial's packed terms."""

    __slots__ = ("text", "args")

    def __init__(self, text, *args):
        self.text = text
        self.args = args


def _items(texts, nl):
    """The text of a list whose items have the given texts, on a line opened by ``nl``."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]" if texts else "[]"


def _rows_text(rows, nexp, y, nl):
    """The text of a term list ``[{"exp": [...], "y": ..., "coeff": "..."}, ...]``
    (``"y"`` only when ``y``) on a line opened by ``nl``: ``rows`` yields each
    term's ``nexp`` exponents (then its y power) and its coefficient."""
    i1 = nl + "  "
    i2 = i1 + "  "
    row = "{" + i2 + '"exp": ' + _items(["%d"] * nexp, i2) + ("," + i2 + '"y": %d' if y else "")
    row += "," + i2 + '"coeff": %s' + i1 + "}"
    return _items([row % (*r, _escape(str(c))) for r, c in rows], nl)


def _laurent_text(p, nl):
    """A Laurent polynomial's terms, each with its y power."""
    return _rows_text(p.term_rows(), p.nvars, True, nl)


def _poly_text(p, varnames, nl):
    """``{"vars": varnames, "terms": [...]}`` of a ``Poly``."""
    i1 = nl + "  "
    names = _items([_escape(v) for v in varnames], i1)
    terms = _rows_text(p.sorted_terms(), p.nvars, False, i1)
    return "{" + i1 + '"vars": ' + names + "," + i1 + '"terms": ' + terms + nl + "}"


def _ypoly_text(p, nl):
    """``{"offset": ..., "coeffs": [...]}`` of a ``YPolynomial``."""
    i1 = nl + "  "
    coeffs = _items([_escape(str(c)) for c in p.coeffs], i1)
    return "{" + i1 + '"offset": %d,' % p.offset + i1 + '"coeffs": ' + coeffs + nl + "}"


def _emit(args, payload):
    """Write the artifact and its final newline to ``--out`` or stdout, piece
    by piece: a payload, or the path of the cache file that holds its text
    (a cached ``mc compute``), copied in chunks."""
    out = getattr(args, "out", None)
    try:
        if out:
            fh = open(out, "w")
            try:
                with fh:
                    _stream(payload, fh.write)
            except BaseException:
                # a failure midway leaves no partial artifact
                _remove(out)
                raise
        else:
            _stream(payload, sys.stdout.write)
            sys.stdout.flush()
    except OSError as exc:
        where = f"--out {out}" if out else "the artifact to stdout"
        raise ConfigError(f"cannot write {where}: {exc.strerror}")


def _remove(path):
    """Delete a partly written file: never a device, a pipe or a link, such
    as ``--out /dev/null``."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
    except OSError:
        pass


def _stream(payload, put):
    """Pass the artifact's text and its final newline to ``put``."""
    if isinstance(payload, str):
        with open(payload) as fh:
            while chunk := fh.read(1 << 16):
                put(chunk)
    else:
        _write(payload, "\n", put)
    put("\n")


# Bump when the layout of a cached payload changes.
_CACHE_SCHEMA = "1"


def _cache_path(kind, key):
    root = os.environ.get("SCHUBMC_CACHE_DIR")
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use SCHUBMC_CACHE_DIR {root}: {exc.strerror}")
    import hashlib  # here, not at the top: only a cached command pays its import

    # a file written by another version or schema hashes elsewhere: never served
    stamped = f"schubmc {__version__} schema {_CACHE_SCHEMA}\n{key}"
    digest = hashlib.sha256(stamped.encode()).hexdigest()[:24]
    return os.path.join(root, f"{kind}-{digest}.json")


# the keys of every payload of ``cmd_mc``, the one cached command
_PAYLOAD_KEYS = frozenset({"space", "cell", "basis", "coeffs"})


def _cached_json(kind, key, builder):
    """What ``_emit`` writes for builder()'s payload: the path of its cache
    file, which holds its text without the final newline, or without a cache
    the payload itself.  A file that is missing, unreadable or not a payload
    is written again from builder()."""
    path = _cache_path(kind, key)
    if not path:
        return builder()
    try:
        with open(path) as fh:
            cached = json.load(fh)
        if isinstance(cached, dict) and _PAYLOAD_KEYS <= cached.keys():
            return path
    except (FileNotFoundError, ValueError):
        pass
    except OSError as exc:
        raise ConfigError(f"cannot read cache file {path}: {exc.strerror}")
    payload = builder()
    # a reader never sees a partly written file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            _write(payload, "\n", fh.write)
        os.replace(tmp, path)
    except BaseException as exc:
        _remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write cache file {path}: {exc.strerror}")
        raise
    return path


# -- subcommand: mc ------------------------------------------------------------------


def cmd_mc(args):
    rs = _root_system(args)
    if args.action == "compute":
        _refuse(args, ["which"], "mc compute")
        w = rs.parse_element(args.cell)
        # validated here, built on a miss: a ParabolicDatum enumerates W
        subset = rs.parabolic_subset(_subset(args.parabolic)) if args.parabolic else None
        if subset is not None:
            # the G/P class is the iota-basis MC class; nothing else is computed there
            _refuse(args, ["dual", "opposite", "nonequivariant", "basis"], "--parabolic")

        def build():
            kt = ktheory(rs)
            if subset is not None:
                pd = rs.parabolic(subset)
                u = pd.min_rep(w)
                cls = mcmod.motivic_chern_parabolic(kt, pd, u)
                coeffs = {
                    v.name(): _Leaf(_laurent_text, cls.coeffs[v].reduce().num)
                    for v in sorted(cls.coeffs, key=cell_order)
                }
                return {"space": f"{rs.lie_type}{rs.rank}/P{sorted(pd.subset)}",
                        "cell": u.name(), "basis": "iota", "coeffs": coeffs}
            basis = args.basis or "O"
            if args.dual:
                exp = kt.expand(mcmod.dual_motivic_chern(kt, w, opposite=args.opposite), basis)
            else:
                exp = mcmod.mc_expansion(kt, w, basis)
            if args.nonequivariant:
                ne = exp.nonequivariant()
                coeffs = {u.name(): _Leaf(_ypoly_text, ne[u]) for u in sorted(ne, key=cell_order)}
            else:
                coeffs = {u.name(): _Leaf(_laurent_text, c) for u, c in exp.items()}
            return {
                "space": f"{rs.lie_type}{rs.rank}",
                "cell": w.name(),
                "dual": args.dual,
                "opposite": args.opposite,
                "basis": basis,
                "nonequivariant": bool(args.nonequivariant),
                "coeffs": coeffs,
            }

        key = json.dumps([args.type, args.cell, args.dual, args.opposite, args.basis or "O",
                          bool(args.nonequivariant), args.parabolic or ""])
        _emit(args, _cached_json("mc", key, build))
        return 0
    if args.action == "verify":
        _refuse(args, ["parabolic", "dual", "opposite", "nonequivariant", "basis"], "mc verify")
        return _run_mc_verify(args, rs, ktheory(rs))
    raise ConfigError(f"unknown mc action {args.action!r}")


def _run_mc_verify(args, rs, kt):
    which = args.which.split(",") if args.which else ["duality", "specialize", "star"]
    report = {"system": f"{rs.lie_type}{rs.rank}", "checks": {}}
    failed = False
    W = rs.weyl_group()
    for name in map(str.strip, which):
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
                    mcmod.segre_mc(kt, w)
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
        vec = csm_vector(cohomology(rs), w)
        if pd is not None:
            keep = set(pd.min_reps)
            vec = {u: c for u, c in vec.items() if u in keep}
        coeffs = {u.name(): vec[u] for u in sorted(vec, key=cell_order)}
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
            u.name(): _Leaf(_poly_text, exp[u], varnames) for u in sorted(exp, key=cell_order)
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
    for u in sorted(cls.coeffs, key=cell_order):
        coeffs[u.name()] = {
            str(d): _Leaf(_poly_text, p, varnames) for d, p in cls.coeffs[u].comps.items()
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
        "terms": {u.name(): _Leaf(_laurent_text, p) for u, p in el.items()},
    }
    _emit(args, payload)
    return 0


# -- subcommand: chi ----------------------------------------------------------------------


def cmd_chi(args):
    rs = _root_system(args)
    # validated without a ParabolicDatum, which enumerates W: without a cell,
    # chi is Macdonald's product and W is never enumerated
    subset = rs.parabolic_subset(_subset(args.parabolic)) if args.parabolic else None
    cell = rs.parse_element(args.cell) if args.cell else None
    parabolic = subset
    if cell is not None and subset is not None:
        # a cell of G/P is named by its minimal representative, as in mc compute
        parabolic = rs.parabolic(subset)
        cell = parabolic.min_rep(cell)
    chi = mcmod.chi_minus_q(rs, parabolic, cell)
    payload = {
        "space": f"{rs.lie_type}{rs.rank}" + (f"/P{list(subset)}" if subset is not None else ""),
        "cell": cell.name() if cell else None,
        "variable": "q",
        "chi": _Leaf(_ypoly_text, chi),
    }
    _emit(args, payload)
    return 0


# -- subcommand: conjectures ----------------------------------------------------------------


def cmd_conjectures(args):
    rs = _root_system(args)
    if args.maxlen is not None and args.maxlen < 0:
        # a negative bound selects no cell, and would verify vacuously
        raise ConfigError(f"--maxlen must be nonnegative, got {args.maxlen}")
    values = {"parabolic": _subset(args.parabolic or "") or None, "maxlen": args.maxlen}
    takers = {"parabolic": ("csm-positivity", "h-unimodality", "euler-alternation"),
              "maxlen": ("mc-positivity", "mc-log-concavity")}
    which = [n.strip() for n in args.which.split(",")] if args.which else sorted(conj.CHECKERS)
    for name in which:
        if name not in conj.CHECKERS:
            raise ConfigError(f"unknown conjecture checker {name!r}")
        if args.which:  # the default list passes each flag to the checkers that take it
            _refuse(args, [flag for flag in takers if name not in takers[flag]], name)
    reports = []
    refuted = False
    for name in which:
        kwargs = {flag: values[flag] for flag in takers if name in takers[flag]}
        rep = conj.CHECKERS[name](rs, **kwargs)
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
    mc.add_argument("--basis", choices=["O", "I", "iota", "Oop", "Iop"], help="default: O")
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
    except (IntegralityError, GKMError, TruncationError, OverflowError) as exc:
        # a class that does not exist over the requested ring, or weights past
        # the packed kernel's digit range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # a command past this process's memory or stack is refused, not refuted
        failure = f"{type(exc).__name__}: {str(exc) or 'out of memory'}"
    # reported once the except clause has dropped the traceback, and with it
    # the frames that held the memory
    print(f"error: {failure}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
