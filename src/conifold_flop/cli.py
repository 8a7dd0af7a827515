"""Command-line surface.

Every verification scenario is reachable as one invocation; output is an
aligned text table by default and canonical JSON with --json.  Identical
invocations print byte-identical JSON.

Exit codes: 0 on success, 1 when a verification-style check fails or a
computation raises a RuntimeError (a StabilizationError included), 2 on
bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, scan, verify
from .ainfty import mc_expand, stasheff_check
from .arcs import DEFAULT_SCENE, catalog_arc, dehn_twist_map, flop_map, invariants
from .exactcx import QC
from .homalg import (ExtensionDatum, build_extension, ext_dims, flop_point_analysis,
                     free_complex_cohomology, psi_sphere)
from .paths import relations
from .reps import Representation, StabilityParams, check_rep, flop_K, is_stable, make_catalog_rep
from .tables import table_sphere, table_sphere_m, table_torus
from .truncated import truncated_algebra


class CliError(ValueError):
    pass


def _parse_fracs(value, count):
    """``count`` rationals: comma-separated text from the command line, or a
    JSON list from a config file."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != count:
        raise CliError("expected %d comma-separated rationals, got %r" % (count, value))
    return [jsonio.parse_frac(t) for t in parts]


# largest chain length N accepted by --kind vplus:N (and vminus, vplus-dag,
# vminus-dag): the modules are built as dense matrices of about N x N, so
# an unbounded N could exhaust memory before any check runs
MAX_CHAIN_LENGTH = 64
# the cap of `ext`, whose Ext complex grows about as N^4.5 on chain self-pairs:
# at N = 20 one took 2.4-3.0 s in process (2-core x86, Python 3.11), at 22 3.6-5.0 s
MAX_EXT_CHAIN_LENGTH = 20


def _parse_kind(text, max_chain=MAX_CHAIN_LENGTH) -> Representation:
    def chain_length(t):
        n = int(t)
        if n > max_chain:
            raise CliError("chain length %d is above the limit of %d" % (n, max_chain))
        return n

    parts = text.split(":")
    name, args = parts[0], parts[1:]
    table = {
        "simple": ("simple", 1, int),
        "point": ("point", 2, jsonio.parse_frac),
        "point-flopped": ("point_flopped", 2, jsonio.parse_frac),
        "vplus": ("vplus", 1, chain_length),
        "vminus": ("vminus", 1, chain_length),
        "vplus-dag": ("vplus_dag", 1, chain_length),
        "vminus-dag": ("vminus_dag", 1, chain_length),
    }
    if name not in table:
        raise CliError("unknown kind %r (try simple:0, point:1:2, vplus:3, ...)" % name)
    kind, arity, conv = table[name]
    if len(args) != arity:
        raise CliError("kind %s needs %d parameter(s)" % (name, arity))
    try:
        return make_catalog_rep(kind, *[conv(a) for a in args])
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(str(exc))


def _load_rep(ns) -> Representation:
    if getattr(ns, "rep", None):
        with open(ns.rep) as fh:
            return jsonio.rep_from_json(json.load(fh))
    if getattr(ns, "kind", None):
        return _parse_kind(ns.kind)
    raise CliError("provide --rep FILE or --kind KIND")


def _load_params(ns, config) -> StabilityParams:
    z0 = ns.z0 or config.get("z0")
    z1 = ns.z1 or config.get("z1")
    if z0 is None or z1 is None:
        raise CliError("provide --z0 RE,IM and --z1 RE,IM (or a config file)")
    return StabilityParams(QC(*_parse_fracs(z0, 2)), QC(*_parse_fracs(z1, 2)))


def _load_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad text encoding
        raise CliError("bad config file: %s" % exc) from None
    if not isinstance(config, dict):
        raise CliError("bad config file: expected a JSON object, got a %s" % type(config).__name__)
    return config


def _load_scene(ns, config):
    if getattr(ns, "scene", None):
        with open(ns.scene) as fh:
            return jsonio.scene_from_json(json.load(fh))
    if "scene" in config:
        return jsonio.scene_from_json(config["scene"])
    return DEFAULT_SCENE


def _table_by_name(name):
    if name in ("sphere0", "L0", "sphere1", "L1"):
        return table_sphere(int(name[-1]))
    if name == "torus":
        return table_torus(1)
    if name.startswith("torus:"):
        return table_torus(jsonio.parse_frac(name.split(":", 1)[1]))
    if name.startswith("sphere:"):
        return table_sphere_m(int(name.split(":", 1)[1]))
    raise CliError("unknown table %r (sphere0, sphere1, torus:RHO, sphere:M)" % name)


def _emit(ns, payload, text_lines):
    if ns.json:
        sys.stdout.write(jsonio.dumps(payload))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_relations(ns, config):
    rels = relations()
    payload = {"relations": [jsonio.fpe_to_json(r) for r in rels]}
    _emit(ns, payload, ["d_%s Phi = %r" % (a, r) for a, r in zip("xyzw", rels)])
    return 0


def cmd_mc(ns, config):
    comps = mc_expand()
    order = ("Xbar", "Ybar", "Zbar", "Wbar")
    payload = {"components": {g: jsonio.fpe_to_json(comps[g]) for g in order}}
    _emit(ns, payload, ["%s: %r" % (g, comps[g]) for g in order])
    return 0


def cmd_ainfty_check(ns, config):
    rep = stasheff_check(ns.max_arity)
    payload = {"ok": rep.ok, "checked": rep.checked}
    lines = ["checked %d composable tuples: %s" % (rep.checked, "ok" if rep.ok else "FAIL")]
    if not rep.ok:
        payload["violation"] = {"arity": rep.violation[0], "tuple": list(rep.violation[1])}
        lines.append("violation at arity %d on %r" % rep.violation[:2])
    _emit(ns, payload, lines)
    return 0 if rep.ok else 1


def cmd_truncate(ns, config):
    A = truncated_algebra(ns.n)
    dims = A.dims()
    rows = sorted(dims)
    payload = {"n": ns.n, "dims": [{"source": s, "target": t, "length": l, "dim": dims[(s, t, l)]}
                                   for s, t, l in rows]}
    lines = ["source target length dim"]
    lines += ["%6d %6d %6d %3d" % (s, t, l, dims[(s, t, l)]) for s, t, l in rows]
    _emit(ns, payload, lines)
    return 0


def cmd_rep(ns, config):
    if ns.action == "make":
        r = _parse_kind(ns.kind)
        payload = jsonio.rep_to_json(r)
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write(jsonio.dumps(payload))
            _emit(ns, payload, ["wrote %s (dims %s)" % (ns.out, list(r.dims))])
        else:
            _emit(ns, payload, ["dims %s" % (list(r.dims),),
                                "x %s" % (jsonio.matrix_to_json(r.mx),),
                                "z %s" % (jsonio.matrix_to_json(r.mz),),
                                "y %s" % (jsonio.matrix_to_json(r.my),),
                                "w %s" % (jsonio.matrix_to_json(r.mw),)])
        return 0
    r = _load_rep(ns)
    chk = check_rep(r)
    _emit(ns, {"dims": list(r.dims), **chk},
          ["dims %s relations_ok %s nilpotent %s" % (list(r.dims), chk["relations_ok"], chk["nilpotent"])])
    return 0 if chk["relations_ok"] and chk["nilpotent"] else 1


def cmd_stable(ns, config):
    r = _load_rep(ns)
    params = _load_params(ns, config)
    v = is_stable(r, params)
    payload = {"dims": list(r.dims), **jsonio.verdict_to_json(v)}
    lines = ["dims %s: %s" % (list(r.dims), v.kind)]
    if v.witness_dims:
        lines.append("witness dims %s" % (list(v.witness_dims),))
    _emit(ns, payload, lines)
    return 0


def cmd_scan(ns, config):
    params = _load_params(ns, config)
    counts = scan.scan_stable_dimvectors(params.chamber(), ns.bound, with_counts=True)
    items = sorted(counts.items())
    payload = {"bound": ns.bound, "chamber": params.chamber(), "backend": scan.backend_name(),
               "stable": [{"dims": list(d), "count": c} for d, c in items]}
    lines = ["chamber %+d bound %d (%s backend)" % (params.chamber(), ns.bound, scan.backend_name())]
    lines += ["  (%d, %d)  %d stable" % (d[0], d[1], c) for d, c in items]
    _emit(ns, payload, lines)
    return 0


def cmd_psi(ns, config):
    obj = ns.object
    if obj.startswith("sphere:"):
        r = psi_sphere(int(obj.split(":", 1)[1]))
    elif obj.startswith("cone:"):
        mx, mz = _parse_fracs(obj.split(":", 1)[1], 2)
        cls = ExtensionDatum({"x": ((mx,),), "z": ((mz,),), "y": (), "w": ()})
        r, _, _ = build_extension(make_catalog_rep("simple", 0), make_catalog_rep("simple", 1), cls)
    elif obj.startswith("table:"):
        fc = _table_by_name(obj.split(":", 1)[1])
        h = free_complex_cohomology(fc, ns.n)
        payload = {str(k): jsonio.rep_to_json(rr) for k, rr in sorted(h.items())}
        _emit(ns, payload, ["degree %d: dims %s" % (k, list(rr.dims)) for k, rr in sorted(h.items())])
        return 0
    else:
        raise CliError("--object must be sphere:K, cone:MX,MZ or table:NAME")
    _emit(ns, jsonio.rep_to_json(r), ["dims %s" % (list(r.dims),)])
    return 0


def cmd_ext(ns, config):
    src = _parse_kind(ns.src, MAX_EXT_CHAIN_LENGTH)
    dst = _parse_kind(ns.dst, MAX_EXT_CHAIN_LENGTH)
    dims = ext_dims(src, dst)
    if ns.higher:
        payload = {"ext_dims": list(dims), "total": sum(dims),
                   "euler": dims[0] - dims[1] + dims[2] - dims[3]}
        _emit(ns, payload, ["Ext^0..3 = %s, total %d" % (list(dims), sum(dims))])
    else:
        _emit(ns, {"hom": dims[0], "ext1": dims[1]}, ["hom %d ext1 %d" % dims[:2]])
    return 0


def cmd_flop(ns, config):
    if ns.dimvec:
        d = tuple(int(t) for t in ns.dimvec.split(","))
        payload = {"input": list(d), "image": list(flop_K(d))}
        _emit(ns, payload, ["%s -> %s" % (list(d), list(flop_K(d)))])
        return 0
    if ns.point:
        mx, mz = _parse_fracs(ns.point, 2)
        params = _load_params(ns, config)
        report = flop_point_analysis(make_catalog_rep("point", mx, mz), params)
        payload = {
            "triangle": {k: jsonio.rep_to_json(v) for k, v in report["triangle"].items()},
            "k_image": list(report["k_image"]),
            "verdict": jsonio.verdict_to_json(report["verdict"]),
            "witness_phase_exceeds_total": report["witness_phase_exceeds_total"],
        }
        lines = ["triangle: simple(v1) -> point -> simple(v0)",
                 "K-class image: %s" % (list(report["k_image"]),),
                 "verdict: %s witness %s" % (report["verdict"].kind,
                                             list(report["verdict"].witness_dims or ()))]
        _emit(ns, payload, lines)
        return 0
    raise CliError("provide --dimvec D0,D1 or --point MX,MZ")


def cmd_arc(ns, config):
    cfg = _load_scene(ns, config)
    if ns.catalog:
        sep = ":" if ":" in ns.catalog else "_"
        label, _, k = ns.catalog.partition(sep)
        arc = catalog_arc(label, int(k), cfg)
    elif ns.arc:
        with open(ns.arc) as fh:
            arc = jsonio.arc_from_json(json.load(fh))
    else:
        raise CliError("provide --catalog S:K|Sp:K or --arc FILE")
    if ns.op == "invariants":
        inv = invariants(arc, cfg)
        payload = {"ray_crossings": inv.ray_crossings, "seg_crossings": inv.seg_crossings,
                   "start": inv.start}
        _emit(ns, payload, ["ray %+d  interval %d  start %s"
                            % (inv.ray_crossings, inv.seg_crossings, inv.start)])
        return 0
    if ns.op == "flop":
        out = flop_map(arc, cfg)
    elif ns.op == "twist":
        out = dehn_twist_map(arc, cfg, inverse=ns.inverse)
    else:
        raise CliError("--op must be invariants, flop or twist")
    inv = invariants(out, cfg)
    payload = {"arc": jsonio.arc_to_json(out),
               "invariants": {"ray_crossings": inv.ray_crossings,
                              "seg_crossings": inv.seg_crossings, "start": inv.start}}
    _emit(ns, payload, ["%d vertices, ray %+d interval %d start %s"
                        % (len(out.points), inv.ray_crossings, inv.seg_crossings, inv.start)])
    return 0


def cmd_verify_all(ns, config):
    results = verify.run_all(verbose=not ns.json)
    if ns.json:
        payload = {"results": [{"criterion": n, "ok": ok, "detail": d} for n, ok, d in results],
                   "ok": all(ok for _, ok, _ in results)}
        sys.stdout.write(jsonio.dumps(payload))
    return 0 if all(ok for _, ok, _ in results) else 1


# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--config", help="JSON file with defaults (z0, z1, scene)")

    p = argparse.ArgumentParser(prog="conifold-flop",
                                description="Exact computations for the conifold quiver, "
                                            "its stability chambers, and the flop surgery.")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("relations", parents=[common], help="the four cyclic-derivative relations")
    sub.add_parser("mc", parents=[common], help="components of the deformation equation")

    s = sub.add_parser("ainfty-check", parents=[common], help="exhaustive associativity-identity check")
    s.add_argument("--max-arity", type=int, default=6)

    s = sub.add_parser("truncate", parents=[common], help="dimension table of the truncated algebra")
    s.add_argument("--n", type=int, required=True)

    s = sub.add_parser("rep", parents=[common], help="make or check representations")
    s.add_argument("action", choices=("make", "check"))
    s.add_argument("--kind", help="e.g. simple:0, point:1:2, vplus:3, vminus-dag:1")
    s.add_argument("--rep", help="representation JSON file")
    s.add_argument("--out", help="write the representation JSON here")

    s = sub.add_parser("stable", parents=[common], help="stability verdict of a representation")
    s.add_argument("--rep")
    s.add_argument("--kind")
    s.add_argument("--z0", help="RE,IM")
    s.add_argument("--z1", help="RE,IM")

    s = sub.add_parser("scan", parents=[common], help="exhaustive GF(2) scan of stable dimension vectors")
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--z0")
    s.add_argument("--z1")

    s = sub.add_parser("psi", parents=[common], help="module of a sphere, cone or catalog table")
    s.add_argument("--object", required=True, help="sphere:K | cone:MX,MZ | table:NAME")
    s.add_argument("--n", type=int, default=6, help="truncation for table cohomology")

    s = sub.add_parser("ext", parents=[common], help="hom/ext1 or the full Ext dimensions")
    s.add_argument("--from", dest="src", required=True)
    s.add_argument("--to", dest="dst", required=True)
    s.add_argument("--higher", action="store_true", help="Ext^0..3")

    s = sub.add_parser("flop", parents=[common], help="K-class flop or point-module analysis")
    s.add_argument("--dimvec")
    s.add_argument("--point", help="MX,MZ")
    s.add_argument("--z0")
    s.add_argument("--z1")

    s = sub.add_parser("arc", parents=[common], help="arc invariants and surgeries")
    s.add_argument("--op", required=True, choices=("invariants", "flop", "twist"))
    s.add_argument("--catalog", help="S:K or Sp:K with K in -3..3")
    s.add_argument("--arc", help="arc JSON file")
    s.add_argument("--scene", help="scene JSON file")
    s.add_argument("--inverse", action="store_true")

    sub.add_parser("verify-all", parents=[common], help="run every acceptance criterion")

    # let values like -1,2 pass as option arguments
    import re

    matcher = re.compile(r"^-\d")
    p._negative_number_matcher = matcher
    for action in p._subparsers._group_actions:
        for sp in action.choices.values():
            sp._negative_number_matcher = matcher
    return p


COMMANDS = {
    "relations": cmd_relations,
    "mc": cmd_mc,
    "ainfty-check": cmd_ainfty_check,
    "truncate": cmd_truncate,
    "rep": cmd_rep,
    "stable": cmd_stable,
    "scan": cmd_scan,
    "psi": cmd_psi,
    "ext": cmd_ext,
    "flop": cmd_flop,
    "arc": cmd_arc,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return COMMANDS[ns.command](ns, _load_config(ns.config))
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
