"""Command-line surface: verify, classify, catalog, gamma, act, invariant,
check-stab.

Exit codes: 0 on success, 1 on a domain failure (for example an invalid
quad when validity was demanded), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .autf2 import AutF2
from .braid import check_pair_via_braid, endo_of_braid, parse_braid
from .groups import builtin_group
from .invariant import check_S1, fingerprint_report
from .localrep import (
    ARTIN_CORE,
    COMPONENT_KINDS,
    _DECORATIONS,
    FamilyId,
    LocalRep,
    Quad,
    build_gamma,
    catalog,
    check_quad,
    classify_search,
    component_vertices,
    constant_rep,
    identify_quad,
    outgoing_cores,
    quad_sort_key,
    rep_from_cores,
)


def _parse_rep(spec: str, n: int | None) -> LocalRep:
    if spec == "artin":
        if n is None:
            raise ValueError("--n is required for the artin rep")
        return constant_rep(ARTIN_CORE, n)
    if spec.startswith("wada:"):
        if n is None:
            raise ValueError("--n is required for wada reps")
        fid = FamilyId.parse(spec[len("wada:") :])
        quad = catalog(fid)
        return constant_rep(quad.tau, n)
    if spec.startswith("cores:"):
        cores = tuple(AutF2.parse(part) for part in spec[len("cores:") :].split(";"))
        if n is not None and n != len(cores) + 1:
            raise ValueError(f"--n {n} does not match {len(cores)} cores")
        return rep_from_cores(cores)
    raise ValueError(f"unknown rep spec {spec!r} (use artin, wada:FAMILY, cores:A,B;...)")


def _groups_from_arg(arg: str | None):
    if not arg:
        return []
    groups = []
    for name in arg.split(","):
        name = name.strip()
        if not name:
            continue
        group = builtin_group(name)
        # Counts are reported by group name, so a second group of one name
        # would drop or repeat a count.
        if any(g.name == group.name for g in groups):
            raise ValueError(f"repeated group name {group.name!r} in --homs")
        groups.append(group)
    return groups


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_verify(args) -> int:
    braid_check = None
    if args.quad:
        quad = Quad.parse(args.quad)
    else:
        parts = args.pair.split(";")
        if len(parts) != 2:
            raise ValueError(f"expected 'A,B;C,D' pair syntax, got {args.pair!r}")
        quad = Quad(*map(AutF2.parse, parts))
    report = check_quad(quad)
    if args.pair and report.basis_ab and report.basis_cd:
        braid_check = check_pair_via_braid(quad.tau, quad.kappa)
    family = identify_quad(quad) if report.valid else None
    payload = {
        "quad": str(quad),
        "valid": report.valid,
        "conditions": {
            "aut_ab": report.basis_ab,
            "aut_cd": report.basis_cd,
            "T": report.eq_t,
            "M": report.eq_m,
            "B": report.eq_b,
        },
        "family": str(family) if family else None,
    }
    lines = [f"quad: {quad}"]
    for cond, ok in payload["conditions"].items():
        lines.append(f"  [{cond}] {'ok' if ok else 'FAIL'}")
    lines.append(f"valid: {'yes' if report.valid else 'no'}")
    if family is not None:
        lines.append(f"family: {family}")
    if braid_check is not None:
        payload["braid_relation"] = braid_check
        lines.append(f"braid-relation cross-check: {'ok' if braid_check else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if report.valid else 1


def _cmd_classify(args) -> int:
    classes = sorted(classify_search(args.max_len), key=quad_sort_key)
    entries = []
    for q in classes:
        fid = identify_quad(q)
        entries.append({"quad": str(q), "family": str(fid) if fid else None})
    payload = {"max_len": args.max_len, "count": len(classes), "classes": entries}
    lines = [f"canonical classes with word length <= {args.max_len}: {len(classes)}"]
    for e in entries:
        lines.append(f"  ({e['quad']})  family {e['family']}")
    _emit(args, payload, lines)
    return 0


def _cmd_catalog(args) -> int:
    base = FamilyId.parse(args.family)
    if args.r is not None and base.r is not None:
        raise ValueError(f"--family {args.family} and --r {args.r} both give the parameter r")
    if args.all_decorations and base.decoration:
        raise ValueError(f"--family {args.family} and --all-decorations both give the decoration")
    r = args.r if args.r is not None else base.r
    flags = _DECORATIONS if args.all_decorations else [(base.inv, base.swap, base.backward)]
    ids = [FamilyId(base.family, r, *f) for f in flags]
    entries = []
    lines = []
    for fid in ids:
        quad = catalog(fid)
        entries.append({"id": str(fid), "quad": str(quad)})
        lines.append(f"{fid}: ({quad})")
    _emit(args, {"entries": entries}, lines)
    return 0


def _cmd_gamma(args) -> int:
    graph = build_gamma(component_vertices(args.family, args.r))
    dot = graph.to_dot()
    if args.dot == "-":
        print(dot, end="")
    else:
        with open(args.dot, "w") as fh:
            fh.write(dot)
        print(
            f"component {args.family}: {len(graph.vertices)} vertices, "
            f"{len(graph.edges)} edges -> {args.dot}"
        )
    return 0


def _cmd_act(args) -> int:
    rep = _parse_rep(args.rep, args.n)
    braid = parse_braid(args.braid, rep.n)
    endo = endo_of_braid(rep, braid)
    payload = {
        "n": rep.n,
        "braid": str(braid),
        "images": {f"x{i + 1}": img.text(rep.n) for i, img in enumerate(endo.images)},
    }
    _emit(args, payload, [str(endo)])
    return 0


def _cmd_invariant(args) -> int:
    rep = _parse_rep(args.rep, args.n)
    braid = parse_braid(args.braid, rep.n)
    groups = _groups_from_arg(args.homs)
    pres, simplified, fp = fingerprint_report(rep, braid, groups)
    counts = dict(fp.hom_counts)
    payload = {
        "generators": pres.ngens,
        "relators": [r.text(pres.ngens) for r in pres.relators],
        "abelianization": list(fp.abelianization),
        "hom_counts": counts,
    }
    lines = [
        f"presentation: {pres.text()}",
        f"simplified: {simplified.text()}",
        f"abelianization (invariant factors, 0 = free): {list(fp.abelianization)}",
    ]
    for name in sorted(counts):
        lines.append(f"hom count into {name}: {counts[name]}")
    _emit(args, payload, lines)
    return 0


def _cmd_check_stab(args) -> int:
    # Three strands by default; a cores: spec takes its strand count from its cores.
    n = 3 if args.n is None and not args.rep.startswith("cores:") else args.n
    rep = _parse_rep(args.rep, n)
    if not rep.cores:
        raise ValueError("a rep on 1 strand has no core to check")
    extensions = outgoing_cores(rep.cores[-1])
    extendable = bool(extensions)
    core_reports = []
    lines = []
    for i, core in enumerate(rep.cores, start=1):
        report = check_S1(core)
        core_reports.append(
            {
                "core": str(core),
                "s1": report.status,
                "witness": report.witness,
            }
        )
        lines.append(f"core {i} ({core}): S1 {report.status}")
        lines.append(f"  {report.witness}")
        if i == len(rep.cores):
            if extensions:
                exts = ", ".join(f"({c}) via {fid}" for c, fid in extensions)
                lines.append(f"  S2 extensions: {exts}")
            else:
                lines.append("  S2 extensions: none")
    statuses = {r["s1"] for r in core_reports}
    if "fails" in statuses or not extendable:
        overall = "violated"
    elif "unknown" in statuses:
        overall = "unknown"
    else:
        overall = "satisfied"
    payload = {
        "cores": core_reports,
        "extendable": extendable,
        "stabilization_properties": overall,
    }
    lines.append(f"extendable (S2): {'yes' if extendable else 'no'}")
    lines.append(f"stabilization properties: {overall}")
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidact",
        description="Verify, classify and apply local braid actions on free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a quad or a pair of cores")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--quad", help='quad "A,B,C,D" in word syntax')
    g.add_argument("--pair", help='two cores "A,B;C,D"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="bounded exhaustive classification search")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("catalog", help="emit classified family quads")
    p.add_argument("--family", required=True, help="family tag, e.g. T, A1, D4")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--all-decorations", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("gamma", help="export one graph component as DOT")
    p.add_argument("--family", required=True, help=f"component: {', '.join(COMPONENT_KINDS)}")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--dot", required=True, help="output path, or - for stdout")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("act", help="apply a braid word to the free group")
    p.add_argument("--rep", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--braid", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("invariant", help="closed-braid group and its fingerprints")
    p.add_argument("--rep", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--braid", required=True)
    p.add_argument("--homs", default=None, help="comma-separated group names: Zk, Sk (k <= 6), Dk")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("check-stab", help="stabilization properties of a rep")
    p.add_argument("--rep", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_stab)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
