"""Command-line interface.

All commands read and write the JSON interchange formats of the library
(complexes, graphs, digraphs, certificates, collapse sequences).  Results go
to stdout as JSON; diagnostics go to stderr.

Exit codes: 0 all checks passed (or plain result produced); 1 some check
failed (or a recognition answered "no"); 2 malformed input; 3 inconclusive
("unknown") verdicts present without failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .collapse import DEFAULT_BUDGET, ReplayError, collapse_search, sequence_to_json
from .complexes import (
    InputError,
    alexander_dual,
    complex_from_json,
    complex_to_json,
    deletion,
    link,
)
from .generators import gen_complex, gen_digraph, gen_forest
from .grape import (
    GrapeVariant,
    certificate_from_json,
    certificate_to_json,
    certificate_variant,
    check_grape,
    classify_strong,
    verify_certificate,
    verify_dual_invariance,
)
from .graphs import (
    digraph_from_json,
    dominance_complex,
    edge_cover_complex,
    edge_dominance_complex,
    graph_from_json,
    graph_to_json,
    digraph_to_json,
    independence_complex,
    pf_complex,
    pm_complex,
)
from .homology import reduced_homology
from .verify import (
    DEFAULT_SEED,
    cad_report,
    run_suite,
    verify_forest_theorem,
    verify_pfpm_theorem,
)

VARIANTS = {v.value: v for v in GrapeVariant}


def _load(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, over-long int literals
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests deeper than the JSON parser allows") from None


def _emit(payload: object) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _verdict_exit(verdict: str) -> int:
    return {"yes": 0, "pass": 0, "no": 1, "fail": 1, "unknown": 3}[verdict]


def _reports_exit(reports: list) -> int:
    payload = {
        "pass": sum(1 for r in reports if r.status == "pass"),
        "fail": sum(1 for r in reports if r.status == "fail"),
        "unknown": sum(1 for r in reports if r.status == "unknown"),
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload)
    if payload["fail"]:
        return 1
    if payload["unknown"]:
        return 3
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parsing stores nothing on it."""
    parser = argparse.ArgumentParser(
        prog="grapes",
        description="Exact simplicial-complex engine: duality, collapses, "
        "homology, grape recognition, graph complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="Alexander dual of a complex")
    p.add_argument("complex")

    p = sub.add_parser("link", help="link of a ground element")
    p.add_argument("complex")
    p.add_argument("element")

    p = sub.add_parser("del", help="deletion of a ground element")
    p.add_argument("complex")
    p.add_argument("element")

    p = sub.add_parser("homology", help="reduced homology and cohomology")
    p.add_argument("complex")

    p = sub.add_parser("collapse", help="search for a collapse to void")
    p.add_argument("complex")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="complexes the search may visit before it answers unknown")
    p.add_argument("--exhaustive", action="store_true")

    grape = sub.add_parser("grape", help="grape recognition commands")
    gsub = grape.add_subparsers(dest="grape_command", required=True)

    p = gsub.add_parser("check", help="decide one grape variant")
    p.add_argument("complex")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="nodes it may spend, collapse searches included, before it answers unknown")
    p.add_argument("--exhaustive-gamma", action="store_true")

    p = gsub.add_parser("classify", help="simple-homotopy class of a strong grape")
    p.add_argument("complex")

    p = gsub.add_parser("verify-cert", help="replay a certificate without searching")
    p.add_argument("complex")
    p.add_argument("certificate")

    from_graph = sub.add_parser("from-graph", help="complex derived from a graph")
    from_graph.add_argument("graph")
    from_graph.add_argument(
        "--complex", dest="kind", choices=["ind", "dom", "ec", "ed"], required=True
    )
    from_graph.add_argument("--dual", action="store_true")

    from_digraph = sub.add_parser("from-digraph", help="complex derived from a digraph")
    from_digraph.add_argument("digraph")
    from_digraph.add_argument(
        "--complex", dest="kind", choices=["pf", "pm"], required=True
    )

    verify = sub.add_parser("verify", help="theorem verification harnesses")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("forest", help="forest complexes: grape status and classes")
    p.add_argument("graph")

    p = vsub.add_parser("pfpm", help="path-free/path-missing checks")
    p.add_argument("digraph")

    p = vsub.add_parser("duality", help="grape dual-invariance for one complex")
    p.add_argument("complex")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--exhaustive-gamma", action="store_true")

    p = vsub.add_parser("cad", help="Alexander duality in (co)homology")
    p.add_argument("complex")

    gen = sub.add_parser("gen", help="seeded instance generators")
    gen_sub = gen.add_subparsers(dest="gen_command", required=True)

    p = gen_sub.add_parser("forest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--drop", type=int, default=0)

    p = gen_sub.add_parser("complex")
    p.add_argument("--ground", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, required=True)

    p = gen_sub.add_parser("digraph")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--arcs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--level", choices=["smoke", "full"], default="smoke")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "dual":
        c = complex_from_json(_load(args.complex))
        _emit(complex_to_json(alexander_dual(c)))
        return 0

    if args.command == "link":
        c = complex_from_json(_load(args.complex))
        _emit(complex_to_json(link(c, args.element)))
        return 0

    if args.command == "del":
        c = complex_from_json(_load(args.complex))
        _emit(complex_to_json(deletion(c, args.element)))
        return 0

    if args.command == "homology":
        c = complex_from_json(_load(args.complex))
        profile = reduced_homology(c)
        payload = profile.to_json()
        payload["cohomology"] = profile.cohomology().to_json()
        _emit(payload)
        return 0

    if args.command == "collapse":
        c = complex_from_json(_load(args.complex))
        result = collapse_search(c, args.budget, exhaustive=args.exhaustive)
        payload = {"verdict": result.verdict, "nodes": result.nodes}
        if result.sequence is not None:
            payload["sequence"] = sequence_to_json(result.sequence)
        _emit(payload)
        return _verdict_exit(result.verdict)

    if args.command == "grape":
        return _dispatch_grape(args)

    if args.command == "from-graph":
        g = graph_from_json(_load(args.graph))
        builders = {
            "ind": independence_complex,
            "dom": dominance_complex,
            "ec": edge_cover_complex,
            "ed": edge_dominance_complex,
        }
        c = builders[args.kind](g)
        if args.dual:
            c = alexander_dual(c)
        _emit(complex_to_json(c))
        return 0

    if args.command == "from-digraph":
        d = digraph_from_json(_load(args.digraph))
        c = pf_complex(d) if args.kind == "pf" else pm_complex(d)
        _emit(complex_to_json(c))
        return 0

    if args.command == "verify":
        return _dispatch_verify(args)

    if args.command == "gen":
        if args.gen_command == "forest":
            _emit(graph_to_json(gen_forest(args.n, args.seed, args.drop)))
        elif args.gen_command == "complex":
            _emit(complex_to_json(gen_complex(args.ground, args.density, args.seed)))
        else:
            _emit(digraph_to_json(gen_digraph(args.v, args.arcs, args.seed)))
        return 0

    if args.command == "suite":
        summary = run_suite(args.level, args.seed, log=lambda m: print(m, file=sys.stderr))
        _emit(summary)
        if summary["fail"]:
            return 1
        if summary["unknown"]:
            return 3
        return 0

    raise InputError(f"unknown command {args.command!r}")


def _dispatch_grape(args: argparse.Namespace) -> int:
    c = complex_from_json(_load(args.complex))
    if args.grape_command == "check":
        verdict = check_grape(
            c,
            VARIANTS[args.variant],
            budget=args.budget,
            exhaustive_gamma=args.exhaustive_gamma,
        )
        payload = {"verdict": verdict.verdict, "nodes": verdict.nodes}
        if verdict.certificate is not None:
            payload["certificate"] = certificate_to_json(verdict.certificate)
        if verdict.reason:
            payload["reason"] = verdict.reason
        _emit(payload)
        return _verdict_exit(verdict.verdict)

    if args.grape_command == "classify":
        verdict = check_grape(c, GrapeVariant.STRONG)
        if not verdict.is_yes:
            _emit({"strong": False, "verdict": verdict.verdict})
            return _verdict_exit(verdict.verdict)
        cls = classify_strong(verdict.certificate)
        _emit(
            {
                "strong": True,
                "class": cls.to_json(),
                "certificate": certificate_to_json(verdict.certificate),
            }
        )
        return 0

    # verify-cert: replay without searching
    cert = certificate_from_json(_load(args.certificate))
    variant = certificate_variant(cert)
    try:
        # a base-only certificate is valid for every variant if the leaf matches
        verify_certificate(c, variant or GrapeVariant.STRONG, cert)
    except ReplayError as exc:
        _emit({"valid": False, "error": str(exc)})
        return 1
    _emit({"valid": True, "variant": variant.value if variant else "any"})
    return 0


def _dispatch_verify(args: argparse.Namespace) -> int:
    if args.verify_command == "forest":
        g = graph_from_json(_load(args.graph))
        return _reports_exit(verify_forest_theorem(g))

    if args.verify_command == "pfpm":
        d = digraph_from_json(_load(args.digraph))
        return _reports_exit(verify_pfpm_theorem(d))

    if args.verify_command == "duality":
        c = complex_from_json(_load(args.complex))
        report = verify_dual_invariance(
            c, VARIANTS[args.variant], exhaustive_gamma=args.exhaustive_gamma
        )
        _emit(report)
        if not report["pass"]:
            return 3 if report["primal_verdict"] == "unknown" else 1
        if report.get("unknown_tolerated"):
            return 3
        return 0

    # cad
    c = complex_from_json(_load(args.complex))
    report = cad_report(c)
    _emit(report.to_json())
    return 0 if report.status == "pass" else 1


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ReplayError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
