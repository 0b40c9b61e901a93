"""Command-line interface.

All commands read and write the JSON interchange formats of the library
(complexes, graphs, digraphs, certificates, collapse sequences).  Results go
to stdout as JSON; diagnostics go to stderr.  Each command is declared once,
with the handler it runs, and its verdict gives the exit code through the one
table EXIT.  Handlers look the library's functions up as module globals when
they run, so a tracer that rebinds them is seen by the parser built once.

Exit codes: 0 all checks passed (or plain result produced); 1 some check
failed (or a recognition answered "no", or stdout was closed early); 2
malformed input; 3 inconclusive ("unknown") verdicts present without
failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .collapse import DEFAULT_BUDGET, ReplayError, collapse_search
from .complexes import (
    Complex,
    InputError,
    alexander_dual,
    avoiding,
    avoiding_dual,
    complex_from_json,
    complex_to_json,
    deletion,
    link,
)
from .generators import gen_complex, gen_digraph, gen_forest
from .grape import (
    GrapeVariant,
    certificate_from_json,
    certificate_variant,
    check_grape,
    classify_strong,
    verify_certificate,
)
from .graphs import (
    FORBIDDEN_SETS,
    digraph_from_json,
    graph_from_json,
    graph_to_json,
    digraph_to_json,
    pf_complex,
    pm_complex,
)
from .homology import reduced_homology
from .verify import (
    DEFAULT_SEED,
    OutcomeTable,
    Tally,
    cad_report,
    grape_duality_report,
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


EXIT = {"yes": 0, "pass": 0, "no": 1, "fail": 1, "unknown": 3}


_QUOTE = json.encoder.encode_basestring_ascii  # json's C encoder; TypeError on a non-str
# scalars by exact type, so True is no int; json.dumps writes the rest (floats,
# subclasses) as the stdlib does, and refuses what JSON lacks
_SCALAR = {str: _QUOTE, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda o: "null"}
WRITE_PARTS = 1 << 13  # parts held before they go out as one chunk


class _Encoder(json.JSONEncoder):
    """The bytes of indent=2, sort_keys=True, the only layout it writes.

    The stdlib encodes an indented payload in pure Python, one chunk per
    token.  Here the parts gather on a list, which goes out as one chunk
    when a container begins past WRITE_PARTS parts, and at the end.  Keys
    must be strings.
    """

    def iterencode(self, o, _one_shot=False):
        parts: list = []
        append = parts.append

        def encode(o, nl: str):  # nl: a newline and the indent of o's line
            if len(parts) > WRITE_PARTS:
                yield "".join(parts)
                parts.clear()
            if isinstance(o, dict):
                items, brackets = [(_QUOTE(k) + ": ", o[k]) for k in sorted(o)], "{}"
            elif isinstance(o, (list, tuple)):
                try:  # a list of strings in one join
                    if o:
                        append(f"[{nl}  " + f",{nl}  ".join(map(_QUOTE, o)) + f"{nl}]")
                        return
                except TypeError:
                    pass
                items, brackets = [("", v) for v in o], "[]"
            else:
                scalar = _SCALAR.get(type(o))
                append(scalar(o) if scalar else json.dumps(o))
                return
            if not items:
                append(brackets)
                return
            inner = nl + "  "
            sep = brackets[0] + inner
            for head, v in items:
                scalar = _SCALAR.get(type(v))
                if scalar:
                    append(sep + head + scalar(v))
                else:
                    append(sep + head)
                    yield from encode(v, inner)
                sep = "," + inner
            append(nl + brackets[1])

        yield from encode(o, "\n")
        yield "".join(parts)


def _emit(payload: object, status: str = "pass") -> int:
    """Write the payload to stdout; the exit code of the status.

    The document goes through json.dump, which perfbench's corrupted-output
    test patches, with _Encoder doing the work.  The newline is a write of
    its own: when a reader closes the pipe during a large write, the text
    layer drops the short count, and only a later write meets the broken
    pipe.
    """
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, cls=_Encoder)
    sys.stdout.write("\n")
    return EXIT[status]


def _complex(args: argparse.Namespace) -> Complex:
    return complex_from_json(_load(args.complex))


def _emit_summary(summary: dict) -> int:
    status = "fail" if summary["fail"] else "unknown" if summary["unknown"] else "pass"
    return _emit(summary, status)


def _emit_reports(reports: list) -> int:
    tally = Tally(show_passes=True)
    tally.add(tally.held(reports))
    return _emit_summary(tally.summary())


def _homology(args: argparse.Namespace) -> int:
    profile = reduced_homology(_complex(args))
    return _emit({**profile.to_json(), "cohomology": profile.cohomology().to_json()})


def _collapse(args: argparse.Namespace) -> int:
    result = collapse_search(_complex(args), args.budget)
    payload = {"verdict": result.verdict, "nodes": result.nodes}
    if result.sequence is not None:
        payload["sequence"] = result.sequence
    if result.obstruction is not None:
        payload["obstruction"] = result.obstruction.to_json()
    return _emit(payload, result.verdict)


def _grape_check(args: argparse.Namespace) -> int:
    verdict = check_grape(_complex(args), VARIANTS[args.variant], budget=args.budget)
    payload = {"verdict": verdict.verdict, "nodes": verdict.nodes}
    if verdict.certificate is not None:
        payload["certificate"] = verdict.certificate
    if verdict.reason:
        payload["reason"] = verdict.reason
    return _emit(payload, verdict.verdict)


def _grape_classify(args: argparse.Namespace) -> int:
    verdict = check_grape(_complex(args), GrapeVariant.STRONG)
    if not verdict.is_yes:
        return _emit({"strong": False, "verdict": verdict.verdict}, verdict.verdict)
    return _emit(
        {
            "strong": True,
            "class": classify_strong(verdict.certificate),
            "certificate": verdict.certificate,
        }
    )


def _grape_verify_cert(args: argparse.Namespace) -> int:
    c = _complex(args)
    cert = certificate_from_json(_load(args.certificate))
    variant = certificate_variant(cert)
    try:
        # a one-leaf certificate (a cone's too) is valid for every variant if the leaf matches
        verify_certificate(c, variant or GrapeVariant.STRONG, cert)
    except ReplayError as exc:
        return _emit({"valid": False, "error": str(exc)}, "fail")
    return _emit({"valid": True, "variant": variant.value if variant else "any"})


def _from_graph(args: argparse.Namespace) -> int:
    ground, forbidden = FORBIDDEN_SETS[args.kind](graph_from_json(_load(args.graph)))
    return _emit(complex_to_json((avoiding_dual if args.dual else avoiding)(ground, forbidden)))


def _from_digraph(args: argparse.Namespace) -> int:
    d = digraph_from_json(_load(args.digraph))
    return _emit(complex_to_json(pf_complex(d) if args.kind == "pf" else pm_complex(d)))


def _verify_duality(args: argparse.Namespace) -> int:
    report = grape_duality_report(_complex(args), VARIANTS[args.variant], OutcomeTable())
    return _emit(report.details, report.status)


def _verify_cad(args: argparse.Namespace) -> int:
    report = cad_report(_complex(args), OutcomeTable())
    return _emit(report.to_json(), report.status)


def _suite(args: argparse.Namespace) -> int:
    return _emit_summary(run_suite(args.level, args.seed, log=lambda m: print(m, file=sys.stderr)))


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
    p.set_defaults(run=lambda a: _emit(complex_to_json(alexander_dual(_complex(a)))))

    p = sub.add_parser("link", help="link of a ground element")
    p.add_argument("complex")
    p.add_argument("element")
    p.set_defaults(run=lambda a: _emit(complex_to_json(link(_complex(a), a.element))))

    p = sub.add_parser("del", help="deletion of a ground element")
    p.add_argument("complex")
    p.add_argument("element")
    p.set_defaults(run=lambda a: _emit(complex_to_json(deletion(_complex(a), a.element))))

    p = sub.add_parser("homology", help="reduced homology and cohomology")
    p.add_argument("complex")
    p.set_defaults(run=_homology)

    p = sub.add_parser("collapse", help="search for a collapse to void")
    p.add_argument("complex")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="complexes the search may visit before it answers unknown")
    # accepted for the callers that still pass it, such as perfbench's certify-large queries
    p.add_argument("--exhaustive", action="store_true",
                   help="no effect; every search remembers the face sets it has seen fail")
    p.set_defaults(run=_collapse)

    grape = sub.add_parser("grape", help="grape recognition commands")
    gsub = grape.add_subparsers(dest="grape_command", required=True)

    p = gsub.add_parser("check", help="decide one grape variant")
    p.add_argument("complex")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="nodes it may spend, collapse searches included, before it answers unknown")
    p.set_defaults(run=_grape_check)

    p = gsub.add_parser("classify", help="simple-homotopy class of a strong grape")
    p.add_argument("complex")
    p.set_defaults(run=_grape_classify)

    p = gsub.add_parser("verify-cert", help="replay a certificate without searching")
    p.add_argument("complex")
    p.add_argument("certificate")
    p.set_defaults(run=_grape_verify_cert)

    from_graph = sub.add_parser("from-graph", help="complex derived from a graph")
    from_graph.add_argument("graph")
    from_graph.add_argument(
        "--complex", dest="kind", choices=list(FORBIDDEN_SETS), required=True
    )
    from_graph.add_argument("--dual", action="store_true")
    from_graph.set_defaults(run=_from_graph)

    from_digraph = sub.add_parser("from-digraph", help="complex derived from a digraph")
    from_digraph.add_argument("digraph")
    from_digraph.add_argument(
        "--complex", dest="kind", choices=["pf", "pm"], required=True
    )
    from_digraph.set_defaults(run=_from_digraph)

    verify = sub.add_parser("verify", help="theorem verification harnesses")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("forest", help="forest complexes: grape status and classes")
    p.add_argument("graph")
    p.set_defaults(
        run=lambda a: _emit_reports(
            verify_forest_theorem(graph_from_json(_load(a.graph)), OutcomeTable()))
    )

    p = vsub.add_parser("pfpm", help="path-free/path-missing checks")
    p.add_argument("digraph")
    p.set_defaults(
        run=lambda a: _emit_reports(
            verify_pfpm_theorem(digraph_from_json(_load(a.digraph)), OutcomeTable()))
    )

    p = vsub.add_parser("duality", help="grape dual-invariance for one complex")
    p.add_argument("complex")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.set_defaults(run=_verify_duality)

    p = vsub.add_parser("cad", help="Alexander duality in (co)homology")
    p.add_argument("complex")
    p.set_defaults(run=_verify_cad)

    gen = sub.add_parser("gen", help="seeded instance generators")
    gen_sub = gen.add_subparsers(dest="gen_command", required=True)

    p = gen_sub.add_parser("forest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--drop", type=int, default=0)
    p.set_defaults(run=lambda a: _emit(graph_to_json(gen_forest(a.n, a.seed, a.drop))))

    p = gen_sub.add_parser("complex")
    p.add_argument("--ground", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=lambda a: _emit(complex_to_json(gen_complex(a.ground, a.density, a.seed))))

    p = gen_sub.add_parser("digraph")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--arcs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=lambda a: _emit(digraph_to_json(gen_digraph(a.v, a.arcs, a.seed))))

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--level", choices=["smoke", "full"], default="smoke")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=_suite)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ReplayError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit does not raise again (recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
