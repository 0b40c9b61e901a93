"""Command-line interface.

All commands read and write the JSON interchange formats of the library
(complexes, graphs, digraphs, certificates, collapse sequences).  Results go
to stdout as JSON; diagnostics go to stderr.  Each command is declared once,
in COMMANDS, and its verdict gives the exit code through the one table EXIT.
A call is parsed by its command's own parser, built on first use; the full
parser reads only what that one refuses, so every message is the full
parser's.  Handlers look the library's functions up as module globals when
they run, so a tracer that rebinds them is seen by the parsers built once.

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


@functools.cache
def _layout(nl: str) -> tuple:
    """For a container whose line begins with nl (a newline and an indent): its
    items' indent, their separator, and the brackets of a list and of a dict."""
    inner = nl + "  "
    return inner, "," + inner, ("[" + inner, nl + "]"), ("{" + inner, nl + "}")


def _write(o, nl: str, parts: list, flush) -> None:
    """Append the text of o, whose line begins with nl, to parts.  Before
    each item of a list, once parts holds more than WRITE_PARTS parts, they
    go to flush as one text and parts is emptied: a long list streams at any
    depth.  A list of strings is one join; keys must be strings.  The
    document formats nest at most 9 levels, so no input reaches the
    recursion limit."""
    if isinstance(o, dict):
        inner, sep, _, (opening, closing) = _layout(nl)
        for k in sorted(o):
            head, v = opening + _QUOTE(k) + ": ", o[k]
            scalar = _SCALAR.get(type(v))
            if scalar:  # most values: written here, without a call
                parts.append(head + scalar(v))
            else:
                parts.append(head)
                _write(v, inner, parts, flush)
            opening = sep
        parts.append(closing if o else "{}")
    elif isinstance(o, (list, tuple)):
        inner, sep, (opening, closing), _ = _layout(nl)
        if o and type(o[0]) is str:
            try:  # a list of strings in one join
                parts.append(opening + sep.join(map(_QUOTE, o)) + closing)
                return
            except TypeError:  # a later item is no string
                pass
        for v in o:
            if len(parts) > WRITE_PARTS:
                flush("".join(parts))
                parts.clear()
            parts.append(opening)
            _write(v, inner, parts, flush)
            opening = sep
        parts.append(closing if o else "[]")
    else:
        scalar = _SCALAR.get(type(o))
        parts.append(scalar(o) if scalar else json.dumps(o))


class _Encoder(json.JSONEncoder):
    """The bytes of indent=2, sort_keys=True, the only layout it writes, by
    _write.  json.dump hands iterencode no file, so the stream comes in as a
    keyword: a long document's parts go to it as they fill, and iterencode
    yields only the tail."""

    def __init__(self, *, stream, **options):
        super().__init__(**options)
        self.stream = stream

    def iterencode(self, o, _one_shot=False):
        parts: list = []
        _write(o, "\n", parts, self.stream.write)
        yield "".join(parts)


def _emit(payload: object, status: str = "pass") -> int:
    """Write the payload to stdout; the exit code of the status.

    json.dump writes it, with _Encoder doing the work, only because
    perfbench's corrupted-output test patches json.dump; stdout goes in as
    the encoder's stream too, so a long document leaves in chunks.  The
    newline is a write of its own: when a reader closes the pipe during a
    large write, the text layer drops the short count, and only a later
    write meets the broken pipe.
    """
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, cls=_Encoder, stream=sys.stdout)
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


INT = dict(type=int, required=True)
COMPLEX, SEED = ("complex", {}), ("--seed", INT)
VARIANT = ("--variant", dict(choices=sorted(VARIANTS), required=True))
GROUPS = {"grape": "grape recognition commands", "verify": "theorem verification harnesses",
          "gen": "seeded instance generators"}
# Each command once, in the order of the help text: its words, then its help
# (None: not listed), its handler and its arguments, each a name and options.
COMMANDS = {
    ("dual",): ("Alexander dual of a complex",
                lambda a: _emit(complex_to_json(alexander_dual(_complex(a)))), COMPLEX),
    ("link",): ("link of a ground element",
                lambda a: _emit(complex_to_json(link(_complex(a), a.element))),
                COMPLEX, ("element", {})),
    ("del",): ("deletion of a ground element",
               lambda a: _emit(complex_to_json(deletion(_complex(a), a.element))),
               COMPLEX, ("element", {})),
    ("homology",): ("reduced homology and cohomology", _homology, COMPLEX),
    ("collapse",): (
        "search for a collapse to void", _collapse, COMPLEX,
        ("--budget", dict(type=int, default=DEFAULT_BUDGET,
                          help="complexes the search may visit before it answers unknown")),
        # accepted for the callers that still pass it, such as perfbench's certify-large queries
        ("--exhaustive", dict(action="store_true",
                              help="no effect; every search remembers the face sets it has seen fail"))),
    ("grape", "check"): (
        "decide one grape variant", _grape_check, COMPLEX, VARIANT,
        ("--budget", dict(type=int, default=DEFAULT_BUDGET, help="nodes it may spend, collapse "
                          "searches included, before it answers unknown"))),
    ("grape", "classify"): ("simple-homotopy class of a strong grape", _grape_classify, COMPLEX),
    ("grape", "verify-cert"): ("replay a certificate without searching", _grape_verify_cert,
                               COMPLEX, ("certificate", {})),
    ("from-graph",): ("complex derived from a graph", _from_graph, ("graph", {}),
                      ("--complex", dict(dest="kind", choices=list(FORBIDDEN_SETS), required=True)),
                      ("--dual", dict(action="store_true"))),
    ("from-digraph",): ("complex derived from a digraph", _from_digraph, ("digraph", {}),
                        ("--complex", dict(dest="kind", choices=["pf", "pm"], required=True))),
    ("verify", "forest"): ("forest complexes: grape status and classes", lambda a: _emit_reports(
        verify_forest_theorem(graph_from_json(_load(a.graph)), OutcomeTable())), ("graph", {})),
    ("verify", "pfpm"): ("path-free/path-missing checks", lambda a: _emit_reports(
        verify_pfpm_theorem(digraph_from_json(_load(a.digraph)), OutcomeTable())), ("digraph", {})),
    ("verify", "duality"): ("grape dual-invariance for one complex", _verify_duality,
                            COMPLEX, VARIANT),
    ("verify", "cad"): ("Alexander duality in (co)homology", _verify_cad, COMPLEX),
    ("gen", "forest"): (None, lambda a: _emit(graph_to_json(gen_forest(a.n, a.seed, a.drop))),
                        ("--n", INT), SEED, ("--drop", dict(type=int, default=0))),
    ("gen", "complex"): (None,
                         lambda a: _emit(complex_to_json(gen_complex(a.ground, a.density, a.seed))),
                         ("--ground", INT), ("--density", dict(type=float, default=0.3)), SEED),
    ("gen", "digraph"): (None, lambda a: _emit(digraph_to_json(gen_digraph(a.v, a.arcs, a.seed))),
                         ("--v", INT), ("--arcs", INT), SEED),
    ("suite",): ("run the verification suite", _suite,
                 ("--level", dict(choices=["smoke", "full"], default="smoke")),
                 ("--seed", dict(type=int, default=DEFAULT_SEED))),
}


def _declare(parser: argparse.ArgumentParser, words: tuple, **defaults):
    """The parser, given the command's arguments, and its handler as default."""
    _, run, *arguments = COMMANDS[words]
    for name, options in arguments:
        parser.add_argument(name, **options)
    parser.set_defaults(run=run, **defaults)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built on first use and kept: parsing stores nothing on it."""
    parser = argparse.ArgumentParser(
        prog="grapes",
        description="Exact simplicial-complex engine: duality, collapses, "
        "homology, grape recognition, graph complexes.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (summary, *_) in COMMANDS.items():
        if words[:-1] not in subparsers:
            group = subparsers[()].add_parser(words[0], help=GROUPS[words[0]])
            subparsers[words[:-1]] = group.add_subparsers(dest=f"{words[0]}_command", required=True)
        parser_of = subparsers[words[:-1]].add_parser
        _declare(parser_of(words[-1], **({"help": summary} if summary else {})), words)
    return parser


class _CommandParser(argparse.ArgumentParser):
    """A command's parser as the full parser holds it, but it raises
    ArgumentError where that one would print an error or the help."""

    def error(self, message=None):
        raise argparse.ArgumentError(None, message)

    print_help = error


@functools.cache
def _command_parser(words: tuple) -> argparse.ArgumentParser:
    """The parser of one command, built on first use and kept."""
    # the namespace's words as the full parser names them: command, then <group>_command
    return _declare(_CommandParser(), words, **dict(zip(("command", f"{words[0]}_command"), words)))


def _parse(argv: list) -> argparse.Namespace:
    """What the full parser makes of argv, read by the parser of the command
    argv names; the full parser reads only what that one refuses or leaves
    over, so every message and exit is the full parser's."""
    words = tuple(argv[:2 if argv[0] in GROUPS else 1]) if argv else ()
    if words in COMMANDS:
        try:
            args, rest = _command_parser(words).parse_known_args(argv[len(words):])
            if not rest:
                return args
        except argparse.ArgumentError:
            pass
    return _build_parser().parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
