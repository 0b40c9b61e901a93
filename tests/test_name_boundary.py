"""Names are parsed only where JSON enters.

In memory a certificate and a collapse sequence hold masks, so recognition,
collapse search and replay never turn a name into a bit.  The one place
that does is each module's JSON readers: ``bit_table`` and ``mask_of``, the
maps from names to bits, may be used in ``grape.py`` and ``collapse.py``
only inside the functions listed here.
"""

import ast
from pathlib import Path

import pytest

import grapes

SRC = Path(grapes.__file__).parent
PARSERS = {"bit_table", "mask_of"}
READERS = {
    "grape.py": {"certificate_from_json", "_node_from_json", "_witness_from_json"},
    "collapse.py": {"sequence_from_json"},
}


def parser_uses(source: str) -> list:
    """(line, top-level function or class, name) for every use of a parser,
    imports aside; module level counts as None."""
    out = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            inner = top
            if top is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            name = child.id if isinstance(child, ast.Name) else (
                child.attr if isinstance(child, ast.Attribute) else None)
            if name in PARSERS:
                out.append((child.lineno, inner, name))
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


@pytest.mark.parametrize("module", sorted(READERS))
def test_names_are_parsed_only_by_the_json_readers(module):
    uses = parser_uses((SRC / module).read_text())
    outside = [f"{module}:{line} {name} in {top}" for line, top, name in uses
               if top not in READERS[module]]
    assert outside == []


def test_the_guard_sees_a_parser_outside_the_readers():
    source = (SRC / "grape.py").read_text().replace(
        "    root, names, nodes = restrict_ground(c).masks",
        "    bit_table(c.ground)\n    root, names, nodes = restrict_ground(c).masks", 1)
    assert ("verify_certificate", "bit_table") in {(top, name) for _, top, name in parser_uses(source)}
    assert parser_uses("x = [mask_of(f, b) for f in y]") == [(1, None, "mask_of")]
