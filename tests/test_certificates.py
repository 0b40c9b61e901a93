"""Certificate node tables against the recursive tree walkers they replaced.

The tree serialiser and the tree replay are kept here as oracles: a table
expanded to a tree must serialise like the tree, and both replays must
accept and reject the same certificates.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import pytest

import grapes.grape as grape
from grapes import (
    GrapeVariant,
    ReplayError,
    alexander_dual,
    certificate_from_json,
    certificate_to_json,
    check_grape,
    enumerate_complexes,
    independence_complex,
    restrict_ground,
    verify_certificate,
)
from grapes.complexes import deletion, link
from grapes.generators import cycle_complex, path_graph
from grapes.grape import CertNode, _base_kind, _verify_witness, _witness_to_json

DATA = Path(__file__).parent / "data"


# -- the recursive oracles ----------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    base: Optional[str] = None
    pivot: Optional[str] = None
    witness: Optional[object] = None
    link_cert: Optional["Tree"] = None
    del_cert: Optional["Tree"] = None


def as_tree(cert):
    """The tree a node table stands for, its shared nodes shared as objects."""
    built = []
    for node in cert:
        if node.base:
            built.append(Tree(base=node.base))
        else:
            built.append(
                Tree(
                    pivot=node.pivot,
                    witness=node.witness,
                    link_cert=built[node.link],
                    del_cert=built[node.deletion],
                )
            )
    return built[-1]


def oracle_to_json(tree):
    if tree.base is not None:
        return {"base": tree.base}
    return {
        "pivot": tree.pivot,
        "witness": _witness_to_json(tree.witness),
        "link": oracle_to_json(tree.link_cert),
        "deletion": oracle_to_json(tree.del_cert),
    }


def oracle_verify(c, variant, tree):
    cr = restrict_ground(c)
    if tree.base is not None:
        kind = _base_kind(cr)
        if kind != tree.base:
            raise ReplayError(f"base leaf says {tree.base!r} but complex is {kind!r}")
        return
    a = tree.pivot
    if a is None or not cr.has_face(frozenset({a})):
        raise ReplayError(f"pivot {a!r} is not a vertex")
    lk = link(cr, a)
    dl = deletion(cr, a)
    _verify_witness(variant, tree.witness, lk, dl)
    oracle_verify(lk, variant, tree.link_cert)
    oracle_verify(dl, variant, tree.del_cert)


def expand(data):
    """A format-2 certificate object expanded to the nested format-1 tree."""
    built = []
    for node in data["nodes"]:
        if "base" not in node:
            node = {**node, "link": built[node["link"]], "deletion": built[node["deletion"]]}
        built.append(node)
    return built[-1]


def accepts(replay, c, variant, cert):
    try:
        replay(c, variant, cert)
    except ReplayError:
        return False
    return True


def tamperings(c, cert):
    """Certificates that differ from a valid one in one place."""
    root = cert[-1]
    for e in c.ground:
        if e != root.pivot:
            yield cert[:-1] + (replace(root, pivot=e),)
    for i, node in enumerate(cert):
        if node.base:
            for kind in {"void", "irrelevant", "point"} - {node.base}:
                yield cert[:i] + (CertNode(base=kind),) + cert[i + 1 :]
    if not root.base and root.link != root.deletion:
        yield cert[:-1] + (replace(root, link=root.deletion, deletion=root.link),)


def _flat(cert):
    """A certificate with its shared nodes written out once per path, the way
    a nested certificate reads back."""
    out = []

    def walk(i):
        node = cert[i]
        if not node.base:
            node = replace(node, link=walk(node.link), deletion=walk(node.deletion))
        out.append(node)
        return len(out) - 1

    walk(len(cert) - 1)
    return tuple(out)


# -- differential checks ---------------------------------------------------------------


@pytest.mark.parametrize("variant", list(GrapeVariant))
def test_tables_match_the_tree_walkers(variant):
    complexes = list(enumerate_complexes("abcd"))
    checked = 0
    for c in complexes:
        verdict = check_grape(c, variant)
        if not verdict.is_yes:
            continue
        cert, tree = verdict.certificate, as_tree(verdict.certificate)
        data = certificate_to_json(cert)
        assert expand(data) == oracle_to_json(tree)
        assert certificate_from_json(data) == cert
        assert certificate_from_json(oracle_to_json(tree)) == _flat(cert)
        verify_certificate(c, variant, cert)
        oracle_verify(c, variant, tree)
        for bad in tamperings(c, cert):
            assert accepts(verify_certificate, c, variant, bad) == accepts(
                oracle_verify, c, variant, as_tree(bad)
            )
        checked += 1
    assert checked > 100


def test_replay_links_once_per_node_and_complex(monkeypatch):
    c = alexander_dual(independence_complex(path_graph(8)))
    cert = check_grape(c, GrapeVariant.STRONG).certificate
    pairs, todo = set(), [(len(cert) - 1, restrict_ground(c))]
    while todo:
        i, cr = todo.pop()
        node = cert[i]
        if (i, cr) in pairs or node.base:
            continue
        pairs.add((i, cr))
        todo += [
            (node.link, restrict_ground(link(cr, node.pivot))),
            (node.deletion, restrict_ground(deletion(cr, node.pivot))),
        ]
    calls = []

    def counted(cx, e):
        calls.append(e)
        return link(cx, e)

    monkeypatch.setattr(grape, "link", counted)
    verify_certificate(c, GrapeVariant.STRONG, cert)
    assert len(calls) == len(pairs)
    # a tree replay would link once per split of the written-out tree
    assert len(pairs) < sum(1 for node in _flat(cert) if not node.base)


def test_nested_certificate_still_replays():
    c = cycle_complex(5)
    data = json.loads((DATA / "c5-weak-nested.json").read_text())
    cert = certificate_from_json(data)
    verify_certificate(c, GrapeVariant.WEAK, cert)
    assert expand(certificate_to_json(cert)) == data

