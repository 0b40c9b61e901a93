"""Certificate node tables against the recursive tree walkers they replaced.

The tree serialiser and the tree replay are kept here as oracles: a table
expanded to a tree must serialise like the tree, and both replays must
accept and reject the same certificates.  So is the table replay on
frozensets of names that the mask kernel replaced: it must reject every
tampered certificate with the same error.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import pytest

import grapes.grape as grape
from grapes import (
    GrapeVariant,
    InputError,
    ReplayError,
    alexander_dual,
    certificate_from_json,
    certificate_to_json,
    check_grape,
    complex_to_json,
    enumerate_complexes,
    independence_complex,
    irrelevant_complex,
    restrict_ground,
    verify_certificate,
    void_complex,
)
from grapes.cli import main
from grapes.complexes import deletion, link, new_complex
from grapes.generators import cycle_complex
from grapes.collapse import CollapsePair
from grapes.grape import (
    CertNode,
    ConeContainmentWitness,
    StrongWitness,
    TrivialSideWitness,
    _witness_to_json,
)
from test_collapse import frozenset_replay
from test_complexes import frozenset_cone_apexes, frozenset_link, has_face, maximal_deletion
from test_grape import frozenset_base_kind, frozenset_cone_fits
from test_graphs import path_graph

DATA = Path(__file__).parent / "data"


# -- the recursive oracles ----------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    base: Optional[str] = None
    apex: Optional[str] = None
    pivot: Optional[str] = None
    witness: Optional[object] = None
    link_cert: Optional["Tree"] = None
    del_cert: Optional["Tree"] = None


def as_tree(cert):
    """The tree a node table stands for, its shared nodes shared as objects."""
    built = []
    for node in cert:
        if node.base:
            built.append(Tree(base=node.base, apex=node.apex))
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
    if tree.base == "cone":
        return {"base": "cone", "apex": tree.apex}
    if tree.base is not None:
        return {"base": tree.base}
    return {
        "pivot": tree.pivot,
        "witness": _witness_to_json(tree.witness),
        "link": oracle_to_json(tree.link_cert),
        "deletion": oracle_to_json(tree.del_cert),
    }


def frozenset_verify_cone(cr, apex):
    if apex not in frozenset_cone_apexes(cr):
        raise ReplayError(f"cone leaf's apex {apex!r} is not in every facet")


def oracle_verify(c, variant, tree):
    cr = restrict_ground(c)
    if tree.base == "cone":
        frozenset_verify_cone(cr, tree.apex)
        return
    if tree.base is not None:
        kind = frozenset_base_kind(cr)
        if kind != tree.base:
            raise ReplayError(f"base leaf says {tree.base!r} but complex is {kind!r}")
        return
    a = tree.pivot
    if a is None or not has_face(cr, frozenset({a})):
        raise ReplayError(f"pivot {a!r} is not a vertex")
    lk = frozenset_link(cr, a)
    dl = maximal_deletion(cr, a)
    frozenset_verify_witness(variant, tree.witness, lk, dl)
    oracle_verify(lk, variant, tree.link_cert)
    oracle_verify(dl, variant, tree.del_cert)


def frozenset_verify_certificate(c, variant, cert):
    """The table replay on frozensets of names."""
    todo = [{} for _ in cert]
    todo[-1][restrict_ground(c)] = None
    for i in range(len(cert) - 1, -1, -1):
        node = cert[i]
        for cr in todo[i]:
            if node.base == "cone":
                frozenset_verify_cone(cr, node.apex)
                continue
            if node.base:
                kind = frozenset_base_kind(cr)
                if kind != node.base:
                    raise ReplayError(f"base leaf says {node.base!r} but complex is {kind!r}")
                continue
            a = node.pivot
            if not has_face(cr, frozenset({a})):
                raise ReplayError(f"pivot {a!r} is not a vertex")
            lk = frozenset_link(cr, a)
            dl = maximal_deletion(cr, a)
            frozenset_verify_witness(variant, node.witness, lk, dl)
            todo[node.link][restrict_ground(lk)] = None
            todo[node.deletion][restrict_ground(dl)] = None
        todo[i] = None


def frozenset_verify_witness(variant, witness, lk, dl):
    if getattr(witness, "variant", None) is not variant:
        raise ReplayError(f"{variant.value} certificate has a {type(witness).__name__} node")
    if variant is GrapeVariant.STRONG:
        side = "link" if witness.cone_side == "link" else "deletion"
        if not frozenset_cone_apexes(lk if side == "link" else dl):
            raise ReplayError(f"{side} is not a cone")
        return
    if variant is GrapeVariant.COMBINATORIAL:
        x = witness.cone_element
        if x not in dl.ground:
            raise ReplayError(f"cone element {x!r} is not in the deletion ground set")
        if not frozenset_cone_fits(lk, dl, x):
            raise ReplayError(f"cone over the link with apex {x!r} does not fit the deletion")
        return
    if variant is GrapeVariant.WEAK:
        try:
            gamma = new_complex(dl.ground, witness.gamma_facets)
        except InputError as exc:
            raise ReplayError(f"intermediate complex is malformed: {exc}") from None
        for f in lk.facets:
            if not has_face(gamma, f):
                raise ReplayError("link is not contained in the intermediate complex")
        for f in gamma.facets:
            if not has_face(dl, f):
                raise ReplayError("intermediate complex is not contained in the deletion")
        if not frozenset_replay(gamma, witness.sequence).is_void:
            raise ReplayError("intermediate complex does not collapse to void")
        return
    side = lk if witness.side == "link" else dl
    if not frozenset_replay(side, witness.sequence).is_void:
        raise ReplayError(f"{witness.side} does not collapse to void")


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


def replay_error(replay, c, variant, cert):
    """The message a replay rejects a certificate with, or None."""
    try:
        replay(c, variant, cert)
    except ReplayError as exc:
        return str(exc)
    return None


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
            if node.base != "cone":
                yield cert[:i] + (CertNode(base="cone", apex=c.ground[0]),) + cert[i + 1 :]
    if not root.base and root.link != root.deletion:
        yield cert[:-1] + (replace(root, link=root.deletion, deletion=root.link),)


def witness_tamperings(c, cert):
    """Certificates whose root witness, or the apex of a root cone leaf,
    names something outside the ground, claims a wrong apex or side, or
    carries an illegal collapse step."""
    root = cert[-1]
    w = root.witness
    if root.base == "cone":
        for apex in ("zz", None, *c.ground):
            yield cert[:-1] + (replace(root, apex=apex),)
        return
    if root.base:
        return
    if isinstance(w, StrongWitness):
        changes = [replace(w, cone_side=side) for side in ("link", "deletion", "both")]
    elif isinstance(w, ConeContainmentWitness):
        changes = [replace(w, cone_element=x) for x in ("zz", root.pivot, *c.ground)]
    else:
        seq = w.sequence
        zz = CollapsePair(frozenset({"zz", "yy"}), frozenset({"zz"}))
        changes = [replace(w, sequence=seq[:-1]), replace(w, sequence=(zz,) + seq),
                   replace(w, sequence=seq[:1] + (zz,) + seq[1:]),
                   replace(w, sequence=seq[:1] + seq)]
        if isinstance(w, TrivialSideWitness):
            changes.append(replace(w, side="link" if w.side == "deletion" else "deletion"))
        else:
            changes += [replace(w, gamma_facets=w.gamma_facets | {frozenset({"zz"})}),
                        replace(w, gamma_facets=frozenset())]
    for change in changes:
        yield cert[:-1] + (replace(root, witness=change),)


def test_replays_reject_tampered_witnesses_alike():
    rejected = 0
    for variant in GrapeVariant:
        for c in enumerate_complexes("abcd"):
            cert = check_grape(c, variant).certificate
            for bad in witness_tamperings(c, cert) if cert else ():
                error = replay_error(verify_certificate, c, variant, bad)
                assert error == replay_error(frozenset_verify_certificate, c, variant, bad)
                rejected += error is not None
    assert rejected > 1000


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


def tables_match_the_tree_walkers(variant):
    complexes = list(enumerate_complexes("abcd"))
    checked = tampered = 0
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
            error = replay_error(verify_certificate, c, variant, bad)
            assert error == replay_error(frozenset_verify_certificate, c, variant, bad)
            assert (error is None) == accepts(oracle_verify, c, variant, as_tree(bad))
            tampered += 1
        checked += 1
    assert checked > 100
    return tampered


# 6,482 tampered certificates in all
TAMPERED = {
    GrapeVariant.STRONG: 1462,
    GrapeVariant.COMBINATORIAL: 1779,
    GrapeVariant.WEAK: 1779,
    GrapeVariant.STRONG_WEAK: 1462,
}


@pytest.mark.parametrize("variant", list(GrapeVariant))
def test_tables_match_the_tree_walkers(variant):
    assert tables_match_the_tree_walkers(variant) == TAMPERED[variant]


def test_replay_links_once_per_node_and_complex(monkeypatch):
    # weak: the cone side of every strong split is a leaf, so a strong
    # certificate is a chain and shares no split
    c = alexander_dual(independence_complex(path_graph(6)))
    cert = check_grape(c, GrapeVariant.WEAK).certificate
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
    link_masks = grape.link_masks

    def counted(masks, a):
        calls.append(a)
        return link_masks(masks, a)

    monkeypatch.setattr(grape, "link_masks", counted)
    verify_certificate(c, GrapeVariant.WEAK, cert)
    assert len(calls) == len(pairs)
    # a tree replay would link once per split of the written-out tree
    assert len(pairs) < sum(1 for node in _flat(cert) if not node.base)


def test_nested_certificate_still_replays():
    c = cycle_complex(5)
    data = json.loads((DATA / "c5-weak-nested.json").read_text())
    cert = certificate_from_json(data)
    verify_certificate(c, GrapeVariant.WEAK, cert)
    assert expand(certificate_to_json(cert)) == data


# -- strong witnesses name their cone side only -------------------------------------------

TWO_POINTS = new_complex("ab", [frozenset("a"), frozenset("b")])
# a strong certificate of two points as earlier versions wrote it
OLD_TWO_POINTS = {"format": 2, "nodes": [
    {"base": "irrelevant"},
    {"base": "point"},
    {"pivot": "a",
     "witness": {"kind": "strong", "cone_side": "deletion", "deletion_apex": "b"},
     "link": 0, "deletion": 1},
]}


def test_a_strong_certificate_names_no_apex_in_its_witnesses():
    data = certificate_to_json(check_grape(TWO_POINTS, GrapeVariant.STRONG).certificate)
    root = OLD_TWO_POINTS["nodes"][2]
    assert data["nodes"][2] == {**root, "witness": {"kind": "strong", "cone_side": "deletion"}}
    assert data["nodes"][:2] == OLD_TWO_POINTS["nodes"][:2]


def test_an_older_strong_certificate_still_replays(tmp_path, capsys):
    # its apexes, and the "both" side, are read and ignored
    cert = certificate_from_json(OLD_TWO_POINTS)
    assert cert == check_grape(TWO_POINTS, GrapeVariant.STRONG).certificate
    assert verify_cert_exit(tmp_path, TWO_POINTS, OLD_TWO_POINTS) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "variant": "strong"}
    # the path a-b-c-d at a: the link, the point b, and the deletion, with
    # apex c, are both cones
    path4 = new_complex("abcd", [frozenset("ab"), frozenset("bc"), frozenset("cd")])
    both = {"format": 2, "nodes": [
        {"base": "point"},
        {"base": "cone", "apex": "c"},
        {"pivot": "a", "witness": {"kind": "strong", "cone_side": "both", "link_apex": "b",
                                   "deletion_apex": "c"}, "link": 0, "deletion": 1},
    ]}
    assert certificate_from_json(both)[-1].witness == StrongWitness("both")
    assert verify_cert_exit(tmp_path, path4, both) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "variant": "strong"}


# -- cone leaves -------------------------------------------------------------------------


PATH3 = new_complex("abc", [frozenset("ab"), frozenset("bc")])  # a cone with apex b


def verify_cert_exit(tmp_path, c, cert_json):
    """The exit code of grape verify-cert on a complex and a certificate object."""
    c_path, cert_path = tmp_path / "c.json", tmp_path / "cert.json"
    c_path.write_text(json.dumps(complex_to_json(c)))
    cert_path.write_text(json.dumps(cert_json))
    return main(["grape", "verify-cert", str(c_path), str(cert_path)])


def test_a_cone_is_one_leaf_valid_for_any_variant(tmp_path, capsys):
    cert = check_grape(PATH3, GrapeVariant.STRONG).certificate
    assert certificate_to_json(cert) == {"format": 2, "nodes": [{"base": "cone", "apex": "b"}]}
    assert verify_cert_exit(tmp_path, PATH3, certificate_to_json(cert)) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "variant": "any"}


@pytest.mark.parametrize(
    "c, apex",
    [
        (PATH3, "a"),  # a vertex, but not in every facet
        (PATH3, "zz"),  # outside the ground
        (void_complex("abc"), "b"),
        (irrelevant_complex("abc"), "b"),
    ],
)
def test_a_cone_leaf_whose_apex_cones_nothing_is_rejected(tmp_path, capsys, c, apex):
    cert = (CertNode(base="cone", apex=apex),)
    for replay in (verify_certificate, frozenset_verify_certificate):
        with pytest.raises(ReplayError, match="not in every facet"):
            replay(c, GrapeVariant.STRONG, cert)
    assert verify_cert_exit(tmp_path, c, certificate_to_json(cert)) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


@pytest.mark.parametrize("leaf", [{"base": "cone"}, {"base": "cone", "apex": 2},
                                  {"base": "cone", "apex": ["b"]}])
def test_a_cone_leaf_needs_a_string_apex(tmp_path, capsys, leaf):
    data = {"format": 2, "nodes": [leaf]}
    with pytest.raises(InputError, match="apex"):
        certificate_from_json(data)
    assert verify_cert_exit(tmp_path, PATH3, data) == 2
