"""Certificate node tables against the recursive tree walkers they replaced.

The tree replay is kept here as an oracle: a table expanded to a nested
tree must equal the tree its nodes stand for, and both replays must accept
and reject the same certificates.  So is the table replay on frozensets of
names that the mask kernel replaced: it must reject every tampered
certificate with the same error.  All of them read the one representation,
the format-3 document of plain JSON values.
"""

import json
from dataclasses import dataclass
from typing import Optional

import pytest

import grapes.grape as grape
from grapes import (
    GrapeVariant,
    InputError,
    ReplayError,
    alexander_dual,
    certificate_from_json,
    check_grape,
    collapse_search,
    complex_to_json,
    enumerate_complexes,
    independence_complex,
    irrelevant_complex,
    replay,
    restrict_ground,
    verify_certificate,
    void_complex,
)
from grapes.cli import main
from grapes.collapse import sequence_from_json
from grapes.complexes import deletion, link, new_complex
from test_collapse import frozenset_replay
from test_complexes import frozenset_cone_apexes, frozenset_link, has_face, maximal_deletion
from test_grape import frozenset_base_kind, frozenset_cone_fits
from test_graphs import path_graph

# the witness kind each variant's splits carry
KIND = {GrapeVariant.STRONG: "strong", GrapeVariant.COMBINATORIAL: "combinatorial",
        GrapeVariant.WEAK: "weak", GrapeVariant.STRONG_WEAK: "strong-weak"}

# -- the recursive oracles ----------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    base: Optional[str] = None
    apex: Optional[str] = None
    pivot: Optional[str] = None
    witness: Optional[dict] = None
    link_cert: Optional["Tree"] = None
    del_cert: Optional["Tree"] = None


def as_tree(cert):
    """The tree a node table stands for, its shared nodes shared as objects."""
    built = []
    for node in cert["nodes"]:
        if "base" in node:
            built.append(Tree(base=node["base"], apex=node.get("apex")))
        else:
            built.append(
                Tree(
                    pivot=node["pivot"],
                    witness=node["witness"],
                    link_cert=built[node["link"]],
                    del_cert=built[node["deletion"]],
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
        "witness": tree.witness,
        "link": oracle_to_json(tree.link_cert),
        "deletion": oracle_to_json(tree.del_cert),
    }


def frozenset_verify_cone(cr, apex):
    if apex not in frozenset_cone_apexes(cr):
        raise ReplayError(f"cone leaf's apex {apex!r} is not in every facet")


def has_cone_leaf_child(variant, link_base, deletion_base):
    """A strong split holds only with a cone-leaf child, whose replay checks
    the cone; another variant's split needs none."""
    if variant is GrapeVariant.STRONG and "cone" not in (link_base, deletion_base):
        raise ReplayError("strong split has no cone-leaf child")


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
    has_cone_leaf_child(variant, tree.link_cert.base, tree.del_cert.base)
    oracle_verify(lk, variant, tree.link_cert)
    oracle_verify(dl, variant, tree.del_cert)


def frozenset_verify_certificate(c, variant, cert):
    """The table replay on frozensets of names."""
    nodes = cert["nodes"]
    todo = [{} for _ in nodes]
    todo[-1][restrict_ground(c)] = None
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        for cr in todo[i]:
            if node.get("base") == "cone":
                frozenset_verify_cone(cr, node["apex"])
                continue
            if "base" in node:
                kind = frozenset_base_kind(cr)
                if kind != node["base"]:
                    raise ReplayError(f"base leaf says {node['base']!r} but complex is {kind!r}")
                continue
            a = node["pivot"]
            if not has_face(cr, frozenset({a})):
                raise ReplayError(f"pivot {a!r} is not a vertex")
            lk = frozenset_link(cr, a)
            dl = maximal_deletion(cr, a)
            frozenset_verify_witness(variant, node["witness"], lk, dl)
            has_cone_leaf_child(variant, nodes[node["link"]].get("base"),
                                nodes[node["deletion"]].get("base"))
            todo[node["link"]][restrict_ground(lk)] = None
            todo[node["deletion"]][restrict_ground(dl)] = None
        todo[i] = None


def frozenset_verify_witness(variant, witness, lk, dl):
    if witness["kind"] != KIND[variant]:
        raise ReplayError(f"{variant.value} certificate has a {witness['kind']!r} witness")
    if variant is GrapeVariant.STRONG:
        return
    if variant is GrapeVariant.COMBINATORIAL:
        x = witness["cone_element"]
        if x not in dl.ground:
            raise ReplayError(f"cone element {x!r} is not in the deletion ground set")
        if not frozenset_cone_fits(lk, dl, x):
            raise ReplayError(f"cone over the link with apex {x!r} does not fit the deletion")
        return
    if variant is GrapeVariant.WEAK:
        try:
            gamma = new_complex(dl.ground, [frozenset(f) for f in witness["gamma_facets"]])
        except InputError as exc:
            raise ReplayError(f"intermediate complex is malformed: {exc}") from None
        for f in lk.facets:
            if not has_face(gamma, f):
                raise ReplayError("link is not contained in the intermediate complex")
        for f in gamma.facets:
            if not has_face(dl, f):
                raise ReplayError("intermediate complex is not contained in the deletion")
        if not frozenset_replay(gamma, witness["collapse"]).is_void:
            raise ReplayError("intermediate complex does not collapse to void")
        return
    side = lk if witness["side"] == "link" else dl
    if not frozenset_replay(side, witness["collapse"]).is_void:
        raise ReplayError(f"{witness['side']} does not collapse to void")


def expand(data):
    """A certificate expanded to a nested tree, as format 1 wrote it."""
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


def with_root(cert, node):
    """The certificate with its root node replaced."""
    return with_node(cert, len(cert["nodes"]) - 1, node)


def with_node(cert, i, node):
    nodes = list(cert["nodes"])
    nodes[i] = node
    return {**cert, "nodes": nodes}


def tamperings(c, cert):
    """Certificates that differ from a valid one in one place."""
    root = cert["nodes"][-1]
    for e in c.ground:
        if e != root.get("pivot"):
            yield with_root(cert, {**root, "pivot": e})
    for i, node in enumerate(cert["nodes"]):
        if "base" in node:
            for kind in {"void", "irrelevant"} - {node["base"]}:
                yield with_node(cert, i, {"base": kind})
            if node["base"] != "cone":
                yield with_node(cert, i, {"base": "cone", "apex": c.ground[0]})
    if "base" not in root and root["link"] != root["deletion"]:
        yield with_root(cert, {**root, "link": root["deletion"], "deletion": root["link"]})


def witness_tamperings(c, cert):
    """Certificates whose root witness, or the apex of a root cone leaf,
    names something outside the ground, claims a wrong apex or side, or
    carries an illegal collapse step; a strong root, whose witness names
    nothing, gets its children swapped or one child twice."""
    root = cert["nodes"][-1]
    if root.get("base") == "cone":
        for apex in ("zz", None, *c.ground):
            yield with_root(cert, {**root, "apex": apex})
        return
    if "base" in root:
        return
    w = root["witness"]
    if w["kind"] == "strong":
        for link, deletion in ((root["deletion"], root["link"]), (root["link"], root["link"]),
                               (root["deletion"], root["deletion"])):
            yield with_root(cert, {**root, "link": link, "deletion": deletion})
        return
    if w["kind"] == "combinatorial":
        changes = [{**w, "cone_element": x} for x in ("zz", root["pivot"], *c.ground)]
    else:
        seq = w["collapse"]["steps"]
        zz = {"sigma": ["yy", "zz"], "tau": ["zz"]}
        changes = [{**w, "collapse": {"steps": steps}} for steps in (
            seq[:-1], [zz] + seq, seq[:1] + [zz] + seq[1:], seq[:1] + seq)]
        if w["kind"] == "strong-weak":
            changes.append({**w, "side": "link" if w["side"] == "deletion" else "deletion"})
        else:
            changes += [{**w, "gamma_facets": w["gamma_facets"] + [["zz"]]},
                        {**w, "gamma_facets": []}]
    for change in changes:
        yield with_root(cert, {**root, "witness": change})


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
    """A certificate's nodes with the shared ones written out once per path,
    as a tree would hold them."""
    out = []

    def walk(i):
        node = cert["nodes"][i]
        if "base" not in node:
            node = {**node, "link": walk(node["link"]), "deletion": walk(node["deletion"])}
        out.append(node)
        return len(out) - 1

    walk(len(cert["nodes"]) - 1)
    return out


# -- differential checks ---------------------------------------------------------------


def tables_match_the_tree_walkers(variant):
    complexes = list(enumerate_complexes("abcd"))
    checked = tampered = 0
    for c in complexes:
        verdict = check_grape(c, variant)
        if not verdict.is_yes:
            continue
        cert, tree = verdict.certificate, as_tree(verdict.certificate)
        assert expand(cert) == oracle_to_json(tree)
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


def test_certificates_and_sequences_are_plain_json():
    # the one representation holds no tuple, frozenset or callable: it comes
    # back from a JSON round trip unchanged, and what is read back replays
    for ground in ("", "a", "ab", "abc", "abcd"):
        for c in enumerate_complexes(ground):
            for variant in GrapeVariant:
                cert = check_grape(c, variant).certificate
                if cert is not None:
                    data = json.loads(json.dumps(cert))
                    assert data == cert
                    verify_certificate(c, variant, certificate_from_json(data))
            sequence = collapse_search(c).sequence
            if sequence is not None:
                data = json.loads(json.dumps(sequence))
                assert data == sequence
                assert replay(c, sequence_from_json(data)).is_void


# 5,148 tampered certificates in all
TAMPERED = {
    GrapeVariant.STRONG: 1164,
    GrapeVariant.COMBINATORIAL: 1410,
    GrapeVariant.WEAK: 1410,
    GrapeVariant.STRONG_WEAK: 1164,
}


@pytest.mark.parametrize("variant", list(GrapeVariant))
def test_tables_match_the_tree_walkers(variant):
    assert tables_match_the_tree_walkers(variant) == TAMPERED[variant]


def test_replay_links_once_per_node_and_complex(monkeypatch):
    # weak: the cone side of every strong split is a leaf, so a strong
    # certificate is a chain and shares no split
    c = alexander_dual(independence_complex(path_graph(6)))
    cert = check_grape(c, GrapeVariant.WEAK).certificate
    pairs, todo = set(), [(len(cert["nodes"]) - 1, restrict_ground(c))]
    while todo:
        i, cr = todo.pop()
        node = cert["nodes"][i]
        if (i, cr) in pairs or "base" in node:
            continue
        pairs.add((i, cr))
        todo += [
            (node["link"], restrict_ground(link(cr, node["pivot"]))),
            (node["deletion"], restrict_ground(deletion(cr, node["pivot"]))),
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
    assert len(pairs) < sum(1 for node in _flat(cert) if "base" not in node)


# -- a strong witness is a cone-leaf child -------------------------------------------------

TWO_POINTS = new_complex("ab", [frozenset("a"), frozenset("b")])
# the strong certificate of two points: at a, the link is irrelevant and the
# deletion is the point b, a cone
STRONG_TWO_POINTS = {"format": 3, "nodes": [
    {"base": "irrelevant"},
    {"base": "cone", "apex": "b"},
    {"pivot": "a", "witness": {"kind": "strong"}, "link": 0, "deletion": 1},
]}


def test_a_strong_witness_names_nothing_and_a_point_is_a_cone_leaf(tmp_path, capsys):
    cert = check_grape(TWO_POINTS, GrapeVariant.STRONG).certificate
    assert cert == STRONG_TWO_POINTS
    assert certificate_from_json(STRONG_TWO_POINTS) == cert
    assert verify_cert_exit(tmp_path, TWO_POINTS, STRONG_TWO_POINTS) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "variant": "strong"}


# verdicts and node sums on the 7,581 complexes on five elements
FIVE_ELEMENT_PINS = {
    GrapeVariant.STRONG: ({"yes": 4359, "no": 3222}, 35689),
    GrapeVariant.COMBINATORIAL: ({"yes": 7557, "no": 24}, 52416),
}


@pytest.mark.parametrize("variant", list(FIVE_ELEMENT_PINS))
def test_every_strong_split_on_five_elements_has_a_cone_leaf_child(variant):
    # recognition solves the cone side of a strong split as a cone leaf, or
    # finds it so in the memo
    verdicts, nodes, splits = {"yes": 0, "no": 0}, 0, 0
    for c in enumerate_complexes("abcde"):
        verdict = check_grape(c, variant)
        verdicts[verdict.verdict] += 1
        nodes += verdict.nodes
        table = verdict.certificate["nodes"] if verdict.certificate else []
        for node in table:
            if "base" not in node and node["witness"]["kind"] == "strong":
                assert "cone" in (table[node["link"]].get("base"), table[node["deletion"]].get("base"))
                splits += 1
    assert (verdicts, nodes) == FIVE_ELEMENT_PINS[variant]
    assert (splits > 1000) == (variant is GrapeVariant.STRONG)


# K4 less the edge ab: a combinatorial grape, but no strong one
K4_LESS_AB = new_complex("abcd", [frozenset(f) for f in ("ac", "ad", "bc", "bd", "cd")])


def test_a_strong_split_without_a_cone_leaf_child_is_rejected():
    assert check_grape(K4_LESS_AB, GrapeVariant.STRONG).verdict == "no"
    cert = check_grape(K4_LESS_AB, GrapeVariant.COMBINATORIAL).certificate
    relabelled = {**cert, "nodes": [n if "base" in n else {**n, "witness": {"kind": "strong"}}
                                    for n in cert["nodes"]]}
    # every leaf and pivot replays; only the splits whose sides are no cones fail
    for replay in (verify_certificate, frozenset_verify_certificate):
        with pytest.raises(ReplayError, match="strong split has no cone-leaf child"):
            replay(K4_LESS_AB, GrapeVariant.STRONG, relabelled)
    assert not accepts(oracle_verify, K4_LESS_AB, GrapeVariant.STRONG, as_tree(relabelled))


# certificates that no version writes any more: the nested tree of format 1,
# the table of format 2 with its cone side and apex keys, and a format-3
# table holding a point leaf
OLD_CERTIFICATES = {
    "format_one": expand(STRONG_TWO_POINTS),
    "format_two": {"format": 2, "nodes": [
        {"base": "irrelevant"},
        {"base": "point"},
        {"pivot": "a",
         "witness": {"kind": "strong", "cone_side": "deletion", "deletion_apex": "b"},
         "link": 0, "deletion": 1},
    ]},
    "point_leaf": {**STRONG_TWO_POINTS, "nodes": [
        {"base": "irrelevant"}, {"base": "point"}, STRONG_TWO_POINTS["nodes"][2]]},
}


@pytest.mark.parametrize("name", sorted(OLD_CERTIFICATES))
def test_an_old_certificate_is_refused(tmp_path, capsys, name):
    data = OLD_CERTIFICATES[name]
    match = "unknown base kind 'point'" if name == "point_leaf" else "unsupported certificate format"
    with pytest.raises(InputError, match=match):
        certificate_from_json(data)
    assert verify_cert_exit(tmp_path, TWO_POINTS, data) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")


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
    assert cert == {"format": 3, "nodes": [{"base": "cone", "apex": "b"}]}
    assert verify_cert_exit(tmp_path, PATH3, cert) == 0
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
    cert = {"format": 3, "nodes": [{"base": "cone", "apex": apex}]}
    for replay_cert in (verify_certificate, frozenset_verify_certificate):
        with pytest.raises(ReplayError, match="not in every facet"):
            replay_cert(c, GrapeVariant.STRONG, cert)
    assert verify_cert_exit(tmp_path, c, cert) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


@pytest.mark.parametrize("leaf", [{"base": "cone"}, {"base": "cone", "apex": 2},
                                  {"base": "cone", "apex": ["b"]}])
def test_a_cone_leaf_needs_a_string_apex(tmp_path, capsys, leaf):
    data = {"format": 3, "nodes": [leaf]}
    with pytest.raises(InputError, match="apex"):
        certificate_from_json(data)
    assert verify_cert_exit(tmp_path, PATH3, data) == 2
