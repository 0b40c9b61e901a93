"""Certificate node tables against the recursive tree walkers they replaced.

The tree replay is kept here as an oracle: a table expanded to a nested
tree must equal the tree its nodes stand for, and both replays must accept
and reject the same certificates.  So is the table replay on frozensets of
names that the mask kernel replaced: it must reject every tampered
certificate with the same error.  The oracles read the format-3 document of
plain JSON values, by name, as ``certificate_to_json`` writes it; the mask
replay reads what ``certificate_from_json`` makes of the same document, so
a tampering reaches it as it reaches the CLI.
"""

import itertools
import json
import random
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
    certificate_to_json,
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
from grapes.collapse import cone_steps, steps_to_json
from grapes.complexes import (
    deletion,
    deletion_masks,
    link,
    link_masks,
    maximal_masks,
    new_complex,
)
from test_collapse import frozenset_replay, read
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


def wire(verdict):
    """A verdict's certificate in its wire form, None on no certificate."""
    return verdict.certificate and certificate_to_json(verdict.certificate)


def wire_verify(c, variant, data):
    """Replay of a certificate document: the reader, then replay on masks."""
    verify_certificate(c, variant, certificate_from_json(data, c))


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
    """The message a replay rejects a certificate with, or None; a
    certificate that the reader refuses gives ("refused", its message)."""
    try:
        replay(c, variant, cert)
    except ReplayError as exc:
        return str(exc)
    except InputError as exc:
        return ("refused", str(exc))
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
    rejected = refused = 0
    for variant in GrapeVariant:
        for c in enumerate_complexes("abcd"):
            cert = wire(check_grape(c, variant))
            for bad in witness_tamperings(c, cert) if cert else ():
                error = replay_error(wire_verify, c, variant, bad)
                want = replay_error(frozenset_verify_certificate, c, variant, bad)
                if error == ("refused", 'cone leaf needs an "apex" string'):
                    # an apex that is no string: the CLI refuses it too
                    assert want == "cone leaf's apex None is not in every facet"
                    refused += 1
                else:
                    assert error == want
                rejected += error is not None
    # a None apex for each of the 53 cones on four elements, in every variant
    assert rejected > 1000 and refused == 53 * len(GrapeVariant)


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
        cert = wire(verdict)
        tree = as_tree(cert)
        assert expand(cert) == oracle_to_json(tree)
        verify_certificate(c, variant, verdict.certificate)
        oracle_verify(c, variant, tree)
        for bad in tamperings(c, cert):
            error = replay_error(wire_verify, c, variant, bad)
            assert error == replay_error(frozenset_verify_certificate, c, variant, bad)
            assert (error is None) == accepts(oracle_verify, c, variant, as_tree(bad))
            tampered += 1
        checked += 1
    assert checked > 100
    return tampered


def reached(cert):
    """The nodes of a certificate that its root reaches, found depth first
    and renumbered in their order."""
    nodes, seen, todo = cert["nodes"], set(), [len(cert["nodes"]) - 1]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo += [] if "base" in nodes[i] else [nodes[i]["link"], nodes[i]["deletion"]]
    index = {i: k for k, i in enumerate(sorted(seen))}
    return {"ground": cert["ground"], "nodes": [
        n if "base" in n else {**n, "link": index[n["link"]], "deletion": index[n["deletion"]]}
        for n in map(nodes.__getitem__, index)]}


def test_certificates_and_sequences_are_plain_json():
    # the wire forms hold no tuple, frozenset or callable: they come back
    # from a JSON round trip unchanged, and the readers give back the
    # certificate's reached part or the sequence on masks itself, which
    # replays; a search's table may hold nodes its root does not reach, and
    # 12 of the 742 certificates here do
    partial = 0
    for ground in ("", "a", "ab", "abc", "abcd"):
        for c in enumerate_complexes(ground):
            for variant in GrapeVariant:
                verdict = check_grape(c, variant)
                if verdict.certificate is not None:
                    data = json.loads(json.dumps(wire(verdict)))
                    assert data == wire(verdict)
                    read_back = certificate_from_json(data, c)
                    assert read_back == reached(verdict.certificate)
                    partial += read_back != verdict.certificate
                    verify_certificate(c, variant, verdict.certificate)
                    verify_certificate(c, variant, read_back)
            sequence = collapse_search(c).sequence
            if sequence is not None:
                data = json.loads(json.dumps(steps_to_json(sequence, c.ground)))
                assert data == steps_to_json(sequence, c.ground)
                assert read(c, data) == (c, sequence)
                assert replay(c, sequence).is_void
    assert partial == 12


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
    verdict = check_grape(c, GrapeVariant.WEAK)
    cert = wire(verdict)
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
    verify_certificate(c, GrapeVariant.WEAK, verdict.certificate)
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
    verdict = check_grape(TWO_POINTS, GrapeVariant.STRONG)
    assert wire(verdict) == STRONG_TWO_POINTS
    assert certificate_from_json(STRONG_TWO_POINTS, TWO_POINTS) == verdict.certificate
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
    cert = wire(check_grape(K4_LESS_AB, GrapeVariant.COMBINATORIAL))
    relabelled = {**cert, "nodes": [n if "base" in n else {**n, "witness": {"kind": "strong"}}
                                    for n in cert["nodes"]]}
    # every leaf and pivot replays; only the splits whose sides are no cones fail
    for replay in (wire_verify, frozenset_verify_certificate):
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
        certificate_from_json(data, TWO_POINTS)
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
    cert = wire(check_grape(PATH3, GrapeVariant.STRONG))
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
    for replay_cert in (wire_verify, frozenset_verify_certificate):
        with pytest.raises(ReplayError, match="not in every facet"):
            replay_cert(c, GrapeVariant.STRONG, cert)
    assert verify_cert_exit(tmp_path, c, cert) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


@pytest.mark.parametrize("leaf", [{"base": "cone"}, {"base": "cone", "apex": 2},
                                  {"base": "cone", "apex": ["b"]}])
def test_a_cone_leaf_needs_a_string_apex(tmp_path, capsys, leaf):
    data = {"format": 3, "nodes": [leaf]}
    with pytest.raises(InputError, match="apex"):
        certificate_from_json(data, PATH3)
    assert verify_cert_exit(tmp_path, PATH3, data) == 2


# -- the variant lattice ----------------------------------------------------------------

S, C, W, SW = (GrapeVariant.STRONG, GrapeVariant.COMBINATORIAL, GrapeVariant.WEAK,
               GrapeVariant.STRONG_WEAK)
# strong => comb => weak and strong => strong-weak => weak: the outcome table
# reads a variant's "yes" off a stronger one's, and convert is the proof
ARROWS = [(S, C), (S, SW), (S, W), (C, W), (SW, W)]


def convert_witness(node, nodes, lk, dl, target):
    """One split's witness for target, from the source witness and the
    split's sides, all on masks."""
    w = node["witness"]
    if w["kind"] == "strong":  # a child is a cone leaf; its apex cones that side
        side = "link" if nodes[node["link"]].get("base") == "cone" else "deletion"
        apex = nodes[node[side]]["apex"]
        if target is C:  # a cone side x * side holds the cone over the link with apex x
            return {"kind": "combinatorial", "cone_element": apex}
        cone = lk if side == "link" else dl
        if target is SW:
            return {"kind": "strong-weak", "side": side, "collapse": cone_steps(cone, apex)}
        return {"kind": "weak", "gamma_facets": cone, "collapse": cone_steps(cone, apex)}
    if w["kind"] == "combinatorial":  # lk <= x * lk <= dl, a cone
        x = w["cone_element"]
        gamma = maximal_masks(f | x for f in lk)
        return {"kind": "weak", "gamma_facets": gamma, "collapse": cone_steps(gamma, x)}
    # strong-weak: the side that collapses lies between lk and dl
    return {"kind": "weak", "gamma_facets": lk if w["side"] == "link" else dl,
            "collapse": w["collapse"]}


def convert(c, cert, target):
    """A certificate of c rewritten for a variant that its own variant
    implies: pivots, children and leaves stay, each split's witness is
    rewritten from its sides, and nothing is searched or named."""
    nodes = cert["nodes"]
    masks = {len(nodes) - 1: restrict_ground(c).masks}  # each node's complex, one per node
    out = list(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if "base" in node:
            continue
        lk, dl = link_masks(masks[i], node["pivot"]), deletion_masks(masks[i], node["pivot"])
        assert masks.setdefault(node["link"], lk) == lk
        assert masks.setdefault(node["deletion"], dl) == dl
        out[i] = {**node, "witness": convert_witness(node, nodes, lk, dl, target)}
    return {**cert, "nodes": out}


def converted(complexes_):
    """Convert every "yes" of the complexes along every arrow and replay it
    for the target; returns how many were converted."""
    count = 0
    for c in complexes_:
        for source, target in ARROWS:
            verdict = check_grape(c, source)
            if not verdict.is_yes:
                continue
            cert = convert(c, verdict.certificate, target)
            verify_certificate(c, target, cert)
            assert certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))), c) == cert
            assert grape.predicted_wedge(cert) == grape.predicted_wedge(verdict.certificate)
            assert check_grape(c, target).is_yes
            count += 1
    return count


def test_every_yes_on_four_elements_converts_along_every_arrow():
    assert converted(enumerate_complexes("abcd")) == 736


def sampled_complex(seed):
    """3-8 faces of size 1-3 on 5 or 6 elements: few cones, many splits."""
    rng = random.Random(seed)
    ground = "abcdef"[:5 + seed % 2]
    faces = [frozenset(f) for k in (1, 2, 3) for f in itertools.combinations(ground, k)]
    return new_complex(ground, rng.sample(faces, rng.randint(3, 8)))


def test_a_seeded_sample_on_five_and_six_elements_converts_along_every_arrow():
    sample = [sampled_complex(1729 + i) for i in range(150)]
    splits = sum("base" not in node for c in sample
                 for node in (check_grape(c, S).certificate or {"nodes": []})["nodes"])
    assert splits > 200  # strong splits, not only cone leaves
    assert converted(sample) == 622
