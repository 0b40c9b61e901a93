"""Recognition of grape decompositions with replayable certificates.

A grape is a simplicial complex admitting a recursive vertex decomposition:
some pivot vertex has link and deletion that are again grapes, plus a
variant-specific gluing condition.  The four variants decided here:

* strong: the link or the deletion is a cone;
* combinatorial: the link fits inside a cone inside the deletion
  (decided as: some element x with every link facet F giving a face F + {x}
  of the deletion -- the cone over the link with apex x then sits inside);
* weak: some intermediate complex between link and deletion is
  simple-homotopy trivial (tested by collapsibility, so inconclusive
  searches surface as "unknown");
* strong-weak: the link or deletion itself is simple-homotopy trivial
  (same collapsibility caveat).

Every witness makes the link null-homotopic in the deletion, so a grape is
the deletion wedged with the suspended link and its reduced homology is
free.  A weak-family "no" is read off homology, which carries the proof: a
strong-weak pivot fails when both sides have nonzero reduced homology, and
a complex with torsion is no grape of any variant.

Grape status depends only on the vertex set, so recognition normalizes the
ground set to the vertices at every node.  A cone is a grape of every
variant: at any pivot other than its apex the link and the deletion are
again cones with that apex, and a cone collapses to void.  So recognition
ends at every cone with a leaf naming its lowest apex instead of splitting
it down to points.  Every "yes" comes
with a certificate that replays without searching: a table of nodes listed
children first, root last, in memory and on the wire.  Every certificate
folds into a predicted wedge of spheres, and the simple-homotopy class of a
strong grape (void, or a cross-polytope boundary) is read off it.

Recognition and replay run on the mask kernel of ``complexes``: bit i is
element i of the root's vertices in ground order, a subproblem is the
frozenset of its facet masks (also its memo key), pivots are tried lowest
bit first and the smallest apex of a cone is ``m & -m``.  Restricting a
subproblem to its vertices keeps the bit order, so it costs nothing.  Names
come back only in the certificate: pivots, apexes, cone elements, the
intermediate complex and the collapse pairs of a sequence, found in face
order, not integer order (see ``collapse``).  One ``Budget`` counts the
subproblems, the refutations and the nodes of every collapse search;
running out is "unknown".  Any other "unknown" names its origin: the reason
the first inconclusive pivot test gave, and the pivots and sides leading to
it from the root.  Theorem checks recognise through an ``OutcomeTable``, a
memo that keeps outcomes (verdicts plus predicted wedges), never
certificates, and the duals ``verify_dual_invariance`` builds after a primal yes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, NamedTuple, Optional

from .collapse import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    ReplayError,
    cone_steps,
    named_steps,
    obstruction,
    replay_pairs,
    search_masks,
    sequence_from_json,
    sequence_to_json,
)
from .complexes import (
    Complex,
    InputError,
    alexander_dual,
    bit_table,
    deletion_masks,
    face_of,
    holders,
    join_mask,
    link_masks,
    mask_of,
    maximal_masks,
    meet_mask,
    restrict_ground,
)
from .homology import SHClass

TORSION_REASON = "the reduced homology has torsion, which no grape has"


class _Torsion(Exception):
    """The root's reduced homology has torsion: no variant's grape."""


class GrapeVariant(Enum):
    STRONG = "strong"
    COMBINATORIAL = "comb"
    WEAK = "weak"
    STRONG_WEAK = "strong-weak"


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class StrongWitness:
    """Which of link/deletion is a cone; that side's child is a cone leaf
    naming the apex.  Recognition names the deletion when both sides are
    cones; "both" reads as "deletion" wherever a witness is read."""

    variant: ClassVar[GrapeVariant] = GrapeVariant.STRONG
    cone_side: str  # "link" | "deletion" | "both"


@dataclass(frozen=True)
class ConeContainmentWitness:
    """Element x whose cone over the link lies inside the deletion."""

    variant: ClassVar[GrapeVariant] = GrapeVariant.COMBINATORIAL
    cone_element: str


@dataclass(frozen=True)
class TrivialIntermediateWitness:
    """Collapsible complex squeezed between link and deletion."""

    variant: ClassVar[GrapeVariant] = GrapeVariant.WEAK
    gamma_facets: frozenset
    sequence: tuple


@dataclass(frozen=True)
class TrivialSideWitness:
    """Side (link or deletion) that collapses to void, with its sequence."""

    variant: ClassVar[GrapeVariant] = GrapeVariant.STRONG_WEAK
    side: str  # "link" | "deletion"
    sequence: tuple


@dataclass(frozen=True)
class CertNode:
    """One node of a certificate, a tuple of nodes listed children first.

    A base leaf ("void", "irrelevant" or "point", with at most one vertex;
    or "cone", naming an apex that lies in every facet) or a split carrying
    the pivot, the variant witness, and the indices of its link's and its
    deletion's nodes, earlier in the tuple.  The last node is the root;
    memoised subproblems give a node several parents.
    """

    base: Optional[str] = None
    pivot: Optional[str] = None
    witness: Optional[object] = None
    link: Optional[int] = None
    deletion: Optional[int] = None
    apex: Optional[str] = None  # a "cone" leaf only


@dataclass(frozen=True)
class GrapeVerdict:
    verdict: str  # "yes" | "no" | "unknown"
    certificate: Optional[tuple] = None  # of CertNode, root last
    reason: Optional[str] = None
    nodes: int = 0

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


# -- recognition -------------------------------------------------------------


def _base_kind(masks: frozenset) -> Optional[str]:
    if not masks:
        return "void"
    verts = join_mask(masks)
    if not verts:
        return "irrelevant"
    if not verts & (verts - 1):
        return "point"
    return None


def _cone_points(lk: frozenset, dl: frozenset) -> int:
    """The x whose cone over lk sits inside dl, as a mask (vertices of dl):
    every link facet F must give a face F + {x} of dl, so x lies in a facet
    of dl through F.  Stops once no x is left."""
    out = join_mask(dl)
    held = holders(dl)
    for f in lk:
        out &= join_mask(held(f))
        if not out:
            break
    return out


def check_grape(c: Complex, variant: GrapeVariant, budget: int = DEFAULT_BUDGET) -> GrapeVerdict:
    """Decide grape membership for one variant, with a certificate on yes.

    Strong and combinatorial answers are definitive.  The weak variants test
    simple-homotopy triviality by collapsibility and refute it by homology:
    a side or intermediate candidate that :func:`collapse.obstruction`
    refutes costs one node and no search, a strong-weak pivot with both
    sides refuted fails, and torsion in the root's homology, read once at
    the first inconclusive pivot test, answers "no" with TORSION_REASON.
    Each face set's homology is computed at most once per recognition.
    Anything else inconclusive is reported "unknown", never guessed, with
    its origin.  Every subproblem that is a cone, the root included, is
    answered "yes" by a one-node "cone" leaf, with no pivot test.

    One ``Budget`` of the given limit counts all of the work: each
    subproblem, each refutation, and each node of every collapse search.
    Running out anywhere ends the recognition "unknown" after limit + 1
    nodes.
    """
    budget = Budget(budget)
    c = restrict_ground(c)
    names, root = c.ground, c.masks
    memo: dict = {}
    homology: dict = {}  # face set -> its obstruction

    def name(x: int) -> Optional[str]:
        return names[x.bit_length() - 1] if x else None

    def obstructed(masks: frozenset):
        if masks not in homology:
            homology[masks] = obstruction(masks, names)
        return homology[masks]

    def refutes(masks: frozenset) -> bool:
        """Whether homology refutes a collapse of masks, for one node."""
        if obstructed(masks) is None:
            return False
        budget.spend()
        return True

    def witness(lk: frozenset, dl: frozenset):
        """Variant gluing condition at one pivot: (status, witness or reason)."""
        if variant is GrapeVariant.STRONG:
            if meet_mask(dl):
                return "yes", StrongWitness("deletion")
            if meet_mask(lk):
                return "yes", StrongWitness("link")
            return "no", "neither side is a cone"

        if variant is GrapeVariant.COMBINATORIAL:
            x = _cone_points(lk, dl)
            if x:
                return "yes", ConeContainmentWitness(name(x & -x))
            return "no", "no cone over the link fits inside the deletion"

        if variant is GrapeVariant.STRONG_WEAK:
            refuted = 0
            for side, side_masks in (("link", lk), ("deletion", dl)):
                if refutes(side_masks):
                    refuted += 1
                    continue
                steps = search_masks(side_masks, budget, names)
                if steps is not None:
                    return "yes", TrivialSideWitness(side, named_steps(steps, names))
            if refuted == 2:
                return "no", "both sides have nonzero reduced homology"
            # an acyclic side that fails to collapse might still be
            # simple-homotopy trivial
            return "unknown", "neither side collapses (collapse-only test)"

        # weak: look for a collapsible complex between link and deletion
        for gamma in (lk, dl):
            steps = None if refutes(gamma) else search_masks(gamma, budget, names)
            if steps is not None:
                return "yes", intermediate(gamma, steps)
        x = _cone_points(lk, dl)
        if x:
            gamma = maximal_masks(f | (x & -x) for f in lk)
            apexes = meet_mask(gamma)
            return "yes", intermediate(gamma, cone_steps(gamma, apexes & -apexes) if gamma else ())
        return "unknown", "no collapsible intermediate in the fast family"

    def intermediate(gamma: frozenset, steps) -> TrivialIntermediateWitness:
        gamma_facets = frozenset(face_of(g, names) for g in gamma)
        return TrivialIntermediateWitness(gamma_facets, named_steps(steps, names))

    nodes: list = []  # certificate nodes of solved subproblems, children first
    torsion_read = False  # the root's homology, read at the first inconclusive pivot test

    def solve(masks: frozenset):
        """One subproblem, as a generator: it yields each link or deletion it
        needs solved and is sent back that one's (status, node index); an
        "unknown" carries its origin (reason, pivots, sides) instead."""
        nonlocal torsion_read
        budget.spend()
        kind = _base_kind(masks)
        if kind is not None:
            nodes.append(CertNode(base=kind))
            return "yes", len(nodes) - 1
        apexes = meet_mask(masks)
        if apexes:  # a cone is a grape of every variant
            nodes.append(CertNode(base="cone", apex=name(apexes & -apexes)))
            return "yes", len(nodes) - 1
        origin = None
        rest = join_mask(masks)
        while rest:
            a = rest & -rest
            rest ^= a
            lk = link_masks(masks, a)
            dl = deletion_masks(masks, a)
            status, payload = witness(lk, dl)
            if status == "no":
                continue
            if status == "unknown" and not torsion_read:
                torsion_read = True
                profile = obstructed(root)
                if profile is not None and any(profile.torsion.values()):
                    raise _Torsion
            lk_status, lk_ref = yield lk
            if lk_status == "no":
                continue
            dl_status, dl_ref = yield dl
            if dl_status == "no":
                continue
            if status == lk_status == dl_status == "yes":
                nodes.append(CertNode(pivot=name(a), witness=payload, link=lk_ref, deletion=dl_ref))
                return "yes", len(nodes) - 1
            if origin is None and status == "unknown":
                origin = (payload, (name(a),), ())
            elif origin is None:
                side, (reason, pivots, sides) = (
                    ("link", lk_ref) if lk_status == "unknown" else ("deletion", dl_ref))
                origin = (reason, (name(a),) + pivots, (side,) + sides)
        return ("no", None) if origin is None else ("unknown", origin)

    # solve's frames on an explicit stack; a memoised subproblem is not pushed
    stack = [(root, solve(root))]
    result = None
    try:
        while stack:
            key, frame = stack[-1]
            try:
                sub = frame.send(result)
            except StopIteration as done:
                stack.pop()
                result = memo[key] = done.value
                continue
            result = memo.get(sub)
            if result is None:
                stack.append((sub, solve(sub)))
    except BudgetExceeded:
        return GrapeVerdict("unknown", reason="recognition budget exhausted", nodes=budget.used)
    except _Torsion:
        return GrapeVerdict("no", reason=TORSION_REASON, nodes=budget.used)
    if result[0] == "yes":
        return GrapeVerdict("yes", certificate=_reachable(nodes), nodes=budget.used)
    if result[0] == "no":
        return GrapeVerdict("no", nodes=budget.used)
    # the pivots from the root down to the inconclusive test, and the side
    # taken below each of them but the last
    reason, pivots, sides = result[1]
    where = f"pivots {' > '.join(pivots)}, {' > '.join(sides)}" if sides else (
        f"pivot {pivots[0]}, at the root")
    return GrapeVerdict("unknown", reason=f"{reason} ({where})", nodes=budget.used)


def _reachable(nodes: list) -> tuple:
    """The nodes reachable from the last one, renumbered in their order."""
    keep = {len(nodes) - 1}
    for i in range(len(nodes) - 1, -1, -1):
        if i in keep and not nodes[i].base:
            keep |= {nodes[i].link, nodes[i].deletion}
    index = {i: k for k, i in enumerate(sorted(keep))}
    return tuple(
        n if n.base else CertNode(pivot=n.pivot, witness=n.witness, link=index[n.link],
                                  deletion=index[n.deletion])
        for n in map(nodes.__getitem__, index)
    )


# -- certificate replay --------------------------------------------------------


def verify_certificate(c: Complex, variant: GrapeVariant, cert: tuple) -> None:
    """Replay a certificate against a complex; raises ReplayError on any gap.

    Verification is independent of the search: pivot legality, the variant
    witness, and both sub-certificates are all checked from scratch.  Each
    node replays once per distinct complex its parents hand down.
    """
    c = restrict_ground(c)
    names, root, bit = c.ground, c.masks, bit_table(c.ground)
    todo = [{} for _ in cert]  # per node: its complexes, as insertion-ordered keys
    todo[-1][root] = None
    for i in range(len(cert) - 1, -1, -1):
        node = cert[i]
        for masks in todo[i]:
            if node.base == "cone":  # meet_mask is 0 on the void and irrelevant complexes
                if not bit.get(node.apex, 0) & meet_mask(masks):
                    raise ReplayError(f"cone leaf's apex {node.apex!r} is not in every facet")
                continue
            if node.base:
                kind = _base_kind(masks)
                if kind != node.base:
                    raise ReplayError(f"base leaf says {node.base!r} but complex is {kind!r}")
                continue
            a = node.pivot
            verts = join_mask(masks)
            if not bit.get(a, 0) & verts:
                raise ReplayError(f"pivot {a!r} is not a vertex")
            lk = link_masks(masks, bit[a])
            dl = deletion_masks(masks, bit[a])
            _verify_witness(variant, node.witness, lk, dl, verts ^ bit[a], names, bit)
            todo[node.link][lk] = None
            todo[node.deletion][dl] = None
        todo[i] = None


def _verify_witness(
    variant: GrapeVariant, witness: object, lk: frozenset, dl: frozenset, ground: int,
    names: tuple, bit: dict,
) -> None:
    """One node's witness, with ground the deletion's ground set as a mask."""
    if getattr(witness, "variant", None) is not variant:
        raise ReplayError(f"{variant.value} certificate has a {type(witness).__name__} node")
    if variant is GrapeVariant.STRONG:
        side, masks = ("link", lk) if witness.cone_side == "link" else ("deletion", dl)
        if not meet_mask(masks):
            raise ReplayError(f"{side} is not a cone")
        return
    if variant is GrapeVariant.COMBINATORIAL:
        x = witness.cone_element
        if not bit.get(x, 0) & ground:
            raise ReplayError(f"cone element {x!r} is not in the deletion ground set")
        if not bit[x] & _cone_points(lk, dl):
            raise ReplayError(f"cone over the link with apex {x!r} does not fit the deletion")
        return
    if variant is GrapeVariant.WEAK:
        unknown = {x for f in witness.gamma_facets for x in f if not bit.get(x, 0) & ground}
        if unknown:
            raise ReplayError("intermediate complex is malformed: facet uses unknown ground "
                              f"elements: {sorted(unknown)}")
        gamma_masks = maximal_masks(mask_of(f, bit) for f in witness.gamma_facets)
        in_gamma, in_dl = holders(gamma_masks), holders(dl)
        if not all(any(in_gamma(f)) for f in lk):
            raise ReplayError("link is not contained in the intermediate complex")
        if not all(any(in_dl(g)) for g in gamma_masks):
            raise ReplayError("intermediate complex is not contained in the deletion")
        if replay_pairs(gamma_masks, witness.sequence, bit, names):
            raise ReplayError("intermediate complex does not collapse to void")
        return
    # strong-weak
    side = lk if witness.side == "link" else dl
    if replay_pairs(side, witness.sequence, bit, names):
        raise ReplayError(f"{witness.side} does not collapse to void")


# -- classification ------------------------------------------------------------


def predicted_wedge(cert: tuple) -> dict:
    """Predicted reduced Betti numbers, folded from a certificate alone.

    At every split the complex is homotopy equivalent to the deletion wedged
    with the suspended link, so predictions add up from the leaves: the
    empty dict means contractible, otherwise dimension -> sphere
    multiplicity.  This is the one homotopy type the engine derives, for
    every variant: the strong class and the homology checks read it.
    """
    folds: list = []
    for node in cert:
        if node.base:
            folds.append({-1: 1} if node.base == "irrelevant" else {})
            continue
        out = dict(folds[node.deletion])
        for k, mult in folds[node.link].items():
            out[k + 1] = out.get(k + 1, 0) + mult
        folds.append(out)
    return folds[-1]


def classify_strong(cert: tuple) -> SHClass:
    """Simple-homotopy class of a strong grape, read off its predicted wedge;
    ReplayError on another variant's witness or a wedge that is not one sphere."""
    if any(not node.base and not isinstance(node.witness, StrongWitness) for node in cert):
        raise ReplayError("classification needs a strong certificate")
    try:
        return SHClass.of_wedge(predicted_wedge(cert))
    except InputError as exc:
        raise ReplayError(f"not a strong grape's certificate: {exc}") from None


# -- recognition outcomes ----------------------------------------------------------


class Outcome(NamedTuple):
    """What a theorem check reads of one recognition, never the certificate:
    the verdict plus the predicted wedge, which a strong class is read off.

    A NamedTuple rather than a dataclass: the class is created at every
    import, and a dataclass takes about ten times as long to build.
    """

    verdict: str
    wedge: Optional[dict] = None  # every yes

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


class OutcomeTable:
    """A memo that computes each key once; one per suite stage.

    :meth:`recognise` keeps outcomes by (complex, variant):
    the verdict plus the wedge folded from the certificate, which is
    dropped; harnesses keep a dual, PF/PM or reports under keys of their own.
    """

    def __init__(self) -> None:
        self.entries: dict = {}

    def once(self, key, compute: Callable):
        """The value under key, calling compute() only if there is none yet
        (a falsy value, such as an empty list, counts as one)."""
        if key not in self.entries:
            self.entries[key] = compute()
        return self.entries[key]

    def recognise(self, c: Complex, variant: GrapeVariant) -> Outcome:
        def outcome() -> Outcome:
            verdict = check_grape(c, variant)
            cert = verdict.certificate  # None unless yes
            return Outcome(verdict.verdict, predicted_wedge(cert) if cert else None)

        return self.once((c, variant), outcome)


# -- duality transfer ------------------------------------------------------------


def verify_dual_invariance(
    c: Complex,
    variant: GrapeVariant,
    outcomes: Optional[OutcomeTable] = None,
) -> dict:
    """Check that the Alexander dual is a grape of the same variant.

    The report always carries the primal verdict.  Unless it is "yes" the
    report fails and the dual is not computed.  For the strong variant the
    simple-homotopy classes must additionally match across duality: the
    void class maps to itself and a cross-polytope boundary of dimension n
    maps to dimension |X| - n - 1 (only asserted for nonempty ground sets).
    Weak-variant duals may come back "unknown"; this is tolerated, flagged.
    The dual and both recognitions go through the outcome table (a fresh
    one by default), so nothing the table holds is computed again.
    """
    outcomes = OutcomeTable() if outcomes is None else outcomes
    primal = outcomes.recognise(c, variant)
    report = {
        "variant": variant.value,
        "ground_size": len(c.ground),
        "primal_verdict": primal.verdict,
        "pass": primal.is_yes,
    }
    if not primal.is_yes:
        return report
    dual_c = outcomes.once(("dual", c), lambda: alexander_dual(c))
    dual = outcomes.recognise(dual_c, variant)
    weak_family = variant in (GrapeVariant.WEAK, GrapeVariant.STRONG_WEAK)
    tolerated = weak_family and dual.verdict == "unknown"
    report["dual_verdict"] = dual.verdict
    report["unknown_tolerated"] = tolerated
    report["pass"] = dual.is_yes or tolerated
    if variant is GrapeVariant.STRONG and dual.is_yes and len(c.ground) > 0:
        primal_class = SHClass.of_wedge(primal.wedge)
        dual_class = SHClass.of_wedge(dual.wedge)
        expected = primal_class.dual_expected(len(c.ground))
        report["class"] = str(primal_class)
        report["dual_class"] = str(dual_class)
        report["expected_dual_class"] = str(expected)
        if dual_class != expected:
            report["pass"] = False
    return report


# -- certificate JSON --------------------------------------------------------------


def _witness_to_json(w: object) -> dict:
    if isinstance(w, StrongWitness):
        return {"kind": "strong", "cone_side": w.cone_side}
    if isinstance(w, ConeContainmentWitness):
        return {"kind": "combinatorial", "cone_element": w.cone_element}
    if isinstance(w, TrivialIntermediateWitness):
        return {
            "kind": "weak",
            "gamma_facets": sorted(sorted(f) for f in w.gamma_facets),
            "collapse": sequence_to_json(w.sequence),
        }
    if isinstance(w, TrivialSideWitness):
        return {
            "kind": "strong-weak",
            "side": w.side,
            "collapse": sequence_to_json(w.sequence),
        }
    raise InputError(f"cannot serialize witness {w!r}")


def _witness_from_json(data: object) -> object:
    if not isinstance(data, dict):
        raise InputError("witness must be an object")
    kind = data.get("kind")
    if kind == "strong":
        # older certificates may say "both" and name apexes, which are ignored
        side = data.get("cone_side")
        if side not in ("link", "deletion", "both"):
            raise InputError('strong witness needs a link/deletion/both "cone_side"')
        return StrongWitness(side)
    if kind == "combinatorial":
        x = data.get("cone_element")
        if not isinstance(x, str):
            raise InputError('combinatorial witness needs a "cone_element" string')
        return ConeContainmentWitness(x)
    if kind == "weak":
        facets = data.get("gamma_facets")
        if not isinstance(facets, list) or not all(
            isinstance(f, list) and all(isinstance(x, str) for x in f) for f in facets
        ):
            raise InputError('weak witness needs a "gamma_facets" array of string arrays')
        return TrivialIntermediateWitness(
            frozenset(frozenset(f) for f in facets),
            sequence_from_json(data.get("collapse", {})),
        )
    if kind == "strong-weak":
        side = data.get("side")
        if side not in ("link", "deletion"):
            raise InputError('strong-weak witness needs "side": "link" or "deletion"')
        return TrivialSideWitness(side, sequence_from_json(data.get("collapse", {})))
    raise InputError(f"unknown witness kind {kind!r}")


def _node_to_json(n: CertNode) -> dict:
    if n.base == "cone":
        return {"base": "cone", "apex": n.apex}
    if n.base:
        return {"base": n.base}
    return {"pivot": n.pivot, "witness": _witness_to_json(n.witness), "link": n.link,
            "deletion": n.deletion}


def certificate_to_json(cert: tuple) -> dict:
    """The wire form of a certificate: {"format": 2, "nodes": [...]}."""
    return {"format": 2, "nodes": [_node_to_json(n) for n in cert]}


def _node_from_json(data: object, i: int) -> CertNode:
    if not isinstance(data, dict):
        raise InputError("certificate node must be an object")
    if data.get("base") == "cone":
        if not isinstance(data.get("apex"), str):
            raise InputError('cone leaf needs an "apex" string')
        return CertNode(base="cone", apex=data["apex"])
    if "base" in data:
        if data["base"] not in ("void", "irrelevant", "point"):
            raise InputError(f"unknown base kind {data['base']!r}")
        return CertNode(base=data["base"])
    pivot = data.get("pivot")
    if not isinstance(pivot, str):
        raise InputError('split node needs a "pivot" string')
    lk, dl = data.get("link"), data.get("deletion")
    # ints below i: children come first, which also rules out cycles
    if not all(type(ref) is int and 0 <= ref < i for ref in (lk, dl)):
        raise InputError(f"node {i} must name earlier nodes by index, not {lk!r} and {dl!r}")
    witness = _witness_from_json(data.get("witness"))
    return CertNode(pivot=pivot, witness=witness, link=lk, deletion=dl)


def _flatten_nested(data: dict) -> list:
    """Nested (format 1) certificate nodes, children first, subtrees as indices."""
    nodes, done = [], []  # done: indices of finished subtrees, link before deletion
    stack = [(data, False)]
    while stack:
        obj, expanded = stack.pop()
        if expanded:
            dl_ref, lk_ref = done.pop(), done.pop()
            obj = {**obj, "link": lk_ref, "deletion": dl_ref}
        elif isinstance(obj, dict) and "base" not in obj:
            stack += [(obj, True), (obj.get("deletion"), False), (obj.get("link"), False)]
            continue
        done.append(len(nodes))
        nodes.append(obj)
    return nodes


def certificate_from_json(data: object) -> tuple:
    """Read a node table (format 2) or a nested certificate (format 1)."""
    if not isinstance(data, dict):
        raise InputError("certificate must be an object")
    fmt = data.get("format", 1)
    if type(fmt) is not int or fmt not in (1, 2):
        raise InputError(f"unsupported certificate format {fmt!r}")
    raw = data.get("nodes") if fmt == 2 else _flatten_nested(data)
    if not isinstance(raw, list) or not raw:
        raise InputError('certificate needs a nonempty "nodes" array')
    return tuple(_node_from_json(node, i) for i, node in enumerate(raw))


def certificate_variant(cert: tuple) -> Optional[GrapeVariant]:
    """Variant implied by the root's witness; None for a certificate that is
    one base leaf (a cone's included), which holds for every variant."""
    return getattr(cert[-1].witness, "variant", None)
