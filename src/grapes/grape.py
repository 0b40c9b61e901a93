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
* strong-weak: the link or deletion itself is simple-homotopy trivial.

Every witness makes the link null-homotopic in the deletion, so a grape is
the deletion wedged with the suspended link and its reduced homology is
free: a complex with torsion is no grape of any variant.  Both weak
variants test the link, then the deletion, by collapsibility.  That
decides strong-weak: a side that could be its witness is an acyclic
strong-weak grape, and such a grape collapses (the README's lemma), so a
strong-weak pivot where no side collapses fails, and only the budget
leaves a strong-weak search "unknown".

Grape status depends only on the vertex set, so recognition normalizes the
ground set to the vertices at every node.  A cone is a grape of every
variant: at any pivot other than its apex the link and the deletion are
again cones with that apex, and a cone collapses to void.  So recognition
ends at every cone, a point included, with a leaf naming its lowest apex,
and a strong split's witness is a child that is such a leaf.

Recognition and replay run on the mask kernel of ``complexes``: bit i is
element i of the root's vertices in ground order, a subproblem is the
frozenset of its facet masks (also its memo key), pivots are tried lowest
bit first and the smallest apex of a cone is ``m & -m``.  Restricting a
subproblem to its vertices keeps the bit order, so it costs nothing.

A certificate holds masks too: ``{"ground": names, "nodes": [...]}``, bit i
for names[i], children first and root last (a memoised subproblem gives a
node several parents).  A node is a leaf, ``{"base": b}`` for b "void" or
"irrelevant" or ``{"base": "cone", "apex": x}`` with x in every facet, or a
split ``{"pivot": a, "witness": w, "link": i, "deletion": j}`` naming its
children by earlier index.  Its witness w is ``{"kind": "strong"}`` (a
child is a cone leaf), ``{"kind": "combinatorial", "cone_element": x}``
(the cone over the link with apex x lies in the deletion), ``{"kind":
"weak", "gamma_facets": G, "collapse": s}`` (G the facets of a complex
between link and deletion that s collapses) or ``{"kind": "strong-weak",
"side": "link" or "deletion", "collapse": s}`` (that side collapses), s a
tuple of collapse pairs (see ``collapse``).  The search records a node per
solved subproblem in this form, and on a "yes" that table is the
certificate, which replays without searching; a node the root does not
reach is skipped by replay and left out by the writer.  Every "yes" carries
the wedge of spheres that :func:`predicted_wedge` folds from it.  That
wedge is the one homotopy type the engine derives: a strong grape's class
(void, or one sphere) is read off it, and Alexander duality shifts it, a
k-sphere to a (|X| - k - 3)-sphere (``homology.dual_wedge``).

Names meet a certificate only in :func:`certificate_to_json`, which writes
format 3, the same table with every bit, facet and pair named, and
:func:`certificate_from_json`, which reads it back against a complex: a
name outside the vertices takes a bit above them that replay finds
nowhere, so a replay error names it as the document does.  One ``Budget``
counts the subproblems, the refutations and the nodes of every collapse
search; running out is "unknown".  Any other "unknown" names its origin:
the reason the first inconclusive pivot test gave, and the pivots and
sides leading to it from the root.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .collapse import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    ReplayError,
    collapse_test,
    cone_steps,
    obstruction,
    replay_masks,
    sequence_from_json,
    steps_to_json,
)
from .complexes import (
    Complex,
    InputError,
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
from .homology import cross_dim

TORSION_REASON = "the reduced homology has torsion, which no grape has"


class _Torsion(Exception):
    """The root's reduced homology has torsion: no variant's grape."""


class GrapeVariant(Enum):
    STRONG = "strong"
    COMBINATORIAL = "comb"
    WEAK = "weak"
    STRONG_WEAK = "strong-weak"


# the variant of each witness kind
_VARIANT_OF_KIND = {"strong": GrapeVariant.STRONG, "combinatorial": GrapeVariant.COMBINATORIAL,
                    "weak": GrapeVariant.WEAK, "strong-weak": GrapeVariant.STRONG_WEAK}


class GrapeVerdict(NamedTuple):
    """One recognition's result.  A NamedTuple rather than a frozen
    dataclass: every search builds one, and a NamedTuple builds faster."""

    verdict: str  # "yes" | "no" | "unknown"
    certificate: Optional[dict] = None  # {"ground": ..., "nodes": [...]}, check_grape's yes
    reason: Optional[str] = None
    nodes: int = 0
    wedge: Optional[dict] = None  # the predicted wedge, on every yes

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


# -- recognition -------------------------------------------------------------


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


def check_grape(c: Complex, variant: GrapeVariant, budget: int = DEFAULT_BUDGET, *,
                profiles: Optional[dict] = None) -> GrapeVerdict:
    """Decide grape membership for one variant, with a certificate on yes.

    Strong, combinatorial and strong-weak answers are definitive.  The weak
    variants test simple-homotopy triviality by collapsibility: the link,
    then the deletion, goes through :func:`collapse.collapse_test`, where a
    homology refutation costs one node and no search.  A strong-weak pivot
    where neither side collapses fails (see the module docstring).  A weak
    pivot tries the cone over the link next; failing that it is
    inconclusive, and torsion in the root's homology, read once at the
    first inconclusive pivot test, answers "no" with TORSION_REASON.
    Homology is read from and filled into profiles, a memo keyed by facet
    masks (a fresh one when none is given), so each face set's homology is
    computed once per memo.  Anything else inconclusive is reported
    "unknown", never guessed, with its origin.  Every subproblem that is a
    cone, a point or the root included, is answered "yes" by a one-node
    "cone" leaf, with no pivot test.  A "yes" carries its certificate, the
    search's own table of a node per solved subproblem, and the wedge
    :func:`predicted_wedge` folds from it.  Replay and the fold skip the
    nodes the root does not reach, and :func:`certificate_to_json` leaves
    them out.

    One ``Budget`` of the given limit counts all of the work: each
    subproblem, each refutation, and each node of every collapse search.
    Running out anywhere ends the recognition "unknown" after limit + 1
    nodes.
    """
    profiles = {} if profiles is None else profiles
    budget = Budget(budget)
    c = restrict_ground(c)
    names, root = c.ground, c.masks
    memo: dict = {}
    nodes: list = []  # a node per solved subproblem, children first

    def leaf(masks: frozenset) -> Optional[tuple]:
        """Spends a node; answers a void, irrelevant or cone subproblem with no frame, else None."""
        budget.spend()
        meet = meet_mask(masks)  # the apexes: a cone is a grape of every variant
        if not meet and join_mask(masks):
            return None
        nodes.append({"base": "cone", "apex": meet & -meet} if meet else
                     {"base": "irrelevant" if masks else "void"})
        memo[masks] = answer = ("yes", len(nodes) - 1)
        return answer

    def yes() -> GrapeVerdict:
        """The answer with its certificate, folded into its wedge."""
        cert = {"ground": names, "nodes": nodes}
        return GrapeVerdict("yes", cert, nodes=budget.used, wedge=predicted_wedge(cert))

    if leaf(root):  # the root is its own one-node answer: nothing else to set up
        return yes()

    def witness(lk: frozenset, dl: frozenset):
        """Variant gluing condition at one pivot: ("yes", witness),
        ("no", None) or ("unknown", reason)."""
        if variant is GrapeVariant.STRONG:
            # a cone side is solved as a cone leaf
            if meet_mask(dl) or meet_mask(lk):
                return "yes", {"kind": "strong"}
            return "no", None

        if variant is GrapeVariant.COMBINATORIAL:
            x = _cone_points(lk, dl)
            if x:
                return "yes", {"kind": "combinatorial", "cone_element": x & -x}
            return "no", None

        # the weak family: a side that collapses
        for side, gamma in (("link", lk), ("deletion", dl)):
            steps = collapse_test(gamma, budget, names, profiles)[1]
            if steps is not None:
                if variant is GrapeVariant.STRONG_WEAK:
                    return "yes", {"kind": "strong-weak", "side": side, "collapse": steps}
                return "yes", {"kind": "weak", "gamma_facets": gamma, "collapse": steps}
        if variant is GrapeVariant.STRONG_WEAK:
            # a witness side would be an acyclic strong-weak grape, which collapses (README)
            return "no", None
        # weak: the cone over the link, a complex between link and deletion
        x = _cone_points(lk, dl)
        if x:
            gamma = maximal_masks(f | (x & -x) for f in lk)
            apexes = meet_mask(gamma)
            return "yes", {"kind": "weak", "gamma_facets": gamma,
                           "collapse": cone_steps(gamma, apexes & -apexes) if gamma else ()}
        return "unknown", "no collapsible intermediate in the fast family"

    torsion_read = False  # the root's homology, read at the first inconclusive pivot test

    def solve(masks: frozenset):
        """Any other subproblem, as a generator: it yields each link or
        deletion it needs and is sent back its answer; its last yield is its
        own, (status, node index) or ("unknown", (reason, pivots, sides))."""
        nonlocal torsion_read
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
                profile = obstruction(root, names, profiles)
                if profile is not None and any(profile.torsion.values()):
                    raise _Torsion
            lk_status, lk_ref = yield lk
            if lk_status == "no":
                continue
            dl_status, dl_ref = yield dl
            if dl_status == "no":
                continue
            if status == lk_status == dl_status == "yes":
                nodes.append({"pivot": a, "witness": payload, "link": lk_ref, "deletion": dl_ref})
                yield "yes", len(nodes) - 1  # the answer: the frame is not resumed
            if origin is None and status == "unknown":
                origin = (payload, (a,), ())
            elif origin is None:
                side, (reason, pivots, sides) = (
                    ("link", lk_ref) if lk_status == "unknown" else ("deletion", dl_ref))
                origin = (reason, (a,) + pivots, (side,) + sides)
        yield ("no", None) if origin is None else ("unknown", origin)

    # solve's frames on an explicit stack; a memoised subproblem or a leaf is not pushed
    try:
        result = None  # leaf(root) spent the root's node
        stack = [(root, solve(root))]
        while stack:
            key, frame = stack[-1]
            sub = frame.send(result)
            if sub.__class__ is tuple:  # the frame's answer
                stack.pop()
                result = memo[key] = sub
                continue
            result = memo.get(sub) or leaf(sub)
            if result is None:
                stack.append((sub, solve(sub)))
    except BudgetExceeded:
        return GrapeVerdict("unknown", None, "recognition budget exhausted", budget.used)
    except _Torsion:
        return GrapeVerdict("no", None, TORSION_REASON, budget.used)
    if result[0] == "yes":
        return yes()
    if result[0] == "no":
        return GrapeVerdict("no", nodes=budget.used)
    # the pivots from the root down to the inconclusive test, and the side
    # taken below each of them but the last
    reason, pivots, sides = result[1]
    pivots = [_name(a, names) for a in pivots]
    where = f"pivots {' > '.join(pivots)}, {' > '.join(sides)}" if sides else (
        f"pivot {pivots[0]}, at the root")
    return GrapeVerdict("unknown", None, f"{reason} ({where})", budget.used)


# -- certificate replay --------------------------------------------------------


def verify_certificate(c: Complex, variant: GrapeVariant, cert: dict) -> None:
    """Replay a certificate against a complex; raises ReplayError on any gap.

    Its bits index c's vertices in ground order, as :func:`check_grape` and
    :func:`certificate_from_json` give them.  Verification is independent
    of the search: pivot legality, the variant witness (for a strong split,
    a cone-leaf child), and both sub-certificates are all checked from
    scratch.  Each node replays once per distinct complex its parents hand
    down.
    """
    root, names, nodes = restrict_ground(c).masks, cert["ground"], cert["nodes"]
    todo = [{} for _ in nodes]  # per node: its complexes, as insertion-ordered keys
    todo[-1][root] = None
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        base = node.get("base")
        for masks in todo[i]:
            if base == "cone":  # meet_mask is 0 on the void and irrelevant complexes
                if not node["apex"] & meet_mask(masks):
                    raise ReplayError(
                        f"cone leaf's apex {_name(node['apex'], names)!r} is not in every facet")
                continue
            if base:
                kind = None if join_mask(masks) else "irrelevant" if masks else "void"
                if kind != base:
                    raise ReplayError(f"base leaf says {base!r} but complex is {kind!r}")
                continue
            a = node["pivot"]
            verts = join_mask(masks)
            if not a & verts:
                raise ReplayError(f"pivot {_name(a, names)!r} is not a vertex")
            lk = link_masks(masks, a)
            dl = deletion_masks(masks, a)
            _verify_witness(variant, node["witness"], lk, dl, verts ^ a, names)
            if variant is GrapeVariant.STRONG and "cone" not in (
                    nodes[node["link"]].get("base"), nodes[node["deletion"]].get("base")):
                raise ReplayError("strong split has no cone-leaf child")
            todo[node["link"]][lk] = None
            todo[node["deletion"]][dl] = None
        todo[i] = None


def _verify_witness(
    variant: GrapeVariant, witness: dict, lk: frozenset, dl: frozenset, ground: int, names: tuple,
) -> None:
    """One node's witness, with ground the deletion's ground set as a mask."""
    kind = witness["kind"]
    if _VARIANT_OF_KIND.get(kind) is not variant:
        raise ReplayError(f"{variant.value} certificate has a {kind!r} witness")
    if variant is GrapeVariant.STRONG:
        return  # the cone-leaf child replays the cone
    if variant is GrapeVariant.COMBINATORIAL:
        x = witness["cone_element"]
        if not x & ground:
            raise ReplayError(f"cone element {_name(x, names)!r} is not in the deletion ground set")
        if not x & _cone_points(lk, dl):
            raise ReplayError(
                f"cone over the link with apex {_name(x, names)!r} does not fit the deletion")
        return
    if variant is GrapeVariant.WEAK:
        gamma = witness["gamma_facets"]
        unknown = join_mask(gamma) & ~ground
        if unknown:
            raise ReplayError("intermediate complex is malformed: facet uses unknown ground "
                              f"elements: {sorted(face_of(unknown, names))}")
        in_gamma, in_dl = holders(gamma), holders(dl)
        if not all(any(in_gamma(f)) for f in lk):
            raise ReplayError("link is not contained in the intermediate complex")
        if not all(any(in_dl(g)) for g in gamma):
            raise ReplayError("intermediate complex is not contained in the deletion")
        if replay_masks(gamma, witness["collapse"], names):
            raise ReplayError("intermediate complex does not collapse to void")
        return
    # strong-weak
    side = lk if witness["side"] == "link" else dl
    if replay_masks(side, witness["collapse"], names):
        raise ReplayError(f"{witness['side']} does not collapse to void")


# -- classification ------------------------------------------------------------


def predicted_wedge(cert: dict) -> dict:
    """Predicted reduced Betti numbers, folded from a certificate alone
    (nodes the root does not reach fold unread).

    At every split the complex is homotopy equivalent to the deletion wedged
    with the suspended link, so predictions add up from the leaves: the
    empty dict means contractible, otherwise dimension -> sphere
    multiplicity.  This is the one homotopy type the engine derives, for
    every variant: the strong class and the homology checks read it.
    """
    folds: list = []
    for node in cert["nodes"]:
        if "base" in node:
            folds.append({-1: 1} if node["base"] == "irrelevant" else {})
            continue
        out = dict(folds[node["deletion"]])
        for k, mult in folds[node["link"]].items():
            out[k + 1] = out.get(k + 1, 0) + mult
        folds.append(out)
    return folds[-1]


def classify_strong(wedge: dict) -> dict:
    """The class of a strong grape as ``grape classify`` writes it, read off
    the wedge its recognition folded by ``homology.cross_dim``.  InputError
    on a wedge that is not one sphere."""
    n = cross_dim(wedge)
    return {"class": "void"} if n is None else {"class": "cross-polytope-boundary", "n": n}


# -- certificate JSON --------------------------------------------------------------


def _name(x: int, names: tuple) -> str:
    """The name of a one-bit mask."""
    return names[x.bit_length() - 1]


def certificate_to_json(cert: dict) -> dict:
    """A certificate in its wire form, format 3: the nodes the root reaches,
    renumbered in their order, with every bit, facet mask and collapse step
    named by the ground that the certificate carries."""
    names, found = cert["ground"], cert["nodes"]
    keep = {len(found) - 1}
    for i in range(len(found) - 1, -1, -1):
        if i in keep and "base" not in found[i]:
            keep |= {found[i]["link"], found[i]["deletion"]}
    index = {i: k for k, i in enumerate(sorted(keep))}
    fields = {"pivot": lambda x: _name(x, names), "apex": lambda x: _name(x, names),
              "cone_element": lambda x: _name(x, names), "witness": lambda w: written(w),
              "gamma_facets": lambda gamma: sorted(sorted(face_of(g, names)) for g in gamma),
              "collapse": lambda steps: steps_to_json(steps, names),
              "link": index.__getitem__, "deletion": index.__getitem__}

    def written(node: dict) -> dict:
        return {k: fields[k](v) if k in fields else v for k, v in node.items()}

    return {"format": 3, "nodes": [written(found[i]) for i in index]}


def _witness_from_json(data: object, bit: dict) -> dict:
    if not isinstance(data, dict):
        raise InputError("witness must be an object")
    kind = data.get("kind")
    if kind == "combinatorial":
        if not isinstance(data.get("cone_element"), str):
            raise InputError('combinatorial witness needs a "cone_element" string')
        return {"kind": kind, "cone_element": mask_of((data["cone_element"],), bit)}
    if kind == "weak":
        facets = data.get("gamma_facets")
        if not isinstance(facets, list) or not all(
            isinstance(f, list) and all(isinstance(x, str) for x in f) for f in facets
        ):
            raise InputError('weak witness needs a "gamma_facets" array of string arrays')
        return {"kind": kind, "gamma_facets": maximal_masks(mask_of(f, bit) for f in facets),
                "collapse": sequence_from_json(data.get("collapse", {}), bit)}
    if kind == "strong-weak":
        if data.get("side") not in ("link", "deletion"):
            raise InputError('strong-weak witness needs "side": "link" or "deletion"')
        return {"kind": kind, "side": data["side"],
                "collapse": sequence_from_json(data.get("collapse", {}), bit)}
    if kind != "strong":
        raise InputError(f"unknown witness kind {kind!r}")
    return {"kind": kind}


def _node_from_json(data: object, i: int, bit: dict) -> dict:
    if not isinstance(data, dict):
        raise InputError("certificate node must be an object")
    if data.get("base") == "cone":
        if not isinstance(data.get("apex"), str):
            raise InputError('cone leaf needs an "apex" string')
        return {"base": "cone", "apex": mask_of((data["apex"],), bit)}
    if "base" in data:
        if data["base"] not in ("void", "irrelevant"):
            raise InputError(f"unknown base kind {data['base']!r}")
        return {"base": data["base"]}
    if not isinstance(data.get("pivot"), str):
        raise InputError('split node needs a "pivot" string')
    lk, dl = data.get("link"), data.get("deletion")
    # ints below i: children come first, which also rules out cycles
    if not all(type(ref) is int and 0 <= ref < i for ref in (lk, dl)):
        raise InputError(f"node {i} must name earlier nodes by index, not {lk!r} and {dl!r}")
    return {"pivot": mask_of((data["pivot"],), bit),
            "witness": _witness_from_json(data.get("witness"), bit), "link": lk, "deletion": dl}


def certificate_from_json(data: object, c: Complex) -> dict:
    """Check a certificate read from JSON, format 3 the only format written,
    and return it on masks, bit i for element i of c's vertices in ground
    order and a name outside them a bit above (see ``mask_of``)."""
    if not isinstance(data, dict):
        raise InputError("certificate must be an object")
    fmt = data.get("format")
    if type(fmt) is not int or fmt != 3:
        raise InputError(f"unsupported certificate format {fmt!r}; run grape check again")
    raw = data.get("nodes")
    if not isinstance(raw, list) or not raw:
        raise InputError('certificate needs a nonempty "nodes" array')
    bit = bit_table(restrict_ground(c).ground)
    nodes = [_node_from_json(node, i, bit) for i, node in enumerate(raw)]
    return {"ground": tuple(bit), "nodes": nodes}


def certificate_variant(cert: dict) -> Optional[GrapeVariant]:
    """Variant implied by the root's witness; None for a certificate that is
    one leaf (void, irrelevant or a cone), which holds for every variant."""
    root = cert["nodes"][-1]
    return None if "base" in root else _VARIANT_OF_KIND[root["witness"]["kind"]]
