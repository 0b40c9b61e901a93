"""Elementary collapses and bounded collapsibility search.

A free pair is a facet together with a codimension-1 subface contained in no
other face; removing both is an elementary collapse.  A complex is collapsible
when some sequence of collapses reaches the void complex.  The empty face
participates, so a single point collapses to void.

Collapsibility is used here as a sound but incomplete test for being
simple-homotopy trivial (collapses only, no expansions); callers get an
explicit "unknown" verdict when a ``Budget``, the node counter that grape
recognition shares with its searches, runs out.  A collapsible complex is
contractible, so its reduced homology vanishes: :func:`obstruction` refutes a
complex whose reduced homology has a Betti number or torsion, for one node
and no search, in :func:`collapse_test`, the one test that ``collapse_search``
and grape recognition call.
Deciding collapsibility is NP-complete (Tancer 2016); this refutes the
non-acyclic inputs in polynomial time and leaves the search for the acyclic
ones.  The search is depth-first and remembers every face set it has seen
fail, so it expands each face set it reaches at most once.

The search and replay run on facet masks (see ``complexes``).  A sequence
keeps one form, in memory as on the wire: ``{"steps": [{"sigma": [...],
"tau": [...]}]}``, each face's names sorted.  The search names its mask
steps once, by :func:`steps_to_json`, and replay turns the names back into
masks step by step as it reaches them.  Pairs are tried in face order:
larger faces first, then lexicographic on the ascending ground indices.
That is not integer order of the masks ({0, 3} comes before {1, 2}, though
9 > 6): it is descending order of the bit string read from bit 0 up, which
is the key ``mask_order`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    Complex,
    InputError,
    bit_table,
    deletion_masks,
    face_masks,
    face_of,
    link,
    mask_of,
    mask_order,
    meet_mask,
)
from .homology import HomologyProfile, memo_homology

DEFAULT_BUDGET = 10**6


class ReplayError(RuntimeError):
    """A collapse sequence or certificate failed to replay legally."""


class BudgetExceeded(Exception):
    """A search spent one node more than its budget's limit."""


class Budget:
    """A node counter: ``spend`` raises BudgetExceeded once ``used`` passes
    ``limit``, so a run that runs out has used limit + 1 nodes."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise InputError("budget must be positive")
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded


@dataclass(frozen=True)
class ShvResult:
    """Verdict of a collapsibility search.

    verdict "yes" carries a sequence that replays to the void complex;
    "no" carries an obstruction, the nonzero reduced homology that no
    collapsible complex has and that ``reduced_homology`` recomputes, or
    none when the search tried every free pair at every step; "unknown"
    means the node budget ran out first.
    """

    verdict: str  # "yes" | "no" | "unknown"
    sequence: Optional[dict] = None  # {"steps": [...]}, as steps_to_json writes it
    nodes: int = 0
    obstruction: Optional[HomologyProfile] = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


# -- the mask kernel -------------------------------------------------------------


def _free_faces(masks, sigma: int) -> list:
    """Free codimension-1 faces of the facet sigma, highest removed bit first.

    A face sigma - y lies in another facet g exactly when sigma & g is it.
    """
    blocked = {sigma & g for g in masks}
    out = []
    rest = sigma
    while rest:
        y = 1 << (rest.bit_length() - 1)
        rest ^= y
        if sigma ^ y not in blocked:
            out.append(sigma ^ y)
    return out


def _free_pairs(masks: frozenset, order_key):
    """(sigma, tau, free faces of sigma) for every free pair, in face order."""
    out = []
    for sigma in sorted(masks, key=order_key, reverse=True):
        faces = _free_faces(masks, sigma)
        out += [(sigma, tau, faces) for tau in faces]
    return out


def replay_masks(masks: frozenset, steps, names: tuple) -> frozenset:
    """Apply (sigma, tau) mask steps; raises ReplayError, naming faces, when illegal."""
    cur = set(masks)
    for sigma, tau in steps:
        if sigma not in cur:
            raise ReplayError(f"{sorted(face_of(sigma, names))} is not a facet")
        free = _free_faces(cur, sigma)
        if tau not in free:
            raise ReplayError(f"{sorted(face_of(tau, names))} is contained in another face")
        cur.remove(sigma)
        cur.update(f for f in free if f != tau)
    return frozenset(cur)


def replay_pairs(masks: frozenset, sequence: dict, bit: dict, names: tuple) -> frozenset:
    """Replay a sequence by name, each step turned into masks as replay reaches it."""
    return replay_masks(masks, _step_masks(sequence["steps"], bit), names)


def _step_masks(steps: list, bit: dict):
    """The (sigma, tau) masks of steps by name: a sigma naming an element
    outside bit is no facet, and tau must be a codimension-1 face of sigma."""
    for step in steps:
        sigma, tau = step["sigma"], step["tau"]
        try:
            s = mask_of(sigma, bit)
        except KeyError:
            raise ReplayError(f"{sorted(set(sigma))} is not a facet") from None
        try:
            t = mask_of(tau, bit)
        except KeyError:
            t = -1  # a name outside the ground, so outside sigma
        if t | s != s or (s ^ t).bit_count() != 1:
            raise ReplayError(
                f"{sorted(set(tau))} is not a codimension-1 face of {sorted(set(sigma))}")
        yield s, t


def cone_steps(masks: frozenset, apex: int) -> list:
    """Canonical collapse of a cone to void: pair every base face with the apex.

    Base faces are processed by decreasing size, which keeps every pair free.
    """
    faces = face_masks(f ^ apex for f in masks)
    return [(s | apex, s) for s in sorted(faces, key=mask_order, reverse=True)]


class _OrderKeys(dict):
    """mask -> mask_order(mask), each computed on first use."""

    def __missing__(self, m: int) -> tuple:
        self[m] = key = mask_order(m)
        return key


def search_masks(masks: frozenset, budget: Budget, names: tuple) -> Optional[tuple]:
    """collapse_search on facet masks, spending a node per complex visited: the
    mask steps, or None once every order failed; BudgetExceeded on running out."""
    order_key = _OrderKeys().__getitem__  # each face's key once per search
    failed: set = set()
    stack: list = []  # (facets, iterator over their untried free pairs)
    steps: list = []  # steps[i]: the free pair being tried at stack[i]
    cur: Optional[frozenset] = masks
    while cur is not None:
        budget.spend()
        apexes = meet_mask(cur)
        if not cur or apexes:
            if cur:
                steps.extend(cone_steps(cur, apexes & -apexes))
            if replay_masks(masks, steps, names):
                raise ReplayError("search produced a sequence that does not replay")
            return tuple(steps)
        stack.append((cur, iter(() if cur in failed else _free_pairs(cur, order_key))))
        cur = None
        while stack and cur is None:
            top, pairs = stack[-1]
            pair = next(pairs, None)
            if pair is None:
                stack.pop()
                failed.add(top)
                if stack:
                    steps.pop()
            else:
                sigma, tau, faces = pair
                steps.append((sigma, tau))
                cur = top.difference((sigma,)).union(f for f in faces if f != tau)
    return None


def steps_to_json(steps, names: tuple) -> dict:
    """Mask steps as a sequence by name: {"steps": [{"sigma": [...], "tau": [...]}]}."""
    return {"steps": [{"sigma": sorted(face_of(s, names)), "tau": sorted(face_of(t, names))}
                      for s, t in steps]}


# -- by name ------------------------------------------------------------------------


def replay(c: Complex, sequence: dict) -> Complex:
    """Apply a collapse sequence step by step; raises ReplayError when illegal."""
    return Complex(c.ground, replay_pairs(c.masks, sequence, bit_table(c.ground), c.ground))


def obstruction(masks: frozenset, names: tuple, profiles: dict) -> Optional[HomologyProfile]:
    """The reduced homology of a face set that is neither void nor a cone,
    when it is nonzero: the refutation that no collapse to void exists.
    None when it vanishes, for void and cones, and when homology refuses
    the size.  The profile comes from profiles, a memo keyed by facet
    masks.  Callers spend one node on each refutation."""
    if not masks or meet_mask(masks):
        return None
    try:
        profile = memo_homology(Complex(names, masks), profiles)
    except InputError:
        return None
    return None if profile.is_trivial() else profile


def collapse_test(masks: frozenset, budget: Budget, names: tuple, profiles: dict) -> tuple:
    """The one collapse test, of recognition and :func:`collapse_search`
    alike: (obstruction, None) after one node when :func:`obstruction`
    refutes masks, else (None, the mask steps of :func:`search_masks`, or
    None once every order failed).  BudgetExceeded on running out."""
    refuted = obstruction(masks, names, profiles)
    if refuted is not None:
        budget.spend()  # the refuting node
        return refuted, None
    return None, search_masks(masks, budget, names)


def collapse_search(c: Complex, budget: int = DEFAULT_BUDGET,
                    profiles: Optional[dict] = None) -> ShvResult:
    """Search for a collapse sequence from c to the void complex.

    A complex that :func:`obstruction` refutes is answered "no" after one
    node, with the homology as ``obstruction``, read from profiles (a suite
    run passes its table's; a fresh memo when none is given).  When
    homology finds the complex acyclic, or refuses its size (over
    ``MAX_FACES`` faces), the search runs: a backtracking DFS trying free
    pairs in the canonical order, on an explicit stack of (complex, untried
    free pairs) so that long collapse sequences do not hit the recursion
    limit.  Cones are
    collapsed directly via :func:`cone_steps`.  The search remembers every
    face set whose free pairs all failed, so a face set that two collapse
    orders reach is expanded once; it answers "no" once the whole tree is
    exhausted within the budget.  A "yes" sequence is replayed before it is
    returned.  Running out of the budget is "unknown" after budget + 1
    nodes.  Deterministic for fixed inputs.
    """
    budget = Budget(budget)
    try:
        refuted, steps = collapse_test(c.masks, budget, c.ground,
                                       {} if profiles is None else profiles)
    except BudgetExceeded:
        return ShvResult("unknown", None, budget.used)
    sequence = None if steps is None else steps_to_json(steps, c.ground)
    return ShvResult("no" if steps is None else "yes", sequence, budget.used, refuted)


def lifted_collapse(c: Complex, a: str, lk_sequence: dict) -> dict:
    """Lift a collapse of link(c, a) to a collapse of c onto deletion(c, a).

    Each link step (F, F - {x}) becomes (F + {a}, (F - {x}) + {a}).  The input
    must collapse the link to void; the lifted sequence is replayed from c and
    must land exactly on the deletion, else ReplayError.
    """
    lk = link(c, a)
    end = replay(lk, lk_sequence)
    if not end.is_void:
        raise ReplayError("link sequence does not reach the void complex")
    lifted = {"steps": [{"sigma": sorted([*step["sigma"], a]), "tau": sorted([*step["tau"], a])}
                        for step in lk_sequence["steps"]]}
    result = replay(c, lifted)
    if result.masks != deletion_masks(c.masks, 1 << c.index(a)):
        raise ReplayError("lifted sequence did not land on the deletion")
    return lifted


def sequence_from_json(data: object) -> dict:
    """Check a sequence read from JSON and return it."""
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise InputError('collapse sequence JSON needs a "steps" array')
    for step in data["steps"]:
        faces = (step.get("sigma"), step.get("tau")) if isinstance(step, dict) else (None,)
        if not all(isinstance(f, list) and all(isinstance(x, str) for x in f) for f in faces):
            raise InputError('each step needs "sigma" and "tau" arrays of strings')
        sigma, tau = frozenset(step["sigma"]), frozenset(step["tau"])
        if not (tau < sigma and len(tau) == len(sigma) - 1):
            raise InputError("collapse pair needs tau a codimension-1 subface of sigma")
    return data
