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
and grape recognition call.  :func:`replay` is the one replay, of searches,
certificate witnesses and lifted collapses alike.
Deciding collapsibility is NP-complete (Tancer 2016); this refutes the
non-acyclic inputs in polynomial time and leaves the search for the acyclic
ones.  The search is depth-first and remembers every face set it has seen
fail, so it expands each face set it reaches at most once; it makes a
facet's free pairs only when it reaches that facet.

Each function takes the ``Complex`` it works on and runs on its facet masks
(see ``complexes``); a sequence is a tuple of (sigma, tau) mask pairs.  The
names ride in the ``Complex`` because replay errors name faces and homology
reads a ``Complex``; otherwise names meet a sequence only at the JSON
boundary: :func:`steps_to_json` writes ``{"steps": [{"sigma": [...],
"tau": [...]}]}``, each face's names sorted, and :func:`sequence_from_json`
reads it back, a name outside the ground taking a bit above it that replay
finds in no facet.  Pairs are tried in face order: larger faces first, then
lexicographic on the ascending ground indices.  That is not integer order
of the masks ({0, 3} comes before {1, 2}, though 9 > 6): it is descending
order of the bit string read from bit 0 up, the key ``mask_order`` gives.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional

from .complexes import (
    Complex,
    InputError,
    deletion_masks,
    face_masks,
    face_of,
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


class ShvResult(NamedTuple):
    """Verdict of a collapsibility search.

    verdict "yes" carries a sequence that replays to the void complex;
    "no" carries an obstruction, the nonzero reduced homology that no
    collapsible complex has and that ``reduced_homology`` recomputes, or
    none when the search tried every free pair at every step; "unknown"
    means the node budget ran out first.
    """

    verdict: str  # "yes" | "no" | "unknown"
    sequence: Optional[tuple] = None  # (sigma, tau) mask pairs, on the ground of the complex
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
    """(sigma, tau, free faces of sigma) for every free pair, in face order;
    a facet's free faces are made only when the iteration reaches it."""
    for sigma in sorted(masks, key=order_key, reverse=True):
        faces = _free_faces(masks, sigma)
        for tau in faces:
            yield sigma, tau, faces


def replay(c: Complex, steps) -> Complex:
    """Apply (sigma, tau) mask steps to c; ReplayError, naming a face, on an illegal step."""
    cur = set(c.masks)
    for sigma, tau in steps:
        if sigma not in cur:
            raise ReplayError(f"{sorted(face_of(sigma, c.ground))} is not a facet")
        free = _free_faces(cur, sigma)
        if tau not in free:
            raise ReplayError(f"{sorted(face_of(tau, c.ground))} is contained in another face")
        cur.remove(sigma)
        cur.update(f for f in free if f != tau)
    return Complex(c.ground, frozenset(cur))


def cone_steps(masks: frozenset, apex: int) -> tuple:
    """Canonical collapse of a cone to void: pair every base face with the apex.

    Base faces are processed by decreasing size, which keeps every pair free.
    """
    faces = face_masks(f ^ apex for f in masks)
    return tuple((s | apex, s) for s in sorted(faces, key=mask_order, reverse=True))


def obstruction(c: Complex, profiles: dict) -> Optional[HomologyProfile]:
    """The reduced homology of c, when c is neither void nor a cone and the
    homology is nonzero: the refutation that no collapse to void exists.
    None when it vanishes, for void and cones, and when homology refuses
    the size.  The profile comes from profiles, a memo keyed by facet
    masks.  Callers spend one node on each refutation."""
    if not c.masks or meet_mask(c.masks):
        return None
    try:
        profile = memo_homology(c, profiles)
    except InputError:
        return None
    return None if profile.is_trivial() else profile


def collapse_test(c: Complex, budget: Budget, profiles: dict) -> tuple:
    """The one collapse test, of recognition and :func:`collapse_search`
    alike, spending a node per face set visited; BudgetExceeded on running
    out.  (obstruction, None) after one node when :func:`obstruction`
    refutes c.  Else (None, the steps), or (None, None) once every order
    failed, from a backtracking DFS that tries free pairs in the canonical
    order on an explicit stack, so that long sequences do not hit the
    recursion limit, and reads a "yes" off that stack; a cone is finished
    by :func:`cone_steps`.  Face sets whose free pairs all failed are
    remembered, so each is expanded once.  The steps are replayed before
    they are returned."""
    refuted = obstruction(c, profiles)
    if refuted is not None:
        budget.spend()  # the refuting node
        return refuted, None
    order_key = cache(mask_order)  # each face's key once per search
    failed: set = set()
    stack: list = []  # (facets, their untried free pairs, the pair being tried)
    cur: Optional[frozenset] = c.masks
    while cur is not None:
        budget.spend()
        apexes = meet_mask(cur)
        if not cur or apexes:
            steps = tuple(pair for _, _, pair in stack)
            if cur:
                steps += cone_steps(cur, apexes & -apexes)
            if replay(c, steps).masks:
                raise ReplayError("search produced a sequence that does not replay")
            return None, steps
        stack.append((cur, iter(() if cur in failed else _free_pairs(cur, order_key)), None))
        cur = None
        while stack and cur is None:
            top, pairs, _ = stack.pop()
            pair = next(pairs, None)
            if pair is None:
                failed.add(top)
            else:
                sigma, tau, faces = pair
                stack.append((top, pairs, (sigma, tau)))
                cur = top.difference((sigma,)).union(f for f in faces if f != tau)
    return None, None


def collapse_search(c: Complex, budget: int = DEFAULT_BUDGET,
                    profiles: Optional[dict] = None) -> ShvResult:
    """Search for a collapse sequence from c to the void complex by
    :func:`collapse_test`, which reads homology from profiles (a suite run
    passes its table's; a fresh memo when none is given).  A refuted complex
    is "no" with its homology as ``obstruction``; when homology vanishes or
    refuses the size (over ``MAX_FACES`` faces) the search answers.  Running
    out of the budget is "unknown" after budget + 1 nodes.  Deterministic
    for fixed inputs.
    """
    budget = Budget(budget)
    try:
        refuted, steps = collapse_test(c, budget, {} if profiles is None else profiles)
    except BudgetExceeded:
        return ShvResult("unknown", None, budget.used)
    return ShvResult("no" if steps is None else "yes", steps, budget.used, refuted)


def lifted_collapse(c: Complex, a: str, lk_steps) -> tuple:
    """Lift a collapse of link(c, a) to a collapse of c onto deletion(c, a).

    Each link step (F, F - {x}) becomes (F + {a}, (F - {x}) + {a}): the link's
    steps index its ground, which is c's without a, so a's bit goes back in
    between.  Lifted steps replay in c exactly when the link's replay in the
    link, and land on the deletion exactly when those reach void, so one
    replay from c checks both, else ReplayError.
    """
    bit = 1 << c.index(a)
    low = bit - 1  # the bits below a's stay, the others move up one place
    lifted = tuple(tuple(m & low | (m ^ m & low) << 1 | bit for m in step) for step in lk_steps)
    if replay(c, lifted).masks != deletion_masks(c.masks, bit):
        raise ReplayError("lifted sequence did not land on the deletion")
    return lifted


# -- JSON ------------------------------------------------------------------------------


def steps_to_json(steps, names: tuple) -> dict:
    """Mask steps as a sequence by name: {"steps": [{"sigma": [...], "tau": [...]}]}."""
    return {"steps": [{"sigma": sorted(face_of(s, names)), "tau": sorted(face_of(t, names))}
                      for s, t in steps]}


def sequence_from_json(data: object, bit: dict) -> tuple:
    """Check a sequence read from JSON and return its (sigma, tau) mask
    steps, each face read by the name table bit (see ``mask_of``)."""
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise InputError('collapse sequence JSON needs a "steps" array')
    steps = []
    for step in data["steps"]:
        faces = (step.get("sigma"), step.get("tau")) if isinstance(step, dict) else (None,)
        if not all(isinstance(f, list) and all(isinstance(x, str) for x in f) for f in faces):
            raise InputError('each step needs "sigma" and "tau" arrays of strings')
        sigma, tau = mask_of(faces[0], bit), mask_of(faces[1], bit)
        if sigma | tau != sigma or (sigma ^ tau).bit_count() != 1:
            raise InputError("collapse pair needs tau a codimension-1 subface of sigma")
        steps.append((sigma, tau))
    return tuple(steps)
