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
and no search, in ``collapse_search`` and in grape recognition alike.
Deciding collapsibility is NP-complete (Tancer 2016); this refutes the
non-acyclic inputs in polynomial time and leaves the search for the acyclic
ones.  The search is depth-first and remembers every face set it has seen
fail, so it expands each face set it reaches at most once.

The search and replay run on facet masks (see ``complexes``), and names come
back only in the ``CollapsePair``s of a sequence.  Pairs are tried in face
order: larger faces first, then lexicographic on the ascending ground
indices.  That is not integer order of the masks ({0, 3} comes before
{1, 2}, though 9 > 6): it is descending order of the bit string read from
bit 0 up, which is the key ``mask_order`` gives.
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
class CollapsePair:
    """A collapse step by name, tau a codimension-1 subface of sigma: unchecked,
    as the search builds them; ``sequence_from_json`` checks the shape."""

    sigma: frozenset
    tau: frozenset


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
    sequence: Optional[tuple] = None
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


def replay_pairs(masks: frozenset, sequence, bit: dict, names: tuple) -> frozenset:
    """Replay CollapsePairs by name; a face naming an element outside bit is no facet."""
    steps = []
    for pair in sequence:
        if not bit.keys() >= pair.sigma:
            replay_masks(masks, steps, names)  # an earlier step may fail first
            raise ReplayError(f"{sorted(pair.sigma)} is not a facet")
        steps.append((mask_of(pair.sigma, bit), mask_of(pair.tau, bit)))
    return replay_masks(masks, steps, names)


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


def named_steps(steps, names: tuple) -> tuple:
    return tuple(CollapsePair(face_of(s, names), face_of(t, names)) for s, t in steps)


# -- by name ------------------------------------------------------------------------


def replay(c: Complex, sequence) -> Complex:
    """Apply a collapse sequence step by step; raises ReplayError when illegal."""
    return Complex(c.ground, replay_pairs(c.masks, sequence, bit_table(c.ground), c.ground))


def obstruction(masks: frozenset, names: tuple,
                profiles: Optional[dict] = None) -> Optional[HomologyProfile]:
    """The reduced homology of a face set that is neither void nor a cone,
    when it is nonzero: the refutation that no collapse to void exists.
    None when it vanishes, for void and cones, and when homology refuses
    the size.  The profile comes from profiles, a memo keyed by facet masks
    (a fresh one by default).  Callers spend one node on each refutation."""
    if not masks or meet_mask(masks):
        return None
    try:
        profile = memo_homology(Complex(names, masks), {} if profiles is None else profiles)
    except InputError:
        return None
    return None if profile.is_trivial() else profile


def collapse_search(c: Complex, budget: int = DEFAULT_BUDGET,
                    profiles: Optional[dict] = None) -> ShvResult:
    """Search for a collapse sequence from c to the void complex.

    A complex that :func:`obstruction` refutes is answered "no" after one
    node, with the homology as ``obstruction``, read from profiles (a suite
    run passes its table's).  When homology finds the complex acyclic, or
    refuses its size (over ``MAX_FACES`` faces), the search runs: a
    backtracking DFS trying free pairs in the canonical order, on an
    explicit stack of (complex, untried free pairs) so that long collapse
    sequences do not hit the recursion limit.  Cones are
    collapsed directly via :func:`cone_steps`.  The search remembers every
    face set whose free pairs all failed, so a face set that two collapse
    orders reach is expanded once; it answers "no" once the whole tree is
    exhausted within the budget.  A "yes" sequence is replayed before it is
    returned.  Running out of the budget is "unknown" after budget + 1
    nodes.  Deterministic for fixed inputs.
    """
    budget = Budget(budget)
    refuted = obstruction(c.masks, c.ground, profiles)
    if refuted is not None:
        budget.spend()  # the refuting node, within every limit
        return ShvResult("no", None, budget.used, refuted)
    try:
        steps = search_masks(c.masks, budget, c.ground)
    except BudgetExceeded:
        return ShvResult("unknown", None, budget.used)
    sequence = None if steps is None else named_steps(steps, c.ground)
    return ShvResult("no" if steps is None else "yes", sequence, budget.used)


def lifted_collapse(c: Complex, a: str, lk_sequence) -> tuple:
    """Lift a collapse of link(c, a) to a collapse of c onto deletion(c, a).

    Each link step (F, F - {x}) becomes (F + {a}, (F - {x}) + {a}).  The input
    must collapse the link to void; the lifted sequence is replayed from c and
    must land exactly on the deletion, else ReplayError.
    """
    lk = link(c, a)
    end = replay(lk, lk_sequence)
    if not end.is_void:
        raise ReplayError("link sequence does not reach the void complex")
    lifted = tuple(
        CollapsePair(p.sigma | {a}, p.tau | {a}) for p in lk_sequence
    )
    result = replay(c, lifted)
    if result.masks != deletion_masks(c.masks, 1 << c.index(a)):
        raise ReplayError("lifted sequence did not land on the deletion")
    return lifted


def sequence_to_json(sequence) -> dict:
    return {
        "steps": [
            {"sigma": sorted(p.sigma), "tau": sorted(p.tau)} for p in sequence
        ]
    }


def sequence_from_json(data: object) -> tuple:
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise InputError('collapse sequence JSON needs a "steps" array')
    steps = []
    for step in data["steps"]:
        faces = (step.get("sigma"), step.get("tau")) if isinstance(step, dict) else (None,)
        if not all(isinstance(f, list) and all(isinstance(x, str) for x in f) for f in faces):
            raise InputError('each step needs "sigma" and "tau" arrays of strings')
        sigma, tau = frozenset(step["sigma"]), frozenset(step["tau"])
        if not (tau < sigma and len(tau) == len(sigma) - 1):
            raise InputError("collapse pair needs tau a codimension-1 subface of sigma")
        steps.append(CollapsePair(sigma, tau))
    return tuple(steps)
