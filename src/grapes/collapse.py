"""Elementary collapses and bounded collapsibility search.

A free pair is a facet together with a codimension-1 subface contained in no
other face; removing both is an elementary collapse.  A complex is collapsible
when some sequence of collapses reaches the void complex.  The empty face
participates, so a single point collapses to void.

Collapsibility is used here as a sound but incomplete test for being
simple-homotopy trivial (collapses only, no expansions); callers get an
explicit "unknown" verdict when the search is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import (
    Complex,
    InputError,
    cone_apexes,
    deletion,
    link,
    suspension,
)

DEFAULT_BUDGET = 10**6


class ReplayError(RuntimeError):
    """A collapse sequence or certificate failed to replay legally."""


@dataclass(frozen=True)
class CollapsePair:
    sigma: frozenset
    tau: frozenset

    def __post_init__(self) -> None:
        if not (self.tau < self.sigma and len(self.tau) == len(self.sigma) - 1):
            raise ReplayError("collapse pair needs tau a codimension-1 subface of sigma")


@dataclass(frozen=True)
class ShvResult:
    """Verdict of a collapsibility search.

    verdict "yes" carries a sequence that replays to the void complex;
    "no" is only produced by an exhausted exhaustive-mode search;
    "unknown" means the node budget ran out (or greedy mode gave up).
    """

    verdict: str  # "yes" | "no" | "unknown"
    sequence: Optional[tuple] = None
    nodes: int = 0

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


def free_pairs(c: Complex) -> list:
    """All free pairs, ordered by (facet size descending, facet, subface)."""
    out = []
    for sigma in c.facets:
        if not sigma:
            continue
        for y in sigma:
            tau = sigma - {y}
            if not any(tau <= other for other in c.facets if other != sigma):
                out.append(CollapsePair(sigma, tau))
    out.sort(key=lambda p: (-len(p.sigma), c.face_key(p.sigma), c.face_key(p.tau)))
    return out


def apply_collapse(c: Complex, pair: CollapsePair) -> Complex:
    """Remove a free pair; raises ReplayError if the pair is not free in c."""
    sigma, tau = pair.sigma, pair.tau
    if sigma not in c.facets:
        raise ReplayError(f"{sorted(sigma)} is not a facet")
    if any(tau <= other for other in c.facets if other != sigma):
        raise ReplayError(f"{sorted(tau)} is contained in another face")
    rest = [f for f in c.facets if f != sigma]
    new_facets = list(rest)
    for y in sigma:
        candidate = sigma - {y}
        if candidate != tau and not any(candidate <= f for f in rest):
            new_facets.append(candidate)
    return Complex(c.ground, frozenset(new_facets))


def replay(c: Complex, sequence) -> Complex:
    """Apply a collapse sequence step by step; raises ReplayError when illegal."""
    current = c
    for pair in sequence:
        current = apply_collapse(current, pair)
    return current


def cone_sequence(c: Complex) -> list:
    """Canonical collapse of a cone to void: pair every base face with the apex.

    Base faces are processed by decreasing size, which keeps every pair free.
    """
    apexes = cone_apexes(c)
    if not apexes:
        raise ReplayError("cone_sequence requires a cone")
    apex = min(apexes, key=c.index)
    base_faces = sorted(
        deletion(c, apex).faces(),
        key=lambda f: (-len(f), c.face_key(f)),
    )
    return [CollapsePair(f | {apex}, f) for f in base_faces]


def collapse_search(
    c: Complex,
    budget: int = DEFAULT_BUDGET,
    exhaustive: bool = False,
) -> ShvResult:
    """Search for a collapse sequence from c to the void complex.

    Backtracking DFS trying free pairs in the canonical order, on an
    explicit stack of (complex, untried free pairs) so that long collapse
    sequences do not hit the recursion limit.  Cones are collapsed directly
    via :func:`cone_sequence`.  Greedy mode (the default) answers "yes" or
    "unknown"; exhaustive mode memoizes dead face-sets and may certify "no"
    once the whole search tree is exhausted.  Deterministic for fixed inputs.
    """
    if budget <= 0:
        raise InputError("budget must be positive")
    nodes = 0
    failed: set = set()
    stack: list = []  # (complex, iterator over its untried free pairs)
    steps: list = []  # steps[i]: the free pair being tried at stack[i]
    cur: Optional[Complex] = c
    while cur is not None:
        nodes += 1
        if nodes > budget:
            return ShvResult("unknown", None, nodes)
        if cur.is_void or cone_apexes(cur):
            if not cur.is_void:
                steps.extend(cone_sequence(cur))
            if not replay(c, steps).is_void:
                raise ReplayError("search produced a sequence that does not replay")
            return ShvResult("yes", tuple(steps), nodes)
        dead = exhaustive and cur.facets in failed
        stack.append((cur, iter(() if dead else free_pairs(cur))))
        cur = None
        while stack and cur is None:
            top, pairs = stack[-1]
            pair = next(pairs, None)
            if pair is None:
                stack.pop()
                if exhaustive:
                    failed.add(top.facets)
                if stack:
                    steps.pop()
            else:
                steps.append(pair)
                cur = apply_collapse(top, pair)
    return ShvResult("no" if exhaustive else "unknown", None, nodes)


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
    if result.facets != deletion(c, a).facets:
        raise ReplayError("lifted sequence did not land on the deletion")
    return lifted


def suspension_transport(c: Complex, x: str, y: str, result: ShvResult) -> ShvResult:
    """Turn a collapse of c into a collapse of its suspension over x, y.

    The suspension is the cone over x glued to the cone over y along c; the
    returned sequence collapses the y-cone onto the x-cone, the x-cone onto c,
    then c itself, reusing the input sequence three times.
    """
    if not result.is_yes or result.sequence is None:
        raise ReplayError("suspension transport needs a yes verdict")
    susp = suspension(c, x, y)
    seq = result.sequence
    lifted_y = tuple(CollapsePair(p.sigma | {y}, p.tau | {y}) for p in seq)
    lifted_x = tuple(CollapsePair(p.sigma | {x}, p.tau | {x}) for p in seq)
    full = lifted_y + lifted_x + seq
    if not replay(susp, full).is_void:
        raise ReplayError("suspension sequence does not reach the void complex")
    return ShvResult("yes", full, result.nodes)


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
        try:
            steps.append(CollapsePair(frozenset(step["sigma"]), frozenset(step["tau"])))
        except ReplayError as exc:
            raise InputError(str(exc)) from None
    return tuple(steps)
