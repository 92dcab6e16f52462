"""Bounded countermodel search over enumerated generalized frames.

``enumerate_frames`` yields one legal generalized frame on n canonical
worlds (w0, w1, ...) per isomorphism class.  The accessibility relation is
deduplicated up to relabeling (lexicographically least orbit
representative); the S families on a fixed R are enumerated exactly, as the
mandatory singleton generators plus an antichain of extra generator masks
per (w, u), kept only when quasi-transitivity survives; of those, only the
first frame of each isomorphism class is kept.  Frames for a logic beyond
IL are the IL frames that meet the corresponding frame conditions; the
conditions are invariant under isomorphism, so that list too has one frame
per class.  Each (n, logic) list is built once per process and shared.

``countermodel_search`` walks ``enumerate_frames`` smallest first and
decides each frame with ``frame_validates``, on a table shared by the
frames of one size.  The verdict is honest about its
bound: ``NoCountermodelUpTo(n)`` only reports a bounded search, it does not
claim theoremhood.  ``decide`` upgrades to ``CheckedTheorem`` when a Hilbert
proof of the formula is supplied and verifies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product

from .formula import Formula, normalize
from .hilbert import LOGICS, Logic, ProofObject, check_proof, get_logic
from .model import GenFrame, GenModel, World, _escapes, bits, mask_order
from .properties import (PROPERTY_IDS, SCHEMA_OF_PROPERTY, check_property,
                         frame_validates)

MAX_ENUM_WORLDS = 4

FRAME_CONDITIONS: dict[str, tuple[str, ...]] = {
    name: tuple(p for p in PROPERTY_IDS if SCHEMA_OF_PROPERTY[p] in logic.schemata)
    for name, logic in LOGICS.items()}


@dataclass(frozen=True)
class SearchBudget:
    max_worlds: int = 3
    time_limit: float | None = None  # seconds

    def __post_init__(self):
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be positive")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class Refuted:
    model: GenModel
    world: World


@dataclass(frozen=True)
class NoCountermodelUpTo:
    max_worlds: int


@dataclass(frozen=True)
class CheckedTheorem:
    proof: ProofObject


Verdict = Refuted | NoCountermodelUpTo | CheckedTheorem


class SearchTimeout(Exception):
    """Budget ran out before the bounded search finished: every size up to
    ``completed_worlds`` was swept, and ``frames_swept`` of the
    ``frames_at_size`` search frames of the next size."""

    def __init__(self, completed_worlds: int, frames_swept: int, frames_at_size: int):
        super().__init__(f"time limit hit after finishing size {completed_worlds} "
                         f"({frames_swept} of {frames_at_size} frames of size "
                         f"{completed_worlds + 1} swept)")
        self.completed_worlds = completed_worlds
        self.frames_swept = frames_swept
        self.frames_at_size = frames_at_size


def _logic(logic: Logic | str) -> Logic:
    return logic if isinstance(logic, Logic) else get_logic(logic)


def _canonical_relations(n: int) -> list[frozenset[tuple[int, int]]]:
    """Transitive irreflexive relations on 0..n-1, one per relabeling orbit,
    ordered by edge count then lexicographically."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for k in range(len(slots) + 1):
        for chosen in combinations(slots, k):
            edges = frozenset(chosen)
            if not all((a, d) in edges for a, b in edges for c, d in edges if b == c):
                continue  # not transitive
            key = tuple(sorted(edges))
            if all(key <= tuple(sorted((p[a], p[b]) for a, b in edges))
                   for p in permutations(range(n))):
                out.append(edges)
    return out


def _antichains(pool: int) -> list[tuple[int, ...]]:
    """All antichains of nonempty submasks of ``pool``, by size, then
    lexicographically in ``mask_order`` (the empty antichain first)."""
    members = bits(pool)
    subsets = [sum(c) for r in range(1, len(members) + 1) for c in combinations(members, r)]
    return [combo for r in range(len(subsets) + 1) for combo in combinations(subsets, r)
            if all(a & b not in (a, b) for a, b in combinations(combo, 2))]


def enumerate_frames(n: int, logic: Logic | str = "IL"):
    """Yield the legal generalized frames for ``logic`` on n canonical worlds,
    one per isomorphism class.

    The frames are enumerated once per (n, logic) and shared by later calls,
    so they must not be changed."""
    yield from _frames(n, _logic(logic).name)


@cache
def _frames(n: int, logic: str) -> tuple[GenFrame, ...]:
    """The frames of ``enumerate_frames``.  For IL, the first frame of each
    isomorphism class of ``_il_frames``, in order; for another logic, those
    IL frames, in order, that meet its frame conditions.

    Search over this list answers as it would over all of ``_il_frames``:
    refutation is invariant under isomorphism, so the first refuting frame
    has no earlier isomorph (that isomorph would have refuted first), and
    the first failing valuation and world are those of that same frame."""
    if not 1 <= n <= MAX_ENUM_WORLDS:
        raise ValueError(f"frame enumeration supports 1..{MAX_ENUM_WORLDS} worlds, got {n}")
    if logic == "IL":
        firsts: dict[tuple, GenFrame] = {}
        for frame in _il_frames(n):
            firsts.setdefault(_iso_key(frame), frame)
        return tuple(firsts.values())
    return tuple(frame for frame in _frames(n, "IL")
                 if all(check_property(frame, pid).holds for pid in FRAME_CONDITIONS[logic]))


def _il_frames(n: int):
    """The IL frames on n worlds: per canonical R, each S assignment in
    order of extra generators, kept when quasi-transitivity holds."""
    worlds = tuple(f"w{i}" for i in range(n))
    for edges in _canonical_relations(n):
        succ = [sum(1 << b for a, b in edges if a == w) for w in range(n)]
        succ_mask = dict(zip(worlds, succ))
        keyed = sorted(edges)
        pools = [succ[w] & ~(1 << u) & ~succ[u] for w, u in keyed]
        option_lists = [_antichains(pool) for pool in pools]
        combos = sorted(
            product(*option_lists),
            key=lambda combo: (sum(len(c) for c in combo),
                               [[mask_order(g) for g in c] for c in combo]))
        for combo in combos:
            s: dict[World, dict[World, list[int]]] = {}
            for (w, u), extras in zip(keyed, combo):
                s.setdefault(worlds[w], {})[worlds[u]] = [1 << u, *bits(succ[u]), *extras]
            frame = GenFrame.from_masks(worlds, succ_mask, s)
            if next(_escapes(frame), None) is None:
                yield frame


def _relabel(x: int, perm: tuple[int, ...]) -> int:
    """World mask ``x`` with world i renamed ``perm[i]``."""
    return sum(1 << perm[b.bit_length() - 1] for b in bits(x))


def _iso_key(frame: GenFrame) -> tuple:
    """Equal for two frames on the same worlds exactly when they are
    isomorphic: the least relabelling of R and of the generator antichains
    over every permutation of the worlds."""
    succ = tuple(frame.succ_mask.values())
    index = {w: i for i, w in enumerate(frame.worlds)}
    s = [(index[w], index[u], gens) for w, per_u in frame.s.items() for u, gens in per_u.items()]
    return min((tuple(sorted((p[i], _relabel(r, p)) for i, r in enumerate(succ))),
                tuple(sorted((p[w], p[u], tuple(sorted(_relabel(g, p) for g in gens)))
                             for w, u, gens in s)))
               for p in permutations(range(len(succ))))


def countermodel_search(f: Formula, logic: Logic | str,
                        budget: SearchBudget = SearchBudget()) -> Verdict:
    """Search frames of size 1..max_worlds for a world refuting ``f``.

    Deterministic: smallest frames first, in enumeration order; valuations
    in bitmask order; first refuting world.  Raises SearchTimeout when the
    time budget runs out; the budget is checked before each chunk of a
    frame's sweep.
    """
    logic = _logic(logic)
    if budget.max_worlds > MAX_ENUM_WORLDS:
        raise ValueError(f"search is bounded at {MAX_ENUM_WORLDS} worlds")
    started = time.monotonic()

    def check_time():  # reads the loop's n and swept
        if time.monotonic() - started > budget.time_limit:
            raise SearchTimeout(n - 1, swept, len(_frames(n, logic.name)))

    on_chunk = None if budget.time_limit is None else check_time
    for n in range(1, budget.max_worlds + 1):
        for swept, frame in enumerate(enumerate_frames(n, logic)):
            fals = frame_validates(frame, f, on_chunk=on_chunk)
            if fals is not True:
                return Refuted(GenModel(frame, fals.valuation), fals.world)
    return NoCountermodelUpTo(budget.max_worlds)


def decide(f: Formula, logic: Logic | str, budget: SearchBudget = SearchBudget(),
           proof: ProofObject | None = None) -> Verdict:
    """Check a supplied proof first; fall back to bounded countermodel search."""
    logic = _logic(logic)
    if proof is not None and check_proof(proof, logic).accepted \
            and normalize(proof.conclusion()) == normalize(f):
        return CheckedTheorem(proof)
    return countermodel_search(f, logic, budget)


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Refuted):
        return {"verdict": "refuted",
                "countermodel": v.model.to_json(),
                "refuted_at": v.world}
    if isinstance(v, NoCountermodelUpTo):
        return {"verdict": "no-countermodel-up-to", "max_worlds": v.max_worlds}
    if isinstance(v, CheckedTheorem):
        return {"verdict": "theorem", "proof_lines": len(v.proof.lines)}
    raise TypeError(f"not a verdict: {v!r}")
