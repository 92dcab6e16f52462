"""Frame conditions characterizing the extension principles, and schema
validity on generalized frames.

Six conditions are implemented, one per principle:

    Mgen   u S_w V  =>  some V' <= V with u S_w V' and R[V'] <= R[u]
    M0gen  w R u R x S_w V  =>  some V' <= V with u S_w V' and R[V'] <= R[u]
    Pgen   w R w' R u S_w V  =>  some V' <= V with u S_{w'} V'
    P0gen  w R x R u S_w V and every v in V has R[v] meeting Z
           =>  some Z' <= Z with u S_x Z'
    Rgen   w R x R u S_w V  =>  for every choice set C of (x, u) there is
           U <= V with x S_w U and R[U] <= C
    Wgen   u S_w V  =>  some V' <= V with u S_w V' and R[V'] disjoint
           from the S_w-preimage of V

A choice set of (x, u) is a subset of R[x] meeting every S_x-image of u;
``choice_sets`` returns the minimal ones (hypergraph transversals of the
generator family).

Quantifier bounds: for Mgen, M0gen, Pgen, P0gen and Rgen it is enough to let
V range over the stored generator sets, because each consequent only uses V
through subsets, so a witness for a generator lifts to every superset.  That
argument fails for Wgen: the preimage term grows with V, so Wgen quantifies
over every set in the monotone closure.  Z for P0gen ranges over minimal
transversals of {R[v] : v in V} and C for Rgen over minimal choice sets;
both conditions are antitone there, which makes the minimal elements enough.

``frame_validates`` sweeps every valuation of a formula's variables, with
``GenFrame.box``/``rhd`` on numpy int64 arrays of world bitmasks, one entry
per valuation, in chunks of at most ``SWEEP_ROWS`` valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .formula import Algebra, Formula, Var, evaluate, variables
from .hilbert import SCHEMATA, instantiate, schema_metavars
from .model import GenFrame, World

PROPERTY_IDS = ("Mgen", "M0gen", "Pgen", "P0gen", "Rgen", "Wgen")

SCHEMA_OF_PROPERTY = {
    "Mgen": "M", "M0gen": "M0", "Pgen": "P",
    "P0gen": "P0", "Rgen": "R", "Wgen": "W",
}


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    holds: bool
    witness: tuple | None = None
    message: str | None = None


def minimal_hitting_sets(sets: Iterable[frozenset]) -> frozenset[frozenset]:
    """Minimal transversals of a family of finite sets.

    Every returned set meets every member of the family and no proper subset
    does.  An empty family has the empty transversal; a family containing an
    empty set has none.
    """
    family = [frozenset(s) for s in sets]
    if any(not s for s in family):
        return frozenset()
    partial: set[frozenset] = {frozenset()}
    for s in family:
        nxt: set[frozenset] = set()
        for h in partial:
            if h & s:
                nxt.add(h)
            else:
                nxt.update(h | {x} for x in s)
        # prune anything that now dominates a smaller transversal-in-progress
        partial = {h for h in nxt if not any(g < h for g in nxt)}
    return frozenset(partial)


def choice_sets(frame: GenFrame, x: World, u: World) -> frozenset[frozenset[World]]:
    """Minimal subsets of R[x] meeting every S_x-image of u.  Requires x R u."""
    if u not in frame.successors(x):
        raise ValueError(f"choice_sets needs {x} R {u}")
    return minimal_hitting_sets(frame.gens(x, u))


def s_preimage(frame: GenFrame, w: World, vs: frozenset[World]) -> frozenset[World]:
    """All z in R[w] with z S_w V."""
    return frozenset(z for z in frame.successors(w) if frame.s_holds(w, z, vs))


def _upward_images(frame: GenFrame, w: World, u: World) -> list[frozenset[World]]:
    """Every V with u S_w V, smallest first (the full monotone closure)."""
    ru = sorted(frame.successors(w))
    out = []
    for r in range(1, len(ru) + 1):
        for combo in combinations(ru, r):
            v = frozenset(combo)
            if frame.s_holds(w, u, v):
                out.append(v)
    return out


def check_property(frame: GenFrame, property_id: str) -> PropertyReport:
    """Decide one frame condition; a failure carries a concrete witness."""
    if property_id not in PROPERTY_IDS:
        raise ValueError(f"unknown property {property_id!r}; choose from {PROPERTY_IDS}")
    succ = frame.successors

    def report(witness, message):
        return PropertyReport(property_id, False, witness, message)

    if property_id == "Mgen":
        for w in frame.worlds:
            for u in sorted(frame.families.get(w, {})):
                for v_set in frame.gens(w, u):
                    keep = frozenset(v for v in v_set if succ(v) <= succ(u))
                    if not frame.s_holds(w, u, keep):
                        return report((w, u, tuple(sorted(v_set))),
                                      f"no V' <= V with {u} S_{w} V' and R[V'] <= R[{u}]")
        return PropertyReport(property_id, True)

    if property_id == "M0gen":
        for w in frame.worlds:
            for u in sorted(succ(w)):
                for x in sorted(succ(u)):
                    for v_set in frame.gens(w, x):
                        keep = frozenset(v for v in v_set if succ(v) <= succ(u))
                        if not frame.s_holds(w, u, keep):
                            return report((w, u, x, tuple(sorted(v_set))),
                                          f"no V' <= V with {u} S_{w} V' and R[V'] <= R[{u}]")
        return PropertyReport(property_id, True)

    if property_id == "Pgen":
        for w in frame.worlds:
            for w2 in sorted(succ(w)):
                for u in sorted(succ(w2)):
                    for v_set in frame.gens(w, u):
                        keep = v_set & succ(w2)
                        if not frame.s_holds(w2, u, keep):
                            return report((w, w2, u, tuple(sorted(v_set))),
                                          f"no V' <= V with {u} S_{w2} V'")
        return PropertyReport(property_id, True)

    if property_id == "P0gen":
        for w in frame.worlds:
            for x in sorted(succ(w)):
                for u in sorted(succ(x)):
                    for v_set in frame.gens(w, u):
                        fam = [succ(v) for v in sorted(v_set)]
                        for z in sorted(minimal_hitting_sets(fam),
                                        key=lambda s: (len(s), sorted(s))):
                            if not frame.s_holds(x, u, z & succ(x)):
                                return report((w, x, u, tuple(sorted(v_set)), tuple(sorted(z))),
                                              f"no Z' <= Z with {u} S_{x} Z'")
        return PropertyReport(property_id, True)

    if property_id == "Rgen":
        for w in frame.worlds:
            for x in sorted(succ(w)):
                for u in sorted(succ(x)):
                    for v_set in frame.gens(w, u):
                        for c in sorted(choice_sets(frame, x, u),
                                        key=lambda s: (len(s), sorted(s))):
                            keep = frozenset(v for v in v_set if succ(v) <= c)
                            if not frame.s_holds(w, x, keep):
                                return report((w, x, u, tuple(sorted(v_set)), tuple(sorted(c))),
                                              f"no U <= V with {x} S_{w} U and R[U] <= C")
        return PropertyReport(property_id, True)

    # Wgen: the preimage of V grows with V, so generators are not enough here.
    for w in frame.worlds:
        for u in sorted(frame.families.get(w, {})):
            for v_set in _upward_images(frame, w, u):
                pre = s_preimage(frame, w, v_set)
                keep = frozenset(v for v in v_set if not (succ(v) & pre))
                if not frame.s_holds(w, u, keep):
                    return report((w, u, tuple(sorted(v_set))),
                                  "no V' <= V avoiding the S-preimage of V")
    return PropertyReport(property_id, True)


class FrameSizeError(ValueError):
    pass


@dataclass(frozen=True)
class Falsification:
    valuation: dict[str, frozenset[World]]
    world: World


class TruthTables:
    """Bitmask evaluation of formulas on one frame, in the frame's own
    ``box`` and ``rhd``.  ``evaluate`` maps numpy int64 arrays of variable
    masks to the array of truth-set masks, one entry per valuation.  The top
    element and unassigned variables are one-entry arrays that broadcast, so
    a formula without assigned variables yields a one-entry array.
    """

    def __init__(self, frame: GenFrame):
        self.frame = frame
        self.full = (1 << len(frame.worlds)) - 1

    def evaluate(self, f: Formula, assignment: dict[str, np.ndarray]) -> np.ndarray:
        full = np.full(1, self.full, dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        return evaluate(f, Algebra(full, lambda name: assignment.get(name, zero),
                                   self.frame.box, self.frame.rhd))


# Valuations per array pass: bounds the sweep's memory for any number of
# variables; up to four variables on four worlds is one pass.
SWEEP_ROWS = 1 << 16


def frame_validates(frame: GenFrame, f: Formula, cap: int = 5):
    """Is ``f`` forced at every world under every valuation of its variables?

    Returns True on validity, otherwise the lexicographically first failing
    valuation (variables sorted, each ranging over world subsets in bitmask
    order) together with the first failing world.  Valuations are swept in
    ascending chunks of ``SWEEP_ROWS``, stopping at the first chunk with a
    failure.
    """
    n = len(frame.worlds)
    if n > cap:
        raise FrameSizeError(f"frame has {n} worlds, cap is {cap}")
    tables = TruthTables(frame)
    vs = sorted(variables(f))
    size = 1 << n
    total = size ** len(vs)
    for start in range(0, total, SWEEP_ROWS):
        idx = np.arange(start, min(start + SWEEP_ROWS, total), dtype=np.int64)
        assignment = {name: (idx // size ** (len(vs) - 1 - j)) % size
                      for j, name in enumerate(vs)}
        truth = tables.evaluate(f, assignment)
        failing = truth != tables.full
        if failing.any():
            at = int(np.argmax(failing))
            valuation = {name: frozenset(w for w in frame.worlds
                                         if int(assignment[name][at]) & frame.bit[w])
                         for name in vs}
            world = next(w for w in frame.worlds if not int(truth[at]) & frame.bit[w])
            return Falsification(valuation, world)
    return True


_FRESH = {"A": Var("a0"), "B": Var("b0"), "C": Var("c0")}


def schema_frame_valid(frame: GenFrame, schema_id: str, cap: int = 5):
    """Validity of the schema instantiated with fresh variables.

    Returns True, or the falsifying (valuation, world) pair.
    """
    if schema_id not in SCHEMATA:
        raise ValueError(f"unknown schema {schema_id!r}")
    inst = instantiate(schema_id, {m: _FRESH[m] for m in schema_metavars(schema_id)})
    return frame_validates(frame, inst, cap=cap)


@dataclass(frozen=True)
class BenchRow:
    frame_index: int
    property_holds: bool
    schema_valid: bool

    @property
    def agree(self) -> bool:
        return self.property_holds == self.schema_valid


@dataclass(frozen=True)
class BenchReport:
    property_id: str
    n: int
    rows: tuple[BenchRow, ...]

    @property
    def disagreements(self) -> tuple[BenchRow, ...]:
        return tuple(r for r in self.rows if not r.agree)


def correspondence_bench(n: int, property_id: str) -> BenchReport:
    """Compare ``check_property`` with ``schema_frame_valid`` on every
    enumerated IL frame with n worlds."""
    # local import; decide uses this module for its frame filters
    from .decide import enumerate_frames

    if property_id not in PROPERTY_IDS:
        raise ValueError(f"unknown property {property_id!r}")
    schema = SCHEMA_OF_PROPERTY[property_id]
    rows = []
    for i, frame in enumerate(enumerate_frames(n, "IL")):
        holds = check_property(frame, property_id).holds
        valid = schema_frame_valid(frame, schema) is True
        rows.append(BenchRow(i, holds, valid))
    return BenchReport(property_id, n, tuple(rows))
