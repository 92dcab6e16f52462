"""Bisimulations between generalized models.

A relation Z is a bisimulation when related worlds agree on all
propositional variables and the two transfer clauses hold: an R-step on
either side can be matched by an R-step on the other such that every
S-image of the matching successor is refined by an S-image of the original
(every member of the original image has a Z-partner in the other image).

The transfer clauses only need the stored generator sets: the inner
"every member has a partner in V'" condition is monotone in V', and an
S-image witness V can always be shrunk to a generator, so checking
generators on both sides decides the clause for the full monotone closure.
``_forth_ok`` is the one encoding of the clause.  Z enters it as a mask of
partners per world: ``partners[a]`` has the bits of the worlds of the other
model that Z relates to a, so "v has a Z-partner in the generator g" is
``partners[v] & g``.

``largest_autobisimulation`` refines a partition, starting from atomic
agreement.  Each round splits every block: a world joins the first earlier
representative of its old block that passes the transfer clause both ways
under "same old block", and otherwise becomes a representative itself.
Comparing with one representative per block is enough because, when Z is
an equivalence, "forth both ways under Z" is an equivalence too: it holds
exactly when two worlds have the same inclusion-minimal pairs (class of u,
upward closure of the class images of S_w(u)) over their R-successors u.
So each round computes Z & ok(Z), the next iterate of the greatest
fixpoint iteration, and the loop stops after at most |W| rounds, when the
number of blocks stays the same.  Worlds are visited in order, so every
class id is the least member of its class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import GenModel, World


@dataclass(frozen=True)
class BisimViolation:
    clause: str  # "at", "forth" or "back"
    pair: tuple[World, World]
    detail: str


@dataclass(frozen=True)
class Partition:
    class_of: dict[World, str]
    classes: dict[str, frozenset[World]]

    def to_json(self) -> dict:
        return {cid: sorted(ws) for cid, ws in sorted(self.classes.items())}


def _atoms(m: GenModel, w: World, names) -> frozenset[str]:
    return frozenset(p for p in names if w in m.valuation.get(p, ()))


def _forth_ok(m1: GenModel, m2: GenModel, x: World, y: World,
              partners: dict[World, int]) -> bool:
    """Every R-step from x is matched from y, with S-image refinement."""
    for u in m1.frame.successors(x):
        if not any(partners[u] & m2.frame.bit[u2] and _images_refine(m1, m2, x, u, y, u2, partners)
                   for u2 in m2.frame.successors(y)):
            return False
    return True


def _images_refine(m1: GenModel, m2: GenModel, x: World, u: World,
                   y: World, u2: World, partners: dict[World, int]) -> bool:
    f1 = m1.frame
    for g2 in m2.frame.gen_masks(y, u2):
        if not any(all(partners[v] & g2 for v in f1.names(g1))
                   for g1 in f1.gen_masks(x, u)):
            return False
    return True


def _partners(pairs, bit: dict[World, int], keys=()) -> dict[World, int]:
    """For each a, the mask of the b with (a, b) in ``pairs``, 0 for other ``keys``."""
    out = dict.fromkeys(keys, 0)
    for a, b in pairs:
        out[a] = out.get(a, 0) | bit.get(b, 0)
    return out


def bisimulation_violation(m1: GenModel, m2: GenModel,
                           z: set[tuple[World, World]]) -> BisimViolation | None:
    """First clause broken by Z, or None when Z is a bisimulation."""
    names = set(m1.valuation) | set(m2.valuation)
    forth = _partners(z, m2.frame.bit, m1.worlds)
    back = _partners(((b, a) for a, b in z), m1.frame.bit, m2.worlds)
    for w, w2 in sorted(z):
        if _atoms(m1, w, names) != _atoms(m2, w2, names):
            return BisimViolation("at", (w, w2), "variable sets differ")
        if not _forth_ok(m1, m2, w, w2, forth):
            return BisimViolation("forth", (w, w2), "unmatched R-successor")
        if not _forth_ok(m2, m1, w2, w, back):
            return BisimViolation("back", (w, w2), "unmatched R-successor")
    return None


def is_bisimulation(m1: GenModel, m2: GenModel, z: set[tuple[World, World]]) -> bool:
    return bisimulation_violation(m1, m2, z) is None


def largest_autobisimulation(m: GenModel) -> Partition:
    """Greatest autobisimulation of ``m`` as a partition of its worlds."""
    names = sorted(m.valuation)
    first: dict[frozenset[str], World] = {}
    class_of = {w: first.setdefault(_atoms(m, w, names), w) for w in m.worlds}
    while True:
        old = class_of
        blocks = _partners(((cid, w) for w, cid in old.items()), m.frame.bit)
        same = {w: blocks[cid] for w, cid in old.items()}
        reps: dict[World, list[World]] = {}
        class_of = {}
        for w in m.worlds:
            block = reps.setdefault(old[w], [])
            class_of[w] = next((r for r in block if _forth_ok(m, m, w, r, same)
                                and _forth_ok(m, m, r, w, same)), w)
            if class_of[w] == w:
                block.append(w)
        if sum(map(len, reps.values())) == len(reps):
            break
    blocks = _partners(((cid, w) for w, cid in class_of.items()), m.frame.bit)
    return Partition(class_of, {cid: frozenset(m.frame.names(b)) for cid, b in blocks.items()})
