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
``_forth_ok`` is the one encoding of the clause, on world masks.  Z enters
it as the mask of the Z-partners of each world, keyed by the world's bit, so
the partners of u among the successors of y are ``partners[u] &
succ_mask[y]`` and "v has a Z-partner in g" is ``partners[v] & g``.

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

from .model import GenFrame, GenModel, World, bits


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


def _forth_ok(f1: GenFrame, f2: GenFrame, x: World, y: World,
              partners: dict[int, int]) -> bool:
    """Every R-step from x is matched from y, with S-image refinement."""
    ry, images2 = f2._rows[y][1:]
    for bu, _, gens in f1._rows[x][2]:
        candidates = partners[bu] & ry
        if not any(bu2 & candidates and _refines(gens, gens2, partners)
                   for bu2, _, gens2 in images2):
            return False
    return True


def _refines(gens: tuple[int, ...], gens2: tuple[int, ...], partners: dict[int, int]) -> bool:
    """Every image generated by ``gens2`` is refined by one of ``gens``."""
    return all(any(all(partners[bv] & g2 for bv in bits(g)) for g in gens) for g2 in gens2)


def _partners(pairs, bit: dict[World, int], bit2: dict[World, int]) -> dict[int, int]:
    """For each world a of ``bit``, by its bit: the mask, in ``bit2``, of
    the b with (a, b) in ``pairs``."""
    out = dict.fromkeys(bit.values(), 0)
    for a, b in pairs:
        out[bit[a]] |= bit2.get(b, 0)
    return out


def bisimulation_violation(m1: GenModel, m2: GenModel,
                           z: set[tuple[World, World]]) -> BisimViolation | None:
    """First clause broken by Z, or None when Z is a bisimulation.  A pair
    naming a world outside ``m1`` or ``m2`` raises ValueError."""
    names = set(m1.valuation) | set(m2.valuation)
    f1, f2 = m1.frame, m2.frame
    pairs = sorted(z)
    for w, w2 in pairs:
        if w not in f1.bit or w2 not in f2.bit:
            raise ValueError(f"Z pair ({w}, {w2}) names a world outside the models")
    forth = _partners(pairs, f1.bit, f2.bit)
    back = _partners(((b, a) for a, b in pairs), f2.bit, f1.bit)
    for w, w2 in pairs:
        if _atoms(m1, w, names) != _atoms(m2, w2, names):
            return BisimViolation("at", (w, w2), "variable sets differ")
        if not _forth_ok(f1, f2, w, w2, forth):
            return BisimViolation("forth", (w, w2), "unmatched R-successor")
        if not _forth_ok(f2, f1, w2, w, back):
            return BisimViolation("back", (w, w2), "unmatched R-successor")
    return None


def largest_autobisimulation(m: GenModel) -> Partition:
    """Greatest autobisimulation of ``m`` as a partition of its worlds."""
    names = sorted(m.valuation)
    fr, bit = m.frame, m.frame.bit
    first: dict[frozenset[str], World] = {}
    class_of = {w: first.setdefault(_atoms(m, w, names), w) for w in m.worlds}
    while True:
        old = class_of
        blocks = _partners(((cid, w) for w, cid in old.items()), bit, bit)
        same = {bit[w]: blocks[bit[cid]] for w, cid in old.items()}
        reps: dict[World, list[World]] = {}
        class_of = {}
        for w in m.worlds:
            block = reps.setdefault(old[w], [])
            class_of[w] = next((r for r in block if _forth_ok(fr, fr, w, r, same)
                                and _forth_ok(fr, fr, r, w, same)), w)
            if class_of[w] == w:
                block.append(w)
        if sum(map(len, reps.values())) == len(reps):
            break
    blocks = _partners(((cid, w) for w, cid in class_of.items()), bit, bit)
    return Partition(class_of, {cid: frozenset(fr.names(blocks[bit[cid]]))
                                for cid in dict.fromkeys(class_of.values())})
