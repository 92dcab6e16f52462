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
it as the mask of the Z-partners of each world, listed by the world's index,
so the partners of u among the successors of y are ``partners[u] &
succ[y]`` and "v has a Z-partner in g" is ``partners[v] & g``.

``largest_autobisimulation`` refines a partition, starting from atomic
agreement.  When Z is an equivalence, write [A] for the classes met by a
world mask A and up(F) for the upward closure of a family F of class sets.
An image g refines g' under Z iff [g] is inside [g'], so the S-image
clause for (x, u) against (y, u') reads up([S_y(u')]) inside up([S_x(u)]),
and forth both ways under Z holds iff, for every class c, the
inclusion-minimal members of {up([S_x(u)]) : x R u, u in c} and of the
same set for y are equal.  For a minimal member on one side, forth and back
give a member inside it on the other side and one inside that on the first
side, which minimality makes equal to the first; conversely every member
contains a minimal one, which the other side has too.  So each round
gives every world one signature, its old class and those (c, minimal
closure) pairs, each closure as the ``antichain`` of its class-projected
generators, and groups the worlds by it: Z & ok(Z), the next iterate of the
greatest fixpoint iteration, with no pairwise test.  The (c, minimal
closure) pairs depend only on the world's projected row, the class of each
successor u with the classes of each generator of S_w(u), so they are
computed once per distinct row in a round: bisimilar copies share rows.
The loop stops after at most |W| rounds, when the number of classes stays
the same.  Worlds are grouped in world order, so every class id is the
least member of its class; the loop keeps each world's class id as an
index, and ``Partition`` names them.  ``_forth_ok`` stays the clause of
``bisimulation_violation``, whose Z need not be an equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .model import GenFrame, GenModel, World, antichain, indices


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


def _forth_ok(f1: GenFrame, f2: GenFrame, x: int, y: int, partners: list[int]) -> bool:
    """Every R-step from x is matched from y, with S-image refinement."""
    ry, images2 = f2._rows[y]
    for u, gens in f1._rows[x][1]:
        candidates = partners[u] & ry
        if not any(candidates >> u2 & 1 and _refines(gens, gens2, partners)
                   for u2, gens2 in images2):
            return False
    return True


def _refines(gens: tuple[int, ...], gens2: tuple[int, ...], partners: list[int]) -> bool:
    """Every image generated by ``gens2`` is refined by one of ``gens``."""
    return all(any(all(partners[v] & g2 for v in indices(g)) for g in gens) for g2 in gens2)


def _partners(pairs, index: dict[World, int], index2: dict[World, int]) -> list[int]:
    """For each world a of ``index``, by its index: the mask, over
    ``index2``, of the b with (a, b) in ``pairs``."""
    out = [0] * len(index)
    for a, b in pairs:
        out[index[a]] |= 1 << index2[b]
    return out


def bisimulation_violation(m1: GenModel, m2: GenModel,
                           z: set[tuple[World, World]]) -> BisimViolation | None:
    """First clause broken by Z, or None when Z is a bisimulation.  A pair
    naming a world outside ``m1`` or ``m2`` raises ValueError."""
    names = set(m1.valuation) | set(m2.valuation)
    f1, f2 = m1.frame, m2.frame
    pairs = sorted(z)
    for w, w2 in pairs:
        if w not in f1.index or w2 not in f2.index:
            raise ValueError(f"Z pair ({w}, {w2}) names a world outside the models")
    forth = _partners(pairs, f1.index, f2.index)
    back = _partners(((b, a) for a, b in pairs), f2.index, f1.index)
    for w, w2 in pairs:
        if _atoms(m1, w, names) != _atoms(m2, w2, names):
            return BisimViolation("at", (w, w2), "variable sets differ")
        if not _forth_ok(f1, f2, f1.index[w], f2.index[w2], forth):
            return BisimViolation("forth", (w, w2), "unmatched R-successor")
        if not _forth_ok(f2, f1, f2.index[w2], f1.index[w], back):
            return BisimViolation("back", (w, w2), "unmatched R-successor")
    return None


def _signature(row) -> frozenset:
    """The pairs (class c of u, ``antichain`` of the classes of each
    generator of S_w(u)) over the entries ``(c, *classes of generators)`` of
    a world's projected row, keeping per class only the families whose
    upward closure is inclusion-minimal: a family a is dropped when another
    family b of the class has every member containing a member of a."""
    families: dict[int, set[tuple[int, ...]]] = {}
    for c, *gens in row:
        families.setdefault(c, set()).add(antichain(gens))
    return frozenset((c, a) for c, fams in families.items() for a in fams
                     if not any(b != a and all(any(h & ~g == 0 for h in a) for g in b)
                                for b in fams))


def largest_autobisimulation(m: GenModel) -> Partition:
    """Greatest autobisimulation of ``m`` as a partition of its worlds."""
    names, worlds, rows = sorted(m.valuation), m.worlds, m.frame._rows
    first: dict = {}
    class_of = [first.setdefault(_atoms(m, w, names), i) for i, w in enumerate(worlds)]
    while True:
        project = cache(lambda g: 1 << class_of[g.bit_length() - 1] if g & g - 1 == 0
                        else sum({1 << class_of[v] for v in indices(g)}))
        row = [tuple([(class_of[u], *map(project, gens)) for u, gens in images])
               for _, images in rows]
        signature = {r: _signature(r) for r in set(row)}
        count, first = len(first), {}
        class_of = [first.setdefault((cid, signature[r]), i)
                    for i, (cid, r) in enumerate(zip(class_of, row))]
        if len(first) == count:
            break
    classes: dict[World, list[World]] = {}
    for w, cid in zip(worlds, class_of):
        classes.setdefault(worlds[cid], []).append(w)
    return Partition({w: worlds[cid] for w, cid in zip(worlds, class_of)},
                     {cid: frozenset(ws) for cid, ws in classes.items()})
