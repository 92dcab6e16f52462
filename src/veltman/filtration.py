"""Filtration of generalized models through an adequate formula set.

Worlds are identified along the largest autobisimulation.  Writing [w] for
classes, the quotient is assembled from three clauses:

  1. [w] R~ [u] iff some w' in [w], u' in [u] have w' R u' and some box-like
     formula in the adequate set fails at w' while holding at u';
  2. [u] S~_[w] V~ iff [w] R~ [u], V~ is a set of R~-successor classes of
     [w], and for every w' in [w], u' in [u] with w' R u' some S_{w'}-image
     of u' projects into V~;
  3. a variable from the adequate set holds at [w] iff the model's valuation
     puts w in it; every other variable is false everywhere.

A formula counts as box-like when its normalized form is  ~A |> bot;
``filtrate`` folds only those members of the adequate set, found by
``box_like``.

Clauses 1 and 2 are read off world masks at one world w of [w], the class
id, its least member; each world's class is its position, by world index.  Truth in the adequate set is invariant under the
bisimulation, and bisimilar worlds see the same successor classes, so
R~[[w]] is the class projection of R[w] cut to the join of the truth masks
of the box-like formulas failing at w.  The quotient's S families store the
minimal V~ satisfying clause 2: the minimal unions, as masks of classes, of
one family of projected generators per witness pair (w', u'), each family
cut to the projections inside R~[[w]].  A family acts on the unions only
through its upward closure, whose inclusion order the cut keeps, and a
factor whose closure contains another factor's changes no union.  Bisimilar
worlds have the same inclusion-minimal closures per successor class, which
``bisim`` compares, so the pairs of w alone, grouped by the class of u',
give S~_[w].  Pairs with the same projections give one factor, since a
repeated factor cannot change the minimal unions (h | h = h).  Truth of
every formula in the adequate set is preserved from model to quotient.

``verify_filtration`` checks this exhaustively on truth masks, in one walk of
the adequate set's list on the model and one on the quotient.  It lifts the
quotient's mask of a formula to the model's worlds, as the join of the
member masks of the classes where it holds, and XORs that with the model's
mask: a set bit is a world where the two disagree.  Of the formulas that
disagree, the least text (the first in ``str`` order) is reported, at its
lowest set bit, the first world of ``m.worlds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bisim import Partition, largest_autobisimulation
from .formula import BOT, Box, Dag, Dia, Formula, Neg, Rhd, Var, adequate_set, fold, pretty
from .model import GenFrame, GenModel, Violation, World, indices, minimal_unions, validate


@dataclass(frozen=True)
class FiltrationResult:
    quotient: GenModel
    partition: Partition
    gamma: Dag
    origin: GenModel
    violations: tuple[Violation, ...]


def box_like(f: Formula) -> bool:
    """``normalize(f)`` is ~A |> bot; as ``normalize`` rewrites only [] and
    <> (to a negation), the top two nodes of ``f`` decide it."""
    t = type(f)
    return t is Box or t is Rhd and f.right is BOT and type(f.left) in (Neg, Dia)


def filtrate(m: GenModel, d: frozenset[Formula]) -> FiltrationResult:
    """Quotient ``m`` through the adequate closure of ``d``.

    ``d`` should already be closed under subformulas and single negation;
    the adequate set is computed here.  Any frame-clause violation in the
    constructed quotient is reported in the result rather than repaired.
    """
    gamma = adequate_set(d)
    partition = largest_autobisimulation(m)
    fr = m.frame
    memo: dict = {}  # local, so Γ does not outlive the call in m's memo
    truths = {fold(f, m._step, memo) for f in gamma.members if box_like(f)}

    class_ids = sorted(partition.classes)
    position = {cid: i for i, cid in enumerate(class_ids)}
    to_class = [position[partition.class_of[w]] for w in fr.worlds]  # by world index

    @cache
    def project(g: int) -> int:
        return sum({1 << to_class[v] for v in indices(g)})

    succ = []  # R~[[w]] as a class mask, per class position
    s: dict[int, dict[int, tuple[int, ...]]] = {}
    for i, cw in enumerate(class_ids):  # each class read at its id
        r, images = fr._rows[w := fr.index[cw]]
        fails = 0
        for t in truths:
            if not t >> w & 1:
                fails |= t
        succ.append(inside := project(r & fails))
        choices: dict[int, set] = {}  # per class position of u, over the u in R[cw]
        for u, gens in images:
            if inside >> (cu := to_class[u]) & 1:
                choices.setdefault(cu, set()).add(
                    tuple(v for v in map(project, gens) if v & ~inside == 0))
        for cu in indices(inside):
            if unions := minimal_unions(choices[cu]):
                s.setdefault(i, {})[cu] = unions

    frame = GenFrame.from_masks(class_ids, succ, s)
    valuation = {p: partition.classes.keys() & m.valuation.get(p, ())
                 for p in sorted({f.name for f in gamma if isinstance(f, Var)})}
    quotient = GenModel(frame, valuation)
    return FiltrationResult(quotient, partition, gamma, m,
                            tuple(validate(frame)))


def verify_filtration(m: GenModel, result: FiltrationResult) -> tuple[World, Formula] | None:
    """First (world, formula) where model and quotient disagree, else None:
    the first formula in ``str`` order, and within it the first world of
    ``m.worlds``."""
    q, gamma = result.quotient, result.gamma
    classes = [m.frame.mask(result.partition.classes[c]) for c in q.worlds]
    lifted: dict[int, int] = {}  # quotient mask -> the join of its classes
    diffs = []
    for f, here, there in zip(gamma.members, gamma.values(m._step), gamma.values(q._step)):
        lift = lifted.get(there)
        if lift is None:
            lift = lifted[there] = sum(classes[i] for i in indices(there))
        if here != lift:
            diffs.append((f, here ^ lift))
    if not diffs:
        return None
    texts: dict = {}
    f, diff = min(diffs, key=lambda fd: pretty(fd[0], texts))
    return (m.worlds[(diff & -diff).bit_length() - 1], f)
