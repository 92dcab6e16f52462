"""Filtration of generalized models through an adequate formula set.

Worlds are identified along the largest autobisimulation.  Writing [w] for
classes, the quotient is assembled from three clauses:

  1. [w] R~ [u] iff some w' in [w], u' in [u] have w' R u' and some box-like
     formula in the adequate set fails at w' while holding at u';
  2. [u] S~_[w] V~ iff [w] R~ [u], V~ is a set of R~-successor classes of
     [w], and for every w' in [w], u' in [u] with w' R u' some S_{w'}-image
     of u' projects into V~;
  3. a variable from the adequate set holds at [w] iff it holds at w; every
     other variable is false everywhere.

A formula counts as box-like when its normalized form is  ~A |> bot;
``filtrate`` folds only those members of the adequate set, found by two
type tests each.

R~[[w]] is read off world masks: the class projection, joined over w' in
[w], of each R[w'] cut to the truth mask of a box-like formula failing at w'.
The quotient's S families store the minimal V~ satisfying clause 2: the
minimal unions, as masks of classes, of one projected generator per witness
pair (w', u'), taking only the projections inside R~[[w]].  The pairs of
[w] are grouped by the class of u' in one walk.  Pairs with the same
projections give one factor, since a repeated factor cannot change
the minimal unions (h | h = h).  Truth of every formula in the adequate set
is preserved from model to quotient.

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
from .model import GenFrame, GenModel, Violation, World, bits, minimal_unions, validate


@dataclass(frozen=True)
class FiltrationResult:
    quotient: GenModel
    partition: Partition
    gamma: Dag
    origin: GenModel
    violations: tuple[Violation, ...]


def box_like(f: Formula) -> bool:
    """``normalize(f)`` is ~A |> bot; as ``normalize`` rewrites only [] and
    <> (to a negation), the top two nodes of ``f`` decide it.  ``filtrate``
    runs the same test inline over Γ."""
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
    fr, class_of = m.frame, partition.class_of
    memo: dict = {}  # local, so Γ does not outlive the call in m's memo
    truths = [fold(f, m._step, memo) for f in gamma.members  # box_like(f), inline
              if (t := type(f)) is Box
              or t is Rhd and f.right is BOT and type(f.left) in (Neg, Dia)]

    class_ids = sorted(partition.classes)
    to_class = {fr.bit[w]: 1 << class_ids.index(cid) for w, cid in class_of.items()}

    @cache
    def project(g: int) -> int:
        return sum({to_class[b] for b in bits(g)})

    succ = dict.fromkeys(class_ids, 0)  # R~[[w]] as a class mask
    for w, r in fr.succ_mask.items():
        for t in truths:
            if not t & fr.bit[w]:
                succ[class_of[w]] |= project(r & t)

    s: dict[World, dict[World, tuple[int, ...]]] = {}
    for cw in class_ids:
        inside = succ[cw]
        choices: dict[int, set] = {}  # per class bit of u, over the pairs w R u
        for w in partition.classes[cw]:
            for u in fr.names(fr.succ_mask[w]):
                if (cu := to_class[fr.bit[u]]) & inside:
                    choices.setdefault(cu, set()).add(
                        tuple(v for v in map(project, fr.gen_masks(w, u)) if v & ~inside == 0))
        for cu in bits(inside):
            if unions := minimal_unions(choices.get(cu, ())):
                s.setdefault(cw, {})[class_ids[cu.bit_length() - 1]] = unions

    frame = GenFrame.from_masks(class_ids, succ, s)
    valuation = {
        p: [cid for cid in class_ids if m.forces(cid, Var(p))]
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
            lift = lifted[there] = sum(classes[b.bit_length() - 1] for b in bits(there))
        if here != lift:
            diffs.append((f, here ^ lift))
    if not diffs:
        return None
    texts: dict = {}
    f, diff = min(diffs, key=lambda fd: pretty(fd[0], texts))
    return (m.worlds[(diff & -diff).bit_length() - 1], f)
