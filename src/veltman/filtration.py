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

A formula counts as box-like when its normalized form is  ~A |> bot.

The quotient's S families store the minimal V~ satisfying clause 2: the
minimal unions, as masks of classes, of one projected generator per witness
pair (w', u'), taking only the projections inside R~[[w]].  Truth of every
formula in the adequate set is preserved from model to quotient;
``verify_filtration`` checks this exhaustively and returns the first
disagreement, if any.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisim import Partition, largest_autobisimulation
from .formula import Bot, Formula, Neg, Rhd, Var, adequate_set, normalize
from .model import GenFrame, GenModel, Violation, World, minimal_unions, validate


@dataclass(frozen=True)
class FiltrationResult:
    quotient: GenModel
    partition: Partition
    gamma: frozenset[Formula]
    origin: GenModel
    violations: tuple[Violation, ...]


def box_like(f: Formula) -> bool:
    g = normalize(f)
    return isinstance(g, Rhd) and isinstance(g.left, Neg) and isinstance(g.right, Bot)


def filtrate(m: GenModel, d: frozenset[Formula]) -> FiltrationResult:
    """Quotient ``m`` through the adequate closure of ``d``.

    ``d`` should already be closed under subformulas and single negation;
    the adequate set is computed here.  Any frame-clause violation in the
    constructed quotient is reported in the result rather than repaired.
    """
    gamma = adequate_set(d)
    partition = largest_autobisimulation(m)
    boxes = sorted((f for f in gamma if box_like(f)), key=str)

    class_ids = sorted(partition.classes)
    r_witness_pairs: dict[tuple[World, World], list[tuple[World, World]]] = {}
    for w, u in sorted(m.frame.pairs):
        key = (partition.class_of[w], partition.class_of[u])
        r_witness_pairs.setdefault(key, []).append((w, u))
    r_pairs = {key for key, pairs in r_witness_pairs.items()
               if any(not m.forces(w, f) and m.forces(u, f)
                      for f in boxes for (w, u) in pairs)}

    r_frame = GenFrame(class_ids, r_pairs, {})

    def project(g: int) -> int:
        return r_frame.mask(partition.class_of[v] for v in m.frame.names(g))

    s: dict[World, dict[World, tuple[int, ...]]] = {}
    for cw, cu in sorted(r_pairs):
        inside = r_frame.succ_mask[cw]
        choices = [[v for v in map(project, m.frame.gen_masks(w, u)) if v & ~inside == 0]
                   for w, u in r_witness_pairs[(cw, cu)]]
        if unions := minimal_unions(choices):
            s.setdefault(cw, {})[cu] = unions

    frame = GenFrame.from_masks(class_ids, r_pairs, s)
    valuation = {
        p: [cid for cid in class_ids if m.forces(cid, Var(p))]
        for p in sorted({f.name for f in gamma if isinstance(f, Var)})}
    quotient = GenModel(frame, valuation)
    return FiltrationResult(quotient, partition, gamma, m,
                            tuple(validate(frame)))


def verify_filtration(m: GenModel, result: FiltrationResult) -> tuple[World, Formula] | None:
    """First (world, formula) where model and quotient disagree, else None."""
    class_of = result.partition.class_of
    for f in sorted(result.gamma, key=str):
        here, there = m.truth_set(f), result.quotient.truth_set(f)
        for w in m.worlds:
            if (w in here) != (class_of[w] in there):
                return (w, f)
    return None
