"""Shared test helpers: naive reference checkers and random generators.

The checkers here quantify over full monotone closures, every subset,
every choice set, and every hitting set, with no generator shortcuts.
They are deliberately slow and simple so they can serve as oracles for
the optimized module code.

The forcing relations (generalized and ordinary) and the tautology check
are written out connective by connective, world by world and row by row.
They use nothing of veltman but its node classes and frame accessors, so
they stay independent of ``formula.fold``/``formula.evaluate``.  The
largest autobisimulation is the greatest fixpoint over world pairs, with
its own copy of the transfer clause, independent of ``veltman.bisim``.  The
R-clause of filtration scans every R pair and box-like member, its
S-clause every set of successor classes, and the adequate set is a naive
fixpoint over the whole set.

This is the one copy of each oracle and generator; every test module
imports them from here.  The seeded generators, each drawing from the
``random.Random`` it is given:

- ``random_r(rng, worlds)``: a transitive irreflexive R;
- ``random_gen_frame(rng, n, extra=0.4, close=True)`` and
  ``random_gen_model(rng, max_worlds, variables, worlds=None)``: legal
  generalized frames and models, via ``close_s``; with ``close`` false the
  unclosed candidate frames ``close_s`` is tested on;
- ``_unclosed_r(rng, worlds)``: a transitive irreflexive R with loops,
  dropped and stray edges, and on it ``_illegal_gen(rng)`` and
  ``_illegal_ord(rng)``: frames whose S is keyed and valued outside R[w];
- ``random_frame(rng)``: a frame of 2 to 7 worlds, legal or not, and
  ``wide_frame(rng)``: one world seeing 5 to 8 others, with wide S images,
  for the quasi-transitivity walks;
- ``random_ord_model(rng, max_worlds, variables)``: legal ordinary models,
  and ``toggled_ord_frame(rng, fr)``: ``fr`` with a few R edges and S
  pairs toggled;
- ``random_formula(rng, depth, variables, stop=0.25)``: formulas of modal
  depth <= depth over the variables, bot and top, ending in a leaf early
  with probability ``stop``;
- ``mutant(rng, src)``: ``src`` with one character deleted, doubled or
  replaced by a grammar token, a character outside the grammar or a kind of
  whitespace (``GOOD``, ``BAD``, ``SPACE``), or left as it is;
- ``duplicated_model(m)``: a model next to a relabeled copy of itself,
  and ``copied_model(m, doublings)``: 2^doublings copies;
- ``_droppable(rng, fr)``: a generator whose loss ``_dropped(fr, w, u, g)``
  (S without it, closed again) does not undo;
- ``_corrupted(rng, q, kind)``: a quotient with one variable flipped, one
  R~ edge dropped or all of S~ dropped;
- ``random_masks(rng)``: world masks with nested chains and repeats;
- ``dense_ord_frame(n)``, not seeded: the legal ordinary frame on a strict
  order of n worlds with u S_w v for every u <= v in R[w], and
  ``flat_model(k)``: 2^k worlds without R, one per valuation of p0..p(k-1).

The subset helpers ``subsets`` and ``images``, the mask oracle
``minimal_masks`` (the minimal members of a mask collection, pair by pair,
in the order of the sort key ``mask_key``),
the six frame conditions in ``BRUTE``, the |>-table probe
``rhd_table_mismatch`` (an embedding against the ordinary forcing on every
pair of world subsets), the point-generated subframe
``generated_subframe(fr, w)``, the first failing valuation of a formula on
a frame by a plain scan ``brute_first_failure(fr, f)``, the distinct leaf
vectors of a per-world truth table ``leaf_image(leaves, variables)`` and
the closure under subformulas and single negation ``negation_closure``
are shared the same way.  So are the generator scan ``_s_holds_by_scan``,
the quasi-transitivity walks over every pick ``product_escapes`` and
``minimal_escapes`` (these three name worlds by index), the naive frame
enumeration ``_naive_transitive_irreflexive``, ``_canonical`` and
``_naive_families``,
the set partitions and equivalences ``_partitions`` and ``_equivalences``,
``verify_filtration`` written out as ``_first_disagreement``, the clauses
of filtration ``filtration_r_by_scan`` and ``filtration_s_by_scan``, the
clauses of an ordinary frame on world-name pairs ``ord_violations``, and
the proof-line framing by regular expression ``regex_proof_lines``.
"""

import itertools
import random
import re
from functools import reduce
from operator import or_

from veltman.formula import (BOT, TOP, And, Bot, Box, Dia, Impl, Neg, Or, Rhd,
                             Top, Var)
from veltman.model import GenFrame, GenModel, OrdFrame, OrdModel, Violation, close_s, validate


def subsets(xs):
    xs = sorted(xs)
    for k in range(len(xs) + 1):
        for c in itertools.combinations(xs, k):
            yield frozenset(c)


def images(fr, w, u):
    """All V with u S_w V, via the monotone closure of the generators."""
    return [v for v in subsets(fr.successors(w)) if fr.s_holds(w, u, v)]


def _s_holds_by_scan(fr, w, u, v):
    """u S_w V on the stored generators, by scanning every one of them;
    worlds by index, V a world mask."""
    r = fr.succ[w]
    return bool(v and not v & ~r and r & 1 << u
                and any(g & ~v == 0 for g in fr.s.get(w, {}).get(u, ())))


def brute_mgen(fr):
    for w in fr.worlds:
        for u in fr.successors(w):
            ru = set(fr.successors(u))
            for v_img in images(fr, w, u):
                if not any(fr.s_holds(w, u, vp)
                           and all(set(fr.successors(x)) <= ru for x in vp)
                           for vp in subsets(v_img)):
                    return False
    return True


def brute_m0gen(fr):
    for w in fr.worlds:
        for u in fr.successors(w):
            ru = set(fr.successors(u))
            for x in fr.successors(u):
                for v_img in images(fr, w, x):
                    if not any(fr.s_holds(w, u, vp)
                               and all(set(fr.successors(y)) <= ru for y in vp)
                               for vp in subsets(v_img)):
                        return False
    return True


def brute_pgen(fr):
    for w in fr.worlds:
        for wp in fr.successors(w):
            for u in fr.successors(wp):
                for v_img in images(fr, w, u):
                    if not any(fr.s_holds(wp, u, vp) for vp in subsets(v_img)):
                        return False
    return True


def brute_p0gen(fr):
    all_worlds = set(fr.worlds)
    for w in fr.worlds:
        for x in fr.successors(w):
            for u in fr.successors(x):
                for v_img in images(fr, w, u):
                    for z in subsets(all_worlds):
                        if not all(set(fr.successors(v)) & z for v in v_img):
                            continue
                        if not any(fr.s_holds(x, u, zp) for zp in subsets(z)):
                            return False
    return True


def brute_rgen(fr):
    for w in fr.worlds:
        for x in fr.successors(w):
            rx = frozenset(fr.successors(x))
            for u in fr.successors(x):
                images_xu = images(fr, x, u)
                all_cs = [c for c in subsets(rx)
                          if all(c & z for z in images_xu)]
                for v_img in images(fr, w, u):
                    for c in all_cs:
                        if not any(fr.s_holds(w, x, uu)
                                   and all(set(fr.successors(y)) <= c for y in uu)
                                   for uu in subsets(v_img)):
                            return False
    return True


def brute_wgen(fr):
    for w in fr.worlds:
        for u in fr.successors(w):
            for v_img in images(fr, w, u):
                pre = {y for y in fr.successors(w) if fr.s_holds(w, y, v_img)}
                if not any(fr.s_holds(w, u, vp)
                           and not any(set(fr.successors(y)) & pre for y in vp)
                           for vp in subsets(v_img)):
                    return False
    return True


BRUTE = {"Mgen": brute_mgen, "M0gen": brute_m0gen, "Pgen": brute_pgen,
         "P0gen": brute_p0gen, "Rgen": brute_rgen, "Wgen": brute_wgen}


def brute_close_s(fr):
    """The least S over R that is quasi-reflexive, closed under successor
    steps and quasi-transitive, as ``{w: {u: minimal generator sets}}`` for
    every nonempty S_w(u); None when R is not transitive and irreflexive or
    some S_w is keyed or has an image outside R[w], which no closure can
    repair.  A fixpoint over the frame's accessors: each pass adds the union
    of every product pick, one image of each v in a generator of S_w(u), that
    no image of S_w(u) lies inside, until none escapes; then reduce."""
    succ = {w: fr.successors(w) for w in fr.worlds}
    if any(w in succ[w] or not succ[u] <= succ[w] for w in fr.worlds for u in succ[w]):
        return None
    s = {}
    for w in fr.worlds:
        for u in fr.worlds:
            gens = set(fr.gens(w, u))
            if gens and (u not in succ[w] or any(not g <= succ[w] for g in gens)):
                return None
        s[w] = {u: set(fr.gens(w, u)) | {frozenset([u])} | {frozenset([v]) for v in succ[u]}
                for u in succ[w]}
    changed = True
    while changed:
        changed = False
        for per_u in s.values():
            for images_u in per_u.values():
                for g in list(images_u):
                    for pick in itertools.product(*(per_u[v] for v in g)):
                        union = frozenset().union(*pick)
                        if not any(h <= union for h in images_u):
                            images_u.add(union)
                            changed = True
    return {w: {u: {a for a in images_u if not any(b < a for b in images_u)}
                for u, images_u in per_u.items()}
            for w, per_u in s.items() if per_u}


def _members(g):
    """The indices of the worlds in mask ``g``, lowest first."""
    return [i for i in range(g.bit_length()) if g >> i & 1]


def product_escapes(fr):
    """Every (w, u, G, union) whose union escapes S_w(u), in ``product``
    order: every pick of one generator of S_w(v) per v in G, none skipped;
    worlds by index."""
    for w in range(len(fr.worlds)):
        per_u = fr.s.get(w, {})
        for u in sorted(per_u):
            for g in per_u[u]:
                options = [per_u.get(v, ()) for v in _members(g)]
                for pick in itertools.product(*options):
                    union = reduce(or_, pick)
                    if not fr.s_holds_mask(w, u, union):
                        yield (w, u, g, union)


def minimal_escapes(fr):
    """Per (w, u, G), the unions of picks that no other pick's union lies
    strictly inside and that escape S_w(u); worlds by index."""
    out = {}
    for w, u, g, union in product_escapes(fr):
        out.setdefault((w, u, g), set())
    for w in range(len(fr.worlds)):
        per_u = fr.s.get(w, {})
        for u in sorted(per_u):
            for g in per_u[u]:
                options = [per_u.get(v, ()) for v in _members(g)]
                unions = {reduce(or_, pick) for pick in itertools.product(*options)}
                least = {x for x in unions if not any(y != x and y & ~x == 0 for y in unions)}
                if escaping := {x for x in least if not fr.s_holds_mask(w, u, x)}:
                    out[w, u, g] = escaping
    return {key: found for key, found in out.items() if found}


def random_r(rng: random.Random, worlds):
    """Random transitive irreflexive relation over the given worlds."""
    order = list(worlds)
    rng.shuffle(order)
    pairs = set()
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if rng.random() < 0.4:
                pairs.add((a, b))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def random_gen_frame(rng: random.Random, n: int, extra=0.4, close=True) -> GenFrame:
    """Random generalized frame on worlds w0..w(n-1): a random R and, with
    probability ``extra`` for each u in R[w], one random generator of
    S_w(u); then ``close_s``, or with ``close`` false the unclosed
    candidate frame, whose S need not be legal."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = random_r(rng, worlds)
    succ = {w: sorted(v for (a, v) in pairs if a == w) for w in worlds}
    fams = {}
    for w in worlds:
        for u in succ[w]:
            if succ[w] and rng.random() < extra:
                size = rng.randrange(1, len(succ[w]) + 1)
                fams.setdefault(w, {}).setdefault(u, []).append(
                    rng.sample(succ[w], size))
    frame = GenFrame(worlds, pairs, fams)
    return close_s(frame) if close else frame


def random_gen_model(rng: random.Random, max_worlds=6, variables=("p", "q", "r"), worlds=None):
    """Random legal generalized model, legality via close_s, on ``worlds``
    worlds if given, else on 1 to ``max_worlds`` drawn from ``rng``."""
    n = rng.randrange(1, max_worlds + 1) if worlds is None else worlds
    fr = random_gen_frame(rng, n)
    val = {v: [w for w in fr.worlds if rng.random() < 0.5] for v in variables}
    return GenModel(fr, val)


def _unclosed_r(rng: random.Random, worlds: list[str]) -> list[tuple[str, str]]:
    """A random transitive irreflexive R with loops added, edges dropped
    (transitive ones too) and stray edges added, each at random."""
    pairs = set(random_r(rng, worlds))
    pairs |= {(w, w) for w in worlds if rng.random() < 0.2}
    pairs -= {e for e in sorted(pairs) if rng.random() < 0.2}
    if rng.random() < 0.5:
        pairs.add((rng.choice(worlds), rng.choice(worlds)))
    return sorted(pairs)


def _illegal_gen(rng: random.Random) -> GenFrame:
    """An unclosed R, and S keyed by any world with images of any worlds."""
    worlds = [f"w{i}" for i in range(rng.randrange(1, 6))]
    pairs = _unclosed_r(rng, worlds)
    succ = {w: [v for a, v in pairs if a == w] for w in worlds}
    fams = {}
    for w in worlds:
        for u in worlds:
            if rng.random() < 0.4:
                pool = succ[w] if succ[w] and rng.random() < 0.7 else worlds
                size = rng.randrange(1, len(pool) + 1)
                fams.setdefault(w, {})[u] = [rng.sample(pool, size)]
    return GenFrame(worlds, pairs, fams)


def _illegal_ord(rng: random.Random) -> OrdFrame:
    """An unclosed R, and S_w random pairs of any worlds."""
    worlds = [f"w{i}" for i in range(rng.randrange(1, 5))]
    pairs = _unclosed_r(rng, worlds)
    s = {w: [(a, b) for a in worlds for b in worlds if rng.random() < 0.3] for w in worlds}
    return OrdFrame(worlds, pairs, s)


def random_frame(rng: random.Random) -> GenFrame:
    """A seeded frame of 2 to 7 worlds.  R is a strict order half the time
    and otherwise random pairs, loops allowed; each S_w is keyed mostly by
    R[w], with 1 to 3 generators drawn mostly from R[w]."""
    worlds = [f"w{i}" for i in range(rng.randrange(2, 8))]
    if rng.random() < 0.5:
        pairs = random_r(rng, worlds)
    else:
        pairs = {(a, b) for a in worlds for b in worlds if rng.random() < 0.3}
    succ = {w: sorted(b for a, b in pairs if a == w) for w in worlds}
    fams = {}
    for w in worlds:
        stray = rng.random() < 0.1
        for u in worlds if stray else succ[w]:
            if rng.random() < 0.6:
                pool = worlds if stray or not succ[w] else succ[w]
                fams.setdefault(w, {})[u] = [rng.sample(pool, rng.randrange(1, min(len(pool), 3) + 1))
                                             for _ in range(rng.randrange(1, 4))]
    return GenFrame(worlds, pairs, fams)


def wide_frame(rng: random.Random) -> GenFrame:
    """A seeded frame of 7 to 10 worlds: w R every world but y, and S_w(u)
    for most u has 1 to 3 generators of 1 or 2 members, now and then with
    y; two keys get one more generator of 3 to 5 members, whose picks run
    through several widening factors."""
    others = [f"v{i}" for i in range(rng.randrange(5, 9))]
    fams = {}
    for u in others:
        if rng.random() < 0.8:
            fams[u] = [rng.sample(others, rng.randrange(1, 3)) + (["y"] if rng.random() < 0.05 else [])
                       for _ in range(rng.randrange(1, 4))]
    for u in rng.sample(others, 2):
        fams.setdefault(u, []).append(rng.sample(others, rng.randrange(3, 6)))
    return GenFrame(["w", "y", *others], [("w", v) for v in others], {"w": fams})


def canonical_form(fr):
    """Isomorphism invariant of a generalized frame: the least relabeling,
    over every permutation of the worlds, of R and of the full S relation
    (every (w, u, V) with u S_w V, not just the stored generators)."""
    s_rel = [(w, u, v) for w in fr.worlds for u in fr.successors(w)
             for v in images(fr, w, u)]
    best = None
    for perm in itertools.permutations(range(len(fr.worlds))):
        ren = dict(zip(fr.worlds, perm))
        key = (tuple(sorted((ren[a], ren[b]) for a, b in fr.pairs)),
               tuple(sorted((ren[w], ren[u], tuple(sorted(ren[x] for x in v)))
                            for w, u, v in s_rel)))
        if best is None or key < best:
            best = key
    return len(fr.worlds), best


def _naive_transitive_irreflexive(worlds):
    pairs = [(a, b) for a in worlds for b in worlds if a != b]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = frozenset(p for p, bit in zip(pairs, bits) if bit)
        ok = all((a, c) in rel
                 for (a, b) in rel for (b2, c) in rel if b == b2)
        if ok:
            yield rel


def _canonical(rel, worlds):
    best = None
    for perm in itertools.permutations(worlds):
        ren = dict(zip(worlds, perm))
        img = tuple(sorted((ren[a], ren[b]) for a, b in rel))
        if best is None or img < best:
            best = img
    return best


def _naive_families(worlds, rel):
    """Every legal S assignment over the fixed relation, built with no
    pool or antichain shortcuts: raw subsets filtered by validate."""
    succ = {w: sorted(b for (a, b) in rel if a == w) for w in worlds}
    keyed = [(w, u) for w in worlds for u in succ[w]]
    options = []
    for (w, u) in keyed:
        nonempty = [frozenset(c)
                    for k in range(1, len(succ[w]) + 1)
                    for c in itertools.combinations(succ[w], k)]
        choices = []
        for sub_bits in itertools.product((0, 1), repeat=len(nonempty)):
            chosen = [set(s) for s, bit in zip(nonempty, sub_bits) if bit]
            choices.append(chosen)
        options.append(choices)
    seen = set()
    for combo in itertools.product(*options):
        fams = {}
        for (w, u), gens in zip(keyed, combo):
            if gens:
                fams.setdefault(w, {})[u] = [sorted(g) for g in gens]
        try:
            fr = GenFrame(worlds, rel, fams)
        except Exception:
            continue
        if validate(fr) == [] and fr not in seen:
            seen.add(fr)
            yield fr


def generated_subframe(fr, w):
    """The subframe generated by ``w``: w and its R-successors, with R and
    every S_v(u) of those worlds kept as they are."""
    worlds = {w} | fr.successors(w)
    fams = {v: {u: [sorted(g) for g in fr.gens(v, u)] for u in fr.successors(v)
                if fr.gens(v, u)} for v in worlds}
    return GenFrame(sorted(worlds), [(a, b) for a, b in fr.pairs if a in worlds], fams)


def random_ord_model(rng: random.Random, max_worlds=4, variables=("p", "q")):
    """Random legal ordinary model."""
    n = rng.randrange(1, max_worlds + 1)
    worlds = [f"w{i}" for i in range(n)]
    pairs = random_r(rng, worlds)
    succ = {w: sorted(v for (a, v) in pairs if a == w) for w in worlds}
    s = {}
    for w in worlds:
        rel = {(u, u) for u in succ[w]}
        rel |= {(u, v) for u in succ[w] for v in succ[w] if (u, v) in pairs}
        for u in succ[w]:
            for v in succ[w]:
                if rng.random() < 0.3:
                    rel.add((u, v))
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        if rel:
            s[w] = sorted(rel)
    fr = OrdFrame(worlds, pairs, s)
    val = {v: [w for w in worlds if rng.random() < 0.5] for v in variables}
    return OrdModel(fr, val)


def dense_ord_frame(n: int) -> OrdFrame:
    """Worlds w00, w01, ... in a strict order: R = {(wi, wj) : i < j} and
    S_wi = {(wa, wb) : i < a <= b}.  Legal, with |S_w| quadratic in n."""
    ws = [f"w{i:02d}" for i in range(n)]
    return OrdFrame(ws, [(a, b) for i, a in enumerate(ws) for b in ws[i + 1:]],
                    {w: [(ws[a], ws[b]) for a in range(i + 1, n) for b in range(a, n)]
                     for i, w in enumerate(ws)})


def toggled_ord_frame(rng: random.Random, fr: OrdFrame) -> OrdFrame:
    """``fr`` with one to three R edges and S pairs of any worlds toggled."""
    pairs, s = set(fr.pairs), {w: set(fr.s_pairs(w)) for w in fr.worlds}
    for _ in range(rng.randrange(1, 4)):
        pairs ^= {(rng.choice(fr.worlds), rng.choice(fr.worlds))}
        s[rng.choice(fr.worlds)] ^= {(rng.choice(fr.worlds), rng.choice(fr.worlds))}
    return OrdFrame(fr.worlds, pairs, s)


def random_formula(rng: random.Random, depth: int, variables=("p", "q"), stop=0.25):
    """Structured random formula of modal depth <= depth: a leaf (a
    variable, bot or top) at depth 0 or with probability ``stop``, else a
    connective over random formulas of depth - 1."""
    leaves = [Var(v) for v in variables] + [BOT, TOP]
    if depth == 0 or rng.random() < stop:
        return rng.choice(leaves)
    k = rng.randrange(7)
    if k == 0:
        return Neg(random_formula(rng, depth - 1, variables, stop))
    if k == 1:
        return Box(random_formula(rng, depth - 1, variables, stop))
    if k == 2:
        return Dia(random_formula(rng, depth - 1, variables, stop))
    ctor = (And, Or, Impl, Rhd)[k - 3]
    return ctor(random_formula(rng, depth - 1, variables, stop),
                random_formula(rng, depth - 1, variables, stop))


GOOD = ("->", "|>", "[]", "<>", "~", "&", "|", "(", ")", "p", "q", "bot", "top",
        "x_1aB", "zZ9")
BAD = ("P", "1", "-", ">", "<", "[", "]", "_", "\u00e9", "\u03bb", "\u20ac", "\u2192",
       "!", "=", "\u00df", "\x00", "A", "\u00b2")
SPACE = (" ", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "")


def mutant(rng: random.Random, src: str) -> str:
    i = rng.randrange(len(src))
    kind = rng.randrange(4)
    if kind == 0:
        return src[:i] + src[i + 1:]
    if kind == 1:
        return src[:i] + src[i] + src[i:]
    if kind == 2:
        return src[:i] + rng.choice(GOOD + BAD + SPACE) + src[i + 1:]
    return src


def duplicated_model(m: GenModel, suffix="_c") -> GenModel:
    """Disjoint union of a model and a relabeled copy; twins are bisimilar."""
    fr = m.frame
    ren = {w: w + suffix for w in fr.worlds}
    merged = GenFrame(
        list(fr.worlds) + list(ren.values()),
        [(a, b) for a in fr.worlds for b in fr.successors(a)]
        + [(ren[a], ren[b]) for a in fr.worlds for b in fr.successors(a)],
        {**{w: {u: [list(g) for g in fr.gens(w, u)]
                for u in fr.successors(w)} for w in fr.worlds},
         **{ren[w]: {ren[u]: [[ren[v] for v in g] for g in fr.gens(w, u)]
                     for u in fr.successors(w)} for w in fr.worlds}})
    return GenModel(merged, {p: sorted(ws) + sorted(ren[w] for w in ws)
                             for p, ws in m.valuation.items()})


def copied_model(m: GenModel, doublings: int) -> GenModel:
    """``duplicated_model`` applied ``doublings`` times: 2^doublings
    relabeled copies of ``m``, all bisimilar, the first with m's names."""
    for i in range(doublings):
        m = duplicated_model(m, f"_{i}")
    return m


def flat_model(k: int) -> GenModel:
    """2^k worlds and no R, world i forcing p_j iff bit j of i is set: each
    world is its own bisimulation class."""
    ws = [f"w{i}" for i in range(1 << k)]
    return GenModel(GenFrame(ws, [], {}),
                    {f"p{j}": [w for i, w in enumerate(ws) if i >> j & 1] for j in range(k)})


def _dropped(fr, w, u, g):
    """``fr`` without the generator g of S_w(u), with S closed again."""
    fams = {x: {v: [h for h in fr.gens(x, v) if (x, v, h) != (w, u, g)]
                for v in fr.successors(x)} for x in fr.worlds}
    return close_s(GenFrame(fr.worlds, fr.pairs, fams))


def _droppable(rng, fr):
    """A generator (w, u, g) of S_w(u) in ``fr``, the first in random order
    whose loss ``_dropped`` does not undo, or None."""
    picks = [(w, u, g) for w in fr.worlds for u in sorted(fr.successors(w))
             for g in fr.gens(w, u)]
    rng.shuffle(picks)
    return next((pick for pick in picks if _dropped(fr, *pick) != fr), None)


def random_masks(rng: random.Random) -> list[int]:
    """Random world masks, 3 to 70 worlds wide, with nested chains (each
    link a superset of the last) and repeats, shuffled; sometimes the
    empty mask."""
    width = rng.choice((3, 6, 12, 70))
    out = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randrange(0, 30))]
    for _ in range(rng.randrange(0, 4)):
        g = 1 << rng.randrange(width)
        for _ in range(rng.randrange(1, 6)):
            out.append(g)
            g |= rng.getrandbits(width) & rng.getrandbits(width)
    out += rng.choices(out, k=len(out) // 3) if out else []
    if rng.random() < 0.1:
        out.append(0)
    rng.shuffle(out)
    return out


def mask_key(g):
    """Sort key of a world mask: its size, then the list of its member
    indices."""
    return bin(g).count("1"), _members(g)


def minimal_masks(masks):
    """The inclusion-minimal members of a collection of world masks, each
    once, by comparing every pair; sorted by ``mask_key``."""
    masks = set(masks)
    low = [g for g in masks if not any(h != g and h & g == h for h in masks)]
    return sorted(low, key=mask_key)


def pair_set_autobisimulation(m: GenModel):
    """Greatest autobisimulation of ``m`` as the greatest fixpoint over the
    set of world pairs: start from atomic agreement and drop every pair that
    fails a transfer clause until no pair is dropped.  Returns ``class_of``
    and ``classes``, each class named by its least member.  The transfer
    clause is written out here, on stored generators, and nothing of
    ``veltman.bisim`` is used."""
    fr = m.frame

    def forth(x, y, z):
        return all(any((u, u2) in z and all(
            any(all(any((v, v2) in z for v2 in g2) for v in g1)
                for g1 in fr.gens(x, u))
            for g2 in fr.gens(y, u2))
            for u2 in fr.successors(y))
            for u in fr.successors(x))

    atoms = {w: {p for p, ws in m.valuation.items() if w in ws} for w in fr.worlds}
    z = {(a, b) for a in fr.worlds for b in fr.worlds if atoms[a] == atoms[b]}
    while True:
        keep = {(a, b) for a, b in z if forth(a, b, z) and forth(b, a, z)}
        if keep == z:
            break
        z = keep
    class_of = {a: min(b for b in fr.worlds if (a, b) in z) for a in fr.worlds}
    classes = {cid: frozenset(w for w in fr.worlds if class_of[w] == cid)
               for cid in set(class_of.values())}
    return class_of, classes


def _partitions(items):
    """All set partitions of a small list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield [blk | {first} if j == i else blk for j, blk in enumerate(sub)]
        yield sub + [{first}]


def _equivalences(worlds):
    """All equivalence relations on a small world set."""
    for blocks in _partitions(list(worlds)):
        yield frozenset((a, b) for blk in blocks for a in blk for b in blk)


def filtration_r_by_scan(m: GenModel, class_of, gamma):
    """Clause 1 of filtration, by scanning: the pairs ([w], [u]) for which
    some w' R u' with w' in [w] and u' in [u] has a box-like member of
    ``gamma`` (normalized to ~A |> bot) false at w' and true at u', truth
    sets from ``gen_truth_set``."""
    boxes = [gen_truth_set(m, f) for f in gamma
             if isinstance(g := _normalize(f), Rhd) and isinstance(g.left, Neg) and g.right == BOT]
    return {(class_of[w], class_of[u]) for w, u in m.frame.pairs
            if any(w not in t and u in t for t in boxes)}


def filtration_s_by_scan(m: GenModel, class_of, r_pairs):
    """Clause 2 of filtration, by scanning: for each [w] R~ [u], every
    nonempty set V~ of R~-successor classes of [w] such that for every
    w' in [w] and u' in [u] with w' R u', some S_{w'}-image of u' has all
    its classes in V~.  Returns ``{[w]: {[u]: [V~, ...]}}``, with every
    such V~, not only the minimal ones."""
    fr = m.frame
    out = {}
    for cw, cu in sorted(r_pairs):
        succ = [b for a, b in r_pairs if a == cw]
        witnesses = [(w, u) for w, u in fr.pairs if (class_of[w], class_of[u]) == (cw, cu)]
        found = [v for v in subsets(succ) if v and all(
            any({class_of[x] for x in g} <= v for g in fr.gens(w, u)) for w, u in witnesses)]
        if found:
            out.setdefault(cw, {})[cu] = found
    return out


def rhd_table_mismatch(om: OrdModel, gm: GenModel):
    """First pair of world subsets X, Y, in ``subsets`` order, on which the
    generalized |>-clause of ``gm`` and the reference ordinary forcing of
    ``om`` disagree on X |> Y, as two sorted lists; None when they agree on
    every pair.  With ``gm`` the embedding of ``om`` this pins agreement for
    every formula by induction."""
    probe = Rhd(Var("a"), Var("b"))
    for x in subsets(om.worlds):
        for y in subsets(om.worlds):
            val = {"a": x, "b": y}
            if (ord_truth_set(OrdModel(om.frame, val), probe)
                    != GenModel(gm.frame, val).truth_set(probe)):
                return (sorted(x), sorted(y))
    return None


def _forces(worlds, succ, val, rhd_at, f):
    """Truth set of ``f``; ``rhd_at(w, a, b)`` decides w |= A |> B from the
    truth sets of A and B."""
    def ts(g):
        if isinstance(g, Var):
            return frozenset(val.get(g.name, ()))
        if isinstance(g, Bot):
            return frozenset()
        if isinstance(g, Top):
            return frozenset(worlds)
        if isinstance(g, Neg):
            return frozenset(worlds) - ts(g.arg)
        if isinstance(g, And):
            return ts(g.left) & ts(g.right)
        if isinstance(g, Or):
            return ts(g.left) | ts(g.right)
        if isinstance(g, Impl):
            return (frozenset(worlds) - ts(g.left)) | ts(g.right)
        if isinstance(g, Box):
            body = ts(g.arg)
            return frozenset(w for w in worlds if succ(w) <= body)
        if isinstance(g, Dia):
            body = ts(g.arg)
            return frozenset(w for w in worlds if succ(w) & body)
        if isinstance(g, Rhd):
            a, b = ts(g.left), ts(g.right)
            return frozenset(w for w in worlds if rhd_at(w, a, b))
        raise TypeError(f"not a formula: {g!r}")
    return ts(f)


def gen_truth_set(m, f):
    """Generalized forcing: w |= A |> B iff every R-successor u of w in [A]
    has some S_w-image of u inside [B]."""
    fr = m.frame

    def rhd_at(w, a, b):
        return all(any(g <= b for g in fr.gens(w, u)) for u in fr.successors(w) & a)
    return _forces(fr.worlds, fr.successors, m.valuation, rhd_at, f)


def _first_disagreement(m, res):
    """verify_filtration written out: the adequate set in ``str`` order, the
    worlds of ``m`` in order, truth sets from the reference semantics."""
    class_of = res.partition.class_of
    for f in sorted(res.gamma, key=str):
        here, there = gen_truth_set(m, f), gen_truth_set(res.quotient, f)
        for w in m.worlds:
            if (w in here) != (class_of[w] in there):
                return (w, f)
    return None


def _corrupted(rng, q, kind):
    """``q`` with one class flipped in one variable (kind 0), one R~ edge
    dropped with its S family (kind 1), or all of S~ dropped (kind 2);
    ``q`` itself when there is no variable or edge to corrupt."""
    fr = q.frame
    if kind == 0 and q.valuation:
        p, c = rng.choice(sorted(q.valuation)), rng.choice(q.worlds)
        return GenModel(fr, {**q.valuation, p: set(q.valuation[p]) ^ {c}})
    if kind == 1 and fr.pairs:
        edge = rng.choice(sorted(fr.pairs))
        s = {w: {u: fr.gens(w, u) for u in fr.successors(w) if (w, u) != edge}
             for w in fr.worlds}
        return GenModel(GenFrame(fr.worlds, fr.pairs - {edge}, s), q.valuation)
    if kind == 2 and fr.pairs:
        return GenModel(GenFrame(fr.worlds, fr.pairs, {}), q.valuation)
    return q


def _variables(f):
    """The names of the variables of ``f``."""
    if isinstance(f, Var):
        return {f.name}
    return set().union(*map(_variables, _parts(f)))


def brute_first_failure(fr, f):
    """The first failing (valuation, world) by a plain scan, or True:
    valuations in lexicographic order of the sorted variables, each ranging
    over the world subsets in bitmask order (bit i is the i-th sorted
    world), forcing by the generalized semantics with R and S read once."""
    worlds = sorted(fr.worlds)
    masks = [frozenset(w for i, w in enumerate(worlds) if x >> i & 1)
             for x in range(1 << len(worlds))]
    succ = {w: fr.successors(w) for w in worlds}
    gens = {(w, u): fr.gens(w, u) for w in worlds for u in succ[w]}

    def rhd_at(w, a, b):
        return all(any(g <= b for g in gens[w, u]) for u in succ[w] & a)

    vs = sorted(_variables(f))
    for choice in itertools.product(masks, repeat=len(vs)):
        val = dict(zip(vs, choice))
        truth = _forces(worlds, succ.__getitem__, val, rhd_at, f)
        missed = [w for w in worlds if w not in truth]
        if missed:
            return val, missed[0]
    return True


def leaf_image(leaves, variables):
    """The distinct vectors of the modal-free ``leaves`` over the truth
    table of ``variables`` at one world, row by row: the number of them and,
    per leaf, the int whose bit d is its value in the d-th vector, vectors
    in increasing order of their code (leaf j at bit j)."""
    codes = set()
    for row in itertools.product((False, True), repeat=len(variables)):
        val = {v: {"w"} for v, on in zip(variables, row) if on}
        codes.add(sum(1 << j for j, leaf in enumerate(leaves)
                      if "w" in _forces(["w"], lambda w: frozenset(), val, None, leaf)))
    codes = sorted(codes)
    return len(codes), [sum(1 << d for d, c in enumerate(codes) if c >> j & 1)
                        for j in range(len(leaves))]


def ord_truth_set(m, f):
    """Ordinary forcing: w |= A |> B iff every R-successor u of w in [A]
    has some v in [B] with u S_w v."""
    fr = m.frame

    def rhd_at(w, a, b):
        return all(any(v in b for x, v in fr.s_pairs(w) if x == u)
                   for u in fr.successors(w) & a)
    return _forces(fr.worlds, fr.successors, m.valuation, rhd_at, f)


def ord_violations(fr):
    """``validate`` on an ordinary frame, on world-name pairs: R's loops and
    transitivity, then per world w, in world order, the S_w pairs leaving
    R[w], reflexivity over R[w], transitivity of S_w, and u S_w v for every
    w R u R v, each read off ``successors`` and ``s_pairs``."""
    out = [Violation("R-irreflexivity", (a,), f"R contains the loop ({a}, {a})")
           for a in fr.worlds if a in fr.successors(a)]
    out += [Violation("R-transitivity", (a, b, c), f"{a} R {b} R {c} but not {a} R {c}")
            for a in fr.worlds for b in sorted(fr.successors(a))
            for c in sorted(fr.successors(b) - fr.successors(a))]
    for w in fr.worlds:
        ru, rel = fr.successors(w), fr.s_pairs(w)
        out += [Violation("a", (w, a, b), f"S_{w} pair ({a}, {b}) leaves R[{w}]")
                for a, b in sorted(rel) if a not in ru or b not in ru]
        out += [Violation("b", (w, u), f"S_{w} is not reflexive at {u}")
                for u in sorted(ru) if (u, u) not in rel]
        out += [Violation("c", (w, a, b, c), f"S_{w} is not transitive")
                for a, b in sorted(rel) for c in sorted(x for y, x in rel if y == b)
                if (a, c) not in rel]
        out += [Violation("d", (w, u, v), f"{w} R {u} R {v} but not {u} S_{w} {v}")
                for u in sorted(ru) for v in sorted(fr.successors(u)) if (u, v) not in rel]
    return out


def _normalize(f):
    """[]A to ~A |> bot and <>A to ~(A |> bot), bottom-up."""
    if isinstance(f, (Var, Bot, Top)):
        return f
    if isinstance(f, Box):
        return Rhd(Neg(_normalize(f.arg)), BOT)
    if isinstance(f, Dia):
        return Neg(Rhd(_normalize(f.arg), BOT))
    if isinstance(f, Neg):
        return Neg(_normalize(f.arg))
    return type(f)(_normalize(f.left), _normalize(f.right))


def _parts(f):
    """Immediate subformulas, read off the node classes."""
    if isinstance(f, (Var, Bot, Top)):
        return ()
    if isinstance(f, (Neg, Box, Dia)):
        return (f.arg,)
    return (f.left, f.right)


def negation_closure(seeds):
    """Least superset of ``seeds`` and top closed under immediate
    subformulas and single negation, as a fixpoint over the whole set."""
    gamma = set(seeds) | {TOP}
    while True:
        new = set(gamma)
        for g in gamma:
            new.update(_parts(g))
            new.add(g.arg if isinstance(g, Neg) else Neg(g))
        if new == gamma:
            return frozenset(gamma)
        gamma = new


def adequate_closure(d):
    """Least superset of ``d`` closed under the five structure conditions,
    as a fixpoint over the whole set: each round adds, for every member, its
    immediate subformulas and its single negation, then ``bot |> bot``,
    ``[]~A`` for every A in ``d``, and A |> B for every A, B among the
    components of the normalized |>-members, until a round adds nothing."""
    d = frozenset(d)
    gamma = set(d)
    while True:
        new = set(gamma)
        new.add(Rhd(BOT, BOT))
        new.update(Box(Neg(a)) for a in d)
        pool = set()
        for g in gamma:
            new.update(_parts(g))
            new.add(g.arg if isinstance(g, Neg) else Neg(g))
            n = _normalize(g)
            if isinstance(n, Rhd):
                pool.update((n.left, n.right))
        new.update(Rhd(a, b) for a in pool for b in pool)
        if new == gamma:
            return frozenset(gamma)
        gamma = new


def classical_tautology(f, max_atoms=20):
    """Row-by-row truth table of the propositional skeleton of ``f``: the
    maximal |>-subformulas of the normalized form and the variables outside
    them are the atoms."""
    atoms = {}

    def skeleton(g):
        if isinstance(g, (Var, Rhd)):
            return ("atom", atoms.setdefault(g, len(atoms)))
        if isinstance(g, (Bot, Top)):
            return ("const", isinstance(g, Top))
        if isinstance(g, Neg):
            return ("~", skeleton(g.arg))
        return (type(g).__name__, skeleton(g.left), skeleton(g.right))

    sk = skeleton(_normalize(f))
    n = len(atoms)
    if n > max_atoms:
        raise ValueError(f"propositional skeleton has {n} atoms, limit is {max_atoms}")

    def ev(node, row):
        tag = node[0]
        if tag == "atom":
            return row[node[1]]
        if tag == "const":
            return node[1]
        if tag == "~":
            return not ev(node[1], row)
        if tag == "And":
            return ev(node[1], row) and ev(node[2], row)
        if tag == "Or":
            return ev(node[1], row) or ev(node[2], row)
        return (not ev(node[1], row)) or ev(node[2], row)

    return all(ev(sk, row) for row in itertools.product((False, True), repeat=n))


_PROOF_LINE = re.compile(r"^\s*([0-9]+)\.\s*(.*?)\s*;\s*(.*?)\s*$")


def regex_proof_lines(text):
    """Per line of ``text`` with a body outside its ``#`` comment: the line
    number and (index, formula text, justification text) as the regular
    expression frames the body, or None where it frames none."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            m = _PROOF_LINE.match(body)
            yield lineno, m and (int(m.group(1)), m.group(2), m.group(3))
