"""Naive set-based semantics used to re-check veltman's answers.

Everything here works on model documents in veltman's JSON interchange
format and on the tuple terms of ``formulas``; it shares no code with the
package under test.  Forcing follows the textbook clauses directly:

    w |- []A      iff every R-successor of w forces A
    w |- <>A      iff some R-successor of w forces A
    w |- A |> B   iff every R-successor u of w forcing A has some V with
                  u S_w V and V inside [B]   (generalized)
                  iff ... has some v with u S_w v forcing B   (ordinary)

where u S_w V holds in a generalized frame when V is a nonempty subset of
R[w] containing one of the stored generator sets.
"""

from itertools import product


class Model:
    """A generalized ("gen") or ordinary ("ord") model document, as sets."""

    def __init__(self, doc):
        self.kind = doc["kind"]
        self.worlds = frozenset(doc["worlds"])
        self.pairs = frozenset((a, b) for a, b in doc["R"])
        self.succ = {w: frozenset(b for a, b in self.pairs if a == w) for w in self.worlds}
        if self.kind == "gen":
            self.gens = {(w, u): [frozenset(g) for g in gens]
                         for w, per_u in doc["S"].items() for u, gens in per_u.items()}
        else:
            self.s = {w: frozenset((a, b) for a, b in rel) for w, rel in doc["S"].items()}
        self.valuation = {p: frozenset(ws) for p, ws in doc.get("valuation", {}).items()}
        self._memo = {}

    def s_holds(self, w, u, vs):
        vs = frozenset(vs)
        return (bool(vs) and u in self.succ[w] and vs <= self.succ[w]
                and any(g <= vs for g in self.gens.get((w, u), ())))

    def truth(self, f):
        """The set of worlds forcing term ``f``."""
        got = self._memo.get(f)
        if got is not None:
            return got
        tag = f[0]
        if tag == "var":
            out = self.valuation.get(f[1], frozenset())
        elif tag == "bot":
            out = frozenset()
        elif tag == "top":
            out = self.worlds
        elif tag == "not":
            out = self.worlds - self.truth(f[1])
        elif tag == "and":
            out = self.truth(f[1]) & self.truth(f[2])
        elif tag == "or":
            out = self.truth(f[1]) | self.truth(f[2])
        elif tag == "imp":
            out = (self.worlds - self.truth(f[1])) | self.truth(f[2])
        elif tag == "box":
            a = self.truth(f[1])
            out = frozenset(w for w in self.worlds if self.succ[w] <= a)
        elif tag == "dia":
            a = self.truth(f[1])
            out = frozenset(w for w in self.worlds if self.succ[w] & a)
        elif tag == "rhd":
            a, b = self.truth(f[1]), self.truth(f[2])
            out = frozenset(w for w in self.worlds
                            if all(self._answers(w, u, b) for u in self.succ[w] & a))
        else:
            raise ValueError(f"not a term: {f!r}")
        self._memo[f] = out
        return out

    def _answers(self, w, u, b):
        if self.kind == "gen":
            target = b & self.succ[w]
            return any(g <= target for g in self.gens.get((w, u), ()))
        return any(x == u and v in b for x, v in self.s.get(w, ()))

    def violations(self):
        """Names of the violated frame clauses: "irreflexive", "transitive",
        and a (S inside R[w]), b (quasi-reflexivity), c (quasi-transitivity
        or transitivity), d (u S_w v, or u S_w {v}, whenever w R u R v)."""
        bad = set()
        if any(a == b for a, b in self.pairs):
            bad.add("irreflexive")
        if any((a, c) not in self.pairs for a, b in self.pairs for c in self.succ[b]):
            bad.add("transitive")
        if self.kind == "gen":
            for (w, u), gens in self.gens.items():
                if u not in self.succ[w] or any(not g or not g <= self.succ[w] for g in gens):
                    bad.add("a")
            for w, u in self.pairs:
                if not self.s_holds(w, u, {u}):
                    bad.add("b")
                if any(not self.s_holds(w, u, {v}) for v in self.succ[u]):
                    bad.add("d")
            # Quasi-transitivity: if u S_w V and every v in V has v S_w Z_v,
            # then u S_w (union of the Z_v).  Generators suffice for V and
            # for each Z_v because the families are upward closed.
            for (w, u), gens in self.gens.items():
                for g in gens:
                    options = [self.gens.get((w, v), []) for v in sorted(g)]
                    if all(options) and any(
                            not self.s_holds(w, u, frozenset().union(*pick))
                            for pick in product(*options)):
                        bad.add("c")
        else:
            for w in self.worlds:
                rel, ru = self.s.get(w, frozenset()), self.succ[w]
                if any(a not in ru or b not in ru for a, b in rel):
                    bad.add("a")
                if any((u, u) not in rel for u in ru):
                    bad.add("b")
                if any((a, d) not in rel for a, b in rel for c, d in rel if b == c):
                    bad.add("c")
                if any((u, v) not in rel for u in ru for v in self.succ[u]):
                    bad.add("d")
        return bad


def close_gen(worlds, pairs, gens):
    """Least quasi-reflexive, successor-closed, quasi-transitive extension of
    the generator sets ``gens`` {(w, u): set of frozensets}; returns the
    minimal generators.  R must be a strict order."""
    succ = {w: frozenset(b for a, b in pairs if a == w) for w in worlds}
    fam = {k: set(v) for k, v in gens.items()}
    for w, u in pairs:
        fam.setdefault((w, u), set()).update(
            [frozenset({u})] + [frozenset({v}) for v in succ[u]])

    def holds(w, u, vs):
        return any(g <= vs for g in fam.get((w, u), ()))

    changed = True
    while changed:
        changed = False
        for (w, u) in sorted(fam):
            for g in sorted(fam[(w, u)], key=sorted):
                options = [sorted(fam.get((w, v), ()), key=sorted) for v in sorted(g)]
                if not all(options):
                    continue
                for pick in product(*options):
                    union = frozenset().union(*pick)
                    if not holds(w, u, union):
                        fam[(w, u)].add(union)
                        changed = True
    return {k: minimal(v) for k, v in fam.items()}


def minimal(sets):
    """The inclusion-minimal members, sorted by size and then by members."""
    sets = set(sets)
    return sorted((g for g in sets if not any(h < g for h in sets)),
                  key=lambda g: (len(g), sorted(g)))

