"""Bisimulation clauses and largest autobisimulation."""

import itertools
import random

import pytest
from reference import (_droppable, _dropped, _equivalences, copied_model, duplicated_model,
                       pair_set_autobisimulation, random_gen_frame, random_gen_model)

from veltman.bisim import (
    bisimulation_violation,
    largest_autobisimulation,
)
from veltman.decide import _il_frames
from veltman.formula import Var
from veltman.model import GenFrame, GenModel, close_s


def chain3(suffix=""):
    w, u, v = f"w{suffix}", f"u{suffix}", f"v{suffix}"
    return close_s(GenFrame([w, u, v], [(w, u), (w, v), (u, v)], {}))


class TestIsBisimulation:
    def test_identity_relation(self):
        m = GenModel(chain3(), {"p": ["u"]})
        ident = {(w, w) for w in m.worlds}
        assert bisimulation_violation(m, m, ident) is None

    def test_isolated_equal_atoms_total(self):
        m1 = GenModel(GenFrame(["a"], [], {}), {"p": ["a"]})
        m2 = GenModel(GenFrame(["b"], [], {}), {"p": ["b"]})
        assert bisimulation_violation(m1, m2, {("a", "b")}) is None

    def test_isolated_differing_atoms(self):
        m1 = GenModel(GenFrame(["a"], [], {}), {"p": ["a"]})
        m2 = GenModel(GenFrame(["b"], [], {}), {"p": []})
        violation = bisimulation_violation(m1, m2, {("a", "b")})
        assert violation is not None
        assert violation.clause == "at"
        assert violation.pair == ("a", "b")

    def test_forth_violation(self):
        m1 = GenModel(close_s(GenFrame(["a", "b"], [("a", "b")], {})), {})
        m2 = GenModel(GenFrame(["c"], [], {}), {})
        violation = bisimulation_violation(m1, m2, {("a", "c")})
        assert violation is not None and violation.clause == "forth"

    def test_back_violation(self):
        m1 = GenModel(GenFrame(["a"], [], {}), {})
        m2 = GenModel(close_s(GenFrame(["c", "d"], [("c", "d")], {})), {})
        violation = bisimulation_violation(m1, m2, {("a", "c")})
        assert violation is not None and violation.clause == "back"

    def test_pair_outside_the_models_is_a_value_error(self):
        m = GenModel(GenFrame(["a"], [], {}), {})
        with pytest.raises(ValueError, match=r"\(zz, a\)"):
            bisimulation_violation(m, m, {("a", "a"), ("zz", "a")})
        with pytest.raises(ValueError, match=r"\(a, zz\)"):
            bisimulation_violation(m, m, {("a", "zz")})

    def test_chain_to_its_copy(self):
        m1 = GenModel(chain3(), {"p": ["u"]})
        m2 = GenModel(chain3("2"), {"p": ["u2"]})
        z = {("w", "w2"), ("u", "u2"), ("v", "v2")}
        assert bisimulation_violation(m1, m2, z) is None


class TestLargestAutobisimulation:
    def test_no_r_equal_atoms_one_class(self):
        m = GenModel(GenFrame(["a", "b", "c"], [], {}), {})
        part = largest_autobisimulation(m)
        assert len(part.classes) == 1

    def test_atom_split(self):
        m = GenModel(close_s(GenFrame(["w", "u"], [("w", "u")], {})),
                     {"p": ["u"]})
        part = largest_autobisimulation(m)
        assert len(part.classes) == 2

    def test_two_copies_three_classes(self):
        fr1, fr2 = chain3(), chain3("2")
        merged = GenFrame(
            list(fr1.worlds) + list(fr2.worlds),
            [(a, b) for fr in (fr1, fr2)
             for a in fr.worlds for b in fr.successors(a)],
            {w: {u: [list(g) for g in fr.gens(w, u)]
                 for u in fr.successors(w)}
             for fr in (fr1, fr2) for w in fr.worlds})
        m = GenModel(merged, {"p": ["u", "u2"]})
        part = largest_autobisimulation(m)
        classes = sorted(sorted(ws) for ws in part.to_json().values())
        assert classes == [["u", "u2"], ["v", "v2"], ["w", "w2"]]

    def test_output_is_a_bisimulation(self):
        rng = random.Random(13)
        for fr in _il_frames(4):
            m = GenModel(fr, {"p": [w for w in fr.worlds if rng.random() < 0.5]})
            part = largest_autobisimulation(m)
            z = {(a, b) for ws in part.to_json().values()
                 for a in ws for b in ws}
            assert bisimulation_violation(m, m, z) is None

    def test_classes_partition_worlds(self):
        for fr in _il_frames(3):
            m = GenModel(fr, {"p": [fr.worlds[0]]})
            part = largest_autobisimulation(m)
            seen = sorted(w for ws in part.to_json().values() for w in ws)
            assert seen == sorted(fr.worlds)

    def test_class_ids_are_least_members(self):
        m = GenModel(GenFrame(["b", "a", "d", "c"], [], {}), {})
        part = largest_autobisimulation(m)
        assert set(part.to_json()) == {"a"}


class TestMatchesPairSetReference:
    """The refinement equals the greatest fixpoint over world pairs, class
    for class and id for id."""

    @staticmethod
    def assert_same(m):
        part = largest_autobisimulation(m)
        class_of, classes = pair_set_autobisimulation(m)
        assert part.class_of == class_of, m.to_json()
        assert part.classes == classes, m.to_json()

    def test_every_enumerated_frame(self):
        rng = random.Random(3)
        for fr in itertools.chain(_il_frames(3), _il_frames(4)):
            self.assert_same(GenModel(fr, {
                p: [w for w in fr.worlds if rng.random() < 0.5] for p in ("p", "q")}))

    def test_every_frame_up_to_4_worlds_under_every_valuation_of_p(self):
        """Exhaustive small scope: every frame of ``_il_frames(n)``, n <= 4,
        isomorphs included, under each of its 2^n valuations of p."""
        models = 0
        for n in range(1, 5):
            for fr in _il_frames(n):
                for p in range(1 << n):
                    self.assert_same(GenModel(fr, {"p": [w for i, w in enumerate(fr.worlds)
                                                         if p >> i & 1]}))
                    models += 1
        assert models == 2322

    def test_random_and_duplicated_models(self):
        rng = random.Random(17)
        for _ in range(300):
            m = random_gen_model(rng, max_worlds=6, variables=("p", "q"))
            self.assert_same(m)
            self.assert_same(duplicated_model(m))

    def test_sixty_four_worlds_of_eight_copies(self):
        """A random 8-world model, and the base of the benchmark's big
        filtration models under three relabellings: two R-components, one
        extra generator u S_w {v} per (w, u, v), closed, with p and q as
        bits of each world's entry."""
        rng = random.Random(8)
        fr = random_gen_frame(rng, 8)
        bases = [GenModel(fr, {p: [w for w in fr.worlds if rng.random() < 0.5]
                               for p in ("p", "q")})]
        r = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (5, 6), (5, 7), (6, 7)]
        for _ in range(3):
            ws = rng.sample([f"w{i}" for i in range(8)], 8)
            fams: dict = {}
            for w, u, v in [(0, 1, 2), (2, 3, 4), (5, 6, 7)]:
                fams.setdefault(ws[w], {})[ws[u]] = [[ws[v]]]
            fr = close_s(GenFrame(ws, [(ws[a], ws[b]) for a, b in r], fams))
            bases.append(GenModel(fr, {
                p: [ws[i] for i, x in enumerate((0, 1, 2, 3, 1, 0, 2, 1)) if x & b]
                for p, b in (("p", 1), ("q", 2))}))
        for m in bases:
            for suffix in ("_a", "_b", "_c"):
                m = duplicated_model(m, suffix)
            assert len(m.worlds) == 64
            self.assert_same(m)

    def test_copies_with_one_copy_changed(self):
        """4 or 8 copies of a random model, the last copy changed: a
        variable flipped at one world, or one generator dropped whose loss
        closing S again does not undo.  Worlds of the changed copy can share
        a projected row with worlds of the others while their old classes
        differ; one signature per distinct row must keep them apart."""
        rng = random.Random(20)
        split = {"flip": 0, "drop": 0}
        for trial in range(120):
            fr = random_gen_frame(rng, rng.randrange(3, 6), extra=1.0)
            doublings = 2 + trial % 2
            m = copied_model(GenModel(fr, {p: [w for w in fr.worlds if rng.random() < 0.5]
                                           for p in "pq"}), doublings)
            last = "".join(f"_{i}" for i in range(doublings))
            drop = _droppable(rng, fr) if trial % 2 else None
            if drop:
                w, u, g = drop
                changed = GenModel(_dropped(m.frame, w + last, u + last,
                                            frozenset(v + last for v in g)), m.valuation)
            else:
                w, p = rng.choice(fr.worlds) + last, rng.choice("pq")
                changed = GenModel(m.frame, {**m.valuation, p: m.valuation[p] ^ {w}})
            self.assert_same(changed)
            split["drop" if drop else "flip"] += (len(largest_autobisimulation(changed).classes)
                                                  > len(largest_autobisimulation(m).classes))
        assert split["flip"] >= 40 and split["drop"] >= 10, split


class TestMinimalImageFamilies:
    """x has the R-successors u1 and u2 of one class and y only u3 of it;
    all three are leaves without variables, as are the p-world a and the
    q-world b.  The classes of the S-images of a successor are what the
    transfer clauses compare."""

    @staticmethod
    def model(x_u1, x_u2, y_u3):
        fr = close_s(GenFrame(
            ["x", "y", "u1", "u2", "u3", "a", "a2", "b", "b2"],
            [("x", v) for v in ("u1", "u2", "a", "b")] + [("y", v) for v in ("u3", "a2", "b2")],
            {"x": {"u1": x_u1, "u2": x_u2}, "y": {"u3": y_u3}}))
        return GenModel(fr, {"p": ["a", "a2"], "q": ["b", "b2"]})

    @staticmethod
    def assert_oracle(m):
        part = largest_autobisimulation(m)
        assert (part.class_of, part.classes) == pair_set_autobisimulation(m)
        return part.class_of

    def test_a_refined_family_is_dropped(self):
        # S_x(u1) is generated by {u1} and {a}, S_x(u2) and S_y(u3) by the
        # successor alone: up to classes the images of u2 are among those
        # of u1, so u1's family is not minimal, and y matches x
        m = self.model([["a"]], [], [])
        class_of = self.assert_oracle(m)
        assert class_of["x"] == class_of["y"] == "x"
        assert class_of["u1"] == class_of["u2"] == class_of["u3"]

    def test_incomparable_families_are_both_kept(self):
        # S_x(u1) adds {a}, S_x(u2) adds {b}; y has only the family with {a}
        m = self.model([["a"]], [["b"]], [["a2"]])
        class_of = self.assert_oracle(m)
        assert class_of["x"] == "x" and class_of["y"] == "y"
        assert class_of["u1"] == class_of["u2"] == class_of["u3"]


def test_maximality_brute_force():
    # no strictly coarser equivalence is a bisimulation
    rng = random.Random(29)
    frames = list(_il_frames(3)) + list(_il_frames(4))
    for fr in frames:
        m = GenModel(fr, {"p": [w for w in fr.worlds if rng.random() < 0.5]})
        part = largest_autobisimulation(m)
        best = {(a, b) for ws in part.to_json().values() for a in ws for b in ws}
        for rel in _equivalences(fr.worlds):
            if bisimulation_violation(m, m, rel) is None:
                assert rel <= best, (fr.to_json(), sorted(rel - best))


def test_bisimilar_worlds_agree_on_forces():
    from veltman.formula import BOT, TOP, And, Box, Dia, Impl, Neg, Or, Rhd

    rng = random.Random(41)

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Var("p"), Var("q"), BOT, TOP])
        k = rng.randrange(7)
        if k == 0:
            return Neg(rand_formula(depth - 1))
        if k == 1:
            return Box(rand_formula(depth - 1))
        if k == 2:
            return Dia(rand_formula(depth - 1))
        ctor = (And, Or, Impl, Rhd)[k - 3]
        return ctor(rand_formula(depth - 1), rand_formula(depth - 1))

    def duplicated(fr, val):
        # disjoint union of a model with a relabeled copy of itself:
        # every world is bisimilar to its twin
        ren = {w: w + "_c" for w in fr.worlds}
        merged = GenFrame(
            list(fr.worlds) + list(ren.values()),
            [(a, b) for a in fr.worlds for b in fr.successors(a)]
            + [(ren[a], ren[b]) for a in fr.worlds for b in fr.successors(a)],
            {**{w: {u: [list(g) for g in fr.gens(w, u)]
                    for u in fr.successors(w)} for w in fr.worlds},
             **{ren[w]: {ren[u]: [[ren[v] for v in g] for g in fr.gens(w, u)]
                         for u in fr.successors(w)} for w in fr.worlds}})
        return GenModel(merged, {p: ws + [ren[w] for w in ws]
                                 for p, ws in val.items()})

    pool = []
    for fr in itertools.chain(_il_frames(3), _il_frames(4)):
        val = {"p": [w for w in fr.worlds if rng.random() < 0.5],
               "q": [w for w in fr.worlds if rng.random() < 0.5]}
        m = duplicated(fr, val)
        part = largest_autobisimulation(m)
        pairs = [(a, b) for ws in part.to_json().values()
                 for a in ws for b in ws if a < b]
        assert pairs, "duplicated model must have bisimilar twins"
        pool.append((m, pairs))

    for i in range(1000):
        m, pairs = pool[i % len(pool)]
        f = rand_formula(3)
        for a, b in pairs:
            assert m.forces(a, f) == m.forces(b, f), (str(f), a, b)


def test_refinement_rounds_bounded_by_world_count():
    # the gfp loop must stabilize within |W| iterations; emulate it here
    for fr in _il_frames(4):
        m = GenModel(fr, {"p": [fr.worlds[0]]})
        part = largest_autobisimulation(m)
        z = {(a, b) for ws in part.to_json().values() for a in ws for b in ws}
        # one more refinement round must be a no-op
        assert bisimulation_violation(m, m, z) is None
