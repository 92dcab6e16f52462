"""Frames, models, validation, closure, forcing, and the JSON format."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from reference import (duplicated_model, gen_truth_set, ord_truth_set, random_formula,
                       random_gen_frame, random_gen_model, random_ord_model)

from veltman.formula import Box, Neg, Var, normalize, parse
from veltman.model import (
    FrameError,
    GenFrame,
    GenModel,
    OrdFrame,
    OrdModel,
    close_s,
    gen_of_ordinary,
    model_from_json,
    model_to_json,
    validate,
)


def two_world_model():
    fr = GenFrame(["w", "u"], [("w", "u")], {"w": {"u": [["u"]]}})
    return GenModel(fr, {"p": ["u"]})


class TestGenFrameConstruction:
    def test_empty_worlds_rejected(self):
        with pytest.raises(FrameError):
            GenFrame([], [], {})

    def test_unknown_world_in_r_rejected(self):
        with pytest.raises(FrameError):
            GenFrame(["w"], [("w", "x")], {})

    def test_empty_generator_set_unrepresentable(self):
        with pytest.raises(FrameError, match="empty"):
            GenFrame(["w", "u"], [("w", "u")], {"w": {"u": [[]]}})

    def test_generator_antichain_canonicalized(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u"), ("w", "v")],
                      {"w": {"u": [["u", "v"], ["u"], ["u"]]}})
        # {u} absorbs {u,v}; duplicates dropped
        assert fr.gens("w", "u") == (frozenset({"u"}),)

    def test_equality_ignores_input_order(self):
        a = GenFrame(["u", "w"], [("w", "u")], {"w": {"u": [["u"]]}})
        b = GenFrame(["w", "u"], [("w", "u")], {"w": {"u": [["u"]]}})
        assert a == b and hash(a) == hash(b)


class TestValidate:
    def test_single_world_vacuous(self):
        assert validate(GenFrame(["w"], [], {})) == []

    def test_missing_quasi_reflexivity(self):
        fr = GenFrame(["w", "u"], [("w", "u")], {})
        vs = validate(fr)
        assert any(v.clause == "b" and v.witness == ("w", "u") for v in vs)

    def test_intransitive_r(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u"), ("u", "v")], {})
        vs = validate(fr)
        assert any(v.clause == "R-transitivity" and v.witness == ("w", "u", "v")
                   for v in vs)

    def test_reflexive_r(self):
        fr = GenFrame(["w"], [("w", "w")], {})
        vs = validate(fr)
        assert any(v.clause == "R-irreflexivity" for v in vs)

    def test_s_key_outside_r(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u")], {"w": {"v": [["u"]]}})
        assert any(v.clause == "a" for v in validate(fr))

    def test_generator_escaping_successors(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u")], {"w": {"u": [["v"]]}})
        assert any(v.clause == "a" for v in validate(fr))

    def test_missing_d_clause(self):
        fr = GenFrame(["w", "u", "v"],
                      [("w", "u"), ("w", "v"), ("u", "v")],
                      {"w": {"u": [["u"]], "v": [["v"]]}, "u": {"v": [["v"]]}})
        vs = validate(fr)
        assert any(v.clause == "d" and v.witness == ("w", "u", "v") for v in vs)

    def test_quasi_transitivity_violation(self):
        # u S_w {v} and v S_w {z} demand u S_w {z}
        fr = GenFrame(["w", "u", "v", "z"],
                      [("w", "u"), ("w", "v"), ("w", "z")],
                      {"w": {"u": [["u"], ["v"]], "v": [["v"], ["z"]],
                             "z": [["z"]]}})
        assert any(v.clause == "c" for v in validate(fr))

    def test_legal_frame_clean(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        assert validate(fr) == []

    def test_legal_frame_with_a_20_member_generator_is_fast(self):
        """Each v of the generator {v00..v19} of S_w(u) has two generators,
        {v} and {z}: 2^20 picks, but quasi-transitivity is decided on the
        minimal unions, and the picks are walked only for a witness."""
        vs = [f"v{i:02d}" for i in range(20)]
        fr = GenFrame(["w", "u", "z", *vs], [("w", x) for x in ["u", "z", *vs]],
                      {"w": {"u": [["u"], vs, ["z"]], "z": [["z"]],
                             **{v: [[v], ["z"]] for v in vs}}})
        started = time.perf_counter()
        assert validate(fr) == []
        assert time.perf_counter() - started < 1  # 2 s walking every pick


class TestCloseS:
    def test_chain_fixpoint(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        assert fr.gens("w", "u") == (frozenset({"u"}), frozenset({"v"}))
        assert fr.gens("w", "v") == (frozenset({"v"}),)
        assert fr.gens("u", "v") == (frozenset({"v"}),)

    def test_two_world(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        assert fr.gens("w", "u") == (frozenset({"u"}),)

    def test_idempotent(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")],
                              {"w": {"u": [["v"]]}}))
        assert close_s(fr) == fr

    def test_illegal_r_rejected(self):
        with pytest.raises(FrameError):
            close_s(GenFrame(["w", "u", "v"], [("w", "u"), ("u", "v")], {}))

    def test_s_outside_r_rejected(self):
        # chaining could never repair these, so closing must refuse them
        with pytest.raises(FrameError, match="outside R"):
            close_s(GenFrame(["w", "u", "v"], [("w", "u")], {"w": {"v": [["u"]]}}))
        with pytest.raises(FrameError, match="leaves R"):
            close_s(GenFrame(["w", "u", "v"], [("w", "u"), ("u", "v"), ("w", "v")],
                             {"u": {"v": [["w"]]}}))


def _random_r(rng: random.Random, worlds):
    # random strict order fragment, transitively closed
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


def test_close_s_always_legal_1000_random_candidates():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randrange(1, 6)
        worlds = [f"w{i}" for i in range(n)]
        pairs = _random_r(rng, worlds)
        succ = {w: sorted(v for (a, v) in pairs if a == w) for w in worlds}
        fams = {}
        for w in worlds:
            for u in succ[w]:
                if succ[w] and rng.random() < 0.5:
                    size = rng.randrange(1, len(succ[w]) + 1)
                    fams.setdefault(w, {}).setdefault(u, []).append(
                        rng.sample(succ[w], size))
        closed = close_s(GenFrame(worlds, pairs, fams))
        assert validate(closed) == []


class TestSHolds:
    def setup_method(self):
        self.fr = close_s(GenFrame(["w", "u", "v", "z"],
                                   [("w", "u"), ("w", "v"), ("w", "z"), ("u", "v")],
                                   {}))

    def test_monotone_closure_query(self):
        # gens(w,u) contains {v}; {v,z} is a superset inside R[w]
        assert self.fr.s_holds("w", "u", {"v"})
        assert self.fr.s_holds("w", "u", {"v", "z"})

    def test_v_outside_successors_false(self):
        assert not self.fr.s_holds("w", "u", {"v", "w"})

    def test_empty_v_false(self):
        assert not self.fr.s_holds("w", "u", set())

    def test_monotone_in_v_exhaustive(self):
        worlds = set(self.fr.worlds)
        rw = set(self.fr.successors("w"))
        for u in rw:
            subsets = [frozenset(c) for k in range(len(worlds) + 1)
                       for c in itertools.combinations(sorted(worlds), k)]
            for v1 in subsets:
                if not self.fr.s_holds("w", u, v1):
                    continue
                for v2 in subsets:
                    if v1 <= v2 <= rw:
                        assert self.fr.s_holds("w", u, v2)


class TestForces:
    def test_quasi_reflexive_witness(self):
        m = two_world_model()
        assert m.forces("w", parse("p |> p"))

    def test_vacuous_rhd(self):
        m = two_world_model()
        assert m.forces("w", parse("~p |> q"))

    def test_box_equals_expansion(self):
        m = two_world_model()
        assert m.forces("w", parse("[]p"))
        assert m.forces("w", parse("~p |> bot"))

    def test_absent_variable_false_everywhere(self):
        m = two_world_model()
        assert not m.forces("w", parse("zz"))
        assert m.forces("w", parse("[]~zz"))

    def test_dia(self):
        m = two_world_model()
        assert m.forces("w", parse("<>p"))
        assert not m.forces("u", parse("<>p"))

    def test_rhd_needs_generator_inside_truth_set(self):
        # u S_w gens are {{u},{v}}; only {v} sits inside [q]
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        m = GenModel(fr, {"p": ["u"], "q": ["v"]})
        assert m.forces("w", parse("p |> q"))
        m2 = GenModel(fr, {"p": ["u"], "q": []})
        assert not m2.forces("w", parse("p |> q"))


def _random_model(rng: random.Random, max_worlds=4):
    n = rng.randrange(1, max_worlds + 1)
    worlds = [f"w{i}" for i in range(n)]
    pairs = _random_r(rng, worlds)
    succ = {w: sorted(v for (a, v) in pairs if a == w) for w in worlds}
    fams = {}
    for w in worlds:
        for u in succ[w]:
            if rng.random() < 0.4 and succ[w]:
                size = rng.randrange(1, len(succ[w]) + 1)
                fams.setdefault(w, {}).setdefault(u, []).append(
                    rng.sample(succ[w], size))
    fr = close_s(GenFrame(worlds, pairs, fams))
    val = {v: [w for w in worlds if rng.random() < 0.5] for v in ("p", "q")}
    return GenModel(fr, val)


def _random_formula(rng: random.Random, depth: int):
    from veltman.formula import BOT, TOP, And, Box, Dia, Impl, Neg, Or, Rhd
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Var("p"), Var("q"), BOT, TOP])
    k = rng.randrange(7)
    if k == 0:
        return Neg(_random_formula(rng, depth - 1))
    if k == 1:
        return Box(_random_formula(rng, depth - 1))
    if k == 2:
        return Dia(_random_formula(rng, depth - 1))
    ctor = (And, Or, Impl, Rhd)[k - 3]
    return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_box_dia_abbreviations_semantically_faithful():
    rng = random.Random(2718)
    for _ in range(300):
        m = _random_model(rng)
        f = _random_formula(rng, 3)
        boxed, diad = Box(f), __import__("veltman.formula", fromlist=["Dia"]).Dia(f)
        for w in m.worlds:
            assert m.forces(w, boxed) == m.forces(w, normalize(boxed))
            assert m.forces(w, diad) == m.forces(w, normalize(diad))


def test_forces_agrees_with_normalized_formula():
    rng = random.Random(3141)
    for _ in range(300):
        m = _random_model(rng)
        f = _random_formula(rng, 4)
        nf = normalize(f)
        for w in m.worlds:
            assert m.forces(w, f) == m.forces(w, nf)


class TestOrdinary:
    def make(self):
        fr = OrdFrame(["w", "u", "v"], [("w", "u"), ("w", "v"), ("u", "v")],
                      {"w": [("u", "u"), ("v", "v"), ("u", "v")],
                       "u": [("v", "v")]})
        return OrdModel(fr, {"p": ["u"], "q": ["v"]})

    def test_legal(self):
        assert validate(self.make()) == []

    def test_missing_reflexivity_detected(self):
        fr = OrdFrame(["w", "u"], [("w", "u")], {})
        assert any(v.clause == "b" for v in validate(fr))

    def test_forcing(self):
        m = self.make()
        assert m.forces("w", parse("p |> q"))
        assert not m.forces("w", parse("q |> p & ~p"))

    def test_embedding_generators(self):
        m = self.make()
        g = gen_of_ordinary(m)
        assert isinstance(g, GenModel)
        assert g.frame.gens("w", "u") == (frozenset({"u"}), frozenset({"v"}))
        assert validate(g) == []


def _random_ord_model(rng: random.Random, max_worlds=4):
    n = rng.randrange(1, max_worlds + 1)
    worlds = [f"w{i}" for i in range(n)]
    pairs = _random_r(rng, worlds)
    succ = {w: sorted(v for (a, v) in pairs if a == w) for w in worlds}
    s = {}
    for w in worlds:
        rel = {(u, u) for u in succ[w]}
        rel |= {(u, v) for u in succ[w] for v in succ[w]
                if (u, v) in pairs}
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
    val = {v: [w for w in worlds if rng.random() < 0.5] for v in ("p", "q")}
    return OrdModel(fr, val)


def _rhd_tables_agree(om, gm):
    """The embedding's |>-clause agrees with the reference ordinary forcing
    on every pair of world subsets used as [A], [B]."""
    worlds = sorted(om.worlds)
    subsets = [frozenset(c) for k in range(len(worlds) + 1)
               for c in itertools.combinations(worlds, k)]
    a, b = Var("p"), Var("q")
    from veltman.formula import Rhd
    probe = Rhd(a, b)
    for ta in subsets:
        for tb in subsets:
            val = {"p": sorted(ta), "q": sorted(tb)}
            if (ord_truth_set(OrdModel(om.frame, val), probe)
                    != GenModel(gm.frame, val).truth_set(probe)):
                return False
    return True


def test_embedding_preserves_forcing():
    rng = random.Random(1618)
    for _ in range(60):
        om = _random_ord_model(rng)
        assert validate(om) == [], "random ordinary model must be legal"
        gm = gen_of_ordinary(om)
        assert validate(gm) == []
        assert _rhd_tables_agree(om, gm)
        for _ in range(20):
            f = _random_formula(rng, 3)
            assert ord_truth_set(om, f) == gm.truth_set(f)


def test_forcing_matches_reference_oracles():
    """The one evaluator, on generalized models and through the embedding on
    ordinary ones, against the connective-by-connective reference forcing."""
    rng = random.Random(2718)
    for _ in range(60):
        gm = random_gen_model(rng, max_worlds=5)
        om = random_ord_model(rng, max_worlds=4, variables=("p", "q", "r"))
        for _ in range(30):
            f = random_formula(rng, 4, ("p", "q", "r"))
            assert gm.truth_set(f) == gen_truth_set(gm, f), str(f)
            assert om.truth_set(f) == ord_truth_set(om, f), str(f)


def test_truth_sets_past_64_worlds():
    """Truth masks are Python ints, so a model of eight copies of a 9-world
    model (72 worlds) reads the same as the reference forcing."""
    rng = random.Random(64)
    for _ in range(4):
        fr = random_gen_frame(rng, 9)
        m = GenModel(fr, {v: [w for w in fr.worlds if rng.random() < 0.5]
                          for v in ("p", "q", "r")})
        for suffix in ("_a", "_b", "_c"):
            m = duplicated_model(m, suffix)
        assert len(m.worlds) == 72
        for _ in range(25):
            f = random_formula(rng, 4, ("p", "q", "r"))
            truth = gen_truth_set(m, f)
            assert m.truth_set(f) == truth, str(f)
            assert [m.forces(w, f) for w in m.worlds] == [w in truth for w in m.worlds]


def test_seeded_models_do_not_depend_on_the_hash_seed():
    """The random models drawn from one seed are the same in every process."""
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    script = ("import hashlib, json, random\n"
              "from reference import random_gen_model\n"
              "rng = random.Random(7)\n"
              "docs = [random_gen_model(rng).to_json() for _ in range(50)]\n"
              "print(hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest())\n")
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(tests), str(src)]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout)
    assert len(digests) == 1


class TestJson:
    def test_gen_roundtrip(self):
        m = two_world_model()
        doc = model_to_json(m)
        again = model_from_json(doc)
        assert isinstance(again, GenModel)
        assert again.frame == m.frame and again.valuation == m.valuation

    def test_ord_roundtrip(self):
        fr = OrdFrame(["w", "u"], [("w", "u")], {"w": [("u", "u")]})
        m = OrdModel(fr, {"p": ["u"]})
        again = model_from_json(model_to_json(m))
        assert isinstance(again, OrdModel)
        assert again.frame == m.frame and again.valuation == m.valuation

    def test_deterministic_serialization(self):
        m1 = GenModel(GenFrame(["b", "a"], [("a", "b")], {"a": {"b": [["b"]]}}),
                      {"q": ["b"], "p": []})
        m2 = GenModel(GenFrame(["a", "b"], [("a", "b")], {"a": {"b": [["b"]]}}),
                      {"p": [], "q": ["b"]})
        assert model_to_json(m1) == model_to_json(m2)

    def test_bad_kind_rejected(self):
        with pytest.raises(FrameError):
            model_from_json({"kind": "weird", "worlds": ["w"], "R": [], "S": {}})

    def test_missing_field_rejected(self):
        with pytest.raises(FrameError):
            model_from_json({"kind": "gen", "worlds": ["w"]})
