"""Filtration through an adequate set and its verification."""

import dataclasses
import gc
import itertools
import pickle
import random
import time
import tracemalloc
import weakref

import pytest
from reference import (_corrupted, _first_disagreement, copied_model, duplicated_model,
                       filtration_r_by_scan, filtration_s_by_scan, flat_model, gen_truth_set,
                       random_formula, random_gen_model)

from veltman.bisim import largest_autobisimulation
from veltman.decide import _il_frames
from veltman.filtration import box_like, filtrate, verify_filtration
from veltman.formula import (
    BOT,
    Box,
    Neg,
    Rhd,
    Var,
    adequate_set,
    d_closure,
    normalize,
    parse,
    subformulas,
    variables,
)
from veltman.model import GenFrame, GenModel, close_s, validate


def chain2():
    fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
    return GenModel(fr, {"p": ["u"]})


class TestBoxLike:
    def test_box_node(self):
        assert box_like(Box(Var("p")))

    def test_expanded_form(self):
        assert box_like(parse("~p |> bot"))

    def test_plain_rhd_is_not(self):
        assert not box_like(parse("p |> bot"))
        assert not box_like(parse("p |> q"))

    def test_var_is_not(self):
        assert not box_like(Var("p"))

    def test_matches_the_normalized_shape_on_300_random_adequate_sets(self):
        """box_like reads the top two nodes; it agrees with the shape of the
        normalized form on every member of 300 random adequate sets."""
        rng = random.Random(1)
        for _ in range(300):
            seeds = [random_formula(rng, 2, ("p", "q")) for _ in range(2)]
            for f in adequate_set(d_closure(seeds)):
                g = normalize(f)
                shape = isinstance(g, Rhd) and isinstance(g.left, Neg) and g.right == BOT
                assert box_like(f) == shape, str(f)


class TestFiltrateSmall:
    def test_single_world(self):
        m = GenModel(GenFrame(["w"], [], {}), {"p": ["w"]})
        res = filtrate(m, d_closure([Var("p")]))
        assert len(res.quotient.worlds) == 1
        assert res.quotient.frame.pairs == frozenset()
        assert res.violations == ()
        assert verify_filtration(m, res) is None

    def test_two_chain_r_edge_survives(self):
        m = chain2()
        d = d_closure([Var("p")])
        res = filtrate(m, d)
        assert len(res.quotient.worlds) == 2
        cw = res.partition.class_of["w"]
        cu = res.partition.class_of["u"]
        assert (cw, cu) in res.quotient.frame.pairs
        # clause (1) witness evaluated directly: some box-like A in gamma
        # with w not forcing it and u forcing it
        witnesses = [g for g in res.gamma if box_like(g)
                     and not m.forces("w", g) and m.forces("u", g)]
        assert witnesses, "the R-edge needs a box-like witness"
        assert Box(Neg(Var("p"))) in witnesses

    def test_two_chain_truth_preservation(self):
        m = chain2()
        d = d_closure([Var("p")])
        res = filtrate(m, d)
        assert verify_filtration(m, res) is None
        for f in res.gamma:
            for w in m.worlds:
                assert m.forces(w, f) == res.quotient.forces(
                    res.partition.class_of[w], f), str(f)

    def test_collapses_duplicate_copies(self):
        fr = close_s(GenFrame(
            ["w1", "u1", "w2", "u2"],
            [("w1", "u1"), ("w2", "u2")], {}))
        m = GenModel(fr, {"p": ["u1", "u2"]})
        res = filtrate(m, d_closure([Var("p")]))
        assert len(res.quotient.worlds) == 2
        assert res.violations == ()
        assert verify_filtration(m, res) is None
        # a model and its disjoint union with a copy have the same quotient
        rng = random.Random(31)
        for _ in range(100):
            m = random_gen_model(rng, variables=("p", "q"), worlds=rng.randrange(2, 6))
            d = d_closure([parse(s) for s in rng.sample(SEED_POOL, rng.randrange(1, 4))])
            assert (filtrate(duplicated_model(m), d).quotient.to_json()
                    == filtrate(m, d).quotient.to_json()), m.to_json()

    def test_valuation_restricted_to_gamma_variables(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        m = GenModel(fr, {"p": ["u"], "zebra": ["w", "u"]})
        res = filtrate(m, d_closure([Var("p")]))
        assert "zebra" not in res.quotient.valuation
        cu = res.partition.class_of["u"]
        assert res.quotient.forces(cu, Var("p"))
        assert not res.quotient.forces(cu, Var("zebra"))

    def test_gamma_is_adequate_for_d(self):
        d = d_closure([parse("p |> q")])
        res = filtrate(chain2(), d)
        assert res.gamma == adequate_set(d)

    def test_origin_points_back(self):
        m = chain2()
        res = filtrate(m, d_closure([Var("p")]))
        assert res.origin is m


def test_corrupted_quotient_detected():
    m = chain2()
    res = filtrate(m, d_closure([Var("p")]))
    bad_frame = GenFrame(res.quotient.frame.worlds, [], {})
    bad = dataclasses.replace(
        res, quotient=GenModel(bad_frame, res.quotient.valuation))
    hit = verify_filtration(m, bad)
    assert hit is not None
    world, formula = hit
    assert world in m.worlds
    assert formula in res.gamma


def test_first_disagreement_matches_the_reference_on_300_corrupted_quotients():
    """The formula and world verify_filtration reports are the first in
    ``str`` order and world order, on models up to 128 worlds wide."""
    rng = random.Random(12)
    found = 0
    for trial in range(300):
        m = random_gen_model(rng)
        if trial % 4 == 0:
            while len(m.worlds) <= 64:
                m = duplicated_model(m, f"_{len(m.worlds)}")
        res = filtrate(m, d_closure([parse(s) for s in rng.sample(SEED_POOL, rng.randrange(1, 3))]))
        bad = dataclasses.replace(res, quotient=_corrupted(rng, res.quotient, trial % 3))
        got = verify_filtration(m, bad)
        assert got == _first_disagreement(m, bad), (trial, m.to_json())
        found += got is not None
    assert found > 200


SEED_POOL = ["p", "q", "p & q", "p |> q", "[]p", "<>q", "~p", "p -> q",
             "q |> p", "p | q", "[]~p", "p |> p"]


def test_verify_filtration_on_200_random_pairs():
    rng = random.Random(2024)
    for trial in range(200):
        m = random_gen_model(rng, variables=("p", "q"), worlds=rng.randrange(2, 6))
        seeds = [parse(s) for s in
                 rng.sample(SEED_POOL, rng.randrange(1, 5))]
        d = d_closure(seeds)
        res = filtrate(m, d)
        assert res.violations == (), (trial, [str(v) for v in res.violations])
        assert validate(res.quotient) == []
        assert len(res.quotient.worlds) <= len(m.worlds)
        bad = verify_filtration(m, res)
        assert bad is None, (trial, bad[0], str(bad[1]))


def test_quotient_s_matches_the_scan_on_300_random_models():
    rng = random.Random(31)
    for trial in range(300):
        m = random_gen_model(rng)
        if trial % 3 == 0:
            m = duplicated_model(m)
        d = d_closure([parse(s) for s in rng.sample(SEED_POOL, rng.randrange(1, 4))])
        res = filtrate(m, d)
        q = res.quotient
        s = filtration_s_by_scan(m, res.partition.class_of, q.frame.pairs)
        want = GenModel(GenFrame(q.worlds, q.frame.pairs, s), q.valuation)
        assert q.to_json() == want.to_json(), (trial, m.to_json())


@pytest.mark.parametrize("seed", ["p |> q", "[]p -> <>q"])
def test_quotient_matches_the_scans_on_every_frame_up_to_3_worlds(seed):
    """Exhaustive small scope: every frame of ``_il_frames(n)``, n <= 3,
    isomorphs included, under each of its 4^n valuations of p and q (612
    models): R~ and S~ are the scanned clauses, and the quotient agrees
    with the model on the adequate set."""
    d = d_closure([parse(seed)])
    models = 0
    for n in range(1, 4):
        for fr in _il_frames(n):
            for p, q in itertools.product(range(1 << n), repeat=2):
                m = GenModel(fr, {v: [w for i, w in enumerate(fr.worlds) if x >> i & 1]
                                  for v, x in (("p", p), ("q", q))})
                res = filtrate(m, d)
                qm, class_of = res.quotient, res.partition.class_of
                assert qm.frame.pairs == filtration_r_by_scan(m, class_of, res.gamma), m.to_json()
                s = filtration_s_by_scan(m, class_of, qm.frame.pairs)
                want = GenModel(GenFrame(qm.worlds, qm.frame.pairs, s), qm.valuation)
                assert qm.to_json() == want.to_json(), m.to_json()
                assert verify_filtration(m, res) is None, m.to_json()
                models += 1
    assert models == 612


def test_quotient_r_matches_the_scan_on_random_duplicated_and_copied_models():
    """R~ is read at one world per class; it is clause 1 scanned over every
    R pair and every box-like member of the adequate set."""
    rng = random.Random(32)
    for trial in range(150):
        m = random_gen_model(rng, 5, ("p", "q"))
        if trial % 3:
            m = copied_model(m, trial % 3)
        d = d_closure([parse(s) for s in rng.sample(SEED_POOL, rng.randrange(1, 4))])
        res = filtrate(m, d)
        want = filtration_r_by_scan(m, res.partition.class_of, res.gamma)
        assert res.quotient.frame.pairs == want, (trial, m.to_json())


def test_truth_sets_match_the_reference_on_4_and_8_copies():
    """Forcing reads |> through one blocked table per right operand; on a
    random model and on 4 and 8 relabelled copies of it, every member of
    the adequate set has the reference truth set."""
    rng = random.Random(20)
    for trial in range(40):
        base = random_gen_model(rng, 4, ("p", "q"))
        gamma = adequate_set(d_closure([parse(s) for s in rng.sample(SEED_POOL, 2)]))
        for m in (base, copied_model(base, 2), copied_model(base, 3)):
            for f in gamma:
                assert m.truth_set(f) == gen_truth_set(m, f), (trial, str(f), m.to_json())


def two_choice_star():
    """w sees the leaves u1, u2, a (p) and b (q); u1 and u2 are bisimilar,
    and S_w(u1) has the image {a}, S_w(u2) the image {b}: two distinct
    choices for the one pair of classes ([w], [u1])."""
    leaves = ["u1", "u2", "a", "b"]
    fr = close_s(GenFrame(["w", *leaves], [("w", x) for x in leaves],
                          {"w": {"u1": [["a"]], "u2": [["b"]]}}))
    return GenModel(fr, {"p": ["a"], "q": ["b"]})


def test_quotient_s_matches_the_scan_on_4_and_8_copies():
    """S~ is built from the distinct choices per pair of classes; on 4 and
    8 copies each choice repeats, and S~ is still the scan's, also where a
    pair of classes has two distinct choices."""
    rng = random.Random(41)
    for trial in range(60):
        base = two_choice_star() if trial % 4 == 0 else random_gen_model(rng, 5)
        m = copied_model(base, 2 + trial % 2)
        d = d_closure([parse(s) for s in rng.sample(SEED_POOL, rng.randrange(1, 4))])
        res = filtrate(m, d)
        q = res.quotient
        s = filtration_s_by_scan(m, res.partition.class_of, q.frame.pairs)
        want = GenModel(GenFrame(q.worlds, q.frame.pairs, s), q.valuation)
        assert q.to_json() == want.to_json(), (trial, m.to_json())
        assert verify_filtration(m, res) is None


def weaker_twin(x, y):
    """x and y see the leaves u, a (p) and b (q) with S_x(u) = S_y(u)
    generated by {u} and {a}; x also sees u2, a copy of u, with S_x(u2)
    generated by {u2}, {a} and {b}, a family of larger upward closure.  So
    x and y are bisimilar, but x has one more pair into the class of u."""
    leaves = ["u", "u2", "a", "b"]
    fr = close_s(GenFrame([x, y, *leaves],
                          [(x, v) for v in leaves] + [(y, v) for v in ("u", "a", "b")],
                          {x: {"u": [["a"]], "u2": [["a"], ["b"]]}, y: {"u": [["a"]]}}))
    return GenModel(fr, {"p": ["a"], "q": ["b"]})


@pytest.mark.parametrize("x, y", [("w1", "w2"), ("w2", "w1")])
def test_quotient_s_is_the_scan_with_either_twin_as_the_class_id(x, y):
    """S~ is read at the class id, the least member; with the twin that has
    the extra, weaker pair as the id and with the other, it is the scan's."""
    m = weaker_twin(x, y)
    for seeds in (["[]bot"], ["p |> q", "[]~p"], ["q |> p", "<>q"]):
        res = filtrate(m, d_closure([parse(s) for s in seeds]))
        assert res.partition.class_of == {x: "w1", y: "w1", "u": "u", "u2": "u", "a": "a", "b": "b"}
        q = res.quotient
        assert q.frame.successors("w1") == {"u", "a", "b"}
        s = filtration_s_by_scan(m, res.partition.class_of, q.frame.pairs)
        want = GenModel(GenFrame(q.worlds, q.frame.pairs, s), q.valuation)
        assert q.to_json() == want.to_json(), seeds
        assert verify_filtration(m, res) is None


def test_twenty_spoke_star_keeps_singleton_images():
    spokes = [f"u{i:02d}" for i in range(20)]
    m = GenModel(close_s(GenFrame(["w", *spokes], [("w", u) for u in spokes], {})),
                 # spoke i is the only world with the valuation i in binary
                 {f"p{j}": [u for i, u in enumerate(spokes) if i >> j & 1] for j in range(5)})
    res = filtrate(m, d_closure([parse("[]bot")]))
    fr = res.quotient.frame
    assert len(fr.worlds) == 21
    assert fr.successors("w") == frozenset(spokes)
    for u in spokes:
        assert fr.gens("w", u) == (frozenset({u}),)
    assert res.violations == ()
    assert verify_filtration(m, res) is None


def test_flat_model_quotient_matches_the_scans_and_the_valuation():
    """On 256 worlds, each its own class, the quotient has the clauses'
    R~ and S~ (both empty) and, for each variable of the adequate set,
    the model's valuation."""
    m = flat_model(8)
    res = filtrate(m, d_closure([parse("p0 & []p3 |> ~p7"), parse("<>p5")]))
    q, class_of = res.quotient, res.partition.class_of
    assert len(q.worlds) == 256
    assert q.frame.pairs == filtration_r_by_scan(m, class_of, res.gamma)
    s = filtration_s_by_scan(m, class_of, q.frame.pairs)
    assert q.to_json() == GenModel(GenFrame(q.worlds, q.frame.pairs, s), q.valuation).to_json()
    assert q.valuation == {p: m.valuation[p] for p in ("p0", "p3", "p5", "p7")}
    assert res.violations == ()
    assert verify_filtration(m, res) is None


def test_filtrate_on_16384_classes_stays_under_a_second_and_a_half():
    """Each world of the 14-variable flat model is its own class; each
    world gets the bit of its class's position in one pass over the
    classes, not by a search of the class list (2.3 s on 16,384 classes)."""
    m = flat_model(14)
    d = d_closure([parse("p0 & p1")])
    started = time.perf_counter()
    res = filtrate(m, d)
    assert time.perf_counter() - started < 1.5
    assert len(res.quotient.worlds) == 16384 and len(res.gamma) == 196
    assert res.violations == ()


def test_filtrate_on_16384_classes_stays_small():
    """The 14-variable flat model, each world its own class: the worlds'
    classes are listed by world index, not keyed by 16,384-bit world masks
    (46 MiB traced when they were)."""
    m = flat_model(14)
    d = d_closure([parse("p0 & p1")])
    tracemalloc.start()
    try:
        res = filtrate(m, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.quotient.worlds) == 16384 and res.violations == ()
    assert peak < 24 * 2 ** 20, peak


def test_refiltration_does_not_grow():
    rng = random.Random(99)
    for _ in range(40):
        m = random_gen_model(rng, variables=("p", "q"), worlds=rng.randrange(2, 6))
        d = d_closure([parse(rng.choice(SEED_POOL))])
        res = filtrate(m, d)
        again = filtrate(res.quotient, d)
        assert len(again.quotient.worlds) <= len(res.quotient.worlds)
        assert again.violations == ()


def test_quotient_worlds_match_partition_classes():
    rng = random.Random(7)
    for _ in range(30):
        m = random_gen_model(rng, variables=("p", "q"), worlds=4)
        res = filtrate(m, d_closure([Var("p")]))
        assert sorted(res.quotient.worlds) == sorted(res.partition.classes)
        merged = sorted(w for ws in res.partition.to_json().values() for w in ws)
        assert merged == sorted(m.worlds)


def test_model_and_quotient_are_freed_without_the_cyclic_collector():
    """Forcing, filtration and its check leave no reference cycle through
    the model or the quotient: with the cyclic collector off, both are
    freed as soon as the last reference goes.  Nor does Γ outlive them in
    the model's memo, which keeps only what forcing put there: the
    subformulas of the forced formula.  The quotient's valuation is read
    off the model's, so Γ's variable r is not forced."""
    m = random_gen_model(random.Random(5), variables=("p", "q"), worlds=5)
    gc.disable()
    try:
        f = parse("[]p |> q")
        m._truth_mask(f)
        res = filtrate(m, d_closure([parse("p |> q"), parse("<>~r")]))
        assert verify_filtration(m, res) is None
        assert m._truth.keys() == subformulas(f)
        refs = [weakref.ref(m), weakref.ref(res.quotient)]
        del m, res
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_result_pickles_with_the_adequate_set_list():
    """A filtration result and its models survive pickling: Γ keeps its
    children-first list, and the copy checks as the original does."""
    m = random_gen_model(random.Random(6), variables=("p", "q"), worlds=4)
    res = filtrate(m, d_closure([parse("p |> q"), parse("[]~p")]))
    copy = pickle.loads(pickle.dumps(res))
    assert copy.gamma == res.gamma
    assert (copy.gamma.members, copy.gamma.kids) == (res.gamma.members, res.gamma.kids)
    assert copy.quotient.to_json() == res.quotient.to_json()
    assert copy.origin.truth_set(parse("p |> ~q")) == m.truth_set(parse("p |> ~q"))
    assert verify_filtration(copy.origin, copy) is None


def test_partition_is_the_largest_autobisimulation():
    m = chain2()
    res = filtrate(m, d_closure([Var("p")]))
    assert res.partition == largest_autobisimulation(m)
