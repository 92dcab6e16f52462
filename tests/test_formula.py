"""Syntax layer: parsing, printing, normalization, closure operators."""

import copy
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from reference import adequate_closure, negation_closure, random_formula, random_gen_frame

from veltman import formula
from veltman.formula import (
    BOT,
    TOP,
    Algebra,
    And,
    Bot,
    Box,
    Dag,
    Dia,
    Formula,
    Impl,
    Neg,
    Or,
    MAX_DEPTH,
    ParseError,
    Rhd,
    Top,
    Var,
    adequate_set,
    d_closure,
    evaluate,
    fold,
    is_adequate,
    normalize,
    parse,
    pretty,
    semantics,
    single_negation,
    subformulas,
    variables,
)
from veltman.model import GenFrame, GenModel

p, q, r = Var("p"), Var("q"), Var("r")
# the variables of the random formulas here
VARS = ("p", "q", "r", "s")


class TestParse:
    def test_precedence_rhd_under_impl(self):
        assert parse("p |> q -> [](p |> q)") == Impl(Rhd(p, q), Box(Rhd(p, q)))

    def test_and_binds_tighter_than_rhd(self):
        assert parse("p & q |> r") == Rhd(And(p, q), r)

    def test_incomplete_rhd_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse("p |>")

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match=r"at position"):
            parse("p |> )")

    def test_impl_right_assoc(self):
        assert parse("p -> q -> r") == Impl(p, Impl(q, r))

    def test_rhd_left_assoc(self):
        assert parse("p |> q |> r") == Rhd(Rhd(p, q), r)

    def test_or_under_rhd(self):
        assert parse("p | q |> r") == Rhd(Or(p, q), r)

    def test_unary_stack(self):
        assert parse("~[]<>p") == Neg(Box(Dia(p)))

    def test_reserved_constants(self):
        assert parse("bot") is BOT or parse("bot") == Bot()
        assert parse("top") == Top()

    def test_parens_override(self):
        assert parse("p |> (q -> r)") == Rhd(p, Impl(q, r))

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_identifier_shape(self):
        assert parse("x_12aB") == Var("x_12aB")
        with pytest.raises(ParseError):
            parse("P")  # identifiers start lowercase


class TestNestingBound:
    # each shape exactly at the bound: MAX_DEPTH nodes on the longest path,
    # or MAX_DEPTH open parentheses
    AT_BOUND = {
        "negations": "~" * (MAX_DEPTH - 1) + "p",
        "boxes": "[]" * (MAX_DEPTH - 2) + "(p & q)",
        "conjunction chain": " & ".join(["p"] * MAX_DEPTH),
        "implication chain": " -> ".join(["p"] * MAX_DEPTH),
        "parentheses": "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
    }
    PAST_BOUND = {
        "negations": "~" + AT_BOUND["negations"],
        "boxes": "[]" + AT_BOUND["boxes"],
        "conjunction chain": AT_BOUND["conjunction chain"] + " & p",
        "implication chain": "p -> " + AT_BOUND["implication chain"],
        "parentheses": "(" + AT_BOUND["parentheses"] + ")",
    }

    @pytest.mark.parametrize("kind", sorted(AT_BOUND))
    def test_at_bound_round_trips(self, kind):
        f = parse(self.AT_BOUND[kind])
        assert parse(pretty(f)) == f
        # normalizing may pass the bound ([]A grows by two levels); the
        # walkers still handle the result
        n = normalize(f)
        assert normalize(n) == n and pretty(n)

    @pytest.mark.parametrize("kind", sorted(PAST_BOUND))
    def test_past_bound_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match=rf"exceeds {MAX_DEPTH} \(at position \d+\)"):
            parse(self.PAST_BOUND[kind])


class TestPretty:
    def test_simple(self):
        assert pretty(Rhd(p, q)) == "p |> q"
        assert pretty(Neg(BOT)) == "~bot"

    def test_parse_example_inverse(self):
        assert pretty(Impl(Rhd(p, q), Box(Rhd(p, q)))) == "p |> q -> [](p |> q)"

    def test_left_nested_rhd_needs_no_parens(self):
        f = Rhd(Rhd(p, q), r)
        assert pretty(f) == "p |> q |> r"
        assert parse(pretty(f)) == f

    def test_right_nested_rhd_parenthesized(self):
        f = Rhd(p, Rhd(q, r))
        assert parse(pretty(f)) == f
        assert "(" in pretty(f)


def test_parse_pretty_roundtrip_1000():
    rng = random.Random(20240901)
    for _ in range(1000):
        f = random_formula(rng, 6, VARS, stop=0.2)
        assert parse(pretty(f)) == f


def test_shared_memo_gives_the_plain_results_on_500_formulas():
    """One normalize memo and one pretty memo, each shared across 500
    formulas, give what the memo-free calls give."""
    rng = random.Random(12)
    normal, texts = {}, {}
    for _ in range(500):
        f = random_formula(rng, rng.randrange(1, 6), ("p", "q", "r"))
        assert normalize(f, normal) == normalize(f)
        text = pretty(f, texts)
        assert text == pretty(f)
        assert parse(text) == f


class TestParseMemo:
    def test_a_text_that_is_one_kept_group_is_answered_without_parsing(self, monkeypatch):
        """A text that is exactly a group kept in the memo is answered from
        it, as the plain parse answers it; a text that only begins with
        one is parsed."""
        rng = random.Random(2602)
        built = []

        class Counting(formula._Parser):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(formula, "_Parser", Counting)
        for _ in range(300):
            group = f"({pretty(random_formula(rng, rng.randrange(0, 4), VARS))})"
            memo = {}
            parse(f"p -> {group}", memo)
            built.clear()
            assert parse(group, memo) is parse(group)
            assert len(built) == 1  # the plain parse only
            longer = f"{group} & q"
            assert parse(longer, memo) is parse(longer)
            assert len(built) == 3


class TestInterning:
    """Every node is built through one table: equal formulas are one object."""

    def test_parse_of_pretty_and_rebuild_return_the_same_object_on_500_formulas(self):
        rng = random.Random(2106)
        for _ in range(500):
            f = random_formula(rng, rng.randrange(0, 6), VARS, stop=0.2)
            assert parse(pretty(f)) is f
            assert f.rebuild(list(f.children)) is f

    def test_two_independent_builds_are_one_object(self):
        for seed in range(200):
            f = random_formula(random.Random(seed), 5, VARS, stop=0.2)
            g = random_formula(random.Random(seed), 5, VARS, stop=0.2)
            assert f is g
            assert all(a is b for a, b in zip(subformula_list(f), subformula_list(g)))
        assert Var("".join(["p"])) is p and Bot() is BOT and Top() is TOP

    def test_pickle_and_copies_return_the_interned_object(self):
        rng = random.Random(2107)
        for _ in range(100):
            f = random_formula(rng, 5, VARS, stop=0.2)
            assert pickle.loads(pickle.dumps(f)) is f
            assert copy.deepcopy(f) is f
            assert copy.copy(f) is f

    def test_dag_equality_is_the_set_equality(self):
        d = d_closure([parse("p |> []q"), parse("<>(q & r)")])
        g = adequate_set(d)
        again = adequate_set(list(d)[::-1])
        assert g == again == frozenset(g.members) and hash(g) == hash(again)
        loaded = pickle.loads(pickle.dumps(g))
        assert type(loaded) is Dag and loaded == g
        assert all(a is b for a, b in zip(loaded.members, g.members))
        assert loaded.kids == g.kids
        assert g != adequate_set(d | {parse("s")})

    @pytest.mark.parametrize("build, positional", [
        (lambda: Var(name="p"), lambda: Var("p")),
        (lambda: Neg(arg=p), lambda: Neg(p)),
        (lambda: Box(arg=p), lambda: Box(p)),
        (lambda: Rhd(left=p, right=q), lambda: Rhd(p, q)),
        (lambda: And(p, right=q), lambda: And(p, q)),
    ], ids=["var", "neg", "box", "rhd", "and"])
    def test_keyword_construction_interns_or_raises(self, build, positional):
        """A keyword build never gives a second object equal to an interned one."""
        try:
            g = build()
        except TypeError:
            return
        assert g is positional()

    def test_table_stays_bounded_over_100000_throwaway_formulas(self):
        """Nodes that only the table holds are dropped, a parent before the
        children it held; a formula held by a caller keeps its identity."""
        text = "[](p -> q) |> <>(r & ~s)"
        held = parse(text)
        formula._sweep()  # what earlier tests still hold moves out of the young table
        old = len(formula._old)
        for i in range(100_000):
            Impl(Var(f"tmp{i}"), Neg(Var(f"tmp{i + 1}")))
        assert len(formula._young) <= formula._YOUNG_SIZE
        formula._sweep()
        assert len(formula._old) < formula._old_at
        # of 300,000 nodes, only those under construction at a sweep are kept
        assert len(formula._old) - old < 1000
        chain = Var("deep")
        for _ in range(50):
            chain = And(Neg(chain), chain)
        del chain
        formula._sweep()
        assert (Var, "deep") not in formula._old
        assert held is parse(text)
        assert all(a is b for a, b in zip(subformula_list(held), subformula_list(parse(text))))

    def test_old_generation_sweep_drops_unheld_nodes_and_keeps_held_ones(self, monkeypatch):
        """Once the old table reaches ``_old_at`` a sweep collects it too: a
        node moved there while held and released since is dropped, with the
        children only it held, and a held node keeps its identity."""
        held = [Impl(Var(f"kept{i}"), Neg(Var(f"kept{i}x"))) for i in range(50)]
        gone = [Impl(Var(f"gone{i}"), Neg(Var(f"gone{i}x"))) for i in range(50)]
        monkeypatch.setattr(formula, "_old_at", 1 << 62)
        formula._sweep()  # both move to the old table, which is not swept
        assert (Var, "gone0") in formula._old and (Var, "kept0") in formula._old
        del gone
        formula._old_at = 0
        formula._sweep()
        assert formula._old_at == max(formula._MIN_OLD, 2 * len(formula._old))
        for i in range(50):
            assert (Var, f"gone{i}") not in formula._old and (Var, f"gone{i}x") not in formula._old
            assert Impl(Var(f"kept{i}"), Neg(Var(f"kept{i}x"))) is held[i]


def subformula_list(f):
    """The nodes of ``f``, root first, with repeats."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        out.append(g)
        todo.extend(g.children)
    return out


class TestNormalize:
    def test_box(self):
        assert normalize(Box(p)) == Rhd(Neg(p), BOT)

    def test_dia_simplified(self):
        assert normalize(Dia(p)) == Neg(Rhd(p, BOT))

    def test_sugar_free_fixpoint(self):
        assert normalize(p) == p
        f = Impl(Rhd(p, q), Neg(r))
        assert normalize(f) == f

    def test_bottom_up(self):
        assert normalize(Box(Box(p))) == Rhd(Neg(Rhd(Neg(p), BOT)), BOT)

    def test_idempotent_random(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_formula(rng, 6, VARS, stop=0.2)
            n = normalize(f)
            assert normalize(n) == n


class TestSubformulas:
    def test_rhd(self):
        assert subformulas(Rhd(p, q)) == frozenset({Rhd(p, q), p, q})

    def test_var(self):
        assert subformulas(p) == frozenset({p})

    def test_sugar_not_expanded(self):
        assert subformulas(Box(Neg(p))) == frozenset({Box(Neg(p)), Neg(p), p})


class TestSingleNegation:
    def test_strips_one(self):
        assert single_negation(Neg(p)) == p
        assert single_negation(Neg(Neg(p))) == Neg(p)

    def test_wraps_otherwise(self):
        assert single_negation(p) == Neg(p)
        assert single_negation(Rhd(p, q)) == Neg(Rhd(p, q))


class TestDClosure:
    def test_empty_seed(self):
        assert d_closure([]) == frozenset({TOP, Neg(TOP)})

    def test_single_var(self):
        assert d_closure([p]) == frozenset({TOP, Neg(TOP), p, Neg(p)})

    def test_negated_var(self):
        assert d_closure([Neg(p)]) == frozenset({TOP, Neg(TOP), Neg(p), p})

    def test_idempotent(self):
        d = d_closure([parse("p |> q & r")])
        assert d_closure(d) == d

    def test_matches_the_reference_closure_on_3000_seed_sets(self):
        rng = random.Random(2601)
        for _ in range(3000):
            seeds = [random_formula(rng, rng.randrange(0, 4), VARS, stop=0.3)
                     for _ in range(rng.randrange(0, 4))]
            assert d_closure(iter(seeds)) == negation_closure(seeds), [str(f) for f in seeds]


@pytest.fixture(scope="module")
def seed_sets():
    """300 seed sets, each with its reference closure: every 50th a nested
    chain []p_k |> ... ([]p1 |> p0), k = 1..6, every other one closed
    under d_closure first.  Module-scoped, so its formulas are released
    when this module's tests end, not kept for the rest of the test run."""
    rng = random.Random(3)
    out = []
    for i in range(300):
        if i % 50 == 49:
            chain = Var("p0")
            for j in range(1, i // 50 + 2):
                chain = Rhd(Box(Var(f"p{j}")), chain)
            seeds = [chain]
        else:
            seeds = [random_formula(rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))]
        seeds = d_closure(seeds) if i % 2 else seeds
        out.append((seeds, adequate_closure(seeds)))
    return out


class TestAdequateSet:
    def test_bot_rhd_bot_always_present(self):
        g = adequate_set(d_closure([]))
        assert Rhd(BOT, BOT) in g

    def test_box_neg_members(self):
        g = adequate_set(d_closure([p]))
        assert Box(Neg(p)) in g
        assert Box(Neg(Neg(p))) in g

    def test_pool_pairing_through_box(self):
        # []~p normalizes to ~~p |> bot, so ~~p joins the component pool
        # and condition 4 pairs it with itself
        g = adequate_set(d_closure([p]))
        assert Rhd(Neg(Neg(p)), Neg(Neg(p))) in g

    def test_contains_d(self):
        d = d_closure([parse("p |> q")])
        assert d <= adequate_set(d)

    def test_is_adequate_accepts_output(self):
        d = d_closure([p])
        assert is_adequate(adequate_set(d), d)

    def test_is_adequate_rejects_after_removal(self):
        d = d_closure([p])
        g = adequate_set(d)
        # every mandated element's removal must be detected
        broken = 0
        for f in g:
            if not is_adequate(g - {f}, d):
                broken += 1
        assert broken == len(g)

    def test_is_adequate_needs_bot_rhd_bot(self):
        """{p, ~p} is closed under subformulas and single negation and has no
        |>-member and nothing to box: only bot |> bot is missing."""
        gamma = frozenset({p, Neg(p)})
        assert not is_adequate(gamma, ())
        assert is_adequate(gamma | adequate_set(()), ())

    def test_is_adequate_needs_every_pool_pairing(self):
        """Without q |> p and its negation every other condition holds, but
        q and p are both components of p |> q."""
        d = d_closure([Rhd(p, q)])
        g = adequate_set(d)
        assert Rhd(q, p) in g - d
        assert not is_adequate(g - {Rhd(q, p), Neg(Rhd(q, p))}, d)

    def test_matches_the_reference_closure_on_300_seed_sets(self, seed_sets):
        for seeds, closure in seed_sets:
            assert adequate_set(seeds) == closure, [str(f) for f in seeds]

    def test_expands_each_distinct_node_once(self, monkeypatch):
        """No node is normalized twice, and only members are: the worklist
        normalizes [] and |> members that are not already pairs of
        components, and their subformulas."""
        visits = Counter()
        expand = formula._expand

        def counting(g, v):
            visits[g] += 1
            return expand(g, v)

        monkeypatch.setattr(formula, "_expand", counting)
        chain = Var("p0")
        for j in range(1, 5):
            chain = Rhd(Box(Var(f"p{j}")), chain)
        g = adequate_set(d_closure([chain, parse("<>(p & q) -> []~r")]))
        assert visits.keys() <= g
        assert max(visits.values()) == 1

    def test_members_list_the_reference_closure_children_first(self, seed_sets):
        """On the seed sets checked against the reference closure: ``members``
        lists the set without repeats, and ``kids[i]`` are the positions of
        ``members[i].children``, each lower than i."""
        for seeds, closure in seed_sets:
            g = adequate_set(seeds)
            assert len(g.members) == len(g.kids) == len(set(g.members))
            assert set(g.members) == closure
            position = {f: i for i, f in enumerate(g.members)}
            for i, (f, k) in enumerate(zip(g.members, g.kids)):
                assert all(j < i for j in k), str(f)
                assert k == tuple(position[c] for c in f.children), str(f)

    def test_pairing_path_matches_the_reference_on_pools_of_20_or_more(self):
        """Where the pool reaches 20 or more components, pairings and their
        negations are most of the set, and none goes through the worklist:
        the set is still the reference closure, listed children first."""
        rng = random.Random(2301)
        checked = 0
        while checked < 12:
            seeds = [random_formula(rng, 3, VARS, stop=0.1) for _ in range(6)]
            g = adequate_set(seeds)
            if len(formula._pool(g)) < 20:
                continue
            checked += 1
            assert g == adequate_closure(seeds), [str(f) for f in seeds]
            assert len(g.members) == len(g)
            position = {f: i for i, f in enumerate(g.members)}
            assert all(k == tuple(position[c] for c in f.children) and all(j < i for j in k)
                       for i, (f, k) in enumerate(zip(g.members, g.kids)))

    def test_fixpoint_for_fixed_d(self):
        # closure is relative to d: the output satisfies all five
        # conditions (nothing left to add for this d) and is deterministic
        d = d_closure([p])
        g = adequate_set(d)
        assert is_adequate(g, d)
        assert adequate_set(d) == g


class TestDagValues:
    """``Dag.values`` is :func:`fold` over every member, in ``members`` order."""

    def test_values_equal_fold_with_and_without_a_shared_memo(self, seed_sets):
        """Each value is a truth mask on a random frame paired with the
        member's text, so a child read from the wrong position shows."""
        rng = random.Random(2302)
        for seeds, _ in seed_sets:
            gamma = adequate_set(seeds)
            fr = random_gen_frame(rng, rng.randrange(1, 5))
            val = {v: fr.mask(w for w in fr.worlds if rng.random() < 0.5)
                   for v in sorted(f.name for f in gamma if type(f) is Var)}
            step = semantics(Algebra(fr.mask(fr.worlds), val.__getitem__, fr.box, fr.rhd))

            def visit(g, v):
                return (step(g, tuple(x for x, _ in v)),
                        formula._show(g, tuple(t for _, t in v)))

            folded: dict = {}  # the values of fold(f, visit, {}), shared across members
            want = [fold(f, visit, folded) for f in gamma.members]
            assert gamma.values(visit) == want == [fold(f, visit) for f in gamma.members]
            assert folded.keys() == set(gamma)


def test_evaluate_refuses_a_node_of_no_connective():
    """The base class is no connective: ``semantics`` names it rather than
    giving it a value."""
    algebra = Algebra(1, lambda name: 0, lambda x: x, lambda x, y: x)
    with pytest.raises(TypeError, match="^not a formula: <veltman.formula.Formula object"):
        evaluate(Formula(), algebra)


def test_fold_without_memo_visits_each_distinct_node_once():
    """g = []p rebuilt twenty times as g & (g | q) is a tree of 5 * 2^20 - 3
    nodes over 43 distinct ones: each is visited once, as with a memo."""
    g = Box(p)
    for _ in range(20):
        g = And(g, Or(g, q))
    visits = Counter()

    def visit(f, v):
        visits[f] += 1
        return 1 + sum(v)

    plain, memoized, distinct = fold(g, visit), fold(g, visit, {}), len(subformulas(g))
    assert plain == memoized == 5 * 2 ** 20 - 3
    assert len(visits) == distinct == 43 and set(visits.values()) == {2}


def test_600_nested_boxes_are_walked_with_and_without_a_memo():
    """Built by constructors, past the parser's bound: a memo-keeping fold
    recurses once per level, and a chain of 600 stays under the default
    recursion limit of 1,000, as the memo-less walks do."""
    g = p
    for _ in range(600):
        g = Box(g)
    model = GenModel(GenFrame(["w", "u"], [("w", "u")], {}), {"p": ["u"]})
    assert len(subformulas(g)) == 601
    assert model.truth_set(g) == {"w", "u"}
    assert normalize(g) is Rhd(Neg(normalize(g.arg)), BOT)
    assert pretty(g) == "[]" * 600 + "p"


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_normalize_has_no_sugar(seed):
    f = random_formula(random.Random(seed), 5, VARS, stop=0.2)
    n = normalize(f)
    assert not any(isinstance(s, (Box, Dia)) for s in subformulas(n))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_variables_match_pretty(seed):
    f = random_formula(random.Random(seed), 5, VARS, stop=0.2)
    for v in variables(f):
        assert v in pretty(f)
