"""Seeded input generators for the three workloads.

Pure Python: nothing here imports veltman, and every expected answer comes
from how an input was built.  The same (workload, seed) always yields the
same inputs; ``digest`` hashes them.

Each workload is a sequence of blocks.  A block holds a fixed plan of input
classes in a seeded order, so every whole block has the same composition
whatever the seed; the seed only chooses variable names, substituted terms,
models and formulas.  The runner measures whole blocks, so each run sees the
same shares of cheap and expensive operations.
"""

import hashlib
import json
import random

import formulas as F
import naive

LETTERS = ("p", "q", "r", "s", "t", "u", "v", "x", "y", "z")

# search: (group, logic, principle, k).  Theorems instantiate one of the
# logic's own schemata with Boolean terms over k variables, so every frame
# is swept; non-theorems are fresh-variable instances of a principle the
# logic lacks, refuted on a frame of at most three worlds.  Shares per
# block: refutable 6/20 = 30%, k <= 3 theorems 50%, k = 4 theorems 20%, so
# p50 falls inside the k <= 3 theorems and p90 inside the k = 4 ones.  The
# plan is in order of cost.  With 20 slots, p50 and p90 sit at the border
# of the 10th and 11th and of the 18th and 19th slot; both borders lie
# inside a run of one class (ILW W at k = 2, ILW J4 at k = 4), so that the
# percentiles are medians of one class rather than points on a slope.
# k stops at 4: one 5-variable query at 4 worlds takes about 28 s and
# 1.6 GB, because frame_validates builds the whole (2^n)^k valuation grid.
SEARCH_PLAN = (
    ("refutable", "IL", "M", None),
    ("refutable", "ILM", "T", None),
    ("refutable", "ILM0", "P", None),
    ("refutable", "ILP0", "W", None),
    ("refutable", "ILW", "J5c", None),
    ("refutable", "ILWstar", "4c", None),
    ("theorem", "IL", "L", 1),
    ("theorem", "ILP", "P", 2),
    ("theorem", "ILW", "W", 2),
    ("theorem", "ILW", "W", 2),
    ("theorem", "ILW", "W", 2),
    ("theorem", "ILW", "W", 2),
    ("theorem", "ILWstar", "M0", 2),
    ("theorem", "ILM", "M", 3),
    ("theorem", "IL", "J2", 3),
    ("theorem", "ILR", "R", 3),
    ("theorem", "ILM", "K", 4),
    ("theorem", "ILW", "J4", 4),
    ("theorem", "ILW", "J4", 4),
    ("theorem", "IL", "J1", 4),
)

# filtrate: ("small", worlds, modal steps, seeds) or ("big", copies, steps,
# seeds).  Seeds are one formula T, built by applying the steps to a
# variable ([], <>, or |> with the variable on the right or left), plus
# ~T or proper subformulas of T, so d_closure(seeds) and with it the
# adequate set depend only on the steps.  Small models have at most 6
# worlds, and adequate_set dominates; big ones are 8, 16 or 32 bisimilar
# copies of an 8-world model, and the pair refinement in
# largest_autobisimulation dominates.  Per block of 25: small 80%, big 20%.
# The plan is in order of cost: p50 lands in the middle of slot 13, inside
# the eight box-then-|> slots, and p90 in the middle of slot 23, inside the
# three 16-copy slots.  Single operations vary by a third from one moment
# to the next on a shared host, so each percentile needs a class of many
# samples.
FILTRATE_PLAN = (
    ("small", 2, "rr rr", 2), ("small", 3, "rl rr", 3), ("small", 3, "rl rl", 2),
    ("small", 2, "rr rl", 2), ("small", 4, "rr box", 3), ("small", 4, "box box", 2),
    ("small", 3, "box box", 3), ("small", 4, "box rr", 2),
    ("small", 5, "box rl", 3), ("small", 5, "box rr", 2), ("small", 6, "box rl", 2),
    ("small", 6, "box rr", 3), ("small", 5, "box rl", 2), ("small", 5, "box rr", 3),
    ("small", 6, "box rl", 3), ("small", 6, "box rr", 2),
    ("small", 4, "dia dia", 2), ("small", 4, "box rl rl", 4), ("small", 5, "box rr box", 4),
    ("small", 6, "box rl rl", 3),
    ("big", 8, "box", 1), ("big", 16, "rr", 2), ("big", 16, "box", 1), ("big", 16, "rr", 2),
    ("big", 32, "box", 1),
)

# cli: one in-process veltman.cli.main call each.  Proofs carry one large
# taut line whose skeleton has the given number of atoms (8 to 16);
# mutated proofs are rejected at a known line.  Per block of 15: model
# files 40%, proofs of 8 to 13 atoms 40%, 16-atom proofs 20%, which puts
# p50 among the smaller proofs and p90 among the 16-atom ones.
CLI_PLAN = (
    ("model-check", "gen", None), ("model-check", "gen", "closure"),
    ("model-check", "ord", None), ("model-check", "ord", "world"),
    ("check-model", "gen", "closure"), ("check-model", "gen", "stripped"),
    ("proof", 8, None), ("proof", 11, None), ("proof", 13, None),
    ("proof", 12, "ax"), ("proof", 10, "taut"), ("proof", 9, "nec"),
    ("proof", 16, None), ("proof", 16, None), ("proof", 16, "mp"),
)

PLANS = {"search": SEARCH_PLAN, "filtrate": FILTRATE_PLAN, "cli": CLI_PLAN}
# Blocks generated per run; when a run uses them up it reloads and repeats.
BLOCKS = {"search": 10, "filtrate": 8, "cli": 14}


def _literal(rng, name):
    v = F.var(name)
    return F.neg(v) if rng.random() < 1 / 3 else v


def _boolean_term(rng, names):
    """The variables joined by seeded &, | or ->; the shape, and with it the
    cost, depends only on the number of variables."""
    term = F.var(names[0])
    for name in names[1:]:
        term = rng.choice((F.conj, F.disj, F.imp))(term, F.var(name))
    return term


def _theorem(rng, principle, k):
    """Instance of a schema whose substituted terms use exactly k variables."""
    schema = F.SCHEMATA[principle]
    slots = F.metas(schema)
    names = rng.sample(LETTERS, k)
    share = {m: [] for m in slots}
    for i, name in enumerate(names):
        share[slots[i % len(slots)]].append(name)
    for m in slots:
        if not share[m]:
            share[m].append(rng.choice(names))
    return F.subst(schema, {m: _boolean_term(rng, share[m]) for m in slots})


def _fresh_instance(rng, principle):
    schema = F.OUTSIDE.get(principle) or F.SCHEMATA[principle]
    slots = F.metas(schema)
    names = rng.sample(LETTERS, len(slots))
    return F.subst(schema, {m: F.var(n) for m, n in zip(slots, names)})


def search_op(rng, entry):
    group, logic, principle, k = entry
    term = _theorem(rng, principle, k) if group == "theorem" else _fresh_instance(rng, principle)
    return {"logic": logic, "formula": F.render(term), "term": term,
            "expect": "none" if group == "theorem" else "refuted",
            "k": len(F.variables(term)), "group": group if k != 4 else "theorem-k4"}


def _strict_order(rng, worlds, density):
    order = list(worlds)
    rng.shuffle(order)
    return _transitive_closure({(a, b) for i, a in enumerate(order) for b in order[i + 1:]
                                if rng.random() < density})


def _transitive_closure(pairs):
    """Close the set of pairs under transitivity, in place; returns it."""
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def gen_model(rng, n, names=("p", "q", "r"), min_edges=0):
    """A legal generalized model on n worlds, closed by naive.close_gen."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = _strict_order(rng, worlds, 0.5)
    while len(pairs) < min_edges:
        pairs = _strict_order(rng, worlds, 0.5)
    succ = {w: sorted(b for a, b in pairs if a == w) for w in worlds}
    gens = {}
    for w, u in sorted(pairs):
        pool = [v for v in succ[w] if v != u]
        if pool and rng.random() < 0.35:
            size = rng.randint(1, min(2, len(pool)))
            gens[(w, u)] = {frozenset(rng.sample(pool, size))}
    fam = naive.close_gen(worlds, pairs, gens)
    s = {}
    for (w, u), gs in sorted(fam.items()):
        s.setdefault(w, {})[u] = [sorted(g) for g in gs]
    return {"kind": "gen", "worlds": worlds, "R": sorted([a, b] for a, b in pairs), "S": s,
            "valuation": {p: sorted(w for w in worlds if rng.random() < 0.5) for p in names}}


def ord_model(rng, n, names=("p", "q", "r")):
    """A legal ordinary model: each S_w reflexive and transitive on R[w] and
    containing R restricted to R[w]."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = set()
    while not pairs:
        pairs = _strict_order(rng, worlds, 0.55)
    s = {}
    for w in worlds:
        ru = sorted(b for a, b in pairs if a == w)
        rel = {(u, u) for u in ru} | {(u, v) for u in ru for v in ru if (u, v) in pairs}
        rel |= {(u, v) for u in ru for v in ru if rng.random() < 0.25}
        _transitive_closure(rel)
        if rel:
            s[w] = sorted([a, b] for a, b in rel)
    return {"kind": "ord", "worlds": worlds, "R": sorted([a, b] for a, b in pairs), "S": s,
            "valuation": {p: sorted(w for w in worlds if rng.random() < 0.5) for p in names}}


def copies_of(doc, copies):
    """Disjoint union of ``copies`` relabelled copies; the copies are bisimilar."""
    def ren(w, c):
        return f"{w}c{c}"
    cs = range(copies)
    return {"kind": "gen",
            "worlds": [ren(w, c) for c in cs for w in doc["worlds"]],
            "R": [[ren(a, c), ren(b, c)] for c in cs for a, b in doc["R"]],
            "S": {ren(w, c): {ren(u, c): [[ren(v, c) for v in g] for g in gens]
                              for u, gens in per_u.items()}
                  for c in cs for w, per_u in doc["S"].items()},
            "valuation": {p: [ren(w, c) for c in cs for w in ws]
                          for p, ws in doc["valuation"].items()}}


def modal_term(rng, depth, names):
    """A formula of modal depth exactly ``depth``."""
    if depth == 0:
        return _literal(rng, rng.choice(names))
    inner = modal_term(rng, depth - 1, names)
    kind = rng.choice(("box", "dia", "rhd", "rhd"))
    if kind == "box":
        term = F.box(inner)
    elif kind == "dia":
        term = F.dia(inner)
    else:
        other = modal_term(rng, rng.randrange(depth), names)
        term = F.rhd(inner, other) if rng.random() < 0.5 else F.rhd(other, inner)
    if rng.random() < 0.4:
        term = rng.choice((F.conj, F.disj, F.imp))(term, _literal(rng, rng.choice(names)))
    return term


def _chain_term(steps, name):
    term = F.var(name)
    for step in steps.split():
        if step == "box":
            term = F.box(term)
        elif step == "dia":
            term = F.dia(term)
        elif step == "rl":
            term = F.rhd(term, F.var(name))
        else:
            term = F.rhd(F.var(name), term)
    return term


def _modal_subterms(term):
    """Proper subterms of modal depth at least 1, in a fixed order."""
    out = []
    for child in term[1:]:
        if isinstance(child, tuple) and F.modal_depth(child) > 0:
            out += [child] + [g for g in _modal_subterms(child) if g not in out]
    return out


# The 8-world base of the big models: R (two components, transitively
# closed), one extra generator u S_w {v} per (w, u, v), and the valuation
# of p and q as bits of each world's entry.
BIG_R = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (5, 6), (5, 7), (6, 7))
BIG_EXTRA = ((0, 1, 2), (2, 3, 4), (5, 6, 7))
BIG_VALUATION = (0, 1, 2, 3, 1, 0, 2, 1)


def big_base(rng):
    """The fixed base model under a seeded relabelling of its worlds.  The
    shape is fixed because the bisimulation work of random 8-world models
    varies by a factor of two, which would move p90 from seed to seed."""
    worlds = [f"w{i}" for i in range(8)]
    label = rng.sample(worlds, 8)
    pairs = {(label[a], label[b]) for a, b in BIG_R}
    gens = {(label[w], label[u]): {frozenset({label[v]})} for w, u, v in BIG_EXTRA}
    fam = naive.close_gen(worlds, pairs, gens)
    s = {}
    for (w, u), gs in sorted(fam.items()):
        s.setdefault(w, {})[u] = [sorted(g) for g in gs]
    return {"kind": "gen", "worlds": worlds, "R": sorted([a, b] for a, b in pairs), "S": s,
            "valuation": {p: sorted(label[i] for i, bits in enumerate(BIG_VALUATION) if bits & bit)
                          for p, bit in (("p", 1), ("q", 2))}}


def filtrate_op(rng, entry):
    group, size, steps, n_seeds = entry
    doc = gen_model(rng, size) if group == "small" else copies_of(big_base(rng), size)
    # Big models always use p: p and q sit differently in the fixed base.
    top = _chain_term(steps, rng.choice(("p", "q")) if group == "small" else "p")
    rest = _modal_subterms(top) + [F.neg(top)]
    seeds = [top] + rng.sample(rest, n_seeds - 1)
    return {"model": doc, "seeds": [F.render(t) for t in seeds], "group": group,
            "depth": F.modal_depth(top), "worlds": len(doc["worlds"])}


def _rhd_atom(rng, i):
    return F.rhd(F.var(f"a{i}"), _literal(rng, f"b{i}"))


def _chain(atoms, reverse=False):
    """(c1 -> c2) & ... & (c(m-1) -> cm) -> (c1 -> cm), a tautology; with
    ``reverse`` the conclusion is cm -> c1, which is not."""
    links = [F.imp(a, b) for a, b in zip(atoms, atoms[1:])]
    body = links[0]
    for link in links[1:]:
        body = F.conj(body, link)
    first, last = atoms[0], atoms[-1]
    return F.imp(body, F.imp(last, first) if reverse else F.imp(first, last))


def proof(rng, logic, atoms, mutation):
    """A Hilbert derivation for ``logic`` whose line 2 is a taut line with
    ``atoms`` skeleton atoms, optionally broken at one known line."""
    s1 = rng.choice(F.EXTRA[logic] or F.BASE)
    s2 = rng.choice(F.BASE)
    names = ("p", "q", "r")
    a = F.subst(F.SCHEMATA[s1], {m: _boolean_term(rng, rng.sample(names, 2))
                                 for m in F.metas(F.SCHEMATA[s1])})
    b = F.subst(F.SCHEMATA[s2], {m: _literal(rng, rng.choice(names))
                                 for m in F.metas(F.SCHEMATA[s2])})
    need = atoms - len(F.skeleton_atoms(a))
    chain_atoms = [_rhd_atom(rng, i) if rng.random() < 0.5 else F.var(f"c{i}")
                   for i in range(need)]
    c = _chain(chain_atoms)
    lines = [
        (a, f"ax {s1}"),
        (F.imp(a, c), "taut"),
        (c, "mp 1 2"),
        (F.box(c), "nec 3"),
        (b, f"ax {s2}"),
        (F.imp(b, F.imp(F.box(c), F.conj(b, F.box(c)))), "taut"),
        (F.imp(F.box(c), F.conj(b, F.box(c))), "mp 5 6"),
    ]
    bad_line = None
    if mutation == "ax":
        lines[0] = (a, "ax K" if s1 == "J5" else "ax J5")
        bad_line = 1
    elif mutation == "taut":
        lines[1] = (F.imp(a, _chain(chain_atoms, reverse=True)), "taut")
        bad_line = 2
    elif mutation == "mp":
        lines[2] = (c, "mp 2 1")
        bad_line = 3
    elif mutation == "nec":
        lines[3] = (F.box(c), "nec 1")
        bad_line = 4
    text = "".join(f"{i}. {F.render(f)} ; {j}\n" for i, (f, j) in enumerate(lines, start=1))
    taut_atoms = [len(F.skeleton_atoms(f)) for f, j in lines if j == "taut"]
    return text, bad_line, taut_atoms


def _strip(doc):
    """Drop the singleton generators that the mandatory clauses imply."""
    succ = {w: {b for a, b in doc["R"] if a == w} for w in doc["worlds"]}
    s = {}
    for w, per_u in doc["S"].items():
        for u, gens in per_u.items():
            keep = [g for g in gens if not (len(g) == 1 and (g[0] == u or g[0] in succ[u]))]
            if keep:
                s.setdefault(w, {})[u] = keep
    return dict(doc, S=s)


def cli_op(rng, entry, name):
    """One veltman.cli.main call: argv, expected exit code, expected output,
    and the files it reads."""
    kind = entry[0]
    fmt = ["--format", "json"]
    if kind == "proof":
        _, atoms, mutation = entry
        logic = rng.choice(F.LOGICS)
        text, bad_line, taut_atoms = proof(rng, logic, atoms, mutation)
        path = f"{name}.ilp"
        expect = ({"accepted": True, "lines": 7} if bad_line is None
                  else {"accepted": False, "line": bad_line})
        return {"argv": ["check-proof", path, "--logic", logic] + fmt,
                "code": 0 if bad_line is None else 1, "expect": expect,
                "files": {path: text}, "proofs": [path], "taut_atoms": taut_atoms,
                "group": "proof-16" if atoms == 16 else "proof"}
    _, model_kind, variant = entry
    doc = (gen_model(rng, rng.randint(3, 5), min_edges=2) if model_kind == "gen"
           else ord_model(rng, rng.randint(3, 5)))
    stored = _strip(doc) if variant in ("closure", "stripped") else doc
    path = f"{name}.json"
    extra = ["--closure"] if variant == "closure" else []
    op = {"files": {path: json.dumps(stored, sort_keys=True)}, "models": [path],
          "group": kind, "worlds": len(doc["worlds"])}
    if kind == "check-model":
        legal = variant != "stripped"
        op.update(argv=["check-model", path] + extra + fmt, code=0 if legal else 1,
                  expect={"legal": legal, "clause": None if legal else "b"})
        return op
    term = modal_term(rng, rng.randint(2, 3), ("p", "q", "r"))
    truth = naive.Model(doc).truth(term)
    op.update(formula=F.render(term))
    if variant == "world":
        world = rng.choice(doc["worlds"])
        forced = world in truth
        op.update(argv=["model-check", path, F.render(term), "--world", world] + extra + fmt,
                  code=0 if forced else 1, expect={"world": world, "forced": forced})
    else:
        table = {w: w in truth for w in doc["worlds"]}
        op.update(argv=["model-check", path, F.render(term)] + extra + fmt,
                  code=0 if all(table.values()) else 1, expect={"forced": table})
    return op


def generate(workload, seed):
    """The workload's operations, block by block, as JSON-ready dicts."""
    rng = random.Random(f"{workload}:{seed}")
    plan = PLANS[workload]
    ops = []
    for block in range(BLOCKS[workload]):
        entries = list(plan)
        rng.shuffle(entries)
        for i, entry in enumerate(entries):
            if workload == "search":
                op = search_op(rng, entry)
            elif workload == "filtrate":
                op = filtrate_op(rng, entry)
            else:
                op = cli_op(rng, entry, f"op{block:02d}_{i:02d}")
            op["block"] = block
            ops.append(op)
    return ops


def digest(ops):
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def composition(workload, ops):
    """Input properties a later change may target, with their shares."""
    n = len(ops)
    groups = {}
    for op in ops:
        groups[op["group"]] = groups.get(op["group"], 0) + 1
    out = {"operations": n, "block_size": len(PLANS[workload]),
           "group_share": {g: round(c / n, 4) for g, c in sorted(groups.items())}}
    if workload == "search":
        out["refutable_share"] = round(sum(op["expect"] == "refuted" for op in ops) / n, 4)
        out["k_histogram"] = _histogram(op["k"] for op in ops)
    if workload in ("filtrate", "cli"):
        worlds = [op["worlds"] for op in ops if "worlds" in op]
        out["world_histogram"] = _histogram(worlds)
        out["share_64_worlds_or_more"] = round(sum(w >= 64 for w in worlds) / len(worlds), 4)
    if workload == "cli":
        out["taut_atom_histogram"] = _histogram(a for op in ops for a in op.get("taut_atoms", ()))
    return out


def _histogram(values):
    hist = {}
    for v in values:
        hist[str(v)] = hist.get(str(v), 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0])))
