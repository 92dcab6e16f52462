"""The benchmark's own formula terms: nested tuples, independent of veltman.

A term is one of ("var", name), ("bot",), ("top",), ("not", a), ("box", a),
("dia", a), ("and", a, b), ("or", a, b), ("imp", a, b), ("rhd", a, b) or,
inside schema templates, ("meta", "A").  ``render`` prints a term fully
parenthesized, so veltman's parser reads back exactly this tree.
"""

BOT = ("bot",)

_BINARY = {"and": "&", "or": "|", "imp": "->", "rhd": "|>"}
_UNARY = {"not": "~", "box": "[]", "dia": "<>"}


def var(name):
    return ("var", name)


def neg(a):
    return ("not", a)


def box(a):
    return ("box", a)


def dia(a):
    return ("dia", a)


def conj(a, b):
    return ("and", a, b)


def disj(a, b):
    return ("or", a, b)


def imp(a, b):
    return ("imp", a, b)


def rhd(a, b):
    return ("rhd", a, b)


_A, _B, _C = ("meta", "A"), ("meta", "B"), ("meta", "C")

# The interpretability schemata, written out from the paper's axiomatization.
SCHEMATA = {
    "K": imp(box(imp(_A, _B)), imp(box(_A), box(_B))),
    "L": imp(box(imp(box(_A), _A)), box(_A)),
    "J1": imp(box(imp(_A, _B)), rhd(_A, _B)),
    "J2": imp(conj(rhd(_A, _B), rhd(_B, _C)), rhd(_A, _C)),
    "J3": imp(conj(rhd(_A, _C), rhd(_B, _C)), rhd(disj(_A, _B), _C)),
    "J4": imp(rhd(_A, _B), imp(dia(_A), dia(_B))),
    "J5": rhd(dia(_A), _A),
    "M": imp(rhd(_A, _B), rhd(conj(_A, box(_C)), conj(_B, box(_C)))),
    "M0": imp(rhd(_A, _B), rhd(conj(dia(_A), box(_C)), conj(_B, box(_C)))),
    "P": imp(rhd(_A, _B), box(rhd(_A, _B))),
    "P0": imp(rhd(_A, dia(_B)), box(rhd(_A, _B))),
    "R": imp(rhd(_A, _B), rhd(neg(rhd(_A, neg(_C))), conj(_B, box(_C)))),
    "W": imp(rhd(_A, _B), rhd(_A, conj(_B, box(neg(_A))))),
}

# Principles valid in none of the eight logics; each fails on a frame of at
# most two worlds (T on one world, the other two on a single R-edge).
OUTSIDE = {
    "T": imp(box(_A), _A),
    "4c": imp(box(box(_A)), box(_A)),
    "J5c": rhd(_A, dia(_A)),
}

BASE = ("K", "L", "J1", "J2", "J3", "J4", "J5")
EXTRA = {"IL": (), "ILM": ("M",), "ILM0": ("M0",), "ILP": ("P",),
         "ILP0": ("P0",), "ILR": ("R",), "ILW": ("W",), "ILWstar": ("M0", "W")}
LOGICS = tuple(EXTRA)

# Frame conditions of each logic, named as in tests/reference.py's BRUTE.
CONDITIONS = {"IL": (), "ILM": ("Mgen",), "ILM0": ("M0gen",), "ILP": ("Pgen",),
              "ILP0": ("P0gen",), "ILR": ("Rgen",), "ILW": ("Wgen",),
              "ILWstar": ("M0gen", "Wgen")}


def metas(f):
    """The metavariable names in ``f``, sorted."""
    if f[0] == "meta":
        return [f[1]]
    return sorted({m for child in f[1:] if isinstance(child, tuple) for m in metas(child)})


def subst(f, mapping):
    if f[0] == "meta":
        return mapping[f[1]]
    if f[0] in ("var", "bot", "top"):
        return f
    return (f[0],) + tuple(subst(c, mapping) for c in f[1:])


def variables(f):
    if f[0] == "var":
        return {f[1]}
    out = set()
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= variables(child)
    return out


def modal_depth(f):
    if f[0] in ("var", "bot", "top"):
        return 0
    inner = max(modal_depth(c) for c in f[1:])
    return inner + 1 if f[0] in ("box", "dia", "rhd") else inner


def render(f):
    tag = f[0]
    if tag == "var":
        return f[1]
    if tag in ("bot", "top"):
        return tag
    if tag in _UNARY:
        return _UNARY[tag] + render(f[1])
    return f"({render(f[1])} {_BINARY[tag]} {render(f[2])})"


def normalize(f):
    """[]A to ~A |> bot and <>A to ~(A |> bot), bottom-up."""
    tag = f[0]
    if tag in ("var", "bot", "top"):
        return f
    if tag == "box":
        return rhd(neg(normalize(f[1])), BOT)
    if tag == "dia":
        return neg(rhd(normalize(f[1]), BOT))
    return (tag,) + tuple(normalize(c) for c in f[1:])


def skeleton_atoms(f):
    """Distinct atoms of the propositional skeleton of the normalized form:
    variables and maximal |>-subformulas."""
    out = set()

    def walk(g):
        if g[0] in ("var", "rhd"):
            out.add(g)
        elif g[0] not in ("bot", "top"):
            for c in g[1:]:
                walk(c)

    walk(normalize(f))
    return out


def from_veltman(f):
    """Convert a veltman formula node into a term, by class and field name."""
    kind = type(f).__name__
    if kind == "Var":
        return ("var", f.name)
    if kind in ("Bot", "Top"):
        return (kind.lower(),)
    unary = {"Neg": "not", "Box": "box", "Dia": "dia"}
    if kind in unary:
        return (unary[kind], from_veltman(f.arg))
    binary = {"And": "and", "Or": "or", "Impl": "imp", "Rhd": "rhd"}
    return (binary[kind], from_veltman(f.left), from_veltman(f.right))
