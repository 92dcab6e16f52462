"""Hilbert-style proof checking for the interpretability logics.

The base system has the schemata K, L, J1..J5 and is closed under modus
ponens and necessitation.  Extensions add principles on top:

    ILM  = base + M       ILM0 = base + M0      ILP  = base + P
    ILP0 = base + P0      ILR  = base + R       ILW  = base + W
    ILWstar = base + M0 + W

Wstar itself stays available as a standalone schema (for frame-validity
queries); the composite logic is registered through M0 and W.

Proof files are plain text, one line per step::

    <index>. <formula> ; <justification>

with justifications ``taut``, ``ax <schema>``, ``mp <i> <j>``, ``nec <i>``,
1-based indices referring to strictly earlier lines, and ``#`` starting a
comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .formula import (And, BOT, Algebra, Box, Dia, Formula, Impl, Neg, Or,
                      ParseError, Rhd, Var, evaluate, fold, normalize, parse,
                      variables)

METAVARS = ("A", "B", "C")

_A, _B, _C = Var("A"), Var("B"), Var("C")

SCHEMATA: dict[str, Formula] = {
    "K": Impl(Box(Impl(_A, _B)), Impl(Box(_A), Box(_B))),
    "L": Impl(Box(Impl(Box(_A), _A)), Box(_A)),
    "J1": Impl(Box(Impl(_A, _B)), Rhd(_A, _B)),
    "J2": Impl(And(Rhd(_A, _B), Rhd(_B, _C)), Rhd(_A, _C)),
    "J3": Impl(And(Rhd(_A, _C), Rhd(_B, _C)), Rhd(Or(_A, _B), _C)),
    "J4": Impl(Rhd(_A, _B), Impl(Dia(_A), Dia(_B))),
    "J5": Rhd(Dia(_A), _A),
    "M": Impl(Rhd(_A, _B), Rhd(And(_A, Box(_C)), And(_B, Box(_C)))),
    "M0": Impl(Rhd(_A, _B), Rhd(And(Dia(_A), Box(_C)), And(_B, Box(_C)))),
    "P": Impl(Rhd(_A, _B), Box(Rhd(_A, _B))),
    "P0": Impl(Rhd(_A, Dia(_B)), Box(Rhd(_A, _B))),
    "R": Impl(Rhd(_A, _B), Rhd(Neg(Rhd(_A, Neg(_C))), And(_B, Box(_C)))),
    "W": Impl(Rhd(_A, _B), Rhd(_A, And(_B, Box(Neg(_A))))),
    "Wstar": Impl(Rhd(_A, _B), Rhd(And(_B, Box(_C)),
                                   And(And(_B, Box(_C)), Box(Neg(_A))))),
}

_BASE = frozenset({"K", "L", "J1", "J2", "J3", "J4", "J5"})


@dataclass(frozen=True)
class Logic:
    name: str
    schemata: frozenset[str]


LOGICS: dict[str, Logic] = {
    name: Logic(name, _BASE | frozenset(extra))
    for name, extra in {
        "IL": (),
        "ILM": ("M",),
        "ILM0": ("M0",),
        "ILP": ("P",),
        "ILP0": ("P0",),
        "ILR": ("R",),
        "ILW": ("W",),
        "ILWstar": ("M0", "W"),
    }.items()
}


def get_logic(name: str) -> Logic:
    try:
        return LOGICS[name]
    except KeyError:
        raise ValueError(f"unknown logic {name!r}; choose from {sorted(LOGICS)}") from None


def schema_metavars(schema_id: str) -> tuple[str, ...]:
    """Metavariables occurring in the schema, in A, B, C order."""
    names = variables(SCHEMATA[schema_id])
    return tuple(m for m in METAVARS if m in names)


def instantiate(schema_id: str, subst: dict[str, Formula]) -> Formula:
    """Replace the schema's metavariables by the given formulas."""
    memo = {Var(m): subst[m] for m in schema_metavars(schema_id)}
    return fold(SCHEMATA[schema_id], Formula.rebuild, memo)


def _match(pattern: Formula, term: Formula, subst: dict[str, Formula]) -> bool:
    if isinstance(pattern, Var) and pattern.name in METAVARS:
        return subst.setdefault(pattern.name, term) == term
    if type(pattern) is not type(term):
        return False
    if not pattern.children:
        return pattern == term
    return all(_match(p, t, subst) for p, t in zip(pattern.children, term.children))


_NORMAL_SCHEMATA = {name: normalize(f) for name, f in SCHEMATA.items()}


def match_schema(schema_id: str, f: Formula, memo: dict | None = None) -> dict[str, Formula] | None:
    """Match ``f`` against the schema modulo normalization.

    Returns a substitution on the schema's metavariables such that
    instantiating and normalizing reproduces ``normalize(f)``, or None.
    ``memo`` is passed to :func:`normalize`.
    """
    if schema_id not in SCHEMATA:
        raise ValueError(f"unknown schema {schema_id!r}")
    subst: dict[str, Formula] = {}
    if _match(_NORMAL_SCHEMATA[schema_id], normalize(f, memo), subst):
        return subst
    return None


MAX_TAUT_ATOMS = 20


def _skeleton_atoms(g: Formula) -> set[Formula]:
    """The maximal |>-subformulas and the variables outside them, in one walk."""
    atoms: set[Formula] = set()
    seen: set[Formula] = set()
    todo = [g]
    while todo:
        h = todo.pop()
        if h in seen:
            continue
        seen.add(h)
        if type(h) is Var or type(h) is Rhd:
            atoms.add(h)
        else:
            todo.extend(h.children)
    return atoms


def _column(vector: int, size: int, block: int, rows: int) -> int:
    """The rows 0 .. rows-1 of a table digit below ``size`` that holds each
    value for ``block`` rows, as a bitmask: bit r is bit (r // block) % size
    of ``vector``.  One period of size * block bits, doubled until it covers
    ``rows``."""
    if block > 1:
        ones = (1 << block) - 1
        vector = sum([ones << d * block for d in range(size) if vector >> d & 1])
    width = size * block
    while width < rows:
        vector |= vector << width
        width *= 2
    return vector if width == rows else vector & ((1 << rows) - 1)


def is_classical_tautology(f: Formula, memo: dict | None = None) -> bool:
    """Truth-table validity of the propositional skeleton of ``f``.

    The skeleton replaces each maximal |>-subformula of the normalized form
    with a fresh atom; identical subformulas share an atom.  Raises
    ValueError past ``MAX_TAUT_ATOMS`` distinct atoms.  All 2^n rows are evaluated
    at once: a value is the bitmask of the rows where it is true, atom i is
    true in the rows whose bit i is set.  ``memo`` is passed to :func:`normalize`.
    """
    g = normalize(f, memo)
    atoms = _skeleton_atoms(g)
    n = len(atoms)
    if n > MAX_TAUT_ATOMS:
        raise ValueError(f"propositional skeleton has {n} atoms, limit is {MAX_TAUT_ATOMS}")
    rows = 1 << n
    full = (1 << rows) - 1
    # atom i is row bit i: a digit of two values, each held for 2^i rows
    columns = {a: _column(0b10, 2, 1 << i, rows) for i, a in enumerate(atoms)}
    return evaluate(g, Algebra(full, None, None, None), columns) == full


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class Axiom:
    schema: str


@dataclass(frozen=True)
class MP:
    i: int
    j: int


@dataclass(frozen=True)
class Nec:
    i: int


Justification = Taut | Axiom | MP | Nec


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofObject:
    lines: tuple[ProofLine, ...]

    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@dataclass(frozen=True)
class ProofCheck:
    accepted: bool
    line: int | None = None
    reason: str | None = None


def check_proof(proof: ProofObject, logic: Logic) -> ProofCheck:
    """Verify every line; rejection names the first bad line (1-based).

    Each line is normalized once, through one memo for the whole proof, and
    modus ponens and necessitation compare the stored normal forms.  A taut
    line past ``MAX_TAUT_ATOMS`` raises ValueError naming the line: the
    limit is not a finding about the proof.
    """
    if not proof.lines:
        return ProofCheck(False, 0, "empty proof")
    memo: dict = {}
    normal: list[Formula] = []
    for idx, line in enumerate(proof.lines, start=1):
        j = line.justification
        n = normalize(line.formula, memo)
        normal.append(n)
        if isinstance(j, Taut):
            try:
                ok = is_classical_tautology(line.formula, memo)
            except ValueError as exc:
                raise ValueError(f"line {idx}: {exc}") from exc
            if not ok:
                return ProofCheck(False, idx, "not a classical tautology")
        elif isinstance(j, Axiom):
            # parse_proof refuses these; a proof built in code may still name one
            if j.schema not in SCHEMATA:
                return ProofCheck(False, idx, f"unknown schema {j.schema}")
            if j.schema not in logic.schemata:
                return ProofCheck(False, idx, f"schema {j.schema} is not an axiom of {logic.name}")
            if match_schema(j.schema, line.formula, memo) is None:
                return ProofCheck(False, idx, f"not an instance of {j.schema}")
        elif isinstance(j, MP):
            for ref in (j.i, j.j):
                if not 1 <= ref < idx:
                    return ProofCheck(False, idx, f"reference to line {ref} is out of range")
            if normal[j.j - 1] != Impl(normal[j.i - 1], n):
                return ProofCheck(False, idx,
                                  f"line {j.j} is not an implication from line {j.i} to this line")
        elif isinstance(j, Nec):
            if not 1 <= j.i < idx:
                return ProofCheck(False, idx, f"reference to line {j.i} is out of range")
            if n != Rhd(Neg(normal[j.i - 1]), BOT):
                return ProofCheck(False, idx, f"not the necessitation of line {j.i}")
        else:
            return ProofCheck(False, idx, f"unknown justification {j!r}")
    return ProofCheck(True)


class ProofFormatError(ValueError):
    pass


# [0-9], not \d or str.isdigit, which also take non-ASCII digits such as '²' and '١'
_LINE_RE = re.compile(r"^\s*([0-9]+)\.\s*(.*?)\s*;\s*(.*?)\s*$")
_INDEX_RE = re.compile(r"[0-9]+")


def parse_proof(text: str) -> ProofObject:
    """Parse the proof file format into a ProofObject.  An ``ax`` line that
    names no schema of ``SCHEMATA`` is a format error.

    The formulas are parsed through one memo for the whole document (see
    :func:`parse`): ``mp`` and ``nec`` lines restate earlier lines inside
    larger ones, and a parenthesized group already parsed on an earlier
    line is taken from the memo, not parsed again.  The memo lives only for
    this call."""
    lines: list[ProofLine] = []
    memo: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        m = _LINE_RE.match(body)
        if m is None:
            raise ProofFormatError(f"line {lineno}: expected '<index>. <formula> ; <justification>'")
        index, formula_src, just_src = int(m.group(1)), m.group(2), m.group(3)
        if index != len(lines) + 1:
            raise ProofFormatError(f"line {lineno}: expected index {len(lines) + 1}, got {index}")
        try:
            formula = parse(formula_src, memo)
        except ParseError as exc:
            raise ProofFormatError(f"line {lineno}: {exc}") from exc
        lines.append(ProofLine(formula, _parse_justification(just_src, lineno)))
    if not lines:
        raise ProofFormatError("no proof lines")
    return ProofObject(tuple(lines))


def _parse_justification(src: str, lineno: int) -> Justification:
    parts = src.split()
    if parts == ["taut"]:
        return Taut()
    if len(parts) == 2 and parts[0] == "ax":
        if parts[1] not in SCHEMATA:
            raise ProofFormatError(f"line {lineno}: unknown schema {parts[1]!r}")
        return Axiom(parts[1])
    if len(parts) == 3 and parts[0] == "mp" and all(map(_INDEX_RE.fullmatch, parts[1:])):
        return MP(int(parts[1]), int(parts[2]))
    if len(parts) == 2 and parts[0] == "nec" and _INDEX_RE.fullmatch(parts[1]):
        return Nec(int(parts[1]))
    raise ProofFormatError(f"line {lineno}: bad justification {src!r}")


def format_proof(proof: ProofObject) -> str:
    """Inverse of parse_proof, up to whitespace."""
    out = []
    for idx, line in enumerate(proof.lines, start=1):
        j = line.justification
        if isinstance(j, Taut):
            just = "taut"
        elif isinstance(j, Axiom):
            just = f"ax {j.schema}"
        elif isinstance(j, MP):
            just = f"mp {j.i} {j.j}"
        else:
            just = f"nec {j.i}"
        out.append(f"{idx}. {line.formula} ; {just}")
    return "\n".join(out) + "\n"
