"""Axiom schema matching and Hilbert proof checking."""

import random
import re
import sys
from pathlib import Path

import pytest
from reference import classical_tautology, mutant, random_formula, regex_proof_lines

from veltman import hilbert
from veltman.formula import (And, Impl, Neg, Or, ParseError, Rhd, Var, normalize, parse,
                             pretty)
from veltman.hilbert import (
    LOGICS,
    SCHEMATA,
    Axiom,
    MP,
    Nec,
    ProofFormatError,
    ProofLine,
    ProofObject,
    Taut,
    check_proof,
    format_proof,
    get_logic,
    instantiate,
    is_classical_tautology,
    match_schema,
    parse_proof,
    schema_metavars,
)

p, q, r = Var("p"), Var("q"), Var("r")


class TestLogics:
    def test_all_eight_registered(self):
        assert set(LOGICS) == {"IL", "ILM", "ILM0", "ILP", "ILP0", "ILR", "ILW", "ILWstar"}

    def test_base_contained_everywhere(self):
        base = LOGICS["IL"].schemata
        for logic in LOGICS.values():
            assert base <= logic.schemata

    def test_ilwstar_composition(self):
        assert LOGICS["ILWstar"].schemata == LOGICS["IL"].schemata | {"M0", "W"}

    def test_unknown_logic(self):
        with pytest.raises(ValueError):
            get_logic("ILX")


class TestMatchSchema:
    def test_j2(self):
        got = match_schema("J2", parse("(p|>q) & (q|>r) -> (p|>r)"))
        assert got == {"A": p, "B": q, "C": r}

    def test_j5(self):
        assert match_schema("J5", parse("<>p |> p")) == {"A": p}

    def test_j1_needs_box_antecedent(self):
        assert match_schema("J1", parse("p |> q")) is None

    def test_unknown_schema(self):
        with pytest.raises(ValueError):
            match_schema("J9", p)

    def test_matching_is_modulo_normalization(self):
        # []p written as its expansion still matches L's boxes
        boxed = parse("~p |> bot")
        direct = parse("[]p")
        assert normalize(boxed) == normalize(direct)
        inst = Impl(parse("[]([]p -> p)"), parse("[]p"))
        assert match_schema("L", inst) == {"A": p}

    def test_no_commutativity_rescue(self):
        # J2 with the conjuncts swapped is not an instance
        assert match_schema("J2", parse("(q|>r) & (p|>q) -> (p|>r)")) is None

    def test_nonlinear_metavariable(self):
        assert match_schema("J5", parse("<>p |> q")) is None


def test_every_schema_recognizes_its_random_instances():
    rng = random.Random(991)
    for schema_id in sorted(SCHEMATA):
        vars_needed = schema_metavars(schema_id)
        for _ in range(500):
            subst = {v: random_formula(rng, 3, ("p", "q", "r")) for v in vars_needed}
            inst = instantiate(schema_id, subst)
            assert match_schema(schema_id, inst) is not None, (schema_id, pretty(inst))


class TestTautology:
    def test_identity(self):
        assert is_classical_tautology(parse("p -> p"))

    def test_excluded_middle_over_rhd(self):
        assert is_classical_tautology(parse("(p|>q) | ~(p|>q)"))

    def test_rhd_is_opaque(self):
        assert not is_classical_tautology(parse("p |> p"))

    def test_shared_skeleton_atoms(self):
        # both occurrences of p|>q map to one atom
        assert is_classical_tautology(parse("(p|>q) -> (p|>q)"))
        assert not is_classical_tautology(parse("(p|>q) -> (q|>p)"))

    def test_box_participates_via_normal_form(self):
        assert is_classical_tautology(parse("[]p -> []p"))
        assert not is_classical_tautology(parse("[]p -> p"))

    def test_matches_row_by_row_oracle(self):
        rng = random.Random(4242)

        def over(leaves):
            """A random formula using every leaf once."""
            if len(leaves) == 1:
                return Neg(leaves[0]) if rng.random() < 0.3 else leaves[0]
            cut = rng.randrange(1, len(leaves))
            out = rng.choice((And, Or, Impl))(over(leaves[:cut]), over(leaves[cut:]))
            return Neg(out) if rng.random() < 0.2 else out

        for k in range(1, 13):
            # k skeleton atoms: variables and opaque |>-formulas
            leaves = [Var(f"a{i}") if i % 3 else Rhd(Var(f"a{i}"), Var("z"))
                      for i in range(k)]
            for _ in range(3):
                rng.shuffle(leaves)
                f, g = over(leaves), over(leaves)
                for h in (f, Impl(f, f), Or(f, Neg(f)), Impl(And(f, g), f), Impl(f, g)):
                    assert is_classical_tautology(h) == classical_tautology(h), pretty(h)

    def test_atom_limit(self):
        conj = " & ".join(f"a{i}" for i in range(20))
        assert is_classical_tautology(parse(f"{conj} -> a19"))
        with pytest.raises(ValueError, match="propositional skeleton has 21 atoms, limit is 20"):
            is_classical_tautology(parse(f"{conj} & a20 -> a0"))

    def test_variables_under_rhd_are_not_atoms(self):
        # 20 |>-atoms over 20 further variables: 20 skeleton atoms, not 40
        conj = " & ".join(f"(b{i} |> b{i})" for i in range(20))
        f = parse(f"{conj} -> (b0 |> b0)")
        assert is_classical_tautology(f)
        assert check_proof(ProofObject((ProofLine(f, Taut()),)), get_logic("IL")).accepted


GOOD_PROOF = """\
# derives p |> p
1. p -> p ; taut
2. [](p -> p) ; nec 1
3. [](p -> p) -> (p |> p) ; ax J1
4. p |> p ; mp 2 3
"""


class TestCheckProof:
    def test_four_line_derivation_accepted(self):
        res = check_proof(parse_proof(GOOD_PROOF), get_logic("IL"))
        assert res.accepted
        assert res.line is None and res.reason is None

    def test_mutated_axiom_rejected(self):
        res = check_proof(parse_proof(GOOD_PROOF.replace("ax J1", "ax J2")),
                          get_logic("IL"))
        assert not res.accepted
        assert res.line == 3
        assert res.reason == "not an instance of J2"

    def test_rhd_not_a_tautology(self):
        res = check_proof(ProofObject((ProofLine(parse("p |> p"), Taut()),)),
                          get_logic("IL"))
        assert (res.accepted, res.line, res.reason) == (False, 1, "not a classical tautology")

    def test_empty_proof_rejected(self):
        res = check_proof(ProofObject(()), get_logic("IL"))
        assert not res.accepted

    def test_atom_limit_is_an_error_naming_the_line(self):
        conj = " & ".join(f"a{i}" for i in range(21))
        lines = (ProofLine(parse("p -> p"), Taut()),
                 ProofLine(parse(f"{conj} -> a0"), Taut()))
        with pytest.raises(ValueError, match="^line 2: propositional skeleton has 21 atoms, "
                                             "limit is 20$"):
            check_proof(ProofObject(lines), get_logic("IL"))

    def test_unknown_schema_rejected(self):
        """A proof built in code may name any schema; the checker rejects
        one that is not in SCHEMATA."""
        res = check_proof(ProofObject((ProofLine(parse("p -> p"), Axiom("Foo")),)),
                          get_logic("IL"))
        assert (res.accepted, res.line, res.reason) == (False, 1, "unknown schema Foo")

    def test_unknown_justification_rejected(self):
        """A proof built in code may give a line a justification of none of
        the four kinds; the checker rejects it at that line."""
        lines = (ProofLine(parse("p -> p"), Taut()), ProofLine(parse("q -> q"), "taut"))
        res = check_proof(ProofObject(lines), get_logic("IL"))
        assert (res.accepted, res.line, res.reason) == (False, 2, "unknown justification 'taut'")

    def test_forward_reference_rejected(self):
        lines = (ProofLine(parse("[](p -> p)"), Nec(2)),
                 ProofLine(parse("p -> p"), Taut()))
        res = check_proof(ProofObject(lines), get_logic("IL"))
        assert not res.accepted and res.line == 1

    def test_axiom_outside_logic_rejected(self):
        m = ProofObject((ProofLine(
            parse("(p |> q) -> ((p & []r) |> (q & []r))"), Axiom("M")),))
        assert not check_proof(m, get_logic("IL")).accepted
        assert check_proof(m, get_logic("ILM")).accepted

    def test_wstar_axiom_only_where_registered(self):
        inst = ProofObject((ProofLine(
            parse("(p |> q) -> ((q & []r) |> (q & []r & []~p))"), Axiom("Wstar")),))
        assert not check_proof(inst, get_logic("ILWstar")).accepted
        assert not check_proof(inst, get_logic("ILW")).accepted

    def test_mp_shape_checked(self):
        lines = (ProofLine(parse("p -> p"), Taut()),
                 ProofLine(parse("q -> q"), Taut()),
                 ProofLine(parse("p -> p"), MP(1, 2)))
        res = check_proof(ProofObject(lines), get_logic("IL"))
        assert not res.accepted and res.line == 3

    def test_nec_shape_checked(self):
        lines = (ProofLine(parse("p -> p"), Taut()),
                 ProofLine(parse("[](q -> q)"), Nec(1)))
        res = check_proof(ProofObject(lines), get_logic("IL"))
        assert not res.accepted and res.line == 2
        assert res.reason == "not the necessitation of line 1"

    def test_acceptance_monotone_under_appending(self):
        base = parse_proof(GOOD_PROOF)
        extended = ProofObject(base.lines + (
            ProofLine(parse("(p |> p) | ~(p |> p)"), Taut()),))
        assert check_proof(base, get_logic("IL")).accepted
        assert check_proof(extended, get_logic("IL")).accepted

    def test_line_deletion_breaks_or_is_unused(self):
        proof = parse_proof(GOOD_PROOF)
        logic = get_logic("IL")
        assert check_proof(proof, logic).accepted
        referenced = {1, 2, 3}  # line 4 is the unused conclusion
        for k in range(len(proof.lines)):
            rest = ProofObject(proof.lines[:k] + proof.lines[k + 1:])
            accepted = check_proof(rest, logic).accepted
            if k + 1 in referenced:
                assert not accepted, f"deleting referenced line {k + 1} must break"
            else:
                assert accepted, "deleting the unused conclusion keeps a valid proof"


class TestProofFiles:
    def test_roundtrip(self):
        proof = parse_proof(GOOD_PROOF)
        again = parse_proof(format_proof(proof))
        assert again == proof

    def test_comment_and_blank_lines_skipped(self):
        text = "\n# comment only\n\n1. p -> p ; taut\n"
        assert len(parse_proof(text).lines) == 1

    @pytest.mark.parametrize("text", ["", "\n\n", "# comment only\n  # another\n"])
    def test_no_proof_lines_rejected(self, text):
        with pytest.raises(ProofFormatError, match="no proof lines"):
            parse_proof(text)

    def test_nonsequential_index_rejected(self):
        with pytest.raises(ProofFormatError):
            parse_proof("2. p -> p ; taut\n")

    def test_bad_justification_rejected(self):
        with pytest.raises(ProofFormatError):
            parse_proof("1. p -> p ; because\n")

    def test_unknown_schema_is_a_format_error(self):
        with pytest.raises(ProofFormatError, match="^line 2: unknown schema 'Foo'$"):
            parse_proof("1. p -> p ; taut\n2. p -> p ; ax Foo\n")

    def test_bad_formula_rejected(self):
        with pytest.raises(ProofFormatError):
            parse_proof("1. p |> ; taut\n")


def _every_code_point() -> str:
    return "".join(map(chr, range(sys.maxunicode + 1)))


def test_regex_whitespace_is_what_str_strip_removes():
    """``\\s`` matches a code point exactly when ``str.isspace`` holds for
    it, and those are the code points ``str.strip`` removes: so the
    partition framing trims what the regular expression did."""
    every = _every_code_point()
    spaces = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == spaces
    assert [c for c in every if not c.strip()] == spaces


_FORMULA_TOKENS = ("0", "1", "12", "p", "q", "bot", "->", "|>", "~", "[]", "(", ")")
_JUSTIFICATION_TOKENS = ("taut", "ax", "K", "mp", "nec", "1", "2", "\u00b2")
_FRAMING_TOKENS = (".", ";", "#", "\u00b2", "\u0661", *_FORMULA_TOKENS, *_JUSTIFICATION_TOKENS)


def _framing_document(rng: random.Random, spaces: list[str]) -> str:
    """One to three lines, each built as '<index>. <formula> ; <justification>'
    from an index, a superscript or Arabic-Indic digit, or nothing, with
    runs drawn from ``spaces`` between its pieces and zero to two tokens put
    in or swapped for a piece.  Whitespace that breaks lines splits a line."""
    lines = []
    for i in range(1, rng.randrange(1, 4) + 1):
        index = rng.choice((str(i), str(i), str(i), f"0{i}", "\u00b2", f"{i}\u0661", ""))
        pieces = [index + "."] if rng.random() < 0.8 else [index, "."]
        pieces += rng.choices(_FORMULA_TOKENS, k=rng.randrange(4)) + [";"]
        pieces += rng.choices(_JUSTIFICATION_TOKENS, k=rng.randrange(3))
        for _ in range(rng.choice((0, 0, 1, 2))):
            at = rng.randrange(len(pieces) + 1)
            pieces[at:at + rng.randrange(2)] = [rng.choice(_FRAMING_TOKENS)]
        lines.append("".join(piece + "".join(rng.choices(spaces, k=rng.choice((0, 0, 0, 1, 1, 2))))
                             for piece in ["", *pieces]))
    return "\n".join(lines)


def _regex_handoff(text: str):
    """What parse_proof hands on under the regular-expression framing: the
    formula and justification texts in line order, and the error it stops
    at."""
    texts = []
    for lineno, frame in regex_proof_lines(text):
        if frame is None:
            return texts, f"line {lineno}: expected '<index>. <formula> ; <justification>'"
        want = len(texts) // 2 + 1
        if frame[0] != want:
            return texts, f"line {lineno}: expected index {want}, got {frame[0]}"
        texts += frame[1:]
    return texts, None if texts else "no proof lines"


def test_partition_framing_matches_the_regex_on_100000_lines(monkeypatch):
    """On seeded documents of 100,000 line bodies in all, parse_proof hands
    the formula parser and the justification reader the texts the
    regular-expression framing gives, and refuses where it refuses, with
    the same message.  Half the whitespace is a plain space, the rest any
    of the code points ``str.isspace`` takes."""
    handed: list[str] = []
    monkeypatch.setattr(hilbert, "parse", lambda src, memo: handed.append(src) or p)
    monkeypatch.setattr(hilbert, "_parse_justification",
                        lambda src, lineno: handed.append(src) or Taut())
    spaces = [c for c in _every_code_point() if c.isspace()]
    rng = random.Random(32)
    bodies = framed = accepted = 0
    while bodies < 100_000:
        text = _framing_document(rng, [" "] * len(spaces) + spaces)
        handed.clear()
        try:
            parse_proof(text)
            error = None
        except ProofFormatError as exc:
            error = str(exc)
        assert (handed, error) == _regex_handoff(text), ascii(text)
        frames = [frame for _, frame in regex_proof_lines(text)]
        bodies += len(frames)
        framed += len(frames) - frames.count(None)
        accepted += error is None
    assert framed >= 15_000 and accepted >= 3_000, (framed, accepted)


PROOFS = sorted((Path(__file__).parent / "proofs").glob("*.ilp"))


def _parsed(text: str):
    try:
        return parse_proof(text)
    except ProofFormatError as exc:
        return str(exc)


def _wrapping_document(rng: random.Random) -> str:
    """A few random formulas, then lines that restate earlier lines inside
    ``->``, ``[]`` and ``&``, as mp and nec lines restate them."""
    texts = [pretty(random_formula(rng, 3, ("p", "q", "r"))) for _ in range(3)]
    for _ in range(rng.randrange(3, 8)):
        a, b = rng.choice(texts), rng.choice(texts)
        texts.append(rng.choice((f"({a}) -> ({b})", f"[]({a})", f"({a}) & ({b})",
                                 f"(({a}) -> {b})", f"[]([]({a}) & ({b}))")))
    return "".join(f"{i}. {t} ; taut\n" for i, t in enumerate(texts, start=1))


class TestProofParseMemo:
    """parse_proof parses through one memo of parenthesized groups; its
    answer must be the one of parsing each line alone."""

    def assert_as_lines_alone(self, text, monkeypatch):
        got = _parsed(text)
        with monkeypatch.context() as m:
            m.setattr(hilbert, "parse", lambda src, memo=None: parse(src))
            alone = _parsed(text)
        assert got == alone, text

    @pytest.mark.parametrize("path", PROOFS, ids=lambda path: path.name)
    def test_proof_files(self, path, monkeypatch):
        self.assert_as_lines_alone(path.read_text(encoding="utf-8"), monkeypatch)

    def test_wrapping_documents_and_their_mutants(self, monkeypatch):
        rng = random.Random(25)
        for _ in range(40):
            doc = _wrapping_document(rng)
            assert isinstance(_parsed(doc), ProofObject)
            for text in [doc] + [mutant(rng, doc) for _ in range(12)]:
                self.assert_as_lines_alone(text, monkeypatch)

    def check_reuse(self, group: str, line2: str, fails: bool, message: str):
        text = f"1. {group} ; taut\n2. {line2} ; taut\n"
        if not fails:
            assert parse_proof(text).lines[1].formula == parse(line2)
            return
        with pytest.raises(ParseError, match=message) as alone:
            parse(line2)
        with pytest.raises(ProofFormatError) as got:
            parse_proof(text)
        assert str(got.value) == f"line 2: {alone.value}"

    @pytest.mark.parametrize("more", [4, 5])
    def test_group_taken_only_within_the_parenthesis_bound(self, more):
        group = "(" * 60 + "p" + ")" * 60
        self.check_reuse(group, "(" * more + group + ")" * more, more > 4,
                         "parenthesis nesting exceeds 64")

    @pytest.mark.parametrize("more", [4, 5])
    def test_group_taken_only_within_the_node_bound(self, more):
        group = "(" + "~" * 59 + "p)"
        self.check_reuse(group, "~" * more + group, more > 4, "formula nesting exceeds 64")


def test_accepted_il_lines_are_frame_valid_on_small_frames():
    # soundness bridge: every line of the accepted derivation holds at
    # every world of every IL frame with up to 3 worlds under
    # every valuation of its variables
    from veltman.decide import _il_frames
    from veltman.properties import frame_validates

    proof = parse_proof(GOOD_PROOF)
    assert check_proof(proof, get_logic("IL")).accepted
    for n in (1, 2, 3):
        for frame in _il_frames(n):
            for line in proof.lines:
                assert frame_validates(frame, line.formula) is True
