"""Command line interface: exit codes, output determinism, error paths."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import duplicated_model, random_formula, random_gen_model, random_ord_model

from veltman import properties
from veltman.cli import main

# sha256 of TestFiltrate's 200 pinned runs, recorded before the adequate set
# was evaluated as one children-first list
FILTRATE_DIGEST = "e3911d7f2d6a9edc8f86e39c10f6288ee3b36b15c196b8540ec816690b7945fd"


@pytest.fixture()
def gen_model_file(tmp_path):
    doc = {"kind": "gen",
           "worlds": ["w", "u", "v", "z"],
           "R": [["w", "u"], ["w", "v"], ["w", "z"], ["v", "z"]],
           "S": {"w": {"u": [["u"], ["v"]]}},
           "valuation": {"p": ["u"]}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def legal_model_file(tmp_path):
    doc = {"kind": "gen",
           "worlds": ["a", "b"],
           "R": [["a", "b"]],
           "S": {"a": {"b": [["b"]]}},
           "valuation": {"p": ["b"]}}
    path = tmp_path / "legal.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParse:
    def test_ok(self, capsys):
        assert main(["parse", "p |> q -> [](p |> q)"]) == 0
        out = capsys.readouterr().out
        assert "p |> q -> [](p |> q)" in out

    def test_json_format(self, capsys):
        assert main(["parse", "p & q", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula"] == "p & q"
        assert doc["ast"]["op"] == "&"

    def test_syntax_error_exit_2(self, capsys):
        assert main(["parse", "p |>"]) == 2
        assert "syntax error" in capsys.readouterr().err


class TestCheckModel:
    def test_violations_exit_1(self, gen_model_file, capsys):
        assert main(["check-model", gen_model_file]) == 1
        out = capsys.readouterr().out
        assert "missing" in out

    def test_closure_repairs(self, gen_model_file, capsys):
        assert main(["check-model", gen_model_file, "--closure"]) == 0
        assert "legal" in capsys.readouterr().out

    def test_missing_file_exit_2(self):
        assert main(["check-model", "/no/such/file.json"]) == 2

    def test_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["check-model", str(path)]) == 2

    @pytest.mark.parametrize("argv", [["check-model", "DIR"], ["model-check", "DIR", "p"],
                                      ["check-proof", "DIR"]])
    def test_directory_exit_2(self, tmp_path, capsys, argv):
        assert main([str(tmp_path) if a == "DIR" else a for a in argv]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["check-model", str(path)]) == 2
        assert "bad JSON" in capsys.readouterr().err

    def test_json_report(self, gen_model_file, capsys):
        main(["check-model", gen_model_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["legal"] is False
        assert doc["violations"]


class TestModelCheck:
    def test_forced_exit_0(self, legal_model_file, capsys):
        assert main(["model-check", legal_model_file, "<>p", "--world", "a"]) == 0
        assert "forced" in capsys.readouterr().out

    def test_not_forced_exit_1(self, legal_model_file):
        assert main(["model-check", legal_model_file, "p", "--world", "a"]) == 1

    def test_unknown_world_exit_2(self, legal_model_file):
        assert main(["model-check", legal_model_file, "p", "--world", "nope"]) == 2

    def test_all_worlds_table(self, legal_model_file, capsys):
        rc = main(["model-check", legal_model_file, "p | ~p", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["forced"] == {"a": True, "b": True}

    def test_illegal_model_exit_2(self, gen_model_file):
        assert main(["model-check", gen_model_file, "p"]) == 2


class TestCheckProperty:
    def test_failing_property_exit_1(self, gen_model_file, capsys):
        rc = main(["check-property", gen_model_file, "--closure",
                   "--property", "Mgen"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "fails" in out and "witness" in out

    def test_holding_property_exit_0(self, legal_model_file):
        rc = main(["check-property", legal_model_file, "--property", "Mgen"])
        assert rc == 0

    def test_unknown_property_exit_2(self, legal_model_file, capsys):
        with pytest.raises(SystemExit):
            main(["check-property", legal_model_file, "--property", "Qgen"])

    @pytest.mark.parametrize("spokes, rc", [(properties.MAX_WGEN_SUCCESSORS, 0),
                                            (properties.MAX_WGEN_SUCCESSORS + 1, 2)])
    def test_wgen_star_bound(self, tmp_path, capsys, spokes, rc):
        """Wgen scans every subset of R[w]: a star w -> u1..uk holds at the
        bound k = 12 and is refused past it, before any work."""
        us = [f"u{i:02d}" for i in range(spokes)]
        doc = {"kind": "gen", "worlds": ["w", *us], "R": [["w", u] for u in us],
               "S": {"w": {u: [[u]] for u in us}}}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        assert properties.MAX_WGEN_SUCCESSORS == 12
        assert main(["check-property", str(path), "--property", "Wgen"]) == rc
        out, err = capsys.readouterr()
        if rc == 0:
            assert out == "Wgen: holds\n"
        else:
            assert out == ""
            assert err == ("error: Wgen scans every subset of R[w], and w has 13 "
                           "successors; the bound is 12\n")


class TestSchemaValid:
    def test_valid_exit_0(self, legal_model_file):
        assert main(["schema-valid", legal_model_file, "--schema", "J5"]) == 0

    def test_falsified_exit_1(self, gen_model_file, capsys):
        rc = main(["schema-valid", gen_model_file, "--closure", "--schema", "M"])
        assert rc == 1
        assert "falsified" in capsys.readouterr().out

    def test_unknown_schema_exit_2(self, legal_model_file, capsys):
        assert main(["schema-valid", legal_model_file, "--schema", "Foo"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown schema 'Foo'; choose from ['J1', 'J2', 'J3', 'J4', 'J5', 'K', 'L', "
            "'M', 'M0', 'P', 'P0', 'R', 'W', 'Wstar']\n")

    def test_zero_world_cap_exit_2(self, legal_model_file, capsys):
        assert main(["schema-valid", legal_model_file, "--schema", "J5",
                     "--max-worlds", "0"]) == 2
        assert "cap is 0" in capsys.readouterr().err


class TestBisim:
    def test_partition_output(self, legal_model_file, capsys):
        assert main(["bisim", legal_model_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classes"] == {"a": ["a"], "b": ["b"]}


class TestFiltrate:
    def test_quotient_and_partition(self, legal_model_file, capsys):
        assert main(["filtrate", legal_model_file, "p", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        assert doc["quotient"]["kind"] == "gen"
        assert set(doc["partition"]) == {"a", "b"}

    def test_bad_seed_formula_exit_2(self, legal_model_file):
        assert main(["filtrate", legal_model_file, "p |>"]) == 2

    def test_output_is_pinned_on_100_seeded_models(self, tmp_path):
        """stdout, stderr and exit code of ``filtrate`` in both formats, on
        random generalized models (every fifth one doubled by a bisimilar
        copy, every tenth an ordinary model, refused with exit 2) and one to
        three random seed formulas each, hash to a recorded digest."""
        rng = random.Random(16)
        path = tmp_path / "model.json"
        digest = hashlib.sha256()
        for trial in range(100):
            m = random_ord_model(rng) if trial % 10 == 9 else random_gen_model(rng)
            if trial % 5 == 0:
                m = duplicated_model(m)
            path.write_text(json.dumps(m.to_json()))
            seeds = [str(random_formula(rng, 2, ("p", "q", "r")))
                     for _ in range(rng.randrange(1, 4))]
            for fmt in ("text", "json"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["filtrate", str(path), *seeds, "--format", fmt])
                digest.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
        assert digest.hexdigest() == FILTRATE_DIGEST


class TestCheckProof:
    def test_accepted(self, tmp_path, capsys):
        path = tmp_path / "proof.ilp"
        path.write_text("1. p -> p ; taut\n"
                        "2. [](p -> p) ; nec 1\n"
                        "3. [](p -> p) -> (p |> p) ; ax J1\n"
                        "4. p |> p ; mp 2 3\n")
        assert main(["check-proof", str(path)]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_rejected_with_line(self, tmp_path, capsys):
        path = tmp_path / "proof.ilp"
        path.write_text("1. p |> p ; taut\n")
        assert main(["check-proof", str(path)]) == 1
        out = capsys.readouterr().out
        assert "line 1" in out and "not a classical tautology" in out

    def test_malformed_exit_2(self, tmp_path):
        path = tmp_path / "proof.ilp"
        path.write_text("one. p ; taut\n")
        assert main(["check-proof", str(path)]) == 2

    @pytest.mark.parametrize("line, rest", [
        ("2. p -> p ; nec \u00b2", "bad justification 'nec \u00b2'"),
        ("2. p -> p ; mp 1 \u0661", "bad justification 'mp 1 \u0661'"),
        ("\u0662. p -> p ; nec 1", "expected '<index>. <formula> ; <justification>'"),
    ])
    def test_non_ascii_digits_exit_2(self, line, rest, tmp_path, capsys):
        """A superscript two or an Arabic-Indic digit is no index: the file
        is refused naming the line, with no int() error."""
        path = tmp_path / "proof.ilp"
        path.write_text(f"1. p -> p ; taut\n{line}\n", encoding="utf-8")
        assert main(["check-proof", str(path)]) == 2
        assert capsys.readouterr().err == f"error: bad proof file: line 2: {rest}\n"

    @pytest.mark.parametrize("text", ["", "# comment only\n"])
    def test_no_proof_lines_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "proof.ilp"
        path.write_text(text)
        assert main(["check-proof", str(path)]) == 2
        assert capsys.readouterr().err == "error: bad proof file: no proof lines\n"

    def test_atom_limit_exit_2(self, tmp_path, capsys):
        """A tautology past the truth-table limit is refused, not rejected."""
        path = tmp_path / "proof.ilp"
        conj = " & ".join(f"a{i}" for i in range(21))
        path.write_text(f"1. {conj} -> a0 ; taut\n")
        assert main(["check-proof", str(path), "--format", "json"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: line 1: propositional skeleton has 21 atoms, limit is 20\n"

    def test_unknown_schema_exit_2(self, tmp_path, capsys):
        """An unknown schema name is bad input; a known schema outside the
        logic stays a rejection (test_logic_gate)."""
        path = tmp_path / "proof.ilp"
        path.write_text("1. p -> p ; ax Foo\n")
        assert main(["check-proof", str(path)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: bad proof file: line 1: unknown schema 'Foo'\n")

    def test_logic_gate(self, tmp_path):
        path = tmp_path / "proof.ilp"
        path.write_text("1. (p |> q) -> ((p & []r) |> (q & []r)) ; ax M\n")
        assert main(["check-proof", str(path), "--logic", "ILM"]) == 0
        assert main(["check-proof", str(path), "--logic", "IL"]) == 1


class TestSearch:
    def test_refuted_exit_1(self, capsys):
        rc = main(["search", "--logic", "IL", "--max-worlds", "2", "p |> q",
                   "--format", "json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "refuted"
        assert doc["refuted_at"] == "w0"
        assert doc["countermodel"]["valuation"] == {"p": ["w1"], "q": []}

    def test_no_countermodel_exit_0(self, capsys):
        rc = main(["search", "--logic", "IL", "--max-worlds", "2", "<>p |> p"])
        assert rc == 0
        assert "no countermodel" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        main(["search", "--max-worlds", "3", "p |> q", "--format", "json"])
        first = capsys.readouterr().out
        main(["search", "--max-worlds", "3", "p |> q", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("limit", ["nan", "-0"])
    def test_time_limit_not_positive_exit_2(self, capsys, limit):
        rc = main(["search", "p -> p", "--time-limit", limit])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "time_limit must be positive" in captured.err

    def test_infinite_time_limit_exit_0(self, capsys):
        assert main(["search", "p -> p", "--time-limit", "inf"]) == 0
        assert "no countermodel" in capsys.readouterr().out

    def test_timeout_exit_2(self, capsys):
        rc = main(["search", "--max-worlds", "4", "--time-limit", "1e-9",
                   "<>p |> p"])
        assert rc == 2
        assert "budget" in capsys.readouterr().err


class TestBench:
    def test_agreement_exit_0(self, capsys):
        rc = main(["bench", "--property", "Pgen", "--max-worlds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=1" in out and "n=2" in out

    def test_json_shape(self, capsys):
        main(["bench", "--property", "Mgen", "--max-worlds", "2",
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] is True
        assert [row["n"] for row in doc["sizes"]] == [1, 2]

    def test_every_il_frame_at_4_worlds(self, capsys):
        # every IL frame up to isomorphism
        assert main(["bench", "--property", "Wgen", "--max-worlds", "4",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["frames"] for row in doc["sizes"]] == [1, 2, 8, 85]
        assert doc["sizes"][3] == {"n": 4, "frames": 85, "disagreements": 0}

    @pytest.mark.parametrize("n", ["0", "-1", "5"])
    def test_sizes_outside_enumeration_exit_2(self, n, capsys, monkeypatch):
        def enumerated(*args):
            raise AssertionError("bench enumerated frames before checking its bound")

        monkeypatch.setattr(properties, "correspondence_bench", enumerated)
        assert main(["bench", "--property", "Mgen", "--max-worlds", n,
                     "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"supports 1..4 worlds, got {n}" in err

    @pytest.mark.parametrize("option", [["--samples", "5"], ["--seed", "0"]])
    def test_sampling_options_are_gone(self, option):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--property", "Mgen"] + option)
        assert exc.value.code == 2


class TestStrictModelJson:
    """A string where the model format wants a list is bad input, not a
    sequence of one-character world names."""

    @pytest.mark.parametrize("doc, where", [
        ({"kind": "gen", "worlds": ["w"], "R": [], "S": {},
          "valuation": {"p": "w"}}, "valuation of p"),
        ({"kind": "gen", "worlds": ["w", "u"], "R": [["w", "u"]],
          "S": {"w": {"u": "u"}}}, "S_w images of u"),
        ({"kind": "gen", "worlds": ["w", "u"], "R": [["w", "u"]],
          "S": {"w": {"u": ["u1"]}}}, "S_w image of u"),
    ])
    def test_string_for_list_exit_2(self, tmp_path, capsys, doc, where):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["check-model", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{where} must be a JSON array" in err
        assert "unknown world" not in err

    @pytest.mark.parametrize("doc, where", [
        ({"kind": "gen", "worlds": [["a"], 1, None], "R": [], "S": {}},
         "worlds"),
        ({"kind": "gen", "worlds": ["w", "u"], "R": [["w", 1]], "S": {}},
         "R pair"),
        ({"kind": "ord", "worlds": ["w", "u"], "R": [["w", "u"]],
          "S": {"w": [["u", None]]}}, "S_w pair"),
        ({"kind": "gen", "worlds": ["w", "u"], "R": [["w", "u"]],
          "S": {"w": {"u": [[["u"]]]}}}, "S_w image of u"),
        ({"kind": "gen", "worlds": ["w"], "R": [], "S": {},
          "valuation": {"p": [0]}}, "valuation of p"),
    ])
    def test_non_string_world_name_exit_2(self, tmp_path, capsys, doc, where):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for argv in (["check-model", str(path)], ["model-check", str(path), "p"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{where} must hold world names as JSON strings" in err


DEEP = {
    "negations": "~" * 3000 + "p",
    "parentheses": "(" * 1500 + "p" + ")" * 1500,
    "conjunction chain": " & ".join(["p"] * 3000),
    "implication chain": " -> ".join(["p"] * 3000),
}


class TestNestingBound:
    """Past the parser's nesting bound every subcommand reports bad input."""

    @pytest.mark.parametrize("kind", sorted(DEEP))
    def test_parse_exit_2(self, capsys, kind):
        assert main(["parse", DEEP[kind]]) == 2
        err = capsys.readouterr().err
        assert "syntax error" in err and "exceeds 64" in err

    @pytest.mark.parametrize("argv", [
        ["search", "--max-worlds", "1"], ["model-check", "MODEL"],
        ["filtrate", "MODEL"]])
    def test_formula_subcommands_exit_2(self, legal_model_file, capsys, argv):
        argv = [legal_model_file if a == "MODEL" else a for a in argv]
        assert main(argv + [DEEP["negations"]]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_taut_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "proof.ilp"
        path.write_text("1. " + " | ".join(f"p{i}" for i in range(2000)) + " ; taut\n")
        assert main(["check-proof", str(path)]) == 2
        assert "bad proof file: line 1" in capsys.readouterr().err

    def test_formula_at_the_bound(self, legal_model_file, tmp_path, capsys):
        # 62 negations over p -> p: 64 nodes on the longest path
        src = "~" * 62 + "(p -> p)"
        assert main(["parse", src]) == 0
        assert main(["model-check", legal_model_file, src]) == 0
        assert main(["search", "--max-worlds", "2", src]) == 0
        path = tmp_path / "proof.ilp"
        path.write_text(f"1. {src} ; taut\n")
        assert main(["check-proof", str(path)]) == 0
        capsys.readouterr()
        assert main(["parse", "~" + src]) == 2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "veltman.cli", "parse", "p"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


_IMPORT_SCOPE = """
import contextlib, io, sys

import veltman
from veltman.cli import main

model, proof = sys.argv[1:]
seen = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["parse", "p |> q"], ["check-proof", proof], ["model-check", model, "p |> q"],
                 ["filtrate", model, "p |> q"], ["search", "p |> p", "--max-worlds", "3"],
                 ["search", "p |> q", "--max-worlds", "2"]):
        seen.append((main(argv), "numpy" in sys.modules))
print(seen)
"""


def test_numpy_is_imported_only_by_the_witness_walk(legal_model_file):
    """Parsing, proofs, forcing, filtration and a theorem's search never load
    numpy; the first refuted frame does, to name its witness.  In a fresh
    process, since the test modules import numpy themselves."""
    proof = str(Path(__file__).parent / "proofs" / "pp.ilp")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCOPE, legal_model_file, proof],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[(0, False), (0, False), (1, False), (0, False), (0, False), "
                           "(1, True)]\n")


@pytest.mark.parametrize("doc, first", [
    ({"kind": "gen", "worlds": ["a", "b"], "R": [["a", "x"], ["b", "y"], ["a", "z"]], "S": {}},
     "R edge (a, x) mentions an unknown world"),
    ({"kind": "ord", "worlds": ["a", "b"], "R": [["a", "b"]],
      "S": {"a": [["a", "x"], ["q", "b"], ["b", "z"]]}},
     "S_a pair (a, x) mentions an unknown world"),
], ids=["R-edges", "S-pairs"])
def test_check_model_errors_do_not_depend_on_the_hash_seed(tmp_path, doc, first):
    """Of several bad entries, check-model names the first in document
    order, in every process."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run([sys.executable, "-m", "veltman.cli", "check-model", str(path)],
                              env=dict(os.environ, PYTHONHASHSEED=seed),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, f"error: bad model: {first}\n"), seed


def _ci_filtrate_model():
    """The 256-world model CI filtrates: 32 relabelled copies of an 8-world
    model, which filtrate into 8 classes."""
    base = {"a": "bcdefgh", "b": "cd", "c": "", "d": "", "e": "fgh", "f": "g", "g": "", "h": ""}
    val = {"p": "dh", "q": "gh"}

    def ws(xs, i):
        return [f"{x}{i:02d}" for x in xs]

    return {"kind": "gen", "worlds": [w for i in range(32) for w in ws(base, i)],
            "R": [[f"{x}{i:02d}", y] for i in range(32) for x, ys in base.items()
                  for y in ws(ys, i)],
            "S": {f"a{i:02d}": {f"b{i:02d}": [[f"e{i:02d}"]], f"e{i:02d}": [[f"b{i:02d}"]]}
                  for i in range(32)},
            "valuation": {p: [w for i in range(32) for w in ws(xs, i)] for p, xs in val.items()}}


@pytest.mark.parametrize("argv, rc", [
    (["filtrate", "MODEL", "p |> q", "[]p -> <>q", "--closure", "--format", "json"], 0),
    (["check-proof", str(Path(__file__).parent / "proofs" / "ax_m.ilp"), "--logic", "ILM",
      "--format", "json"], 0),
    (["search", "(p |> q) -> (p & []r |> q & []r)", "--max-worlds", "3", "--format", "json"], 1),
], ids=["filtrate-256", "check-proof", "search"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, argv, rc):
    """Formulas hash by identity, so sets of them iterate in a different
    order in each process; the printed answer must not follow it."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_ci_filtrate_model()))
    argv = [str(path) if a == "MODEL" else a for a in argv]
    runs = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-m", "veltman.cli", *argv],
                              env=dict(os.environ, PYTHONHASHSEED=seed),
                              capture_output=True, text=True)
        runs.add((proc.returncode, proc.stdout))
    assert len(runs) == 1, runs
    assert runs.pop()[0] == rc


def _gen(s, **extra):
    return {"kind": "gen", "worlds": ["w", "u"], "R": [["w", "u"]], "S": s, **extra}


def _ord(s, **extra):
    return {"kind": "ord", "worlds": ["w", "u"], "R": [["w", "u"]], "S": s, **extra}


@pytest.mark.parametrize("doc, argv, rc, out, err", [
    (_gen({"x": {}}), ["check-model", "MODEL"], 2, "",
     "error: bad model: S family keyed by unknown world x\n"),
    (_gen({"w": {"x": [["u"]]}}), ["check-model", "MODEL"], 2, "",
     "error: bad model: S family for w keyed by unknown world x\n"),
    (_gen({"w": {"u": [["u", "x"]]}}), ["check-model", "MODEL"], 2, "",
     "error: bad model: S-image for (w, u) mentions an unknown world\n"),
    (_ord({"x": []}), ["check-model", "MODEL"], 2, "",
     "error: bad model: S relation keyed by unknown world x\n"),
    (_ord({"w": [["u", "x"]]}), ["check-model", "MODEL"], 2, "",
     "error: bad model: S_w pair (u, x) mentions an unknown world\n"),
    (_gen({}, valuation={"p": ["x"]}), ["model-check", "MODEL", "p"], 2, "",
     "error: bad model: valuation of p mentions an unknown world\n"),
    (_ord({"w": [["u", "u"]]}), ["check-model", "MODEL", "--closure"], 2, "",
     "error: bad model: --closure applies to generalized models only\n"),
    (None, ["parse", "bot", "--format", "json"], 0,
     '{\n  "ast": {\n    "op": "bot"\n  },\n  "formula": "bot"\n}\n', ""),
], ids=["S-key", "S-family-key", "S-image", "ord-S-key", "ord-S-pair", "valuation",
        "closure-on-ord", "bot-leaf-json"])
def test_input_checks_exit_code_and_output(tmp_path, capsys, doc, argv, rc, out, err):
    """Each input check, in process: its exit code and exact output."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main([str(path) if a == "MODEL" else a for a in argv]) == rc
    assert capsys.readouterr() == (out, err)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


_TOKENS = ["p", "q", "r", "a", "top", "bot", "~", "&", "|", "->", "|>", "[]", "<>",
           "(", ")", " ", "-", "#", "1."]
_FORMULA_TEXT = st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                          st.text(max_size=16))
_NAMES = st.sampled_from(["a", "b", "c"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _NAMES | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=12)
_MODEL_DOC = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "kind": st.sampled_from(["gen", "ord"]) | _JSON,
        "worlds": st.lists(_NAMES, max_size=3) | _JSON,
        "R": st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=3) | _JSON,
        "S": st.dictionaries(_NAMES, st.dictionaries(_NAMES, st.lists(st.lists(_NAMES))),
                             max_size=2) | _JSON,
        "valuation": st.dictionaries(st.sampled_from(["p", "q"]), st.lists(_NAMES)) | _JSON}))
_MODEL_BYTES = st.one_of(_MODEL_DOC.map(lambda d: json.dumps(d).encode()), st.binary(max_size=24))
_PROOF_TEXT = st.lists(st.one_of(_FORMULA_TEXT.map(lambda t: f"1. {t} ; taut"), st.text(max_size=20)),
                       max_size=3).map("\n".join)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=_MODEL_BYTES, proof=_PROOF_TEXT, text=_FORMULA_TEXT,
       fmt=st.sampled_from(["text", "json"]))
def test_fuzzed_inputs_exit_0_1_or_2(model, proof, text, fmt):
    """Random formula text and random JSON in every model slot, through every
    subcommand: each run returns 0, 1 or 2 and raises nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        model_path, proof_path = Path(tmp) / "model.json", Path(tmp) / "proof.ilp"
        model_path.write_bytes(model)
        proof_path.write_text(proof, encoding="utf-8", errors="surrogatepass")
        m, f = str(model_path), ["--", text]
        runs = [["parse"] + f, ["check-model", m], ["check-model", m, "--closure"],
                ["model-check", m] + f, ["model-check", m, "--world", "a"] + f,
                ["check-property", m, "--property", "Wgen"],
                ["schema-valid", m, "--schema", "M"], ["bisim", m], ["filtrate", m] + f,
                ["check-proof", str(proof_path)], ["search", "--max-worlds", "2"] + f,
                ["bench", "--property", "Mgen", "--max-worlds", "1"]]
        for argv in runs:
            argv = argv[:1] + ["--format", fmt] + argv[1:]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
