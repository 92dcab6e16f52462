"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They cover the generators, the answer checkers, the span arithmetic and the
tracer's patching, and that run.py prints exactly the metrics listed in
BENCHMARK.json.  The last two tests run the benchmark briefly.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import formulas as F  # noqa: E402
import gen  # noqa: E402
import naive  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import veltman  # noqa: E402


def _run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          capture_output=True, text=True, timeout=170)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.PLANS:
            self.assertEqual(gen.digest(gen.generate(workload, 7)),
                             gen.digest(gen.generate(workload, 7)))
            self.assertNotEqual(gen.digest(gen.generate(workload, 7)),
                                gen.digest(gen.generate(workload, 8)))

    def test_inputs_do_not_depend_on_the_hash_seed(self):
        code = ("import gen; print([gen.digest(gen.generate(w, 3)) for w in sorted(gen.PLANS)])")
        outs = {subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                               text=True, env=dict(os.environ, PYTHONHASHSEED=h)).stdout
                for h in ("1", "2", "3")}
        self.assertEqual(len(outs), 1)

    def test_composition_does_not_depend_on_the_seed(self):
        for workload in gen.PLANS:
            shares = {json.dumps(gen.composition(workload, gen.generate(workload, s))["group_share"])
                      for s in (1, 2, 3)}
            self.assertEqual(len(shares), 1)

    def test_generated_models_are_legal(self):
        for op in gen.generate("filtrate", 1)[:15]:
            self.assertEqual(naive.Model(op["model"]).violations(), set())
        for op in gen.generate("cli", 1)[:15]:
            if op["group"] == "model-check" and "--closure" not in op["argv"]:
                doc = json.loads(next(iter(op["files"].values())))
                self.assertEqual(naive.Model(doc).violations(), set())

    def test_naive_forcing_agrees_with_veltman_on_legal_models(self):
        ops = gen.generate("cli", 2)
        for op in ops:
            if op["group"] != "model-check" or "--closure" in op["argv"]:
                continue
            doc = json.loads(next(iter(op["files"].values())))
            term = F.from_veltman(veltman.parse(op["formula"]))
            m = veltman.model_from_json(doc)
            self.assertEqual(naive.Model(doc).truth(term),
                             m.truth_set(veltman.parse(op["formula"])))


class Checkers(unittest.TestCase):
    def setUp(self):
        self.search = worker.Search(veltman)

    def _refuted_m(self):
        """The IL instance of M, with veltman's countermodel to it."""
        op = next(op for op in gen.generate("search", 1)
                  if op["logic"] == "IL" and op["expect"] == "refuted")
        return op, self.search.run(op, veltman.parse(op["formula"]))

    def test_search_checker_accepts_the_real_countermodel(self):
        op, verdict = self._refuted_m()
        self.assertIsNone(self.search.check(op, verdict))

    def test_search_checker_flags_a_planted_wrong_countermodel(self):
        # Same frame with every variable true everywhere: both sides of the
        # M instance hold, so the named world no longer refutes it.
        op, verdict = self._refuted_m()
        model = verdict.model
        everywhere = veltman.GenModel(model.frame, {p: model.worlds for p in F.variables(op["term"])})
        note = self.search.check(op, veltman.Refuted(everywhere, verdict.world))
        self.assertIn("not false", note)

    def test_search_checker_flags_an_illegal_frame(self):
        op, verdict = self._refuted_m()
        doc = verdict.model.to_json()
        doc["S"] = {}  # drops u S_w {u}: quasi-reflexivity fails
        wrong = veltman.Refuted(veltman.model_from_json(doc), verdict.world)
        self.assertIn("frame clauses", self.search.check(op, wrong))

    def test_search_checker_flags_a_frame_outside_the_logic(self):
        # The IL countermodel to M fails Mgen, so it is no ILM frame.
        op, verdict = self._refuted_m()
        self.assertIn("Mgen", self.search.check(dict(op, logic="ILM"), verdict))

    def test_search_checker_flags_a_missing_countermodel(self):
        op, _ = self._refuted_m()
        self.assertIsNotNone(self.search.check(op, veltman.NoCountermodelUpTo(4)))

    def test_cli_checker_flags_a_planted_wrong_exit_code(self):
        cli = worker.Cli(veltman, "")
        op = next(o for o in gen.generate("cli", 1) if o["group"] == "proof" and o["code"] == 1)
        out = json.dumps({"accepted": False, "line": op["expect"]["line"]})
        self.assertIsNone(cli.check(op, (1, out, "")))
        self.assertIn("exit code", cli.check(op, (0, out, "")))

    def test_cli_checker_flags_a_wrong_model_check_answer(self):
        cli = worker.Cli(veltman, "")
        op = next(o for o in gen.generate("cli", 1) if "forced" in o["expect"]
                  and isinstance(o["expect"]["forced"], dict))
        table = dict(op["expect"]["forced"])
        self.assertIsNone(cli.check(op, (op["code"], json.dumps({"forced": table}), "")))
        first = next(iter(table))
        table[first] = not table[first]
        self.assertIsNotNone(cli.check(op, (op["code"], json.dumps({"forced": table}), "")))


class Spans(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        # a: 0..10 with children b: 1..4, c: 3..6 (overlaps b, so the
        # children cover 1..6) and e: 9..12 (only 9..10 lies inside a);
        # d: 2..3 is a child of b.
        starts = [0.0, 1.0, 2.0, 3.0, 9.0]
        ends = [10.0, 4.0, 3.0, 6.0, 12.0]
        parents = [-1, 0, 1, 0, 0]
        self.assertEqual(list(spans.self_times(starts, ends, parents)), [4.0, 2.0, 1.0, 3.0, 3.0])

    def test_install_wraps_every_import_site_and_records_outermost_calls(self):
        decide, properties = sys.modules["veltman.decide"], sys.modules["veltman.properties"]
        original = properties.frame_validates
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIs(decide.frame_validates, properties.frame_validates)
            self.assertIsNot(decide.frame_validates, original)
            tracer.op = 0
            f = veltman.parse("[](p -> q) -> ([]p -> []q)")
            veltman.normalize(f)
            veltman.countermodel_search(f, "IL", veltman.SearchBudget(max_worlds=2))
            tracer.op = None
        finally:
            tracer.uninstall()
        self.assertIs(decide.frame_validates, original)
        names = [tracer.names[i] for i in tracer.name_ids]
        self.assertEqual(names.count("formula.normalize"), 1)
        self.assertEqual(names.count("properties.frame_validates"), 1 + 2)
        self.assertEqual(tracer.counts["decide.frames_yielded"], 3)
        search = names.index("decide.countermodel_search")
        self.assertTrue(all(p == search for n, p in zip(names, tracer.parents)
                            if n == "properties.frame_validates"))


class Measurement(unittest.TestCase):
    def test_traced_pass_is_whole_blocks_past_the_minimum(self):
        for plan in gen.PLANS.values():
            n = worker.traced_operations(len(plan))
            self.assertEqual(n % len(plan), 0)
            self.assertTrue(worker.MIN_OPERATIONS <= n < worker.MIN_OPERATIONS + len(plan))

    def test_no_collection_falls_inside_a_calibration_sample(self):
        calibration = worker.Calibration(arrays=True)
        collections = []
        threshold = gc.get_threshold()
        gc.set_threshold(10)
        gc.callbacks.append(lambda phase, info: collections.append(phase))
        try:
            self.assertGreater(calibration.slowdown(), 0)
        finally:
            gc.callbacks.pop()
            gc.set_threshold(*threshold)
        self.assertEqual(collections, [])
        self.assertTrue(gc.isenabled())


class Command(unittest.TestCase):
    def test_prints_exactly_the_listed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run("--workload", "cli", "--seed", "1", "--seconds", "1",
                        "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({m: v["unit"] for m, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in bench[key]})
            if trace:
                # the traced pass has a fixed size, however short --seconds is
                self.assertEqual(result["metrics"]["trace.operations"]["value"],
                                 worker.traced_operations(len(gen.PLANS["cli"])))

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
