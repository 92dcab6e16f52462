"""One workload in a fresh process: set up, run whole blocks, check answers.

Run by run.py, which passes the checkout root; prints one JSON object on its
last line of standard output.  Set-up time runs from the first import of
veltman to the end of loading the workload's inputs through the program's
own loaders (parse, model_from_json, parse_proof); generating the inputs is
the benchmark's work and happens before it.  With --setup-only the process
stops there and reports only that time.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import formulas as F
import gen
import naive
import spans

MIN_OPERATIONS = 100


class Search:
    arrays = True  # frame_validates sweeps valuations with numpy array passes

    def __init__(self, v):
        self.v = v

    def load(self, ops):
        return [self.v.parse(op["formula"]) for op in ops]

    def run(self, op, formula):
        return self.v.countermodel_search(formula, op["logic"], self.v.SearchBudget(max_worlds=4))

    def check(self, op, verdict):
        if op["expect"] == "none":
            if not isinstance(verdict, self.v.NoCountermodelUpTo) or verdict.max_worlds != 4:
                return f"expected no countermodel up to 4 worlds, got {verdict!r}"
            return None
        if not isinstance(verdict, self.v.Refuted):
            return f"expected a countermodel, got {verdict!r}"
        model = naive.Model(verdict.model.to_json())
        bad = model.violations()
        if bad:
            return f"countermodel breaks frame clauses {sorted(bad)}"
        from reference import BRUTE  # tests/ is on the path after set-up
        for cond in F.CONDITIONS[op["logic"]]:
            if not BRUTE[cond](verdict.model.frame):
                return f"countermodel frame fails {cond}"
        if verdict.world not in model.worlds or verdict.world in model.truth(op["term"]):
            return f"formula is not false at {verdict.world}"
        return None


class Filtrate:
    arrays = False

    def __init__(self, v):
        self.v = v
        self.gamma_sizes = []  # |adequate set| of each checked filtration

    def load(self, ops):
        return [(self.v.model_from_json(op["model"]), [self.v.parse(s) for s in op["seeds"]])
                for op in ops]

    def run(self, op, item):
        model, seeds = item
        result = self.v.filtrate(model, self.v.d_closure(seeds))
        return result, self.v.verify_filtration(model, result)

    def check(self, op, answer):
        result, disagreement = answer
        if disagreement is not None or result.violations:
            return f"veltman reports {disagreement} / {result.violations}"
        quotient = naive.Model(result.quotient.to_json())
        bad = quotient.violations()
        if bad:
            return f"quotient breaks frame clauses {sorted(bad)}"
        origin = naive.Model(op["model"])
        gamma = {F.from_veltman(f) for f in result.gamma}
        seeds = {F.from_veltman(self.v.parse(s)) for s in op["seeds"]}
        if not seeds <= gamma:
            return "adequate set misses a seed"
        class_of = result.partition.class_of
        for f in gamma:
            kept = quotient.truth(f)
            if origin.truth(f) != {w for w in origin.worlds if class_of[w] in kept}:
                return f"quotient disagrees with the model on {F.render(f)}"
        self.gamma_sizes.append(len(result.gamma))
        return None


class Cli:
    arrays = False

    def __init__(self, v, workdir):
        self.v = v
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def load(self, ops):
        """Load every input file and formula once, as set-up; cli.main reads
        its files again on each call, so only the argv lists are kept."""
        for op in ops:
            for name in op.get("proofs", ()):
                with open(self.path(name), encoding="utf-8") as fh:
                    self.v.parse_proof(fh.read())
            for name in op.get("models", ()):
                with open(self.path(name), encoding="utf-8") as fh:
                    self.v.model_from_json(json.load(fh))
            if "formula" in op:
                self.v.parse(op["formula"])
        return [[self.path(a) if a in op["files"] else a for a in op["argv"]] for op in ops]

    def run(self, op, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.v.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, answer):
        code, out, err = answer
        if code != op["code"]:
            return f"exit code {code}, expected {op['code']} ({err.strip()[:200]})"
        doc = json.loads(out)
        want = op["expect"]
        if "accepted" in want:
            got = {k: doc.get(k) for k in want}
        elif "legal" in want:
            got = {"legal": doc.get("legal"),
                   "clause": want["clause"] if want["clause"] in
                   {v["clause"] for v in doc.get("violations", ())} else None}
        else:
            got = doc
        return None if got == want else f"output {got}, expected {want}"


class Calibration:
    """How much slower than the reference machine this process runs now.

    A shared host's speed swings by a third within seconds, and the swings
    move pure-Python work and numpy array passes by different amounts.
    ``slowdown`` times a fixed Python loop and, for a workload whose
    operations make array passes (search), a fixed set of passes over
    65,536-entry arrays, each against its time on the reference machine (a
    2-vCPU x86-64 container, Python 3.11, numpy 2.4), and averages them.
    The samples run with the collector off, and free all they allocate
    before it is back on, so that no collection of the program's live heap
    falls inside them: they measure the host's speed, not that heap.
    """

    PYTHON_REFERENCE_S = 0.002
    ARRAY_REFERENCE_S = 0.0018

    def __init__(self, arrays):
        self.arrays = None
        if arrays:
            import numpy as np
            a = np.arange(65536, dtype=np.int64)
            self.arrays = (np, a, np.empty_like(a), np.empty_like(a))

    def slowdown(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._sample()
        finally:
            if enabled:
                gc.enable()

    def _sample(self):
        start = time.perf_counter()
        counts = {}  # hashing and small allocations, as in veltman's own work
        for i in range(3000):
            key = frozenset((i % 7, i % 11, i % 13))
            counts[key] = counts.get(key, 0) + len(key)
        factor = (time.perf_counter() - start) / self.PYTHON_REFERENCE_S
        if self.arrays is None:
            return factor
        np, a, b, c = self.arrays
        start = time.perf_counter()
        for _ in range(16):
            np.bitwise_xor(a, 12345, out=b)
            np.right_shift(a, 1, out=c)
            np.bitwise_and(b, c, out=b)
            np.bitwise_or(b, a, out=c)
        return (factor + (time.perf_counter() - start) / self.ARRAY_REFERENCE_S) / 2


def setup(workload, ops, workdir):
    """Import veltman and load the inputs; returns (runner, items, seconds)."""
    start = time.perf_counter()
    import veltman
    import veltman.cli
    runner = {"search": lambda: Search(veltman), "filtrate": lambda: Filtrate(veltman),
              "cli": lambda: Cli(veltman, workdir)}[workload]()
    items = runner.load(ops)
    return runner, items, time.perf_counter() - start


def measure(runner, ops, items, seconds, block, tracer=None, limit=None):
    """Closed loop with one client: run operations in order, whole blocks at
    a time, until ``seconds`` have passed and at least MIN_OPERATIONS ran
    (or exactly ``limit`` operations).  Inputs are reloaded, untimed, when
    the generated ones run out.  The machine's slowdown is sampled right
    before and right after each operation, and their mean kept for it
    (for array work, the block's median); returns (latencies, slowdowns,
    failures)."""
    latencies, slowdowns, failures = [], [], []
    calibration = Calibration(runner.arrays)
    start = time.perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i % block == 0 and i >= MIN_OPERATIONS and time.perf_counter() - start >= seconds:
            break
        idx = i % len(ops)
        if idx == 0 and i:
            items = runner.load(ops)
        op, item = ops[idx], items[idx]
        items[idx] = None  # drop the input (and any memo it holds) once used
        before = calibration.slowdown()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            answer = runner.run(op, item)
        except Exception as exc:  # a raised operation is a failed one
            answer = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        slowdowns.append((before + calibration.slowdown()) / 2)
        if isinstance(answer, Exception):
            note = f"raised {type(answer).__name__}: {answer}"
        else:
            try:
                note = runner.check(op, answer)
            except Exception as exc:  # malformed output counts as a wrong answer
                note = f"check raised {type(exc).__name__}: {exc}"
        if note is not None:
            failures.append(f"op {idx} ({op['group']}): {note}")
        i += 1
    if runner.arrays:
        # One sample of mixed Python and array work says little about the
        # mix inside a single long search; the block's median says more.
        slowdowns = [statistics.median(slowdowns[j - j % block:j - j % block + block])
                     for j in range(len(slowdowns))]
    return latencies, slowdowns, failures


def traced_operations(block):
    """Operations in a traced pass: the first block boundary at or past
    MIN_OPERATIONS."""
    return -(-MIN_OPERATIONS // block) * block


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(gen.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = gen.generate(args.workload, args.seed)
    sys.path.insert(0, os.path.join(args.root, "src"))
    calibration = Calibration(arrays=False)  # numpy is not imported before set-up
    before = statistics.median(calibration.slowdown() for _ in range(5))
    runner, items, setup_s = setup(args.workload, ops, args.workdir)
    after = statistics.median(calibration.slowdown() for _ in range(5))
    out = {"setup_s": setup_s, "setup_slowdown": (before + after) / 2}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    sys.path.insert(0, os.path.join(args.root, "tests"))
    block = len(gen.PLANS[args.workload])
    if not args.trace:
        latencies, slowdowns, failures = measure(runner, ops, items, args.seconds, block)
        out.update(latencies=latencies, slowdowns=slowdowns)
    else:
        # Untraced for half the time, then the first ``traced_operations``
        # of those operations again, traced, on freshly loaded inputs.  That
        # count is fixed per workload, so the per-layer counts do not depend
        # on --seconds or on the host's speed.  The untraced pass always
        # covers those operations (it stops at a block boundary at or past
        # MIN_OPERATIONS); the overhead compares the two over them.
        n = traced_operations(block)
        plain, _, failures = measure(runner, ops, items, args.seconds / 2, block)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _, more = measure(runner, ops, runner.load(ops), 0, block,
                                      tracer=tracer, limit=n)
        finally:
            tracer.uninstall()
        failures += more
        layers = spans.layer_metrics(tracer)
        layers["trace.operations"] = (len(traced), "count")
        layers["trace.spans"] = (len(tracer.starts), "count")
        layers["trace.overhead_s"] = (sum(traced) - sum(plain[:n]), "s")
        out["per_layer"] = layers
        out["latencies"] = plain + traced
        outdir = os.path.join(args.root, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        tracer.write(os.path.join(outdir, f"spans-{args.workload}.txt.gz"))
    out["failures"] = failures
    out["gamma_sizes"] = getattr(runner, "gamma_sizes", [])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
