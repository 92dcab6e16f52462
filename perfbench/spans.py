"""Spans around calls into veltman's public functions, installed from outside.

``Tracer.install`` replaces each target function at every module attribute
that holds it (``frame_validates`` in both ``veltman.properties`` and
``veltman.decide``, for example), and methods on their class.  A call made
while the same function is already open is not recorded, so a recursive
function such as ``normalize`` or ``GenModel.truth_set`` yields one span
for its outermost call.  Each ``next()`` on ``enumerate_frames`` is one
span.  Spans (name, start, end, parent, operation id) stay in memory until
``write`` is called; a span's self time is its duration minus the part of
it that its child spans cover.
"""

import functools
import gzip
import importlib
import json
import sys
import time
from array import array


def _count_yield(tracer, args, out):
    tracer.counts["decide.frames_yielded"] += 1


def _count_valuations(tracer, args, out):
    assignment = args[2]
    tracer.counts["properties.valuations_evaluated"] += (
        next(iter(assignment.values())).size if assignment else 1)


def _count_holds(tracer, args, out):
    tracer.counts["properties.check_property.holds"] += bool(out.holds)


def _count_members(tracer, args, out):
    tracer.counts["formula.adequate_set.members"] += len(out)


def _count_classes(tracer, args, out):
    tracer.counts["bisim.worlds_in"] += len(args[0].worlds)
    tracer.counts["bisim.classes_out"] += len(out.classes)


def _count_quotient(tracer, args, out):
    tracer.counts["filtration.quotient_worlds"] += len(out.quotient.worlds)


# (span name, module, class or None, attribute, counter hook, is a generator)
TARGETS = (
    ("decide.countermodel_search", "decide", None, "countermodel_search", None, False),
    ("decide.enumerate_frames", "decide", None, "enumerate_frames", _count_yield, True),
    ("properties.frame_validates", "properties", None, "frame_validates", None, False),
    ("properties.TruthTables.init", "properties", "TruthTables", "__init__", None, False),
    ("properties.TruthTables.evaluate", "properties", "TruthTables", "evaluate",
     _count_valuations, False),
    ("properties.check_property", "properties", None, "check_property", _count_holds, False),
    ("formula.parse", "formula", None, "parse", None, False),
    ("formula.normalize", "formula", None, "normalize", None, False),
    ("formula.d_closure", "formula", None, "d_closure", None, False),
    ("formula.adequate_set", "formula", None, "adequate_set", _count_members, False),
    ("formula.subformulas", "formula", None, "subformulas", None, False),
    ("model.GenModel.truth_set", "model", "GenModel", "truth_set", None, False),
    ("model.model_from_json", "model", None, "model_from_json", None, False),
    ("model.validate", "model", None, "validate", None, False),
    ("model.close_s", "model", None, "close_s", None, False),
    ("model.gen_of_ordinary", "model", None, "gen_of_ordinary", None, False),
    ("bisim.largest_autobisimulation", "bisim", None, "largest_autobisimulation",
     _count_classes, False),
    ("filtration.filtrate", "filtration", None, "filtrate", _count_quotient, False),
    ("filtration.verify_filtration", "filtration", None, "verify_filtration", None, False),
    ("hilbert.parse_proof", "hilbert", None, "parse_proof", None, False),
    ("hilbert.check_proof", "hilbert", None, "check_proof", None, False),
    ("hilbert.match_schema", "hilbert", None, "match_schema", None, False),
    ("hilbert.is_classical_tautology", "hilbert", None, "is_classical_tautology", None, False),
    ("cli.main", "cli", None, "main", None, False),
)

COUNTERS = ("decide.frames_yielded", "properties.valuations_evaluated",
            "properties.check_property.holds", "formula.adequate_set.members",
            "bisim.worlds_in", "bisim.classes_out", "filtration.quotient_worlds")


class Tracer:
    """Spans are kept column-wise in typed arrays, about 30 bytes each: a
    filtrate run records close to two million of them."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.ops = array("q")  # operation id
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = None  # spans are recorded only while an operation runs
        self._stack = []
        self._open = {}
        self._patches = []

    def _enter(self, name):
        idx = len(self.starts)
        self.name_ids.append(self._ids[name])
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._open[name] = self._open.get(name, 0) + 1
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[self.name_ids[idx]]] -= 1

    def _records(self, name):
        return self.op is not None and not self._open.get(name)

    def wrap(self, name, fn, hook=None, generator=False):
        tracer = self
        if generator:
            def wrapper(*args, **kwargs):
                return tracer._iterate(name, fn(*args, **kwargs), hook, args)
        else:
            def wrapper(*args, **kwargs):
                if not tracer._records(name):
                    return fn(*args, **kwargs)
                idx = tracer._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit(idx)
                if hook is not None:
                    hook(tracer, args, out)
                return out
        return functools.wraps(fn)(wrapper)

    def _iterate(self, name, gen, hook, args):
        while True:
            idx = self._enter(name) if self._records(name) else None
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if idx is not None:
                    self._exit(idx)
            if hook is not None and idx is not None:
                hook(self, args, item)
            yield item

    def install(self):
        """Wrap every target wherever veltman's modules hold it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "veltman" or key.startswith("veltman."))]
        for name, module, cls, attr, hook, generator in TARGETS:
            owner = importlib.import_module(f"veltman.{module}")
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self._patch(klass, attr, self.wrap(name, original, hook, generator))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook, generator)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def write(self, path):
        """Gzipped text: a JSON list of span names, then one line per span
        with name index, start, end, parent index and operation id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(self.names) + "\n")
            for row in zip(self.name_ids, self.starts, self.ends, self.parents, self.ops):
                fh.write("%d %.9f %.9f %d %d\n" % row)


def self_times(starts, ends, parents):
    """Each span's duration minus the union of its children's intervals.

    Spans must be in order of their start, as the tracer records them, so
    that each parent's children arrive in start order."""
    covered = array("d", bytes(8 * len(starts)))
    reach = array("d", starts)
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo, hi = max(starts[i], reach[p]), min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered[i] = e - s - covered[i]
    return covered


def layer_metrics(tracer):
    """calls and self_s for every target, plus the counters."""
    calls = [0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    for name_id, own in zip(tracer.name_ids,
                            self_times(tracer.starts, tracer.ends, tracer.parents)):
        calls[name_id] += 1
        self_s[name_id] += own
    out = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = (calls[i], "count")
        out[f"{name}.self_s"] = (self_s[i], "s")
    counts = dict(tracer.counts)
    checked = calls[tracer.names.index("properties.check_property")]
    holds = counts.pop("properties.check_property.holds")
    out["properties.check_property.holds_share"] = (holds / checked if checked else 0.0, "ratio")
    for name, value in counts.items():
        out[name] = (value, "count")
    return out
