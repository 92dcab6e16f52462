"""veltman benchmark: time to a correct verdict on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {search,filtrate,cli} --seed N \\
        --seconds S --trace {0,1}

search    countermodel_search(f, logic, max_worlds=4) across the eight logics
filtrate  filtrate(m, d_closure(seeds)) followed by verify_filtration
cli       one in-process veltman.cli.main([...,"--format","json"]) call

Each workload runs in its own fresh process (worker.py) with one client and
one thread, in a closed loop over whole blocks of generated inputs.  Every
answer is checked against an expectation fixed when the input was built,
and re-checked with the naive semantics in naive.py and the brute frame
conditions of tests/reference.py.  With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from
spans recorded around calls into each module (spans.py).  Earlier lines
give a readable summary, the input digest and the composition record.

End-to-end times are reported at the reference machine's speed.  Right
before and right after each operation the worker samples how much slower
than that machine the process runs (worker.Calibration); each operation's
wall time is divided by the mean of the two samples (in search, by the
median over its block), and set-up time by the slowdown measured around
it.  On a shared host the machine's speed
swings by a third within seconds, which moves raw wall times as much as a
real change would.  The raw wall-time figures are printed in the report
line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8
# The worker gets this long, plus twice --seconds, before it is killed.  It
# covers set-up, the last block past --seconds and, with --trace 1, the
# traced pass, whose size is fixed (worker.traced_operations).
TIMEOUT_MARGIN_S = 120


def _worker(args, extra, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(latencies, setups, peak_rss_mb):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/veltman/__init__.py", "tests/reference.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found; run from the root of a veltman checkout",
                  file=sys.stderr)
            return 2

    ops = gen.generate(args.workload, args.seed)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for op in ops:
            for name, text in op.get("files", {}).items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        extra = ["--workdir", workdir]
        probes = [_worker(args, extra + ["--setup-only"], 60) for _ in range(SETUP_PROBES)]
        res = _worker(args, extra + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)],
                      TIMEOUT_MARGIN_S + 2 * args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    latencies = res["latencies"]
    attempted, failed = len(latencies), len(res["failures"])
    probes.append(res)
    setups = [p["setup_s"] for p in probes]
    report = {"workload": args.workload, "seed": args.seed, "inputs_sha256": gen.digest(ops),
              "samples": attempted, "failed_share": failed / attempted}
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = end_to_end([t / s for t, s in zip(latencies, res["slowdowns"])],
                             [p["setup_s"] / p["setup_slowdown"] for p in probes],
                             res["peak_rss_mb"])
        report["wall"] = {name: value for name, (value, unit) in
                          end_to_end(latencies, setups, res["peak_rss_mb"]).items()}
        report["slowdown"] = statistics.median(res["slowdowns"])
    composition = gen.composition(args.workload, ops)
    if res["gamma_sizes"]:
        composition["mean_gamma"] = round(statistics.mean(res["gamma_sizes"]), 2)
    report.update(composition=composition, failures=res["failures"][:5])
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
