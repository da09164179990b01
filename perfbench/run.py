"""Benchmark: time to a verified Betti table on four workloads of CLI requests.

    python3 perfbench/run.py --workload sweep-verify --seed 1 --seconds 24 --trace 0

One process, one client, a closed loop: the workload's fixed case list
(perfbench/workloads.py) runs through `bettiforge.cli.main` one request after
another, in an order shuffled by --seed, pass after pass for --seconds seconds
(always at least one pass). Each request starts from empty program caches,
as in a fresh CLI process, so no latency depends on the order. Every output
is checked against perfbench/reference.py; setup_s is the median over fresh
processes of the time to import the program and build the case list. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of perfbench/spans.py with --trace 1. A
traced run spends half its time untraced, to measure the tracing overhead,
and half with every layer wrapped; the spans go to .perfbench/.

--smoke swaps in a tiny case list of the same request kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Reference
from workloads import WORKLOADS, build_cases

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

# name -> unit, as listed in BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def limit_blas_threads():
    """Cap every BLAS thread variable at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, ncpu))
        except ValueError:
            want = ncpu
        os.environ[var] = str(max(1, min(want, ncpu)))
    return ncpu


def setup_seconds(args, count):
    """Median over fresh processes of the time from spawn to a built case list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def clear_program_caches():
    """Empty every functools cache in the program, as in a fresh CLI process."""
    for name, module in list(sys.modules.items()):
        if name == "bettiforge" or name.startswith("bettiforge."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(cli, cases, outputs):
    """One request after another; returns the latency of each."""
    latencies = []
    for case in cases:
        clear_program_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(case.argv))
            except Exception as exc:  # a crashing request is a failed request
                code = repr(exc)
            latencies.append(time.perf_counter() - t0)
        outputs.append((case, code, out.getvalue()))
    return latencies


def run_passes(cli, cases, rng, budget, outputs, tracer=None):
    """Passes while the next one is expected to end within `budget` seconds.

    A pass takes the sum of its request latencies, which leaves out the
    harness's own work between requests. Returns (pass seconds, all
    latencies, spans of each pass when traced).
    """
    walls, latencies, spans = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= budget:
        order = list(cases)
        rng.shuffle(order)
        lat = run_pass(cli, order, outputs)
        walls.append(sum(lat))
        latencies += lat
        if tracer is not None:
            spans.append(tracer.take())
    return walls, latencies, spans


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_note(args, ncpu):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "nproc": ncpu, "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": openblas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "commit": git_commit(), "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def traced_run(cli, cases, rng, args, outputs):
    """Untraced passes, then traced ones.

    Returns (per-layer metrics, self-check problems, seconds of every pass).
    """
    import spans as tracing

    plain, _, _ = run_passes(cli, cases, rng, args.seconds / 2, outputs)
    with tracing.Tracer() as tracer:
        traced, _, per_pass = run_passes(cli, cases, rng, args.seconds / 2, outputs, tracer)
    layer_runs = [tracing.layer_metrics(s) for s in per_pass]
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    problems = tracing.self_check(args.workload, metrics, traced, per_pass)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}.jsonl", "w") as fh:
        for number, spans in enumerate(per_pass):
            for s in spans:
                fh.write(json.dumps([number, s.layer, s.start, s.end, s.parent, s.attrs]) + "\n")
    shares = tracing.self_time_shares(per_pass[0])
    total = sum(own for _, own in shares) or 1.0
    print("# self time by layer, first traced pass:", file=sys.stderr)
    for layer, own in shares:
        print(f"#   {layer:28s} {own:10.4f} s {100 * own / total:6.1f} %", file=sys.stderr)
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    return ({name: (value, units[name]) for name, value in metrics.items()}, problems,
            plain + traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny case lists, one setup probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ncpu = limit_blas_threads()
    if not (SRC / "bettiforge" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'bettiforge'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bettiforge.cli as cli

    cases = build_cases(args.workload, args.smoke)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    rng = random.Random(args.seed)
    outputs = []
    latency = {}
    if args.trace:
        metrics, problems, walls = traced_run(cli, cases, rng, args, outputs)
    else:
        setup_s = setup_seconds(args, 1 if args.smoke else SETUP_PROBES)
        walls, latencies, _ = run_passes(cli, cases, rng, args.seconds, outputs)
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        problems = []
        # On the note line only: where a workload has three or four distinct
        # requests, each percentile is one request's latency, and its ten-run
        # spread went past the largest bound a metric may have.
        latency = {"case_p50_s": statistics.median(latencies),
                   "case_p90_s": percentile(latencies, 0.9)}

    reference = Reference()
    failures = [(case, why) for case, code, out in outputs
                if (why := reference.mismatch(case, code, out)) is not None]
    for case, why in failures[:10]:
        print(f"mismatch: {case.key}: {why}", file=sys.stderr)
    for problem in problems:
        print(f"trace self-check failed: {problem}", file=sys.stderr)

    note = machine_note(args, ncpu)
    note.update(pass_s=walls, **latency, requests=len(outputs),
                error_rate=len(failures) / len(outputs))
    print("# " + json.dumps(note))
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": len(outputs), "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
