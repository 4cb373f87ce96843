"""Benchmark of polyplane: end-to-end and per-layer figures on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload

One workload runs per process, as one closed-loop client on one thread,
against the sources in ``src/`` next to this directory.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NAMES = ("render_taps", "render_bands", "torus_algebra", "sequence_fold")
PROBES_PER_ROUND = 2  # set-up probes after each round of the timed loop (a run has at least 5 rounds)
MAX_LOOP_S = 120.0  # the timed loop stops here even short of its minimum sample count

PROBE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import polyplane
{prep}
print(time.perf_counter() - t0)
"""

PER_LAYER_MS = [
    "cli.self", "dsl.parse", "dsl.evaluate", "series.eval_term", "poly.add", "poly.mul",
    "ring.reduce", "ring.inverse", "ring.annihilator", "ring.order",
    "render.ascii", "render.pbm", "render.svg",
    "sequences.dseq", "sequences.lfsr", "sequences.period",
    "folding.fold", "folding.unfold", "ordering.encode", "ordering.decode",
]
PER_LAYER_COUNTS = [
    "series.window_cells", "series.lit_cells", "poly.add_calls", "poly.mul_calls",
    "ring.order_steps", "render.bytes_out", "sequences.bits_out",
]


def setup_probes(prep: str, importtime: bool, count: int) -> list:
    """Set-up seconds in `count` fresh processes, or polyplane's own import ms with importtime."""
    code = PROBE.format(src=SRC, prep=prep)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    results = []
    for _ in range(count):
        proc = subprocess.run(cmd + ["-c", code], capture_output=True, text=True, env=env, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if importtime:
            own = 0
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if line.startswith("import time:") and fields[-1].strip().startswith("polyplane"):
                    own += int(fields[0].split(":")[1])
            results.append(own / 1000)
        else:
            results.append(float(proc.stdout.split()[-1]))
    return results


def percentile(sorted_ns: list, pct: int) -> float:
    """Nearest-rank percentile, in ms."""
    return sorted_ns[max(0, -(-pct * len(sorted_ns) // 100) - 1)] / 1e6


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "polyplane", "__init__.py")):
        print(f"error: no polyplane sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    import polyplane
    if os.path.dirname(os.path.abspath(polyplane.__file__)) != os.path.join(SRC, "polyplane"):
        print(f"error: imported polyplane from {polyplane.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    setup_probes(wl.prep, importtime=False, count=1)  # warm-up: writes the bytecode cache
    pool = wl.inputs(random.Random(args.seed))

    try:
        wl.run(pool[0])  # warm-up: one untimed operation
    except Exception:
        traceback.print_exc()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    min_samples = -(-1000 // (100 - wl.tail_pct))  # ten samples beyond the tail percentile
    samples, setup, rounds = [], [], 0
    seen = [collections.Counter() for _ in pool]  # hashes of each input's timed outputs
    clock = time.perf_counter_ns
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of the program's collections
    busy = 0  # ns spent in rounds; the set-up probes between rounds are not counted
    while True:  # whole rounds only, so the failed share is the same in every run
        start = clock()
        for k, inp in enumerate(pool):
            if tracer:
                tracer.begin_op()
            t0 = clock()
            try:
                out = wl.run(inp)
            except Exception:
                out = None
                traceback.print_exc()
            t1 = clock()
            if tracer:
                tracer.end_op()
            samples.append(t1 - t0)
            seen[k][None if out is None else wl.fingerprint(out)] += 1
        rounds += 1
        busy += clock() - start
        elapsed = busy / 1e9
        # Set-up is probed between rounds, so that it samples the machine over the whole run.
        setup += setup_probes(wl.prep, importtime=bool(args.trace), count=PROBES_PER_ROUND)
        if elapsed >= args.seconds and (len(samples) >= min_samples or elapsed >= MAX_LOOP_S):
            break

    attempted = len(samples)
    ordered = sorted(samples)
    if tracer:
        metrics = {f"{name}_ms": (tracer.self_ns[name] / attempted / 1e6, "ms") for name in PER_LAYER_MS}
        metrics.update({name: (tracer.counts[name] / attempted, "count") for name in PER_LAYER_COUNTS})
        metrics["import.polyplane_ms"] = (statistics.median(setup), "ms")
        metrics["trace.ops_per_s"] = (attempted / elapsed, "1/s")
        metrics["trace.latency_p50_ms"] = (statistics.median(samples) / 1e6, "ms")
    else:
        metrics = {
            "ops_per_s": (attempted / elapsed, "1/s"),
            "latency_p50_ms": (statistics.median(samples) / 1e6, "ms"),
            "latency_tail_ms": (percentile(ordered, wl.tail_pct), "ms"),
            # read before the check round, so that the checks' own memory cannot set the peak
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    # Check round: every distinct input once more, after the timed loop.  An input that
    # fails its check counts as failed on every attempt; otherwise each timed attempt
    # whose output hash differs from the checked output's counts as failed.
    failed, correct = 0, True
    for k, inp in enumerate(pool):
        try:
            out = wl.run(inp)
        except Exception:
            traceback.print_exc()
            failed += rounds
            correct = False
            continue
        problems = wl.check(inp, out)
        if problems:
            print(f"check failed on {inp.data}: {problems}", file=sys.stderr)
            failed += rounds
            correct = correct and inp.known_fault
        else:
            differed = rounds - seen[k][wl.fingerprint(out)]
            failed += differed
            correct = correct and not differed

    print(f"{args.workload}: {attempted} operations in {elapsed:.2f} s, "
          f"tail = p{wl.tail_pct} with {attempted + (-wl.tail_pct * attempted // 100)} beyond")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one JSON line per workload."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit": proc.returncode}))
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, help="one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
