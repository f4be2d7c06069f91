"""Benchmark of the s3flow explicit flow loop, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sphere-mcf-l4 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``sphere-mcf-l4``
and ``scenarios`` are declared in ``BENCHMARK.json``; ``clifford-128`` runs
the same way by hand.  One run repeats episodes (set-up, timed run,
correctness gate) until ``--seconds`` have passed, in one process with one
BLAS thread: the fits solve small systems, so a second thread adds no speed
and only more for the scheduler of a shared host to interleave.

``--trace 0`` prints the end-to-end metrics: the medians over episodes of
the timed phase (``wall_s``) and of set-up (``setup_s``), steps per second
and the peak RSS of the first episode.  ``--trace 1`` alternates untraced
and traced episodes and prints the per-layer metrics of the traced ones (see
``layers.py``); the gap between the two kinds of episode is
``trace.overhead_frac``.

Every metric the run computes is printed as ``name value unit`` along with
an environment record.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` declares for the mode.  The full record, and the spans of
a traced run, are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("sphere-mcf-l4", "clifford-128", "scenarios")
SETUPS_PER_PAUSE = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit():
    """The checked-out commit, read from .git without running git, or None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(args):
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_episodes(wl, seconds, tracer, probe):
    """Episodes while the next one is expected to end within ``seconds``:
    untraced only, or, with a tracer, untraced and traced in turn (at least
    one of each).  An episode is expected to last as long as the last one."""
    import layers
    from workloads import Outcome

    setups = []

    def extra_setups(count):
        for _ in range(count):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)

    # The machine's speed drifts within seconds, so set-up samples are spread
    # over the run: split between its start and end, and taken in the pauses
    # a workload makes between the units of work of an untraced timed phase.
    # Pauses are not part of the phase's wall time.
    paused = 0.0

    def pause():
        nonlocal paused
        t0 = time.perf_counter()
        extra_setups(SETUPS_PER_PAUSE)
        paused += time.perf_counter() - t0

    extra = wl.setup_repeats - 1
    extra_setups(extra // 2)
    episodes = []
    start = time.perf_counter()
    while True:
        t_episode = time.perf_counter()
        is_traced = tracer is not None and len(episodes) % 2 == 1
        setup, run = wl.setup, wl.run
        if is_traced:
            tracer.run_id += 1
            setup, run = tracer.wrap("bench.setup", setup), tracer.wrap("bench.episode", run)
        with layers.traced(tracer, probe) if is_traced else nullcontext():
            t0 = time.perf_counter()
            inputs = setup()
            paused = 0.0
            t1 = time.perf_counter()
            try:
                output = run(inputs, (lambda: None) if is_traced else pause)
                wall = time.perf_counter() - t1 - paused
                outcome = wl.check(inputs, output)
            except Exception:  # a raising episode counts as failed; keep measuring
                wall = time.perf_counter() - t1 - paused
                outcome = Outcome(steps=0, attempted=1, failed=1,
                                  problems=[traceback.format_exc(limit=-3)])
        if not is_traced:
            setups.append(t1 - t0)
        episodes.append({"traced": is_traced, "wall_s": wall, "outcome": outcome,
                         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
        now = time.perf_counter()
        enough = tracer is None or any(e["traced"] for e in episodes)
        if enough and (now - start) + (now - t_episode) > seconds:
            extra_setups(extra - extra // 2)
            return setups, episodes


def end_to_end(setups, episodes):
    plain = [e for e in episodes if not e["traced"]]
    walls = [e["wall_s"] for e in plain]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (statistics.median(e["outcome"].steps / e["wall_s"] for e in plain), "1/s"),
        # A repeated pass raises the peak by allocator growth that levels off
        # (about 5 MB on the second scenarios pass, under 1 MB on the third),
        # and how many passes fit depends on the machine's speed; the peak at
        # the end of the first episode depends on neither.
        "peak_rss_mb": (plain[0]["peak_rss_mb"], "MB"),
        "wall_s.samples": (len(walls), "count"),
        "setup_s.samples": (len(setups), "count"),
    }


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "s3flow", "__init__.py")):
        print(f"error: no s3flow sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(HERE, "results", "work")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer, probe = (Tracer(), layers.CurvatureProbe()) if args.trace else (None, None)
    setups, episodes = run_episodes(wl, args.seconds, tracer, probe)

    metrics = end_to_end(setups, episodes)
    if tracer is not None:
        metrics.update(layers.layer_metrics(
            tracer, probe,
            [e["outcome"] for e in episodes if e["traced"]],
            [e["wall_s"] for e in episodes if not e["traced"]],
            [e["wall_s"] for e in episodes if e["traced"]],
        ))
    attempted = sum(e["outcome"].attempted for e in episodes)
    failed = sum(e["outcome"].failed for e in episodes)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    metrics["attempted"] = (attempted, "count")

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    for e in episodes:
        for problem in e["outcome"].problems:
            print(f"FAILED ({'traced' if e['traced'] else 'untraced'} episode): {problem}",
                  file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")

    stem = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({
            "environment": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "episodes": [{"traced": e["traced"], "wall_s": e["wall_s"],
                          "steps": e["outcome"].steps, "problems": e["outcome"].problems}
                         for e in episodes],
        }, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.csv", "w") as fh:
            fh.write("name,start,end,parent,run\n")
            fh.writelines("%s,%.9f,%.9f,%d,%d\n" % tuple(s) for s in tracer.spans)

    chosen = {}
    for m in declared(args.trace):
        if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]:
            print(f"error: declared metric {m['name']} ({m['unit']}) was not measured",
                  file=sys.stderr)
            return 3
        chosen[m["name"]] = {"value": metrics[m["name"]][0], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
