"""Self-tests of the benchmark's own accounting.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
last two tests run the benchmark itself (about half a minute in all).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from spans import Tracer, by_name, percentile, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer = tracer.begin("outer")
    a = tracer.begin("a")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(outer)
    assert self_times(tracer.spans) == [10 - 3 - 4, 3 - 1, 1, 4]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]


def test_wrapped_calls_nest_and_aggregate_by_name():
    tracer = Tracer(clock=FakeClock(range(100)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    stats = by_name(tracer.spans)
    assert len(stats["inner"]["durations"]) == 2
    assert stats["outer"]["self_s"] == (5 - 0) - 2 * (2 - 1)


def test_spans_must_close_in_order():
    tracer = Tracer()
    first = tracer.begin("first")
    tracer.begin("second")
    with pytest.raises(RuntimeError):
        tracer.end(first)


@pytest.mark.parametrize("q, n_min", [(0.5, 20), (0.9, 100)])
def test_percentile_needs_ten_samples_beyond_it(q, n_min):
    assert percentile(list(range(n_min - 1)), q) is None
    value, n = percentile(list(range(n_min)), q)
    assert n == n_min
    assert sum(1 for x in range(n_min) if x > value) == 10


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, four of each
    assert percentile(samples, 0.5) == (3.0, 20)


def test_declared_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    units = {m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)


def test_every_per_layer_metric_has_a_prediction():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predicted = json.load(fh)["metrics"]
    assert set(predicted) == {m["name"] for m in SPEC["per_layer"]}


def _run(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere-mcf-l4", "--seed", "7",
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_emits_every_declared_metric(trace):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = [ln.split()[0] for ln in lines if ln.count(" ") == 2 and not ln.startswith("{")]
    assert printed and all(NAME_RE.fullmatch(n) for n in printed)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        steps = m["flow.flow_step.calls"]
        # smoothing on: normals twice per step, plus run_flow's and set-up's call
        assert m["mesh.with_vertices.calls"] == 2 * steps + 2
        assert m["s2curves.csf_step.calls"] == m["gaussmaps.gauss_maps.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
