"""Golden trajectories: each bundled flow scenario, rerun through the CLI,
reproduces the trajectory.csv and summary recorded in tests/golden/.

Refactors may change round-off but not the run: row counts, stop reasons,
step counts and the flags cells must match exactly, and every numeric cell
must agree to rtol 1e-9 (atol 1e-12).
"""

import os

import numpy as np
import pytest

from s3flow.cli import run_scenario

TESTS = os.path.dirname(os.path.abspath(__file__))
BUNDLED = os.path.join(os.path.dirname(TESTS), "examples.cfg")
GOLDEN = os.path.join(TESTS, "golden")

FLOW_SCENARIOS = (
    "great-sphere-arctan", "sphere-mcf-shrink", "clifford-stationary",
    "hopf-flat-preservation", "hopf-gaussmap-vs-csf", "perturbed-sphere-theorem1",
)
EXACT_SUMMARY_KEYS = ("scenario", "stop_reason", "steps")


def _close(got, want, what):
    np.testing.assert_allclose(float(got), float(want), rtol=1e-9, atol=1e-12, err_msg=what)


def _read(path):
    with open(path) as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("name", FLOW_SCENARIOS)
def test_flow_scenario_matches_golden(name, tmp_path):
    assert run_scenario(BUNDLED, name, output_dir=str(tmp_path)) == 0
    got_dir = tmp_path / name
    want_dir = os.path.join(GOLDEN, name)

    got = _read(got_dir / "trajectory.csv")
    want = _read(os.path.join(want_dir, "trajectory.csv"))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        g, w = g.split(","), w.split(",")
        assert g[-1] == w[-1], f"flags, row {row}"
        for col, gv, wv in zip(want[0].split(",")[:-1], g[:-1], w[:-1]):
            _close(gv, wv, f"trajectory.csv row {row} {col}")

    got = dict(line.split(": ", 1) for line in _read(got_dir / "summary"))
    want = dict(line.split(": ", 1) for line in _read(os.path.join(want_dir, "summary")))
    assert got.keys() == want.keys()
    for key in want:
        if key in EXACT_SUMMARY_KEYS:
            assert got[key] == want[key], key
        else:
            _close(got[key], want[key], f"summary {key}")
