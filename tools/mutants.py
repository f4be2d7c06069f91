"""Check that the tests catch a committed list of mutants of the program.

    python tools/mutants.py

Each row of ``MUTANTS`` names a mutant, a file of the repository, the
original text (it must occur exactly once in that file), the mutant text,
and the ids of the tests that must fail when the original is replaced by
the mutant.  The script copies ``src/``, ``tests/`` and ``examples.cfg``
(which the tests read) into a temporary directory and first runs every
listed test there unmutated: they must all pass.  Then, for one mutant at
a time, it makes the replacement in a fresh copy and runs

    python -m pytest -q -x -p no:cacheprovider <ids>

with ``PYTHONPATH=<tmp>/src``.  A mutant is killed when pytest reports a
failed test (exit status 1); it survives when the tests pass, and any other
status (no tests collected, a usage error) is an error of the row.  Prints
one line per mutant and exits 0 only when every mutant is killed.  The
temporary directory is removed afterwards.

A change that adds or alters a check adds its mutants here.  Tier-1
(``pytest`` from the repository root) collects ``tests/`` only, so it does
not run this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "examples.cfg")


@dataclass
class Mutant:
    name: str
    path: str
    original: str
    mutant: str
    tests: tuple


CLI, FLOW, MESH = "src/s3flow/cli.py", "src/s3flow/flow.py", "src/s3flow/mesh.py"
SPEEDS, CURVES = "src/s3flow/speeds.py", "src/s3flow/s2curves.py"
CORE = "src/s3flow/s3core.py"
T_CLI, T_FLOW, T_MESH = "tests/test_cli.py", "tests/test_flow.py", "tests/test_mesh.py"
T_CURVES, T_CORE = "tests/test_s2curves.py", "tests/test_s3core.py"

MUTANTS = [
    # the flagged-vertex fallback, the step worker and NumericalFailure
    Mutant("fallback summed as kk * ok", MESH,
           "total = np.where(ok[:, :, None], kk, 0.0).sum(axis=1)",
           "total = (kk * ok[:, :, None]).sum(axis=1)",
           (f"{T_MESH}::test_flagged_vertices_take_the_mean_of_their_unflagged_one_ring",)),
    Mutant("no-neighbour fallback 0, not NaN", MESH,
           "out=np.full(total.shape, np.nan)", "out=np.zeros(total.shape)",
           (f"{T_FLOW}::test_vertices_with_no_unflagged_neighbour_stop_the_run",)),
    Mutant("worker's vertex half skipping its first row", MESH,
           "(slice(n * i // 2, n * j // 2)", "(slice(n * i // 2 + i, n * j // 2)",
           (f"{T_MESH}::test_parallel_fit_bit_identical_to_serial",
            f"{T_FLOW}::test_split_step_bit_identical_to_serial")),
    Mutant("fit block overrunning its row range", MESH,
           "slice(start, min(start + block, rows.stop))", "slice(start, start + block)",
           (f"{T_MESH}::test_fit_blocks_independent_of_block_layout",)),
    Mutant("worker pinned to the lowest CPU", MESH,
           "min(cpus - {_current_cpu()})", "min(cpus)",
           (f"{T_MESH}::test_workers_pinned_off_the_cpu_the_parent_was_on",)),
    Mutant("fds of a refused fork left open", MESH,
           "            for fd in fds:\n                os.close(fd)\n",
           "            for fd in fds:\n                pass\n",
           (f"{T_FLOW}::test_refused_fork_falls_back_to_the_serial_fit",)),
    Mutant("close without waitpid", MESH,
           "        if self.pid is not None:\n            os.waitpid(self.pid, 0)\n",
           "        if self.pid is None:\n            os.waitpid(self.pid, 0)\n",
           (f"{T_FLOW}::test_mesh_degenerate_stop_leaves_no_fit_worker",)),
    Mutant("no speed check", FLOW,
           "            _check_finite(state.step_index, speed=f)\n", "",
           (f"{T_FLOW}::test_nan_speed_stops_as_numerical_failure",
            f"{T_CLI}::test_numerical_failure_exits_4")),
    Mutant("MeshDegenerate detail dropped", FLOW,
           "StopReason.MESH_DEGENERATE, str(exc)", "StopReason.MESH_DEGENERATE, None",
           (f"{T_CLI}::test_mesh_degenerate_exits_3",)),
    Mutant("write_rows through np.savetxt", CURVES,
           "    for start in range(0, len(rows), WRITE_CHUNK):\n"
           "        fh.write(\"\".join([line % tuple(r) for r in "
           "rows[start:start + WRITE_CHUNK].tolist()]))\n",
           "    np.savetxt(fh, rows, fmt=fmt)\n",
           (f"{T_CLI}::test_writers_leave_no_reference_cycles",)),
    Mutant("chunked writer dropping a chunk's last row", CURVES,
           "rows[start:start + WRITE_CHUNK]", "rows[start:start + WRITE_CHUNK - 1]",
           (f"{T_CURVES}::test_write_rows_matches_row_by_row_format",)),
    Mutant("a NaN sample read as on S2", CURVES,
           "        if not dev <= 1e-10:", "        if dev > 1e-10:",
           (f"{T_CURVES}::test_curve_validation",)),
    # the curve-shortening step
    Mutant("t_in without its minus sign", CURVES,
           "t_in = np.negative(d[1], out=d[1])", "t_in = d[1]",
           (f"{T_CURVES}::test_turning_matches_log_map_reference",)),
    Mutant("resample's small-omega branch removed", CURVES,
           "    if small.any():  # arccos of the rounded cosine reads gaps below 1.05e-8 as 0\n"
           "        w1[small] = 1.0 - frac[small]\n"
           "        w2[small] = frac[small]\n",
           "",
           (f"{T_CURVES}::test_resample_across_a_gap_arccos_reads_as_zero",)),
    Mutant("attribute access allowed in custom_fH", SPEEDS,
           "        raise ValueError(f\"custom_fH: {ast.unparse(node)!r} is not allowed\")",
           "        if isinstance(node, ast.Attribute):\n"
           "            return lambda h: getattr(build(node.value)(h), node.attr)\n"
           "        raise ValueError(f\"custom_fH: {ast.unparse(node)!r} is not allowed\")",
           ("tests/test_speeds.py::test_custom_fH_rejects_text_outside_its_grammar",)),
    Mutant("no speed check in parse_config", CLI,
           "                make_speed(sc.speed)\n", "                str(sc.speed)\n",
           (f"{T_CLI}::test_custom_speed_outside_the_grammar_rejected_at_load",)),
    # the step split between the parent and the worker
    Mutant("phase 5 normals of the moved vertices", MESH,
           "self.normals[v] = _vertex_normals(self.new,",
           "self.normals[v] = _vertex_normals(self.moved,",
           (f"{T_FLOW}::test_split_step_bit_identical_to_serial",)),
    Mutant("smoothing's no-move return decided per half", MESH,
           "    move = s > 1e-14\n",
           "    move = s > 1e-14\n    if not np.any(move):\n        return x, False\n",
           (f"{T_FLOW}::test_split_step_bit_identical_to_serial",)),
    Mutant("degeneracy check on the parent's triangles only", MESH,
           "new._triangle_cosines = self.cosines.copy()",
           "new._triangle_cosines = self.cosines[:len(self.cosines) // 2].copy()",
           (f"{T_FLOW}::test_sliver_in_the_worker_half_stops_the_step",)),
    Mutant("edges split off the middle", MESH,
           "slice(ne * i // 2, ne * j // 2)", "slice(ne * i // 2, ne * j // 2 - i)",
           (f"{T_FLOW}::test_split_step_bit_identical_to_serial",)),
    Mutant("a failure in the worker's half ignored", MESH,
           'if failed or reply != b"d":', "if failed:",
           (f"{T_FLOW}::test_error_in_the_worker_half_raised_as_in_the_serial_step",)),
    Mutant("worker's peak RSS dropped", MESH,
           "self.peak_rss_mb = int(rss) / 1024.0 if rss else None",
           "self.peak_rss_mb = None",
           (f"{T_FLOW}::test_run_flow_same_on_one_and_two_cpus",)),
    Mutant("cadence 0 accepted", FLOW,
           "        if self.cadence < 1:\n", "        if self.cadence < 0:\n",
           (f"{T_FLOW}::test_flow_config_validation",)),
    Mutant("repeated spec arg kept", CLI,
           "        if k in out:\n", "        if False:\n",
           (f"{T_CLI}::test_build_surface_and_curve_specs",)),
    # the MCF speed off by 10%, which the RK4 oracle integrates along with the flow
    Mutant("MCF speed 10% fast", SPEEDS,
           '"mcf", np.add,', '"mcf", lambda k1, k2: 1.1 * (k1 + k2),',
           (f"{T_FLOW}::test_sphere_mcf_run_matches_closed_form",)),
    # the tables of the scenario runner
    Mutant("a Scenario flow default retyped", CLI,
           "sigma: float = FlowConfig.sigma", "sigma: float = 0.3",
           (f"{T_CLI}::test_every_flow_key_reaches_flow_config",
            f"{T_CLI}::test_every_csf_key_reaches_run_csf")),
    Mutant("a shared key dropped from the FlowConfig build", CLI,
           "if f.name in _KEYS]", "if f.name in _KEYS and f.name != \"g_floor\"]",
           (f"{T_CLI}::test_every_flow_key_reaches_flow_config",)),
    Mutant("snapshot_every kept without exports", CLI,
           '"snapshot_every": sc.snapshot_every if sc.exports else 0,',
           '"snapshot_every": sc.snapshot_every,',
           (f"{T_CLI}::test_every_flow_key_reaches_flow_config",)),
    Mutant("obj3 suffix changed", CLI,
           '"obj3": (".obj", _export_obj3)', '"obj3": (".obj3", _export_obj3)',
           (f"{T_CLI}::test_flow_scenario_exports_and_reproducibility",)),
    Mutant("a pole with negative zeros", CLI,
           "(0.0 - e, e)", "(-e, e)",
           (f"{T_CLI}::test_obj3_export_parses",)),
    Mutant("missing spec arg not checked", CLI,
           "        if key not in kv:\n", "        if False:\n",
           (f"{T_CLI}::test_build_surface_and_curve_specs",)),
    Mutant("unknown curve args accepted", CLI,
           "- set(optional))\n    if unknown:\n",
           "- set(optional))\n    if unknown and what == \"surface\":\n",
           (f"{T_CLI}::test_build_surface_and_curve_specs",)),
    # norms of short rows and the area from the cached edge lengths
    Mutant("row_norms summing from column 3", CORE,
           "    for k in range(2, v.shape[-1]):", "    for k in range(3, v.shape[-1]):",
           (f"{T_CORE}::test_row_norms_bit_identical_to_linalg_norm",)),
    Mutant("triangle_edges from corners rotated the wrong way", MESH,
           "p, q = self.triangles[:, [1, 2, 0]], self.triangles[:, [2, 0, 1]]",
           "p, q = self.triangles[:, [2, 0, 1]], self.triangles[:, [0, 1, 2]]",
           (f"{T_MESH}::test_triangle_edges_are_the_sides_opposite_each_corner",
            f"{T_MESH}::test_area_from_edge_lengths_matches_vertex_sum")),
    Mutant("area's sides taken in the wrong order of corners", MESH,
           "a, b, c = np.take(self.edge_lengths()", "b, c, a = np.take(self.edge_lengths()",
           (f"{T_MESH}::test_area_from_edge_lengths_matches_vertex_sum",)),
]


def copy_tree(dest):
    os.makedirs(dest)
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dest)


def pytest(tree, ids):
    """The exit status of pytest run on ``ids`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def mutate(tree, m):
    """Apply ``m`` in ``tree``; returns an error message or None."""
    path = os.path.join(tree, m.path)
    with open(path) as fh:
        text = fh.read()
    count = text.count(m.original)
    if count != 1:
        return f"original text occurs {count} times in {m.path}"
    with open(path, "w") as fh:
        fh.write(text.replace(m.original, m.mutant))
    return None


def main():
    tmp = tempfile.mkdtemp(prefix="mutants_")
    try:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        ids = sorted({t for m in MUTANTS for t in m.tests})
        status = pytest(clean, ids)
        if status != 0:
            print(f"the listed tests do not pass unmutated (pytest exit status {status})")
            return 2
        bad = 0
        for i, m in enumerate(MUTANTS):
            tree = os.path.join(tmp, f"m{i}")
            copy_tree(tree)
            error = mutate(tree, m)
            if error is None:
                status = pytest(tree, m.tests)
                error = {0: "SURVIVED", 1: None}.get(status, f"pytest exit status {status}")
            shutil.rmtree(tree)
            bad += error is not None
            print(f"{'killed' if error is None else error}: {m.name}", flush=True)
        print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
