"""Check that the tests catch a committed list of mutants of the program.

    python tools/mutants.py

Each row of ``MUTANTS`` names a mutant, a file of the repository, the
original text (it must occur exactly once in that file), the mutant text,
and the ids of the tests that must fail when the original is replaced by
the mutant.  The script copies ``src/``, ``tests/``, ``examples.cfg`` and
``demos/`` (which the tests read) into a temporary directory and first runs every
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
not run this script; ``tests/test_tools.py`` checks there that each row's
original text occurs once and that each test it names exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "examples.cfg", "demos")


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
T_GOLDEN, T_SPEEDS = "tests/test_golden.py", "tests/test_speeds.py"

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
    Mutant("block count rounded up, a short block again", MESH,
           "count = max(1, round(r / block))", "count = -(-r // block)",
           (f"{T_MESH}::test_fit_blocks_of_equal_length",)),
    Mutant("the last equal block's bound off by one", MESH,
           "ends = [rows.start + r * i // count for i in range(count + 1)]",
           "ends = [rows.start + r * i // count - (i == count) for i in range(count + 1)]",
           (f"{T_MESH}::test_fit_blocks_independent_of_block_layout",)),
    Mutant("worker pinned to the lowest CPU", MESH,
           "min(cpus - {_current_cpu()})", "min(cpus)",
           (f"{T_MESH}::test_workers_pinned_off_the_cpu_the_parent_was_on",)),
    Mutant("fds of a refused fork left open", MESH,
           "            for fd in fds:\n                os.close(fd)\n",
           "            for fd in fds:\n                pass\n",
           (f"{T_FLOW}::test_refused_fork_falls_back_to_the_serial_fit",)),
    Mutant("a worker closing only its own pipe ends", MESH,
           "            for fd in self._open | {self.command, self.reply}:\n",
           "            for fd in {self.command, self.reply}:\n",
           (f"{T_MESH}::test_first_of_two_open_workers_closes",)),
    Mutant("close without waitpid", MESH,
           "        if self.pid is not None:\n            self.peak_rss_mb = os.wait4(",
           "        if self.pid is None:\n            self.peak_rss_mb = os.wait4(",
           (f"{T_FLOW}::test_mesh_degenerate_stop_leaves_no_fit_worker",)),
    Mutant("no speed check", FLOW,
           "            _check_finite(state.step_index, speed=f)\n", "",
           (f"{T_FLOW}::test_nan_speed_stops_as_numerical_failure",
            f"{T_CLI}::test_numerical_failure_exits_4")),
    Mutant("the report evaluating the speed again", FLOW,
           "reports.append(pinching_report(st.curvature, st.mesh, f))",
           "reports.append(pinching_report(st.curvature, st.mesh, "
           "config.speed.eval(st.curvature.kappa1, st.curvature.kappa2)))",
           (f"{T_FLOW}::test_speed_evaluated_once_per_step",)),
    Mutant("cfl_dt without the DT_MAX cap", FLOW,
           "    return min(sigma * h_min * h_min / max(lam, LAMBDA_FLOOR), DT_MAX)\n",
           "    return sigma * h_min * h_min / max(lam, LAMBDA_FLOOR)\n",
           (f"{T_FLOW}::test_cfl_dt_caps_for_stationary_surface",)),
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
    # the curve-shortening step and the stop of a curve run
    Mutant("a NaN curve read as Extinct again", CURVES,
           "        except CurveCollapseError:\n", "        except ValueError:\n",
           (f"{T_CURVES}::test_nan_curve_stops_as_numerical_failure",
            f"{T_CLI}::test_nan_curve_exits_4")),
    Mutant("run_csf ignores CSF_LENGTH_TOL", CURVES,
           "        if lengths[-1] < CSF_LENGTH_TOL:\n", "        if False:\n",
           (f"{T_CURVES}::test_csf_extinction_in_finite_time",)),
    Mutant("the curve runner returning 0 whatever its reason", CLI,
           "    return _exit_status(sc, res)\n", "    _exit_status(sc, res)\n    return 0\n",
           (f"{T_CLI}::test_nan_curve_exits_4",)),
    Mutant("malloc_trim resolved on every heap release", CLI,
           "    if _MALLOC_TRIM is not None:\n        _MALLOC_TRIM(0)\n",
           "    ctypes.CDLL(None).malloc_trim(0)\n",
           (f"{T_CLI}::test_writers_leave_no_reference_cycles",)),
    Mutant("t_in without its minus sign", CURVES,
           "t_in = np.negative(d[1], out=d[1])", "t_in = d[1]",
           (f"{T_CURVES}::test_turning_matches_log_map_reference",)),
    Mutant("resample's angles from arccos again", CURVES,
           "    omega = curve.gaps[idx]\n",
           "    omega = np.arccos(np.clip(np.einsum(\"ij,ij->i\", p[idx], p[(idx + 1) % len(p)]),"
           " -1.0, 1.0))\n",
           (f"{T_CURVES}::test_resample_across_a_gap_arccos_reads_as_zero",)),
    Mutant("CSF step x (1 + 1e-7)", CURVES,
           "    s = psi / ds * dt\n", "    s = psi / ds * dt * (1.0 + 1e-7)\n",
           (f"{T_GOLDEN}::test_other_scenario_matches_golden",)),
    Mutant("Weiner sup x (1 + 1e-8)", CURVES,
           "    sup2 = sup_subinterval_cyclic(k2 * ds2)\n",
           "    sup2 = sup_subinterval_cyclic(k2 * ds2) * (1.0 + 1e-8)\n",
           (f"{T_GOLDEN}::test_other_scenario_matches_golden",)),
    Mutant("attribute access allowed in custom_fH", SPEEDS,
           "        raise ValueError(f\"custom_fH: {ast.unparse(node)!r} is not allowed\")",
           "        if isinstance(node, ast.Attribute):\n"
           "            return lambda h: getattr(build(node.value)(h), node.attr)\n"
           "        raise ValueError(f\"custom_fH: {ast.unparse(node)!r} is not allowed\")",
           (f"{T_SPEEDS}::test_custom_fH_rejects_text_outside_its_grammar",)),
    Mutant("a key its kind does not read accepted", CLI,
           "            if key not in _READS[sc.kind] and key not in cp.defaults():\n",
           "            if False:\n",
           (f"{T_CLI}::test_unknown_key_rejected",)),
    Mutant("a DEFAULT key checked against every kind", CLI,
           " and key not in cp.defaults():\n", ":\n",
           (f"{T_CLI}::test_unknown_key_rejected",)),
    Mutant("no speed check in parse_config", CLI,
           "                make_speed(sc.speed)\n", "                str(sc.speed)\n",
           (f"{T_CLI}::test_custom_speed_outside_the_grammar_rejected_at_load",)),
    # the step split between the parent and the worker
    Mutant("phase 5 normals of the moved vertices", MESH,
           "self.normals[v] = _vertex_normals(self.new,",
           "self.normals[v] = _vertex_normals(self.moved,",
           (f"{T_FLOW}::test_split_step_bit_identical_to_serial",)),
    Mutant("degeneracy check on the parent's triangles only", MESH,
           "        _check_shape(cosines, self.sides[f])\n",
           "        if part != 1:\n            _check_shape(cosines, self.sides[f])\n",
           (f"{T_FLOW}::test_sliver_in_the_worker_half_stops_the_step",)),
    Mutant("the start mesh's measured sides dropped", MESH,
           "        mesh._sides = self.sides.copy()\n", "",
           (f"{T_FLOW}::test_each_mesh_of_a_run_measured_once",)),
    Mutant("sides of the parent's triangles only copied into the new mesh", MESH,
           "new._sides = self.sides.copy()",
           "new._sides = self.sides[:len(self.sides) // 2].copy()",
           (f"{T_MESH}::test_area_from_edge_lengths_matches_vertex_sum[perturbed-l3-stepped]",)),
    Mutant("the move writing over its own input", MESH,
           "        self.moved[v] = geodesic_step(self.new[v], self.normals[v], self.offsets[v])\n",
           "        self.new[v] = geodesic_step(self.new[v], self.normals[v], self.offsets[v])\n"
           "        self.moved[v] = self.new[v]\n",
           (f"{T_FLOW}::test_phase_rerun_after_a_failed_half_bit_identical_to_serial",)),
    Mutant("a failure in the worker's half ignored", MESH,
           'if failed or reply != b"d":', "if failed:",
           (f"{T_FLOW}::test_error_in_the_worker_half_raised_as_in_the_serial_step",)),
    Mutant("worker's peak RSS dropped", MESH,
           "self.peak_rss_mb = os.wait4(self.pid, 0)[2].ru_maxrss / 1024.0",
           "os.wait4(self.pid, 0)",
           (f"{T_FLOW}::test_run_flow_same_on_one_and_two_cpus",)),
    Mutant("Omega_eps membership by > eps", FLOW,
           "    return _epsilon(k1, k2) >= eps\n", "    return _epsilon(k1, k2) > eps\n",
           (f"{T_FLOW}::test_epsilon_star_agrees_with_membership",)),
    Mutant("cadence 0 accepted", FLOW,
           "        if self.cadence < 1:\n", "        if self.cadence < 0:\n",
           (f"{T_FLOW}::test_flow_config_validation",)),
    Mutant("a negative snapshot_every accepted", FLOW,
           "        if not self.snapshot_every >= 0:\n", "        if False:\n",
           (f"{T_FLOW}::test_flow_config_validation",)),
    Mutant("a positive-setting check back to <= 0.0", FLOW,
           "            if not getattr(self, name) > 0.0:\n",
           "            if getattr(self, name) <= 0.0:\n",
           (f"{T_CLI}::test_malformed_config_diagnostic",)),
    Mutant("any fit_order accepted", FLOW,
           "        if self.fit_order not in (2, 4):\n", "        if False:\n",
           (f"{T_CLI}::test_malformed_config_diagnostic",)),
    Mutant("the initial mesh not checked", FLOW,
           "        stepper.check(mesh0)\n", "",
           (f"{T_FLOW}::test_initial_mesh_passes_the_quality_check",)),
    Mutant("triangle indices parsed as floats", CLI,
           'records("t", np.int64)', 'records("t", float)',
           (f"{T_CLI}::test_raw4_malformed_line_named",)),
    Mutant("repeated spec arg kept", CLI,
           "        if k in out:\n", "        if False:\n",
           (f"{T_CLI}::test_build_surface_and_curve_specs",)),
    # the MCF speed off by 10%, which the RK4 oracle integrates along with the flow
    Mutant("MCF speed 10% fast", SPEEDS,
           "Profile(lambda h: h, np.ones_like", "Profile(lambda h: 1.1 * h, np.ones_like",
           (f"{T_FLOW}::test_sphere_mcf_run_matches_closed_form",
            f"{T_SPEEDS}::test_make_speed_registry")),
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
    Mutant("exports accepted without snapshot_every", CLI,
           "and not sc.snapshot_every >= 1:", "and not sc.snapshot_every >= 0:",
           (f"{T_CLI}::test_exports_without_a_snapshot_cadence_rejected",)),
    Mutant("the exports check applied to a curve run", CLI,
           'if sc.kind == "flow" and sc.exports and', "if sc.exports and",
           (f"{T_CLI}::test_exports_without_a_snapshot_cadence_rejected",)),
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
    # norms of short rows, and the area from the side lengths of each triangle
    Mutant("log_map back on arccos", CORE,
           "    theta = np.arctan2(dn, c)\n", "    theta = np.arccos(np.clip(c, -1.0, 1.0))\n",
           (f"{T_CORE}::test_log_map_at_a_small_angle",)),
    Mutant("row_norms summing from column 3", CORE,
           "    for k in range(2, v.shape[-1]):", "    for k in range(3, v.shape[-1]):",
           (f"{T_CORE}::test_row_norms_bit_identical_to_linalg_norm",)),
    Mutant("area's sides taken in the wrong order of corners", MESH,
           "a, b, c = self.side_lengths().T", "b, c, a = self.side_lengths().T",
           (f"{T_MESH}::test_area_from_edge_lengths_matches_vertex_sum",)),
    Mutant("side opposite corner 0 taken from corners 0 and 1", MESH,
           "chords = np.stack([lbc, lca, lab], axis=1)",
           "chords = np.stack([lab, lca, lab], axis=1)",
           (f"{T_MESH}::test_side_lengths_are_the_sides_opposite_each_corner",)),
    # the topology from one sorted edge list, the sphere builder and validate
    Mutant("vertex_faces without its row sort", MESH,
           "        self.vertex_faces.sort(axis=1)\n", "",
           (f"{T_MESH}::test_topology_tables_match_loop_build",)),
    Mutant("reverse-edge lookup against the reversed keys", MESH,
           "keys[keys[np.minimum(np.searchsorted(keys, rev), len(keys) - 1)] != rev]",
           "keys[rev[np.minimum(np.searchsorted(rev, keys), len(keys) - 1)] != keys]",
           (f"{T_MESH}::test_topology_errors_name_the_smallest_edge",)),
    Mutant("the reverse-edge comparison made always true", MESH,
           "    if not np.array_equal(np.sort(rev), keys):\n", "    if False:\n",
           (f"{T_MESH}::test_topology_errors_name_the_smallest_edge",)),
    Mutant("validate's NaN checks reverted", MESH,
           "        if not dev <= 1e-10:\n            raise MeshError(f\"vertex off S3 by {dev:.3e}\")\n"
           "        ndev = unit_deviation(self.normals)\n        if not ndev <= 1e-8:\n",
           "        if dev > 1e-10:\n            raise MeshError(f\"vertex off S3 by {dev:.3e}\")\n"
           "        ndev = unit_deviation(self.normals)\n        if ndev > 1e-8:\n",
           (f"{T_MESH}::test_nan_vertex_or_normal_rejected",)),
    Mutant("diameter from the largest dot product", MESH,
           "np.min(pts @ pts.T)", "np.max(pts @ pts.T)",
           (f"{T_FLOW}::test_sphere_mcf_stop_time_matches_closed_form",)),
    Mutant("sphere builder's level check dropped", MESH,
           '    if level < 0:\n        raise ValueError("subdivision level must be >= 0")\n', "",
           (f"{T_MESH}::test_sphere_level_must_be_non_negative",)),
    # the test surfaces from the quaternion product
    Mutant("Hopf turns from an arccos angle again", MESH,
           "    h = np.concatenate([1.0 + np.sum(a * b, axis=1, keepdims=True), "
           "np.cross(b, a)], axis=1)\n",
           "    t = np.arccos(np.clip(np.sum(a * b, axis=1, keepdims=True), -1.0, 1.0))\n"
           "    axis = np.cross(b, a)\n"
           "    axis = axis / np.maximum(row_norms(axis, keepdims=True), 1e-300)\n"
           "    h = np.concatenate([np.cos(0.5 * t), np.sin(0.5 * t) * axis], axis=1)\n",
           (f"{T_MESH}::test_hopf_torus_lies_on_the_fibres_of_its_curve[small-gap]",)),
    Mutant("the pi-turn 1, not j", MESH,
           "    h[row_norms(h) == 0.0] = QUAT_J\n", "    h[row_norms(h) == 0.0] = QUAT_ONE\n",
           (f"{T_MESH}::test_hopf_torus_lies_on_the_fibres_of_its_curve[antipodal-start]",)),
    Mutant("the sphere's frame c j, c i, c k", MESH,
           "np.stack([QUAT_I, QUAT_J, QUAT_K])", "np.stack([QUAT_J, QUAT_I, QUAT_K])",
           (f"{T_MESH}::test_sphere_about_c_is_c_times_the_sphere_about_1",)),
    Mutant("smoothing weight x (1 + 1e-7)", MESH,
           "    s = strength * row_norms(tang)\n",
           "    s = strength * (1.0 + 1e-7) * row_norms(tang)\n",
           (f"{T_GOLDEN}::test_flow_scenario_matches_golden[sphere-mcf-shrink]",
            f"{T_GOLDEN}::test_flow_scenario_matches_golden[perturbed-sphere-theorem1]")),
    # one chord-to-arc kernel for every geodesic length, curves' and meshes'
    Mutant("chord kernel without its cap at 1", CORE,
           "    return 2.0 * np.arcsin(np.minimum(0.5 * chords, 1.0))\n",
           "    return 2.0 * np.arcsin(0.5 * chords)\n",
           (f"{T_CORE}::test_geodesic_distance_matches_arccos",)),
    Mutant("curve gaps through einsum again", CURVES,
           "        gaps = chord_arc(row_norms(np.diff(s, axis=0, append=s[:1])))\n",
           "        chord = np.diff(s, axis=0, append=s[:1])\n"
           "        gaps = chord_arc(np.sqrt(np.einsum(\"ij,ij->i\", chord, chord)))\n",
           (f"{T_CURVES}::test_gaps_bit_equal_to_geodesic_distance",)),
    Mutant("turning arclength from the outgoing gap only", CURVES,
           "    return psi, 0.5 * (gaps + np.concatenate([gaps[-1:], gaps[:-1]])), t_in, t_out\n",
           "    return psi, gaps, t_in, t_out\n",
           (f"{T_CURVES}::test_turning_matches_log_map_reference",)),
    Mutant("Hausdorff through arccos again", CURVES,
           "    dots = a @ b.T\n"
           "    to_b = chord_arc(row_norms(a - b[dots.argmax(axis=1)]))\n"
           "    to_a = chord_arc(row_norms(b - a[dots.argmax(axis=0)]))\n"
           "    return float(max(to_b.max(), to_a.max()))\n",
           "    d = np.arccos(np.clip(a @ b.T, -1.0, 1.0))\n"
           "    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))\n",
           (f"{T_CURVES}::test_hausdorff_distance_of_a_curve_to_itself_is_zero",)),
    # the stepper's settings, fixed when it is made, and the fit's flags
    Mutant("a stepper fitting at its own order whatever it is asked", MESH,
           "    elif worker.order != order:\n", "    elif False:\n",
           (f"{T_MESH}::test_parallel_fit_bit_identical_to_serial",)),
    Mutant("the worker's half smoothed at strength 0", MESH,
           "                                         self.smoothing, v)",
           "                                         self.smoothing * (part != 1), v)",
           (f"{T_FLOW}::test_split_step_bit_identical_to_serial",)),
    Mutant("the fit's flags without the condition limit", MESH,
           " | ~np.isfinite(cond) | (cond > COND_LIMIT)", " | ~np.isfinite(cond)",
           (f"{T_FLOW}::test_vertices_with_no_unflagged_neighbour_stop_the_run",)),
    Mutant("order-2 fit's quadric column x (1 + 1e-3)", MESH,
           "    np.multiply(u2, 0.5, out=cols[:, m - 3])\n",
           "    np.multiply(u2, 0.5 * (1.0 + 1e-3 * (order < 4)), out=cols[:, m - 3])\n",
           (f"{T_MESH}::test_gauss_bonnet_residual_falls_with_the_mesh",)),
    # the admissible speeds and the names the demos import
    Mutant("affine_arctan accepting C2 <= 0", SPEEDS,
           "np.isfinite(c2) and c2 > 0.0):", "np.isfinite(c2)):",
           (f"{T_SPEEDS}::test_affine_arctan_rejects_a_speed_not_increasing_in_H",
            f"{T_CLI}::test_speed_decreasing_in_H_rejected_at_load")),
    Mutant("phi_constant accepting NaN", SPEEDS,
           "    if not c > 0:\n", "    if c <= 0:\n",
           (f"{T_SPEEDS}::test_a_nan_or_non_positive_phi_rejected",)),
    Mutant("admissibility bounds of a NaN phi", SPEEDS,
           "    if not np.all(ph > 0.0):\n", "    if np.any(ph <= 0.0):\n",
           (f"{T_SPEEDS}::test_a_nan_or_non_positive_phi_rejected",)),
    Mutant("admissibility bounds of a NaN phi'", SPEEDS,
           "    if not np.all(np.abs(p) <= 1.0 + 1e-12):\n",
           "    if np.any(np.abs(p) > 1.0 + 1e-12):\n",
           (f"{T_SPEEDS}::test_a_nan_or_non_positive_phi_rejected",)),
    Mutant("a candidate with a NaN f' judged", SPEEDS,
           "    if not np.all(fp > 0.0):\n", "    if np.any(fp <= 0.0):\n",
           (f"{T_SPEEDS}::test_non_monotone_candidate_rejected",)),
    # the reaction term Z: f_G cancels from route A only with the printed signs
    Mutant("route A's F2 with f_G of the wrong sign", SPEEDS,
           "    f2 = fh + fg * g2\n", "    f2 = fh - fg * g2\n",
           (f"{T_SPEEDS}::test_z_form_a_is_insensitive_to_f_G",)),
    # conftest imports the package, so the renamed name is one only a demo
    # and the Gauss-map tests import
    Mutant("a name that demo 03 imports renamed", "src/s3flow/gaussmaps.py",
           "def degeneracy_measure(points) -> float:",
           "def degeneracy(points) -> float:",
           ("tests/test_demos.py::test_every_name_a_demo_imports_from_s3flow_exists"
            "[03_flat_tori_and_gauss_maps.py]",)),
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
