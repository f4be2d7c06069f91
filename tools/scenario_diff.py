"""Compare the outputs of the bundled scenarios between a git revision and
the working tree.

    python tools/scenario_diff.py <rev>

Extracts ``<rev>`` into a temporary directory with ``git archive``, runs
every scenario of ``examples.cfg`` from both trees as

    PYTHONPATH=<tree>/src python -m s3flow.cli run examples.cfg <name> --output-dir DIR

and compares the files they write.  Prints each file that is missing on
one side or differs, with the largest relative difference between the
numbers in it, and a count of the files compared.  Exits 0 only when both
trees write the same files with the same bytes.  The temporary directory
is removed afterwards.

``git archive`` rather than ``git worktree``: an archive leaves no record
in the repository, where a worktree that outlives a killed run does.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def extract(rev, dest):
    """Write the tree of ``rev`` into the directory ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_scenarios(tree, names, outdir):
    """Run each scenario from ``tree``; returns {name: exit status}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    status = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-m", "s3flow.cli", "run", "examples.cfg", name,
             "--output-dir", outdir],
            cwd=tree, env=env, capture_output=True, text=True)
        status[name] = proc.returncode
    return status


def files_under(top):
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, fs in os.walk(top) for f in fs)


def largest_relative_difference(a, b):
    """(r, x, y): the largest r = |x - y| / max(|x|, |y|) over the pairs of
    numbers x, y of two texts that have the same words around their
    numbers, else None."""
    na, nb = NUMBER.findall(a), NUMBER.findall(b)
    if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(na) != len(nb):
        return None
    worst = (0.0, None, None)
    for x, y in zip(map(float, na), map(float, nb)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, (abs(x - y) / scale if math.isfinite(scale) else math.inf, x, y))
    return worst


def compare(old, new):
    """Print the differences between two output directories; returns the
    number of files that differ or exist on one side only."""
    old_files, new_files = files_under(old), files_under(new)
    differ = 0
    for rel in sorted(set(old_files) | set(new_files)):
        if rel not in old_files or rel not in new_files:
            side = "new tree" if rel in new_files else "old tree"
            print(f"{rel}: written by the {side} only")
            differ += 1
            continue
        with open(os.path.join(old, rel), "rb") as fa, open(os.path.join(new, rel), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            continue
        differ += 1
        worst = largest_relative_difference(a.decode(), b.decode())
        if worst is None:
            print(f"{rel}: differs in text, not only in numbers")
        else:
            print(f"{rel}: largest relative difference {worst[0]:.3e} "
                  f"({worst[1]!r} against {worst[2]!r})")
    print(f"{len(set(old_files) | set(new_files))} files compared, {differ} differ")
    return differ


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="the git revision to compare the working tree with")
    args = p.parse_args(argv)

    cp = configparser.ConfigParser(interpolation=None)
    cp.read(os.path.join(ROOT, "examples.cfg"))
    names = cp.sections()
    tmp = tempfile.mkdtemp(prefix="scenario_diff_")
    try:
        old_tree = os.path.join(tmp, "tree")
        os.mkdir(old_tree)
        extract(args.rev, old_tree)
        old_out, new_out = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        old_status = run_scenarios(old_tree, names, old_out)
        new_status = run_scenarios(ROOT, names, new_out)
        moved = [n for n in names if old_status[n] != new_status[n]]
        for n in moved:
            print(f"{n}: exit status {old_status[n]} -> {new_status[n]}")
        differ = compare(old_out, new_out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if differ == 0 and not moved else 1


if __name__ == "__main__":
    sys.exit(main())
