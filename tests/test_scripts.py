import os
import subprocess
import sys

import streamscope

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


def _run_script(name, *args):
    """Run scripts/<name> on this package; returns its output rows."""
    src = os.path.dirname(os.path.dirname(streamscope.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args], env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()[1:]
            if line.strip()]


def test_detection_rates_script_runs():
    # The script imports the package's enumeration and detector API; run it
    # small, and require its exact column to equal the closed form on every
    # row (the Monte-Carlo column is left to the seeded estimate).
    rows = _run_script("detection_rates.py", "--trials", "2000")
    assert [row[1] for row in rows] == ["triangle", "4-path"] * 5
    for tau, graph, exact, closed, _mc, _ratio in rows:
        assert exact == closed, (tau, graph)


def test_root_memory_script_runs():
    # Two rows, tree then disc, each with a positive bare and built byte
    # count; no bound on the bytes, which depend on the CPython version.
    rows = _run_script("root_memory.py")
    assert [row[0] for row in rows] == ["tree", "disc"]
    assert all(float(row[-1]) > 0 and float(row[-2]) > 0 for row in rows)
