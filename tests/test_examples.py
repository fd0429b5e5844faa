"""Every example script runs and exits 0.

The invocations are the ``examples/`` entries of the reachability audit's
product list (``reachability.PRODUCT``), so one list says how each example
is run.  Each runs in a scratch directory, where it writes its outputs.
Tier-1 runs the examples that finish in about a second;

    python tests/test_examples.py

runs all of them at their listed sizes (CI's test job does).
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from typing import List

import pytest

from reachability import PRODUCT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every example invocation, as an argv: the script path, then its arguments.
EXAMPLES: List[List[str]] = [
    shlex.split(command) for command in PRODUCT if command.startswith("examples/")
]

#: The examples quick enough for every test run (≤ 1.2 s each on 2 vCPUs).
QUICK = ("quickstart", "forged_path_hijack", "monitoring_dashboard", "offline_replay")


def _name(argv: List[str]) -> str:
    return os.path.splitext(os.path.basename(argv[0]))[0]


def run_example(argv: List[str], cwd: str) -> subprocess.CompletedProcess:
    """Run one example from source with ``cwd`` as its working directory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, argv[0]), *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_every_example_is_listed():
    listed = sorted(_name(argv) for argv in EXAMPLES)
    on_disk = sorted(
        name[:-3] for name in os.listdir(os.path.join(ROOT, "examples"))
        if name.endswith(".py")
    )
    assert listed == on_disk
    assert set(QUICK) <= set(listed)


@pytest.mark.parametrize("name", QUICK)
def test_quick_example_exits_zero(name, tmp_path):
    argv = next(argv for argv in EXAMPLES if _name(argv) == name)
    done = run_example(argv, str(tmp_path))
    assert done.returncode == 0, done.stderr[-4000:]


if __name__ == "__main__":
    failed = 0
    for argv in EXAMPLES:
        with tempfile.TemporaryDirectory() as scratch:
            done = run_example(argv, scratch)
        print(f"{'ok' if done.returncode == 0 else 'FAILED'}  {shlex.join(argv)}", flush=True)
        if done.returncode != 0:
            print(done.stdout[-4000:], done.stderr[-4000:], sep="\n")
            failed += 1
    sys.exit(1 if failed else 0)
