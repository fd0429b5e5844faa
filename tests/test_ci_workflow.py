"""The CI workflow names no file that does not exist.

The workflow is read as text: CI installs no YAML parser. Every
``tests/…``, ``benchmarks/…``, ``examples/…`` and ``./.github/actions/…``
path it names must exist, so a renamed test file fails here, before a push.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")

#: A path under one of the checked roots; a pytest node id ends at "::".
NAMED = re.compile(
    r"(?<![\w./-])((?:tests|benchmarks|examples)/[\w./-]*\w|\./\.github/actions/[\w./-]*\w)"
)


def test_every_path_the_workflow_names_exists():
    with open(WORKFLOW, encoding="utf-8") as handle:
        named = sorted(set(NAMED.findall(handle.read())))
    assert "./.github/actions/setup" in named and "benchmarks/test_scale.py" in named
    missing = [path for path in named if not os.path.exists(os.path.join(ROOT, path))]
    assert missing == []

