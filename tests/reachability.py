"""Reachability audit: which functions of ``src/`` no product or paper run enters.

    python tests/reachability.py OUTDIR > audit.txt

copies the repository to ``OUTDIR/tree`` and writes a ``sitecustomize.py``
into the copy's ``src/``.  Every interpreter started with that ``src/`` on
``PYTHONPATH`` then runs a ``sys.settrace`` call hook that appends
``path:first line`` once per ``src/`` code object to a per-process file —
``python -m repro`` children, forked workers (whose data survives
``os._exit``, SIGTERM and SIGKILL alike) and ``bench/run.py``'s children,
which reset ``PYTHONPATH`` to the copy's ``src/``.  Three passes:

* **product** — CI's smoke commands, one run of each CLI flag CI, README
  or an example uses, ``examples/*.py`` and ``bench/run.py --smoke``;
* **paper** — every ``benchmarks/test_*.py``, one per process, at CI's
  reduced sizes with the wall, rate and RSS guards off;
* **tests** — tier-1.

A pass whose ``OUTDIR/<pass>.txt`` exists is read, not re-run.  The report
lists every outermost ``src/`` function neither the product nor the paper
pass entered: its class (``dunder``, ``test-only`` or ``never``), its lines,
and ``ref`` when its bare name is a code token elsewhere in ``src/`` — a
referenced function is an untested branch, not dead code.  DESIGN.md
"Reachability audit" keeps the list of what stays on purpose.  pytest does
not collect this file; ``tests/test_reachability.py`` checks the classifier.
"""

from __future__ import annotations

import ast
import collections
import io
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

HOOK = """import os, sys, threading
_OUT = os.environ.get("REACH_OUT")
if _OUT:
    _seen, _file = {}, [None, None]
    def _hook(frame, event, arg):
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if "/src/repro/" in code.co_filename:
                if _file[1] != os.getpid():
                    _file[:] = [os.open(os.path.join(_OUT, str(os.getpid())),
                                        os.O_WRONLY | os.O_CREAT | os.O_APPEND), os.getpid()]
                rel = code.co_filename.rsplit("/src/repro/", 1)[1]
                os.write(_file[0], f"repro/{rel}:{code.co_firstlineno}\\n".encode())
    sys.settrace(_hook)
    threading.settrace(_hook)
"""

SMALL = "--tier1 3 --tier2 10 --stubs 25 --no-churn"
SCALE = "--tier1 6 --tier2 94 --stubs 900 --seed 11 --cache-dir topocache"
KILL = "--faults examples/fault_plans/midhijack_kill.json"
PRODUCT = [
    f"-m repro suite --runs 2 --jobs 2 {SMALL} --profile-json profile.json",
    f"-m repro experiment {SMALL} --world-seed 9 --seed 101 --checkpoint world.ckpt",
    f"-m repro experiment {SMALL} --world-seed 9 --seed 102 --checkpoint world.ckpt",
    f"-m repro baselines --seed 1 {SMALL} {KILL}",
    f"-m repro experiment --seed 5 {SMALL} --hijack-prefix 10.0.0.0/24 {KILL}",
    f"-m repro suite --runs 3 {SMALL} --hijack-prefix 10.0.0.0/24"
    " --faults examples/fault_plans/chaos_mix.json",
    f"-m repro scale {SCALE} --shards 2 --profile-json profile_scale.json --json s2.json",
    f"-m repro scale {SCALE} --shards 1 --profile --json s1.json",
    f"-m repro experiment {SMALL} --hijack-prefix 10.0.0.0/24 --seed 4 --record-trace smoke.trace",
    "-m repro replay smoke.trace --synth-tenants 50 --detect-workers 1 --json w1.json",
    "-m repro replay smoke.trace --synth-tenants 50 --detect-workers 2 --json w2.json",
    "-m repro replay smoke.trace --json replay.json --max-events 400",
    "-m repro replay smoke.trace --speed 50 --supervise",
    f"-m repro replay smoke.trace {KILL} --supervise --json replay_faulted.json",
    "-m repro taxonomy --seeds 11 --json taxonomy_matrix.json",
    "-c 'from repro.feeds.replay import load_trace; from repro.tenants import DetectionPlane;"
    " from repro.tenants.synth import build_synth_registry, observed_origin_map;"
    " events = load_trace(\"smoke.trace\").events; plane = DetectionPlane(build_synth_registry("
    "observed_origin_map(events), num_tenants=50, num_prefixes=5000));"
    " list(map(plane.ingest, events)); plane.flush(); print(plane.digest())'",
    "-m repro experiment --seed 3 --stubs 40 --json experiment.json --profile",
    f"-m repro experiment {SMALL} --forge-origin --helpers 2 --failover-to-batch --warm-start",
    f"-m repro experiment {SMALL} --hijack-type type-U --corroborate --prefix 10.0.0.0/24",
    f"-m repro baselines --seed 3 {SMALL} --systems argus phas rib-dump",
    f"-m repro demo {SMALL} --html demo.html --json demo.json",
    "-m repro topology --stubs 200 as-rel.txt",
    "-m repro topology --cache-dir topocache",
    "examples/quickstart.py", "examples/peering_experiments.py 2", "examples/youtube_hijack.py",
    "examples/monitoring_dashboard.py 1 --json dashboard.json", "examples/source_comparison.py 2",
    "examples/forged_path_hijack.py", "examples/rov_study.py 1",
    "examples/offline_replay.py 4 offline.trace",
    "bench/run.py --smoke",
]
PAPER_ENV = {
    "SCALE_BENCH_SWEEP_SEEDS": "1", "SCALE_BENCH_JOBS": "2", "WARMSTART_SWEEP_SEEDS": "3",
    "TENANTS_BENCH_PREFIXES": "20000", "TENANTS_BENCH_WORKERS": "2",
    "TENANTS_MIN_SPEEDUP": "0", "TENANTS1M_TENANTS": "1000", "TENANTS1M_PREFIXES": "100000",
    "TENANTS1M_WORKERS": "1,2", "TENANTS1M_MIN_RSS_RATIO": "0", "REPLAY_MIN_RATE": "0",
    "REPLAY_REGRESSION_FRACTION": "0",
}
PASSES = {
    "product": [shlex.split(command) for command in PRODUCT],
    "paper": [["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
               path.relative_to(ROOT).as_posix()] for path in sorted(ROOT.glob("benchmarks/test_*.py"))],
    "tests": [["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]],
}


def functions(src: pathlib.Path):
    """``(key, qualname, lines)`` of every outermost function under ``src``;
    ``key`` is ``path:first line``, the decorator's line when it has one."""
    for path in sorted(src.rglob("*.py")):
        stack = [(node, "") for node in reversed(ast.parse(path.read_text()).body)]
        while stack:  # depth first, in source order
            node, owner = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack += [(child, f"{owner}{node.name}.") for child in reversed(node.body)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rel = path.relative_to(src).as_posix()
                yield f"{rel}:{first}", owner + node.name, node.end_lineno - first + 1


def code_names(text: str):
    """Every name token of ``text``: comments and plain strings do not count,
    an f-string's words do (Python 3.11 tokenizes an f-string whole)."""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            yield token.string
        elif token.type == tokenize.STRING and re.match(r"[a-zA-Z]*[fF]", token.string):
            yield from re.findall(r"[A-Za-z_]\w*", token.string)


def classify(src: pathlib.Path, entered: set, tested: set) -> list:
    """``(kind, referenced, lines, key, qualname)`` per outermost function;
    ``kind`` is ``entered``, ``dunder``, ``test-only`` or ``never``."""
    names = collections.Counter(
        name for path in src.rglob("*.py") for name in code_names(path.read_text())
    )
    rows = []
    for key, name, lines in functions(src):
        bare = name.rsplit(".", 1)[-1]
        if key in entered:
            kind = "entered"
        elif bare.startswith("__") and bare.endswith("__"):
            kind = "dunder"
        else:
            kind = "test-only" if key in tested else "never"
        rows.append((kind, names[bare] > 1, lines, key, name))  # a name past its def
    return rows


def run_pass(out: pathlib.Path, tree: pathlib.Path, name: str) -> set:
    """The keys one pass entered, running it only if ``OUTDIR/<name>.txt`` is absent."""
    done = out / f"{name}.txt"
    if not done.exists():
        raw = out / f"raw-{name}"
        raw.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), REACH_OUT=str(raw), **PAPER_ENV)
        with open(out / f"{name}.log", "w") as log:
            for argv in PASSES[name]:
                code = subprocess.run([sys.executable, *argv], cwd=tree, env=env, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
                print(f"{name}: exit {code}: {shlex.join(argv)}", file=sys.stderr, flush=True)
        keys = {line for path in raw.iterdir() for line in path.read_text().split()}
        done.write_text("".join(f"{key}\n" for key in sorted(keys)))
    return set(done.read_text().split())


def main(out: pathlib.Path) -> None:
    tree = out / "tree"
    if not tree.exists():
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", "*.egg-info"))
    (tree / "src" / "sitecustomize.py").write_text(HOOK)
    entered = run_pass(out, tree, "product") | run_pass(out, tree, "paper")
    rows = classify(tree / "src", entered, run_pass(out, tree, "tests"))
    totals = {}
    for kind, referenced, lines, key, name in rows:
        if kind != "entered":
            print(f"{kind:9} {'ref' if referenced else '-':3} {lines:4} {key} {name}")
        total = totals.setdefault(kind, [0, 0])
        total[0] += 1
        total[1] += lines
    for kind, (count, lines) in sorted(totals.items()):
        print(f"# {kind}: {count} functions, {lines} lines")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]).resolve())
