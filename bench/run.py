"""The one benchmark: four workloads, six end-to-end metrics, traced layers.

Driver form (one workload, one result line, see ``BENCHMARK.json``)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything at once, for people::

    python3 bench/run.py --all [--seed N] [--repetitions R]   # end to end
    python3 bench/run.py --all --traced                       # per layer
    python3 bench/run.py --check-repeat                       # two sets agree?
    python3 bench/run.py --smoke                              # <30 s sanity

Protocol: flat-out closed loop, one client (this process).  A run of a
workload is several repetitions, each in a fresh child process
(``rep.py``), one at a time; every metric is the median over repetitions.
End-to-end numbers are taken with tracing off; ``--trace 1``/``--traced``
is a separate run of one untraced and one traced repetition.  Metric and
workload names, units and bounds live in ``BENCHMARK.json`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path[:0] = [BENCH_DIR, SRC]

import inputs  # noqa: E402  (needs BENCH_DIR on the path)

#: ``--all`` repetitions per workload (the recorded baseline's protocol).
DEFAULT_REPETITIONS = 7
#: ``--seconds`` runs never report a median of fewer repetitions: three
#: let the median discard one repetition a busy neighbour slowed.
MIN_REPETITIONS = 3
#: A single repetition may not outlive this (the driver allows 180 s a run).
REP_TIMEOUT = 150.0
#: The batch size the digest must not depend on (cross-check only).
CROSS_CHECK_BATCH = 256


def load_benchmark() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_expected() -> Dict:
    with open(os.path.join(BENCH_DIR, "expected.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------ repetitions


def run_rep(workload: str, mode: str, seed: int, prepared: Dict,
            batch: Optional[int] = None, spans_out: Optional[str] = None) -> Dict:
    """One repetition in a fresh process; its report, or ``{"error": ...}``."""
    command = [sys.executable, os.path.join(BENCH_DIR, "rep.py"),
               "--workload", workload, "--mode", mode, "--seed", str(seed)]
    if "trace" in prepared:
        command += ["--trace", prepared["trace"], "--summary", prepared["summary_path"]]
    if batch is not None:
        command += ["--batch", str(batch)]
    if spans_out is not None:
        command += ["--spans-out", spans_out]
    # A fixed hash seed keeps set/dict layouts, and so run time, the same
    # from one fresh process to the next.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    # Its own session, so a timeout can stop detection workers with it.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env, start_new_session=True)
    try:
        out, err = child.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"error": f"repetition exceeded {REP_TIMEOUT:.0f} s"}
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"error": f"exit {child.returncode}: {err.strip()[-400:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable report: {lines[-1][:200]}"}


def measure(workload: str, seed: int, prepared: Dict,
            repetitions: Optional[int] = None, seconds: float = 0.0) -> List[Dict]:
    """Timed repetitions: a fixed count, or as many as fill ``seconds``.

    ``seconds`` covers whole repetitions, set-up included (set-up is a
    metric too); the count comes out as ``seconds`` / repetition length,
    rounded, and at least ``MIN_REPETITIONS``.
    """
    reps: List[Dict] = []
    started = time.perf_counter()
    while True:
        mark = time.perf_counter()
        reps.append(run_rep(workload, "timed", seed, prepared))
        now = time.perf_counter()
        if repetitions is not None:
            if len(reps) >= repetitions:
                return reps
        elif len(reps) >= MIN_REPETITIONS and now - started >= seconds - (now - mark) / 2:
            return reps


# ------------------------------------------------------------------ checks


def check(workload: str, seed: int, prepared: Dict, reps: List[Dict],
          smoke: bool = False) -> List[str]:
    """Why this run's outputs are wrong; empty when they are right."""
    problems = [f"repetition {i}: {rep['error']}" for i, rep in enumerate(reps) if "error" in rep]
    checks = [rep["check"] for rep in reps if "error" not in rep]
    if not checks:
        return problems
    if any(other != checks[0] for other in checks[1:]):
        problems.append(f"repetitions disagree: {checks}")
    expected = load_expected() if seed == inputs.DEFAULT_SEED and not smoke else {}
    pinned = expected.get(workload, {})
    if workload == "sim_1000as":
        if pinned and checks[0]["outcome"] != pinned["outcome"]:
            problems.append(f"outcome {checks[0]['outcome']} differs from pins {pinned['outcome']}")
        return problems
    summary = prepared["summary"]
    recorded = prepared["base_outcome"]
    # The unfiltered tap adds engine events (its deliveries) but must leave
    # the simulated outcome alone: mitigated, detection delay, total time.
    if pinned and recorded is not None and recorded[:3] != expected["sim_1000as"]["outcome"][:3]:
        problems.append(f"recording changed the run: outcome {recorded}")
    if pinned and pinned["records"] == summary["records"] and checks[0]["digest"] != pinned["digest"]:
        problems.append(f"digest {checks[0]['digest']} differs from pin {pinned['digest']}")
    if checks[0]["incidents"] < 1:
        problems.append("no incident founded")
    if summary["mode"] == "diverse":
        if checks[0]["alert_blocks"] != summary["loops"]:
            problems.append(
                f"only {checks[0]['alert_blocks']} of {summary['loops']} loops founded an incident"
            )
        wanted = inputs.DIVERSE_CACHE_MULTIPLE * inputs.verdict_cache_size()
        if not smoke and summary["distinct_keys"] < wanted:
            problems.append(f"{summary['distinct_keys']} distinct keys, fewer than {wanted}")
    # Single-process and worker planes share a trace and must share its
    # digest: whichever ran first on this input left the reference.
    reference = os.path.splitext(prepared["trace"])[0] + ".digest"
    if os.path.exists(reference):
        with open(reference, "r", encoding="ascii") as handle:
            known = handle.read().strip()
        if known != checks[0]["digest"]:
            problems.append(f"digest {checks[0]['digest']} differs from earlier run's {known}")
    elif not problems:
        with open(reference, "w", encoding="ascii") as handle:
            handle.write(checks[0]["digest"] + "\n")
    return problems


def cross_check(workload: str, seed: int, prepared: Dict, reps: List[Dict]) -> List[str]:
    """The digest must not depend on the batch size (``--all`` only)."""
    if workload not in ("replay_steady", "replay_diverse"):
        return []
    other = run_rep(workload, "timed", seed, prepared, batch=CROSS_CHECK_BATCH)
    if "error" in other:
        return [f"batch {CROSS_CHECK_BATCH}: {other['error']}"]
    digests = {rep["check"]["digest"] for rep in reps if "error" not in rep}
    if digests != {other["check"]["digest"]}:
        return [f"digest at batch {CROSS_CHECK_BATCH} {other['check']['digest']} differs from {digests}"]
    return []


# ----------------------------------------------------------------- metrics


def summarise(values: List[float]) -> Dict:
    """Median, min, quartiles and sample count of one metric's samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(prepared: Dict, reps: List[Dict], problems: List[str]) -> Dict:
    """Per-metric summaries over the repetitions, plus attempted/failed."""
    good = [rep for rep in reps if "error" not in rep]
    per_rep = prepared["summary"]["records"] if "summary" in prepared else 1
    attempted = per_rep * len(reps)
    failed = per_rep * (len(reps) - len(good)) + sum(rep["failed"] for rep in good)
    if problems:
        # A wrong output fails every operation of the run.
        failed = attempted
    samples = {
        "setup_s": [rep["setup_s"] for rep in good],
        "wall_s": [rep["wall_s"] for rep in good],
        "events_per_s": [rep["work"] / rep["wall_s"] for rep in good],
        "cpu_s": [rep["cpu_s"] for rep in good],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in good],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "work": good[0]["work"] if good else 0,
        "metrics": {name: summarise(values) for name, values in samples.items() if values},
    }


def traced(workload: str, seed: int, prepared: Dict, benchmark: Dict,
           smoke: bool = False) -> Dict:
    """One untraced and one traced repetition; every per-layer metric."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = run_rep(workload, "timed", seed, prepared)
    layered = run_rep(workload, "traced", seed, prepared,
                      spans_out=os.path.join(OUT_DIR, f"spans-{workload}.json"))
    problems = check(workload, seed, prepared, [plain, layered], smoke=smoke)
    layers = dict(layered.get("layers", {}))
    if not problems:
        layers["trace.overhead_share"] = (layered["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    # A layer this workload does not exercise did no work: 0.
    values = {metric["name"]: layers.get(metric["name"], 0) for metric in benchmark["per_layer"]}
    return {"problems": problems, "values": values, "shares": layered.get("shares", {}),
            "attempted": 2, "failed": 2 if problems else 0}


# ------------------------------------------------------------------ output


def host() -> Dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def print_end_to_end(workload: str, result: Dict, benchmark: Dict) -> None:
    print(f"\n{workload}: {result['work']} work items per repetition, "
          f"inputs_s {result['inputs_s']:.2f}, repetitions {result['repetitions']}")
    print(f"  {'metric':<14}{'unit':<10}{'median':>14}{'min':>14}{'q1':>14}{'q3':>14}{'n':>4}{'bound':>7}")
    for metric in benchmark["end_to_end"]:
        row = result["metrics"].get(metric["name"])
        if row:
            print(f"  {metric['name']:<14}{metric['unit']:<10}{row['median']:>14.4f}{row['min']:>14.4f}"
                  f"{row['q1']:>14.4f}{row['q3']:>14.4f}{row['n']:>4}{metric['bound']:>7.2f}")
    print(f"  {'failed_share':<14}{'ratio':<10}{result['failed_share']:>14.4f}"
          f"   ({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


def print_traced(workload: str, result: Dict, benchmark: Dict) -> None:
    print(f"\n{workload}: per-layer metrics (traced run)")
    for metric in benchmark["per_layer"]:
        value = result["values"][metric["name"]]
        if value:
            print(f"  {metric['name']:<30}{value:>18.6g} {metric['unit']}")
    shares = sorted(result["shares"].items(), key=lambda item: -item[1])
    print("  share of traced self time: "
          + ", ".join(f"{layer} {share:.1%}" for layer, share in shares if share >= 0.001))
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


def metric_specs(benchmark: Dict) -> Dict[str, Dict]:
    """Every declared metric, end-to-end and per-layer, by name."""
    return {metric["name"]: metric for section in ("end_to_end", "per_layer")
            for metric in benchmark[section]}


def results_document(benchmark: Dict, seed: int, protocol: Dict, workloads: Dict) -> Dict:
    """The one output schema (``bench/out/results*.json``)."""
    specs = metric_specs(benchmark)
    return {
        "host": host(),
        "seed": seed,
        "protocol": protocol,
        "workloads": {
            name: {
                "records": entry.get("work"),
                "failed_share": entry["failed"] / entry["attempted"],
                "problems": entry["problems"],
                "metrics": {
                    metric: dict(row, unit=specs[metric]["unit"], bound=specs[metric].get("bound"))
                    for metric, row in entry["metrics"].items()
                },
            }
            for name, entry in workloads.items()
        },
    }


def validate_results(document: Dict, benchmark: Dict) -> List[str]:
    """Schema problems of a results document; empty when it is valid."""
    problems = []
    for key in ("host", "seed", "protocol", "workloads"):
        if key not in document:
            problems.append(f"missing {key}")
    for key in ("commit", "nproc", "python", "platform"):
        if key not in document.get("host", {}):
            problems.append(f"host lacks {key}")
    known = {w["name"] for w in benchmark["workloads"]}
    names = metric_specs(benchmark)
    for workload, entry in document.get("workloads", {}).items():
        if workload not in known:
            problems.append(f"unknown workload {workload}")
        if not 0 <= entry.get("failed_share", -1) <= 1:
            problems.append(f"{workload}: failed_share out of range")
        for metric, row in entry.get("metrics", {}).items():
            if metric not in names:
                problems.append(f"{workload}: unknown metric {metric}")
            missing = {"unit", "median", "min", "q1", "q3", "n", "bound"} - set(row)
            if missing:
                problems.append(f"{workload}.{metric} lacks {sorted(missing)}")
    return problems


def write_results(name: str, document: Dict, benchmark: Dict) -> str:
    invalid = validate_results(document, benchmark)
    if invalid:
        raise ValueError(f"results document breaks its schema: {invalid}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# ------------------------------------------------------------------- modes


def run_workload(workload: str, seed: int, repetitions: Optional[int] = None,
                 seconds: float = 0.0, smoke: bool = False, full_gate: bool = False) -> Dict:
    """One workload's end-to-end run and checks; ``full_gate`` adds the
    batch-size cross-check, which costs one more repetition."""
    prepared = inputs.prepare(workload, seed, smoke=smoke)
    reps = measure(workload, seed, prepared, repetitions=repetitions, seconds=seconds)
    problems = check(workload, seed, prepared, reps, smoke=smoke)
    if full_gate:
        problems += cross_check(workload, seed, prepared, reps)
    result = end_to_end(prepared, reps, problems)
    result.update(problems=problems, inputs_s=prepared["inputs_s"], repetitions=len(reps))
    return result


def run_set(benchmark: Dict, seed: int, repetitions: int, smoke: bool = False,
            quiet: bool = False) -> Dict:
    """Every workload's end-to-end run, with the full correctness gate."""
    results: Dict = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        results[workload] = run_workload(
            workload, seed, repetitions=repetitions, smoke=smoke, full_gate=True)
        if not quiet:
            print_end_to_end(workload, results[workload], benchmark)
    return results


def protocol_of(repetitions: int, results: Dict) -> Dict:
    return {
        "loop": "closed, flat out, one client",
        "repetitions": repetitions,
        "workers": min(2, os.cpu_count() or 1),
        "records": {name: entry.get("work") for name, entry in results.items()},
    }


def mode_all(args, benchmark: Dict) -> int:
    print(f"host: {host()}  seed {args.seed}")
    if args.traced:
        results = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            prepared = inputs.prepare(workload, args.seed, smoke=args.smoke)
            result = traced(workload, args.seed, prepared, benchmark, smoke=args.smoke)
            print_traced(workload, result, benchmark)
            result["metrics"] = {name: summarise([value])
                                 for name, value in result["values"].items() if value}
            results[workload] = result
        document = results_document(benchmark, args.seed, protocol_of(1, results), results)
        path = write_results("results-traced.json", document, benchmark)
    else:
        results = run_set(benchmark, args.seed, args.repetitions, smoke=args.smoke)
        document = results_document(
            benchmark, args.seed, protocol_of(args.repetitions, results), results)
        path = write_results("results.json", document, benchmark)
    wrong = [name for name, entry in results.items() if entry["problems"] or entry["failed"]]
    print(f"\nresults written to {os.path.relpath(path, ROOT)}"
          + (f"; WRONG OUTPUT on {wrong}" if wrong else "; all outputs correct"))
    return 1 if wrong else 0


def mode_check_repeat(args, benchmark: Dict) -> int:
    first = run_set(benchmark, args.seed, args.repetitions, quiet=True)
    second = run_set(benchmark, args.seed, args.repetitions, quiet=True)
    breaches = 0
    for workload in first:
        print(f"\n{workload}")
        for metric in benchmark["end_to_end"]:
            a = first[workload]["metrics"][metric["name"]]["median"]
            b = second[workload]["metrics"][metric["name"]]["median"]
            apart = abs(b - a) / a
            verdict = "ok" if apart <= metric["bound"] else "APART"
            breaches += verdict != "ok"
            print(f"  {metric['name']:<14}{a:>14.4f}{b:>14.4f}{apart:>8.1%}"
                  f"  bound {metric['bound']:.0%}  {verdict}")
        for problem in first[workload]["problems"] + second[workload]["problems"]:
            breaches += 1
            print(f"  WRONG: {problem}")
    print("\ntwo sets agree within every bound" if not breaches
          else f"\n{breaches} disagreements: raise repetitions, not bounds")
    return 1 if breaches else 0


def mode_driver(args, benchmark: Dict) -> int:
    """One workload, one run, one result line."""
    if args.trace:
        prepared = inputs.prepare(args.workload, args.seed)
        result = traced(args.workload, args.seed, prepared, benchmark)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["values"].items()}
        print_traced(args.workload, result, benchmark)
    else:
        result = run_workload(args.workload, args.seed, seconds=args.seconds)
        print_end_to_end(args.workload, result, benchmark)
        metrics = {m["name"]: {"value": result["metrics"][m["name"]]["median"], "unit": m["unit"]}
                   for m in benchmark["end_to_end"] if m["name"] in result["metrics"]}
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repetitions", type=int, default=DEFAULT_REPETITIONS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"{SRC}/repro not found: the benchmark measures the program in "
              "this checkout and cannot run without it", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.smoke:
        args.all, args.repetitions = True, 1
    if args.check_repeat:
        return mode_check_repeat(args, benchmark)
    if args.all:
        return mode_all(args, benchmark)
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error("give --workload NAME, --all, --check-repeat or --smoke")
    return mode_driver(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
