"""Tests for the command-line interface (driving main() in-process)."""

import argparse
import json
import os
import re
import shlex

import pytest

from repro.cli import build_parser, main
from repro.perf import METRICS

FAST_WORLD = [
    "--tier1", "3", "--tier2", "10", "--stubs", "25", "--no-churn",
]

ROOT = os.path.join(os.path.dirname(__file__), "..")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.seed == 1
        assert args.prefix == "10.0.0.0/23"
        assert args.hijack_type == "type-0"

    def test_baseline_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baselines", "--systems", "voodoo"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--no-corroborate"],
            ["taxonomy", "--classes", "type-0"],
            ["taxonomy", "--no-corroborate"],
            ["experiment", "--shards", "2"],
        ],
    )
    def test_unused_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit:
            build_parser().parse_args(argv)
        assert exit.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def readme_invocations():
    """Every ``python -m repro`` line of README.md."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    return [line for line in lines if line.startswith("python -m repro ")]


def workflow_invocations():
    """Every ``python -m repro`` command of the CI workflow, read as text:
    a folded ``run: >`` block is joined into one line, split on ``&&``, and
    a leading ``timeout N``, ``sh -c '`` or ``python benchmarks/peak_rss.py
    LIMIT`` wrapper is dropped."""
    workflow = os.path.join(ROOT, ".github", "workflows", "ci.yml")
    with open(workflow, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    runs = []
    for index, line in enumerate(lines):
        key = line.strip()
        key = key[2:] if key.startswith("- ") else key
        if not key.startswith("run:"):
            continue
        if key != "run: >":
            runs.append(key[len("run:"):])
            continue
        indent = len(line) - len(line.lstrip())
        block = []
        for follow in lines[index + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            block.append(follow.strip())
        runs.append(" ".join(block))
    segments = [segment for run in runs for segment in run.split("&&")]
    commands = [
        re.sub(
            r"^(timeout \d+ )?(sh -c ' *)?(python benchmarks/peak_rss\.py \d+ )?",
            "", segment.strip(),
        ).rstrip("'").strip()
        for segment in segments
    ]
    return [command for command in commands if command.startswith("python -m repro ")]


class TestDocumentedInvocations:
    """Every CLI line the README shows and the CI workflow runs parses, so a
    renamed flag fails here rather than in a reader's shell or in CI."""

    @pytest.mark.parametrize(
        "source, minimum",
        [(readme_invocations, 8), (workflow_invocations, 16)],
        ids=["README.md", "ci.yml"],
    )
    def test_parses(self, source, minimum, capsys):
        parser = build_parser()
        commands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        invocations = source()
        assert len(invocations) >= minimum, invocations
        for line in invocations:
            argv = shlex.split(line, comments=True)[3:]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{line!r}: {capsys.readouterr().err.strip()}")
            # argparse accepts a prefix of a flag; a line must spell it whole.
            known = {
                option for action in commands[argv[0]]._actions
                for option in action.option_strings
            }
            flags = {token.split("=")[0] for token in argv if token.startswith("--")}
            assert flags <= known, (line, flags - known)


class TestCommands:
    def test_topology(self, tmp_path, capsys):
        out = str(tmp_path / "topo.txt")
        assert main(["topology", "--tier1", "3", "--tier2", "5", "--stubs", "8", out]) == 0
        content = open(out).read()
        assert "|-1" in content
        assert "16 ASes" in capsys.readouterr().out

    def test_experiment_json(self, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        code = main(["experiment", "--seed", "2", "--json", out] + FAST_WORLD)
        assert code == 0
        text = capsys.readouterr().out
        assert "detection delay" in text
        payload = json.loads(open(out).read())
        assert payload["seed"] == 2
        assert payload["mitigated"] is True

    def test_suite(self, tmp_path, capsys):
        out = str(tmp_path / "suite.json")
        code = main(["suite", "--runs", "2", "--json", out] + FAST_WORLD)
        assert code == 0
        text = capsys.readouterr().out
        assert "timings over 2 experiments" in text
        assert len(json.loads(open(out).read())) == 2

    def test_demo_frames(self, tmp_path, capsys):
        out = str(tmp_path / "frames.json")
        code = main(
            ["demo", "--seed", "2", "--frames", "3", "--json", out] + FAST_WORLD
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "O=legit" in text
        payload = json.loads(open(out).read())
        assert payload["frames"]

    def test_forged_experiment(self, capsys):
        code = main(
            ["experiment", "--seed", "11", "--hijack-type", "type-1"] + FAST_WORLD
        )
        assert code == 0
        assert "detection delay" in capsys.readouterr().out


class TestFailureContract:
    """Every command fails the same way: one ``repro <command>: <error>``
    line on stderr, exit code 2, no traceback and no half-printed table."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--hijack-type", "bogus"],
            ["experiment", "--hijack-prefix", "11.0.0.0/24"],
            ["topology", "--tier1", "0", "out.txt"],
            ["replay", "/nonexistent"],
            ["topology", "--stubs", "10"],
        ],
        ids=[
            "hijack-type", "hijack-prefix", "tier1-0",
            "missing-trace", "topology-no-output",
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert "---" not in captured.out  # no table

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--runs", "-3"],
            ["suite", "--jobs", "0"],
            ["suite", "--jobs", "-2"],
            ["suite", "--stubs", "-5"],
            ["experiment", "--tier2", "-2"],
            ["experiment", "--helpers", "-1"],
            ["demo", "--frames", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}{argv[2]}",
    )
    def test_bad_count_flags_are_refused_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argv[1]}: must be at least" in captured.err
        assert captured.out == ""


class TestProfileAndJobs:
    def test_profile_prints_counter_table(self, capsys):
        code = main(["experiment", "--seed", "2", "--profile"] + FAST_WORLD)
        assert code == 0
        text = capsys.readouterr().out
        assert "perf counters" in text
        assert "events processed" in text
        assert "events / sec" in text

    def test_no_profile_no_counter_table(self, capsys):
        code = main(["experiment", "--seed", "2"] + FAST_WORLD)
        assert code == 0
        assert "perf counters" not in capsys.readouterr().out

    def test_profile_json_experiment(self, tmp_path):
        out = str(tmp_path / "profile.json")
        report = tmp_path / "report.json"
        code = main(
            ["experiment", "--seed", "2", "--profile-json", out, "--json", str(report)]
            + FAST_WORLD
        )
        assert code == 0
        # One writer, one layout: indent 2, sorted keys, trailing newline.
        written = json.loads(report.read_text())
        assert report.read_text() == json.dumps(written, indent=2, sort_keys=True) + "\n"
        payload = json.loads(open(out).read())
        assert payload["command"] == "experiment"
        assert payload["elapsed_seconds"] > 0
        assert payload["counters"]["events_processed"] > 0
        assert payload["counters"]["updates_processed"] > 0
        assert set(payload["counters"]) == {metric.name for metric in METRICS}
        walls = payload["phase_walls"]
        assert set(walls) == {"setup", "phase1", "phase2", "phase3"}
        assert all(seconds >= 0 for seconds in walls.values())

    def test_profile_json_suite_merges_workers(self, tmp_path):
        out = str(tmp_path / "profile.json")
        code = main(
            ["suite", "--runs", "2", "--jobs", "2", "--profile-json", out]
            + FAST_WORLD
        )
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["command"] == "suite"
        # Worker counters are merged back into the parent's totals.
        assert payload["counters"]["events_processed"] > 0
        # Suite phase walls are summed across the runs.
        assert payload["phase_walls"]["phase1"] > 0

    def test_suite_jobs_flag(self, tmp_path, capsys):
        out = str(tmp_path / "suite.json")
        code = main(
            ["suite", "--runs", "2", "--jobs", "2", "--json", out] + FAST_WORLD
        )
        assert code == 0
        assert "timings over 2 experiments" in capsys.readouterr().out
        assert len(json.loads(open(out).read())) == 2

    def test_jobs_default_is_serial(self):
        args = build_parser().parse_args(["suite"])
        assert args.jobs == 1


class TestBaselinesCommand:
    """`repro baselines` runs every row through the one experiment driver."""

    def table(self, capsys, *extra):
        code = main(["baselines", "--seed", "3", "--systems", "argus", "phas"]
                    + FAST_WORLD + list(extra))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        return {row.split()[0]: row.split()[1:] for row in lines[3:]}

    def test_slash23_every_defender_recovers(self, capsys):
        rows = self.table(capsys)
        assert list(rows) == ["artemis", "argus", "phas"]
        totals = [float(cells[2]) for cells in rows.values()]
        assert totals == sorted(totals)  # ARTEMIS first, the batch service last
        assert float(rows["argus"][1]) > 3 * float(rows["artemis"][1])  # the human

    def test_slash24_miss_prints_dash_not_zero(self, capsys):
        # A /24 cannot be out-de-aggregated: nobody fully recovers, and an
        # unrecovered hijack is "-" in every row (ARTEMIS' used to read 0.00).
        rows = self.table(capsys, "--prefix", "10.0.0.0/24")
        assert [cells[2] for cells in rows.values()] == ["-", "-", "-"]
        assert all(float(cells[0]) > 0 for cells in rows.values())


@pytest.fixture
def trace_and_spec(tmp_path):
    """A 40-record trace owning 10.0.0.0/16, and a two-tenant spec."""
    from repro.core.config import ArtemisConfig, OwnedPrefix
    from repro.feeds.events import ANNOUNCE, FeedEvent
    from repro.feeds.replay import TraceWriter
    from repro.net.prefix import Prefix

    trace = str(tmp_path / "t.trace")
    owned = ArtemisConfig([OwnedPrefix("10.0.0.0/16", [65000])])
    with TraceWriter(trace, config=owned) as writer:
        for i in range(40):
            writer.append(
                FeedEvent(
                    source="ris", collector="rrc00", vantage_asn=100 + i % 3,
                    kind=ANNOUNCE, prefix=Prefix.parse(f"10.{i % 2}.0.0/16"),
                    as_path=(1, 666 if i % 5 == 0 else 65000 + i % 2),
                    observed_at=float(i), delivered_at=i + 0.25,
                )
            )
    spec = {
        "tenants": {
            f"t{block}": {
                "config": ArtemisConfig(
                    [OwnedPrefix(f"10.{block}.0.0/16", [65000 + block])]
                ).to_dict()
            }
            for block in (0, 1)
        }
    }
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps(spec))
    return trace, str(path)


class TestTenantReplayLoadsWhatItReads:
    def digest(self, capsys):
        out = capsys.readouterr().out
        return next(l.split()[-1] for l in out.splitlines() if "merged alert digest" in l)

    def test_worker_mode_with_a_registry_file_never_loads_the_trace(
        self, trace_and_spec, capsys, monkeypatch
    ):
        trace, spec = trace_and_spec
        assert main(["replay", trace, "--tenants", spec]) == 0
        single = self.digest(capsys)

        def refuse(path):
            raise AssertionError("worker mode read the trace into the parent")

        monkeypatch.setattr("repro.feeds.replay.load_trace", refuse)
        code = main(["replay", trace, "--tenants", spec, "--detect-workers", "2"])
        assert code == 0
        assert self.digest(capsys) == single

    def test_replay_without_tenants_never_loads_the_trace(
        self, trace_and_spec, capsys, monkeypatch
    ):
        from repro.tenants import merged_alert_digest

        def row(out, name):
            return next(l.split()[-1] for l in out.splitlines() if l.split()[:-1] == name.split())

        trace, _spec = trace_and_spec
        assert main(["replay", trace]) == 0
        out = capsys.readouterr().out
        loaded = row(out, "merged alert digest")
        assert int(row(out, "alerts")) > 0
        assert loaded != merged_alert_digest([])[:16]

        def refuse(path):
            raise AssertionError("the replay tap loaded the trace")

        monkeypatch.setattr("repro.feeds.replay.load_trace", refuse)
        assert main(["replay", trace]) == 0
        assert row(capsys.readouterr().out, "merged alert digest") == loaded

    def test_max_events_is_refused_with_workers(self, trace_and_spec, capsys):
        trace, spec = trace_and_spec
        argv = ["replay", trace, "--tenants", spec, "--max-events", "5"]
        assert main(argv + ["--detect-workers", "2"]) == 2
        captured = capsys.readouterr()
        assert "--max-events does not apply" in captured.err
        assert captured.out == ""
        assert main(argv) == 0  # single process honours it
        assert "records read" in capsys.readouterr().out


KILL_PLAN = os.path.join(
    os.path.dirname(__file__), "..", "examples", "fault_plans", "midhijack_kill.json"
)


class TestOneReplayCommand:
    """One command, two engines: each flag applies to the engine that runs
    or exits 2 naming itself, and both engines report one digest."""

    @staticmethod
    def rows(out):
        """The "trace replay" table of one run's output, label -> value."""
        table = out.split("trace replay\n", 1)[1].split("\n\n", 1)[0]
        return {
            " ".join(line.split()[:-1]): line.split()[-1]
            for line in table.splitlines()[2:]
        }

    def test_one_tenant_spec_prints_the_session_digest(
        self, trace_and_spec, tmp_path, capsys
    ):
        from repro.feeds.replay import ReplayTap

        trace, _spec = trace_and_spec
        config = ReplayTap(trace).config.to_dict()
        spec = tmp_path / "operator.json"
        spec.write_text(json.dumps({"tenants": {"operator": {"config": config}}}))
        reports = []
        for extra in ([], ["--tenants", str(spec)]):
            out = tmp_path / f"report{len(reports)}.json"
            assert main(["replay", trace, "--json", str(out)] + extra) == 0
            reports.append(json.loads(out.read_text()))
        session, plane = reports
        assert (session["engine"], plane["engine"]) == ("session", "plane")
        assert session.keys() == plane.keys()  # one schema
        assert session["alerts"] == plane["alerts"] > 0
        assert session["merged_alert_digest"] == plane["merged_alert_digest"]
        out = capsys.readouterr().out
        first, second = out.split("report written")[:2]
        rows = [self.rows(first), self.rows(second)]
        assert list(rows[0]) == list(rows[1])  # one table layout
        assert rows[0]["merged alert digest"] == session["merged_alert_digest"][:16]

    @pytest.mark.parametrize(
        "registry, extra, outcome",
        [
            # The event-time session.
            (None, ["--speed", "1000"], ("speed", "1000x")),
            (None, ["--supervise"], ("records read", "40")),
            (None, ["--max-events", "5"], ("records read", "5")),
            (None, ["--faults", KILL_PLAN, "--seed", "3"], ("records read", "40")),
            (None, ["--seed", "3"], "--seed"),
            (None, ["--detect-workers", "3"], "--detect-workers"),
            (None, ["--batch-size", "7"], "--batch-size"),
            (None, ["--synth-prefixes", "8"], "--synth-prefixes"),
            # The registry plane.
            ("spec", ["--batch-size", "7"], ("batch size", "7")),
            ("spec", ["--detect-workers", "2"], ("detect workers", "2")),
            ("spec", ["--max-events", "5"], ("records read", "5")),
            ("synth", ["--synth-prefixes", "8"], ("rules", "8")),
            ("spec", ["--speed", "2"], "--speed"),
            ("spec", ["--faults", KILL_PLAN], "--faults"),
            ("spec", ["--supervise"], "--supervise"),
            ("spec", ["--seed", "3"], "--seed"),
            ("spec", ["--synth-tenants", "2"], "--synth-tenants"),
            ("spec", ["--synth-prefixes", "8"], "--synth-prefixes"),
            ("spec", ["--max-events", "5", "--detect-workers", "2"], "--max-events"),
        ],
    )
    def test_each_flag_applies_or_names_itself(
        self, trace_and_spec, capsys, registry, extra, outcome
    ):
        trace, spec = trace_and_spec
        argv = ["replay", trace] + extra
        if registry == "spec":
            argv += ["--tenants", spec]
        elif registry == "synth":
            argv += ["--synth-tenants", "2"]
        code = main(argv)
        captured = capsys.readouterr()
        if isinstance(outcome, str):
            assert code == 2
            assert captured.err.startswith(f"repro replay: {outcome} does not apply")
            assert captured.out == ""
        else:
            assert code == 0
            label, value = outcome
            assert self.rows(captured.out)[label] == value

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-events", "-1"), ("--batch-size", "-5"), ("--detect-workers", "0")],
    )
    def test_bad_numeric_flags_are_refused_at_parse_time(
        self, trace_and_spec, capsys, flag, value
    ):
        trace, spec = trace_and_spec
        with pytest.raises(SystemExit) as exit:
            main(["replay", trace, "--tenants", spec, flag, value])
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must be at least" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spec",
        [[], {"tenants": {"a": "not an object"}}, {"tenants": []}],
        ids=["top-level-list", "string-entry", "tenants-list"],
    )
    def test_malformed_tenant_spec_is_exit_2(self, trace_and_spec, tmp_path, capsys, spec):
        trace, _spec = trace_and_spec
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["replay", trace, "--tenants", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro replay: malformed tenant spec")
        assert captured.err.count("\n") == 1 and captured.out == ""


#: The recording ``experiment --tier1 3 --tier2 10 --stubs 25 --no-churn
#: --hijack-prefix 10.0.0.0/24 --seed 4 --record-trace`` writes, byte for byte.
RECORDED = os.path.join(os.path.dirname(__file__), "fixtures", "recorded_s4.trace")


class TestRecordedReplay:
    """The replay reports of a recorded seeded run: what each carries, and
    that every engine agrees on the alerts."""

    def replay(self, tmp_path, argv):
        out = tmp_path / "report.json"
        assert main(["replay"] + argv + ["--json", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("speed", ["0", "-1", "nan", "inf"])
    def test_a_speed_that_is_not_positive_and_finite_is_refused(self, speed, capsys):
        assert main(["replay", RECORDED, "--speed", speed]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "repro replay: replay speed must be a positive finite number"
        ), captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_the_report_carries_the_whole_digest(self, tmp_path, capsys):
        report = self.replay(tmp_path, [RECORDED])
        assert len(report["merged_alert_digest"]) == 64, report

    def test_faulted_replay_goes_dead_and_back_and_reports_what_it_skipped(
        self, tmp_path, capsys
    ):
        # The recorded ris outage reaches the supervisor on the tap's
        # engine; the plan's delay fault cannot replay and is listed.
        report = self.replay(tmp_path, [RECORDED, "--faults", KILL_PLAN, "--supervise"])
        ris = report["source_report"]["ris"]
        assert ris["outages"] >= 1, ris
        assert "delay:bgpmon" in report["faults_skipped"], report["faults_skipped"]

    @pytest.mark.parametrize("source", ["recorded", "trace_and_spec"])
    def test_one_and_two_workers_and_the_event_path_share_one_digest(
        self, source, request, tmp_path, capsys
    ):
        from repro.feeds.replay import load_trace
        from repro.tenants import DetectionPlane
        from repro.tenants.synth import build_synth_registry, observed_origin_map

        trace = RECORDED if source == "recorded" else request.getfixturevalue(source)[0]
        w1, w2 = (
            self.replay(tmp_path, [trace, "--synth-tenants", "50", "--detect-workers", n])
            for n in ("1", "2")
        )
        # The event-object entry: load_trace + ingest, one event at a time.
        events = load_trace(trace).events
        plane = DetectionPlane(build_synth_registry(
            observed_origin_map(events), num_tenants=50, num_prefixes=5000))
        list(map(plane.ingest, events))
        plane.flush()
        a, b = w1["merged_alert_digest"], w2["merged_alert_digest"]
        assert a == b == plane.digest() and plane.total_alerts(), (a, b, plane.digest())
        waits = [w2[key] for key in ("router_send_wait_s", "worker_recv_wait_s")]
        assert all(type(wait) in (int, float) for wait in waits), waits
