"""``repro-live``'s ``main()`` in process, and the console scripts' flags.

The happy path drives every observation flag at once through the one
:class:`~repro.telemetry.observation.Observation` session; the failure
path pins that a failed run still exports what it collected; the
inventory pins every console script's option set.
"""

import importlib
import json
import os
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro
from repro import telemetry
from repro.runtime.cli import main
from repro.telemetry.cli import main as trace_main
from repro.telemetry.export import read_jsonl


def _record_types(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line)["type"] for line in fp]


class TestHappyPath:
    def test_all_observation_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        result = {}

        def run():
            result["rc"] = main([
                "--peers", "4", "--trace", str(trace), "--sample", "0.1",
                "--profile", "--profile-folded", str(tmp_path / "p.folded"),
                "--metrics-port", "0", "--linger", "0.5", "--json",
            ])

        worker = threading.Thread(target=run)
        worker.start()
        url = health = None
        deadline = time.monotonic() + 8.0
        while health is None and time.monotonic() < deadline:
            err = capsys.readouterr().err
            for line in err.splitlines():
                if line.startswith("metrics endpoint: "):
                    url = line.split(": ", 1)[1].rsplit("/", 1)[0]
            if url is not None:
                with urllib.request.urlopen(url + "/healthz", timeout=2) as r:
                    health = json.load(r)
            else:
                time.sleep(0.02)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert result["rc"] == 0
        assert health["status"] == "ok" and health["nodes"] > 0
        assert "profiler" in health
        report = json.loads(capsys.readouterr().out)
        assert report["tasks"][0]["state"] == "DONE"
        types = set(_record_types(trace))
        assert {"meta", "span", "metric", "series", "profile"} <= types
        data = read_jsonl(str(trace))
        assert data.meta["runtime"] == "live" and "aggregate" in data.meta
        assert data.profile["runtime"] == "wall"
        assert telemetry.current() is telemetry.NOOP


class TestFailedRun:
    ARGS = ["--peers", "4", "--timeout", "0.0001"]

    def test_rpc_timeout_is_one_error_line(self, capsys):
        assert main(self.ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_failed_run_exports_what_it_collected(self, tmp_path, capsys):
        trace = tmp_path / "fail.jsonl"
        rc = main(self.ARGS + [
            "--trace", str(trace), "--sample", "0.1", "--profile",
        ])
        assert rc == 1
        types = _record_types(trace)
        assert types.count("series") >= 1 and types.count("profile") == 1
        assert telemetry.current() is telemetry.NOOP
        capsys.readouterr()
        assert trace_main([str(trace)]) == 0
        assert "clock=wall" in capsys.readouterr().out


class TestValidation:
    @pytest.mark.parametrize("argv,needle", [
        (["--sample", "0.1"], "--sample requires --trace"),
        (["--metrics-port", "0"], "--metrics-port requires --trace"),
        (["--profile-budget", "0.05"], "--profile-budget requires"),
        (["--profile-folded", "f.folded"], "--profile-folded requires"),
        (["--shards", "2", "--trace", "x"], "in-process features"),
        (["--peers", "0"], "--peers must be at least 1"),
    ])
    def test_rejected(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    def test_unknown_origin_exits_2(self, capsys):
        assert main(["--origin", "BOGUS"]) == 2
        assert "unknown origin peer" in capsys.readouterr().err


# Every console script's option strings, pinned from the commit before
# the flags moved behind add_observation_flags: a flag may be added on
# purpose (update the literal), never lost by accident.
FLAG_INVENTORY = {
    "repro.experiments.cli": {
        "--csv", "--help", "--json", "--list", "--quick", "-h",
    },
    "repro.workloads.cli": {
        "--defense", "--drain", "--duration", "--help", "--metrics-out",
        "--policy", "--print-default-config", "--profile",
        "--profile-budget", "--profile-folded", "--record-trace",
        "--sample", "--scenario", "--seed", "--trace", "-h",
    },
    "repro.runtime.cli": {
        "--deadline", "--defense", "--duration", "--help", "--json",
        "--linger", "--log-json", "--log-level", "--metrics-port",
        "--origin", "--peers", "--policy", "--profile", "--profile-budget",
        "--profile-folded", "--sample", "--shards", "--tasks", "--timeout",
        "--trace", "-h",
    },
    "repro.runtime.soak": {
        "--duration", "--help", "--json", "--metrics-port", "--no-drain",
        "--no-kill", "--observe", "--peers", "--profiler-period", "--rate",
        "--record-dir", "--seed", "--shards", "-h",
    },
    "repro.telemetry.cli": {"--help", "--json", "--verbose", "-h", "-v"},
    "repro.benchmarking.cli": {
        "--bench-id", "--help", "--list", "--only", "--out", "--profile",
        "--profile-baseline", "--profile-folded", "--profile-period",
        "--quick", "--repeat", "--sample", "--scenario-dir", "--suite",
        "--warmup", "-h",
    },
    "repro.telemetry.dash": {
        "--bundle", "--help", "--json", "--markdown", "--width", "-h",
    },
}


@pytest.mark.parametrize("module", sorted(FLAG_INVENTORY))
def test_flag_inventory(module):
    parser = importlib.import_module(module).build_parser()
    options = {o for a in parser._actions for o in a.option_strings}
    assert options == FLAG_INVENTORY[module]


def test_registered_policy_is_accepted_by_both_parsers():
    from repro.core.control import placement
    from repro.runtime.cli import build_parser as live_parser
    from repro.workloads.cli import build_parser as run_parser

    placement.register_policy("test_only", lambda rng: placement.PaperPolicy())
    try:
        assert run_parser().parse_args(
            ["c.json", "--policy", "test_only"]).policy == "test_only"
        assert live_parser().parse_args(
            ["--policy", "test_only"]).policy == "test_only"
    finally:
        del placement._POLICY_FACTORIES["test_only"]
    with pytest.raises(SystemExit):
        run_parser().parse_args(["c.json", "--policy", "test_only"])


def test_policy_and_defense_travel_in_the_rm_config(monkeypatch, capsys):
    """``repro-live`` builds the RMConfig the elected RM runs."""
    from repro.runtime.cluster import LiveCluster, LiveClusterConfig

    seen = []

    class Spy(LiveCluster):
        async def start(self):
            await super().start()
            seen.append(self.rm_node.node.rm_config)
            return self

    monkeypatch.setattr("repro.runtime.cli.LiveCluster", Spy)
    assert main(["--peers", "2", "--policy", "least_loaded", "--defense"]) == 0
    capsys.readouterr()
    (rm_config,) = seen
    assert rm_config.placement_policy == "least_loaded"
    assert rm_config.enable_defense
    assert (rm_config.expected_update_period
            == LiveClusterConfig().profiler_update_period)


def test_default_paths_do_not_load_profiling():
    """The benchmark's peak_rss_mb bound rests on ``repro.profiling``
    staying unimported until a run asks for ``--profile``."""
    code = (
        "import asyncio, sys\n"
        "import repro.workloads.scenario, repro.runtime.cluster\n"
        "import repro.runtime.shard, repro.workloads.cli, repro.runtime.cli\n"
        "from repro.runtime.cluster import LiveCluster, LiveClusterConfig\n"
        "async def go():\n"
        "    async with LiveCluster(LiveClusterConfig(n_peers=2)) as c:\n"
        "        await c.submit('P1', deadline=20.0, timeout=10.0)\n"
        "asyncio.run(go())\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.profiling'))\n"
        "assert not bad, bad\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
