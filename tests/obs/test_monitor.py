"""The live run monitor: heartbeat cadence, payloads, engine wiring."""

import io
import json

import pytest

from repro.faults.spec import ChaosSpec
from repro.obs import Observer, RunMonitor, rss_bytes
from repro.obs.monitor import _fmt_bytes, _fmt_seconds
from repro.sim.engine import Environment
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_monitor(interval=1.0, check_every=1, sink=None):
    clock = FakeClock()
    monitor = RunMonitor(
        interval=interval, sink=sink, check_every=check_every, clock=clock
    )
    return monitor, clock


class TestHeartbeats:
    def test_no_heartbeat_before_interval(self):
        sink = io.StringIO()
        monitor, clock = make_monitor(interval=5.0, sink=sink)
        monitor.start()
        clock.advance(4.9)
        monitor.tick(100.0)
        assert monitor.heartbeat_count == 0
        assert sink.getvalue() == ""

    def test_heartbeat_after_interval(self):
        sink = io.StringIO()
        monitor, clock = make_monitor(interval=5.0, sink=sink)
        monitor.configure(horizon=1000.0)
        monitor.start()
        clock.advance(5.0)
        monitor.tick(500.0)
        assert monitor.heartbeat_count == 1
        beat = json.loads(sink.getvalue())
        assert beat["sim_time"] == 500.0
        assert beat["progress"] == 0.5
        assert beat["events"] == 1
        assert beat["final"] is False
        # Half done in 5s of wall time: ~5s to go.
        assert beat["eta_seconds"] == pytest.approx(5.0)

    def test_check_every_amortises_clock_reads(self):
        sink = io.StringIO()
        monitor, clock = make_monitor(interval=0.0001, check_every=100, sink=sink)
        monitor.start()
        clock.advance(10.0)
        for _ in range(99):
            monitor.tick(1.0)
        assert monitor.heartbeat_count == 0  # countdown not exhausted yet
        monitor.tick(1.0)
        assert monitor.heartbeat_count == 1

    def test_finish_emits_final_beat(self):
        sink = io.StringIO()
        monitor, clock = make_monitor(interval=1e9, sink=sink)
        monitor.configure(horizon=100.0)
        monitor.start()
        monitor.tick(50.0)
        clock.advance(2.0)
        monitor.finish(100.0)
        beats = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(beats) == 1
        assert beats[0]["final"] is True
        assert beats[0]["sim_time"] == 100.0
        assert beats[0]["progress"] == 1.0
        assert beats[0]["eta_seconds"] is None
        assert beats[0]["events_per_sec"] == pytest.approx(0.5)

    def test_stderr_text_mode(self, capsys):
        monitor, clock = make_monitor(interval=1.0, sink=None)
        monitor.configure(horizon=200.0)
        monitor.start()
        clock.advance(1.5)
        monitor.tick(100.0)
        err = capsys.readouterr().err
        assert "[monitor run]" in err
        assert "t=100" in err
        assert "50.0%" in err

    def test_rejects_bad_parameters(self):
        for interval in (0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                RunMonitor(interval=interval)
        with pytest.raises(ValueError):
            RunMonitor(check_every=0)

    def test_file_sink_owned(self, tmp_path):
        path = str(tmp_path / "beats.jsonl")
        clock = FakeClock()
        monitor = RunMonitor(interval=1.0, sink=path, check_every=1, clock=clock)
        monitor.start()
        monitor.finish(10.0)
        monitor.close()
        beats = [json.loads(line) for line in open(path)]
        assert beats[-1]["final"] is True


class TestHelpers:
    def test_rss_bytes_measurable_here(self):
        value = rss_bytes()
        assert value is None or value > 0

    def test_fmt_bytes(self):
        assert _fmt_bytes(None) == "?"
        assert _fmt_bytes(512) == "512B"
        assert _fmt_bytes(2048) == "2.0KiB"
        assert _fmt_bytes(3 * 1024 * 1024) == "3.0MiB"

    def test_fmt_seconds(self):
        assert _fmt_seconds(None) == "?"
        assert _fmt_seconds(30) == "30s"
        assert _fmt_seconds(90) == "1m30s"
        assert _fmt_seconds(7200) == "2h00m"


class TestEngineWiring:
    @pytest.mark.parametrize(
        "chaos", [None, ChaosSpec(proxy_mtbf=4 * 3600.0)], ids=["inline", "staged"]
    )
    def test_replay_ticks_monitor_once_per_static_record(self, chaos):
        """The loop ticks once per record of the static stream, plain or
        layered; the agenda's dynamic events (here, crashes and restarts) are
        not records and tick nothing."""
        monitor = RunMonitor(interval=1e9, sink=io.StringIO(), check_every=1)
        workload = make_trace("news", scale=0.01, seed=3)
        config = SimulationConfig(strategy="gdstar", capacity_fraction=0.05, seed=3, chaos=chaos)
        result = Simulation(workload, config, observer=Observer(monitor=monitor)).run()
        assert chaos is None or result.proxy_crashes > 0
        assert monitor.events == workload.publish_count + workload.request_count

    def test_environment_default_has_no_monitor(self):
        """The engine carries no monitor (nor profiler): the replay loop ticks it."""
        env = Environment()
        assert not hasattr(env, "monitor") and not hasattr(env, "profiler")

    def test_simulation_configures_and_finishes_monitor(self):
        sink = io.StringIO()
        monitor = RunMonitor(interval=1e9, sink=sink, check_every=1)
        workload = make_trace("news", scale=0.01, seed=3)
        config = SimulationConfig(strategy="gdstar", capacity_fraction=0.05, seed=3)
        Simulation(workload, config, observer=Observer(monitor=monitor)).run()
        assert monitor.horizon == workload.config.horizon
        assert monitor.events > 0
        beats = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert beats and beats[-1]["final"] is True
        assert beats[-1]["cache_used_bytes"] is not None

    def test_monitor_does_not_change_results(self):
        workload = make_trace("news", scale=0.01, seed=3)
        config = SimulationConfig(strategy="gdstar", capacity_fraction=0.05, seed=3)
        baseline = Simulation(workload, config).run()
        monitored = Simulation(
            make_trace("news", scale=0.01, seed=3),
            SimulationConfig(strategy="gdstar", capacity_fraction=0.05, seed=3),
            observer=Observer(
                monitor=RunMonitor(interval=1e9, sink=io.StringIO(), check_every=1)
            ),
        ).run()
        assert baseline.hit_ratio == monitored.hit_ratio
        assert baseline.summary() == monitored.summary()
