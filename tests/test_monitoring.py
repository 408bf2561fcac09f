"""The Profiler: load measurement and periodic reporting."""

import pytest

from repro.monitoring import LoadReport, Profiler, ServiceObservation
from repro.scheduling import Job, Processor, make_policy
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cpu(env):
    return Processor(env, "p1", power=4.0, policy=make_policy("EDF"))


class TestServiceObservation:
    def test_means(self):
        obs = ServiceObservation("svc")
        obs.observe(2.0, 8.0)
        obs.observe(4.0, 8.0)
        assert obs.mean_time == pytest.approx(3.0)

    def test_empty_means_zero(self):
        obs = ServiceObservation("svc")
        assert obs.mean_time == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ServiceObservation("svc").observe(-1.0, 1.0)


class TestLoadReport:
    def test_payload_round_trip(self):
        report = LoadReport(
            peer_id="p", time=1.0, power=4.0, utilization=0.5,
            load=2.0, bw_used=100.0, queue_work=3.0, queue_length=2,
            services={"s": 1.5},
        )
        again = LoadReport.from_payload(report.as_payload())
        assert again == report


class TestProfiler:
    def test_period_validation(self, env, cpu):
        with pytest.raises(ValueError):
            Profiler(env, cpu, update_period=0)

    def test_idle_processor_reports_zero_load(self, env, cpu):
        prof = Profiler(env, cpu, sample_period=0.5)
        env.run(until=10.0)
        assert prof.utilization == pytest.approx(0.0)
        assert prof.load == pytest.approx(0.0)

    def test_busy_processor_converges_to_full_load(self, env, cpu):
        prof = Profiler(env, cpu, sample_period=0.5, alpha=0.5)

        def feeder():
            while True:
                done = cpu.submit(
                    Job(work=40.0, abs_deadline=env.now + 100,
                        release=env.now)
                )
                yield done

        env.process(feeder())
        env.run(until=30.0)
        assert prof.utilization == pytest.approx(1.0, abs=0.01)
        # The paper's l_i = power x utilization.
        assert prof.load == pytest.approx(4.0, abs=0.05)

    def test_half_busy(self, env, cpu):
        # A tiny alpha averages over many busy/idle cycles, so the
        # estimate converges to the duty cycle regardless of phase.
        prof = Profiler(env, cpu, sample_period=0.5, alpha=0.02)

        def feeder():
            while True:
                # work=4 at power 4 => 1 s busy, then 1 s idle: 50% duty.
                done = cpu.submit(
                    Job(work=4.0, abs_deadline=env.now + 100,
                        release=env.now)
                )
                yield done
                yield env.timeout(1.0)

        env.process(feeder())
        env.run(until=400.0)
        assert prof.utilization == pytest.approx(0.5, abs=0.05)

    def test_reports_flow_at_update_period(self, env, cpu):
        reports = []
        prof = Profiler(
            env, cpu, report_fn=reports.append,
            update_period=2.0, sample_period=0.5,
        )
        env.run(until=10.5)
        assert len(reports) == 5
        assert reports[0].time == pytest.approx(2.0)
        assert all(r.peer_id == "p1" for r in reports)
        assert prof.reports_sent == 5

    def test_observe_service_included_in_report(self, env, cpu):
        reports = []
        prof = Profiler(env, cpu, report_fn=reports.append,
                        update_period=1.0)
        prof.observe_service("svcA", exec_time=2.0, work=8.0)
        env.run(until=1.5)
        assert reports[0].services == {"svcA": 2.0}

    def test_bytes_out_rate(self, env, cpu):
        prof = Profiler(env, cpu, sample_period=1.0, alpha=1.0)

        def sender():
            while True:
                prof.note_bytes_out(1000.0)
                yield env.timeout(1.0)

        env.process(sender())
        env.run(until=20.0)
        assert prof.bw_used == pytest.approx(1000.0, rel=0.1)

    def test_stop_halts_reporting(self, env, cpu):
        reports = []
        prof = Profiler(env, cpu, report_fn=reports.append,
                        update_period=1.0)
        env.run(until=3.5)
        prof.stop()
        n = len(reports)
        env.run(until=10.0)
        assert len(reports) == n

    def test_current_report_snapshot(self, env, cpu):
        prof = Profiler(env, cpu)
        cpu.submit(Job(work=8.0, abs_deadline=100, release=0))
        env.run(until=1.0)
        report = prof.current_report()
        assert report.queue_length == 1
        assert report.queue_work == pytest.approx(4.0)
        assert report.power == 4.0


class TestAdaptiveReporting:
    """§4.4: 'The application QoS requirements determine the
    appropriate update frequency.'"""

    def test_busy_peer_reports_faster(self, env, cpu):
        from repro.scheduling import Job

        reports = []
        Profiler(env, cpu, report_fn=reports.append,
                 update_period=2.0, adaptive=True)
        # Keep the CPU busy the whole time.
        cpu.submit(Job(work=4000.0, abs_deadline=1e9, release=0.0))
        env.run(until=20.0)
        busy_reports = len(reports)
        # Busy factor 0.5 => period 1.0 => ~20 reports in 20s.
        assert busy_reports == 20

    def test_idle_peer_reports_slower(self, env, cpu):
        reports = []
        Profiler(env, cpu, report_fn=reports.append,
                 update_period=2.0, adaptive=True)
        env.run(until=20.0)
        # Idle factor 2.0 => period 4.0 => ~5 reports in 20s.
        assert len(reports) == 5

    def test_non_adaptive_fixed_rate(self, env, cpu):
        reports = []
        Profiler(env, cpu, report_fn=reports.append,
                 update_period=2.0, adaptive=False)
        env.run(until=20.0)
        assert len(reports) == 10

    def test_factor_validation(self, env, cpu):
        with pytest.raises(ValueError):
            Profiler(env, cpu, adaptive=True, adaptive_busy_factor=0.0)

    def test_current_period_switches_with_queue(self, env, cpu):
        from repro.scheduling import Job

        prof = Profiler(env, cpu, update_period=2.0, adaptive=True)
        assert prof.current_period() == 4.0  # idle
        cpu.submit(Job(work=400.0, abs_deadline=1e9, release=0.0))
        assert prof.current_period() == 1.0  # busy
