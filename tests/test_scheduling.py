"""Scheduling policies and the processor model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    EDFPolicy,
    FIFOPolicy,
    ImportancePolicy,
    Job,
    LLSPolicy,
    Processor,
    SJFPolicy,
    make_policy,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestPolicies:
    def test_make_policy_known_names(self):
        for name in ("LLS", "EDF", "FIFO", "SJF", "VALUE", "lls"):
            assert make_policy(name) is not None

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("CFS")

    def make_jobs(self):
        j1 = Job(work=10, abs_deadline=100, release=0, importance=1)
        j2 = Job(work=2, abs_deadline=50, release=5, importance=9)
        return j1, j2

    def test_fifo_orders_by_release(self):
        j1, j2 = self.make_jobs()
        p = FIFOPolicy()
        assert p.key(j1, 0, 1) < p.key(j2, 0, 1)
        assert not p.preemptive

    def test_edf_orders_by_deadline(self):
        j1, j2 = self.make_jobs()
        p = EDFPolicy()
        assert p.key(j2, 0, 1) < p.key(j1, 0, 1)

    def test_lls_orders_by_laxity(self):
        j1, j2 = self.make_jobs()
        p = LLSPolicy()
        # laxity j1 = 100-0-10 = 90; j2 = 50-0-2 = 48.
        assert p.key(j2, 0, 1.0) < p.key(j1, 0, 1.0)
        assert p.time_varying

    def test_lls_laxity_depends_on_power(self):
        j = Job(work=10, abs_deadline=20, release=0)
        assert j.laxity(0, power=1.0) == 10.0
        assert j.laxity(0, power=2.0) == 15.0

    def test_sjf_orders_by_remaining(self):
        j1, j2 = self.make_jobs()
        p = SJFPolicy()
        assert p.key(j2, 0, 1) < p.key(j1, 0, 1)

    def test_value_orders_by_density(self):
        j1, j2 = self.make_jobs()
        p = ImportancePolicy()
        assert p.key(j2, 0, 1) < p.key(j1, 0, 1)

    def test_ties_break_by_job_id(self):
        a = Job(work=5, abs_deadline=10, release=0, job_id=1)
        b = Job(work=5, abs_deadline=10, release=0, job_id=2)
        p = EDFPolicy()
        assert p.key(a, 0, 1) < p.key(b, 0, 1)


class TestJob:
    def test_work_positive(self):
        with pytest.raises(ValueError):
            Job(work=0, abs_deadline=1, release=0)

    def test_met_deadline_none_until_done(self):
        j = Job(work=1, abs_deadline=1, release=0)
        assert j.met_deadline is None and j.response_time is None


class TestProcessor:
    def test_power_validation(self, env):
        with pytest.raises(ValueError):
            Processor(env, "p", power=0, policy=EDFPolicy())

    def test_quantum_validation(self, env):
        with pytest.raises(ValueError):
            Processor(env, "p", 1.0, EDFPolicy(), quantum=0)

    def test_single_job_exec_time(self, env):
        cpu = Processor(env, "p", power=2.0, policy=EDFPolicy())
        j = Job(work=10, abs_deadline=100, release=0)

        def driver():
            yield cpu.submit(j)

        env.run(env.process(driver()))
        assert env.now == pytest.approx(5.0)
        assert j.completed_at == pytest.approx(5.0)
        assert j.met_deadline

    def test_edf_preemption(self, env):
        cpu = Processor(env, "p", power=1.0, policy=EDFPolicy())
        long_job = Job(work=10, abs_deadline=100, release=0)
        urgent = Job(work=2, abs_deadline=5, release=0)

        def driver():
            d_long = cpu.submit(long_job)
            yield env.timeout(1)
            d_urgent = cpu.submit(urgent)
            yield d_urgent
            assert env.now == pytest.approx(3.0)
            yield d_long
            assert env.now == pytest.approx(12.0)

        env.run(env.process(driver()))
        assert long_job.preemptions == 1
        assert cpu.n_completed == 2 and cpu.n_missed == 0

    def test_fifo_no_preemption(self, env):
        cpu = Processor(env, "p", power=1.0, policy=FIFOPolicy())
        first = Job(work=5, abs_deadline=100, release=0)
        urgent = Job(work=1, abs_deadline=2, release=0)

        def driver():
            cpu.submit(first)
            yield env.timeout(0.5)
            d = cpu.submit(urgent)
            yield d

        env.run(env.process(driver()))
        assert urgent.completed_at == pytest.approx(6.0)
        assert urgent.met_deadline is False
        assert cpu.n_missed == 1

    def test_work_conservation(self, env):
        """Busy time equals total submitted work / power."""
        cpu = Processor(env, "p", power=2.0, policy=EDFPolicy())
        jobs = [
            Job(work=w, abs_deadline=1000, release=0)
            for w in (3.0, 7.0, 2.0, 8.0)
        ]

        def driver():
            events = [cpu.submit(j) for j in jobs]
            for ev in events:
                yield ev

        env.run(env.process(driver()))
        assert cpu.busy_time == pytest.approx(sum(j.work for j in jobs) / 2.0)
        assert env.now == pytest.approx(10.0)

    def test_cancel_queued_job(self, env):
        cpu = Processor(env, "p", power=1.0, policy=FIFOPolicy())
        a = Job(work=5, abs_deadline=100, release=0)
        b = Job(work=5, abs_deadline=100, release=0)

        def driver():
            da = cpu.submit(a)
            db = cpu.submit(b)
            cpu.cancel(b, "test")
            got = yield db
            assert got is b and b.cancelled
            yield da

        env.run(env.process(driver()))
        assert cpu.n_cancelled == 1 and cpu.n_completed == 1

    def test_cancel_running_job_preemptive(self, env):
        cpu = Processor(env, "p", power=1.0, policy=EDFPolicy())
        j = Job(work=100, abs_deadline=1000, release=0)

        def driver():
            done = cpu.submit(j)
            yield env.timeout(2)
            cpu.cancel(j, "test")
            got = yield done
            assert got.cancelled

        env.run(env.process(driver()))
        assert env.now == pytest.approx(2.0)
        assert cpu.busy_time == pytest.approx(2.0)

    def test_stop_resolves_all_jobs(self, env):
        cpu = Processor(env, "p", power=1.0, policy=EDFPolicy())
        jobs = [Job(work=50, abs_deadline=1000, release=0) for _ in range(3)]

        def driver():
            events = [cpu.submit(j) for j in jobs]
            yield env.timeout(1)
            cpu.stop()
            for ev in events:
                yield ev

        env.run(env.process(driver()))
        assert all(j.cancelled for j in jobs)
        with pytest.raises(RuntimeError):
            cpu.submit(Job(work=1, abs_deadline=1, release=0))

    def test_queue_work_includes_running_progress(self, env):
        cpu = Processor(env, "p", power=1.0, policy=EDFPolicy())
        j = Job(work=10, abs_deadline=100, release=0)

        def driver():
            cpu.submit(j)
            yield env.timeout(4)
            assert cpu.queue_work() == pytest.approx(6.0)
            assert cpu.queue_length == 1
            yield env.timeout(100)

        env.run(env.process(driver()))

    def test_busy_time_now_during_slice(self, env):
        cpu = Processor(env, "p", power=1.0, policy=FIFOPolicy())
        j = Job(work=10, abs_deadline=100, release=0)

        def driver():
            cpu.submit(j)
            yield env.timeout(3)
            assert cpu.busy_time_now() == pytest.approx(3.0)
            yield env.timeout(100)

        env.run(env.process(driver()))

    @pytest.mark.parametrize("policy", [LLSPolicy, EDFPolicy, FIFOPolicy])
    def test_stop_mid_slice_accounts_the_slice(self, env, policy):
        """A processor stopped mid-slice books the slice's CPU time at
        the stop and runs nothing after it."""
        cpu = Processor(env, "p", power=1.0, policy=policy(), quantum=0.5)
        j = Job(work=10, abs_deadline=100, release=0)

        def driver():
            cpu.submit(j)
            yield env.timeout(3.25)
            cpu.stop()
            yield env.timeout(20)

        env.run(env.process(driver()))
        assert j.cancelled
        assert cpu.running is None and cpu.queue_length == 0
        assert cpu.busy_time == cpu.busy_time_now() == pytest.approx(3.25)
        assert cpu.queue_work() == 0

    def test_lls_alternation_under_quantum(self, env):
        """Two equal jobs with different deadlines share under LLS."""
        cpu = Processor(env, "p", power=1.0, policy=LLSPolicy(), quantum=0.5)
        a = Job(work=4, abs_deadline=10, release=0)
        b = Job(work=4, abs_deadline=11, release=0)

        def driver():
            da, db = cpu.submit(a), cpu.submit(b)
            yield da
            yield db

        env.run(env.process(driver()))
        # Both complete; the later-deadline job finishes last, and the
        # CPU never idles: total time = total work.
        assert env.now == pytest.approx(8.0)
        assert b.completed_at >= a.completed_at

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=20.0),   # work
                st.floats(min_value=1.0, max_value=100.0),  # deadline
                st.floats(min_value=0.0, max_value=10.0),   # submit delay
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(["LLS", "EDF", "FIFO", "SJF", "VALUE"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_policy_completes_every_job(self, specs, policy):
        env = Environment()
        cpu = Processor(env, "p", power=2.0, policy=make_policy(policy))
        jobs = []

        def submitter():
            events = []
            for work, deadline, delay in specs:
                yield env.timeout(delay)
                j = Job(work=work, abs_deadline=env.now + deadline,
                        release=env.now)
                jobs.append(j)
                events.append(cpu.submit(j))
            for ev in events:
                yield ev

        env.run(env.process(submitter()))
        assert cpu.n_completed == len(specs)
        assert all(j.completed_at is not None for j in jobs)
        total_work = sum(w for w, _d, _s in specs)
        assert cpu.busy_time == pytest.approx(total_work / 2.0, rel=1e-6)
