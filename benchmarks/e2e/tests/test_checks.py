import pytest

from benchmarks.e2e.checks import agreement_problems, conservation_problems

CLEAN = [
    (0.0, "t1", "submitted"), (0.1, "t1", "admitted"),
    (0.0, "t2", "submitted"), (0.2, "t2", "rejected"),
    (0.3, "t3", "submitted"), (0.4, "t3", "redirected"),
    (0.9, "t1", "completed"), (1.0, "t3", "failed"),
]


def test_balanced_ledger_passes():
    assert conservation_problems(CLEAN, ["t1", "t2", "t3"]) == []


def test_injected_duplicate_completion_is_rejected():
    events = CLEAN + [(1.1, "t1", "completed")]
    problems = conservation_problems(events, ["t1", "t2", "t3"])
    assert len(problems) == 1 and "t1" in problems[0] and "2 times" in problems[0]


def test_completed_then_failed_counts_as_duplicate():
    events = CLEAN + [(1.1, "t1", "failed")]
    assert conservation_problems(events, ["t1", "t2", "t3"])


def test_injected_lost_completion_is_rejected():
    events = [e for e in CLEAN if e != (0.9, "t1", "completed")]
    problems = conservation_problems(events, ["t1", "t2", "t3"])
    assert problems == ["task t1 never reached a terminal state"]


def test_timed_out_task_is_excused_not_lost():
    events = [e for e in CLEAN if e != (0.9, "t1", "completed")]
    assert conservation_problems(events, ["t1", "t2", "t3"], excused={"t1"}) == []


def test_repetitions_must_agree_exactly():
    assert agreement_problems([(1, 2.5), (1, 2.5), (1, 2.5)]) == []
    problems = agreement_problems([(1, 2.5), (1, 2.5000001), (1, 2.5)])
    assert len(problems) == 1 and "repetition 1" in problems[0]


def test_kernel_runs_made_by_the_program_arrive_in_slices(monkeypatch):
    from benchmarks.e2e import sim, speed

    class Env:
        now = 10.0
        stops = []

        def run(self, until):
            self.stops.append(until)
            self.now = until

    class Scenario:  # what Scenario.run does with its kernel
        def run(self, env, duration):
            env.run(until=env.now + duration)

    class HalfSpeed(speed.SpeedMeter):
        def factor(self):
            return 0.5

    meter = HalfSpeed()
    ticks = iter(range(1000))
    monkeypatch.setattr(speed, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(speed, "process_time", lambda: 0.0)
    env, spent = Env(), speed.Interval()
    with sim._kernel_in_slices(env, 0.4, meter, spent):
        Scenario().run(env, 1.0)
    assert env.stops == pytest.approx([10.4, 10.8, 11.0])
    assert env.now == 11.0
    assert "run" not in vars(env)  # the kernel's own method is back
    # Three slices of one fake second each, at half speed.
    assert (spent.raw_wall_s, spent.wall_s) == (3.0, 1.5)
