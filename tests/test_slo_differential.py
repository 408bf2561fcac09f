"""The SLO monitor's running window sums against a full-window rescan.

``BurnRateMonitor`` keeps, per ring and SLO, prefix sums of sample and
bad counts and finds a window's edge with a bisect on the ring's times.
The reference below is the monitor as it was before: every evaluation
rescans the window through ``SeriesRing.points_since``, both kept
verbatim.  Random value/time sequences (small rings, so they compact;
equal and backwards times among them) are fed to two samplers, one
watched by each monitor, over ``>`` and ``<`` SLOs with several rings
per family.  The worst bad fraction at random window edges, the alerts
and the ``repro_slo_burn_rate`` series must be the same.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import SLO, BurnRateMonitor
from repro.telemetry import HealthSampler


def points_since(
    ring, t_min: float
) -> List[Tuple[float, float, float, float, int]]:
    """Points with ``t >= t_min`` (newest window), oldest first.

    Scans from the newest point and stops at the window edge, so a
    short trailing window over a long ring stays cheap (the SLO
    monitor calls this every evaluation).
    """
    out: List[Tuple[float, float, float, float, int]] = []
    for point in zip(
        reversed(ring._t), reversed(ring._v),
        reversed(ring._mn), reversed(ring._mx), reversed(ring._n),
    ):
        if point[0] < t_min:
            break
        out.append(point)
    out.reverse()
    return out


def worst_bad_fraction(rings, t_min: float, slo: SLO) -> Tuple[float, int]:
    """Max bad-sample fraction across the family's rings.

    Rolled-up points weigh in with their merged counts; a merged
    point is bad if its *worst* side (max for ">" SLOs, min for
    "<") violates, so downsampling cannot hide an excursion.
    """
    worst_frac = 0.0
    worst_n = 0
    for ring in rings:
        total = bad = 0
        for _t, _v, mn, mx, cnt in points_since(ring, t_min):
            total += cnt
            probe_v = mx if slo.comparison == ">" else mn
            if slo.violated(probe_v):
                bad += cnt
        if not total:
            continue
        frac = bad / total
        if frac > worst_frac or (frac == worst_frac and total > worst_n):
            worst_frac = frac
            worst_n = total
    return worst_frac, worst_n


class OracleMonitor(BurnRateMonitor):
    """The monitor with the full-window rescan."""

    def _worst_bad_fraction(self, rings, t_min, slo):
        return worst_bad_fraction(rings, t_min, slo)


SLOS = (
    SLO("high", "x_high", 0.5, objective=0.9),
    SLO("low", "x_low", 0.5, objective=0.8, comparison="<"),
)


class _Clock:
    def now(self) -> float:
        raise AssertionError("every sample passes its own now")


class _Tel:
    clock = _Clock()


def pipeline(monitor_cls, capacity, n_rings, warmup, feed):
    """A sampler whose probe writes *feed*'s values, and its monitor."""
    sampler = HealthSampler(_Tel(), capacity=capacity)
    monitor = monitor_cls(
        sampler, slos=SLOS, fast_window=3.0, slow_window=10.0,
        min_samples=2, warmup=warmup,
    )

    def signal(s) -> None:
        for k in range(n_rings):
            s.observe("x_high", feed[k], ring=k)
            s.observe("x_low", feed[-1 - k], ring=k)

    sampler.add_probe(signal)
    sampler.add_probe(monitor.as_probe())
    return sampler, monitor


values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
#: Mostly forward steps; 0 repeats a time, a negative one goes back.
steps = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.5, 7.0, -1.5])
ticks = st.lists(
    st.tuples(
        steps,
        st.lists(values, min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 12.0), max_size=3),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(2, 9),
    n_rings=st.integers(1, 3),
    warmup=st.sampled_from([0.0, 0.5]),
    script=ticks,
)
def test_running_sums_match_the_rescan(capacity, n_rings, warmup, script):
    feed: List[float] = []
    got_sampler, got = pipeline(
        BurnRateMonitor, capacity, n_rings, warmup, feed
    )
    want_sampler, want = pipeline(
        OracleMonitor, capacity, n_rings, warmup, feed
    )
    now = 0.0
    for dt, vals, ages in script:
        now += dt
        feed[:] = vals
        got_sampler.sample(now)
        want_sampler.sample(now)
        # Random window edges, between and beside the sample times.
        for slo in SLOS:
            rings = got_sampler.series_family(slo.series)
            for age in ages:
                assert got._worst_bad_fraction(rings, now - age, slo) \
                    == worst_bad_fraction(rings, now - age, slo)
    assert [a.as_dict() for a in got.alerts] \
        == [a.as_dict() for a in want.alerts]
    # Every series, the burn rates included, point for point.
    def points(sampler):
        return [(r.name, r.labels, list(r.points_from(0)))
                for r in sampler.all_series()]

    assert points(got_sampler) == points(want_sampler)
    # The small rings did compact, so the sums were rebuilt.
    if len(script) > capacity:
        assert all(
            r.compactions for r in got_sampler.series_family("x_high")
        )
