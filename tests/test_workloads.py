"""Workload generation: catalog, population, arrivals, scenario."""

import numpy as np
import pytest

from repro.workloads import (
    MediaCatalog,
    PopulationConfig,
    ScenarioConfig,
    TaskArrivalProcess,
    WorkloadConfig,
    build_scenario,
    default_formats,
    generate_specs,
)
from repro.workloads.population import make_objects


class TestCatalog:
    def test_default_formats_valid(self):
        formats = default_formats()
        assert len(formats) >= 6
        assert len(set(formats)) == len(formats)

    def test_conversions_exclude_identity(self):
        cat = MediaCatalog()
        assert all(a != b for a, b in cat.conversions())

    def test_conversions_respect_upscale_cap(self):
        cat = MediaCatalog()
        for a, b in cat.conversions():
            assert b.pixel_rate <= a.pixel_rate

    def test_work_positive(self):
        cat = MediaCatalog()
        a, b = cat.conversions()[0]
        assert cat.work_of(a, b) > 0
        assert cat.out_bytes_of(b) > 0

    def test_reachability_grows_with_hops(self):
        cat = MediaCatalog()
        src = cat.source_formats()[0]
        r1 = set(cat.reachable_from(src, max_hops=1))
        r3 = set(cat.reachable_from(src, max_hops=3))
        assert r1 <= r3
        assert src not in r3

    def test_source_formats_are_high_end(self):
        cat = MediaCatalog()
        sources = cat.source_formats()
        rest = [f for f in cat.formats if f not in sources]
        value = lambda f: f.pixel_rate * f.bitrate_kbps
        assert min(map(value, sources)) >= max(map(value, rest))

    def test_needs_two_formats(self):
        with pytest.raises(ValueError):
            MediaCatalog(formats=[default_formats()[0]])


class TestPopulation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_peers=0)
        with pytest.raises(ValueError):
            PopulationConfig(bandwidth_probs=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            PopulationConfig(replication=0)

    def test_spec_count_and_ids(self):
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=12)
        specs = generate_specs(cat, cfg, np.random.default_rng(0))
        assert len(specs) == 12
        assert len({s.peer_id for s in specs}) == 12

    def test_homogeneous_power(self):
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=8, power_cv=0.0, mean_power=7.0)
        specs = generate_specs(cat, cfg, np.random.default_rng(0))
        assert all(s.power == 7.0 for s in specs)

    def test_lognormal_power_mean(self):
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=600, mean_power=10.0, power_cv=0.5)
        specs = generate_specs(cat, cfg, np.random.default_rng(0))
        mean = np.mean([s.power for s in specs])
        assert mean == pytest.approx(10.0, rel=0.15)

    def test_every_conversion_covered(self):
        """Seeding guarantees each conversion type has an instance."""
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=16, services_per_peer=6)
        specs = generate_specs(cat, cfg, np.random.default_rng(3))
        hosted = {
            (s.src_state, s.dst_state)
            for spec in specs
            for s in spec.services
        }
        assert hosted >= set(cat.conversions())

    def test_replication_factor(self):
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=10, n_objects=5, replication=3)
        rng = np.random.default_rng(0)
        objects = make_objects(cat, cfg, rng)
        specs = generate_specs(cat, cfg, rng, objects=objects)
        for obj in objects:
            holders = [s for s in specs if obj.name in s.objects]
            assert len(holders) == 3

    def test_replication_capped_by_population(self):
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=2, n_objects=2, replication=5)
        specs = generate_specs(cat, cfg, np.random.default_rng(0))
        # No error; every object on at most n_peers peers.
        assert len(specs) == 2

    def test_bandwidth_tiers_sampled(self):
        cat = MediaCatalog()
        cfg = PopulationConfig(n_peers=300)
        specs = generate_specs(cat, cfg, np.random.default_rng(0))
        seen = {s.bandwidth for s in specs}
        assert seen <= set(cfg.bandwidth_tiers)
        assert len(seen) == 3


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(rate=0)
        with pytest.raises(ValueError):
            WorkloadConfig(deadline_slack=0)


class TestScenario:
    def test_build_and_short_run(self):
        cfg = ScenarioConfig(
            seed=5,
            population=PopulationConfig(n_peers=8, n_objects=4),
            workload=WorkloadConfig(rate=0.5),
        )
        scenario = build_scenario(cfg)
        assert scenario.overlay.n_peers >= 7  # unqualified may be rejected
        summary = scenario.run(duration=60.0, drain=30.0)
        assert summary.n_submitted > 0
        assert summary.n_met + summary.n_missed + summary.n_rejected \
            + summary.n_failed <= summary.n_submitted + 1

    def test_same_seed_reproduces_summary(self):
        def once():
            cfg = ScenarioConfig(
                seed=9,
                population=PopulationConfig(n_peers=8, n_objects=4),
                workload=WorkloadConfig(rate=0.5),
            )
            s = build_scenario(cfg).run(duration=60.0, drain=20.0)
            return (s.n_submitted, s.n_met, s.n_missed, s.messages)

        assert once() == once()

    def test_different_seeds_differ(self):
        def once(seed):
            cfg = ScenarioConfig(
                seed=seed,
                population=PopulationConfig(n_peers=8, n_objects=4),
                workload=WorkloadConfig(rate=0.8),
            )
            s = build_scenario(cfg).run(duration=60.0, drain=20.0)
            return (s.n_submitted, s.messages)

        assert once(1) != once(2)

    def test_run_duration_validation(self):
        cfg = ScenarioConfig(
            population=PopulationConfig(n_peers=4, n_objects=2)
        )
        scenario = build_scenario(cfg)
        with pytest.raises(ValueError):
            scenario.run(duration=0.0)

    def test_arrival_rate_roughly_matches(self):
        cfg = ScenarioConfig(
            seed=3,
            population=PopulationConfig(n_peers=8, n_objects=4),
            workload=WorkloadConfig(rate=1.0),
        )
        scenario = build_scenario(cfg)
        scenario.run(duration=200.0, drain=10.0)
        assert scenario.workload.n_generated == pytest.approx(200, rel=0.25)

    def test_zipf_prefers_popular_objects(self):
        cfg = ScenarioConfig(
            seed=3,
            population=PopulationConfig(n_peers=8, n_objects=6),
            workload=WorkloadConfig(rate=2.0, zipf_s=1.2),
        )
        scenario = build_scenario(cfg)
        scenario.run(duration=200.0, drain=10.0)
        by_name = {}
        for task in scenario.metrics.tasks.values():
            by_name[task.name] = by_name.get(task.name, 0) + 1
        first = by_name.get(scenario.objects[0].name, 0)
        last = by_name.get(scenario.objects[-1].name, 0)
        assert first > last


class TestArrivalProcess:
    def test_requires_objects(self):
        cfg = ScenarioConfig(
            population=PopulationConfig(n_peers=4, n_objects=2)
        )
        scenario = build_scenario(cfg)
        with pytest.raises(ValueError):
            TaskArrivalProcess(scenario.overlay, scenario.catalog, [])

    def test_stop_halts_generation(self):
        cfg = ScenarioConfig(
            seed=1,
            population=PopulationConfig(n_peers=6, n_objects=3),
            workload=WorkloadConfig(rate=2.0),
        )
        scenario = build_scenario(cfg)
        scenario.env.run(until=20.0)
        scenario.workload.stop()
        n = scenario.workload.n_generated
        scenario.env.run(until=60.0)
        assert scenario.workload.n_generated == n
