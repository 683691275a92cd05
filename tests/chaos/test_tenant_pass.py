"""Tests for the chaos tenant pass and its scenario dimensions."""

from dataclasses import replace

import pytest

from repro.chaos import ChaosRunner, Scenario, ScenarioGen
from repro.chaos.faults import Fault, FaultPlan
from repro.chaos.shrink import shrink_candidates
from repro.errors import ReproError


def tenant_scenario(faults=(), items=4, batch=2):
    return Scenario(
        seed=0, items=items, batch=batch, workers=1,
        tenants=("tenant-a", "tenant-b", "tenant-c"),
        arrival=tuple(i % 3 for i in range(items)),
        tenant_serving=True, tenant_classes=(0, 1, 2),
        faults=FaultPlan(faults=tuple(faults)),
    )


class TestScenarioDimensions:
    def test_tenant_classes_must_match_tenants(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=1, batch=1, workers=1, arrival=(0,),
                     tenants=("a", "b"), tenant_serving=True,
                     tenant_classes=(0,))

    def test_tenant_classes_must_be_valid_indexes(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=1, batch=1, workers=1, arrival=(0,),
                     tenants=("a",), tenant_serving=True,
                     tenant_classes=(7,))

    def test_roundtrips_through_dict(self):
        scenario = tenant_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_generator_draws_tenant_scenarios_as_a_minority(self):
        gen = ScenarioGen()
        drawn = [gen.generate(seed) for seed in range(200)]
        with_tenants = [s for s in drawn if s.tenant_serving]
        assert 0 < len(with_tenants) < 140
        for scenario in with_tenants:
            assert len(scenario.tenant_classes) == len(scenario.tenants)
            assert all(0 <= c <= 2 for c in scenario.tenant_classes)

    def test_tenant_faults_only_ride_tenant_scenarios(self):
        # The tenant dimension draws last, so a seed's plan is its
        # tenant-free plan plus (tenant scenarios only) appended faults at
        # the scheduler seams.
        gen = ScenarioGen()
        tenant_free = ScenarioGen(tenant_rate=0.0)
        for seed in range(200):
            scenario = gen.generate(seed)
            base = tenant_free.generate(seed).faults.faults
            faults = scenario.faults.faults
            assert faults[:len(base)] == base, seed
            extra = faults[len(base):]
            if extra:
                assert scenario.tenant_serving, seed
            for fault in extra:
                assert fault.site in ("serving.admit", "serving.batch"), seed
                assert fault.action in ("raise", "stall"), seed


class TestTenantPassRuns:
    def test_clean_tenant_scenario_passes(self):
        report = ChaosRunner().run(tenant_scenario())
        assert report.ok, report.describe()
        tenant = report.stats["tenant"]
        assert tenant["completed"] == 8  # items * batch
        assert tenant["rejected"] == 0
        # All three classes offered work, none starved.
        assert all(count > 0
                   for count in tenant["class_served"].values())

    def test_enqueue_raise_is_a_clean_shed_then_resubmitted(self):
        report = ChaosRunner().run(tenant_scenario(
            faults=[Fault(site="serving.admit", action="raise")]))
        assert report.ok, report.describe()
        assert any(f["site"] == "serving.admit" for f in report.fired)
        assert report.stats["tenant"]["completed"] == 8

    def test_tenant_pass_gets_its_own_fault_hits(self):
        # The single-tenant serving pass hits the same seams first; the
        # planned hit must still fire again inside the tenant pass.
        scenario = replace(tenant_scenario(
            faults=[Fault(site="serving.admit", action="raise")]),
            serving=True)
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        assert [f["site"] for f in report.fired] == ["serving.admit"] * 2

    def test_batch_raise_and_stall_are_absorbed(self):
        report = ChaosRunner().run(tenant_scenario(
            faults=[Fault(site="serving.batch", action="raise", at_hit=1),
                    Fault(site="serving.batch", action="stall",
                          at_hit=2, seconds=0.002)]))
        assert report.ok, report.describe()

    def test_generated_tenant_seeds_pass(self):
        gen = ScenarioGen()
        runner = ChaosRunner()
        ran = 0
        for seed in range(80):
            scenario = gen.generate(seed)
            if not scenario.tenant_serving:
                continue
            report = runner.run(scenario)
            assert report.ok, (seed, report.describe())
            assert "tenant" in report.stats, seed
            ran += 1
            if ran >= 6:
                break
        assert ran >= 1, "no tenant scenario in the first 80 seeds"


class TestShrinking:
    def test_shrinker_offers_to_drop_the_tenant_dimension(self):
        scenario = tenant_scenario()
        candidates = list(shrink_candidates(scenario))
        dropped = [c for c in candidates if not c.tenant_serving]
        assert dropped
        assert all(c.tenant_classes == () for c in dropped)

    def test_shrinking_tenants_keeps_classes_aligned(self):
        scenario = tenant_scenario()
        for candidate in shrink_candidates(scenario):
            if candidate.tenant_serving:
                assert len(candidate.tenant_classes) \
                    == len(candidate.tenants)
