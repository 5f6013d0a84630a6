"""Share-split workloads: apportionment, merging and routing over both axes
that split one workload into parts (tenant mixes and region topologies),
plus pinned fingerprints of every registered preset's workload."""

import hashlib

import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.job_generator import generate_synthetic_jobs
from repro.dynamics.scenario import TrafficSpec
from repro.region import (
    RegionSpec,
    RegionTopology,
    get_topology,
    regional_jobs,
    route_jobs_to_regions,
)
from repro.serve import (
    TenantMix,
    TenantSpec,
    get_tenant_mix,
    route_jobs_to_tenants,
    tenant_jobs,
)
from repro.workloads.split import apportion, draw_parts


def two_tenant_mix(share_a=0.3, share_b=0.7):
    return TenantMix(
        name="m",
        tenants=(
            TenantSpec(
                name="a",
                share=share_a,
                traffic=TrafficSpec(model="poisson", rate=0.05),
                job_priority=1,
            ),
            TenantSpec(name="b", share=share_b, qubit_range=(150, 200)),
        ),
    )


def poisson_config(n=20, seed=5, **kwargs):
    return SimulationConfig(num_jobs=n, seed=seed, arrival="poisson", arrival_rate=0.05, **kwargs)


class Tenants:
    """Parts are tenants; a job's part is its tenant tag."""

    @staticmethod
    def spec(shares):
        return TenantMix(
            name="m",
            tenants=tuple(TenantSpec(name=f"p{i}", share=s) for i, s in enumerate(shares)),
        )

    @staticmethod
    def build(spec, config):
        jobs = tenant_jobs(spec, config)
        return None if jobs is None else (jobs, {job.job_id: job.tenant for job in jobs})

    @staticmethod
    def route(jobs, spec, seed):
        return {job.job_id: job.tenant for job in route_jobs_to_tenants(jobs, spec, seed)}


class Regions:
    """Parts are regions; a job's part is its origin region."""

    @staticmethod
    def spec(shares):
        return RegionTopology(
            name="m",
            regions=tuple(RegionSpec(name=f"p{i}", workload_share=s) for i, s in enumerate(shares)),
        )

    @staticmethod
    def build(spec, config):
        return regional_jobs(spec, config)

    @staticmethod
    def route(jobs, spec, seed):
        return route_jobs_to_regions(jobs, spec, seed)


AXES = pytest.mark.parametrize("axis", [Tenants, Regions], ids=["tenants", "regions"])


def part_counts(parts):
    counts = {}
    for name in parts.values():
        counts[name] = counts.get(name, 0) + 1
    return counts


class TestApportion:
    def test_exact_shares(self):
        assert apportion([0.3, 0.7], 10) == [3, 7]

    def test_largest_remainder(self):
        # The leftover job goes to the earliest part.
        assert apportion([1.0, 1.0, 1.0], 10) == [4, 3, 3]

    def test_total_is_preserved(self):
        for n in (1, 7, 99):
            assert sum(apportion([0.3, 0.7], n)) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            apportion([0.3, 0.7], 0)

    @AXES
    @pytest.mark.parametrize(
        "shares, expected",
        [((0.3, 0.7), {"p0": 3, "p1": 7}), ((1.0, 1.0, 1.0), {"p0": 4, "p1": 3, "p2": 3})],
    )
    def test_builder_splits_by_share(self, axis, shares, expected):
        _, parts = axis.build(axis.spec(shares), poisson_config(n=10))
        assert part_counts(parts) == expected


class TestSplitWorkload:
    @AXES
    def test_merged_workload_shape(self, axis):
        jobs, parts = axis.build(axis.spec((0.3, 0.7)), poisson_config(n=20))
        assert len(jobs) == 20
        # Ids are globally unique and renumbered in arrival order.
        assert [j.job_id for j in jobs] == list(range(20))
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals == sorted(arrivals)
        assert sorted(parts) == list(range(20))
        # Both parts arrive over the same span, so their jobs interleave.
        assert len({parts[j.job_id] for j in jobs[:10]}) == 2

    @AXES
    def test_deterministic_in_seed(self, axis):
        spec = axis.spec((0.3, 0.7))

        def built(seed):
            jobs, parts = axis.build(spec, poisson_config(seed=seed))
            return [j.as_dict() for j in jobs], parts

        assert built(5) == built(5)
        assert built(5) != built(6)

    @AXES
    def test_one_part_is_passthrough(self, axis):
        assert axis.build(axis.spec((1.0,)), poisson_config()) is None

    def test_tenant_overrides_applied(self):
        jobs = tenant_jobs(two_tenant_mix(), poisson_config(n=20))
        for job in jobs:
            if job.tenant == "b":
                assert 150 <= job.num_qubits <= 200
            else:
                assert job.priority == 1  # job_priority stamped


class TestRouting:
    @AXES
    def test_routes_all_jobs_deterministically(self, axis):
        spec = axis.spec((0.3, 0.7))
        routed = axis.route(generate_synthetic_jobs(num_jobs=50, seed=9), spec, 9)
        counts = part_counts(routed)
        assert sorted(routed) == list(range(50))
        assert 0 < counts["p0"] < counts["p1"]  # 0.7 share dominates
        again = axis.route(generate_synthetic_jobs(num_jobs=50, seed=9), spec, 9)
        assert routed == again
        assert axis.route(generate_synthetic_jobs(num_jobs=50, seed=9), spec, 10) != routed

    @AXES
    def test_one_part_takes_every_job(self, axis):
        routed = axis.route(generate_synthetic_jobs(5, seed=1), axis.spec((2.0,)), 1)
        assert routed == {i: "p0" for i in range(5)}

    def test_one_part_draw_skips_the_rng(self, monkeypatch):
        import numpy as np

        def no_rng(seed):
            raise AssertionError("a one-part draw must not seed an RNG")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert draw_parts([3.0], 4, seed=1) == [0, 0, 0, 0]

    def test_tenant_tags_survive_csv_roundtrip(self, tmp_path):
        from repro.cloud.io import jobs_from_csv, jobs_to_csv

        routed = route_jobs_to_tenants(
            generate_synthetic_jobs(num_jobs=10, seed=3), two_tenant_mix(), seed=3
        )
        path = str(tmp_path / "jobs.csv")
        jobs_to_csv(routed, path)
        loaded = jobs_from_csv(path)
        assert [j.tenant for j in loaded] == [j.tenant for j in routed]
        assert [j.as_dict() for j in loaded] == [j.as_dict() for j in routed]

    def test_routing_preserves_explicit_priorities(self):
        jobs = generate_synthetic_jobs(num_jobs=10, seed=3)
        jobs[0].priority = -7
        routed = route_jobs_to_tenants(jobs, two_tenant_mix(), seed=3)
        assert routed[0].priority == -7  # explicit priority kept
        # Default-priority jobs routed to tenant "a" inherit job_priority=1.
        for job in routed[1:]:
            assert job.priority == (1 if job.tenant == "a" else 0)

    def test_single_tenant_routing_tags_everything(self):
        mix = TenantMix(name="m", tenants=(TenantSpec(name="only", job_priority=2),))
        jobs = route_jobs_to_tenants(generate_synthetic_jobs(5, seed=1), mix, seed=1)
        assert all(j.tenant == "only" and j.priority == 2 for j in jobs)

    def test_scenario_traffic_reaches_tenants_end_to_end(self):
        """A traffic scenario shapes arrivals; the mix owns the jobs."""
        from repro.cloud.environment import QCloudSimEnv

        config = SimulationConfig(
            num_jobs=12, seed=4, scenario="rush-hour", tenants="free-tier-vs-premium"
        )
        env = QCloudSimEnv(config)
        records = env.run_until_complete()
        tenants = {r.tenant for r in records}
        assert tenants <= {"premium", "free"}
        assert len(tenants) == 2
        # Arrivals follow the scenario's diurnal model, not the tenants' own
        # traffic specs: both tenants share one arrival stream.
        arrivals = sorted(r.arrival_time for r in records)
        assert arrivals[0] > 0.0  # diurnal thinning never emits t=0 arrivals


# -- fingerprints ------------------------------------------------------------------
def fingerprint(jobs, origin=None):
    """sha256 over every job's id, arrival, circuit counts, tenant, priority
    and origin region."""
    digest = hashlib.sha256()
    for job in jobs:
        c = job.circuit
        row = (
            job.job_id,
            job.arrival_time,
            c.num_qubits,
            c.depth,
            c.num_shots,
            c.num_two_qubit_gates,
            c.num_single_qubit_gates,
            job.tenant,
            job.priority,
            None if origin is None else origin[job.job_id],
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


FINGERPRINT_CONFIG = dict(num_jobs=97, seed=2025, arrival="poisson", arrival_rate=0.05)

TENANT_JOBS = {
    "free-tier-vs-premium": "695f8b4c12aacfba65a91a5121890a3a0d1a45e17a4ae56cdd8b804886a2effa",
    "batch-vs-interactive": "be15d2608c6847b9d6d87dc7619a1dacbc3c6062a68f04cefa7870332505291f",
    "noisy-neighbor": "bbd97155475ea3f29d91969ba72c99e13cb0a3822522e005a521bfbfc527df44",
}
ROUTED_TENANTS = {
    "single": "5a8aea90bd6c4f0f492065e0b91f5ae6de0e14504984687a1f78db65701cbac8",
    "free-tier-vs-premium": "e88f957615a5e3104ca6a413804b829b7fea199358a2e510d11be56be00adf29",
    "batch-vs-interactive": "3962ed62308ec6fcb03e56f9575bf8de4cf74cff1e57c7debbe21b7d51d0645c",
    "noisy-neighbor": "30ca1c575b9a875073db206a7134af443aba77f3e972050d14ab35ff738c1aab",
}
REGIONAL_JOBS = {
    "dual": "9f5ec1a3aeb3a27736fac1958b50906a2eeaa7917287957c6d7f18a072487097",
    "global-triad": "7a3bc54ea464dce6b3982db6eac299577dd553a484b27a2b46a83cb52acee80c",
    "region-outage": "141a21c9a7cf78733a921acc6f5c0d97d810982bfd567b77f55fc764a1f73152",
    "cross-region-rush-hour": "de24318c821c59f6ddb78582a9b82a0ce82aa09425922ba0183217b09a194222",
    "follow-the-sun": "cebf67d9059e5beb71faeca3d72cc3b58bdb6a470eb24b6599b0003b62761c92",
}
ROUTED_REGIONS = {
    "single": "c7fe70a82c942be15fe7dd10e25f949f7d4c910d34a036af897b2eb20ec2c3d6",
    "dual": "85e325418f68ab46be0648330062c0493d4ec5aa1c889c6dc1e54e772669d343",
    "global-triad": "77386539733628fb39c3bde68b4d6e8cd3feed52ab2af14fba554e513994008f",
    "region-outage": "6e922949127789ab7ac03cf8a0e05ae851eafc4bbccd860377786d64387be20f",
    "cross-region-rush-hour": "665f2313b0dcb5d9253e107d75d9f713b5e804676d08750bd33fe217fef972f3",
    "follow-the-sun": "8880c453e05fe80330e935022526b9f82e2579246e397de8eb283dd61cc867c5",
}
#: (scenario, tenant mix) -> the workload ``QCloudSimEnv`` builds by default.
ENVIRONMENT_JOBS = {
    (None, None): "00136cb58078e76852205e0986872bccdd885a14242be6e4a7d9cf31f0a7553b",
    (None, "free-tier-vs-premium"): TENANT_JOBS["free-tier-vs-premium"],
    ("rush-hour", None): "1a4ebeb5d879266d855ee3ad7dbb1eb4f36f6e93248ce37bc17037950277cb2c",
    ("rush-hour", "free-tier-vs-premium"): (
        "0507b4b058570055ddabc093f613a4effbb6c4b9827c72bdc8b994f8a322eb8b"
    ),
    ("black-friday", None): "e3efb16c747e8464e5f2f343728e3c4c6fc512f229ed1920c2da8fe14fae117a",
    ("black-friday", "free-tier-vs-premium"): (
        "49445dfed3892006a39ede00ce7476e858f7b6a01923b855a7f83636f5e10067"
    ),
}


class TestFingerprints:
    """Every registered preset's workload, pinned bit for bit."""

    def test_every_preset_is_pinned(self):
        from repro.region import available_topologies
        from repro.serve import available_tenant_mixes

        assert set(available_tenant_mixes()) == set(ROUTED_TENANTS) == {"single"} | set(TENANT_JOBS)
        assert set(available_topologies()) == set(ROUTED_REGIONS) == {"single"} | set(REGIONAL_JOBS)

    def test_passthrough_presets_build_nothing(self):
        config = SimulationConfig(**FINGERPRINT_CONFIG)
        assert tenant_jobs(get_tenant_mix("single"), config) is None
        assert regional_jobs(get_topology("single"), config) is None

    @pytest.mark.parametrize("name", sorted(TENANT_JOBS))
    def test_tenant_jobs(self, name):
        jobs = tenant_jobs(get_tenant_mix(name), SimulationConfig(**FINGERPRINT_CONFIG))
        assert fingerprint(jobs) == TENANT_JOBS[name]

    def test_tenant_jobs_with_synthetic_tenant(self):
        jobs = tenant_jobs(two_tenant_mix(), SimulationConfig(**FINGERPRINT_CONFIG))
        assert fingerprint(jobs) == (
            "dc39888389638dfc5a5023b915b403f589f9a6b61f8526c90d8168138b4f013c"
        )

    @pytest.mark.parametrize("name", sorted(ROUTED_TENANTS))
    def test_route_jobs_to_tenants(self, name):
        jobs = route_jobs_to_tenants(generate_synthetic_jobs(97, seed=7), get_tenant_mix(name), 2025)
        assert fingerprint(jobs) == ROUTED_TENANTS[name]

    @pytest.mark.parametrize("name", sorted(REGIONAL_JOBS))
    def test_regional_jobs(self, name):
        jobs, origin = regional_jobs(get_topology(name), SimulationConfig(**FINGERPRINT_CONFIG))
        assert fingerprint(jobs, origin) == REGIONAL_JOBS[name]

    @pytest.mark.parametrize("name", sorted(ROUTED_REGIONS))
    def test_route_jobs_to_regions(self, name):
        jobs = generate_synthetic_jobs(97, seed=7)
        origin = route_jobs_to_regions(jobs, get_topology(name), 2025)
        assert fingerprint(jobs, origin) == ROUTED_REGIONS[name]

    @pytest.mark.parametrize("scenario, mix", sorted(ENVIRONMENT_JOBS, key=repr))
    def test_environment_default_workload(self, scenario, mix):
        from repro.cloud.environment import QCloudSimEnv

        env = QCloudSimEnv(SimulationConfig(scenario=scenario, tenants=mix, **FINGERPRINT_CONFIG))
        assert fingerprint(env.job_generator.table.jobs) == ENVIRONMENT_JOBS[scenario, mix]
