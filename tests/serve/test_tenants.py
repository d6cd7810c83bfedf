"""Router admission under skewed tenant mixes.

Unit tests drive the weighted-fair shed path against scripted fake
shards (deterministic queue contents, no servers); the end-to-end tests
run real clusters to check block-mode fairness and that quarantine
re-homing preserves per-tenant queue conservation.
"""

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.faults import FaultPlan, FaultSpec, activate_plan
from repro.regress import attach_auditor
from repro.serve import Router
from repro.serve.bench import run_bench
from repro.telemetry import TelemetrySession
from repro.sim import Kernel, paper_machine

from tests.serve.test_router import FakeShard


class TenantFakeShard(FakeShard):
    """FakeShard plus the tenant-occupancy surface preemption needs."""

    def tenant_occupancy(self):
        occupancy = {}
        for request in self.queue:
            occupancy[request.tenant] = occupancy.get(request.tenant, 0) + 1
        return occupancy

    def evict_newest(self, tenant):
        for position in range(len(self.queue) - 1, -1, -1):
            if self.queue[position].tenant == tenant:
                return self.queue.pop(position)
        return None


def make_tenant_router(kernel, weights, n_shards=1, capacity=3, **kwargs):
    shards = [
        TenantFakeShard(kernel, i, capacity=capacity) for i in range(n_shards)
    ]
    router = Router(kernel, shards, tenant_weights=weights, **kwargs)
    return router, shards


def submit_tenant(kernel, router, tenant, op="get", key=b"k"):
    """Run one tenant-tagged request to the point it parks or finishes."""
    thread = kernel.spawn(
        router.request(op, key, tenant=tenant), name=f"req-{tenant}", kind="app"
    )
    kernel.run()
    return thread


class TestWeightedFairShed:
    def test_rejects_non_positive_weights(self):
        kernel = Kernel(paper_machine())
        with pytest.raises(ValueError):
            make_tenant_router(kernel, {"gold": 0.0})
        with pytest.raises(ValueError):
            make_tenant_router(kernel, {})

    def test_over_share_newest_evicted_for_under_share_newcomer(self):
        kernel = Kernel(paper_machine())
        router, shards = make_tenant_router(
            kernel, {"gold": 3.0, "bronze": 1.0}, capacity=3
        )
        bronze = [submit_tenant(kernel, router, "bronze") for _ in range(3)]
        assert all(not t.done for t in bronze)  # queued, parked on done

        gold = submit_tenant(kernel, router, "gold")
        # bronze pressure 3/1 beats gold's post-admission 1/3: bronze's
        # newest queued request is shed, gold goes in.
        assert router.preempted == 1
        assert router.tenants["bronze"].shed == 1
        assert shards[0].tenant_occupancy() == {"bronze": 2, "gold": 1}
        assert bronze[-1].result == ("shed", None)  # newest, not oldest
        assert all(not t.done for t in bronze[:-1])
        assert not gold.done  # admitted and waiting, not shed

    def test_shed_ordering_tracks_pressure_across_arrivals(self):
        kernel = Kernel(paper_machine())
        router, shards = make_tenant_router(
            kernel, {"gold": 3.0, "bronze": 1.0}, capacity=3
        )
        for _ in range(3):
            submit_tenant(kernel, router, "bronze")
        golds = [submit_tenant(kernel, router, "gold") for _ in range(3)]

        # First two golds each evict a bronze (pressure 3/1 then 2/1);
        # the third finds gold itself at pressure 2/3 vs its own
        # post-admission 3/3 — nobody is further over share, so the
        # newcomer is shed.
        assert router.preempted == 2
        assert router.tenants["bronze"].shed == 2
        assert router.tenants["gold"].shed == 1
        assert shards[0].tenant_occupancy() == {"bronze": 1, "gold": 2}
        assert golds[-1].result == ("shed", None)

    def test_ties_break_to_lexicographically_largest_tenant(self):
        kernel = Kernel(paper_machine())
        router, shards = make_tenant_router(
            kernel, {"a": 1.0, "b": 1.0, "c": 1.0}, capacity=4
        )
        for tenant in ("a", "a", "b", "b"):
            submit_tenant(kernel, router, tenant)
        submit_tenant(kernel, router, "c")
        # a and b tie at pressure 2; the deterministic victim is b.
        assert router.preempted == 1
        assert router.tenants["b"].shed == 1
        assert shards[0].tenant_occupancy() == {"a": 2, "b": 1, "c": 1}

    def test_no_preemption_without_weights(self):
        kernel = Kernel(paper_machine())
        shards = [TenantFakeShard(kernel, 0, capacity=2)]
        router = Router(kernel, shards)  # weights unset: plain shed
        for _ in range(2):
            submit_tenant(kernel, router, "bronze")
        gold = submit_tenant(kernel, router, "gold")
        assert gold.result == ("shed", None)
        assert router.preempted == 0
        assert shards[0].tenant_occupancy() == {"bronze": 2}

    def test_over_share_newcomer_is_shed_itself(self):
        kernel = Kernel(paper_machine())
        router, shards = make_tenant_router(
            kernel, {"gold": 3.0, "bronze": 1.0}, capacity=3
        )
        for _ in range(3):
            submit_tenant(kernel, router, "gold")
        extra = submit_tenant(kernel, router, "gold")
        # gold would be at pressure 4/3 after admission, above everyone
        # queued — weighted fairness offers it no victim.
        assert extra.result == ("shed", None)
        assert router.preempted == 0
        assert router.tenants["gold"].shed == 1

    def test_preempted_request_still_conserved(self):
        kernel = Kernel(paper_machine())
        router, shards = make_tenant_router(
            kernel, {"gold": 2.0, "bronze": 1.0}, capacity=2
        )
        for _ in range(2):
            submit_tenant(kernel, router, "bronze")
        submit_tenant(kernel, router, "gold")
        # Drain the queue by hand and let the submitters finish.
        for request in shards[0].drain():
            request.complete(b"v")
        kernel.run()
        assert router.submitted == 3
        assert router.completed + router.shed + router.failed == 3
        for tenant, stats in router.tenants.items():
            counts = stats.counts()
            assert counts["submitted"] == (
                counts["completed"] + counts["shed"] + counts["failed"]
            ), tenant


#: Enclave loss early enough to land inside the short audited runs.
EARLY_LOST = FaultPlan(
    name="early-lost",
    seed=11,
    faults=(FaultSpec(kind="enclave-lost", at_ms=0.5),),
)

SKEWED_MIX = {"gold": 6.0, "silver": 3.0, "bronze": 1.0}


def per_tenant_conserved(result):
    for tenant, record in result["per_tenant"].items():
        accounted = record["completed"] + record["shed"] + record["failed"]
        assert record["submitted"] == accounted, tenant
    totals = result["totals"]
    for counter in ("submitted", "completed", "shed", "failed"):
        assert totals[counter] == sum(
            record[counter] for record in result["per_tenant"].values()
        ), counter


class TestBlockModeFairness:
    def test_skewed_mix_blocks_instead_of_shedding(self):
        result = run_bench(
            BenchSpec(
                serve=ServeSpec(
                    shards=1,
                    policy="round-robin",
                    admission="block",
                    queue_capacity=2,
                    budget=4,
                    tenants=tuple(sorted(SKEWED_MIX.items())),
                ),
                seconds=0.01,
                rate=None,
                clients=6,
                requests_per_client=100,
            ),
            telemetry=False,
        )
        per_tenant_conserved(result)
        # Blocking admission never sheds and never preempts: every
        # tenant's submissions complete, however skewed the mix.
        assert result["totals"]["shed"] == 0
        assert result["totals"]["preempted"] == 0
        assert set(result["per_tenant"]) == set(SKEWED_MIX)
        for tenant, record in result["per_tenant"].items():
            assert record["submitted"] == record["completed"], tenant
            assert record["shed_rate"] == 0.0

    def test_weighted_mix_reaches_every_tenant(self):
        result = run_bench(
            BenchSpec(
                serve=ServeSpec(
                    shards=2,
                    budget=4,
                    tenants=tuple(sorted(SKEWED_MIX.items())),
                ),
                seconds=0.02,
                rate=4_000.0,
            ),
            telemetry=False,
        )
        per_tenant_conserved(result)
        submitted = {
            tenant: record["submitted"]
            for tenant, record in result["per_tenant"].items()
        }
        assert all(submitted[tenant] > 0 for tenant in SKEWED_MIX)
        # The draw respects the weights at least ordinally on this seed.
        assert submitted["gold"] > submitted["bronze"]


class TestQuarantineRehoming:
    def test_rehoming_keeps_tenant_tags_and_conservation(self):
        # Deterministic re-homing: queue tenant-tagged requests on the
        # victim shard, quarantine it, and check every request lands on
        # the healthy shard with its tenant intact.
        kernel = Kernel(paper_machine())
        shards = [TenantFakeShard(kernel, i, capacity=8) for i in range(2)]
        router = Router(
            kernel,
            shards,
            policy="round-robin",
            tenant_weights={"gold": 3.0, "bronze": 1.0},
        )
        victim, healthy = shards
        mix = ("gold", "bronze", "gold", "gold", "bronze")
        threads = [submit_tenant(kernel, router, tenant) for tenant in mix]
        # Round-robin split the mix; force everything onto the victim.
        victim.queue.extend(healthy.queue)
        healthy.queue = []
        for request in victim.queue:
            request.shard = victim.index

        victim.enclave.lost = True
        router.quarantine(victim)
        victim.enclave.lost = False
        kernel.run()  # drive the re-routing daemons and the probe

        assert router.rerouted == len(mix)
        rehomed = [(r.tenant, r.shard) for r in healthy.queue]
        assert sorted(t for t, _ in rehomed) == sorted(mix)
        assert all(shard == healthy.index for _, shard in rehomed)
        # Complete the re-homed queue: per-tenant books balance exactly.
        for request in healthy.drain():
            request.complete(b"v")
        kernel.run()
        assert all(thread.result == ("ok", b"v") for thread in threads)
        for tenant, stats in router.tenants.items():
            counts = stats.counts()
            assert counts["submitted"] == counts["completed"], tenant

    def test_fault_run_balances_per_tenant_books_under_audit(self):
        auditors = []
        session = TelemetrySession(
            on_attach=lambda capture: auditors.append(attach_auditor(capture))
        )
        with session, activate_plan(EARLY_LOST):
            result = run_bench(
                BenchSpec(
                    serve=ServeSpec(
                        shards=2,
                        policy="round-robin",
                        budget=4,
                        tenants=(("bronze", 1.0), ("gold", 3.0)),
                    ),
                    seconds=0.01,
                    rate=None,
                    clients=4,
                    requests_per_client=200,
                ),
            )
        totals = result["totals"]
        assert totals["quarantines"] >= 1
        # The fault cost no request its terminal state: per-tenant books
        # balance exactly, and the live auditors (router conservation,
        # quarantine routing, span conservation) all stay green.
        per_tenant_conserved(result)
        assert auditors, "the serve kernel was not captured"
        for auditor in auditors:
            auditor.finish()
            assert auditor.ok, "\n".join(str(v) for v in auditor.violations)

    def test_recovery_episodes_reported_per_tenant_run(self):
        # Open loop: the run outlives the recovery backoff, so the
        # episode resolves inside the artifact window.
        with activate_plan(EARLY_LOST):
            result = run_bench(
                BenchSpec(
                    serve=ServeSpec(
                        shards=2,
                        policy="round-robin",
                        budget=4,
                        tenants=(("bronze", 1.0), ("gold", 3.0)),
                    ),
                    seconds=0.02,
                    rate=4_000.0,
                ),
                telemetry=False,
            )
        episodes = result["totals"]["recoveries"]
        assert episodes, "the enclave loss left no recovery episode"
        for episode in episodes:
            assert episode["outcome"] in ("readmitted", "dead")
            assert episode["seconds"] >= 0.0
        assert result["totals"]["readmissions"] >= 1
