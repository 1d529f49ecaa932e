"""The co-tenant runner: solo equivalence, accounting, policies.

The load-bearing guarantees, in the order the ISSUE states them:

* a one-tenant mix is *bit-identical* to the single-kernel simulator
  (the co-tenant wave source itself is pinned by the co-tenant golden
  fingerprints and event-stream digests in
  ``tests/integration/test_goldens.py``);
* per-tenant cache accounting is exact under address-space tagging;
* every policy keeps the oracle-bound invariant
  (``bound_hit_rate >= measured`` per tenant, any mix);
* the fast path and the reference cache models agree on co-tenant
  runs the same way they do solo.
"""

import pytest

from repro import api
from repro.gpu.config import PLATFORMS
from repro.gpu.metrics import canonical_metrics
from repro.gpu.occupancy import max_ctas_per_sm
from repro.obs.tracer import RecordingTracer
from repro.tenancy import POLICIES, TenantMix, run_mix
from repro.tenancy.runner import TENANT_STRIDE, tenant_kernel
from repro.workloads.registry import workload

GPU = "GTX980"
SCALE = 0.25

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(scope="module")
def duo_report():
    """One shared-policy two-tenant measurement, reused across tests."""
    mix = TenantMix.of({"workload": "NN", "scheme": "CLU", "scale": SCALE},
                       {"workload": "HS", "scheme": "CLU", "scale": SCALE})
    return run_mix(mix, GPU, seed=0, warmups=1)


class TestSoloEquivalence:
    def test_single_tenant_mix_is_bit_identical_to_simulate(self):
        mix = TenantMix.of({"workload": "NN", "scheme": "CLU",
                            "scale": SCALE})
        report = run_mix(mix, GPU, seed=0, warmups=1)
        solo = api.simulate("NN", GPU, scheme="CLU", scale=SCALE,
                            seed=0, warmups=1)
        assert canonical_metrics(report.metrics[0]) \
            == canonical_metrics(solo)
        tenant = report.tenants[0]
        assert tenant.slowdown == 1.0
        assert tenant.l1_hit_delta == 0.0
        assert report.unfairness == 1.0

    def test_solo_canonical_form_has_no_tenancy_section(self):
        """Solo metrics stay golden-fingerprint compatible: the
        tenancy block only appears on genuinely multi-tenant runs."""
        mix = TenantMix.of({"workload": "NN", "scale": SCALE})
        report = run_mix(mix, GPU, warmups=0)
        assert "tenants" not in canonical_metrics(report.metrics[0])


class TestTenantKernel:
    def test_tenant_zero_is_the_original_instance(self):
        kernel = workload("NN").kernel(scale=SCALE,
                                       config=PLATFORMS[GPU])
        assert tenant_kernel(kernel, 0) is kernel

    def test_shift_moves_tags_not_structure(self):
        kernel = workload("NN").kernel(scale=SCALE,
                                       config=PLATFORMS[GPU])
        shifted = tenant_kernel(kernel, 2)
        original = kernel.cta_trace(0)
        moved = shifted.cta_trace(0)
        assert len(moved) == len(original)
        for a, b in zip(original, moved):
            assert b.base - a.base == 2 * TENANT_STRIDE
            assert (a.stride, a.lanes, a.size, a.is_write, a.is_stream) \
                == (b.stride, b.lanes, b.size, b.is_write, b.is_stream)


class TestAccounting:
    def test_per_tenant_metrics_are_attributed(self, duo_report):
        report = duo_report
        assert len(report.tenants) == 2
        for index, (tenant, metrics) in enumerate(
                zip(report.tenants, report.metrics)):
            assert tenant.index == index
            assert metrics.tenant_index == index
            assert metrics.tenants == 2
            assert metrics.tenancy_policy == "shared"
            assert metrics.ctas_executed > 0
            assert metrics.l1.accesses > 0
            assert "tenants" in canonical_metrics(metrics)

    def test_every_tenant_ran_its_whole_grid(self, duo_report):
        config = PLATFORMS[GPU]
        for tenant, metrics in zip(duo_report.tenants,
                                   duo_report.metrics):
            kernel = workload(tenant.workload).kernel(scale=SCALE,
                                                      config=config)
            assert metrics.ctas_executed == kernel.n_ctas

    def test_interference_shows_up_as_slowdown(self, duo_report):
        # Two tenants on a shared GPU can't both run at solo speed.
        assert any(t.slowdown > 1.0 for t in duo_report.tenants)
        assert duo_report.makespan_cycles == max(
            m.cycles for m in duo_report.metrics)
        slowdowns = [t.slowdown for t in duo_report.tenants]
        assert duo_report.unfairness == pytest.approx(
            max(slowdowns) / min(slowdowns))
        assert duo_report.unfairness >= 1.0

    def test_report_renders_the_oracle_column(self, duo_report):
        text = duo_report.render()
        assert "oracle" in text
        assert "unfairness=" in text


class TestPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bound_invariant_holds(self, policy):
        mix = TenantMix.of({"workload": "NN", "scale": SCALE},
                           {"workload": "SRD", "scale": SCALE},
                           policy=policy)
        report = run_mix(mix, GPU, warmups=1)
        assert report.violations() == []
        for tenant in report.tenants:
            assert tenant.bound_headroom >= -1e-9

    def test_three_isolated_tenants_split_a_2mb_l2(self):
        """A third of GTX980's 2 MB L2 is not a whole number of sets;
        each tenant's slice rounds down to whole kilobytes."""
        mix = TenantMix.of({"workload": "NN", "scale": 0.1},
                           {"workload": "HS", "scale": 0.1},
                           {"workload": "SRD", "scale": 0.1},
                           policy="cluster-isolated")
        fast = run_mix(mix, GPU, warmups=0, fast=True)
        ref = run_mix(mix, GPU, warmups=0, fast=False)
        assert fast.violations() == []
        assert [canonical_metrics(m) for m in fast.metrics] \
            == [canonical_metrics(m) for m in ref.metrics]

    def test_split_policies_partition_the_sms(self):
        config = PLATFORMS[GPU]
        for policy in ("sm-split", "cluster-isolated"):
            mix = TenantMix.of({"workload": "NN", "scale": SCALE},
                               {"workload": "HS", "scale": SCALE},
                               policy=policy)
            report = run_mix(mix, GPU, warmups=0)
            counts = [t.sm_count for t in report.tenants]
            assert sum(counts) == config.num_sms
            for metrics, tenant in zip(report.metrics, report.tenants):
                busy = [sm for sm, n in enumerate(metrics.ctas_per_sm)
                        if n]
                assert len(busy) <= tenant.sm_count
            # Disjoint SM footprints: no SM serves both tenants.
            footprints = [
                {sm for sm, n in enumerate(m.ctas_per_sm) if n}
                for m in report.metrics
            ]
            assert not footprints[0] & footprints[1]

    def test_shared_policy_uses_every_sm_for_every_tenant(self):
        config = PLATFORMS[GPU]
        mix = TenantMix.of({"workload": "NN", "scale": SCALE},
                           {"workload": "HS", "scale": SCALE})
        report = run_mix(mix, GPU, warmups=0)
        assert all(t.sm_count == config.num_sms
                   for t in report.tenants)

    def test_too_many_tenants_for_a_split_rejected(self):
        config = PLATFORMS[GPU]
        tenants = [{"workload": "NN", "scale": 0.1}
                   for _ in range(config.num_sms + 1)]
        mix = TenantMix.of(*tenants, policy="sm-split")
        with pytest.raises(ValueError, match="at least one SM"):
            run_mix(mix, GPU, warmups=0)


class TestDeterminismAndBackends:
    def test_same_seed_same_report(self):
        mix = TenantMix.of({"workload": "NN", "scale": SCALE},
                           {"workload": "HS", "scale": SCALE})
        first = run_mix(mix, GPU, seed=3, warmups=0)
        second = run_mix(mix, GPU, seed=3, warmups=0)
        assert [canonical_metrics(m) for m in first.metrics] \
            == [canonical_metrics(m) for m in second.metrics]

    def test_fast_and_reference_models_agree(self):
        """The differential guarantee extends to co-tenant runs: the
        flat-tag fast caches and the dict-based reference models see
        the same tagged address stream, so metrics match bit for bit."""
        mix = TenantMix.of({"workload": "NN", "scale": SCALE},
                           {"workload": "HS", "scheme": "CLU",
                            "scale": SCALE})
        fast = run_mix(mix, GPU, warmups=1, fast=True)
        ref = run_mix(mix, GPU, warmups=1, fast=False)
        assert [canonical_metrics(m) for m in fast.metrics] \
            == [canonical_metrics(m) for m in ref.metrics]

    def test_tracer_sees_both_tenants(self):
        tracer = RecordingTracer()
        mix = TenantMix.of({"workload": "NN", "scale": SCALE},
                           {"workload": "HS", "scale": SCALE})
        run_mix(mix, GPU, warmups=0, tracer=tracer)
        assert len(tracer.launches) == 2
        assert tracer.waves  # per-wave spans recorded


class TestDispatchEvents:
    @pytest.mark.parametrize("scheme, agents, scale",
                             [("BSL", None, 0.25), ("CLU+TOT", 3, 0.2)])
    def test_shortfalls_count_the_short_waves(self, scheme, agents, scale):
        """Each dispatch event reports what the tenant asked for (its
        capacity when scheduled, its active agents when placed), so a
        wave shorter than that request is a shortfall.  Both tenants
        ask for the same wave size here, and at least one grid does
        not divide into it evenly."""
        config = PLATFORMS[GPU]
        names = ("ATX", "KMN")
        kernels = [workload(name).kernel(scale=scale, config=config)
                   for name in names]
        if agents is None:
            sizes = {max_ctas_per_sm(config, kernel) for kernel in kernels}
        else:
            sizes = {agents}
        assert len(sizes) == 1
        size = sizes.pop()
        assert any(kernel.n_ctas % size for kernel in kernels)
        mix = TenantMix.of(*({"workload": name, "scheme": scheme,
                              "scale": scale, "active_agents": agents}
                             for name in names))
        tracer = RecordingTracer()
        run_mix(mix, GPU, warmups=0, tracer=tracer)
        short = sum(1 for span in tracer.waves if span.n_ctas < size)
        assert short > 0
        assert tracer.dispatch_shortfalls == short
        assert tracer.dispatches == len(tracer.waves)


class TestValidation:
    def test_negative_warmups_rejected(self):
        mix = TenantMix.of({"workload": "NN", "scale": SCALE})
        with pytest.raises(ValueError, match="warmups"):
            run_mix(mix, GPU, warmups=-1)

    def test_unknown_platform_rejected(self):
        mix = TenantMix.of({"workload": "NN", "scale": SCALE})
        with pytest.raises(KeyError, match="unknown platform"):
            run_mix(mix, "GTX750TI", warmups=0)

    def test_gpu_type_rejected(self):
        mix = TenantMix.of({"workload": "NN", "scale": SCALE})
        with pytest.raises(TypeError, match="GpuConfig or platform"):
            run_mix(mix, 980, warmups=0)
