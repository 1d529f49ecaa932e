"""Co-tenant differential fuzzing: fast core vs reference oracle.

Random two- and three-tenant mixes of registry workloads (scale at
most 0.1), every tenant scheme with stream bypassing forced on or
off, every tenancy policy, on a flat die and on a two-chiplet
package, are measured with :func:`repro.tenancy.run_mix` on both
simulation cores.  Every tenant's co-run metrics must be
*bit-identical* (:func:`repro.gpu.metrics.canonical_metrics`, floats
compared through ``repr``).

Example counts scale with ``REPRO_FUZZ_CASES`` like the rest of the
differential suite.  Shrinking is off: a drawn mix is already small
(at most three tenants at scale 0.1), and each example simulates it
twice, so shrinking a failure would take minutes.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.gpu.metrics import canonical_metrics
from repro.tenancy import POLICIES, TENANT_SCHEMES, TenantMix, run_mix
from repro.workloads.registry import REGISTRY

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "80"))

#: A flat die and a chiplet package of the same SMs.
GPUS = ("GTX980", "GTX980x2")

TENANT = st.fixed_dictionaries({
    "workload": st.sampled_from(sorted(REGISTRY)),
    "scheme": st.sampled_from(TENANT_SCHEMES),
    "scale": st.sampled_from((0.05, 0.1)),
    "seed": st.integers(min_value=0, max_value=3),
    "bypass": st.booleans(),
})


@settings(max_examples=max(6, CASES // 10), deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(tenants=st.lists(TENANT, min_size=2, max_size=3),
       policy=st.sampled_from(POLICIES), gpu=st.sampled_from(GPUS),
       seed=st.integers(min_value=0, max_value=7),
       warmups=st.integers(min_value=0, max_value=1))
def test_cotenant_cores_agree(tenants, policy, gpu, seed, warmups):
    mix = TenantMix.of(*tenants, policy=policy)
    fast = run_mix(mix, gpu, seed=seed, warmups=warmups, fast=True)
    ref = run_mix(mix, gpu, seed=seed, warmups=warmups, fast=False)
    assert [canonical_metrics(m) for m in fast.metrics] \
        == [canonical_metrics(m) for m in ref.metrics]
