"""Hand-worked anchors for the three wave sources of the SM event loop.

Each case runs a tiny kernel on a 2-SM Tesla K40 with two CTA slots
per SM, so every wave the loop dispatches can be followed by hand.
The docstrings tell the story; the asserts pin the visits (which SM,
in which turnaround, asking for how many CTAs, running which ones),
``ctas_per_sm`` and ``overhead_cycles``.

Every CTA reads one private 128-byte row once, so no CTA shares a
line with another and equal waves take equal time on both SMs.  Ties
on the event heap go to the lower SM.
"""

from dataclasses import dataclass, field, replace

from repro.gpu.config import TESLA_K40
from repro.gpu.plan import ExecutionPlan
from repro.gpu.scheduler import ObservedScheduler, RoundRobinScheduler
from repro.gpu.simulator import GpuSimulator
from repro.kernels.access import read
from repro.kernels.kernel import (AddressSpace, Dim3, KernelSpec,
                                  LocalityCategory)
from repro.obs.tracer import RecordingTracer
from repro.tenancy.runner import _TenantRun, _TenantSource, tenant_kernel

CONFIG = replace(TESLA_K40, num_sms=2, cta_slots=2)


def row_kernel(n_ctas):
    space = AddressSpace()
    rows = space.alloc("rows", n_ctas, 32)

    def trace(bx, by, bz):
        return [read(rows.addr(bx, 0))]

    return KernelSpec(name=f"rows{n_ctas}", grid=Dim3(n_ctas),
                      block=Dim3(64), trace=trace, regs_per_thread=16,
                      category=LocalityCategory.STREAMING)


@dataclass
class VisitLog(RecordingTracer):
    """A RecordingTracer that also keeps every SM visit in order:
    ``(sm, turnaround, requested, [CTA ids run])``."""

    visits: list = field(default_factory=list)

    def dispatch(self, sm, turnaround, requested, granted, now):
        super().dispatch(sm, turnaround, requested, granted, now)
        self.visits.append((sm, turnaround, requested, []))

    def cta(self, sm, cta_id, turnaround, cycles):
        super().cta(sm, cta_id, turnaround, cycles)
        self.visits[-1][3].append(cta_id)


def test_scheduler_source_tail_quota():
    """Six CTAs, two per SM per wave, under the observed scheduler
    without first-wave swaps (first turnaround round-robin, then
    demand-driven), with 5 cycles of overhead per CTA.

    * t=0, SM0: six CTAs remain, more than a full turnaround (2 SMs x
      2), so SM0 asks for 2 and gets its round-robin pair, 0 and 2.
    * t=0, SM1: four remain, which fits one turnaround: the tail
      region starts.  The quota freezes at each SM's fair share of
      the grid (6 / 2 = 3) minus what it already ran: SM0 1, SM1 3.
      SM1 asks for min(2, 3) = 2 and gets 1 and 3.
    * Both waves end together; SM0 asks for its quota of 1 and gets
      CTA 4.  Without the quota it would take 4 and 5 and leave SM1
      idle.  SM1 asks for its remaining 1 and gets 5.
    * Each SM visits once more and asks for 1 (a visit always asks for
      at least one CTA), gets none and retires: two dispatch events
      with a shortfall.

    So each SM runs three CTAs, and the overhead is 6 x 5 = 30.
    """
    sim = GpuSimulator(CONFIG, scheduler=ObservedScheduler(0.0))
    tracer = VisitLog()
    plan = ExecutionPlan(scheme="anchor", per_cta_overhead=5.0)
    metrics = sim.run(row_kernel(6), plan, tracer=tracer)

    assert tracer.visits == [
        (0, 0, 2, [0, 2]),
        (1, 0, 2, [1, 3]),
        (0, 1, 1, [4]),
        (1, 1, 1, [5]),
        (0, 2, 1, []),
        (1, 2, 1, []),
    ]
    assert tracer.dispatch_shortfalls == 2
    assert metrics.ctas_per_sm == [3, 3]
    assert metrics.overhead_cycles == 30.0


def test_agent_source_bind_overhead_and_prefetch():
    """Placed tasks ``[[0, 1, 2], [3]]`` for two agents per SM, 100
    cycles to bind the agents, 10 per task and a prefetch depth of one
    access.

    * Binding delays each busy SM's first wave: both start at clock
      100, and each pays the 100 cycles once.
    * t=100, SM0: the agents ask for 2 and take tasks 0 and 1.  Task 2
      is still queued, so the wave prefetches its first access.
    * t=100, SM1: asks for 2 and gets only task 3 (a shortfall); its
      queue is empty, so nothing is prefetched.  SM1's next visit
      finds the queue empty and retires without a dispatch event.
    * SM0's second wave asks for 2, gets task 2 (a shortfall), and
      its one access hits the line the first wave prefetched.

    So the SMs run three and one tasks, the overhead is
    2 x 100 + 4 x 10 = 240, and one prefetch turns into one L1 hit.
    """
    tracer = VisitLog()
    plan = ExecutionPlan(scheme="anchor", mode="placed",
                         sm_tasks=[[0, 1, 2], [3]], active_agents=2,
                         agent_bind_overhead=100.0, per_task_overhead=10.0,
                         prefetch_depth=1)
    metrics = GpuSimulator(CONFIG).run(row_kernel(4), plan, tracer=tracer)

    assert tracer.visits == [
        (0, 0, 2, [0, 1]),
        (1, 0, 2, [3]),
        (0, 1, 2, [2]),
    ]
    assert [span.start for span in tracer.waves[:2]] == [100.0, 100.0]
    assert tracer.dispatch_shortfalls == 2
    assert metrics.ctas_per_sm == [3, 1]
    assert metrics.overhead_cycles == 240.0
    assert metrics.prefetch_issues == 1
    assert metrics.l1.hits == 1


def test_tenant_source_round_robin_and_lazy_bind():
    """Two tenants share both SMs and the L2.  Tenant 0 is scheduled:
    five CTAs, two per wave, round-robin scheduler (SM0 gets 0, 2 and
    4; SM1 gets 1 and 3).  Tenant 1 is placed: tasks ``[[0], [1, 2]]``,
    one agent, 50 cycles to bind, 10 per task.

    * t=0, SM0: the round-robin starts at tenant 0, which asks for 2
      and gets 0 and 2.  SM1 likewise gets 1 and 3.
    * Both waves end together.  On each SM the turn passes to tenant
      1, whose first wave there binds the agent: 50 cycles of lead-in,
      then task 0 on SM0 and task 1 on SM1.
    * Again together.  SM0's turn is tenant 0's: it asks for 2 and
      gets only 4 (a shortfall).  On SM1 tenant 0 is drained, so the
      turn falls to tenant 1: task 2, already bound, no lead-in.
    * Both SMs then find every tenant drained and retire without a
      dispatch event.

    Tenant 0 runs three CTAs on SM0 and two on SM1 with no overhead.
    Tenant 1 runs one and two, with overhead 2 x 50 + 3 x 10 = 130.
    Each tenant is credited its own L1 accesses, one per CTA.
    """
    sim = GpuSimulator(CONFIG, scheduler=RoundRobinScheduler())
    l1s, l2 = sim.fresh_caches()
    placed = ExecutionPlan(scheme="anchor", mode="placed",
                           sm_tasks=[[0], [1, 2]], active_agents=1,
                           agent_bind_overhead=50.0, per_task_overhead=10.0)
    runs = [
        _TenantRun(0, row_kernel(5), ExecutionPlan(), [0, 1],
                   sim.scheduler, 0, CONFIG, "shared", 2, l2),
        _TenantRun(1, tenant_kernel(row_kernel(3), 1), placed, [0, 1],
                   sim.scheduler, 0, CONFIG, "shared", 2, l2),
    ]
    tracer = VisitLog()
    sim.run_waves(_TenantSource(runs, l1s, CONFIG.num_sms), l1s, [l2],
                  tracer)

    assert tracer.visits == [
        (0, 0, 2, [0, 2]),
        (1, 0, 2, [1, 3]),
        (0, 1, 1, [0]),
        (1, 1, 1, [1]),
        (0, 2, 2, [4]),
        (1, 2, 1, [2]),
    ]
    assert tracer.dispatch_shortfalls == 1
    first, second = (run.metrics for run in runs)
    assert first.ctas_per_sm == [3, 2]
    assert first.overhead_cycles == 0.0
    assert second.ctas_per_sm == [1, 2]
    assert second.overhead_cycles == 130.0
    assert (first.l1.accesses, second.l1.accesses) == (5, 3)
