"""Calibration acceptance: the analytic model must *rank* like the
fast-path simulator across the workload registry.

Rung 0 exists to triage candidates, so the contract is ordinal, not
metric: pooled Spearman rank correlation of predicted cycles >= 0.9
and per-workload winner agreement >= 90% (a "winner" match tolerates
schemes the simulator scores within 5% of its own best — ties between
near-identical schemes are not ranking errors).

One architecture suffices here (the per-arch fit is the same code);
``scripts/calibrate_analytic.py`` sweeps all four when refreshing the
shipped coefficients.
"""

import pytest

from repro import api
from repro.core.dependence import analyze_direction
from repro.core.throttling import vote_active_agents
from repro.gpu.analytic import estimate
from repro.gpu.config import TESLA_K40
from repro.gpu.simulator import GpuSimulator, simulate
from repro.workloads.registry import TABLE2_ORDER, workload

SCHEMES = ("BSL", "RD", "CLU", "CLU+TOT")
SCALE = 0.3

MIN_SPEARMAN = 0.9
MIN_WINNER_AGREEMENT = 0.9
WINNER_TOLERANCE = 1.05


def spearman(xs, ys):
    """Rank correlation with tie-averaged ranks (no scipy on purpose)."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r
    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx) ** 0.5
    dy = sum((b - my) ** 2 for b in ry) ** 0.5
    return num / (dx * dy) if dx and dy else 0.0


#: A class needs this many pooled pairs before its own rho is a
#: meaningful statistic (mirrors the calibration script's floor).
MIN_CLASS_POINTS = 6


def compare(gpu, abbr):
    """``(category, sim, ana)``: simulated and analytic cycles by scheme
    for one workload, over the schemes applicable to its kernel.

    The CLU+TOT degree comes from the dynamic throttling vote, and the
    CLU and CLU+TOT runs are the vote's own (``ThrottleVote.measured``:
    same plan, seed and warmups), as in a Fig-12 cell; every other
    scheme is simulated here.
    """
    spec = workload(abbr)
    kernel = spec.kernel(scale=SCALE, config=gpu)
    sim = GpuSimulator(gpu)
    direction = analyze_direction(kernel).direction
    try:
        vote = vote_active_agents(sim, kernel, direction)
    except Exception:
        vote = None  # no agent plan fits this kernel
    per_sim, per_ana = {}, {}
    for scheme in SCHEMES:
        try:
            plan = api.cluster(kernel, scheme, gpu=gpu, direction=direction,
                               active_agents=vote and vote.active_agents)
        except Exception:
            continue  # scheme not applicable to this kernel
        measured = vote and vote.measured(plan, seed=0, warmups=1)
        per_sim[scheme] = (measured or simulate(sim, kernel, plan)).cycles
        per_ana[scheme] = estimate(gpu, kernel, plan).cycles
    return spec.category.value, per_sim, per_ana


@pytest.fixture(scope="module")
def comparisons():
    """:func:`compare` for every Table-2 workload on every architecture,
    computed once for both acceptance scopes below."""
    from repro.gpu.config import BY_ARCHITECTURE
    return {gpu.name: [compare(gpu, abbr) for abbr in TABLE2_ORDER]
            for gpu in BY_ARCHITECTURE.values()}


@pytest.fixture(scope="module")
def registry_comparison(comparisons):
    """(simulated, analytic, class) cycle triples plus winners."""
    sims, anas, classes = [], [], []
    winners = []  # (sim_by_scheme, ana_by_scheme) per workload
    for category, per_sim, per_ana in comparisons[TESLA_K40.name]:
        sims.extend(per_sim.values())
        anas.extend(per_ana.values())
        classes.extend([category] * len(per_sim))
        if len(per_sim) >= 2:
            winners.append((per_sim, per_ana))
    return sims, anas, classes, winners


@pytest.fixture(scope="module")
def class_comparison(comparisons):
    """Per-class (simulated, analytic) pairs pooled over *all four*
    architectures — the scope the shipped calibration file covers."""
    per_class = {}
    for rows in comparisons.values():
        for category, per_sim, per_ana in rows:
            sims, anas = per_class.setdefault(category, ([], []))
            sims.extend(per_sim.values())
            anas.extend(per_ana.values())
    return per_class


class TestAcceptance:
    def test_covers_the_registry(self, registry_comparison):
        sims, _, _, winners = registry_comparison
        assert len(winners) >= int(len(TABLE2_ORDER) * 0.9)
        assert len(sims) >= len(TABLE2_ORDER) * 2

    def test_spearman_rank_correlation(self, registry_comparison):
        sims, anas, _, _ = registry_comparison
        rho = spearman(sims, anas)
        assert rho >= MIN_SPEARMAN, (
            f"analytic-vs-simulated Spearman rho {rho:.4f} fell below "
            f"{MIN_SPEARMAN}; refresh scripts/calibrate_analytic.py or "
            f"fix the model")

    def test_spearman_per_workload_class(self, class_comparison):
        """The ordinal contract holds per locality class over the
        calibration file's full scope (every architecture pooled).

        Cross-architecture pooling is deliberate: within one arch a
        class's rho is invariant to any monotone calibration, but the
        pooled ranking interleaves architectures by their *calibrated*
        magnitudes — so this is the statistic the per-class fits are
        accountable to, and a bad class fit shows up here."""
        checked = 0
        for name, (sims, anas) in sorted(class_comparison.items()):
            if len(sims) < MIN_CLASS_POINTS:
                continue
            rho = spearman(sims, anas)
            assert rho >= MIN_SPEARMAN, (
                f"class {name!r}: Spearman rho {rho:.4f} fell below "
                f"{MIN_SPEARMAN} over {len(sims)} pairs; refresh "
                f"scripts/calibrate_analytic.py or fix the model")
            checked += 1
        assert checked >= 3  # the registry spans several classes

    def test_shipped_class_fits_are_wellformed(self):
        """The checked-in JSON carries per-class refinement fits and
        every one of them is monotone (a > 0), so class calibration
        can never invert a ranking the arch fit preserved."""
        from repro.gpu.analytic import load_calibration
        calibration = load_calibration()
        assert calibration, "shipped calibration file failed to load"
        with_classes = 0
        for arch, entry in calibration.items():
            for name, fit in entry.get("classes", {}).items():
                assert fit["a"] > 0, (arch, name, fit)
                with_classes += 1
        assert with_classes, "no per-class fits in the shipped file"

    def test_winner_agreement(self, registry_comparison):
        _, _, _, winners = registry_comparison
        agree = 0
        mismatches = []
        for per_sim, per_ana in winners:
            sim_best = min(per_sim, key=per_sim.get)
            ana_pick = min(per_ana, key=per_ana.get)
            if per_sim[ana_pick] <= per_sim[sim_best] * WINNER_TOLERANCE:
                agree += 1
            else:
                mismatches.append((sim_best, ana_pick))
        rate = agree / len(winners)
        assert rate >= MIN_WINNER_AGREEMENT, (
            f"winner agreement {agree}/{len(winners)} = {rate:.0%} "
            f"below {MIN_WINNER_AGREEMENT:.0%}; mismatches: {mismatches}")
