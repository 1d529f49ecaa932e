"""Golden regression fixtures for the Figure-12/13 scheme matrix.

Each golden is the SHA-256 fingerprint of the *canonicalized* metrics
(:func:`repro.gpu.metrics.metrics_fingerprint`, floats via ``repr``)
for one fixed-seed cell of the evaluation matrix: workload x platform
x scheme at a reduced scale.  Any change to the simulator, the cache
models, the planners or the workload models that moves even one
counter or one float bit flips a fingerprint and fails here — the
tightest regression net the repo has.

Three more fixtures pin the paths a scheme cell cannot reach: a
chiplet placement, per-tenant co-tenant fingerprints under every
tenancy policy, and SHA-256 digests of the tracer's dispatch, wave and
CTA event streams (every event, in emission order) for solo and
co-tenant launches — so a change to the dispatch loop that keeps the
totals but reorders a single wave still fails.

When a behaviour change is *intentional*, regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_goldens.py \
        --update-goldens

and commit the fixture diff alongside the change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.gpu.metrics import metrics_fingerprint
from repro.obs.tracer import Tracer
from repro.tenancy import POLICIES, TenantMix, run_mix

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_PATH = GOLDEN_DIR / "scheme_fingerprints.json"
COTENANT_PATH = GOLDEN_DIR / "cotenant_fingerprints.json"
STREAM_PATH = GOLDEN_DIR / "event_streams.json"

#: Fixed-seed sub-matrix of the Figure-12 scheme progression (and the
#: Figure-13 cross-platform slice): small enough to run on every CI
#: push, wide enough to cover both cache geometries, every plan mode
#: and the bypass path.
WORKLOADS = ("NN", "ATX", "BS")
GPUS = ("Tesla K40", "GTX980")
SCHEMES = ("BSL", "RD", "CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT")
SCALE = 0.2
SEED = 0
WARMUPS = 1

#: Chiplet cells: (workload, platform, scheme, placement policy).
CHIPLET_CELLS = (("HST", "GTX980x2", "CLU", "local-first"),)

#: The co-tenant mix: a scheduled tenant beside a placed one.
COTENANT_GPU = "GTX980"
COTENANT_TENANTS = ({"workload": "NN", "scheme": "BSL", "scale": SCALE},
                    {"workload": "ATX", "scheme": "CLU", "scale": SCALE})

#: Solo launches whose full event streams are pinned: a scheduled one
#: (with its tail quota), a placed one with prefetching, and a placed
#: one on a chiplet platform.
STREAM_CELLS = (("NN", "GTX980", "BSL", None),
                ("HST", "GTX980", "PFH+TOT", None),
                ("HST", "GTX980x2", "CLU", "local-first"))


def compute_fingerprints() -> "dict[str, str]":
    out = {}
    for wl in WORKLOADS:
        for gpu in GPUS:
            for scheme in SCHEMES:
                metrics = api.simulate(wl, gpu, scheme=scheme, scale=SCALE,
                                       seed=SEED, warmups=WARMUPS)
                out[f"{wl}/{gpu}/{scheme}"] = metrics_fingerprint(metrics)
    for wl, gpu, scheme, placement in CHIPLET_CELLS:
        metrics = api.simulate(wl, gpu, scheme=scheme, scale=SCALE,
                               seed=SEED, warmups=WARMUPS,
                               placement=placement)
        out[f"{wl}/{gpu}/{scheme}/{placement}"] = \
            metrics_fingerprint(metrics)
    return out


def _cotenant_mix(policy):
    return TenantMix.of(*COTENANT_TENANTS, policy=policy)


def compute_cotenant_fingerprints() -> "dict[str, str]":
    out = {}
    for policy in POLICIES:
        report = run_mix(_cotenant_mix(policy), COTENANT_GPU, seed=SEED,
                         warmups=WARMUPS)
        for spec, metrics in zip(report.tenants, report.metrics):
            out[f"{policy}/{spec.index}:{spec.workload}/{spec.scheme}"] = \
                metrics_fingerprint(metrics)
    return out


class StreamTracer(Tracer):
    """Records every dispatch, wave and CTA event in emission order."""

    __slots__ = ("dispatches", "waves", "ctas")

    def __init__(self):
        self.dispatches = []
        self.waves = []
        self.ctas = []

    def dispatch(self, sm, turnaround, requested, granted, now):
        self.dispatches.append((sm, turnaround, requested, granted, now))

    def wave(self, sm, turnaround, start, duration, n_ctas):
        self.waves.append((sm, turnaround, start, duration, n_ctas))

    def cta(self, sm, cta_id, turnaround, cycles):
        self.ctas.append((sm, cta_id, turnaround, cycles))

    def digests(self, with_requested=True) -> "dict[str, str]":
        dispatches = (self.dispatches if with_requested else
                      [(sm, t, granted, now)
                       for sm, t, _, granted, now in self.dispatches])
        return {name: hashlib.sha256(repr(events).encode()).hexdigest()
                for name, events in (("dispatch", dispatches),
                                     ("wave", self.waves),
                                     ("cta", self.ctas))}


def compute_stream_digests() -> "dict[str, str]":
    out = {}
    for wl, gpu, scheme, placement in STREAM_CELLS:
        tracer = StreamTracer()
        api.simulate(wl, gpu, scheme=scheme, scale=SCALE, seed=SEED,
                     warmups=WARMUPS, placement=placement, tracer=tracer)
        cell = "/".join(p for p in (wl, gpu, scheme, placement) if p)
        for stream, digest in tracer.digests().items():
            out[f"{cell}/{stream}"] = digest
    # Co-tenant dispatch events are pinned without their ``requested``
    # field, which reports each source's request, not the grant.
    tracer = StreamTracer()
    run_mix(_cotenant_mix("shared"), COTENANT_GPU, seed=SEED,
            warmups=WARMUPS, tracer=tracer)
    for stream, digest in tracer.digests(with_requested=False).items():
        out[f"cotenant/shared/{stream}"] = digest
    return out


def _check_goldens(request, path, got):
    if request.config.getoption("--update-goldens"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"goldens rewritten at {path}")
    assert path.exists(), \
        "no golden fixture checked in; run with --update-goldens"
    golden = json.loads(path.read_text())
    drifted = sorted(cell for cell in golden
                     if got.get(cell) != golden[cell])
    assert got == golden, (
        f"{len(drifted)} golden cell(s) drifted: {drifted[:6]}... "
        f"If the behaviour change is intentional, regenerate with "
        f"--update-goldens and commit the fixture diff.")


def test_scheme_matrix_matches_goldens(request):
    _check_goldens(request, GOLDEN_PATH, compute_fingerprints())


def test_cotenant_mix_matches_goldens(request):
    _check_goldens(request, COTENANT_PATH, compute_cotenant_fingerprints())


def test_event_streams_match_goldens(request):
    _check_goldens(request, STREAM_PATH, compute_stream_digests())


def test_goldens_are_deterministic():
    """The same cell computed twice in-process fingerprints identically
    (guards accidental global state in kernels/planners/schedulers)."""
    a = api.simulate("NN", "Tesla K40", scheme="CLU", scale=SCALE,
                     seed=SEED, warmups=WARMUPS)
    b = api.simulate("NN", "Tesla K40", scheme="CLU", scale=SCALE,
                     seed=SEED, warmups=WARMUPS)
    assert metrics_fingerprint(a) == metrics_fingerprint(b)
