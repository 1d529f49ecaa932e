"""Shared fixtures: platforms, small synthetic kernels and the
session's reduced Fig-12 matrix."""

from __future__ import annotations

import pytest

from repro.gpu.config import EVALUATION_PLATFORMS, GTX570, GTX980, GTX1080, TESLA_K40
from repro.kernels.access import read, write
from repro.kernels.kernel import AddressSpace, ArrayRef, Dim3, KernelSpec, LocalityCategory


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite the golden fingerprint fixtures under "
             "tests/integration/goldens/ with freshly computed values "
             "(use after an intentional simulator behaviour change; "
             "commit the diff together with the change that caused it)")


#: Scale of the reduced Fig-12 matrix the integration and driver
#: modules share (with the paper's Table-2 agent counts).
FIG12_SCALE = 0.4


@pytest.fixture(scope="session")
def fig12_runner():
    """One memoizing engine runner for the whole test session.

    Every module that evaluates the reduced Fig-12 matrix submits its
    jobs here, so each (workload, platform) cell simulates once per
    session however many modules assert on it.
    """
    from repro.engine import SweepRunner
    return SweepRunner(memo=True)


@pytest.fixture(scope="session")
def fig12_sweep(fig12_runner):
    """``fig12_sweep(platform)``: the reduced Fig-12 matrix on one
    platform (all 23 apps, :data:`FIG12_SCALE`, Table-2 agents)."""
    from repro.experiments.evaluation import run_evaluation

    def sweep(config):
        return run_evaluation(platforms=(config,), scale=FIG12_SCALE,
                              use_paper_agents=True, runner=fig12_runner)
    return sweep


@pytest.fixture
def cache_pool(monkeypatch):
    """An empty process-wide cache-pair pool for one test, so pairs
    parked by earlier tests cannot change what the test counts."""
    from repro.gpu import simulator
    pool = simulator._CachePairPool()
    monkeypatch.setattr(simulator, "_POOL", pool)
    return pool


@pytest.fixture(params=EVALUATION_PLATFORMS, ids=lambda g: g.name)
def any_gpu(request):
    """Parametrized over the paper's four evaluation platforms."""
    return request.param


@pytest.fixture
def fermi():
    return GTX570


@pytest.fixture
def kepler():
    return TESLA_K40


@pytest.fixture
def maxwell():
    return GTX980


@pytest.fixture
def pascal():
    return GTX1080


def make_shared_table_kernel(n_ctas: int = 60, table_rows: int = 8,
                             stream_rows_per_cta: int = 2,
                             warps: int = 4) -> KernelSpec:
    """A minimal algorithm-related kernel: shared table + private stream."""
    space = AddressSpace()
    table = space.alloc("table", table_rows, 32)
    data = space.alloc("data", n_ctas * stream_rows_per_cta, 32)

    def trace(bx, by, bz):
        accesses = []
        for r in range(stream_rows_per_cta):
            accesses.append(read(data.addr(bx * stream_rows_per_cta + r, 0),
                                 4, 32, 4, stream=True))
        for r in range(table_rows):
            accesses.append(read(table.addr(r, 0), 4, 32, 4))
        return accesses

    return KernelSpec(
        name="shared-table", grid=Dim3(n_ctas), block=Dim3(32 * warps),
        trace=trace, regs_per_thread=16,
        category=LocalityCategory.ALGORITHM,
        array_refs=(
            ArrayRef("data", (("bx", "tx"),)),
            ArrayRef("table", (("j",),), weight=2.0),
            ArrayRef("out", (("bx", "tx"),), is_write=True),
        ),
    )


def make_row_band_kernel(grid_x: int = 8, grid_y: int = 6,
                         band_rows: int = 4) -> KernelSpec:
    """2D kernel where CTAs of one grid row share a row band (MM-like)."""
    space = AddressSpace()
    band = space.alloc("band", grid_y * band_rows, 32)
    priv = space.alloc("priv", grid_x * grid_y, 32)

    def trace(bx, by, bz):
        accesses = [read(priv.addr(by * grid_x + bx, 0), 4, 32, 4,
                         stream=True)]
        for r in range(band_rows):
            accesses.append(read(band.addr(by * band_rows + r, 0), 4, 32, 4))
        return accesses

    return KernelSpec(
        name="row-band", grid=Dim3(grid_x, grid_y), block=Dim3(64),
        trace=trace, regs_per_thread=16,
        category=LocalityCategory.ALGORITHM,
        array_refs=(
            ArrayRef("band", (("by",), ("j",)), weight=2.0),
            ArrayRef("priv", (("by",), ("bx", "tx"))),
            ArrayRef("out", (("by",), ("bx", "tx")), is_write=True),
        ),
    )


def make_streaming_kernel(n_ctas: int = 64) -> KernelSpec:
    """Pure streaming kernel: every CTA touches private data once."""
    space = AddressSpace()
    src = space.alloc("src", n_ctas * 2, 32)
    dst = space.alloc("dst", n_ctas, 32)

    def trace(bx, by, bz):
        return [
            read(src.addr(bx * 2, 0), 4, 32, 4, stream=True),
            read(src.addr(bx * 2 + 1, 0), 4, 32, 4, stream=True),
            write(dst.addr(bx, 0), 4, 32, 4, stream=True),
        ]

    return KernelSpec(
        name="stream", grid=Dim3(n_ctas), block=Dim3(64), trace=trace,
        regs_per_thread=16, category=LocalityCategory.STREAMING,
        array_refs=(
            ArrayRef("src", (("bx", "tx"),)),
            ArrayRef("dst", (("bx", "tx"),), is_write=True),
        ),
    )


@pytest.fixture
def shared_table_kernel():
    return make_shared_table_kernel()


@pytest.fixture
def row_band_kernel():
    return make_row_band_kernel()


@pytest.fixture
def streaming_kernel():
    return make_streaming_kernel()
