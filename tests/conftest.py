"""Shared graph fixtures.

The closed-form graphs (path, complete, cycle, bridged triangles) have
hand-checkable spectra and cuts; the block-model builders provide
planted ground truth for recovery tests.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise: on a small machine,
# spinning pool threads make small solves many times slower whenever
# another process is busy. BLAS reads these only before numpy loads.
_THREADS = os.environ.setdefault("SPECTRAL_ABSTRACTION_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, _THREADS)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spectral_abstraction as sa  # noqa: E402

# pass/fail lines collected by the acceptance checks, replayed after the
# run so they stay visible despite output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def dense_solves(monkeypatch) -> list[tuple[str, int]]:
    """(route, node count) of each eigensolve the test runs, in call order.

    The route is "full" for a full request and "subset" for a counted
    one, which the MRRR subset driver serves up to DENSE_SOLVER_MAX_N
    nodes.
    """
    from spectral_abstraction import spectral

    calls: list[tuple[str, int]] = []
    solve = spectral.eigendecompose

    def counted(L, count=None):
        calls.append(("full" if count is None else "subset", L.n))
        return solve(L, count)

    monkeypatch.setattr(spectral, "eigendecompose", counted)
    return calls


@pytest.fixture
def triangle() -> sa.Graph:
    return sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def p3() -> sa.Graph:
    return sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def k4() -> sa.Graph:
    edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    return sa.graph_from_edges(["a", "b", "c", "d"], edges)


@pytest.fixture
def c4() -> sa.Graph:
    return sa.graph_from_edges(
        ["a", "b", "c", "d"], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    )


@pytest.fixture
def bridged_triangles() -> sa.Graph:
    """Two unit triangles joined by a single bridge edge 2-3."""
    labels = ["u0", "u1", "u2", "w0", "w1", "w2"]
    edges = [
        (0, 1, 1.0),
        (0, 2, 1.0),
        (1, 2, 1.0),
        (3, 4, 1.0),
        (3, 5, 1.0),
        (4, 5, 1.0),
        (2, 3, 1.0),
    ]
    return sa.graph_from_edges(labels, edges)


@pytest.fixture
def two_k3() -> sa.Graph:
    """Disconnected pair of triangles."""
    labels = [f"n{i}" for i in range(6)]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
    return sa.graph_from_edges(labels, edges)


def random_connected_graph(rng: np.random.Generator, n: int, p: float = 0.45) -> sa.Graph:
    """Erdos-Renyi draw with random weights, conditioned on connectivity."""
    while True:
        edges = [
            (i, j, float(rng.uniform(0.2, 3.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        if not edges:
            continue
        g = sa.graph_from_edges([f"n{i}" for i in range(n)], edges)
        if len(sa.connected_components(g)) == 1:
            return g


def nested_sbm(blocks: int, m: int, p_in: float, p_mid: float, p_out: float, seed: int) -> sa.Graph:
    """Planted two-level block model.

    Blocks pair up into super-blocks {0,1}, {2,3}, ...; within-block
    pairs connect at p_in, within-super-block pairs at p_mid, the rest
    at p_out. One uniform draw per node pair in index order keeps the
    construction reproducible.
    """
    rng = np.random.default_rng(seed)
    n = blocks * m
    labels = [f"b{i // m}n{i % m}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = i // m, j // m
            if bi == bj:
                p = p_in
            elif bi // 2 == bj // 2:
                p = p_mid
            else:
                p = p_out
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return sa.graph_from_edges(labels, edges)
