"""Top-level acceptance gate: eight checks, one pass/fail line each.

Each criterion prints a single line (surfaced again in the terminal
summary via conftest) recording pass/fail, the measured quantity, and
the elapsed time against its budget.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import spectral_abstraction as sa
from spectral_abstraction.hierarchy import LevelSpec, build_hierarchy, flatten
from spectral_abstraction.nonlinear import (
    PLaplacianParams,
    p_laplacian_apply,
    p_spectral_bipartition,
)
from spectral_abstraction.structfunc import FcModel, fit_fc, predict_fc

from conftest import ACCEPTANCE_LINES, nested_sbm, random_connected_graph
from oracles import (
    best_bipartition,
    charpoly_eigenvalues,
    label_agreement,
    series_expm,
    union_find_components,
)


def record(num: int, label: str, ok: bool, detail: str, elapsed: float, limit: float):
    in_budget = elapsed < limit
    verdict = "PASS" if ok and in_budget else "FAIL"
    line = f"criterion {num} [{label}]: {verdict} ({detail}; {elapsed:.2f}s < {limit:.0f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok and in_budget, line


def fixture_graphs():
    p3 = sa.graph_from_edges(("a", "b", "c"), [(0, 1, 1.0), (1, 2, 1.0)])
    k4 = sa.graph_from_edges(
        ("a", "b", "c", "d"),
        [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
    )
    c4 = sa.graph_from_edges(
        ("a", "b", "c", "d"), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    )
    return p3, k4, c4


def bridged():
    return sa.graph_from_edges(
        ("u0", "u1", "u2", "w0", "w1", "w2"),
        [
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (3, 5, 1.0),
            (4, 5, 1.0),
        ],
    )


def test_criterion_1_closed_form_spectra():
    start = time.perf_counter()
    p3, k4, c4 = fixture_graphs()
    closed = {
        "P3": (p3, np.array([0.0, 1.0, 3.0])),
        "K4": (k4, np.array([0.0, 4.0, 4.0, 4.0])),
        "C4": (c4, np.array([0.0, 2.0, 2.0, 4.0])),
    }
    worst = 0.0
    for g, expected in closed.values():
        L = np.asarray(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix)
        ours = sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL).eigenvalues
        oracle = charpoly_eigenvalues(L)
        worst = max(worst, float(np.abs(ours - oracle).max()))
        worst = max(worst, float(np.abs(ours - expected).max()))
    elapsed = time.perf_counter() - start
    record(1, "closed-form spectra", worst < 1e-9, f"max deviation {worst:.2e}", elapsed, 1.0)


def test_criterion_2_fiedler_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_sum = 0.0
    connectivity_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        g = random_connected_graph(rng, n)
        s = sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL)
        worst_sum = max(worst_sum, abs(float(s.eigenvectors[:, 1].sum())))
        lam2 = sa.algebraic_connectivity(s)
        one_component = len(union_find_components(n, g.edges)) == 1
        connectivity_ok &= (lam2 > 0) == one_component
    elapsed = time.perf_counter() - start
    record(
        2,
        "Fiedler invariants",
        worst_sum < 1e-9 and connectivity_ok,
        f"max |sum v2| {worst_sum:.2e}, connectivity agreement {connectivity_ok}",
        elapsed,
        10.0,
    )


def test_criterion_3_bipartition_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_factor = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n)
        v = sa.fiedler_vector(sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL))
        p = sa.sign_bipartition(g, v)
        ours = sa.cut_metrics(g, p).normalized_cut
        optimum, _side = best_bipartition(n, g.edges, "normalized_cut")
        factor = ours / optimum if optimum > 0 else 1.0
        worst_factor = max(worst_factor, factor)

    g = bridged()
    planted = [0, 0, 0, 1, 1, 1]
    exact = sa.recursive_bipartition(g, 2).assignment.tolist() == planted
    s = sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL)
    e = sa.spectral_embedding(s, 1)
    for metric in sa.METRICS:
        exact &= sa.kway_embedding_cluster(e, 2, metric=metric).assignment.tolist() == planted
    exact &= p_spectral_bipartition(g, PLaplacianParams(p=1.2)).assignment.tolist() == planted
    elapsed = time.perf_counter() - start
    record(
        3,
        "bipartition vs brute force",
        worst_factor <= 4.0 and exact,
        f"worst ncut factor {worst_factor:.3f} <= 4, planted fixture exact {exact}",
        elapsed,
        60.0,
    )


def test_criterion_4_planted_partition_recovery():
    start = time.perf_counter()
    hits = 0
    worst = 1.0
    planted = [i // 8 for i in range(32)]
    for seed in range(20):
        g = sa.sbm_generate(4, 8, 0.9, 0.02, seed=seed)
        p = sa.recursive_bipartition(g, 4)
        agree = label_agreement(list(p.assignment), planted, 4)
        worst = min(worst, agree)
        if agree >= 0.95:
            hits += 1
    elapsed = time.perf_counter() - start
    record(
        4,
        "planted-partition recovery",
        hits >= 18,
        f"{hits}/20 seeds at >=95% agreement (worst {worst:.3f})",
        elapsed,
        30.0,
    )


def test_criterion_5_p_laplacian_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_apply = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 20))
        g = random_connected_graph(rng, n)
        f = rng.normal(size=n)
        L = np.asarray(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix)
        worst_apply = max(worst_apply, float(np.abs(p_laplacian_apply(g, f, 2.0) - L @ f).max()))

    worst_gap = 0.0
    p2 = PLaplacianParams(p=2.0)
    for _ in range(20):
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n)
        ours = sa.cut_metrics(g, p_spectral_bipartition(g, p2)).cheeger
        v = sa.fiedler_vector(sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL))
        ref = sa.cut_metrics(g, sa.threshold_partition(g, v, "cheeger")).cheeger
        worst_gap = max(worst_gap, abs(ours - ref))

    low, high = [], []
    p12 = PLaplacianParams(p=1.2)
    for seed in range(50):
        g = sa.sbm_generate(2, 8, 0.9, 0.05, seed=seed)
        if len(sa.connected_components(g)) > 1:
            continue
        low.append(sa.cut_metrics(g, p_spectral_bipartition(g, p12)).cheeger)
        high.append(sa.cut_metrics(g, p_spectral_bipartition(g, p2)).cheeger)
    median_low, median_high = float(np.median(low)), float(np.median(high))

    elapsed = time.perf_counter() - start
    ok = worst_apply < 1e-10 and worst_gap < 1e-9 and median_low <= median_high
    record(
        5,
        "p-Laplacian consistency",
        ok,
        f"apply dev {worst_apply:.2e}, Cheeger gap {worst_gap:.2e}, "
        f"median p=1.2 {median_low:.4f} <= p=2 {median_high:.4f}",
        elapsed,
        120.0,
    )


def test_criterion_6_hierarchy_refinement():
    start = time.perf_counter()
    g = nested_sbm(4, 6, 0.9, 0.3, 0.02, seed=5)
    fine = [i // 6 for i in range(24)]
    coarse = [i // 12 for i in range(24)]
    h = build_hierarchy(g, [LevelSpec(k=4), LevelSpec(k=2)])
    both_levels = (
        label_agreement(list(h.levels[0].partition.assignment), fine, 4) == 1.0
        and label_agreement(list(flatten(h, 1).assignment), coarse, 2) == 1.0
    )

    rng = np.random.default_rng(3)
    invariants = True
    for _ in range(50):
        n = int(rng.integers(4, 18))
        rg = random_connected_graph(rng, n)
        ks = sorted({int(rng.integers(1, n + 1)) for _ in range(3)}, reverse=True)
        rh = build_hierarchy(rg, [LevelSpec(k=k) for k in ks])
        prev_total = sum(w for _, _, w in rg.edges)
        for lvl in rh.levels:
            intra = sum(c.internal_weight for c in lvl.profile.clusters)
            total = sum(w for _, _, w in lvl.quotient.edges)
            invariants &= abs(total + intra - prev_total) < 1e-9
            prev_total = total
        for t in range(rh.depth - 1):
            parent: dict[int, int] = {}
            for f_label, c_label in zip(flatten(rh, t).assignment, flatten(rh, t + 1).assignment):
                invariants &= parent.setdefault(f_label, c_label) == c_label
    elapsed = time.perf_counter() - start
    record(
        6,
        "hierarchy refinement",
        both_levels and invariants,
        f"nested levels recovered {both_levels}, invariants on 50 hierarchies {invariants}",
        elapsed,
        60.0,
    )


def test_criterion_7_structure_function_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    graphs = [bridged(), random_connected_graph(rng, 10), sa.sbm_generate(2, 5, 0.9, 0.1, seed=2)]

    worst_fit = 0.0
    for g in graphs:
        for beta in (0.3, 1.3, 4.0):
            for scale in (0.5, 1.0, 2.0):
                for offset in (0.0, 0.1, 0.5):
                    observed = predict_fc(g, FcModel(beta=beta, scale=scale, offset=offset))
                    _model, err = fit_fc(g, observed)
                    worst_fit = max(worst_fit, err)

    worst_series = 0.0
    for g in graphs:
        L = np.asarray(sa.laplacian(g, sa.LaplacianKind.NORMALIZED).matrix)
        for beta in (0.5, 1.0, 3.5):
            F = predict_fc(g, FcModel(beta=beta, scale=1.0, offset=0.0))
            worst_series = max(worst_series, float(np.abs(F - series_expm(-beta * L)).max()))

    worst_angle = 0.0
    for g in graphs:
        s = sa.graph_spectrum(g, sa.LaplacianKind.NORMALIZED)
        F = predict_fc(g, FcModel(beta=0.8, scale=1.5, offset=0.0))
        _vals, vecs = np.linalg.eigh(F)
        sv = np.linalg.svd(vecs.T @ s.eigenvectors, compute_uv=False)
        worst_angle = max(worst_angle, float(np.abs(sv - 1.0).max()))

    elapsed = time.perf_counter() - start
    ok = worst_fit < 1e-8 and worst_series < 1e-9 and worst_angle < 1e-6
    record(
        7,
        "structure-function round trip",
        ok,
        f"fit error {worst_fit:.2e}, series dev {worst_series:.2e}, angle dev {worst_angle:.2e}",
        elapsed,
        60.0,
    )


def cli_fixture_commands(tmp: str) -> list[list[str]]:
    g = bridged()
    tsv = os.path.join(tmp, "g.tsv")
    with open(tsv, "w") as handle:
        for i, j, w in g.edges:
            handle.write(f"{g.labels[i]}\t{g.labels[j]}\t{w:g}\n")
    fc = os.path.join(tmp, "fc.csv")
    from spectral_abstraction.fileio import matrix_csv

    with open(fc, "w") as handle:
        handle.writelines(matrix_csv(predict_fc(g, FcModel(beta=1.3, scale=2.0, offset=0.1))))
    coup = os.path.join(tmp, "coup.csv")
    with open(coup, "w") as handle:
        handle.write("0,2,0\n0,0,0.1\n0,0,0\n")
    mask = os.path.join(tmp, "mask.csv")
    with open(mask, "w") as handle:
        handle.write("0,1,0\n0,0,1\n0,0,0\n")

    out = lambda name: os.path.join(tmp, name)  # noqa: E731
    return [
        ["spectrum", "--input", tsv, "--output", out("spectrum.json")],
        ["bipartition", "--input", tsv, "--output", out("bipartition.json")],
        ["cluster", "--input", tsv, "--output", out("cluster_rec.json"), "--k", "3"],
        [
            "cluster",
            "--input",
            tsv,
            "--output",
            out("cluster_kway.json"),
            "--k",
            "2",
            "--dims",
            "1",
            "--metric",
            "fractional",
            "--q",
            "0.5",
        ],
        ["p-cluster", "--input", tsv, "--output", out("pcluster.json"), "--k", "2", "--p", "1.2"],
        [
            "hierarchy",
            "--input",
            tsv,
            "--output",
            out("hierarchy.json"),
            "--level",
            "k=3",
            "--level",
            "k=2",
            "--dot",
        ],
        [
            "predict-fc",
            "--input",
            tsv,
            "--output",
            out("predict.csv"),
            "--beta",
            "1.3",
            "--scale",
            "2.0",
            "--offset",
            "0.1",
        ],
        ["fit-fc", "--input", tsv, "--observed", fc, "--output", out("fit.json")],
        [
            "jacobian-graph",
            "--input",
            coup,
            "--mask",
            mask,
            "--output",
            out("jacobian.json"),
            "--threshold",
            "0.5",
        ],
    ]


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    stable = True
    checked = 0
    details = []
    for threads in ("1", "8"):
        env = dict(os.environ, SPECTRAL_ABSTRACTION_THREADS=threads)
        for run in ("a", "b"):
            tmp = tmp_path / f"t{threads}{run}"
            tmp.mkdir()
            for argv in cli_fixture_commands(str(tmp)):
                proc = subprocess.run(
                    [sys.executable, "-m", "spectral_abstraction.cli", *argv],
                    capture_output=True,
                    env=env,
                )
                assert proc.returncode == 0, (argv, proc.stderr)
        # same-thread repeat and cross-thread comparison, byte for byte
    reference = None
    for threads in ("1", "8"):
        for run in ("a", "b"):
            tmp = tmp_path / f"t{threads}{run}"
            snapshot = {
                name: (tmp / name).read_bytes()
                for name in sorted(os.listdir(tmp))
                if name.endswith((".json", ".csv", ".dot"))
            }
            # inputs are written identically; outputs must match the first run
            if reference is None:
                reference = snapshot
                checked = len(snapshot)
            else:
                stable &= set(snapshot) == set(reference)
                stable &= all(snapshot[name] == reference[name] for name in reference)
    elapsed = time.perf_counter() - start
    record(
        8,
        "CLI determinism",
        stable,
        f"{checked} files byte-identical across 2 runs x threads {{1, 8}}",
        elapsed,
        60.0,
    )
