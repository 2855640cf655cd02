#!/usr/bin/env python3
"""Planted-partition recovery sweep.

Generates stochastic block models over a range of inter-block edge
probabilities and measures how well each clustering routine recovers
the planted blocks. Emits one CSV row per (p_out, seed, method) with
the best-matching label agreement.

Usage:
    python3 scripts/run_planted_recovery.py --blocks 4 --block-size 8 --seeds 10
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
from scipy.optimize import linear_sum_assignment

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spectral_abstraction as sa
from spectral_abstraction.nonlinear import PLaplacianParams, p_recursive_bipartition


def agreement(assignment, planted, k: int) -> float:
    """Best-matching fraction of nodes labeled consistently with the plant."""
    overlap = np.zeros((k, k))
    np.add.at(overlap, (np.asarray(assignment), np.asarray(planted)), 1)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    return overlap[rows, cols].sum() / len(planted)


def cluster(g: sa.Graph, k: int, method: str, seed: int):
    if method == "recursive":
        return sa.recursive_bipartition(g, k)
    if method == "kway":
        s = sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL)
        emb = sa.spectral_embedding(s, max(1, k - 1))
        return sa.kway_embedding_cluster(emb, k, seed=seed)
    return p_recursive_bipartition(g, k, PLaplacianParams(p=1.2))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument("--block-size", type=int, default=8)
    parser.add_argument("--p-in", type=float, default=0.9)
    parser.add_argument(
        "--p-out",
        type=float,
        nargs="+",
        default=[0.02, 0.05, 0.1, 0.2],
        help="inter-block probabilities to sweep",
    )
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    planted = [i // args.block_size for i in range(args.blocks * args.block_size)]

    print("p_out,seed,method,agreement")
    for p_out in args.p_out:
        for seed in range(args.seeds):
            g = sa.sbm_generate(args.blocks, args.block_size, args.p_in, p_out, seed=seed)
            if len(sa.connected_components(g)) > 1:
                continue
            for method in ("recursive", "kway", "p-recursive"):
                part = cluster(g, args.blocks, method, seed)
                score = agreement(part.assignment, planted, args.blocks)
                print(f"{p_out:g},{seed},{method},{score:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
