#!/usr/bin/env python3
"""Cheeger cut quality as the p-Laplacian exponent falls from 2 toward 1.

For each seeded block-model instance, bipartitions the graph at several
exponents and reports the Cheeger value of the resulting cut. Lower
exponents should match or beat the linear (p = 2) cut in the median;
this script makes that comparison inspectable per instance.

Usage:
    python3 scripts/run_p_sweep.py --seeds 20 --exponents 2.0 1.6 1.2
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spectral_abstraction as sa
from spectral_abstraction.nonlinear import PLaplacianParams, p_spectral_bipartition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--block-size", type=int, default=8)
    parser.add_argument("--p-in", type=float, default=0.9)
    parser.add_argument("--p-out", type=float, default=0.05)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--exponents", type=float, nargs="+", default=[2.0, 1.6, 1.2])
    args = parser.parse_args()

    values: dict[float, list[float]] = {p: [] for p in args.exponents}
    print("seed," + ",".join(f"p={p:g}" for p in args.exponents))
    for seed in range(args.seeds):
        g = sa.sbm_generate(args.blocks, args.block_size, args.p_in, args.p_out, seed=seed)
        if len(sa.connected_components(g)) > 1:
            continue
        row = []
        for p in args.exponents:
            part = p_spectral_bipartition(g, PLaplacianParams(p=p))
            cheeger = sa.cut_metrics(g, part).cheeger
            values[p].append(cheeger)
            row.append(f"{cheeger:.6f}")
        print(f"{seed}," + ",".join(row))

    print()
    print("exponent,median_cheeger,mean_cheeger")
    for p in args.exponents:
        arr = np.array(values[p])
        print(f"{p:g},{np.median(arr):.6f},{arr.mean():.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
