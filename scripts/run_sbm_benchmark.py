#!/usr/bin/env python3
"""Compare all model kinds across SBM homophily levels.

Generates synthetic datasets spanning heterophilic to homophilic regimes,
trains every model on the first `--splits` splits of each, and prints test
accuracy at best validation as mean +/- sample std, datasets ordered by
measured homophily. Each split trains with its own seed; the fixed operator
is built once per dataset for every kind whose build ignores the seed.
"""

import argparse

import numpy as np

from sheaflab import homophily, synth_sbm
from sheaflab.model import BASELINE_KINDS, SHEAF_KINDS, TrainConfig, build_operator, train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--feature-dim", type=int, default=2)
    ap.add_argument("--separation", type=float, default=2.0)
    ap.add_argument("--splits", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--d", type=int, default=2)
    args = ap.parse_args()

    regimes = [
        ("heterophilic", 0.01, 0.10),
        ("mixed", 0.05, 0.05),
        ("homophilic", 0.10, 0.01),
    ]
    datasets = []
    for name, p_in, p_out in regimes:
        ds = synth_sbm(
            args.n, 2, p_in, p_out, args.feature_dim, args.separation, seed=args.seed
        )
        datasets.append((name, ds, homophily(ds.graph)))
    datasets.sort(key=lambda t: t[2])

    header = f"{'model':12s}" + "".join(
        f"{name} (h={h:.2f})".rjust(26) for name, _, h in datasets
    )
    print(header)
    print("-" * len(header))
    for kind in SHEAF_KINDS + BASELINE_KINDS:
        cells = []
        for _, ds, _ in datasets:
            # the Haar kinds draw their sheaf from cfg.seed, so each split builds its own
            seeded = kind in ("rand-edge", "rand-node")
            built = None if seeded else build_operator(ds.graph, kind, TrainConfig(d=args.d))
            accs = []
            for split in range(min(args.splits, len(ds.splits))):
                cfg = TrainConfig(seed=args.seed + split, d=args.d)
                _, hist = train(ds, kind, cfg, split, built)
                accs.append(hist["test_acc_at_best"])
            accs = np.asarray(accs)
            cells.append(f"{accs.mean() * 100:6.2f} +/- {accs.std(ddof=1) * 100:5.2f}")
        print(f"{kind:12s}" + "".join(c.rjust(26) for c in cells))


if __name__ == "__main__":
    main()
