"""Write a workload's SBM dataset directory, outside any measured process.

The dataset is `sheaflab.synth_sbm` with the benchmark's parameters, written
by `save_dataset`. `synth_sbm` builds all n(n-1)/2 candidate pairs, so its
memory grows as n^2 (about 4 GB at n = 16000); it runs in a process of its
own and never in a timed one.

Usage: python3 benchmark/datagen.py --n 4000 --seed 0 --out DIR
"""

from __future__ import annotations

import argparse

from sheaflab import synth_sbm
from sheaflab.data import Dataset, save_dataset

import spec


def sbm_dataset(n: int, seed: int) -> Dataset:
    return synth_sbm(
        n, spec.N_CLASSES, spec.IN_DEGREE / n, spec.OUT_DEGREE / n,
        spec.FEATURE_DIM, spec.SEPARATION, seed, name=f"sbm-n{n}-s{seed}",
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    save_dataset(sbm_dataset(args.n, args.seed), args.out)


if __name__ == "__main__":
    main()
