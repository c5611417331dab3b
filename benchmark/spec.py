"""Workloads and metric definitions of the sheaflab benchmark.

Every workload is a 2-class SBM graph with p_in = 14.4/n and p_out = 3.6/n
(average degree about 9, homophily about 0.80), p = 4 features at class
separation 2.0, and the reference model settings d = 2, f = 8, T = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

N_CLASSES = 2
FEATURE_DIM = 4
SEPARATION = 2.0
IN_DEGREE = 14.4   # p_in * n
OUT_DEGREE = 3.6   # p_out * n
D = 2
F = 8
LAYERS = 2
DATA_FILES = ("nodes.csv", "edges.csv", "splits.json")

# test_acc_at_best must exceed these; chance is 0.5 on two balanced classes.
ACC_FLOOR = {"connection": 0.70, "rand-edge": 0.60, "gcn": 0.75, "mlp": 0.70}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    kind: str                 # sheaf kind of the set-up chain
    export: bool              # write_sheaf_csv + write_laplacian_coo after set-up
    trains: tuple[str, ...]   # model kinds trained after set-up, in order
    epochs: int               # fixed epoch count of every train(), patience 0
    why: str

    def steps(self) -> list[str]:
        names = ["load", "build", "assemble", "normalise"]
        if self.export:
            names += ["sheaf_csv", "coo"]
        return names + [f"train:{k}" for k in self.trains]


# Set-up and export are pure-Python loops. On a shared 2-vCPU host their times
# changed by up to 1.65x for minutes at a time, so a workload they dominate
# (an n=16000 build and export) spread past a 0.25 bound across runs. The
# numpy-bound training loops spread less than a tenth. So both workloads train,
# and set-up shows in setup_s and in the per-layer sheaf and laplacian metrics.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-4k", 4000, "connection", True, ("connection",), 50,
            "n=4000 SBM: connection set-up, sheaf CSV and Laplacian COO export, then "
            "train(connection) for 50 epochs; the epoch loop and laplacian.apply dominate",
        ),
        Workload(
            "baselines-4k", 4000, "rand-edge", False, ("gcn", "mlp", "rand-edge"), 20,
            "same n=4000 data: rand-edge set-up, then train gcn, mlp and rand-edge for 20 "
            "epochs each; baseline loop, dense GCN operator and Haar sheaves",
        ),
    )
}

SHEAF_KINDS = ("connection", "rand-edge")
TRAIN_KINDS = ("connection", "rand-edge", "gcn", "mlp")
MEM_STAGES = ("load", "build", "assemble", "normalise", "sheaf_csv", "coo", "train")

# name, unit, better, bound: timed around public calls with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# name, unit, better, the end-to-end metric and workloads it should move.
PER_LAYER = (
    ("data.load_s", "s", "lower", "setup_s on train-4k, baselines-4k"),
    ("data.bytes_read", "B", "lower", "setup_s on train-4k, baselines-4k"),
    ("graph.canon_s", "s", "lower", "setup_s on train-4k"),
    ("sheaf.build_s", "s", "lower", "setup_s on train-4k"),
    ("sheaf.pad_s", "s", "lower", "setup_s on train-4k"),
    ("sheaf.pad_calls", "count", "lower", "setup_s on train-4k"),
    ("sheaf.align_s", "s", "lower", "setup_s on train-4k"),
    ("sheaf.pca_s", "s", "lower", "setup_s on train-4k"),
    ("sheaf.haar_s", "s", "lower", "setup_s on baselines-4k"),
    ("sheaf.haar_calls", "count", "lower", "setup_s on baselines-4k"),
    ("sheaf.padded_nodes", "count", "lower", "none; must repeat exactly"),
    ("sheaf.rank_completed_bases", "count", "lower", "none; must repeat exactly"),
    ("sheaf.singular_alignments", "count", "lower", "none; must repeat exactly"),
    ("sheaf.csv_write_s", "s", "lower", "run_s on train-4k"),
    ("sheaf.csv_bytes", "B", "lower", "run_s on train-4k"),
    ("laplacian.assemble_s", "s", "lower", "control: stays near zero"),
    ("laplacian.normalise_s", "s", "lower", "control: stays near zero"),
    ("laplacian.apply_s", "s", "lower", "run_s on train-4k, baselines-4k"),
    ("laplacian.apply_calls", "count", "lower", "run_s on train-4k, baselines-4k"),
    ("laplacian.apply_flops", "flop", "lower", "run_s on train-4k, baselines-4k (computed)"),
    ("laplacian.apply_bytes", "B", "lower", "run_s on train-4k, baselines-4k (computed)"),
    ("laplacian.apply_share", "ratio", "lower", "run_s on train-4k, baselines-4k"),
    ("laplacian.coo_write_s", "s", "lower", "run_s on train-4k"),
    ("laplacian.coo_bytes", "B", "lower", "run_s on train-4k"),
    *(
        (f"model.{k}.train_s", "s", "lower",
         "run_s on train-4k" if k == "connection" else "run_s on baselines-4k")
        for k in TRAIN_KINDS
    ),
    ("model.epochs", "count", "lower", "run_s on train-4k, baselines-4k"),
    ("model.forward_s", "s", "lower", "run_s on train-4k, baselines-4k"),
    ("model.forward_calls", "count", "lower", "run_s on train-4k, baselines-4k"),
    ("model.backward_s", "s", "lower", "run_s on train-4k, baselines-4k"),
    ("model.loss_s", "s", "lower", "run_s on train-4k, baselines-4k"),
    ("model.accuracy_s", "s", "lower", "run_s on train-4k, baselines-4k"),
    ("model.train_self_s", "s", "lower", "run_s on train-4k, baselines-4k"),
    ("model.gcn_prop_s", "s", "lower", "run_s, peak_rss_mb on baselines-4k"),
    *(
        (f"mem.{s}.peak_mb", "MB", "lower", "peak_rss_mb on every workload")
        for s in MEM_STAGES
    ),
    ("trace.overhead", "ratio", "lower", "none; traced run_s / untraced run_s"),
)
