"""One repetition of a workload in a fresh process.

The process loads the dataset, runs the workload's call sequence through
sheaflab's public functions, then checks the outputs outside the timed
region and writes one JSON record. Modes:

    plain  end-to-end timings, no tracing
    spans  spans around the calls into each module (spans.Tracer)
    mem    tracemalloc peak of each top-level stage

Usage: python3 benchmark/worker.py --workload W --seed N --data DIR
           --work DIR --mode plain|spans|mem --out FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict

import sheaflab.data
import sheaflab.laplacian
import sheaflab.model
import sheaflab.sheaf

import checks
import spec
from spans import TraceError, Tracer

MB = 1e6


def _bytes_read(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(os.path.join(args[0], f)) for f in spec.DATA_FILES)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _apply_cost(args, kwargs, result):
    """Computed from array sizes, not measured.

    flops: one d x d block product per diagonal block and two per edge,
    plus the two scatter-adds. bytes: compulsory traffic, each block, edge
    index, input and output element moved once.
    """
    lap, x = args[0], args[1]
    n, d, m = lap.n, lap.d, lap.num_edges
    f = x.size // lap.dim
    return {
        "flops": 2 * d * d * f * (n + 2 * m) + 2 * m * d * f,
        "bytes": 8 * (n * d * d + m * d * d + 2 * m + 2 * lap.dim * f),
    }


def _train_attrs(args, kwargs, result):
    return {"kind": args[1], "epochs": len(result[1]["epoch"])}


# (module, attribute, span name, static attrs, counter). The package looks
# these names up at call time, so its internal calls are traced as well.
PATCHES = (
    ("sheaflab.data", "load_dataset", "data.load", {}, _bytes_read),
    ("sheaflab.data", "from_edge_list", "graph.canon", {}, None),
    ("sheaflab.model", "build_connection_sheaf", "sheaf.build", {"kind": "connection"}, None),
    ("sheaflab.model", "random_edge_sheaf", "sheaf.build", {"kind": "rand-edge"}, None),
    ("sheaflab.sheaf", "neighbourhood_with_padding", "sheaf.pad", {}, None),
    ("sheaflab.sheaf", "transports_from_bases", "sheaf.align", {}, None),
    ("sheaflab.sheaf", "haar_orthogonal", "sheaf.haar", {}, None),
    ("sheaflab.sheaf", "write_sheaf_csv", "sheaf.csv_write", {}, _bytes_written),
    ("sheaflab.laplacian", "sheaf_laplacian", "laplacian.assemble", {}, None),
    ("sheaflab.model", "sheaf_laplacian", "laplacian.assemble", {}, None),
    ("sheaflab.laplacian", "normalise", "laplacian.normalise", {}, None),
    ("sheaflab.model", "normalise", "laplacian.normalise", {}, None),
    ("sheaflab.model", "apply", "laplacian.apply", {}, _apply_cost),
    ("sheaflab.laplacian", "write_laplacian_coo", "laplacian.coo_write", {}, _bytes_written),
    ("sheaflab.model", "train", "model.train", {}, _train_attrs),
    ("sheaflab.model", "forward", "model.forward", {}, None),
    ("sheaflab.model", "backward", "model.backward", {}, None),
    ("sheaflab.model", "cross_entropy", "model.loss", {}, None),
    ("sheaflab.model", "cross_entropy_grad", "model.loss", {}, None),
    ("sheaflab.model", "accuracy", "model.accuracy", {}, None),
    ("sheaflab.model", "gcn_propagation_matrix", "model.gcn_prop", {}, None),
)


def expected_spans(w: spec.Workload) -> set[str]:
    """Span names the workload must record at least once."""
    kinds = {w.kind, *w.trains}
    names = {"data.load", "graph.canon", "sheaf.build", "laplacian.assemble", "laplacian.normalise"}
    if "connection" in kinds:
        names |= {"sheaf.pad", "sheaf.align"}
    if "rand-edge" in kinds:
        names.add("sheaf.haar")
    if w.export:
        names |= {"sheaf.csv_write", "laplacian.coo_write"}
    if w.trains:
        names |= {"model.train", "model.loss", "model.accuracy"}
    if set(w.trains) & set(spec.SHEAF_KINDS):
        names |= {"model.forward", "model.backward", "laplacian.apply"}
    if "gcn" in w.trains:
        names.add("model.gcn_prop")
    return names


def _actions(w: spec.Workload, data_dir: str, work_dir: str, seed: int, res: dict) -> dict:
    """Step name -> call. Functions are looked up through their modules at call time."""
    sd, sm, sl, ss = sheaflab.data, sheaflab.model, sheaflab.laplacian, sheaflab.sheaf
    acts = {
        "load": lambda: sd.load_dataset(data_dir),
        "build": lambda: sm.build_sheaf_by_kind(res["load"].graph, w.kind, spec.D, seed),
        "assemble": lambda: sl.sheaf_laplacian(res["build"], res["load"].graph),
        "normalise": lambda: sl.normalise(res["assemble"]),
        "sheaf_csv": lambda: ss.write_sheaf_csv(res["build"], os.path.join(work_dir, "sheaf.csv")),
        "coo": lambda: sl.write_laplacian_coo(res["normalise"], os.path.join(work_dir, "laplacian.coo")),
    }

    def train(kind):
        cfg = sm.TrainConfig(
            d=spec.D, f=spec.F, layers=spec.LAYERS, epochs=w.epochs, patience=0, seed=seed
        )
        return lambda: sm.train(res["load"], kind, cfg, 0)[1]

    for kind in w.trains:
        acts[f"train:{kind}"] = train(kind)
    return acts


def _checks(step, res, work_dir, seed) -> list[str]:
    if step == "build":
        return checks.orthogonal(res["build"].transports)
    if step == "normalise":
        return checks.operator(res["normalise"], sheaflab.laplacian.apply, seed)
    if step == "sheaf_csv":
        return checks.sheaf_roundtrip(
            res["build"], os.path.join(work_dir, "sheaf.csv"), sheaflab.sheaf.read_sheaf_csv
        )
    if step == "coo":
        return checks.coo_file(res["normalise"], os.path.join(work_dir, "laplacian.coo"))
    if step.startswith("train:"):
        kind = step.split(":", 1)[1]
        return checks.training(res[step], kind, spec.ACC_FLOOR[kind])
    return []


def run(w: spec.Workload, data_dir: str, work_dir: str, seed: int, mode: str, tracer=None) -> dict:
    os.makedirs(work_dir, exist_ok=True)
    steps = w.steps()
    res: dict = {}
    acts = _actions(w, data_dir, work_dir, seed, res)
    errors: dict[str, list[str]] = defaultdict(list)
    ends: dict[str, float] = {}
    mem_peak: dict[str, float] = defaultdict(float)

    if mode == "mem":
        tracemalloc.start()
    t0 = time.perf_counter()
    for step in steps:
        if mode == "mem":
            tracemalloc.reset_peak()
        try:
            if tracer is not None:
                res[step] = tracer.call(f"step.{step}", acts[step])
            else:
                res[step] = acts[step]()
        except Exception as exc:  # a failed op; later steps need its output
            errors[step].append(f"{type(exc).__name__}: {exc}")
            break
        ends[step] = time.perf_counter()
        if mode == "mem":
            stage = step.split(":", 1)[0]
            mem_peak[stage] = max(mem_peak[stage], tracemalloc.get_traced_memory()[1] / MB)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    if mode == "mem":
        tracemalloc.stop()
    if tracer is not None:
        tracer.uninstall()

    for step in ends:
        try:
            errors[step] += _checks(step, res, work_dir, seed)
        except Exception as exc:  # a check that cannot run is a failed check
            errors[step].append(f"check raised {type(exc).__name__}: {exc}")

    stages, prev = {}, t0
    for step in ends:
        stages[step] = ends[step] - prev
        prev = ends[step]
    sheaf = res.get("build")
    diag = getattr(sheaf, "diagnostics", None) or sheaflab.sheaf.BuildDiagnostics()
    record = {
        "mode": mode,
        "ops": len(steps),
        "failed": sum(1 for s in steps if s not in ends or errors.get(s)),
        "errors": {s: e for s, e in errors.items() if e},
        "setup_s": ends.get("normalise", t_end) - t0,
        "run_s": t_end - t0,
        "peak_rss_mb": peak_rss_mb,
        "stages_s": stages,
        "sheaf_sha256": checks.transports_sha256(sheaf.transports) if sheaf is not None else None,
        "diagnostics": asdict(diag),
        "test_acc": {
            s.split(":", 1)[1]: res[s]["test_acc_at_best"] for s in ends if s.startswith("train:")
        },
    }
    if mode == "mem":
        record["layers"] = {f"mem.{s}.peak_mb": mem_peak.get(s, 0.0) for s in spec.MEM_STAGES}
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, record)
    return record


def layer_metrics(tr: Tracer, record: dict) -> dict:
    def dur(name, **match):
        return tr.total(name, **match)

    def calls(name):
        return len(tr.named(name))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in tr.named(name))

    train_s = dur("model.train")
    return {
        "data.load_s": tr.self_time("data.load"),
        "data.bytes_read": attr("data.load", "bytes"),
        "graph.canon_s": dur("graph.canon"),
        "sheaf.build_s": dur("sheaf.build"),
        "sheaf.pad_s": dur("sheaf.pad"),
        "sheaf.pad_calls": calls("sheaf.pad"),
        "sheaf.align_s": dur("sheaf.align"),
        "sheaf.pca_s": tr.self_time("sheaf.build", kind="connection"),
        "sheaf.haar_s": dur("sheaf.haar"),
        "sheaf.haar_calls": calls("sheaf.haar"),
        **{f"sheaf.{k}": v for k, v in record["diagnostics"].items()},
        "sheaf.csv_write_s": dur("sheaf.csv_write"),
        "sheaf.csv_bytes": attr("sheaf.csv_write", "bytes"),
        "laplacian.assemble_s": dur("laplacian.assemble"),
        "laplacian.normalise_s": dur("laplacian.normalise"),
        "laplacian.apply_s": dur("laplacian.apply"),
        "laplacian.apply_calls": calls("laplacian.apply"),
        "laplacian.apply_flops": attr("laplacian.apply", "flops"),
        "laplacian.apply_bytes": attr("laplacian.apply", "bytes"),
        "laplacian.apply_share": dur("laplacian.apply") / train_s if train_s else 0.0,
        "laplacian.coo_write_s": dur("laplacian.coo_write"),
        "laplacian.coo_bytes": attr("laplacian.coo_write", "bytes"),
        **{f"model.{k}.train_s": dur("model.train", kind=k) for k in spec.TRAIN_KINDS},
        "model.epochs": attr("model.train", "epochs"),
        "model.forward_s": dur("model.forward"),
        "model.forward_calls": calls("model.forward"),
        "model.backward_s": dur("model.backward"),
        "model.loss_s": dur("model.loss"),
        "model.accuracy_s": dur("model.accuracy"),
        "model.train_self_s": tr.self_time("model.train"),
        "model.gcn_prop_s": dur("model.gcn_prop"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "spans", "mem"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()
    w = spec.WORKLOADS[args.workload]

    tracer = None
    if args.mode == "spans":
        tracer = Tracer(args.run_id)
        tracer.install(PATCHES)
    record = run(w, args.data, args.work, args.seed, args.mode, tracer)
    if tracer is not None:
        tracer.write(args.spans)
        missing = sorted(expected_spans(w) - {s["name"] for s in tracer.spans})
        if missing and not record["errors"]:
            sources = defaultdict(list)
            for mod_name, attr, name, _, _ in PATCHES:
                sources[name].append(f"{mod_name}.{attr}")
            raise TraceError(
                "traced layers recorded no calls: "
                + "; ".join(f"{m} ({', '.join(sources[m])})" for m in missing)
            )
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
