"""sheaflab benchmark: time a workload from outside the library and check it.

Run from the repository root:

    python3 benchmark/run.py --workload train-4k --seed 0 --seconds 55 --trace 0

`--workload all` runs every workload in turn. The dataset is generated and
cached by a separate process first (benchmark/datagen.py). Then fresh
worker processes (benchmark/worker.py) repeat the workload's call sequence,
starting a repetition while at least half of it fits in `--seconds`.
One process runs at a time, with BLAS threads capped at the number of
usable cores.

--trace 0 prints the end-to-end metrics: the median setup_s, run_s and
peak_rss_mb over the repetitions. --trace 1 alternates an untraced, a
span-traced and a tracemalloc repetition, and prints the per-layer metrics
(low medians over cycles) with trace.overhead = traced / untraced run_s.
The last line of stdout is one JSON object: correct, attempted, failed
(ops and failed ops over every repetition) and metrics.

Run records, span files and cached datasets go to .sheafbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".sheafbench")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in BLAS_VARS})
    return env


def environment(env: dict) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": vendor,
        **{var: env[var] for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _child(argv: list[str], env: dict) -> None:
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} exited {proc.returncode}:\n{proc.stderr}")


def dataset(n: int, seed: int, env: dict) -> str:
    """Cached dataset directory; regenerated when a file's sha256 does not match."""
    path = os.path.join(WORK, "data", f"sbm-n{n}-s{seed}")
    manifest = os.path.join(path, "sha256.json")
    if os.path.exists(manifest):
        with open(manifest) as fh:
            if json.load(fh) == {f: _sha256(os.path.join(path, f)) for f in spec.DATA_FILES}:
                return path
    shutil.rmtree(path, ignore_errors=True)
    _child(
        [os.path.join(HERE, "datagen.py"), "--n", str(n), "--seed", str(seed), "--out", path],
        env,
    )
    with open(manifest, "w") as fh:
        json.dump({f: _sha256(os.path.join(path, f)) for f in spec.DATA_FILES}, fh)
    return path


def repetition(w, seed, data, mode, run_id, index, env) -> dict:
    tag = f"{run_id}-{index}-{mode}"
    out = os.path.join(WORK, "reps", f"{tag}.json")
    argv = [
        os.path.join(HERE, "worker.py"), "--workload", w.name, "--seed", str(seed),
        "--data", data, "--work", os.path.join(WORK, "out", w.name), "--mode", mode,
        "--out", out, "--run-id", run_id,
    ]
    if mode == "spans":
        argv += ["--spans", os.path.join(WORK, "spans", f"{tag}.jsonl")]
    _child(argv, env)
    with open(out) as fh:
        record = json.load(fh)
    os.remove(out)
    return record


def determinism_failures(w, reps: list[dict]) -> list[str]:
    """Every repetition of this invocation builds the same sheaf: same sha256, same diagnostics.

    Runs of other invocations or other commits are compared through the
    `sheaf` entry of the result file instead.
    """
    built = [(r["sheaf_sha256"], r["diagnostics"]) for r in reps if r["sheaf_sha256"] is not None]
    return [
        f"{w.kind} sheaf of repetition {i} differs from repetition 0: {got} vs {built[0]}"
        for i, got in enumerate(built) if got != built[0]
    ]


def run_workload(w, seed: int, seconds: float, trace: bool, env: dict, env_record: dict) -> dict:
    data = dataset(w.n, seed, env)
    run_id = f"{w.name}-s{seed}-{uuid.uuid4().hex[:8]}"
    modes = ("plain", "spans", "mem") if trace else ("plain",)
    reps: list[dict] = []
    start = time.perf_counter()
    cycles = 0
    # start a cycle only if at least half of it fits, so runs end near `seconds` on average
    while cycles == 0 or (time.perf_counter() - start) * (1 + 0.5 / cycles) < seconds:
        for mode in modes:
            reps.append(repetition(w, seed, data, mode, run_id, cycles, env))
            print(json.dumps({"workload": w.name, "cycle": cycles, **_rep_summary(reps[-1])}))
        cycles += 1

    failures = determinism_failures(w, reps)
    for msg in failures:
        print(f"determinism check failed: {msg}", file=sys.stderr)
    for r in reps:
        for step, msgs in r["errors"].items():
            print(f"{w.name} {r['mode']} {step} failed: {'; '.join(msgs)}", file=sys.stderr)
    result = summarise(reps, trace, len(failures))
    print(f"# {w.name}: {len(reps)} repetitions in {cycles} cycles of {'/'.join(modes)}, "
          f"sheaf sha256 {reps[0]['sheaf_sha256']}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{run_id}-t{int(trace)}.json"), "w") as fh:
        json.dump({"env": env_record, "workload": w.__dict__, "seed": seed,
                   "sheaf": {"sha256": reps[0]["sheaf_sha256"], "diagnostics": reps[0]["diagnostics"]},
                   "reps": reps, "result": result}, fh, indent=1)
    return result


def summarise(reps: list[dict], trace: bool, extra_failures: int = 0) -> dict:
    """The result object: medians over repetitions, ops and failed ops over all of them."""

    def med(mode, key):
        return statistics.median(r[key] for r in reps if r["mode"] == mode)

    if trace:
        metrics = {}
        for name, unit, _, _ in spec.PER_LAYER:
            if name == "trace.overhead":
                value = med("spans", "run_s") / med("plain", "run_s")
            else:
                # a value one traced repetition measured, so counts stay whole numbers
                value = statistics.median_low(
                    r["layers"][name] for r in reps if name in r.get("layers", {})
                )
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            name: {"value": med("plain", name), "unit": unit}
            for name, unit, _, _ in spec.END_TO_END
        }
    failed = sum(r["failed"] for r in reps) + extra_failures
    return {
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "metrics": metrics,
    }


def _rep_summary(r: dict) -> dict:
    keys = ("mode", "ops", "failed", "setup_s", "run_s", "peak_rss_mb", "stages_s",
            "sheaf_sha256", "diagnostics", "test_acc")
    return {k: r[k] for k in keys}


def print_table(name: str, result: dict, trace: bool) -> None:
    moves = {m[0]: m[3] for m in spec.PER_LAYER}
    print(f"# {name}: ops={result['attempted']} ops_failed={result['failed']}")
    for metric, v in result["metrics"].items():
        note = f"  ({moves[metric]})" if trace else ""
        print(f"  {metric:<32} {v['value']:>16.6g} {v['unit']:<6}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sheaflab", "__init__.py")):
        print(f"error: no sheaflab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for sub in ("data", "reps", "spans", "out"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    env = child_env()
    env_record = environment(env)
    print(json.dumps({"env": env_record}))

    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                spec.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env, env_record
            )
            print_table(name, results[name], bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": v
                for name, r in results.items() for metric, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
