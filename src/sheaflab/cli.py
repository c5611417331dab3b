"""Command-line surface: build-sheaf, train, spectrum, bench, synth.

Metrics go to stdout as line-delimited JSON records; files use the formats
defined by the library modules. Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical guard, the size guard included: an allocation
that numpy refuses, such as one an oversized option asks for, exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .data import _reprs, _trainable_split, _write_lines, load_dataset, save_dataset, synth_sbm
from .errors import DataError, GuardError
from .graph import homophily
from .laplacian import spectrum
from .model import BASELINE_KINDS, EPOCH_KEYS, SHEAF_KINDS, TrainConfig, build_operator
from .model import build_sheaf_by_kind, train
from .sheaf import write_sheaf_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GUARD = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through UsageError
    # instead so usage problems map to exit code 1.
    def error(self, message):
        raise UsageError(message)


def load_train_config(path: str | None, overrides: dict) -> TrainConfig:
    """The checked TrainConfig: the JSON object at `path`, then the non-None `overrides`."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {path}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        known = {f.name for f in fields(TrainConfig)}
        for key in raw:
            if key not in known:
                raise UsageError(f"unknown config key: {key}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = TrainConfig(**values)
    cfg.validate()  # its ValueError is a usage error
    return cfg


def _emit(record: dict) -> None:
    print(json.dumps(record))


@contextlib.contextmanager
def _output_file(path: str):
    """Check that `path` opens for writing first; if the work then fails, remove a file made here.

    An unusable path raises OSError (exit 1) before any build or eigensolve.
    """
    created = not os.path.exists(path)
    open(path, "a").close()  # append mode leaves an existing file as it was
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def cmd_build_sheaf(args) -> int:
    cfg = load_train_config(None, {"d": args.d, "seed": args.seed})  # before any file or build
    with _output_file(args.out):
        ds = load_dataset(args.dataset)
        t0 = time.perf_counter()
        sheaf = build_sheaf_by_kind(ds.graph, args.kind, cfg.d, cfg.seed)
        build_seconds = time.perf_counter() - t0
        write_sheaf_csv(sheaf, args.out)
    _emit(
        {
            "command": "build-sheaf",
            "kind": args.kind,
            "d": cfg.d,
            "n": sheaf.n,
            "edges": sheaf.num_edges,
            **asdict(sheaf.diagnostics),
            "build_seconds": build_seconds,
            "out": args.out,
        }
    )
    return EXIT_OK


def _run_fields(history: dict) -> dict:
    """What every train and bench record reports of a run: its timings and build diagnostics."""
    return {
        "sheaf_build_seconds": history["sheaf_build_seconds"],
        "mean_epoch_seconds": history["mean_epoch_seconds"],
        **history["diagnostics"],
    }


def _emit_epochs(history: dict) -> None:
    for values in zip(*(history[key] for key in EPOCH_KEYS)):
        _emit(dict(zip(EPOCH_KEYS, values)))


def _train_one(ds, kind, cfg, split_index, built, emit_epochs):
    try:
        _, history = train(ds, kind, cfg, split_index, built)
    except GuardError as exc:
        # a run the guard stopped still reports the epochs it finished
        if emit_epochs and exc.history is not None:
            _emit_epochs(exc.history)
        raise
    if emit_epochs:
        _emit_epochs(history)
    return history


def cmd_train(args) -> int:
    cfg = load_train_config(args.config, {"d": args.d, "seed": args.seed})  # before any file
    ds = load_dataset(args.dataset)
    indices = [i for i in range(len(ds.splits)) if args.split in ("all", str(i))]
    if not indices:  # every selected split is checked before the build
        raise UsageError(f"split out of range: {args.split} (dataset has {len(ds.splits)})")
    for index in indices:
        _trainable_split(ds, index)

    built = build_operator(ds.graph, args.kind, cfg)  # one build for every split
    accs = []
    for index in indices:
        history = _train_one(ds, args.kind, cfg, index, built, emit_epochs=len(indices) == 1)
        accs.append(history["test_acc_at_best"])
        _emit(
            {
                "summary": True,
                "split": index,
                "kind": args.kind,
                "best_epoch": history["best_epoch"],
                "best_val_acc": history["best_val_acc"],
                "test_acc_at_best": history["test_acc_at_best"],
                **_run_fields(history),
            }
        )
    if len(indices) > 1:
        accs_arr = np.asarray(accs)
        _emit(
            {
                "summary": True,
                "splits": len(indices),
                "kind": args.kind,
                "mean_test_acc": float(accs_arr.mean()),
                "std_test_acc": float(accs_arr.std(ddof=1)),
            }
        )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = load_train_config(None, {"d": args.d, "seed": args.seed})  # before any file or build
    with _output_file(args.out):
        ds = load_dataset(args.dataset)
        lap, _, _ = build_operator(ds.graph, args.kind, cfg)
        eigs = spectrum(lap)
        text = _reprs(eigs)
        _write_lines(args.out, "eigenvalue", eigs.size, lambda lo, hi: [text[lo:hi]], b"\n", 1)
    _emit(
        {
            "command": "spectrum",
            "kind": args.kind,
            "d": cfg.d,
            "count": int(eigs.size),
            "min": float(eigs[0]),
            "max": float(eigs[-1]),
            "out": args.out,
        }
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_train_config(args.config, {"d": args.d, "seed": args.seed})  # before any file
    ds = load_dataset(args.dataset)
    cfg.epochs = max(cfg.epochs, 20)  # timing statistics need at least 20 samples
    cfg.patience = 0  # keep every epoch for the timing record
    _trainable_split(ds, 0)
    built = build_operator(ds.graph, args.kind, cfg)
    history = _train_one(ds, args.kind, cfg, 0, built, emit_epochs=False)
    secs = np.asarray(history["epoch_seconds"])
    _emit(
        {
            "command": "bench",
            "kind": args.kind,
            "n": ds.graph.n,
            "edges": ds.graph.num_edges,
            "d": cfg.d,
            "epochs": int(secs.size),
            **_run_fields(history),
            "std_epoch_seconds": float(secs.std(ddof=1)),
        }
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    ds = synth_sbm(
        n=args.n,
        n_classes=args.classes,
        p_in=args.p_in,
        p_out=args.p_out,
        feature_dim=args.feature_dim,
        separation=args.separation,
        seed=args.seed,
    )
    save_dataset(ds, args.out)
    _emit(
        {
            "command": "synth",
            "n": ds.graph.n,
            "edges": ds.graph.num_edges,
            "classes": args.classes,
            "homophily": homophily(ds.graph) if ds.graph.num_edges else None,
            "out": args.out,
        }
    )
    return EXIT_OK


def build_parser() -> _Parser:
    # TrainConfig holds the defaults of --d and --seed, so they default to None here
    data = _Parser(add_help=False)
    data.add_argument("--dataset", required=True)
    data.add_argument("--d", type=int, default=None)
    data.add_argument("--seed", type=int, default=None)
    export = _Parser(add_help=False)
    export.add_argument("--kind", default="connection", choices=SHEAF_KINDS)
    export.add_argument("--out", required=True)
    run = _Parser(add_help=False)
    run.add_argument("--kind", default="connection", choices=SHEAF_KINDS + BASELINE_KINDS)
    run.add_argument("--config", default=None)

    parser = _Parser(prog="sheaflab")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "build-sheaf", parents=[data, export], help="precompute a sheaf and export it as CSV"
    ).set_defaults(func=cmd_build_sheaf)
    pt = sub.add_parser("train", parents=[data, run], help="train and evaluate on dataset splits")
    pt.add_argument("--split", default="0", help="split index or 'all'")
    pt.set_defaults(func=cmd_train)
    sub.add_parser(
        "spectrum", parents=[data, export], help="eigenvalues of the normalised sheaf Laplacian"
    ).set_defaults(func=cmd_spectrum)
    sub.add_parser(
        "bench", parents=[data, run], help="time sheaf precompute and training epochs"
    ).set_defaults(func=cmd_bench)

    pg = sub.add_parser("synth", help="generate a synthetic SBM dataset directory")
    pg.add_argument("--out", required=True)
    pg.add_argument("--n", type=int, default=200)
    pg.add_argument("--classes", type=int, default=2)
    pg.add_argument("--p-in", type=float, default=0.1, dest="p_in")
    pg.add_argument("--p-out", type=float, default=0.01, dest="p_out")
    pg.add_argument("--feature-dim", type=int, default=8, dest="feature_dim")
    pg.add_argument("--separation", type=float, default=2.0)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy's warnings are muted: the numerical guard reports a non-finite result
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, ValueError, OSError) as exc:  # OSError: an unusable file argument
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GuardError, MemoryError) as exc:  # MemoryError: numpy refused an allocation
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
