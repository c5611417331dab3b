import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sheaflab as sl
from sheaflab.cli import main
from sheaflab.data import save_dataset, synth_sbm
from sheaflab.model import EPOCH_KEYS, TrainConfig, train


@pytest.fixture
def dataset_dir(tmp_path):
    ds = synth_sbm(40, 2, 0.25, 0.05, 3, 2.0, seed=11)
    target = tmp_path / "sbm"
    save_dataset(ds, target)
    return str(target)


def fresh_python(*args):
    """A new interpreter run with `args`, importing this sheaflab; its finished process."""
    package_root = str(Path(sl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines() if line]
    return code, records


class TestBuildSheaf:
    def test_trivial_identity_transports(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "sheaf.csv")
        code, records = run_cli(
            capsys, "build-sheaf", "--dataset", dataset_dir, "--d", "2",
            "--kind", "trivial", "--out", out,
        )
        assert code == 0
        sheaf = sl.read_sheaf_csv(out)
        assert np.array_equal(sheaf.transports, np.tile(np.eye(2), (sheaf.num_edges, 1, 1)))
        assert records[-1]["padded_nodes"] == 0

    def test_connection_deterministic_files(self, dataset_dir, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            code, _ = run_cli(
                capsys, "build-sheaf", "--dataset", dataset_dir, "--d", "2",
                "--kind", "connection", "--out", out,
            )
            assert code == 0
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_d_exceeds_feature_dim_guard(self, dataset_dir, tmp_path, capsys):
        code = main(
            ["build-sheaf", "--dataset", dataset_dir, "--d", "9",
             "--kind", "connection", "--out", str(tmp_path / "x.csv")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "stalk dimension exceeds feature dimension" in err

    def test_diagnostics_record_fields(self, dataset_dir, tmp_path, capsys):
        code, records = run_cli(
            capsys, "build-sheaf", "--dataset", dataset_dir, "--d", "2",
            "--kind", "connection", "--out", str(tmp_path / "s.csv"),
        )
        rec = records[-1]
        for key in (
            "padded_nodes", "rank_completed_bases", "singular_alignments", "build_seconds"
        ):
            assert key in rec


class TestTrain:
    def test_single_split_stream_and_summary(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 5, "patience": 0}))
        code, records = run_cli(
            capsys, "train", "--dataset", dataset_dir, "--config", str(cfg),
            "--kind", "trivial", "--split", "0",
        )
        assert code == 0
        epochs = [r for r in records if "epoch" in r and "summary" not in r]
        assert len(epochs) == 5
        for key in ("train_loss", "train_acc", "val_acc", "test_acc", "epoch_seconds"):
            assert key in epochs[0]
        summary = records[-1]
        assert summary["summary"] and "test_acc_at_best" in summary
        assert "sheaf_build_seconds" in summary and "mean_epoch_seconds" in summary

    def test_all_splits_mean_std(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "patience": 0}))
        code, records = run_cli(
            capsys, "train", "--dataset", dataset_dir, "--config", str(cfg),
            "--kind", "mlp", "--split", "all",
        )
        assert code == 0
        final = records[-1]
        assert final["splits"] == 10
        assert "mean_test_acc" in final and "std_test_acc" in final
        per_split = [r for r in records if r.get("summary") and "split" in r]
        assert len(per_split) == 10

    @pytest.mark.parametrize("kind, builder", [
        ("connection", "build_sheaf_by_kind"),
        ("rand-edge", "build_sheaf_by_kind"),
        ("gcn", "gcn_propagation_matrix"),
    ])
    def test_all_splits_share_one_build(
        self, dataset_dir, tmp_path, capsys, monkeypatch, kind, builder
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "patience": 0}))
        calls, original = [], getattr(sl.model, builder)
        monkeypatch.setattr(sl.model, builder, lambda *a: calls.append(a) or original(*a))
        code, records = run_cli(
            capsys, "train", "--dataset", dataset_dir, "--config", str(cfg),
            "--kind", kind, "--split", "all",
        )
        assert code == 0
        assert len(calls) == 1
        # each summary, timings aside, is what a standalone train() of that split gives
        ds = sl.load_dataset(dataset_dir)
        per_split = [r for r in records if r.get("summary") and "split" in r]
        assert len(per_split) == 10
        for index, record in enumerate(per_split):
            _, hist = train(ds, kind, TrainConfig(epochs=3, patience=0), index)
            expected = {
                "summary": True, "split": index, "kind": kind,
                **{k: hist[k] for k in ("best_epoch", "best_val_acc", "test_acc_at_best")},
                **hist["diagnostics"],
            }
            timings = ("sheaf_build_seconds", "mean_epoch_seconds")
            assert {k: v for k, v in record.items() if k not in timings} == expected

    def test_split_out_of_range(self, dataset_dir, capsys):
        code = main(["train", "--dataset", dataset_dir, "--split", "11"])
        assert code == 1
        assert "split out of range" in capsys.readouterr().err

    def test_identical_seeds_identical_summaries(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 4, "patience": 0}))
        results = []
        for _ in range(2):
            _, records = run_cli(
                capsys, "train", "--dataset", dataset_dir, "--config", str(cfg),
                "--kind", "connection", "--seed", "5",
            )
            summary = records[-1]
            results.append(
                (summary["best_epoch"], summary["best_val_acc"], summary["test_acc_at_best"])
            )
        assert results[0] == results[1]

    def test_unknown_config_key(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["train", "--dataset", dataset_dir, "--config", str(cfg)])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("d", "2"), ("lr", "0.1"), ("epochs", 2.5), ("tied_weights", 1), ("f", True)],
    )
    def test_config_value_of_wrong_type(self, dataset_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["train", "--dataset", dataset_dir, "--config", str(cfg)])
        assert code == 1
        assert f"config key {key} must be" in capsys.readouterr().err

    def test_integer_accepted_for_float_key(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 0, "epochs": 2, "patience": 0}))
        code, records = run_cli(capsys, "train", "--dataset", dataset_dir, "--config", str(cfg))
        assert code == 0
        assert records[-1]["summary"]

    def test_non_finite_loss_is_guard_error(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimiser": "sgd", "lr": 1e6, "epochs": 50}))
        code = main(["train", "--dataset", dataset_dir, "--config", str(cfg)])
        assert code == 3
        assert "training loss is" in capsys.readouterr().err

    def test_guard_stop_prints_finished_epochs(self, tmp_path, capsys):
        target = tmp_path / "sbm60"
        save_dataset(synth_sbm(60, 2, 0.2, 0.05, 2, 2.0, seed=0), target)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimiser": "sgd", "lr": 1e6}))
        code, records = run_cli(capsys, "train", "--dataset", str(target), "--config", str(cfg))
        # epoch 2's loss, 6.6e29 ln 2, is finite but above the magnitude bound
        assert code == 3
        assert [r["epoch"] for r in records] == [1]
        assert all(np.isfinite(r["train_loss"]) for r in records)

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_guard_stop_prints_one_line(self, tmp_path, capsys, command):
        # every warning an error: numpy's overflow warnings would escape main() here
        target = tmp_path / "sbm60"
        save_dataset(synth_sbm(60, 2, 0.2, 0.05, 2, 2.0, seed=0), target)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimiser": "sgd", "lr": 1e6}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--dataset", str(target), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical guard: ") and err.count("\n") == 1

    def test_unknown_kind(self, dataset_dir, capsys):
        code = main(["train", "--dataset", dataset_dir, "--kind", "resnet"])
        assert code == 1


@pytest.mark.parametrize("command, kind, padded", [
    ("train", "connection", 2), ("bench", "connection", 2), ("train", "gcn", 0),
])
def test_records_carry_build_diagnostics(dataset_dir, tmp_path, capsys, command, kind, padded):
    # the fixture's d = 2 connection build pads two under-degree neighbourhoods;
    # every kind but connection reports zeros
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "patience": 0}))
    code, records = run_cli(
        capsys, command, "--dataset", dataset_dir, "--config", str(cfg), "--kind", kind
    )
    assert code == 0
    expected = {"padded_nodes": padded, "rank_completed_bases": 0, "singular_alignments": 0}
    assert {k: records[-1][k] for k in expected} == expected


@pytest.mark.parametrize("command", ["build-sheaf", "spectrum"])
def test_d_and_seed_default_to_train_config(dataset_dir, tmp_path, capsys, command):
    outputs = []
    for flags in ([], ["--d", str(TrainConfig().d), "--seed", str(TrainConfig().seed)]):
        out = tmp_path / f"out{len(flags)}.csv"
        code, records = run_cli(
            capsys, command, "--dataset", dataset_dir, "--kind", "rand-edge", "--out", str(out),
            *flags,
        )
        assert code == 0 and records[-1]["d"] == TrainConfig().d
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_every_record_has_its_exact_keys(dataset_dir, tmp_path, capsys):
    """The key set of every record each command prints; no timing value is checked."""
    diagnostics = {"padded_nodes", "rank_completed_bases", "singular_alignments"}
    run = {"sheaf_build_seconds", "mean_epoch_seconds"} | diagnostics
    split_summary = {"summary", "split", "kind", "best_epoch", "best_val_acc", "test_acc_at_best"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "patience": 0}))
    data, config = ["--dataset", dataset_dir], ["--config", str(cfg)]
    cases = [
        (["build-sheaf", *data, "--out", str(tmp_path / "s.csv")],
         [{"command", "kind", "d", "n", "edges", "build_seconds", "out"} | diagnostics]),
        (["train", *data, *config],
         [set(EPOCH_KEYS)] * 3 + [split_summary | run]),
        (["train", *data, *config, "--kind", "gcn", "--split", "all"],
         [split_summary | run] * 10 + [{"summary", "splits", "kind", "mean_test_acc",
                                        "std_test_acc"}]),
        (["spectrum", *data, "--out", str(tmp_path / "e.csv")],
         [{"command", "kind", "d", "count", "min", "max", "out"}]),
        (["bench", *data, *config],
         [{"command", "kind", "n", "edges", "d", "epochs", "std_epoch_seconds"} | run]),
        (["synth", "--out", str(tmp_path / "synth"), "--n", "30"],
         [{"command", "n", "edges", "classes", "homophily", "out"}]),
    ]
    for argv, expected in cases:
        code, records = run_cli(capsys, *argv)
        assert code == 0
        assert [set(r) for r in records] == expected, argv[0]


class TestSpectrum:
    def test_trivial_path_graph(self, tmp_path, capsys):
        from sheaflab.data import Dataset, Split

        feats = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = sl.from_edge_list(2, [(0, 1)], feats, [0, 1])
        ds = Dataset(
            graph=g,
            splits=[Split(np.array([0]), np.array([1]), np.array([], dtype=int))],
            name="path",
        )
        save_dir = str(tmp_path / "path")
        save_dataset(ds, save_dir)
        out = str(tmp_path / "eigs.csv")
        code, records = run_cli(
            capsys, "spectrum", "--dataset", save_dir, "--d", "1",
            "--kind", "trivial", "--out", out,
        )
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "eigenvalue"
        vals = [float(x) for x in lines[1:]]
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_file_matches_repr_loop(self, dataset_dir, tmp_path, capsys, monkeypatch, chunk):
        if chunk is not None:  # several chunks, the last one partial
            monkeypatch.setattr(sl.data, "_CSV_CHUNK", chunk)
        out = tmp_path / "eigs.csv"
        code, _ = run_cli(capsys, "spectrum", "--dataset", dataset_dir, "--d", "2",
                          "--kind", "connection", "--out", str(out))
        assert code == 0
        g = sl.load_dataset(dataset_dir).graph
        lap, _, _ = sl.build_operator(g, "connection", TrainConfig(d=2, seed=0))
        expected = "eigenvalue\n" + "".join(f"{repr(float(v))}\n" for v in sl.spectrum(lap))
        assert out.read_bytes() == expected.encode()

    def test_values_in_range_all_kinds(self, dataset_dir, tmp_path, capsys):
        for kind in ("connection", "rand-edge"):
            out = str(tmp_path / f"{kind}.csv")
            code, _ = run_cli(
                capsys, "spectrum", "--dataset", dataset_dir, "--d", "2",
                "--kind", kind, "--out", out,
            )
            assert code == 0
            vals = [float(x) for x in Path(out).read_text().strip().splitlines()[1:]]
            assert min(vals) >= -1e-9
            assert max(vals) <= 2 + 1e-9


class TestBench:
    def test_record_schema(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 20}))
        code, records = run_cli(
            capsys, "bench", "--dataset", dataset_dir, "--config", str(cfg),
            "--kind", "connection",
        )
        assert code == 0
        rec = records[-1]
        assert rec["epochs"] >= 20
        for key in ("sheaf_build_seconds", "mean_epoch_seconds", "std_epoch_seconds"):
            assert key in rec

    @pytest.mark.parametrize("kind", ["connection", "rand-edge", "gcn", "mlp"])
    def test_trains_against_one_build(self, dataset_dir, tmp_path, capsys, monkeypatch, kind):
        import sheaflab.cli as cli

        ds = sl.load_dataset(dataset_dir)
        _, hist = train(ds, kind, TrainConfig(epochs=20, patience=0), 0)
        calls, original = [], cli.build_operator
        monkeypatch.setattr(cli, "build_operator", lambda *a: calls.append(a) or original(*a))

        def no_second_build(*args):
            raise AssertionError("train() built its own operator")

        monkeypatch.setattr(sl.model, "build_operator", no_second_build)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3}))  # raised to 20, patience forced to 0
        code, records = run_cli(
            capsys, "bench", "--dataset", dataset_dir, "--config", str(cfg), "--kind", kind
        )
        assert code == 0 and len(calls) == 1
        timings = ("sheaf_build_seconds", "mean_epoch_seconds", "std_epoch_seconds")
        assert {k: v for k, v in records[-1].items() if k not in timings} == {
            "command": "bench", "kind": kind, "n": ds.graph.n, "edges": ds.graph.num_edges,
            "d": 2, "epochs": len(hist["epoch"]), **hist["diagnostics"],
        }
        assert len(hist["epoch"]) == 20


class TestSynth:
    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_non_finite_separation_is_usage_error(self, tmp_path, capsys, separation):
        out = tmp_path / "generated"
        code = main(["synth", "--out", str(out), "--n", "30", "--separation", separation])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: separation must be finite and >= 0, got {separation}\n"
        assert not out.exists()

    def test_classes_of_three_are_usage_error(self, tmp_path, capsys):
        # two classes of 3 nodes: floor(0.32 * 3) = 0 val nodes, which no training run accepts
        out = tmp_path / "generated"
        code = main(["synth", "--out", str(out), "--n", "6", "--classes", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: no class has the 4 members a validation node needs\n"
        assert not out.exists()

    def test_generates_loadable_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "generated")
        code, records = run_cli(
            capsys, "synth", "--out", out, "--n", "60", "--classes", "3",
            "--p-in", "0.3", "--p-out", "0.05", "--feature-dim", "4",
            "--separation", "1.5", "--seed", "3",
        )
        assert code == 0
        ds = sl.load_dataset(out)
        assert ds.graph.n == 60
        assert len(ds.splits) == 10
        assert records[-1]["homophily"] > 0.5


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = main(
            ["build-sheaf", "--dataset", str(tmp_path / "nope"), "--d", "1",
             "--kind", "trivial", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("fname, edit", [
        ("nodes.csv", lambda text: text.splitlines()[0] + "\n"),
        ("edges.csv", lambda text: text + "0,1,2\n"),
    ], ids=["empty-nodes-body", "ragged-edges-row"])
    def test_malformed_dataset_exits_2_without_warnings(self, dataset_dir, tmp_path, fname, edit):
        # a fresh interpreter, so a warning would reach stderr instead of pytest's recorder
        path = Path(dataset_dir) / fname
        path.write_text(edit(path.read_text()))
        proc = fresh_python("-W", "default", "-m", "sheaflab.cli", "build-sheaf",
                            "--dataset", dataset_dir, "--out", str(tmp_path / "s.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("fname, edit", [
        ("splits.json", lambda raw: raw.replace(b'"train": [', b'"train": [[', 1)
         .replace(b'], "val"', b']], "val"', 1)),
        ("splits.json", lambda raw: raw.replace(b'"train": [', b'"train": [2.9, ', 1)),
        ("nodes.csv", lambda raw: raw[:-3] + b"\xff" + raw[-3:]),
        ("edges.csv", lambda raw: b"\xfe" + raw),
        ("splits.json", lambda raw: raw[:-2] + b"\xc3" + raw[-2:]),
    ], ids=["nested-split", "fractional-split-id", "non-utf8-nodes", "non-utf8-edges",
            "non-utf8-splits"])
    def test_bad_dataset_bytes_are_data_errors(self, dataset_dir, tmp_path, capsys, fname, edit):
        path = Path(dataset_dir) / fname
        path.write_bytes(edit(path.read_bytes()))
        code = main(["build-sheaf", "--dataset", dataset_dir, "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 2 and fname in err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    def test_non_finite_feature_is_data_error(self, dataset_dir, tmp_path, capsys):
        nodes = tmp_path / "sbm" / "nodes.csv"
        rows = nodes.read_text().splitlines()
        rows[1] = ",".join(["0", "nan"] + rows[1].split(",")[2:])
        nodes.write_text("\n".join(rows) + "\n")
        code = main(
            ["build-sheaf", "--dataset", dataset_dir, "--d", "2",
             "--kind", "connection", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "non-finite feature" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["build-sheaf", "--out", "{tmp}/missing_dir/x.csv"],
        ["spectrum", "--out", "{tmp}/missing_dir/e.csv"],
        ["train", "--config", "{tmp}"],
    ], ids=["build-sheaf-out", "spectrum-out", "train-config-directory"])
    def test_unusable_file_argument_is_usage_error(self, dataset_dir, tmp_path, capsys, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(argv[:1] + ["--dataset", dataset_dir] + argv[1:])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "2**128"])
    @pytest.mark.parametrize("argv", [
        ["build-sheaf", "--kind", "rand-edge", "--out", "{tmp}/s.csv"],
        ["train", "--kind", "rand-node"],
        # the kinds that draw nothing share the seed range too
        ["build-sheaf", "--kind", "connection", "--out", "{tmp}/s.csv"],
        ["build-sheaf", "--kind", "trivial", "--out", "{tmp}/s.csv"],
        ["spectrum", "--kind", "connection", "--out", "{tmp}/s.csv"],
        ["spectrum", "--kind", "trivial", "--out", "{tmp}/s.csv"],
        ["spectrum", "--kind", "rand-edge", "--out", "{tmp}/s.csv"],
    ], ids=[
        "build-sheaf-rand-edge", "train-rand-node", "build-sheaf-connection",
        "build-sheaf-trivial", "spectrum-connection", "spectrum-trivial", "spectrum-rand-edge",
    ])
    def test_seed_out_of_range_is_usage_error(self, dataset_dir, tmp_path, capsys, argv, seed):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(argv[:1] + ["--dataset", dataset_dir, f"--seed={seed}"] + argv[1:])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: seed must lie in [0, 2**128)") and err.count("\n") == 1
        assert out == "" and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("kind,seed", [
        ("connection", "-1"), ("mlp", str(2**130)), ("gcn", str(2**128)),
    ], ids=["connection-negative", "mlp-2**130", "gcn-2**128"])
    def test_train_seed_is_checked_before_any_build(
        self, dataset_dir, capsys, monkeypatch, kind, seed
    ):
        import sheaflab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "build_operator", lambda *a: calls.append(a))
        code = main(["train", "--dataset", dataset_dir, "--kind", kind, f"--seed={seed}"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: seed must lie in [0, 2**128)") and err.count("\n") == 1
        assert out == "" and calls == []

    @pytest.mark.parametrize("split", ["10", "99", "-1", "one"])
    def test_bad_split_is_rejected_before_any_build(
        self, dataset_dir, capsys, monkeypatch, split
    ):
        import sheaflab.cli as cli

        calls = []
        for module in (cli, sl.model):
            monkeypatch.setattr(module, "build_operator", lambda *a: calls.append(a))
        code = main(["train", "--dataset", dataset_dir, "--split", split])
        out, err = capsys.readouterr()
        assert code == 1 and calls == [] and out == ""
        assert err == f"error: split out of range: {split} (dataset has 10)\n"

    @pytest.mark.parametrize("index, argv", [
        (0, ["train"]), (3, ["train", "--split", "3"]), (3, ["train", "--split", "all"]),
        (0, ["bench", "--kind", "gcn"]),
    ], ids=["train", "train-split-3", "train-all", "bench"])
    def test_empty_split_part_is_rejected_before_any_build(
        self, dataset_dir, capsys, monkeypatch, index, argv
    ):
        import sheaflab.cli as cli

        path = Path(dataset_dir) / "splits.json"
        splits = json.loads(path.read_text())
        splits[index]["val"] += splits[index]["test"]  # the test list moves into val
        splits[index]["test"] = []
        path.write_text(json.dumps(splits))
        calls = []
        for module in (cli, sl.model):
            monkeypatch.setattr(module, "build_operator", lambda *a: calls.append(a))
        code = main([argv[0], "--dataset", dataset_dir, *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 2 and calls == [] and out == ""
        assert err == f"data error: split {index} has no test nodes\n"

    @staticmethod
    def _set_label(dataset_dir, label):
        """Node 4's label; the reader takes any non-negative one."""
        nodes = Path(dataset_dir) / "nodes.csv"
        rows = nodes.read_text().splitlines()
        rows[5] = ",".join(rows[5].split(",")[:-1] + [str(label)])
        nodes.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--kind", "connection"], ["train", "--kind", "gcn"],
        ["train", "--split", "all"], ["bench"],
    ], ids=["train-connection", "train-gcn", "train-all", "bench"])
    def test_label_not_below_node_count_is_rejected_before_any_build(
        self, dataset_dir, capsys, monkeypatch, argv
    ):
        import sheaflab.cli as cli

        self._set_label(dataset_dir, 10**12)  # a decoder of 10^12 classes cannot be made
        calls = []
        for module in (cli, sl.model):
            monkeypatch.setattr(module, "build_operator", lambda *a: calls.append(a))
        code = main([argv[0], "--dataset", dataset_dir, *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 2 and calls == [] and out == ""
        assert err == "data error: label 1000000000000 is not below the node count 40\n"

    @pytest.mark.parametrize("command", ["build-sheaf", "spectrum"])
    def test_huge_label_does_not_stop_commands_that_train_nothing(
        self, dataset_dir, tmp_path, capsys, command
    ):
        self._set_label(dataset_dir, 10**12)
        code, records = run_cli(capsys, command, "--dataset", dataset_dir, "--d", "2",
                                "--out", str(tmp_path / "out.csv"))
        assert code == 0 and records[-1]["command"] == command

    def test_largest_label_below_node_count_trains(self, dataset_dir, capsys):
        self._set_label(dataset_dir, 39)  # n - 1: 40 classes, most of them empty
        code, records = run_cli(capsys, "train", "--dataset", dataset_dir, "--kind", "mlp")
        assert code == 0 and records[-1]["summary"]

    def test_only_selected_splits_need_every_part(self, dataset_dir, capsys):
        path = Path(dataset_dir) / "splits.json"
        splits = json.loads(path.read_text())
        splits[3]["val"], splits[3]["test"] = splits[3]["val"] + splits[3]["test"], []
        path.write_text(json.dumps(splits))
        code, records = run_cli(capsys, "train", "--dataset", dataset_dir, "--split", "2",
                                "--kind", "mlp")
        assert code == 0 and records[-1]["split"] == 2

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_config_is_checked_before_the_dataset(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": "3"}')
        code = main([command, "--dataset", str(tmp_path / "missing"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1  # the usage error, not the missing dataset's exit 2
        assert err.startswith("error: config key epochs must be int") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_kind_is_checked_before_the_dataset(self, tmp_path, capsys, command):
        code = main([command, "--dataset", str(tmp_path / "missing"), "--kind", "bogus"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""  # the usage error, not the missing dataset's exit 2
        assert err.startswith("error: argument --kind: invalid choice: 'bogus'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build-sheaf", "spectrum"])
    @pytest.mark.parametrize(
        "out", ["{tmp}/missing_dir/x.csv", "{tmp}"], ids=["missing-dir", "directory"]
    )
    def test_unusable_out_is_rejected_before_any_build(
        self, dataset_dir, tmp_path, capsys, monkeypatch, command, out
    ):
        import sheaflab.cli as cli

        calls = []
        for name in ("build_sheaf_by_kind", "build_operator", "spectrum"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
        code = main([command, "--dataset", dataset_dir, "--out", out.format(tmp=tmp_path)])
        assert code == 1
        assert calls == []

    @pytest.mark.parametrize("command", ["build-sheaf", "spectrum"])
    @pytest.mark.parametrize("failure", ["data", "guard"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_leaves_no_partial_file(
        self, dataset_dir, tmp_path, capsys, command, failure, existing
    ):
        out = tmp_path / "out.csv"
        if existing:
            out.write_text("kept\n")
        d = "9" if failure == "guard" else "2"  # d > p = 3 is the numerical guard
        if failure == "data":
            nodes = tmp_path / "sbm" / "nodes.csv"
            rows = nodes.read_text().splitlines()
            rows[1] = ",".join(["0", "nan"] + rows[1].split(",")[2:])
            nodes.write_text("\n".join(rows) + "\n")
        code = main([command, "--dataset", dataset_dir, "--d", d, "--out", str(out)])
        assert code == {"data": 2, "guard": 3}[failure]
        if existing:
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--kind", "gcn", "--config", "{cfg}"],
        ["build-sheaf", "--kind", "trivial", "--d", "100000000", "--out", "{tmp}/sheaf.csv"],
        ["synth", "--n", "10000000000000000", "--out", "{tmp}/sbm-huge"],
    ], ids=["train-hidden", "build-sheaf-d", "synth-n"])
    def test_refused_allocation_is_a_size_guard(self, dataset_dir, tmp_path, capsys, argv):
        # every request is above 2^47 bytes (hidden: 3 x 10^15 doubles, d: a 10^8 x 10^8
        # identity, n: 10^16 labels), which any overcommit policy refuses untouched
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 1, "hidden": 1000000000000000}')
        if argv[0] != "synth":
            argv = [argv[0], "--dataset", dataset_dir, *argv[1:]]
        before = sorted(tmp_path.iterdir())
        code = main([arg.format(cfg=cfg, tmp=tmp_path) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("numerical guard: Unable to allocate") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("key", ["lr", "weight_decay"])
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_non_finite_rate_is_usage_error(
        self, dataset_dir, tmp_path, capsys, monkeypatch, command, key, value
    ):
        import sheaflab.cli as cli

        calls = []
        for module in (cli, sl.model):
            monkeypatch.setattr(module, "build_operator", lambda *a: calls.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))  # Python's json reads NaN, Infinity
        code = main([command, "--dataset", dataset_dir, "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert out == "" and calls == []

    def test_bad_flag_is_usage_error(self, capsys):
        code = main(["train", "--no-such-flag", "x"])
        assert code == 1

    def test_missing_subcommand_usage(self, capsys):
        assert main([]) == 1


_NO_MASKED_ARRAYS = """
import os, sys
from sheaflab.cli import main
from sheaflab.model import BASELINE_KINDS, SHEAF_KINDS

dataset, out, cfg = sys.argv[1:]
for kind in SHEAF_KINDS:
    assert main(["build-sheaf", "--dataset", dataset, "--kind", kind, "--out", out]) == 0
for kind in SHEAF_KINDS + BASELINE_KINDS:
    assert main(["train", "--dataset", dataset, "--kind", kind, "--config", cfg]) == 0
print("numpy.ma" in sys.modules, file=sys.stderr)
"""


def test_commands_do_not_import_numpy_ma(dataset_dir, tmp_path):
    # plain np.unique imports numpy.ma on numpy 2.4: milliseconds and a megabyte of
    # peak RSS that a fresh interpreter pays inside every timed build
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 1}')
    proc = fresh_python("-c", _NO_MASKED_ARRAYS, dataset_dir, str(tmp_path / "s.csv"), str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


def test_import_loads_numpy_random():
    # numpy loads numpy.random lazily, and sheaflab loads it at import on purpose: about
    # 10 ms that the benchmark pays before its clock starts. Loaded on first use instead,
    # it would move into the first timed rand-edge build and raise baselines-4k's setup_s
    # by about a third; making it lazy must be a deliberate change that edits this test
    proc = fresh_python("-c", "import sys, sheaflab; print('numpy.random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
