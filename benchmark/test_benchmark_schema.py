"""Schema of BENCHMARK.json and of the benchmark's own records. No timing values are checked."""

import json
import os
import re

import pytest

import datagen
import run
import spec
import worker
from sheaflab.data import save_dataset
from spans import TraceError, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E_NAMES = [m[0] for m in spec.END_TO_END]
LAYER_NAMES = [m[0] for m in spec.PER_LAYER]
REP_KEYS = {
    "mode", "ops", "failed", "errors", "setup_s", "run_s", "peak_rss_mb", "stages_s",
    "sheaf_sha256", "diagnostics", "test_acc",
}


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_spec(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "benchmark/run.py"]
    assert bench["paths"] == ["benchmark"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == [m[:3] for m in spec.PER_LAYER]


def test_benchmark_json_limits(bench):
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in bench["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Every step and model kind on a small graph, with records from all three modes."""
    root = tmp_path_factory.mktemp("tiny")
    data = str(root / "data")
    n = 80
    save_dataset(datagen.sbm_dataset(n, 0), data)
    w = spec.Workload("tiny", n, "connection", True, spec.TRAIN_KINDS, 2, "schema test")
    tracer = Tracer("tiny")
    records = [worker.run(w, data, str(root / "out"), 0, "plain")]
    tracer.install(worker.PATCHES)
    try:
        records.append(worker.run(w, data, str(root / "out"), 0, "spans", tracer))
    finally:
        tracer.uninstall()
    records.append(worker.run(w, data, str(root / "out"), 0, "mem"))
    return w, records, tracer


def test_rep_records(tiny):
    w, records, _ = tiny
    for r in records:
        assert REP_KEYS <= set(r)
        assert r["ops"] == len(w.steps()) == 10
        assert 0 <= r["failed"] <= r["ops"]
        assert list(r["stages_s"]) == w.steps()
        assert re.fullmatch(r"[0-9a-f]{64}", r["sheaf_sha256"])
        assert set(r["test_acc"]) == set(spec.TRAIN_KINDS)
    # the sheaf and its build diagnostics do not depend on how the run is observed
    assert len({(r["sheaf_sha256"], json.dumps(r["diagnostics"])) for r in records}) == 1


def test_layer_records_cover_per_layer_metrics(tiny):
    _, records, _ = tiny
    plain, spans, mem = records
    assert "layers" not in plain
    assert set(spans["layers"]) | set(mem["layers"]) | {"trace.overhead"} == set(LAYER_NAMES)
    assert not set(spans["layers"]) & set(mem["layers"])


def test_trace_records_every_expected_span(tiny):
    w, _, tracer = tiny
    names = {s["name"] for s in tracer.spans}
    assert worker.expected_spans(w) <= names
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    assert {s["name"] for s in tracer.spans if s["parent"] is None} == {f"step.{s}" for s in w.steps()}


def test_tracer_restores_module_attributes(tiny):
    import sheaflab.model

    assert not hasattr(sheaflab.model.apply, "__wrapped__")
    assert not hasattr(sheaflab.model.train, "__wrapped__")


def test_missing_traced_name_is_named():
    import sheaflab.data
    import sheaflab.model

    original = sheaflab.model.apply
    patches = worker.PATCHES[:1] + (("sheaflab.model", "no_such_fn", "x", {}, None),)
    with pytest.raises(TraceError, match="sheaflab.model.no_such_fn"):
        Tracer("t").install(patches)
    assert sheaflab.model.apply is original
    assert not hasattr(sheaflab.data.load_dataset, "__wrapped__")


def test_result_objects(tiny):
    _, records, _ = tiny
    for trace, names in ((False, E2E_NAMES), (True, LAYER_NAMES)):
        result = run.summarise(records, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] == sum(r["ops"] for r in records) >= 1
        assert result["correct"] == (result["failed"] == 0)
        assert list(result["metrics"]) == names
        units = dict((m[0], m[1]) for m in spec.END_TO_END + spec.PER_LAYER)
        for name, v in result["metrics"].items():
            assert set(v) == {"value", "unit"} and v["unit"] == units[name]
            assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
        json.loads(json.dumps(result, allow_nan=False))
    assert run.summarise(records, False, extra_failures=1)["correct"] is False


def test_determinism_compares_repetitions_of_one_invocation(tiny):
    w, records, _ = tiny
    assert run.determinism_failures(w, records) == []
    changed = dict(records[0], diagnostics=dict(records[0]["diagnostics"], padded_nodes=-1))
    assert len(run.determinism_failures(w, [*records, changed])) == 1
