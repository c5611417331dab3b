"""Mutation fuzz of the two input readers: bad bytes end in a DataError, never a traceback.

The tests set no example budget of their own: Hypothesis' default runs in the
unit suite, and `pytest --hypothesis-profile=ci tests/test_fuzz.py` runs more.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sheaflab as sl
from sheaflab.cli import main
from sheaflab.data import save_dataset, synth_sbm
from sheaflab.errors import DataError
from sheaflab.model import build_sheaf_by_kind

FUZZ = settings(deadline=None)  # a build-sheaf run may pass 200 ms on a slow runner

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["train", "val", "test", "x"]), inner, max_size=4),
    max_leaves=8,
)


@functools.lru_cache(maxsize=None)
def dataset_files() -> dict:
    """The bytes of a saved 12-node SBM, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp)
        return {path.name: path.read_bytes() for path in Path(tmp).iterdir()}


@functools.lru_cache(maxsize=None)
def sheaf_files() -> tuple:
    """Sheaf CSVs of every kind, built on the 12-node SBM at d = 1 and 2."""
    with tempfile.TemporaryDirectory() as tmp:
        g = synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0).graph
        files = []
        for kind in ("connection", "trivial", "rand-edge", "rand-node"):
            for d in (1, 2):
                path = os.path.join(tmp, "sheaf.csv")
                sl.write_sheaf_csv(build_sheaf_by_kind(g, kind, d, seed=1), path)
                files.append(Path(path).read_bytes())
        return tuple(files)


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """raw after one to three byte or line edits: flip, truncate, insert, duplicate, split."""
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["flip", "truncate", "insert", "duplicate", "split"]))
        at = draw(st.integers(0, max(len(raw) - 1, 0)))
        if edit == "flip" and raw:
            raw = raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
        elif edit == "truncate":
            raw = raw[:at]
        elif edit == "insert":
            raw = raw[:at] + draw(st.binary(min_size=1, max_size=6)) + raw[at:]
        else:
            lines = raw.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            cut = draw(st.integers(0, len(lines[k])))
            lines[k:k + 1] = (
                [lines[k]] * 2 if edit == "duplicate" else [lines[k][:cut], lines[k][cut:]]
            )
            raw = b"\n".join(lines)
    return raw


@st.composite
def mutated_splits(draw, raw: bytes) -> bytes:
    """splits.json with wrong-type or nested JSON in place of the payload or of one part."""
    payload = json.loads(raw)
    where = draw(st.sampled_from(["payload", "entry", "part"]))
    if where == "payload":
        payload = draw(JSON_VALUES)
    else:
        k = draw(st.integers(0, len(payload) - 1))
        if where == "entry":
            payload[k] = draw(JSON_VALUES)
        else:
            payload[k][draw(st.sampled_from(["train", "val", "test"]))] = draw(JSON_VALUES)
    return json.dumps(payload).encode()


@st.composite
def mutated_dataset(draw) -> dict:
    files = dict(dataset_files())
    fname = draw(st.sampled_from(sorted(files)))
    json_edit = fname == "splits.json" and draw(st.booleans())
    files[fname] = draw((mutated_splits if json_edit else mutated)(files[fname]))
    return files


@FUZZ
@given(mutated_dataset())
def test_build_sheaf_on_mutated_dataset_exits_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(raw)
        out, stdout, stderr = os.path.join(tmp, "sheaf.csv"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["build-sheaf", "--dataset", tmp, "--out", out])
        errors = stderr.getvalue().splitlines()
        if code == 0:
            assert errors == [] and os.path.exists(out)
        else:
            assert (code, errors[0].split(":")[0]) in {(2, "data error"), (3, "numerical guard")}
            assert len(errors) == 1 and stdout.getvalue() == "" and not os.path.exists(out)


@FUZZ
@given(st.data())
def test_read_mutated_sheaf_csv_gives_sheaf_or_data_error(data):
    raw = data.draw(mutated(data.draw(st.sampled_from(sheaf_files()))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sheaf.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            s = sl.read_sheaf_csv(path)
        except DataError:
            return
    assert s.edges.shape == (s.num_edges, 2) and s.transports.shape == (s.num_edges, s.d, s.d)
    assert np.isfinite(s.transports).all()
