import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import sheaflab as sl
from sheaflab.data import Split, generate_splits, load_dataset, save_dataset, synth_sbm
from sheaflab.errors import DataError
from oracles import all_pairs_synth_sbm, loop_load_dataset, loop_save_dataset


def toy_dataset():
    feats = np.array([[0.5, 1.0], [2.0, -1.0], [0.25, 3.0]])
    g = sl.from_edge_list(3, [(0, 1), (1, 2)], feats, [0, 1, 1])
    split = Split(train=np.array([0]), val=np.array([1]), test=np.array([2]))
    return sl.Dataset(graph=g, splits=[split], name="toy")


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        ds = toy_dataset()
        target = tmp_path / "toy"
        save_dataset(ds, target)
        loaded = load_dataset(target)
        assert loaded.name == "toy"
        assert loaded.graph.n == 3
        assert_array_equal(loaded.graph.edges, ds.graph.edges)
        assert np.array_equal(loaded.graph.features, ds.graph.features)
        assert_array_equal(loaded.graph.labels, ds.graph.labels)
        assert len(loaded.splits) == 1
        for name in ("train", "val", "test"):
            assert_array_equal(getattr(loaded.splits[0], name), getattr(ds.splits[0], name))

    def test_sbm_round_trip_identical(self, tmp_path):
        ds = synth_sbm(40, 2, 0.3, 0.05, 3, 1.5, seed=7)
        save_dataset(ds, tmp_path / "sbm")
        loaded = load_dataset(tmp_path / "sbm")
        assert np.array_equal(loaded.graph.features, ds.graph.features)
        assert_array_equal(loaded.graph.edges, ds.graph.edges)
        for a, b in zip(loaded.splits, ds.splits):
            assert_array_equal(a.train, b.train)
            assert_array_equal(a.val, b.val)
            assert_array_equal(a.test, b.test)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            load_dataset(tmp_path)

    def test_split_overlap(self, tmp_path):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        payload = [{"train": [0, 1], "val": [1], "test": [2]}]
        (tmp_path / "bad" / "splits.json").write_text(json.dumps(payload))
        with pytest.raises(DataError, match="split overlap"):
            load_dataset(tmp_path / "bad")

    def test_split_not_covering(self, tmp_path):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        payload = [{"train": [0], "val": [1], "test": []}]
        (tmp_path / "bad" / "splits.json").write_text(json.dumps(payload))
        with pytest.raises(DataError, match="cover"):
            load_dataset(tmp_path / "bad")

    def test_non_integer_split_entry(self, tmp_path):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        payload = [{"train": ["zero"], "val": [1], "test": [2]}]
        (tmp_path / "bad" / "splits.json").write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed splits.json entry"):
            load_dataset(tmp_path / "bad")

    def test_non_contiguous_ids(self, tmp_path):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        nodes = (tmp_path / "bad" / "nodes.csv").read_text().splitlines()
        nodes[1] = nodes[1].replace("0,", "9,", 1)
        (tmp_path / "bad" / "nodes.csv").write_text("\n".join(nodes) + "\n")
        with pytest.raises(DataError, match="contiguous"):
            load_dataset(tmp_path / "bad")

    def test_malformed_row(self, tmp_path):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        with open(tmp_path / "bad" / "nodes.csv", "a") as fh:
            fh.write("3,not-a-number,0.0,1\n")
        with pytest.raises(DataError, match="malformed"):
            load_dataset(tmp_path / "bad")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature(self, tmp_path, value):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        nodes = (tmp_path / "bad" / "nodes.csv").read_text().splitlines()
        nodes[2] = f"1,{value},-1.0,1"
        (tmp_path / "bad" / "nodes.csv").write_text("\n".join(nodes) + "\n")
        with pytest.raises(DataError, match="^nodes.csv line 3: non-finite feature$"):
            load_dataset(tmp_path / "bad")

    def test_malformed_header(self, tmp_path):
        ds = toy_dataset()
        save_dataset(ds, tmp_path / "bad")
        nodes = (tmp_path / "bad" / "nodes.csv").read_text().splitlines()
        nodes[0] = "id,x,y,label"
        (tmp_path / "bad" / "nodes.csv").write_text("\n".join(nodes) + "\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(tmp_path / "bad")


class TestGenerateSplits:
    def test_ten_splits_floor_rule_small(self):
        labels = np.zeros(10, dtype=int)
        splits = generate_splits(labels, seed=0)
        assert len(splits) == 10
        for s in splits:
            assert (s.train.size, s.val.size, s.test.size) == (4, 3, 3)

    def test_percentages_class_of_100(self):
        labels = np.zeros(100, dtype=int)
        for s in generate_splits(labels, seed=1):
            assert (s.train.size, s.val.size, s.test.size) == (48, 32, 20)

    def test_per_class_counts(self):
        labels = np.array([0] * 25 + [1] * 14 + [2] * 7)
        for s in generate_splits(labels, seed=2):
            for c, n_c in ((0, 25), (1, 14), (2, 7)):
                members = np.flatnonzero(labels == c)
                tr = np.intersect1d(s.train, members).size
                va = np.intersect1d(s.val, members).size
                te = np.intersect1d(s.test, members).size
                assert tr == int(0.48 * n_c)
                assert va == int(0.32 * n_c)
                assert te == n_c - tr - va

    def test_partition_property(self):
        labels = np.array([0] * 11 + [1] * 9)
        for s in generate_splits(labels, seed=3):
            combined = np.concatenate([s.train, s.val, s.test])
            assert_array_equal(np.sort(combined), np.arange(20))

    def test_seeds_differ_shuffles(self):
        labels = np.array([0] * 30 + [1] * 30)
        a = generate_splits(labels, seed=4)
        b = generate_splits(labels, seed=5)
        assert any(not np.array_equal(x.train, y.train) for x, y in zip(a, b))

    def test_class_too_small(self):
        with pytest.raises(ValueError, match="class too small"):
            generate_splits(np.array([0, 0, 0, 1, 1]), seed=0)

    def test_some_class_needs_a_val_node(self):
        # floor(0.32 * 3) = 0: classes of 3 alone leave every val part empty
        for labels in ([0, 0, 0], [0, 0, 0, 1, 1, 1], [2, 1, 0] * 3):
            with pytest.raises(ValueError, match="no class has the 4 members"):
                generate_splits(np.array(labels), seed=0)
        with pytest.raises(ValueError, match="no class has the 4 members"):
            generate_splits(np.zeros(0, dtype=np.int64), seed=0)

    @pytest.mark.parametrize("sizes", [(4,), (3, 4), (3, 3, 3, 4), (5, 3), (3, 3, 7)])
    def test_no_part_is_empty(self, sizes):
        labels = np.repeat(np.arange(len(sizes)), sizes)
        for s in generate_splits(labels, seed=6):
            assert min(s.train.size, s.val.size, s.test.size) >= 1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_partition_random_labels(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=30)
        while any(np.sum(labels == c) < 3 for c in range(3)):
            labels = rng.integers(0, 3, size=30)
        for s in generate_splits(labels, seed=seed):
            combined = np.concatenate([s.train, s.val, s.test])
            assert np.unique(combined).size == 30


class TestSynthSbm:
    def test_pure_within_class_homophily_one(self):
        ds = synth_sbm(40, 2, 0.5, 0.0, 2, 1.0, seed=0)
        assert sl.homophily(ds.graph) == 1.0

    def test_pure_cross_class_homophily_zero(self):
        ds = synth_sbm(40, 2, 0.0, 0.5, 2, 1.0, seed=1)
        assert sl.homophily(ds.graph) == 0.0

    def test_equal_probs_half_homophily(self):
        ds = synth_sbm(300, 2, 0.1, 0.1, 2, 1.0, seed=2)
        h = sl.homophily(ds.graph)
        m = ds.graph.num_edges
        se = np.sqrt(0.25 / m)  # binomial concentration around 1/2
        assert abs(h - 0.5) < 3 * se

    def test_bit_reproducible(self):
        a = synth_sbm(50, 3, 0.2, 0.05, 4, 2.0, seed=9)
        b = synth_sbm(50, 3, 0.2, 0.05, 4, 2.0, seed=9)
        assert np.array_equal(a.graph.features, b.graph.features)
        assert_array_equal(a.graph.edges, b.graph.edges)
        for x, y in zip(a.splits, b.splits):
            assert_array_equal(x.train, y.train)

    def test_mean_separation(self):
        ds = synth_sbm(4000, 2, 0.0, 0.0, 2, 3.0, seed=3)
        mu0 = ds.graph.features[ds.graph.labels == 0].mean(axis=0)
        mu1 = ds.graph.features[ds.graph.labels == 1].mean(axis=0)
        assert np.linalg.norm(mu0 - mu1) == pytest.approx(3.0, abs=0.15)

    def test_degenerate_parameters(self):
        with pytest.raises(ValueError, match="probabilities"):
            synth_sbm(10, 2, 1.5, 0.0, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            synth_sbm(10, 2, 0.5, 0.1, 1, 1.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            synth_sbm(1, 2, 0.5, 0.1, 2, 1.0, seed=0)

    def test_expected_homophily_formula(self):
        ds = synth_sbm(400, 4, 0.12, 0.02, 4, 1.0, seed=4)
        h = sl.homophily(ds.graph)
        expected = 0.12 / (0.12 + 3 * 0.02)
        se = np.sqrt(expected * (1 - expected) / ds.graph.num_edges)
        assert abs(h - expected) < 4 * se


@pytest.mark.parametrize(
    "n, classes, p_in, p_out, seed",
    [
        (10, 3, 0.2, 0.05, 0), (37, 3, 0.2, 0.05, 1), (101, 3, 0.2, 0.05, 2),
        (101, 3, 0.2, 0.05, 3), (300, 3, 0.2, 0.05, 4), (800, 3, 0.2, 0.05, 5),
        (4, 1, 0.5, 0.5, 6),      # one class: every pair draws p_in
        (61, 5, 0.3, 0.05, 7),    # 61 = 5 * 12 + 1: unequal blocks
        (40, 2, 0.0, 0.0, 8),     # no edge, yet every pair still takes its draw
        (45, 3, 1.0, 0.0, 9),     # three cliques
    ],
)
def test_sbm_files_match_all_pairs_oracle(tmp_path, n, classes, p_in, p_out, seed):
    args = (n, classes, p_in, p_out, max(4, classes), 2.0, seed)
    save_dataset(synth_sbm(*args), tmp_path / "new")
    save_dataset(all_pairs_synth_sbm(*args), tmp_path / "old")
    for name in ("nodes.csv", "edges.csv", "splits.json"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_sbm_peak_memory_stays_small():
    tracemalloc.start()
    try:
        synth_sbm(4000, 2, 14.4 / 4000, 3.6 / 4000, 4, 2.0, seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def assert_same_dataset(a, b):
    assert a.name == b.name and a.graph.n == b.graph.n
    for attr in ("edges", "features", "labels", "degrees"):
        x, y = getattr(a.graph, attr), getattr(b.graph, attr)
        assert x.dtype == y.dtype
        assert_array_equal(x, y)
    assert len(a.splits) == len(b.splits)
    for sa, sb in zip(a.splits, b.splits):
        for part in ("train", "val", "test"):
            x, y = getattr(sa, part), getattr(sb, part)
            assert x.dtype == y.dtype
            assert_array_equal(x, y)


def edit_csv(path, edit, end="\r\n"):
    """Rewrite a saved CSV file: edit(lines) gives the new lines, each ended by `end`."""
    lines = path.read_text().splitlines()
    path.write_bytes("".join(line + end for line in edit(lines)).encode())


def shuffled_body(lines, seed=0):
    body = lines[1:]
    np.random.default_rng(seed).shuffle(body)
    return lines[:1] + body


def messy_edges(lines):
    """Each edge again reversed, the first few repeated, a self-loop per node in 0..2."""
    body = lines[1:]
    reversed_rows = [",".join(row.split(",")[::-1]) for row in body]
    loops = [f"{i},{i}" for i in range(3)]
    return shuffled_body(lines[:1] + body + reversed_rows + body[:4] + loops, seed=1)


# each case rewrites (nodes.csv, edges.csv) of a saved dataset; None keeps a file
LOADER_CASES = {
    "as-saved": (None, None),
    "lf-endings": (lambda ls: ls, lambda ls: ls),
    "shuffled-node-rows": (shuffled_body, None),
    "blank-lines": (
        lambda ls: [x for line in ls for x in (line, "")],
        lambda ls: ls[:1] + ["", ""] + [x for line in ls[1:] for x in (line, "")],
    ),
    "empty-edges-body": (None, lambda ls: ls[:1]),
    "messy-edges": (None, messy_edges),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
@pytest.mark.parametrize("n, seed", [(12, 0), (60, 1), (150, 2)])
def test_loader_matches_loop_oracle(tmp_path, case, n, seed):
    save_dataset(synth_sbm(n, 3, 0.3, 0.05, 4, 2.0, seed=seed), tmp_path / "sbm")
    for fname, edit in zip(("nodes.csv", "edges.csv"), LOADER_CASES[case]):
        if edit is not None:
            edit_csv(tmp_path / "sbm" / fname, edit, end="\n" if case == "lf-endings" else "\r\n")
    loaded = load_dataset(tmp_path / "sbm")
    assert_same_dataset(loaded, loop_load_dataset(tmp_path / "sbm"))
    if case != "empty-edges-body":
        assert loaded.graph.num_edges > 0


def set_field(row, k, value):
    fields = row.split(",")
    fields[k] = value
    return ",".join(fields)


# (file, edit of its lines, message both loaders raise); row 1 is node 0, row 2 node 1
MALFORMED = {
    "ragged-node-row": ("nodes.csv", lambda ls: [*ls[:2], ls[2].rsplit(",", 1)[0], *ls[3:]],
                        "malformed nodes.csv row"),
    "ragged-edge-row": ("edges.csv", lambda ls: ls + ["0,1,2"], "malformed edges.csv row"),
    "unparsable-float": ("nodes.csv", lambda ls: [*ls[:2], set_field(ls[2], 1, "1.5x"), *ls[3:]],
                         "malformed nodes.csv row"),
    "float-id": ("nodes.csv", lambda ls: [*ls[:2], set_field(ls[2], 0, "1.0"), *ls[3:]],
                 "malformed nodes.csv row"),
    "float-label": ("nodes.csv", lambda ls: [*ls[:2], set_field(ls[2], -1, "1.0"), *ls[3:]],
                    "malformed nodes.csv row"),
    "float-endpoint": ("edges.csv", lambda ls: ls + ["0,1.0"], "malformed edges.csv row"),
    "whitespace-line": ("nodes.csv", lambda ls: ls + ["   "], "malformed nodes.csv row"),
    "comment-line": ("edges.csv", lambda ls: ls + ["# 0,1"], "malformed edges.csv row"),
    "duplicate-id": ("nodes.csv", lambda ls: [*ls[:2], set_field(ls[2], 0, "0"), *ls[3:]],
                     "contiguous"),
    "out-of-range-endpoint": ("edges.csv", lambda ls: ls + ["0,12"], "edge endpoint out of range"),
    "negative-endpoint": ("edges.csv", lambda ls: ls + ["-1,0"], "edge endpoint out of range"),
    "empty-nodes-body": ("nodes.csv", lambda ls: ls[:1], "nodes.csv has no rows"),
    "blank-nodes-body": ("nodes.csv", lambda ls: ls[:1] + ["", ""], "nodes.csv has no rows"),
    "negative-label": ("nodes.csv", lambda ls: [*ls[:2], set_field(ls[2], -1, "-1"), *ls[3:]],
                       "label out of class range"),
}


# (file, edit of its lines, the exact message) for the checks made after parsing; line k + 2
# of nodes.csv is node k, and edit_csv writes CRLF line ends
CHECKED_ROWS = {
    "endpoint-out-of-range": ("edges.csv", lambda ls: [*ls[:3], "0,12", *ls[3:]],
                              "edges.csv line 4: edge endpoint out of range"),
    "negative-endpoint": ("edges.csv", lambda ls: [ls[0], "", "", "-1,0", *ls[1:]],
                          "edges.csv line 4: edge endpoint out of range"),
    "non-finite-feature": ("nodes.csv", lambda ls: [*ls[:5], set_field(ls[5], 2, "-inf"), *ls[6:]],
                           "nodes.csv line 6: non-finite feature"),
    "negative-label": ("nodes.csv", lambda ls: [*ls[:7], set_field(ls[7], -1, "-2"), *ls[8:]],
                       "nodes.csv line 8: label out of class range"),
    # the second occurrence is named, whichever row was edited
    "repeated-id": ("nodes.csv", lambda ls: [*ls[:9], set_field(ls[9], 0, "3"), *ls[10:]],
                    "nodes.csv line 10: repeated node id (ids must be contiguous 0..n-1)"),
    "repeated-id-first": ("nodes.csv", lambda ls: [*ls[:2], set_field(ls[2], 0, "8"), *ls[3:]],
                          "nodes.csv line 10: repeated node id (ids must be contiguous 0..n-1)"),
    "gap-in-ids": ("nodes.csv", lambda ls: [*ls[:5], set_field(ls[5], 0, "12"), *ls[6:]],
                   "nodes.csv: node id 4 is missing (ids must be contiguous 0..n-1)"),
    "two-gaps": ("nodes.csv", lambda ls: [*ls[:5], set_field(ls[5], 0, "12"), *ls[6:8],
                                          set_field(ls[8], 0, "13"), *ls[9:]],
                 "nodes.csv: node id 4 is missing (ids must be contiguous 0..n-1)"),
    "negative-id": ("nodes.csv", lambda ls: [ls[0], set_field(ls[1], 0, "-1"), *ls[2:]],
                    "nodes.csv: node id 0 is missing (ids must be contiguous 0..n-1)"),
}


@pytest.mark.parametrize("case", sorted(CHECKED_ROWS))
def test_check_after_parsing_names_its_line(tmp_path, case):
    fname, edit, message = CHECKED_ROWS[case]
    save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp_path / "bad")
    edit_csv(tmp_path / "bad" / fname, edit)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_dataset(tmp_path / "bad")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_rejected_by_both_loaders(tmp_path, case):
    fname, edit, message = MALFORMED[case]
    save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp_path / "bad")
    edit_csv(tmp_path / "bad" / fname, edit)
    for loader in (load_dataset, loop_load_dataset):
        with pytest.raises(DataError, match=message):
            loader(tmp_path / "bad")


@pytest.mark.parametrize("fname", ["nodes.csv", "edges.csv"])
@pytest.mark.parametrize("bad", ["field", "count"])
def test_malformed_row_names_its_line(tmp_path, fname, bad):
    save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp_path / "bad")

    def edit(ls):  # two empty lines, which loadtxt skips, then the body with its fourth row broken
        body = ls[1:]
        body[3] = set_field(body[3], 0, "x") if bad == "field" else body[3] + ",0"
        return [ls[0], "", "", *body]

    edit_csv(tmp_path / "bad" / fname, edit)
    fields = 6 if fname == "nodes.csv" else 2
    reason = {
        "field": r"could not convert string 'x' to int64 in column 1\.$",
        "count": f"the dtype passed requires {fields} columns but {fields + 1} were found$",
    }[bad]
    with pytest.raises(DataError, match=f"^malformed {fname} row at line 7: {reason}"):
        load_dataset(tmp_path / "bad")


@pytest.mark.parametrize("sep", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_unicode_line_breaks_stay_inside_their_line(tmp_path, sep):
    # str.splitlines() breaks a line at each of these; the reader splits at LF only
    save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp_path / "bad")
    edit_csv(tmp_path / "bad" / "edges.csv", lambda ls: [*ls[:2], ls[2] + sep + ls[3], *ls[4:]])
    reason = "the dtype passed requires 2 columns but 3 were found"
    with pytest.raises(DataError, match=f"^malformed edges.csv row at line 3: {reason}$"):
        load_dataset(tmp_path / "bad")


def test_quoted_fields_are_rejected(tmp_path):
    # the csv module strips the quotes; the loader reads plain numerals only
    save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp_path / "q")
    plain = load_dataset(tmp_path / "q")
    edit_csv(tmp_path / "q" / "nodes.csv",
             lambda ls: ls[:1] + [",".join(f'"{x}"' for x in line.split(",")) for line in ls[1:]])
    assert_same_dataset(loop_load_dataset(tmp_path / "q"), plain)
    with pytest.raises(DataError, match="malformed nodes.csv row"):
        load_dataset(tmp_path / "q")


def test_digit_separators_are_rejected(tmp_path):
    # Python's int() reads "1_0" as 10; the loader reads plain numerals only
    save_dataset(synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0), tmp_path / "u")
    plain = load_dataset(tmp_path / "u")
    edit_csv(tmp_path / "u" / "nodes.csv",
             lambda ls: [*ls[:11], set_field(ls[11], 0, "1_0"), *ls[12:]])
    assert_same_dataset(loop_load_dataset(tmp_path / "u"), plain)
    with pytest.raises(DataError, match="malformed nodes.csv row"):
        load_dataset(tmp_path / "u")


SPLIT_PAYLOADS = {
    "nested-list": {"train": [[0, 1, 2, 3]]},
    "fractional-ids": {"train": [2.9, 3.9]},
    "integral-float-id": {"train": [0, 1.0]},
    "bool-id": {"train": [0, True]},
    "scalar-part": {"train": 5},
    "string-id": {"train": ["0"]},
    "id-beyond-int64": {"train": [2**63]},
}


@pytest.mark.parametrize("case", sorted(SPLIT_PAYLOADS))
def test_split_ids_must_be_json_integers(tmp_path, case):
    # a deliberate tightening: np.int64 would truncate 2.9 to 2 and cast True to 1
    ds = synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0)
    save_dataset(ds, tmp_path / "bad")
    split = ds.splits[0]
    payload = {k: getattr(split, k).tolist() for k in ("train", "val", "test")}
    payload.update(SPLIT_PAYLOADS[case])
    (tmp_path / "bad" / "splits.json").write_text(json.dumps([payload]))
    with pytest.raises(DataError, match="splits.json"):
        load_dataset(tmp_path / "bad")


@pytest.mark.parametrize("fname", ["nodes.csv", "edges.csv", "splits.json"])
@pytest.mark.parametrize("where", ["first-line", "last-line"])
def test_non_utf8_byte_is_data_error_naming_the_file(tmp_path, fname, where):
    save_dataset(synth_sbm(400, 3, 0.05, 0.01, 4, 2.0, seed=0), tmp_path / "bad")
    path = tmp_path / "bad" / fname
    raw = path.read_bytes()
    # after the first byte, or inside the last line: past the first read buffer of a long file
    cut = 1 if where == "first-line" else len(raw) - 3
    assert where == "first-line" or cut > 8192 or fname == "splits.json"
    path.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    with pytest.raises(DataError, match=f"{fname} is not UTF-8 text"):
        load_dataset(tmp_path / "bad")


def edge_value_dataset():
    """Features at repr's edge cases and labels far above n, the largest 10**12."""
    feats = np.array([[-0.0, 5e-324], [1e-17, -2.2250738585072014e-308], [1e16, 1e-05]])
    g = sl.from_edge_list(3, [(0, 2)], feats, [0, 7, 10**12])
    return sl.Dataset(graph=g, splits=[Split(*map(np.array, ([0], [1], [2])))], name="x")


SAVE_CASES = {
    "sbm-12": lambda: synth_sbm(12, 3, 0.3, 0.05, 4, 2.0, seed=0),
    "sbm-60": lambda: synth_sbm(60, 2, 0.2, 0.05, 3, 1.5, seed=1),
    "sbm-300": lambda: synth_sbm(300, 4, 0.05, 0.01, 8, 2.0, seed=2),
    "no-edges": lambda: synth_sbm(30, 3, 0.0, 0.0, 4, 2.0, seed=3),
    "one-node": lambda: sl.Dataset(
        graph=sl.from_edge_list(1, [], [[0.5, -1.25]], [0]),
        splits=[Split(np.array([0]), np.array([], int), np.array([], int))], name="x",
    ),
    "edge-values": edge_value_dataset,
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("case", sorted(SAVE_CASES))
def test_save_matches_csv_module_oracle_with_lf(tmp_path, monkeypatch, case, chunk):
    # the one deliberate difference: LF line ends where the csv module writes CRLF
    if chunk is not None:  # several chunks per file, the last one partial
        monkeypatch.setattr(sl.data, "_CSV_CHUNK", chunk)
    ds = SAVE_CASES[case]()
    new, old = tmp_path / "new" / "x", tmp_path / "old" / "x"
    save_dataset(ds, new)
    loop_save_dataset(ds, old)
    for name in ("nodes.csv", "edges.csv", "splits.json"):
        assert (new / name).read_bytes() == (old / name).read_bytes().replace(b"\r\n", b"\n")
    loaded = load_dataset(new)
    assert_same_dataset(loaded, load_dataset(old))
    assert loaded.graph.features.tobytes() == ds.graph.features.tobytes()
    assert_array_equal(loaded.graph.labels, ds.graph.labels)


def test_save_without_labels_writes_nothing(tmp_path):
    g = sl.from_edge_list(3, [(0, 1)], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="no labels"):
        save_dataset(sl.Dataset(graph=g, splits=[], name="x"), tmp_path / "out")
    assert not (tmp_path / "out").exists()
