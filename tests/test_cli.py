"""End-to-end tests of the command line surface."""

import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stdout
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import edge_cancellation_sem
from reference import learn_doc
from spdag.cli import _WINNER_BLOCK, _search_json, _write_json, build_parser, main
from spdag.graph import Dag, _bits, format_dag_text
from spdag.oracle import TestConfig, dsep_backend, fisher_z_backend, iter_triples
from spdag.sem import GenConfig, LinearSem, covariance_of, random_sem, sample
from spdag.sp import SpResult, sp_search

COLLIDER = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def collider_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(format_dag_text(COLLIDER, label_base=1))
    return path


@pytest.fixture
def sem_files(tmp_path):
    sem = random_sem(GenConfig(p=5, expected_nbhd=1.5), np.random.default_rng(7))
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, np.asarray(covariance_of(sem)), delimiter=",")
    truth = tmp_path / "truth.txt"
    truth.write_text(format_dag_text(sem.dag))
    return sem, cov, truth


@pytest.fixture
def dense_cov(tmp_path):
    """A complete DAG on 6 vertices: all 720 orderings induce a winner."""
    rng = np.random.default_rng(6)
    edges = [(j, k) for j in range(6) for k in range(j + 1, 6)]
    weights = {e: rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0)) for e in edges}
    cov = tmp_path / "dense.csv"
    np.savetxt(cov, np.asarray(covariance_of(LinearSem(Dag(6, edges), weights))),
               delimiter=",")
    return cov


def run_ok(args):
    assert main([str(a) for a in args]) == 0


class TestLearn:
    def test_dsep_schema_and_one_based_labels(self, collider_file, tmp_path):
        out = tmp_path / "r.json"
        run_ok(["learn", "--backend", "dsep", "--input", collider_file, "--out", out])
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "min_edges", "winners", "classes", "unique_class",
            "permutations_scanned", "collinear_queries", "wall_time_ms",
        }
        assert doc["min_edges"] == 4
        assert doc["permutations_scanned"] == math.factorial(4)
        assert doc["unique_class"] is True
        # the input file is 1-based, so the output must be
        assert [[1, 2], [1, 3], [2, 4], [3, 4]] in doc["winners"]
        assert doc["classes"][0]["v_structures"] == [[2, 4, 3]]
        assert doc["wall_time_ms"] > 0

    def test_gaussian_and_cholesky_routes_agree(self, sem_files, tmp_path):
        _, cov, _ = sem_files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(["learn", "--backend", "gaussian", "--input", cov, "--out", a])
        run_ok(["learn", "--backend", "cholesky", "--input", cov, "--out", b])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        for key in ("min_edges", "winners", "classes", "unique_class"):
            assert da[key] == db[key]

    def test_dense_routes_write_every_winner_in_order(self, dense_cov, tmp_path):
        docs = []
        for backend in ("gaussian", "cholesky"):
            out = tmp_path / f"{backend}.json"
            run_ok(["learn", "--backend", backend, "--input", dense_cov, "--out", out])
            doc = json.loads(out.read_text())
            assert len(doc["winners"]) == 720
            assert all(w == sorted(w) for w in doc["winners"])
            assert doc["winners"] == sorted(doc["winners"])
            docs.append(doc)
        for key in ("min_edges", "classes", "unique_class"):
            assert docs[0][key] == docs[1][key]
        assert docs[0]["unique_class"] is True

    def test_fisher_uses_header_names(self, sem_files, tmp_path):
        sem, _, _ = sem_files
        x = sample(sem, 20000, np.random.default_rng(3))
        data = tmp_path / "data.csv"
        np.savetxt(data, x, delimiter=",",
                   header=",".join(f"v{i}" for i in range(5)), comments="")
        out = tmp_path / "f.json"
        run_ok(["learn", "--backend", "fisher", "--input", data,
                "--alpha", "0.001", "--out", out])
        doc = json.loads(out.read_text())
        labels = {v for edge in doc["winners"][0] for v in edge}
        assert labels <= {f"v{i}" for i in range(5)}

    def test_shifted_samples_learn_what_the_originals_do(self, sem_files, tmp_path):
        # sp centers a sample CSV, so adding 10 to every column changes nothing
        sem, _, _ = sem_files
        x = sample(sem, 20000, np.random.default_rng(3))
        docs = []
        for name, data in (("plain", x), ("shifted", x + 10.0)):
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            np.savetxt(path, data, delimiter=",")
            run_ok(["learn", "--backend", "fisher", "--input", path,
                    "--alpha", "0.001", "--out", out])
            doc = json.loads(out.read_text())
            doc.pop("wall_time_ms")
            docs.append(doc)
        assert docs[1] == docs[0]
        assert docs[1]["min_edges"] == len(sem.dag.edges)

    def test_duplicated_column_reports_collinear_queries(self, sem_files, tmp_path):
        sem, cov, truth = sem_files
        x = sample(sem, 2000, np.random.default_rng(3))
        data = tmp_path / "twin.csv"
        np.savetxt(data, np.column_stack([x, x[:, 0]]), delimiter=",")
        learn, pc = tmp_path / "learn.json", tmp_path / "pc.json"
        run_ok(["learn", "--backend", "fisher", "--input", data, "--out", learn])
        run_ok(["baseline", "--method", "pc", "--backend", "fisher",
                "--input", data, "--out", pc])
        assert json.loads(learn.read_text())["collinear_queries"] > 0
        assert json.loads(pc.read_text())["collinear_queries"] > 0
        # routes that read no partial correlation report none
        for backend, source in (("dsep", truth), ("cholesky", cov)):
            out = tmp_path / f"{backend}.json"
            run_ok(["learn", "--backend", backend, "--input", source, "--out", out])
            assert json.loads(out.read_text())["collinear_queries"] == 0

    def test_stdout_output(self, collider_file, capsys):
        # stdout holds the one JSON document; the summary goes to stderr
        run_ok(["learn", "--backend", "dsep", "--input", collider_file, "--out", "-"])
        out, err = capsys.readouterr()
        assert json.loads(out)["min_edges"] == 4
        assert err.startswith("minimum 4 edges") and err.count("\n") == 1

    def test_headerless_samples_with_byte_order_mark(self, sem_files, tmp_path):
        # a spreadsheet's byte-order mark must not turn the first row into names
        sem, _, _ = sem_files
        x = sample(sem, 2000, np.random.default_rng(3))
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in x) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        docs = []
        for data in (plain, marked):
            out = tmp_path / f"{data.stem}.json"
            run_ok(["learn", "--backend", "fisher", "--input", data, "--out", out])
            doc = json.loads(out.read_text())
            doc.pop("wall_time_ms")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert {v for edge in docs[1]["winners"][0] for v in edge} <= {f"x{i}" for i in range(5)}

    def test_threads_do_not_change_result(self, collider_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(["learn", "--backend", "dsep", "--input", collider_file, "--out", a])
        run_ok(["learn", "--backend", "dsep", "--input", collider_file,
                "--threads", "3", "--out", b])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("wall_time_ms"), db.pop("wall_time_ms")
        assert da == db

    @pytest.mark.parametrize("p", range(4))
    def test_an_edgeless_graph_writes_its_one_winner(self, tmp_path, p):
        # the empty DAG is the one winner, down to p = 0, where it has no rows
        graph, out = tmp_path / "g.txt", tmp_path / "r.json"
        graph.write_text(f"p={p}\n")
        run_ok(["learn", "--backend", "dsep", "--input", graph, "--out", out])
        doc = json.loads(out.read_text())
        result = sp_search(dsep_backend(Dag(p, [])))
        assert len(doc["winners"]) == len(result.masks) == 1
        assert doc["winners"] == [[]]

    def test_capacity_message_names_the_flag(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("p=12\n0 -> 1\n")
        out = tmp_path / "r.json"
        code = main(["learn", "--backend", "dsep", "--input", str(big),
                     "--out", str(out)])
        assert code == 1
        assert "--max-p" in capsys.readouterr().err


# sha256 of the `sp learn` JSON, wall_time_ms dropped, on five inputs: the
# 1-based collider file; the sem_files covariance on both routes and at
# lambda 0.3, where eight DAGs in three classes tie; the complete
# DAG on both routes (720 winners, one class); and a 2,000-row sample of
# the sem_files model with a header row. No partial correlation of that
# covariance lies within 0.07 of 0.3, and no Fisher p-value of that sample
# within a factor of 6 of 0.01. The hashes were taken before the search
# built its classes during the DP, and pin the winners' order as well as
# the classes. Any change to a hash is a change to a result and must be
# deliberate.
GOLDEN_LEARNS = {
    "dsep collider": "4662f2ddc188cf5b34ff397a16e2ad9d3fc84a3ce2d8fe42162d5e49388035e5",
    "sparse gaussian": "29f5a8f4b3a19978962da0fa7ceac88ba9ea364e3d08900322eed6ed9f0c7552",
    "sparse cholesky": "29f5a8f4b3a19978962da0fa7ceac88ba9ea364e3d08900322eed6ed9f0c7552",
    "sparse lambda 0.3": "28d59fb9d4ad3a5d4713378d175ebdbdd6bd9153a68ab68007ae684c5492c2bf",
    "dense gaussian": "6d15b1f1d0dfb9af661107b5d108fb7378c15ad9c1bf1bc2591ae91fb0a4095c",
    "dense cholesky": "6d15b1f1d0dfb9af661107b5d108fb7378c15ad9c1bf1bc2591ae91fb0a4095c",
    "fisher sample": "4bc6bd282382c60b6cd2476fa4906658faa1ac8e3d888c82213f7fe01e68292c",
}


@pytest.fixture
def learn_inputs(collider_file, sem_files, dense_cov, tmp_path):
    sem, cov, _ = sem_files
    data = tmp_path / "sample.csv"
    np.savetxt(data, sample(sem, 2000, np.random.default_rng(3)), delimiter=",",
               header=",".join(f"v{i}" for i in range(5)), comments="")
    return {
        "dsep collider": ["--backend", "dsep", "--input", collider_file],
        "sparse gaussian": ["--backend", "gaussian", "--input", cov],
        "sparse cholesky": ["--backend", "cholesky", "--input", cov],
        "sparse lambda 0.3": ["--backend", "lambda", "--lambda", "0.3", "--input", cov],
        "dense gaussian": ["--backend", "gaussian", "--input", dense_cov],
        "dense cholesky": ["--backend", "cholesky", "--input", dense_cov],
        "fisher sample": ["--backend", "fisher", "--input", data],
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_LEARNS))
def test_learn_matches_golden_hash(learn_inputs, tmp_path, case):
    out = tmp_path / "r.json"
    run_ok(["learn", *learn_inputs[case], "--out", out])
    doc = json.loads(out.read_text())
    del doc["wall_time_ms"]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == GOLDEN_LEARNS[case]


@st.composite
def checked_results(draw):
    """A checked SpResult(p, masks), p <= 5: a few DAGs with one edge count."""
    p = draw(st.integers(1, 5))
    count = draw(st.integers(0, p * (p - 1) // 2))
    masks = set()
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(p)))
        edges = draw(st.sets(st.sampled_from(list(combinations(order, 2))),
                             min_size=count, max_size=count)) if count else ()
        masks.add(sum(1 << j * p + k for j, k in edges))
    return SpResult(p, masks)


@st.composite
def labelings(draw):
    """0- or 1-based integers, or names holding JSON's escaped characters."""
    if draw(st.booleans()):
        base = draw(st.integers(0, 1))
        return lambda v: v + base
    names = draw(st.lists(st.text('a" \\,\u00e9', max_size=3), min_size=5, max_size=5))
    return lambda v: f'{names[v]}"\\,\u00e9{v}'


class TestWriter:
    @given(result=checked_results(), label=labelings())
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    def test_streamed_text_matches_the_nested_list_document(
        self, tmp_path_factory, result, label
    ):
        expected = json.dumps(learn_doc(result, label, 12.3456, 7)) + "\n"
        out = tmp_path_factory.mktemp("writer") / "r.json"
        doc, winners = _search_json(result, label, 12.3456, 7)
        _write_json(doc, str(out), winners)
        assert out.read_bytes() == expected.encode()
        # the winners' texts are made as they are written, so once only
        doc, winners = _search_json(result, label, 12.3456, 7)
        with redirect_stdout(io.StringIO()) as stdout:
            _write_json(doc, "-", winners)
        assert stdout.getvalue() == expected

    @pytest.mark.parametrize("out", ["file", "-"])
    def test_blocks_of_winners_join_into_the_nested_list_document(self, tmp_path, out):
        # a complete DAG on 6 vertices: its 720 winners fill two blocks and
        # part of a third, and each label holds characters JSON escapes
        p = 6
        masks = {
            sum(1 << j * p + k for j, k in combinations(order, 2))
            for order in permutations(range(p))
        }
        assert 2 * _WINNER_BLOCK < len(masks) < 3 * _WINNER_BLOCK
        result = SpResult(p, masks)
        label = lambda v: f'"{v}\\\t\u00e9\n/\x00'
        expected = json.dumps(learn_doc(result, label, 0.5, 3)) + "\n"
        doc, winners = _search_json(result, label, 0.5, 3)
        if out == "-":
            with redirect_stdout(io.StringIO()) as stdout:
                _write_json(doc, "-", winners)
            got = stdout.getvalue()
        else:
            _write_json(doc, str(tmp_path / "r.json"), winners)
            got = (tmp_path / "r.json").read_bytes().decode()
        # named, so that a mismatch reports where the texts part, not a diff of both
        same = got == expected
        part = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), len(got))
        assert same, (part, got[part - 30:part + 30], expected[part - 30:part + 30])

    def test_dense_winners_stream_in_little_memory(self, tmp_path):
        # a complete DAG on 8 vertices: each of the 8! orderings is a winner
        p = 8
        masks = {
            sum(1 << j * p + k for j, k in combinations(order, 2))
            for order in permutations(range(p))
        }
        result = SpResult._from_search(p, [masks])
        label = lambda v: f"x{v}"
        out = tmp_path / "r.json"
        doc, winners = _search_json(result, label, 0.0, 0)
        tracemalloc.start()
        try:
            _write_json(doc, str(out), winners)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        # the sort and the distinct rows' texts stay; the text as a whole
        # (or its nested lists, larger still) would not fit under this
        assert peak < size / 4, (peak, size)
        written = json.loads(out.read_text())["winners"]
        assert len(written) == math.factorial(p)
        for edges, m in zip(written, result.ordered_masks()):
            assert edges == [[label(b // p), label(b % p)] for b in _bits(m)]


class TestBaseline:
    def test_schema_mirrors_learn(self, sem_files, tmp_path):
        _, cov, _ = sem_files
        out = tmp_path / "pc.json"
        run_ok(["baseline", "--method", "pc", "--backend", "gaussian",
                "--input", cov, "--out", out])
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "method", "min_edges", "winners", "classes", "unique_class",
            "permutations_scanned", "collinear_queries", "wall_time_ms",
        }
        assert doc["method"] == "pc"
        assert doc["winners"] == []
        assert doc["unique_class"] is True
        assert len(doc["classes"]) == 1

    def test_stdout_output(self, collider_file, capsys):
        run_ok(["baseline", "--method", "pc", "--backend", "dsep",
                "--input", collider_file, "--out", "-"])
        out, err = capsys.readouterr()
        assert json.loads(out)["min_edges"] == 4
        assert err == "pc skeleton has 4 edges, 1 v-structures\n"

    def test_both_methods_find_the_collider(self, collider_file, tmp_path):
        for method in ("sgs", "pc"):
            out = tmp_path / f"{method}.json"
            run_ok(["baseline", "--method", method, "--backend", "dsep",
                    "--input", collider_file, "--out", out])
            doc = json.loads(out.read_text())
            assert doc["min_edges"] == 4
            assert doc["classes"][0]["v_structures"] == [[2, 4, 3]]


class TestCheck:
    def test_markov_holds_for_truth(self, sem_files, tmp_path):
        _, cov, truth = sem_files
        out = tmp_path / "r.json"
        run_ok(["check", "--assumption", "markov", "--backend", "gaussian",
                "--input", cov, "--graph", truth, "--out", out])
        doc = json.loads(out.read_text())
        assert doc == {
            "assumption": "markov", "holds": True, "total_violations": 0,
            "witnesses": [], "wall_time_ms": doc["wall_time_ms"],
        }

    def test_stdout_output(self, sem_files, capsys):
        _, cov, truth = sem_files
        run_ok(["check", "--assumption", "markov", "--backend", "gaussian",
                "--input", cov, "--graph", truth, "--out", "-"])
        out, err = capsys.readouterr()
        assert json.loads(out)["holds"] is True
        assert err == "markov: holds\n"

    def test_violation_reports_witnesses(self, tmp_path):
        sem = edge_cancellation_sem()
        cov = tmp_path / "cov.csv"
        np.savetxt(cov, np.asarray(covariance_of(sem)), delimiter=",")
        graph = tmp_path / "g.txt"
        graph.write_text(format_dag_text(sem.dag, label_base=1))
        out = tmp_path / "r.json"
        run_ok(["check", "--assumption", "adjacency", "--backend", "gaussian",
                "--input", cov, "--graph", graph, "--out", out])
        doc = json.loads(out.read_text())
        assert doc["holds"] is False
        assert doc["total_violations"] >= 1
        w = doc["witnesses"][0]
        # the cancelled edge 1->2 (1-based), separated by {4}
        assert w["subject"][:2] == [1, 2]
        assert w["reason"]

    def test_smr_verdicts_match_library(self, sem_files, tmp_path):
        _, cov, truth = sem_files
        out = tmp_path / "r.json"
        run_ok(["check", "--assumption", "smr", "--backend", "gaussian",
                "--input", cov, "--graph", truth, "--out", out])
        assert json.loads(out.read_text())["holds"] is True

    def test_lambda_smr_requires_lambda_backend(self, sem_files, tmp_path, capsys):
        _, cov, truth = sem_files
        args = ["check", "--assumption", "lambda-smr", "--backend", "gaussian",
                "--input", str(cov), "--graph", str(truth), "--out", "-"]
        assert main(args) == 1
        assert "--backend lambda" in capsys.readouterr().err
        run_ok(["check", "--assumption", "lambda-smr", "--backend", "lambda",
                "--lambda", "0.01", "--input", cov, "--graph", truth, "--out", "-"])


# sha256 of the `sp check` JSON, wall_time_ms dropped, for every assumption
# on three inputs: the sem_files covariance with its true graph, where every
# assumption holds; the edge-cancellation covariance with its 4-cycle, where
# adjacency-faithfulness fails on gaussian and, at lambda 0.45, so do SMR and
# both minimality notions; and that covariance against a graph with a
# triangle that it is not Markov to. Apart from the exact zeros, no partial
# correlation of either covariance lies within 0.009 of a threshold used
# here. Any change to a hash is a change to a report and must be deliberate.
CHECK_BACKENDS = {
    "gaussian": ["--backend", "gaussian"],
    "lambda 0.01": ["--backend", "lambda", "--lambda", "0.01"],
    "lambda 0.45": ["--backend", "lambda", "--lambda", "0.45"],
}
GOLDEN_CHECKS = {
    ("truth", "gaussian"): {
        "markov": "cdb9a128e5ef52a1a3a36f71899a9f5f1a81134ccd385079a9107bcf87d93e1d",
        "smr": "b786fc5051a6387f8dba0eb88358b8d72fffbd4b7af3818c4a67513d7cdbfdea",
        "adjacency": "f4bc1b2350fb16920bace23ee0952479d9ac79bc2d7c0c7e411f5917dc738f6a",
        "orientation": "7359d45d0a299039407442a5585e9764d2632507db36eb152b37782a018cb4a0",
        "restricted": "47d30e6c68d7bc42bf67321411902113a75ddf87203f68a10c20a023b00c0a2f",
        "triangle": "dc407e7e2efd76ba78209d9a2f66d6e8161b0e5fcde45ae3fa71d91fc17c5fdd",
        "sgs-min": "721314521aa2543baffc9df54d08032bf58ce0c6f174fc1628d05260c4279dd5",
        "p-min": "6464bcd265d60b8a5cf6bf625ab6aa3367a72a2d4280e2353abd0ad72e316b5a",
    },
    ("truth", "lambda 0.01"): {
        "markov": "cdb9a128e5ef52a1a3a36f71899a9f5f1a81134ccd385079a9107bcf87d93e1d",
        "smr": "b786fc5051a6387f8dba0eb88358b8d72fffbd4b7af3818c4a67513d7cdbfdea",
        "adjacency": "f4bc1b2350fb16920bace23ee0952479d9ac79bc2d7c0c7e411f5917dc738f6a",
        "orientation": "7359d45d0a299039407442a5585e9764d2632507db36eb152b37782a018cb4a0",
        "restricted": "47d30e6c68d7bc42bf67321411902113a75ddf87203f68a10c20a023b00c0a2f",
        "triangle": "dc407e7e2efd76ba78209d9a2f66d6e8161b0e5fcde45ae3fa71d91fc17c5fdd",
        "sgs-min": "721314521aa2543baffc9df54d08032bf58ce0c6f174fc1628d05260c4279dd5",
        "p-min": "6464bcd265d60b8a5cf6bf625ab6aa3367a72a2d4280e2353abd0ad72e316b5a",
        "lambda-smr": "d3901b728d218fc8a482e2d3b7eebb8bdc34e555b03587ec02e7f09bd2623394",
    },
    ("cancel", "gaussian"): {
        "markov": "cdb9a128e5ef52a1a3a36f71899a9f5f1a81134ccd385079a9107bcf87d93e1d",
        "smr": "b786fc5051a6387f8dba0eb88358b8d72fffbd4b7af3818c4a67513d7cdbfdea",
        "adjacency": "a349aedc14b0739110ae6dcf45e559bef682a3df9ef6a0970abeb6a0c3062882",
        "orientation": "7359d45d0a299039407442a5585e9764d2632507db36eb152b37782a018cb4a0",
        "restricted": "de1ce1a2a9e4ed579383b3450482eec0ee397433b6cb64a9838c52f8ad0b13dd",
        "triangle": "dc407e7e2efd76ba78209d9a2f66d6e8161b0e5fcde45ae3fa71d91fc17c5fdd",
        "sgs-min": "721314521aa2543baffc9df54d08032bf58ce0c6f174fc1628d05260c4279dd5",
        "p-min": "6464bcd265d60b8a5cf6bf625ab6aa3367a72a2d4280e2353abd0ad72e316b5a",
    },
    ("cancel", "lambda 0.45"): {
        "markov": "cdb9a128e5ef52a1a3a36f71899a9f5f1a81134ccd385079a9107bcf87d93e1d",
        "smr": "3312bb0d5e42cff936c9db7ca59abab92fce544b9d6b84ee8d102e4580d899e2",
        "adjacency": "80a18f967016396066ee78bae6058c3cf8eba8ee45f2ea13e0f3e717ad354522",
        "orientation": "a87539b81e5784245293aa9ac96058dc8748f1d2ff52f68f9c96ff678eb2f546",
        "restricted": "ba6997848aad88bfb48810c40ab011b260d685aae38736fd1480652b9dd4e735",
        "triangle": "dc407e7e2efd76ba78209d9a2f66d6e8161b0e5fcde45ae3fa71d91fc17c5fdd",
        "sgs-min": "504635502d5c03f0e36b54f7f8b4eb2b2ebac23ba20099fb7f0e741aad59d512",
        "p-min": "830c90016bf199c080eea20ba4fdf083c40e33f2f95f1c08d3baaafc42c69d9e",
        "lambda-smr": "328cb16dfb3ddeeb821df309343026af344b90d41a44121f9310594f1bde8fcc",
    },
    ("unmarkov", "gaussian"): {
        "markov": "78d349b3e34bff4db465e8b2e66edae9ef25831ca778e074fe8ab7c0325c3932",
        "smr": "8e2dfce387712d27fa4a6d4ab0fc25849d8772c484c93ee625e02f9382b39ba4",
        "adjacency": "70b8f20d71964fba9dc95b3b18772fd988fa3f6b99be0858ed614f4635a3163b",
        "orientation": "7359d45d0a299039407442a5585e9764d2632507db36eb152b37782a018cb4a0",
        "restricted": "d917c6590479d426e76d5f8354b7d2417ddd14c8d18276ab4e9989e416b9793f",
        "triangle": "5f38cc309c9d649e357a42e170eec85736cfa0b7686f58801a87a48dfd09dd7c",
        "sgs-min": "b9b811803f7a9e2eb5af9b5c17c7b1b5d33a7c3cf13b2817e168ebc20d593fb6",
        "p-min": "c884f58b62d7ae0c8146ddf79b4b8c2f68714924e8ce6b4f778bbadcdca95b18",
    },
    ("unmarkov", "lambda 0.45"): {
        "markov": "1a5928cc21b09c17afcb87acd17e9a5189b1d2b4d14f61468cb0a1ed04557b07",
        "smr": "e92cf1d69e330ec8d5834ec7a13623c7b4340f68dc45fa57e3436960cc014758",
        "adjacency": "15da3fac21db3aa3cef88d23ff10bc0504f9d62f705a54c188fab23ccbf94ab8",
        "orientation": "7359d45d0a299039407442a5585e9764d2632507db36eb152b37782a018cb4a0",
        "restricted": "22027d92dffe90cd5c8c8a827bbc06b327d2936ecc6749c40d4a10c926dd1795",
        "triangle": "af94775bc6ec8b62e9abdf935760a74c222bc8357fcb667ce961e970604d2607",
        "sgs-min": "b96981a7ac556ec2ed03aeac6614ab8b5d0f1f45d5d8ac33290ab496aa920a37",
        "p-min": "34f0c4115dec71e43a319f6f1bc194a395ebd70b7b66ac6517a2353fc356db8e",
        "lambda-smr": "6d13983056f4e107596f1f6c73767b35b3bc7941ede0e08e8a4c0277bb6e86ec",
    },
}


@pytest.fixture
def check_inputs(sem_files, tmp_path):
    _, cov, truth = sem_files
    sem = edge_cancellation_sem()
    cancel = tmp_path / "cancel.csv"
    np.savetxt(cancel, np.asarray(covariance_of(sem)), delimiter=",")
    cycle, wrong = tmp_path / "cycle.txt", tmp_path / "wrong.txt"
    cycle.write_text(format_dag_text(sem.dag, label_base=1))
    wrong.write_text(format_dag_text(Dag(4, [(0, 1), (0, 2), (1, 2), (2, 3)])))
    return {"truth": (cov, truth), "cancel": (cancel, cycle), "unmarkov": (cancel, wrong)}


class TestCheckGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CHECKS), ids=" / ".join)
    def test_reports_match_golden_hashes(self, check_inputs, tmp_path, case):
        name, backend = case
        cov, graph = check_inputs[name]
        out = tmp_path / "r.json"
        got = {}
        for assumption in GOLDEN_CHECKS[case]:
            run_ok(["check", "--assumption", assumption, *CHECK_BACKENDS[backend],
                    "--input", cov, "--graph", graph, "--out", out])
            doc = json.loads(out.read_text())
            del doc["wall_time_ms"]
            got[assumption] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert got == GOLDEN_CHECKS[case]


# sha256 of every byte-stable file `sp simulate` writes for three small
# grids, one per mode. The oracle grid has p=10 cells, over the SP cap,
# and a p=3 cell with nbhd 2.5 > p-1; the sample grid has n=6 < p+4 cells;
# so `skipped` lists both kinds of skip. Any change to a hash is a change
# to the reproducible outputs and must be deliberate.
GOLDEN_GRIDS = {
    "oracle": (
        "mode=oracle\np_list=3,4,10\nnbhd_list=1,2.5\nn_list=100\nalpha_list=0.01\n"
        "trials=2\nmaster_seed=3\nmethods=sp,pc\n",
        {
            "aggregate.csv": "ab11c9099147fe7ab4a73c3c8db4a2af51bb9368bcbfa3c7168ca6c121d98557",
            "fig_10_100_0.01.csv": "4fd553124142657508e560cdb124ae5949fc90ae95c253988eba177a8206e858",
            "fig_3_100_0.01.csv": "c5718df7694dbb2ddc4155af0b9483060b5a52bdb1b273e79692609f63e1b9a5",
            "fig_4_100_0.01.csv": "06a92007340924d14ce397ff9aba385f8df02aab1b66c20d700aefe6d2d3be3c",
            "summary.json": "660f3f05cb5c83d7310d529d1e98086d0a1d55249582e254f9e985ba76ba4689",
            "trials.csv": "3bf70176753875240408ebcd2dbf24c06ff4a5133c6e82c572e8ed4cfc584144",
        },
    ),
    "gaussian-exact": (
        "mode=gaussian-exact\np_list=5,6\nnbhd_list=1.5,3\nn_list=100\nalpha_list=0.01\n"
        "trials=3\nmaster_seed=4\n",
        {
            "aggregate.csv": "157d3b73932c8e4ec27e7744e3f2920665a82be3303e8b33858fd006fdcc4d3a",
            "fig_5_100_0.01.csv": "8d2a09e51d4cd81711c260661e836e4f736340a6211a639a78e0d5fb9cf6f1a3",
            "fig_6_100_0.01.csv": "8d2a09e51d4cd81711c260661e836e4f736340a6211a639a78e0d5fb9cf6f1a3",
            "summary.json": "ba55a40998039d4a0acf7553c2530ea2f63433918a9743ff1da1d602dd05fca7",
            "trials.csv": "44aa91466cc1c5a9123faa31124e2c42cbd94b27a61c402cd4dacbc4aca9745f",
        },
    ),
    "sample": (
        "mode=sample\np_list=4,6\nnbhd_list=2\nn_list=6,60,400\nalpha_list=0.01,0.001\n"
        "trials=3\nmaster_seed=5\n",
        {
            "aggregate.csv": "0679629b7769ee3a8e9e81655550ffec433b2673eac591d08988103721163727",
            "fig_4_400_0.001.csv": "947a73e1ab3a3da2abc0090f4690e8d22a3aea413a58fa5ae54f92a7110d30ad",
            "fig_4_400_0.01.csv": "df9034395e95d54c9415997b0cfb329c633e5cb108e4d233380ff4a7ad96530f",
            "fig_4_60_0.001.csv": "d665bbfa0d26e8a0f104e7804de82de63539ed6915e34d372af7dcbd4ed8a92b",
            "fig_4_60_0.01.csv": "d665bbfa0d26e8a0f104e7804de82de63539ed6915e34d372af7dcbd4ed8a92b",
            "fig_6_400_0.001.csv": "d1fe51371692a85ccd2fde6d2dc5c9d5dd1d28b58b2afb52d0614709290031ba",
            "fig_6_400_0.01.csv": "ba1bb2046537f8144f7adb737a5167b06abd2de974d112d0ef6e1b17cf4bdc9d",
            "fig_6_60_0.001.csv": "221ee18ae6f0fd7d6a3187e31ec7d1aee2b26939d89de54f82b890013be97381",
            "fig_6_60_0.01.csv": "488a9a8ca0410c202cead74d1cc1ec46bf6c8dc00af083c744d46484b7513cfa",
            "summary.json": "026ba90c6db249f5ad48594489810897ab322c7aeb5a47950678edb4995f9330",
            "trials.csv": "60947d65561f3731a2d0789da999db9e42748c5ac60299bdf0dec46746661023",
        },
    ),
}


class TestSimulate:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_GRIDS))
    def test_files_match_golden_hashes(self, tmp_path, mode):
        text, hashes = GOLDEN_GRIDS[mode]
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        run_ok(["simulate", "--config", cfg, "--out-dir", out])
        got = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()
            if f.name != "timings.csv"
        }
        assert got == hashes
        if mode != "gaussian-exact":
            assert json.loads((out / "summary.json").read_text())["skipped"]

    def test_outputs_and_thread_determinism(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "p_list=4\nnbhd_list=1.5\nn_list=600\nalpha_list=0.01\n"
            "trials=3\nmaster_seed=5\n"
        )
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run_ok(["simulate", "--config", cfg, "--out-dir", d1])
        run_ok(["simulate", "--config", cfg, "--out-dir", d2, "--threads", "3"])
        for name in ("trials.csv", "aggregate.csv", "summary.json",
                     "fig_4_600_0.01.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_bad_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("p_list=4\nnbhd_list=1\nturbo=yes\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "turbo" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, key", [
        ("grid.cfg", "p_list=4\nnbhd_list=1\ntrials=\n", "trials"),
        ("grid.cfg", "p_list=4,x\nnbhd_list=1\n", "p_list"),
        ("grid.json", '{"p_list": 4, "nbhd_list": [1]}', "p_list"),
        ("grid.json", '{"p_list": [4], "nbhd_list": [1], "trials": "2"}', "trials"),
        ("grid.cfg", "p_list=4\nnbhd_list=1,nan\n", "nbhd_list"),
        ("grid.json", '{"p_list": [4], "nbhd_list": [1, NaN]}', "nbhd_list"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmode=oracle\nalpha_list=\n", "alpha_list"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmode=oracle\nn_list=\n", "n_list"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmode=oracle\nmethods=\n", "methods"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmode=oracle\nalpha_list=5e-324\n", "alpha_list"),
        ("grid.json", '{"p_list": [4.7], "nbhd_list": [1]}', "p_list"),
        ("grid.json", '{"p_list": [4], "nbhd_list": [1], "n_list": [100.9]}', "n_list"),
        ("grid.json", '{"p_list": [4], "nbhd_list": [1], "trials": true}', "trials"),
        ("grid.json", '{"p_list": [4], "nbhd_list": [true]}', "nbhd_list"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmaster_seed=-1\n", "master_seed"),
        ("grid.json", '{"p_list": [4]}', "missing config keys: ['nbhd_list']"),
        ("grid.cfg", "p_list = 4", "missing config keys: ['nbhd_list']"),
        ("grid.json", "[1,2]", "a JSON config must be an object, got a list"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\ntrials = 3, 4\n", "line 3: bad value for trials: '3, 4'"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmaster_seed = 1,2\n", "master_seed: '1,2'"),
        ("grid.cfg", "p_list=4\nnbhd_list=1\nmode = oracle, sample\n", "mode: 'oracle, sample'"),
    ], ids=["empty-value", "bad-item", "scalar-list", "string-count", "nan-nbhd", "nan-nbhd-json",
            "empty-alphas", "empty-ns", "empty-methods", "underflowing-alpha", "float-p",
            "float-n", "bool-trials", "bool-nbhd", "negative-seed", "missing-key-json",
            "missing-key-text", "json-list", "two-trials", "two-seeds", "two-modes"])
    def test_malformed_config_value_fails_cleanly(self, tmp_path, capsys, name, text, key):
        cfg = tmp_path / name
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {cfg}: ") and key in err
        assert not (tmp_path / "o").exists()


@lru_cache(maxsize=None)
def golden_sample():
    """The 2,000-row sample of the sem_files model behind the fisher hash."""
    sem = random_sem(GenConfig(p=5, expected_nbhd=1.5), np.random.default_rng(7))
    return sample(sem, 2000, np.random.default_rng(3))


def fisher_doc(command, data, work):
    """The JSON of `sp <command> --backend fisher` on data, less wall_time_ms."""
    path, out = Path(work) / "data.csv", Path(work) / "r.json"
    np.savetxt(path, data, fmt="%.17g", delimiter=",")
    with redirect_stdout(io.StringIO()):
        run_ok([*command, "--backend", "fisher", "--input", path, "--out", out])
    doc = json.loads(out.read_text())
    del doc["wall_time_ms"]
    return doc


FISHER_COMMANDS = (["learn"], ["baseline", "--method", "sgs"], ["baseline", "--method", "pc"])


@lru_cache(maxsize=None)
def golden_sample_docs():
    with tempfile.TemporaryDirectory() as work:
        return [fisher_doc(command, golden_sample(), work) for command in FISHER_COMMANDS]


class TestSampleInvariance:
    """sp centers a sample CSV, and the Fisher-z test reads correlations, so
    shifting or rescaling a column changes no answer."""

    def test_no_statistic_lies_near_the_level(self):
        # shifting and rescaling move the centered data by rounding only,
        # which cannot carry a statistic across this margin
        x = golden_sample()
        be = fisher_z_backend(x - x.mean(axis=0), TestConfig(alpha=0.01))
        level = -NormalDist().inv_cdf(0.01 / 2)
        assert min(abs(be.statistic(j, k, s) - level) for j, k, s in iter_triples(5)) > 0.1

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(
        column=st.integers(0, 4),
        shift=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
    )
    def test_shift_and_scale_change_no_answer(self, column, shift, scale):
        moved = golden_sample().copy()
        moved[:, column] = moved[:, column] * scale + shift
        with tempfile.TemporaryDirectory() as work:
            docs = [fisher_doc(command, moved, work) for command in FISHER_COMMANDS]
        assert docs == golden_sample_docs()


class TestErrorSurface:
    def test_cycle_is_a_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "cyc.txt"
        bad.write_text("p=3\n1 -> 2\n2 -> 1\n")
        assert main(["learn", "--backend", "dsep", "--input", str(bad),
                     "--out", "-"]) == 1
        err = capsys.readouterr().err
        assert "cycle" in err and "line 3" in err

    @pytest.mark.parametrize("p", [65, 99999999999])
    @pytest.mark.parametrize("command", [
        ["learn", "--backend", "dsep", "--input", "{g}"],
        ["baseline", "--method", "pc", "--backend", "dsep", "--input", "{g}"],
        ["check", "--assumption", "markov", "--graph", "{g}", "--backend", "dsep",
         "--input", "{good}"],
        ["check", "--assumption", "markov", "--graph", "{good}", "--backend", "dsep",
         "--input", "{g}"],
    ], ids=["learn", "baseline", "check-graph", "check-input"])
    def test_graph_header_over_the_cap_fails_at_once(self, collider_file, tmp_path, capsys,
                                                     command, p):
        # sizing a list by a header of 10^11 vertices would run out of memory
        big = tmp_path / "big.txt"
        big.write_text(f"p={p}\n0 -> 1\n")
        t0 = time.perf_counter()
        code = main([a.format(g=big, good=collider_file) for a in command] + ["--out", "-"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {big}: line 1: p={p} exceeds the graph file cap of 64 vertices\n")

    def test_graph_header_at_the_cap_is_read(self, tmp_path, capsys):
        # 64 vertices parse, and the search's own cap then names --max-p
        big = tmp_path / "big.txt"
        big.write_text("p=64\n" + "".join(f"{j} -> {j + 1}\n" for j in range(63)))
        assert main(["learn", "--backend", "dsep", "--input", str(big), "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: p=64 exceeds the cap of 9 vertices") and "--max-p" in err

    @pytest.mark.parametrize("value", ["17", "30", "1000000"])
    def test_max_p_above_the_ceiling_is_a_usage_error(self, collider_file, capsys, value):
        # at 30 the search's tables would need hundreds of GiB
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--backend", "dsep", "--input", str(collider_file),
                  "--max-p", value, "--out", "-"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --max-p: {value} is above the ceiling of 16" in err

    def test_max_p_at_the_ceiling_is_accepted(self, collider_file, capsys):
        assert main(["learn", "--backend", "dsep", "--input", str(collider_file),
                     "--max-p", "16", "--out", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["min_edges"] == 4
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--backend", "dsep", "--input", str(collider_file),
                  "--max-p", "many", "--out", "-"])
        assert exc.value.code == 2
        assert "argument --max-p: invalid int value: 'many'" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["learn", "--backend", "dsep", "--input", "nope.txt",
                     "--out", "-"]) == 1
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["learn", "--backend", "dsep", "--input", "{g}"],
        ["baseline", "--method", "pc", "--backend", "dsep", "--input", "{g}"],
        ["check", "--assumption", "markov", "--graph", "{g}", "--backend", "dsep",
         "--input", "{g}"],
    ], ids=["learn", "baseline", "check"])
    def test_graph_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys, command):
        docs = []
        for name, encoding in (("plain.txt", "utf-8"), ("bom.txt", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(format_dag_text(COLLIDER, label_base=1), encoding=encoding)
            assert main([a.format(g=path) for a in command] + ["--out", "-"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["wall_time_ms"]
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("command, bad", [
        (["learn", "--backend", "dsep", "--input", "{bad}"], b"p=4\n1 -> 2\xff\n"),
        (["learn", "--backend", "fisher", "--input", "{bad}"], b"a,b\n1,2\n\xff,3\n"),
        (["learn", "--backend", "gaussian", "--input", "{bad}"], b"1,0\n\xfe0,1\n"),
        (["check", "--assumption", "markov", "--graph", "{bad}", "--backend", "dsep",
          "--input", "{good}"], b"\xffp=4\n"),
        (["simulate", "--config", "{bad}", "--out-dir", "{out}"], b"p_list=4\n\xff\n"),
    ], ids=["learn-graph", "learn-samples", "learn-covariance", "check-graph", "simulate"])
    def test_undecodable_input_names_its_file(self, collider_file, tmp_path, capsys,
                                              command, bad):
        path = tmp_path / "bad.in"
        path.write_bytes(bad)
        args = [a.format(bad=path, good=collider_file, out=tmp_path / "o") for a in command]
        out = [] if command[0] == "simulate" else ["--out", str(tmp_path / "r.json")]
        assert main(args + out) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: ") and "can't decode byte" in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--graph", "--input"])
    def test_check_names_the_bad_graph_file(self, collider_file, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_text("p=4\n1 -> 2\n1 => 3\n")
        files = {"--graph": collider_file, "--input": collider_file, flag: bad}
        assert main(["check", "--assumption", "markov", "--graph", str(files["--graph"]),
                     "--backend", "dsep", "--input", str(files["--input"]),
                     "--out", "-"]) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: line 3: expected edge 'j -> k', "
                                           "got '1 => 3'\n")

    def test_nan_in_samples_names_row_and_column(self, tmp_path, capsys):
        rows = ["a,b,c"] + [f"{i},{i % 3},{i % 5}" for i in range(20)]
        rows[4] = "3,nan,3"
        data = tmp_path / "gap.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["learn", "--backend", "fisher", "--input", str(data),
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "gap.csv" in err and "data row 4" in err and "column b" in err

    @pytest.mark.parametrize("header, name", [(True, "c"), (False, "x2")],
                             ids=["header", "no-header"])
    @pytest.mark.parametrize("command", [
        ["learn"],
        ["baseline", "--method", "pc"],
        ["check", "--assumption", "markov"],
    ], ids=["learn", "baseline", "check"])
    @pytest.mark.parametrize("scale, what", [
        (0.0, "is constant"),
        (1e160, "is too large to square and sum"),
    ], ids=["constant", "huge"])
    def test_unusable_sample_column_is_rejected(self, tmp_path, capsys, command,
                                                header, name, scale, what):
        # centered, c = 5 would be all zeros, which the collinear rule
        # would make a collider hub: a -> c <- b; and the squares of
        # entries near 1e160 overflow, which numpy would warn of on stderr
        x = np.random.default_rng(11).standard_normal((50, 3))
        x[:, 2] = x[:, 2] * scale + 5.0
        data = tmp_path / "flat.csv"
        np.savetxt(data, x, delimiter=",", header="a,b,c" if header else "",
                   comments="")
        graph = tmp_path / "g.txt"
        graph.write_text(format_dag_text(Dag(3, [])))
        if command[0] == "check":
            command = command + ["--graph", str(graph)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command + ["--backend", "fisher", "--input", str(data),
                                   "--out", "-"]) == 1
        assert capsys.readouterr() == ("", f"error: {data}: column {name} {what}\n")

    def test_center_flag_is_gone(self, sem_files, capsys):
        _, cov, _ = sem_files
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--backend", "fisher", "--input", str(cov),
                  "--center", "--out", "-"])
        assert exc.value.code == 2
        assert "--center" in capsys.readouterr().err

    def test_alpha_whose_half_underflows_is_rejected(self, tmp_path, capsys):
        # alpha/2 rounds to 0, whose normal quantile is -inf: every pair
        # would test independent
        data = tmp_path / "data.csv"
        np.savetxt(data, golden_sample(), delimiter=",")
        assert main(["learn", "--backend", "fisher", "--alpha", "5e-324",
                     "--input", str(data), "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "alpha must lie in (0,1) with alpha/2 > 0, got 5e-324" in err

    def test_hash_in_samples_is_a_field_not_a_comment(self, tmp_path, capsys):
        # a data section of only "#" lines once gave numpy's "no data"
        # warning and then a header width error
        data = tmp_path / "hash.csv"
        data.write_text("a,b\n#c\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["learn", "--backend", "fisher", "--input", str(data), "--out", "-"]) == 1
        assert not caught
        assert capsys.readouterr() == (
            "", f"error: {data}: could not convert string '#c' to float64 at row 0, column 1.\n")

    def test_repeated_column_name_is_one_line(self, tmp_path, capsys):
        rows = ["a,a,b"] + [f"{i},{i % 3},{i % 5}" for i in range(20)]
        data = tmp_path / "dup.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["learn", "--backend", "fisher", "--input", str(data),
                     "--out", str(tmp_path / "r.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "dup.csv" in err and "column name 'a' is repeated" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", [
        ["learn", "--backend", "fisher"],
        ["learn", "--backend", "gaussian"],
        ["baseline", "--method", "sgs", "--backend", "fisher"],
    ])
    def test_header_field_over_the_csv_limit_is_one_line(self, tmp_path, capsys, command):
        # a 200,000-character name passes the csv module's field limit
        rows = ["a" * 200_000 + ",b,c"] + [f"{i},{i % 3},{i % 5}" for i in range(20)]
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(command + ["--input", str(data), "--out", str(tmp_path / "r.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {data}: ") and "field larger than field limit" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", [
        ["learn", "--backend", "gaussian"],
        ["learn", "--backend", "lambda", "--lambda", "0.1"],
        ["learn", "--backend", "cholesky"],
        ["baseline", "--method", "pc", "--backend", "gaussian"],
        ["check", "--assumption", "markov", "--backend", "gaussian"],
    ], ids=["learn-gaussian", "learn-lambda", "learn-cholesky", "baseline", "check"])
    def test_nan_in_covariance_names_row_and_column(self, tmp_path, capsys, command):
        cov = tmp_path / "cov.csv"
        cov.write_text("1,0,0\n0,1,nan\n0,nan,1\n")
        graph = tmp_path / "g.txt"
        graph.write_text(format_dag_text(Dag(3, [(0, 1)])))
        if command[0] == "check":
            command = command + ["--graph", str(graph)]
        assert main(command + ["--input", str(cov), "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "cov.csv" in err and "data row 2, column 2" in err

    def test_nan_cholesky_tolerance_is_rejected(self, sem_files, capsys):
        _, cov, _ = sem_files
        assert main(["learn", "--backend", "cholesky", "--tol", "nan",
                     "--input", str(cov), "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "tolerance must be positive and finite, got nan" in err

    def test_infinite_cholesky_tolerance_is_rejected(self, tmp_path, capsys):
        # on a dependent 3-chain an infinite bound would drop every edge
        cov = tmp_path / "chain.csv"
        cov.write_text("1,0.5,0.25\n0.5,1,0.5\n0.25,0.5,1\n")
        assert main(["learn", "--backend", "cholesky", "--tol", "inf",
                     "--input", str(cov), "--out", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "tolerance must be positive and finite, got inf" in err

    @pytest.mark.parametrize("tol", ["0", "1", "5", "inf"])
    @pytest.mark.parametrize("command", [
        ["learn"],
        ["baseline", "--method", "pc"],
        ["check", "--assumption", "markov"],
    ], ids=["learn", "baseline", "check"])
    def test_gaussian_tolerance_outside_the_unit_interval_is_rejected(
        self, tmp_path, capsys, command, tol
    ):
        # a dependent 3-chain; |partial correlation| <= 1, so any tolerance
        # of 1 or more would call every pair independent
        cov = tmp_path / "chain.csv"
        cov.write_text("1,0.5,0.25\n0.5,1,0.5\n0.25,0.5,1\n")
        graph = tmp_path / "g.txt"
        graph.write_text(format_dag_text(Dag(3, [(0, 1), (1, 2)])))
        if command[0] == "check":
            command = command + ["--graph", str(graph)]
        args = ["--backend", "gaussian", "--tol", tol, "--input", str(cov), "--out", "-"]
        assert main(command + args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert f"zero_tol must lie in (0,1), got {float(tol)}" in err

    def test_tolerances_the_routes_accept(self, tmp_path):
        # inside (0, 1) the gaussian route keeps the chain's two edges; the
        # cholesky route bounds regression coefficients, which may exceed
        # 1, so it keeps accepting any positive tolerance
        cov = tmp_path / "chain.csv"
        cov.write_text("1,0.5,0.25\n0.5,1,0.5\n0.25,0.5,1\n")
        run_ok(["learn", "--backend", "gaussian", "--tol", "0.1", "--input", cov,
                "--out", tmp_path / "r.json"])
        assert json.loads((tmp_path / "r.json").read_text())["min_edges"] == 2
        run_ok(["learn", "--backend", "cholesky", "--tol", "5", "--input", cov,
                "--out", tmp_path / "c.json"])

    def test_lambda_backend_needs_threshold(self, sem_files, capsys):
        _, cov, _ = sem_files
        assert main(["learn", "--backend", "lambda", "--input", str(cov),
                     "--out", "-"]) == 1
        assert "--lambda" in capsys.readouterr().err

    def test_unknown_choice_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--backend", "magic", "--input", "x", "--out", "-"])
        assert exc.value.code == 2

    def test_console_script_is_wired(self, collider_file, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "spdag", "learn", "--backend", "dsep",
             "--input", str(collider_file), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["min_edges"] == 4


class TestParserState:
    """The parser is built once per process; each main call still parses
    its own arguments, so no option outlives the call that gave it."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()
        argv = ["learn", "--backend", "gaussian", "--input", "cov.csv", "--out", "-"]
        given = build_parser().parse_args(argv + ["--tol", "1e-6", "--alpha", "0.2"])
        assert (given.tol, given.alpha) == (1e-6, 0.2)
        bare = build_parser().parse_args(argv)
        assert (bare.tol, bare.alpha) == (None, 0.01)

    @pytest.mark.parametrize("backend, flag, value", [
        ("gaussian", "--tol", "0.3"),
        ("fisher", "--alpha", "0.9"),
    ])
    def test_an_option_does_not_outlive_its_call(self, sem_files, tmp_path, capsys,
                                                 backend, flag, value):
        path = sem_files[1]
        if backend == "fisher":
            path = tmp_path / "data.csv"
            np.savetxt(path, golden_sample()[:200], delimiter=",")

        def learn(*more):
            assert main(["learn", "--backend", backend, "--input", str(path), *more,
                         "--out", "-"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["wall_time_ms"]
            return doc

        default, given = learn(), learn(flag, value)
        assert given != default
        assert learn() == default
        with pytest.raises(SystemExit) as exc:  # a usage error between two calls
            main(["learn", "--backend", backend, "--input", str(path), flag, "x",
                  "--out", "-"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert learn() == default
        assert learn(flag, value) == given
