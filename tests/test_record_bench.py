"""tools/record_bench.py names the tree it measured and times `sp learn` itself.

The commit alone names the parent while a change is uncommitted, so the
recorder also hashes what git tracks under src/, bench/ and tools/. Its
`sp learn` sweep runs the CLI as fresh processes on inputs it generates.
"""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def test_tree_hash_follows_tracked_bytes_only(tmp_path):
    for name, text in [("src/pkg/mod.py", "x = 1\n"), ("bench/run.py", "pass\n"),
                       ("tools/record.py", "pass\n"), ("README.md", "readme\n")]:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
    first = record_bench.tree_sha256(tmp_path)
    assert len(first) == 64 and first != record_bench.tree_sha256(ROOT)

    # bytecode and files outside src/, bench/ and tools/ leave it alone
    (tmp_path / "src/pkg/__pycache__").mkdir()
    (tmp_path / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"\x00" * 16)
    (tmp_path / "README.md").write_text("changed\n")
    assert record_bench.tree_sha256(tmp_path) == first

    # one byte under src/ moves it, before anything is committed or staged
    (tmp_path / "src/pkg/mod.py").write_text("x = 2\n")
    assert record_bench.tree_sha256(tmp_path) != first
    (tmp_path / "src/pkg/mod.py").write_text("x = 1\n")
    assert record_bench.tree_sha256(tmp_path) == first


def test_the_learn_sweep_times_both_routes_on_fixed_inputs(tmp_path):
    # each row is one p, graph and route over fresh `sp learn` processes;
    # a complete DAG's p! orderings all win, and both routes find the same
    # minimum on the sparse one
    rows = record_bench.learn_sweep(ps=(4,), runs=2)
    assert [(r["p"], r["graph"], r["route"]) for r in rows] == [
        (4, graph, route) for graph in ("sparse", "complete") for route in ("gaussian", "cholesky")]
    for row in rows:
        assert row["errors"] == [] and row["runs"] == 2
        assert len(row["wall_s"]["values"]) == len(row["search_ms"]["values"]) == 2
        assert row["wall_s"]["q1"] <= row["wall_s"]["median"] <= row["wall_s"]["q3"]
        assert 0 < row["search_ms"]["median"] < 1000 * row["wall_s"]["median"]
        assert row["max_rss_mib"] > 0
    sparse, complete = rows[:2], rows[2:]
    assert all(r["min_edges"] == [6] and r["winners"] == [24] for r in complete)
    assert sparse[0]["min_edges"] == sparse[1]["min_edges"]
    assert len(sparse[0]["min_edges"]) == 1 and sparse[0]["min_edges"][0] < 6

    # the inputs are fixed by the seed
    for name in ("a", "b"):
        record_bench.write_covariance(tmp_path / f"{name}.csv", 6, "sparse")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
