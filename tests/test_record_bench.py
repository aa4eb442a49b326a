"""tools/record_bench.py names the tree it measured by a hash of its files.

The commit alone names the parent while a change is uncommitted, so the
recorder also hashes what git tracks under src/, bench/ and tools/.
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
