"""Property test of the command line on small, often malformed inputs.

Every run of `learn`, `baseline`, `check` or `simulate` through cli.main
must either exit 0 with one JSON document, or exit 1 with one line that
starts with "error:". No run may raise, and none may write more than
OUTPUT_BOUND bytes. Inputs stay at p <= 4 and a few trials, so each run
takes milliseconds.
"""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from spdag.cli import ASSUMPTIONS, main
from spdag.graph import Dag
from spdag.sem import LinearSem, covariance_of

OUTPUT_BOUND = 1 << 20
FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# numbers, and what only looks like one: blanks, quotes, non-ASCII digits,
# overflow, subnormals and non-finite values
JUNK_CELLS = ["1e308", "-1e308", "1e-320", "nan", "inf", "-inf", "", " ", "x", '"1"',
              "\u0663", "1e", "0x1", "1_0", "1,2"]
# names with JSON's escaped characters, the CSV's separator and quote, or none at all
JUNK_NAMES = ['a"b', "c\\d", "\u00e9", " ", "", "e,f", "g\th"]
JUNK_LINES = ["p=0", "p = 3", "p=65", "p=99999999999", "p=-1", "p=x", "x", "1 - 2", "1 -> ",
              "0 -> 0", "0 -> 9", "-1 -> 0", "3 -> 0", "0 -> 1"]
BOM = st.sampled_from(["", "\ufeff"])


def spoil(draw, rows, junk):
    """rows (lists of fields), or, one time in three, with one field swapped for junk."""
    if rows and draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(junk))
    return rows


def csv_text(draw, rows, p):
    """A CSV of rows, perhaps under a header of names, one perhaps junk."""
    if draw(st.booleans()):
        rows = [[f"v{i}" for i in range(p)], *rows]
        spoil(draw, rows[:1], JUNK_NAMES)
    return draw(BOM) + "\n".join(map(",".join, rows)) + "\n"


@st.composite
def covariance_texts(draw, p):
    """The covariance of a small linear SEM, at times with a junk cell."""
    edges = [(j, k) for j in range(p) for k in range(j + 1, p) if draw(st.booleans())]
    weights = {e: draw(st.sampled_from([-1.0, -0.5, 0.3, 0.9])) for e in edges}
    sigma = np.asarray(covariance_of(LinearSem(Dag(p, edges), weights))).tolist()
    return csv_text(draw, spoil(draw, [list(map(repr, row)) for row in sigma], JUNK_CELLS), p)


@st.composite
def sample_texts(draw, p):
    """A few normal samples, at times too few or with a junk cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.standard_normal((draw(st.sampled_from([0, 2, p + 4, p + 8])), p)).round(3).tolist()
    return csv_text(draw, spoil(draw, [list(map(repr, row)) for row in rows], JUNK_CELLS), p)


@st.composite
def graph_texts(draw, p):
    """A DAG's file, at times with a junk header or edge line."""
    base = draw(st.integers(0, 1))
    edges = [(j + base, k + base) for j in range(p) for k in range(j + 1, p)
             if draw(st.booleans())]
    lines = [[f"p={p}"]] + [[f"{j} -> {k}"] for j, k in edges]
    return draw(BOM) + "\n".join(row[0] for row in spoil(draw, lines, JUNK_LINES)) + "\n"


@st.composite
def config_texts(draw):
    """A simulate config as key=value lines or JSON, at most one value bad."""
    good = {
        "p_list": ["2", "3", "2, 4"], "nbhd_list": ["1", "0.5, 2"], "n_list": ["20", "50"],
        "alpha_list": ["0.01", "0.05, 0.01"], "trials": ["1", "2"], "master_seed": ["0", "7"],
        "methods": ["sp", "pc", "sgs, sp", "sp, sgs, pc"],
        "mode": ["oracle", "sample", "gaussian-exact"],
    }
    bad = {
        "p_list": ["1", "0", "x", ""], "nbhd_list": ["0", "-1", "nan", "x", ""],
        "n_list": ["0", "1.5"], "alpha_list": ["0", "1", "nan", "1e-320", ""],
        "trials": ["0", "-1", "x", "1.5", "true"], "master_seed": ["-1", "x"],
        "methods": ["bogus", ""], "mode": ["bogus"], "bogus": ["1"],
    }
    # the trial count is always given, as its default would make a run slow
    keys = ["p_list", "nbhd_list", "trials"] + [k for k in good if draw(st.booleans())]
    doc = {k: draw(st.sampled_from(good[k])) for k in dict.fromkeys(keys)}
    spoilt = draw(st.sampled_from([None, None, *bad]))
    if spoilt in ("p_list", "nbhd_list") and draw(st.booleans()):
        del doc[spoilt]  # a required key left out
    elif spoilt is not None:
        doc[spoilt] = draw(st.sampled_from(bad[spoilt]))
    if draw(st.booleans()):
        return "\n".join(f"{k} = {v}" for k, v in doc.items()) + "\n"
    as_json = {}
    for k, v in doc.items():
        listed = k.endswith("_list") or k == "methods"
        try:
            as_json[k] = json.loads(f"[{v}]" if listed else v)
        except ValueError:  # words: methods are a list of them, mode is one
            as_json[k] = [x.strip() for x in v.split(",")] if listed else v
    return json.dumps(draw(st.sampled_from([as_json, as_json, [as_json], 3])))


FLAGS = {
    "--alpha": ["0.01", "0", "1", "-0.5", "nan", "inf", "1e-320"],
    "--lambda": ["0.3", "0", "-0.5", "2", "nan", "inf"],
    "--tol": ["1e-9", "0.5", "0", "-1", "1", "nan", "inf"],
}


def backend_args(draw, backends, p):
    """--backend with the input it reads, and at most one more flag."""
    backend = draw(st.sampled_from(backends))
    text = {"dsep": graph_texts, "fisher": sample_texts}.get(backend, covariance_texts)
    argv = ["--backend", backend, "--input", ("input.txt", draw(text(p)))]
    flag = draw(st.sampled_from([None, None, *FLAGS]))
    if flag is not None:
        argv += [flag, draw(st.sampled_from(FLAGS[flag]))]
    if backend == "lambda" and flag != "--lambda":
        argv += ["--lambda", "0.3"]
    return argv


def run(argv, files):
    """Write files into a fresh directory, run main there, and return
    (exit code, stdout, stderr, bytes written into the directory)."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(work, a) if a in files or a == "grid" else a for a in argv]
        # a warning would be one more line on stderr, so it fails the run; it
        # is recorded, not raised, so code that catches warnings cannot hide it
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert not caught, [str(w.message) for w in caught]
        written = 0
        for root, _, names in os.walk(os.path.join(work, "grid")):
            written += sum(os.path.getsize(os.path.join(root, n)) for n in names)
        summary = os.path.join(work, "grid", "summary.json")
        doc = open(summary, encoding="utf-8").read() if os.path.exists(summary) else None
    return code, out.getvalue(), err.getvalue(), written, doc


def split_files(argv):
    """argv with each (name, text) pair replaced by its name, and the files."""
    files = {a[0]: a[1] for a in argv if isinstance(a, tuple)}
    return [a[0] if isinstance(a, tuple) else a for a in argv], files


def assert_one_outcome(code, out, err, written):
    event(f"exit {code}")
    assert code in (0, 1), (code, err)
    assert len(out) + len(err) + written <= OUTPUT_BOUND
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


@st.composite
def json_runs(draw):
    """learn, baseline or check, writing their JSON to stdout."""
    command, p = draw(st.sampled_from(["learn", "baseline", "check"])), draw(st.integers(1, 4))
    if command == "learn":
        argv = ["learn",
                *backend_args(draw, ["dsep", "gaussian", "fisher", "lambda", "cholesky"], p)]
    elif command == "baseline":
        argv = ["baseline", "--method", draw(st.sampled_from(["sgs", "pc"])),
                *backend_args(draw, ["dsep", "gaussian", "fisher", "lambda"], p)]
    else:
        argv = ["check", "--assumption", draw(st.sampled_from(sorted(ASSUMPTIONS))),
                "--graph", ("graph.txt", draw(graph_texts(p))),
                *backend_args(draw, ["dsep", "gaussian", "fisher", "lambda"], p)]
    return argv + ["--out", "-"]


@FUZZ
@given(argv=json_runs())
def test_learn_baseline_and_check_write_one_document_or_one_error(argv):
    argv, files = split_files(argv)
    code, out, err, written, _ = run(argv, files)
    assert_one_outcome(code, out, err, written)
    if code == 0:
        json.loads(out)  # one document and nothing after it
        assert out.endswith("}\n") and err.count("\n") == 1, err


@settings(FUZZ, max_examples=30)
@given(text=config_texts(), bom=BOM)
def test_simulate_writes_its_files_or_one_error(text, bom):
    code, out, err, written, summary = run(
        ["simulate", "--config", "grid.cfg", "--out-dir", "grid"], {"grid.cfg": bom + text})
    assert_one_outcome(code, out, err, written)
    if code == 0:
        json.loads(summary)
    else:
        assert summary is None and written == 0
