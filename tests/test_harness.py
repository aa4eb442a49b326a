"""Tests for the seeded experiment harness."""

import json
import os

import numpy as np
import pytest

from spdag import harness
from spdag.harness import (
    Cell,
    DEFAULT_ALPHAS,
    ExperimentConfig,
    GridResult,
    SkipRecord,
    TrialRecord,
    aggregate_rows,
    config_from_file,
    config_from_text,
    emit_plot_data,
    grid_cells,
    run_grid,
    run_trial,
    write_outputs,
)


def small_config(**overrides):
    base = dict(
        p_list=(4,),
        nbhd_list=(1.5,),
        n_list=(400,),
        alpha_list=(0.01,),
        trials=3,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_defaults(self):
        cfg = ExperimentConfig(p_list=(4,), nbhd_list=(1.0,))
        assert cfg.alpha_list == DEFAULT_ALPHAS
        assert cfg.methods == ("sp", "sgs", "pc")
        assert cfg.trials == 100
        assert cfg.mode == "sample"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(alpha_list=(1.5,))
        with pytest.raises(ValueError):
            small_config(nbhd_list=(0.0,))
        with pytest.raises(ValueError):
            small_config(p_list=(1,))
        with pytest.raises(ValueError):
            small_config(methods=("sp", "ges"))
        with pytest.raises(ValueError):
            small_config(mode="bootstrap")
        with pytest.raises(ValueError):
            small_config(n_list=(0,))

    @pytest.mark.parametrize("key, value", [
        ("p_list", (4.7,)), ("n_list", (100.9,)), ("p_list", (True,)), ("n_list", (False,)),
        ("nbhd_list", (True,)), ("alpha_list", (True,)),
        ("trials", 2.0), ("trials", True), ("master_seed", 1.5), ("master_seed", False),
    ])
    def test_integer_keys_take_integers_and_no_key_takes_a_bool(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            small_config(**{key: value})

    def test_integer_keys_accept_numpy_integers(self):
        cfg = small_config(p_list=(np.int64(4),), trials=np.int32(2), master_seed=np.uint8(3))
        assert (cfg.p_list, cfg.trials, cfg.master_seed) == ((4,), 2, 3)
        assert type(cfg.p_list[0]) is int

    def test_master_seed_must_be_non_negative(self):
        assert small_config(master_seed=0).master_seed == 0
        with pytest.raises(ValueError, match="^master_seed must be non-negative, got -1$"):
            small_config(master_seed=-1)

    def test_methods_canonicalized(self):
        cfg = small_config(methods=("pc", "sp", "pc"))
        assert cfg.methods == ("sp", "pc")


class TestConfigParsing:
    def test_json_text(self):
        cfg = config_from_text(
            '{"p_list": [4, 6], "nbhd_list": [1.0], "trials": 5, "mode": "oracle"}'
        )
        assert cfg.p_list == (4, 6)
        assert cfg.mode == "oracle"

    def test_key_value_text(self):
        cfg = config_from_text(
            """
            # recovery sweep
            p_list = 4, 6
            nbhd_list = 0.5, 1.5
            alpha_list = 0.01
            trials = 7
            methods = sgs, sp
            mode = gaussian-exact
            """
        )
        assert cfg.p_list == (4, 6)
        assert cfg.nbhd_list == (0.5, 1.5)
        assert cfg.trials == 7
        assert cfg.methods == ("sp", "sgs")
        assert cfg.mode == "gaussian-exact"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_text("p_list=4\nnbhd_list=1\nbudget=2")
        with pytest.raises(ValueError):
            config_from_text('{"p_list": [4], "nbhd_list": [1], "x": 1}')

    def test_text_and_json_read_every_key_alike(self):
        text = config_from_text(
            "p_list=4,6\nnbhd_list=0.5,2\nn_list=50,80\nalpha_list=0.05\n"
            "trials=3\nmaster_seed=9\nmethods=pc,sp\nmode=oracle\n"
        )
        doc = config_from_text(json.dumps(dict(
            p_list=[4, 6], nbhd_list=[0.5, 2.0], n_list=[50, 80], alpha_list=[0.05],
            trials=3, master_seed=9, methods=["pc", "sp"], mode="oracle",
        )))
        assert text == doc
        assert text.nbhd_list == (0.5, 2.0) and text.methods == ("sp", "pc")
        with pytest.raises(ValueError, match="line 2: bad value for trials"):
            config_from_text("p_list=4\ntrials=two\nnbhd_list=1")

    @pytest.mark.parametrize("key, value", [
        ("trials", "3, 4"), ("master_seed", "1,2"), ("mode", "oracle, sample"),
    ])
    def test_a_scalar_key_takes_exactly_one_value(self, key, value):
        # the JSON form refuses a list here, and the text form once kept the first
        with pytest.raises(ValueError) as err:
            config_from_text(f"p_list=4\nnbhd_list=1\n{key} = {value}\n")
        assert str(err.value) == f"line 3: bad value for {key}: {value!r}"

    @pytest.mark.parametrize("text, missing", [
        ("nbhd_list = 1", "['p_list']"),
        ('{"trials": 2}', "['p_list', 'nbhd_list']"),
    ])
    def test_missing_required_keys_are_named(self, text, missing):
        # sp simulate's tests cover a missing nbhd_list and a JSON list
        with pytest.raises(ValueError) as err:
            config_from_text(text)
        assert str(err.value) == f"missing config keys: {missing}"

    @pytest.mark.parametrize("key", ["p_list", "nbhd_list", "n_list", "alpha_list", "methods"])
    def test_an_empty_list_is_rejected_by_name(self, key):
        text = f"p_list=4\nnbhd_list=1\n{key}=\n"
        with pytest.raises(ValueError, match=f"^{key} must be a nonempty list"):
            config_from_text(text)

    @pytest.mark.parametrize("mode", ["sample", "oracle", "gaussian-exact"])
    @pytest.mark.parametrize("alpha", ["5e-324", "0", "1", "nan"])
    def test_alpha_follows_the_backend_rule_in_every_mode(self, mode, alpha):
        # 5e-324 is positive but alpha/2 underflows to 0, which the
        # Fisher-z test rejects; the config now rejects it up front
        with pytest.raises(ValueError, match="^alpha_list: "):
            config_from_text(f"p_list=4\nnbhd_list=1\nmode={mode}\nalpha_list=0.01,{alpha}\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("p_list=5\nnbhd_list=2\ntrials=2\n")
        cfg = config_from_file(path)
        assert cfg.p_list == (5,)
        assert cfg.trials == 2

    @pytest.mark.parametrize("text", [
        "p_list=5\nnbhd_list=2\ntrials=2\n",
        '{"p_list": [5], "nbhd_list": [2], "trials": 2}',
    ], ids=["key-value", "json"])
    def test_file_may_start_with_a_byte_order_mark(self, tmp_path, text):
        path = tmp_path / "grid.cfg"
        path.write_text(text, encoding="utf-8-sig")
        assert config_from_file(path) == config_from_text(text)


class TestGridCells:
    def test_product_order_and_indices(self):
        cfg = ExperimentConfig(
            p_list=(3, 4), n_list=(100,), alpha_list=(0.01,), nbhd_list=(0.5, 1.0)
        )
        cells = grid_cells(cfg)
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert cells[0] == Cell(0, 3, 100, 0.01, 0.5)
        assert cells[3] == Cell(3, 4, 100, 0.01, 1.0)


class TestTrialRecordInvariants:
    def test_sp_needs_uniqueness_flag(self):
        base = dict(
            p=4, n=100, alpha=0.01, nbhd=1.0, trial=0, seed=1,
            extra_edges=0, missing_edges=0, wall_time_ms=1.0,
        )
        with pytest.raises(ValueError):
            TrialRecord(method="sp", sp_unique_class=None, **base)
        with pytest.raises(ValueError):
            TrialRecord(method="sgs", sp_unique_class=True, **base)
        assert TrialRecord(method="sp", sp_unique_class=True, **base).skeleton_recovered
        # non-unique sp output is a failure even with a clean skeleton
        assert not TrialRecord(method="sp", sp_unique_class=False, **base).skeleton_recovered

    def test_counts_drive_recovery(self):
        base = dict(
            p=4, n=100, alpha=0.01, nbhd=1.0, trial=0, seed=1,
            method="pc", sp_unique_class=None, wall_time_ms=1.0,
        )
        assert TrialRecord(extra_edges=0, missing_edges=0, **base).skeleton_recovered
        assert not TrialRecord(extra_edges=1, missing_edges=0, **base).skeleton_recovered
        assert not TrialRecord(extra_edges=0, missing_edges=2, **base).skeleton_recovered
        with pytest.raises(ValueError):
            TrialRecord(extra_edges=-1, missing_edges=1, **base)
        with pytest.raises(ValueError):
            TrialRecord(extra_edges=0, missing_edges=-1, **base)


class TestRunTrial:
    def test_oracle_mode_recovers_everything(self):
        cfg = small_config(mode="oracle", trials=5)
        cell = grid_cells(cfg)[0]
        for trial in range(cfg.trials):
            for rec in run_trial(cfg, cell, trial):
                assert rec.skeleton_recovered
                assert rec.extra_edges == 0 and rec.missing_edges == 0

    def test_gaussian_exact_mode_recovers_generic_models(self):
        cfg = small_config(mode="gaussian-exact", trials=5)
        cell = grid_cells(cfg)[0]
        for trial in range(cfg.trials):
            assert all(r.skeleton_recovered for r in run_trial(cfg, cell, trial))

    def test_repeat_is_deterministic(self):
        cfg = small_config()
        cell = grid_cells(cfg)[0]
        a = run_trial(cfg, cell, 1)
        b = run_trial(cfg, cell, 1)
        strip = lambda r: {k: v for k, v in vars(r).items() if k != "wall_time_ms"}
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_trials_draw_distinct_seeds(self):
        cfg = small_config()
        cell = grid_cells(cfg)[0]
        seeds = {run_trial(cfg, cell, t)[0].seed for t in range(3)}
        assert len(seeds) == 3


def _strip(records):
    return [{k: v for k, v in vars(r).items() if k != "wall_time_ms"} for r in records]


class TestSkipsPerTrial:
    """run_trial applies the grid's skip rule on its own."""

    def test_capped_method_is_left_out(self):
        cfg = small_config(p_list=(4, 10), mode="oracle", trials=1)
        cell = grid_cells(cfg)[1]
        assert cell.p == 10
        assert [r.method for r in run_trial(cfg, cell, 0)] == ["sgs", "pc"]

    def test_whole_cell_skip_draws_nothing(self, monkeypatch):
        cfg = small_config(n_list=(5,))

        def no_draw(*args):
            raise AssertionError("a skipped cell drew a model")

        monkeypatch.setattr(harness, "random_sem", no_draw)
        assert run_trial(cfg, grid_cells(cfg)[0], 0) == []
        oversized = small_config(nbhd_list=(9.0,), mode="oracle")
        assert run_trial(oversized, grid_cells(oversized)[0], 0) == []

    @pytest.mark.parametrize("cfg", [
        small_config(p_list=(4, 10), mode="oracle", trials=2),
        small_config(n_list=(5, 60), trials=2),
    ], ids=["capped", "tiny-sample"])
    def test_grid_is_its_trials_in_order(self, cfg):
        res = run_grid(cfg)
        each = [r for cell in grid_cells(cfg) for t in range(cfg.trials) for r in run_trial(cfg, cell, t)]
        assert res.records and _strip(res.records) == _strip(each)

    def test_result_reads_cells_and_skips_off_its_config(self):
        cfg = small_config(p_list=(3, 13), nbhd_list=(1.0, 2.5), mode="oracle")
        res = GridResult(cfg, ())
        assert res.cells == grid_cells(cfg)
        assert [(s.p, s.nbhd, s.method) for s in res.skips] == [
            (3, 2.5, "all"), (13, 1.0, "sp"), (13, 1.0, "sgs"), (13, 1.0, "pc"),
            (13, 2.5, "sp"), (13, 2.5, "sgs"), (13, 2.5, "pc"),
        ]
        assert all(isinstance(s, SkipRecord) for s in res.skips)


class TestRunGrid:
    def test_record_shape_and_order(self):
        cfg = small_config(trials=2, methods=("pc", "sp"))
        res = run_grid(cfg)
        assert len(res.records) == 2 * 2  # trials x methods
        assert [r.method for r in res.records] == ["sp", "pc", "sp", "pc"]
        assert [r.trial for r in res.records] == [0, 0, 1, 1]

    def test_oversized_nbhd_cell_is_skipped(self):
        cfg = small_config(nbhd_list=(1.0, 9.0), mode="oracle")
        res = run_grid(cfg)
        assert any(s.method == "all" and "exceeds p-1" in s.reason for s in res.skips)
        assert all(r.nbhd == 1.0 for r in res.records)

    def test_tiny_sample_cell_is_skipped(self):
        cfg = small_config(n_list=(5,))
        res = run_grid(cfg)
        assert len(res.records) == 0
        assert any("too small" in s.reason for s in res.skips)

    def test_sp_capacity_skip_leaves_other_methods(self):
        cfg = small_config(p_list=(10,), mode="oracle", trials=1)
        res = run_grid(cfg)
        assert any(s.method == "sp" and "cap" in s.reason for s in res.skips)
        assert {r.method for r in res.records} == {"sgs", "pc"}

    def test_failure_accounting(self):
        cfg = small_config(trials=4, n_list=(60,), alpha_list=(0.1,))
        res = run_grid(cfg)
        for r in res.records:
            clean = r.extra_edges == 0 and r.missing_edges == 0
            if r.method == "sp":
                assert r.skeleton_recovered == (clean and r.sp_unique_class)
            else:
                assert r.skeleton_recovered == clean


class TestOutputs:
    def test_worker_count_never_changes_bytes(self, tmp_path):
        cfg = small_config(p_list=(3, 4), trials=2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_outputs(run_grid(cfg, workers=1), d1)
        write_outputs(run_grid(cfg, workers=3), d2)
        for name in ("trials.csv", "aggregate.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_pool_never_outnumbers_the_trials(self, monkeypatch):
        # A fork pool starts all max_workers processes on its first submit,
        # so the pool is capped at the (cell, trial) task count; a stand-in
        # executor records the size asked for and runs the tasks inline.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def runs(cfg, workers):
            return [(r.trial, r.seed, r.method) for r in run_grid(cfg, workers).records]

        # run_grid imports the executor only when it needs a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        cfg = small_config(trials=2)
        serial = runs(cfg, 1)
        assert runs(cfg, 5000) == runs(cfg, 2) == serial
        assert sizes == [2, 2]
        assert runs(small_config(trials=1), 5000) == serial[:len(serial) // 2]
        assert sizes == [2, 2]  # one task runs without a pool

    def test_trials_csv_has_no_clock(self, tmp_path):
        res = run_grid(small_config(trials=1))
        write_outputs(res, tmp_path)
        header = (tmp_path / "trials.csv").read_text().splitlines()[0]
        assert "wall_time" not in header
        timing_header = (tmp_path / "timings.csv").read_text().splitlines()[0]
        assert "wall_time_ms" in timing_header

    def test_aggregate_matches_records(self):
        cfg = small_config(trials=5, n_list=(200,))
        res = run_grid(cfg)
        rows = aggregate_rows(res)
        by_key = {(r[4], r[5]): r[6] for r in rows}
        recs = [r for r in res.records if r.method == "sp"]
        assert by_key[("sp", "recovered")] == pytest.approx(
            sum(r.skeleton_recovered for r in recs) / len(recs)
        )
        assert by_key[("sp", "extra_edges")] == pytest.approx(
            sum(r.extra_edges > 0 for r in recs) / len(recs)
        )

    def test_plot_files_per_panel(self, tmp_path):
        cfg = ExperimentConfig(
            p_list=(3, 4),
            n_list=(300,),
            alpha_list=(0.01, 0.05),
            nbhd_list=(1.0,),
            trials=1,
            master_seed=3,
        )
        res = run_grid(cfg)
        files = emit_plot_data(aggregate_rows(res), tmp_path)
        names = sorted(os.path.basename(f) for f in files)
        assert names == [
            "fig_3_300_0.01.csv",
            "fig_3_300_0.05.csv",
            "fig_4_300_0.01.csv",
            "fig_4_300_0.05.csv",
        ]
        first = (tmp_path / names[0]).read_text().splitlines()
        assert first[0] == "nbhd,method,metric,value"
        assert len(first) == 1 + 3 * 3  # methods x metrics

    def test_summary_structure(self, tmp_path):
        cfg = small_config(nbhd_list=(1.0, 9.0), trials=1, mode="oracle")
        res = run_grid(cfg)
        write_outputs(res, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config"]["p_list"] == [4]
        assert doc["record_count"] == len(res.records)
        assert doc["skipped"][0]["reason"].startswith("expected neighbourhood")
        cell_key = next(iter(doc["cells"]))
        assert "sp" in doc["cells"][cell_key]


class TestRecoveryQuality:
    def test_all_methods_do_well_at_large_n(self):
        cfg = ExperimentConfig(
            p_list=(5,),
            n_list=(10000,),
            alpha_list=(0.001,),
            nbhd_list=(2.0,),
            trials=15,
            master_seed=41,
        )
        res = run_grid(cfg)
        for m in ("sp", "sgs", "pc"):
            group = [r for r in res.records if r.method == m]
            clean = sum(
                r.extra_edges == 0 and r.missing_edges == 0 for r in group
            ) / len(group)
            assert clean >= 0.6, m
