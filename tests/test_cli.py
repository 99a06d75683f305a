"""Tests for the command-line harness and its record tables."""
import json

import pytest

from intfill.cli import (
    HIT_TOLERANCE,
    RECORD_FIELDS,
    config_from_dict,
    execute_run,
    main,
    read_records_csv,
    write_csv,
    write_json,
)
from intfill.core import ParameterError
from intfill.filled import FilledParams
from intfill.solver import SolverConfig


# ---------------------------------------------------------------- config


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(None)
    assert cfg == SolverConfig()
    cfg = config_from_dict({"max_outer_iterations": 1, "max_evaluations": 500})
    assert cfg.max_outer_iterations == 1
    assert cfg.max_evaluations == 500


def test_config_from_dict_builds_filled_params():
    cfg = config_from_dict({"filled_params": {"r_max": 2.0, "r_min": 0.5}})
    assert cfg.filled_params == FilledParams(r_max=2.0, r_min=0.5)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        config_from_dict({"max_outer_iters": 3})
    # Every outer round restarts from the incumbent; there is no revisit knob.
    with pytest.raises(ParameterError, match="revisit_limit"):
        config_from_dict({"revisit_limit": 2})


# ---------------------------------------------------------------- execute_run


def test_execute_run_booth_record():
    rec = execute_run({"problem": "booth"}, {})
    assert set(rec) == set(RECORD_FIELDS)
    assert rec["error"] is None
    assert rec["problem"] == "booth"
    assert rec["n"] == 2
    assert rec["x0"] == [0, 0]
    assert rec["ff"] == "inverse-square"
    assert rec["f_g"] == 0.0
    assert rec["hit"] is True
    assert rec["termination"] == "max_iterations"
    assert rec["n_fu"] > 0 and rec["n_fill"] > 0
    assert rec["wall_time"] > 0


def test_execute_run_start_pattern_and_config():
    rec = execute_run(
        {
            "problem": "rastrigin",
            "n": 4,
            "start_pattern": [-5, 5],
            "config": {"max_evaluations": 100000},
        },
        {},
    )
    assert rec["error"] is None
    assert rec["x0"] == [-5, 5, -5, 5]
    assert rec["f_g"] == 0.0


def test_execute_run_error_is_captured_not_raised():
    rec = execute_run({"problem": "no-such-problem"}, {})
    assert rec["error"] is not None
    assert rec["f_g"] is None and rec["hit"] is None
    rec = execute_run({"problem": "booth", "start": [0, 0], "start_pattern": [0]}, {})
    assert "not both" in rec["error"]
    rec = execute_run({"problem": "booth", "bogus": 1}, {})
    assert "unknown run keys" in rec["error"]
    rec = execute_run({"problem": "booth", "filled_function": "nope"}, {})
    assert "unknown run keys" in rec["error"]


def test_execute_run_merges_defaults_under_per_run_overrides():
    rec = execute_run(
        {"problem": "booth", "config": {"max_outer_iterations": 1}},
        {"max_outer_iterations": 2, "max_evaluations": 50000},
    )
    assert rec["error"] is None


def test_hit_tolerance_is_tight():
    assert HIT_TOLERANCE == 1e-9


# ---------------------------------------------------------------- tables


def make_records():
    return [
        execute_run({"problem": "booth"}, {}),
        execute_run({"problem": "leon"}, {}),
        execute_run({"problem": "no-such-problem"}, {}),
    ]


def test_csv_roundtrip_is_exact(tmp_path):
    records = make_records()
    path = tmp_path / "out.csv"
    write_csv(records, path)
    back = read_records_csv(path)
    assert back == records


def test_json_matches_records(tmp_path):
    records = make_records()
    path = tmp_path / "out.json"
    write_json(records, path)
    loaded = json.loads(path.read_text())
    assert loaded == [{f: r[f] for f in RECORD_FIELDS} for r in records]


# ---------------------------------------------------------------- entry point


def test_main_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "booth" in out and "salomon" in out
    assert len(out.strip().splitlines()) == 12


def test_main_run_emits_record_json(capsys):
    assert main(["run", "--problem", "booth"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["f_g"] == 0.0 and rec["hit"] is True


def test_main_run_with_explicit_start(capsys):
    assert main(["run", "--problem", "rastrigin", "--n", "2",
                 "--start=-1,-1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["x0"] == [-1, -1]
    assert rec["f_g"] == 0.0


def test_main_run_bad_problem_exits_nonzero(capsys):
    assert main(["run", "--problem", "zebra"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_oracle(capsys):
    assert main(["oracle", "--problem", "booth"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"problem": "booth", "n": 2, "minimizer": [1, 3], "value": 0.0}


def test_main_matrix_from_config(tmp_path, capsys):
    config = {
        "defaults": {"max_evaluations": 100000},
        "runs": [
            {"problem": "booth"},
            {"problem": "rastrigin", "n": 2, "start_pattern": [-1]},
            {"problem": "unknown-problem"},
        ],
    }
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["matrix", str(cfg_path), "--output-dir", str(tmp_path),
                 "--name", "demo"]) == 0
    out = capsys.readouterr().out
    assert "hit rate: 2/3 (1 errors)" in out
    records = read_records_csv(tmp_path / "demo.csv")
    assert [r["problem"] for r in records] == [
        "booth", "rastrigin", "unknown-problem",
    ]
    assert records[0]["hit"] is True and records[1]["hit"] is True
    assert records[2]["error"] is not None
    assert (tmp_path / "demo.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_matrix_records_untyped_row_errors(tmp_path, capsys, jobs):
    # A bad minimizer option raises TypeError inside the solve; the row
    # records it and the batch goes on.
    config = {
        "runs": [
            {"problem": "booth", "config": {"filled_minimizer_options": {"foo": 1}}},
            {"problem": "booth", "config": {"objective_minimizer_options": {"grad_step": "x"}}},
            {"problem": "booth"},
        ],
    }
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["matrix", str(cfg_path), "--output-dir", str(tmp_path),
                 "--name", "bad", "--jobs", jobs]) == 0
    assert "hit rate: 1/3 (2 errors)" in capsys.readouterr().out
    records = read_records_csv(tmp_path / "bad.csv")
    assert [r["error"].split(":")[0] for r in records[:2]] == ["TypeError"] * 2
    assert "foo" in records[0]["error"]
    assert records[2]["error"] is None and records[2]["hit"] is True


def test_main_matrix_deterministic_tables(tmp_path):
    config = {"runs": [{"problem": "booth"}, {"problem": "three-hump-camel"}]}
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    main(["matrix", str(cfg_path), "--output-dir", str(tmp_path), "--name", "a"])
    main(["matrix", str(cfg_path), "--output-dir", str(tmp_path), "--name", "b"])
    a = read_records_csv(tmp_path / "a.csv")
    b = read_records_csv(tmp_path / "b.csv")
    for ra, rb in zip(a, b):
        ra.pop("wall_time"), rb.pop("wall_time")
    assert a == b


def test_main_matrix_without_config_errors(capsys):
    assert main(["matrix"]) == 2
    assert "config file" in capsys.readouterr().err


def test_main_matrix_missing_config_file(tmp_path, capsys):
    assert main(["matrix", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_main_matrix_parallel_preserves_order_and_results(tmp_path):
    config = {"runs": [{"problem": "booth"}, {"problem": "leon"}]}
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    main(["matrix", str(cfg_path), "--output-dir", str(tmp_path), "--name", "seq"])
    main(["matrix", str(cfg_path), "--output-dir", str(tmp_path), "--name", "par",
          "--jobs", "2"])
    seq = read_records_csv(tmp_path / "seq.csv")
    par = read_records_csv(tmp_path / "par.csv")
    for rs, rp in zip(seq, par):
        rs.pop("wall_time"), rp.pop("wall_time")
    assert seq == par
