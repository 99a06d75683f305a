"""Tests for the command-line harness and its record tables."""
import csv
import json
from pathlib import Path
from typing import Any

import pytest

from intfill.cli import (
    HIT_TOLERANCE,
    RECORD_FIELDS,
    config_from_dict,
    execute_run,
    main,
    write_csv,
    write_json,
)
from intfill.core import ParameterError
from intfill.filled import FilledParams
from intfill.solver import SolverConfig


def read_records_csv(path: Path) -> list[dict[str, Any]]:
    """Parse an emitted CSV back into typed records (round-trip exact)."""
    out: list[dict[str, Any]] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rec: dict[str, Any] = {}
            for field in RECORD_FIELDS:
                raw = row[field]
                if raw == "":
                    rec[field] = None
                elif field in ("n", "n_fu", "n_fill"):
                    rec[field] = int(raw)
                elif field in ("f_g", "wall_time", "known_value"):
                    rec[field] = float(raw)
                elif field == "hit":
                    rec[field] = raw == "true"
                elif field == "x0":
                    rec[field] = json.loads(raw)
                else:
                    rec[field] = raw
            out.append(rec)
    return out


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


def test_execute_run_without_a_problem_is_an_error():
    rec = execute_run({"start": [0, 0]}, {})
    assert rec["error"] == "run spec needs a 'problem' name"
    assert rec["problem"] is None and rec["f_g"] is None


def test_execute_run_names_a_start_outside_int64():
    rec = execute_run({"problem": "booth", "start": [2**64 - 1, 0]}, {})
    assert "18446744073709551615" in rec["error"]
    assert "does not fit in int64" in rec["error"]
    assert rec["f_g"] is None


def test_execute_run_merges_defaults_under_per_run_overrides():
    rec = execute_run(
        {"problem": "booth", "config": {"max_outer_iterations": 1}},
        {"max_outer_iterations": 2, "max_evaluations": 50000},
    )
    assert rec["error"] is None


def test_execute_run_records_malformed_count_as_parameter_error():
    rec = execute_run({"problem": "booth", "config": {"max_outer_iterations": 2.5}}, {})
    # A typed error is recorded bare; any other exception carries its type name.
    assert rec["error"] == "max_outer_iterations must be an int >= 1, got 2.5"
    assert rec["f_g"] is None


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


def test_main_matrix_output_dir_falls_back_to_the_environment(
    tmp_path, monkeypatch, capsys
):
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps({"runs": [{"problem": "booth"}]}))
    monkeypatch.chdir(tmp_path)  # the last fallback, which must stay unused
    monkeypatch.setenv("INTFILL_OUTPUT_DIR", str(tmp_path / "env"))
    assert main(["matrix", str(cfg_path), "--name", "t"]) == 0
    assert (tmp_path / "env" / "t.csv").exists()
    assert (tmp_path / "env" / "t.json").exists()
    # --output-dir wins over the environment.
    assert main(["matrix", str(cfg_path), "--name", "t", "--output-dir", "flag"]) == 0
    assert (tmp_path / "flag" / "t.csv").exists()
    assert not (tmp_path / "t.csv").exists()
    assert "hit rate: 1/1 (0 errors)" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_matrix_records_untyped_row_errors(tmp_path, capsys, jobs):
    # Bad minimizer options, option fields and run entries that are not
    # objects are typed errors; a start pattern that is not a sequence
    # raises TypeError inside the run. Each row records its error and the
    # batch goes on.
    filled_options = {"filled_minimizer_options": {"foo": 1}}
    objective_options = {"objective_minimizer_options": {"max_iterations": "x"}}
    config = {
        "runs": [
            {"problem": "booth", "config": filled_options},
            {"problem": "booth", "config": objective_options},
            {"problem": "booth", "start_pattern": 5},
            {"problem": "booth"},
            5,
            {"problem": "booth", "config": {"objective_minimizer_options": 5}},
        ],
    }
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["matrix", str(cfg_path), "--output-dir", str(tmp_path),
                 "--name", "bad", "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert "hit rate: 1/6 (5 errors)" in out
    assert "None: error: run spec must be an object, got 5" in out
    records = read_records_csv(tmp_path / "bad.csv")
    assert "unknown compass options ['foo']" in records[0]["error"]
    assert "quasi-newton option max_iterations" in records[1]["error"]
    assert records[2]["error"] == "TypeError: 'int' object is not iterable"
    assert records[3]["error"] is None and records[3]["hit"] is True
    assert records[4]["error"] == "run spec must be an object, got 5"
    assert records[5]["error"] == "objective_minimizer_options must be an object, got 5"


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


@pytest.mark.parametrize("command", ["run", "matrix"])
@pytest.mark.parametrize(
    "text,message",
    [
        (b'{"runs": [', "invalid JSON"),
        (b"\xff\xfe{}", "invalid JSON"),
        (b"[]", "the top level must be an object"),
        (b'{"defaults": [1]}', "'defaults' must be an object"),
        (b'{"runs": 5}', "'runs' must be a list"),
    ],
    ids=["invalid-json", "not-utf8", "top-level-list", "defaults-list", "runs-int"],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, command, text, message):
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_bytes(text)
    argv = ["matrix", str(cfg_path), "--output-dir", str(tmp_path)]
    if command == "run":
        argv = ["run", "--problem", "booth", "--config", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "matrix.csv").exists()


def test_main_run_non_integer_start_exits_2(capsys):
    assert main(["run", "--problem", "booth", "--start", "1,a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --start must be integers")
