"""Tests for the command-line harness and its record tables."""
import csv
import json
from pathlib import Path
from typing import Any

import pytest

from intfill.benchmarks import APPENDIX_RUNS
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


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("start", [0.5, 2.9], "non-integral coordinates"),
        ("start", [True, False], "cannot interpret dtype bool"),
        ("start", ["3", "1"], "cannot interpret dtype <U1"),
        ("start_pattern", [1.7], "non-integral coordinates"),
    ],
)
def test_execute_run_takes_only_starts_that_solve_takes(
    monkeypatch, key, value, message
):
    # The run spec's start follows as_int_point, as solve does: a fractional,
    # bool or string coordinate is a DomainError and nothing is solved. The
    # error names the key that held the start.
    solves = []
    monkeypatch.setattr("intfill.cli.solve_problem", lambda *a: solves.append(a))
    rec = execute_run({"problem": "booth", key: value}, {})
    assert rec["error"].startswith(f"{key}: {message}")  # no type name: a typed error
    assert rec["f_g"] is None and solves == []


def test_execute_run_solves_from_an_integral_float_start():
    rec = execute_run({"problem": "booth", "start": [2.0, 1.0]}, {})
    assert rec["error"] is None
    assert rec["x0"] == [2, 1] and all(type(v) is int for v in rec["x0"])
    ref = execute_run({"problem": "booth", "start": [2, 1]}, {})
    columns = ("f_g", "n_fu", "n_fill", "termination")
    assert [rec[c] for c in columns] == [ref[c] for c in columns]


@pytest.mark.parametrize("params", [5, [1.0], "r_max"])
def test_filled_params_that_are_not_an_object_are_a_parameter_error(params):
    with pytest.raises(ParameterError, match="filled_params must be an object"):
        config_from_dict({"filled_params": params})
    rec = execute_run({"problem": "booth", "config": {"filled_params": params}}, {})
    assert rec["error"] == f"filled_params must be an object, got {params!r}"


def test_unknown_filled_params_keys_are_a_parameter_error():
    with pytest.raises(ParameterError, match=r"unknown filled_params keys: \['foo'\]"):
        config_from_dict({"filled_params": {"r_max": 2.0, "foo": 1}})


def test_execute_run_merges_defaults_under_per_run_overrides():
    rec = execute_run(
        {"problem": "booth", "config": {"max_outer_iterations": 1}},
        {"max_outer_iterations": 2, "max_evaluations": 50000},
    )
    assert rec["error"] is None


def test_execute_run_records_malformed_count_as_parameter_error():
    rec = execute_run({"problem": "booth", "config": {"max_outer_iterations": 2.5}}, {})
    # A typed error is recorded bare; any other exception carries its type name.
    assert rec["error"] == "max_outer_iterations must be an int, got 2.5"
    assert rec["f_g"] is None


@pytest.mark.parametrize("field,name", [
    ("objective_minimizer", ["compass"]),
    ("filled_minimizer", {"a": 1}),
])
def test_execute_run_records_an_unhashable_minimizer_name_as_unknown(field, name):
    # A name that cannot be a table key is an unknown name, as for problems.
    rec = execute_run({"problem": "booth", "config": {field: name}}, {})
    assert rec["error"] == f"unknown minimizer {name!r}; known: compass, quasi-newton"
    assert rec["f_g"] is None


@pytest.mark.parametrize("name", [["booth"], {"booth": 1}, 5, None])
def test_execute_run_records_a_problem_name_that_is_not_in_the_table(name):
    rec = execute_run({"problem": name}, {})
    assert rec["error"].startswith(f"unknown problem {name!r}; known: ")
    assert rec["f_g"] is None


@pytest.mark.parametrize("config", [5, [1], 0, [], "x", None])
def test_execute_run_rejects_a_config_that_is_not_an_object(config):
    rec = execute_run({"problem": "booth", "config": config}, {})
    assert rec["error"] == f"config must be an object, got {config!r}"
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


def test_main_matrix_output_dir_is_the_flag_else_the_current_directory(
    tmp_path, monkeypatch, capsys
):
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps({"runs": [{"problem": "booth"}]}))
    monkeypatch.chdir(tmp_path)
    assert main(["matrix", str(cfg_path), "--name", "t", "--output-dir", "flag"]) == 0
    assert (tmp_path / "flag" / "t.csv").exists()
    assert (tmp_path / "flag" / "t.json").exists()
    assert not (tmp_path / "t.csv").exists()
    assert main(["matrix", str(cfg_path), "--name", "t"]) == 0
    assert (tmp_path / "t.csv").exists()
    assert (tmp_path / "t.json").exists()
    assert "hit rate: 1/1 (0 errors)" in capsys.readouterr().out


@pytest.mark.parametrize("copies", [1, 2])
def test_main_matrix_records_untyped_row_errors(tmp_path, capsys, copies):
    # Bad minimizer options, option fields, run entries that are not
    # objects and a start pattern that is not a sequence are typed errors.
    # Each row records its error and the batch goes on. All rows run in
    # one process, so a second copy of the batch must record the same
    # rows: a failed row leaves nothing behind for the rows after it.
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
        ] * copies,
    }
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["matrix", str(cfg_path), "--output-dir", str(tmp_path),
                 "--name", "bad"]) == 0
    out = capsys.readouterr().out
    assert f"hit rate: {copies}/{6 * copies} ({5 * copies} errors)" in out
    assert "None: error: run spec must be an object, got 5" in out
    all_records = read_records_csv(tmp_path / "bad.csv")
    assert len(all_records) == 6 * copies
    for copy in range(copies):
        records = all_records[6 * copy:6 * (copy + 1)]
        assert "unknown compass options ['foo']" in records[0]["error"]
        assert "quasi-newton option max_iterations" in records[1]["error"]
        assert records[2]["error"] == "start_pattern: expected a 1-d point, got shape ()"
        assert records[3]["error"] is None and records[3]["hit"] is True
        assert records[4]["error"] == "run spec must be an object, got 5"
        assert records[5]["error"] == "objective_minimizer_options must be an object, got 5"


def test_main_matrix_records_malformed_problems_and_configs(tmp_path, capsys):
    # A problem name that is not a string and a config that is not an
    # object are the run's ParameterError, recorded in its row.
    config = {
        "runs": [
            {"problem": ["booth"]},
            {"problem": "booth", "config": [1]},
            {"problem": "booth", "config": 0},
            {"problem": "booth"},
        ],
    }
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["matrix", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    assert "hit rate: 1/4 (3 errors)" in capsys.readouterr().out
    records = read_records_csv(tmp_path / "matrix.csv")
    assert records[0]["error"].startswith("unknown problem ['booth']; known: ")
    assert records[1]["error"] == "config must be an object, got [1]"
    assert records[2]["error"] == "config must be an object, got 0"
    assert records[3]["error"] is None and records[3]["hit"] is True


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


def test_main_matrix_builtin_appendix(tmp_path, monkeypatch, capsys):
    booth_row = next(row for row in APPENDIX_RUNS if row[0] == "booth")
    monkeypatch.setattr("intfill.cli.APPENDIX_RUNS", (booth_row,))
    assert main(["matrix", "--builtin", "appendix", "--output-dir", str(tmp_path)]) == 0
    assert "hit rate: 1/1 (0 errors)" in capsys.readouterr().out
    (record,) = read_records_csv(tmp_path / "matrix.csv")
    assert record["problem"] == "booth" and record["x0"] == list(booth_row[2])


def test_main_matrix_without_config_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "one of the arguments config --builtin is required" in err
    # The usage line shows the two row sources as one required choice.
    usage = "usage: intfill matrix [-h] (config | --builtin {appendix}) [--name NAME]"
    assert err.splitlines()[0] == usage + " [--output-dir OUTPUT_DIR]"


@pytest.mark.parametrize("order", ["config-first", "builtin-first"])
def test_main_matrix_rejects_a_config_with_the_builtin_batch(
    tmp_path, monkeypatch, capsys, order
):
    # The rows come from a config file or from --builtin appendix, never
    # both: the parser rejects the pair before anything is solved.
    booth_row = next(row for row in APPENDIX_RUNS if row[0] == "booth")
    monkeypatch.setattr("intfill.cli.APPENDIX_RUNS", (booth_row,))
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps({"runs": [{"problem": "leon"}]}))
    argv = [str(cfg_path), "--builtin", "appendix"]
    if order == "builtin-first":
        argv = argv[1:] + argv[:1]
    with pytest.raises(SystemExit) as exc:
        main(["matrix", *argv, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "matrix.csv").exists()
    assert not (tmp_path / "matrix.json").exists()


def test_main_matrix_has_no_jobs_option(tmp_path, capsys):
    # Rows run in order in the calling process; there is no process pool.
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text(json.dumps({"runs": [{"problem": "booth"}]}))
    with pytest.raises(SystemExit) as exc:
        main(["matrix", str(cfg_path), "--output-dir", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "matrix.csv").exists()


def test_main_matrix_missing_config_file(tmp_path, capsys):
    assert main(["matrix", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


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


def config_argv(command, cfg_path, out_dir):
    if command == "run":
        return ["run", "--problem", "booth", "--config", str(cfg_path)]
    return ["matrix", str(cfg_path), "--output-dir", str(out_dir)]


@pytest.mark.parametrize("command", ["run", "matrix"])
def test_config_nested_too_deep_for_the_json_parser_exits_2(tmp_path, capsys, command):
    # The JSON parser gives up on deep nesting with a RecursionError; the
    # file is still invalid JSON to the command, not a traceback.
    cfg_path = tmp_path / "runs.json"
    cfg_path.write_text('{"runs": ' + "[" * 5000 + "]" * 5000 + "}")
    assert main(config_argv(command, cfg_path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: invalid JSON: ")
    assert not (tmp_path / "matrix.csv").exists()


@pytest.mark.parametrize("command", ["run", "matrix"])
def test_config_path_that_is_a_directory_exits_1(tmp_path, capsys, command):
    # A config path that cannot be read ends the command as a missing one does.
    cfg_path = tmp_path / "runs.json"
    cfg_path.mkdir()
    assert main(config_argv(command, cfg_path, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert not (tmp_path / "matrix.csv").exists()


@pytest.mark.parametrize("key,value,shape", [
    ("start", 5, "()"),
    ("start", [[1, 2]], "(1, 2)"),
    ("start_pattern", 5, "()"),
    ("start_pattern", [[1, 2]], "(1, 2)"),
])
def test_execute_run_names_the_key_of_a_malformed_start(key, value, shape):
    rec = execute_run({"problem": "booth", key: value}, {})
    assert rec["error"] == f"{key}: expected a 1-d point, got shape {shape}"
    assert rec["f_g"] is None


def test_main_run_start_follows_the_run_spec_rule(capsys):
    # --start takes what a run spec's "start" takes: integral floats solve
    # from the same point, and a fractional one is the spec's DomainError.
    assert main(["run", "--problem", "booth", "--start", "1.0,2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    ref = execute_run({"problem": "booth", "start": [1.0, 2]}, {})
    assert rec["x0"] == ref["x0"] == [1, 2]
    assert [rec[c] for c in ("f_g", "n_fu", "n_fill")] == [
        ref[c] for c in ("f_g", "n_fu", "n_fill")
    ]
    assert main(["run", "--problem", "booth", "--start", "1.5,2"]) == 2
    err = capsys.readouterr().err
    spec_error = execute_run({"problem": "booth", "start": [1.5, 2]}, {})["error"]
    assert err == f"error: {spec_error}\n"
    assert spec_error.startswith("start: non-integral coordinates")


def test_main_run_non_integer_start_exits_2(capsys):
    assert main(["run", "--problem", "booth", "--start", "1,a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --start must be integers")


@pytest.mark.parametrize("start", [
    "1_000,2", "+1,2", "0x1,2", "nan,2",
    pytest.param("[" * 5000 + "]" * 5000, id="nested"),
])
def test_main_run_start_is_read_as_a_json_list(capsys, start):
    # --start is a run spec's start list without its brackets, so Python
    # spellings that JSON does not have exit 2 as they would in a spec.
    assert main(["run", "--problem", "booth", "--start", start]) == 2
    assert capsys.readouterr().err.startswith("error: --start must be integers")
