import errno
import json
import os

import pytest

from coverpebbling import solvability, thresholds
from coverpebbling.cli import run_cli


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def k5(tmp_path):
    return _write(tmp_path / "k5.json",
                  {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]})


@pytest.fixture
def p3(tmp_path):
    return _write(tmp_path / "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})


def test_lambda_k5(k5, capsys):
    assert run_cli(["lambda", "--graph", k5]) == 0
    assert json.loads(capsys.readouterr().out) == {"lambda": "9", "argmax": 0}


def test_lambda_disconnected_is_input_error(tmp_path, capsys):
    path = _write(tmp_path / "g.json", {"n": 2, "edges": []})
    assert run_cli(["lambda", "--graph", path]) == 65
    assert "no path" in capsys.readouterr().err


def test_solve_exit_codes_and_certificate(p3, tmp_path, capsys):
    unsolvable = _write(tmp_path / "c6.json", {"pebbles": [6, 0, 0]})
    assert run_cli(["solve", "--graph", p3, "--config", unsolvable]) == 1

    solvable = _write(tmp_path / "c7.json", {"pebbles": [7, 0, 0]})
    cert = tmp_path / "cert.json"
    assert run_cli(["solve", "--graph", p3, "--config", solvable,
                    "--certificate", str(cert)]) == 0
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["status"] == "solvable"
    assert json.loads(cert.read_text()) == {"moves": [[0, 1, 3], [1, 2, 1]]}

    assert run_cli(["verify", "--graph", p3, "--config", solvable,
                    "--certificate", str(cert)]) == 0

    tampered = _write(tmp_path / "bad.json", {"moves": [[0, 2, 1]]})
    assert run_cli(["verify", "--graph", p3, "--config", solvable,
                    "--certificate", tampered]) == 1


def test_solve_budget_exit_code(tmp_path, capsys):
    graph = _write(tmp_path / "p4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    config = _write(tmp_path / "c.json", {"pebbles": [15, 0, 0, 0]})
    assert run_cli(["solve", "--graph", graph, "--config", config, "--budget", "1"]) == 2


@pytest.mark.parametrize("budget", ["0", "-1", "ten"])
def test_solve_rejects_a_non_positive_budget(p3, tmp_path, capsys, budget):
    config = _write(tmp_path / "c.json", {"pebbles": [7, 0, 0]})
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--graph", p3, "--config", config, "--budget", budget])
    assert exc.value.code == 64
    assert "--budget" in capsys.readouterr().err


def test_solve_oracle_flag(p3, tmp_path):
    config = _write(tmp_path / "c.json", {"pebbles": [7, 0, 0]})
    assert run_cli(["solve", "--graph", p3, "--config", config, "--oracle"]) == 0
    deep = _write(tmp_path / "deep.json", {"pebbles": [2100, 0, 0]})
    assert run_cli(["solve", "--graph", p3, "--config", deep, "--oracle"]) == 0


def test_sample_deterministic_and_shaped(capsys):
    assert run_cli(["sample", "--model", "be", "--n", "4", "--t", "6",
                    "--seed", "9", "--count", "3"]) == 0
    first = capsys.readouterr().out
    lines = [json.loads(line) for line in first.strip().split("\n")]
    assert len(lines) == 3
    assert all(sum(rec["pebbles"]) == 6 and len(rec["pebbles"]) == 4 for rec in lines)
    assert run_cli(["sample", "--model", "be", "--n", "4", "--t", "6",
                    "--seed", "9", "--count", "3"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("model, expected", [
    ("mb", [[1, 2, 3, 0, 1, 2], [1, 1, 3, 1, 2, 1], [1, 0, 2, 1, 2, 3]]),
    ("be", [[5, 0, 1, 1, 1, 1], [0, 1, 0, 3, 4, 1], [2, 0, 3, 4, 0, 0]]),
])
def test_sample_streams_are_pinned(capsys, model, expected):
    # configuration i comes from the stream (seed, i); these are its draws
    assert run_cli(["sample", "--model", model, "--n", "6", "--t", "9",
                    "--seed", "7", "--count", "3"]) == 0
    assert capsys.readouterr().out == "".join(
        json.dumps({"pebbles": pebbles}) + "\n" for pebbles in expected)


@pytest.mark.parametrize("argv, option, kind", [
    (["dist", "--n", "5", "--t", "-1"], "--t", "non-negative"),
    (["dist", "--n", "-5", "--t", "3"], "--n", "positive"),
    (["dist", "--n", "0", "--t", "3"], "--n", "positive"),
    (["sample", "--model", "mb", "--n", "5", "--t", "3", "--seed", "1", "--count", "-2"],
     "--count", "non-negative"),
    (["sample", "--model", "mb", "--n", "5", "--t", "-3", "--seed", "1"], "--t", "non-negative"),
    (["sample", "--model", "be", "--n", "-5", "--t", "3", "--seed", "1"], "--n", "non-negative"),
], ids=["dist-t", "dist-n", "dist-n-zero", "sample-count", "sample-t", "sample-n"])
def test_negative_counts_are_usage_errors(capsys, argv, option, kind):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 64
    assert f"argument {option}: expected a {kind} integer" in capsys.readouterr().err


_THRESHOLD = {"--n": "4", "--t-min": "4", "--t-max": "8", "--step": "2", "--trials": "3",
              "--seed": "1"}


@pytest.mark.parametrize("option, value, kind", [
    ("--n", "0", "positive"),
    ("--step", "0", "positive"),
    ("--trials", "0", "positive"),
    ("--workers", "0", "positive"),
    ("--workers", "-3", "positive"),
    ("--t-min", "-5", "non-negative"),
    ("--t-max", "-1", "non-negative"),
])
def test_threshold_arguments_are_usage_errors(capsys, option, value, kind):
    args = {**_THRESHOLD, option: value}
    with pytest.raises(SystemExit) as exc:
        run_cli(["threshold", "--model", "mb", *(x for pair in args.items() for x in pair)])
    assert exc.value.code == 64
    assert f"argument {option}: expected a {kind} integer" in capsys.readouterr().err


def test_dist_output(capsys):
    assert run_cli(["dist", "--n", "2", "--t", "2", "--x", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2/3"
    assert run_cli(["dist", "--n", "2", "--t", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == ["0", "2/3", str(2 / 3)]
    assert lines[1].startswith("2 1/3")


def test_threshold_csv_and_worker_identity(tmp_path):
    args = ["threshold", "--model", "mb", "--n", "20", "--t-min", "25", "--t-max", "40",
            "--step", "5", "--trials", "80", "--seed", "3", "--crossing"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "model,n,t,trials,solvable_count,p_hat,seed"
    assert len(lines) == 1 + 4 + 1


def test_reduce_roundtrips_into_solve(tmp_path, capsys):
    instance = _write(tmp_path / "x.json", {
        "ground_set_size": 8,
        "sets": [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]],
    })
    graph_out = tmp_path / "g.json"
    config_out = tmp_path / "c.json"
    assert run_cli(["reduce", "--instance", instance,
                    "--out-graph", str(graph_out), "--out-config", str(config_out)]) == 0
    assert run_cli(["solve", "--graph", str(graph_out), "--config", str(config_out)]) == 0
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["status"] == "solvable"


def test_xcover(tmp_path, capsys):
    instance = _write(tmp_path / "x.json", {
        "ground_set_size": 8,
        "sets": [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]],
    })
    assert run_cli(["xcover", "--instance", instance]) == 0
    assert capsys.readouterr().out.strip() == "0 2"
    no_cover = _write(tmp_path / "y.json", {
        "ground_set_size": 8,
        "sets": [[0, 1, 2, 3], [3, 4, 5, 6], [0, 5, 6, 7]],
    })
    assert run_cli(["xcover", "--instance", no_cover]) == 1
    assert capsys.readouterr().out.strip() == "none"


def test_gen_families(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli(["gen", "--family", "qd", "--d", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 8 and len(data["edges"]) == 12

    assert run_cli(["gen", "--family", "kmulti", "--parts", "3,2,2",
                    "--out", str(out)]) == 0
    assert run_cli(["lambda", "--graph", str(out)]) == 0
    assert json.loads(capsys.readouterr().out.strip().split("\n")[-1])["lambda"] == "17"

    assert run_cli(["gen", "--family", "tree", "--n", "12", "--seed", "4",
                    "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["edges"]) == 11

    assert run_cli(["gen", "--family", "gnp", "--n", "6", "--p", "0.5", "--seed", "1",
                    "--out", str(out)]) == 0


def test_gen_missing_parameter_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--family", "kmulti", "--out", str(tmp_path / "g.json")])
    assert exc.value.code == 64
    assert "--parts" in capsys.readouterr().err


@pytest.mark.parametrize("parts", ["3,x", "2.5,1"])
def test_gen_parts_must_be_positive_integers(tmp_path, capsys, parts):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--family", "kmulti", "--parts", parts, "--out", str(tmp_path / "g")])
    assert exc.value.code == 64
    assert "argument --parts: expected a positive integer" in capsys.readouterr().err


def test_gen_names_every_missing_parameter(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--family", "tree", "--out", str(tmp_path / "g.json")])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "--n" in err and "--seed" in err


def test_usage_errors_exit_64():
    for argv in (["lambda"], ["solve", "--graph"], ["nosuchcommand"], []):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 64


def test_input_errors_exit_65(tmp_path, capsys):
    assert run_cli(["lambda", "--graph", str(tmp_path / "missing.json")]) == 65
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["lambda", "--graph", str(bad)]) == 65
    malformed = _write(tmp_path / "m.json", {"n": 2, "edges": [[0, 5]]})
    assert run_cli(["lambda", "--graph", malformed]) == 65
    capsys.readouterr()


_P3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
_BAD_GRAPHS = {
    "edges-flat": {"n": 2, "edges": [0, 1]},
    "edges-null": {"n": 2, "edges": None},
    "edge-float": {"n": 2, "edges": [[0.7, 1]]},
    "n-float": {"n": 2.5, "edges": [[0, 1]]},
}
_BAD_INPUTS = {
    "pebbles-null": ("solve", _P3, {"pebbles": None}),
    "pebbles-float": ("solve", _P3, {"pebbles": [1.5, 0, 4]}),
    **{f"solve-{k}": ("solve", g, {"pebbles": [3, 0]}) for k, g in _BAD_GRAPHS.items()},
    **{f"lambda-{k}": ("lambda", g, None) for k, g in _BAD_GRAPHS.items()},
}


@pytest.mark.parametrize("command, graph, config", _BAD_INPUTS.values(), ids=list(_BAD_INPUTS))
def test_non_integer_input_is_rejected_not_truncated(tmp_path, capsys, command, graph, config):
    argv = [command, "--graph", _write(tmp_path / "g.json", graph)]
    if config is not None:
        argv += ["--config", _write(tmp_path / "c.json", config)]
    assert run_cli(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_non_integer_certificate_and_instance_are_rejected(p3, tmp_path, capsys):
    config = _write(tmp_path / "c.json", {"pebbles": [7, 0, 0]})
    certificate = _write(tmp_path / "m.json", {"moves": [[0.7, 1, 3], [1, 2, 1]]})
    assert run_cli(["verify", "--graph", p3, "--config", config,
                    "--certificate", certificate]) == 65
    instance = _write(tmp_path / "x.json", {"ground_set_size": 8.5,
                                            "sets": [[0, 1, 2, 3], [4, 5, 6, 7]]})
    assert run_cli(["xcover", "--instance", instance]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 2


@pytest.mark.parametrize("argv", [
    ["threshold", "--model", "mb", "--n", "4", "--t-min", "10", "--t-max", "5", "--step", "1",
     "--trials", "2", "--seed", "1"],
    ["gen", "--family", "cn", "--n", "2"],
    ["gen", "--family", "kmulti", "--parts", "1,2"],
    ["gen", "--family", "gnp", "--n", "4", "--p", "1.5", "--seed", "1"],
    ["sample", "--model", "mb", "--n", "0", "--t", "3", "--seed", "1"],
], ids=["threshold-t-range", "gen-cn", "gen-kmulti", "gen-gnp", "sample-n"])
def test_option_values_the_library_rejects_are_usage_errors(tmp_path, capsys, argv):
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "g.json")]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 64
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "g.json").exists()


def test_unwritable_output_paths_are_usage_errors(p3, tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out.json")
    config = _write(tmp_path / "c.json", {"pebbles": [7, 0, 0]})
    instance = _write(tmp_path / "x.json", {
        "ground_set_size": 8,
        "sets": [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]],
    })
    for argv in (
        ["gen", "--family", "qd", "--d", "2", "--out", missing],
        ["threshold", "--model", "mb", "--n", "4", "--t-min", "4", "--t-max", "6", "--step", "2",
         "--trials", "2", "--seed", "1", "--out", missing],
        ["solve", "--graph", p3, "--config", config, "--certificate", missing],
        ["reduce", "--instance", instance, "--out-graph", missing,
         "--out-config", str(tmp_path / "c2.json")],
        ["reduce", "--instance", instance, "--out-graph", str(tmp_path / "g2.json"),
         "--out-config", missing],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 64
        assert f"error: cannot write {missing}" in capsys.readouterr().err


def test_output_paths_are_checked_before_the_work(p3, tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(thresholds, "sweep", work)
    monkeypatch.setattr(solvability, "solve", work)
    config = _write(tmp_path / "c.json", {"pebbles": [7, 0, 0]})
    a_file = _write(tmp_path / "file.txt", "")
    commands = (
        (["threshold", "--model", "be", "--n", "1000", "--t-min", "1400", "--t-max", "1650",
          "--step", "50", "--trials", "2000", "--seed", "1"], "--out"),
        (["solve", "--graph", p3, "--config", config], "--certificate"),
    )
    unwritable = (
        (str(tmp_path / "no-such-dir" / "out"), errno.ENOENT),
        (str(tmp_path), errno.EISDIR),
        (os.path.join(a_file, "out"), errno.ENOTDIR),
    )
    for argv, option in commands:
        for path, code in unwritable:
            with pytest.raises(SystemExit) as exc:
                run_cli(argv + [option, path])
            assert exc.value.code == 64
            assert capsys.readouterr().err == f"error: cannot write {path}: {os.strerror(code)}\n"
        # a writable path is neither created nor truncated before the work is done
        kept = tmp_path / "kept"
        kept.write_text("old\n")
        fresh = tmp_path / "fresh"
        for path in (kept, fresh):
            with pytest.raises(AssertionError, match="the work ran"):
                run_cli(argv + [option, str(path)])
        assert kept.read_text() == "old\n" and not fresh.exists()
