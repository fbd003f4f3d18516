"""Command line behaviour: exit codes, report determinism, file formats."""

import csv
import json

import pytest

from gqupir.cli import main
from gqupir.harness import build_family, run_analyze, run_simulate


def run_cli(*argv):
    return main(list(argv))


def test_construct_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "w33.json"
    assert run_cli("construct", "--family", "w3", "--q", "3", "--out", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_users"] == 40 and summary["s"] == 3 and summary["t"] == 3

    assert run_cli("verify", "--in", str(out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["s"] == 3


def test_construct_bad_order_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli("construct", "--family", "w3", "--q", "6", "--out", str(out)) == 2
    assert run_cli("construct", "--family", "w3", "--q", "16", "--out", str(out)) == 2
    assert not out.exists()


def test_verify_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "w32.json"
    assert run_cli("construct", "--family", "w3", "--q", "2", "--out", str(out)) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["blocks"][0] = data["blocks"][1]  # duplicate one line
    out.write_text(json.dumps(data))
    assert run_cli("verify", "--in", str(out)) == 1


@pytest.mark.parametrize("data,field", [
    ({"family": "w3", "blocks": [[0, 1]]}, "points"),
    ({"family": "w3", "points": [0, 1]}, "blocks"),
    ({"family": "w3", "points": [0, 1], "blocks": [0, 1]}, "blocks"),
    ({"family": "w3", "points": "01", "blocks": [[0, 1]]}, "points"),
])
def test_malformed_geometry_file_is_config_error(tmp_path, capsys, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli("verify", "--in", str(path)) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert run_cli("analyze", "--in", str(path), "--protocol", "2",
                   "--coalition", "0") == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_analyze_stdout_and_epsilon_gate(tmp_path, capsys):
    code = run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["giant"] == 27 and report["residue"] == 13
    assert report["epsilon_star"] == pytest.approx(0.3047, abs=1e-4)

    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", "--epsilon", "0.25") == 0
    capsys.readouterr()
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", "--epsilon", "0.5") == 1


def test_analyze_geometry_file_input(tmp_path, capsys):
    out = tmp_path / "q43.json"
    run_cli("construct", "--family", "q4", "--q", "3", "--out", str(out))
    capsys.readouterr()
    code = run_cli("analyze", "--in", str(out), "--protocol", "1",
                   "--coalition", "0")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degenerate"] is True
    assert report["epsilon_star"] == 0.0


def test_analyze_config_errors(capsys):
    # both geometry forms at once
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--in", "x.json",
                   "--protocol", "2", "--coalition", "0") == 2
    # placed coalition without a seed
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition-size", "2") == 2
    # coalition member out of range
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "99") == 2
    # both coalition forms
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", "--coalition-size", "2") == 2


def test_analyze_report_bytes_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["analyze", "--family", "w3", "--q", "3", "--protocol", "2",
            "--coalition-size", "2", "--placement", "spread", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_report_and_transcript(tmp_path, capsys):
    out = tmp_path / "sim.json"
    prefix = tmp_path / "run"
    code = run_cli("simulate", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", "--topics", "3", "--queries", "400",
                   "--seed", "5", "--transcript", str(prefix),
                   "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["topics"] == 3 and report["sound"] is True
    assert len(report["per_topic"]) == 3
    for entry in report["per_topic"]:
        assert entry["source"] in entry["candidates"]

    log = tmp_path / "run.jsonl"
    truth = tmp_path / "run.truth.json"
    assert log.exists() and truth.exists()
    side = json.loads(truth.read_text())
    assert side["protocol"] == 2 and len(side["topics"]) == 3
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert [d["seq"] for d in lines] == list(range(len(lines)))
    assert {d["topic"] for d in lines} == set(side["topics"])


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sim.json"
    prefix = tmp_path / "run"
    argv = ["simulate", "--family", "w3", "--q", "3", "--protocol", "1",
            "--coalition", "7", "--topics", "2", "--queries", "300",
            "--seed", "42", "--transcript", str(prefix), "--out", str(out)]
    assert main(argv) == 0
    first = (out.read_bytes(), (tmp_path / "run.jsonl").read_bytes(),
             (tmp_path / "run.truth.json").read_bytes())
    assert main(argv) == 0
    second = (out.read_bytes(), (tmp_path / "run.jsonl").read_bytes(),
              (tmp_path / "run.truth.json").read_bytes())
    assert first == second


def test_simulate_relay_metadata_needs_one_topic(capsys):
    assert run_cli("simulate", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", "--topics", "2", "--seed", "1",
                   "--relay-metadata") == 2


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "w3,q4", "--q", "3", "--protocol", "2",
                 "--coalition-size", "1,2", "--placement", "random,spread",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        assert row["family"] in ("w3", "q4")
        assert int(row["within_bound"]) == 1
        assert int(row["residue"]) == 40 - int(row["giant"])
        members = [int(x) for x in row["coalition"].split()]
        assert len(members) == int(row["coalition_size"])

    again = tmp_path / "sweep2.csv"
    main(["sweep", "--family", "w3,q4", "--q", "3", "--protocol", "2",
          "--coalition-size", "1,2", "--placement", "random,spread",
          "--seed", "3", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_sweep_rejects_planes(capsys):
    assert main(["sweep", "--family", "pg2", "--q", "3", "--protocol", "2",
                 "--coalition-size", "1", "--placement", "random",
                 "--seed", "0"]) == 2


def test_library_entry_points_match_cli(tmp_path):
    geom = build_family("w3", 3)
    report, ok = run_analyze(geom, "w3", 3, 2, (0,))
    assert ok and report["giant"] == 27

    report, ok = run_simulate(geom, "w3", 3, 1, (0,), 2, 200, seed=9)
    assert ok
    assert report["per_topic"][0]["rounds"] <= 200


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
