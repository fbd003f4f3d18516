"""Command line behaviour: exit codes, report determinism, file formats."""

import csv
import hashlib
import json

import pytest

from gqupir import adversary
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
    assert run_cli("construct", "--family", "w3", "--q", "257", "--out", str(out)) == 2
    # a huge order stops at the field-order cap, before any point is built
    assert run_cli("construct", "--family", "pg2", "--q", "1000003",
                   "--out", str(out)) == 2
    assert not out.exists()


# SHA-256 of construct's geometry file for orders past the brute-force
# builder oracle of test_geometry.py.  A change to any of these files must
# show up here and be recorded as such.
GOLDEN_GEOMETRY = {
    ("pg2", 4): "1cf7db9df0e09b2828dd80b94503e58916f44c917b9456a960e4d1015b922b6e",
    ("pg2", 9): "38eaaf1c7b56248c1dea1bb70e7e54b4e6536299d34942f5d5adee39afcc4118",
    ("w3", 7): "d01c4c11226659956547806d943bf041e01bafe7c94bbc4fb569abd2d8c98573",
    ("w3", 8): "da87146167c808a458de0eca18567b65caf49442cf02ff23cd84258640cd2f1d",
    ("w3", 9): "2ea13b696ff7d0816dab02c9a9d13d52e016b2aab2537ba78c4cda4041eafb7a",
    ("q4", 7): "dc70c344b72d0c38661abd1094cc204969a88fa0b7ffc7d0cc94e6de2d182c35",
    ("q4", 8): "748974d0558c188d83beb6d5e71a2657e76a171c9dca2dd25912a12ba6241e09",
    ("q4", 9): "8be23005ff445553cc6a7390d2a3e64c8153cc8f08f44810b56603aff486f009",
}


@pytest.mark.parametrize("family,q", list(GOLDEN_GEOMETRY))
def test_construct_file_matches_golden_digest(tmp_path, capsys, family, q):
    out = tmp_path / "geom.json"
    assert run_cli("construct", "--family", family, "--q", str(q),
                   "--out", str(out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_GEOMETRY[family, q]


# SHA-256 of construct's and verify's stdout for a quadrangle and a plane,
# which verify reports by order (s, t) and by q.  The digests were taken
# before reports were written by geometry._dumps.
GOLDEN_STDOUT = {
    ("w3", 3): ("9dce9cc7b7ae4429ff4ca744fbe4fd2d7317efe7aac4626cc4cb07c54de99343",
                "106e57d009518a1cd8203e9080e8dd0ba9c577a4cd48c3fc8fe711eb9ada31d7"),
    ("pg2", 4): ("d978c20756700975a29080495a72867fe4a9de37c8c7ea4715662ad228fc4fc4",
                 "477557a31e8f9fc5a430e9afe94b0e5883fc3d3369ead0a2609c0fe0cedcc6b8"),
}


@pytest.mark.parametrize("family,q", list(GOLDEN_STDOUT))
def test_construct_and_verify_stdout_match_golden_digests(
        tmp_path, monkeypatch, capsys, family, q):
    monkeypatch.chdir(tmp_path)  # the summary names its file as given
    out = f"{family}.json"
    assert run_cli("construct", "--family", family, "--q", str(q),
                   "--out", out) == 0
    construct = capsys.readouterr().out
    assert run_cli("verify", "--in", out) == 0
    verify = capsys.readouterr().out
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (construct, verify)) == GOLDEN_STDOUT[family, q]


def test_verify_rejects_tampered_file(tmp_path, capsys):
    out = tmp_path / "w32.json"
    assert run_cli("construct", "--family", "w3", "--q", "2", "--out", str(out)) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["blocks"][0] = data["blocks"][1]  # duplicate one line
    out.write_text(json.dumps(data))
    assert run_cli("verify", "--in", str(out)) == 1


@pytest.mark.parametrize("family,claims", [
    ("w3", {"q": 7}),
    ("w3", {"s": 3, "t": 3}),
    ("pg2", {"s": 9, "t": 5}),
    ("pg2", {"q": 3}),
    ("pg2", {"t": 2}),
])
def test_verify_checks_every_order_field(tmp_path, capsys, family, claims):
    out = tmp_path / f"{family}.json"
    assert run_cli("construct", "--family", family, "--q", "2",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    data.update(claims)
    out.write_text(json.dumps(data))
    for command in (("verify",), ("analyze", "--protocol", "2",
                                  "--coalition", "0")):
        capsys.readouterr()
        assert run_cli(*command, "--in", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid: file claims" in captured.err


@pytest.mark.parametrize("data,message", [
    ({"family": "w3", "blocks": [[0, 1]]}, "'points'"),
    ({"family": "w3", "points": [0, 1]}, "'blocks'"),
    ({"family": "w3", "points": [0, 1], "blocks": [0, 1]}, "'blocks'"),
    ({"family": "w3", "points": "01", "blocks": [[0, 1]]}, "'points'"),
    ({"family": "pg2", "q": "2", "points": [0, 1], "blocks": [[0, 1]]}, "'q'"),
    ({"family": "w3", "s": 1.0, "points": [0, 1], "blocks": [[0, 1]]}, "'s'"),
    ({"family": "w3", "t": "2", "points": [0, 1], "blocks": [[0, 1]]}, "'t'"),
    ({"family": ["pg2"], "points": [0, 1], "blocks": [[0, 1]]}, "'family'"),
    # JSON booleans are not point ids, though true == 1
    ({"family": "w3", "points": [False, True], "blocks": [[0, 1]]}, "'points'"),
    ({"family": "w3", "points": [0, 1], "blocks": [[0, True]]}, "'blocks'"),
    # text, not an object: json.dumps cannot write this nesting
    pytest.param('{"points": ' + "[" * 200_000 + "]" * 200_000
                 + ', "blocks": []}', "nests JSON too deeply",
                 id="deep-nesting"),
])
def test_malformed_geometry_file_is_config_error(tmp_path, capsys, data,
                                                 message):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert run_cli("verify", "--in", str(path)) == 2
    assert message in capsys.readouterr().err
    assert run_cli("analyze", "--in", str(path), "--protocol", "2",
                   "--coalition", "0") == 2
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("family,q,epsilon", [("pg2", 2, "0.01"),
                                              ("q4", 3, "0.001")])
def test_epsilon_gate_fails_when_every_class_is_a_singleton(capsys, family, q,
                                                            epsilon):
    # the plaintext protocol resolves every user here, so epsilon* is 0 and
    # no positive epsilon holds
    assert run_cli("analyze", "--family", family, "--q", str(q),
                   "--protocol", "1", "--coalition", "0",
                   "--epsilon", epsilon) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["degenerate"] is True and report["epsilon_star"] == 0.0
    assert report["secure"] is False
    assert captured.err == (
        f"claim failed: epsilon* 0.0 is below epsilon {epsilon}\n")


def test_axiom_violating_file_exits_1(tmp_path, capsys):
    path = tmp_path / "w33.json"
    run_cli("construct", "--family", "w3", "--q", "3", "--out", str(path))
    data = json.loads(path.read_text())
    blocks = data["blocks"]
    assert blocks[0] == [0, 4, 5, 6] and blocks[5] == [1, 13, 16, 19]
    blocks[0][1], blocks[5][0] = 1, 4  # swap point 4 of block 0 and point 1 of block 5
    path.write_text(json.dumps(data))
    capsys.readouterr()
    want = "invalid: point 2 sees 0 points of block 0, expected 1\n"
    assert run_cli("verify", "--in", str(path)) == 1
    assert capsys.readouterr() == ("", want)
    assert run_cli("analyze", "--in", str(path), "--protocol", "2",
                   "--coalition", "0") == 1
    assert capsys.readouterr() == ("", want)


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
    # a placement for an explicit coalition, which has none
    capsys.readouterr()
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0,13", "--placement", "spread") == 2
    assert run_cli("simulate", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", "--placement", "line",
                   "--seed", "1") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("--coalition" in e and "--placement" in e for e in err)
    # a seed for an explicit coalition, which analyze would not use
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0,13", "--seed", "7") == 2
    assert capsys.readouterr().err == (
        "error: give --coalition or --seed, not both\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "w3", "--q", "3", "--protocol", "1",
     "--coalition-size", "3"],
    ["simulate", "--family", "w3", "--q", "3", "--protocol", "1",
     "--coalition-size", "3", "--queries", "10"],
    ["sweep", "--family", "w3", "--q", "3", "--protocol", "1",
     "--coalition-size", "1", "--placement", "random"],
], ids=["analyze", "simulate", "sweep"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_names_the_flag(capsys, argv, seed):
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--seed", seed])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument --seed: expected a non-negative integer: {seed!r}")


@pytest.mark.parametrize("argv", [
    ("verify", "--in", "{dir}"),
    ("analyze", "--in", "{dir}", "--protocol", "2", "--coalition", "0"),
    ("simulate", "--family", "w3", "--q", "3", "--protocol", "2",
     "--coalition", "0", "--queries", "10", "--seed", "1", "--out", "{dir}"),
], ids=["verify-in", "analyze-in", "simulate-out"])
def test_directory_as_file_is_config_error(tmp_path, capsys, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_analyze_non_finite_epsilon_is_config_error(capsys, epsilon):
    assert run_cli("analyze", "--family", "w3", "--q", "3", "--protocol", "2",
                   "--coalition", "0", f"--epsilon={epsilon}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon must be finite" in captured.err


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


def test_infer_scores_a_simulated_log(tmp_path, capsys):
    """infer reads back simulate's log and sidecar and finds what simulate
    found: the tracker cannot narrow a topic past its analytic floor, so
    reading the rest of a converged topic's stream changes nothing."""
    assert run_cli("simulate", "--family", "w3", "--q", "3", "--protocol",
                   "2", "--coalition", "0", "--topics", "3", "--queries",
                   "400", "--seed", "5", "--transcript", str(tmp_path / "run"),
                   "--out", str(tmp_path / "sim.json")) == 0
    log, truth = tmp_path / "run.jsonl", tmp_path / "run.truth.json"
    argv = ["infer", "--in", str(log), "--truth", str(truth), "--family",
            "w3", "--q", "3", "--coalition", "0"]
    assert run_cli(*argv, "--out", str(tmp_path / "a.json")) == 0
    assert run_cli(*argv, "--out", str(tmp_path / "b.json")) == 0
    assert (tmp_path / "a.json").read_bytes() == (
        tmp_path / "b.json").read_bytes()
    # taken before reports were written by geometry._dumps
    assert hashlib.sha256((tmp_path / "a.json").read_bytes()).hexdigest() == (
        "8137f9dfd880f943a051ea21a9a911306eaadafc08ffea45a97fb0219b56db2a")
    sim = json.loads((tmp_path / "sim.json").read_text())
    report = json.loads((tmp_path / "a.json").read_text())
    assert report["command"] == "infer" and report["sound"] is True
    assert (report["protocol"], report["seed"]) == (2, 5)
    assert report["converged"] == sim["converged"]
    assert report["events"] == len(log.read_text().splitlines())
    for got, want in zip(report["per_topic"], sim["per_topic"], strict=True):
        assert got["rounds"] == 400 and got["source_survived"] is True
        for key in ("topic", "source", "converged", "candidates"):
            assert got[key] == want[key]
    capsys.readouterr()

    # a cut last line, a sidecar of the other protocol, or a coalition
    # holding a source exits 2
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines)[:-2])
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {log}:{len(lines)}: invalid JSON")
    log.write_bytes(b"".join(lines))
    truth.write_text(truth.read_text().replace('"protocol": 2',
                                               '"protocol": 1'))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {truth}: protocol 1 writes are all_readers")
    truth.write_text(truth.read_text().replace('"protocol": 1',
                                               '"protocol": 2'))
    source = sim["per_topic"][0]["source"]
    assert run_cli(*argv[:-1], f"0,{source}") == 2
    assert capsys.readouterr().err == (
        f"error: {truth}: source {source} is inside the coalition\n")


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


# SHA-256 of the three outputs of two fixed simulate --transcript runs.  A
# change to per-seed output (random stream, report or log format) must show
# up here and be recorded as such.
GOLDEN = {
    ("w3", "3", "1", ("--coalition-size", "2", "--placement", "spread"), "23"): {
        "report.json":
            "0c1a87b60d0ad9230e101357dfd0687767bdfc843fcdffc393f46465f1c1d4a6",
        "run.jsonl":
            "44250095df9de7c1e407e66d34764c126813921c0cc30cc02e6a4192c6c8bbd7",
        "run.truth.json":
            "ab0f23bd210ab6cf5f15a14ae8246e1db25b3ecce88a59ee19e031a127875b13",
    },
    ("q4", "3", "2", ("--coalition", "0,5"), "31"): {
        "report.json":
            "e001079536f1ec753c5a5dc9ef0cf469f6ec5317148511b9ce3fe821df8b0254",
        "run.jsonl":
            "fc18715a1d4eb17522ee4e46bbfc16d8cde72a5d12f49d5d6d8b72b333d487f5",
        "run.truth.json":
            "5b7554527f3b40153a430607dc62fb03e9e4c0816ed7364b8b286752f2e1db37",
    },
}


@pytest.mark.parametrize("run", list(GOLDEN), ids=["w3-p1", "q4-p2"])
def test_simulate_outputs_match_golden_digests(tmp_path, monkeypatch, run):
    family, q, protocol, coalition, seed = run
    monkeypatch.chdir(tmp_path)  # the report names its logs by relative path
    assert main(["simulate", "--family", family, "--q", q, "--protocol",
                 protocol, *coalition, "--topics", "3", "--queries", "250",
                 "--seed", seed, "--transcript", "run",
                 "--out", "report.json"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[run]}
    assert digests == GOLDEN[run]


# SHA-256 of simulate reports on W(3,3), without logs, each pinning tracker
# rules: the encrypted protocol's single-space rule D1 (it fires 4 times;
# 250 queries a topic, as above, are too few for its 50 arrivals) and
# two-space rule D2 (7 times), the plaintext census (6 times), and a census
# on attributed relay metadata (the topic converges at query 73).  The
# digests were taken before the tracker dropped its per-rule fired sets.
GOLDEN_REPORTS = {
    ("--protocol", "2", "--coalition", "0,13", "--topics", "6",
     "--queries", "3000", "--seed", "5"):
        "d76b4c2d3de691962147d748104a47772038703707c9ad0449f9e333de7bdd3d",
    ("--protocol", "1", "--coalition", "0,13", "--topics", "6",
     "--queries", "600", "--seed", "5"):
        "9e4420c0c46ddc23129f2824051072cc88b2be6b40253ae6746d37d4bb314e30",
    ("--protocol", "2", "--coalition", "0", "--topics", "1",
     "--queries", "4000", "--seed", "16", "--relay-metadata"):
        "da090ef0ad54c526db46fe55d351e330ffd80cee4c65e498fef80ae459fee9ec",
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS),
                         ids=["p2-d1-d2", "p1-census", "p2-relay-metadata"])
def test_simulate_reports_match_golden_digests(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main(["simulate", "--family", "w3", "--q", "3", *argv,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORTS[argv]


# SHA-256 of analyze reports and sweep tables, pinning the analytic
# partitions under both protocols on both quadrangle families and a plane.
# The digests were taken before the partitions were built from one key per
# user and member.
GOLDEN_ANALYTIC = {
    ("sweep", "--family", "w3,q4", "--q", "3,5,7", "--protocol", "2",
     "--coalition-size", "1,2,3", "--placement", "random,spread,line",
     "--seed", "1"):
        "24fd49bc63c3f1ec473c7dd851e6c1932cab2b9ad597e2368ab2632153c9ba7d",
    ("sweep", "--family", "w3,q4", "--q", "3,4,5", "--protocol", "1",
     "--coalition-size", "1,2,3", "--placement", "random,spread,line",
     "--seed", "4"):
        "0d0ecf9f328ebac29aaa3dc5d1aabf41b3a4f33842566f93ab7d8320f529665a",
    ("analyze", "--family", "w3", "--q", "9", "--protocol", "1",
     "--coalition-size", "3", "--placement", "spread", "--seed", "7"):
        "0b838b282245a8adb361851618e2f14135bd1fa98c94d33620bdb295b3bb9647",
    ("analyze", "--family", "q4", "--q", "5", "--protocol", "2",
     "--coalition", "0,13,77"):
        "533c74b9508bc0fc49bd71de5b7ecd71c0234071636a605e593f9eb6305e6ab3",
    ("analyze", "--family", "pg2", "--q", "4", "--protocol", "2",
     "--coalition", "0,5"):
        "47b6f58020d67db620f6c490ca657c8f1c205e12b56e57d02a2b3d738d6b0bd9",
}


@pytest.mark.parametrize("argv", list(GOLDEN_ANALYTIC), ids=[
    "sweep-p2", "sweep-p1", "analyze-w3-p1", "analyze-q4-p2", "analyze-pg2-p2"])
def test_analytic_outputs_match_golden_digests(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ANALYTIC[argv]


def test_simulate_generates_each_topic_once(tmp_path, monkeypatch):
    calls = []
    draw = adversary._draw_queries

    def counted(system, workload, rng):
        calls.append(workload.source)
        return draw(system, workload, rng)

    monkeypatch.setattr(adversary, "_draw_queries", counted)
    geom = build_family("w3", 3)
    report, ok = run_simulate(geom, "w3", 3, 1, (0, 13), 4, 300, seed=8,
                              transcript_prefix=str(tmp_path / "run"))
    assert ok and report["converged"] >= 1
    assert sorted(calls) == sorted(row["source"] for row in report["per_topic"])
    with open(report["transcript"]) as fh:
        requests = sum('"kind": "db_request"' in line for line in fh)
    assert requests == 4 * 300  # converged topics still log to the cap


@pytest.mark.parametrize("argv", [
    ("--queries", "0"),
    ("--queries", "-3"),
    ("--topics", "0"),
], ids=["no-queries", "negative-queries", "no-topics"])
def test_rejected_simulate_leaves_earlier_files(tmp_path, capsys, argv):
    """A simulate that fails its checks writes nothing: an earlier log,
    sidecar and report at its paths stay byte for byte as they were."""
    files = {name: f"earlier {name}\n".encode()
             for name in ("run.jsonl", "run.truth.json", "sim.json")}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_cli("simulate", "--family", "w3", "--q", "3", "--protocol",
                   "1", "--coalition", "0", "--seed", "1", *argv,
                   "--transcript", str(tmp_path / "run"),
                   "--out", str(tmp_path / "sim.json")) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


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


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "w3", "--q", "3", "--protocol", "1"],
    ["simulate", "--family", "w3", "--q", "3", "--protocol", "2",
     "--relay-metadata", "--queries", "10", "--seed", "1"],
], ids=["analyze", "simulate-relay-metadata"])
def test_empty_coalition_is_config_error(capsys, argv):
    assert main(argv + ["--coalition", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coalition must have at least one member\n"


SWEEP_ARGS = {"--family": "w3", "--q": "3", "--coalition-size": "1",
              "--placement": "random"}


@pytest.mark.parametrize("flag", list(SWEEP_ARGS))
def test_sweep_rejects_empty_list(capsys, flag):
    args = dict(SWEEP_ARGS, **{flag: ""})
    argv = ["sweep", "--protocol", "2", "--seed", "0"]
    for name, value in args.items():
        argv += [name, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} needs at least one value\n"


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
