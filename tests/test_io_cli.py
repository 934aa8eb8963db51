"""Instance files, result documents, and the command-line interface."""

from __future__ import annotations

import json
import os

import pytest

import mmskit as mk
from mmskit import cli, engine
from mmskit.instancefile import (
    ResultDocument,
    parse_instance,
    parse_instance_document,
    parse_result,
    serialize_instance,
    serialize_result,
)
from conftest import F

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "lemma1.json")


# ---------------------------------------------------------------------------
# instance documents


def test_fixture_round_trips_byte_identical():
    text = open(FIXTURE).read()
    doc = parse_instance_document(text)
    assert serialize_instance(doc.instance, meta=doc.meta) == text


def test_fixture_contents():
    inst = parse_instance(open(FIXTURE).read())
    assert inst.n == 2 and inst.m == 4
    assert inst.valuations[0].value([0, 1]) == 2
    assert mk.mms(inst, 0).value == 2


def test_rationals_canonicalize():
    text = open(FIXTURE).read().replace('"1"', '"2/2"', 1)
    doc = parse_instance_document(text)
    assert doc.instance.valuations[0].functions[0].values[0] == 1
    # canonical serialization writes the reduced form back
    assert '"2/2"' not in serialize_instance(doc.instance, meta=doc.meta)


def test_integer_entries_accepted():
    text = json.dumps({"items": 1, "agents": [[[3]]]})
    inst = parse_instance(text)
    assert inst.valuations[0].value([0]) == 3


def test_parse_rejects_negative_with_location():
    text = json.dumps({"items": 2, "agents": [[["1", "-1/2"]]]})
    with pytest.raises(mk.ParseError) as err:
        parse_instance(text)
    msg = str(err.value)
    assert "agent 0" in msg and "entry 1" in msg


def test_parse_rejects_bool_entries():
    text = json.dumps({"items": 1, "agents": [[[True]]]})
    with pytest.raises(mk.ParseError):
        parse_instance(text)


def test_parse_rejects_malformed_rational():
    text = json.dumps({"items": 1, "agents": [[["1/0"]]]})
    with pytest.raises(mk.ParseError):
        parse_instance(text)
    text = json.dumps({"items": 1, "agents": [[["x"]]]})
    with pytest.raises(mk.ParseError):
        parse_instance(text)


def test_parse_rejects_ragged_rows():
    text = json.dumps({"items": 2, "agents": [[["1", "1"], ["1"]]]})
    with pytest.raises(mk.ParseError):
        parse_instance(text)


def test_parse_reports_json_location():
    with pytest.raises(mk.ParseError) as err:
        parse_instance("{\n  broken\n}")
    msg = str(err.value)
    assert "line" in msg and "column" in msg


# ---------------------------------------------------------------------------
# result documents


def test_result_document_round_trip_det(lemma1):
    res = mk.solve_deterministic(lemma1)
    report = mk.verify(lemma1, res.allocation, F(3, 13))
    doc = ResultDocument("det", allocation=res.allocation,
                         mms=res.mms_values, report=report.to_dict())
    text = serialize_result(doc)
    back = parse_result(text, m=lemma1.m)
    assert back.algorithm == "det"
    assert back.allocation.owner == res.allocation.owner
    assert back.mms == res.mms_values
    # canonical serialization round-trips byte for byte
    redone = ResultDocument("det", allocation=back.allocation,
                            mms=back.mms, report=back.report)
    assert serialize_result(redone) == text


def test_result_document_round_trip_rand(lemma1):
    res = mk.solve_randomized(lemma1)
    report = mk.verify(lemma1, res.randomized, F(1, 8), ex_ante_alpha=F(1, 4))
    doc = ResultDocument("rand", randomized=res.randomized,
                         mms=res.mms_values, report=report.to_dict())
    text = serialize_result(doc)
    back = parse_result(text, m=lemma1.m)
    assert back.algorithm == "rand"
    assert back.randomized.support == res.randomized.support


def test_result_document_rejects_bad_probability(lemma1):
    res = mk.solve_randomized(lemma1)
    report = mk.verify(lemma1, res.randomized, F(1, 8), ex_ante_alpha=F(1, 4))
    doc = ResultDocument("rand", randomized=res.randomized,
                         mms=res.mms_values, report=report.to_dict())
    data = json.loads(serialize_result(doc))
    data["randomized"]["support"][0]["probability"] = "1/3"
    with pytest.raises(mk.ParseError):
        parse_result(json.dumps(data), m=lemma1.m)


# ---------------------------------------------------------------------------
# CLI flows


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_cli_mms(capsys):
    rc, out = run_cli(capsys, ["mms", FIXTURE])
    assert rc == 0
    assert "mms=2" in out


def test_cli_mms_json(capsys):
    rc, out = run_cli(capsys, ["mms", FIXTURE, "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["mms"] == ["2", "2"]
    assert data["partitions"][0] == [[0, 1], [2, 3]]


def test_cli_mms_searches_identical_agents_once(tmp_path, capsys, monkeypatch):
    inst = mk.grid_instance(3)
    path = tmp_path / "grid3.json"
    path.write_text(serialize_instance(inst))
    certs = [mk.mms(inst, i) for i in range(inst.n)]
    expected = json.dumps({
        "mms": [str(c.value) for c in certs],
        "partitions": [[sorted(b) for b in c.partition] for c in certs],
    }, indent=2) + "\n"
    calls = []
    search = engine.max_min_partition

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(engine, "max_min_partition", counted)
    rc, out = run_cli(capsys, ["mms", str(path), "--json"])
    assert rc == 0
    assert len(calls) == 1
    assert out == expected


def test_cli_solve_det_json(capsys):
    rc, out = run_cli(capsys, ["solve", "--algorithm", "det", FIXTURE, "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["allocation"]["owner"] == [0, 1, 0, 0]
    assert data["report"]["pass"] is True
    assert data["report"]["alpha"] == "3/13"


def test_cli_solve_rand_verify_pass(tmp_path, capsys):
    out_file = str(tmp_path / "result.json")
    rc, _ = run_cli(capsys, ["solve", "--algorithm", "rand", FIXTURE, "--out", out_file])
    assert rc == 0
    rc, out = run_cli(
        capsys, ["verify", FIXTURE, out_file, "--alpha", "1/8", "--ex-ante", "1/4"]
    )
    assert rc == 0
    assert "PASS" in out


def test_cli_verify_fails_on_lopsided_result(tmp_path, capsys):
    out_file = str(tmp_path / "result.json")
    run_cli(capsys, ["solve", "--algorithm", "det", FIXTURE, "--out", out_file])
    data = json.loads(open(out_file).read())
    data["allocation"]["owner"] = [0, 0, 0, 0]
    open(out_file, "w").write(json.dumps(data))
    rc, out = run_cli(capsys, ["verify", FIXTURE, out_file, "--alpha", "3/13"])
    assert rc == 1
    assert "FAIL" in out


def test_cli_verify_json_failure_details(tmp_path, capsys):
    out_file = str(tmp_path / "result.json")
    run_cli(capsys, ["solve", "--algorithm", "det", FIXTURE, "--out", out_file])
    data = json.loads(open(out_file).read())
    data["allocation"]["owner"] = [0, 0, 0, 0]
    open(out_file, "w").write(json.dumps(data))
    rc, out = run_cli(
        capsys, ["verify", FIXTURE, out_file, "--alpha", "3/13", "--json"]
    )
    assert rc == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert [f["agent"] for f in report["failures"]] == [1]


def test_cli_gen_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    argv = ["gen", "--family", "random-xos", "--n", "2", "--m", "4", "--l", "2",
            "--maxval", "8", "--seed", "7"]
    assert cli.main(argv + ["--out", a]) == 0
    assert cli.main(argv + ["--out", b]) == 0
    capsys.readouterr()
    assert open(a).read() == open(b).read()


def test_cli_gen_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        cli.main(["gen", "--family", "nope"])
    capsys.readouterr()


def test_cli_gen_rejects_extraneous_params(capsys):
    rc, _ = run_cli(capsys, ["gen", "--family", "lemma1", "--n", "3"])
    assert rc == 2


def test_cli_bound2(capsys):
    rc, out = run_cli(capsys, ["bound2", FIXTURE])
    assert rc == 0
    assert "3" in out.split()[-0:] or "3" in out


def test_cli_bound2_rejects_three_agents(tmp_path, capsys):
    path = str(tmp_path / "g3.json")
    run_cli(capsys, ["gen", "--family", "grid", "--n", "3", "--out", path])
    rc, _ = run_cli(capsys, ["bound2", path])
    assert rc == 2


def test_cli_sample_reproducible(tmp_path, capsys):
    out_file = str(tmp_path / "result.json")
    run_cli(capsys, ["solve", "--algorithm", "rand", FIXTURE, "--out", out_file])
    rc, first = run_cli(capsys, ["sample", out_file, "--seed", "3"])
    assert rc == 0
    rc, second = run_cli(capsys, ["sample", out_file, "--seed", "3"])
    assert first == second


def test_cli_missing_file_is_an_error(tmp_path, capsys):
    rc, _ = run_cli(capsys, ["mms", str(tmp_path / "absent.json")])
    assert rc == 2


def test_cli_max_enum_surfaces_capacity(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    run_cli(capsys, ["gen", "--family", "random-xos", "--n", "2", "--m", "6",
                     "--l", "1", "--maxval", "3", "--seed", "1", "--out", path])
    rc, _ = run_cli(capsys, ["mms", path, "--max-enum", "10"])
    assert rc == 2
