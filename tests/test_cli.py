import json
import subprocess
import sys

import pytest

from pcvne.cli import main


def run_cli(args, tmp_path=None):
    return main(args)


def test_generate_then_embed_paths(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "12", "--edges", "20", "--shape", "path",
          "--count", "8", "--length-min", "2", "--length-max", "4",
          "--seed", "3", "--out", str(inst)])
    trace = tmp_path / "trace.jsonl"
    main(["embed-paths", "--instance", str(inst), "--trace", str(trace)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "pe"
    assert 0 <= payload["acceptance_ratio"] <= 1
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert lines, "expected at least one iteration record"
    assert set(lines[0]) == {"paths", "packed", "funded"}


def test_embed_paths_refuses_cycles(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "8", "--topology", "cycle", "--shape", "cycle",
          "--count", "2", "--length-min", "3", "--length-max", "4",
          "--seed", "0", "--out", str(inst)])
    with pytest.raises(SystemExit) as exc:
        main(["embed-paths", "--instance", str(inst)])
    assert exc.value.code == 2
    assert "path" in capsys.readouterr().err


def test_embed_cycles_with_wdag_dump(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "6", "--topology", "cycle", "--shape", "cycle",
          "--count", "2", "--length-min", "3", "--length-max", "4",
          "--seed", "5", "--out", str(inst)])
    dump = tmp_path / "wdag.json"
    main(["embed-cycles", "--instance", str(inst), "--dump-wdag", str(dump)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "gr"
    graphs = json.loads(dump.read_text())
    assert graphs, "expected dumped layered graphs"
    g = graphs[0]
    assert {"start", "direction", "layers", "arcs", "closing"} <= set(g)


def _ring_instance():
    return {
        "nodes": [{"id": i, "cpu": 5} for i in range(4)],
        "edges": [{"u": i, "v": (i + 1) % 4, "bw": 5} for i in range(4)],
        "requests": [{"id": "r", "shape": "cycle",
                      "vns": [{"id": k, "cpu": 1} for k in range(3)],
                      "vls": [{"u": k, "v": (k + 1) % 3, "bw": 1} for k in range(3)],
                      "revenue": 2}],
    }


def _missing_cpu(data):
    del data["nodes"][2]["cpu"]
    return data, "nodes[2]: missing field 'cpu'"


def _bad_revenue(data):
    data["requests"][0]["revenue"] = "abc"
    return data, "requests[0].revenue"


def _top_level_list(data):
    return [data], "instance: expected an object"


@pytest.mark.parametrize("corrupt", [_missing_cpu, _bad_revenue, _top_level_list])
def test_malformed_instance_is_a_clean_error(tmp_path, capsys, corrupt):
    data, message = corrupt(_ring_instance())
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["embed-cycles", "--instance", str(inst)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_missing_instance_file_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["embed-cycles", "--instance", str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_embed_generic(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "10", "--edges", "14", "--shape", "path",
          "--count", "5", "--seed", "2", "--length-min", "2", "--length-max", "3",
          "--out", str(inst)])
    main(["embed-generic", "--instance", str(inst)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "generic"
    assert payload["total_requests"] == 5


def test_experiment_csv_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["experiment", "--nodes", "10", "--edges", "15", "--shape", "path",
            "--count", "5", "--length-min", "2", "--length-max", "4",
            "--algorithms", "pe,generic", "--trials", "2", "--seed", "11",
            "--no-timing"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_theory_runs(capsys):
    main(["verify-theory", "--max-nodes", "4", "--samples", "3", "--sample-nodes", "5"])
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pcvne.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("generate", "embed-paths", "embed-cycles", "embed-generic",
                "verify-theory", "experiment"):
        assert sub in proc.stdout
