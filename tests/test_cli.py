import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pcvne.cli as cli
import verify_theory
from pcvne.cli import main
from pcvne.jsonio import load_instance
from pcvne.path_embedding import procedure_pe


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


def _tight_paths_instance(tmp_path):
    # tight capacities: the greedy and the exact stages accept different ids here
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "10", "--edges", "14", "--cpu-capacity", "8",
          "--bw-capacity", "8", "--shape", "path", "--count", "15",
          "--length-min", "2", "--length-max", "4", "--seed", "2", "--out", str(inst)])
    return inst


def test_embed_paths_exact_modes_match_library(tmp_path, capsys, exact_pe):
    # with the tests' exact stages in the pipeline, the report accepts what
    # procedure_pe does
    inst = _tight_paths_instance(tmp_path)
    main(["embed-paths", "--instance", str(inst)])
    with inst.open() as fp:
        net, requests = load_instance(fp)
    batch = procedure_pe(net, requests)
    assert json.loads(capsys.readouterr().out)["accepted"] == batch.accepted_ids()


def test_embed_paths_exact_modes_output_is_golden(tmp_path, capsys, exact_pe):
    # the pipeline with the tests' exact MKP and MDKP stages on the tight
    # instance, through the report code, byte for byte, so a change to the
    # decomposition, offsets, funding instance or either exact search shows here
    inst = _tight_paths_instance(tmp_path)
    capsys.readouterr()
    main(["embed-paths", "--instance", str(inst)])
    golden = Path(__file__).resolve().parent / "data" / "embed_paths_exact.out"
    assert capsys.readouterr() == (golden.read_text(), "")


def test_embed_cycles_ties_output_is_golden(capsysbinary):
    # a hand-written 6-node ring with "p/q" capacities, demands and revenues:
    # "r3-15", "r2-10" and "half" tie at revenue/demand 1/5 and are tried in
    # input order, so "r3-15" takes the BW that "r2-10" needs
    data = Path(__file__).resolve().parent / "data"
    main(["embed-cycles", "--instance", str(data / "ring_ties.json")])
    assert capsysbinary.readouterr() == ((data / "embed_cycles_ties.out").read_bytes(), b"")


@pytest.mark.parametrize("flag", ["--mkp-mode", "--mdkp-mode"])
def test_embed_paths_has_no_mode_flags(capsys, flag):
    # the pipeline is greedy only; the exact stages are test code
    with pytest.raises(SystemExit) as exc:
        main(["embed-paths", "--instance", "inst.json", flag, "exact"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag} exact" in err


def test_embed_paths_refuses_cycles(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "8", "--topology", "cycle", "--shape", "cycle",
          "--count", "2", "--length-min", "3", "--length-max", "4",
          "--seed", "0", "--out", str(inst)])
    with pytest.raises(SystemExit) as exc:
        main(["embed-paths", "--instance", str(inst)])
    assert exc.value.code == 2
    assert "path" in capsys.readouterr().err


def test_embed_cycles_refuses_paths(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "6", "--edges", "8", "--shape", "path", "--count", "2",
          "--length-min", "2", "--length-max", "3", "--out", str(inst)])
    with pytest.raises(SystemExit) as exc:
        main(["embed-cycles", "--instance", str(inst)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: request 0 is not a cycle; embed-cycles handles cycle requests only\n")


def test_instance_from_stdin_matches_the_file(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "10", "--edges", "15", "--shape", "path", "--count", "6",
          "--length-min", "2", "--length-max", "4", "--seed", "4", "--out", str(inst)])
    main(["embed-paths", "--instance", str(inst)])
    from_file = capsys.readouterr()
    # a stdin with a byte buffer under it, as a real one has: "-" reads the bytes as UTF-8
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(inst.read_bytes())))
    main(["embed-paths", "--instance", "-"])
    assert capsys.readouterr() == from_file
    assert json.loads(from_file.out)["total_requests"] == 6


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_instance_is_read_as_utf8_whatever_the_locale(tmp_path, source):
    # JSON text is UTF-8 (RFC 8259): in the C locale, with UTF-8 mode off, a
    # non-ASCII id used to end in "not JSON: 'ascii' codec can't decode"
    inst = tmp_path / "inst.json"
    inst.write_bytes(json.dumps({
        "nodes": [{"id": "café", "cpu": 5}, {"id": "b", "cpu": 5}], "edges": [{"u": "café", "v": "b", "bw": 5}],
        "requests": [{"id": 0, "shape": "path", "vns": [{"id": 0, "cpu": 1}, {"id": 1, "cpu": 1}],
                      "vls": [{"u": 0, "v": 1, "bw": 1}]}]}, ensure_ascii=False).encode())
    env = {k: v for k, v in _src_env().items() if k not in ("PYTHONIOENCODING", "LANG", "LC_CTYPE")}
    env.update(LC_ALL="C", PYTHONUTF8="0")
    argv = [sys.executable, "-m", "pcvne.cli", "embed-generic", "--instance"]
    with inst.open("rb") as stdin:
        proc = subprocess.run([*argv, str(inst) if source == "file" else "-"], stdin=stdin,
                              capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    report = json.loads(proc.stdout)
    assert report["accepted"] == [0]
    assert "café" in {row["sn"] for row in report["embeddings"][0]["nodes"]}


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


def _duplicate_id(data):
    data["requests"].append(dict(data["requests"][0]))
    return data, "requests[1].id: duplicate id 'r'"


def _requests_object(data):
    # used to load as no requests: every embed-* command exited 0 with total_requests 0
    data["requests"] = {}
    return data, "instance.requests: expected a list, got dict"


@pytest.mark.parametrize("corrupt", [_missing_cpu, _bad_revenue, _top_level_list, _duplicate_id,
                                     _requests_object])
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


@pytest.mark.parametrize("raw, reason", [
    # json.dumps cannot build these inputs: the decoder runs out of recursion
    # depth, meets bytes that are not UTF-8, or an integer past Python's
    # 4300-digit conversion limit
    (b"[" * 100000 + b"\n", "maximum recursion depth exceeded"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"nodes": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300"),
], ids=["deep-nesting", "not-utf-8", "5000-digit-integer"])
def test_deeply_nested_instance_is_a_clean_error(tmp_path, capsys, raw, reason):
    inst = tmp_path / "bad.json"
    inst.write_bytes(raw)
    with pytest.raises(SystemExit) as exc:
        main(["embed-generic", "--instance", str(inst)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: not JSON: {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("quantity", ["1e10000000", "1e-20000"])
def test_quantity_with_a_huge_exponent_is_refused_before_it_is_expanded(tmp_path, capsys, quantity):
    # Fraction("1e10000000") writes out ten million digits: the run took 10.7 s
    # and exited 0; an exponent either way past the int digit limit is now a
    # clean error
    inst = tmp_path / "inst.json"
    inst.write_text('{"nodes": [{"id": 0, "cpu": "%s"}], "edges": [], "requests": []}' % quantity)
    with pytest.raises(SystemExit) as exc:
        main(["embed-generic", "--instance", str(inst)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: instance.nodes[0].cpu: not a quantity: '{quantity}'\n")


def test_quantity_with_a_small_exponent_loads(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"nodes": [{"id": 0, "cpu": "2.5e1"}], "edges": [], "requests": [
        {"id": "r", "shape": "path", "vns": [{"id": 0, "cpu": "1E1"}], "vls": [], "revenue": "15e-1"}]}))
    with inst.open() as fp:
        net, [req] = load_instance(fp)
    assert (net.cpu_capacity[0], req.cpu_demand[0], req.revenue) == (25, 10, Fraction(3, 2))
    assert type(net.cpu_capacity[0]) is int
    main(["embed-generic", "--instance", str(inst)])
    assert json.loads(capsys.readouterr().out)["embeddings"][0]["revenue"] == "3/2"


_HUGE_REVENUE = 10 ** 400  # a valid JSON integer, past the largest float


@pytest.mark.parametrize("command, shape", [("embed-paths", "path"), ("embed-generic", "path"),
                                            ("embed-cycles", "cycle")])
def test_revenue_past_the_largest_float_is_a_clean_error(tmp_path, capsys, command, shape):
    # the report's float(revenue) raised a raw OverflowError after the run
    data = _ring_instance()
    if shape == "path":
        data["requests"][0].update(shape="path", vns=data["requests"][0]["vns"][:2],
                                   vls=data["requests"][0]["vls"][:1])
    data["requests"][0]["revenue"] = _HUGE_REVENUE
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", str(inst)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: revenue: the accepted requests' total is too large for a float\n")


def test_missing_instance_file_is_a_clean_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["embed-cycles", "--instance", str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def _generate_for(command, inst):
    main(["generate", "--nodes", "6", "--topology", "cycle", "--count", "2",
          "--shape", "cycle" if command == "embed-cycles" else "path",
          "--length-min", "3", "--length-max", "4", "--out", str(inst)])


@pytest.mark.parametrize("command, flag", [
    ("generate", "--out"),
    ("embed-paths", "--out"),
    ("embed-paths", "--trace"),
    ("embed-cycles", "--dump-wdag"),
])
def test_unwritable_output_is_a_clean_error_before_the_run(tmp_path, capsys, monkeypatch, command, flag):
    inst = tmp_path / "inst.json"
    _generate_for(command, inst)

    def never(*args, **kwargs):
        raise AssertionError("ran before the output was opened")

    for name in ("gen_substrate", "procedure_pe", "greedy_revenue"):
        monkeypatch.setattr(cli, name, never)
    target = tmp_path / "missing" / "x.json"
    args = ["--nodes", "6"] if command == "generate" else ["--instance", str(inst)]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, flag, str(target)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: cannot write '{target}': No such file or directory\n"


@pytest.mark.parametrize("spelling", ["same", "dotted"])
@pytest.mark.parametrize("command, flag", [("embed-paths", "--trace"), ("embed-cycles", "--dump-wdag")])
def test_one_file_for_two_outputs_is_refused_before_the_run(tmp_path, capsys, monkeypatch,
                                                            command, flag, spelling):
    # used to exit 0 with only the report in the file: the trace or dump was lost
    inst = tmp_path / "inst.json"
    _generate_for(command, inst)

    def never(*args, **kwargs):
        raise AssertionError("ran before the outputs were checked")

    monkeypatch.setattr(cli, "_load", never)
    target = tmp_path / "x"
    target.write_bytes(b"earlier output\n")
    other = target if spelling == "same" else tmp_path / "." / "x"
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", str(inst), "--out", str(target), flag, str(other)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: --out and {flag} name the same file '{other}'\n")
    assert target.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("command, flag", [("embed-paths", "--trace"), ("embed-cycles", "--dump-wdag")])
def test_stdout_for_two_outputs_is_allowed(tmp_path, capsys, command, flag):
    inst = tmp_path / "inst.json"
    _generate_for(command, inst)
    main([command, "--instance", str(inst), "--out", "-", flag, "-"])
    assert '"algorithm"' in capsys.readouterr().out


def test_edge_count_on_a_fixed_topology_is_a_clean_error(tmp_path, capsys):
    # used to exit 0 with the 6 links of the complete graph on 4 nodes
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--nodes", "4", "--topology", "complete", "--edges", "99", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: n_edges is only for the random topology, not 'complete'\n")
    assert not out.exists()


def _src_env():
    root = Path(__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_a_clean_error_after_the_run():
    # /dev/full takes the probe on entry but fails every write with ENOSPC,
    # so the run succeeds and only the final write fails
    generate = [sys.executable, "-m", "pcvne.cli", "generate", "--nodes", "6", "--topology", "cycle"]
    proc = subprocess.run([*generate, "--out", "/dev/full"], capture_output=True, env=_src_env())
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: cannot write '/dev/full': No space left on device\n"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(generate, stdout=full, stderr=subprocess.PIPE, env=_src_env())
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write output: No space left on device\n"


def test_reader_that_leaves_early_ends_the_run_without_a_traceback():
    # about 127 kB of CSV, more than a pipe holds, so the writer meets the closed
    # pipe; it used to end in a BrokenPipeError traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcvne.cli", "experiment", "--nodes", "4", "--edges", "3",
         "--count", "1", "--length-min", "1", "--length-max", "1", "--trials", "3000", "--no-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.readline() == b"trial,algorithm,acceptance_ratio,revenue,wall_ms\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize("seed", [1, 99, 2024])
def test_generate_writes_the_instance_of_trial_zero(tmp_path, capsys, seed):
    flags = ["--nodes", "30", "--edges", "150", "--count", "300", "--revenue", "proportional",
             "--seed", str(seed)]
    main(["experiment", *flags, "--trials", "1", "--no-timing", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    inst = tmp_path / "inst.json"
    main(["generate", *flags, "--out", str(inst)])
    for row, command in zip(rows, ["embed-paths", "embed-generic"]):
        main([command, "--instance", str(inst)])
        report = json.loads(capsys.readouterr().out)
        assert (report["algorithm"], report["acceptance_ratio"], report["revenue"]) == (
            row["algorithm"], row["acceptance_ratio"], row["revenue"])


def _two_vn_cycle(data):
    data["requests"][3]["vns"] = data["requests"][3]["vns"][:2]
    data["requests"][3]["vls"] = data["requests"][3]["vls"][:1]
    return data, "requests[3]: cycle request needs at least 3 VNs"


def _zero_cpu_demand(data):
    data["requests"][2]["vns"][1]["cpu"] = 0
    return data, "requests[2]: cpu demand must be positive at 1"


def _refusal_before_field_defect(data):
    # the later field defect is named first, as for a single request
    data, _ = _two_vn_cycle(data)
    del data["requests"][4]["vns"][0]["cpu"]
    return data, "requests[4].vns[0]: missing field 'cpu'"


@pytest.mark.parametrize("corrupt", [_two_vn_cycle, _zero_cpu_demand, _refusal_before_field_defect])
def test_request_refusals_name_the_request(tmp_path, capsys, corrupt):
    data = _ring_instance()
    data["requests"] = [dict(json.loads(json.dumps(data["requests"][0])), id=k) for k in range(5)]
    data, message = corrupt(data)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["embed-cycles", "--instance", str(inst)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_nan_ids_are_a_clean_error(tmp_path, capsys):
    # JSON's NaN orders neither way against an id; this instance used to load
    # its (NaN, NaN) link as a self-loop, and embed-generic then stopped on an
    # infeasible commit of its own embedding
    inst = tmp_path / "inst.json"
    inst.write_text('{"nodes": [{"id": NaN, "cpu": 5}, {"id": 1, "cpu": 5}],\n'
                    ' "edges": [{"u": NaN, "v": 1, "bw": 5}, {"u": NaN, "v": NaN, "bw": 5}],\n'
                    ' "requests": [{"id": "r", "shape": "path", "vns": [{"id": 0, "cpu": 1}, {"id": 1, "cpu": 1}],\n'
                    '               "vls": [{"u": 0, "v": 1, "bw": 1}]}]}\n')
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["embed-generic", "--instance", str(inst), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: ids nan and 1 are not comparable\n")
    assert not out.exists()


def test_nan_request_id_is_a_clean_error(tmp_path, capsys):
    # a NaN request id used to be embedded and written to the report as NaN,
    # which is not JSON
    inst = tmp_path / "inst.json"
    inst.write_text('{"nodes": [{"id": 0, "cpu": 5}, {"id": 1, "cpu": 5}], "edges": [{"u": 0, "v": 1, "bw": 5}],\n'
                    ' "requests": [{"id": NaN, "shape": "path", "vns": [{"id": 0, "cpu": 1}, {"id": 1, "cpu": 1}],\n'
                    '               "vls": [{"u": 0, "v": 1, "bw": 1}]}]}\n')
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["embed-paths", "--instance", str(inst), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: requests[0]: request id nan is not equal to itself\n")
    assert not out.exists()



def test_nan_node_id_is_a_clean_error(tmp_path, capsys):
    # a NaN SN on no link used to be embedded and written to the report as
    # NaN, which is not JSON
    inst = tmp_path / "inst.json"
    inst.write_text('{"nodes": [{"id": NaN, "cpu": 5}], "edges": [],\n'
                    ' "requests": [{"id": 0, "shape": "general", "vns": [{"id": 0, "cpu": 1}], "vls": []}]}\n')
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["embed-generic", "--instance", str(inst), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: node id nan is not equal to itself\n")
    assert not out.exists()


_REFUSED_RUNS = [  # (generate flags of the instance or None, the refused command, its message)
    (None, ["generate", "--nodes", "0"], "need at least one node"),
    (["--nodes", "8", "--topology", "cycle", "--shape", "cycle", "--count", "2",
      "--length-min", "3", "--length-max", "4"],
     ["embed-paths"], "request 0 is not a path; embed-paths handles path requests only"),
    (["--nodes", "6", "--edges", "8", "--shape", "cycle", "--count", "2", "--length-min", "3", "--length-max", "3"],
     ["embed-cycles"], "substrate is not a cycle"),
    (None, ["experiment", "--nodes", "6", "--edges", "8", "--length-min", "5", "--length-max", "3"],
     "length_range (5, 3) is empty"),
    (None, ["generate", "--nodes", "6", "--edges", "8", "--demand-min", "0"], "demand_range (0, 5) starts below 1"),
]


@pytest.mark.parametrize("existed", [True, False])
@pytest.mark.parametrize("instance, command, message", _REFUSED_RUNS, ids=[c[2] for c in _REFUSED_RUNS])
def test_refused_run_leaves_its_output_as_it_was(tmp_path, capsys, instance, command, message, existed):
    if instance is not None:
        inst = tmp_path / "inst.json"
        main(["generate", *instance, "--out", str(inst)])
        command = [*command, "--instance", str(inst)]
    out = tmp_path / "out"
    if existed:
        out.write_bytes(b"earlier output\n")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    if existed:
        assert out.read_bytes() == b"earlier output\n"
    else:
        assert not out.exists()


def test_output_file_is_replaced_by_what_stdout_gets(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_text("x" * 100000)
    flags = ["generate", "--nodes", "6", "--edges", "8", "--count", "3", "--seed", "5"]
    main(flags)
    main([*flags, "--out", str(out)])
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_negative_request_count_is_a_clean_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--nodes", "6", "--edges", "8", "--count", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: negative request count -1\n"


def test_embed_generic(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["generate", "--nodes", "10", "--edges", "14", "--shape", "path",
          "--count", "5", "--seed", "2", "--length-min", "2", "--length-max", "3",
          "--out", str(inst)])
    main(["embed-generic", "--instance", str(inst)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "generic"
    assert payload["total_requests"] == 5


def _cycle_request(req_id, big, revenue):
    return {"id": req_id, "shape": "cycle", "revenue": revenue,
            "vns": [{"id": k, "cpu": big if k == 0 else 1} for k in range(3)],
            "vls": [{"u": k, "v": (k + 1) % 3, "bw": 1} for k in range(3)]}


# Inputs at the edges of the generic baseline's CPU ceiling: an empty path
# request, a substrate without nodes, and a 4-ring of CPU 5 where the ring
# solver leaves a request with a VN of CPU 6 to the fallback. The outputs are
# those of the baseline before the ceiling, byte for byte.
_EMPTY_PATH = {"nodes": [{"id": i, "cpu": 5} for i in range(3)],
               "edges": [{"u": i, "v": (i + 1) % 3, "bw": 5} for i in range(3)],
               "requests": [{"id": "e", "shape": "path", "vns": [], "vls": [], "revenue": 1}]}
_NO_NODES = {"nodes": [], "edges": [],
             "requests": [{"id": "p", "shape": "path", "vns": [{"id": 0, "cpu": 1}], "vls": [], "revenue": 1}]}
_NO_NODES_CYCLE = {"nodes": [], "edges": [], "requests": [_cycle_request("c", 1, 1)]}
_RING_FALLBACK = {"nodes": [{"id": i, "cpu": 5} for i in range(4)],
                  "edges": [{"u": i, "v": (i + 1) % 4, "bw": 5} for i in range(4)],
                  "requests": [_cycle_request("big", 6, 2), _cycle_request("fit", 5, 1)]}


_FIT = ('{"request": "fit", "nodes": [{"vn": 0, "sn": 0}, {"vn": 1, "sn": 1}, {"vn": 2, "sn": 2}], '
        '"links": [{"u": 0, "v": 1, "path": [[0, 1]]}, {"u": 1, "v": 2, "path": [[1, 2]]}, ')
_NONE_ACCEPTED = ('{"algorithm": "generic",\n"accepted": [],\n"total_requests": 1,\n'
                  '"acceptance_ratio": 0.0,\n"revenue": 0.0,\n"embeddings": []}\n')


@pytest.mark.parametrize("command, instance, out", [
    ("embed-generic", _EMPTY_PATH,
     '{"algorithm": "generic",\n"accepted": [\n"e"\n],\n"total_requests": 1,\n"acceptance_ratio": 1.0,\n'
     '"revenue": 1.0,\n"embeddings": [\n{"request": "e", "nodes": [], "links": [], "revenue": 1}\n]}\n'),
    ("embed-generic", _NO_NODES, _NONE_ACCEPTED),
    ("embed-generic", _NO_NODES_CYCLE, _NONE_ACCEPTED),
    ("embed-generic", _RING_FALLBACK,
     '{"algorithm": "generic",\n"accepted": [\n"fit"\n],\n"total_requests": 2,\n"acceptance_ratio": 0.5,\n'
     '"revenue": 1.0,\n"embeddings": [\n' + _FIT + '{"u": 0, "v": 2, "path": [[0, 1], [1, 2]]}], "revenue": 1}\n]}\n'),
    ("embed-cycles", _RING_FALLBACK,
     '{"algorithm": "gr",\n"accepted": [\n"fit"\n],\n"total_requests": 2,\n"acceptance_ratio": 0.5,\n'
     '"revenue": 1.0,\n"embeddings": [\n' + _FIT + '{"u": 0, "v": 2, "path": [[2, 3], [0, 3]]}], "revenue": 1}\n]}\n'),
], ids=["generic-empty-path", "generic-no-nodes", "generic-no-nodes-cycle", "generic-ring", "cycles-ring"])
def test_embed_at_the_cpu_ceiling_edges(tmp_path, capsys, command, instance, out):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    main([command, "--instance", str(inst)])
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("instance, message", [
    (_EMPTY_PATH, "request 'e' is not a cycle; embed-cycles handles cycle requests only"),
    (_NO_NODES, "request 'p' is not a cycle; embed-cycles handles cycle requests only"),
    (_NO_NODES_CYCLE, "substrate is not a cycle"),
], ids=["empty-path", "no-nodes", "no-nodes-cycle"])
def test_embed_cycles_refuses_what_the_fallback_cannot_reach(tmp_path, capsys, instance, message):
    # the ring solver refuses path requests and non-ring substrates before the
    # fallback runs, so these end in a clean error, not an embedding
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    with pytest.raises(SystemExit) as exc:
        main(["embed-cycles", "--instance", str(inst)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    verify_theory.main(["--max-nodes", "4", "--samples", "3", "--sample-nodes", "5"])
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("flag, value, least", [
    ("--max-nodes", "0", 1), ("--max-nodes", "-1", 1),
    ("--sample-nodes", "0", 1), ("--sample-nodes", "-2", 1),
    ("--samples", "-3", 0),
])
def test_verify_theory_refuses_empty_sweeps(capsys, flag, value, least):
    # 0-node samples used to FAIL (the empty graph), negative counts to PASS 0 cases
    with pytest.raises(SystemExit) as exc:
        verify_theory.main([flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {flag} must be at least {least}, got {value}\n")


def test_verify_theory_refuses_sweeps_past_the_cap(capsys, monkeypatch):
    # 8 nodes would walk 2^28 edge masks; the refusal comes before any sweep
    monkeypatch.setattr(verify_theory, "connected_graphs", None)
    with pytest.raises(SystemExit) as exc:
        verify_theory.main(["--max-nodes", "8"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: --max-nodes must be at most 7, got 8\n")


def test_verify_theory_refuses_samples_past_the_cap(capsys, monkeypatch):
    # 9-node samples used to fail with "9 nodes, cap 8" after the first exhaustive sweep
    monkeypatch.setattr(verify_theory, "connected_graphs", None)
    with pytest.raises(SystemExit) as exc:
        verify_theory.main(["--sample-nodes", "9", "--samples", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: --sample-nodes must be at most 8, got 9\n")


def test_verify_theory_fail_row_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify_theory, "is_supereulerian", lambda g: False)
    with pytest.raises(SystemExit) as exc:
        verify_theory.main(["--max-nodes", "3", "--samples", "0"])
    assert exc.value.code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_verify_theory_write_failure_is_a_clean_error():
    script = Path(__file__).resolve().parent.parent / "scripts" / "verify_theory.py"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, str(script), "--max-nodes", "3", "--samples", "0"],
                              stdout=full, stderr=subprocess.PIPE, env=_src_env())
    assert (proc.returncode, proc.stderr) == (2, b"error: cannot write output: No space left on device\n")


def test_experiment_refuses_a_repeated_label(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--nodes", "10", "--edges", "12", "--cpu-capacity", "10", "--bw-capacity", "10",
              "--count", "12", "--length-min", "2", "--length-max", "5", "--trials", "3", "--no-timing",
              "--algorithms", "generic,generic"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error: algorithm 'generic' given twice\n")


def test_import_pcvne_loads_only_what_the_benchmark_reads():
    # the package re-exports only what perfbench/run.py reads off it, so a
    # plain import does not compile the experiment runner; the theorem checks
    # live in scripts/verify_theory.py, so the package has no theory module
    probe = ("import importlib.util, sys, pcvne\n"
             "print('pcvne.experiment' in sys.modules, importlib.util.find_spec('pcvne.theory'))\n"
             "print(sorted(n for n in ('SubstrateSpec', 'RequestSpec', 'gen_substrate', 'gen_requests',\n"
             "    'ModelError', 'path_embedding', 'cycle_embedding', 'baseline', 'model') if not hasattr(pcvne, n)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env=_src_env())
    assert proc.stdout == "False None\n[]\n"


def test_verify_theory_default_table_is_golden(capsys):
    verify_theory.main([])
    golden = Path(__file__).resolve().parent / "data" / "verify_theory.out"
    assert capsys.readouterr() == (golden.read_text(), "")


_GENERATE_DIGESTS = json.loads((Path(__file__).resolve().parent / "data" / "generate_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(_GENERATE_DIGESTS))
def test_generate_bytes_at_the_north_star_scales(capsys, name):
    # the sha256 of `generate`'s stdout pins the random stream and the dump layout
    main(_GENERATE_DIGESTS[name]["argv"])
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _GENERATE_DIGESTS[name]["sha256"]


_NORTH_STAR_DIGESTS = json.loads((Path(__file__).resolve().parent / "data" / "north_star_digests.json").read_text())
_NORTH_STAR_RUNS = {  # report -> (instance of generate_digests.json, embed-* argv)
    "embed-paths": ("paths 200/1000/2000", ["embed-paths"]),
    "embed-generic": ("paths 200/1000/2000", ["embed-generic"]),
    "embed-cycles": ("ring 60/100", ["embed-cycles"]),
    "embed-cycles-no-fallback": ("ring 60/100", ["embed-cycles", "--no-fallback"]),
    "embed-generic-ring": ("ring 60/100", ["embed-generic"]),
}


def test_north_star_reports_match_the_pinned_digests(tmp_path, capsys):
    # the sha256 of each report's JSON-encoded `accepted` list and of its
    # `embeddings` list, so a change that moves a request but keeps its id fails too
    assert sorted(_NORTH_STAR_RUNS) == sorted(_NORTH_STAR_DIGESTS)
    files = {name: str(tmp_path / f"{name.split()[0]}.json") for name in _GENERATE_DIGESTS}
    for name, pin in _GENERATE_DIGESTS.items():
        main([*pin["argv"], "--out", files[name]])
    capsys.readouterr()
    for report, (instance, argv) in _NORTH_STAR_RUNS.items():
        main([*argv, "--instance", files[instance]])
        out = json.loads(capsys.readouterr().out)
        got = {key: hashlib.sha256(json.dumps(out[key]).encode()).hexdigest() for key in ("accepted", "embeddings")}
        assert got == _NORTH_STAR_DIGESTS[report], report


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pcvne.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("generate", "embed-paths", "embed-cycles", "embed-generic", "experiment"):
        assert sub in proc.stdout
    # the theorem checks are scripts/verify_theory.py, not a subcommand
    proc = subprocess.run([sys.executable, "-m", "pcvne.cli", "verify-theory"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "invalid choice: 'verify-theory'" in proc.stderr
