import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("check_bench_digests", ROOT / "scripts" / "check_bench_digests.py")
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

PINNED = json.loads((ROOT / "tests" / "data" / "bench_digests.json").read_text())


def write_run(tmp_path, digests, seed=1, correct=True, failed=0):
    # the benchmark's last two stdout lines: the run record, then the result
    path = tmp_path / "bench.out"
    record = {"run": {"workload": "ring", "seed": seed, "digests": digests}}
    result = {"correct": correct, "attempted": 12, "failed": failed}
    path.write_text(json.dumps(record) + "\n" + json.dumps(result) + "\n")
    return path


def test_every_workload_and_embedder_is_pinned():
    assert sorted(PINNED) == ["path-light/generic", "path-light/pe", "path-oversub/generic",
                              "path-oversub/pe", "ring/generic", "ring/gr"]


def test_matching_digests_pass_and_a_changed_one_fails(tmp_path, capsys):
    ring = {k: v for k, v in PINNED.items() if k.startswith("ring/")}
    assert check.main(write_run(tmp_path, ring)) == 0
    changed = dict(ring, **{"ring/gr": "0" * 64})
    assert check.main(write_run(tmp_path, changed)) == 1
    assert "ring/gr: digest 000" in capsys.readouterr().out


def test_an_incorrect_run_or_one_with_a_failure_fails(tmp_path, capsys):
    ring = {k: v for k, v in PINNED.items() if k.startswith("ring/")}
    for correct, failed in [(False, 0), (True, 1), (False, 2), ("true", 0)]:
        assert check.main(write_run(tmp_path, ring, correct=correct, failed=failed)) == 1
        out = capsys.readouterr().out
        assert "digests match" in out and f"the run is not correct (correct {correct}, failed {failed})" in out
    changed = dict(ring, **{"ring/gr": "0" * 64})
    assert check.main(write_run(tmp_path, changed, correct=False, failed=1)) == 1


def test_a_file_without_a_result_is_refused(tmp_path, capsys):
    record = json.dumps({"run": {"workload": "ring", "seed": 1, "digests": PINNED}})
    path = tmp_path / "bench.out"
    for last in ["not json", "[1]", json.dumps({"correct": True}), json.dumps({"failed": 0})]:
        path.write_text(record + "\n" + last + "\n")
        assert_refused(capsys, path, says="the last line is not a JSON result")


def test_other_seeds_are_refused(tmp_path):
    assert check.main(write_run(tmp_path, PINNED, seed=7)) == 2


def assert_refused(capsys, *args, says):
    assert check.main(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


def test_no_argument_is_refused_without_a_traceback(capsys):
    assert_refused(capsys, says="usage: check_bench_digests.py BENCH_OUTPUT")
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "check_bench_digests.py")],
                         capture_output=True, text=True)
    assert run.returncode == 2 and run.stderr.startswith("error: usage") and "Traceback" not in run.stderr


def test_missing_file_is_refused(tmp_path, capsys):
    assert_refused(capsys, tmp_path / "absent.out", says="cannot read")
    assert_refused(capsys, tmp_path, says="cannot read")  # a directory


def test_a_file_without_a_run_record_is_refused(tmp_path, capsys):
    path = tmp_path / "bench.out"
    for text in ["", json.dumps({"correct": True}) + "\n", "not json\n{}\n", "[1]\n{}\n",
                 json.dumps({"result": {}}) + "\n{}\n", json.dumps({"run": []}) + "\n{}\n"]:
        path.write_text(text)
        assert_refused(capsys, path, says="not a JSON run record" if "run" not in text else "no digests")
    path.write_bytes(b"\xff\xfe\n\n")
    assert_refused(capsys, path, says="not UTF-8 text")


def test_empty_digests_are_refused(tmp_path, capsys):
    assert_refused(capsys, write_run(tmp_path, {}), says="no digests")


def test_digest_keys_must_be_the_workloads_pinned_keys(tmp_path, capsys):
    ring = {k: v for k, v in PINNED.items() if k.startswith("ring/")}
    light = {k: v for k, v in PINNED.items() if k.startswith("path-light/")}
    for digests in [{"ring/gr": PINNED["ring/gr"]}, dict(ring, **{"ring/pe": "0" * 64}), light,
                    dict(ring, **light)]:
        assert_refused(capsys, write_run(tmp_path, digests), says="not the pinned keys")
