import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("check_bench_digests", ROOT / "scripts" / "check_bench_digests.py")
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

PINNED = json.loads((ROOT / "tests" / "data" / "bench_digests.json").read_text())


def write_run(tmp_path, digests, seed=1):
    # the benchmark's last two stdout lines: the run record, then the result
    path = tmp_path / "bench.out"
    record = {"run": {"workload": "ring", "seed": seed, "digests": digests}}
    path.write_text(json.dumps(record) + "\n" + json.dumps({"correct": True}) + "\n")
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


def test_other_seeds_are_refused(tmp_path):
    assert check.main(write_run(tmp_path, PINNED, seed=7)) == 2
