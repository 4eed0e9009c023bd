#!/usr/bin/env python3
"""Check a benchmark run: every call correct, and the accepted-id digests pinned.

    python perfbench/run.py --workload ring --seed 1 --seconds 0 --trace 0 > bench-ring.out
    python scripts/check_bench_digests.py bench-ring.out

The run record is the second-to-last stdout line of `perfbench/run.py`; its
`digests` map each "workload/embedder" to a hash of the accepted request ids
per instance. `tests/data/bench_digests.json` pins them for seed 1, so an
embedder whose accepted ids change fails the check. The result is the last
line; a run whose `correct` is not true or whose `failed` count is not 0
fails the check too. Exits 1 on a mismatch or a failed run, and 2 with
`error: …` on a run file it cannot read or lines it cannot check: no record
or result, another seed, or digest keys other than the pinned keys of the
record's workload.
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "tests" / "data" / "bench_digests.json"


def _record(path):
    """The run record and the result of a benchmark output file; ValueError
    says why there are none."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not UTF-8 text") from None
    try:
        record = json.loads(lines[-2])["run"]
    except (IndexError, ValueError, TypeError, KeyError):
        raise ValueError(f"{path}: the second-to-last line is not a JSON run record") from None
    if not (isinstance(record, dict) and isinstance(record.get("digests"), dict) and record["digests"]):
        raise ValueError(f"{path}: the run record has no digests")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not (isinstance(result, dict) and "correct" in result and "failed" in result):
        raise ValueError(f"{path}: the last line is not a JSON result with `correct` and `failed`")
    return record, result


def main(*args):
    try:
        if len(args) != 1:
            raise ValueError("usage: check_bench_digests.py BENCH_OUTPUT")
        record, result = _record(args[0])
        if record.get("seed") != 1:
            raise ValueError(f"digests are pinned for seed 1, the run used seed {record.get('seed')}")
        pinned = json.loads(PINNED.read_text())
        workload, digests = record.get("workload"), record["digests"]
        keys = sorted(key for key in pinned if key.split("/")[0] == workload)
        if sorted(digests) != keys:
            raise ValueError(f"the run's digest keys {sorted(digests)} are not the pinned keys "
                             f"{keys} of workload {workload!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad = {key: digest for key, digest in digests.items() if pinned[key] != digest}
    for key, digest in sorted(bad.items()):
        print(f"{key}: digest {digest} differs from the pinned {pinned[key]}")
    if not bad:
        print(f"{', '.join(keys)}: digests match")
    failed = result["correct"] is not True or result["failed"] != 0
    if failed:
        print(f"{workload}: the run is not correct (correct {result['correct']}, failed {result['failed']})")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
