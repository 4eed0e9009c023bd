#!/usr/bin/env python3
"""Compare the accepted-id digests of a benchmark run with the pinned ones.

    python perfbench/run.py --workload ring --seed 1 --seconds 0 --trace 0 > bench-ring.out
    python scripts/check_bench_digests.py bench-ring.out

The run record is the second-to-last stdout line of `perfbench/run.py`; its
`digests` map each "workload/embedder" to a hash of the accepted request ids
per instance. `tests/data/bench_digests.json` pins them for seed 1, so an
embedder whose accepted ids change fails the check. Exits 1 on a mismatch,
and 2 with `error: …` on a run file it cannot read or a record it cannot
check: no record, another seed, or digest keys other than the pinned keys
of the record's workload.
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "tests" / "data" / "bench_digests.json"


def _record(path):
    """The run record of a benchmark output file; ValueError says why there is none."""
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
    return record


def main(*args):
    try:
        if len(args) != 1:
            raise ValueError("usage: check_bench_digests.py BENCH_OUTPUT")
        record = _record(args[0])
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
