#!/usr/bin/env python3
"""Compare the accepted-id digests of a benchmark run with the pinned ones.

    python perfbench/run.py --workload ring --seed 1 --seconds 0 --trace 0 > bench-ring.out
    python scripts/check_bench_digests.py bench-ring.out

The run record is the second-to-last stdout line of `perfbench/run.py`; its
`digests` map each "workload/embedder" to a hash of the accepted request ids
per instance. `tests/data/bench_digests.json` pins them for seed 1, so an
embedder whose accepted ids change fails the check. Exits 1 on a mismatch.
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "tests" / "data" / "bench_digests.json"


def main(path):
    record = json.loads(Path(path).read_text().splitlines()[-2])["run"]
    if record["seed"] != 1:
        print(f"error: digests are pinned for seed 1, the run used seed {record['seed']}", file=sys.stderr)
        return 2
    pinned = json.loads(PINNED.read_text())
    bad = {key: digest for key, digest in record["digests"].items() if pinned.get(key) != digest}
    for key, digest in sorted(bad.items()):
        print(f"{key}: digest {digest} differs from the pinned {pinned.get(key)}")
    if not bad:
        print(f"{', '.join(sorted(record['digests']))}: digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
