"""Record the output digest of every workload on every input set.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each pass twice, in fresh processes, and writes perfbench/digests.json
only when both runs agree.  Re-record only for a change that is meant to
alter output; a change that claims speed must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys

from run import spawn
from workloads import DIGESTS, INPUT_SETS, WORKLOADS


def main(names):
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name in names or sorted(WORKLOADS):
        digests = {}
        for seed in range(INPUT_SETS):
            first, second = (spawn(name, seed, "pass") for _ in range(2))
            if first["digest"] != second["digest"]:
                raise SystemExit(f"{name} seed {seed}: output differs between runs")
            digests[str(first["input_seed"])] = first["digest"]
            print(f"{name} seed {seed} (input {first['input_seed']}): {first['digest']}",
                  flush=True)
        table[name] = digests
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
