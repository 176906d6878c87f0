"""Record the SHA-256 of every case's stdout in expected_stdout.json.

    python3 perfbench/record_hashes.py

Run it on the commit whose CLI output is the reference.  Each case must pass
its semantic oracle first; the imported-family case prints the same profile
for every seed, so one seed records it.
"""

import json
import os
import sys

from cases import WORKLOADS
from run import CASE_TIMEOUT_S, HERE, OUT, run_child


def main():
    os.makedirs(OUT, exist_ok=True)
    family_file = os.path.join(OUT, "record-family.txt")
    _, problem = run_child({"prepare": True, "seed": 1, "family_file": family_file},
                           CASE_TIMEOUT_S)
    if problem:
        sys.exit(f"preparation failed: {problem}")
    hashes = {}
    for cases in WORKLOADS.values():
        for case in cases:
            result, problem = run_child({"case": case.id, "family_file": family_file,
                                         "record": True}, CASE_TIMEOUT_S)
            problem = problem or result["problem"]
            if problem:
                sys.exit(f"{case.id}: {problem}")
            hashes[case.id] = result["sha256"]
            print(f"{case.id} {result['sha256']}")
    with open(os.path.join(HERE, "expected_stdout.json"), "w") as fh:
        json.dump(hashes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
