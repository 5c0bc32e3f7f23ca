"""Write perfbench/reference.json from the current walklab sources.

    python3 perfbench/make_reference.py

Run this only at a commit whose outputs are trusted: the digests it
records are what later runs are checked against.  It records the
sha256 of the exact columns of every digested output, for each size,
and the exact u_n that the float workload compares its float DP with.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    digests = {}
    for size in ("smoke", "bench", "full"):
        digests[size] = {}
        for name in ("exact", "bridges"):
            p = workloads.run_pass(name, size, 0, 0, {},
                                   record=digests[size])
            print(f"{size} {name}: {len(p.failures)} failures "
                  f"{p.failures[:3]}", file=sys.stderr)
    ref = {"exact_u": workloads.exact_u_reference(), "digests": digests}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
