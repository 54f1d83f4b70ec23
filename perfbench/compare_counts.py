"""Check that two ``--trace 1`` results of one workload and seed agree on
every exact count.

Usage::

    python3 perfbench/run.py --workload fuzz --seed 7 --seconds 40 --trace 1 | tail -1 > a.json
    python3 perfbench/run.py --workload fuzz --seed 7 --seconds 40 --trace 1 | tail -1 > b.json
    python3 perfbench/compare_counts.py a.json b.json

Exits 0 when every metric in ``layers.EXACT`` is equal in both files,
1 otherwise (listing the ones that differ).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import EXACT  # noqa: E402


def _exact_values(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        metrics = json.loads(handle.read().strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT if name in metrics}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (_exact_values(path) for path in argv)
    differ = sorted(n for n in EXACT if first.get(n) != second.get(n))
    for name in differ:
        print(f"{name}: {first.get(name)} != {second.get(name)}")
    print(f"{len(EXACT) - len(differ)} of {len(EXACT)} exact counts agree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
