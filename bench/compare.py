#!/usr/bin/env python3
"""Compare two results.json files: ``python3 bench/compare.py A.json B.json``.

A is the parent (or the first of two runs of one commit), B the change,
both taken on the same seed.  For every workload and end-to-end metric
it prints both medians with their quartiles, the relative difference,
the metric's bound and a verdict, and exits 1 if any verdict is
``worse``:

* ``ok``         — B's median is no worse than A's by more than the bound.
* ``worse``      — it is.
* ``unresolved`` — either side's quartile spread is wider than the bound
  and the runs overlap, so the two medians cannot be told apart at this
  bound: repeat with more runs, do not read it as unchanged.

Every end-to-end metric is lower-is-better.  The share of failed
operations is compared too: any increase is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Tuple

#: metric -> (share of A's median, absolute floor in the metric's unit):
#: B is a regression when it is worse than A by more than the larger of
#: the two.  These are ISSUE 11's bounds for two sets of runs on *one*
#: seed.  ``bound`` in BENCHMARK.json is another quantity — the ceiling
#: the driver applies to ten runs on ten different seeds — and is wider.
BOUNDS: Dict[str, Tuple[float, float]] = {
    "wall_cal_s": (0.10, 0.0),
    "peak_rss_mb": (0.05, 2.0),
    "setup_s": (0.15, 0.05),
}


def verdict(parent: dict, change: dict, share: float, floor: float = 0.0) -> str:
    allowed = max(share * parent["value"], floor)
    wide = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"]) > allowed
    if wide:
        # A wide spread still resolves when the runs do not overlap.
        if max(change["values"]) < min(parent["values"]):
            return "ok"
        if min(change["values"]) > max(parent["values"]) + allowed:
            return "worse"
        return "unresolved"
    return "worse" if change["value"] > parent["value"] + allowed else "ok"


def load(path: str) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    print(
        f"{'workload':<13}{'metric':<17}{'A median [q1, q3]':>30}"
        f"{'B median [q1, q3]':>30}{'B/A-1':>9}{'bound':>13}  verdict"
    )
    verdicts = []
    for workload in parent:
        if workload not in change:
            continue
        for metric, (share, floor) in BOUNDS.items():
            a = parent[workload].get("end_to_end", {}).get(metric)
            b = change[workload].get("end_to_end", {}).get(metric)
            if a is None or b is None:
                continue
            outcome = verdict(a, b, share, floor)
            verdicts.append(outcome)

            def cell(entry: dict) -> str:
                return f"{entry['value']:.4f} [{entry['q1']:.4f}, {entry['q3']:.4f}]"

            bound = f"{share:.0%}" + (f" or {floor:g} {a['unit']}" if floor else "")
            print(
                f"{workload:<13}{metric:<17}{cell(a):>30}{cell(b):>30}"
                f"{b['value'] / a['value'] - 1.0:>+9.1%}{bound:>13}  {outcome}"
            )
        failed_a, failed_b = (
            side[workload]["failed"] / side[workload]["attempted"]
            for side in (parent, change)
        )
        outcome = "worse" if failed_b > failed_a else "ok"
        verdicts.append(outcome)
        print(
            f"{workload:<13}{'ops_failed_share':<17}{failed_a:>30.4f}{failed_b:>30.4f}"
            f"{'':>9}{'any increase':>13}  {outcome}"
        )
    if not verdicts:
        print("no workload in common", file=sys.stderr)
        return 2
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
