#!/usr/bin/env python3
# Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
"""A/B comparison of pipeline benchmark runs (standard library only).

    python3 bench/pipeline/compare.py --base parent/*.json --change change/*.json

Each file is a `run.py --out` document. Runs pair up in the order given, so
alternate the two sides when collecting them. For every workload x metric
it prints each side's median and quartiles, the pairs the change won, and a
verdict:

  improved    the change wins >= 9/10 of the pairs (ties count for neither)
              and its median is better than the parent's by more than the
              parent's interquartile range;
  unresolved  an end-to-end metric whose parent spread (IQR / median) is
              wider than its bound, unless every change run beats every
              parent run;
  regressed   an end-to-end metric whose median is worse than the parent's
              by more than its bound in BENCHMARK.json;
  worsened    the mirror of improved, for per-layer metrics (no bound);
  unchanged   anything else.

Exits 1 when any metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(paths):
    runs = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return runs


def collect(runs):
    """{(workload, metric): ([values in order], unit)}"""
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), ([], m["unit"]))[0].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Returns (verdict, pairs won, pairs run)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    lost = sum(1 for b, c in pairs if sign * (c - b) < 0)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    gap = sign * (mc - mb)  # > 0: the change is better
    if pairs and won >= 0.9 * len(pairs) and gap > q3 - q1:
        return "improved", won, len(pairs)
    if bound is None:
        worse = pairs and lost >= 0.9 * len(pairs) and -gap > q3 - q1
        return ("worsened" if worse else "unchanged"), won, len(pairs)
    spread = (q3 - q1) / abs(mb) if mb else 0.0
    if spread > bound and not min(sign * c for c in change) > max(sign * b for b in base):
        return "unresolved", won, len(pairs)
    if mb and -gap / abs(mb) > bound:
        return "regressed", won, len(pairs)
    return "unchanged", won, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True, help="runs of the parent commit")
    ap.add_argument("--change", nargs="+", required=True, help="runs of the change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    meta = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    base = collect(load_runs(args.base))
    change = collect(load_runs(args.change))

    print(f"{'workload':<20} {'metric':<30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>7}  verdict")
    regressed = False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in meta:
            continue
        better, bound = meta[name]
        b, unit = base[key]
        c, _ = change[key]
        v, won, n = verdict(b, c, better, bound)
        regressed |= v == "regressed"
        mb, mc = statistics.median(b), statistics.median(c)
        delta = f"{100.0 * (mc - mb) / abs(mb):+.1f}%" if mb else "n/a"
        cells = []
        for values, med in ((b, mb), (c, mc)):
            q1, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {unit}")
        print(f"{workload:<20} {name:<30} {cells[0]:>34} {cells[1]:>34} {delta:>8} "
              f"{won:>3}/{n:<3}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
