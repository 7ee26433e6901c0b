"""Aggregate per-run records from ``bench/_results`` into medians over runs.

    python3 bench/summarize.py [--trace 0|1] [record.json ...]

For every workload and metric prints the run count, the median over runs,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("records", nargs="*", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    paths = args.records or sorted((BENCH_DIR / "_results").glob("*-trace*.json"))
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for path in paths:
        rec = json.loads(path.read_text())
        if rec["trace"] != args.trace:
            continue
        for name, m in rec["metrics"].items():
            values[rec["provenance"]["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    print(f"{'workload':13s} {'metric':32s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"{workload:13s} {name:32s} {len(vals):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {bound:>6s}  {units[name]}")


if __name__ == "__main__":
    main()
