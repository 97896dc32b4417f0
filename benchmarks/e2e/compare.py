"""Compare end-to-end benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--json OUT]

PARENT and CHANGE are each a directory of run records written by
``run.py`` (``benchmarks/results/e2e/`` of that commit's checkout) or a
JSON file holding a list of such records.  Only untraced, non-smoke
records count.  Within a workload the i-th parent run and the i-th change
run, in start order, form a pair; run them alternately.

For every workload and end-to-end metric of ``BENCHMARK.json``:

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every change run reads better
  than every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``gain`` — at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), its median is better by more than the
  parent's quartile distance, and it fails no more operations;
* ``same`` — none of the above.

Prints one row per workload and exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path: Path) -> list[dict]:
    """Untraced, non-smoke run records, in start order."""
    if path.is_dir():
        records = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    else:
        records = json.loads(path.read_text())
    records = [r for r in records
               if isinstance(r, dict) and "end_to_end" in r
               and not r.get("trace") and not r.get("smoke")]
    return sorted(records, key=lambda r: r["started_at"])


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(median, quartile distance, quartile distance / |median|)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, (q3 - q1) / abs(median) if median else 0.0


def judge(parent: list[float], change: list[float], better: str,
          bound: float, more_failures: bool = False) -> dict:
    """The verdict for one metric on one workload (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p_median, p_iqr, p_spread = spread(parent)
    c_median, c_iqr, c_spread = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    # Positive when the change is worse, as a share of the parent median.
    worse_by = -sign * (c_median - p_median) / abs(p_median) if p_median \
        else 0.0
    every_run_better = (min(change) > max(parent) if better == "higher"
                        else max(change) < min(parent))
    if max(p_spread, c_spread) > bound and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and -worse_by * abs(p_median) > p_iqr and not more_failures):
        verdict = "gain"
    else:
        verdict = "same"
    return {"verdict": verdict, "parent_median": p_median,
            "change_median": c_median, "parent_iqr": p_iqr,
            "change_iqr": c_iqr, "parent_spread": p_spread,
            "change_spread": c_spread,
            "worse_by": worse_by, "pairs": len(pairs), "wins": wins,
            "losses": losses}


def compare(parent: list[dict], change: list[dict],
            metrics: list[dict]) -> dict:
    """``{workload: {metric: verdict dict}}`` for workloads on both sides."""
    report = {}
    workloads = sorted({r["workload"] for r in parent}
                       & {r["workload"] for r in change})
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        more_failures = (sum(r["result"]["failed"] for r in c_runs)
                         > sum(r["result"]["failed"] for r in p_runs))
        report[workload] = {
            m["name"]: judge([r["end_to_end"][m["name"]] for r in p_runs],
                             [r["end_to_end"][m["name"]] for r in c_runs],
                             m["better"], m["bound"], more_failures)
            for m in metrics
        }
    return report


def format_report(report: dict, metrics: list[dict]) -> str:
    names = [m["name"] for m in metrics]
    width = max(len(n) for n in names) + 2
    lines = [f"{'workload':<16}" + "".join(f"{n:>{width}}" for n in names)]
    for workload, row in report.items():
        cells = [f"{row[n]['verdict']} {-row[n]['worse_by']:+.1%}"
                 for n in names]
        lines.append(f"{workload:<16}" + "".join(f"{c:>{width}}" for c in cells))
    pairs = {w: row[names[0]]["pairs"] for w, row in report.items()}
    lines.append("pairs per workload: " + ", ".join(
        f"{w} {n}" for w, n in pairs.items())
        + f" (a gain needs at least {MIN_PAIRS}); cells show the change's "
        "median against the parent's, positive = better")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    report = compare(load_records(args.parent), load_records(args.change),
                     metrics)
    if not report:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(format_report(report, metrics))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    regressed = any(cell["verdict"] == "regressed"
                    for row in report.values() for cell in row.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
