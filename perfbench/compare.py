"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py perfbench/results/parent perfbench/results/change

For each workload and metric it prints both sides' median and quartiles
(over the seeds each side ran) and the ratio of medians, change over
parent.  An end-to-end metric is flagged ``REGRESSION`` when the
change's median is worse than the parent's by more than the metric's
bound in ``BENCHMARK.json``, and ``unresolved`` when either side's
spread (interquartile range over median) exceeds that bound, unless
every run of the change reads better than every run of the parent.
Per-layer metrics (from ``--trace 1`` records) have no bound and are
listed without a flag.  Exits with 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} for every result file found."""
    runs: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict | None, a: list[float], b: list[float]) -> str:
    if spec is None:
        return ""
    higher = spec["better"] == "higher"
    bound = spec["bound"]
    qa, qb = quartiles(a), quartiles(b)
    if not qa[1]:
        return "zero parent median"
    change = (qb[1] - qa[1]) / abs(qa[1])
    worse = -change if higher else change
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    beats = min(b) > max(a) if higher else max(b) < min(a)
    if worse > bound:
        return "REGRESSION"
    if spread > bound and not beats:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    regressed = False
    for (workload, trace) in sorted(parent):
        if (workload, trace) not in change:
            continue
        pa, ch = parent[(workload, trace)], change[(workload, trace)]
        print(f"# {workload} trace={trace}: parent seeds "
              f"{sorted(r['seed'] for r in pa)}, change seeds "
              f"{sorted(r['seed'] for r in ch)}")
        for side, recs in (("parent", pa), ("change", ch)):
            m = recs[0]["machine"]
            print(f"#   {side}: {m['git_sha']} python {m['python']} "
                  f"nproc {m['nproc']} {m['platform']}")
        print(f"  {'metric':<46} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'ratio':>7}")
        for name in pa[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in pa]
            b = [r["metrics"][name]["value"] for r in ch if name in r["metrics"]]
            if not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            flag = verdict(bounds.get(name) if trace == 0 else None, a, b)
            regressed |= flag == "REGRESSION"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:<46} {fmt.format(*qa):>30} {fmt.format(*qb):>30} "
                  f"{ratio:7.3f} {flag}")
        tails = [
            f"p{r['tail_percentile']:.0f}/{r['latency_samples']}"
            for r in pa + ch if "tail_percentile" in r
        ]
        if tails:
            print(f"  tail percentile/samples per run: {' '.join(tails)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
