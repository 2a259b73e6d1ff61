#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit with runs of a change.

    python3 bench/compare.py PARENT.json CHANGE.json [CHANGE.json ...]

Each file holds one or more run records: ``bench/out/results.json``
(all workloads) or ``bench/out/<workload>.json`` (one), either
concatenated one after another or as a JSON list.  Run i of the parent
pairs with run i of each change, so collect them alternating which side
runs first.  Every (end-to-end metric, workload) pair of
``BENCHMARK.json`` gets its own row and one verdict:

* ``gain`` -- the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's own spread
  (the distance between its quartiles);
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, either side) exceeds the bound, and not every change run reads
  better than every parent run;
* ``same`` -- none of the above;
* ``too-few-pairs`` -- fewer than 10 pairs.

A workload whose change runs failed any output gets an ``incorrect``
row.  The exit code is 1 when any row is a regression, unresolved, too
few pairs or incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_FRACTION = 0.9
BLOCKING = ("regression", "unresolved", "too-few-pairs", "incorrect")


def load_runs(path: Path) -> list[dict]:
    """Every run record in ``path``, as {workload: record}."""
    text = path.read_text()
    decoder = json.JSONDecoder()
    documents = []
    position = 0
    while True:
        while position < len(text) and text[position].isspace():
            position += 1
        if position == len(text):
            break
        document, position = decoder.raw_decode(text, position)
        documents.extend(document if isinstance(document, list) else [document])
    return [
        document["workloads"] if "workloads" in document
        else {document["workload"]: document}
        for document in documents
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


@dataclass
class Row:
    workload: str
    metric: str
    parent: list[float]
    change: list[float]
    bound: float
    verdict: str
    wins: int = 0


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """(verdict, wins) for one metric on one workload; pairs by index."""
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) < MIN_PAIRS:
        return "too-few-pairs", wins
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    if wins >= WIN_FRACTION * len(pairs) and abs(c_median - p_median) > p_q3 - p_q1:
        return "gain", wins
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not every_run_better:
        return "unresolved", wins
    worse_by = -sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    if worse_by > bound:
        return "regression", wins
    return "same", wins


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[Row]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        parent = [run[workload] for run in parent_runs if workload in run]
        change = [run[workload] for run in change_runs if workload in run]
        if not parent or not change:
            continue
        failed = [run["failed"] for run in change]
        if any(failed) and sum(failed) > sum(run["failed"] for run in parent):
            rows.append(Row(workload, "correct", [], [], 0.0, "incorrect"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run["end_to_end"][name]["value"] for run in parent]
            c = [run["end_to_end"][name]["value"] for run in change]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            rows.append(Row(workload, name, p, c, metric["bound"], result, wins))
    return rows


def _describe(values: list[float]) -> str:
    if not values:
        return "-"
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def render(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':<30} "
        f"{'change median [q1, q3]':<30} {'delta':>8} {'wins':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        delta = ""
        if row.parent and row.change:
            p_median = statistics.median(row.parent)
            if p_median:
                delta = f"{(statistics.median(row.change) - p_median) / abs(p_median):+.1%}"
        wins = f"{row.wins}/{min(len(row.parent), len(row.change))}" if row.parent else ""
        lines.append(
            f"{row.workload:<14} {row.metric:<16} {_describe(row.parent):<30} "
            f"{_describe(row.change):<30} {delta:>8} {wins:>7} {row.bound:>6.0%}  {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("changes", type=Path, nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    parent_runs = load_runs(args.parent)
    status = 0
    for path in args.changes:
        rows = compare(parent_runs, load_runs(path), spec)
        print(f"{args.parent} -> {path}")
        print(render(rows))
        if any(row.verdict in BLOCKING for row in rows):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
