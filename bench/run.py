#!/usr/bin/env python3
"""Benchmark of the CDPC reproduction: four seeded workloads, checked
against oracle golden digests, with an outside-in layer ledger.

Run from the repository root (``src`` is put on the path here)::

    python3 bench/run.py [--seed S] [--seconds N] [--trace [0|1]]
    python3 bench/run.py --workload W [--seed S] [--seconds N] [--trace [0|1]]
    python3 bench/run.py --refresh-golden --seed S

Without ``--workload`` every workload runs in its own fresh Python
process, each metric is printed with its unit, and the combined record
is written to ``bench/out/results.json``.  With ``--workload`` the
workload runs in this process, writes ``bench/out/<workload>.json``, and
the last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics (and a
Chrome trace in ``bench/out/<workload>.trace.json``).  Any output that
does not match its golden digest fails the run, which then exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# The benchmark measures the checkout it sits in, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: no repro package under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
try:
    import golden
    import layers
    import suite
    from repro.sim.trace_cache import default_trace_cache
except ImportError as exc:
    sys.exit(f"bench: cannot import the repro package from {ROOT / 'src'}: {exc}")
IMPORT_S = time.perf_counter() - STARTED

#: Set-up runs this many times; ``setup_s`` is import time plus the median.
SETUP_REPEATS = 3
LATENCY_PERCENTILE = 95


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _rep(workload: suite.Workload, ledger: Optional[layers.Ledger] = None) -> suite.Rep:
    gc.collect()
    if ledger is None:
        return workload.rep()
    with ledger:
        return workload.rep(ledger)


def measure(workload: suite.Workload, seconds: float, trace: bool) -> dict:
    """Set up, then repeat (or, traced, alternate plain and traced) reps."""
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - began)
    ledger = layers.Ledger(suite.preset_of) if trace else None
    plain: list[suite.Rep] = []
    traced: list[suite.Rep] = []
    cache = default_trace_cache()
    lookups = {"hits": 0, "misses": 0}
    began = time.perf_counter()
    while True:
        plain.append(_rep(workload))
        if ledger is not None:
            before = cache.stats()
            traced.append(_rep(workload, ledger))
            after = cache.stats()
            for key in lookups:
                lookups[key] += after[key] - before[key]
        # Start another round only if one more fits in the run.
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(plain) > seconds:
            break
    return {
        "setup_s": IMPORT_S + statistics.median(prepare_s),
        "plain": plain,
        "traced": traced,
        "ledger": ledger,
        "trace_cache": lookups,
    }


def check(workload: suite.Workload, measured: dict, digests: dict) -> tuple[int, list[str]]:
    """(attempted, problems): every output against its golden digest.

    Traced outputs are held to the same digests as untraced ones, so a
    traced repetition that changes any result fails the run.
    """
    attempted = 0
    problems = []
    for rep in measured["plain"] + measured["traced"]:
        for section, key, value in rep.outputs:
            attempted += 1
            want = golden.expected(digests, workload.engine_seed, section, key)
            if value is None:
                problems.append(f"{key}: no answer")
            elif want is None:
                problems.append(f"{key}: no golden digest")
            elif value != want:
                problems.append(f"{key}: digest {value[:12]} != golden {want[:12]}")
    return attempted, problems


def end_to_end(measured: dict) -> dict[str, float]:
    reps = measured["plain"]
    walls = [rep.wall_s for rep in reps]
    answered = [sum(1 for _, _, value in rep.outputs if value is not None) for rep in reps]
    latencies = [latency for rep in reps for latency in rep.latencies_s]
    return {
        "setup_s": measured["setup_s"],
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(n / wall for n, wall in zip(answered, walls)),
        "latency_p95_ms": percentile(latencies, LATENCY_PERCENTILE) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def informational(workload: suite.Workload, measured: dict, digests: dict) -> dict:
    """Numbers printed beside the gated metrics: sample counts, the
    simulated-time results (pinned exactly by the golden digests) and
    host throughput in modeled references."""
    reps = measured["plain"]
    latencies = [latency for rep in reps for latency in rep.latencies_s]
    rank = math.ceil(LATENCY_PERCENTILE / 100 * len(latencies))
    info: dict[str, Any] = {
        "engine_seed": workload.engine_seed,
        "reps": len(reps),
        "rep_wall_s": [rep.wall_s for rep in reps],
        "latency_samples": len(latencies),
        "latency_samples_beyond_p95": len(latencies) - rank,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
    }
    stats = reps[0].stats
    if "refs" in stats:
        info["refs_per_s"] = statistics.median(rep.stats["refs"] / rep.wall_s for rep in reps)
        wall_ns = stats["sim_wall_ns"]
        ratios = [
            wall_ns[key] / wall_ns[key.replace("/page_coloring@", "/cdpc@")]
            for key in wall_ns
            if "/page_coloring@" in key and key.replace("/page_coloring@", "/cdpc@") in wall_ns
        ]
        info["sim_cdpc_speedup"] = geomean(ratios)
    if "predicted" in stats:
        # Scored as repro.sim.bench scores its static_predict leg.
        oracle = golden.measured_llc_misses(digests, workload.engine_seed)
        errors = [
            abs(predicted - oracle[key]) / oracle[key] if oracle[key] > 0
            else float(predicted != 0)
            for key, predicted in stats["predicted"].items()
            if key in oracle
        ]
        info["predict_max_rel_error"] = max(errors, default=0.0)
    return info


def per_layer(measured: dict) -> dict[str, dict[str, float]]:
    """Per-layer metrics of the traced reps, per repetition, plus the
    bases of their ratios and the counters left out of BENCHMARK.json."""
    ledger: layers.Ledger = measured["ledger"]
    traced = measured["traced"]
    plain = measured["plain"][: len(traced)]
    n = len(traced)
    totals = ledger.totals()

    def self_s(layer: str) -> float:
        return totals[layer][layers.SELF_NS] / n / 1e9

    def calls(layer: str) -> float:
        return totals[layer][layers.CALLS] / n

    def mean_stat(key: str) -> float:
        return statistics.fmean(rep.stats.get(key, 0) for rep in traced)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    faults = totals["osmodel.fault"]
    kernel = totals["machine.kernel"]
    requested = sum(cell["hint_requests"] for cell in ledger.cells)
    honored = sum(cell["hints_honored"] for cell in ledger.cells)
    lookups = measured["trace_cache"]
    hits = [latency for rep in traced for latency in rep.stats.get("hit_latencies_s", [])]
    metrics = {
        "sim.engine.self_s": self_s("sim.engine"),
        "workloads.build_s": self_s("workloads.build"),
        "compiler.layout_s": self_s("compiler.layout"),
        "compiler.summaries_s": self_s("compiler.summaries"),
        "compiler.schedule_s": self_s("compiler.schedule"),
        "core.cdpc_assign_s": self_s("core.cdpc_assign"),
        "checker.lint_s": self_s("checker.lint"),
        "checker.staticmiss_s": self_s("checker.staticmiss"),
        "checker.staticmiss.calls": calls("checker.staticmiss"),
        "osmodel.setup_s": self_s("osmodel.setup"),
        "osmodel.madvise_s": self_s("osmodel.madvise"),
        "osmodel.fault_s": self_s("osmodel.fault"),
        "osmodel.faults": calls("osmodel.fault"),
        "osmodel.fault_ns_per_fault": ratio(faults[layers.SELF_NS], faults[layers.CALLS]),
        "osmodel.hint_honor_rate": ratio(honored, requested),
        "sim.tracegen_s": self_s("sim.tracegen"),
        "sim.tracegen.calls": calls("sim.tracegen"),
        "sim.trace_cache.hit_rate": ratio(lookups["hits"], lookups["hits"] + lookups["misses"]),
        "machine.columnar_lower_s": self_s("machine.columnar_lower"),
        "machine.columnar_lower.calls": calls("machine.columnar_lower"),
        "machine.kernel.self_s": self_s("machine.kernel"),
        "machine.kernel.sends": calls("machine.kernel"),
        "machine.kernel.ns_per_ref": ratio(kernel[layers.SELF_NS], kernel[layers.REFS]),
        "machine.init_kernel.self_s": self_s("machine.init_kernel"),
        "machine.oracle_access.calls": calls("machine.oracle_access"),
        "machine.refs": mean_stat("refs"),
        "machine.l1_misses": mean_stat("l1_misses"),
        "machine.llc_misses": mean_stat("llc_misses"),
        "harness.campaign.self_s": self_s("harness.campaign"),
        "service.batch_s": totals["service.batch"][layers.TOTAL_NS] / n / 1e9,
        "service.batches": mean_stat("batches"),
        "service.batch_size_mean": ratio(mean_stat("batched_requests"), mean_stat("batches")),
        "service.plan_cache_hit_rate": ratio(mean_stat("cached"), mean_stat("answers")),
        "service.coalesced": mean_stat("coalesced"),
        "service.hit_latency_p50_ms": percentile(hits, 50) * 1e3,
        "trace.overhead_frac": statistics.median(rep.wall_s for rep in traced)
        / statistics.median(rep.wall_s for rep in plain) - 1,
    }
    extras = {
        "osmodel.hint_requests": requested / n,
        "sim.trace_cache.lookups": (lookups["hits"] + lookups["misses"]) / n,
        "service.answers": mean_stat("answers"),
        "machine.prefetch_s": self_s("machine.prefetch"),
        "harness.retries": mean_stat("retries"),
        "harness.failures": mean_stat("failures"),
        "traced_reps": n,
    }
    return {"metrics": metrics, "extras": extras}


def _table(title: str, rows: list[tuple[str, Any, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {shown:>14} {unit}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    workload: Optional[suite.Workload] = None,
    digests: Optional[dict] = None,
    out_dir: Path = OUT,
) -> dict:
    """Run one workload in this process; returns its record (also written)."""
    spec = load_spec()
    digests = golden.load() if digests is None else digests
    workload = workload or suite.WORKLOADS[name](seed)
    measured = measure(workload, seconds, trace)
    attempted, problems = check(workload, measured, digests)
    for problem in problems[:20]:
        print(f"bench: {name}: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(measured)
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "info": informational(workload, measured, digests),
    }
    _table(f"{name}: end to end (host time; seed {seed}, {record['info']['reps']} reps)",
           [(k, v, units[k]) for k, v in e2e.items()])
    _table(f"{name}: informational", [
        (k, v, "") for k, v in record["info"].items() if not isinstance(v, list)
    ])
    if trace:
        ledger = per_layer(measured)
        record["per_layer"] = {
            k: {"value": v, "unit": units[k]} for k, v in ledger["metrics"].items()
        }
        record["layer_extras"] = ledger["extras"]
        _table(f"{name}: per layer (traced reps, per repetition)",
               [(k, v, units[k]) for k, v in ledger["metrics"].items()]
               + [(k, v, "(extra)") for k, v in ledger["extras"].items()])
        measured["ledger"].write_chrome_trace(out_dir / f"{name}.trace.json")
    print(f"{name}: {attempted - len(problems)}/{attempted} outputs match the golden digests")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    chosen = record["per_layer"] if trace else record["end_to_end"]
    section = spec["per_layer"] if trace else spec["end_to_end"]
    record["result"] = {
        "correct": record["correct"],
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: chosen[m["name"]] for m in section},
    }
    return record


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; writes results.json."""
    spec = load_spec()
    records = {}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        record_path = OUT / f"{name}.json"
        record_path.unlink(missing_ok=True)
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=3 * seconds + 300)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        if proc.returncode != 0 or not record_path.exists():
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        records[name] = json.loads(record_path.read_text())
        status = status or int(not records[name]["correct"])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "trace": int(trace), "workloads": records},
        indent=1,
    ) + "\n")
    print("summary (end to end, host time)")
    for name, record in records.items():
        values = ", ".join(
            f"{metric}={item['value']:.4g} {item['unit']}"
            for metric, item in record["end_to_end"].items()
        )
        print(f"  {name:<14} failed {record['failed']}/{record['attempted']}: {values}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--refresh-golden", action="store_true",
                        help="regenerate this seed's golden digests from the oracle")
    args = parser.parse_args(argv)
    if args.refresh_golden:
        disagreements = golden.refresh(args.seed)
        for key in disagreements:
            print(f"bench: fast path disagrees with the oracle on {key}", file=sys.stderr)
        print(f"golden digests for engine seed {suite.engine_seed(args.seed)} written "
              f"to {golden.GOLDEN}")
        return 1 if disagreements else 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
