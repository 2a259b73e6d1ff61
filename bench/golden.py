"""Oracle golden digests: what every benchmark output must hash to.

``golden.json`` holds, per engine seed, the sha256 of
``json.dumps(to_dict(), sort_keys=True)`` for every simulated cell and
every ``StaticMissProfile`` (host-time ``analyze_ns`` dropped), the
oracle-measured external-cache miss total of every predicted cell, and,
seed-independent, the digest of every answer ``service_mixed`` may get.
:func:`refresh` regenerates one engine seed from the ``fast_path=False``
oracle and reports every output on which the fast path disagrees.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Optional

import suite
from repro.checker.staticmiss import StaticMissProfile
from repro.service import execute_service_task, service_task
from repro.sim.engine import run_benchmark
from repro.sim.sweeps import run_task_campaign

GOLDEN = Path(__file__).with_name("golden.json")

#: Presets whose simulated cells are pinned, and presets whose static
#: predictions are pinned (with their oracle-measured miss totals).
SIMULATED_PRESETS = suite.Fig6Warm.presets + suite.GeometryCold.presets
PREDICTED_PRESETS = suite.PredictSweep.presets


def load(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())


def expected(golden: dict, engine_seed: int, section: str, key: str) -> Optional[str]:
    """The golden digest of one output (None when none is recorded)."""
    if section == "service":
        return golden.get("service", {}).get(key)
    return golden.get("engine_seeds", {}).get(str(engine_seed), {}).get(section, {}).get(key)


def measured_llc_misses(golden: dict, engine_seed: int) -> dict[str, float]:
    return golden.get("engine_seeds", {}).get(str(engine_seed), {}).get("llc_misses", {})


def refresh(seed: int, path: Path = GOLDEN) -> list[str]:
    """Regenerate ``seed``'s engine seed; returns fast-path disagreements."""
    engine_seed = suite.engine_seed(seed)
    disagreements: list[str] = []

    cells = suite.sweep_cells(SIMULATED_PRESETS)
    tasks = suite.sweep_tasks(cells, engine_seed)
    oracle = run_task_campaign(
        [(model, config, replace(options, fast_path=False)) for model, config, options in tasks],
        max_workers=1,
    )
    oracle.raise_if_failed()
    fast = run_task_campaign(tasks, max_workers=1)
    fast.raise_if_failed()
    simulated, llc_misses = {}, {}
    for (preset, model, policy), reference, result in zip(cells, oracle.results, fast.results):
        key = suite.cell_id(preset, model, policy)
        simulated[key] = suite.digest(reference.to_dict())
        if suite.digest(result.to_dict()) != simulated[key]:
            disagreements.append(key)
        if preset in PREDICTED_PRESETS:
            llc_misses[key] = StaticMissProfile.measured_from(reference)["total"]

    predicted = {
        suite.cell_id(preset, model, policy): suite.digest(
            suite.profile_payload(suite.predict(preset, model, policy, engine_seed).to_dict())
        )
        for preset, model, policy in suite.sweep_cells(PREDICTED_PRESETS)
    }

    service = {}
    for key in suite.service_keys():
        task = service_task(suite.service_request(*key))
        answer = suite.payload_digest(execute_service_task(task))
        if task[0] == "simulate":
            _, model, config, options = task
            reference = run_benchmark(model, config, replace(options, fast_path=False))
            service[suite.service_key_id(*key)] = suite.digest(reference.to_dict())
            if answer != service[suite.service_key_id(*key)]:
                disagreements.append(suite.service_key_id(*key))
        else:
            service[suite.service_key_id(*key)] = answer

    golden = load(path) if path.exists() else {}
    golden.setdefault("engine_seeds", {})[str(engine_seed)] = {
        "cells": simulated,
        "predict": predicted,
        "llc_misses": llc_misses,
    }
    golden["service"] = service
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return disagreements
