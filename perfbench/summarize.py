"""Fold the results files of many benchmark runs into one summary.

    python3 perfbench/summarize.py .perfbench/results > summary.json

For each workload it gives the median, quartiles and quartile spread (as a
share of the median) of every end-to-end metric across the untraced runs,
the output digests of each seed, and the per-layer metrics of the traced
runs. perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values) -> dict:
    values = [v for v in values if v is not None]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else None,
            "runs": len(values)}


def summarize(results_dir: Path) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(results_dir.glob("*-trace[01].json"))]
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry = {
            "source": mine[0]["source"],
            "environment": mine[0]["environment"],
            "seconds": mine[0]["seconds"],
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "digests_by_seed": {str(r["seed"]): r["digests"] for r in plain},
        }
        if plain:
            metrics = {}
            for key in ("end_to_end", "extra"):
                for name, (_, unit) in plain[0][key].items():
                    metrics[name] = dict(spread(r[key][name][0] for r in plain), unit=unit)
            entry["end_to_end"] = metrics
            entry["iterations_per_run"] = [r["samples"]["iterations"] for r in plain]
        if traced:
            entry["per_layer"] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in traced[0]["per_layer"].items()
            }
            entry["per_layer_seed"] = traced[0]["seed"]
            entry["absent"] = traced[0]["absent"]
        out[workload] = entry
    return out


if __name__ == "__main__":
    print(json.dumps(summarize(Path(sys.argv[1] if len(sys.argv) > 1 else ".perfbench/results")),
                     indent=1))
