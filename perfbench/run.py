"""weightsteg benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs are generated from --seed by a set-up
process (three times with --trace 0; set-up time is their median), then a
measuring process runs the workload's weightsteg commands in-process for
--seconds after one discarded warm-up iteration and checks every output.
BLAS is pinned to one thread in every child process. Scratch files live under
.perfbench/ in the checkout and are removed at exit; a results file with the
environment, samples and output digests is kept in .perfbench/results/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads  # perfbench/ is on sys.path as the script's directory

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_REPEATS = 3
BLAS_THREADS = 1  # one single-threaded process: the measured run never competes with itself
RUN_LIMIT_S = 170.0
END_TO_END = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv, timeout: float) -> tuple[str, float]:
    """Run a worker process to completion; return its stdout and peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        reason = "timed out" if proc.returncode == -signal.SIGKILL else f"exited {proc.returncode}"
        raise BenchError(f"worker {argv[0]} {reason}")
    return out.decode("utf-8"), usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def percentile_with_tail(values, pct: int):
    """The pct-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100)[pct - 1]
    return cut if sum(v > cut for v in values) >= 10 else None


def measure(workload: str, seed: int, seconds: float, trace: int, base: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = base / "work" / f"{workload}-seed{seed}-{os.getpid()}"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = []
        for i in range(SETUP_REPEATS if not trace else 1):
            out, _ = run_child(
                ["setup", "--workload", workload, "--seed", str(seed), "--dir", str(work / f"setup{i}")],
                timeout=min(60.0, deadline - time.monotonic()),
            )
            setup_s.append(json.loads(out)["setup_s"])
            if i:
                shutil.rmtree(work / f"setup{i}")
        measure_json = work / "measure.json"
        spans_path = results_dir / f"{workload}-seed{seed}-spans.json"
        _, peak_mb = run_child(
            ["measure", "--workload", workload, "--seed", str(seed), "--dir", str(work / "setup0"),
             "--seconds", str(seconds), "--trace", str(trace), "--out", str(measure_json),
             "--spans", str(spans_path)],
            timeout=deadline - time.monotonic(),
        )
        raw = json.loads(measure_json.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((base / "work").iterdir()):
            (base / "work").rmdir()

    spec = workloads.WORKLOADS[workload]
    timed = raw["iterations"]
    everything = [raw["warmup"], *timed, *raw["traced"]]
    attempted = sum(it["attempted"] for it in everything)
    failures = [f for it in everything for f in it["failures"]]
    reference = raw["warmup"]["digests"]
    for it in everything[1:]:
        attempted += 1
        if it["digests"] != reference:
            failures.append("outputs differ from the first iteration's")

    rates = [spec.items / it["wall_s"] for it in timed]
    values = {
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_s),
    }
    end_to_end = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    extra = {"error_rate": (len(failures) / attempted, "ratio")}
    if workload == "scan-large":
        gaps_ms = [g * 1e3 for it in timed for g in it["line_gaps_s"]]
        extra["verdict_ms_p50"] = (statistics.median(gaps_ms), "ms")
        extra["verdict_ms_p90"] = (percentile_with_tail(gaps_ms, 90), "ms")
        extra["verdicts"] = (len(gaps_ms), "count")
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "source": source_identity(),
        "environment": raw["environment"],
        "samples": {
            "iterations": len(timed),
            "iteration_s": [it["wall_s"] for it in timed],
            "traced_iteration_s": [it["wall_s"] for it in raw["traced"]],
            "warmup_s": raw["warmup"]["wall_s"],
            "setup_s": setup_s,
        },
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": reference,
        "end_to_end": end_to_end,
        "extra": extra,
    }
    if trace:
        result["per_layer"] = raw["layer_metrics"]
        result["absent"] = raw["absent"]
    with open(results_dir / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_table(result: dict) -> None:
    samples = result["samples"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={samples['iterations']} setups={len(samples['setup_s'])}")
    rows = {**(result["per_layer"] if result["trace"] else result["end_to_end"]), **result["extra"]}
    for name, (value, unit) in rows.items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")
    if result.get("absent"):
        print(f"  absent (not wrapped at this commit): {', '.join(result['absent'])}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weightsteg" / "cli.py").is_file():
        print(f"error: no weightsteg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, args.trace, ROOT / ".perfbench"))
            print_table(results[-1])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res in results:
        chosen = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name, (value, unit) in chosen.items():
            if value is None or not math.isfinite(value):
                print(f"error: {res['workload']} metric {name} has no value", file=sys.stderr)
                return 1
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
