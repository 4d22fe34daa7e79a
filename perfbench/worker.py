"""Child processes of the benchmark: `setup` builds a workload's inputs, `measure` runs it.

Both import weightsteg from the checkout's ``src`` directory and call
``weightsteg.cli.main`` in-process. ``measure`` runs nothing but the workload's
commands and their output checks: one discarded warm-up iteration, then
iterations until the requested seconds have passed. With ``--trace 1`` it
alternates untraced and traced iterations; the traced ones run under a
layertrace.Tracer and yield the per-layer metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts the program's import too

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_program():
    """Import weightsteg from this checkout only, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weightsteg.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"weightsteg was imported from {cli.__file__}, outside {src}")
    return cli


class LineClock(io.TextIOBase):
    """A stdout stand-in that records each printed line and the time it took.

    A line's time runs from the previous line, or from the last mark(), to the
    moment the line ends.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.gaps: list[float] = []
        self._partial = ""
        self.mark()

    def mark(self):
        self._last = time.perf_counter()

    def writable(self):
        return True

    def write(self, text):
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            now = time.perf_counter()
            self.gaps.append(now - self._last)
            self._last = now
            self.lines.append(line)
        return len(text)


def run_iteration(cli, workload, root: Path, seed: int, tracer=None) -> dict:
    """Run the workload's commands once; timing covers the commands only."""
    workload.clean(root)
    clock = LineClock()
    codes = []
    with contextlib.redirect_stdout(clock), (tracer or contextlib.nullcontext()):
        begin = time.perf_counter()
        for argv in workload.commands(seed):
            clock.mark()
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 1)
            except Exception:
                traceback.print_exc()
                codes.append(1)
        wall = time.perf_counter() - begin
    check = workloads.Check()
    for argv, code in zip(workload.commands(seed), codes):
        check.expect(code == 0, f"weightsteg {argv[0]} exited {code}")
    digests = workload.check(root, seed, clock.lines, check)
    return {
        "wall_s": wall,
        "line_gaps_s": clock.gaps,
        "attempted": check.attempted,
        "failures": check.failures,
        "digests": digests,
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def cmd_setup(args) -> int:
    cli = import_program()
    root = Path(args.dir)
    root.mkdir(parents=True)
    os.chdir(root)
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.WORKLOADS[args.workload].setup(cli, root, args.seed)
    json.dump({"setup_s": time.perf_counter() - STARTED}, sys.stdout)
    return 0


def cmd_measure(args) -> int:
    cli = import_program()
    workload = workloads.WORKLOADS[args.workload]
    root = Path(args.dir).resolve()
    os.chdir(root)
    warmup = run_iteration(cli, workload, root, args.seed)
    iterations, traced = [], []
    tracer = layertrace.Tracer()
    begin = time.perf_counter()
    while (
        time.perf_counter() - begin < args.seconds
        or len(iterations) < workload.min_iterations
        or (args.trace and not traced)
    ):
        iterations.append(run_iteration(cli, workload, root, args.seed))
        if args.trace:
            traced.append(run_iteration(cli, workload, root, args.seed, tracer))
    result = {
        "environment": environment(),
        "warmup": warmup,
        "iterations": iterations,
        "traced": traced,
    }
    if args.trace:
        metrics, absent = layertrace.layer_metrics(
            tracer.spans, tracer.wrapped, len(traced), workload.eval_images, tracer.uncounted
        )
        traced_wall = statistics.median(it["wall_s"] for it in traced)
        untraced_wall = statistics.median(it["wall_s"] for it in iterations)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        # The root span (cli.main) covers the whole command, so only time in
        # the functions below it shows how much of a run the layers explain.
        metrics["trace.layer_share"] = (
            layertrace.nested_self_s(tracer.spans) / sum(it["wall_s"] for it in traced), "ratio"
        )
        result["layer_metrics"] = metrics
        result["absent"] = absent
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in tracer.spans], fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="role", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.set_defaults(func=cmd_measure)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
