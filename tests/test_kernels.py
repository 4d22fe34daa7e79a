"""Which outputs keep their bits under another BLAS kernel or numpy SIMD dispatch.

Each case runs, in child processes under one numerical environment, the
pinned-digest report test and a tiny CLI chain (synth-mc, embed, extract,
imagify, build-dataset, train, scan), and compares the chain's files with
those made under the default environment. Models, attacked files, PGMs,
manifests and extracted payloads must be equal: they are integer and bit
work that no gemm touches. Trained detectors and the distances `scan` prints
may differ, since training amplifies a gemm's rounding; which of them do is
printed and recorded as a test property, not asserted.

Run as a script (``python tests/test_kernels.py DIR``), this module runs the
chain into DIR.
"""

import contextlib
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = "tests/test_cli.py::TestReportCommand::test_sweep_reads_each_model_once"

# OpenBLAS picks its kernel by CPU unless OPENBLAS_CORETYPE names one (Prescott
# runs on any x86-64 CPU); numpy's SIMD loops are picked the same way, less
# the features NPY_DISABLE_CPU_FEATURES names.
ENVIRONMENTS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "simd-below-x86-v3": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}
# the chain's files whose bytes may depend on the environment
KERNEL_DEPENDENT = ("detector.safetensors", "scan.txt")

pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the kernels and SIMD features named are x86-64 ones",
)


def _run_child(argv, name):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(ENVIRONMENTS[name], OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU lacks the {name} kernel")
    assert proc.returncode == 0, f"{argv} under {name}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}"


def run_under(name, out):
    """Run the pinned test and the chain under an environment; the chain's files by path."""
    _run_child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", PINNED], name)
    _run_child([sys.executable, __file__, str(out)], name)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def default_files(tmp_path_factory):
    return run_under("default", tmp_path_factory.mktemp("kernel-default"))


@pytest.mark.parametrize("name", [n for n in ENVIRONMENTS if n != "default"])
def test_outputs_under_environment(name, default_files, tmp_path, record_property):
    files = run_under(name, tmp_path)
    assert files.keys() == default_files.keys()
    differ = sorted(path for path in files if files[path] != default_files[path])
    record_property("differ_from_default", differ)
    print(f"{name}: differ from the default environment: {differ or 'none'}")
    assert [path for path in differ if not path.endswith(KERNEL_DEPENDENT)] == []


def chain(out: Path) -> None:
    """A tiny synth-mc -> embed -> extract -> imagify -> build-dataset -> train -> scan
    chain, run in out on relative paths so that no output names the directory."""
    from weightsteg.cli import main

    os.chdir(out)
    payload = ["--synthetic-payload", "16,2"]
    steps = [
        ["synth-mc", "--out", "mc", "--zoos", "2", "--models", "2", "--params", "600"],
        ["embed", "--in", "mc/zoo0/model000.safetensors", "--lsb", "8", "--fill", *payload,
         "--out", "attacked.safetensors"],
        ["extract", "--in", "attacked.safetensors", "--lsb", "8", "--bits", "256",
         "--out", "payload.bin"],
        ["imagify", "--in", "attacked.safetensors", "--size", "28", "--out", "attacked.pgm"],
        ["build-dataset", "--mc", "mc", "--lsb", "8", *payload, "--size", "28",
         "--train-zoos", "zoo0", "--out", "ds"],
        ["train", "--dataset", "ds", "--arch", "tiny", "--strategy", "ST",
         "--out", "detector.safetensors"],
    ]
    for argv in steps:
        if main(argv) != 0:
            sys.exit(f"weightsteg {argv[0]} failed")
    with open("scan.txt", "w") as scan_out, contextlib.redirect_stdout(scan_out):
        code = main(["scan", "--detector", "detector.safetensors", "--model", "mc"])
    if code != 0:
        sys.exit("weightsteg scan failed")


if __name__ == "__main__":
    chain(Path(sys.argv[1]))
