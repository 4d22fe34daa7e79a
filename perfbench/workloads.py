"""The benchmark's workloads: inputs, the weightsteg commands they run, output checks.

Every path a workload hands to weightsteg is relative to the workload's input
directory, which is the working directory of the process that runs it, so the
printed lines and the report/manifest bytes carry no machine-specific path.
See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

PAYLOAD_BYTES = 64
LARGE_PARAMS = 4_000_000  # 16 MB of float32 per model file
DESK_PARAMS = 10_000


def _payload_flag(seed: int) -> str:
    return f"{PAYLOAD_BYTES},{seed}"


def payload_bits(seed: int) -> np.ndarray:
    """The synthetic payload's bits, derived here independently of the program."""
    data = np.random.default_rng(seed).integers(0, 256, size=PAYLOAD_BYTES, dtype=np.uint8)
    return np.unpackbits(data)


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digests(root: Path, rel_dirs) -> dict[str, str]:
    """sha256 of every file under the given directories, keyed by relative path."""
    out = {}
    for rel in rel_dirs:
        for path in sorted(p for p in (root / rel).rglob("*") if p.is_file()):
            out[path.relative_to(root).as_posix()] = file_digest(path)
    return out


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Check:
    """Collects named pass/fail output checks; each failure is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Workload:
    name = ""
    why = ""
    items = 0  # work items completed by one iteration
    eval_images = 0  # distinct images one iteration classifies
    min_iterations = 1

    def setup(self, cli, root: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Directories the commands write, relative to the input directory."""
        return []

    def clean(self, root: Path) -> None:
        for rel in self.outputs():
            shutil.rmtree(root / rel, ignore_errors=True)

    def check(self, root: Path, seed: int, lines: list[str], check: Check) -> dict[str, str]:
        """Check one iteration's outputs and return the digests of its primary outputs."""
        raise NotImplementedError


def _run(cli, argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"setup command {argv[0]} exited {code}")


class SweepDesk(Workload):
    name = "sweep-desk"
    why = "the researcher's report loop: 2 ST runs x 25 evaluations on 4 zoos x 4 models of 10k params; net and detect dominate"
    runs = 2
    severities = 23
    modes = ("centroid", "1nn")
    test_models = 8  # zoo2 and zoo3 hold the evaluation models
    items = runs  # one detection run per item
    # Per model: the benign image and one per severity; the trained severity
    # (8) is among the severities, so its attacked image is the same image.
    eval_images = runs * test_models * (1 + severities)

    def setup(self, cli, root, seed):
        _run(cli, ["synth-mc", "--out", "mc", "--zoos", "4", "--models", "4",
                   "--params", str(DESK_PARAMS), "--seed", str(seed)])

    def commands(self, seed):
        return [[
            "report", "--mc", "mc", "--lsb", "8", "--synthetic-payload", _payload_flag(seed),
            "--train-zoos", "zoo0,zoo1", "--strategy", "ST",
            "--severities", f"1-{self.severities}", "--modes", ",".join(self.modes),
            "--runs", str(self.runs), "--seed", str(seed),
            "--out-csv", "out/report.csv", "--out-json", "out/report.json",
        ]]

    def outputs(self):
        return ["out"]

    def clean(self, root):
        super().clean(root)
        (root / "out").mkdir()

    def check(self, root, seed, lines, check):
        per_run = len(self.modes) * (3 + self.severities)
        expected = (self.runs + 3) * per_run  # per-run rows, then mean/ci95_low/ci95_high
        csv_path, json_path = root / "out/report.csv", root / "out/report.json"
        if not check.expect(csv_path.is_file() and json_path.is_file(), "report files written"):
            return {}
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
        check.expect(len(rows) == expected, f"report has {len(rows)} rows, expected {expected}")
        values = []
        for row in rows:
            try:
                values.append(float(row["value"]))
            except (KeyError, TypeError, ValueError):
                values.append(math.nan)
        check.expect(all(0.0 <= v <= 1.0 for v in values), "every report value lies in [0, 1]")
        try:
            doc = json.loads(json_path.read_text(encoding="utf-8"))
            json_rows = len(doc["rows"])
        except (ValueError, KeyError, TypeError):
            json_rows = -1
        check.expect(json_rows == expected, f"report JSON has {json_rows} rows, expected {expected}")
        digests = tree_digests(root, self.outputs())
        digests["stdout"] = text_digest("\n".join(lines))
        return digests


class ScanLarge(Workload):
    name = "scan-large"
    why = "the defender's read path: scan 16 files of 4M float32 params, safetensors and raw .f32; weights_io and imagerep dominate"
    n_files = 16
    items = n_files  # one scanned file per item
    eval_images = n_files
    min_iterations = 7  # pools at least 110 verdicts, so p90 has ten beyond it

    def setup(self, cli, root, seed):
        from weightsteg import load_model, save_model

        _run(cli, ["synth-mc", "--out", "models", "--zoos", "1", "--models", str(self.n_files),
                   "--params", str(LARGE_PARAMS), "--seed", str(seed)])
        for path in sorted((root / "models/zoo0").glob("*.safetensors"))[1::2]:
            save_model(load_model(path), path.with_suffix(".f32"))
            path.unlink()
        _run(cli, ["synth-mc", "--out", "desk", "--zoos", "2", "--models", "2",
                   "--params", str(DESK_PARAMS), "--seed", str(seed)])
        _run(cli, ["build-dataset", "--mc", "desk", "--lsb", "8", "--synthetic-payload",
                   _payload_flag(seed), "--train-zoos", "zoo0", "--out", "desk-ds"])
        _run(cli, ["train", "--dataset", "desk-ds", "--strategy", "ST", "--seed", str(seed),
                   "--out", "detector.safetensors"])

    def commands(self, seed):
        return [["scan", "--detector", "detector.safetensors", "--model", "models/zoo0"]]

    def check(self, root, seed, lines, check):
        files = sorted(p.relative_to(root).as_posix() for p in (root / "models/zoo0").iterdir())
        check.expect(len(files) == self.n_files, f"{len(files)} model files, expected {self.n_files}")
        check.expect(len(lines) == len(files), f"{len(lines)} verdicts for {len(files)} files")
        seen = []
        for line in lines:
            parts = line.split(",")
            ok = len(parts) == 4 and parts[1] in ("0", "1")
            if ok:
                try:
                    ok = all(math.isfinite(float(p)) for p in parts[2:])
                except ValueError:
                    ok = False
            check.expect(ok, f"verdict line {line!r} is path,label(0|1),d0,d1")
            seen.append(parts[0])
        check.expect(sorted(seen) == files, "one verdict per file")
        return {"stdout": text_digest("\n".join(lines))}


class AttackLarge(Workload):
    name = "attack-large"
    why = "the attack write path: fill-attack, save, digest and render 2 models of 4M params at X=2,8,23; steg dominates"
    severities = (2, 8, 23)
    n_models = 2  # one model in each of two zoos
    items = len(severities) * n_models  # one (model, severity) per item
    prefix_bits = 4096

    def setup(self, cli, root, seed):
        _run(cli, ["synth-mc", "--out", "models", "--zoos", str(self.n_models), "--models", "1",
                   "--params", str(LARGE_PARAMS), "--seed", str(seed)])

    def commands(self, seed):
        return [
            ["build-dataset", "--mc", "models", "--lsb", str(x), "--synthetic-payload",
             _payload_flag(seed), "--train-zoos", "zoo0", "--out", f"attack-x{x}"]
            for x in self.severities
        ]

    def outputs(self):
        return [f"attack-x{x}" for x in self.severities]

    def check(self, root, seed, lines, check):
        from weightsteg import extract_lsb, flatten, load_model

        bits = payload_bits(seed)
        expected = np.tile(bits, -(-self.prefix_bits // len(bits)))[: self.prefix_bits]
        check.expect(lines == [f"attack-x{x}/manifest.json" for x in self.severities],
                     "each build-dataset prints its manifest path")
        for x in self.severities:
            out = root / f"attack-x{x}"
            try:
                manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                n_samples = len(manifest["samples"])
                pgms_ok = all((out / s["path"]).is_file() for s in manifest["samples"])
            except (OSError, ValueError, KeyError, TypeError):
                n_samples, pgms_ok = -1, False
            check.expect(n_samples == 2 * self.n_models and pgms_ok,
                         f"X={x}: manifest lists {n_samples} written images")
            sample = out / "attacked/zoo0/model000.safetensors"
            try:
                got = extract_lsb(flatten(load_model(sample)), x, self.prefix_bits).bits
            except Exception as exc:  # a corrupt output must count as a failed check
                got = f"{type(exc).__name__}: {exc}"
            check.expect(isinstance(got, np.ndarray) and np.array_equal(got, expected),
                         f"X={x}: extract_lsb recovers the fill-payload prefix")
        return tree_digests(root, self.outputs())


WORKLOADS = {w.name: w for w in (SweepDesk(), ScanLarge(), AttackLarge())}
