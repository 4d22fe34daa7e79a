"""Command-line front end: embed, extract, imagify, build-dataset, train, scan, report.

Exit codes: 0 success, 2 usage error, 3 data/format error (a malformed
input file, such as a model file with no words), 4 capacity error.
All outputs are deterministic given flags and seed; timestamps only ever go
to the optional --log-file sidecar.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .dataset import build_dataset, is_model_file, load_collection, load_dataset, manifest_file
from .dataset import synth_collection
from .detect import (
    label_embeddings,
    load_detector,
    render_report_csv,
    render_report_json,
    save_detector,
)
from .errors import CapacityError, FormatError
from .imagerep import _normalize, grayscale_fourpart, render, write_pgm
from .net import STRATEGIES, TrainConfig, preset
from .pipeline import ExperimentConfig, run_report_sweep, train_detector
from .steg import AttackSpec, Payload, extract_lsb
from .weights_io import open_words, sha256_hex

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CAPACITY = 4

logger = logging.getLogger("weightsteg")


def _out_path(value: str | None, default_name: str) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get("WEIGHTSTEG_OUT_DIR", ".")) / default_name


def _payload_from_args(args) -> Payload:
    if getattr(args, "payload", None):
        return Payload.from_file(args.payload)
    spec = args.synthetic_payload
    try:
        n_bytes, seed = (int(part) for part in spec.split(","))
    except (ValueError, AttributeError):
        raise ValueError(f"--synthetic-payload expects BYTES,SEED, got {spec!r}") from None
    return Payload.synthetic(n_bytes, seed)


def _add_payload_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--payload", help="path to a raw payload file")
    group.add_argument(
        "--synthetic-payload",
        metavar="BYTES,SEED",
        help="seeded pseudo-random payload instead of a file",
    )


def _add_attack_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lsb", type=int, required=True, help="number of low bits to overwrite")
    _add_payload_flags(parser)
    parser.add_argument(
        "--allow-exponent",
        dest="mantissa_only",
        action="store_false",
        help="permit overwriting sign/exponent bits (by default only mantissa bits)",
    )


def _attack_from_args(args, fill: bool) -> AttackSpec:
    return AttackSpec(args.lsb, fill, _payload_from_args(args), args.mantissa_only)


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", default=TrainConfig.strategy, choices=STRATEGIES)
    parser.add_argument("--ub-lo", type=float, default=TrainConfig.ub_low)
    parser.add_argument("--ub-hi", type=float, default=TrainConfig.ub_high)
    parser.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    parser.add_argument("--margin", type=float, default=TrainConfig.margin)
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)


def _training_settings(args) -> dict:
    """The training flags as TrainConfig and ExperimentConfig keywords."""
    return dict(strategy=args.strategy, learning_rate=args.lr, margin=args.margin,
                batch_size=args.batch_size, seed=args.seed, ub_low=args.ub_lo,
                ub_high=args.ub_hi)


def _parse_zoos(text: str) -> list[str]:
    zoos = [z.strip() for z in text.split(",") if z.strip()]
    if not zoos:
        raise ValueError("--train-zoos needs at least one zoo id")
    return zoos


def _parse_int_spec(text: str) -> tuple[int, ...]:
    """'none' -> (); '4' -> (4,); '1-5' -> 1..5; '2,8,16' -> as listed."""
    text = str(text).strip().lower()
    if text in ("", "none"):
        return ()
    if "-" in text and "," not in text:
        lo, hi = (int(p) for p in text.split("-"))
        if lo > hi:
            raise ValueError(f"reversed range {text!r}: write LO-HI with LO <= HI")
        return tuple(range(lo, hi + 1))
    return tuple(int(p) for p in text.split(","))


def cmd_embed(args) -> int:
    spec = _attack_from_args(args, args.fill)
    out = _out_path(args.out, Path(args.infile).stem + f".lsb{args.lsb}" + Path(args.infile).suffix)
    with open_words(args.infile) as source:
        source.save(out, spec.words(source).rewrite, spec.provenance())
    print(out)
    return EXIT_OK


def cmd_extract(args) -> int:
    """Write the payload bits read back from the file's first words, reading only those."""
    with open_words(args.infile) as words:
        payload = extract_lsb(words, args.lsb, args.bits)
    out = _out_path(args.out, Path(args.infile).stem + ".payload.bin")
    out.write_bytes(payload.to_bytes())
    print(out)
    return EXIT_OK


def cmd_imagify(args) -> int:
    """Write the model's image; a --size render reads only the words it taps."""
    with open_words(args.infile) as words:
        img = render(words, args.size) if args.size else grayscale_fourpart(words)
    out = _out_path(args.out, Path(args.infile).stem + ".pgm")
    write_pgm(img, out)
    print(out)
    return EXIT_OK


def cmd_synth_mc(args) -> int:
    out = _out_path(args.out, "synth-mc")
    collection = synth_collection(out, args.zoos, args.models, args.params, args.seed)
    for zoo in collection.zoos:
        for path in zoo.model_paths:
            print(path)
    return EXIT_OK


def cmd_build_dataset(args) -> int:
    attack = _attack_from_args(args, fill=True)
    out = _out_path(args.out, "dataset")
    manifest = build_dataset(
        load_collection(args.mc),
        args.size,
        out,
        attack,
        train_zoos=None if args.train_zoos is None else _parse_zoos(args.train_zoos),
    )
    print(out / "manifest.json")
    logger.info("wrote %d samples", len(manifest.samples))
    return EXIT_OK


def cmd_train(args) -> int:
    # the flags are checked before any read
    train_config = TrainConfig(**_training_settings(args))
    preset(args.arch)
    manifest_path = manifest_file(args.dataset)
    data = manifest_path.read_bytes()  # the bytes parsed are the bytes hashed
    manifest, samples = load_dataset(manifest_path, data)
    if manifest.shape[0] != manifest.shape[1]:
        raise ValueError("training requires square images")
    train_samples = [s for s in samples if s.split == "train"]
    if not train_samples:
        raise ValueError("dataset has no train-split samples")
    detector, result = train_detector(
        train_samples, args.arch, train_config, sha256_hex(data),
        trained_lsb=manifest.lsb,
    )
    out = _out_path(args.out, "detector.safetensors")
    out.write_bytes(save_detector(detector))
    print(out)
    logger.info("trained %d epochs, final loss %.4f", result.epochs_run, result.epoch_losses[-1])
    return EXIT_OK


def _scan_targets(path: Path) -> list[Path]:
    """The model files (is_model_file) under a directory, or path itself. One
    that is not a regular file, such as a pipe, is scanned and fails closed."""
    if path.is_dir():
        return sorted(filter(is_model_file, path.rglob("*")))
    return [path]


# Files scan embeds with one forward: a block holds at most SCAN_BLOCK
# float32 inputs at a time, and the calling thread renders each one while
# the pool embeds those before it.
SCAN_BLOCK = 32


class _ScanBlock:
    """The normalized images of a block of scan targets, each rendered when
    read. Reads run while the pool embeds, so they normalize through
    imagerep._normalize, which no tracer wraps in tracemalloc.

    A target that cannot be read or rendered, or that a directory walk found
    and is not a regular file, reads as None and keeps its error here."""

    def __init__(self, targets: list[Path], size: int, walked: bool):
        self.targets, self.size, self.walked = targets, size, walked
        self.errors: dict[int, Exception] = {}

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, i: int):
        target = self.targets[i]
        try:
            if self.walked and not target.is_file():  # a pipe would block until a writer came
                raise FormatError("not a regular file")
            with open_words(target) as words:
                return _normalize(render(words, self.size))
        except (FormatError, OSError, ValueError) as exc:
            self.errors[i] = exc
            return None


def cmd_scan(args) -> int:
    """Print path,label,d0,d1 per model file; a file that cannot be read or
    rendered, or that a directory walk found and is not a regular file, gets
    an error[data] line on stderr, and the scan goes on and exits 3. A pipe
    named as --model is read whole. A knn --k outside [1, number of training
    embeddings] is a usage error before the model path is walked.

    The files are taken in walk order, SCAN_BLOCK at a time. Each block is
    embedded with one forward, which renders each file on this thread while
    the pool embeds the files before it, and labelled with one
    label_embeddings call before its lines are printed in that order."""
    detector = load_detector(Path(args.detector).read_bytes())
    label_embeddings(detector, [], args.mode, args.k)  # checks --k against the detector
    size = detector.config.input_size
    failed = False
    walked = Path(args.model).is_dir()
    targets = _scan_targets(Path(args.model))
    for start in range(0, len(targets), SCAN_BLOCK):
        block = _ScanBlock(targets[start : start + SCAN_BLOCK], size, walked)
        verdicts = iter(label_embeddings(detector, detector.embed(block), args.mode, args.k))
        for i, target in enumerate(block.targets):
            if i in block.errors:
                print(f"error[data]: {target}: {block.errors[i]}", file=sys.stderr)
                failed = True
                continue
            # centroid: path,label,d0,d1 (distances); knn: path,label,v0,v1 (votes)
            label, benign, malicious = next(verdicts)
            print(f"{target},{label},{benign!r},{malicious!r}")
    return EXIT_DATA if failed else EXIT_OK


def cmd_report(args) -> int:
    trained_lsbs = _parse_int_spec(args.lsb)
    if not trained_lsbs:
        raise ValueError("--lsb needs at least one trained severity")
    if len(set(trained_lsbs)) < len(trained_lsbs):
        raise ValueError(f"--lsb names a trained severity twice: {args.lsb!r}")
    if args.runs < 1:
        raise ValueError("need at least one run")
    cfg = ExperimentConfig(  # checks the training flags before any file is read
        lsb=min(trained_lsbs),  # so that every trained severity is checked
        train_zoos=tuple(_parse_zoos(args.train_zoos)),
        image_size=args.size,
        arch=args.arch,
        train_per_class=args.train_per_class,
        severities=_parse_int_spec(args.severities),
        modes=tuple(args.modes.split(",")),
        knn_k=args.k,
        **_training_settings(args),
    )
    payload = _payload_from_args(args)
    collection = load_collection(args.mc)
    rows, results = run_report_sweep(collection, payload, cfg, trained_lsbs, args.runs)
    out_csv = _out_path(args.out_csv, "report.csv")
    out_csv.write_text(render_report_csv(rows), encoding="utf-8")
    print(out_csv)
    if args.out_json:
        extra = {
            "config": {
                "mc_id": collection.mc_id,
                "lsb": list(trained_lsbs),
                "train_zoos": sorted(cfg.train_zoos),
                "arch": cfg.arch,
                "strategy": cfg.strategy,
                "image_size": cfg.image_size,
                "payload_sha256": payload.sha256(),
                "runs": args.runs,
                "base_seed": cfg.seed,
                "input_sha256": results[0].detector.manifest_sha256,
            }
        }
        Path(args.out_json).write_text(render_report_json(rows, extra), encoding="utf-8")
        print(args.out_json)
    if args.save_detectors:
        det_dir = Path(args.save_detectors)
        det_dir.mkdir(parents=True, exist_ok=True)
        for res in results:
            name = f"detector_x{res.detector.trained_lsb}_seed{res.seed}.safetensors"
            (det_dir / name).write_bytes(save_detector(res.detector))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightsteg",
        description="Simulate LSB-substitution attacks on model weights and detect them.",
    )
    parser.add_argument("--log-file", help="append timestamped progress logs to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a payload into a weights file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    _add_attack_flags(p)
    p.add_argument("--fill", action="store_true", help="repeat/truncate payload to fill all weights")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="read an embedded payload back out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--lsb", type=int, required=True)
    p.add_argument("--bits", type=int, required=True, help="payload length in bits")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("imagify", help="render a weights file to a PGM image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--size", type=int, default=0, help="resize to size x size (0 = native)")
    p.set_defaults(func=cmd_imagify)

    p = sub.add_parser("synth-mc", help="generate a synthetic model collection")
    p.add_argument("--out")
    p.add_argument("--zoos", type=int, default=4)
    p.add_argument("--models", type=int, default=4)
    p.add_argument("--params", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_mc)

    p = sub.add_parser("build-dataset", help="attack a collection and render labeled images")
    p.add_argument("--mc", required=True, help="model collection directory (one subdir per zoo)")
    p.add_argument("--out")
    _add_attack_flags(p)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--train-zoos", help="comma-separated zoo ids for the train split")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a detector on a dataset's train split")
    p.add_argument("--dataset", required=True, help="dataset directory or manifest.json")
    p.add_argument("--out")
    p.add_argument("--arch", default=ExperimentConfig.arch)
    _add_training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("scan", help="classify a weights file (or directory) with a detector")
    p.add_argument("--detector", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="centroid", choices=["centroid", "knn"])
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", help="repeated train/eval runs with OML and weighted metrics")
    p.add_argument("--mc", required=True)
    p.add_argument("--lsb", required=True, help="trained severities: '8', '1-23', or '2,8,16'")
    _add_payload_flags(p)
    p.add_argument("--train-zoos", required=True)
    p.add_argument("--arch", default=ExperimentConfig.arch)
    p.add_argument("--size", type=int, default=ExperimentConfig.image_size)
    _add_training_flags(p)
    p.add_argument("--train-per-class", type=int, default=ExperimentConfig.train_per_class)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--severities", default="none", help="'none', 'LO-HI', or comma list")
    p.add_argument("--modes", default=",".join(ExperimentConfig.modes))
    p.add_argument("--k", type=int, default=ExperimentConfig.knn_k)
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")
    p.add_argument("--save-detectors")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_file:
        logging.basicConfig(
            filename=args.log_file,
            level=logging.INFO,
            format="%(asctime)s %(levelname)s %(name)s %(message)s",
        )
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error[capacity]: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (FormatError, OSError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
