"""End-to-end detection experiments: attack, render, train, evaluate.

This is the in-memory counterpart of the file-based dataset pipeline, used by
the report command and the repeatable-run protocol (error bars vary only the
seed, which drives initialization and triplet shuffling).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import LabeledSample, ModelCollection
from .detect import (
    ReportRow,
    TrainedDetector,
    build_detector,
    embed_samples,
    eval_al,
    eval_oml,
    summarize_rows,
)
from .imagerep import normalize, render
from .net import TrainConfig, preset, train
from .steg import AttackSpec, Payload
from .weights_io import WeightTensor, flatten, parse_model, sha256_hex


@dataclass(frozen=True)
class ExperimentConfig:
    lsb: int
    train_zoos: tuple[str, ...]
    image_size: int = 100
    arch: str = "osl-small"
    strategy: str = "UB"
    learning_rate: float = 1e-4
    margin: float = 1.0
    batch_size: int | None = None
    ub_low: float = 0.5
    ub_high: float = 1.25
    max_epochs: int = 100
    train_per_class: int = 3
    severities: tuple[int, ...] = ()  # extra severities to score for the weighted metric
    modes: tuple[str, ...] = ("centroid", "1nn")
    knn_k: int = 1
    representation: str = "grayscale-fourpart"


@dataclass
class FlatModel:
    zoo: str
    path: str
    tensor: WeightTensor
    sha256: str  # of the file's bytes, for provenance_digest


@dataclass
class RunResult:
    seed: int
    detector: TrainedDetector
    rows: list[ReportRow]
    oml: dict[str, float]
    weighted: dict[str, float] = field(default_factory=dict)
    epochs_run: int = 0


def load_flat_models(collection: ModelCollection) -> list[FlatModel]:
    """Every model of the collection, flattened; each file is read and hashed once."""
    out = []
    for zoo in collection.zoos:
        for path in zoo.model_paths:
            data = path.read_bytes()
            flat = flatten(parse_model(data, path))
            # an aligned copy, which every render of every run gathers from: the
            # parsed words view the file's bytes at the header's offset, and
            # numpy gathers from an unaligned view about 5x slower
            flat = flat.with_bits(flat.bits.copy())
            out.append(FlatModel(zoo.zoo_id, str(path), flat, sha256_hex(data)))
    return out


def render_samples(
    flats, cfg: ExperimentConfig, lsb: int | None, payload: Payload | None
) -> list[LabeledSample]:
    """Benign samples when lsb is None, else fill-attacked at that severity."""
    spec = None if lsb is None else AttackSpec(lsb, True, payload)
    samples = []
    for fm in flats:
        source = fm.tensor if spec is None else spec.words(fm.tensor)
        image = normalize(render(source, cfg.representation, cfg.image_size))
        samples.append(LabeledSample(image, 0 if lsb is None else 1, fm.zoo, path=fm.path))
    return samples


def select_train_pairs(flats, train_zoos, per_class: int) -> list[FlatModel]:
    """Round-robin over the training zoos so few-shot picks span architectures."""
    if per_class < 2:
        raise ValueError("need at least 2 training models per class to form triplets")
    by_zoo = {z: [fm for fm in flats if fm.zoo == z] for z in sorted(train_zoos)}
    picked: list[FlatModel] = []
    round_idx = 0
    while len(picked) < per_class:
        advanced = False
        for zoo in sorted(by_zoo):
            if round_idx < len(by_zoo[zoo]):
                advanced = True
                picked.append(by_zoo[zoo][round_idx])
                if len(picked) == per_class:
                    break
        if not advanced:
            raise ValueError(
                f"training zoos hold only {len(picked)} models, need {per_class}"
            )
        round_idx += 1
    return picked


def provenance_digest(
    collection: ModelCollection, flats: list[FlatModel], payload: Payload, cfg: ExperimentConfig
) -> str:
    """Digest of everything a run consumes, minus the seed; flats are
    load_flat_models(collection), whose file digests it reuses."""
    doc = {
        "mc_id": collection.mc_id,
        "models": {
            zoo.zoo_id: [fm.sha256 for fm in flats if fm.zoo == zoo.zoo_id]
            for zoo in collection.zoos
        },
        "payload_sha256": payload.sha256(),
        "lsb": cfg.lsb,
        "representation": cfg.representation,
        "image_size": cfg.image_size,
        "arch": cfg.arch,
        "strategy": cfg.strategy,
        "train_zoos": sorted(cfg.train_zoos),
        "train_per_class": cfg.train_per_class,
    }
    return sha256_hex(json.dumps(doc, sort_keys=True).encode("utf-8"))


def run_detection_run(
    collection: ModelCollection,
    payload: Payload,
    cfg: ExperimentConfig,
    seed: int,
    flats: list[FlatModel],
) -> RunResult:
    """One seeded run on flats, the load_flat_models(collection)."""
    zoo_ids = set(collection.zoo_ids())
    unknown = sorted(set(cfg.train_zoos) - zoo_ids)
    if unknown:
        raise ValueError(f"unknown training zoos: {unknown}")
    test_zoos = sorted(zoo_ids - set(cfg.train_zoos))
    if not test_zoos:
        raise ValueError("no zoos left for evaluation; shrink --train-zoos")

    train_flats = select_train_pairs(flats, cfg.train_zoos, cfg.train_per_class)

    train_benign = render_samples(train_flats, cfg, None, None)
    train_attacked = render_samples(train_flats, cfg, cfg.lsb, payload)
    train_images = np.stack([s.image for s in train_benign + train_attacked])
    train_labels = [0] * len(train_benign) + [1] * len(train_attacked)

    net_config = preset(cfg.arch, input_size=cfg.image_size)
    train_config = TrainConfig(
        strategy=cfg.strategy,
        learning_rate=cfg.learning_rate,
        margin=cfg.margin,
        batch_size=cfg.batch_size,
        seed=seed,
        ub_low=cfg.ub_low,
        ub_high=cfg.ub_high,
        max_epochs=cfg.max_epochs,
    )
    result = train(train_images, train_labels, net_config, train_config)

    detector = build_detector(
        net_config,
        result.params,
        train_images,
        train_labels,
        representation=cfg.representation,
        manifest_sha256=provenance_digest(collection, flats, payload, cfg),
        seed=seed,
        strategy=cfg.strategy,
        trained_lsb=cfg.lsb,
    )

    test_flats = [fm for fm in flats if fm.zoo in test_zoos]

    def embedded(lsb):
        # Images are embedded once and dropped; every mode scores the embeddings.
        return embed_samples(detector, render_samples(test_flats, cfg, lsb, payload))

    test_benign = embedded(None)
    per_x = {x: embedded(x) for x in cfg.severities}
    test_attacked = per_x[cfg.lsb] if cfg.lsb in per_x else embedded(cfg.lsb)

    rows: list[ReportRow] = []
    oml: dict[str, float] = {}
    weighted: dict[str, float] = {}
    run_id = str(seed)
    for mode in cfg.modes:
        oml[mode] = eval_oml(detector, test_benign, test_attacked, mode, cfg.knn_k)
        rows.append(ReportRow(run_id, cfg.lsb, mode, "oml_accuracy", oml[mode]))
        if per_x:
            wm, a0, acc_x = eval_al(detector, test_benign, per_x, mode, cfg.knn_k)
            weighted[mode] = wm
            rows.append(ReportRow(run_id, cfg.lsb, mode, "benign_accuracy", a0))
            for x in sorted(acc_x):
                rows.append(ReportRow(run_id, cfg.lsb, mode, f"accuracy_x{x}", acc_x[x]))
            rows.append(ReportRow(run_id, cfg.lsb, mode, "weighted_metric", wm))
    return RunResult(seed, detector, rows, oml, weighted, result.epochs_run)


def run_report_sweep(
    collection: ModelCollection,
    payload: Payload,
    cfg: ExperimentConfig,
    trained_lsbs,
    runs: int,
    base_seed: int,
) -> tuple[list[ReportRow], list[RunResult]]:
    """One repeated-run block per trained severity, e.g. for OML/AL tables."""
    trained_lsbs = list(trained_lsbs)
    if not trained_lsbs:
        raise ValueError("need at least one trained severity")
    if runs < 1:
        raise ValueError("need at least one run")
    flats = load_flat_models(collection)
    # every severity is attacked under the mantissa rule; refuse before any run trains
    for lsb in sorted(set(trained_lsbs) | set(cfg.severities)):
        for fm in flats:
            AttackSpec(lsb, True, payload).validate_for(fm.tensor.dtype)
    rows: list[ReportRow] = []
    results: list[RunResult] = []
    for lsb in trained_lsbs:
        run_cfg = replace(cfg, lsb=lsb)
        for i in range(runs):
            res = run_detection_run(collection, payload, run_cfg, base_seed + i, flats)
            rows.extend(res.rows)
            results.append(res)
    rows += summarize_rows(rows)
    return rows, results
