"""End-to-end detection experiments: attack, render, train, evaluate.

The report command's repeatable-run protocol (error bars vary only the seed,
which drives initialization and triplet shuffling). Each model file is opened
once, through open_words as every command reads one, and only the words its
renders tap are kept; the images are rendered and embedded in memory.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledSample, ModelCollection, _check_zoo_ids, _named
from .detect import (
    _MODES,
    ReportRow,
    TrainedDetector,
    build_detector,
    classify_samples,
    eval_al,
    eval_oml,
    summarize_rows,
)
from .imagerep import REPRESENTATION, KeptWords, normalize, render
from .net import TrainConfig, TrainResult, preset, train
from .steg import AttackSpec, Payload
from .weights_io import open_words, sha256_hex


@dataclass(frozen=True)
class ExperimentConfig:
    lsb: int
    train_zoos: tuple[str, ...]
    image_size: int = 100
    arch: str = "osl-small"
    # the training settings, with TrainConfig's defaults and checks; see train_config
    strategy: str = TrainConfig.strategy
    learning_rate: float = TrainConfig.learning_rate
    margin: float = TrainConfig.margin
    batch_size: int | None = TrainConfig.batch_size
    ub_low: float = TrainConfig.ub_low
    ub_high: float = TrainConfig.ub_high
    train_per_class: int = 3
    severities: tuple[int, ...] = ()  # extra severities to score for the weighted metric
    modes: tuple[str, ...] = ("centroid", "1nn")
    knn_k: int = 1

    def __post_init__(self):
        # a setting that a run would refuse raises ValueError before any file is read
        self.train_config(0)
        preset(self.arch, self.image_size)  # an unknown arch, or an image it cannot embed
        if self.lsb < 1:  # the upper bound depends on the models' dtype
            raise ValueError(f"lsb must be at least 1, got {self.lsb}")
        if self.train_per_class < 2:
            raise ValueError("need at least 2 training models per class to form triplets")
        if self.severities and set(self.severities) != set(range(1, max(self.severities) + 1)):
            raise ValueError(f"severities must cover 1..s contiguously, got {list(self.severities)}")
        unknown = [mode for mode in self.modes if mode not in _MODES]
        if unknown:
            raise ValueError(f"unknown evaluation modes {unknown}; known: {_MODES}")
        # knn votes among the 2 * train_per_class training embeddings
        if self.knn_k < 1 or ("knn" in self.modes and self.knn_k > 2 * self.train_per_class):
            raise ValueError(
                f"knn_k must be in [1, {2 * self.train_per_class}], got {self.knn_k}"
            )

    def train_config(self, seed: int) -> TrainConfig:
        """The training settings of the run with this seed."""
        return TrainConfig(
            strategy=self.strategy, learning_rate=self.learning_rate, margin=self.margin,
            batch_size=self.batch_size, seed=seed, ub_low=self.ub_low, ub_high=self.ub_high,
        )


@dataclass
class FlatModel:
    zoo: str
    words: KeptWords  # the words its renders tap
    sha256: str  # of the file's bytes, for provenance_digest


@dataclass
class RunResult:
    seed: int
    detector: TrainedDetector
    rows: list[ReportRow]
    oml: dict[str, float]
    epochs_run: int = 0


def _load_flat_model(zoo: str, path, size: int) -> FlatModel:
    with open_words(path) as words:
        kept = KeptWords(words, size)
        # the hash pass ends by checking that the file did not change since it was opened
        return FlatModel(zoo, kept, words.sha256())


def load_flat_models(
    collection: ModelCollection, size: int = ExperimentConfig.image_size
) -> list[FlatModel]:
    """Every model of the collection, each file opened once (open_words): the
    words a size x size render taps are kept, then the file is hashed. A
    model's error names its file."""
    return [_named(path, _load_flat_model, zoo.zoo_id, path, size)
            for zoo in collection.zoos for path in zoo.model_paths]


def render_samples(flats, cfg: ExperimentConfig, attack: AttackSpec | None) -> list[LabeledSample]:
    """Benign samples when attack is None, else attacked samples."""
    samples = []
    for fm in flats:
        source = fm.words if attack is None else attack.words(fm.words)
        image = normalize(render(source, cfg.image_size))
        samples.append(LabeledSample(image, 0 if attack is None else 1, fm.zoo))
    return samples


def select_train_pairs(flats, train_zoos, per_class: int) -> list[FlatModel]:
    """Round-robin over the training zoos so few-shot picks span architectures."""
    if per_class < 2:
        raise ValueError("need at least 2 training models per class to form triplets")
    rounds = itertools.zip_longest(*([fm for fm in flats if fm.zoo == z]
                                     for z in sorted(set(train_zoos))))
    picked = [fm for fm in itertools.chain.from_iterable(rounds) if fm is not None]
    if len(picked) < per_class:
        raise ValueError(f"training zoos hold only {len(picked)} models, need {per_class}")
    return picked[:per_class]


def _held_out_zoos(collection: ModelCollection, train_zoos) -> list[str]:
    """The sorted zoos of collection that a run trained on train_zoos tests
    on; an unknown training zoo, or no zoo left to test, is refused."""
    zoo_ids = collection.zoo_ids()
    _check_zoo_ids(train_zoos, zoo_ids)
    held_out = sorted(set(zoo_ids) - set(train_zoos))
    if not held_out:
        raise ValueError("no zoos left for evaluation; shrink --train-zoos")
    return held_out


def provenance_digest(
    collection: ModelCollection, flats: list[FlatModel], attack: AttackSpec, cfg: ExperimentConfig
) -> str:
    """Digest of everything a run consumes, minus the seed; flats are
    load_flat_models(collection), whose file digests it reuses."""
    doc = {
        "mc_id": collection.mc_id,
        "models": {
            zoo.zoo_id: [fm.sha256 for fm in flats if fm.zoo == zoo.zoo_id]
            for zoo in collection.zoos
        },
        "payload_sha256": attack.payload.sha256(),
        "lsb": attack.lsb,
        "representation": REPRESENTATION,
        "image_size": cfg.image_size,
        "arch": cfg.arch,
        "strategy": cfg.strategy,
        "train_zoos": sorted(cfg.train_zoos),
        "train_per_class": cfg.train_per_class,
    }
    return sha256_hex(json.dumps(doc, sort_keys=True).encode("utf-8"))


def train_detector(
    samples: list[LabeledSample], arch: str, train_config: TrainConfig,
    manifest_sha256: str, trained_lsb: int,
) -> tuple[TrainedDetector, TrainResult]:
    """Train the arch preset on the samples' square images, in order, and embed them
    into a detector recording train_config's seed and strategy."""
    images = np.stack([s.image for s in samples])
    labels = [s.label for s in samples]
    net_config = preset(arch, input_size=images.shape[-1])
    result = train(images, labels, net_config, train_config)
    detector = build_detector(
        net_config, result.params, images, labels, manifest_sha256,
        seed=train_config.seed, strategy=train_config.strategy, trained_lsb=trained_lsb,
    )
    return detector, result


def run_detection_run(
    collection: ModelCollection,
    payload: Payload,
    cfg: ExperimentConfig,
    seed: int,
    flats: list[FlatModel],
) -> RunResult:
    """One seeded run on flats, the load_flat_models(collection)."""
    held_out = _held_out_zoos(collection, cfg.train_zoos)
    attack = AttackSpec(cfg.lsb, True, payload)
    train_flats = select_train_pairs(flats, cfg.train_zoos, cfg.train_per_class)
    train_samples = render_samples(train_flats, cfg, None)  # benign, then attacked
    train_samples += render_samples(train_flats, cfg, attack)
    detector, result = train_detector(
        train_samples, cfg.arch, cfg.train_config(seed),
        provenance_digest(collection, flats, attack, cfg), trained_lsb=cfg.lsb,
    )

    test_flats = [fm for fm in flats if fm.zoo in held_out]

    def labels(spec):
        # Images are embedded once and dropped; each mode labels the embeddings once.
        embeddings = detector.embed([s.image for s in render_samples(test_flats, cfg, spec)])
        return {mode: classify_samples(detector, embeddings, mode, cfg.knn_k) for mode in cfg.modes}

    test_benign = labels(None)
    per_x = {x: labels(replace(attack, lsb=x)) for x in cfg.severities}
    test_attacked = per_x[cfg.lsb] if cfg.lsb in per_x else labels(attack)

    rows: list[ReportRow] = []
    oml: dict[str, float] = {}
    run_id = str(seed)
    for mode in cfg.modes:
        oml[mode] = eval_oml(test_benign[mode], test_attacked[mode])
        rows.append(ReportRow(run_id, cfg.lsb, mode, "oml_accuracy", oml[mode]))
        if per_x:
            wm, a0, acc_x = eval_al(test_benign[mode], {x: per_x[x][mode] for x in per_x})
            rows.append(ReportRow(run_id, cfg.lsb, mode, "benign_accuracy", a0))
            for x in sorted(acc_x):
                rows.append(ReportRow(run_id, cfg.lsb, mode, f"accuracy_x{x}", acc_x[x]))
            rows.append(ReportRow(run_id, cfg.lsb, mode, "weighted_metric", wm))
    return RunResult(seed, detector, rows, oml, result.epochs_run)


def run_report_sweep(
    collection: ModelCollection,
    payload: Payload,
    cfg: ExperimentConfig,
    trained_lsbs,
    runs: int,
    base_seed: int,
) -> tuple[list[ReportRow], list[RunResult]]:
    """One repeated-run block per trained severity, e.g. for OML/AL tables:
    runs (at least 1) seeded runs from base_seed for each of trained_lsbs (a
    non-empty sequence), which the report command checks before it opens
    the collection."""
    _held_out_zoos(collection, cfg.train_zoos)  # refused before any model file is read
    flats = load_flat_models(collection, cfg.image_size)
    # every severity is attacked under the mantissa rule; refuse before any run trains
    for lsb in sorted(set(trained_lsbs) | set(cfg.severities)):
        for fm in flats:
            AttackSpec(lsb, True, payload).validate_for(fm.words.dtype)
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
