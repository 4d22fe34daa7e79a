"""Dataset construction: model collections, attacks at scale, images, manifests.

A model collection on disk is a directory of zoo subdirectories, each holding
weight files; the directory layout is how users group models. Every dataset
carries a manifest recording the hyperparameters that produced it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapacityError, FormatError
from .imagerep import normalize, read_pgm, render, write_pgm
from .steg import Payload, lsb_attack_fill
from .weights_io import (
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    load_model,
    model_digest,
    save_model,
    unflatten,
)

logger = logging.getLogger(__name__)

MODEL_SUFFIXES = (".safetensors", ".f32", ".f16")


@dataclass
class ModelZoo:
    """Models sharing one architecture and task."""

    zoo_id: str
    architecture: str
    task: str
    model_paths: list[Path]

    def __post_init__(self):
        if not self.model_paths:
            raise ValueError(f"zoo {self.zoo_id!r} has no models")
        self.model_paths = [Path(p) for p in self.model_paths]


@dataclass
class ModelCollection:
    mc_id: str
    zoos: list[ModelZoo]

    def __post_init__(self):
        ids = [z.zoo_id for z in self.zoos]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate zoo ids")

    def zoo_ids(self) -> list[str]:
        return [z.zoo_id for z in self.zoos]


@dataclass
class SampleRecord:
    path: str
    zoo: str
    label: int
    split: str = "train"

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be train or test, got {self.split}")


@dataclass
class DatasetManifest:
    """Provenance record for one image dataset."""

    mc_id: str
    lsb: int | None
    payload_sha256: str | None
    representation: str
    shape: tuple[int, int]
    samples: list[SampleRecord] = field(default_factory=list)
    source_sha256: str | None = None

    def to_json(self) -> str:
        doc = {
            "mc_id": self.mc_id,
            "X": self.lsb,
            "payload_sha256": self.payload_sha256,
            "representation": self.representation,
            "shape": list(self.shape),
            "source_sha256": self.source_sha256,
            "samples": [
                {"path": s.path, "zoo": s.zoo, "label": s.label, "split": s.split}
                for s in self.samples
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            doc = json.loads(text)
            return cls(
                mc_id=doc["mc_id"],
                lsb=doc["X"],
                payload_sha256=doc["payload_sha256"],
                representation=doc["representation"],
                shape=tuple(doc["shape"]),
                samples=[SampleRecord(**s) for s in doc["samples"]],
                source_sha256=doc.get("source_sha256"),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise FormatError(f"bad manifest: {exc}") from exc


@dataclass
class LabeledSample:
    image: np.ndarray  # normalized, (h, w) float64 in [0, 1]
    label: int
    zoo: str
    split: str = "train"
    path: str = ""


def load_collection(mc_dir: str | Path, mc_id: str | None = None) -> ModelCollection:
    """Scan a collection directory: one subdirectory per zoo, sorted order."""
    mc_dir = Path(mc_dir)
    if not mc_dir.is_dir():
        raise FormatError(f"{mc_dir} is not a directory")
    zoos = []
    for zoo_dir in sorted(p for p in mc_dir.iterdir() if p.is_dir()):
        paths = sorted(
            p for p in zoo_dir.iterdir() if p.suffix.lower() in MODEL_SUFFIXES
        )
        if paths:
            zoos.append(ModelZoo(zoo_dir.name, architecture=zoo_dir.name, task="", model_paths=paths))
    if not zoos:
        raise FormatError(f"{mc_dir}: no zoos with model files found")
    return ModelCollection(mc_id or mc_dir.name, zoos)


def attack_model(model: ModelWeights, lsb: int, payload: Payload) -> ModelWeights:
    """Fill-attack a model over its canonical flatten order, keeping structure."""
    flat = flatten(model)
    attacked = lsb_attack_fill(flat, lsb, payload)
    out = unflatten(model, attacked.bits)
    out.metadata = dict(model.metadata)
    out.metadata.update(
        {
            "attack": "lsb-fill",
            "lsb": str(lsb),
            "payload_sha256": payload.sha256(),
            "source_sha256": model_digest(model),
        }
    )
    return out


def build_attacked_collection(
    collection: ModelCollection, lsb: int, payload: Payload, out_dir: str | Path
) -> ModelCollection:
    """Attack every model in every zoo, mirroring the directory structure."""
    out_dir = Path(out_dir)
    zoos = []
    for zoo in collection.zoos:
        zoo_out = out_dir / zoo.zoo_id
        zoo_out.mkdir(parents=True, exist_ok=True)
        out_paths = []
        for path in zoo.model_paths:
            try:
                attacked = attack_model(load_model(path), lsb, payload)
            except (ValueError, CapacityError, FormatError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc
            out_path = zoo_out / path.name
            save_model(attacked, out_path)
            out_paths.append(out_path)
        zoos.append(ModelZoo(zoo.zoo_id, zoo.architecture, zoo.task, out_paths))
    return ModelCollection(f"{collection.mc_id}-attacked", zoos)


def model_image(model: ModelWeights, representation: str, size: int) -> np.ndarray:
    """Render one model to its resized 8-bit image."""
    return render(flatten(model), representation, size)


def collection_digest(*collections: ModelCollection) -> str:
    """Digest over every member model file, in zoo order."""
    digest = hashlib.sha256()
    for collection in collections:
        for zoo in collection.zoos:
            for path in zoo.model_paths:
                digest.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return digest.hexdigest()


def build_dataset(
    benign: ModelCollection,
    attacked: ModelCollection | None,
    representation: str,
    size: int,
    out_dir: str | Path,
    lsb: int | None = None,
    payload_sha256: str | None = None,
    train_zoos: list[str] | None = None,
) -> DatasetManifest:
    """Render benign (label 0) and attacked (label 1) models to a labeled image set.

    The attacked collection, when given, must mirror the benign zoo structure.
    Images are written as PGM files beside a manifest.json under out_dir.
    """
    out_dir = Path(out_dir)
    if attacked is not None:
        if attacked.zoo_ids() != benign.zoo_ids() or any(
            len(za.model_paths) != len(zb.model_paths)
            for za, zb in zip(attacked.zoos, benign.zoos)
        ):
            raise ValueError("benign and attacked collections must share zoo structure")

    manifest = DatasetManifest(
        mc_id=benign.mc_id,
        lsb=lsb,
        payload_sha256=payload_sha256,
        representation=representation,
        shape=(size, size),
        samples=[],
        source_sha256=collection_digest(*([benign] if attacked is None else [benign, attacked])),
    )
    for zi, zoo in enumerate(benign.zoos):
        img_dir = out_dir / "images" / zoo.zoo_id
        img_dir.mkdir(parents=True, exist_ok=True)
        pairs = [(zoo.model_paths, 0, "benign")]
        if attacked is not None:
            pairs.append((attacked.zoos[zi].model_paths, 1, "attacked"))
        for paths, label, tag in pairs:
            for path in paths:
                img = model_image(load_model(path), representation, size)
                rel = f"images/{zoo.zoo_id}/{path.stem}.{tag}.pgm"
                write_pgm(img, out_dir / rel)
                manifest.samples.append(SampleRecord(rel, zoo.zoo_id, label))

    if train_zoos is not None:
        split_by_zoo(manifest, train_zoos)
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def split_by_zoo(
    manifest: DatasetManifest, train_zoos: list[str]
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Assign whole zoos to train or test; no zoo ever straddles the split."""
    zoo_ids = {s.zoo for s in manifest.samples}
    unknown = sorted(set(train_zoos) - zoo_ids)
    if unknown:
        raise ValueError(f"unknown zoo ids in train split: {unknown}")
    train_set = set(train_zoos)
    if train_set == zoo_ids:
        logger.warning("all zoos assigned to train; test set is empty")
    train, test = [], []
    for sample in manifest.samples:
        sample.split = "train" if sample.zoo in train_set else "test"
        (train if sample.split == "train" else test).append(sample)
    return train, test


def load_dataset(manifest_path: str | Path) -> tuple[DatasetManifest, list[LabeledSample]]:
    """Read a manifest and its images back as normalized labeled samples."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    manifest = DatasetManifest.from_json(manifest_path.read_text(encoding="utf-8"))
    base = manifest_path.parent
    samples = []
    for rec in manifest.samples:
        img = read_pgm(base / rec.path)
        if img.shape != manifest.shape:
            raise FormatError(
                f"{rec.path}: image shape {img.shape} != manifest shape {manifest.shape}"
            )
        samples.append(LabeledSample(normalize(img), rec.label, rec.zoo, rec.split, rec.path))
    return manifest, samples


def _split_layer_sizes(n_params: int, n_layers: int = 4) -> list[int]:
    n_layers = max(1, min(n_layers, n_params))
    base = n_params // n_layers
    sizes = [base] * n_layers
    for i in range(n_params - base * n_layers):
        sizes[i] += 1
    return sizes


def synth_model(n_params: int, rng: np.random.Generator) -> ModelWeights:
    """Gaussian stand-in for a trained model: zero-mean layers with
    log-uniform scales in [1e-3, 1e-1]."""
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    tensors = []
    for i, size in enumerate(_split_layer_sizes(n_params)):
        scale = math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
        values = (rng.standard_normal(size) * scale).astype(np.float32)
        tensors.append(
            WeightTensor(f"layer{i}.weight", DType.F32, (size,), values.view(np.uint32))
        )
    return ModelWeights(tensors)


def synth_zoo(
    out_dir: str | Path,
    zoo_id: str,
    n_models: int,
    n_params: int,
    seed: int,
    architecture: str = "synth-gaussian",
    task: str = "synthetic",
) -> ModelZoo:
    """Write a deterministic synthetic zoo of n_models container files."""
    if n_models < 1:
        raise ValueError("n_models must be >= 1")
    zoo_dir = Path(out_dir) / zoo_id
    zoo_dir.mkdir(parents=True, exist_ok=True)
    children = np.random.SeedSequence(seed).spawn(n_models)
    paths = []
    for i, child in enumerate(children):
        model = synth_model(n_params, np.random.default_rng(child))
        model.metadata = {
            "generator": "synth-gaussian",
            "seed": str(seed),
            "model_index": str(i),
            "n_params": str(n_params),
        }
        path = zoo_dir / f"model{i:03d}.safetensors"
        save_model(model, path)
        paths.append(path)
    return ModelZoo(zoo_id, architecture, task, paths)


def synth_collection(
    out_dir: str | Path,
    n_zoos: int,
    n_models: int,
    n_params: int,
    seed: int,
    mc_id: str = "synth-mc",
) -> ModelCollection:
    """A collection of synthetic zoos with per-zoo derived seeds."""
    if n_zoos < 1:
        raise ValueError("n_zoos must be >= 1")
    zoo_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_zoos)
    zoos = [
        synth_zoo(
            out_dir,
            f"zoo{i}",
            n_models,
            n_params,
            int(zoo_seeds[i]),
            architecture=f"synth-gaussian-{i}",
        )
        for i in range(n_zoos)
    ]
    return ModelCollection(mc_id, zoos)
