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
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, FormatError
from .imagerep import REPRESENTATIONS, normalize, read_pgm, render, write_pgm
from .steg import AttackSpec, FillWords, LsbWords, Payload
from .weights_io import (
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    is_canonical,
    model_digest,
    parse_model,
    save_model,
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
        if not isinstance(self.path, str) or not isinstance(self.zoo, str):
            raise ValueError(f"sample path and zoo must be strings: {self.path!r}, {self.zoo!r}")
        if not _is_int(self.label) or self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
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
    def from_json(cls, text: str | bytes) -> "DatasetManifest":
        """Parse a manifest; a missing or mistyped field raises FormatError."""
        try:
            doc = {"source_sha256": None, **json.loads(text)}
            for key, (valid, expected) in _MANIFEST_FIELDS.items():
                if not valid(doc[key]):
                    raise TypeError(f"{key} must be {expected}, got {doc[key]!r}")
            return cls(
                mc_id=doc["mc_id"],
                lsb=doc["X"],
                payload_sha256=doc["payload_sha256"],
                representation=doc["representation"],
                shape=tuple(doc["shape"]),
                samples=[SampleRecord(**s) for s in doc["samples"]],
                source_sha256=doc["source_sha256"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad manifest: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# manifest.json's top-level fields: the check each value must pass, and what it asks for
_MANIFEST_FIELDS = {
    "mc_id": (lambda v: isinstance(v, str), "a string"),
    "X": (lambda v: v is None or _is_int(v), "an integer or null"),
    "payload_sha256": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "source_sha256": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "representation": (
        lambda v: isinstance(v, str) and v in REPRESENTATIONS, "a known representation"
    ),
    "shape": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(_is_int(d) and d > 0 for d in v),
        "two positive integers",
    ),
    "samples": (lambda v: isinstance(v, list), "a list"),
}


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


class AttackedModel(NamedTuple):
    """An attacked model held as its cover and the attack, never as a copy.

    words gives the attacked words on demand (spec.words of the cover's flat
    words); layout is the cover's tensors under the attacked model's
    metadata. Only save() writes the attacked words, one chunk at a time.
    """

    words: FillWords | LsbWords
    layout: ModelWeights

    def save(self, path: str | Path) -> str:
        """Write the attacked model to path; return the sha256 hex digest written."""
        return save_model(self.layout, path, self.words.rewrite)


def attack_model(
    model: ModelWeights, flat: WeightTensor, spec: AttackSpec, source_sha256: str | None = None
) -> AttackedModel:
    """Attack flat, the flatten(model) words, and return the attacked model:
    model's structure under its provenance metadata, with its words computed
    on demand (rendered through .words, written by .save).

    The attacked model's metadata records the provenance: the attack
    ("lsb-fill" or "lsb", after spec.fill), X, the payload digest and
    source_sha256, the model_digest of model (computed when not given).
    """
    words = spec.words(flat)
    metadata = {
        **model.metadata,
        "attack": "lsb-fill" if spec.fill else "lsb",
        "lsb": str(spec.lsb),
        "payload_sha256": spec.payload.sha256(),
        "source_sha256": source_sha256 or model_digest(model),
    }
    return AttackedModel(words, ModelWeights(list(model.tensors), model.source_path, metadata))


def _model_pass(
    path: Path, spec: AttackSpec | None, representation: str, size: int, attacked_dir: Path
) -> list[tuple[np.ndarray, bytes]]:
    """One benign model's share of build_dataset: (image, file sha256) for the
    benign file and, given spec, for the attacked file it writes.

    The file's bytes are the one copy of the model held: parsing and
    flattening view them, the attacked file is written one chunk at a time,
    and both images are rendered from the words they tap.
    """
    data = path.read_bytes()
    benign_sha256 = hashlib.sha256(data).digest()
    model = parse_model(data, path)
    flat = flatten(model)
    passed = [(render(flat, representation, size), benign_sha256)]
    if spec is not None:
        source_sha256 = benign_sha256.hex() if is_canonical(model, data) else None
        attacked = attack_model(model, flat, spec, source_sha256)
        written = attacked.save(attacked_dir / path.name)
        passed.append((render(attacked.words, representation, size), bytes.fromhex(written)))
    return passed


def build_dataset(
    benign: ModelCollection,
    representation: str,
    size: int,
    out_dir: str | Path,
    lsb: int | None = None,
    payload: Payload | None = None,
    train_zoos: list[str] | None = None,
    mantissa_only: bool = True,
) -> DatasetManifest:
    """Render benign models (label 0) and, given a payload, their fill-attacked
    copies (label 1) to a labeled image set.

    One pass per benign model: read the file once, hash and parse those bytes,
    fill-attack at lsb (mantissa bits only unless mantissa_only is False),
    write the attacked model to out_dir/attacked/<zoo>/ while hashing what is
    written, and render both images from memory. Nothing written is read back.
    Images are written as PGM files beside a manifest.json under out_dir; the
    manifest's source_sha256 folds the file digests of every benign model,
    then of every attacked model.
    """
    out_dir = Path(out_dir)
    spec = None
    if payload is not None:
        if lsb is None:
            raise ValueError("attacking a collection needs lsb")
        spec = AttackSpec(lsb, True, payload, mantissa_only)
    manifest = DatasetManifest(
        mc_id=benign.mc_id,
        lsb=lsb,
        payload_sha256=None if payload is None else payload.sha256(),
        representation=representation,
        shape=(size, size),
    )
    file_digests: tuple[list[bytes], list[bytes]] = ([], [])  # benign, attacked
    for zoo in benign.zoos:
        (out_dir / "images" / zoo.zoo_id).mkdir(parents=True, exist_ok=True)
        attacked_dir = out_dir / "attacked" / zoo.zoo_id
        if spec is not None:
            attacked_dir.mkdir(parents=True, exist_ok=True)
        zoo_samples: tuple[list[SampleRecord], list[SampleRecord]] = ([], [])
        for path in zoo.model_paths:
            try:
                passed = _model_pass(path, spec, representation, size, attacked_dir)
            except (ValueError, CapacityError, FormatError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc
            for label, (img, file_digest) in enumerate(passed):
                rel = f"images/{zoo.zoo_id}/{path.stem}.{('benign', 'attacked')[label]}.pgm"
                write_pgm(img, out_dir / rel)
                zoo_samples[label].append(SampleRecord(rel, zoo.zoo_id, label))
                file_digests[label].append(file_digest)
        manifest.samples += zoo_samples[0] + zoo_samples[1]

    digest = hashlib.sha256()
    for file_digest in file_digests[0] + file_digests[1]:
        digest.update(file_digest)
    manifest.source_sha256 = digest.hexdigest()
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
    manifest = DatasetManifest.from_json(manifest_path.read_bytes())
    base = manifest_path.parent
    samples = []
    for rec in manifest.samples:
        rel = Path(rec.path)
        if rel.is_absolute() or ".." in rel.parts:
            raise FormatError(f"{rec.path}: sample path escapes the dataset directory")
        try:
            img = read_pgm(base / rel)
        except (OSError, ValueError) as exc:  # missing, unreadable or an unusable name
            raise FormatError(f"{rec.path}: cannot read sample image: {exc}") from exc
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
