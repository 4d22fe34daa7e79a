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
from .imagerep import REPRESENTATION, normalize, read_pgm, render, write_pgm
from .net import _fan_out
from .steg import AttackSpec
from .weights_io import CHUNK_WORDS, DType, ModelWeights, WeightTensor, _write, open_words

logger = logging.getLogger(__name__)

MODEL_SUFFIXES = (".safetensors", ".f32", ".f16")


@dataclass
class ModelZoo:
    """Models sharing one architecture and task."""

    zoo_id: str
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
    shape: tuple[int, int]
    samples: list[SampleRecord] = field(default_factory=list)
    source_sha256: str | None = None

    def to_json(self) -> str:
        doc = {
            "mc_id": self.mc_id,
            "X": self.lsb,
            "payload_sha256": self.payload_sha256,
            "representation": REPRESENTATION,
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
    "representation": (lambda v: v == REPRESENTATION, repr(REPRESENTATION)),
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


def load_collection(mc_dir: str | Path) -> ModelCollection:
    """Scan a collection directory: one subdirectory per zoo, sorted order. A
    model file (a non-directory with a model suffix) must be a regular file."""
    mc_dir = Path(mc_dir)
    if not mc_dir.is_dir():
        raise FormatError(f"{mc_dir} is not a directory")
    zoos = []
    for zoo_dir in sorted(p for p in mc_dir.iterdir() if p.is_dir()):
        paths = sorted(
            p for p in zoo_dir.iterdir() if p.suffix.lower() in MODEL_SUFFIXES and not p.is_dir()
        )
        for p in paths:
            if not p.is_file():  # a pipe would block its read until a writer came
                raise FormatError(f"{p}: not a regular file")
        if paths:
            zoos.append(ModelZoo(zoo_dir.name, paths))
    if not zoos:
        raise FormatError(f"{mc_dir}: no zoos with model files found")
    return ModelCollection(mc_dir.name, zoos)


def _model_pass(
    path: Path, attack: AttackSpec | None, size: int, attacked_dir: Path
) -> list[tuple[np.ndarray, bytes]]:
    """One benign model's share of build_dataset: (image, file sha256) for the
    benign file and, given attack, for the attacked file it writes. Both images
    render from the words they tap; the file is hashed in one streamed pass
    and the attacked copy written in a second (FileWords.save), into
    attacked_dir, made once the attack has passed its check against the
    model's dtype."""
    with open_words(path) as source:
        passed = [(render(source, size), source.sha256())]
        if attack is not None:
            words = attack.words(source)
            attacked_dir.mkdir(parents=True, exist_ok=True)
            image = render(words, size)
            passed.append((image, source.save(attacked_dir / path.name, words.rewrite,
                                              attack.provenance())))
    return [(image, bytes.fromhex(digest)) for image, digest in passed]


def build_dataset(
    benign: ModelCollection,
    size: int,
    out_dir: str | Path,
    attack: AttackSpec | None = None,
    train_zoos: list[str] | None = None,
) -> DatasetManifest:
    """Render benign models (label 0) and, given a fill attack, their attacked
    copies (label 1) to a labeled image set.

    Per benign model: open the file once, render its image and the image of
    its attack from the words they tap, hash the file in one streamed pass,
    and write the attacked model to out_dir/attacked/<zoo>/ in a second, one
    chunk at a time, hashing what is written. Nothing written is read back.
    Images are written as PGM files beside a manifest.json under out_dir; the
    manifest's source_sha256 folds the file digests of every benign model,
    then of every attacked model. A plain attack is refused before anything
    is written: the manifest records no fill flag. No directory is made
    before the first model's attack has passed its check against the
    model's dtype.
    """
    if attack is not None and not attack.fill:
        raise ValueError("build_dataset attacks with fill only; the manifest records no fill flag")
    out_dir = Path(out_dir)
    manifest = DatasetManifest(
        mc_id=benign.mc_id,
        lsb=None if attack is None else attack.lsb,
        payload_sha256=None if attack is None else attack.payload.sha256(),
        shape=(size, size),
    )
    file_digests: tuple[list[bytes], list[bytes]] = ([], [])  # benign, attacked
    for zoo in benign.zoos:
        attacked_dir = out_dir / "attacked" / zoo.zoo_id
        zoo_samples: tuple[list[SampleRecord], list[SampleRecord]] = ([], [])
        for path in zoo.model_paths:
            try:
                passed = _model_pass(path, attack, size, attacked_dir)
            except (ValueError, CapacityError, FormatError) as exc:
                raise type(exc)(f"{path}: {exc}") from exc
            (out_dir / "images" / zoo.zoo_id).mkdir(parents=True, exist_ok=True)
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


def load_dataset(
    manifest_path: str | Path, data: bytes | None = None
) -> tuple[DatasetManifest, list[LabeledSample]]:
    """Read a manifest and its images back as normalized labeled samples.

    data, when given, is the manifest's bytes, already read from manifest_path;
    they are parsed instead of a second read, which could see another file.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    manifest = DatasetManifest.from_json(manifest_path.read_bytes() if data is None else data)
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
        samples.append(LabeledSample(normalize(img), rec.label, rec.zoo, rec.split))
    return manifest, samples


def _split_layer_sizes(n_params: int, n_layers: int = 4) -> list[int]:
    n_layers = max(1, min(n_layers, n_params))
    base = n_params // n_layers
    sizes = [base] * n_layers
    for i in range(n_params - base * n_layers):
        sizes[i] += 1
    return sizes


class _Layer(NamedTuple):
    """What a container header records of one synthetic layer."""

    name: str
    dtype: DType
    shape: tuple[int]


def _synth_layers(n_params: int) -> list[_Layer]:
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    return [_Layer(f"layer{i}.weight", DType.F32, (size,))
            for i, size in enumerate(_split_layer_sizes(n_params))]


# Words a synthetic model draws and writes at a time: 128 KiB of float64
# draws and 64 KiB of float32 words per model being drawn, under a tenth of
# a 1M-param model's file.
_DRAW_WORDS = CHUNK_WORDS // 4


def _synth_words(layers: list[_Layer], rng: np.random.Generator):
    """Draw the words of a synthetic model in order: per layer a log-uniform
    scale in [1e-3, 1e-1], then its zero-mean normals times that scale, cast
    to float32. Yields them _DRAW_WORDS at a time as a view of one reused
    buffer, valid until the next is drawn. The draws are the stream that
    (rng.standard_normal(size) * scale).astype(np.float32) takes per layer."""
    draws = np.empty(_DRAW_WORDS)
    values = np.empty(_DRAW_WORDS, dtype=DType.F32.float_dtype)
    for layer in layers:
        size = layer.shape[0]
        scale = math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
        for lo in range(0, size, _DRAW_WORDS):
            chunk = draws[: min(_DRAW_WORDS, size - lo)]
            rng.standard_normal(out=chunk)
            chunk *= scale
            out = values[: len(chunk)]
            out[...] = chunk
            yield out.view(DType.F32.word_dtype)


def synth_model(n_params: int, rng: np.random.Generator) -> ModelWeights:
    """Gaussian stand-in for a trained model: zero-mean layers with
    log-uniform scales in [1e-3, 1e-1]."""
    layers = _synth_layers(n_params)
    words = np.empty(n_params, dtype=DType.F32.word_dtype)
    at = 0
    for chunk in _synth_words(layers, rng):
        words[at : at + len(chunk)] = chunk
        at += len(chunk)
    bounds = np.cumsum([0] + [layer.shape[0] for layer in layers])
    return ModelWeights([WeightTensor(layer.name, layer.dtype, layer.shape, words[lo:hi])
                         for layer, lo, hi in zip(layers, bounds, bounds[1:])])


def _synth_zoos(
    out_dir: str | Path, zoo_seeds: list[tuple[str, int]], n_models: int, n_params: int,
    whole_dir: bool = False,
) -> list[ModelZoo]:
    """Write n_models synthetic models into each (zoo id, seed) zoo under out_dir.

    Each model draws from its own child of its zoo's SeedSequence, so its
    bytes do not depend on which thread draws it or when. The models are
    drawn on this thread and one more per other usable CPU (net._fan_out),
    and each is streamed to its file a chunk at a time. Sizes are checked
    before anything is written; the first failing model, in zoo and model
    order, raises its error.

    A model file (one that load_collection lists) that this run would not
    overwrite is refused before anything is written, as a collection read
    back would include it: in the zoos' directories, or with whole_dir in
    any subdirectory of out_dir.
    """
    if n_models < 1:
        raise ValueError("n_models must be >= 1")
    layers = _synth_layers(n_params)
    jobs = []  # (path, metadata, seed sequence) per model, in zoo and model order
    for zoo_id, seed in zoo_seeds:
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_models)):
            metadata = {"generator": "synth-gaussian", "seed": str(seed),
                        "model_index": str(i), "n_params": str(n_params)}
            jobs.append((Path(out_dir) / zoo_id / f"model{i:03d}.safetensors", metadata, child))
    zoo_dirs = [Path(out_dir) / zoo_id for zoo_id, _ in zoo_seeds]
    checked = zoo_dirs
    if whole_dir and Path(out_dir).is_dir():
        checked = [d for d in Path(out_dir).iterdir() if d.is_dir()]
    ours = {path for path, _, _ in jobs}
    for zoo_dir in sorted(d for d in checked if d.is_dir()):
        for p in sorted(zoo_dir.iterdir()):
            if p.suffix.lower() in MODEL_SUFFIXES and not p.is_dir() and p not in ours:
                raise ValueError(f"{p}: a model file of another run would join this collection")
    for zoo_dir in zoo_dirs:
        zoo_dir.mkdir(parents=True, exist_ok=True)

    def write(j):
        path, metadata, child = jobs[j]
        _write(path, layers, metadata, _synth_words(layers, np.random.default_rng(child)))

    _fan_out(write, len(jobs))
    paths = [path for path, _, _ in jobs]
    return [ModelZoo(zoo_id, paths[z * n_models : (z + 1) * n_models])
            for z, (zoo_id, _) in enumerate(zoo_seeds)]


def synth_zoo(
    out_dir: str | Path,
    zoo_id: str,
    n_models: int,
    n_params: int,
    seed: int,
) -> ModelZoo:
    """Write a deterministic synthetic zoo of n_models container files."""
    return _synth_zoos(out_dir, [(zoo_id, seed)], n_models, n_params)[0]


def synth_collection(
    out_dir: str | Path,
    n_zoos: int,
    n_models: int,
    n_params: int,
    seed: int,
) -> ModelCollection:
    """A collection of synthetic zoos with per-zoo derived seeds, drawn as one pool."""
    if n_zoos < 1:
        raise ValueError("n_zoos must be >= 1")
    zoo_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_zoos)
    zoos = _synth_zoos(out_dir, [(f"zoo{i}", int(s)) for i, s in enumerate(zoo_seeds)],
                       n_models, n_params, whole_dir=True)
    return ModelCollection("synth-mc", zoos)
