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
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, FormatError
from .imagerep import REPRESENTATION, normalize, read_pgm, render, write_pgm
from . import net
from .steg import AttackSpec
from .weights_io import CHUNK_WORDS, DType, ModelWeights, WeightTensor, _write, open_words

logger = logging.getLogger(__name__)

MODEL_SUFFIXES = (".safetensors", ".f32", ".f16")


def is_model_file(path: Path) -> bool:
    """Whether a walk lists path as a model file: a MODEL_SUFFIXES suffix, in
    any case, on a non-directory (a pipe or a dangling symlink included)."""
    return path.suffix.lower() in MODEL_SUFFIXES and not path.is_dir()


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
    lsb: int
    payload_sha256: str
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
    "X": (lambda v: _is_int(v) and 1 <= v <= 32, "an integer in [1, 32]"),
    "payload_sha256": (lambda v: isinstance(v, str), "a string"),
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
    model file (is_model_file) must be a regular file."""
    mc_dir = Path(mc_dir)
    if not mc_dir.is_dir():
        raise FormatError(f"{mc_dir} is not a directory")
    zoos = []
    for zoo_dir in sorted(p for p in mc_dir.iterdir() if p.is_dir()):
        paths = sorted(filter(is_model_file, zoo_dir.iterdir()))
        for p in paths:
            if not p.is_file():  # a pipe would block its read until a writer came
                raise FormatError(f"{p}: not a regular file")
        if paths:
            zoos.append(ModelZoo(zoo_dir.name, paths))
    if not zoos:
        raise FormatError(f"{mc_dir}: no zoos with model files found")
    return ModelCollection(mc_dir.name, zoos)


def _named(path: Path, fn, *args):
    """Call fn(*args); a ValueError, CapacityError or FormatError it raises
    is raised again with path prefixed to its message."""
    try:
        return fn(*args)
    except (ValueError, CapacityError, FormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _render_model(stack: ExitStack, path: Path, attack: AttackSpec, size: int):
    """The model at path opened on stack (open_words), its images, benign
    first, and the words of its attack, which AttackSpec.words checks against
    the model's dtype. Both images render from the words they tap."""
    source = stack.enter_context(open_words(path))
    benign = render(source, size)
    words = attack.words(source)
    return source, [benign, render(words, size)], words


def _write_model(source, words, attacked_path: Path, provenance) -> list[bytes]:
    """The file digests of one model, benign first: its file hashed in one
    streamed pass (FileWords.sha256), and the attacked copy written to
    attacked_path in a second (FileWords.save)."""
    benign = source.sha256()
    attacked_path.parent.mkdir(parents=True, exist_ok=True)
    attacked = source.save(attacked_path, words.rewrite, provenance)
    return [bytes.fromhex(benign), bytes.fromhex(attacked)]


def _model_passes(models, attack: AttackSpec, size: int, out_dir: Path):
    """Yield (zoo id, path, images, file digests) for each (zoo id, path) of
    models, in order, as a model-by-model loop of _render_model then
    _write_model would give them.

    Models go in windows of one per usable CPU. This thread opens and
    renders each model of a window; then net._fan_out runs each one's
    _write_model, one model per thread. A failing model ends the walk with
    its error, path prefixed, once the models before it are written and
    yielded, so the error raised is the first such loop would raise.
    """
    provenance = attack.provenance()
    window = net._usable_cpus()
    for lo in range(0, len(models), window):
        with ExitStack() as stack:
            opened, failure = [], None
            for zoo_id, path in models[lo : lo + window]:
                try:
                    opened.append((zoo_id, path, *_named(path, _render_model, stack, path,
                                                         attack, size)))
                except Exception as exc:  # raised once the models before it are written
                    failure = exc
                    break
            written = [None] * len(opened)

            def write(i):
                zoo_id, path, source, _, words = opened[i]
                written[i] = _named(path, _write_model, source, words,
                                    out_dir / "attacked" / zoo_id / path.name, provenance)

            try:
                net._fan_out(write, len(opened))
            except Exception as exc:  # the earliest failure: every model before it was written
                failure = exc
            for (zoo_id, path, _, images, _), digests in zip(opened, written):
                if digests is None:
                    break
                yield zoo_id, path, images, digests
        if failure is not None:
            raise failure


def build_dataset(
    benign: ModelCollection,
    size: int,
    out_dir: str | Path,
    attack: AttackSpec,
    train_zoos: list[str] | None = None,
) -> DatasetManifest:
    """Render benign models (label 0) and their copies under a fill attack
    (label 1) to a labeled image set.

    Per benign model: open the file once, render its image and the image of
    its attack from the words they tap, hash the file in one streamed pass,
    and write the attacked model to out_dir/attacked/<zoo>/ in a second, one
    chunk at a time, hashing what is written. Nothing written is read back.
    Up to one model per usable CPU is open at once, and their two passes run
    on as many threads (_model_passes); the outputs do not depend on how
    many. Images are written as PGM files beside a manifest.json under
    out_dir; the manifest's source_sha256 folds the file digests of every
    benign model, then of every attacked model. A plain attack (the manifest
    records no fill flag), an unknown train_zoos id and a size below 1 are
    refused before any model is read. No directory is made before the first
    model's attack has passed its check against the model's dtype.
    """
    if not attack.fill:
        raise ValueError("build_dataset attacks with fill only; the manifest records no fill flag")
    if size < 1:
        raise ValueError(f"image size must be at least 1, got {size}")
    if train_zoos is not None:
        _check_zoo_ids(train_zoos, benign.zoo_ids())
    out_dir = Path(out_dir)
    manifest = DatasetManifest(
        mc_id=benign.mc_id,
        lsb=attack.lsb,
        payload_sha256=attack.payload.sha256(),
        shape=(size, size),
    )
    models = [(zoo.zoo_id, path) for zoo in benign.zoos for path in zoo.model_paths]
    # per zoo, its benign samples, then its attacked samples
    zoo_samples = {zoo.zoo_id: ([], []) for zoo in benign.zoos}
    file_digests: tuple[list[bytes], list[bytes]] = ([], [])  # benign, attacked
    for zoo_id, path, images, digests in _model_passes(models, attack, size, out_dir):
        (out_dir / "images" / zoo_id).mkdir(parents=True, exist_ok=True)
        for label, (img, file_digest) in enumerate(zip(images, digests)):
            rel = f"images/{zoo_id}/{path.stem}.{('benign', 'attacked')[label]}.pgm"
            write_pgm(img, out_dir / rel)
            zoo_samples[zoo_id][label].append(SampleRecord(rel, zoo_id, label))
            file_digests[label].append(file_digest)
    for benign_samples, attacked_samples in zoo_samples.values():
        manifest.samples += benign_samples + attacked_samples

    digest = hashlib.sha256()
    for file_digest in file_digests[0] + file_digests[1]:
        digest.update(file_digest)
    manifest.source_sha256 = digest.hexdigest()
    if train_zoos is not None:
        split_by_zoo(manifest, train_zoos)
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def _check_zoo_ids(train_zoos, zoo_ids) -> None:
    unknown = sorted(set(train_zoos) - set(zoo_ids))
    if unknown:
        raise ValueError(f"unknown zoo ids in train split: {unknown}")


def split_by_zoo(
    manifest: DatasetManifest, train_zoos: list[str]
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Assign whole zoos to train or test; no zoo ever straddles the split."""
    zoo_ids = {s.zoo for s in manifest.samples}
    _check_zoo_ids(train_zoos, zoo_ids)
    train_set = set(train_zoos)
    if train_set == zoo_ids:
        logger.warning("all zoos assigned to train; test set is empty")
    train, test = [], []
    for sample in manifest.samples:
        sample.split = "train" if sample.zoo in train_set else "test"
        (train if sample.split == "train" else test).append(sample)
    return train, test


def manifest_file(path: str | Path) -> Path:
    """The manifest a dataset path names: a directory's manifest.json, or the path itself."""
    return Path(path, "manifest.json") if Path(path).is_dir() else Path(path)


def load_dataset(
    manifest_path: str | Path, data: bytes | None = None
) -> tuple[DatasetManifest, list[LabeledSample]]:
    """Read a manifest (manifest_file) and its images back as normalized labeled samples.

    data, when given, is the bytes already read from manifest_file(manifest_path);
    they are parsed instead of a second read, which could see another file.
    """
    manifest_path = manifest_file(manifest_path)
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


def _split_layer_sizes(n_params: int) -> list[int]:
    n_layers = min(4, n_params)
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


def synth_collection(
    out_dir: str | Path,
    n_zoos: int,
    n_models: int,
    n_params: int,
    seed: int,
) -> ModelCollection:
    """Write n_zoos synthetic zoos of n_models models each under out_dir.

    Zoo i, out_dir/zoo{i}, draws from the i-th seed that seed's generator
    draws, and each of its models from its own child of that seed's
    SeedSequence, so a model's bytes do not depend on which thread draws it
    or when. The models are drawn on this thread and one more per other
    usable CPU (net._fan_out), and each is streamed to its file a chunk at a
    time. Sizes are checked before anything is written; the first failing
    model, in zoo and model order, raises its error.

    A model file (one that load_collection lists) in any subdirectory of
    out_dir that this run would not overwrite is refused before anything is
    written, as the collection read back would include it.
    """
    if n_zoos < 1:
        raise ValueError("n_zoos must be >= 1")
    if n_models < 1:
        raise ValueError("n_models must be >= 1")
    layers = _synth_layers(n_params)
    out_dir = Path(out_dir)
    zoo_ids = [f"zoo{z}" for z in range(n_zoos)]
    zoo_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_zoos)
    jobs = []  # (path, metadata, seed sequence) per model, in zoo and model order
    for zoo_id, zoo_seed in zip(zoo_ids, map(int, zoo_seeds)):
        for i, child in enumerate(np.random.SeedSequence(zoo_seed).spawn(n_models)):
            metadata = {"generator": "synth-gaussian", "seed": str(zoo_seed),
                        "model_index": str(i), "n_params": str(n_params)}
            jobs.append((out_dir / zoo_id / f"model{i:03d}.safetensors", metadata, child))
    ours = {path for path, _, _ in jobs}
    if out_dir.is_dir():
        for zoo_dir in sorted(d for d in out_dir.iterdir() if d.is_dir()):
            for p in sorted(zoo_dir.iterdir()):
                if is_model_file(p) and p not in ours:
                    raise ValueError(f"{p}: a model file of another run would join this collection")

    def write(j):
        path, metadata, child = jobs[j]
        _write(path, layers, metadata, _synth_words(layers, np.random.default_rng(child)))

    for zoo_id in zoo_ids:
        (out_dir / zoo_id).mkdir(parents=True, exist_ok=True)
    net._fan_out(write, len(jobs))
    paths = [path for path, _, _ in jobs]
    return ModelCollection("synth-mc", [ModelZoo(zoo_id, paths[z * n_models : (z + 1) * n_models])
                                        for z, zoo_id in enumerate(zoo_ids)])
