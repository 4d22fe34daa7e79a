"""Embedding-space classification, the weighted accuracy metric, and reports.

A trained detector bundles the embedding network with the training embeddings
and their class centroids. Classification ties always resolve to malicious:
a scanner should fail closed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .imagerep import REPRESENTATION
from .net import ConvNetConfig, NetParams, forward, param_shapes
from .weights_io import DType, ModelWeights, WeightTensor, read_container, write_container

DETECTOR_FORMAT_VERSION = "1"


@dataclass(eq=False)
class TrainedDetector:
    config: ConvNetConfig
    params: NetParams
    embeddings: np.ndarray  # (n, d) float32 training embeddings
    labels: np.ndarray  # (n,) 0/1
    centroid_benign: np.ndarray
    centroid_malicious: np.ndarray
    manifest_sha256: str = ""
    seed: int = 0
    strategy: str = ""
    trained_lsb: int = 0

    def embed(self, images) -> np.ndarray:
        """The float64 embedding of one (size, size) image, or one row per
        image of a batch, each with the bits of its batch-1 forward."""
        return forward(self.config, self.params, images).astype(np.float64)


def build_detector(
    config: ConvNetConfig,
    params: NetParams,
    images,
    labels,
    manifest_sha256: str = "",
    seed: int = 0,
    strategy: str = "",
    trained_lsb: int = 0,
) -> TrainedDetector:
    labels = np.asarray(labels, dtype=np.int64)
    if not ((labels == 0).any() and (labels == 1).any()):
        raise ValueError("detector needs at least one embedding per class")
    # one forward for the list; each row has its image's batch-1 bits, as embed gives
    emb = forward(config, params, images).astype(np.float32)
    return TrainedDetector(
        config=config,
        params=params,
        embeddings=emb,
        labels=labels,
        centroid_benign=emb[labels == 0].mean(axis=0),
        centroid_malicious=emb[labels == 1].mean(axis=0),
        manifest_sha256=manifest_sha256,
        seed=seed,
        strategy=strategy,
        trained_lsb=trained_lsb,
    )


class Verdict(NamedTuple):
    """A label and the two numbers behind it.

    Centroid mode: l2 distances to the benign and the malicious centroid.
    KNN mode: benign and malicious votes among the k nearest training embeddings.
    """

    label: int
    benign: float
    malicious: float


def _centroid_verdict(embedding, c_benign, c_malicious) -> Verdict:
    e = np.asarray(embedding, dtype=np.float64)
    d0 = float(np.linalg.norm(e - c_benign))
    d1 = float(np.linalg.norm(e - c_malicious))
    return Verdict(1 if d1 <= d0 else 0, d0, d1)  # ties fail closed


def _knn_verdict(embedding, embeddings, labels, k: int) -> Verdict:
    if not 1 <= k <= len(embeddings):
        raise ValueError(f"k must be in [1, {len(embeddings)}], got {k}")
    d = np.linalg.norm(
        np.asarray(embeddings, dtype=np.float64) - np.asarray(embedding, dtype=np.float64),
        axis=1,
    )
    order = np.argsort(d, kind="stable")  # distance ties fall back to stored order
    votes = np.asarray(labels)[order[:k]]
    v0, v1 = int((votes == 0).sum()), int((votes == 1).sum())
    return Verdict(1 if v1 >= v0 else 0, v0, v1)  # a balanced vote fails closed


_MODES = ("centroid", "1nn", "knn")  # the modes label_embeddings knows


def label_embeddings(
    detector: TrainedDetector, embeddings, mode: str = "centroid", k: int = 1
) -> list[Verdict]:
    """Verdict for each embedding row: the one rule every classifier goes through.

    mode "centroid" picks the nearer training centroid; "knn" takes the
    majority of the k nearest training embeddings, and "1nn" the nearest
    one, whatever k is. Both under l2.
    """
    if mode == "centroid":
        c0 = detector.centroid_benign.astype(np.float64)
        c1 = detector.centroid_malicious.astype(np.float64)
        return [_centroid_verdict(e, c0, c1) for e in embeddings]
    if mode in ("1nn", "knn"):
        train = detector.embeddings.astype(np.float64)
        k = 1 if mode == "1nn" else k
        return [_knn_verdict(e, train, detector.labels, k) for e in embeddings]
    raise ValueError(f"unknown evaluation mode {mode!r}; known: {_MODES}")


def classify(detector: TrainedDetector, image, mode: str = "centroid", k: int = 1) -> Verdict:
    """Verdict for one image: its batch-1 embedding through label_embeddings."""
    return label_embeddings(detector, [detector.embed(image)], mode, k)[0]


def centroids_as_1nn_equivalence_check(
    detector: TrainedDetector, n_queries: int = 100, seed: int = 0, batch: int = 32
) -> bool:
    """Check that the centroid rule matches 1NN over the two centroids.

    The two-point set is ordered malicious first so an exact distance tie
    fails closed on both sides. Returns True iff every sampled query agrees.
    """
    rng = np.random.default_rng(seed)
    size = detector.config.input_size
    c0 = detector.centroid_benign.astype(np.float64)
    c1 = detector.centroid_malicious.astype(np.float64)
    two_points = np.stack([c1, c0])
    two_labels = np.array([1, 0])
    remaining = n_queries
    while remaining > 0:
        count = min(batch, remaining)
        remaining -= count
        images = rng.random((count, size, size)).astype(np.float32)
        embs = forward(detector.config, detector.params, images).astype(np.float64)
        for e in embs:
            centroid = _centroid_verdict(e, c0, c1).label
            if centroid != _knn_verdict(e, two_points, two_labels, k=1).label:
                return False
    return True


def weighted_metric(benign_accuracy: float, accuracies) -> float:
    """Weighted accuracy favoring the subtlest attacks.

    Severity i in 1..s gets weight (s - i + 1); the weighted attack mean and
    the benign accuracy each contribute half. Bounded in [0, 1].
    """
    acc = [float(a) for a in accuracies]
    s = len(acc)
    if s < 1:
        raise ValueError("need at least one attack severity accuracy")
    for value in [benign_accuracy, *acc]:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"accuracy {value} outside [0, 1]")
    denom = s * (s + 1) / 2
    weighted = sum((s - i + 1) * a for i, a in enumerate(acc, start=1))
    return 0.5 * (benign_accuracy + weighted / denom)


@dataclass(frozen=True)
class EmbeddedSamples:
    """Labelled samples reduced to what scoring reads: one embedding row each."""

    embeddings: np.ndarray  # (n, d) float64
    labels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def __add__(self, other: "EmbeddedSamples") -> "EmbeddedSamples":
        return EmbeddedSamples(
            np.concatenate([self.embeddings, other.embeddings]), self.labels + other.labels
        )


def embed_samples(detector: TrainedDetector, samples) -> EmbeddedSamples:
    """Embed the samples' images with one forward, each row the bits of its
    image's batch-1 forward.

    The scoring functions below take the result, so that a caller scoring
    one image set several times embeds it only once.
    """
    samples = list(samples)
    embeddings = detector.embed([s.image for s in samples])
    return EmbeddedSamples(embeddings, tuple(int(s.label) for s in samples))


def classify_samples(detector: TrainedDetector, embedded: EmbeddedSamples, mode="centroid", k=1):
    return [v.label for v in label_embeddings(detector, embedded.embeddings, mode, k)]


def accuracy(detector: TrainedDetector, embedded: EmbeddedSamples, mode="centroid", k=1) -> float:
    if not embedded:
        raise ValueError("cannot score an empty sample list")
    predicted = classify_samples(detector, embedded, mode, k)
    return float(np.mean([p == label for p, label in zip(predicted, embedded.labels)]))


def eval_oml(detector, benign, attacked, mode="centroid", k=1) -> float:
    """Accuracy over embedded benign plus samples attacked at the trained severity."""
    return accuracy(detector, benign + attacked, mode, k)


def eval_al(detector, benign, attacked_by_severity, mode="centroid", k=1):
    """Weighted metric over embedded benign samples and every severity 1..s.

    attacked_by_severity maps severity -> embedded samples and must cover 1..s
    contiguously. Returns (wm, benign_accuracy, {severity: accuracy}).
    """
    severities = sorted(attacked_by_severity)
    if severities != list(range(1, len(severities) + 1)):
        raise ValueError(f"severities must cover 1..s contiguously, got {severities}")
    a0 = accuracy(detector, benign, mode, k)
    per_severity = {x: accuracy(detector, attacked_by_severity[x], mode, k) for x in severities}
    wm = weighted_metric(a0, [per_severity[x] for x in severities])
    return wm, a0, per_severity


def save_detector(detector: TrainedDetector) -> bytes:
    """Serialize to the weights container format with a JSON config header."""
    meta = {
        "format_version": DETECTOR_FORMAT_VERSION,
        "kind": "weightsteg-detector",
        "config": json.dumps(detector.config.to_dict(), sort_keys=True),
        "representation": REPRESENTATION,
        "manifest_sha256": detector.manifest_sha256,
        "seed": str(detector.seed),
        "strategy": detector.strategy,
        "trained_lsb": str(detector.trained_lsb),
    }
    tensors = [
        _f32_tensor(f"net.{name}", value)
        for name, value in detector.params.tensors.items()
    ]
    tensors += [
        _f32_tensor("train.embeddings", detector.embeddings),
        _f32_tensor("train.labels", detector.labels.astype(np.float32)),
        _f32_tensor("centroid.benign", detector.centroid_benign),
        _f32_tensor("centroid.malicious", detector.centroid_malicious),
    ]
    return write_container(ModelWeights(tensors, metadata=meta))


def _f32_tensor(name: str, value) -> WeightTensor:
    arr = np.ascontiguousarray(np.asarray(value, dtype=np.float32))
    return WeightTensor(name, DType.F32, arr.shape, arr.view(np.uint32).reshape(-1))


def _check_shapes(config: ConvNetConfig, tensors: dict[str, np.ndarray]) -> None:
    """Fail closed when the tensors are not the ones the config describes."""
    rows = tensors["train.embeddings"].shape[:1]
    dim = config.embedding_dim
    expected = {f"net.{name}": shape for name, shape in param_shapes(config).items()}
    expected.update(
        {
            "train.embeddings": rows + (dim,),
            "train.labels": rows,
            "centroid.benign": (dim,),
            "centroid.malicious": (dim,),
        }
    )
    got = {name: value.shape for name, value in tensors.items()}
    missing = sorted(expected.keys() - got.keys())
    if missing:
        raise FormatError(f"detector file lacks {', '.join(missing)}")
    wrong = sorted(name for name in got if got[name] != expected.get(name))
    if wrong:
        raise FormatError(f"detector tensors disagree with its config: {', '.join(wrong)}")


def load_detector(data: bytes) -> TrainedDetector:
    """Parse a detector file; a missing, undecodable or non-finite field raises FormatError."""
    model = read_container(data)
    meta = model.metadata
    if meta.get("kind") != "weightsteg-detector":
        raise FormatError("not a detector file")
    if meta.get("format_version") != DETECTOR_FORMAT_VERSION:
        raise FormatError(f"unsupported detector format_version {meta.get('format_version')!r}")
    representation = meta.get("representation", REPRESENTATION)
    if representation != REPRESENTATION:
        raise FormatError(f"detector uses unknown representation {representation!r}")
    by_name = {t.name: t.values().reshape(t.shape).copy() for t in model.tensors}
    try:
        config = ConvNetConfig.from_dict(json.loads(meta["config"]))
        _check_shapes(config, by_name)
        # a NaN or inf would turn every distance into nan, and nan labels benign
        bad = sorted(name for name, value in by_name.items() if not np.isfinite(value).all())
        if bad:
            raise FormatError(f"detector tensors hold non-finite values: {', '.join(bad)}")
        params = NetParams(
            {
                name[len("net.") :]: by_name.pop(name)
                for name in list(by_name)
                if name.startswith("net.")
            }
        )
        return TrainedDetector(
            config=config,
            params=params,
            embeddings=by_name["train.embeddings"],
            labels=by_name["train.labels"].astype(np.int64),
            centroid_benign=by_name["centroid.benign"],
            centroid_malicious=by_name["centroid.malicious"],
            manifest_sha256=meta.get("manifest_sha256", ""),
            seed=int(meta.get("seed", "0")),
            strategy=meta.get("strategy", ""),
            trained_lsb=int(meta.get("trained_lsb", "0")),
        )
    except KeyError as exc:
        raise FormatError(f"detector file lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad detector field: {exc}") from exc


def bootstrap_ci(values, n_resamples: int = 10_000, alpha: float = 0.05, seed: int = 0):
    """Percentile bootstrap interval for the mean of per-run values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no values to bootstrap")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[idx].mean(axis=1)
    lo, hi = np.percentile(means, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(lo), float(hi)


@dataclass(frozen=True)
class ReportRow:
    run: str
    model_lsb: int
    eval_type: str
    metric: str
    value: float


def summarize_rows(rows, n_resamples: int = 10_000, seed: int = 0) -> list[ReportRow]:
    """Mean and 95% bootstrap interval per (model_lsb, eval_type, metric)."""
    groups: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for row in rows:
        key = (row.model_lsb, row.eval_type, row.metric)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row.value)
    out = []
    for key in order:
        values = groups[key]
        lo, hi = bootstrap_ci(values, n_resamples=n_resamples, seed=seed)
        out.append(ReportRow("mean", key[0], key[1], key[2], float(np.mean(values))))
        out.append(ReportRow("ci95_low", key[0], key[1], key[2], lo))
        out.append(ReportRow("ci95_high", key[0], key[1], key[2], hi))
    return out


def render_report_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run", "model_lsb", "eval_type", "metric", "value"])
    for row in rows:
        writer.writerow([row.run, row.model_lsb, row.eval_type, row.metric, repr(row.value)])
    return buf.getvalue()


def render_report_json(rows, extra: dict | None = None) -> str:
    doc = {
        "rows": [
            {
                "run": r.run,
                "model_lsb": r.model_lsb,
                "eval_type": r.eval_type,
                "metric": r.metric,
                "value": r.value,
            }
            for r in rows
        ]
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True)
