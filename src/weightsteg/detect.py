"""Embedding-space classification, the weighted accuracy metric, and reports.

A trained detector bundles the embedding network with the training embeddings
and their class centroids, the means of each class's embeddings.
Classification ties always resolve to malicious: a scanner should fail closed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .imagerep import REPRESENTATION
from .net import STRATEGIES, ConvNetConfig, NetParams, forward, param_shapes
from .weights_io import DType, ModelWeights, WeightTensor, read_container, write_container

DETECTOR_FORMAT_VERSION = "1"


@dataclass(eq=False)
class TrainedDetector:
    config: ConvNetConfig
    params: NetParams
    embeddings: np.ndarray  # (n, d) float32 training embeddings
    labels: np.ndarray  # (n,) 0/1, each class once or more; stored as int64
    manifest_sha256: str = ""
    seed: int = 0
    strategy: str = ""
    trained_lsb: int = 0
    centroid_benign: np.ndarray = field(init=False)  # mean of the label-0 embeddings
    centroid_malicious: np.ndarray = field(init=False)  # mean of the label-1 embeddings

    def __post_init__(self):
        if set(np.asarray(self.labels).tolist()) != {0, 1}:
            raise ValueError("detector labels must be 0 or 1, each once or more")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.centroid_benign = self.embeddings[self.labels == 0].mean(axis=0)
        self.centroid_malicious = self.embeddings[self.labels == 1].mean(axis=0)

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
    # one forward for the list; each row has its image's batch-1 bits, as embed gives
    return TrainedDetector(
        config=config,
        params=params,
        embeddings=forward(config, params, images).astype(np.float32),
        labels=labels,
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
    one, whatever k is. Both under l2. A knn k outside [1, number of training
    embeddings] raises ValueError, whatever the embeddings (none included).
    """
    if mode == "centroid":
        c0 = detector.centroid_benign.astype(np.float64)
        c1 = detector.centroid_malicious.astype(np.float64)
        return [_centroid_verdict(e, c0, c1) for e in embeddings]
    if mode in ("1nn", "knn"):
        k = 1 if mode == "1nn" else k
        if not 1 <= k <= len(detector.embeddings):
            raise ValueError(f"k must be in [1, {len(detector.embeddings)}], got {k}")
        train = detector.embeddings.astype(np.float64)
        return [_knn_verdict(e, train, detector.labels, k) for e in embeddings]
    raise ValueError(f"unknown evaluation mode {mode!r}; known: {_MODES}")


_CHECK_BATCH = 32  # query images centroids_as_1nn_equivalence_check embeds at a time


def centroids_as_1nn_equivalence_check(
    detector: TrainedDetector, n_queries: int = 100, seed: int = 0
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
        count = min(_CHECK_BATCH, remaining)
        remaining -= count
        images = rng.random((count, size, size)).astype(np.float32)
        for e in detector.embed(images):
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


def classify_samples(detector: TrainedDetector, embeddings, mode="centroid", k=1) -> list[int]:
    """The label of each embedding row: the one step from embeddings to labels."""
    return [v.label for v in label_embeddings(detector, embeddings, mode, k)]


def accuracy(labels, truth: int) -> float:
    """The share of verdict labels that equal truth, the label of every sample scored."""
    labels = list(labels)
    if not labels:
        raise ValueError("cannot score an empty sample list")
    return labels.count(truth) / len(labels)


def eval_oml(benign, attacked) -> float:
    """Accuracy over the labels of benign samples and of samples attacked at
    the trained severity, taken together."""
    return accuracy([label == 0 for label in benign] + [label == 1 for label in attacked], True)


def eval_al(benign, attacked_by_severity):
    """Weighted metric over the labels of benign samples and of every severity 1..s.

    attacked_by_severity maps severity -> labels and must cover 1..s
    contiguously. Returns (wm, benign_accuracy, {severity: accuracy}).
    """
    severities = sorted(attacked_by_severity)
    if severities != list(range(1, len(severities) + 1)):
        raise ValueError(f"severities must cover 1..s contiguously, got {severities}")
    a0 = accuracy(benign, 0)
    per_severity = {x: accuracy(attacked_by_severity[x], 1) for x in severities}
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
    """Parse a detector file: every field save_detector writes, none defaulted.

    A missing, undecodable or non-finite field raises FormatError, as do a
    tensor other than F32, training labels that are not 0 and 1, centroids
    other than the class means of train.embeddings, a seed or trained_lsb (in
    [0, 32]) not written as str() writes it, a strategy outside STRATEGIES
    and "", and a manifest_sha256 other than 64 lowercase hex digits or "".
    """
    model = read_container(data)
    meta = model.metadata
    if meta.get("kind") != "weightsteg-detector":
        raise FormatError("not a detector file")
    if meta.get("format_version") != DETECTOR_FORMAT_VERSION:
        raise FormatError(f"unsupported detector format_version {meta.get('format_version')!r}")
    if any(t.dtype is not DType.F32 for t in model.tensors):  # the net runs in their dtype
        raise FormatError("detector tensors must be F32, the only dtype save_detector writes")
    by_name = {t.name: t.values().reshape(t.shape).copy() for t in model.tensors}
    try:
        if meta["representation"] != REPRESENTATION:
            raise FormatError(f"detector uses unknown representation {meta['representation']!r}")
        if meta["strategy"] not in (*STRATEGIES, ""):
            raise FormatError(f"detector strategy must be one of {STRATEGIES} or '', "
                              f"got {meta['strategy']!r}")
        if not re.fullmatch(r"([0-9a-f]{64})?", meta["manifest_sha256"]):
            raise FormatError("detector manifest_sha256 must be 64 lowercase hex digits or '', "
                              f"got {meta['manifest_sha256']!r}")
        decimals = (meta["seed"], meta["trained_lsb"])
        seed, trained_lsb = map(int, decimals)
        if (str(seed), str(trained_lsb)) != decimals or trained_lsb not in range(33):
            raise FormatError(f"detector seed and trained_lsb {decimals} must be decimals as "
                              "str() writes them, trained_lsb in [0, 32]")
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
        detector = TrainedDetector(
            config=config,
            params=params,
            embeddings=by_name["train.embeddings"],
            labels=by_name["train.labels"],
            manifest_sha256=meta["manifest_sha256"],
            seed=seed,
            strategy=meta["strategy"],
            trained_lsb=trained_lsb,
        )
    except KeyError as exc:
        raise FormatError(f"detector file lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad detector field: {exc}") from exc
    for name, derived in (("centroid.benign", detector.centroid_benign),
                          ("centroid.malicious", detector.centroid_malicious)):
        if by_name[name].tobytes() != derived.tobytes():
            raise FormatError(f"detector {name} is not the mean of its class's train.embeddings")
    return detector


def bootstrap_ci(values):
    """Percentile bootstrap 95% interval for the mean of per-run values: 10,000
    resamples drawn from default_rng(0)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no values to bootstrap")
    rng = np.random.default_rng(0)
    idx = rng.integers(0, values.size, size=(10_000, values.size))
    means = values[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])  # the ci95_* rows of summarize_rows
    return float(lo), float(hi)


@dataclass(frozen=True)
class ReportRow:
    run: str
    model_lsb: int
    eval_type: str
    metric: str
    value: float


def summarize_rows(rows) -> list[ReportRow]:
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
        lo, hi = bootstrap_ci(values)
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
