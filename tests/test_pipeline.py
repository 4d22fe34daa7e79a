"""A detection run embeds each evaluation image once, labels each image set once
per mode, and scores the labels as an independent oracle does."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from weightsteg import detect, pipeline, steg
from weightsteg.dataset import synth_collection
from weightsteg.detect import ReportRow, label_embeddings, weighted_metric
from weightsteg.imagerep import KeptWords, normalize, render
from weightsteg.net import TrainConfig
from weightsteg.pipeline import (
    ExperimentConfig,
    load_flat_models,
    render_samples,
    run_detection_run,
)
from weightsteg.steg import AttackSpec, Payload
from weightsteg.weights_io import open_words

PAYLOAD = Payload.synthetic(16, 2)
PER_CLASS = 2


@pytest.fixture(scope="module")
def collection(tmp_path_factory):
    return synth_collection(
        tmp_path_factory.mktemp("pipeline") / "mc", n_zoos=3, n_models=2, n_params=300, seed=5
    )


@pytest.fixture
def forwards(monkeypatch):
    """Images per net forward call made through the detector, in call order."""
    calls = []
    real = detect.forward

    def counting(config, params, images):
        calls.append(np.shape(images)[:-2])
        return real(config, params, images)

    monkeypatch.setattr(detect, "forward", counting)
    return calls


def sample_based_rows(detector, collection, cfg, seed):
    """The rows of the run's detector when every image set, the trained
    severity's included, is rendered, embedded and labelled on its own for
    each mode, each accuracy the mean of the hits of label_embeddings."""
    test_flats = [fm for fm in load_flat_models(collection) if fm.zoo not in cfg.train_zoos]

    def hits(attack, mode):
        samples = render_samples(test_flats, cfg, attack)
        verdicts = label_embeddings(detector, detector.embed([s.image for s in samples]),
                                    mode, cfg.knn_k)
        return [v.label == s.label for v, s in zip(verdicts, samples, strict=True)]

    attack = AttackSpec(cfg.lsb, True, PAYLOAD)
    rows = []
    for mode in cfg.modes:
        benign = hits(None, mode)
        oml = float(np.mean(benign + hits(attack, mode)))
        rows.append(ReportRow(str(seed), cfg.lsb, mode, "oml_accuracy", oml))
        if cfg.severities:
            a0 = float(np.mean(benign))
            acc_x = {x: float(np.mean(hits(replace(attack, lsb=x), mode)))
                     for x in sorted(cfg.severities)}
            rows.append(ReportRow(str(seed), cfg.lsb, mode, "benign_accuracy", a0))
            rows += [
                ReportRow(str(seed), cfg.lsb, mode, f"accuracy_x{x}", acc_x[x]) for x in acc_x
            ]
            wm = weighted_metric(a0, list(acc_x.values()))
            rows.append(ReportRow(str(seed), cfg.lsb, mode, "weighted_metric", wm))
    return rows


@pytest.mark.parametrize(
    "lsb,severities,modes,k",
    [
        (2, (1, 2, 3), ("centroid", "1nn"), 1),  # trained severity among the scored ones
        (5, (1, 2, 3), ("centroid", "knn"), 3),  # trained severity scored separately
        (8, (), ("centroid", "1nn"), 1),  # OML only
    ],
    ids=["lsb-in-sweep", "lsb-outside-sweep", "no-sweep"],
)
def test_one_forward_per_distinct_image(collection, forwards, lsb, severities, modes, k):
    cfg = ExperimentConfig(
        lsb=lsb, train_zoos=("zoo0",), image_size=28, arch="tiny", strategy="ES",
        train_per_class=PER_CLASS, severities=severities, modes=modes, knn_k=k,
    )
    res = run_detection_run(collection, PAYLOAD, cfg, 3, load_flat_models(collection))
    calls = list(forwards)

    n_test = 4  # zoo1 and zoo2 hold two models each
    attacked_sets = len(set(severities) | {lsb})
    # each distinct image once, in one forward per sample list: the detector's
    # training embeddings, then the benign and each attacked evaluation set
    assert sum(math.prod(shape) for shape in calls) == 2 * PER_CLASS + n_test * (1 + attacked_sets)
    assert calls == [(2 * PER_CLASS,)] + [(n_test,)] * (1 + attacked_sets)

    assert res.rows == sample_based_rows(res.detector, collection, cfg, 3)


def test_each_image_set_is_labelled_once_per_mode(collection, monkeypatch):
    """A run that scores severities, the trained one among them, labels the
    benign set and each severity's set once per mode: OML and the weighted
    metric read the same labels."""
    calls = []
    real = detect.classify_samples

    def counting(detector, embeddings, mode="centroid", k=1):
        calls.append((mode, len(embeddings)))
        return real(detector, embeddings, mode, k)

    for module in (detect, pipeline):  # wherever it is named, as a tracer patches it
        monkeypatch.setattr(module, "classify_samples", counting)
    severities, modes = (1, 2, 3), ("centroid", "1nn", "knn")
    cfg = ExperimentConfig(
        lsb=2, train_zoos=("zoo0",), image_size=28, arch="tiny", strategy="ES",
        train_per_class=PER_CLASS, severities=severities, modes=modes, knn_k=3,
    )
    run_detection_run(collection, PAYLOAD, cfg, 3, load_flat_models(collection))
    n_test = 4  # zoo1 and zoo2 hold two models each
    assert sorted(calls) == sorted((mode, n_test) for mode in modes
                                   for _ in range(1 + len(severities)))


def test_render_samples_labels_by_attack(collection):
    """No attack renders benign samples (label 0); an attack, attacked ones
    (label 1), each the image of its model's attacked words."""
    flats = load_flat_models(collection, 28)
    cfg = ExperimentConfig(lsb=8, train_zoos=("zoo0",), image_size=28, arch="tiny")
    attack = AttackSpec(8, True, PAYLOAD)
    benign, attacked = render_samples(flats, cfg, None), render_samples(flats, cfg, attack)
    assert [s.label for s in benign] == [0] * len(flats)
    assert [s.label for s in attacked] == [1] * len(flats)
    assert [s.zoo for s in attacked] == [fm.zoo for fm in flats]
    paths = [path for zoo in collection.zoos for path in zoo.model_paths]
    for path, sample in zip(paths, attacked, strict=True):
        with open_words(path) as words:
            want = normalize(render(attack.words(words), 28))
        assert np.array_equal(sample.image, want)


def test_1nn_rows_ignore_knn_k(collection):
    """1nn rows score the nearest training embedding whatever knn_k is; the
    k applies to knn rows only."""
    def rows(k):
        cfg = ExperimentConfig(
            lsb=2, train_zoos=("zoo0",), image_size=28, arch="tiny", strategy="ES",
            train_per_class=PER_CLASS, severities=(1, 2, 3), modes=("1nn",), knn_k=k,
        )
        return run_detection_run(collection, PAYLOAD, cfg, 3, load_flat_models(collection)).rows

    assert rows(3) == rows(1)


def test_run_renders_only_the_tapped_words(tmp_path, monkeypatch):
    """A detection run attacks no whole model: each image it renders, benign or
    at any severity, reads at most the 4*size**2 cover words the resize taps
    from the words its model kept."""
    collection = synth_collection(tmp_path / "mc", n_zoos=2, n_models=2, n_params=250_000, seed=5)
    size = 28
    flats = load_flat_models(collection, size)

    def whole_model_attack(*args, **kwargs):
        raise AssertionError("a detection run attacked every word of a model")

    monkeypatch.setattr(steg.LsbWords, "rewrite", whole_model_attack)
    reads = []  # cover words read, per rendered image
    take, render = KeptWords.take, pipeline.render

    def counting_take(self, flat_indices):
        reads[-1] += np.size(flat_indices)
        return take(self, flat_indices)

    def counting_render(source, size):
        reads.append(0)
        return render(source, size)

    monkeypatch.setattr(KeptWords, "take", counting_take)
    monkeypatch.setattr(pipeline, "render", counting_render)
    cfg = ExperimentConfig(
        lsb=8, train_zoos=("zoo0",), image_size=size, arch="tiny", strategy="ES",
        train_per_class=PER_CLASS, severities=(1, 2, 3), modes=("centroid",),
    )
    run_detection_run(collection, PAYLOAD, cfg, 0, flats)
    # training: 2 benign + 2 attacked; zoo1's 2 models: benign, then X = 1, 2, 3 and 8
    assert len(reads) == 2 * PER_CLASS + 2 * 5
    assert 0 < max(reads) <= 4 * size**2


def test_train_config_carries_the_training_settings():
    """An ExperimentConfig is the TrainConfig of its runs: it declares only its
    own settings, its training fields default to TrainConfig's and are checked
    as TrainConfig checks them, and a run's config is the same one with that
    run's seed. An architecture it does not know, or an image size its net
    cannot embed (28 for osl-small), is refused too."""
    inherited = {f.name for f in fields(TrainConfig)}
    own = [f.name for f in fields(ExperimentConfig) if f.name not in inherited]
    assert own == ["lsb", "train_zoos", "image_size", "arch", "train_per_class",
                   "severities", "modes", "knn_k"]
    assert not hasattr(ExperimentConfig, "train_config")

    def training(cfg):
        return TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})

    assert training(ExperimentConfig(lsb=8, train_zoos=("zoo0",))) == TrainConfig()
    settings = dict(strategy="ST", learning_rate=1e-3, margin=0.5, batch_size=10,
                    ub_low=0.1, ub_high=0.2)
    cfg = ExperimentConfig(lsb=8, train_zoos=("zoo0",), seed=3, **settings)
    assert isinstance(cfg, TrainConfig) and cfg.seed == 3
    assert training(replace(cfg, seed=7)) == TrainConfig(seed=7, **settings)
    for bad in ({"strategy": "XX"}, {"learning_rate": 0.0}, {"ub_low": 2.0, "ub_high": 1.0},
                {"seed": -1}, {"arch": "bogus"}, {"image_size": 0}, {"image_size": 28}):
        with pytest.raises(ValueError):
            ExperimentConfig(lsb=8, train_zoos=("zoo0",), **bad)


def test_load_keeps_only_the_tapped_words(tmp_path):
    """Loading opens each model file once and keeps only the words a render
    taps: on 1M-param models, traced allocations peak well under one file."""
    collection = synth_collection(tmp_path / "mc", n_zoos=1, n_models=2, n_params=1_000_000, seed=5)
    tracemalloc.start()
    try:
        flats = load_flat_models(collection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = collection.zoos[0].model_paths[0].stat().st_size
    assert len(flats) == 2 and peak < 0.5 * size, peak / size
