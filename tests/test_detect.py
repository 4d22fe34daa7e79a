import json

import numpy as np
import pytest

from weightsteg.detect import (
    ReportRow,
    TrainedDetector,
    _centroid_verdict,
    _knn_verdict,
    accuracy,
    bootstrap_ci,
    build_detector,
    centroids_as_1nn_equivalence_check,
    classify,
    classify_samples,
    eval_al,
    eval_oml,
    load_detector,
    render_report_csv,
    render_report_json,
    save_detector,
    summarize_rows,
    weighted_metric,
)
from weightsteg.errors import FormatError
from weightsteg.net import ConvBlock, ConvNetConfig, TrainConfig, init_params, train

TINY = ConvNetConfig(
    input_size=8, blocks=(ConvBlock(2, 3, pool=True),), embedding_dim=4
)


def tiny_detector(seed=0, **overrides):
    rng = np.random.default_rng(seed)
    images = rng.random((6, 8, 8))
    images[3:] += 0.5
    images = np.clip(images, 0.0, 1.0)
    labels = [0, 0, 0, 1, 1, 1]
    result = train(images, labels, TINY, TrainConfig(strategy="ES", seed=seed))
    return build_detector(TINY, result.params, images, labels, seed=seed, **overrides)


def synthetic_detector(embeddings, labels):
    """Detector with hand-placed embeddings; the net is irrelevant."""
    return TrainedDetector(
        config=TINY,
        params=init_params(TINY),
        embeddings=np.asarray(embeddings, dtype=np.float32),
        labels=labels,
    )


class TestCentroid:
    def test_distance_example(self):
        # query at 0.27 from the benign centroid, 0.56 from the malicious one
        verdict = _centroid_verdict(np.array([0.27, 0.0]), np.zeros(2), np.array([0.83, 0.0]))
        assert verdict.label == 0

    def test_query_on_benign_sample(self):
        det = synthetic_detector([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        query = np.array([0.0, 0.0])
        assert _centroid_verdict(query, det.centroid_benign, det.centroid_malicious).label == 0

    def test_tie_fails_closed(self):
        assert _centroid_verdict(np.array([0.5]), np.array([0.0]), np.array([1.0])).label == 1
        assert _centroid_verdict(np.array([0.3]), np.array([0.3]), np.array([0.3])).label == 1

    def test_classify_via_network(self):
        det = tiny_detector()
        img = np.random.default_rng(1).random((8, 8))
        label, d0, d1 = classify(det, img)
        assert label == (1 if d1 <= d0 else 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            classify(tiny_detector(), np.zeros((9, 9)))

    def test_centroids_recomputable(self):
        det = tiny_detector()
        emb = det.embeddings.astype(np.float64)
        assert np.allclose(det.centroid_benign, emb[det.labels == 0].mean(axis=0), atol=1e-6)
        assert np.allclose(det.centroid_malicious, emb[det.labels == 1].mean(axis=0), atol=1e-6)

    def test_stored_embeddings_are_batch_1(self):
        images = np.random.default_rng(0).random((6, 8, 8))
        det = build_detector(TINY, init_params(TINY), images, [0, 0, 0, 1, 1, 1])
        for i, image in enumerate(images):
            assert det.embeddings[i].tobytes() == det.embed(image).astype(np.float32).tobytes()

    def test_needs_both_classes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_detector(TINY, init_params(TINY), rng.random((2, 8, 8)), [0, 0])


class TestKnn:
    def test_query_on_malicious_sample(self):
        emb = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert _knn_verdict(np.array([5.0, 5.0]), emb, [0, 1], k=1).label == 1

    def test_balanced_vote_fails_closed(self):
        emb = np.array([[0.0], [2.0]])
        assert _knn_verdict(np.array([1.0]), emb, [0, 1], k=2).label == 1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            emb = rng.random((n, 2))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            query = rng.random(2)
            k = int(rng.integers(1, n + 1))
            # oracle: stable sort by distance, majority vote, ties malicious
            dist = np.sqrt(((emb - query) ** 2).sum(axis=1))
            order = sorted(range(n), key=lambda i: (dist[i], i))
            votes = [labels[i] for i in order[:k]]
            expected = 1 if votes.count(1) >= votes.count(0) else 0
            assert _knn_verdict(query, emb, labels, k).label == expected

    def test_k_out_of_range(self):
        det = tiny_detector()
        with pytest.raises(ValueError):
            classify(det, np.zeros((8, 8)), "knn", k=0)
        with pytest.raises(ValueError):
            classify(det, np.zeros((8, 8)), "knn", k=7)


class TestEquivalence:
    def test_trained_detector(self):
        assert centroids_as_1nn_equivalence_check(tiny_detector(), n_queries=100, seed=1)

    def test_degenerate_equal_centroids(self):
        det = tiny_detector()
        det.centroid_malicious = det.centroid_benign.copy()
        assert centroids_as_1nn_equivalence_check(det, n_queries=50, seed=2)

    def test_embedding_level_property(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c0, c1 = rng.standard_normal((2, 5))
            query = rng.standard_normal(5)
            lhs = _centroid_verdict(query, c0, c1).label
            rhs = _knn_verdict(query, np.stack([c1, c0]), [1, 0], k=1).label
            assert lhs == rhs


class TestIsometryInvariance:
    def test_rotation_translation_preserve_labels(self):
        rng = np.random.default_rng(4)
        emb = rng.standard_normal((8, 5))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        shift = rng.standard_normal(5) * 3.0
        c0, c1 = emb[labels == 0].mean(0), emb[labels == 1].mean(0)
        t0, t1 = (emb[labels == 0] @ rotation.T + shift).mean(0), (
            emb[labels == 1] @ rotation.T + shift
        ).mean(0)
        for _ in range(200):
            q = rng.standard_normal(5)
            tq = q @ rotation.T + shift
            assert _centroid_verdict(q, c0, c1).label == _centroid_verdict(tq, t0, t1).label
            for k in (1, 3, 8):
                assert _knn_verdict(q, emb, labels, k).label == _knn_verdict(
                    tq, emb @ rotation.T + shift, labels, k
                ).label

    def test_translation_invariance_of_triplet_distances(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((6, 4))
        shift = rng.standard_normal(4)
        moved = emb + shift
        base = np.linalg.norm(emb[:, None] - emb[None], axis=-1)
        assert np.allclose(base, np.linalg.norm(moved[:, None] - moved[None], axis=-1))


class TestWeightedMetric:
    def test_perfect(self):
        assert weighted_metric(1.0, [1.0] * 23) == pytest.approx(1.0, abs=1e-12)

    def test_benign_only(self):
        assert weighted_metric(1.0, [0.0] * 23) == pytest.approx(0.5, abs=1e-12)

    def test_hard_attacks_missed(self):
        accs = [0.0] * 16 + [1.0] * 7
        assert weighted_metric(1.0, accs) == pytest.approx(0.5507246376811594, abs=1e-12)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            s = int(rng.integers(1, 33))
            a0 = float(rng.random())
            accs = rng.random(s)
            wm = weighted_metric(a0, accs)
            assert 0.0 <= wm <= 1.0
            bumped = accs.copy()
            i = int(rng.integers(0, s))
            bumped[i] = min(1.0, bumped[i] + float(rng.random()) * (1.0 - bumped[i]))
            assert weighted_metric(a0, bumped) >= wm - 1e-15
            assert weighted_metric(min(1.0, a0 + 0.1), accs) >= wm - 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_metric(1.2, [0.5])
        with pytest.raises(ValueError):
            weighted_metric(0.5, [-0.1])
        with pytest.raises(ValueError):
            weighted_metric(0.5, [])


def constant_benign_detector():
    # sigmoid embeddings live in [0, 1]^4, so a malicious centroid at 1e9
    # can never win: every image classifies benign
    det = synthetic_detector([[0.5] * 4, [1e9] * 4], [0, 1])
    return det


def labels_of(det, n, seed=7):
    """The labels det gives n random images, embedded in one call."""
    images = np.random.default_rng(seed).random((n, 8, 8))
    return classify_samples(det, det.embed(images))


class TestEval:
    def test_constant_benign_detector_oml(self):
        det = constant_benign_detector()
        benign, attacked = labels_of(det, 3), labels_of(det, 3, seed=8)
        assert benign == attacked == [0, 0, 0]
        assert eval_oml(benign, attacked) == pytest.approx(0.5)

    def test_constant_benign_detector_al(self):
        det = constant_benign_detector()
        benign = labels_of(det, 2)
        by_sev = {x: labels_of(det, 2, seed=x) for x in range(1, 5)}
        wm, a0, per = eval_al(benign, by_sev)
        assert a0 == 1.0
        assert all(v == 0.0 for v in per.values())
        assert wm == pytest.approx(0.5)

    def test_perfect_detector_oml(self):
        """Labels that are all right score 1.0, and each wrong one costs its
        share of the total: a hit count over a total, as np.mean of the hits."""
        det = tiny_detector()
        labels = labels_of(det, 4, seed=8)
        benign = [label for label in labels if label == 0]
        attacked = [label for label in labels if label == 1]
        assert eval_oml(benign, attacked) == 1.0
        assert eval_oml(attacked, benign) == 0.0
        for benign, attacked in [([0, 1, 0], [1]), ([0] * 7, [1, 0] * 5), ([1], [0, 0])]:
            hits = [label == 0 for label in benign] + [label == 1 for label in attacked]
            assert eval_oml(benign, attacked) == float(np.mean(hits))

    def test_al_requires_contiguous_severities(self):
        with pytest.raises(ValueError, match="contiguous"):
            eval_al([0], {1: [1], 3: [1]})

    def test_accuracy_empty(self):
        with pytest.raises(ValueError):
            accuracy([], 0)
        with pytest.raises(ValueError):
            eval_oml([], [])

    def test_unknown_mode(self):
        det = constant_benign_detector()
        with pytest.raises(ValueError, match="unknown evaluation mode"):
            classify_samples(det, det.embed(np.zeros((1, 8, 8))), mode="svm")


class TestSerialization:
    def test_roundtrip(self):
        det = tiny_detector(manifest_sha256="ab" * 32, strategy="ES", trained_lsb=8)
        data = save_detector(det)
        again = load_detector(data)
        assert again.config == det.config
        assert again.params == det.params
        assert np.array_equal(again.embeddings, det.embeddings)
        assert np.array_equal(again.labels, det.labels)
        assert np.array_equal(again.centroid_benign, det.centroid_benign)
        assert again.manifest_sha256 == det.manifest_sha256
        assert again.trained_lsb == 8
        assert save_detector(again) == data

    def test_not_a_detector(self):
        from weightsteg.weights_io import ModelWeights, write_container

        with pytest.raises(FormatError):
            load_detector(write_container(ModelWeights([])))

    def test_version_check(self):
        det = tiny_detector()
        data = save_detector(det)
        tampered = data.replace(b'"format_version":"1"', b'"format_version":"9"')
        with pytest.raises(FormatError, match="format_version"):
            load_detector(tampered)

    @pytest.mark.parametrize(
        "name,value",
        [("net.conv0.weight", np.nan), ("net.embed.weight", np.inf), ("net.embed.bias", -np.inf),
         ("train.embeddings", np.nan), ("centroid.benign", np.inf), ("centroid.malicious", np.nan)],
    )
    def test_non_finite_tensor_rejected(self, name, value):
        from weightsteg.weights_io import read_container, write_container

        model = read_container(save_detector(tiny_detector()))
        model.tensors = [
            t.with_bits(np.concatenate([np.float32([value]).view(t.bits.dtype), t.bits[1:]]))
            if t.name == name else t
            for t in model.tensors
        ]
        with pytest.raises(FormatError, match=f"non-finite values: {name}$"):
            load_detector(write_container(model))


class TestReporting:
    def test_bootstrap_constant_values(self):
        lo, hi = bootstrap_ci([0.8, 0.8, 0.8])
        assert lo == pytest.approx(0.8, abs=1e-12)
        assert hi == pytest.approx(0.8, abs=1e-12)

    def test_bootstrap_deterministic_and_ordered(self):
        values = [0.1, 0.5, 0.9, 0.4, 0.6]
        a = bootstrap_ci(values)
        assert a == bootstrap_ci(values)
        assert a[0] <= np.mean(values) <= a[1]

    def test_csv_format(self):
        rows = [ReportRow("0", 8, "centroid", "oml_accuracy", 0.9375)]
        text = render_report_csv(rows)
        assert text.splitlines()[0] == "run,model_lsb,eval_type,metric,value"
        assert text.splitlines()[1] == "0,8,centroid,oml_accuracy,0.9375"

    def test_summary_rows(self):
        rows = [
            ReportRow("0", 8, "centroid", "oml_accuracy", 0.5),
            ReportRow("1", 8, "centroid", "oml_accuracy", 1.0),
        ]
        summary = summarize_rows(rows)
        kinds = [r.run for r in summary]
        assert kinds == ["mean", "ci95_low", "ci95_high"]
        assert summary[0].value == pytest.approx(0.75)

    def test_json_render(self):
        rows = [ReportRow("0", 8, "1nn", "weighted_metric", 0.5)]
        doc = json.loads(render_report_json(rows, extra={"config": {"lsb": 8}}))
        assert doc["rows"][0]["metric"] == "weighted_metric"
        assert doc["config"]["lsb"] == 8
