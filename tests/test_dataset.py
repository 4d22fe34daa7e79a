import builtins
import hashlib
import io
import json
import logging
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_weights_io import scrambled_container
from weightsteg import dataset
from weightsteg.cli import main

from weightsteg.dataset import (
    DatasetManifest,
    attack_model,
    ModelCollection,
    ModelZoo,
    SampleRecord,
    build_dataset,
    load_collection,
    load_dataset,
    split_by_zoo,
    synth_collection,
    synth_model,
    synth_zoo,
)
from weightsteg.errors import FormatError
from weightsteg.imagerep import REPRESENTATIONS, read_pgm, render, write_pgm
from weightsteg.steg import (
    AttackSpec,
    FillWords,
    Payload,
    effective_fill_payload,
    extract_lsb,
    lsb_attack,
    lsb_attack_fill,
)
from weightsteg.weights_io import (
    CHUNK_WORDS,
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    load_model,
    parse_model,
    save_model,
    unflatten,
    write_container,
)


@pytest.fixture
def small_collection(tmp_path):
    return synth_collection(tmp_path / "mc", n_zoos=3, n_models=2, n_params=50, seed=9)


class TestSynth:
    def test_same_seed_bit_identical(self, tmp_path):
        synth_zoo(tmp_path / "a", "z", 3, 40, seed=1)
        synth_zoo(tmp_path / "b", "z", 3, 40, seed=1)
        for i in range(3):
            assert (
                (tmp_path / "a/z" / f"model{i:03d}.safetensors").read_bytes()
                == (tmp_path / "b/z" / f"model{i:03d}.safetensors").read_bytes()
            )

    def test_different_seeds_differ(self, tmp_path):
        synth_zoo(tmp_path / "a", "z", 1, 40, seed=1)
        synth_zoo(tmp_path / "b", "z", 1, 40, seed=2)
        assert (
            (tmp_path / "a/z/model000.safetensors").read_bytes()
            != (tmp_path / "b/z/model000.safetensors").read_bytes()
        )

    def test_parameter_count_and_scales(self):
        model = synth_model(2000, np.random.default_rng(0))
        assert model.n == 2000
        for tensor in model.tensors:
            scale = float(np.std(tensor.values().astype(np.float64)))
            assert 1e-4 < scale < 1.0

    def test_models_within_zoo_differ(self, small_collection):
        zoo = small_collection.zoos[0]
        a = zoo.model_paths[0].read_bytes()
        b = zoo.model_paths[1].read_bytes()
        assert a != b


class TestCollections:
    def test_load_collection_structure(self, tmp_path, small_collection):
        loaded = load_collection(tmp_path / "mc")
        assert loaded.zoo_ids() == ["zoo0", "zoo1", "zoo2"]
        assert all(len(z.model_paths) == 2 for z in loaded.zoos)

    def test_load_collection_rejects_empty(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            load_collection(tmp_path / "empty")

    def test_zoo_requires_models(self):
        with pytest.raises(ValueError):
            ModelZoo("z", "arch", "task", [])

    def test_duplicate_zoo_ids(self, small_collection):
        zoo = small_collection.zoos[0]
        with pytest.raises(ValueError):
            ModelCollection("mc", [zoo, zoo])


def build_attacked(collection, lsb, payload, out_dir):
    """Build a dataset with an attack and return its attacked collection."""
    build_dataset(collection, "grayscale-fourpart", 16, out_dir, lsb=lsb, payload=payload)
    return load_collection(out_dir / "attacked")


class TestAttackedCollection:
    def test_structure_preserved(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        attacked = build_attacked(small_collection, 23, payload, tmp_path / "ds")
        assert attacked.zoo_ids() == small_collection.zoo_ids()
        assert sum(len(z.model_paths) for z in attacked.zoos) == 6

    def test_payload_recoverable_from_members(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        attacked = build_attacked(small_collection, 23, payload, tmp_path / "ds")
        flat = flatten(load_model(attacked.zoos[1].model_paths[0]))
        expected = effective_fill_payload(payload.bits, flat.n, 23)
        assert np.array_equal(extract_lsb(flat, 23, flat.n * 23).bits, expected)

    def test_failing_model_identified(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        with pytest.raises(ValueError, match="model000"):
            build_attacked(small_collection, 40, payload, tmp_path / "ds")

    def test_attacked_metadata(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        attacked = build_attacked(small_collection, 8, payload, tmp_path / "ds")
        meta = load_model(attacked.zoos[0].model_paths[0]).metadata
        assert meta["lsb"] == "8"
        assert meta["payload_sha256"] == payload.sha256()
        assert len(meta["source_sha256"]) == 64


class TestBuildDataset:
    def test_counts_labels_shapes(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        manifest = build_dataset(
            small_collection,
            "grayscale-fourpart",
            16,
            tmp_path / "ds",
            lsb=8,
            payload=payload,
            train_zoos=["zoo0"],
        )
        assert len(manifest.samples) == 12
        assert sum(s.label for s in manifest.samples) == 6
        _, samples = load_dataset(tmp_path / "ds")
        assert all(s.image.shape == (16, 16) for s in samples)
        assert all(0.0 <= s.image.min() and s.image.max() <= 1.0 for s in samples)

    def test_benign_only_dataset(self, tmp_path, small_collection):
        manifest = build_dataset(small_collection, "grayscale-fourpart", 16, tmp_path / "ds")
        assert len(manifest.samples) == 6
        assert all(s.label == 0 for s in manifest.samples)

    def test_unsupported_representation(self, tmp_path, small_collection):
        with pytest.raises(ValueError, match="representation"):
            build_dataset(small_collection, "spectrogram", 16, tmp_path / "ds")

    def test_manifest_json_schema(self, tmp_path, small_collection):
        manifest = build_dataset(small_collection, "grayscale-fourpart", 16, tmp_path / "ds")
        doc = json.loads((tmp_path / "ds/manifest.json").read_text())
        assert set(doc) == {
            "mc_id",
            "X",
            "payload_sha256",
            "representation",
            "shape",
            "source_sha256",
            "samples",
        }
        assert doc["shape"] == [16, 16]
        assert set(doc["samples"][0]) == {"path", "zoo", "label", "split"}
        parsed = DatasetManifest.from_json((tmp_path / "ds/manifest.json").read_text())
        assert parsed.samples == manifest.samples

    def test_parallel_label_balance(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        manifest = build_dataset(
            small_collection, "grayscale-fourpart", 16, tmp_path / "ds", lsb=8, payload=payload
        )
        benign = sum(1 for s in manifest.samples if s.label == 0)
        assert benign == len(manifest.samples) - benign

    def test_manifest_records_match_recomputation(self, tmp_path, small_collection):
        # every stored image must be reproducible from the recorded
        # hyperparameters and the source model alone
        from weightsteg.imagerep import grayscale_fourpart, read_pgm, resize
        from weightsteg.steg import lsb_attack_fill

        payload = Payload.synthetic(8, seed=1)
        manifest = build_dataset(
            small_collection, "grayscale-fourpart", 16, tmp_path / "ds", lsb=8, payload=payload
        )
        assert manifest.payload_sha256 == payload.sha256()
        for record in (manifest.samples[0], manifest.samples[-1]):
            stem = record.path.rsplit("/", 1)[1].split(".")[0]
            flat = flatten(load_model(tmp_path / "mc" / record.zoo / f"{stem}.safetensors"))
            if record.label == 1:
                flat = lsb_attack_fill(flat, manifest.lsb, payload)
            recomputed = resize(grayscale_fourpart(flat), *manifest.shape)
            assert np.array_equal(read_pgm(tmp_path / "ds" / record.path), recomputed)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-dataset")
    collection = synth_collection(root / "mc", n_zoos=2, n_models=1, n_params=50, seed=9)
    build_dataset(collection, "grayscale-fourpart", 8, root / "ds", lsb=8,
                  payload=Payload.synthetic(8, seed=1), train_zoos=["zoo0"])
    return root / "ds"


@st.composite
def byte_mutations(draw, data, hot):
    """1-3 byte overwrites, three in four of them in the first hot bytes; half
    the new bytes are JSON or PGM header characters, so some still parse."""
    mutated = bytearray(data)
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.e"{}[],:#P \n'))
    for _ in range(draw(st.integers(1, 3))):
        end = hot if draw(st.integers(0, 3)) < 3 else len(data)
        mutated[draw(st.integers(0, end - 1))] = draw(byte)
    return bytes(mutated)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class TestMutatedDatasetInputs:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_manifest_fails_closed(self, fuzz_dataset, data):
        text = (fuzz_dataset / "manifest.json").read_bytes()
        path = fuzz_dataset / "mutated.json"
        path.write_bytes(data.draw(byte_mutations(text, len(text))))
        try:
            manifest, samples = load_dataset(path)
        except FormatError:
            return
        assert isinstance(manifest.mc_id, str)
        assert manifest.lsb is None or is_int(manifest.lsb)
        assert all(v is None or isinstance(v, str)
                   for v in (manifest.payload_sha256, manifest.source_sha256))
        assert manifest.representation in REPRESENTATIONS
        assert len(manifest.shape) == 2 and all(is_int(d) and d > 0 for d in manifest.shape)
        for record in manifest.samples:
            assert all(isinstance(v, str) for v in (record.path, record.zoo, record.split))
            assert is_int(record.label) and record.label in (0, 1)
        assert [s.image.shape for s in samples] == [manifest.shape] * len(manifest.samples)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_pgm_fails_closed(self, fuzz_dataset, data):
        image = (fuzz_dataset / "images/zoo0/model000.benign.pgm").read_bytes()
        header = image.index(b"255\n") + 4
        path = fuzz_dataset / "mutated.pgm"
        path.write_bytes(data.draw(byte_mutations(image, header)))
        try:
            pixels = read_pgm(path)
        except FormatError:
            return
        assert pixels.dtype == np.uint8 and pixels.ndim == 2 and pixels.size >= 1


class TestSplit:
    def _manifest(self):
        samples = [
            SampleRecord(f"images/{zoo}/m{i}.benign.pgm", zoo, 0)
            for zoo in ("A", "B", "C")
            for i in range(2)
        ]
        return DatasetManifest("mc", 8, None, "grayscale-fourpart", (16, 16), samples)

    def test_set_difference(self):
        manifest = self._manifest()
        train, test = split_by_zoo(manifest, ["A"])
        assert {s.zoo for s in train} == {"A"}
        assert {s.zoo for s in test} == {"B", "C"}

    def test_all_train_warns(self, caplog):
        manifest = self._manifest()
        with caplog.at_level(logging.WARNING):
            train, test = split_by_zoo(manifest, ["A", "B", "C"])
        assert test == []
        assert any("empty" in r.message for r in caplog.records)

    def test_no_overlap(self):
        manifest = self._manifest()
        train, test = split_by_zoo(manifest, ["B"])
        assert not {s.path for s in train} & {s.path for s in test}

    def test_unknown_zoo(self):
        with pytest.raises(ValueError, match="unknown"):
            split_by_zoo(self._manifest(), ["D"])

    def test_zoo_never_straddles(self):
        manifest = self._manifest()
        split_by_zoo(manifest, ["A", "C"])
        by_zoo = {}
        for s in manifest.samples:
            by_zoo.setdefault(s.zoo, set()).add(s.split)
        assert all(len(v) == 1 for v in by_zoo.values())


class TestModelImage:
    def test_shape_contract(self, small_collection):
        model = load_model(small_collection.zoos[0].model_paths[0])
        img = render(flatten(model), "grayscale-fourpart", 100)
        assert img.shape == (100, 100)

    def test_shape_mismatch_on_load(self, tmp_path, small_collection):
        build_dataset(small_collection, "grayscale-fourpart", 16, tmp_path / "ds")
        doc = json.loads((tmp_path / "ds/manifest.json").read_text())
        doc["shape"] = [32, 32]
        (tmp_path / "ds/manifest.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="shape"):
            load_dataset(tmp_path / "ds")


def collection_digest(*collections):
    """The reference source digest: every member file hashed on disk, in zoo order."""
    digest = hashlib.sha256()
    for collection in collections:
        for zoo in collection.zoos:
            for path in zoo.model_paths:
                digest.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return digest.hexdigest()


def two_pass_dataset(benign, representation, size, out_dir, lsb, payload, train_zoos):
    """build_dataset as a composition of separate passes: attack every model to
    out_dir/attacked, then load every benign and attacked file to render it."""
    out_dir = Path(out_dir)
    attacked_zoos = []
    for zoo in benign.zoos:
        (out_dir / "attacked" / zoo.zoo_id).mkdir(parents=True)
        paths = []
        for path in zoo.model_paths:
            model = load_model(path)
            attacked = unflatten(model, lsb_attack_fill(flatten(model), lsb, payload).bits)
            attacked.metadata.update({
                "attack": "lsb-fill",
                "lsb": str(lsb),
                "payload_sha256": payload.sha256(),
                "source_sha256": hashlib.sha256(write_container(model)).hexdigest(),
            })
            out = out_dir / "attacked" / zoo.zoo_id / path.name
            save_model(attacked, out)
            paths.append(out)
        attacked_zoos.append(ModelZoo(zoo.zoo_id, zoo.architecture, zoo.task, paths))
    attacked = ModelCollection("attacked", attacked_zoos)
    manifest = DatasetManifest(benign.mc_id, lsb, payload.sha256(), representation,
                               (size, size), [], collection_digest(benign, attacked))
    for zoo, attacked_zoo in zip(benign.zoos, attacked.zoos):
        (out_dir / "images" / zoo.zoo_id).mkdir(parents=True)
        for paths, label, tag in ((zoo.model_paths, 0, "benign"),
                                  (attacked_zoo.model_paths, 1, "attacked")):
            for path in paths:
                rel = f"images/{zoo.zoo_id}/{path.stem}.{tag}.pgm"
                img = render(flatten(load_model(path)), representation, size)
                write_pgm(img, out_dir / rel)
                manifest.samples.append(SampleRecord(rel, zoo.zoo_id, label))
    split_by_zoo(manifest, train_zoos)
    (out_dir / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def raw_collection(small_collection, out_dir):
    for zoo in small_collection.zoos:
        (out_dir / zoo.zoo_id).mkdir(parents=True)
        for path in zoo.model_paths:
            save_model(load_model(path), out_dir / zoo.zoo_id / f"{path.stem}.f32")
    return load_collection(out_dir)


def spaced_collection(small_collection, out_dir):
    """The same models in containers whose JSON header is not the canonical one."""
    for zoo in small_collection.zoos:
        (out_dir / zoo.zoo_id).mkdir(parents=True)
        for path in zoo.model_paths:
            data = path.read_bytes()
            (header_len,) = struct.unpack("<Q", data[:8])
            header = json.dumps(json.loads(data[8 : 8 + header_len]), indent=1).encode()
            (out_dir / zoo.zoo_id / path.name).write_bytes(
                struct.pack("<Q", len(header)) + header + data[8 + header_len :]
            )
    return load_collection(out_dir)


class TestOnePass:
    @pytest.mark.parametrize("layout", ["container", "raw", "spaced"])
    @pytest.mark.parametrize("lsb", [2, 23])
    def test_equals_two_pass_composition(self, tmp_path, small_collection, layout, lsb):
        collection = {
            "container": lambda: small_collection,
            "raw": lambda: raw_collection(small_collection, tmp_path / "raw"),
            "spaced": lambda: spaced_collection(small_collection, tmp_path / "spaced"),
        }[layout]()
        payload = Payload.synthetic(5, seed=3)
        build_dataset(collection, "grayscale-fourpart", 12, tmp_path / "one", lsb=lsb,
                      payload=payload, train_zoos=["zoo1"])
        two_pass_dataset(collection, "grayscale-fourpart", 12, tmp_path / "two", lsb,
                         payload, ["zoo1"])
        one, two = tree(tmp_path / "one"), tree(tmp_path / "two")
        assert len(one) == 1 + 2 * 6 + 6  # manifest, images, attacked models
        assert one == two

    def test_benign_only_source_digest(self, tmp_path, small_collection):
        manifest = build_dataset(small_collection, "grayscale-fourpart", 12, tmp_path / "ds")
        assert manifest.source_sha256 == collection_digest(small_collection)

    def test_each_model_flattened_once(self, tmp_path, monkeypatch):
        from weightsteg import dataset

        collection = synth_collection(tmp_path / "mc", n_zoos=1, n_models=2, n_params=50, seed=9)
        calls = []

        def counting(model):
            calls.append(model)
            return flatten(model)

        monkeypatch.setattr(dataset, "flatten", counting)
        build_dataset(collection, "grayscale-fourpart", 12, tmp_path / "ds", lsb=8,
                      payload=Payload.synthetic(5, seed=3))
        assert len(calls) == 2

    def test_each_benign_file_read_once(self, tmp_path, small_collection, monkeypatch):
        reads = []
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            if not any(c in mode for c in "wax+"):
                reads.append(Path(file).resolve())
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        out = tmp_path / "out"
        assert main(["build-dataset", "--mc", str(tmp_path / "mc"), "--lsb", "8",
                     "--synthetic-payload", "16,2", "--size", "12", "--out", str(out)]) == 0
        monkeypatch.undo()
        benign = [p.resolve() for z in small_collection.zoos for p in z.model_paths]
        model_reads = [p for p in reads if p.suffix == ".safetensors"]
        assert sorted(model_reads) == sorted(benign)
        assert not [p for p in reads if (out / "attacked").resolve() in p.parents]
        assert len(list((out / "attacked").rglob("*.safetensors"))) == len(benign)


def reference_fill(words, word_bits, lsb, bits):
    """The fill attack straight from its definition: word i's low field holds
    effective-stream bits i*lsb .. i*lsb + lsb - 1, most significant first."""
    n = len(words)
    stream = effective_fill_payload(bits, n, lsb).reshape(n, lsb).astype(np.uint64)
    fields = (stream << np.arange(lsb, dtype=np.uint64)[::-1]).sum(axis=1)
    keep = ((1 << word_bits) - 1) ^ ((1 << lsb) - 1)
    return ((words.astype(np.uint64) & keep) | fields).astype(words.dtype)


def layout_bytes(tensors, layout, metadata):
    if layout == "raw":
        return b"".join(t.bits.tobytes() for t in tensors)
    if layout == "scrambled":
        return scrambled_container(tensors, list(range(len(tensors)))[::-1], metadata)
    data = write_container(ModelWeights(tensors, metadata=metadata))
    if layout == "spaced":
        (header_len,) = struct.unpack("<Q", data[:8])
        header = json.dumps(json.loads(data[8 : 8 + header_len]), indent=1).encode()
        data = struct.pack("<Q", len(header)) + header + data[8 + header_len :]
    return data


@st.composite
def chunked_cases(draw):
    dtype = draw(st.sampled_from([DType.F32, DType.F16]))
    layout = draw(st.sampled_from(["container", "spaced", "scrambled", "raw"]))
    chunk = CHUNK_WORDS
    n = draw(st.one_of(st.integers(1, 200), st.sampled_from([chunk - 1, chunk, chunk + 1]),
                       st.integers(2 * chunk - 3, 2 * chunk + 40)))
    cuts = [] if layout == "raw" else draw(st.lists(st.integers(0, n), max_size=4))
    sizes = np.diff([0, *sorted(cuts), n]).tolist()  # zero-length tensors included
    lsb = draw(st.integers(1, dtype.mantissa_bits))
    payload = Payload.synthetic(draw(st.integers(1, 40)), draw(st.integers(0, 99)))
    return dtype, layout, sizes, lsb, payload, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(chunked_cases(), st.booleans(), st.data())
def test_chunked_attack_equals_whole_model_composition(tmp_path_factory, case, fill, draws):
    """attack_model(...).save writes, chunk by chunk, the bytes of attacking the
    whole flattened model and saving it; for a fill attack its words render, at
    any size, the image the attacked model renders, and _model_pass writes and
    renders the same."""
    dtype, layout, sizes, lsb, payload, seed = case
    rng = np.random.default_rng(seed)
    tensors = [WeightTensor(f"t{i}", dtype, (size,),
                            rng.integers(0, 2**dtype.word_bits, size, dtype=np.uint64))
               for i, size in enumerate(sizes)]
    suffix = {"raw": ".f32" if dtype is DType.F32 else ".f16"}.get(layout, ".safetensors")
    root = tmp_path_factory.mktemp("chunked")
    path = root / f"m{suffix}"
    data = layout_bytes(tensors, layout, {"origin": "test"})
    path.write_bytes(data)

    cover = np.concatenate([t.bits for t in tensors])
    if fill:
        attacked = reference_fill(cover, dtype.word_bits, lsb, payload.bits)
    elif len(payload.bits) > len(cover) * lsb:
        return
    else:
        attacked = lsb_attack(WeightTensor("", dtype, (len(cover),), cover.copy()), lsb,
                              payload).bits
    model = parse_model(data, path)
    if layout == "raw":
        want = attacked.tobytes()
    else:
        expected = unflatten(model, attacked)
        expected.metadata.update({
            "attack": "lsb-fill" if fill else "lsb",
            "lsb": str(lsb),
            "payload_sha256": payload.sha256(),
            "source_sha256": hashlib.sha256(write_container(model)).hexdigest(),
        })
        want = write_container(expected)

    spec = AttackSpec(lsb, fill, payload)
    result = attack_model(model, flatten(model), spec)
    assert result.save(root / f"out{suffix}") == hashlib.sha256(want).hexdigest()
    assert (root / f"out{suffix}").read_bytes() == want
    assert path.read_bytes() == data  # the cover bytes are never written to
    if not fill:
        return
    flat_attacked = WeightTensor("", dtype, (len(attacked),), attacked)
    idx = rng.integers(0, len(attacked), size=(3, 5))
    assert np.array_equal(result.words.take(idx), attacked[idx])
    if dtype is DType.F32:
        side = math.isqrt(len(cover) - 1) + 1  # the fourpart image is 2*side square
        size = draws.draw(st.integers(1, 2 * side + 3), label="size")
        flat = flatten(model)
        image = render(spec.words(flat), "grayscale-fourpart", size)
        assert np.array_equal(image, render(lsb_attack_fill(flat, lsb, payload),
                                            "grayscale-fourpart", size))
        assert np.array_equal(image, render(flat_attacked, "grayscale-fourpart", size))
        (root / "attacked").mkdir()
        passed = dataset._model_pass(path, spec, "grayscale-fourpart", size, root / "attacked")
        assert (root / "attacked" / path.name).read_bytes() == want
        assert passed[1][1] == hashlib.sha256(want).digest()
        assert np.array_equal(passed[1][0], image)
        assert np.array_equal(passed[0][0], render(WeightTensor("", dtype, (len(cover),), cover),
                                                   "grayscale-fourpart", size))


@pytest.mark.parametrize("offset", [0, 1, CHUNK_WORDS - 5])
def test_fill_rewrite_period_straddles_chunks(offset):
    """A period (24 words) that does not divide the chunk size, applied to a run
    starting at any flat index, equals the closed form at those indices."""
    rng = np.random.default_rng(offset)
    n = 3 * CHUNK_WORDS + 7
    cover = WeightTensor("", DType.F32, (n,), rng.integers(0, 2**32, n, dtype=np.uint64))
    words = FillWords(cover, 5, Payload.synthetic(3, 1))
    assert len(words.fields) == 24
    run = cover.bits[offset : offset + CHUNK_WORDS + 11]
    assert np.array_equal(words.rewrite(run, offset),
                          words.take(np.arange(offset, offset + len(run))))
    assert np.array_equal(lsb_attack_fill(cover, 5, Payload.synthetic(3, 1)).bits,
                          reference_fill(cover.bits, 32, 5, Payload.synthetic(3, 1).bits))


def test_model_pass_holds_one_copy_of_the_model(tmp_path):
    """One 1M-param model's pass (parse, flatten, attack, write, hash, render)
    peaks under 1.5x the model file's size in traced allocations."""
    path = tmp_path / "m.safetensors"
    save_model(synth_model(1_000_000, np.random.default_rng(4)), path)
    spec = AttackSpec(8, True, Payload.synthetic(64, 7))
    (tmp_path / "out").mkdir()
    tracemalloc.start()
    try:
        dataset._model_pass(path, spec, "grayscale-fourpart", 100, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 1.5 * size, peak / size
