import builtins
import hashlib
import io
import json
import logging
import math
import os
import struct
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import effective_fill_payload, layout_bytes, unflatten
from weightsteg import dataset, net, weights_io
from weightsteg.cli import main

from weightsteg.dataset import (
    DatasetManifest,
    ModelCollection,
    ModelZoo,
    SampleRecord,
    build_dataset,
    load_collection,
    load_dataset,
    split_by_zoo,
    synth_collection,
    synth_model,
)
from weightsteg.errors import FormatError
from weightsteg.imagerep import REPRESENTATION, read_pgm, render, write_pgm
from weightsteg.steg import (
    AttackSpec,
    LsbWords,
    Payload,
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
    open_words,
    parse_model,
    save_model,
    write_container,
)


@pytest.fixture
def small_collection(tmp_path):
    return synth_collection(tmp_path / "mc", n_zoos=3, n_models=2, n_params=50, seed=9)


class TestSynth:
    def test_same_seed_bit_identical(self, tmp_path):
        synth_collection(tmp_path / "a", 1, 3, 40, seed=1)
        synth_collection(tmp_path / "b", 1, 3, 40, seed=1)
        for i in range(3):
            assert (
                (tmp_path / "a/zoo0" / f"model{i:03d}.safetensors").read_bytes()
                == (tmp_path / "b/zoo0" / f"model{i:03d}.safetensors").read_bytes()
            )

    def test_different_seeds_differ(self, tmp_path):
        synth_collection(tmp_path / "a", 1, 1, 40, seed=1)
        synth_collection(tmp_path / "b", 1, 1, 40, seed=2)
        assert (
            (tmp_path / "a/zoo0/model000.safetensors").read_bytes()
            != (tmp_path / "b/zoo0/model000.safetensors").read_bytes()
        )

    def test_parameter_count_and_scales(self):
        model = synth_model(2000, np.random.default_rng(0))
        assert model.n == 2000
        for tensor in model.tensors:
            scale = float(np.std(tensor.values().astype(np.float64)))
            assert 1e-4 < scale < 1.0

    def test_collection_id(self, small_collection):
        assert small_collection.mc_id == "synth-mc"

    def test_models_within_zoo_differ(self, small_collection):
        zoo = small_collection.zoos[0]
        a = zoo.model_paths[0].read_bytes()
        b = zoo.model_paths[1].read_bytes()
        assert a != b


def tree_sha256(root: Path) -> str:
    """One digest over every file under root: its relative path, then its sha256."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


# synth_collection(out, zoos, models, n_params, seed=13) as drawn whole, layer
# by layer, before models were streamed in chunks: layers of 1, 16,383-16,385
# and 65,536-65,537 words sit below, at and across chunk boundaries.
SYNTH_PINNED = {
    (1, 1, 1): "55cc38155546eca8d69a13fc9c5786c0f6e6232ab4e21fdfb6f8c4a7d13201df",
    (1, 1, 3): "2bcc8416181e7b47ce2becc4268f5ee1c85a2fecbd16ce50784435591ae10761",
    (1, 1, 5): "76d8ffa6260ca8ae4aaf4a6f5fe80f3ec4043991f6164e5f7ea3bb191984043a",
    (1, 1, 65_535): "9c8924d99fa6cccc77393c094f17137e348062cedb141fabc5f02651e0b56e67",
    (1, 1, 65_537): "68de04225832fdfb447095ac42dcbccd0cc68be8cf36d3c1139e981aec6efede",
    (1, 1, 4 * 65_536 + 3): "6e93c5ce25e93f04368df52cd1849cee6bd1e00932d09ab2ede902352e22bef0",
    (2, 3, 4 * 65_536 + 3): "fe9a1b8d349b09a5e8e63a95808eb98e9b66a2dccc8b623969de26fc75cdead2",
    (2, 3, 1000): "01647674579e17f9f9e9f4d64904b3c67fd8533caa77859469657266cfa6f276",
}


class TestSynthStreamed:
    @pytest.mark.parametrize("shape", list(SYNTH_PINNED), ids=lambda s: "x".join(map(str, s)))
    def test_pinned_bytes(self, tmp_path, shape):
        synth_collection(tmp_path / "mc", *shape, seed=13)
        assert tree_sha256(tmp_path / "mc") == SYNTH_PINNED[shape]

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_bytes_do_not_depend_on_the_workers(self, tmp_path, monkeypatch, cpus):
        """One thread, or more usable CPUs than models: the models are drawn
        through net._fan_out, whose pool holds a thread per CPU beyond the
        caller's, none when there is one."""
        pools = []

        class Recorded(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(net, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(net, "_helpers", None)
        monkeypatch.setattr(futures, "ThreadPoolExecutor", Recorded)
        shape = (2, 3, 4 * 65_536 + 3)
        synth_collection(tmp_path / "mc", *shape, seed=13)
        assert pools == ([] if cpus == 1 else [cpus - 1])
        assert tree_sha256(tmp_path / "mc") == SYNTH_PINNED[shape]

    def test_synth_model_is_the_streamed_model(self, tmp_path):
        zoo = synth_collection(tmp_path, 1, 2, 70_000, seed=5).zoos[0]
        # zoo i draws from the i-th seed of the collection seed's generator
        zoo_seed = int(np.random.default_rng(5).integers(0, 2**63 - 1, size=1)[0])
        for i, child in enumerate(np.random.SeedSequence(zoo_seed).spawn(2)):
            model = synth_model(70_000, np.random.default_rng(child))
            assert load_model(zoo.model_paths[i]).tensors == model.tensors

    def test_streams_each_model(self, tmp_path):
        """A 1M-param model is drawn and written a chunk at a time: under 0.1x
        its file in traced allocations."""
        tracemalloc.start()
        try:
            zoo = synth_collection(tmp_path, 1, 1, 1_000_000, seed=5).zoos[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = zoo.model_paths[0].stat().st_size
        assert peak < 0.1 * size, peak / size

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--zoos", 0, "--models", 2, "--params", 10), "n_zoos must be >= 1"),
            (("--zoos", 2, "--models", 0, "--params", 10), "n_models must be >= 1"),
            (("--zoos", 2, "--models", 2, "--params", 0), "n_params must be >= 1"),
        ],
        ids=["zoos", "models", "params"],
    )
    def test_bad_sizes_write_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "mc0"
        assert main(["synth-mc", "--out", str(out), *map(str, flags)]) == 2
        assert capsys.readouterr().err == f"error[usage]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "second,stale",
        [
            (("--zoos", 1, "--models", 2, "--params", 60), "zoo0/model002.safetensors"),
            (("--zoos", 1, "--models", 3, "--params", 60), "zoo1/model000.safetensors"),
        ],
        ids=["fewer-models", "fewer-zoos"],
    )
    def test_refuses_an_earlier_runs_models(self, tmp_path, capsys, second, stale):
        """A model file in --out that the run would not overwrite would join
        the collection build-dataset reads back: exit 2, nothing written."""
        out = tmp_path / "mc"
        assert main(["synth-mc", "--out", str(out), "--zoos", "2", "--models", "3",
                     "--params", "50"]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(["synth-mc", "--out", str(out), *map(str, second)]) == 2
        message = f"error[usage]: {out / stale}: a model file of another run would join this collection\n"
        assert capsys.readouterr().err == message
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_rewrites_its_own_files(self, tmp_path):
        """A run over the same file names is allowed: the same files, rewritten."""
        shape = (2, 3, 1000)
        synth_collection(tmp_path / "mc", *shape, seed=13)
        (tmp_path / "mc" / "zoo0" / "notes.txt").write_text("kept")
        (tmp_path / "mc" / "zoo0" / "model000.safetensors").write_bytes(b"stale")
        synth_collection(tmp_path / "mc", *shape, seed=13)
        (tmp_path / "mc" / "zoo0" / "notes.txt").unlink()
        assert tree_sha256(tmp_path / "mc") == SYNTH_PINNED[shape]

    def test_failing_model_write(self, tmp_path, capsys):
        """A model whose file cannot be written fails the command as it did
        before the pool: exit 3 with the first failing model's OSError."""
        blocked = tmp_path / "mc" / "zoo1" / "model001.safetensors"
        blocked.mkdir(parents=True)
        assert main(["synth-mc", "--out", str(tmp_path / "mc"), "--zoos", "2", "--models", "2",
                     "--params", "100"]) == 3
        assert capsys.readouterr().err == f"error[data]: [Errno 21] Is a directory: '{blocked}'\n"


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
            ModelZoo("z", [])

    def test_duplicate_zoo_ids(self, small_collection):
        zoo = small_collection.zoos[0]
        with pytest.raises(ValueError):
            ModelCollection("mc", [zoo, zoo])


def build_attacked(collection, lsb, payload, out_dir):
    """Build a dataset with an attack and return its attacked collection."""
    build_dataset(collection, 16, out_dir, AttackSpec(lsb, True, payload))
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
            16,
            tmp_path / "ds",
            AttackSpec(8, True, payload),
            train_zoos=["zoo0"],
        )
        assert len(manifest.samples) == 12
        assert sum(s.label for s in manifest.samples) == 6
        _, samples = load_dataset(tmp_path / "ds")
        assert all(s.image.shape == (16, 16) for s in samples)
        assert all(0.0 <= s.image.min() and s.image.max() <= 1.0 for s in samples)

    def test_plain_attack_refused(self, tmp_path, small_collection):
        """A manifest records no fill flag, so a plain attack is refused before
        anything is written."""
        with pytest.raises(ValueError, match="fill"):
            build_dataset(small_collection, 16, tmp_path / "ds",
                          AttackSpec(8, False, Payload.synthetic(8, seed=1)))
        assert not (tmp_path / "ds").exists()

    def test_manifest_json_schema(self, tmp_path, small_collection):
        manifest = build_dataset(small_collection, 16, tmp_path / "ds",
                                 AttackSpec(8, True, Payload.synthetic(8, seed=1)))
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
        assert doc["representation"] == "grayscale-fourpart"
        assert doc["shape"] == [16, 16]
        assert set(doc["samples"][0]) == {"path", "zoo", "label", "split"}
        parsed = DatasetManifest.from_json((tmp_path / "ds/manifest.json").read_text())
        assert parsed.samples == manifest.samples

    def test_parallel_label_balance(self, tmp_path, small_collection):
        payload = Payload.synthetic(8, seed=1)
        manifest = build_dataset(
            small_collection, 16, tmp_path / "ds", AttackSpec(8, True, payload)
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
            small_collection, 16, tmp_path / "ds", AttackSpec(8, True, payload)
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
    build_dataset(collection, 8, root / "ds", AttackSpec(8, True, Payload.synthetic(8, seed=1)),
                  train_zoos=["zoo0"])
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
        assert json.loads(path.read_bytes())["representation"] == REPRESENTATION
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
        return DatasetManifest("mc", 8, None, (16, 16), samples)

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
        img = render(flatten(model), 100)
        assert img.shape == (100, 100)

    def test_shape_mismatch_on_load(self, tmp_path, small_collection):
        build_dataset(small_collection, 16, tmp_path / "ds",
                      AttackSpec(8, True, Payload.synthetic(8, seed=1)))
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


def two_pass_dataset(benign, size, out_dir, lsb, payload, train_zoos):
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
                "source_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            })
            out = out_dir / "attacked" / zoo.zoo_id / path.name
            save_model(attacked, out)
            paths.append(out)
        attacked_zoos.append(ModelZoo(zoo.zoo_id, paths))
    attacked = ModelCollection("attacked", attacked_zoos)
    manifest = DatasetManifest(benign.mc_id, lsb, payload.sha256(), (size, size), [],
                               collection_digest(benign, attacked))
    for zoo, attacked_zoo in zip(benign.zoos, attacked.zoos):
        (out_dir / "images" / zoo.zoo_id).mkdir(parents=True)
        for paths, label, tag in ((zoo.model_paths, 0, "benign"),
                                  (attacked_zoo.model_paths, 1, "attacked")):
            for path in paths:
                rel = f"images/{zoo.zoo_id}/{path.stem}.{tag}.pgm"
                img = render(flatten(load_model(path)), size)
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
        build_dataset(collection, 12, tmp_path / "one", AttackSpec(lsb, True, payload),
                      train_zoos=["zoo1"])
        two_pass_dataset(collection, 12, tmp_path / "two", lsb, payload, ["zoo1"])
        one, two = tree(tmp_path / "one"), tree(tmp_path / "two")
        assert len(one) == 1 + 2 * 6 + 6  # manifest, images, attacked models
        assert one == two

    def test_never_parses_or_flattens(self, tmp_path, monkeypatch):
        collection = synth_collection(tmp_path / "mc", n_zoos=1, n_models=2, n_params=50, seed=9)

        def whole_model(*args, **kwargs):
            raise AssertionError("build-dataset held a whole model")

        for module in (weights_io, dataset):
            for name in ("parse_model", "flatten", "load_model"):
                monkeypatch.setattr(module, name, whole_model, raising=module is weights_io)
        manifest = build_dataset(collection, 12, tmp_path / "ds",
                                 AttackSpec(8, True, Payload.synthetic(5, seed=3)))
        assert len(manifest.samples) == 4

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

    def test_spaced_model_read_in_two_streamed_passes(self, tmp_path, small_collection,
                                                      monkeypatch):
        """A model whose header is not the one this toolkit writes is still
        streamed twice: the file once to hash it, its words once to write
        the copy."""
        collection = spaced_collection(small_collection, tmp_path / "spaced")
        streamed = []  # (inode, bytes) per os.preadv
        real_preadv = os.preadv

        def counting_preadv(fd, buffers, offset, *args):
            got = real_preadv(fd, buffers, offset, *args)
            streamed.append((os.fstat(fd).st_ino, got))
            return got

        monkeypatch.setattr(os, "preadv", counting_preadv)
        build_dataset(collection, 12, tmp_path / "ds", AttackSpec(8, True, Payload.synthetic(5, 3)))
        monkeypatch.undo()
        want = {}
        for path in (p for zoo in collection.zoos for p in zoo.model_paths):
            with open_words(path) as words:
                want[path.stat().st_ino] = path.stat().st_size + words.n * words.dtype.word_bytes
        got = dict.fromkeys(want, 0)
        for inode, nbytes in streamed:
            got[inode] += nbytes
        assert got == want


@pytest.mark.parametrize("layout", ["canonical", "spaced", "scrambled", "raw"])
def test_copy_records_its_source_files_sha256(tmp_path, layout):
    """A container copy from embed (plain and --fill) and from build-dataset
    records as source_sha256 the sha256 of its source file's bytes, as
    sha256sum gives it, whatever the source's layout."""
    rng = np.random.default_rng(5)
    tensors = [WeightTensor(name, DType.F32, (size,), rng.integers(0, 2**32, size, dtype=np.uint64))
               for name, size in (("w", 300), ("b", 40))]
    mc = tmp_path / "mc"
    source = mc / "zoo0" / ("model000.f32" if layout == "raw" else "model000.safetensors")
    source.parent.mkdir(parents=True)
    source.write_bytes(layout_bytes(tensors, layout, {"origin": "test"}))
    copies = [tmp_path / "plain.safetensors", tmp_path / "fill.safetensors"]
    for copy, flags in zip(copies, ([], ["--fill"])):
        assert main(["embed", "--in", str(source), "--lsb", "8", *flags,
                     "--synthetic-payload", "16,2", "--out", str(copy)]) == 0
    if layout != "raw":  # build-dataset's copy of a raw file is raw, with no metadata
        assert main(["build-dataset", "--mc", str(mc), "--lsb", "8", "--synthetic-payload",
                     "16,2", "--size", "12", "--out", str(tmp_path / "ds")]) == 0
        copies.append(tmp_path / "ds" / "attacked" / "zoo0" / source.name)
    for copy in copies:
        with open_words(copy) as words:
            assert words.metadata["source_sha256"] == hashlib.sha256(source.read_bytes()).hexdigest()


def reference_fill(words, word_bits, lsb, bits):
    """The fill attack straight from its definition: word i's low field holds
    effective-stream bits i*lsb .. i*lsb + lsb - 1, most significant first."""
    n = len(words)
    stream = effective_fill_payload(bits, n, lsb).reshape(n, lsb).astype(np.uint64)
    fields = (stream << np.arange(lsb, dtype=np.uint64)[::-1]).sum(axis=1)
    keep = ((1 << word_bits) - 1) ^ ((1 << lsb) - 1)
    return ((words.astype(np.uint64) & keep) | fields).astype(words.dtype)


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
    """FileWords.save through LsbWords.rewrite writes, chunk by chunk, the bytes
    of attacking the whole flattened model and saving it; for a fill attack its words render, at
    any size, the image the attacked model renders, and build_dataset writes,
    hashes and renders the same."""
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
            "source_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        })
        want = write_container(expected)

    spec = AttackSpec(lsb, fill, payload)
    with open_words(path) as source:
        words = spec.words(source)
        written = source.save(root / f"out{suffix}", words.rewrite, spec.provenance())
        assert written == hashlib.sha256(want).hexdigest()
        assert (root / f"out{suffix}").read_bytes() == want
        assert path.read_bytes() == data  # the cover bytes are never written to
        if not fill:
            return
        flat_attacked = WeightTensor("", dtype, (len(attacked),), attacked)
        idx = np.unique(rng.integers(0, len(attacked), size=15))
        assert np.array_equal(words.take(idx), attacked[idx])
    if dtype is DType.F32:
        side = math.isqrt(len(cover) - 1) + 1  # the fourpart image is 2*side square
        size = draws.draw(st.integers(1, 2 * side + 3), label="size")
        flat = flatten(model)
        image = render(spec.words(flat), size)
        assert np.array_equal(image, render(lsb_attack_fill(flat, lsb, payload), size))
        assert np.array_equal(image, render(flat_attacked, size))
        out = root / "ds"
        manifest = build_dataset(one_model_collection(path), size, out, spec)
        assert (out / "attacked" / "zoo0" / path.name).read_bytes() == want
        file_digests = hashlib.sha256(data).digest() + hashlib.sha256(want).digest()
        assert manifest.source_sha256 == hashlib.sha256(file_digests).hexdigest()
        images = out / "images" / "zoo0"
        assert np.array_equal(read_pgm(images / f"{path.stem}.attacked.pgm"), image)
        assert np.array_equal(read_pgm(images / f"{path.stem}.benign.pgm"),
                              render(WeightTensor("", dtype, (len(cover),), cover), size))


@pytest.mark.parametrize("offset", [0, 1, CHUNK_WORDS - 5])
def test_fill_rewrite_period_straddles_chunks(offset):
    """A period (24 words) that does not divide the chunk size, applied to a run
    starting at any flat index, equals the closed form at those indices."""
    rng = np.random.default_rng(offset)
    n = 3 * CHUNK_WORDS + 7
    cover = WeightTensor("", DType.F32, (n,), rng.integers(0, 2**32, n, dtype=np.uint64))
    words = LsbWords(cover, 5, Payload.synthetic(3, 1), fill=True)
    assert len(words.fields) == 24
    run = cover.bits[offset : offset + CHUNK_WORDS + 11]
    assert np.array_equal(words.rewrite(run, offset, out=np.empty_like(run)),
                          words.take(np.arange(offset, offset + len(run))))
    assert np.array_equal(lsb_attack_fill(cover, 5, Payload.synthetic(3, 1)).bits,
                          reference_fill(cover.bits, 32, 5, Payload.synthetic(3, 1).bits))


def one_model_collection(path):
    return ModelCollection("mc", [ModelZoo("zoo0", [path])])


def test_model_pass_holds_one_copy_of_the_model(tmp_path):
    """build_dataset on one 1M-param model (attack, write, hash, render)
    peaks under 1.5x the model file's size in traced allocations."""
    path = tmp_path / "m.safetensors"
    save_model(synth_model(1_000_000, np.random.default_rng(4)), path)
    spec = AttackSpec(8, True, Payload.synthetic(64, 7))
    collection = one_model_collection(path)
    tracemalloc.start()
    try:
        build_dataset(collection, 100, tmp_path / "out", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 1.5 * size, peak / size


@pytest.mark.parametrize("layout", ["container", "scrambled", "raw"])
def test_model_pass_streams_the_model(tmp_path, layout):
    """build_dataset on one 1M-param model (hash, attack, write, and two
    renders at size 24) holds one chunk of words and the render's taps, never
    the model: under 0.1x the file in traced allocations, whatever the layout."""
    model = synth_model(1_000_000, np.random.default_rng(4))
    path = tmp_path / ("m.f32" if layout == "raw" else "m.safetensors")
    path.write_bytes(layout_bytes(model.tensors, layout, {"origin": "test"}))
    spec = AttackSpec(8, True, Payload.synthetic(64, 7))
    collection = one_model_collection(path)
    tracemalloc.start()
    try:
        build_dataset(collection, 24, tmp_path / "out", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.1 * size, peak / size


def test_build_dataset_streams_a_model_per_worker(tmp_path, monkeypatch):
    """Four 1M-param models on four workers: each worker holds about one
    chunk of words, never a model. The build peaks under 1.5 chunks per
    worker in traced allocations: 1.19 MB, 4.5 chunks or 0.30x of one
    model's file, on a 2-core Linux machine."""
    workers = 4
    monkeypatch.setattr(net, "_usable_cpus", lambda: workers)
    collection = synth_collection(tmp_path / "mc", n_zoos=1, n_models=4,
                                  n_params=1_000_000, seed=4)
    spec = AttackSpec(8, True, Payload.synthetic(64, 7))
    tracemalloc.start()
    try:
        build_dataset(collection, 24, tmp_path / "out", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = CHUNK_WORDS * DType.F32.word_bytes
    assert peak < workers * 1.5 * chunk_bytes, peak / chunk_bytes


def test_bytes_do_not_depend_on_the_workers(tmp_path, monkeypatch):
    """Six models (2 zoos x 3) on 1 to 4 workers: windows of 2 and 3 span the
    zoos, the last window of 4 is partial, and every file written is the same."""
    collection = synth_collection(tmp_path / "mc", n_zoos=2, n_models=3, n_params=500, seed=9)
    spec = AttackSpec(8, True, Payload.synthetic(16, 2))
    trees = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(net, "_usable_cpus", lambda workers=workers: workers)
        build_dataset(collection, 12, tmp_path / f"ds{workers}", spec, train_zoos=["zoo0"])
        trees.append(tree(tmp_path / f"ds{workers}"))
    assert len(trees[0]) == 1 + 2 * 6 + 6  # manifest, images, attacked models
    assert all(other == trees[0] for other in trees[1:])


@pytest.mark.parametrize("stage", ["open", "write", "mixed"])
def test_first_failing_model_is_named(tmp_path, monkeypatch, stage):
    """Two malformed models in one window of three: the error names the
    earlier, as a model-by-model build would, after the model before them is
    written. They fail as they are opened (on this thread), as they are
    hashed (on the workers), or the earlier as it is hashed and the later as
    it is opened."""
    monkeypatch.setattr(net, "_usable_cpus", lambda: 3)
    collection = synth_collection(tmp_path / "mc", n_zoos=1, n_models=3, n_params=500, seed=9)
    first, second = collection.zoos[0].model_paths[1:]
    if stage in ("open", "mixed"):
        second.write_bytes(b"\xff" * 16)
    if stage == "open":
        first.write_bytes(bytes(4))
    else:
        # truncated once rendered: model001 after render 4, model002 after render 6
        victims = {4: [first]} if stage == "mixed" else {6: [first, second]}
        renders, real_render = [], dataset.render

        def truncating(source, size):
            image = real_render(source, size)
            renders.append(source)
            for path in victims.get(len(renders), []):
                os.truncate(path, path.stat().st_size - 40)
            return image

        monkeypatch.setattr(dataset, "render", truncating)
    out = tmp_path / "ds"
    with pytest.raises(FormatError) as failed:
        build_dataset(collection, 12, out, AttackSpec(8, True, Payload.synthetic(16, 2)))
    assert str(failed.value).startswith(f"{first}: ")
    assert sorted(p.name for p in (out / "attacked" / "zoo0").iterdir()) == ["model000.safetensors"]
    assert sorted(p.name for p in (out / "images" / "zoo0").iterdir()) == [
        "model000.attacked.pgm", "model000.benign.pgm"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("change", ["rewritten", "truncated"])
def test_source_changed_between_passes_fails_closed(tmp_path, monkeypatch, capsys, change):
    """A model file changed after it was hashed and before its attacked copy
    is written makes build-dataset exit 3 and write no manifest."""
    synth_collection(tmp_path / "mc", n_zoos=1, n_models=2, n_params=500, seed=9)
    victim = tmp_path / "mc" / "zoo0" / "model001.safetensors"
    os.utime(victim, ns=(0, 0))  # an old file, so that changing it now moves its mtime
    changed, real_sha256 = [], weights_io.FileWords.sha256

    def changing(words):
        digest = real_sha256(words)
        if not changed and os.path.samestat(os.fstat(words._fd), victim.stat()):
            changed.append(victim)  # hashed, its attacked copy not yet written
            if change == "truncated":
                os.truncate(victim, victim.stat().st_size - 40)
            else:
                with open(victim, "r+b") as fh:
                    fh.seek(-40, os.SEEK_END)
                    fh.write(bytes(40))
        return digest

    monkeypatch.setattr(weights_io.FileWords, "sha256", changing)
    out = tmp_path / "ds"
    capsys.readouterr()
    assert main(["build-dataset", "--mc", str(tmp_path / "mc"), "--lsb", "8",
                 "--synthetic-payload", "16,2", "--size", "12", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error[data]: {victim}: ")
    assert changed == [victim]
    assert not (out / "manifest.json").exists()
