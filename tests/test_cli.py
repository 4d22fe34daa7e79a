import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_preads, layout_bytes, random_tensors, scrambled_container, unflatten
from helpers import effective_fill_payload, write_raw
import weightsteg
from weightsteg import cli, dataset, detect, net, pipeline, weights_io
from weightsteg.cli import main
from weightsteg.dataset import load_dataset, synth_collection
from weightsteg.detect import build_detector, label_embeddings, load_detector, save_detector
from weightsteg.errors import FormatError
from weightsteg.imagerep import grayscale_fourpart, normalize, read_pgm, render, resize, write_pgm
from weightsteg.pipeline import ExperimentConfig, run_detection_run, select_train_pairs, load_flat_models
from weightsteg.net import ConvBlock, ConvNetConfig, TrainConfig, init_params
from weightsteg.steg import AttackSpec, Payload, extract_lsb, lsb_attack
from weightsteg.weights_io import (
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    load_model,
    open_words,
    read_container,
    write_container,
)


@pytest.fixture
def mc_dir(tmp_path):
    synth_collection(tmp_path / "mc", n_zoos=2, n_models=3, n_params=200, seed=4)
    return tmp_path / "mc"


def run(*argv):
    return main([str(a) for a in argv])


def run_with_timeout(*argv, timeout=120):
    """Run the CLI in a child process, which a hang cannot outlive: a read
    that blocks raises subprocess.TimeoutExpired instead."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "weightsteg.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


def feed_fifo(fifo, data):
    """A thread that writes data into fifo once a reader opens it."""
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


def assert_flag_refused(capsys, flag, *argv):
    """The parser refuses the command line's flag, a removed one: exit 2."""
    with pytest.raises(SystemExit) as refused:
        run(*argv)
    assert refused.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def forbid_whole_reads(monkeypatch, command):
    """Make load_model and flatten fail, in weights_io and as
    names in the package and its other modules, which import none of them."""
    def no_full_read(*args, **kwargs):
        raise AssertionError(f"{command} read a whole model")

    modules = [weightsteg] + [importlib.import_module(f"weightsteg.{info.name}")
                              for info in pkgutil.iter_modules(weightsteg.__path__)]
    for module in modules:
        for name in ("load_model", "flatten"):
            monkeypatch.setattr(module, name, no_full_read, raising=module is weights_io)


class TestEmbedExtract:
    def test_roundtrip_via_files(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        out = tmp_path / "att.safetensors"
        assert run("embed", "--in", model, "--lsb", 8, "--fill",
                   "--synthetic-payload", "32,5", "--out", out) == 0
        flat = flatten(load_model(out))
        recovered = extract_lsb(flat, 8, 32 * 8)
        assert Payload.synthetic(32, 5).bits.tolist() == recovered.bits[: 32 * 8].tolist()

        back = tmp_path / "p.bin"
        assert run("extract", "--in", out, "--lsb", 8, "--bits", 32 * 8, "--out", back) == 0
        assert back.read_bytes() == Payload.synthetic(32, 5).to_bytes()

    def test_non_fill_requires_capacity(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        # 200 weights * 1 bit < 8192 payload bits
        code = run("embed", "--in", model, "--lsb", 1,
                   "--synthetic-payload", "1024,5", "--out", tmp_path / "x.safetensors")
        assert code == 4

    def test_lsb_zero_is_usage_error(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        assert run("embed", "--in", model, "--lsb", 0, "--fill",
                   "--synthetic-payload", "8,1", "--out", tmp_path / "x.safetensors") == 2
        assert not (tmp_path / "x.safetensors").exists()

    def test_mantissa_guard_and_override(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        args = ["embed", "--in", model, "--lsb", 32, "--fill",
                "--synthetic-payload", "8,1", "--out", tmp_path / "x.safetensors"]
        assert run(*args) == 2
        assert run(*args, "--allow-exponent") == 0

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("embed", "--in", tmp_path / "nope.safetensors", "--lsb", 8, "--fill",
                   "--synthetic-payload", "8,1", "--out", tmp_path / "x.safetensors") == 3

    def test_payload_file_flag(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        payload_path = tmp_path / "p.bin"
        payload_path.write_bytes(bytes(range(48)))
        out = tmp_path / "att.safetensors"
        assert run("embed", "--in", model, "--lsb", 8, "--fill",
                   "--payload", payload_path, "--out", out) == 0
        back = tmp_path / "back.bin"
        assert run("extract", "--in", out, "--lsb", 8, "--bits", 48 * 8, "--out", back) == 0
        assert back.read_bytes() == payload_path.read_bytes()

    def test_empty_plain_payload_copies_the_words(self, tmp_path, mc_dir, capsys):
        """A plain attack with an empty payload writes no field: the copy holds
        the cover's words and records the empty payload, and extracting no
        bits from it gives an empty file."""
        model = mc_dir / "zoo0" / "model000.safetensors"
        payload_path = tmp_path / "empty.bin"
        payload_path.write_bytes(b"")
        out = tmp_path / "att.safetensors"
        assert run("embed", "--in", model, "--lsb", 8, "--payload", payload_path,
                   "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert np.array_equal(flatten(load_model(out)).bits, flatten(load_model(model)).bits)
        meta = load_model(out).metadata
        assert (meta["attack"], meta["payload_sha256"]) == ("lsb", hashlib.sha256(b"").hexdigest())
        back = tmp_path / "back.bin"
        assert run("extract", "--in", out, "--lsb", 8, "--bits", 0, "--out", back) == 0
        assert back.read_bytes() == b""

    def test_log_file_sidecar(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        out_a, out_b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        assert run("--log-file", tmp_path / "run.log", "embed", "--in", model,
                   "--lsb", 8, "--fill", "--synthetic-payload", "8,1", "--out", out_a) == 0
        assert run("embed", "--in", model, "--lsb", 8, "--fill",
                   "--synthetic-payload", "8,1", "--out", out_b) == 0
        # logging never leaks into the artifact
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_f16_raw_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        raw = tmp_path / "weights.f16"
        raw.write_bytes(rng.integers(0, 256, size=128, dtype=np.uint8).tobytes())
        out = tmp_path / "att.f16"
        assert run("embed", "--in", raw, "--lsb", 10, "--fill",
                   "--synthetic-payload", "8,3", "--out", out) == 0
        back = tmp_path / "p.bin"
        assert run("extract", "--in", out, "--lsb", 10, "--bits", 64, "--out", back) == 0
        assert back.read_bytes() == Payload.synthetic(8, 3).to_bytes()
        # f16 mantissa is 10 bits; 11 needs the override
        assert run("embed", "--in", raw, "--lsb", 11, "--fill",
                   "--synthetic-payload", "8,3", "--out", out) == 2
        assert run("embed", "--in", raw, "--lsb", 11, "--fill",
                   "--synthetic-payload", "8,3", "--out", out, "--allow-exponent") == 0

    def test_provenance_metadata(self, tmp_path, mc_dir):
        model = mc_dir / "zoo0" / "model000.safetensors"
        out = tmp_path / "att.safetensors"
        run("embed", "--in", model, "--lsb", 8, "--fill",
            "--synthetic-payload", "32,5", "--out", out)
        meta = load_model(out).metadata
        assert meta["attack"] == "lsb-fill"
        assert meta["payload_sha256"] == Payload.synthetic(32, 5).sha256()
        assert len(meta["source_sha256"]) == 64

    @pytest.mark.parametrize("fill", [True, False])
    def test_output_equals_library_attack(self, tmp_path, mc_dir, fill):
        model_path = mc_dir / "zoo0" / "model001.safetensors"
        out = tmp_path / "att.safetensors"
        assert run("embed", "--in", model_path, "--lsb", 5, *(["--fill"] if fill else []),
                   "--synthetic-payload", "32,5", "--out", out) == 0
        model = load_model(model_path)
        payload = Payload.synthetic(32, 5)
        spec = AttackSpec(5, fill, payload)
        library = tmp_path / "library.safetensors"
        with open_words(model_path) as source:
            source.save(library, spec.words(source).rewrite, spec.provenance())
        assert load_model(out).metadata == load_model(library).metadata
        # the bytes the inline embed composition wrote
        flat = flatten(model)
        bits = effective_fill_payload(payload.bits, flat.n, 5) if fill else payload.bits
        expected = unflatten(model, lsb_attack(flat, 5, Payload(bits)).bits)
        expected.metadata.update({
            "attack": "lsb-fill" if fill else "lsb",
            "lsb": "5",
            "payload_sha256": payload.sha256(),
            "source_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        })
        assert out.read_bytes() == write_container(expected)

    def test_output_onto_input_is_usage_error(self, tmp_path, mc_dir):
        """The copy is written while the input is read, so it cannot replace it."""
        model = tmp_path / "m.safetensors"
        model.write_bytes((mc_dir / "zoo0" / "model000.safetensors").read_bytes())
        before = model.read_bytes()
        assert run("embed", "--in", model, "--out", model, "--lsb", 8, "--fill",
                   "--synthetic-payload", "8,1") == 2
        assert model.read_bytes() == before

    @pytest.mark.parametrize("fill", [True, False])
    @pytest.mark.parametrize("suffix", [".safetensors", ".f32"])
    def test_fifo_input_writes_the_file_bytes(self, tmp_path, mc_dir, suffix, fill):
        model = tmp_path / f"m{suffix}"
        model.write_bytes(layout_bytes(load_model(mc_dir / "zoo0" / "model000.safetensors").tensors,
                                       "raw" if suffix == ".f32" else "container"))
        fifo = tmp_path / f"pipe{suffix}"
        os.mkfifo(fifo)
        flags = ["--lsb", 5, *(["--fill"] if fill else []), "--synthetic-payload", "32,5"]
        from_file, from_pipe = tmp_path / f"file.out{suffix}", tmp_path / f"pipe.out{suffix}"
        assert run("embed", "--in", model, "--out", from_file, *flags) == 0
        writer = feed_fifo(fifo, model.read_bytes())
        proc = run_with_timeout("embed", "--in", fifo, "--out", from_pipe, *flags)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert from_pipe.read_bytes() == from_file.read_bytes()


class TestExtractReads:
    """extract reads through open_words: only the words that carry the bits."""

    LSB, BITS = 8, 8 * 1_010 - 3  # 1,010 words, the last one short, across all three tensors

    def write_model(self, path, layout):
        tensors = random_tensors(DType.F32, [(1_000,), (3,), (250_000,)])
        path.write_bytes(layout_bytes(tensors, layout))
        return extract_lsb(flatten(load_model(path)), self.LSB, self.BITS).to_bytes()

    @pytest.mark.parametrize("layout", ["container", "raw", "scrambled"])
    def test_reads_payload_words(self, tmp_path, monkeypatch, layout):
        path = tmp_path / ("m.f32" if layout == "raw" else "m.safetensors")
        want = self.write_model(path, layout)
        reads = count_preads(monkeypatch)
        forbid_whole_reads(monkeypatch, "extract")
        out = tmp_path / "p.bin"
        assert run("extract", "--in", path, "--lsb", self.LSB, "--bits", self.BITS,
                   "--out", out) == 0
        assert out.read_bytes() == want
        assert 0 < sum(reads) < path.stat().st_size // 10

    def test_fifo_is_read_whole(self, tmp_path, monkeypatch):
        source = tmp_path / "m.safetensors"
        want = self.write_model(source, "container")
        fifo = tmp_path / "pipe.safetensors"
        os.mkfifo(fifo)
        sources = []

        @contextlib.contextmanager
        def recording(path):
            with open_words(path) as words:
                sources.append(words.sha256())
                yield words

        monkeypatch.setattr(cli, "open_words", recording)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(source.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = tmp_path / "p.bin"
        assert run("extract", "--in", fifo, "--lsb", self.LSB, "--bits", self.BITS,
                   "--out", out) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert sources == [hashlib.sha256(source.read_bytes()).hexdigest()]  # read whole
        assert out.read_bytes() == want


class TestImagify:
    def test_matches_library(self, tmp_path, mc_dir):
        model = mc_dir / "zoo1" / "model002.safetensors"
        out = tmp_path / "img.pgm"
        assert run("imagify", "--in", model, "--size", 24, "--out", out) == 0
        expected = resize(grayscale_fourpart(flatten(load_model(model))), 24, 24)
        assert np.array_equal(read_pgm(out), expected)

    def test_native_size(self, tmp_path, mc_dir):
        model = mc_dir / "zoo1" / "model000.safetensors"
        out = tmp_path / "img.pgm"
        assert run("imagify", "--in", model, "--out", out) == 0
        assert read_pgm(out).shape == (30, 30)  # 2 * ceil(sqrt(200))

    def test_unknown_rep(self, tmp_path, mc_dir, capsys):
        """imagify has one image and no --rep flag: any --rep is a usage error
        (exit 2), found before the file is opened."""
        for model in (mc_dir / "zoo1" / "model000.safetensors", tmp_path / "missing.safetensors"):
            assert_flag_refused(capsys, "--rep", "imagify", "--in", model,
                                "--rep", "grayscale-fourpart", "--out", tmp_path / "x.pgm")
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("layout", ["container", "raw", "scrambled"])
    def test_native_reads_through_open_words(self, tmp_path, monkeypatch, layout):
        tensors = random_tensors(DType.F32, [(1_000,), (3,), (1_500,)])
        path = tmp_path / ("m.f32" if layout == "raw" else "m.safetensors")
        path.write_bytes(layout_bytes(tensors, layout))
        want = grayscale_fourpart(flatten(load_model(path)))
        forbid_whole_reads(monkeypatch, "imagify")
        out = tmp_path / "img.pgm"
        assert run("imagify", "--in", path, "--out", out) == 0
        assert np.array_equal(read_pgm(out), want)

    @pytest.mark.parametrize("layout", ["container", "raw", "scrambled"])
    def test_size_reads_tapped_words(self, tmp_path, monkeypatch, layout):
        tensors = random_tensors(DType.F32, [(100_000,), (3,), (150_000,)])
        path = tmp_path / ("m.f32" if layout == "raw" else "m.safetensors")
        path.write_bytes(layout_bytes(tensors, layout))
        want = tmp_path / "want.pgm"
        write_pgm(render(flatten(load_model(path)), 24), want)
        reads = count_preads(monkeypatch)
        forbid_whole_reads(monkeypatch, "imagify --size")
        out = tmp_path / "img.pgm"
        assert run("imagify", "--in", path, "--size", 24, "--out", out) == 0
        assert out.read_bytes() == want.read_bytes()
        assert 0 < sum(reads) < path.stat().st_size // 10


class TestSynthMc:
    def test_deterministic(self, tmp_path):
        assert run("synth-mc", "--out", tmp_path / "a", "--zoos", 2, "--models", 2,
                   "--params", 64, "--seed", 9) == 0
        assert run("synth-mc", "--out", tmp_path / "b", "--zoos", 2, "--models", 2,
                   "--params", 64, "--seed", 9) == 0
        for rel in ("zoo0/model000.safetensors", "zoo1/model001.safetensors"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_mc_id_flag_refused(self, tmp_path, capsys, monkeypatch):
        """A collection is named after its directory, so synth-mc has no --mc-id
        flag: an old command line that names one exits 2 before it writes a file."""
        monkeypatch.setattr(cli, "synth_collection", lambda *a: pytest.fail("wrote a collection"))
        assert_flag_refused(capsys, "--mc-id", "synth-mc", "--out", tmp_path / "mc",
                            "--mc-id", "x")
        assert not (tmp_path / "mc").exists()


def tiny_detector_bytes():
    """An untrained 8x8-input detector, saved."""
    config = ConvNetConfig(input_size=8, blocks=(ConvBlock(2, 3, pool=True),), embedding_dim=4)
    images = np.random.default_rng(0).random((2, 8, 8))
    return save_detector(build_detector(config, init_params(config), images, [0, 1]))


def _drop_tensor(name):
    def edit(model):
        model.tensors = [t for t in model.tensors if t.name != name]
    return edit


def _drop_last_row(name):
    def edit(model):
        model.tensors = [
            WeightTensor(t.name, t.dtype, (t.shape[0] - 1, *t.shape[1:]),
                         t.bits[: t.n // t.shape[0] * (t.shape[0] - 1)])
            if t.name == name else t
            for t in model.tensors
        ]
    return edit


def _set_config(key, value):
    def edit(model):
        doc = json.loads(model.metadata["config"])
        doc[key] = value
        model.metadata["config"] = json.dumps(doc, sort_keys=True)
    return edit


def _set_first_value(name, value):
    def edit(model):
        model.tensors = [
            t.with_bits(np.concatenate([np.float32([value]).view(t.bits.dtype), t.bits[1:]]))
            if t.name == name else t
            for t in model.tensors
        ]
    return edit


def _next_float_up(name):
    """The first value of the tensor one ulp further from zero."""
    def edit(model):
        model.tensors = [
            t.with_bits(np.concatenate([t.bits[:1] + 1, t.bits[1:]])) if t.name == name else t
            for t in model.tensors
        ]
    return edit


def _fill(name, value):
    def edit(model):
        model.tensors = [
            t.with_bits(np.full(t.n, value, dtype=np.float32).view(t.bits.dtype))
            if t.name == name else t
            for t in model.tensors
        ]
    return edit


def _as_f16(model):
    """Every tensor re-encoded as F16, the centroids the float16 class means,
    so only the dtype is off: the net would run in float16."""
    half = {t.name: t.values().reshape(t.shape).astype(np.float16) for t in model.tensors}
    for label, name in enumerate(("centroid.benign", "centroid.malicious")):
        half[name] = half["train.embeddings"][half["train.labels"] == label].mean(axis=0)
    model.tensors = [
        WeightTensor(t.name, DType.F16, t.shape, half[t.name].view(np.uint16).reshape(-1))
        for t in model.tensors
    ]


def _set_meta(key, value):
    def edit(model):
        if value is None:
            del model.metadata[key]
        else:
            model.metadata[key] = value
    return edit


class TestScanBadDetector:
    """A detector file that cannot be decoded is a data error (exit 3), not a crash."""

    @pytest.mark.parametrize(
        "edit",
        [
            _drop_tensor("train.embeddings"),
            _drop_tensor("centroid.benign"),
            _set_meta("config", "{not json"),
            _set_meta("config", None),
            _set_meta("config", '{"input_size": 8}'),
            _set_meta("seed", "seven"),
            _set_meta("representation", "nope"),
            _set_meta("seed", None),
            _set_meta("strategy", None),
            _set_meta("trained_lsb", None),
            _set_meta("manifest_sha256", None),
            _set_meta("representation", None),
            _set_config("input_size", 16),
            _set_config("embedding_dim", 5),
            _set_config("l2_normalize", True),
            _set_config("init_scheme", "xavier"),
            _set_config("init_seed", 3),
            _set_config("sigmoid_head", "no"),
            _set_config("sigmoid_head", 1),
            _set_config("sigmoid_head", False),
            _set_config("input_size", 8.0),
            _set_config("input_size", "8"),
            _set_config("embedding_dim", 4.0),
            _set_config("blocks", [[2, 3, 1]]),
            _set_config("blocks", [[2.0, 3, True]]),
            _set_config("blocks", [[2, True, True]]),
            _drop_last_row("train.labels"),
            _set_first_value("train.labels", 0.5),
            _set_first_value("train.labels", 2.0),
            _fill("train.labels", 0.0),
            _drop_last_row("centroid.benign"),
            _next_float_up("centroid.benign"),
            _set_first_value("net.conv0.weight", np.nan),
            _set_first_value("net.embed.weight", np.inf),
            _set_meta("seed", " 1_000 "),
            _set_meta("trained_lsb", "-3"),
            _set_meta("trained_lsb", "33"),
            _set_meta("strategy", "bogus"),
            _set_meta("manifest_sha256", "xyz"),
            _set_meta("manifest_sha256", "AB" * 32),
            _as_f16,
        ],
        ids=["no-embeddings", "no-centroid", "config-not-json", "no-config",
             "config-incomplete", "seed-not-int", "unknown-representation",
             "no-seed", "no-strategy", "no-trained-lsb", "no-manifest-sha256",
             "no-representation",
             "config-input-size", "config-embedding-dim", "config-l2-normalize",
             "config-init-scheme", "config-init-seed", "config-sigmoid-string",
             "config-sigmoid-int", "config-sigmoid-false", "config-input-size-float",
             "config-input-size-string",
             "config-embedding-dim-float", "config-pool-int", "config-channels-float",
             "config-kernel-bool", "labels-short", "label-half", "label-two", "labels-all-zero",
             "centroid-short", "centroid-one-ulp-off", "nan-conv-weight", "inf-embed-weight",
             "seed-not-canonical", "trained-lsb-negative", "trained-lsb-33", "strategy-unknown",
             "manifest-sha256-short", "manifest-sha256-upper", "f16"],
    )
    def test_exit_3(self, tmp_path, mc_dir, capsys, edit):
        model = read_container(tiny_detector_bytes())
        edit(model)
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(write_container(model))
        assert run("scan", "--detector", det_path, "--model", mc_dir / "zoo0") == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and "Traceback" not in err


class TestScanBadK:
    @pytest.mark.parametrize("k", [0, 99])
    def test_exit_2_before_any_model_is_read(self, tmp_path, mc_dir, capsys, monkeypatch, k):
        """A knn --k outside [1, the detector's 2 training embeddings] is a
        usage error before scan opens a model file."""
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        monkeypatch.setattr(cli, "open_words", lambda path: pytest.fail(f"opened {path}"))
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", mc_dir / "zoo0",
                   "--mode", "knn", "--k", k) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[usage]: k must be in [1, 2], got {k}\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    synth_collection(root / "mc", n_zoos=1, n_models=1, n_params=200, seed=4)
    return tiny_detector_bytes(), root / "mc" / "zoo0" / "model000.safetensors", root / "det"


@st.composite
def detector_mutations(draw, data):
    """1-3 byte overwrites, three in four of them inside the container header;
    half the new bytes are JSON characters, so some headers still parse."""
    (header_len,) = struct.unpack("<Q", data[:8])
    mutated = bytearray(data)
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.e"{}[],: '))
    for _ in range(draw(st.integers(1, 3))):
        end = 8 + header_len if draw(st.integers(0, 3)) < 3 else len(data)
        mutated[draw(st.integers(0, end - 1))] = draw(byte)
    return bytes(mutated)


class TestScanMutatedDetector:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_fails_closed(self, fuzz_files, data):
        detector, model, det_path = fuzz_files
        mutated = data.draw(detector_mutations(detector))
        try:
            load_detector(mutated)
            loaded = True
        except FormatError:
            loaded = False
        det_path.write_bytes(mutated)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("scan", "--detector", det_path, "--model", model)
        if not loaded or code != 0:
            assert code == 3
            assert err.getvalue().startswith("error[data]:")
        assert "Traceback" not in err.getvalue()


class TestScanKeepsGoing:
    def test_bad_files_reported_and_skipped(self, tmp_path, mc_dir, capsys):
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        scan_dir = tmp_path / "scan"
        scan_dir.mkdir()
        good = (mc_dir / "zoo0" / "model000.safetensors").read_bytes()
        (scan_dir / "a_good.safetensors").write_bytes(good)
        (scan_dir / "b_truncated.safetensors").write_bytes(good[:-10])
        (scan_dir / "c_half.f16").write_bytes(bytes(64))
        (scan_dir / "d_good.f32").write_bytes(write_raw(flatten(load_model(mc_dir / "zoo1" / "model002.safetensors"))))
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", scan_dir) == 3
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            str(scan_dir / "a_good.safetensors"), str(scan_dir / "d_good.f32")
        ]
        assert all(len(line.split(",")) == 4 for line in lines)
        errors = captured.err.strip().splitlines()
        assert len(errors) == 2
        assert errors[0].startswith(f"error[data]: {scan_dir / 'b_truncated.safetensors'}: ")
        assert errors[1].startswith(f"error[data]: {scan_dir / 'c_half.f16'}: ")
        assert "Traceback" not in captured.err

    def test_directory_with_a_model_suffix_is_not_a_file(self, tmp_path, mc_dir, capsys):
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        scan_dir = tmp_path / "scan"
        (scan_dir / "z" / "odd.safetensors").mkdir(parents=True)
        (scan_dir / "z" / "odd.f32").mkdir()
        good = scan_dir / "z" / "odd.safetensors" / "inner.safetensors"
        good.write_bytes((mc_dir / "zoo0" / "model000.safetensors").read_bytes())
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", scan_dir) == 0
        captured = capsys.readouterr()
        assert [line.split(",")[0] for line in captured.out.splitlines()] == [str(good)]
        assert captured.err == ""

    def test_dangling_symlink_fails_closed(self, tmp_path, mc_dir, capsys):
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        scan_dir = tmp_path / "scan"
        scan_dir.mkdir()
        good = scan_dir / "a_good.safetensors"
        good.write_bytes((mc_dir / "zoo0" / "model000.safetensors").read_bytes())
        dangling = scan_dir / "b_gone.safetensors"
        dangling.symlink_to(tmp_path / "missing.safetensors")
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", scan_dir) == 3
        captured = capsys.readouterr()
        assert [line.split(",")[0] for line in captured.out.splitlines()] == [str(good)]
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error[data]: {dangling}: ")
        assert "Traceback" not in captured.err


    def test_blocks_print_the_per_file_lines(self, tmp_path, mc_dir, monkeypatch):
        """With more files than one block holds and unreadable ones among them,
        scan prints, interleaved as one stream, the lines a render, embed and
        print per file gives, and embeds each block's images in one forward."""
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        scan_dir = tmp_path / "scan"
        scan_dir.mkdir()
        good = [p.read_bytes() for p in sorted(mc_dir.rglob("*.safetensors"))]
        (scan_dir / "a.safetensors").write_bytes(good[0])
        (scan_dir / "b.safetensors").write_bytes(good[1][:-10])
        (scan_dir / "c.safetensors").write_bytes(good[2])
        (scan_dir / "d.safetensors").write_bytes(good[3])
        (scan_dir / "e.f16").write_bytes(bytes(64))
        (scan_dir / "f.safetensors").write_bytes(good[4])
        detector = load_detector(det_path.read_bytes())
        want = io.StringIO()
        for target in sorted(scan_dir.iterdir()):
            try:
                with open_words(target) as words:
                    image = normalize(render(words, detector.config.input_size))
            except (FormatError, OSError, ValueError) as exc:
                print(f"error[data]: {target}: {exc}", file=want)
                continue
            label, benign, malicious = label_embeddings(detector, [detector.embed(image)])[0]
            print(f"{target},{label},{benign!r},{malicious!r}", file=want)

        batches, real = [], detect.forward
        monkeypatch.setattr(detect, "forward", lambda *a: batches.append(len(a[2])) or real(*a))
        monkeypatch.setattr(cli, "SCAN_BLOCK", 2)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            assert run("scan", "--detector", det_path, "--model", scan_dir) == 3
        assert printed.getvalue() == want.getvalue()
        assert want.getvalue().count("error[data]") == 2
        assert batches == [1, 2, 1]


class TestWalksRefusePipes:
    """A pipe that a directory walk finds is refused, not opened: opening it
    would block until a writer came. Each command runs in a child process, so
    a hang fails the test."""

    def test_scan_reports_and_goes_on(self, tmp_path, mc_dir):
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        scan_dir = tmp_path / "scan"
        scan_dir.mkdir()
        good = scan_dir / "a_good.safetensors"
        good.write_bytes((mc_dir / "zoo0" / "model000.safetensors").read_bytes())
        os.mkfifo(scan_dir / "b_pipe.f32")
        proc = run_with_timeout("scan", "--detector", det_path, "--model", scan_dir)
        assert proc.returncode == 3
        assert [line.split(",")[0] for line in proc.stdout.splitlines()] == [str(good)]
        errors = proc.stderr.splitlines()
        assert len(errors) == 1
        assert errors[0] == f"error[data]: {scan_dir / 'b_pipe.f32'}: not a regular file"

    @pytest.mark.parametrize("command", ["build-dataset", "report"])
    def test_collection_fails_closed(self, tmp_path, mc_dir, command):
        pipe = mc_dir / "zoo1" / "model009.safetensors"
        os.mkfifo(pipe)
        argv = {
            "build-dataset": ["--lsb", 8, "--out", tmp_path / "ds"],
            "report": ["--lsb", 8, "--train-zoos", "zoo0", "--out-csv", tmp_path / "r.csv"],
        }[command]
        proc = run_with_timeout(command, "--mc", mc_dir, "--synthetic-payload", "16,2", *argv)
        assert proc.returncode == 3
        assert proc.stderr == f"error[data]: {pipe}: not a regular file\n"
        assert not (tmp_path / "ds").exists() and not (tmp_path / "r.csv").exists()


def scan_lines_by_full_read(detector_bytes, targets):
    """scan's verdict lines computed from a full read, parse and flatten of each file."""
    detector = load_detector(detector_bytes)
    lines = []
    for target in targets:
        flat = flatten(load_model(target))
        image = normalize(render(flat, detector.config.input_size))
        label, benign, malicious = label_embeddings(detector, [detector.embed(image)])[0]
        lines.append(f"{target},{label},{benign!r},{malicious!r}\n")
    return "".join(lines)


class TestScanReadsWords:
    """scan renders from open_words: the same verdicts as a full read, and a
    file that shrinks mid-scan is a data error for that file alone."""

    @pytest.fixture
    def zoo(self, tmp_path, mc_dir):
        zoo = tmp_path / "zoo"
        zoo.mkdir()
        for i, path in enumerate(sorted(mc_dir.rglob("*.safetensors"))):
            model = load_model(path)
            if i % 3 == 0:
                (zoo / f"m{i}.f32").write_bytes(write_raw(flatten(model)))
            elif i % 3 == 1:
                order = list(range(len(model.tensors)))[::-1]
                (zoo / f"m{i}.safetensors").write_bytes(scrambled_container(model.tensors, order))
            else:
                (zoo / f"m{i}.safetensors").write_bytes(path.read_bytes())
        return zoo

    @pytest.mark.parametrize("input_size", [8, 28])
    def test_stdout_equals_full_read(self, tmp_path, zoo, capsys, monkeypatch, input_size):
        config = ConvNetConfig(input_size=input_size, blocks=(ConvBlock(2, 3, pool=True),),
                               embedding_dim=4)
        images = np.random.default_rng(0).random((2, input_size, input_size))
        detector = save_detector(build_detector(config, init_params(config), images, [0, 1]))
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(detector)
        targets = sorted(zoo.iterdir())
        assert {t.suffix for t in targets} == {".f32", ".safetensors"}
        expected = scan_lines_by_full_read(detector, targets)

        forbid_whole_reads(monkeypatch, "scan")
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", zoo) == 0
        assert capsys.readouterr().out == expected

    def test_file_truncated_after_open(self, tmp_path, zoo, capsys, monkeypatch):
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        targets = sorted(zoo.iterdir())
        victim = targets[1]

        @contextlib.contextmanager
        def shrinking(path):
            with open_words(path) as words:
                if path == victim:
                    os.truncate(path, path.stat().st_size // 2)
                yield words

        monkeypatch.setattr(cli, "open_words", shrinking)
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", zoo) == 3
        captured = capsys.readouterr()
        assert [line.split(",")[0] for line in captured.out.splitlines()] == [
            str(t) for t in targets if t != victim
        ]
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error[data]: {victim}: ")
        assert "truncated while open" in errors[0]

    @pytest.mark.parametrize("suffix", [".safetensors", ".f32"])
    def test_fifo_is_read_whole(self, tmp_path, zoo, capsys, monkeypatch, suffix):
        det_path = tmp_path / "det.safetensors"
        det_path.write_bytes(tiny_detector_bytes())
        source = next(t for t in sorted(zoo.iterdir()) if t.suffix == suffix)
        fifo = tmp_path / f"pipe{suffix}"
        os.mkfifo(fifo)
        sources = []

        @contextlib.contextmanager
        def recording(path):
            with open_words(path) as words:
                sources.append(words.sha256())
                yield words

        monkeypatch.setattr(cli, "open_words", recording)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(source.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", fifo) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert sources == [hashlib.sha256(source.read_bytes()).hexdigest()]  # read whole
        expected = scan_lines_by_full_read(tiny_detector_bytes(), [source])
        assert capsys.readouterr().out == expected.replace(str(source), str(fifo))


class TestTrainManifestPaths:
    @pytest.mark.parametrize("escape", ["absolute", "parent"])
    def test_escaping_sample_path_exit_3(self, tmp_path, mc_dir, capsys, escape):
        ds = tmp_path / "ds"
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--size", 8, "--train-zoos", "zoo0", "--out", ds) == 0
        doc = json.loads((ds / "manifest.json").read_text())
        # a readable image of the right shape outside the dataset directory
        outside = tmp_path / "outside.pgm"
        outside.write_bytes((ds / doc["samples"][0]["path"]).read_bytes())
        doc["samples"][0]["path"] = str(outside) if escape == "absolute" else "../outside.pgm"
        (ds / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--dataset", ds, "--arch", "tiny", "--out", tmp_path / "d.safetensors") == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and "escapes the dataset directory" in err
        assert not (tmp_path / "d.safetensors").exists()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("small-dataset")
    synth_collection(root / "mc", n_zoos=2, n_models=2, n_params=200, seed=4)
    assert run("build-dataset", "--mc", root / "mc", "--lsb", 8, "--synthetic-payload", "16,2",
               "--size", 28, "--train-zoos", "zoo0", "--out", root / "ds") == 0
    return root / "ds"


def _set_field(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_sample_field(key, value):
    def edit(doc):
        doc["samples"][0][key] = value
    return edit


class TestTrainMistypedManifest:
    """A manifest field of the wrong type, or out of range, is a data error
    (exit 3) before training."""

    @pytest.mark.parametrize(
        "edit",
        [
            _set_field("mc_id", 7),
            _set_field("X", 8.5),
            _set_field("X", True),
            _set_field("X", None),
            _set_field("X", 0),
            _set_field("X", 33),
            _set_field("payload_sha256", 5),
            _set_field("payload_sha256", None),
            _set_field("source_sha256", ["ab"]),
            _set_field("representation", 5),
            _set_field("representation", "foo"),
            _set_field("shape", [8]),
            _set_field("shape", [8, 0]),
            _set_field("shape", [8.0, 8]),
            _set_sample_field("path", 1),
            _set_sample_field("path", None),
            _set_sample_field("zoo", 3),
            _set_sample_field("split", 1),
            _set_sample_field("label", 2),
            _set_sample_field("label", True),
            _set_sample_field("label", 1.0),
        ],
        ids=["mc_id-int", "X-float", "X-bool", "X-null", "X-zero", "X-above-32",
             "payload_sha256-int", "payload_sha256-null", "source_sha256-list",
             "representation-int", "representation-unknown", "shape-one", "shape-zero",
             "shape-float", "path-int", "path-null", "zoo-int", "split-int", "label-2",
             "label-bool", "label-float"],
    )
    def test_exit_3(self, tmp_path, small_dataset, capsys, edit):
        doc = json.loads((small_dataset / "manifest.json").read_text())
        edit(doc)
        manifest = small_dataset / f"{tmp_path.name}.json"
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        det = tmp_path / "d.safetensors"
        assert run("train", "--dataset", manifest, "--arch", "tiny", "--out", det) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: bad manifest:") and "Traceback" not in err
        assert not det.exists()


def _manifest_edits(n_samples):
    """One edit of a manifest document: a field's value or type, a sample's path
    or label, a sample dropped or repeated. Sample paths name an image of
    the other split, a missing or escaping path, a directory or a non-PGM."""
    value = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 40), st.floats(allow_nan=True),
        st.text(max_size=6), st.lists(st.integers(0, 40), max_size=3),
        st.just("train"), st.just("test"), st.just("zoo0"),
    )
    path = st.sampled_from([
        "images/zoo1/model000.attacked.pgm", "images/zoo0/model009.benign.pgm",
        "../images/zoo0/model000.benign.pgm", "/images/zoo0/model000.benign.pgm",
        "images", "", "manifest.json", "images/zoo0/./model001.benign.pgm",
    ])
    index = st.integers(0, n_samples - 1)
    top = st.sampled_from(["mc_id", "X", "payload_sha256", "source_sha256",
                           "representation", "shape", "samples", "extra"])
    field = st.sampled_from(["path", "zoo", "label", "split", "extra"])

    def set_top(key, v):
        return lambda doc: doc.__setitem__(key, v)

    def set_sample(i, key, v):
        return lambda doc: doc["samples"][i % len(doc["samples"])].__setitem__(key, v)

    def drop_top(key):
        return lambda doc: doc.pop(key, None)

    def drop_sample(i):
        return lambda doc: doc["samples"].pop(i % len(doc["samples"]))

    def repeat_sample(i):
        return lambda doc: doc["samples"].append(dict(doc["samples"][i % len(doc["samples"])]))

    return st.one_of(
        st.builds(set_top, top, value),
        st.builds(drop_top, top),
        st.builds(set_sample, index, field, value),
        st.builds(set_sample, index, st.just("path"), path),
        st.builds(set_sample, index, st.just("label"), st.sampled_from([0, 1])),
        st.builds(drop_sample, index),
        st.builds(repeat_sample, index),
    )


class TestTrainMutatedManifest:
    """train on any mutation of a valid manifest exits 0, 2 or 3, never with a traceback."""

    @settings(max_examples=25)
    @given(data=st.data())
    def test_fails_closed(self, small_dataset, data):
        doc = json.loads((small_dataset / "manifest.json").read_text())
        edits = st.lists(_manifest_edits(len(doc["samples"])), min_size=1, max_size=3)
        for edit in data.draw(edits):
            # an earlier edit may have taken away the samples this one changes
            with contextlib.suppress(AttributeError, KeyError, TypeError, ZeroDivisionError):
                edit(doc)
        manifest, det = small_dataset / "fuzz.json", small_dataset / "fuzz-det.safetensors"
        manifest.write_text(json.dumps(doc))
        det.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("train", "--dataset", manifest, "--arch", "tiny", "--strategy", "ES",
                       "--out", det)
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()
        if code == 0:
            assert load_detector(det.read_bytes()).strategy == "ES"
        else:
            assert err.getvalue().startswith("error[") and not det.exists()


# Each is refused by TrainConfig's checks; a command given one exits 2 before it reads a file.
BAD_TRAINING_FLAGS = [("--lr", 0), ("--lr", "nan"), ("--margin", -1),
                      ("--ub-lo", 2, "--ub-hi", 1), ("--batch-size", 0)]
BAD_TRAINING_IDS = ["lr-zero", "lr-nan", "margin-negative", "ub-band-reversed", "batch-zero"]


class TestTrainingFlagsCheckedFirst:
    @pytest.mark.parametrize("flags", BAD_TRAINING_FLAGS, ids=BAD_TRAINING_IDS)
    def test_report_opens_no_file(self, tmp_path, mc_dir, capsys, monkeypatch, flags):
        reads = []
        read_bytes = type(mc_dir).read_bytes
        monkeypatch.setattr(type(mc_dir), "read_bytes",
                            lambda path: reads.append(path) or read_bytes(path))
        monkeypatch.setattr(pipeline, "open_words", lambda path: pytest.fail(f"opened {path}"))
        csv_path = tmp_path / "r.csv"
        assert run("report", "--mc", mc_dir, "--lsb", 8, "--payload", tmp_path / "missing.bin",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, *flags,
                   "--out-csv", csv_path) == 2
        assert reads == [] and not csv_path.exists()
        assert capsys.readouterr().err.startswith("error[usage]:")

    @pytest.mark.parametrize("flags", BAD_TRAINING_FLAGS, ids=BAD_TRAINING_IDS)
    def test_train_missing_dataset(self, tmp_path, capsys, flags):
        assert run("train", "--dataset", tmp_path / "missing", *flags,
                   "--out", tmp_path / "d.safetensors") == 2
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_train_unknown_arch_reads_no_file(self, tmp_path, capsys, monkeypatch):
        """The architecture name needs no file, so a bad --arch is a usage error
        before the dataset is opened, and a missing dataset does not hide it."""
        reads = []
        monkeypatch.setattr(type(tmp_path), "read_bytes", lambda path: reads.append(path))
        out = tmp_path / "d.safetensors"
        assert run("train", "--dataset", tmp_path / "missing", "--arch", "bogus", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[usage]:") and "unknown architecture 'bogus'" in err
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--modes", "centroid,bogus"), "unknown evaluation modes"),
            (("--k", 0, "--modes", "knn"), "knn_k must be in [1, 6], got 0"),
            (("--k", 7, "--modes", "centroid,knn"), "knn_k must be in [1, 6], got 7"),
            (("--train-per-class", 1), "need at least 2 training models per class"),
            (("--severities", "2-5"), "severities must cover 1..s contiguously"),
            (("--severities", "1,3"), "severities must cover 1..s contiguously"),
            (("--severities", "5-3"), "reversed range '5-3'"),
            (("--lsb", "5-3"), "reversed range '5-3'"),
            (("--lsb", "0"), "lsb must be at least 1, got 0"),
            (("--lsb", "8,0"), "lsb must be at least 1, got 0"),
            (("--lsb", "none"), "--lsb needs at least one trained severity"),
            (("--runs", 0), "need at least one run"),
            (("--arch", "bogus"), "unknown architecture 'bogus'"),
            (("--size", 0), "block 0 shrinks the feature map below 1x1"),
            (("--size", 8), "block 0 shrinks the feature map below 1x1"),
        ],
        ids=["mode-unknown", "k-zero", "k-above-train-embeddings", "train-per-class-one",
             "severities-from-two", "severities-gap", "severities-reversed", "lsb-reversed",
             "lsb-zero", "lsb-zero-after-eight", "lsb-none", "runs-zero", "arch-unknown",
             "size-zero", "size-below-osl-small"],
    )
    def test_report_scoring_flags_before_the_collection(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        """A bad scoring, training-count, severity, run-count, architecture or
        image-size flag, a trained severity below 1 among them, or a size the
        architecture cannot embed, is a usage error found before
        the collection is opened, so a missing --mc does not turn it into a
        data error, and no model is read."""
        def no_read(*args, **kwargs):
            raise AssertionError("report read the collection before it checked its flags")

        monkeypatch.setattr(cli, "load_collection", no_read)
        for module in (weights_io, pipeline):
            monkeypatch.setattr(module, "open_words", no_read)
        csv_path = tmp_path / "r.csv"
        assert run("report", "--mc", tmp_path / "missing", "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", *flags, "--out-csv", csv_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[usage]:") and message in err and not csv_path.exists()

    @pytest.mark.parametrize("flags", [("--k", 50, "--modes", "centroid,1nn"),
                                       ("--severities", "2,1,2")], ids=["k-unused", "severities-unsorted"])
    def test_report_accepts_what_a_run_accepts(self, tmp_path, mc_dir, flags):
        """k bounds only knn mode, and severities are a set that covers 1..s."""
        assert run("report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, "--train-per-class", 2,
                   "--runs", 1, *flags, "--out-csv", tmp_path / "r.csv") == 0

    def test_defaults_are_train_configs(self):
        for command in (["train", "--dataset", "ds"],
                        ["report", "--mc", "mc", "--lsb", "8", "--synthetic-payload", "1,1",
                         "--train-zoos", "zoo0"]):
            args = cli.build_parser().parse_args(command)
            assert TrainConfig(**cli._training_settings(args)) == TrainConfig()


class TestBuildDatasetTrainScan:
    @pytest.mark.parametrize("lsb,message", [
        (0, "lsb must be at least 1, got 0"),
        (30, "model000.safetensors: lsb=30 exceeds the 23-bit mantissa of F32"),
    ])
    def test_bad_lsb_writes_no_tree(self, tmp_path, mc_dir, capsys, lsb, message):
        """A severity no float32 model admits exits 2 before a directory is
        made: below 1 when the attack is built, above the mantissa when the
        first model's dtype is known."""
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run("build-dataset", "--mc", mc_dir, "--lsb", lsb, "--synthetic-payload", "16,2",
                   "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_train_zoo_writes_no_tree(self, tmp_path, mc_dir, capsys):
        """An unknown --train-zoos id exits 2 before the first model is opened."""
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0,zooX", "--out", out) == 2
        assert "unknown zoo ids in train split: ['zooX']" in capsys.readouterr().err
        assert not out.exists()

    def test_written_detectors_resave_byte_identically(self, tmp_path, mc_dir):
        """Every detector train and report --save-detectors write loads, with
        its stored centroids equal to the derived ones, and saves to its own bytes."""
        ds, dets = tmp_path / "ds", tmp_path / "dets"
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--size", 28, "--train-zoos", "zoo0", "--out", ds) == 0
        assert run("train", "--dataset", ds, "--arch", "tiny", "--strategy", "ST", "--seed", 7,
                   "--out", tmp_path / "det.safetensors") == 0
        assert run("report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, "--strategy", "ES",
                   "--train-per-class", 2, "--runs", 2, "--seed", 1, "--severities", "1-2",
                   "--out-csv", tmp_path / "r.csv", "--save-detectors", dets) == 0
        paths = [tmp_path / "det.safetensors", *sorted(dets.iterdir())]
        assert [p.name for p in paths[1:]] == ["detector_x8_seed1.safetensors",
                                               "detector_x8_seed2.safetensors"]
        for path in paths:
            data = path.read_bytes()
            assert save_detector(load_detector(data)) == data, path.name

    def test_full_pipeline(self, tmp_path, mc_dir, capsys):
        ds = tmp_path / "ds"
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--size", 28, "--train-zoos", "zoo0", "--out", ds) == 0
        manifest, samples = load_dataset(ds)
        assert manifest.lsb == 8
        assert manifest.payload_sha256 == Payload.synthetic(16, 2).sha256()
        splits = {s.zoo: s.split for s in samples}
        assert splits == {"zoo0": "train", "zoo1": "test"}

        det_path = tmp_path / "det.safetensors"
        assert run("train", "--dataset", ds, "--arch", "tiny", "--strategy", "UB",
                   "--ub-lo", 0.5, "--ub-hi", 1.25, "--seed", 7, "--out", det_path) == 0
        detector = load_detector(det_path.read_bytes())
        assert detector.seed == 7
        assert detector.trained_lsb == 8
        assert len(detector.manifest_sha256) == 64

        capsys.readouterr()
        assert run("scan", "--detector", det_path, "--model", mc_dir / "zoo1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        paths = [l.split(",")[0] for l in lines]
        assert paths == sorted(paths)
        for line in lines:
            path, label, d0, d1 = line.split(",")
            assert label in ("0", "1")
            float(d0), float(d1)

        assert run("scan", "--detector", det_path, "--model", ds / "attacked" / "zoo1",
                   "--mode", "knn", "--k", 3) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            _, label, v0, v1 = line.split(",")
            assert int(v0) + int(v1) == 3

    def test_train_reads_the_manifest_once(self, tmp_path, mc_dir, monkeypatch):
        """The detector's manifest_sha256 hashes the manifest bytes train parsed."""
        ds = tmp_path / "ds"
        run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
            "--size", 28, "--train-zoos", "zoo0", "--out", ds)
        reads = []
        read_bytes = type(ds).read_bytes

        def counting(path):
            data = read_bytes(path)
            if path.name == "manifest.json":
                reads.append(data)
            return data

        monkeypatch.setattr(type(ds), "read_bytes", counting)
        det_path = tmp_path / "det.safetensors"
        assert run("train", "--dataset", ds, "--arch", "tiny", "--strategy", "ES",
                   "--out", det_path) == 0
        assert len(reads) == 1
        manifest_sha256 = load_detector(read_bytes(det_path)).manifest_sha256
        assert manifest_sha256 == hashlib.sha256(reads[0]).hexdigest()

    def test_train_deterministic_files(self, tmp_path, mc_dir):
        ds = tmp_path / "ds"
        run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
            "--size", 28, "--train-zoos", "zoo0", "--out", ds)
        for name in ("d1", "d2"):
            assert run("train", "--dataset", ds, "--arch", "tiny", "--seed", 3,
                       "--out", tmp_path / f"{name}.safetensors") == 0
        assert (tmp_path / "d1.safetensors").read_bytes() == (tmp_path / "d2.safetensors").read_bytes()

    def test_train_batch_size(self, tmp_path, mc_dir):
        """--batch-size 10 on 6 train images (36 triplets) writes a detector
        that loads and differs from the full-batch one."""
        ds = tmp_path / "ds"
        run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
            "--size", 28, "--train-zoos", "zoo0", "--out", ds)
        for name, flags in (("full", ()), ("chunked", ("--batch-size", 10))):
            assert run("train", "--dataset", ds, "--arch", "tiny", "--strategy", "ES",
                       *flags, "--out", tmp_path / f"{name}.safetensors") == 0
        chunked = (tmp_path / "chunked.safetensors").read_bytes()
        assert load_detector(chunked).strategy == "ES"
        assert chunked != (tmp_path / "full.safetensors").read_bytes()

    def test_chain_formats_pinned(self, tmp_path, mc_dir):
        """The manifest's bytes and the detector's metadata, key order included,
        of a synth-mc -> build-dataset -> train chain. Neither depends on the
        BLAS kernel; the detector's tensors do, so they are left out."""
        ds, det_path = tmp_path / "ds", tmp_path / "det.safetensors"
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--size", 28, "--train-zoos", "zoo0", "--out", ds) == 0
        assert run("train", "--dataset", ds, "--arch", "tiny", "--strategy", "ST", "--seed", 7,
                   "--out", det_path) == 0
        manifest_sha256 = "3aa09147fccb9f9efd104e5902b5178c3eb7769e77cd34f0b24459bf7da16ec5"
        assert hashlib.sha256((ds / "manifest.json").read_bytes()).hexdigest() == manifest_sha256
        config = {"blocks": [[4, 5, True], [8, 3, True]], "embedding_dim": 16,
                  "init_scheme": "he_uniform", "init_seed": 0, "input_size": 28,
                  "l2_normalize": False, "sigmoid_head": True}
        assert list(read_container(det_path.read_bytes()).metadata.items()) == [
            ("format_version", "1"),
            ("kind", "weightsteg-detector"),
            ("config", json.dumps(config, sort_keys=True)),
            ("representation", "grayscale-fourpart"),
            ("manifest_sha256", manifest_sha256),
            ("seed", "7"),
            ("strategy", "ST"),
            ("trained_lsb", "8"),
        ]

    def test_rep_flag_refused(self, tmp_path, mc_dir, capsys, monkeypatch):
        """build-dataset has one image and no --rep flag: an old command line
        that names one exits 2 before it reads the collection."""
        monkeypatch.setattr(cli, "load_collection", lambda path: pytest.fail("read the collection"))
        assert_flag_refused(capsys, "--rep", "build-dataset", "--mc", mc_dir, "--lsb", 8,
                            "--synthetic-payload", "16,2", "--rep", "grayscale-fourpart",
                            "--out", tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command", ["embed", "build-dataset"])
    def test_mantissa_only_flag_refused(self, tmp_path, mc_dir, capsys, monkeypatch, command):
        """Mantissa bits only is the default, so there is no --mantissa-only
        flag: an old command line that names one exits 2 before it reads a
        model or writes a file."""
        for name in ("load_collection", "open_words"):
            monkeypatch.setattr(cli, name, lambda path: pytest.fail(f"{command} read {path}"))
        source = (("--in", mc_dir / "zoo0" / "model000.safetensors") if command == "embed"
                  else ("--mc", mc_dir))
        assert_flag_refused(capsys, "--mantissa-only", command, *source, "--lsb", 8,
                            "--synthetic-payload", "16,2", "--mantissa-only",
                            "--out", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_dataset_determinism(self, tmp_path, mc_dir):
        for name in ("x", "y"):
            run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                "--size", 28, "--train-zoos", "zoo0", "--out", tmp_path / name)
        assert (tmp_path / "x/manifest.json").read_bytes() == (tmp_path / "y/manifest.json").read_bytes()


class TestReportCommand:
    def test_report_outputs(self, tmp_path, mc_dir):
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        assert run("report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                   "--train-per-class", 2, "--runs", 2, "--seed", 1,
                   "--severities", "1-3", "--out-csv", csv_path, "--out-json", json_path,
                   "--save-detectors", tmp_path / "dets") == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "run,model_lsb,eval_type,metric,value"
        metrics = {l.split(",")[3] for l in lines[1:]}
        assert {"oml_accuracy", "benign_accuracy", "weighted_metric",
                "accuracy_x1", "accuracy_x2", "accuracy_x3"} <= metrics
        runs = {l.split(",")[0] for l in lines[1:]}
        assert {"1", "2", "mean", "ci95_low", "ci95_high"} <= runs  # seeds 1 and 2
        doc = json.loads(json_path.read_text())
        assert doc["config"]["lsb"] == [8]
        assert (tmp_path / "dets" / "detector_x8_seed1.safetensors").exists()
        assert (tmp_path / "dets" / "detector_x8_seed2.safetensors").exists()

    def test_saved_detectors_one_file_per_severity_and_seed(self, tmp_path, mc_dir):
        """Each trained severity's run with each seed keeps its own file, so
        no severity's detectors overwrite another's."""
        dets = tmp_path / "dets"
        assert run("report", "--mc", mc_dir, "--lsb", "2,8", "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, "--strategy", "ES",
                   "--train-per-class", 2, "--runs", 2, "--seed", 1,
                   "--out-csv", tmp_path / "r.csv", "--save-detectors", dets) == 0
        found = {}
        for path in sorted(dets.iterdir()):
            detector = load_detector(path.read_bytes())
            found[path.name] = (detector.trained_lsb, detector.seed)
        assert found == {f"detector_x{x}_seed{seed}.safetensors": (x, seed)
                         for x in (2, 8) for seed in (1, 2)}

    @pytest.mark.parametrize("zoos,message", [
        ("zooX", "unknown zoo ids in train split: ['zooX']"),
        ("zoo0,zoo1", "no zoos left for evaluation; shrink --train-zoos"),
    ], ids=["unknown", "no-test-zoo"])
    def test_zoos_refused_before_any_model_is_read(
        self, tmp_path, mc_dir, capsys, monkeypatch, zoos, message
    ):
        """A --train-zoos naming a zoo the collection lacks, or leaving no zoo
        to test on, exits 2 once the collection is listed, before any model
        file is opened or read."""
        read_bytes = type(mc_dir).read_bytes

        def guarded(path):
            if path.suffix == ".safetensors":
                pytest.fail(f"read {path}")
            return read_bytes(path)

        monkeypatch.setattr(type(mc_dir), "read_bytes", guarded)
        for module in (cli, dataset, pipeline, weights_io):
            monkeypatch.setattr(module, "open_words", lambda path: pytest.fail(f"opened {path}"))
        csv_path = tmp_path / "r.csv"
        capsys.readouterr()
        assert run("report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", zoos, "--arch", "tiny", "--size", 28,
                   "--train-per-class", 2, "--runs", 1, "--out-csv", csv_path) == 2
        assert capsys.readouterr().err == f"error[usage]: {message}\n"
        assert not csv_path.exists()

    def test_report_deterministic(self, tmp_path, mc_dir):
        for name in ("a.csv", "b.csv"):
            assert run("report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                       "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                       "--train-per-class", 2, "--runs", 1, "--seed", 1,
                       "--out-csv", tmp_path / name) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_sweep_one_row_block_per_trained_severity(self, tmp_path, mc_dir):
        csv_path = tmp_path / "sweep.csv"
        assert run("report", "--mc", mc_dir, "--lsb", "2-4", "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                   "--train-per-class", 2, "--runs", 1, "--seed", 0,
                   "--modes", "centroid", "--out-csv", csv_path) == 0
        lines = csv_path.read_text().splitlines()[1:]
        oml = [l for l in lines if l.split(",")[3] == "oml_accuracy" and l.split(",")[0] == "0"]
        assert [l.split(",")[1] for l in oml] == ["2", "3", "4"]

    def test_sweep_reads_each_model_once(self, tmp_path, monkeypatch):
        """Each model file is opened once, through open_words, and never read whole."""
        mc = tmp_path / "mc"
        synth_collection(mc, n_zoos=2, n_models=2, n_params=200, seed=4)
        models = sorted(mc.rglob("*.safetensors"))
        opens = []
        open_words = pipeline.open_words

        def counting(path):
            opens.append(path)
            return open_words(path)

        monkeypatch.setattr(pipeline, "open_words", counting)
        forbid_whole_reads(monkeypatch, "report")
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        assert run("report", "--mc", mc, "--lsb", "2-4", "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                   "--train-per-class", 2, "--runs", 2, "--seed", 0, "--severities", "1-3",
                   "--out-csv", csv_path, "--out-json", json_path) == 0
        monkeypatch.undo()
        assert sorted(opens) == models
        # the bytes written when every trained severity re-read and re-hashed each file
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "c6d5e93b95513229ec206ac8db314672976b2e2d64b568d827f0679009c21435")
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == (
            "96837f93e8f9d485ab4dd8670d5813bde606d5f9aac10ba3230a7d21b6671b95")

    @pytest.mark.parametrize(
        "flags,lsb",
        [(("--lsb", 26), 26), (("--lsb", 8, "--severities", "1-30"), 24)],
        ids=["trained", "severities"],
    )
    def test_mantissa_rule_checked_before_training(
        self, tmp_path, mc_dir, capsys, monkeypatch, flags, lsb
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a run trained before every severity was checked")

        monkeypatch.setattr(pipeline, "train", no_training)
        csv_path = tmp_path / "r.csv"
        assert run("report", "--mc", mc_dir, *flags, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                   "--train-per-class", 2, "--runs", 1, "--out-csv", csv_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[usage]: lsb={lsb} exceeds the 23-bit mantissa of F32")
        assert not csv_path.exists()


class TestLayersRunOnTheMainThread:
    LAYERS = ("weights_io", "steg", "imagerep", "dataset", "net", "detect", "pipeline", "cli")

    def test_train_report_scan(self, tmp_path, mc_dir, monkeypatch, capsys):
        """Every public function of the layer modules, wrapped and patched in
        wherever it is named as a per-layer tracer does, runs on the main
        thread while build-dataset fans its models out and train, report and
        scan their images."""
        monkeypatch.setattr(net, "_usable_cpus", lambda: 4)
        threads = {}  # function -> the threads it ran on
        wrapped = {}
        for layer in self.LAYERS:
            module = importlib.import_module(f"weightsteg.{layer}")
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = (obj, self.recording(f"{layer}.{name}", obj, threads))
        modules = [weightsteg] + [importlib.import_module(f"weightsteg.{info.name}")
                                  for info in pkgutil.iter_modules(weightsteg.__path__)]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    monkeypatch.setattr(module, name, wrapped[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped and wrapped[id(value)][0] is value:
                            monkeypatch.setitem(obj, key, wrapped[id(value)][1])

        ds, det = tmp_path / "ds", tmp_path / "det.safetensors"
        monkeypatch.setattr(net, "_helpers", None)
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--size", 28, "--train-zoos", "zoo0", "--out", ds) == 0
        assert net._helpers is not None  # the models went through the pool
        monkeypatch.setattr(net, "_helpers", None)
        assert run("train", "--dataset", ds, "--arch", "tiny", "--strategy", "ST",
                   "--out", det) == 0
        assert run("report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                   "--train-per-class", 2, "--runs", 1, "--severities", "1-2",
                   "--out-csv", tmp_path / "r.csv") == 0
        assert run("scan", "--detector", det, "--model", mc_dir) == 0
        assert {"net.forward", "net.backward", "detect.classify_samples", "cli.cmd_scan"} <= threads.keys()
        assert net._helpers is not None  # the images went through the pool
        assert {name: ids for name, ids in threads.items() if ids != {threading.get_ident()}} == {}

    @staticmethod
    def recording(name, func, threads):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return func(*args, **kwargs)

        return wrapper


class TestPipeline:
    def test_round_robin_selection(self, mc_dir):
        collection = synth_collection(mc_dir.parent / "mc2", n_zoos=3, n_models=2,
                                      n_params=64, seed=8)
        flats = load_flat_models(collection)
        picked = select_train_pairs(flats, ["zoo0", "zoo2"], 3)
        assert [(fm.zoo) for fm in picked] == ["zoo0", "zoo2", "zoo0"]

    def test_selection_exhaustion(self, mc_dir):
        collection = synth_collection(mc_dir.parent / "mc3", n_zoos=2, n_models=2,
                                      n_params=64, seed=8)
        flats = load_flat_models(collection)
        with pytest.raises(ValueError, match="only"):
            select_train_pairs(flats, ["zoo0"], 5)

    def test_run_detection_run_rows(self, mc_dir):
        from weightsteg.dataset import load_collection

        collection = load_collection(mc_dir)
        cfg = ExperimentConfig(lsb=8, train_zoos=("zoo0",), image_size=28, arch="tiny",
                               train_per_class=2, severities=(1, 2), modes=("centroid", "1nn"))
        res = run_detection_run(collection, Payload.synthetic(16, 2), cfg, 0,
                                load_flat_models(collection))
        metrics = {(r.eval_type, r.metric) for r in res.rows}
        assert ("centroid", "oml_accuracy") in metrics
        assert ("1nn", "weighted_metric") in metrics
        assert set(res.oml) == {"centroid", "1nn"}
        assert res.epochs_run >= 1

    def test_needs_heldout_zoo(self, mc_dir):
        from weightsteg.dataset import load_collection

        collection = load_collection(mc_dir)
        cfg = ExperimentConfig(lsb=8, train_zoos=("zoo0", "zoo1"), image_size=28,
                               arch="tiny", train_per_class=2)
        with pytest.raises(ValueError, match="zoos"):
            run_detection_run(collection, Payload.synthetic(16, 2), cfg, 0,
                              load_flat_models(collection))


def hand_made_dataset(root, shape, splits, images=None):
    """A dataset of one benign and one attacked sample of zoo0 whose images
    are shape (h, w) and whose manifest records that shape; images, when
    given, are the bytes of every PGM file."""
    (root / "images").mkdir(parents=True)
    samples = []
    for label, split in enumerate(splits):
        rel = f"images/m{label}.pgm"
        if images is None:
            write_pgm(np.full(shape, 40 * (label + 1), dtype=np.uint8), root / rel)
        else:
            (root / rel).write_bytes(images)
        samples.append({"path": rel, "zoo": "zoo0", "label": label, "split": split})
    doc = {"mc_id": "hand", "X": 8, "payload_sha256": "00" * 32, "representation": "grayscale-fourpart",
           "shape": list(shape), "source_sha256": None, "samples": samples}
    (root / "manifest.json").write_text(json.dumps(doc))
    return root


class TestMalformedInputsFailClosed:
    """Each malformed flag or file is refused with its exit code and an
    error[...] line naming the fault, never a traceback, and nothing is written."""

    @staticmethod
    def refused(capsys, code, kind, message, *argv):
        capsys.readouterr()
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error[{kind}]: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (("--synthetic-payload", "64"), "--synthetic-payload expects BYTES,SEED, got '64'"),
        (("--synthetic-payload", "0,1"), "synthetic payload needs at least one byte"),
        (("--synthetic-payload", "64,7", "--train-zoos", ","), "--train-zoos needs at least one zoo id"),
        (("--synthetic-payload", "64,7", "--train-zoos", ""), "--train-zoos needs at least one zoo id"),
        (("--synthetic-payload", "64,7", "--size", 0), "image size must be at least 1, got 0"),
    ], ids=["payload-one-field", "payload-zero-bytes", "train-zoos-empty", "train-zoos-blank",
            "size-zero"])
    def test_build_dataset_flags_exit_2(self, tmp_path, mc_dir, capsys, monkeypatch, argv, message):
        def no_read(*args, **kwargs):
            raise AssertionError("build-dataset opened a model before it checked its flags")

        monkeypatch.setattr(dataset, "open_words", no_read)
        out = tmp_path / "ds"
        self.refused(capsys, 2, "usage", message,
                     "build-dataset", "--mc", mc_dir, "--lsb", 8, *argv, "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("--arch", "bogus"), "unknown architecture 'bogus'"),
        (("--size", 0), "block 0 shrinks the feature map below 1x1"),
        (("--arch", "osl-small", "--size", 8), "block 0 shrinks the feature map below 1x1"),
    ], ids=["arch-unknown", "size-zero", "size-below-osl-small"])
    def test_report_arch_and_size_exit_2_before_a_model(self, tmp_path, mc_dir, capsys, argv,
                                                        message):
        """A truncated model in the collection is not read, so it cannot turn a
        bad --arch or --size into a data error."""
        model = mc_dir / "zoo1" / "model001.safetensors"
        model.write_bytes(model.read_bytes()[:16])
        csv_path = tmp_path / "r.csv"
        self.refused(capsys, 2, "usage", message,
                     "report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                     "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, *argv,
                     "--out-csv", csv_path)
        assert not csv_path.exists()

    @pytest.mark.parametrize("command", ["imagify", "embed", "extract", "build-dataset", "report",
                                         "scan"])
    @pytest.mark.parametrize("data,suffix,message", [
        (scrambled_container([WeightTensor("a", DType.F32, (1,), np.array([1], dtype=np.uint32)),
                              WeightTensor("b", DType.F16, (1,), np.array([2], dtype=np.uint16))],
                             [0, 1]), ".safetensors", "mixed dtypes in model"),
        (write_container(ModelWeights([])), ".safetensors",
         "cannot flatten a model with no tensors"),
        (write_container(ModelWeights([WeightTensor("a", DType.F32, (0,), [])])), ".safetensors",
         "cannot flatten a model with no words"),
        (b"", ".f32", "cannot flatten a model with no words"),
    ], ids=["mixed-dtypes", "no-tensors", "zero-word-tensor", "empty-f32"])
    def test_unflattenable_model_exit_3(self, tmp_path, mc_dir, capsys, command, data, suffix,
                                        message):
        """A model file no words can be read from is a data error in every
        command that reads a model, as a truncated one is, and a command that
        reads a collection or a directory names the file."""
        (mc_dir / "zoo1" / "model001.safetensors").unlink()
        model = mc_dir / "zoo1" / f"model001{suffix}"
        model.write_bytes(data)
        out = tmp_path / "out"
        det = tmp_path / "det.safetensors"
        det.write_bytes(tiny_detector_bytes())
        argv = {
            "imagify": ("--in", model, "--out", out),
            "embed": ("--in", model, "--lsb", 8, "--synthetic-payload", "16,2", "--out", out),
            "extract": ("--in", model, "--lsb", 8, "--bits", 8, "--out", out),
            "build-dataset": ("--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                              "--out", out),
            "report": ("--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                       "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, "--out-csv", out),
            "scan": ("--detector", det, "--model", model),
        }[command]
        named = command in ("build-dataset", "report", "scan")
        self.refused(capsys, 3, "data", f"{model}: {message}" if named else message,
                     command, *argv)
        assert not out.exists()

    def test_report_zero_runs_exit_2(self, tmp_path, mc_dir, capsys):
        csv_path = tmp_path / "r.csv"
        self.refused(capsys, 2, "usage", "need at least one run",
                     "report", "--mc", mc_dir, "--lsb", 8, "--runs", 0, "--synthetic-payload", "16,2",
                     "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, "--out-csv", csv_path)
        assert not csv_path.exists()

    def test_report_names_a_truncated_model_exit_3(self, tmp_path, mc_dir, capsys):
        model = mc_dir / "zoo1" / "model001.safetensors"
        model.write_bytes(model.read_bytes()[:16])
        csv_path = tmp_path / "r.csv"
        self.refused(capsys, 3, "data", f"{model}: header extends beyond end of file",
                     "report", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                     "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28, "--out-csv", csv_path)
        assert not csv_path.exists()

    @pytest.mark.parametrize("lsb", [8, 12], ids=["within-mantissa", "beyond-mantissa"])
    def test_report_f16_collection_before_training(self, tmp_path, capsys, monkeypatch, lsb):
        """float16 models are refused before any run trains, at any severity:
        the first one read is a data error that names its file, exit 3, as the
        four-part image is of float32 words."""
        mc = tmp_path / "mc"
        for zoo in ("zoo0", "zoo1"):
            (mc / zoo).mkdir(parents=True)
            for i in range(2):
                words = np.random.default_rng(i).integers(0, 2**16, size=300, dtype=np.uint16)
                tensor = WeightTensor("w", DType.F16, (300,), words)
                (mc / zoo / f"model{i}.safetensors").write_bytes(write_container(ModelWeights([tensor])))

        def no_training(*args, **kwargs):
            raise AssertionError("a run trained on float16 models")

        monkeypatch.setattr(pipeline, "train", no_training)
        csv_path = tmp_path / "r.csv"
        self.refused(capsys, 3, "data",
                     f"{mc / 'zoo0' / 'model0.safetensors'}: "
                     "grayscale-fourpart requires float32 weights, got F16",
                     "report", "--mc", mc, "--lsb", lsb, "--synthetic-payload", "16,2",
                     "--train-zoos", "zoo0", "--arch", "tiny", "--size", 28,
                     "--train-per-class", 2, "--out-csv", csv_path)
        assert not csv_path.exists()

    def test_extract_negative_bits_exit_2(self, tmp_path, mc_dir, capsys):
        out = tmp_path / "p.bin"
        self.refused(capsys, 2, "usage", "cannot extract a negative number of bits",
                     "extract", "--in", mc_dir / "zoo0" / "model000.safetensors", "--lsb", 8,
                     "--bits", -1, "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("shape,splits,message", [
        ((12, 8), ("train", "train"), "training requires square images"),
        ((8, 8), ("test", "test"), "dataset has no train-split samples"),
    ], ids=["non-square", "no-train-split"])
    def test_train_dataset_exit_2(self, tmp_path, capsys, shape, splits, message):
        ds = hand_made_dataset(tmp_path / "ds", shape, splits)
        det = tmp_path / "d.safetensors"
        self.refused(capsys, 2, "usage", message,
                     "train", "--dataset", ds, "--arch", "tiny", "--out", det)
        assert not det.exists()

    def test_train_pgm_of_width_0_exit_3(self, tmp_path, capsys):
        ds = hand_made_dataset(tmp_path / "ds", (8, 8), ("train", "train"), b"P5\n0 8\n255\n")
        det = tmp_path / "d.safetensors"
        self.refused(capsys, 3, "data", "bad PGM dimensions 0x8",
                     "train", "--dataset", ds, "--arch", "tiny", "--out", det)
        assert not det.exists()

    def test_build_dataset_mc_names_a_file_exit_3(self, tmp_path, mc_dir, capsys):
        out = tmp_path / "ds"
        self.refused(capsys, 3, "data", "is not a directory",
                     "build-dataset", "--mc", mc_dir / "zoo0" / "model000.safetensors", "--lsb", 8,
                     "--synthetic-payload", "16,2", "--out", out)
        assert not out.exists()

    @pytest.mark.parametrize("header,message", [
        ([{"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}],
         "container header is not a JSON object"),
        ({"w": [1]}, "tensor 'w': metadata is not an object"),
        ({"w": {"dtype": "F32", "shape": [-1, 1], "data_offsets": [0, 4]}},
         "tensor 'w': negative dimension"),
    ], ids=["header-array", "entry-not-object", "negative-dimension"])
    def test_container_header_exit_3(self, tmp_path, capsys, header, message):
        raw = json.dumps(header).encode()
        model = tmp_path / "m.safetensors"
        model.write_bytes(struct.pack("<Q", len(raw)) + raw + b"\x00" * 4)
        out = tmp_path / "m.pgm"
        self.refused(capsys, 3, "data", message, "imagify", "--in", model, "--out", out)
        assert not out.exists()


class TestOutDir:
    """Without --out, a command writes its default file name under
    $WEIGHTSTEG_OUT_DIR, and prints that path."""

    def test_env_names_the_directory(self, tmp_path, mc_dir, capsys, monkeypatch):
        out_dir = tmp_path / "outputs"
        out_dir.mkdir()
        monkeypatch.setenv("WEIGHTSTEG_OUT_DIR", str(out_dir))
        model = mc_dir / "zoo0" / "model000.safetensors"
        capsys.readouterr()
        assert run("imagify", "--in", model, "--size", 12) == 0
        assert run("build-dataset", "--mc", mc_dir, "--lsb", 8, "--synthetic-payload", "16,2",
                   "--size", 12) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(out_dir / "model000.pgm"), str(out_dir / "dataset" / "manifest.json")]
        with open_words(model) as words:
            assert np.array_equal(read_pgm(out_dir / "model000.pgm"), render(words, 12))
        assert sorted(p.name for p in out_dir.iterdir()) == ["dataset", "model000.pgm"]
