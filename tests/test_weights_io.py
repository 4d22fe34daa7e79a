import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_preads, f32_tensor, random_tensors, scrambled_container, unflatten
from helpers import write_raw
from weightsteg.errors import FormatError
from weightsteg.imagerep import render
from test_words import LAYOUTS, case_of, cases, check_source
from weightsteg.weights_io import (
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    load_model,
    open_words,
    read_container,
    read_raw,
    save_model,
    write_container,
)


class TestReadRaw:
    def test_golden_value(self):
        tensor = read_raw(bytes.fromhex("0000203E"), DType.F32)
        assert tensor.n == 1
        assert tensor.values()[0] == 0.15625

    def test_empty(self):
        assert read_raw(b"", DType.F32).n == 0

    def test_length_not_divisible(self):
        with pytest.raises(FormatError):
            read_raw(b"\x00" * 6, DType.F32)

    def test_f16_words(self):
        tensor = read_raw(b"\x00\x3c\x00\xbc", DType.F16)
        assert list(tensor.values()) == [1.0, -1.0]

    def test_bit_pattern_preserved(self):
        data = bytes(range(16))
        assert write_raw(read_raw(data, DType.F32)) == data
        assert write_raw(read_raw(data, DType.F16)) == data


class TestContainer:
    def test_single_tensor_of_zeros(self):
        model = ModelWeights([f32_tensor([0, 0, 0, 0], "w", (2, 2))])
        parsed = read_container(write_container(model))
        assert parsed.n == 4
        assert np.all(parsed.tensors[0].values() == 0.0)
        assert parsed.tensors[0].shape == (2, 2)

    def test_byte_roundtrip_identity(self):
        model = ModelWeights(
            [f32_tensor([1, 2, 3], "a"), f32_tensor([4], "b")],
            metadata={"origin": "test"},
        )
        data = write_container(model)
        assert write_container(read_container(data)) == data

    def test_nan_payload_bits_survive(self):
        # quiet NaN with a nonzero payload in the mantissa
        nan_word = 0x7FC00001
        model = ModelWeights([f32_tensor([nan_word], "w")])
        parsed = read_container(write_container(model))
        assert int(parsed.tensors[0].bits[0]) == nan_word

    def test_tensor_order_preserved(self):
        model = ModelWeights([f32_tensor([1], "zzz"), f32_tensor([2], "aaa")])
        parsed = read_container(write_container(model))
        assert [t.name for t in parsed.tensors] == ["zzz", "aaa"]

    def test_truncated_data(self):
        header = json.dumps(
            {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}
        ).encode()
        data = struct.pack("<Q", len(header)) + header + b"\x00" * 4
        with pytest.raises(FormatError, match="truncat"):
            read_container(data)

    def test_duplicate_names(self):
        header = (
            b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
            b'"w":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
        )
        data = struct.pack("<Q", len(header)) + header + b"\x00" * 8
        with pytest.raises(FormatError, match="duplicate"):
            read_container(data)

    def test_unknown_dtype(self):
        header = json.dumps(
            {"w": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}
        ).encode()
        data = struct.pack("<Q", len(header)) + header + b"\x00" * 8
        with pytest.raises(FormatError, match="dtype"):
            read_container(data)

    def test_gap_between_tensors(self):
        header = json.dumps(
            {
                "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
                "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
            }
        ).encode()
        data = struct.pack("<Q", len(header)) + header + b"\x00" * 12
        with pytest.raises(FormatError, match="overlap|gap"):
            read_container(data)

    @pytest.mark.parametrize("field,value", [("shape", "[1e400]"), ("shape", "[Infinity]"),
                                             ("data_offsets", "[0,-Infinity]")])
    def test_infinite_number_in_header(self, field, value):
        # JSON admits these; int() overflows on them
        entry = {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}
        header = json.dumps({"w": entry}).replace(json.dumps(entry[field]), value, 1).encode()
        data = struct.pack("<Q", len(header)) + header + b"\x00" * 4
        with pytest.raises(FormatError, match="bad header entry"):
            read_container(data)

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            read_container(b"\x00")
        with pytest.raises(FormatError):
            read_container(struct.pack("<Q", 4) + b"nope")

    def test_empty_model_minimal_container(self):
        data = write_container(ModelWeights([]))
        assert data == struct.pack("<Q", 2) + b"{}"
        assert read_container(data) == ModelWeights([])

    def test_metadata_must_be_string_map(self):
        header = json.dumps({"__metadata__": {"k": 3}}).encode()
        with pytest.raises(FormatError, match="metadata"):
            read_container(struct.pack("<Q", len(header)) + header)

    def test_reserved_tensor_name(self):
        model = ModelWeights([f32_tensor([1], "__metadata__")])
        with pytest.raises(ValueError, match="reserved"):
            write_container(model)


class TestFlatten:
    def test_length_additive(self):
        model = ModelWeights([f32_tensor(range(3), "a"), f32_tensor(range(5), "b")])
        assert flatten(model).n == 8

    def test_single_tensor_identity(self):
        tensor = f32_tensor([7, 8, 9], "a")
        assert np.array_equal(flatten(ModelWeights([tensor])).bits, tensor.bits)

    def test_file_order(self):
        one = struct.unpack("<I", struct.pack("<f", 1.0))[0]
        two = struct.unpack("<I", struct.pack("<f", 2.0))[0]
        model = ModelWeights([f32_tensor([one], "A"), f32_tensor([two], "B")])
        assert list(flatten(model).bits) == [one, two]
        assert list(flatten(model).values()) == [1.0, 2.0]

    def test_mixed_dtypes_rejected(self):
        model = ModelWeights(
            [
                f32_tensor([1], "a"),
                WeightTensor("b", DType.F16, (1,), np.array([1], dtype=np.uint16)),
            ]
        )
        with pytest.raises(FormatError, match="mixed"):
            flatten(model)

    def test_empty_model_rejected(self):
        with pytest.raises(FormatError, match="no tensors"):
            flatten(ModelWeights([]))

    def test_unflatten_roundtrip(self):
        model = ModelWeights(
            [f32_tensor(range(6), "a", (2, 3)), f32_tensor(range(4), "b", (4,))]
        )
        again = unflatten(model, flatten(model).bits)
        assert again == model

    def test_unflatten_length_mismatch(self):
        model = ModelWeights([f32_tensor([1, 2], "a")])
        with pytest.raises(ValueError):
            unflatten(model, np.array([1, 2, 3], dtype=np.uint32))


class TestZeroCopy:
    def test_parsed_words_are_read_only_views(self):
        model = ModelWeights([f32_tensor(range(5), "a"), f32_tensor(range(3), "b")])
        data = write_container(model)
        data_words = np.frombuffer(data, dtype=np.uint8)
        tensors = [*read_container(data).tensors, read_raw(data[-12:], DType.F32)]
        tensors.append(read_raw(bytearray(8), DType.F16))  # writable bytes, read-only view
        for tensor in tensors:
            assert not tensor.bits.flags.writeable
            with pytest.raises(ValueError):
                tensor.bits[:1] = 7
        assert all(np.shares_memory(t.bits, data_words) for t in tensors[:2])

    @pytest.mark.parametrize("sizes", [[3, 0, 4], [0, 5], [2, 2, 0]])
    def test_flatten_views_tensors_stored_back_to_back(self, sizes):
        tensors = random_tensors(DType.F32, [(n,) for n in sizes])
        data = write_container(ModelWeights(tensors))
        flat = flatten(read_container(data))
        assert np.array_equal(flat.bits, np.concatenate([t.bits for t in tensors]))
        assert np.shares_memory(flat.bits, np.frombuffer(data, dtype=np.uint8))
        assert not flat.bits.flags.writeable
        raw = ModelWeights([read_raw(write_raw(flat), DType.F32)])
        assert np.shares_memory(flatten(raw).bits, raw.tensors[0].bits)

    def test_flatten_copies_any_other_layout(self):
        tensors = random_tensors(DType.F32, [(3,), (2,), (4,)])
        want = np.concatenate([t.bits for t in tensors])
        data = scrambled_container(tensors, [2, 0, 1])
        flat = flatten(read_container(data))
        assert np.array_equal(flat.bits, want)
        assert not np.shares_memory(flat.bits, np.frombuffer(data, dtype=np.uint8))
        # tensors in separate arrays, even adjacent ones, are joined by a copy
        assert np.array_equal(flatten(ModelWeights(tensors)).bits, want)
        whole = np.arange(9, dtype=np.uint32)
        split = ModelWeights([WeightTensor("a", DType.F32, (4,), whole[:4]),
                              WeightTensor("b", DType.F32, (5,), whole[4:])])
        assert np.shares_memory(flatten(split).bits, whole)
        backwards = ModelWeights([WeightTensor("a", DType.F32, (5,), whole[4:]),
                                  WeightTensor("b", DType.F32, (4,), whole[:4])])
        assert not np.shares_memory(flatten(backwards).bits, whole)
        # abutting words reached through different objects are copied: only a
        # single owner vouches that the span between them is all its memory
        other = np.frombuffer(memoryview(whole).cast("B")[16:], dtype=np.uint32)
        mixed = ModelWeights([WeightTensor("a", DType.F32, (4,), whole[:4]),
                              WeightTensor("b", DType.F32, (5,), other)])
        assert np.array_equal(flatten(mixed).bits, whole)
        assert not np.shares_memory(flatten(mixed).bits, whole)

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_take_from_an_unaligned_view(self, shift):
        """take gathers from words that start off a word boundary, as a parsed
        container's often do, without first copying the whole array to
        aligned memory; and it gathers what indexing gives, in the indices'
        shape, for indices that no words-source caller sends (repeated, out of
        order, 2-D; a negative one is refused, see test_words)."""
        want = np.random.default_rng(shift).integers(0, 2**32, 1 << 20, dtype=np.uint32)
        flat = read_raw(memoryview(bytes(shift) + want.tobytes())[shift:], DType.F32)
        assert not flat.bits.flags.aligned
        idx = np.array([[5, 0, 1 << 19], [7, 7, (1 << 20) - 1]])
        tracemalloc.start()
        try:
            got = flat.take(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == want.dtype and np.array_equal(got, want[idx])
        assert peak < want.nbytes // 16

    @pytest.mark.parametrize("fill", [True, False])
    def test_attacks_never_write_their_input(self, tmp_path, fill):
        from weightsteg.steg import AttackSpec, Payload

        tensors = random_tensors(DType.F32, [(40,), (0,), (25,)], seed=3)
        data = write_container(ModelWeights(tensors))
        model = read_container(data)
        flat = flatten(model)
        before = flat.bits.copy()
        spec = AttackSpec(7, fill, Payload.synthetic(9, 2))
        attacked = spec.words(flat).rewrite(flat.bits, 0, out=np.empty_like(flat.bits))
        assert not np.array_equal(attacked, before)
        path = tmp_path / "m.safetensors"
        path.write_bytes(data)
        with open_words(path) as source:
            source.save(tmp_path / "out.safetensors", spec.words(source).rewrite,
                        spec.provenance())
        assert np.array_equal(flat.bits, before)
        assert read_container(data) == ModelWeights(tensors)
        assert path.read_bytes() == data


class TestValidation:
    def test_shape_product_mismatch(self):
        with pytest.raises(ValueError):
            WeightTensor("w", DType.F32, (3,), np.array([1, 2], dtype=np.uint32))

    def test_duplicate_tensor_names(self):
        with pytest.raises(ValueError):
            ModelWeights([f32_tensor([1], "w"), f32_tensor([2], "w")])


names = st.text(alphabet="abcdefghij_0123456789", min_size=1, max_size=8)


@st.composite
def models(draw):
    dtype = draw(st.sampled_from([DType.F32, DType.F16]))
    n_tensors = draw(st.integers(0, 4))
    tensor_names = draw(
        st.lists(names, min_size=n_tensors, max_size=n_tensors, unique=True)
    )
    tensors = []
    for name in tensor_names:
        shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
        count = int(np.prod(shape))
        words = draw(
            st.lists(
                st.integers(0, 2**dtype.word_bits - 1), min_size=count, max_size=count
            )
        )
        tensors.append(
            WeightTensor(name, dtype, shape, np.array(words, dtype=dtype.word_dtype))
        )
    return ModelWeights(tensors)


@given(models())
def test_container_roundtrip_property(model):
    data = write_container(model)
    parsed = read_container(data)
    assert parsed == model
    assert write_container(parsed) == data


def test_raw_file_helpers(tmp_path):
    tensor = read_raw(bytes(range(8)), DType.F32)
    model = ModelWeights([tensor])
    save_model(model, tmp_path / "m.f32")
    assert (tmp_path / "m.f32").read_bytes() == bytes(range(8))
    loaded = load_model(tmp_path / "m.f32")
    assert np.array_equal(flatten(loaded).bits, tensor.bits)

    save_model(model, tmp_path / "m.safetensors")
    assert load_model(tmp_path / "m.safetensors").tensors == model.tensors


metadata = st.dictionaries(names, st.text(max_size=6), max_size=3)


@given(models().filter(lambda model: model.n), metadata, st.booleans())
def test_save_model_streams_canonical_bytes(tmp_path_factory, model, meta, raw):
    model.metadata = meta
    suffix = (".f32" if model.tensors[0].dtype is DType.F32 else ".f16") if raw else ".safetensors"
    path = tmp_path_factory.mktemp("save") / f"m{suffix}"
    save_model(model, path)
    data = path.read_bytes()
    assert data == (write_raw(flatten(model)) if raw else write_container(model))


def via_load(path, size):
    return render(flatten(load_model(path)), size)


def via_reader(path, size):
    with open_words(path) as words:
        return render(words, size)


def outcome(call):
    """The image a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except (FormatError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


class TestFileWords:
    """open_words gives the words of flatten(load_model(path)) without reading them all."""

    @pytest.mark.parametrize("shapes,order", [(shapes, order) for shapes, order, _ in LAYOUTS])
    def test_take_equals_flatten(self, tmp_path_factory, shapes, order):
        """A container whose header order is not its offset order gives the
        words of each layout to every take and render of check_source: all of
        them rendered at size 1 and past the full image, and about half."""
        case = case_of(shapes, order)
        n = len(case.words)
        some = np.flatnonzero(np.random.default_rng(1).random(n) < 0.5)
        for asked, size in ((case.asked, 1), (some, 3), (case.asked, 2 * n + 1)):
            check_source(tmp_path_factory, "scrambled", case._replace(asked=asked, size=size))

    @pytest.mark.parametrize("idx,error", [
        ([3, 2, 1], ValueError), ([0, 4, 4, 9], ValueError), ([[0, 1], [2, 3]], ValueError),
        (5, ValueError), ([14, 0], ValueError), ([0, -1], ValueError), ([13, 14, 14], ValueError),
        ([-1], IndexError), ([-1, 0], IndexError),
    ], ids=["reversed", "duplicated", "2-d", "0-d", "past-end-first", "negative-last",
            "past-end-repeated", "negative", "negative-first"])
    def test_take_refuses_all_but_increasing_indices(self, tmp_path, monkeypatch, idx, error):
        """take reads strictly increasing 1-D flat indices in [0, n) only: it
        refuses any others before it reads a byte, with ValueError when they
        are not strictly increasing and 1-D, whatever their range, and with
        IndexError for one below 0 (one at or past n is the contract's)."""
        path = tmp_path / "m.safetensors"
        save_model(ModelWeights(random_tensors(DType.F32, [(6,), (8,)])), path)
        with open_words(path) as words:
            reads = count_preads(monkeypatch)
            with pytest.raises(error, match={ValueError: "strictly increasing 1-D",
                                             IndexError: "out of range for 14 words"}[error]):
                words.take(np.array(idx))
        assert reads == []

    @pytest.mark.parametrize("dtype,suffix", [(DType.F32, ".f32"), (DType.F16, ".f16")])
    def test_raw_file(self, tmp_path_factory, tmp_path, dtype, suffix):
        """A raw file passes check_source, and one a byte short of whole words is refused."""
        check_source(tmp_path_factory, "raw", case_of([(17,)], dtype=dtype))
        path = tmp_path / f"m{suffix}"
        path.write_bytes(write_raw(random_tensors(dtype, [(17,)])[0])[:-1])
        with pytest.raises(FormatError, match="not divisible"), open_words(path):
            pass

    @pytest.mark.parametrize(
        "data,suffix,error",
        [
            (b"\x00" * 7, ".safetensors", "too small"),
            (write_container(ModelWeights([])), ".safetensors", "no tensors"),
            (scrambled_container([f32_tensor([1], "a"), WeightTensor("b", DType.F16, (1,), [2])],
                                 [0, 1]), ".safetensors", "mixed dtypes"),
            (write_container(ModelWeights([f32_tensor([1, 2], "a")]))[:-1], ".safetensors",
             "truncated"),
            (write_container(ModelWeights([f32_tensor([1, 2], "a")])) + b"\x00", ".safetensors",
             "trailing"),
            (b"", ".f32", "no words"),
            (bytes(67), ".f32", "not divisible"),
            (bytes(33), ".f16", "not divisible"),
        ],
        ids=["short", "empty-model", "mixed", "truncated", "trailing", "empty-raw",
             "partial-word-f32", "partial-word-f16"],
    )
    def test_refuses_what_parse_and_flatten_refuse(self, tmp_path, data, suffix, error):
        path = tmp_path / f"m{suffix}"
        path.write_bytes(data)
        got = outcome(lambda: via_reader(path, 4))
        assert got == outcome(lambda: via_load(path, 4))
        assert error in got[1]

    def test_reads_rows_not_the_file(self, tmp_path, monkeypatch):
        n, size = 250_000, 16  # a 1 MB file of 500 x 500 words per plane
        tensor = random_tensors(DType.F32, [(n,)])[0]
        path = tmp_path / "m.safetensors"
        save_model(ModelWeights([tensor]), path)
        reads = count_preads(monkeypatch)
        image = via_reader(path, size)
        assert np.array_equal(image, render(tensor, size))
        # the length prefix, the header, then at most one run per tapped row
        assert len(reads) <= 2 + 2 * size
        assert sum(reads) < path.stat().st_size // 10

    def test_truncated_while_open(self, tmp_path):
        tensor = random_tensors(DType.F32, [(100,)])[0]
        path = tmp_path / "m.safetensors"
        save_model(ModelWeights([tensor]), path)
        with open_words(path) as words:
            os.truncate(path, path.stat().st_size - 4 * 50)
            with pytest.raises(FormatError, match="truncated while open"):
                render(words, 8)


@settings(max_examples=60)
@given(case=cases())
def test_take_equals_flatten_property(tmp_path_factory, case):
    """FileWords of a container whose header order is not its offset order
    passes check_source on drawn models, takes and renders."""
    check_source(tmp_path_factory, "scrambled", case)


@st.composite
def container_mutations(draw, data):
    """1-3 byte overwrites, each in the length prefix and header or in the
    tensor data with equal odds, half of them JSON characters; then, one time
    in four, a cut or an extension of the tail."""
    data_start = 8 + struct.unpack("<Q", data[:8])[0]
    mutated = bytearray(data)
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.e"{}[],: FI'))
    for _ in range(draw(st.integers(1, 3))):
        in_header = draw(st.booleans())
        at = st.integers(0, data_start - 1) if in_header else st.integers(data_start, len(data) - 1)
        mutated[draw(at)] = draw(byte)
    tail = draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, -4, 4]))
    return bytes(mutated[:tail] if tail < 0 else mutated + bytes(tail))


FUZZ_CONTAINERS = {
    dtype: scrambled_container(random_tensors(dtype, [(3, 4), (0, 2), (5,), (2,)], seed=7),
                               [2, 3, 0, 1], {"origin": "fuzz"})
    for dtype in (DType.F32, DType.F16)
}


@pytest.mark.parametrize("dtype", list(FUZZ_CONTAINERS), ids=lambda d: d.value)
@settings(max_examples=250)
@given(data=st.data())
def test_reader_agrees_with_parse_on_mutated_containers(tmp_path_factory, dtype, data):
    """A mutated container either fails both ways with the same error, or both
    ways render the same image; no other exception escapes."""
    mutated = data.draw(container_mutations(FUZZ_CONTAINERS[dtype]))
    size = data.draw(st.integers(1, 12))
    path = tmp_path_factory.getbasetemp() / f"fuzz-{dtype.value}.safetensors"
    path.write_bytes(mutated)
    assert_same_outcome(outcome(lambda: via_reader(path, size)),
                        outcome(lambda: via_load(path, size)))
