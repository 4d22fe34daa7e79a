import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weightsteg.errors import FormatError
from weightsteg.weights_io import (
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    is_canonical,
    load_model,
    model_digest,
    parse_model,
    read_container,
    read_raw,
    save_model,
    unflatten,
    write_container,
    write_raw,
)


def f32_tensor(words, name="", shape=None):
    words = np.array(words, dtype=np.uint32)
    return WeightTensor(name, DType.F32, shape or (len(words),), words)


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
        assert parsed.non_finite_count == 1

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
        with pytest.raises(ValueError, match="mixed"):
            flatten(model)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
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


class TestValidation:
    def test_shape_product_mismatch(self):
        with pytest.raises(ValueError):
            WeightTensor("w", DType.F32, (3,), np.array([1, 2], dtype=np.uint32))

    def test_duplicate_tensor_names(self):
        with pytest.raises(ValueError):
            ModelWeights([f32_tensor([1], "w"), f32_tensor([2], "w")])


names = st.text(alphabet="abcdefghij_0123456789", min_size=1, max_size=8)


@st.composite
def models(draw, min_tensors=0):
    dtype = draw(st.sampled_from([DType.F32, DType.F16]))
    n_tensors = draw(st.integers(min_tensors, 4))
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


@given(models(min_tensors=1), metadata, st.booleans())
def test_save_model_streams_canonical_bytes(tmp_path_factory, model, meta, raw):
    model.metadata = meta
    suffix = (".f32" if model.tensors[0].dtype is DType.F32 else ".f16") if raw else ".safetensors"
    path = tmp_path_factory.mktemp("save") / f"m{suffix}"
    digest = save_model(model, path)
    data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    assert data == (write_raw(flatten(model)) if raw else write_container(model))
    assert model_digest(model) == hashlib.sha256(write_container(model)).hexdigest()
    assert parse_model(data, path) == load_model(path)


@given(models(), metadata)
def test_canonical_bytes_recognized(model, meta):
    model.metadata = meta
    data = write_container(model)
    assert is_canonical(read_container(data), data)


def test_noncanonical_bytes_recognized():
    model = ModelWeights([f32_tensor([1, 2], "w"), f32_tensor([3], "b")])
    header = json.dumps(
        {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
         "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]}}
    ).encode()  # the default separators put spaces into the header
    data = struct.pack("<Q", len(header)) + header + write_container(model)[-12:]
    parsed = read_container(data)
    assert parsed == model
    assert not is_canonical(parsed, data)
    raw = write_raw(flatten(model))
    assert not is_canonical(parse_model(raw, "m.f32"), raw)
    # a raw file that starts with the canonical header of its own parse
    header = write_container(ModelWeights([f32_tensor([0] * 64)]))[:-256]
    raw = header + bytes(256 - len(header))
    parsed = parse_model(raw, "m.f32")
    assert write_container(parsed).startswith(header)
    assert not is_canonical(parsed, raw)
