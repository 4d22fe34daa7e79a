import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import effective_fill_payload, from_bitstring, make_tensor, random_tensor
from helpers import splice_oracle
from test_words import case_of, cases, check_source
from weightsteg.errors import CapacityError
from weightsteg.steg import (
    AttackSpec,
    LsbWords,
    Payload,
    extract_lsb,
    lsb_attack,
)
from weightsteg.weights_io import (
    CHUNK_WORDS,
    DType,
    ModelWeights,
    WeightTensor,
    flatten,
    open_words,
    write_container,
)


class TestLsbAttack:
    def test_two_weight_example(self):
        cover = make_tensor([0b00, 0b00])
        out = lsb_attack(cover, 2, from_bitstring("1011"))
        assert [int(w) & 0b11 for w in out.bits] == [0b10, 0b11]

    def test_full_width_substitution(self):
        rng = np.random.default_rng(1)
        cover = random_tensor(rng, 3)
        payload = Payload(rng.integers(0, 2, size=96, dtype=np.uint8))
        out = lsb_attack(cover, 32, payload)
        expected = splice_oracle(cover.bits, 32, 32, "".join(map(str, payload.bits)))
        assert list(out.bits) == expected

    def test_capacity_guard(self):
        cover = make_tensor([0])
        with pytest.raises(CapacityError):
            lsb_attack(cover, 1, from_bitstring("10"))

    def test_lsb_out_of_range(self):
        cover = make_tensor([0])
        with pytest.raises(ValueError):
            lsb_attack(cover, 0, from_bitstring("1"))
        with pytest.raises(ValueError):
            lsb_attack(cover, 33, from_bitstring("1"))

    def test_empty_payload_is_noop(self):
        cover = make_tensor([123, 456])
        out = lsb_attack(cover, 4, from_bitstring(""))
        assert np.array_equal(out.bits, cover.bits)

    def test_partial_last_chunk_keeps_low_cover_bits(self):
        cover = make_tensor([0b111111, 0b111111])
        out = lsb_attack(cover, 3, from_bitstring("1010"))
        # chunk 2 is the single bit 0; it lands in the top of the 3-bit field
        assert [int(w) & 0b111 for w in out.bits] == [0b101, 0b011]

    def test_weights_beyond_payload_untouched(self):
        rng = np.random.default_rng(2)
        cover = random_tensor(rng, 10)
        out = lsb_attack(cover, 4, from_bitstring("10110"))
        # 5 bits at X=4 touch ceil(5/4) = 2 weights
        assert np.array_equal(out.bits[2:], cover.bits[2:])

    def test_matches_oracle_f16(self):
        rng = np.random.default_rng(3)
        cover = random_tensor(rng, 4, DType.F16)
        bits = "".join(map(str, rng.integers(0, 2, size=30)))
        out = lsb_attack(cover, 9, from_bitstring(bits))
        assert list(out.bits) == splice_oracle(cover.bits, 16, 9, bits)


class TestFill:
    def test_repeat_and_truncate(self):
        effective = effective_fill_payload(from_bitstring("1011").bits, 4, 2)
        assert "".join(map(str, effective)) == "10111011"

    def test_exact_fit_unchanged(self):
        bits = from_bitstring("110010").bits
        assert np.array_equal(effective_fill_payload(bits, 3, 2), bits)

    def test_long_payload_prefix(self):
        bits = from_bitstring("11001010").bits
        assert np.array_equal(effective_fill_payload(bits, 2, 2), bits[:4])

    def test_every_weight_carries_payload(self):
        rng = np.random.default_rng(4)
        cover = random_tensor(rng, 7)
        out = AttackSpec(5, True, from_bitstring("101")).words(cover).take(np.arange(7))
        expected_bits = "".join(
            map(str, effective_fill_payload(from_bitstring("101").bits, 7, 5))
        )
        assert list(out) == splice_oracle(cover.bits, 32, 5, expected_bits)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            LsbWords(make_tensor([1]), 2, from_bitstring(""), fill=True)

    def test_fill_idempotent(self):
        rng = np.random.default_rng(5)
        cover = random_tensor(rng, 9)
        payload = Payload.synthetic(4, seed=0)
        once = AttackSpec(6, True, payload).words(cover).take(np.arange(9))
        twice = AttackSpec(6, True, payload).words(cover.with_bits(once)).take(np.arange(9))
        assert np.array_equal(once, twice)


class TestExtract:
    def test_roundtrip_example(self):
        rng = np.random.default_rng(6)
        cover = random_tensor(rng, 8)
        payload = from_bitstring("110100111")
        out = lsb_attack(cover, 3, payload)
        assert extract_lsb(out, 3, payload.k) == payload

    def test_zero_bits(self):
        assert extract_lsb(make_tensor([1]), 4, 0).k == 0

    def test_fill_extraction_matches_effective_payload(self):
        rng = np.random.default_rng(7)
        cover = random_tensor(rng, 6)
        payload = from_bitstring("10011")
        attacked = AttackSpec(4, True, payload).words(cover)
        expected = effective_fill_payload(payload.bits, 6, 4)
        assert np.array_equal(extract_lsb(attacked, 4, 24).bits, expected)

    def test_request_beyond_capacity(self):
        with pytest.raises(ValueError):
            extract_lsb(make_tensor([1, 2]), 2, 5)


def broadcast_extract(words, lsb, n_bits):
    """Reference: every field's bits at once, through (fields, lsb) uint64 arrays."""
    fields = np.asarray(words[: math.ceil(n_bits / lsb)]).astype(np.uint64)
    shifts = np.arange(lsb - 1, -1, -1, dtype=np.uint64)
    return ((fields[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)[:n_bits]


@pytest.mark.parametrize("dtype", [DType.F32, DType.F16])
@pytest.mark.parametrize(
    "lsb,n_bits",
    [(1, 1), (3, 3 * CHUNK_WORDS + 2), (8, 8 * CHUNK_WORDS), (7, 7 * (CHUNK_WORDS + 40) - 5)],
)
def test_extract_equals_broadcast_formula(dtype, lsb, n_bits):
    """Chunked extraction gives the reference's bits, also for a short final
    field and for fields on both sides of a CHUNK_WORDS boundary."""
    cover = random_tensor(np.random.default_rng(lsb), CHUNK_WORDS + 100, dtype)
    got = extract_lsb(cover, lsb, n_bits)
    assert np.array_equal(got.bits, broadcast_extract(cover.bits, lsb, n_bits))


def test_extract_from_file_words_across_a_chunk(tmp_path):
    """A FileWords source over two tensors, read across a CHUNK_WORDS
    boundary, gives the reference's bits of the flat words."""
    rng = np.random.default_rng(9)
    words = random_tensor(rng, CHUNK_WORDS + 500).bits
    head = CHUNK_WORDS - 3
    path = tmp_path / "m.safetensors"
    path.write_bytes(write_container(ModelWeights([
        WeightTensor("a", DType.F32, (head,), words[:head]),
        WeightTensor("b", DType.F32, (len(words) - head,), words[head:]),
    ])))
    n_bits = 5 * (CHUNK_WORDS + 200) - 2
    with open_words(path) as source:
        got = extract_lsb(source, 5, n_bits)
    assert np.array_equal(got.bits, broadcast_extract(words, 5, n_bits))


def test_extract_peak_memory():
    """Extracting holds about one byte per extracted bit: the whole X = 8
    capacity of a 1M-word cover (8M bits) peaks below 2 bytes a bit traced."""
    cover = random_tensor(np.random.default_rng(4), 1_000_000)
    n_bits = 8 * cover.n
    tracemalloc.start()
    try:
        payload = extract_lsb(cover, 8, n_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload.k == n_bits
    assert peak < 2 * n_bits, peak / n_bits


class TestPreservation:
    @pytest.mark.parametrize(
        "dtype,mask",
        [(DType.F32, 0xFF800000), (DType.F16, 0xFC00)],
    )
    def test_sign_exponent_untouched_within_mantissa(self, dtype, mask):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            lsb = int(rng.integers(1, dtype.mantissa_bits + 1))
            cover = random_tensor(rng, n, dtype)
            payload = Payload(rng.integers(0, 2, size=n * lsb, dtype=np.uint8))
            out = AttackSpec(lsb, True, payload).words(cover).take(np.arange(n))
            assert np.array_equal(cover.bits & mask, out & mask)


class TestPayload:
    def test_bytes_roundtrip(self):
        payload = Payload.from_bytes(b"\xa5\x01")
        assert payload.k == 16
        assert payload.to_bytes() == b"\xa5\x01"
        assert list(payload.bits[:8]) == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_synthetic_deterministic(self):
        assert Payload.synthetic(16, 3) == Payload.synthetic(16, 3)
        assert Payload.synthetic(16, 3) != Payload.synthetic(16, 4)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            Payload(np.array([0, 2], dtype=np.uint8))

    def test_file_roundtrip(self, tmp_path):
        data = bytes(range(32))
        (tmp_path / "p.bin").write_bytes(data)
        assert Payload.from_file(tmp_path / "p.bin").to_bytes() == data


class TestAttackSpec:
    @pytest.mark.parametrize("lsb", [0, -3])
    def test_severity_below_one_refused_when_built(self, lsb):
        with pytest.raises(ValueError, match=f"lsb must be at least 1, got {lsb}"):
            AttackSpec(lsb, True, from_bitstring("1"))

    def test_mantissa_guard(self):
        spec = AttackSpec(24, True, from_bitstring("1"))
        with pytest.raises(ValueError, match="mantissa"):
            spec.validate_for(DType.F32)
        AttackSpec(24, True, from_bitstring("1"), mantissa_only=False).validate_for(
            DType.F32
        )

    def test_apply_dispatch(self):
        cover = make_tensor([0, 0, 0])
        payload = from_bitstring("11")
        out = np.empty_like(cover.bits)
        plain = AttackSpec(1, False, payload).words(cover).rewrite(cover.bits, 0, out.copy())
        filled = AttackSpec(1, True, payload).words(cover).rewrite(cover.bits, 0, out.copy())
        assert [int(w) & 1 for w in plain] == [1, 1, 0]
        assert [int(w) & 1 for w in filled] == [1, 1, 1]


@st.composite
def attack_cases(draw):
    dtype = draw(st.sampled_from([DType.F32, DType.F16]))
    n = draw(st.integers(1, 24))
    lsb = draw(st.integers(1, dtype.word_bits))
    k = draw(st.integers(0, n * lsb))
    seed = draw(st.integers(0, 2**16))
    return dtype, n, lsb, k, seed


@given(attack_cases())
def test_extract_inverts_embed(case):
    dtype, n, lsb, k, seed = case
    rng = np.random.default_rng(seed)
    cover = random_tensor(rng, n, dtype)
    payload = Payload(rng.integers(0, 2, size=k, dtype=np.uint8))
    attacked = lsb_attack(cover, lsb, payload)
    assert extract_lsb(attacked, lsb, k) == payload
    # untouched trailing weights
    n_chunks = math.ceil(k / lsb)
    assert np.array_equal(attacked.bits[n_chunks:], cover.bits[n_chunks:])


@given(attack_cases())
def test_attack_matches_string_oracle(case):
    dtype, n, lsb, k, seed = case
    rng = np.random.default_rng(seed)
    cover = random_tensor(rng, n, dtype)
    bits = rng.integers(0, 2, size=k, dtype=np.uint8)
    attacked = lsb_attack(cover, lsb, Payload(bits))
    expected = splice_oracle(cover.bits, dtype.word_bits, lsb, "".join(map(str, bits)))
    assert list(attacked.bits) == expected


@st.composite
def fill_cases(draw):
    dtype = draw(st.sampled_from([DType.F32, DType.F16]))
    n = draw(st.integers(1, 40))
    lsb = draw(st.integers(1, dtype.word_bits))
    capacity = n * lsb
    # payload shorter than one field, within capacity, or longer than capacity
    k = draw(st.one_of(st.integers(1, lsb), st.integers(1, capacity),
                       st.integers(capacity + 1, 2 * capacity + 70)))
    seed = draw(st.integers(0, 2**16))
    return dtype, n, lsb, k, seed


@given(fill_cases())
def test_fill_equals_attack_on_effective_payload(case):
    """The periodic fill is exactly the plain attack on the specified stream,
    including when one period (k / gcd(k, lsb) words) exceeds the model."""
    dtype, n, lsb, k, seed = case
    rng = np.random.default_rng(seed)
    cover = random_tensor(rng, n, dtype)
    bits = rng.integers(0, 2, size=k, dtype=np.uint8)
    filled = LsbWords(cover, lsb, Payload(bits), fill=True).take(np.arange(n))
    expected = lsb_attack(cover, lsb, effective_fill_payload(bits, n, lsb))
    assert filled.dtype == dtype.word_dtype
    assert np.array_equal(filled, expected.bits)


@pytest.mark.parametrize("lsb,k", [(2, 2 * CHUNK_WORDS + 1), (3, CHUNK_WORDS + 1)])
def test_fill_period_longer_than_a_block(lsb, k):
    """A period of more than CHUNK_WORDS words is built block by block and
    still equals the plain attack on the effective stream."""
    rng = np.random.default_rng(k)
    n = 3 * CHUNK_WORDS + 7
    cover = random_tensor(rng, n)
    bits = rng.integers(0, 2, size=k, dtype=np.uint8)
    words = LsbWords(cover, lsb, Payload(bits), fill=True)
    assert len(words.fields) == k > CHUNK_WORDS
    expected = lsb_attack(cover, lsb, effective_fill_payload(bits, n, lsb))
    assert np.array_equal(words.rewrite(cover.bits, 0, np.empty_like(cover.bits)), expected.bits)


def test_fill_period_table_peak_memory():
    """Building one period of field values allocates little beyond the table:
    a 1M-word cover at X = 8 under a 4 MB payload (a 1M-word period)."""
    rng = np.random.default_rng(6)
    cover = random_tensor(rng, 1_000_000)
    payload = Payload.synthetic(4_000_000, 6)
    tracemalloc.start()
    try:
        words = LsbWords(cover, 8, payload, fill=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words.fields) == cover.n
    assert peak < 1.5 * words.fields.nbytes, peak / words.fields.nbytes


def test_plain_field_table_peak_memory():
    """The plain attack's table holds one field per payload chunk and its
    build allocates little beyond it: a 1M-word cover at X = 7 under a 0.8 MB
    payload (914,286 chunks, the last one short)."""
    rng = np.random.default_rng(6)
    cover = random_tensor(rng, 1_000_000)
    payload = Payload.synthetic(800_000, 6)
    tracemalloc.start()
    try:
        words = LsbWords(cover, 7, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words.fields) == math.ceil(payload.k / 7) == 914_286
    assert peak < 1.5 * words.fields.nbytes, peak / words.fields.nbytes


@given(case=cases(), fill=st.booleans())
def test_rewrite_of_runs_equals_whole_attack(tmp_path_factory, case, fill):
    """Rewriting the cover run by run, each run at its flat offset, gives the
    words of attacking it whole: chunks may split a field period or the
    partial final chunk anywhere (check_source), and those words are
    lsb_attack's, of the fill attack's effective stream when it fills."""
    want = check_source(tmp_path_factory, "fill(tensor)" if fill else "plain(tensor)", case)
    cover = flatten(ModelWeights(case.tensors))
    bits = effective_fill_payload(case.fill, cover.n, case.lsb) if fill else case.plain
    assert np.array_equal(lsb_attack(cover, case.lsb, Payload(bits)).bits, want)


@pytest.mark.parametrize("lsb,k", [(8, 8 * 3000 - 3), (23, 1001), (2, 0)])
def test_plain_words_render_as_the_attacked_model(tmp_path_factory, lsb, k):
    """AttackSpec.words of a plain attack renders the image of lsb_attack's
    words, at the native size and resized (check_source)."""
    for size in (142, 50, 9):  # 5000 words: a 142 x 142 fourpart image
        case = case_of([(5000,)], size=size, lsb=lsb, plain=k)
        want = check_source(tmp_path_factory, "plain(tensor)", case)
    attacked = lsb_attack(flatten(ModelWeights(case.tensors)), lsb, Payload(case.plain))
    assert np.array_equal(attacked.bits, want)
