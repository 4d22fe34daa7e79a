import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weightsteg.errors import CapacityError
from weightsteg.steg import (
    AttackSpec,
    FillWords,
    LsbWords,
    Payload,
    effective_fill_payload,
    embedding_rate,
    embedding_rate_general,
    extract_lsb,
    lsb_attack,
    lsb_attack_fill,
)
from weightsteg.weights_io import CHUNK_WORDS, DType, WeightTensor


def splice_oracle(words, word_bits, lsb, bitstring):
    """Straight-from-the-definition reference: keep the top s-X bits, place
    each payload chunk MSB-first in the low field; a short final chunk covers
    only the topmost bits of the field."""
    out = [format(w, f"0{word_bits}b") for w in words]
    k = len(bitstring)
    assert k <= len(words) * lsb
    n_chunks = math.ceil(k / lsb)
    for i in range(n_chunks):
        chunk = bitstring[i * lsb : min((i + 1) * lsb, k)]
        head = out[i][: word_bits - lsb]
        field = out[i][word_bits - lsb :]
        out[i] = head + chunk + field[len(chunk) :]
    return [int(b, 2) for b in out]


def make_tensor(words, dtype=DType.F32):
    words = np.array(words, dtype=dtype.word_dtype)
    return WeightTensor("", dtype, (len(words),), words)


def random_tensor(rng, n, dtype=DType.F32):
    words = rng.integers(0, 2**dtype.word_bits, size=n, dtype=np.uint64)
    return make_tensor(words, dtype)


class TestLsbAttack:
    def test_two_weight_example(self):
        cover = make_tensor([0b00, 0b00])
        out = lsb_attack(cover, 2, Payload.from_bitstring("1011"))
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
            lsb_attack(cover, 1, Payload.from_bitstring("10"))

    def test_lsb_out_of_range(self):
        cover = make_tensor([0])
        with pytest.raises(ValueError):
            lsb_attack(cover, 0, Payload.from_bitstring("1"))
        with pytest.raises(ValueError):
            lsb_attack(cover, 33, Payload.from_bitstring("1"))

    def test_empty_payload_is_noop(self):
        cover = make_tensor([123, 456])
        out = lsb_attack(cover, 4, Payload.from_bitstring(""))
        assert np.array_equal(out.bits, cover.bits)

    def test_partial_last_chunk_keeps_low_cover_bits(self):
        cover = make_tensor([0b111111, 0b111111])
        out = lsb_attack(cover, 3, Payload.from_bitstring("1010"))
        # chunk 2 is the single bit 0; it lands in the top of the 3-bit field
        assert [int(w) & 0b111 for w in out.bits] == [0b101, 0b011]

    def test_weights_beyond_payload_untouched(self):
        rng = np.random.default_rng(2)
        cover = random_tensor(rng, 10)
        out = lsb_attack(cover, 4, Payload.from_bitstring("10110"))
        # 5 bits at X=4 touch ceil(5/4) = 2 weights
        assert np.array_equal(out.bits[2:], cover.bits[2:])

    def test_matches_oracle_f16(self):
        rng = np.random.default_rng(3)
        cover = random_tensor(rng, 4, DType.F16)
        bits = "".join(map(str, rng.integers(0, 2, size=30)))
        out = lsb_attack(cover, 9, Payload.from_bitstring(bits))
        assert list(out.bits) == splice_oracle(cover.bits, 16, 9, bits)


class TestFill:
    def test_repeat_and_truncate(self):
        effective = effective_fill_payload(Payload.from_bitstring("1011").bits, 4, 2)
        assert "".join(map(str, effective)) == "10111011"

    def test_exact_fit_unchanged(self):
        bits = Payload.from_bitstring("110010").bits
        assert np.array_equal(effective_fill_payload(bits, 3, 2), bits)

    def test_long_payload_prefix(self):
        bits = Payload.from_bitstring("11001010").bits
        assert np.array_equal(effective_fill_payload(bits, 2, 2), bits[:4])

    def test_every_weight_carries_payload(self):
        rng = np.random.default_rng(4)
        cover = random_tensor(rng, 7)
        out = lsb_attack_fill(cover, 5, Payload.from_bitstring("101"))
        expected_bits = "".join(
            map(str, effective_fill_payload(Payload.from_bitstring("101").bits, 7, 5))
        )
        assert list(out.bits) == splice_oracle(cover.bits, 32, 5, expected_bits)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            lsb_attack_fill(make_tensor([1]), 2, Payload.from_bitstring(""))

    def test_fill_idempotent(self):
        rng = np.random.default_rng(5)
        cover = random_tensor(rng, 9)
        payload = Payload.synthetic(4, seed=0)
        once = lsb_attack_fill(cover, 6, payload)
        twice = lsb_attack_fill(once, 6, payload)
        assert np.array_equal(once.bits, twice.bits)


class TestExtract:
    def test_roundtrip_example(self):
        rng = np.random.default_rng(6)
        cover = random_tensor(rng, 8)
        payload = Payload.from_bitstring("110100111")
        out = lsb_attack(cover, 3, payload)
        assert extract_lsb(out, 3, payload.k) == payload

    def test_zero_bits(self):
        assert extract_lsb(make_tensor([1]), 4, 0).k == 0

    def test_fill_extraction_matches_effective_payload(self):
        rng = np.random.default_rng(7)
        cover = random_tensor(rng, 6)
        payload = Payload.from_bitstring("10011")
        attacked = lsb_attack_fill(cover, 4, payload)
        expected = effective_fill_payload(payload.bits, 6, 4)
        assert np.array_equal(extract_lsb(attacked, 4, 24).bits, expected)

    def test_request_beyond_capacity(self):
        with pytest.raises(ValueError):
            extract_lsb(make_tensor([1, 2]), 2, 5)


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
            out = lsb_attack_fill(cover, lsb, payload)
            assert np.array_equal(cover.bits & mask, out.bits & mask)


class TestEmbeddingRate:
    def test_half(self):
        assert embedding_rate(16, 32) == 0.5

    def test_quarter(self):
        assert embedding_rate(8, 32) == 0.25

    def test_full(self):
        assert embedding_rate(32, 32) == 1.0

    def test_general_matches_fill_form(self):
        for n in (1, 3, 17):
            for lsb in (1, 5, 32):
                assert embedding_rate(lsb, 32) == embedding_rate_general(n * lsb, n, 32)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            embedding_rate_general(1, 0, 32)

    def test_bounds(self):
        with pytest.raises(ValueError):
            embedding_rate(0, 32)
        with pytest.raises(ValueError):
            embedding_rate_general(65, 2, 32)


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
    def test_mantissa_guard(self):
        spec = AttackSpec(24, True, Payload.from_bitstring("1"))
        with pytest.raises(ValueError, match="mantissa"):
            spec.validate_for(DType.F32)
        AttackSpec(24, True, Payload.from_bitstring("1"), mantissa_only=False).validate_for(
            DType.F32
        )

    def test_apply_dispatch(self):
        cover = make_tensor([0, 0, 0])
        payload = Payload.from_bitstring("11")
        plain = AttackSpec(1, False, payload).words(cover).rewrite(cover.bits, 0)
        filled = AttackSpec(1, True, payload).words(cover).rewrite(cover.bits, 0)
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
    filled = lsb_attack_fill(cover, lsb, Payload(bits))
    expected = lsb_attack(cover, lsb, effective_fill_payload(bits, n, lsb))
    assert filled.dtype is dtype
    assert np.array_equal(filled.bits, expected.bits)


@pytest.mark.parametrize("lsb,k", [(2, 2 * CHUNK_WORDS + 1), (3, CHUNK_WORDS + 1)])
def test_fill_period_longer_than_a_block(lsb, k):
    """A period of more than CHUNK_WORDS words is built block by block and
    still equals the plain attack on the effective stream."""
    rng = np.random.default_rng(k)
    n = 3 * CHUNK_WORDS + 7
    cover = random_tensor(rng, n)
    bits = rng.integers(0, 2, size=k, dtype=np.uint8)
    words = FillWords(cover, lsb, Payload(bits))
    assert len(words.fields) == k > CHUNK_WORDS
    expected = lsb_attack(cover, lsb, effective_fill_payload(bits, n, lsb))
    assert np.array_equal(lsb_attack_fill(cover, lsb, Payload(bits)).bits, expected.bits)


def test_fill_period_table_peak_memory():
    """Building one period of field values allocates little beyond the table:
    a 1M-word cover at X = 8 under a 4 MB payload (a 1M-word period)."""
    rng = np.random.default_rng(6)
    cover = random_tensor(rng, 1_000_000)
    payload = Payload.synthetic(4_000_000, 6)
    tracemalloc.start()
    try:
        words = FillWords(cover, 8, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words.fields) == cover.n
    assert peak < 1.5 * words.fields.nbytes, peak / words.fields.nbytes


@given(attack_cases(), st.lists(st.integers(0, 24), max_size=5), st.booleans())
def test_rewrite_of_runs_equals_whole_attack(case, cuts, fill):
    """Rewriting the cover run by run, each run at its flat offset, gives the
    words of attacking it whole: chunks may split a field period or the
    partial final chunk anywhere."""
    dtype, n, lsb, k, seed = case
    rng = np.random.default_rng(seed)
    cover = random_tensor(rng, n, dtype)
    payload = Payload(rng.integers(0, 2, size=max(k, 1) if fill else k, dtype=np.uint8))
    words = (FillWords if fill else LsbWords)(cover, lsb, payload)
    whole = (lsb_attack_fill if fill else lsb_attack)(cover, lsb, payload)
    bounds = sorted({0, n, *(c for c in cuts if c <= n)})
    runs = [words.rewrite(cover.bits[lo:hi], lo) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(runs), whole.bits)
    if fill:
        idx = rng.integers(0, n, size=(2, 3))
        assert np.array_equal(words.take(idx), whole.bits[idx])
