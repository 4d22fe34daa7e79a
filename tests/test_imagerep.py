import math
import tracemalloc

import numpy as np
import pytest

from helpers import effective_fill_payload, f32_tensor, fourpart_oracle, make_tensor
from weightsteg import imagerep
from weightsteg.errors import FormatError
from weightsteg.imagerep import (
    KeptWords,
    grayscale_fourpart,
    normalize,
    read_pgm,
    render,
    resize,
    write_pgm,
)
from weightsteg.steg import Payload, lsb_attack
from weightsteg.weights_io import CHUNK_WORDS, DType, WeightTensor


def denormalize(img):
    """Inverse of normalize: scale to 0-255 and round."""
    img = np.asarray(img, dtype=np.float64)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("normalized pixels must lie in [0, 1]")
    return np.rint(img * 255.0).astype(np.uint8)


class TestGrayscaleFourpart:
    def test_single_weight(self):
        img = grayscale_fourpart(f32_tensor([0x3E200000]))
        assert img.tolist() == [[62, 32], [0, 0]]

    def test_all_zero(self):
        img = grayscale_fourpart(f32_tensor([0, 0, 0, 0]))
        assert img.shape == (4, 4)
        assert not img.any()

    def test_padding_to_next_square(self):
        img = grayscale_fourpart(f32_tensor([0xFFFFFFFF] * 5))
        assert img.shape == (6, 6)
        # plane ends are zero padding: positions 5..8 of each 3x3 plane
        top_left = img[:3, :3].reshape(-1)
        assert list(top_left) == [255] * 5 + [0] * 4

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 65))
            words = rng.integers(0, 2**32, size=n, dtype=np.uint64)
            assert np.array_equal(grayscale_fourpart(f32_tensor(words)), fourpart_oracle(words))

    def test_empty_rejected(self):
        with pytest.raises(FormatError, match="no words"):
            grayscale_fourpart(f32_tensor([]))

    def test_f16_unsupported(self):
        tensor = WeightTensor("", DType.F16, (1,), np.array([1], dtype=np.uint16))
        with pytest.raises(FormatError):
            grayscale_fourpart(tensor)

    def test_injective_on_padded_bytes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            words = rng.integers(0, 2**32, size=n, dtype=np.uint64)
            flipped = words.copy()
            pos = int(rng.integers(0, n))
            flipped[pos] ^= np.uint64(1) << np.uint64(rng.integers(0, 32))
            a = grayscale_fourpart(f32_tensor(words))
            b = grayscale_fourpart(f32_tensor(flipped))
            assert not np.array_equal(a, b)

    def test_attack_visibility_planes(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**32, size=16, dtype=np.uint64)
        cover = f32_tensor(words)
        base = grayscale_fourpart(cover)
        side = 4
        payload = Payload.synthetic(8, seed=3)
        for lsb, clean_quadrants in [(8, 3), (16, 2)]:
            filled = effective_fill_payload(payload.bits, cover.n, lsb)
            attacked_img = grayscale_fourpart(lsb_attack(cover, lsb, Payload(filled)))
            quads = [
                (base[:side, :side], attacked_img[:side, :side]),
                (base[:side, side:], attacked_img[:side, side:]),
                (base[side:, :side], attacked_img[side:, :side]),
                (base[side:, side:], attacked_img[side:, side:]),
            ]
            for before, after in quads[:clean_quadrants]:
                assert np.array_equal(before, after)
            for before, after in quads[clean_quadrants:]:
                assert not np.array_equal(before, after)


def padded_planes(words):
    """The four-part image from whole-array numpy operations."""
    n = len(words)
    side = math.isqrt(n - 1) + 1
    padded = np.zeros(side * side, dtype=np.uint32)
    padded[:n] = words
    p1, p2, p3, p4 = (((padded >> s) & 0xFF).astype(np.uint8).reshape(side, side)
                      for s in (24, 16, 8, 0))
    return np.block([[p1, p2], [p3, p4]])


class TestFullImage:
    @pytest.mark.parametrize("n", [CHUNK_WORDS - 1, CHUNK_WORDS + 1, 3 * CHUNK_WORDS + 17])
    def test_chunked_gather_matches_whole_array_planes(self, n):
        words = np.random.default_rng(n).integers(0, 2**32, size=n, dtype=np.uint64)
        tensor = f32_tensor(words)
        full = grayscale_fourpart(tensor)
        assert np.array_equal(full, padded_planes(words.astype(np.uint32)))
        # a render that taps every row and column takes the same gather
        side = full.shape[0]
        assert np.array_equal(render(tensor, side), full)

    def test_peak_memory(self):
        """A 4M-param full image gathers the zero-padded words by slicing,
        with no index grid over them: it peaks well under 100 MB traced."""
        words = np.random.default_rng(0).integers(0, 2**32, size=4_000_000, dtype=np.uint32)
        tensor = f32_tensor(words)
        tracemalloc.start()
        try:
            grayscale_fourpart(tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, peak / 1e6


class TestRender:
    def test_alternating_geometries(self):
        """Renders of interleaved (n, size) geometries in one process each equal
        the resized full image, so no render uses taps worked out for another
        geometry: n = side**2 and side**2 + 1, n = side**2 - 1 (the same side
        as side**2 with other padding), a 1-word model, sizes 1, 3 and 100,
        which tap every word of the small models and some of the large ones."""
        rng = np.random.default_rng(7)
        tensors = [f32_tensor(rng.integers(0, 2**32, size=n, dtype=np.uint64))
                   for n in (1, 15, 16, 17, 2500, 2501, 40_000, 40_001)]
        cases = [(tensor, size) for size in (1, 3, 100) for tensor in tensors]
        wants = [resize(grayscale_fourpart(tensor), size, size) for tensor, size in cases]
        for _ in range(2):  # the second pass in the reverse order
            for (tensor, size), want in zip(cases, wants):
                assert np.array_equal(render(tensor, size), want)
            cases, wants = cases[::-1], wants[::-1]

    @pytest.mark.parametrize("n, size", [
        *(pytest.param(n, 100, id=str(n)) for n in (39_999, 40_000, 40_001)),
        pytest.param(66_049, 129, id="66049-129"),
    ])
    def test_one_increasing_take_of_real_words(self, n, size):
        """A render asks its source once, for strictly increasing indices
        below n, whether or not n is a square (at 40_001 the side is 201 and
        99 tapped words lie past the last one) and whether it taps some words
        or every one (at 66_049 and size 129 it taps every row and column of
        the 257 x 257 words, more than CHUNK_WORDS): FileWords.take then
        takes only such indices."""
        tensor = f32_tensor(np.random.default_rng(n).integers(0, 2**32, size=n, dtype=np.uint64))
        asked = []

        class Spy:
            dtype, n = tensor.dtype, tensor.n

            def take(self, flat_indices):
                asked.append(np.asarray(flat_indices))
                return tensor.take(flat_indices)

        got = render(Spy(), size)
        assert np.array_equal(got, resize(grayscale_fourpart(tensor), size, size))
        assert len(asked) == 1
        flat = asked[0]
        assert flat.ndim == 1 and np.all(np.diff(flat) > 0) and 0 <= flat[0] and flat[-1] < n

    def test_kept_words_refuse_what_render_refuses(self):
        """KeptWords raises when it is built what a render of its source
        would raise, so a model that no render accepts is refused as it is read."""
        with pytest.raises(FormatError, match="requires float32"):
            KeptWords(make_tensor([1], DType.F16), 4)
        with pytest.raises(FormatError, match="no words"):
            KeptWords(f32_tensor([]), 4)
        with pytest.raises(ValueError, match="image dimensions must be >= 1"):
            KeptWords(f32_tensor([1]), 0)

    def test_kept_words_of_one_size_share_their_indices(self):
        """Kept models of one n and size share one read-only index array, the
        render plan's, so each holds little beyond its tapped words: sixteen
        10k-param models kept for 100 x 100 renders hold under 50 KB each,
        traced from an empty plan cache (10,000 words of 4 bytes each, and
        one 80 KB plan for all of them)."""
        rng = np.random.default_rng(5)
        tensors = [f32_tensor(rng.integers(0, 2**32, size=10_000, dtype=np.uint64))
                   for _ in range(16)]
        imagerep._render_plan.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [KeptWords(tensor, 100) for tensor in tensors]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(np.shares_memory(kept[0]._at, words._at) for words in kept[1:])
        assert not kept[0]._at.flags.writeable
        assert held / len(kept) < 50_000, held / len(kept)
        for words, tensor in zip(kept, tensors):
            assert np.array_equal(render(words, 100), render(tensor, 100))


class TestResize:
    def test_identity(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(7, 9), dtype=np.uint8)
        assert np.array_equal(resize(img, 7, 9), img)

    def test_downscale_rounds_half_to_even(self):
        img = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        assert resize(img, 1, 1).tolist() == [[128]]  # 127.5 rounds to even

    def test_constant_upscale(self):
        img = np.full((1, 1), 77, dtype=np.uint8)
        assert np.array_equal(resize(img, 5, 5), np.full((5, 5), 77))

    def test_hand_computed_downscale(self):
        img = np.array([[0, 10, 20], [30, 40, 50], [60, 70, 80]], dtype=np.uint8)
        assert resize(img, 2, 2).tolist() == [[10, 25], [55, 70]]

    def test_matches_naive_loop_oracle(self):
        def naive(img, th, tw):
            # per-pixel restatement of the rule: linear in x, then in y
            sh, sw = img.shape
            out = np.zeros((th, tw), dtype=np.uint8)
            for dy in range(th):
                for dx in range(tw):
                    # the scale ratio is one factor; grouping matters in floats
                    sy = min(max((dy + 0.5) * (sh / th) - 0.5, 0.0), sh - 1.0)
                    sx = min(max((dx + 0.5) * (sw / tw) - 0.5, 0.0), sw - 1.0)
                    y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                    y1, x1 = min(y0 + 1, sh - 1), min(x0 + 1, sw - 1)
                    wy, wx = sy - y0, sx - x0
                    top = img[y0, x0] * (1 - wx) + img[y0, x1] * wx
                    bottom = img[y1, x0] * (1 - wx) + img[y1, x1] * wx
                    out[dy, dx] = np.rint(top * (1 - wy) + bottom * wy)
            return out

        rng = np.random.default_rng(11)
        for _ in range(15):
            h, w = (int(v) for v in rng.integers(1, 15, size=2))
            th, tw = (int(v) for v in rng.integers(1, 15, size=2))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            assert np.array_equal(resize(img, th, tw), naive(img, th, tw))

    def test_output_within_source_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h, w = rng.integers(1, 12, size=2)
            th, tw = rng.integers(1, 12, size=2)
            img = rng.integers(40, 200, size=(h, w), dtype=np.uint8)
            out = resize(img, int(th), int(tw))
            assert out.min() >= img.min() and out.max() <= img.max()

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            resize(np.zeros((2, 2), dtype=np.uint8), 0, 2)


class TestNormalize:
    def test_endpoints(self):
        img = np.array([[0, 255, 51]], dtype=np.uint8)
        out = normalize(img)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 1.0
        assert out[0, 2] == 51 / 255

    def test_denormalize_inverts(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(13, 7), dtype=np.uint8)
        assert np.array_equal(denormalize(normalize(img)), img)

    def test_denormalize_range_check(self):
        with pytest.raises(ValueError):
            denormalize(np.array([[1.5]]))


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, size=(5, 8), dtype=np.uint8)
        write_pgm(img, tmp_path / "i.pgm")
        assert np.array_equal(read_pgm(tmp_path / "i.pgm"), img)

    def test_exact_encoding(self, tmp_path):
        img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        write_pgm(img, tmp_path / "i.pgm")
        assert (tmp_path / "i.pgm").read_bytes() == b"P5\n2 2\n255\n\x01\x02\x03\x04"

    def test_comments_and_whitespace(self, tmp_path):
        (tmp_path / "i.pgm").write_bytes(b"P5 # comment\n# more\n 2\t2\n255\n\x01\x02\x03\x04")
        assert read_pgm(tmp_path / "i.pgm").tolist() == [[1, 2], [3, 4]]

    def test_unsupported_maxval(self, tmp_path):
        (tmp_path / "i.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(tmp_path / "i.pgm")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "i.pgm").write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "i.pgm")

    def test_truncated_pixels(self, tmp_path):
        (tmp_path / "i.pgm").write_bytes(b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "i.pgm")
