"""Property-based tests for the codec substrates."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.codecs.image import Image, Resolution
from repro.codecs.jpeg import JpegCodec
from repro.codecs.png import PngCodec
from repro.codecs.roi import RegionOfInterest, expand_to_blocks
from repro.codecs import entropy
from repro.errors import CorruptBitstreamError


def _image_strategy(min_size=8, max_size=40):
    def build(height, width, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 255, size=(height, width, 3))
        # Smooth slightly so content resembles natural images.
        smoothed = (base + np.roll(base, 1, axis=0) + np.roll(base, 1, axis=1)) // 3
        return Image(pixels=smoothed.astype(np.uint8))

    return st.builds(
        build,
        height=st.integers(min_size, max_size),
        width=st.integers(min_size, max_size),
        seed=st.integers(0, 10_000),
    )


class TestPngProperties:
    @given(image=_image_strategy())
    @settings(max_examples=25, deadline=None)
    def test_png_roundtrip_is_lossless(self, image):
        codec = PngCodec(strip_rows=8)
        decoded = codec.decode(codec.encode(image))
        np.testing.assert_array_equal(decoded.pixels, image.pixels)

    @given(image=_image_strategy(), rows=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_png_prefix_decode_matches_full(self, image, rows):
        codec = PngCodec(strip_rows=8)
        encoded = codec.encode(image)
        rows = min(rows, image.height)
        prefix = codec.decode_rows(encoded, rows)
        np.testing.assert_array_equal(prefix.pixels, image.pixels[:rows])


class TestJpegProperties:
    @given(image=_image_strategy(min_size=16, max_size=32),
           quality=st.integers(30, 95))
    @settings(max_examples=15, deadline=None)
    def test_jpeg_decode_shape_and_range(self, image, quality):
        codec = JpegCodec(quality=quality)
        decoded = codec.decode(codec.encode(image))
        assert decoded.pixels.shape == image.pixels.shape
        assert decoded.pixels.dtype == np.uint8

    @given(image=_image_strategy(min_size=24, max_size=32),
           left=st.integers(0, 12), top=st.integers(0, 12),
           width=st.integers(4, 12), height=st.integers(4, 12))
    @settings(max_examples=15, deadline=None)
    def test_jpeg_roi_decode_consistent_with_full(self, image, left, top, width,
                                                  height):
        codec = JpegCodec(quality=85)
        encoded = codec.encode(image)
        roi = RegionOfInterest(left, top, width, height).clamp_to(image.resolution)
        full = codec.decode(encoded)
        partial = codec.decode_roi(encoded, roi)
        offset_x = roi.left % 8
        offset_y = roi.top % 8
        from_partial = partial.pixels[offset_y:offset_y + roi.height,
                                      offset_x:offset_x + roi.width]
        from_full = full.pixels[roi.top:roi.bottom, roi.left:roi.right]
        np.testing.assert_array_equal(from_partial, from_full)


class TestEntropyProperties:
    @given(values=st.lists(st.integers(-300, 300), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_coefficient_coding_roundtrip(self, values):
        coeffs = np.array(values + [0] * (64 - len(values)), dtype=np.int16)[:64]
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )


def _packed_stream(num_blocks, seed):
    """Pack ``num_blocks`` random coefficient blocks, sparse to dense."""
    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(num_blocks):
        coeffs = np.zeros(64, dtype=np.int16)
        nonzero = int(rng.integers(0, 65))
        cells = rng.choice(64, size=nonzero, replace=False)
        # Magnitudes from 1 to 2**15 give 1-, 2- and 3-byte varints.
        values = rng.integers(-32768, 32768, size=nonzero) >> rng.integers(
            0, 16, size=nonzero)
        coeffs[cells] = values
        payloads.append(entropy.encode_coefficients(coeffs))
    return entropy.pack_blocks(payloads)


def _mutate(data, mutations):
    data = bytearray(data)
    for kind, position, byte in mutations:
        position %= len(data)
        if kind == "flip":
            data[position] ^= byte or 0x80
        elif kind == "delete":
            del data[position]
        elif kind == "insert":
            data.insert(position, byte)
        else:
            data.append(byte)
    return bytes(data)


def _assert_matches_reference(data, indices):
    """Batched block decode equals the per-block scalar decode, or both
    raise the same exception type."""
    def outcome(decode):
        try:
            return decode()
        except (CorruptBitstreamError, OverflowError) as exc:
            return type(exc)

    def reference():
        return np.stack([
            entropy.decode_coefficients(entropy.unpack_block(data, i), 64)
            for i in indices.tolist()
        ])

    def batched():
        chunks = list(entropy.decode_block_chunks(data, indices))
        assert all(len(c) <= entropy.DECODE_CHUNK_BLOCKS for c in chunks)
        return np.concatenate(chunks)

    expected, actual = outcome(reference), outcome(batched)
    if isinstance(expected, type):
        assert actual is expected
    else:
        assert not isinstance(actual, type), actual
        assert actual.dtype == np.int16
        np.testing.assert_array_equal(actual, expected)


def _block(nonzero_at=(0, 5, 63)):
    coeffs = np.zeros(64, dtype=np.int16)
    coeffs[list(nonzero_at)] = [40, -3, 1][:len(nonzero_at)]
    return entropy.encode_coefficients(coeffs)


_EOB = b"\xff\xff\x03"

# Blocks the batched decoder must hand to the scalar reference, one per
# canonical-form rule it checks.
_NON_CANONICAL = {
    "trailing bytes after end-of-block": _block() + b"\x01\x02" + _EOB,
    "value token where end-of-block belongs": _block((0, 5))[:-3] + b"\x01" + _EOB,
    "last token not end-of-block": _block()[:-3] + b"\x05",
    "unterminated end-of-block": _block()[:-1] + b"\x83",
    "open varint after end-of-block": _block() + b"\x81",
    "four-byte varint": b"\x00\x85\x80\x80\x01" + _EOB,
    "value above 0xFFFF": b"\x00\x80\x80\x04" + _EOB,
    "coefficient index 64": _block((63,))[:-3] + b"\x00\x02" + _EOB,
    "empty block": b"",
}


class TestBatchedBlockDecode:
    @given(num_blocks=st.one_of(
               st.integers(1, 40),
               st.integers(entropy.DECODE_CHUNK_BLOCKS + 1,
                           entropy.DECODE_CHUNK_BLOCKS + 40)),
           seed=st.integers(0, 10_000),
           step=st.integers(1, 3),
           mutations=st.lists(st.tuples(
               st.sampled_from(["flip", "delete", "insert", "append"]),
               st.integers(0, 2**32), st.integers(0, 255)), max_size=3))
    @example(num_blocks=entropy.DECODE_CHUNK_BLOCKS + 3, seed=1, step=1,
             mutations=[])
    @settings(max_examples=60, deadline=None)
    def test_batched_decode_matches_per_block_reference(
            self, num_blocks, seed, step, mutations):
        data = _mutate(_packed_stream(num_blocks, seed), mutations)
        _assert_matches_reference(data, np.arange(0, num_blocks, step))

    @pytest.mark.parametrize("payload", _NON_CANONICAL.values(),
                             ids=_NON_CANONICAL.keys())
    def test_non_canonical_block_matches_per_block_reference(self, payload):
        # The next block opens with a 0x00 byte (run 0), which a varint
        # left open by ``payload`` could swallow.
        data = entropy.pack_blocks([_block(), payload, _block((0, 2))])
        _assert_matches_reference(data, np.arange(3))

    def test_out_of_range_index_matches_per_block_reference(self):
        data = entropy.pack_blocks([_block(), _block()])
        _assert_matches_reference(data, np.array([0, 2]))

    def test_non_monotonic_offsets_match_per_block_reference(self):
        data = bytearray(entropy.pack_blocks([_block()] * 3))
        # Swap the offsets of blocks 1 and 2: block 1 now ends before it starts.
        data[12:16], data[16:20] = data[16:20], data[12:16]
        _assert_matches_reference(bytes(data), np.arange(3))


class TestRoiProperties:
    @given(left=st.integers(0, 500), top=st.integers(0, 370),
           width=st.integers(1, 200), height=st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_block_expansion_contains_and_aligns(self, left, top, width, height):
        resolution = Resolution(512, 384)
        roi = RegionOfInterest(left, top, width, height).clamp_to(resolution)
        aligned = expand_to_blocks(roi, resolution)
        assert aligned.left % 8 == 0 and aligned.top % 8 == 0
        assert aligned.contains(roi)
        assert aligned.right <= resolution.width
        assert aligned.bottom <= resolution.height
