"""Tests for the JPEG-like codec and macroblock ROI decoding."""

import hashlib

import numpy as np
import pytest

from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.codecs.roi import RegionOfInterest
from repro.datasets.synthetic import SyntheticImageGenerator
from repro.errors import CodecError


def _odd_size_image() -> Image:
    return Image(pixels=np.random.default_rng(0).integers(
        0, 255, size=(13, 21, 3)).astype(np.uint8))


def _digest(image: Image) -> tuple[tuple[int, ...], str]:
    pixels = np.ascontiguousarray(image.pixels)
    return pixels.shape, hashlib.sha256(pixels.tobytes()).hexdigest()


class TestEncodeDecode:
    def test_roundtrip_preserves_shape(self, small_image):
        codec = JpegCodec(quality=90)
        decoded = codec.decode(codec.encode(small_image))
        assert decoded.pixels.shape == small_image.pixels.shape

    def test_high_quality_has_high_psnr(self, small_image):
        codec = JpegCodec(quality=95)
        decoded = codec.decode(codec.encode(small_image))
        assert small_image.psnr(decoded) > 30.0

    def test_lower_quality_is_smaller_and_worse(self, small_image):
        hi = JpegCodec(quality=95)
        lo = JpegCodec(quality=40)
        encoded_hi = hi.encode(small_image)
        encoded_lo = lo.encode(small_image)
        assert encoded_lo.compressed_bytes < encoded_hi.compressed_bytes
        psnr_hi = small_image.psnr(hi.decode(encoded_hi))
        psnr_lo = small_image.psnr(lo.decode(encoded_lo))
        assert psnr_lo < psnr_hi

    def test_compression_beats_raw_size(self, small_image):
        encoded = JpegCodec(quality=75).encode(small_image)
        assert encoded.compressed_bytes < small_image.pixels.nbytes

    def test_invalid_quality_rejected(self):
        with pytest.raises(CodecError):
            JpegCodec(quality=0)

    def test_block_grid_dimensions(self, small_image):
        encoded = JpegCodec().encode(small_image)
        assert encoded.blocks_x == 8   # 64 / 8
        assert encoded.blocks_y == 6   # 48 / 8
        assert encoded.num_blocks == 8 * 6 * 3

    def test_non_multiple_of_eight_dimensions(self):
        image = _odd_size_image()
        codec = JpegCodec(quality=90)
        decoded = codec.decode(codec.encode(image))
        assert decoded.pixels.shape == image.pixels.shape


class TestRoiDecoding:
    def test_roi_matches_full_decode_region(self, small_image):
        codec = JpegCodec(quality=90)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(left=16, top=8, width=24, height=16)
        full = codec.decode(encoded)
        partial = codec.decode_roi(encoded, roi)
        # The ROI decode covers the block-aligned expansion of the request;
        # the requested region must appear at the offset within it.
        offset_x = roi.left - (roi.left // 8) * 8
        offset_y = roi.top - (roi.top // 8) * 8
        region_from_partial = partial.pixels[
            offset_y:offset_y + roi.height, offset_x:offset_x + roi.width
        ]
        region_from_full = full.pixels[
            roi.top:roi.top + roi.height, roi.left:roi.left + roi.width
        ]
        np.testing.assert_array_equal(region_from_partial, region_from_full)

    def test_roi_decode_touches_fewer_blocks(self, small_image):
        codec = JpegCodec(quality=90)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(left=0, top=0, width=16, height=16)
        fraction = codec.decoded_block_fraction(encoded, roi)
        assert 0.0 < fraction < 0.2

    def test_full_frame_roi_fraction_is_one(self, small_image):
        codec = JpegCodec(quality=90)
        encoded = codec.encode(small_image)
        roi = RegionOfInterest(0, 0, small_image.width, small_image.height)
        assert codec.decoded_block_fraction(encoded, roi) == pytest.approx(1.0)


class TestGoldenDecode:
    """Decoded pixels pinned to the scalar per-block decoder's output.

    The digests were computed before decode was batched.  A change to any
    of them is a decoder bug; they are never re-pinned.
    """

    @pytest.fixture(scope="class")
    def encoded_375(self):
        image = SyntheticImageGenerator(
            num_classes=4, image_size=375, seed=7
        ).generate_image(1, 3)
        return JpegCodec(quality=95).encode(image)

    def test_full_decode(self, encoded_375):
        assert _digest(JpegCodec(quality=95).decode(encoded_375)) == (
            (375, 375, 3),
            "c24bfb8df7427beb77b965e41bf20932c82ef35184ada555a9b75ef7a0661cc3",
        )

    @pytest.mark.parametrize("roi, expected", [
        (RegionOfInterest(17, 33, 100, 71), (
            (72, 104, 3),
            "aab28c0e1460a09b9a8bcfedd65661919d41a6c009fb32732a0f4e4366d5dfa5",
        )),
        (RegionOfInterest(301, 290, 74, 85), (
            (87, 79, 3),
            "11edde76ccf0a939d9ec38f95d3583157e9943703247f83143e1647eb205f3b7",
        )),
    ])
    def test_off_grid_roi_decode(self, encoded_375, roi, expected):
        decoded = JpegCodec(quality=95).decode_roi(encoded_375, roi)
        assert _digest(decoded) == expected

    def test_odd_size_decode(self):
        codec = JpegCodec(quality=90)
        assert _digest(codec.decode(codec.encode(_odd_size_image()))) == (
            (13, 21, 3),
            "35f59cc84ebf268ca412a1356e15eef836b06f9e953df977554bfb7a21268616",
        )
