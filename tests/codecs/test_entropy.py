"""Tests for the run-length / varint entropy coder."""

import numpy as np
import pytest

from repro.codecs import entropy
from repro.errors import CorruptBitstreamError


class TestCoefficientCoding:
    def test_roundtrip_dense(self):
        coeffs = np.arange(-32, 32, dtype=np.int16)
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )

    def test_roundtrip_sparse(self):
        coeffs = np.zeros(64, dtype=np.int16)
        coeffs[0] = 100
        coeffs[17] = -5
        coeffs[63] = 3
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )

    def test_sparse_blocks_compress_better(self):
        sparse = np.zeros(64, dtype=np.int16)
        sparse[0] = 12
        dense = np.arange(1, 65, dtype=np.int16)
        assert len(entropy.encode_coefficients(sparse)) < len(
            entropy.encode_coefficients(dense)
        )

    def test_all_zero_block(self):
        coeffs = np.zeros(64, dtype=np.int16)
        payload = entropy.encode_coefficients(coeffs)
        np.testing.assert_array_equal(
            entropy.decode_coefficients(payload, 64), coeffs
        )

    def test_truncated_payload_rejected(self):
        payload = entropy.encode_coefficients(np.arange(64, dtype=np.int16))
        with pytest.raises(CorruptBitstreamError):
            entropy.decode_coefficients(payload[:2], 64)


class TestBlockPacking:
    def test_pack_and_unpack_each_block(self):
        payloads = [
            entropy.encode_coefficients(
                np.full(64, i, dtype=np.int16)
            )
            for i in range(5)
        ]
        packed = entropy.pack_blocks(payloads)
        assert entropy.block_count(packed) == 5
        for i in range(5):
            decoded = entropy.decode_coefficients(entropy.unpack_block(packed, i), 64)
            assert decoded[0] == i

    def test_out_of_range_block_rejected(self):
        packed = entropy.pack_blocks(
            [entropy.encode_coefficients(np.zeros(64, dtype=np.int16))]
        )
        with pytest.raises(CorruptBitstreamError):
            entropy.unpack_block(packed, 3)

    def test_truncated_offset_table_rejected(self):
        packed = entropy.pack_blocks(
            [entropy.encode_coefficients(np.zeros(64, dtype=np.int16))] * 4
        )
        with pytest.raises(CorruptBitstreamError, match="offset table"):
            entropy.unpack_block(packed[:10], 3)

    def test_offset_past_end_of_data_rejected(self):
        packed = entropy.pack_blocks(
            [entropy.encode_coefficients(np.zeros(64, dtype=np.int16))] * 4
        )
        with pytest.raises(CorruptBitstreamError, match="outside"):
            entropy.unpack_block(packed[:-2], 3)

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptBitstreamError):
            entropy.block_count(b"NOPE" + b"\x00" * 16)

    def test_payload_size_reported(self):
        payloads = [entropy.encode_coefficients(np.zeros(64, dtype=np.int16))] * 3
        packed = entropy.pack_blocks(payloads)
        assert entropy.payload_size(packed) == sum(len(p) for p in payloads)

