"""Entropy coding for the lossy codecs.

Real JPEG uses Huffman coding of run-length encoded, zig-zag ordered DCT
coefficients.  We implement run-length encoding of zero runs followed by a
canonical variable-length integer packing.  The important behavioural
properties are preserved: compressed size shrinks with aggressive
quantization, decoding cost scales with the number of coded symbols, and the
stream is decodable block-by-block (which is what makes macroblock ROI
decoding possible).

This coder is intentionally byte-aligned per block: each block's payload is
independently decodable given its offset, mirroring JPEG restart markers.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

import numpy as np

from repro.errors import CorruptBitstreamError

_MAGIC = b"RPRE"  # repro run-length entropy stream
_TABLE_START = 8  # the offset table follows the magic and the block count
_BLOCK_LENGTH = 64  # coefficients per 8x8 block

#: Blocks :func:`decode_block_chunks` decodes per numpy pass.  It bounds the
#: per-byte and per-token temporaries, and so the decoder's peak memory.
DECODE_CHUNK_BLOCKS = 512


def encode_coefficients(flat_coeffs: np.ndarray) -> bytes:
    """Encode one block's zig-zag coefficient vector.

    Encoding: pairs of (zero-run length, value) with values stored as
    zig-zag-signed varints, terminated by an end-of-block marker.
    """
    if flat_coeffs.ndim != 1:
        raise CorruptBitstreamError("expected a flat coefficient vector")
    out = bytearray()
    run = 0
    for value in flat_coeffs.tolist():
        if value == 0:
            run += 1
            continue
        _write_varint(out, run)
        _write_varint(out, _zigzag_signed(int(value)))
        run = 0
    # End-of-block marker: run of 0xFFFF (an impossible run length for 64
    # coefficient blocks) signals the remaining coefficients are zero.
    _write_varint(out, 0xFFFF)
    return bytes(out)


def decode_coefficients(payload: bytes, length: int) -> np.ndarray:
    """Decode one block's payload into a coefficient vector of ``length``."""
    coeffs = np.zeros(length, dtype=np.int16)
    pos = 0
    index = 0
    while True:
        run, pos = _read_varint(payload, pos)
        if run == 0xFFFF:
            break
        value, pos = _read_varint(payload, pos)
        index += run
        if index >= length:
            raise CorruptBitstreamError(
                f"coefficient index {index} exceeds block length {length}"
            )
        coeffs[index] = _unzigzag_signed(value)
        index += 1
    return coeffs


def pack_blocks(block_payloads: list[bytes]) -> bytes:
    """Pack per-block payloads with an offset index for random access.

    Layout: magic, block count, uint32 offsets table, concatenated payloads.
    The offsets table is what enables macroblock ROI decoding: a decoder can
    seek straight to the blocks intersecting the region of interest.
    """
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<I", len(block_payloads))
    offsets = []
    cursor = 0
    for payload in block_payloads:
        offsets.append(cursor)
        cursor += len(payload)
    header += struct.pack(f"<{len(offsets)}I", *offsets) if offsets else b""
    header += struct.pack("<I", cursor)  # total payload size for bounds checks
    return bytes(header) + b"".join(block_payloads)


def unpack_block(data: bytes, block_index: int) -> bytes:
    """Extract the payload of a single block from a packed stream.

    Reads only the block's two bounding offsets (the stored total payload
    size follows the last offset, so it bounds the last block), which keeps
    random access O(1) in the block count.
    """
    count, payload_start = _read_table(data)
    if not 0 <= block_index < count:
        raise CorruptBitstreamError(
            f"block index {block_index} out of range [0, {count})"
        )
    start, end = struct.unpack_from("<2I", data, _TABLE_START + 4 * block_index)
    if start > end or payload_start + end > len(data):
        raise CorruptBitstreamError(
            f"block {block_index} spans payload bytes [{start}, {end}), outside "
            f"the {len(data) - payload_start}-byte payload"
        )
    return data[payload_start + start:payload_start + end]


def decode_block_chunks(data: bytes,
                        block_indices: np.ndarray) -> Iterator[np.ndarray]:
    """Decode the coefficient vectors of many blocks of a packed stream.

    Yields ``(m, 64)`` int16 arrays holding the blocks of ``block_indices``
    in order, at most :data:`DECODE_CHUNK_BLOCKS` blocks per array.  Each
    array equals stacking ``decode_coefficients(unpack_block(data, i), 64)``
    over its blocks, and a stream that makes that reference raise raises the
    same exception type here, at the same block.

    The offset table is read once.  Each chunk's varints are tokenised
    together with numpy; a block is decoded that way only when its tokens
    are canonical -- run/value pairs closed by one end-of-block token on the
    block's last byte, varints of at most 3 bytes and values of at most
    0xFFFF, coefficient indices below 64.  Any other block goes through the
    scalar :func:`decode_coefficients`, which stays the reference.
    """
    count, payload_start = _read_table(data)
    # The stored total follows the offsets, so table[i + 1] ends block i.
    table = np.frombuffer(data, dtype="<u4", count=count + 1, offset=_TABLE_START)
    indices = np.asarray(block_indices, dtype=np.int64).reshape(-1)
    # Two zero bytes of padding let every token read 3 bytes unconditionally.
    stream = np.frombuffer(bytes(data) + b"\x00\x00", dtype=np.uint8)
    for chunk_start in range(0, len(indices), DECODE_CHUNK_BLOCKS):
        chunk = indices[chunk_start:chunk_start + DECODE_CHUNK_BLOCKS]
        coeffs, scalar = _decode_canonical(stream, len(data), table,
                                           payload_start, chunk)
        for row in np.flatnonzero(scalar).tolist():
            coeffs[row] = decode_coefficients(
                unpack_block(data, int(chunk[row])), _BLOCK_LENGTH
            )
        yield coeffs


def _decode_canonical(stream: np.ndarray, data_len: int, table: np.ndarray,
                      payload_start: int,
                      indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch-decode the canonical blocks among ``indices``.

    Returns the ``(m, 64)`` coefficients and a mask of the blocks that were
    not proven canonical; their rows are left zero for the scalar decoder.
    """
    count = len(table) - 1
    m = len(indices)
    coeffs = np.zeros((m, _BLOCK_LENGTH), dtype=np.int16)
    in_range = (indices >= 0) & (indices < count)
    safe = np.where(in_range, indices, 0)
    starts = payload_start + table[safe].astype(np.int64)
    ends = payload_start + table[np.minimum(safe + 1, count)].astype(np.int64)
    scalar = ~in_range | (ends <= starts) | (ends > data_len)
    lengths = np.where(scalar, 0, ends - starts)
    if not lengths.any():
        return coeffs, scalar

    # Gather the chunk's bytes; block_of_byte says which block each came from.
    total = int(lengths.sum())
    block_ends = np.cumsum(lengths)
    block_of_byte = np.repeat(np.arange(m), lengths)
    positions = np.arange(total) + np.repeat(starts - (block_ends - lengths),
                                             lengths)
    # A token ends on a byte below 0x80.  Every block's last byte is forced
    # to end one too, so a malformed block can never swallow its neighbour.
    is_end = stream[positions] < 0x80
    nonempty = lengths > 0
    block_last = block_ends[nonempty] - 1
    scalar[nonempty] |= ~is_end[block_last]
    is_end[block_last] = True

    token_last = np.flatnonzero(is_end)
    token_first = np.concatenate(([0], token_last[:-1] + 1))
    token_len = token_last - token_first + 1
    first = positions[token_first]
    value = np.zeros(len(first), dtype=np.int64)
    for byte in range(3):
        low7 = (stream[first + byte] & 0x7F).astype(np.int64) << (7 * byte)
        value |= np.where(token_len > byte, low7, 0)
    token_block = block_of_byte[token_last]

    # Position of each token within its block: even = run, odd = value.
    tokens_per_block = np.bincount(token_block, minlength=m)
    block_first_token = np.cumsum(tokens_per_block) - tokens_per_block
    k = np.arange(len(token_last)) - block_first_token[token_block]
    is_eob = k == tokens_per_block[token_block] - 1
    is_run = (k % 2 == 0) & ~is_eob
    bad_token = (token_len > 3) | (value > 0xFFFF)
    bad_token |= is_eob & (value != 0xFFFF)
    scalar |= np.bincount(token_block, weights=bad_token, minlength=m) > 0
    scalar |= tokens_per_block % 2 == 0

    # Coefficient index of each pair: per-block cumulative sum of run + 1.
    # An end-of-block run before the last token steps the index past 63, so
    # the index bound also proves a block has exactly one end-of-block.
    run_token = np.flatnonzero(is_run)
    pair_block = token_block[run_token]
    steps = np.cumsum(value[run_token] + 1)
    pairs_per_block = np.bincount(pair_block, minlength=m)
    before_block = np.concatenate(([0], steps))[np.cumsum(pairs_per_block)
                                               - pairs_per_block]
    index = steps - before_block[pair_block] - 1
    scalar |= np.bincount(pair_block, weights=index >= _BLOCK_LENGTH,
                          minlength=m) > 0

    keep = ~scalar[pair_block]
    signed = value[run_token[keep] + 1]
    coeffs[pair_block[keep], index[keep]] = (signed >> 1) ^ -(signed & 1)
    return coeffs, scalar


def block_count(data: bytes) -> int:
    """Number of blocks in a packed stream."""
    count, _ = _read_header(data)
    return count


def payload_size(data: bytes) -> int:
    """Total size in bytes of the packed coefficient payloads."""
    count, offsets_start = _read_header(data)
    return struct.unpack_from("<I", data, offsets_start + 4 * count)[0]


def _read_header(data: bytes) -> tuple[int, int]:
    if len(data) < _TABLE_START or data[:4] != _MAGIC:
        raise CorruptBitstreamError("not a repro entropy stream")
    count = struct.unpack_from("<I", data, 4)[0]
    return count, _TABLE_START


def _read_table(data: bytes) -> tuple[int, int]:
    """Validate the header and offset table; return (count, payload start)."""
    count, offsets_start = _read_header(data)
    payload_start = offsets_start + 4 * (count + 1)
    if payload_start > len(data):
        raise CorruptBitstreamError(
            f"offset table of {count} blocks truncated at {len(data)} bytes"
        )
    return count, payload_start


def _zigzag_signed(value: int) -> int:
    """Map a signed int to an unsigned int (zig-zag signing, as in protobuf)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag_signed(value: int) -> int:
    """Inverse of :func:`_zigzag_signed`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CorruptBitstreamError("varints must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptBitstreamError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptBitstreamError("varint too long")
