"""Differential tests: the two-pass stream decoder against the packet-by-packet
loop it replaced.

The oracle below is `decode_packet_stream` as it was before the decoder laid
out each thermal sensor's pixels for the whole stream: it decoded one packet
after another, and each block's pixels were copied out on their own.  The
header walk and the column reads (`_Walk`, `_read_columns`) are the same in
both, so only what the stream decoder changed is under test: the order in
which a malformed stream is refused, and the pixels of the packets it returns.
For every stream, both give equal packets, or raise the same error type with
the same message and offset.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries
from hometwin.errors import HometwinError, VersionError, WireFormatError
from hometwin.ingestion import wire
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.wire import decode_packet_stream, encode_packet

from conftest import random_packet
from test_wire_oracle import CANONICAL, NON_CANONICAL, REFUSED_AT_START, packet_blob, sealed

# -- the former stream decoder ---------------------------------------------------


def oracle_build(walk, columns) -> tuple:
    timestamps, scalars, motion = columns
    readings = []
    row = scalar_row = motion_row = 0
    for sensor_id, kind, n in walk.groups:
        if kind is wire._MOTION:
            values, motion_row = motion[motion_row : motion_row + n], motion_row + n
        else:
            values, scalar_row = scalars[scalar_row : scalar_row + n], scalar_row + n
        readings.append(ReadingSeries(sensor_id, kind, timestamps[row : row + n], values))
        row += n
    frames = []
    for (sensor_id, resolution, n), raw in zip(walk.blocks, walk.pixel_parts):
        px = np.frombuffer(raw, "<i2").reshape(n, resolution, resolution).copy()
        frames.append(FrameBlock(sensor_id, resolution, timestamps[row : row + n], px))
        row += n
    return walk.hub_id, walk.seq, walk.w0, walk.w1, readings, frames


def oracle_decode_body(data: bytes, start: int, end: int) -> HubPacket:
    walk = wire._Walk(data, start, end)
    columns, canonical = wire._read_columns(walk)
    fields = oracle_build(walk, columns)
    if canonical:
        return HubPacket.trusted(*fields)
    try:
        return HubPacket(*fields)
    except ValueError as exc:
        raise WireFormatError(f"invalid packet contents: {exc}", start)


def oracle_decode_at(data: bytes, offset: int) -> tuple[HubPacket, int]:
    if len(data) - offset < wire._HEAD.size:
        raise WireFormatError("truncated packet header", offset)
    version, body_len = wire._HEAD.unpack_from(data, offset)
    if version != wire.WIRE_VERSION:
        raise VersionError(f"unsupported wire version 0x{version:02x} at offset {offset}")
    body_start = offset + wire._HEAD.size
    body_end = body_start + body_len
    if body_end + 4 > len(data):
        raise WireFormatError("truncated packet body", len(data))
    (crc,) = wire._U32.unpack_from(data, body_end)
    if crc != zlib.crc32(memoryview(data)[body_start:body_end]):
        raise WireFormatError("crc mismatch", body_end)
    return oracle_decode_body(data, body_start, body_end), body_end + 4


def oracle_decode_stream(data: bytes) -> list[HubPacket]:
    packets = []
    offset = 0
    while offset < len(data):
        packet, offset = oracle_decode_at(data, offset)
        packets.append(packet)
    return packets


# -- comparison ----------------------------------------------------------------


def _outcome(decode, data: bytes):
    try:
        return decode(data)
    except HometwinError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def assert_same_outcome(data: bytes):
    """Both decoders give equal packets, or the same error type, message and
    offset; the stream decoder's pixels are laid out as it promises."""
    want = _outcome(oracle_decode_stream, data)
    got = _outcome(decode_packet_stream, data)
    if not isinstance(want, list):
        assert got == want
        return want
    assert isinstance(got, list), got
    assert got == want
    for packet in got:
        for b in packet.frames:
            assert b.timestamps.dtype == np.int64 and b.pixels_centi.dtype == np.int16
            assert b.pixels_centi.shape == (len(b), b.resolution, b.resolution)
    assert_laid_out(data, got)
    return got


def assert_laid_out(data: bytes, packets: list[HubPacket]) -> None:
    """A canonical packet's blocks are read-only, and each sensor's are
    back-to-back slices of one array in stream order; a canonical packet is
    one that `decode_packet` keeps as read."""
    stacks: dict[tuple[str, int], list[np.ndarray]] = {}
    for packet, canonical in zip(packets, _canonical_flags(data)):
        for block in packet.frames:
            px = block.pixels_centi
            if not canonical:  # pixels of its own, as `decode_packet` gives
                assert px.flags.writeable
                continue
            assert not px.flags.writeable and px.flags.c_contiguous
            stacks.setdefault((block.sensor_id, block.resolution), []).append(px)
    for parts in stacks.values():
        base = parts[0].base
        assert not base.flags.writeable and len(base) == sum(map(len, parts))
        at = 0
        for px in parts:
            assert px.base is base
            assert px.__array_interface__["data"][0] == base[at:].__array_interface__["data"][0]
            at += len(px)


def _canonical_flags(data: bytes) -> list[bool]:
    flags, offset = [], 0
    while offset < len(data):
        _, body_len = wire._HEAD.unpack_from(data, offset)
        start, end = offset + wire._HEAD.size, offset + wire._HEAD.size + body_len
        flags.append(wire._read_columns(wire._Walk(data, start, end))[1])
        offset = end + 4
    return flags


# -- streams ---------------------------------------------------------------------


def random_blobs(rng, n: int) -> list[bytes]:
    """Random packets of a few hubs; a frame sensor may change resolution
    between packets, and some packets repeat (retransmits)."""
    blobs = [encode_packet(random_packet(rng, seq=i, hub_id=f"hub{i % 3}")) for i in range(n)]
    return blobs + [blobs[i] for i in rng.integers(0, n, size=n // 8)]


HAND_WRITTEN = {
    **{f"canonical: {k}": packet_blob(*v) for k, v in CANONICAL.items()},
    **{f"non-canonical: {k}": packet_blob(*v) for k, v in NON_CANONICAL.items()},
}


@pytest.mark.parametrize("seed", range(8))
def test_random_streams_decode_alike(seed):
    rng = np.random.default_rng(500 + seed)
    blobs = random_blobs(rng, 40)
    order = rng.permutation(len(blobs))
    assert_same_outcome(b"".join(blobs[i] for i in order))


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_packet_mid_stream(name):
    rng = np.random.default_rng(len(name))
    blobs = random_blobs(rng, 6)
    blobs.insert(3, HAND_WRITTEN[name])
    blobs.insert(1, HAND_WRITTEN[name])
    assert_same_outcome(b"".join(blobs))


@pytest.mark.parametrize("name", sorted(REFUSED_AT_START))
def test_invalid_packet_mid_stream(name):
    rng = np.random.default_rng(len(name))
    blobs = random_blobs(rng, 6)
    before = b"".join(blobs[:4])
    invalid = packet_blob(*REFUSED_AT_START[name])
    outcome = assert_same_outcome(before + invalid + b"".join(blobs[4:]))
    assert outcome[0] is WireFormatError and outcome[2] == len(before) + wire._HEAD.size
    # a later packet that fails its CRC does not come first
    broken = bytearray(blobs[4])
    broken[-1] ^= 1
    assert assert_same_outcome(before + invalid + bytes(broken)) == outcome


def test_broken_packets_mid_stream():
    rng = np.random.default_rng(11)
    blobs = random_blobs(rng, 10)
    data = b"".join(blobs)
    second = len(blobs[0])
    crc_broken = bytearray(data)
    crc_broken[second + wire._HEAD.size] ^= 1
    bad_version = bytearray(data)
    bad_version[second] = 0x02
    for stream in (bytes(crc_broken), bytes(bad_version), data + b"\x01"):
        assert isinstance(assert_same_outcome(stream), tuple)
    for cut in rng.integers(0, len(data), size=60):
        assert_same_outcome(data[:cut])  # truncated: a header or a body cut short
    # two faults: the stream is refused at the first
    assert assert_same_outcome(bytes(crc_broken) + b"\x01") == _outcome(
        decode_packet_stream, bytes(crc_broken)
    )


def test_random_body_edits_mid_stream():
    rng = np.random.default_rng(12)
    blobs = random_blobs(rng, 8) + list(HAND_WRITTEN.values())
    refused = 0
    for _ in range(400):
        picks = [blobs[i] for i in rng.integers(0, len(blobs), size=5)]
        body = bytearray(picks[2][wire._HEAD.size : -4])
        for _ in range(int(rng.integers(1, 3))):
            body[int(rng.integers(len(body)))] = int(rng.integers(256))
        picks[2] = sealed(bytes(body))
        refused += isinstance(assert_same_outcome(b"".join(picks)), tuple)
    assert 0 < refused < 400


def test_empty_stream():
    assert decode_packet_stream(b"") == oracle_decode_stream(b"") == []
