"""Seeded byte mutations of wire packets and store snapshots, each re-sealed
with a fresh CRC so that the edit reaches the parser: decoding one either
succeeds or raises a hometwin error, and a WireFormatError points inside the
bytes it was given.

A snapshot mutant that loads saves back to its own bytes: the loader
refuses any snapshot that `save` would not write.  Whether a packet mutant
that decodes comes back in canonical form is not asserted: re-encoding one
need not give its bytes back."""

import random
import struct
import zlib

import numpy as np
import pytest

from hometwin.errors import HometwinError, WireFormatError
from hometwin.ingestion.store import RecordStore
from hometwin.core import SensorKind
from hometwin.ingestion.wire import _GROUP_META, _str_bytes, decode_packet, encode_packet

from conftest import random_packet

MUTATIONS = 3000
# u16 and u32 values a field edit writes: empty, one, small counts, the largest
FIELDS = (0, 1, 2, 3, 4, 5, 32, 255, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF)
SNAPSHOT_HEAD = 13  # magic, version, crc32 of the body
LIGHT = list(SensorKind).index(SensorKind.LIGHT)  # a snapshot's kind index


def mutate(body: bytes, rng: random.Random) -> bytearray:
    """One to three edits: a byte set at random, a u16 or u32 rewritten at a
    random offset, a span deleted or duplicated."""
    data = bytearray(body)
    for _ in range(rng.randint(1, 3)):
        if not data:
            break
        op = rng.randrange(4)
        at = rng.randrange(len(data))
        if op == 0:
            data[at] = rng.randrange(256)
        elif op == 1:
            fmt = rng.choice(("<H", "<I"))
            value = rng.choice(FIELDS) & (0xFFFF if fmt == "<H" else 0xFFFFFFFF)
            data[at : at + struct.calcsize(fmt)] = struct.pack(fmt, value)
        elif op == 2:
            del data[at : at + rng.randint(1, 64)]
        else:
            data[at:at] = data[at : at + rng.randint(1, 64)]
    return data


def packet_mutant(blob: bytes, rng: random.Random) -> bytes:
    """The packet with its body mutated, then its length and CRC re-sealed;
    one mutant in ten keeps its old header and CRC and is cut at a random
    point instead."""
    body = mutate(blob[5:-4], rng)
    if rng.randrange(10) == 0:
        whole = bytearray(blob[:5] + body + blob[-4:])
        return bytes(whole[: rng.randrange(len(whole) + 1)])
    return bytes(struct.pack("<BI", blob[0], len(body)) + body + struct.pack("<I", zlib.crc32(body)))


def snapshot_mutant(blob: bytes, rng: random.Random) -> bytes:
    """The snapshot with its body mutated and its CRC re-sealed; one mutant
    in ten has a byte of its head edited instead and is cut at a random
    point."""
    if rng.randrange(10) == 0:
        whole = bytearray(blob)
        whole[rng.randrange(SNAPSHOT_HEAD)] = rng.randrange(256)
        return bytes(whole[: rng.randrange(len(whole) + 1)])
    body = mutate(blob[SNAPSHOT_HEAD:], rng)
    return blob[:9] + struct.pack("<I", zlib.crc32(body)) + bytes(body)


def check(parse, blob: bytes, i: int, escaped: list) -> bool:
    """Whether the mutant parsed; an untyped error, or a WireFormatError
    offset outside [0, len(blob)], is kept in `escaped`."""
    try:
        parse(blob)
        return True
    except WireFormatError as exc:
        if not 0 <= exc.offset <= len(blob):
            escaped.append(f"mutant {i}: offset {exc.offset} of {len(blob)} bytes: {exc}"[:200])
    except HometwinError:
        pass
    except Exception as exc:  # would end `hometwin ingest` in a traceback
        escaped.append(f"mutant {i}: {type(exc).__name__}: {exc}"[:200])
    return False


def test_mutated_packets_decode_or_raise_hometwin_errors():
    np_rng = np.random.default_rng(21)
    blobs = [encode_packet(random_packet(np_rng, seq=i)) for i in range(40)]
    rng = random.Random(21)
    decoded, escaped = 0, []
    for i in range(MUTATIONS):
        mutant = packet_mutant(rng.choice(blobs), rng)
        decoded += check(decode_packet, mutant, i, escaped)
    assert not escaped, f"{len(escaped)} of {MUTATIONS}: {escaped[:5]}"
    # the mutants reach the parser: some decode, most are refused past the CRC
    assert MUTATIONS // 20 <= decoded <= MUTATIONS // 2


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory) -> list[bytes]:
    np_rng = np.random.default_rng(22)
    out = []
    for n in (3, 8):
        store = RecordStore()
        for seq in range(n):
            store.append(random_packet(np_rng, seq=seq, hub_id=f"hub{seq % 2}"))
        path = tmp_path_factory.mktemp("snapshots") / f"store{n}.bin"
        store.save(path)
        out.append(path.read_bytes())
    return out


def test_mutated_snapshots_load_or_raise_hometwin_errors(snapshots, tmp_path):
    path, saved = tmp_path / "mutant.bin", tmp_path / "saved.bin"
    resaved = []

    def load(blob: bytes) -> RecordStore:
        path.write_bytes(blob)
        store = RecordStore.load(path)
        store.save(saved)
        if saved.read_bytes() != blob:
            resaved.append(len(blob))
        return store

    rng = random.Random(22)
    loaded, escaped = 0, []
    for i in range(MUTATIONS):
        loaded += check(load, snapshot_mutant(rng.choice(snapshots), rng), i, escaped)
    assert not escaped, f"{len(escaped)} of {MUTATIONS}: {escaped[:5]}"
    assert not resaved, f"{len(resaved)} of {loaded} loaded mutants saved back to other bytes"
    assert MUTATIONS // 50 <= loaded <= MUTATIONS // 2


def snapshot_of(hubs=(), readings=(), frames=()) -> tuple[bytes, list[int]]:
    """A snapshot written entry by entry exactly as given, and the offset of
    each entry: hubs are (hub id, sequence numbers), readings light sensor
    ids, frames 4x4 sensor ids; each series holds one sample."""
    body, offsets = bytearray(), []
    body += struct.pack("<I", len(hubs))
    for hub_id, seqs in hubs:
        offsets.append(SNAPSHOT_HEAD + len(body))
        body += _str_bytes(hub_id) + struct.pack("<I", len(seqs))
        body += np.asarray(seqs, dtype="<u8").tobytes()
    for ids, code, values in ((readings, LIGHT, b"\x64\0\0\0"), (frames, 4, bytes(32))):
        body += struct.pack("<I", len(ids))
        for sensor_id in ids:
            offsets.append(SNAPSHOT_HEAD + len(body))
            body += _str_bytes(sensor_id) + _GROUP_META.pack(code, 1)
            body += struct.pack("<q", 60_000) + values
    head = b"HTSTORE1" + bytes([1]) + struct.pack("<I", zlib.crc32(body))
    return head + bytes(body), offsets


@pytest.mark.parametrize(
    "hubs, readings, frames, entry, row",
    [
        ([("hub0", [0, 2, 1])], [], [], 0, 2),
        ([("hub0", [4, 5, 5])], [], [], 0, 2),
        ([("hub1", [0]), ("hub0", [0])], [], [], 1, None),
        ([("hub0", [0]), ("hub0", [1])], [], [], 1, None),
        ([], ["b/A0/light", "a/A0/light"], [], 1, None),
        ([], ["a/A0/light", "a/A0/light"], [], 1, None),
        ([], [], ["b/C0/thermal", "a/C0/thermal"], 1, None),
        ([], [], ["a/C0/thermal", "a/C0/thermal"], 1, None),
    ],
)
def test_snapshots_save_would_not_write_are_refused(hubs, readings, frames, entry, row, tmp_path):
    # an unsorted or repeated sequence list is refused at the sequence number
    # `row` of hub `entry`; a repeated or out-of-order id at its entry
    path = tmp_path / "snapshot.bin"
    blob, offsets = snapshot_of(hubs, readings, frames)
    at = offsets[entry]
    if row is not None:
        at += 2 + len(hubs[entry][0]) + 4 + 8 * row
    path.write_bytes(blob)
    with pytest.raises(WireFormatError) as exc:
        RecordStore.load(path)
    assert exc.value.offset == at
    # in canonical order, the same entries load and save back to their bytes
    hubs = sorted((hub_id, sorted(set(seqs))) for hub_id, seqs in dict(hubs).items())
    blob, _ = snapshot_of(hubs, sorted(set(readings)), sorted(set(frames)))
    path.write_bytes(blob)
    RecordStore.load(path).save(tmp_path / "saved.bin")
    assert (tmp_path / "saved.bin").read_bytes() == blob
