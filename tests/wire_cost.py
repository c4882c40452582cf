#!/usr/bin/env python3
"""Print where a packet's decode and encode spend their time, per phase,
for the packets of the fleet and day workloads.

    PYTHONPATH=src python tests/wire_cost.py [reps]

The fleet packets are one home's 36 minutes of `outing_day`, as
`perfbench/hbench/fleet.py` makes them; the day packets are the 40 minutes
of `mixed_day` that `perfbench/hbench/day.py` reports on.  Each phase of
`decode_packet` is replayed with the decoder's own helpers, over every
packet of the set:

- crc: `zlib.crc32` of the body;
- header walk: `_Walk`, the one pass over the group headers, with the
  motion-value check;
- column reads: `_read_columns`, one frombuffer per column and the
  canonical-form proof;
- construction: the per-block pixel copies (`_own_pixels`), `_build` and
  `HubPacket.trusted`;
- encode: `encode_packet` of the decoded packet.

"decode (measured)" is `decode_packet` whole.  The same set, joined into one
stream, is then replayed through `decode_packet_stream`'s two passes:

- stream pass 1: `_read_at` of every packet (header, CRC, header walk and
  column reads), with no pixel copy;
- stream pass 2: `_lay_out`, which writes each sensor's pixels into one
  read-only array, and the packets built on its slices.

"stream (measured)" is `decode_packet_stream` whole.  The median over `reps`
passes (default 7) is printed in microseconds per packet, with the rate in
wire megabytes per second.  Nothing gates these figures.
"""

from __future__ import annotations

import statistics
import sys
import time
import zlib
from pathlib import Path

from hometwin.ingestion import wire
from hometwin.ingestion.packets import HubPacket
from hometwin.simulate.scripts import mixed_day, outing_day

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hbench import day, fleet, inputs  # noqa: E402

SEED = 3001
BODY = wire._HEAD.size


def workload_packets() -> dict[str, list[bytes]]:
    layout, script = outing_day(SEED * 1000)
    fleet_packets, _, _ = inputs.home_wire(
        layout, inputs.window(script, 0, fleet.MINUTES), SEED, "home000"
    )
    layout, script = mixed_day()
    day_packets, _, _ = inputs.home_wire(layout, inputs.window(script, *day.WINDOW_MIN), SEED)
    return {"fleet": fleet_packets, "day": day_packets}


def phases(blobs: list[bytes]) -> dict[str, float]:
    """Seconds per phase over every packet, one pass."""
    spent = dict.fromkeys(("decode (measured)", "crc", "header walk", "column reads",
                           "construction", "encode"), 0.0)
    for blob in blobs:
        end = len(blob) - 4
        t0 = time.perf_counter()
        packet = wire.decode_packet(blob)
        t1 = time.perf_counter()
        zlib.crc32(memoryview(blob)[BODY:end])
        t2 = time.perf_counter()
        walk = wire._Walk(blob, BODY, end)
        t3 = time.perf_counter()
        columns, canonical = wire._read_columns(walk)
        t4 = time.perf_counter()
        HubPacket.trusted(*wire._build(walk, columns, wire._own_pixels(walk)))
        t5 = time.perf_counter()
        wire.encode_packet(packet)
        t6 = time.perf_counter()
        assert canonical
        for key, seconds in zip(spent, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
            spent[key] += seconds
    return spent


def stream_phases(blobs: list[bytes]) -> dict[str, float]:
    """Seconds of `decode_packet_stream` over the joined set, whole and per
    pass, one pass each."""
    data = b"".join(blobs)
    t0 = time.perf_counter()
    wire.decode_packet_stream(data)
    t1 = time.perf_counter()
    read, offset = [], 0
    while offset < len(data):
        walk, columns, canonical, _, offset = wire._read_at(data, offset)
        assert canonical
        read.append((walk, columns))
    t2 = time.perf_counter()
    pixels = wire._lay_out([walk for walk, _ in read])
    for (walk, columns), px in zip(read, pixels):
        HubPacket.trusted(*wire._build(walk, columns, px))
    t3 = time.perf_counter()
    return {"stream (measured)": t1 - t0, "stream pass 1": t2 - t1, "stream pass 2": t3 - t2}


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    print(f"wire cost per packet, seed {SEED}, median of {reps} passes:")
    for name, blobs in workload_packets().items():
        runs = [phases(blobs) | stream_phases(blobs) for _ in range(reps)]
        megabytes = sum(map(len, blobs)) / 1e6
        print(f"  {name}: {len(blobs)} packets, {megabytes / len(blobs) * 1e3:.1f} KB each")
        for phase in runs[0]:
            seconds = statistics.median(run[phase] for run in runs)
            rate = megabytes / seconds if seconds > 0 else 0.0
            print(f"    {phase:20s} {seconds / len(blobs) * 1e6:9.1f} us {rate:9.1f} MB/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
