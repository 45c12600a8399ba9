"""Kernel and transport probes: each layer alone, on the workload's real sizes.

Kernel probes run single-threaded with no world alive and time the
public kernels (pack / compress / frame / deframe / decompress / unpack)
on rank 0's actual messages — the plan is symmetric at p = 4, so rank 0
is as good a bounding rank as any.  Transport probes run inside a world
of the workload's runtime and move buffers of the workload's wire sizes
through the runtime primitives the exchanges are built from.

Every ``*_ms`` a probe returns is scaled to **one round trip of one
rank** (2 directions x 4 reshapes) unless its name says it is one call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probes(plan, blocks, repeats: int) -> dict[str, float]:
    """Per-kernel time (ms per round trip) and rate (GB/s of input bytes)."""
    from repro.collectives.wire import decode_wire, encode_wire, wire_overhead

    rank, codec = 0, plan.codec
    t = dict.fromkeys(("pack", "unpack", "encode", "decode", "frame", "deframe"), 0.0)
    moved = dict.fromkeys(t, 0)
    frames = overhead = 0
    # The forward direction's messages; the inverse direction has the
    # same shapes, so a round trip is twice this.
    block = blocks[rank]
    for reshape in plan.reshapes:
        for dest, box in reshape.pairs[rank]:
            chunk = reshape.pack(rank, block, dest, box)
            t["pack"] += _median_s(lambda: reshape.pack(rank, block, dest, box), repeats)
            moved["pack"] += chunk.nbytes
            if codec is None:
                continue
            msg = codec.compress(chunk)
            frame = encode_wire(msg)
            t["encode"] += _median_s(lambda: codec.compress(chunk), repeats)
            t["frame"] += _median_s(lambda: encode_wire(msg), repeats)
            t["deframe"] += _median_s(lambda: decode_wire(frame), repeats)
            t["decode"] += _median_s(lambda: codec.decompress(msg), repeats)
            moved["encode"] += chunk.nbytes
            moved["decode"] += msg.nbytes
            frames += 1
            overhead += wire_overhead(msg)
        out = np.empty(reshape.dst.box_of(rank).shape, dtype=block.dtype)
        for source, box in reshape.incoming[rank]:
            chunk = np.resize(block, box.size)
            t["unpack"] += _median_s(
                lambda: reshape.unpack(rank, out, source, box, chunk), repeats
            )
            moved["unpack"] += chunk.nbytes
        block = out  # same values, next layout: only shapes and strides matter

    def gbs(key: str) -> float:
        return moved[key] / t[key] / 1e9 if t[key] else 0.0

    copy_src = np.ascontiguousarray(blocks[rank])
    copy_dst = np.empty_like(copy_src)
    memcpy_s = _median_s(lambda: np.copyto(copy_dst, copy_src), max(repeats, 9))
    return {
        "fft.reshape.pack_gbs": gbs("pack"),
        "fft.reshape.unpack_gbs": gbs("unpack"),
        "compression.encode_ms": 2e3 * t["encode"],
        "compression.decode_ms": 2e3 * t["decode"],
        "compression.encode_gbs": gbs("encode"),
        "compression.decode_gbs": gbs("decode"),
        "collectives.wire.encode_ms": 2e3 * t["frame"],
        "collectives.wire.decode_ms": 2e3 * t["deframe"],
        "collectives.wire.overhead_bytes": overhead / frames if frames else 0.0,
        "host.memcpy_gbs": copy_src.nbytes / memcpy_s / 1e9,
        "host.memcpy_bytes": float(copy_src.nbytes),
    }


def transport_probes(comm, sizes: list[list[list[int]]], repeats: int) -> dict[str, float]:
    """Runtime primitives at the workload's wire sizes (this rank's view).

    ``sizes[k][s][d]`` is the wire size of the message rank ``s`` sends
    rank ``d`` in reshape ``k``.
    """
    rank, p = comm.rank, comm.size
    capacity = max(sum(row[rank] for row in m) for m in sizes)
    buf = np.zeros(max(max(max(row) for row in m) for m in sizes), dtype=np.uint8)

    def win_cycle():
        comm.win_create(capacity).free()

    win = comm.win_create(capacity)

    def put_fence():
        for _direction in range(2):
            for m in sizes:
                win.fence()
                for step in range(p):
                    dest = (rank + step) % p
                    if m[rank][dest]:
                        offset = sum(m[s][dest] for s in range(rank))
                        win.put(buf[: m[rank][dest]], dest, offset=offset)
                win.fence()

    def sendrecv():
        for _direction in range(2):
            for m in sizes:
                for step in range(1, p):
                    dest, source = (rank + step) % p, (rank - step) % p
                    req = comm.isend(buf[: m[rank][dest]], dest, tag=step)
                    comm.recv(source, tag=step)
                    req.wait()

    def timed(fn, inner: int = 1) -> float:
        comm.barrier()
        return _median_s(lambda: [fn() for _ in range(inner)], repeats) / inner * 1e3

    try:
        out = {
            "runtime.win_create_ms": timed(win_cycle),
            "runtime.put_fence_ms": timed(put_fence),
            "runtime.sendrecv_ms": timed(sendrecv),
            "runtime.allgather_ms": timed(lambda: comm.allgather([0] * p), inner=10),
            "runtime.barrier_us": timed(comm.barrier, inner=10) * 1e3,
        }
    finally:
        win.free()
    return out
