"""The conformance property registry: generate → check → shrink.

Each :class:`Property` bundles three pieces:

* ``generate(rng)`` — draw a random :class:`~repro.conformance.scenario.Scenario`
  from a stdlib :class:`random.Random` (the only source of generation
  randomness, so a seed pins the scenario exactly);
* ``check(scenario)`` — run the scenario and raise
  :class:`~repro.errors.ConformanceFailure` (or any exception) when an
  implementation disagrees with its oracle;
* ``shrink(scenario)`` — yield strictly "smaller" candidate scenarios
  for the greedy minimiser (fewer ranks, smaller sizes, one variant,
  simpler dtype).

The eight families
------------------

``alltoallv``
    Differential: every vector all-to-all variant (reference, raw slot
    exchange under the fence and the credit rule ± node-aware topology,
    identity-codec slot exchange under both rules, two-level) against
    the pure-bookkeeping oracle ``recv[d][s] = send[s][d]`` over
    ragged/empty/prime size matrices and mixed dtypes.
``bruck``
    Differential: the log-p equal-block algorithm at arbitrary — in
    particular non-power-of-two and prime — rank counts, including
    zero-size blocks.
``codec``
    Round-trip and bound invariants for every codec family (the trim
    kernels bit-for-bit against the reference rounding, and their
    in-pass error measurement against a measured round trip), scale
    equivariance of every codec with a finite bound, the wire
    frame, and the one error budget: the codec ``codec_for_tolerance``
    picks for ``events`` compressions states a bound that keeps them
    within ``e_tol`` (``sqrt(events) * error_bound <= e_tol``).
``fft``
    Differential: :class:`~repro.fft.plan.Fft3d` against NumPy's FFT on
    random geometries (prime dims, ragged decompositions, batches);
    with ``e_tol`` set, the realised error must respect the tolerance
    contract (×4 slack — the bound is normwise, scaled FP16 casts are
    peak-relative).
``reshape``
    Geometry: a reshape between two random Cartesian layouts must be a
    permutation (gather after reshape == original global array), with
    message counts and byte totals matching the plan's own accounting;
    the SPMD run, through the reference exchange and through the
    pairwise ring bound to pair slots, must give the same blocks.
``trace``
    Metamorphic: running an exchange under an installed tracer, the
    tracer's byte/message counters must equal the stats objects the
    collectives report (``ExchangeStats``, the one volume record).
``faults``
    Self-healing: under a seeded fault plan (bit-flips, transient codec
    faults, stragglers), a lossless-codec compressed exchange still
    delivers bit-exact data and audits the recovery.
``runtime``
    Differential across execution substrates: the same seeded compressed
    exchange on the thread runtime and the process runtime must agree
    bit-for-bit (both are deterministic given the data seed), and each
    must agree with the bookkeeping oracle — exactly for lossless
    codecs, within the codec tolerance for lossy ones.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from repro.errors import ConformanceFailure
from repro.conformance.oracles import (
    assert_blocks_equal,
    expected_recv,
    gather_global,
    make_send_matrix,
    numpy_fft_reference,
    relative_error,
    scatter_global,
    trim_roundtrip_reference,
)
from repro.conformance.scenario import Scenario, draw_data_seed, draw_sizes_matrix

__all__ = ["Property", "PROPERTIES", "check_scenario"]

#: Slack factor on normwise tolerance checks (see the ``fft`` family
#: notes above: per-message bounds are per-value or peak-relative, the
#: check is normwise; real defects produce O(1) errors, far above this).
TOLERANCE_SLACK = 4.0


class Property:
    """One conformance property family (subclass per family)."""

    name: str = "abstract"

    def generate(self, rng: random.Random) -> Scenario:
        raise NotImplementedError

    def check(self, scenario: Scenario) -> None:
        raise NotImplementedError

    def shrink(self, scenario: Scenario) -> Iterator[Scenario]:
        return iter(())


def check_scenario(prop: Property, scenario: Scenario) -> str | None:
    """Run one check; ``None`` when it passes, a failure message otherwise.

    Any exception counts as a failure — a crash in a collective is as
    much a conformance violation as a wrong byte.
    """
    try:
        prop.check(scenario)
    except ConformanceFailure as exc:
        return str(exc)
    except Exception as exc:  # noqa: BLE001 - crashes are findings too
        return f"{type(exc).__name__}: {exc}"
    return None


# -- helpers shared by the SPMD properties ----------------------------------------------


def _topology(p: int, gpus_per_node: int):
    from repro.machine.spec import GpuSpec, MachineSpec, NetworkSpec
    from repro.machine.topology import Topology

    spec = MachineSpec(
        name="conformance", gpus_per_node=gpus_per_node, gpu=GpuSpec(), network=NetworkSpec()
    )
    return Topology(spec, p)


def _divisors(p: int) -> list[int]:
    return [g for g in range(1, p + 1) if p % g == 0]


#: The volume fields of an ``ExchangeStats`` every executor must agree on.
_VOLUME = ("messages", "logical_bytes", "wire_bytes")


def _check_spmd_matches_virtual(label: str, kernel, blocks, totals) -> None:
    """The virtual ≡ SPMD differential: ``kernel(comm) -> (block, stats)``
    on a :class:`ThreadWorld` must give every rank the bit-identical
    ``blocks[rank]`` the virtual walk produced, and per-rank
    ``ExchangeStats`` summing to the virtual ``totals``."""
    from repro.collectives.base import ExchangeStats
    from repro.runtime.thread_rt import ThreadWorld

    summed = ExchangeStats()
    for rank, (block, stats) in enumerate(ThreadWorld(len(blocks)).run(kernel)):
        if block.shape != blocks[rank].shape or not np.array_equal(block, blocks[rank]):
            raise ConformanceFailure(
                f"{label}: rank {rank}'s SPMD block differs from the virtual one"
            )
        summed.merge(stats)
    for name in _VOLUME:
        if getattr(summed, name) != getattr(totals, name):
            raise ConformanceFailure(
                f"{label}: SPMD {name} summed over ranks = {getattr(summed, name)}, "
                f"virtual walk says {getattr(totals, name)}"
            )


def _shrunk_matrix(sizes: list[list[int]], drop: int) -> list[list[int]]:
    """The size matrix with rank ``drop``'s row and column removed."""
    return [
        [c for d, c in enumerate(row) if d != drop]
        for s, row in enumerate(sizes)
        if s != drop
    ]


# -- 1. alltoallv differential ----------------------------------------------------------

#: All vector-exchange variants the differential property covers.
ALLTOALLV_VARIANTS = (
    "reference",
    "pairwise",
    "pairwise-topo",
    "osc",
    "compressed",
    "compressed-pairwise",
    "compressed-twolevel",
)


class AlltoallvProperty(Property):
    name = "alltoallv"

    def generate(self, rng: random.Random) -> Scenario:
        p = rng.choice([1, 2, 2, 3, 3, 4, 4, 5, 5, 6])
        dtype = rng.choice(["float64", "float64", "complex128", "uint8"])
        variants = [
            v for v in ALLTOALLV_VARIANTS if dtype != "uint8" or not v.startswith("compressed")
        ]
        return Scenario(
            self.name,
            {
                "nranks": p,
                "sizes": draw_sizes_matrix(rng, p),
                "dtype": dtype,
                "variants": variants,
                "topo_g": rng.choice(_divisors(p)),
                "pipeline_chunks": rng.choice([1, 1, 2, 3]),
                "data_seed": draw_data_seed(rng),
            },
        )

    def check(self, sc: Scenario) -> None:
        from repro.collectives import make_exchange
        from repro.compression.base import IdentityCodec
        from repro.runtime.thread_rt import ThreadWorld

        p = sc.params["nranks"]
        send = make_send_matrix(sc.params["sizes"], sc.params["dtype"], sc.params["data_seed"])
        want = expected_recv(send)
        topo = _topology(p, sc.params["topo_g"])
        compressed = dict(codec=IdentityCodec(), pipeline_chunks=sc.params["pipeline_chunks"])
        configs = {
            "reference": dict(method="reference"),
            "pairwise": dict(method="pairwise"),
            "pairwise-topo": dict(method="pairwise", topology=topo),
            "osc": dict(method="osc"),
            "compressed": compressed,
            # the same frames under the credit rule
            "compressed-pairwise": dict(compressed, method="pairwise"),
            # gather -> one inter-node aggregate per peer node -> scatter;
            # must be byte-equivalent to every flat variant.
            "compressed-twolevel": dict(compressed, variant="two-level", topology=topo),
        }

        def kernel(comm, variant):
            op = make_exchange(comm, **configs[variant])
            try:
                return op(send[comm.rank])
            finally:
                op.free()

        for variant in sc.params["variants"]:
            results = ThreadWorld(p).run(kernel, variant)
            for d in range(p):
                for s in range(p):
                    assert_blocks_equal(
                        results[d][s], want[d][s], where=f"{variant}: rank {d} <- rank {s}"
                    )

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        p = sc.params["nranks"]
        sizes = sc.params["sizes"]
        # one variant at a time (pins the failure to one implementation)
        if len(sc.params["variants"]) > 1:
            for v in sc.params["variants"]:
                yield sc.with_params(variants=[v])
        # drop one rank (row + column of the size matrix)
        if p > 1:
            for drop in range(p - 1, -1, -1):
                yield sc.with_params(nranks=p - 1, sizes=_shrunk_matrix(sizes, drop), topo_g=1)
        # shrink payloads
        if any(c > 1 for row in sizes for c in row):
            yield sc.with_params(sizes=[[c // 2 for c in row] for row in sizes])
            yield sc.with_params(sizes=[[min(c, 1) for c in row] for row in sizes])
        if sc.params["dtype"] != "float64":
            yield sc.with_params(dtype="float64")
        if sc.params["pipeline_chunks"] != 1:
            yield sc.with_params(pipeline_chunks=1)
        if sc.params["topo_g"] != 1:
            yield sc.with_params(topo_g=1)


# -- 2. Bruck equal-block all-to-all ----------------------------------------------------


class BruckProperty(Property):
    name = "bruck"

    def generate(self, rng: random.Random) -> Scenario:
        return Scenario(
            self.name,
            {
                "nranks": rng.choice([1, 2, 3, 3, 4, 5, 5, 6, 7, 7]),
                "block_shape": rng.choice([[0], [1], [3], [5], [8], [2, 3]]),
                "dtype": rng.choice(["float64", "complex128", "int64"]),
                "data_seed": draw_data_seed(rng),
            },
        )

    @staticmethod
    def _blocks(sc: Scenario) -> list[list[np.ndarray]]:
        """``blocks[s][d]`` = the equal-shape block rank ``s`` sends ``d``."""
        rng = np.random.default_rng(sc.params["data_seed"])
        p = sc.params["nranks"]
        shape = tuple(sc.params["block_shape"])
        out: list[list[np.ndarray]] = []
        for _ in range(p):
            row = []
            for _ in range(p):
                if sc.params["dtype"] == "int64":
                    row.append(rng.integers(-(2**40), 2**40, size=shape, dtype=np.int64))
                elif sc.params["dtype"] == "complex128":
                    row.append(
                        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
                            np.complex128
                        )
                    )
                else:
                    row.append(rng.standard_normal(shape))
            out.append(row)
        return out

    def check(self, sc: Scenario) -> None:
        from repro.collectives.variants import bruck_alltoall
        from repro.runtime.thread_rt import ThreadWorld

        p = sc.params["nranks"]
        blocks = self._blocks(sc)

        def kernel(comm):
            return bruck_alltoall(comm, blocks[comm.rank])

        results = ThreadWorld(p).run(kernel)
        for d in range(p):
            for s in range(p):
                got = results[d][s]
                want = blocks[s][d]
                if got.shape != want.shape or got.dtype != want.dtype:
                    raise ConformanceFailure(
                        f"bruck: rank {d} <- rank {s}: shape/dtype {got.shape}/{got.dtype}, "
                        f"want {want.shape}/{want.dtype}"
                    )
                assert_blocks_equal(got, want, where=f"bruck: rank {d} <- rank {s}")

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        p = sc.params["nranks"]
        if p > 1:
            yield sc.with_params(nranks=p - 1)
            if p > 2:
                yield sc.with_params(nranks=2)
        shape = sc.params["block_shape"]
        if len(shape) > 1:
            yield sc.with_params(block_shape=[int(np.prod(shape))])
        if shape and shape[0] > 1:
            yield sc.with_params(block_shape=[1] + list(shape[1:]))
        if sc.params["dtype"] != "float64":
            yield sc.with_params(dtype="float64")


# -- 3. codec invariants ----------------------------------------------------------------


class CodecProperty(Property):
    name = "codec"

    def generate(self, rng: random.Random) -> Scenario:
        family = rng.choice(["identity", "lossless", "trim", "trim", "cast", "cast", "zfp"])
        spec: dict = {"family": family}
        if family == "trim":
            spec["bits"] = rng.randrange(1, 53)
            spec["rounding"] = rng.choice(["nearest", "nearest", "truncate"])
        elif family == "cast":
            spec["fmt"] = rng.choice(["fp32", "fp16", "bf16"])
            spec["scaled"] = rng.random() < 0.5
        elif family == "zfp":
            if rng.random() < 0.5:
                spec["tolerance"] = 10.0 ** rng.uniform(-9, -2)
            else:
                spec["rate"] = rng.choice([2.0, 4.0, 8.0])
        scale_exp = rng.uniform(-6, 6)
        if spec.get("fmt") == "fp16" and not spec.get("scaled"):
            scale_exp = rng.uniform(-2, 2)  # keep plain FP16 casts in range
        return Scenario(
            self.name,
            {
                "codec": spec,
                "n": rng.choice([0, 1, 7, 64, 100, 257, 1000]),
                "dtype": rng.choice(["float64", "complex128"]),
                "kind": rng.choice(["random", "smooth", "constant", "zeros"]),
                "scale_exp": scale_exp,
                "e_tol": 10.0 ** rng.uniform(-15, -1),
                "events": rng.choice([1, 2, 4, 8]),
                "hint": rng.choice(["random", "smooth"]),
                "data_seed": draw_data_seed(rng),
            },
        )

    @staticmethod
    def _codec(spec: dict):
        from repro.compression.base import IdentityCodec
        from repro.compression.lossless import ShuffleZlibCodec
        from repro.compression.mantissa import MantissaTrimCodec
        from repro.compression.truncation import CastCodec
        from repro.compression.zfp_like import ZfpLikeCodec

        family = spec["family"]
        if family == "identity":
            return IdentityCodec()
        if family == "lossless":
            return ShuffleZlibCodec(level=1)
        if family == "trim":
            return MantissaTrimCodec(spec["bits"], rounding=spec["rounding"])
        if family == "cast":
            return CastCodec(spec["fmt"], scaled=spec["scaled"])
        if "tolerance" in spec:
            return ZfpLikeCodec(tolerance=spec["tolerance"])
        return ZfpLikeCodec(rate=spec["rate"])

    @staticmethod
    def _data(sc: Scenario) -> np.ndarray:
        rng = np.random.default_rng(sc.params["data_seed"])
        n = sc.params["n"]
        scale = 10.0 ** sc.params["scale_exp"]
        kind = sc.params["kind"]
        if kind == "zeros":
            real = np.zeros(n)
        elif kind == "constant":
            real = np.full(n, scale)
        elif kind == "smooth":
            t = np.linspace(0.0, 4.0 * np.pi, max(n, 1))[:n]
            real = scale * (np.sin(t) + 0.3 * np.cos(3.0 * t))
        else:
            real = scale * rng.standard_normal(n)
        if sc.params["dtype"] == "complex128":
            imag = scale * rng.standard_normal(n) if kind == "random" else real[::-1].copy()
            return (real + 1j * imag).astype(np.complex128)
        return real

    def check(self, sc: Scenario) -> None:
        from repro.accuracy.bounds import achieved_relative_error
        from repro.collectives.wire import decode_wire, encode_wire
        from repro.compression.selection import codec_for_tolerance

        codec = self._codec(sc.params["codec"])
        x = self._data(sc)
        msg = codec.compress(x)
        back = codec.decompress(msg)

        if back.shape != x.shape or back.dtype != x.dtype:
            raise ConformanceFailure(
                f"{codec.name}: round-trip changed shape/dtype: "
                f"{x.shape}/{x.dtype} -> {back.shape}/{back.dtype}"
            )
        if codec.lossless and not np.array_equal(back, x):
            raise ConformanceFailure(f"{codec.name}: lossless codec is not bit-exact")

        spec = sc.params["codec"]
        stream = x.view(np.float64).reshape(-1) if x.dtype == np.complex128 else x
        bstream = back.view(np.float64).reshape(-1) if back.dtype == np.complex128 else back
        if spec["family"] == "trim":
            # the chunked, planar kernels against the reference rounding,
            # bit for bit; and the error measured while encoding against
            # the one a round trip measures (NaN matching NaN)
            want = trim_roundtrip_reference(
                x, spec["bits"], codec.bytes_per_value, rounding=spec["rounding"]
            )
            if not np.array_equal(back.view(np.uint64), want.view(np.uint64)):
                raise ConformanceFailure(
                    f"{codec.name}: round trip is not bit-identical to trim_mantissa"
                )
            measured = codec.compress_measured(x)[1]
            achieved = achieved_relative_error(x, back)
            if not np.array_equal(measured, achieved, equal_nan=True):
                raise ConformanceFailure(
                    f"{codec.name}: compress_measured reports {measured!r}, "
                    f"a round trip measures {achieved!r}"
                )
            bound = codec.error_bound
            bad = np.abs(bstream - stream) > bound * np.abs(stream)
            if bool(np.any(bad)):
                i = int(np.flatnonzero(bad)[0])
                raise ConformanceFailure(
                    f"{codec.name}: per-value bound {bound:g} violated at {i}: "
                    f"{stream[i]!r} -> {bstream[i]!r}"
                )
        elif spec["family"] == "cast":
            u = codec.fmt.unit_roundoff
            rel = relative_error(bstream, stream)
            if stream.size and float(np.linalg.norm(stream)) > 0 and rel > TOLERANCE_SLACK * u:
                raise ConformanceFailure(
                    f"{codec.name}: normwise error {rel:.3e} > {TOLERANCE_SLACK:g} x u = "
                    f"{TOLERANCE_SLACK * u:.3e}"
                )
        elif spec["family"] == "zfp" and "tolerance" in spec and stream.size:
            peak = float(np.abs(stream).max())
            worst = float(np.abs(bstream - stream).max())
            if worst > max(TOLERANCE_SLACK * spec["tolerance"], 4.0 * 2.0**-40) * peak:
                raise ConformanceFailure(
                    f"{codec.name}: max error {worst:.3e} > {TOLERANCE_SLACK:g} x tol x peak"
                )

        # scale equivariance: a codec with a stated bound rounds relative to
        # the message, so scaling by 2**k commutes with the round trip, bit
        # for bit, wherever message and round trip stay in the normal range
        # of the format the values are rounded in
        bound = codec.error_bound
        mags = np.abs(np.concatenate([stream, bstream]))
        mags = mags[mags > 0]
        if bound is not None and np.isfinite(bound) and mags.size:
            from repro.precision.formats import FP64

            fmt = codec.fmt if spec["family"] == "cast" and not codec.scaled else FP64
            for k in range(-100, 101, 5):
                s = 2.0**k
                lo, hi = mags.min() * s, mags.max() * s
                if not fmt.smallest_normal <= lo <= hi <= fmt.largest_normal:
                    continue
                got = codec.decompress(codec.compress(x * s))
                if got.tobytes() != (back * s).tobytes():
                    raise ConformanceFailure(
                        f"{codec.name}: the round trip of x * 2**{k} is not 2**{k} times "
                        f"the round trip of x"
                    )

        # fixed-rate codecs must predict their own wire size exactly
        if codec.rate is not None and spec["family"] != "zfp":
            predicted = codec.compressed_nbytes(msg.n_values)
            if int(msg.payload.nbytes) != predicted:
                raise ConformanceFailure(
                    f"{codec.name}: payload {msg.payload.nbytes} B != predicted {predicted} B"
                )

        # the checksummed wire frame must be a faithful envelope
        frame = encode_wire(msg)
        decoded, consumed = decode_wire(frame)
        if consumed != int(frame.size):
            raise ConformanceFailure(
                f"{codec.name}: decode consumed {consumed} B of a {frame.size} B frame"
            )
        if (
            decoded.codec_name != msg.codec_name
            or decoded.dtype_name != msg.dtype_name
            or tuple(decoded.shape) != tuple(msg.shape)
            or not np.array_equal(decoded.payload, msg.payload)
        ):
            raise ConformanceFailure(f"{codec.name}: wire frame round-trip mutated the message")

        # one error budget: what the allocator picks for `events`
        # compressions states a bound whose quadrature sum fits e_tol
        e_tol, events = sc.params["e_tol"], sc.params["events"]
        chosen = codec_for_tolerance(e_tol, events, n=1, data_hint=sc.params["hint"])
        if np.sqrt(events) * chosen.error_bound > e_tol:
            raise ConformanceFailure(
                f"selection: e_tol={e_tol:.3e} over {events} events chose {chosen.name}, "
                f"whose bound {chosen.error_bound:.3e} x sqrt({events}) exceeds it"
            )

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        if sc.params["n"] > 64:
            yield sc.with_params(n=64)
        if sc.params["n"] > 1:
            yield sc.with_params(n=sc.params["n"] // 2)
        if sc.params["dtype"] != "float64":
            yield sc.with_params(dtype="float64")
        if sc.params["kind"] != "constant":
            yield sc.with_params(kind="constant")
        if sc.params["scale_exp"] != 0.0:
            yield sc.with_params(scale_exp=0.0)


# -- 4. FFT differential ----------------------------------------------------------------


def _valid_fft_geometry(shape: list[int], nranks: int) -> bool:
    from repro.errors import DecompositionError
    from repro.fft.decomposition import brick_decomposition, pencil_decomposition

    try:
        brick_decomposition(tuple(shape), nranks)
        for axis in range(3):
            pencil_decomposition(tuple(shape), nranks, axis)
    except DecompositionError:
        return False
    return True


def _draw_fft_geometry(rng: random.Random, dims: list[int], ranks: list[int]):
    """A random ``(shape, nranks)`` every layout of the pipeline admits."""
    for _ in range(64):
        shape = [rng.choice(dims) for _ in range(3)]
        nranks = rng.choice(ranks)
        if _valid_fft_geometry(shape, nranks):
            return shape, nranks
    return [4, 4, 4], 2  # pragma: no cover - the menus always admit (2,2,2) x 1


def _shrink_fft_geometry(sc: Scenario) -> Iterator[Scenario]:
    """Fewer ranks, then each axis cut to 2 — while the geometry stays valid."""
    p = sc.params["nranks"]
    shape = sc.params["shape"]
    for cand_p in sorted({1, 2, p - 1}):
        if 0 < cand_p < p and _valid_fft_geometry(shape, cand_p):
            yield sc.with_params(nranks=cand_p)
    for axis in range(3):
        if shape[axis] > 2:
            cand = list(shape)
            cand[axis] = 2
            if _valid_fft_geometry(cand, p):
                yield sc.with_params(shape=cand)
    if sc.params["batch"]:
        yield sc.with_params(batch=0)


class FftProperty(Property):
    name = "fft"

    def generate(self, rng: random.Random) -> Scenario:
        shape, nranks = _draw_fft_geometry(rng, [2, 3, 4, 5, 6, 7, 8], [1, 2, 2, 3, 4, 4, 5, 6])
        mode = rng.choice(["exact", "exact", "e_tol"])
        return Scenario(
            self.name,
            {
                "shape": shape,
                "nranks": nranks,
                "batch": rng.choice([0, 0, 0, 2]),
                "mode": mode,
                "e_tol": rng.choice([1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]),
                "roundtrip": rng.random() < 0.4,
                "data_seed": draw_data_seed(rng),
                # drawn last, so the fields above keep their per-seed values
                "method": rng.choice(["reference", "pairwise", "osc"]),
            },
        )

    def check(self, sc: Scenario) -> None:
        from repro.fft.plan import Fft3d, FftStats

        shape = tuple(sc.params["shape"])
        batch = (sc.params["batch"],) if sc.params["batch"] else ()
        rng = np.random.default_rng(sc.params["data_seed"])
        x = (
            rng.standard_normal(batch + shape) + 1j * rng.standard_normal(batch + shape)
        ).astype(np.complex128)

        if sc.params["mode"] == "exact":
            plan = Fft3d(shape, sc.params["nranks"])
            tol = 1e-9
        else:
            plan = Fft3d(shape, sc.params["nranks"], e_tol=sc.params["e_tol"])
            if plan.guaranteed_tolerance > sc.params["e_tol"]:
                raise ConformanceFailure(
                    f"fft: plan guarantees {plan.guaranteed_tolerance:.3e} "
                    f"> requested e_tol {sc.params['e_tol']:.3e}"
                )
            tol = TOLERANCE_SLACK * sc.params["e_tol"] + 1e-9

        y = plan.forward(x)
        rel = relative_error(y, numpy_fft_reference(x))
        if rel > tol:
            raise ConformanceFailure(
                f"fft: forward error {rel:.3e} > {tol:.3e} "
                f"(shape={shape}, p={sc.params['nranks']}, mode={sc.params['mode']})"
            )
        stats = plan.last_stats
        if sc.params["mode"] == "e_tol" and stats.wire_bytes > stats.logical_bytes:
            raise ConformanceFailure(
                f"fft: truncation-family exchange expanded on the wire: "
                f"{stats.wire_bytes} > {stats.logical_bytes} B"
            )
        # Same plan, same bytes on a real communicator (e_tol plans run the
        # compressed exchange whatever the method).
        locals_ = plan.scatter(x)

        def kernel(comm):
            mine = FftStats()
            block = plan.forward_spmd(
                comm, locals_[comm.rank], method=sc.params.get("method", "osc"), stats=mine
            )
            return block, mine.totals()

        _check_spmd_matches_virtual("fft", kernel, plan.scatter(y), stats.totals())
        if sc.params["roundtrip"]:
            back = plan.backward(y)
            rel = relative_error(back, x)
            if rel > 2.0 * tol:
                raise ConformanceFailure(f"fft: round-trip error {rel:.3e} > {2.0 * tol:.3e}")

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        yield from _shrink_fft_geometry(sc)
        if sc.params["roundtrip"]:
            yield sc.with_params(roundtrip=False)


# -- 5. reshape geometry ----------------------------------------------------------------


def _decomp(kind: str, shape: tuple[int, int, int], nranks: int):
    from repro.fft.decomposition import brick_decomposition, pencil_decomposition

    if kind == "brick":
        return brick_decomposition(shape, nranks)
    return pencil_decomposition(shape, nranks, int(kind[-1]))


class ReshapeProperty(Property):
    name = "reshape"

    def generate(self, rng: random.Random) -> Scenario:
        kinds = ["brick", "pencil0", "pencil1", "pencil2"]
        shape, nranks = _draw_fft_geometry(rng, [2, 3, 4, 5, 6, 7, 8, 9], [1, 2, 3, 4, 5, 6])
        return Scenario(
            self.name,
            {
                "shape": shape,
                "nranks": nranks,
                "src": rng.choice(kinds),
                "dst": rng.choice(kinds),
                "dtype": rng.choice(["float64", "complex128"]),
                "batch": rng.choice([0, 0, 3]),
                "data_seed": draw_data_seed(rng),
            },
        )

    def check(self, sc: Scenario) -> None:
        from repro.collectives.base import ExchangeStats
        from repro.collectives import SlotExchange
        from repro.fft.reshape import ReshapePlan
        from repro.runtime.virtual import VirtualWorld

        shape = tuple(sc.params["shape"])
        p = sc.params["nranks"]
        src = _decomp(sc.params["src"], shape, p)
        dst = _decomp(sc.params["dst"], shape, p)
        plan = ReshapePlan(src, dst)
        batch = (sc.params["batch"],) if sc.params["batch"] else ()
        rng = np.random.default_rng(sc.params["data_seed"])
        x = rng.standard_normal(batch + shape)
        if sc.params["dtype"] == "complex128":
            x = (x + 1j * rng.standard_normal(batch + shape)).astype(np.complex128)

        world = VirtualWorld(p)
        stats = ExchangeStats()
        locals_ = scatter_global(src, x)
        out = plan.run_virtual(world, locals_, stats=stats)
        got = gather_global(dst, out)
        if not np.array_equal(got, x):
            bad = int(np.flatnonzero((got != x).reshape(-1))[0])
            raise ConformanceFailure(
                f"reshape {sc.params['src']}->{sc.params['dst']}: cell {bad} corrupted"
            )

        itembytes = x.itemsize * (int(np.prod(batch)) if batch else 1)
        expected_bytes = plan.total_bytes(itemsize=itembytes)
        if world.traffic.messages != plan.n_messages:
            raise ConformanceFailure(
                f"reshape: traffic logged {world.traffic.messages} messages, "
                f"plan says {plan.n_messages}"
            )
        if world.traffic.total_bytes != expected_bytes:
            raise ConformanceFailure(
                f"reshape: traffic logged {world.traffic.total_bytes} B, "
                f"plan says {expected_bytes} B"
            )
        if (
            stats.messages != plan.n_messages
            or stats.logical_bytes != expected_bytes
            or stats.wire_bytes != expected_bytes
        ):
            raise ConformanceFailure(
                f"reshape: stats ({stats.messages} msgs, {stats.logical_bytes}/"
                f"{stats.wire_bytes} B) disagree with plan ({plan.n_messages} msgs, "
                f"{expected_bytes} B)"
            )

        def kernel(comm):  # the same stage objects behind the reference exchange
            mine = ExchangeStats()
            return plan.run_spmd(comm, locals_[comm.rank], stats=mine), mine

        _check_spmd_matches_virtual("reshape", kernel, out, stats)

        def bound(comm):  # ... and behind the pairwise ring bound to pair slots
            op = SlotExchange(comm, rule="credit")
            op.table = op.slot_table(plan.message_elements(batch)[0], x.itemsize)
            op.transport.grow([op.table])
            mine = ExchangeStats()
            try:
                return plan.run_spmd(comm, locals_[comm.rank], op, stats=mine), mine
            finally:
                op.transport.free()

        _check_spmd_matches_virtual("reshape (bound pairwise)", bound, out, stats)

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        yield from _shrink_fft_geometry(sc)
        if sc.params["dtype"] != "float64":
            yield sc.with_params(dtype="float64")


# -- 6. tracer/stats consistency --------------------------------------------------------


class TraceProperty(Property):
    name = "trace"

    def generate(self, rng: random.Random) -> Scenario:
        mode = rng.choice(["pairwise", "compressed", "virtual"])
        params: dict = {"mode": mode, "data_seed": draw_data_seed(rng)}
        if mode == "virtual":
            for _ in range(64):
                shape = [rng.choice([2, 3, 4, 5, 6])] * 3
                nranks = rng.choice([1, 2, 3, 4])
                if _valid_fft_geometry(shape, nranks):
                    break
            params.update(shape=shape, nranks=nranks, src="brick", dst=f"pencil{rng.randrange(3)}")
        else:
            p = rng.choice([2, 3, 4, 5])
            params.update(nranks=p, sizes=draw_sizes_matrix(rng, p, max_items=32))
            if mode == "compressed":
                params["codec"] = rng.choice(["identity", "trim", "cast"])
        return Scenario(self.name, params)

    def check(self, sc: Scenario) -> None:
        from repro.trace import tracing

        mode = sc.params["mode"]
        with tracing() as tracer:
            expect = self._run(sc)
        for name in _VOLUME:
            got, want = int(tracer.counter_total(name)), getattr(expect, name)
            if got != want:
                raise ConformanceFailure(
                    f"trace[{mode}]: tracer {name}={got} but stats say {want} ({expect})"
                )

    def _run(self, sc: Scenario):
        """Run the scenario's exchange; return the stats-side ``ExchangeStats``."""
        from repro.collectives.base import ExchangeStats

        mode = sc.params["mode"]
        if mode == "virtual":
            from repro.fft.reshape import ReshapePlan
            from repro.runtime.virtual import VirtualWorld

            shape = tuple(sc.params["shape"])
            p = sc.params["nranks"]
            plan = ReshapePlan(
                _decomp(sc.params["src"], shape, p), _decomp(sc.params["dst"], shape, p)
            )
            rng = np.random.default_rng(sc.params["data_seed"])
            x = rng.standard_normal(shape)
            stats = ExchangeStats()
            plan.run_virtual(VirtualWorld(p), scatter_global(plan.src, x), stats=stats)
            return stats

        from repro.runtime.thread_rt import ThreadWorld

        p = sc.params["nranks"]
        send = make_send_matrix(sc.params["sizes"], "float64", sc.params["data_seed"])
        if mode == "pairwise":
            from repro.collectives import SlotExchange

            def kernel(comm):
                op = SlotExchange(comm, rule="credit")
                try:
                    op(send[comm.rank])
                finally:
                    op.free()

            ThreadWorld(p).run(kernel)
            sizes = [arr.nbytes for row in send for arr in row if arr.size]
            return ExchangeStats(len(sizes), sum(sizes), sum(sizes))

        from repro.collectives import SlotExchange
        from repro.compression.base import IdentityCodec
        from repro.compression.mantissa import MantissaTrimCodec
        from repro.compression.truncation import CastCodec

        codec = {
            "identity": IdentityCodec(),
            "trim": MantissaTrimCodec(30),
            "cast": CastCodec("fp32"),
        }[sc.params["codec"]]

        def kernel(comm):
            op = SlotExchange(comm, codec)
            try:
                op(send[comm.rank])
            finally:
                op.free()
            return op.last_stats

        return ExchangeStats().merge(*ThreadWorld(p).run(kernel))

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        if sc.params["mode"] == "virtual":
            return
        p = sc.params["nranks"]
        if p > 2:
            for drop in range(p - 1, -1, -1):
                yield sc.with_params(nranks=p - 1, sizes=_shrunk_matrix(sc.params["sizes"], drop))
        if any(c > 1 for row in sc.params["sizes"] for c in row):
            yield sc.with_params(sizes=[[c // 2 for c in row] for row in sc.params["sizes"]])


# -- 7. fault-plan recovery -------------------------------------------------------------


class FaultsProperty(Property):
    name = "faults"

    def generate(self, rng: random.Random) -> Scenario:
        p = rng.choice([2, 3, 4])
        rules = []
        for _ in range(rng.choice([1, 1, 2])):
            kind = rng.choice(["bitflip", "bitflip", "codec", "straggle"])
            rule: dict = {"kind": kind, "rank": rng.randrange(p)}
            if kind == "bitflip":
                rule["peer"] = rng.randrange(p)
                rule["bits"] = rng.choice([1, 2, 3])
            elif kind == "straggle":
                rule["delay"] = 0.002
            rules.append(rule)
        sizes = draw_sizes_matrix(rng, p, max_items=32)
        for rule in rules:  # make sure targeted pairs actually carry data
            if rule["kind"] == "bitflip":
                s, d = rule["rank"], rule["peer"]
                sizes[s][d] = max(sizes[s][d], 4)
        return Scenario(
            self.name,
            {
                "nranks": p,
                "sizes": sizes,
                "rules": rules,
                "plan_seed": rng.randrange(2**16),
                "codec": rng.choice(["identity", "lossless"]),
                "data_seed": draw_data_seed(rng),
            },
        )

    def check(self, sc: Scenario) -> None:
        from repro.collectives import SlotExchange
        from repro.compression.base import IdentityCodec
        from repro.compression.lossless import ShuffleZlibCodec
        from repro.faults import FaultPlan, FaultRule, RetryPolicy
        from repro.runtime.thread_rt import ThreadWorld

        p = sc.params["nranks"]
        send = make_send_matrix(sc.params["sizes"], "float64", sc.params["data_seed"])
        want = expected_recv(send)
        plan = FaultPlan(
            [FaultRule(**rule) for rule in sc.params["rules"]], seed=sc.params["plan_seed"]
        )
        codec = IdentityCodec() if sc.params["codec"] == "identity" else ShuffleZlibCodec(level=1)
        policy = RetryPolicy(max_attempts=2, base_delay=1e-4, max_delay=1e-3)

        def kernel(comm):
            op = SlotExchange(comm, codec, retry_policy=policy)
            try:
                recv = op(send[comm.rank])
            finally:
                op.free()
            return recv, op.last_report

        world = ThreadWorld(p, faults=plan)
        results = world.run(kernel)
        for d in range(p):
            recv, _ = results[d]
            for s in range(p):
                assert_blocks_equal(
                    recv[s], want[d][s], where=f"faults: rank {d} <- rank {s}"
                )
        flips = world.injector.injected("bitflip") if world.injector is not None else 0
        if flips:
            reports = [results[d][1] for d in range(p)]
            if all(r.clean for r in reports):
                raise ConformanceFailure(
                    f"faults: {flips} bitflip(s) fired but every resilience report is clean"
                )

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        if len(sc.params["rules"]) > 1:
            for i in range(len(sc.params["rules"])):
                yield sc.with_params(rules=[r for j, r in enumerate(sc.params["rules"]) if j != i])
        if any(c > 4 for row in sc.params["sizes"] for c in row):
            yield sc.with_params(
                sizes=[[min(c, 4) for c in row] for row in sc.params["sizes"]]
            )


# -- 8. cross-runtime differential ------------------------------------------------------

#: Codec names the runtime differential sweeps: no compression, the
#: lossless fallback, and a genuinely lossy cast.
RUNTIME_CODECS = ("identity", "zlib1_shuffle", "cast_fp32")


class RuntimeProperty(Property):
    """Proc-vs-thread equivalence of one seeded compressed exchange."""

    name = "runtime"

    def generate(self, rng: random.Random) -> Scenario:
        p = rng.choice([1, 2, 2, 3, 3, 4, 5])
        return Scenario(
            self.name,
            {
                "nranks": p,
                "sizes": draw_sizes_matrix(rng, p, max_items=32),
                "dtype": "float64",
                "codec": rng.choice(["identity", "identity", "zlib1_shuffle", "cast_fp32"]),
                "runtimes": ["thread", "proc"],
                "pipeline_chunks": rng.choice([1, 1, 2]),
                "data_seed": draw_data_seed(rng),
            },
        )

    def check(self, sc: Scenario) -> None:
        from repro.collectives import SlotExchange
        from repro.runtime import make_world
        from repro.runtime.shm import fork_available
        from repro.tuning.profile import codec_from_name

        runtimes = [
            r for r in sc.params["runtimes"] if r != "proc" or fork_available()
        ]
        if not runtimes:  # non-POSIX platform: nothing to differentiate
            return
        p = sc.params["nranks"]
        send = make_send_matrix(sc.params["sizes"], sc.params["dtype"], sc.params["data_seed"])
        want = expected_recv(send)
        codec = codec_from_name(sc.params["codec"])
        tol = codec.error_bound
        chunks = sc.params["pipeline_chunks"]

        def kernel(comm):
            op = SlotExchange(comm, codec, pipeline_chunks=chunks)
            try:
                recv = op(send[comm.rank])
            finally:
                op.free()
            return [np.asarray(b) for b in recv]

        per_runtime: dict[str, list] = {}
        for runtime in runtimes:
            per_runtime[runtime] = make_world(runtime, p).run(kernel)

        # Oracle check per runtime: exact when the codec is lossless,
        # normwise within the codec tolerance (x slack) otherwise.
        for runtime, results in per_runtime.items():
            for d in range(p):
                for s in range(p):
                    got, ref = results[d][s], want[d][s]
                    if tol == 0.0:
                        assert_blocks_equal(
                            got, ref, where=f"runtime={runtime}: rank {d} <- rank {s}"
                        )
                    else:
                        err = relative_error(np.asarray(got), np.asarray(ref))
                        if err > tol * TOLERANCE_SLACK:
                            raise ConformanceFailure(
                                f"runtime={runtime}: rank {d} <- rank {s} error "
                                f"{err:.3e} exceeds {tol:.3e} x {TOLERANCE_SLACK}"
                            )

        # Cross-runtime check: the codec pipeline is deterministic, so
        # thread and proc must agree to the byte even for lossy codecs.
        if len(per_runtime) > 1:
            base_name, *other_names = list(per_runtime)
            base = per_runtime[base_name]
            for other_name in other_names:
                other = per_runtime[other_name]
                for d in range(p):
                    for s in range(p):
                        assert_blocks_equal(
                            other[d][s],
                            base[d][s],
                            where=(
                                f"{other_name} vs {base_name}: rank {d} <- rank {s}"
                            ),
                        )

    def shrink(self, sc: Scenario) -> Iterator[Scenario]:
        p = sc.params["nranks"]
        sizes = sc.params["sizes"]
        # one runtime at a time (pins the failure to a substrate vs the oracle)
        if len(sc.params["runtimes"]) > 1:
            for r in sc.params["runtimes"]:
                yield sc.with_params(runtimes=[r])
        if p > 1:
            for drop in range(p - 1, -1, -1):
                yield sc.with_params(nranks=p - 1, sizes=_shrunk_matrix(sizes, drop))
        if any(c > 1 for row in sizes for c in row):
            yield sc.with_params(sizes=[[c // 2 for c in row] for row in sizes])
            yield sc.with_params(sizes=[[min(c, 1) for c in row] for row in sizes])
        if sc.params["codec"] != "identity":
            yield sc.with_params(codec="identity")
        if sc.params["pipeline_chunks"] != 1:
            yield sc.with_params(pipeline_chunks=1)


#: Registry, in the order cases are dealt round-robin.
PROPERTIES: dict[str, Property] = {
    p.name: p
    for p in (
        AlltoallvProperty(),
        BruckProperty(),
        CodecProperty(),
        FftProperty(),
        ReshapeProperty(),
        TraceProperty(),
        FaultsProperty(),
        RuntimeProperty(),
    )
}
