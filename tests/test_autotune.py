"""Exchange autotuner: sweep, profile persistence, and Fft3d pickup."""

import json

import numpy as np
import pytest

from repro.compression.base import IdentityCodec
from repro.compression.lossless import ShuffleZlibCodec
from repro.compression.truncation import CastCodec
from repro.errors import TuningError
from repro.fft import Fft3d
from repro.machine import Topology, laptop_spec
from repro.runtime import run_spmd
from repro.tuning import (
    PROFILE_SCHEMA,
    TuningEntry,
    TuningProfile,
    codec_from_name,
)
from repro.tuning.autotune import Candidate, resolve_machine, sweep, tune


class TestCodecFromName:
    def test_round_trips_known_names(self):
        for codec in (
            IdentityCodec(),
            ShuffleZlibCodec(level=1, shuffle=True),
            ShuffleZlibCodec(level=9, shuffle=False),
            CastCodec("fp32"),
            CastCodec("fp16", scaled=True),
        ):
            assert codec_from_name(codec.name).name == codec.name

    def test_unknown_name_raises(self):
        with pytest.raises(TuningError):
            codec_from_name("warp-drive")


class TestProfileSchema:
    def test_record_lookup_and_key_format(self):
        profile = TuningProfile(machine="laptop")
        entry = TuningEntry(
            codec="cast_fp32", pipeline_chunks=2, variant="two-level", measured_s=0.01
        )
        key = profile.record(4, (12, 12, 12), entry)
        assert key == "laptop/p4/12x12x12"
        assert profile.lookup(4, (12, 12, 12)) is entry
        assert profile.lookup(8, (12, 12, 12)) is None
        # a different machine name misses even for the same geometry
        assert profile.lookup(4, (12, 12, 12), machine="summit") is None

    def test_save_load_round_trip(self, tmp_path):
        profile = TuningProfile(machine="laptop")
        profile.record(
            4,
            (8, 8, 8),
            TuningEntry(
                codec="zlib1_shuffle",
                pipeline_chunks=1,
                variant="flat",
                measured_s=0.002,
                swept=18,
            ),
        )
        path = str(tmp_path / "TUNING_test.json")
        profile.save(path)
        reloaded = TuningProfile.load(path)
        assert reloaded.to_payload() == profile.to_payload()
        assert reloaded.entries["laptop/p4/8x8x8"].swept == 18

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"schema": "repro-tuning-profile-v0", "machine": "x"}))
        with pytest.raises(TuningError, match="schema"):
            TuningProfile.load(str(path))

    def test_malformed_entry_rejected(self):
        payload = {
            "schema": PROFILE_SCHEMA,
            "machine": "laptop",
            "entries": {"laptop/p4/8x8x8": {"codec": "identity"}},
        }
        with pytest.raises(TuningError, match="malformed"):
            TuningProfile.from_payload(payload)

    def test_entry_validates_eagerly(self):
        with pytest.raises(TuningError):
            TuningEntry(codec="nope", pipeline_chunks=1, variant="flat", measured_s=0.0)
        with pytest.raises(TuningError):
            TuningEntry(codec="identity", pipeline_chunks=0, variant="flat", measured_s=0.0)
        with pytest.raises(TuningError):
            TuningEntry(
                codec="identity", pipeline_chunks=1, variant="diagonal", measured_s=0.0
            )


class TestSweep:
    def test_resolve_machine(self):
        assert resolve_machine(None).name == "laptop"
        spec = laptop_spec()
        assert resolve_machine(spec) is spec
        assert resolve_machine("summit").name == "summit"
        with pytest.raises(TuningError):
            resolve_machine("cray-1")

    def test_tiny_sweep_measures_every_candidate(self):
        results, spec = sweep(
            (8, 8, 8),
            4,
            machine="laptop",
            codecs=("identity", "cast_fp32"),
            chunk_candidates=(1, 2),
            repeats=1,
            iters=1,
        )
        assert spec.name == "laptop"
        # laptop packs 2 ranks/node -> 2 nodes -> both variants swept
        assert len(results) == 2 * 2 * 2
        assert {r.candidate.variant for r in results} == {"flat", "two-level"}
        assert all(r.median_s > 0 and len(r.samples) == 1 for r in results)
        # sorted fastest-first
        medians = [r.median_s for r in results]
        assert medians == sorted(medians)
        payload = results[0].as_payload()
        assert set(payload) == {"codec", "pipeline_chunks", "variant", "median_s", "samples"}

    def test_odd_rank_count_sweeps_flat_only(self):
        results, _ = sweep(
            (8, 8, 8),
            3,  # does not pack laptop's 2-GPU nodes
            machine="laptop",
            codecs=("identity",),
            chunk_candidates=(1,),
            repeats=1,
            iters=1,
        )
        assert {r.candidate.variant for r in results} == {"flat"}

    def test_empty_grid_raises(self):
        with pytest.raises(TuningError, match="empty sweep grid"):
            sweep((8, 8, 8), 4, codecs=(), repeats=1, iters=1)

    def test_e_tol_swaps_in_a_tolerance_respecting_codec(self):
        results, _ = sweep(
            (8, 8, 8),
            4,
            machine="laptop",
            chunk_candidates=(1,),
            variants=("flat",),
            e_tol=1e-12,
            repeats=1,
            iters=1,
        )
        names = {r.candidate.codec for r in results}
        assert "cast_fp32" not in names  # fp32 can't honour 1e-12
        # the tolerance-respecting replacement: one bare exchange spends
        # the whole budget on one compression
        assert "trim_m39" in names
        assert "identity" in names and "zlib1_shuffle" in names  # lossless kept


class TestTune:
    def test_tune_records_the_winner(self):
        profile, key, results = tune(
            (8, 8, 8),
            4,
            machine="laptop",
            codecs=("identity",),
            chunk_candidates=(1, 2),
            repeats=1,
            iters=1,
        )
        assert key == "laptop/p4/8x8x8"
        entry = profile.entries[key]
        assert entry.codec == results[0].candidate.codec
        assert entry.pipeline_chunks == results[0].candidate.pipeline_chunks
        assert entry.swept == len(results)

    def test_tune_appends_to_matching_profile_only(self):
        profile = TuningProfile(machine="summit")
        with pytest.raises(TuningError, match="machine"):
            tune(
                (8, 8, 8),
                4,
                machine="laptop",
                profile=profile,
                codecs=("identity",),
                chunk_candidates=(1,),
                repeats=1,
                iters=1,
            )


class TestFftTuningPickup:
    def _profile(self, shape, nranks, machine="laptop"):
        profile = TuningProfile(machine=machine)
        profile.record(
            nranks,
            shape,
            TuningEntry(
                codec="cast_fp32",
                pipeline_chunks=2,
                variant="two-level",
                measured_s=0.001,
            ),
        )
        return profile

    def test_plan_adopts_tuned_entry(self):
        shape, nranks = (12, 12, 12), 4
        topo = Topology(laptop_spec(), nranks)
        plan = Fft3d(shape, nranks, topology=topo, tuning=self._profile(shape, nranks))
        assert plan.tuned_key == "laptop/p4/12x12x12"
        assert plan.codec is not None and plan.codec.name == "cast_fp32"

    def test_explicit_codec_wins_over_tuned_codec(self):
        shape, nranks = (12, 12, 12), 4
        plan = Fft3d(
            shape,
            nranks,
            codec=IdentityCodec(),
            topology=Topology(laptop_spec(), nranks),
            tuning=self._profile(shape, nranks),
        )
        assert plan.tuned_key is not None  # chunks/variant still adopted
        assert plan.codec.name == "identity"

    def test_profile_miss_leaves_plan_untouched(self):
        plan = Fft3d((12, 12, 12), 4, tuning=self._profile((16, 16, 16), 4))
        assert plan.tuned_key is None and plan.codec is None

    def test_tuned_forward_matches_untuned(self, tmp_path):
        shape, nranks = (12, 12, 12), 4
        rng = np.random.default_rng(42)
        x = rng.random(shape) + 1j * rng.random(shape)
        topo = Topology(laptop_spec(), nranks)
        profile = self._profile(shape, nranks)
        path = str(tmp_path / "TUNING_t.json")
        profile.save(path)

        def run(plan):
            locals_ = plan.scatter(x)
            return plan.gather(
                run_spmd(nranks, lambda comm: plan.forward_spmd(comm, locals_[comm.rank]))
            )

        # tuning= accepts a path too; codec is lossy so compare tuned paths
        tuned = run(Fft3d(shape, nranks, topology=topo, tuning=profile))
        from_disk = run(Fft3d(shape, nranks, topology=topo, tuning=path))
        baseline = run(Fft3d(shape, nranks, codec=CastCodec("fp32")))
        assert np.array_equal(tuned, from_disk)
        assert np.array_equal(tuned, baseline)
