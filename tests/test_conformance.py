"""The conformance harness's own tests: determinism, detection power, shrinking.

The load-bearing part is the *self-test*: install a deliberate defect
(an off-by-one put offset) through the test-only mutation hooks and
prove the harness (a) catches it within 50 generated cases, (b) shrinks
the counterexample to a handful of ranks, and (c) replays the failing
case bit-for-bit from its seed.  A property harness that cannot catch a
planted bug is decoration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.selection import codec_for_tolerance, guaranteed_error
from repro.conformance import hooks
from repro.conformance.properties import PROPERTIES, check_scenario
from repro.conformance.runner import (
    ConformanceReport,
    case_rng,
    generate_case,
    run_case,
    run_conformance,
)
from repro.conformance.scenario import Scenario
from repro.conformance.shrink import shrink_failure


@pytest.fixture(autouse=True)
def _no_leftover_mutations():
    yield
    hooks.clear_mutations()


# -- determinism / replay ---------------------------------------------------------------


def test_scenario_generation_is_deterministic() -> None:
    for index in range(14):
        a = generate_case(seed=123, index=index)
        b = generate_case(seed=123, index=index)
        assert a.to_json() == b.to_json()


def test_distinct_seeds_give_distinct_scenarios() -> None:
    a = [generate_case(seed=1, index=i).to_json() for i in range(7)]
    b = [generate_case(seed=2, index=i).to_json() for i in range(7)]
    assert a != b


def test_case_rng_is_platform_stable() -> None:
    # str-seeded random.Random hashes via SHA-512: fixed across builds.
    assert case_rng(0, 0).randrange(2**31) == case_rng(0, 0).randrange(2**31)
    assert [case_rng(5, 3).randrange(100) for _ in range(3)] == [
        case_rng(5, 3).randrange(100) for _ in range(3)
    ]


def test_scenario_json_roundtrip() -> None:
    sc = Scenario("alltoallv", {"nranks": 3, "sizes": [[1, 2, 0]] * 3, "dtype": "float64"})
    assert Scenario.from_json(sc.to_json()).to_json() == sc.to_json()
    assert sc.with_params(nranks=2).params["nranks"] == 2
    assert sc.params["nranks"] == 3  # original untouched


# -- a clean run passes ----------------------------------------------------------------


def test_clean_run_all_properties_pass() -> None:
    report = run_conformance(seed=20260806, cases=14)
    assert report.ok, "\n".join(f"{o.index}: {o.failure}" for o in report.failures)
    assert set(report.per_property()) == set(PROPERTIES)


# -- the self-test: a planted defect is caught, shrunk, and replayable ------------------


def test_planted_offset_bug_is_caught_and_shrunk() -> None:
    """Off-by-one put offset: caught within 50 cases, shrunk to <= 4 ranks."""
    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        report = run_conformance(seed=0, cases=50, properties=["alltoallv"], shrink=True)
        assert report.failures, "harness failed to catch a planted off-by-one"
        first = report.failures[0]
        assert first.shrunk is not None
        assert first.shrunk.params["nranks"] <= 4
        assert len(first.shrunk.params["variants"]) == 1
        # replaying the printed (seed, index) regenerates the identical scenario
        replay = run_case(first.seed, first.index, ["alltoallv"])
        assert replay.scenario.to_json() == first.scenario.to_json()
        assert replay.failure is not None


@pytest.mark.parametrize("variant", ["osc", "compressed", "pairwise"])
def test_planted_offset_bug_is_caught_on_every_window_exchange(variant: str) -> None:
    """``osc.put_offset`` guards every put of the one slot transport, so the
    same off-by-one must fail the raw and the compressed exchange, and the
    credit rule's pairwise ring, alike."""
    prop = PROPERTIES["alltoallv"]
    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        for index in range(50):
            sc = generate_case(seed=0, index=index, properties=["alltoallv"])
            if variant in sc.params["variants"] and check_scenario(
                prop, sc.with_params(variants=[variant])
            ):
                return
    pytest.fail(f"{variant}: planted off-by-one not caught within 50 cases")


@pytest.mark.filterwarnings("ignore:invalid value")  # a misplaced put feeds the FFT garbage
def test_virtual_spmd_differential_catches_a_transport_defect() -> None:
    """The virtual walk never touches a window, so an off-by-one put can
    only show as virtual ≠ SPMD — which the ``fft`` family now checks."""
    assert run_conformance(seed=0, cases=12, properties=["fft"]).ok
    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        report = run_conformance(seed=0, cases=12, properties=["fft"])
    assert report.failures


def test_reshape_differential_catches_a_corrupting_exchange(monkeypatch) -> None:
    from repro.collectives.exchange import ReferenceAlltoallv

    call = ReferenceAlltoallv.__call__

    def corrupting(self, send):
        recv = [np.array(chunk) for chunk in call(self, send)]
        for chunk in recv:
            if chunk.size:
                chunk.reshape(-1).view(np.uint8)[0] ^= 0xFF
                break
        return recv

    assert run_conformance(seed=0, cases=6, properties=["reshape"]).ok
    monkeypatch.setattr(ReferenceAlltoallv, "__call__", corrupting)
    failures = run_conformance(seed=0, cases=6, properties=["reshape"]).failures
    assert failures and all("SPMD block differs" in o.failure for o in failures)


def test_planted_pairwise_corruption_replays_identically() -> None:
    """A deterministic two-sided defect reproduces its exact failure message."""

    def corrupt(out, **ctx):
        if out.size:
            out = out.copy()
            out.reshape(-1).view(np.uint8)[0] ^= 0xFF
        return out

    with hooks.mutation("pairwise.chunk", corrupt):
        first = run_case(0, 0, ["alltoallv"])
        assert first.failure is not None
        replay = run_case(0, 0, ["alltoallv"])
        assert replay.scenario.to_json() == first.scenario.to_json()
        assert replay.failure == first.failure


def test_planted_pairwise_corruption_on_the_bound_path_fails_reshape() -> None:
    """The mutation point reaches what a bound ring puts into a pair slot."""

    def corrupt(out, **ctx):
        if out.size:
            out = out.copy()
            out.reshape(-1).view(np.uint8)[0] ^= 0xFF
        return out

    assert run_conformance(seed=0, cases=6, properties=["reshape"]).ok
    with hooks.mutation("pairwise.chunk", corrupt):
        failures = run_conformance(seed=0, cases=6, properties=["reshape"]).failures
    assert failures and all("bound pairwise" in o.failure for o in failures)
    assert all("SPMD block differs" in o.failure for o in failures)


def test_planted_bruck_misroute_is_caught() -> None:
    with hooks.mutation("bruck.block_index", lambda idx, **ctx: idx[:-1] if len(idx) > 1 else idx):
        report = run_conformance(seed=3, cases=30, properties=["bruck"])
        assert report.failures


def test_shrinker_requires_a_failing_scenario() -> None:
    prop = PROPERTIES["bruck"]
    passing = prop.generate(case_rng(0, 1))
    assert check_scenario(prop, passing) is None
    with pytest.raises(ValueError):
        shrink_failure(prop, passing)


# -- satellite: one error budget --------------------------------------------------------


@pytest.mark.parametrize("events", [1.0, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("hint", ["random", "smooth"])
def test_selection_margin_round_trip(events: float, hint: str) -> None:
    """What the allocator picks for ``events`` compressions states a bound
    that keeps them within the request, with no slack."""
    for e_exp in range(-14, -1):
        e_tol = 10.0**e_exp
        codec = codec_for_tolerance(e_tol, events, n=1, data_hint=hint)
        assert events**0.5 * codec.error_bound <= e_tol
        assert guaranteed_error(codec.error_bound, events, n=1) <= e_tol


def test_directly_constructed_codec_keeps_default_margin() -> None:
    """A codec built by hand states the same bound as one the allocator
    picked: the bound is the codec's, not the selection's."""
    from repro.compression.mantissa import MantissaTrimCodec

    chosen = codec_for_tolerance(1e-10, 8, n=1)
    assert isinstance(chosen, MantissaTrimCodec)
    assert MantissaTrimCodec(chosen.mantissa_bits).error_bound == chosen.error_bound
    assert MantissaTrimCodec(20).error_bound == 2.0**-21


# -- report / CLI ----------------------------------------------------------------------


def test_report_json_lists_failures_with_replay_data() -> None:
    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        report = run_conformance(seed=0, cases=8, properties=["alltoallv"], stop_on_failure=True)
    assert isinstance(report, ConformanceReport)
    assert not report.ok
    import json

    raw = json.loads(report.to_json())
    assert raw["seed"] == 0
    assert raw["failures"]
    entry = raw["failures"][0]
    assert {"index", "seed", "prop", "scenario", "failure"} <= set(entry)


def test_replay_command_regenerates_the_failing_case_of_a_property_subset() -> None:
    """Case ``i`` is dealt from the active subset, so the printed command
    must carry ``--properties``: without it, ``--replay i`` regenerates
    case ``i`` of the full rotation — another property's scenario."""
    import json
    import shlex

    from repro.__main__ import _build_parser

    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        report = run_conformance(seed=0, cases=6, properties=["runtime"], stop_on_failure=True)
    assert not report.ok
    failed = report.failures[0]
    argv = shlex.split(failed.replay_command)
    assert argv[:3] == ["python", "-m", "repro"]
    args = _build_parser().parse_args(argv[3:])
    subset = args.properties.split(",") if args.properties else None
    replayed = generate_case(args.seed, args.replay, subset)
    assert replayed.prop == failed.scenario.prop == "runtime"
    assert replayed.params == failed.scenario.params

    raw = json.loads(report.to_json())
    assert raw["properties"] == ["runtime"]
    assert raw["failures"][0]["properties"] == ["runtime"]


def test_cli_smoke(capsys, tmp_path) -> None:
    from repro.__main__ import main

    assert main(["conformance", "--cases", "7", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "all cases passed" in out

    # failure path: exit 1, failure-replay artefact written
    replay_file = tmp_path / "failures.json"
    with hooks.mutation("osc.put_offset", lambda off, **ctx: max(0, off - 1)):
        code = main(
            [
                "conformance",
                "--cases",
                "8",
                "--seed",
                "0",
                "--properties",
                "alltoallv",
                "--stop-on-failure",
                "--out",
                str(replay_file),
            ]
        )
    assert code == 1
    assert replay_file.exists()
    out = capsys.readouterr().out
    assert "replay:" in out


def test_cli_replay_single_case(capsys) -> None:
    from repro.__main__ import main

    assert main(["conformance", "--seed", "4", "--replay", "2"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_unknown_property_is_rejected() -> None:
    with pytest.raises(ValueError, match="unknown properties"):
        run_conformance(seed=0, cases=1, properties=["nonesuch"])


# -- hooks are inert by default ---------------------------------------------------------


def test_hooks_identity_when_uninstalled() -> None:
    assert hooks.mutate("osc.put_offset", 42, rank=0, dest=1) == 42
    assert hooks.active_mutations() == ()
    with pytest.raises(ValueError):
        hooks.install_mutation("not.a.point", lambda v, **k: v)


# -- the runtime dimension: proc and thread must be indistinguishable -------------------


def test_runtime_differential_25_seeded_scenarios() -> None:
    """25 seeded scenarios through the runtime family: zero violations.

    Every case runs the same compressed OSC exchange on the thread world
    and (where fork exists) the process world, checks each against the
    functional oracle, and then cross-compares the runtimes bit-for-bit.
    The seed is pinned so the generated batch is reproducible — and so
    the coverage assertions below (prime-sized blocks, all-empty
    matrices) are facts about *this* batch, not probabilities.
    """
    report = run_conformance(seed=20260808, cases=25, properties=["runtime"])
    assert report.ok, "\n".join(
        f"{o.index}: {o.failure}\n  replay: {o.replay_command}" for o in report.failures
    )
    matrices = [o.scenario.params["sizes"] for o in report.outcomes]
    flat = [n for m in matrices for row in m for n in row]
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert any(all(n == 0 for row in m for n in row) for m in matrices), (
        "seed batch lost its all-empty-matrix case; pick a new seed"
    )
    assert any(n in primes for n in flat), (
        "seed batch lost its prime-geometry case; pick a new seed"
    )
    assert any(n == 0 for n in flat) and any(n > 0 for n in flat)


def test_runtime_scenarios_name_their_runtime() -> None:
    """Replay output must say which runtime a case exercised."""
    rng = case_rng(20260808, 0)
    sc = PROPERTIES["runtime"].generate(rng)
    assert "runtimes" in sc.params
    assert set(sc.params["runtimes"]) <= {"thread", "proc"}
    assert "runtimes=" in sc.describe()
