"""Deterministic case runner: seed → scenarios → outcomes → report.

Replay contract
---------------

Case ``i`` of a run with seed ``S`` is produced by
``random.Random(f"repro-conformance:{S}:{i}")`` and the property chosen
round-robin from the active property list (which the printed replay
command therefore carries as ``--properties``).  String seeding hashes via
SHA-512, so the stream is identical across platforms and Python builds
(unlike ``hash()``-based seeding) — replaying ``(S, i)`` regenerates the
byte-identical scenario, which is what makes the printed one-line repro
command in failure output trustworthy.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.conformance.properties import PROPERTIES, Property, check_scenario
from repro.conformance.scenario import Scenario

__all__ = ["CaseOutcome", "ConformanceReport", "case_rng", "run_case", "run_conformance"]

#: Salt prefix for per-case RNG streams (bump to invalidate old seeds).
SEED_NAMESPACE = "repro-conformance"


def case_rng(seed: int, index: int) -> random.Random:
    """The (platform-stable) generator that pins case ``index`` of ``seed``."""
    return random.Random(f"{SEED_NAMESPACE}:{seed}:{index}")


@dataclass
class CaseOutcome:
    """Result of one generated case, with everything needed to replay it."""

    index: int
    seed: int
    scenario: Scenario
    failure: str | None = None
    shrunk: Scenario | None = None
    shrunk_failure: str | None = None
    shrink_checks: int = 0
    #: The property subset the case was dealt from (``None``: all of them);
    #: ``index`` picks from it round-robin, so a replay needs it too.
    properties: tuple[str, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def minimal(self) -> Scenario:
        """The smallest scenario known to still fail (the shrunk one when available)."""
        return self.shrunk if self.shrunk is not None else self.scenario

    def to_dict(self) -> dict:
        out: dict = {
            "index": self.index,
            "seed": self.seed,
            "properties": self.properties,
            "prop": self.scenario.prop,
            "scenario": self.scenario.params,
            "failure": self.failure,
        }
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk.params
            out["shrunk_failure"] = self.shrunk_failure
            out["shrink_checks"] = self.shrink_checks
        return out

    @property
    def replay_command(self) -> str:
        subset = "" if self.properties is None else f" --properties {','.join(self.properties)}"
        return f"python -m repro conformance --seed {self.seed}{subset} --replay {self.index}"


@dataclass
class ConformanceReport:
    """Aggregate of one conformance run (serialisable failure-replay file)."""

    seed: int
    cases: int = 0
    outcomes: list[CaseOutcome] = field(default_factory=list)
    properties: tuple[str, ...] | None = None

    @property
    def failures(self) -> list[CaseOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def per_property(self) -> dict[str, tuple[int, int]]:
        """``{property: (cases run, failures)}``."""
        counts: dict[str, tuple[int, int]] = {}
        for o in self.outcomes:
            run, bad = counts.get(o.scenario.prop, (0, 0))
            counts[o.scenario.prop] = (run + 1, bad + (0 if o.ok else 1))
        return counts

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "cases": self.cases,
                "properties": self.properties,
                "failures": [o.to_dict() for o in self.failures],
            },
            indent=2,
            sort_keys=True,
        )


def _active(properties: Sequence[str] | None) -> list[Property]:
    if properties is None:
        return list(PROPERTIES.values())
    unknown = sorted(set(properties) - set(PROPERTIES))
    if unknown:
        raise ValueError(f"unknown properties {unknown}; expected subset of {sorted(PROPERTIES)}")
    return [PROPERTIES[name] for name in properties]


def generate_case(seed: int, index: int, properties: Sequence[str] | None = None) -> Scenario:
    """Deterministically regenerate the scenario of case ``(seed, index)``."""
    active = _active(properties)
    prop = active[index % len(active)]
    return prop.generate(case_rng(seed, index))


def run_case(
    seed: int,
    index: int,
    properties: Sequence[str] | None = None,
    *,
    shrink: bool = False,
) -> CaseOutcome:
    """Generate, check and (on failure, optionally) shrink one case."""
    scenario = generate_case(seed, index, properties)
    prop = PROPERTIES[scenario.prop]
    subset = None if properties is None else tuple(properties)
    outcome = CaseOutcome(index=index, seed=seed, scenario=scenario, properties=subset)
    outcome.failure = check_scenario(prop, scenario)
    if outcome.failure is not None and shrink:
        from repro.conformance.shrink import shrink_failure

        result = shrink_failure(prop, scenario)
        outcome.shrunk = result.scenario
        outcome.shrunk_failure = result.failure
        outcome.shrink_checks = result.checks
    return outcome


def run_conformance(
    seed: int,
    cases: int,
    properties: Sequence[str] | None = None,
    *,
    shrink: bool = False,
    stop_on_failure: bool = False,
    log: Callable[[str], None] | None = None,
) -> ConformanceReport:
    """Run ``cases`` generated cases, dealing properties round-robin."""
    report = ConformanceReport(
        seed=seed, properties=None if properties is None else tuple(properties)
    )
    say = log or (lambda _msg: None)
    for index in range(cases):
        outcome = run_case(seed, index, properties, shrink=shrink)
        report.outcomes.append(outcome)
        report.cases += 1
        if outcome.ok:
            continue
        say(f"FAIL case {index} ({outcome.scenario.describe()}): {outcome.failure}")
        if outcome.shrunk is not None:
            say(
                f"  shrunk after {outcome.shrink_checks} checks to "
                f"{outcome.shrunk.describe()}: {outcome.shrunk_failure}"
            )
        say(f"  replay: {outcome.replay_command}")
        if stop_on_failure:
            break
    return report
