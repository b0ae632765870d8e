"""Deterministic fault injection for the trial engine.

Fault tolerance that is never exercised is fault tolerance that does not
work.  This module lets tests, benchmarks and operators *prove* the
supervision layer (:mod:`repro.core.resilience`) by injecting the two
failure classes it recovers from:

* ``crash`` -- the trial raises :class:`~repro.exceptions.InjectedFault`
  before doing its work, from the same code path a failing trial would
  take.
* ``delay`` -- the trial sleeps for a configured number of seconds
  before doing its work, driving it past a per-task deadline
  (``ChameleonConfig.trial_timeout``).

Determinism contract
--------------------
Faults are drawn before each trial, keyed by the trial's
``(probe_index, trial_index)`` coordinates -- the same coordinates that
key the trial's ``SeedSequence`` stream.  Each spec fires a bounded
number of times (``times``, default 1) and trials run in a fixed order,
so a fault plan perturbs *execution* without perturbing *results*: the
supervisor's retry re-runs the same coordinates with the spec exhausted
and reproduces the trial bit for bit.

Plan grammar
------------
A plan is a ``;``-separated list of specs (environment variable
``REPRO_FAULTS`` or ``ChameleonConfig.fault_plan``)::

    crash@P.T[xN]       fail trial (P, T) with InjectedFault
    delay@P.T:SEC[xN]   sleep SEC seconds inside trial (P, T)

``P`` / ``T`` are probe / trial indices or ``*`` (any).  ``xN`` caps the
firing count (default 1).  Example: ``crash@0.1;delay@*.0:2.5x2``.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass

from ..exceptions import ConfigurationError, InjectedFault

__all__ = [
    "FAULTS_ENV",
    "FaultAction",
    "FaultSpec",
    "FaultPlan",
    "execute_fault",
]

#: Environment variable holding the process-wide fault plan.
FAULTS_ENV = "REPRO_FAULTS"

_SPEC = re.compile(
    r"^(?P<kind>crash|delay)@(?P<probe>\*|\d+)\.(?P<trial>\*|\d+)"
    r"(?::(?P<seconds>[0-9.]+))?(?:x(?P<times>\d+))?$"
)


@dataclass(frozen=True)
class FaultAction:
    """A concrete instruction for the trial that must misbehave.

    ``kind`` is ``"crash"`` or ``"delay"``.
    """

    kind: str
    seconds: float = 0.0


@dataclass
class FaultSpec:
    """One parsed plan entry with its remaining firing budget."""

    kind: str
    probe: int | None  # None matches any probe index
    trial: int | None  # None matches any trial index
    seconds: float
    remaining: int

    def matches(self, probe_index: int, trial_index: int) -> bool:
        return (
            self.remaining > 0
            and (self.probe is None or self.probe == probe_index)
            and (self.trial is None or self.trial == trial_index)
        )


class FaultPlan:
    """A mutable budget of faults, consumed as trials run.

    One plan instance belongs to one run: the engine asks :meth:`draw`
    before every trial (in deterministic trial order), decrementing the
    matching spec's budget.  An exhausted plan injects nothing, which is
    what makes supervised retries converge.
    """

    def __init__(self, specs):
        self._specs: list[FaultSpec] = list(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the plan grammar; raises ``ConfigurationError`` on junk."""
        specs: list[FaultSpec] = []
        for token in re.split(r"[;,]", text):
            token = token.strip()
            if not token:
                continue
            match = _SPEC.match(token)
            if match is None:
                raise ConfigurationError(
                    f"unparseable fault spec {token!r}; expected "
                    "crash@P.T[xN] or delay@P.T:SEC[xN]"
                )
            kind = match.group("kind")
            seconds = float(match.group("seconds") or 0.0)
            if kind == "delay" and match.group("seconds") is None:
                raise ConfigurationError(
                    f"delay fault {token!r} needs a duration, e.g. "
                    "delay@0.1:2.5"
                )
            specs.append(FaultSpec(
                kind=kind,
                probe=None if match.group("probe") == "*"
                else int(match.group("probe")),
                trial=None if match.group("trial") == "*"
                else int(match.group("trial")),
                seconds=seconds,
                remaining=int(match.group("times") or 1),
            ))
        return cls(specs)

    @classmethod
    def from_config(cls, config) -> "FaultPlan | None":
        """The run's plan: ``config.fault_plan``, else ``REPRO_FAULTS``.

        An explicit empty string disables injection even when the
        environment variable is set (tests use this to opt out).
        Returns ``None`` when no plan is configured at all.
        """
        text = getattr(config, "fault_plan", None)
        if text is None:
            text = os.environ.get(FAULTS_ENV)
        if text is None or not text.strip():
            return None
        return cls.parse(text)

    def draw(self, probe_index: int, trial_index: int) -> FaultAction | None:
        """Consume and return the action for one trial (or None)."""
        for spec in self._specs:
            if spec.matches(probe_index, trial_index):
                spec.remaining -= 1
                return FaultAction(kind=spec.kind, seconds=spec.seconds)
        return None

    @property
    def exhausted(self) -> bool:
        return all(spec.remaining <= 0 for spec in self._specs)


def execute_fault(action: FaultAction | None) -> None:
    """Carry out an injected action at the start of a trial.

    ``delay`` sleeps and lets the trial proceed (late); ``crash`` raises
    :class:`InjectedFault`.
    """
    if action is None:
        return
    if action.kind == "delay":
        time.sleep(action.seconds)
        return
    if action.kind == "crash":
        raise InjectedFault(
            "injected trial crash (fault plan): this trial failed"
        )
    raise ConfigurationError(f"unknown fault action kind {action.kind!r}")
