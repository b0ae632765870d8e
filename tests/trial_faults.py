"""Trial faults for tests, injected by monkeypatching ``run_trial``.

The sigma search calls :func:`repro.core.parallel.run_trial` through its
module global, so a patched one makes the trials of a probe raise (a run
killed mid-search) or sleep (a slow job to cancel) without any fault
knob in the library.
"""

import time

import repro.core.parallel


class Killed(RuntimeError):
    """Raised by every trial of the probe :func:`crash_at_probe` names."""


def crash_at_probe(monkeypatch, probe_index: int) -> None:
    """Make every trial of ``probe_index`` raise :class:`Killed`;
    earlier probes run unchanged."""
    real_trial = repro.core.parallel.run_trial

    def trial(graph, config, context, sigma, probe, *args):
        if probe == probe_index:
            raise Killed(f"killed at probe {probe}")
        return real_trial(graph, config, context, sigma, probe, *args)

    monkeypatch.setattr(repro.core.parallel, "run_trial", trial)


def slow_trials(monkeypatch, seconds: float) -> None:
    """Make every trial sleep ``seconds`` before it runs."""
    real_trial = repro.core.parallel.run_trial

    def trial(*args):
        time.sleep(seconds)
        return real_trial(*args)

    monkeypatch.setattr(repro.core.parallel, "run_trial", trial)
