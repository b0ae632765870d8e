"""Result types returned by the anonymization pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..privacy.obfuscation import ObfuscationReport
from ..ugraph.graph import UncertainGraph

__all__ = ["GenObfOutcome", "AnonymizationResult"]

#: Sentinel "all attempts failed" tolerance (Algorithm 3 returns eps~ = 1).
FAILURE_EPSILON = 1.0


@dataclass(frozen=True)
class GenObfOutcome:
    """Outcome of one GenObf call at a fixed noise level ``sigma``.

    ``epsilon_achieved == 1.0`` signals that every trial failed, matching
    the paper's ``eps~ = 1`` convention; in that case ``graph`` and
    ``report`` are ``None``.
    """

    sigma: float
    epsilon_achieved: float
    graph: UncertainGraph | None
    report: ObfuscationReport | None
    n_trials: int

    @property
    def success(self) -> bool:
        return self.graph is not None

    def __repr__(self) -> str:
        status = "ok" if self.success else "fail"
        return (
            f"GenObfOutcome(sigma={self.sigma:.4g}, "
            f"eps={self.epsilon_achieved:.4g}, {status})"
        )


@dataclass(frozen=True)
class AnonymizationResult:
    """Final output of a full anonymization run (Chameleon or Rep-An).

    Attributes
    ----------
    graph:
        The anonymized uncertain graph (``None`` when the search failed).
    method:
        Method name (``"rsme"``, ``"rs"``, ``"me"``, ``"rep-an"``).
    k, epsilon:
        The privacy target that was requested.
    sigma:
        The noise level of the accepted solution.
    epsilon_achieved:
        Fraction of non-obfuscated vertices in the accepted solution.
    report:
        The accepted solution's full :class:`ObfuscationReport`.
    n_genobf_calls:
        GenObf invocations consumed by the sigma search.
    sigma_history:
        ``(sigma, epsilon_achieved)`` per GenObf call, in search order.
    elapsed_seconds:
        Wall-clock time of the run.
    search_seconds:
        Wall-clock time spent inside the sigma search (bracketing ladder
        plus bisection), excluding run setup such as selection-context
        and degree-pmf construction.
    utility_discrepancy:
        Reliability discrepancy of the accepted solution against the
        input graph, measured on the anonymizer's world store when
        ``ChameleonConfig.utility_samples > 0``; ``None`` when utility
        verification was off (or the search failed).
    utility_history:
        ``(sigma, discrepancy)`` per *successful* GenObf call scored by
        the world store, in search order.
    trial_retries:
        Probe re-executions the supervisor performed (timeouts and
        injected faults recovered from).
    resumed_probes:
        Probe outcomes replayed from a checkpoint journal instead of
        being recomputed (``--resume``).
    """

    graph: UncertainGraph | None
    method: str
    k: int
    epsilon: float
    sigma: float
    epsilon_achieved: float
    report: ObfuscationReport | None
    n_genobf_calls: int
    sigma_history: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    elapsed_seconds: float = 0.0
    search_seconds: float = 0.0
    utility_discrepancy: float | None = None
    utility_history: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    trial_retries: int = 0
    resumed_probes: int = 0

    @property
    def success(self) -> bool:
        return self.graph is not None

    def noise_added(self, original: UncertainGraph) -> float:
        """Total L1 probability change relative to ``original``."""
        from ..ugraph.operations import probability_l1_distance

        if self.graph is None:
            return float("nan")
        return probability_l1_distance(original, self.graph)

    def summary(self, include_timing: bool = True) -> dict:
        """Plain-dict summary for logging / JSON serialization.

        With ``include_timing=False`` the wall-clock fields are omitted
        and the summary becomes a pure function of the run's inputs --
        the shape the CLI prints to stdout, so a seeded run's output is
        byte-reproducible (and a served result can be byte-compared to a
        one-shot run).
        """
        # Seeded stdout is an output format and must stay cmp-identical,
        # so the retired engine keys stay, as constants.
        payload = {
            "method": self.method,
            "k": self.k,
            "epsilon": self.epsilon,
            "success": self.success,
            "sigma": self.sigma,
            "epsilon_achieved": self.epsilon_achieved,
            "n_genobf_calls": self.n_genobf_calls,
            "trial_backend": "serial",
            "trial_workers": 1,
            "utility_discrepancy": self.utility_discrepancy,
            "degradations": [],
            "trial_retries": self.trial_retries,
            "resumed_probes": self.resumed_probes,
        }
        if include_timing:
            payload["elapsed_seconds"] = self.elapsed_seconds
            payload["search_seconds"] = self.search_seconds
        return payload

    def __repr__(self) -> str:
        status = "ok" if self.success else "FAILED"
        return (
            f"AnonymizationResult({self.method}, k={self.k}, "
            f"sigma={self.sigma:.4g}, eps_hat={self.epsilon_achieved:.4g}, "
            f"{status})"
        )
