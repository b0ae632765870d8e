#!/usr/bin/env python
"""The full production release workflow: diagnose -> anonymize -> refine
-> report.

This is the end-to-end path a data-publishing team follows with this
library:

1. **Diagnose** whether the requested (k, epsilon) target is structurally
   achievable before burning compute (and get the feasible frontier if
   not).
2. **Anonymize** with Chameleon.
3. **Refine** away noise the accepted solution does not actually need.
4. **Report**: generate the Markdown document a release review signs off
   on.

Run:  python examples/release_workflow.py
"""

from __future__ import annotations

import repro
from repro.core import diagnose_feasibility, refine_anonymization
from repro.privacy import expected_degree_knowledge


def main() -> None:
    graph = repro.load_dataset("brightkite", scale=0.6, seed=99)
    knowledge = expected_degree_knowledge(graph)
    print(f"dataset: {graph}\n")

    # ---- 1. Diagnose --------------------------------------------------- #
    k_requested, epsilon = 40, 0.02
    report = diagnose_feasibility(
        graph, k_requested, epsilon, candidate_multiplier=2.0
    )
    print(f"requested (k={k_requested}, eps={epsilon}): {report}")
    if not report.feasible:
        print(f"  -> structurally impossible; {len(report.hard_vertices)} "
              "vertices can never blend at that level.")
        print(f"  -> largest feasible k at this tolerance: "
              f"{report.max_feasible_k}")
        k = min(report.max_feasible_k, 15)
    else:
        k = k_requested
    print(f"proceeding with k = {k}\n")

    # ---- 2. Anonymize --------------------------------------------------- #
    result = repro.anonymize(
        graph, k=k, epsilon=epsilon, method="rsme", seed=99,
        n_trials=4, relevance_samples=300, size_multiplier=2.0,
    )
    assert result.success
    noise = result.noise_added(graph)
    print(f"anonymized: {result}")
    print(f"  injected noise (L1): {noise:.1f}\n")

    # ---- 3. Refine ------------------------------------------------------ #
    refined, stats = refine_anonymization(
        graph, result, knowledge=knowledge, seed=99
    )
    print("refinement:")
    print(f"  reverted {stats.edges_reverted}/{stats.edges_considered} "
          f"perturbed edges in {stats.checks_performed} privacy checks")
    print(f"  noise {stats.noise_before:.1f} -> {stats.noise_after:.1f} "
          f"(-{stats.noise_removed:.1f})")
    loss_before = repro.reliability_discrepancy(
        graph, result.graph, n_samples=300, seed=1
    )
    loss_after = repro.reliability_discrepancy(
        graph, refined.graph, n_samples=300, seed=1
    )
    print(f"  reliability loss {loss_before:.4f} -> {loss_after:.4f}\n")

    # ---- 4. Report ------------------------------------------------------ #
    document = repro.build_report(
        graph, refined.graph, k, epsilon, result=refined,
        n_samples=150, seed=2,
    )
    path = "/tmp/brightkite_release_report.md"
    with open(path, "w") as fh:
        fh.write(document)
    print(f"release report written to {path}; summary section:\n")
    in_summary = False
    for line in document.splitlines():
        if line.startswith("## "):
            in_summary = line == "## Release summary"
            continue
        if in_summary and line.strip():
            print(f"  {line}")


if __name__ == "__main__":
    main()
