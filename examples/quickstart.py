#!/usr/bin/env python
"""Quickstart: anonymize an uncertain graph in five lines, then verify.

Runs the full Chameleon (RSME) pipeline on the PPI dataset stand-in:

1. load an uncertain graph,
2. find the least-noise (k, epsilon)-obfuscation,
3. independently verify the privacy guarantee,
4. measure what the anonymization cost in utility.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    # 1. An uncertain graph: protein-protein interactions with
    #    experimentally derived edge confidences.
    graph = repro.load_dataset("ppi", scale=0.5, seed=7)
    print(f"original graph : {graph}")

    # 2. Anonymize: every vertex must blend with k=10 others (up to a 5%
    #    tolerance of extreme outliers), with minimal reliability loss.
    result = repro.anonymize(
        graph, k=10, epsilon=0.05, method="rsme", seed=7,
        n_trials=3, relevance_samples=300,
    )
    print(f"anonymization  : {result}")
    print(f"  noise search : {result.n_genobf_calls} GenObf calls, "
          f"final sigma = {result.sigma:.4f}")
    print(f"  elapsed      : {result.elapsed_seconds:.1f}s")

    # 3. Verify privacy against the adversary's knowledge of the ORIGINAL
    #    degrees (the publication threat model).
    knowledge = repro.expected_degree_knowledge(graph)
    report = repro.check_obfuscation(result.graph, 10, 0.05, knowledge=knowledge)
    print(f"privacy check  : {report}")

    # 4. Measure utility: how far did the uncertain structure move?
    discrepancy = repro.reliability_discrepancy(
        graph, result.graph, n_samples=400, seed=7
    )
    print(f"utility        : avg reliability discrepancy = {discrepancy:.4f}")

    comparison = repro.compare_graphs(
        graph, result.graph,
        metrics=("average_degree", "clustering_coefficient"),
        n_samples=200, seed=7,
    )
    for name, row in comparison.items():
        print(f"  {name:24s} {row.original:8.4f} -> {row.anonymized:8.4f} "
              f"(error {row.relative_error:.2%})")

    # 5. Publish: strip zero-probability bookkeeping edges and save.
    publishable = result.graph.dropping_zero_edges()
    repro.write_edge_list(publishable, "/tmp/ppi_anonymized.pel")
    print(f"published      : /tmp/ppi_anonymized.pel "
          f"({publishable.n_edges} uncertain edges)")


if __name__ == "__main__":
    main()
