"""Regenerate ``expected_costs.json``: the phase-1 cost of every ``synth`` pool entry.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_expected.py

The file is never compared with the run that produced it: the
benchmark's test cross-checks every row against the checkkit oracles.
"""

from __future__ import annotations

import json

from repro.synthesis import synthesize

import corpus


def expected_costs() -> dict:
    costs = {}
    for graph in corpus.GRAPHS:
        for pool in range(corpus.TABLE_POOL):
            for item in corpus.pool_items(graph, pool):
                costs[item.key] = synthesize(item.dag, item.table, item.deadline).cost
    return costs


if __name__ == "__main__":
    with open(corpus.EXPECTED_COSTS, "w", encoding="utf-8") as fh:
        json.dump(expected_costs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
