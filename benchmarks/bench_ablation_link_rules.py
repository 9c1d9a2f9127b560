"""Ablation A — link-rule sensitivity.

The paper never states when two routers share a link; this bench
evaluates every ad hoc method stand-alone under the three candidate
rules.  The BIDIRECTIONAL default reproduces the paper's small
stand-alone giants; OVERLAP (the loosest rule) inflates them.
"""

from __future__ import annotations

import numpy as np
from _common import print_header, run_once

from repro.adhoc.registry import PAPER_METHOD_ORDER, make_method
from repro.core.evaluation import Evaluator
from repro.core.radio import LinkRule
from repro.instances.catalog import paper_normal


def _giants_by_rule() -> dict[str, dict[str, int]]:
    base = paper_normal().generate()
    results: dict[str, dict[str, int]] = {}
    for rule in LinkRule:
        problem = base.with_link_rule(rule)
        evaluator = Evaluator(problem)
        row: dict[str, int] = {}
        for name in PAPER_METHOD_ORDER:
            placement = make_method(name).place(
                problem, np.random.default_rng(1)
            )
            row[name] = evaluator.evaluate(placement).giant_size
        results[rule.value] = row
    return results


def test_ablation_link_rules(benchmark):
    results = run_once(benchmark, _giants_by_rule)

    print_header("Ablation A — stand-alone giant component per link rule")
    header = f"{'method':10s}" + "".join(
        f"{rule:>16s}" for rule in results
    )
    print(header)
    for name in PAPER_METHOD_ORDER:
        print(
            f"{name:10s}"
            + "".join(f"{results[rule][name]:16d}" for rule in results)
        )

    for name in PAPER_METHOD_ORDER:
        # Looser rules can only add links: giant sizes are ordered
        # bidirectional <= unidirectional <= overlap.
        assert (
            results["bidirectional"][name]
            <= results["unidirectional"][name]
            <= results["overlap"][name]
        )
