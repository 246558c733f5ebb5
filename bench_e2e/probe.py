"""Per-race verdicts of the paper suite, for scoring against labels.

``repro suite`` prints only aggregate tables, so the benchmark asks for
the verdicts behind them in a separate, untimed child process::

    PYTHONPATH=src python3 bench_e2e/probe.py > verdicts.json

It runs the same ``analyze_suite(paper_suite())`` call the ``suite``
verb makes and prints, per unique race, its program, verdict and the
addresses its instances touched, in instance order.  Ground truth is
not read here: the benchmark matches the addresses against the
``RaceExpectation`` ranges that ``inputs.py`` exported.
"""

from __future__ import annotations

import json
import sys

from repro.analysis.pipeline import analyze_suite
from repro.workloads.suite import paper_suite


def main() -> int:
    suite = analyze_suite(paper_suite())
    races = []
    for key, result in suite.results.items():
        addresses = []
        for entry in result.instances:
            address = entry.instance.address
            if address not in addresses:
                addresses.append(address)
        races.append(
            {
                "program": suite.workloads[key].name,
                "race": "%s|%s" % key,
                "classification": str(result.classification),
                "addresses": addresses,
            }
        )
    json.dump(races, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
