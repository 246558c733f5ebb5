"""Regenerate ``references.json``: the digests every output is checked against.

Run from the checkout root, only when an output is meant to change::

    python3 bench_e2e/make_references.py

For each input variant it records:

* ``suite`` -- the SHA-256 of ``repro suite``'s stdout (seed-independent);
* ``racy_loop`` -- the SHA-256 of the recorded log and of the
  ``repro analyze --json`` report;
* ``fleet_service`` -- per upload, the first 16 hex digits of the
  SHA-256 of ``repro analyze --json`` on that log.  The service must
  serve the same bytes for the job, so this also checks the service
  against the CLI.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

_ANALYZE_ALL = """
import io, sys
from repro.cli import main
for log, report in zip(sys.argv[1::2], sys.argv[2::2]):
    if main(["analyze", log, "--json", report], out=io.StringIO()) != 0:
        raise SystemExit("analyze failed on " + log)
"""


def fleet_digests(inputs: Path, work: Path) -> list:
    manifest = json.loads((inputs / "manifest.json").read_text())
    pairs = []
    for index, entry in enumerate(manifest["uploads"]):
        pairs += [inputs / "fleet" / "uploads" / entry["file"], work / ("%d.json" % index)]
    subprocess.run(
        [run.PYTHON, "-c", _ANALYZE_ALL, *map(str, pairs)],
        env=run.child_env(),
        cwd=run.ROOT,
        check=True,
    )
    return [
        run.sha256((work / ("%d.json" % index)).read_bytes())[:16]
        for index in range(len(manifest["uploads"]))
    ]


def main() -> int:
    result = {"suite": {}, "racy_loop": {}, "fleet_service": {}}
    for variant in range(run.VARIANTS):
        inputs = run.inputs_for(variant)
        with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
            work = Path(scratch)
            if variant == 0:
                suite = run.CliWorkload("suite", inputs, variant, work)
                suite.chain()
                result["suite"] = suite.outputs
            racy = run.CliWorkload("racy_loop", inputs, variant, work)
            racy.chain()
            result["racy_loop"][str(variant)] = racy.outputs
            result["fleet_service"][str(variant)] = fleet_digests(inputs, work)
        print("variant %d done" % variant, file=sys.stderr)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
