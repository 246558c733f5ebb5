"""Seeded input generator for the end-to-end benchmark.

Run as a child process with the program under test importable::

    PYTHONPATH=src python3 bench_e2e/inputs.py VARIANT OUTDIR

and it writes every input one variant needs into OUTDIR:

* ``racy/racy.asm`` -- the ``racy_loop`` program: two threads racing on
  one word from loops whose racing regions are byte-identical, beside a
  1024-word data section (the shape of ``bench_classify_batched``);
* ``fleet/uploads/NNN.bin`` -- replay logs of paper-suite programs
  recorded at seeds the paper suite does not use, in upload order;
* ``fleet/store/`` -- a fleet store pre-populated with synthetic unique
  races (the shape of ``bench_fleet_absorb``), compacted;
* ``labels.json`` -- the ground-truth address ranges of every suite
  program, taken from its ``RaceExpectation`` labels, so the benchmark
  can score verdicts without asking the code under test;
* ``manifest.json`` -- written last; its presence marks a complete set.

The variant fixes every random choice, so one variant always yields the
same bytes.  Logs are recorded through ``repro.cli.main(["record", ...])``
so the generator keeps working when internals are refactored.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

#: Loop trips per racing thread: ~25 instructions each, two threads,
#: so ~125k recorded instructions -- under ``repro record``'s 200k cap.
RACY_ITERATIONS = 2500
FILLER_WORDS = 1024
RACING_STORES = 3

#: Logs available to the ``fleet_service`` uploader per variant.  The
#: uploader stops early if it exhausts them.
UPLOADS = 256
#: Synthetic unique races in the pre-populated fleet store.
STORE_JOBS = 200
RACES_PER_STORE_JOB = 50

_RACY_THREAD = """
.thread {t}
{t}h:
    load r1, [cnt_{t}]
    subi r1, r1, 1
    store r1, [cnt_{t}]
    beqz r1, {t}done
    li r1, 0
    sys_rand r9, 1
    li r2, {value}
{stores}
    li r4, 3
{t}k:
    addi r5, r5, 3
    subi r4, r4, 1
    bnez r4, {t}k
    li r2, 0
    li r4, 0
    li r5, 0
    sys_rand r9, 1
    jmp {t}h
{t}done:
    halt
"""


def racy_source(variant: int) -> str:
    """The ``racy_loop`` program; the variant picks the stored values."""
    stores = "\n".join("    store r2, [x]" for _ in range(RACING_STORES))
    data = [".data", "x: .word 0"]
    for t in ("a", "b"):
        data.append("cnt_%s: .word %d" % (t, RACY_ITERATIONS + 1))
    data.extend(
        "f%d: .word %d" % (i, (i * (variant + 3)) % 97) for i in range(FILLER_WORDS)
    )
    return (
        "\n".join(data)
        + _RACY_THREAD.format(t="a", value=5 + variant, stores=stores)
        + _RACY_THREAD.format(t="b", value=7 + 2 * variant, stores=stores)
    )


def racy_record_seed(variant: int) -> int:
    return 11 + variant


def _suite_workloads():
    from repro.workloads.suite import paper_suite

    workloads = {}
    for execution in paper_suite():
        workloads.setdefault(execution.workload.name, execution.workload)
    return list(workloads.values())


def _labels(workloads) -> dict:
    """Program name -> ordered ground-truth rules from its expectations."""
    from repro.isa.program import HEAP_BASE

    labels = {}
    for workload in workloads:
        program = workload.program()
        rules = []
        for expectation in workload.expectations:
            truth = str(expectation.truth)
            if expectation.heap:
                rules.append(["heap", HEAP_BASE, truth])
            if expectation.symbol is not None:
                item = program.data.get(expectation.symbol)
                if item is not None:
                    rules.append(
                        ["range", item.address, item.address + item.size, truth]
                    )
        labels[workload.name] = rules
    return labels


def _record_uploads(variant: int, workloads, directory: Path) -> list:
    from repro.cli import main

    sources = directory / "programs"
    uploads = directory / "uploads"
    sources.mkdir(parents=True)
    uploads.mkdir()
    entries = []
    for index in range(UPLOADS):
        workload = workloads[(index + variant) % len(workloads)]
        seed = 1000 + 97 * variant + index
        program = sources / ("%s.asm" % workload.name)
        if not program.exists():
            program.write_text(workload.source)
        log = uploads / ("%03d.bin" % index)
        argv = ["record", str(program), "-o", str(log), "--seed", str(seed)]
        if main(argv, out=io.StringIO()) != 0:
            raise SystemExit("recording %s failed" % " ".join(argv))
        entries.append({"file": log.name, "program": workload.name, "seed": seed})
    return entries


def _store_report(variant: int, job: int) -> dict:
    races = []
    for offset in range(RACES_PER_STORE_JOB):
        ordinal = job * RACES_PER_STORE_JOB + offset
        harmful = (ordinal + variant) % 3 == 0
        races.append(
            {
                "race": "blk%d:1|blk%d:2" % (ordinal, ordinal),
                "classification": (
                    "potentially-harmful" if harmful else "potentially-benign"
                ),
                "instances": {
                    "no_state_change": 2,
                    "state_change": 1,
                    "replay_failure": (ordinal + variant) % 2,
                    "total": 3 + (ordinal + variant) % 2,
                },
                "executions": ["exec-%d" % job],
                "scenarios": (
                    [{"batch_key": {"region_content": ["r%d" % ordinal, "s"]}}]
                    if harmful
                    else []
                ),
            }
        )
    return {"export_version": 1, "program": "fleet%d" % variant, "races": races}


def _populate_store(variant: int, directory: Path) -> int:
    from repro.fleet import FleetStore

    store = FleetStore.open(directory)
    for job in range(STORE_JOBS):
        store.absorb_report(
            _store_report(variant, job), "v%d-job-%d" % (variant, job), observed_at=1.0
        )
    store.compact()
    races = store.counts()["unique_races"]
    store.close()
    return races


def generate(variant: int, out: Path) -> None:
    workloads = _suite_workloads()
    (out / "racy").mkdir(parents=True)
    (out / "racy" / "racy.asm").write_text(racy_source(variant))
    (out / "labels.json").write_text(json.dumps(_labels(workloads), sort_keys=True))
    fleet = out / "fleet"
    uploads = _record_uploads(variant, workloads, fleet)
    races = _populate_store(variant, fleet / "store")
    manifest = {
        "variant": variant,
        "racy_seed": racy_record_seed(variant),
        "uploads": uploads,
        "store_races": races,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


if __name__ == "__main__":
    generate(int(sys.argv[1]), Path(sys.argv[2]))
