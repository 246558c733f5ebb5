"""End-to-end benchmark: cold entry points, checked outputs, layer times.

Run from the root of a checkout::

    python3 bench_e2e/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads (see ``bench_e2e/README.md`` for why each was chosen):

* ``suite`` -- cold ``repro suite``, back to back;
* ``racy_loop`` -- cold ``repro record`` of a generated two-thread loop,
  then cold ``repro analyze --json`` of its log;
* ``fleet_service`` -- ``repro serve --pool-size 1 --fleet-dir D`` over a
  pre-populated store, driven in a closed loop first by one uploader
  alone, then by the uploader and one ``GET /races`` reader together.

``--trace 0`` measures the untraced entry points and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and
prints the per-layer metrics.  Every metric is printed by name with its
unit on stderr; the last stdout line is one JSON object with the
``BENCHMARK.json`` metrics.  Inputs come from ``--seed`` alone and are
cached under ``.bench_build/e2e`` outside the timed window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import load  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "e2e"
PYTHON = sys.executable

#: Seeds map onto this many input variants (``seed % VARIANTS``), each
#: with committed reference digests.  The last variant is kept back for
#: confirming claims: tune on the others.
VARIANTS = 8
#: Cold ``import repro.cli`` samples per run; setup_s is their median.
#: They are spread evenly over the window, outside its clock, so that
#: the machine's speed drift over seconds averages out as it does for
#: report_s.
SETUP_REPEATS = 15
#: ``repro serve`` start-ups per run; the last one is measured.
SERVE_STARTS = 5
#: A cold invocation running longer than this is killed and counted
#: as failed, so a hang cannot outlive the benchmark's time limit.
PROCESS_TIMEOUT_S = 60.0
#: Share of the ``fleet_service`` window the uploader runs alone; the
#: reader joins it for the rest.
ALONE_SHARE = 0.4

WORKLOADS = ("suite", "racy_loop", "fleet_service")


# ----------------------------------------------------------------------
# Small helpers.
# ----------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, share):
    """Nearest-rank percentile; 0.0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(share * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def child_env(unbuffered: bool = False) -> dict:
    """The environment of every child: the checkout's ``src`` importable.

    Bytecode caching is switched back on, as users have it; stdout is
    unbuffered only where the benchmark reads a child's first line.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class Cold:
    """Cold child processes, timed spawn to exit, peak RSS from wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def run(self, argv, stdout_path=None):
        """``(wall_s, exit_code)`` of one cold child process."""
        stderr_path = self.work / "stderr.txt"
        with open(stdout_path or os.devnull, "wb") as stdout, \
                open(stderr_path, "wb") as stderr:
            started = time.perf_counter()
            process = subprocess.Popen(
                argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT
            )
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
            watchdog.start()
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - started
            watchdog.cancel()
        process.returncode = code = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            tail = stderr_path.read_text(errors="replace")[-800:]
            print("command failed (%d): %s\n%s" % (code, " ".join(map(str, argv)), tail),
                  file=sys.stderr)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return wall, code


def repro(*args):
    return [PYTHON, "-m", "repro", *map(str, args)]


def traced(spans_path, *args):
    return [PYTHON, str(HERE / "traced.py"), str(spans_path), *map(str, args)]


def setup_sample(cold: Cold) -> float:
    """One cold interpreter start plus ``import repro.cli``."""
    return cold.run([PYTHON, "-c", "import repro.cli"])[0]


# ----------------------------------------------------------------------
# Inputs, references and ground truth.
# ----------------------------------------------------------------------


def inputs_for(variant: int) -> Path:
    """Generate (once) and return the input directory of one variant."""
    stamp = sha256((HERE / "inputs.py").read_bytes())[:12]
    directory = WORK / "inputs" / ("v%d-%s" % (variant, stamp))
    if (directory / "manifest.json").exists():
        return directory
    partial = directory.with_name(directory.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    subprocess.run(
        [PYTHON, str(HERE / "inputs.py"), str(variant), str(partial)],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    for stale in directory.parent.glob("v%d-*" % variant):
        if stale != partial:
            shutil.rmtree(stale, ignore_errors=True)
    partial.rename(directory)
    return directory


def references() -> dict:
    path = HERE / "references.json"
    return json.loads(path.read_text()) if path.exists() else {}


def truth_for(rules, addresses):
    """Ground truth of the first address a label covers (None if none)."""
    for address in addresses:
        for rule in rules:
            if rule[0] == "heap" and address >= rule[1]:
                return rule[2]
            if rule[0] == "range" and rule[1] <= address < rule[2]:
                return rule[3]
    return None


def score(races, labels) -> dict:
    """Unique races labelled harmful/benign but reported the other way.

    ``races`` maps ``(program, race)`` to ``(harmful, addresses)``.
    """
    harmful_missed = benign_flagged = 0
    for (program, _), (harmful, addresses) in races.items():
        truth = truth_for(labels.get(program, []), addresses)
        if truth == "real-harmful" and not harmful:
            harmful_missed += 1
        elif truth == "real-benign" and harmful:
            benign_flagged += 1
    return {"harmful_missed": harmful_missed, "benign_flagged": benign_flagged}


def suite_label_metrics(inputs: Path, work: Path) -> dict:
    """Score the suite's per-race verdicts (untimed child process)."""
    out = work / "verdicts.json"
    with open(out, "wb") as handle:
        subprocess.run(
            [PYTHON, str(HERE / "probe.py")],
            stdout=handle,
            env=child_env(),
            cwd=ROOT,
            check=True,
            timeout=120,
        )
    races = {
        (race["program"], race["race"]): (
            race["classification"] == "potentially-harmful",
            race["addresses"],
        )
        for race in json.loads(out.read_text())
    }
    return score(races, json.loads((inputs / "labels.json").read_text()))


# ----------------------------------------------------------------------
# Layer accounting for traced runs.
# ----------------------------------------------------------------------

#: Span names whose self time is a per-layer metric (``<name>_s``).
LAYERS = (
    "cli.import",
    "record.run",
    "record.save",
    "record.load",
    "isa.assemble",
    "replay.ordered",
    "race.detect",
    "replay.vp",
    "analysis.plan",
    "analysis.classify",
    "analysis.report",
    "fleet.absorb",
    "fleet.query",
    "service.submit",
)
COUNTERS = (
    "record.steps",
    "race.instances",
    "replay.vp_runs",
    "fleet.absorb_calls",
    "fleet.queries",
)


def layer_times(document) -> dict:
    """Self time per span name, plus the summed root-span durations."""
    children = {}
    for span_id, parent, name, start, end, _ in document["spans"]:
        children[parent] = children.get(parent, 0.0) + (end - start)
    selfs = {"trace.roots": children.get(0, 0.0)}
    for span_id, parent, name, start, end, _ in document["spans"]:
        own = (end - start) - children.get(span_id, 0.0)
        selfs[name] = selfs.get(name, 0.0) + own
    return selfs


def merge_trace(totals: dict, document: dict) -> None:
    """Add one traced process's layer self times and counters."""
    for name, seconds in layer_times(document).items():
        totals[name] = totals.get(name, 0.0) + seconds
    for name, value in document["counters"].items():
        totals[name] = totals.get(name, 0) + value
    totals["missing"] = sorted(set(totals.get("missing", [])) | set(document["missing"]))
    totals["import_modules"] = max(totals.get("import_modules", 0), document["import_modules"])


def layer_metrics(totals: dict, wall_s: float, chains: int) -> dict:
    """Per-layer metrics per chain; self times + unattributed = wall."""
    metrics = {}
    for name in LAYERS:
        metrics[name + "_s"] = totals.get(name, 0.0) / chains
    for name in COUNTERS:
        metrics[name] = totals.get(name, 0) / chains
    classified = totals.get("analysis.classified", 0)
    if classified:
        own = totals.get("analysis.own_replays", 0)
        metrics["analysis.reuse_ratio"] = max(classified - own, 0) / classified
    metrics["cli.import_modules"] = totals.get("import_modules", 0)
    metrics["trace.wall_s"] = wall_s / chains
    metrics["trace.unattributed_s"] = metrics["trace.wall_s"] - sum(
        metrics[name + "_s"] for name in LAYERS
    )
    metrics["trace.missing_targets"] = len(totals.get("missing", []))
    return metrics


# ----------------------------------------------------------------------
# CLI workloads: suite and racy_loop.
# ----------------------------------------------------------------------


class CliWorkload:
    """A chain of cold CLI invocations whose outputs are checked."""

    def __init__(self, name, inputs: Path, variant: int, work: Path):
        self.name = name
        self.inputs = inputs
        self.variant = variant
        self.work = work
        self.cold = Cold(work)
        expected = references().get(name, {})
        # suite output does not depend on the seed; racy_loop's does.
        self.expected = expected if name == "suite" else expected.get(str(variant), {})
        self.wrong_outputs = 0
        self.outputs = {}

    def check(self, key: str, data: bytes) -> None:
        digest = sha256(data)
        self.outputs[key] = digest
        if self.expected.get(key) != digest:
            self.wrong_outputs += 1

    def chain(self, trace_path=None):
        """Run one chain; ``(wall_s, ok)``.  Traced when a path is given."""
        if self.name == "suite":
            argv = ["suite"]
            stdout = self.work / "suite.txt"
            command = traced(trace_path, "cli", *argv) if trace_path else repro(*argv)
            wall, code = self.cold.run(command, stdout)
            self.check("stdout", stdout.read_bytes())
            self.report_bytes = stdout.stat().st_size
            return wall, code == 0
        asm = self.inputs / "racy" / "racy.asm"
        log = self.work / "racy.replay.bin"
        report = self.work / "report.json"
        seed = json.loads((self.inputs / "manifest.json").read_text())["racy_seed"]
        steps = (
            ["record", asm, "-o", log, "--seed", seed],
            ["analyze", log, "--json", report],
        )
        wall, ok = 0.0, True
        for number, argv in enumerate(steps):
            if trace_path:
                command = traced("%s.%d" % (trace_path, number), "cli", *argv)
            else:
                command = repro(*argv)
            seconds, code = self.cold.run(command)
            wall += seconds
            ok = ok and code == 0
            if not ok:
                break
        for key, path in (("log", log), ("report", report)):
            self.check(key, path.read_bytes() if ok and path.exists() else b"")
        self.log_bytes = log.stat().st_size if log.exists() else 0
        self.report_bytes = report.stat().st_size if report.exists() else 0
        return wall, ok

    def trace_documents(self, trace_path):
        paths = [trace_path] if self.name == "suite" else [
            Path("%s.%d" % (trace_path, number)) for number in range(2)
        ]
        return [json.loads(Path(path).read_text()) for path in paths if Path(path).exists()]


def run_cli(name, inputs, variant, seconds, trace, work):
    workload = CliWorkload(name, inputs, variant, work)
    workload.chain()  # untimed warm-up: bytecode caches, page cache
    workload.cold = Cold(work)
    workload.wrong_outputs = 0
    metrics = {}
    walls, traced_walls, totals = [], [], {}
    setup = Cold(work)  # kept apart so imports do not count in peak_rss_mb
    setups = []
    started = time.perf_counter()
    paused = 0.0
    while not walls or time.perf_counter() - started - paused < seconds:
        wall, _ = workload.chain()
        walls.append(wall)
        if trace:
            trace_path = work / "spans.json"
            wall, ok = workload.chain(trace_path)
            if ok:
                traced_walls.append(wall)
                for document in workload.trace_documents(trace_path):
                    merge_trace(totals, document)
            continue
        share = min((time.perf_counter() - started - paused) / seconds, 1.0)
        pause = time.perf_counter()
        while len(setups) < int(SETUP_REPEATS * share):
            setups.append(setup_sample(setup))
        paused += time.perf_counter() - pause
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(setup))
    if trace:
        metrics.update(layer_metrics(totals, sum(traced_walls), max(len(traced_walls), 1)))
        metrics["analysis.report_bytes"] = workload.report_bytes
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(walls)
        if totals.get("missing"):
            print("trace: missing targets: %s" % ", ".join(totals["missing"]), file=sys.stderr)
    else:
        metrics["setup_s"] = median(setups)
        metrics["report_s"] = median(walls)
        metrics["peak_rss_mb"] = workload.cold.peak_rss_mb
        metrics["invocations"] = len(walls)
        if name == "racy_loop":
            metrics["log_bytes"] = workload.log_bytes
        else:
            metrics.update(suite_label_metrics(inputs, work))
    attempted = workload.cold.attempted + setup.attempted
    failed = workload.cold.failed + setup.failed
    metrics["wrong_outputs"] = workload.wrong_outputs
    metrics["failed_share"] = failed / max(attempted, 1)
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# fleet_service.
# ----------------------------------------------------------------------


class Server:
    """One service process: ``repro serve`` or the traced equivalent."""

    def __init__(self, argv, stdin=False):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(unbuffered=True),
            cwd=ROOT,
        )
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.process.kill)
        watchdog.start()
        line = self.process.stdout.readline().decode("utf-8", "replace")
        watchdog.cancel()
        url = next((word for word in line.split() if word.startswith("http://")), "")
        self.host, _, port = url[len("http://"):].rstrip("/").partition(":")
        if not port.isdigit():
            self.stop()
            raise RuntimeError("service did not start: %r" % line)
        self.port = int(port)

    def ready_seconds(self) -> float:
        """Spawn to first 200 on /healthz and on /races (store loaded)."""
        conn = load.Connection(self.host, self.port)
        try:
            for path in ("/healthz", "/races?limit=1"):
                deadline = time.perf_counter() + PROCESS_TIMEOUT_S
                while conn.request("GET", path)[0] != 200:
                    if time.perf_counter() > deadline:
                        self.stop()
                        raise RuntimeError("service never answered %s" % path)
                    time.sleep(0.005)
            return time.perf_counter() - self.started
        finally:
            conn.close()

    def stop(self) -> float:
        """Stop gracefully and reap; returns peak RSS in MB."""
        if self.process.stdin is not None:
            self.process.stdin.close()
        else:
            self.process.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.process.kill)
        watchdog.start()
        _, status, usage = os.wait4(self.process.pid, 0)
        watchdog.cancel()
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.process.stdout.close()
        return usage.ru_maxrss / 1024.0


def fleet_uploads(inputs: Path):
    manifest = json.loads((inputs / "manifest.json").read_text())
    return manifest, [
        (index, (inputs / "fleet" / "uploads" / entry["file"]).read_bytes())
        for index, entry in enumerate(manifest["uploads"])
    ]


def fresh_store(inputs: Path, work: Path, number: int) -> Path:
    store = work / ("store-%d" % number)
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(inputs / "fleet" / "store", store)
    return store


def serve_argv(store: Path):
    return repro("serve", "--pool-size", 1, "--fleet-dir", store, "--port", 0)


def run_fleet_window(server: Server, uploads, seconds):
    """Warm up with the first upload, then drive the rest for ``seconds``.

    The uploader runs alone for :data:`ALONE_SHARE` of the window, then
    with the reader beside it on the uploads left.  Returns
    ``(warm_job, alone, contended)``.
    """
    conn = load.Connection(server.host, server.port)
    warm = load.run_job(conn, *uploads[0])
    conn.close()
    rest = uploads[1:]
    alone = load.drive(server.host, server.port, rest, seconds * ALONE_SHARE, reads=False)
    rest = rest[len(alone.jobs):]
    contended = load.drive(server.host, server.port, rest, seconds * (1 - ALONE_SHARE))
    return warm, alone, contended


def done_latencies(result: load.LoadResult):
    return [job.latency_s for job in result.jobs if job.report is not None]


def fleet_metrics(alone, result, expected, manifest, labels) -> dict:
    """Metrics of both phases; contention figures from ``result``."""
    done = [job for job in result.jobs if job.report is not None]
    latencies = done_latencies(result)
    wrong = 0
    races = {}
    for job in alone.jobs + result.jobs:
        report = job.report or b""
        if job.index >= len(expected) or expected[job.index] != sha256(report)[:16]:
            wrong += 1
        if job.report is None:
            continue
        program = manifest["uploads"][job.index]["program"]
        for race in json.loads(report).get("races", []):
            key = (program, race["race"])
            harmful, addresses = races.get(key, (False, []))
            harmful = harmful or race["classification"] == "potentially-harmful"
            addresses = addresses + [s["address"] for s in race.get("scenarios", [])]
            races[key] = (harmful, addresses)
    attempted = len(alone.jobs) + len(result.jobs) + len(result.reads) + result.read_failures
    failed = alone.job_failures + result.job_failures + result.read_failures
    metrics = {
        "report_s": median(done_latencies(alone)),
        "jobs_alone": len(done_latencies(alone)),
        "job_p50_s": median(latencies),
        "job_p90_s": percentile(latencies, 0.9),
        "jobs_per_s": len(done) / result.window_s if result.window_s else 0.0,
        "races_p50_s": median(result.reads),
        "races_p90_s": percentile(result.reads, 0.9),
        "jobs": len(done),
        "reads": len(result.reads),
        "wrong_outputs": wrong,
        "failed_share": failed / max(attempted, 1),
    }
    metrics.update(score(races, labels))
    return metrics, attempted, failed


def run_fleet(inputs, variant, seconds, trace, work):
    manifest, uploads = fleet_uploads(inputs)
    labels = json.loads((inputs / "labels.json").read_text())
    expected = references().get("fleet_service", {}).get(str(variant), [])
    if not trace:
        samples, peak = [], 0.0
        for number in range(SERVE_STARTS):
            server = Server(serve_argv(fresh_store(inputs, work, number)))
            samples.append(server.ready_seconds())
            if number < SERVE_STARTS - 1:
                peak = max(peak, server.stop())
        try:
            warm, alone, result = run_fleet_window(server, uploads, seconds)
        finally:
            peak = max(peak, server.stop())
        metrics, attempted, failed = fleet_metrics(alone, result, expected, manifest, labels)
        metrics["setup_s"] = median(samples)
        metrics["peak_rss_mb"] = peak
        metrics["fleet.races"] = result.store_races
        return metrics, attempted + 1, failed + (warm.report is None)
    # Traced: the same client load against the in-process placement
    # (pool size 0), first with the wrappers off, then on.
    half = max(seconds / 2.0, 0.5)
    runs = {}
    for mode in ("off", "on"):
        spans = work / ("spans-%s.json" % mode)
        store = fresh_store(inputs, work, 0)
        args = ["serve", store] + (["--off"] if mode == "off" else [])
        server = Server(traced(spans, *args), stdin=True)
        server.ready_seconds()
        try:
            runs[mode] = run_fleet_window(server, uploads, half)
        finally:
            server.stop()
        runs[mode] += (json.loads(spans.read_text()),)
    _, alone, result, document = runs["on"]
    totals = {}
    merge_trace(totals, document)
    wall = totals.pop("trace.roots", 0.0)
    metrics = layer_metrics(totals, wall, 1)
    served = [job for job in alone.jobs + result.jobs if job.report is not None]
    metrics["analysis.report_bytes"] = sum(len(job.report) for job in served)
    metrics["service.jobs"] = len(served)
    metrics["fleet.races"] = result.store_races
    # Client-side service figures come from the contended phase, where
    # a job's wait for the store lock shows.
    done = [job for job in result.jobs if job.report is not None]
    metrics["service.job_run_s"] = median([job.elapsed_s or 0.0 for job in done])
    metrics["service.job_wait_s"] = median(
        [job.latency_s - (job.elapsed_s or 0.0) for job in done]
    )
    metrics["service.polls"] = sum(job.polls for job in done) / max(len(done), 1)
    metrics["trace.overhead_s"] = median(done_latencies(alone)) - median(
        done_latencies(runs["off"][1])
    )
    if totals.get("missing"):
        print("trace: missing targets: %s" % ", ".join(totals["missing"]), file=sys.stderr)
    checked, attempted, failed = fleet_metrics(alone, result, expected, manifest, labels)
    metrics["wrong_outputs"] = checked["wrong_outputs"]
    metrics["failed_share"] = checked["failed_share"]
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------

#: Units of the printed metrics that ``BENCHMARK.json`` does not declare
#: and that are neither seconds (``_s``) nor counts.
UNITS = {
    "peak_rss_mb": "MB",
    "log_bytes": "bytes",
    "failed_share": "ratio",
    "jobs_per_s": "1/s",
}


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        (metric["name"], metric["unit"])
        for metric in spec["per_layer" if trace else "end_to_end"]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("no program to measure: run from a checkout root with src/repro",
              file=sys.stderr)
        return 2
    variant = args.seed % VARIANTS
    inputs = inputs_for(variant)
    work = WORK / ("run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "fleet_service":
            metrics, attempted, failed = run_fleet(
                inputs, variant, args.seconds, bool(args.trace), work
            )
        else:
            metrics, attempted, failed = run_cli(
                args.workload, inputs, variant, args.seconds, bool(args.trace), work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(bool(args.trace))
    for name, _ in declared:
        metrics.setdefault(name, 0)  # a layer this workload never enters
    units = dict(UNITS, **dict(declared))
    print("%s seed=%d (input variant %d) trace=%d"
          % (args.workload, args.seed, variant, args.trace), file=sys.stderr)
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print("  %-24s %14.6g %s" % (name, metrics[name], unit), file=sys.stderr)
    # Verdict quality (harmful_missed, benign_flagged) is a measurement,
    # not an output error: it is printed above and documented.
    correct = metrics["wrong_outputs"] == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
