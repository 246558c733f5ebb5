"""Span tracer installed from outside the program under test.

The traced run wraps each layer's public functions by name -- nothing
under ``src/`` changes.  A target is ``"module:attr"`` or
``"module:Class.method"``; :func:`install` resolves every target at
start (or, for a module the program has not imported yet, the moment it
does) and replaces the function everywhere the ``repro`` package holds
a reference to it (``from x import f`` copies included).  A target that
no longer exists is listed in :data:`MISSING` and never raises, so a
refactor that deletes a class leaves the benchmark running; its time
simply falls into ``trace.unattributed_s``.

A span is ``(id, parent, name, start, end, thread)``.  Spans nest per
thread, stay in memory, and :func:`dump` writes them out at the end.
Counters are kept beside the spans, at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import sys
import threading
import time
from pathlib import Path

#: (span name, target, counter hook).  A ``None`` span name makes a
#: counter-only hook; hooks see ``(args, result)`` and return
#: ``{counter: increment}``.
TARGETS = [
    ("record.load", "repro.record.serialization:load_log", None),
    ("record.load", "repro.record.serialization:load_log_bytes", None),
    ("record.load", "repro.record.binary_format:decode_log", None),
    ("record.run", "repro.record.recorder:record_run",
     lambda args, result: {"record.steps": result[1].total_instructions}),
    ("record.save", "repro.record.serialization:save_log", None),
    ("isa.assemble", "repro.isa.assembler:assemble", None),
    ("replay.ordered", "repro.replay.ordered_replay:OrderedReplay.__init__", None),
    ("race.detect", "repro.race.happens_before:HappensBeforeDetector.detect",
     lambda args, result: {"race.instances": len(result)}),
    ("replay.vp", "repro.replay.virtual_processor:VirtualProcessor.run",
     lambda args, result: {"replay.vp_runs": 1}),
    ("analysis.plan", "repro.analysis.batching:plan_batches", None),
    ("analysis.classify", "repro.race.classifier:RaceClassifier.classify_all",
     lambda args, result: {"analysis.classified": len(result)}),
    ("analysis.classify", "repro.analysis.engine:BatchingClassifier.classify_all",
     lambda args, result: {"analysis.classified": len(result)}),
    (None, "repro.race.classifier:RaceClassifier._classify_with_state",
     lambda args, result: {"analysis.own_replays": 1}),
    ("analysis.report", "repro.analysis.pipeline:execution_report", None),
    ("analysis.report", "repro.analysis.pipeline:render_report", None),
    ("analysis.report", "repro.analysis.statistics:corpus_statistics", None),
    ("analysis.report", "repro.analysis.experiments:run_table1", None),
    ("analysis.report", "repro.analysis.experiments:run_table2", None),
    ("fleet.absorb", "repro.fleet.store:FleetStore.absorb_report",
     lambda args, result: {"fleet.absorb_calls": 1}),
    ("fleet.query", "repro.fleet.store:FleetStore.report_bytes",
     lambda args, result: {"fleet.queries": 1}),
    ("service.submit", "repro.service.service:AnalysisService.submit_log", None),
    ("service.job", "repro.service.workers:ShardedWorkerPool._run_one", None),
    ("service.request", "repro.service.http:AnalysisRequestHandler.do_GET", None),
    ("service.request", "repro.service.http:AnalysisRequestHandler.do_POST", None),
]

SPANS = []
COUNTERS = {}
MISSING = []
# Spans nest per thread, so the stack of open spans is thread-local.
# Appends to SPANS are atomic under the GIL; the counter
# read-modify-write is not, hence the lock.
_LOCAL = threading.local()
_LOCK = threading.Lock()
_IDS = iter(range(1, 1 << 62))


def _count(increments) -> None:
    with _LOCK:
        for name, value in increments.items():
            COUNTERS[name] = COUNTERS.get(name, 0) + value


class span:
    """Context manager recording one span on the calling thread."""

    __slots__ = ("name", "id", "parent", "start")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        self.id = next(_IDS)
        self.parent = stack[-1] if stack else 0
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        _LOCAL.stack.pop()
        SPANS.append(
            (self.id, self.parent, self.name, self.start, end, threading.get_ident())
        )
        return False


def _wrap(name, target, function, hook):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if name is None:
            result = function(*args, **kwargs)
        else:
            with span(name):
                result = function(*args, **kwargs)
        if hook is not None:
            try:
                _count(hook(args, result))
            except Exception:  # noqa: BLE001 - a counter never breaks a run
                # The target changed shape: report it like a missing one.
                if target not in MISSING:
                    MISSING.append(target)
        return result

    wrapper.__bench_wrapped__ = True
    return wrapper


def _resolve(target: str):
    """``(owner, attribute, function)`` of an imported target, or None."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    function = vars(owner).get(parts[-1]) if owner is not None else None
    if not callable(function) or isinstance(function, (staticmethod, classmethod)):
        return None
    return owner, parts[-1], function


def _apply(name, target, hook) -> None:
    resolved = _resolve(target)
    if resolved is None:
        MISSING.append(target)
        return
    owner, attribute, function = resolved
    if getattr(function, "__bench_wrapped__", False):
        return
    wrapper = _wrap(name, target, function, hook)
    setattr(owner, attribute, wrapper)
    if isinstance(owner, type):
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for key, value in list(vars(module).items()):
            if value is function:
                setattr(module, key, wrapper)


#: Targets whose module is not imported yet, by module name.
_PENDING = {}


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies pending targets right after their module executes.

    Importing every target module up front would add imports a run never
    makes (and hide lazy imports from ``cli.import_s``), so targets in
    modules not yet loaded are applied when the program loads them.
    """

    def find_spec(self, fullname, path, target=None):
        if fullname not in _PENDING:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            for entry in _PENDING.pop(fullname, ()):
                _apply(*entry)

        spec.loader.exec_module = exec_module
        return spec


def install() -> None:
    """Wrap every target; absent ones end up in :data:`MISSING`."""
    for entry in TARGETS:
        module_name = entry[1].partition(":")[0]
        if module_name in sys.modules:
            _apply(*entry)
        else:
            _PENDING.setdefault(module_name, []).append(entry)
    if _PENDING:
        sys.meta_path.insert(0, _PatchOnImport())


def _module_exists(module_name: str) -> bool:
    """Whether the module's source is there, without importing it."""
    top, *rest = module_name.split(".")
    package = sys.modules.get(top)
    if package is None or not hasattr(package, "__path__"):
        return False
    base = Path(package.__path__[0]).joinpath(*rest)
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def _unimportable_targets() -> None:
    """Move pending targets whose module no longer exists to MISSING."""
    for module_name, entries in sorted(_PENDING.items()):
        if not _module_exists(module_name):
            MISSING.extend(target for _, target, _ in entries)


def dump(path: str, extra=None) -> None:
    """Write spans, counters and missing targets as one JSON document."""
    _unimportable_targets()
    document = {
        "spans": SPANS,
        "counters": COUNTERS,
        "missing": MISSING,
    }
    document.update(extra or {})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
