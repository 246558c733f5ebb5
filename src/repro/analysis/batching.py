"""The verdict cache and batch planning behind the race classifier.

Classification replays every race instance twice in a virtual processor.
When hundreds of instances share the same static race and byte-identical
region recordings — a tight racing loop produces exactly that — the
replays are redundant.  :class:`~repro.race.classifier.RaceClassifier`
removes the redundancy with the two pieces defined here:

* :func:`plan_batches` groups canonicalized :class:`RaceInstance`\\ s by
  their full structural key — ``(program, racing offsets, region-content
  ids, recorded order)`` — so the classifier replays one *leader* per
  batch and fans its verdict out to every member whose live-in agrees on
  the probed addresses;
* :class:`VerdictCache` holds those verdicts, each with the live-in probe
  set it was computed under, and carries them across engine lifetimes as
  a portable index (incremental re-analysis).

Cache-key soundness (the full argument is in ``docs/performance.md``): a
verdict is a deterministic function of (a) the two racing regions'
recorded content — start pc, live-in registers, executed static ids and
every recorded access with its value, region-end state, (b) the racing
ops' in-region step offsets and owning thread names, (c) which racing op
was originally first, (d) the freed-range set, and (e) the pair-snapshot
live-in values the replay *reads*.  Components (a)–(c) form the
structural key — (a) is interned once per region so per-instance keys are
tuples of small ints; (d)–(e) cannot be known up front, so a replay runs
over a probe-recording live-in view and the probe set + values are stored
with the verdict.  A later instance hits only when its own live-in agrees
on every probed address — and since the replay is deterministic in
exactly those inputs, it would have probed the same addresses and
produced the same verdict.

The module also owns the *content* functions shared by the verdict
cache, the incremental re-analysis index and the report exporter:
:func:`region_content` builds the canonical region-content tuple,
:func:`content_digest` its stable cross-process hash, and
:func:`instance_batch_key` the triage-facing ``(static race id,
region-content hashes)`` key exported with harmful verdicts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..race.model import RaceInstance
from ..race.outcomes import InstanceOutcome
from ..replay.errors import ReplayFailureKind
from ..replay.regions import SequencingRegion

#: Bump when the content-tuple layout changes: digests of old layouts
#: must never match digests of new ones.
CONTENT_SCHEMA_VERSION = 1

#: Schema version of the portable verdict index (the JSON document
#: :meth:`VerdictCache.export_portable` emits and ``absorb_portable``
#: accepts); unknown versions are ignored wholesale on absorb.
VERDICT_INDEX_VERSION = 1


def region_content(
    ordered, thread_name: str, region: SequencingRegion, footprint=None
) -> tuple:
    """The canonical content tuple of one recorded region.

    Every input the replay draws from one side — start pc, live-in
    registers, the executed static-id trajectory, every recorded access
    (loads seed values, stores and their values, sync ops) and the
    region-end state — is a function of this tuple, so two regions with
    equal content are interchangeable for classification.  This is the
    single definition the verdict cache interns, the incremental index
    digests and the exporter's batch keys hash.
    """
    replay = ordered.thread_replays[thread_name]
    log = ordered.log
    start, end = region.start_step, region.end_step
    if region.end_kind == "thread_end":
        thread_end = log.threads[thread_name].end
        end_state = (
            "thread_end",
            None if thread_end is None else thread_end.reason,
            replay.final_registers,
            replay.final_pc,
        )
    else:
        end_state = (
            region.end_kind,
            replay.region_end_registers.get(end),
            replay.region_end_pcs.get(end),
        )
    if footprint is None:
        footprint = tuple(sorted(set(log.threads[thread_name].pc_footprint)))
    return (
        thread_name,
        # The whole-thread pc footprint gates which control flow an
        # alternative replay may visit (§4.2.1), so it is part of what
        # determines the verdict.
        footprint,
        ordered.region_start_pc(region),
        ordered.live_in_registers(region),
        tuple(replay.static_ids[start:end]),
        tuple(
            (
                access.thread_step - start,
                access.address,
                access.value,
                access.is_write,
                access.is_sync,
            )
            for access in replay.accesses_in_steps(start, end)
        ),
        end_state,
    )


def content_digest(content: tuple) -> str:
    """A stable cross-process hash of one region-content tuple.

    ``repr`` of the tuple is deterministic (ints, strings, bools, None,
    nested tuples and ``StaticInstructionId`` dataclasses), so equal
    contents digest equally in every process — which is what lets the
    incremental index splice verdicts across engine lifetimes.
    """
    material = repr(("repro-region-content", CONTENT_SCHEMA_VERSION, content))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def content_shape(content: tuple) -> Tuple[int, int, int]:
    """A compact structural fingerprint of a content tuple.

    ``(start pc, executed steps, recorded accesses)`` — checked alongside
    the digest when splicing verdicts from an imported index, so even a
    (cryptographically impossible, but cheap to guard against) digest
    collision between different contents cannot serve a wrong verdict:
    colliding contents with different shapes are rejected and recomputed.
    """
    return (content[2], len(content[4]), len(content[5]))


def instance_batch_key(ordered, instance: RaceInstance) -> Dict:
    """The triage-facing batch key of one race instance.

    ``race`` is the static race id; ``region_content`` the two enclosing
    regions' content digests (truncated — the full digests live in the
    verdict index), in canonical side order (earlier-opening region
    first, matching the classifier's canonicalization).  Fleet triage
    dedupes harmful scenarios by this key: two reports with equal batch
    keys describe content-identical racing situations.
    """
    if (instance.region_b.start_ts, instance.region_b.tid) < (
        instance.region_a.start_ts,
        instance.region_a.tid,
    ):
        instance = RaceInstance(
            access_a=instance.access_b,
            access_b=instance.access_a,
            region_a=instance.region_b,
            region_b=instance.region_a,
        )
    key = instance.static_key
    digests = [
        content_digest(
            region_content(ordered, access.thread_name, region)
        )[:16]
        for access, region in (
            (instance.access_a, instance.region_a),
            (instance.access_b, instance.region_b),
        )
    ]
    return {"race": "%s|%s" % (key[0], key[1]), "region_content": digests}


#: What the cache stores per verdict: everything needed to rebuild a
#: ClassifiedInstance around a *different* RaceInstance object.
#: (outcome, original-first-was-side-a, pre_value, failure_kind, detail)
_VerdictTemplate = Tuple[InstanceOutcome, bool, int, object, str]


def _template_to_json(template: _VerdictTemplate) -> list:
    outcome, first_is_a, pre_value, failure_kind, failure_detail = template
    return [
        outcome.value,
        bool(first_is_a),
        pre_value,
        None if failure_kind is None else failure_kind.value,
        failure_detail,
    ]


def _template_from_json(raw) -> _VerdictTemplate:
    outcome, first_is_a, pre_value, failure_kind, failure_detail = raw
    if failure_detail is not None and not isinstance(failure_detail, str):
        raise ValueError("malformed failure detail %r" % (failure_detail,))
    return (
        InstanceOutcome(outcome),
        bool(first_is_a),
        int(pre_value),
        None if failure_kind is None else ReplayFailureKind(failure_kind),
        failure_detail,
    )


class VerdictCache:
    """Memoized verdicts keyed by structural key + live-in probe set.

    One structural key maps to a list of candidates because the same
    structural replay can behave differently under different live-in
    images; each candidate carries the probe set its verdict was computed
    under and matches only a live-in that agrees everywhere it looked.

    Beyond the in-process cache, verdicts travel across engine lifetimes
    as a **portable index**: :meth:`export_portable` replaces the
    process-local interned content ids with stable sha256 content digests
    (plus a shape fingerprint as a collision guard), and
    :meth:`absorb_portable` loads such an index so that a later analysis
    of content-identical regions *splices* the stored verdicts instead of
    replaying — the incremental re-analysis path.  Absorbed entries only
    ever match through the same probe/freed agreement as local ones, so
    splicing cannot change a verdict, only skip recomputing it.
    """

    def __init__(self) -> None:
        self._entries: Dict[
            tuple, List[Tuple[Tuple[Tuple[int, Optional[int]], ...], tuple, _VerdictTemplate]]
        ] = {}
        self._interned: Dict[tuple, int] = {}
        #: id -> content tuple (for digesting on export/splice).
        self._contents: List[tuple] = []
        #: id -> lazily computed sha256 digest / shape fingerprint.
        self._digests: List[Optional[str]] = []
        self._shapes: List[Optional[tuple]] = []
        #: portable key -> [(shapes, probe items, freed fp, template)].
        self._imported: Dict[tuple, List[tuple]] = {}
        #: normalized absorbed entries, kept for lossless re-export.
        self._imported_raw: List[dict] = []
        #: canonical-JSON fingerprints of absorbed entries (idempotency).
        self._absorbed: Set[str] = set()
        self.hits = 0
        self.misses = 0
        #: Hits served by promoting an absorbed (imported) entry.
        self.spliced = 0
        #: Entries accepted by :meth:`absorb_portable` over the lifetime.
        self.absorbed = 0

    def intern(self, content: tuple) -> int:
        """Map a (possibly large) content tuple to a stable small id.

        Region content is hashed once here, at interning time; the
        per-instance structural keys then carry only the id, so repeated
        lookups never re-hash whole region transcripts.
        """
        interned = self._interned.get(content)
        if interned is None:
            interned = len(self._interned)
            self._interned[content] = interned
            self._contents.append(content)
            self._digests.append(None)
            self._shapes.append(None)
        return interned

    def _digest_of(self, content_id: int) -> str:
        digest = self._digests[content_id]
        if digest is None:
            # A module-global lookup, so tests can monkeypatch the
            # digest function and exercise the collision guard.
            digest = content_digest(self._contents[content_id])
            self._digests[content_id] = digest
        return digest

    def _shape_of(self, content_id: int) -> tuple:
        shape = self._shapes[content_id]
        if shape is None:
            shape = content_shape(self._contents[content_id])
            self._shapes[content_id] = shape
        return shape

    def __len__(self) -> int:
        return sum(len(candidates) for candidates in self._entries.values())

    def lookup(
        self, key: tuple, live_in: Dict[int, int], freed: Dict[int, int]
    ) -> Optional[_VerdictTemplate]:
        candidates = self._entries.get(key)
        freed_fp = tuple(sorted(freed.items())) if freed else ()
        for probe_items, candidate_freed, template in candidates or ():
            if candidate_freed != freed_fp:
                continue
            if all(
                live_in.get(address, None) == value
                for address, value in probe_items
            ):
                self.hits += 1
                return template
        if self._imported:
            template = self._splice_imported(key, live_in, freed_fp)
            if template is not None:
                self.hits += 1
                self.spliced += 1
                return template
        self.misses += 1
        return None

    def _splice_imported(
        self, key: tuple, live_in: Dict[int, int], freed_fp: tuple
    ) -> Optional[_VerdictTemplate]:
        """Serve a verdict from an absorbed portable index, if one matches.

        Digesting the interned contents happens lazily here (and is cached
        per content id), so analyses that never splice pay nothing.  A
        match is promoted into the local entries so later instances of the
        same key hit without re-digesting.
        """
        program, offset_a, id_a, offset_b, id_b, first_is_a = key
        portable_key = (
            program,
            offset_a,
            self._digest_of(id_a),
            offset_b,
            self._digest_of(id_b),
            first_is_a,
        )
        candidates = self._imported.get(portable_key)
        if not candidates:
            return None
        shapes = (self._shape_of(id_a), self._shape_of(id_b))
        for entry_shapes, probe_items, candidate_freed, template in candidates:
            if entry_shapes != shapes:
                continue  # digest collision guard: recompute instead
            if candidate_freed != freed_fp:
                continue
            if all(
                live_in.get(address, None) == value
                for address, value in probe_items
            ):
                self._entries.setdefault(key, []).append(
                    (probe_items, candidate_freed, template)
                )
                return template
        return None

    def store(
        self,
        key: tuple,
        probes: Dict[int, Optional[int]],
        freed: Dict[int, int],
        template: _VerdictTemplate,
    ) -> None:
        self._entries.setdefault(key, []).append(
            (
                tuple(sorted(probes.items())),
                tuple(sorted(freed.items())) if freed else (),
                template,
            )
        )

    # ------------------------------------------------------------------
    # The portable verdict index.
    # ------------------------------------------------------------------

    def export_portable(self, program: Optional[str] = None) -> Dict:
        """The cache as a portable JSON-able verdict index.

        Interned content ids become content digests; every local entry
        and every absorbed entry is included (deduplicated by canonical
        JSON), so absorb → export round-trips losslessly and repeated
        export/absorb cycles converge.  ``program`` filters to one
        program's entries.
        """
        entries: List[dict] = []
        seen: Set[str] = set()

        def add(entry: dict) -> None:
            fingerprint = json.dumps(entry, sort_keys=True)
            if fingerprint not in seen:
                seen.add(fingerprint)
                entries.append(entry)

        for key, candidates in self._entries.items():
            if program is not None and key[0] != program:
                continue
            portable_key = [
                key[0],
                key[1],
                self._digest_of(key[2]),
                key[3],
                self._digest_of(key[4]),
                key[5],
            ]
            shapes = [list(self._shape_of(key[2])), list(self._shape_of(key[4]))]
            for probe_items, freed_fp, template in candidates:
                add(
                    {
                        "key": portable_key,
                        "shapes": shapes,
                        "probes": [[a, v] for a, v in probe_items],
                        "freed": [[a, s] for a, s in freed_fp],
                        "template": _template_to_json(template),
                    }
                )
        for raw in self._imported_raw:
            if program is not None and raw["key"][0] != program:
                continue
            add(raw)
        return {"verdict_index_version": VERDICT_INDEX_VERSION, "entries": entries}

    def absorb_portable(self, index) -> int:
        """Load a portable verdict index; returns how many entries stuck.

        Defensive by design — indexes come from cache files and user
        ``--incremental-from`` arguments: an unknown version or a
        non-document absorbs nothing, and each malformed entry is skipped
        individually.  Absorbing the same index twice is a no-op.
        """
        if not isinstance(index, dict):
            return 0
        if index.get("verdict_index_version") != VERDICT_INDEX_VERSION:
            return 0
        entries = index.get("entries")
        if not isinstance(entries, list):
            return 0
        accepted = 0
        for raw in entries:
            try:
                parsed = self._parse_portable_entry(raw)
            except (KeyError, ValueError, TypeError, IndexError):
                continue
            if parsed is None:
                continue
            normalized, portable_key, candidate = parsed
            fingerprint = json.dumps(normalized, sort_keys=True)
            if fingerprint in self._absorbed:
                continue
            self._absorbed.add(fingerprint)
            self._imported.setdefault(portable_key, []).append(candidate)
            self._imported_raw.append(normalized)
            self.absorbed += 1
            accepted += 1
        return accepted

    @staticmethod
    def _parse_portable_entry(raw):
        """Normalize one index entry; raise/return None when malformed."""
        program, offset_a, digest_a, offset_b, digest_b, first_is_a = raw["key"]
        if not (
            isinstance(program, str)
            and isinstance(offset_a, int)
            and isinstance(digest_a, str)
            and isinstance(offset_b, int)
            and isinstance(digest_b, str)
            and isinstance(first_is_a, bool)
        ):
            return None
        shapes = tuple(
            tuple(int(part) for part in shape) for shape in raw["shapes"]
        )
        if len(shapes) != 2 or any(len(shape) != 3 for shape in shapes):
            return None
        probes = tuple(
            sorted(
                (int(address), None if value is None else int(value))
                for address, value in raw["probes"]
            )
        )
        freed = tuple(
            sorted((int(address), int(size)) for address, size in raw["freed"])
        )
        template = _template_from_json(raw["template"])
        portable_key = (
            program, offset_a, digest_a, offset_b, digest_b, first_is_a,
        )
        normalized = {
            "key": list(portable_key),
            "shapes": [list(shape) for shape in shapes],
            "probes": [[a, v] for a, v in probes],
            "freed": [[a, s] for a, s in freed],
            "template": _template_to_json(template),
        }
        return normalized, portable_key, (shapes, probes, freed, template)


@dataclass
class PlannedBatch:
    """One group of instances that share a full structural key."""

    #: The structural key every member shares
    #: (:meth:`RaceClassifier._structural_key`).
    key: tuple
    #: ``(input position, canonicalized instance)`` in input order; the
    #: first member is the batch leader (it replays, the rest fan out).
    members: List[Tuple[int, RaceInstance]] = field(default_factory=list)
    #: The leader's virtual processor, built lazily on the first member
    #: that actually replays and rebound (shared specs + seeded prefix
    #: image) for any probe-divergence fallback members.
    processor: object = None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class BatchPlan:
    """The planner's output: batches in first-encounter order."""

    batches: List[PlannedBatch]
    total_instances: int

    @property
    def batch_count(self) -> int:
        return len(self.batches)

    @property
    def max_size(self) -> int:
        return max((batch.size for batch in self.batches), default=0)

    def size_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for batch in self.batches:
            histogram[batch.size] = histogram.get(batch.size, 0) + 1
        return histogram


def plan_batches(classifier, instances: Sequence[RaceInstance]) -> BatchPlan:
    """Group instances by structural key, preserving input order.

    ``classifier`` is a :class:`~repro.race.classifier.RaceClassifier`:
    its canonicalization and key construction (which interns region
    contents into its verdict cache on first sight) define the keys.
    """
    batches: Dict[tuple, PlannedBatch] = {}
    for position, instance in enumerate(instances):
        canonical = classifier._canonicalize(instance)
        key = classifier._structural_key(canonical)
        batch = batches.get(key)
        if batch is None:
            batch = PlannedBatch(key=key)
            batches[key] = batch
        batch.members.append((position, canonical))
    return BatchPlan(
        batches=list(batches.values()), total_instances=len(instances)
    )
