"""Durable origin state: recovery, the journaled store, and its manager.

The durable origin keeps its volume store's runtime state on disk as a
snapshot plus an append-only journal tail.  A state directory holds::

    meta.json          generation + epoch-base floor, rewritten at startup
    snapshot.json      one full store-state snapshot
    journal-<G>.log    append-only journal for process generation G

``snapshot.json`` and ``meta.json`` are documents of the state codec
(:mod:`repro.volumes.state`): written atomically, checksummed whole, so
one that fails validation indicates external damage and raises
:class:`~repro.volumes.state.StateFormatError` instead of being guessed
at — unlike the journal (:mod:`.journal`), whose torn tails are an
*expected* crash artifact and are tolerated.

``meta.json`` closes a narrow hole: a process that crashed before its
first journal append (or whose journal ``begin`` record was itself torn)
would otherwise leave no durable trace of the epoch base it was serving
at.  Every generation writes meta before serving starts, so recovery
always finds a floor to raise the next base above.

This module ties the pieces together:

:func:`recover_state`
    Pure (read-only) crash recovery: load the snapshot, replay the
    journal tail, raise the epoch base past everything the previous
    generation could have served.  Calling it twice on the same
    directory yields identical stores — recovery is idempotent.

:class:`JournaledVolumeStore`
    A :class:`~repro.volumes.base.VolumeStore` wrapper enforcing the
    write-ahead rule: every ``observe`` is journaled (fsynced) *before*
    it mutates the in-memory store, so an acknowledged request is a
    durable request.

:class:`DurableState`
    The per-process manager: runs recovery, persists the new meta
    floor, opens this generation's journal, and serves snapshots,
    reloads, and status for the admin endpoints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from ...devtools.lockorder import make_rlock
from ...telemetry import REGISTRY
from ...traces.records import LogRecord
from ...volumes.base import VolumeLookup, VolumeStore, VolumeVersion
from ...volumes.state import (
    SNAPSHOT_NAME,
    StateFormatError,
    StateMeta,
    capture_resources,
    capture_store_state,
    load_meta,
    load_snapshot,
    restore_resources,
    restore_store_state,
    write_meta,
    write_snapshot,
)
from ..resources import ResourceStore
from .journal import JournalWriter, read_journal, record_to_log_record

__all__ = [
    "GENERATION_STRIDE",
    "journal_name",
    "journal_generation",
    "RecoveryReport",
    "SnapshotInfo",
    "recover_state",
    "JournaledVolumeStore",
    "DurableState",
]

# Epoch bases advance by this stride per process generation.  Any single
# generation minting 2**40 epochs (one per observe) would have journaled
# for years; the stride guarantees post-restart epochs strictly exceed
# every pre-crash epoch while staying far from int overflow concerns.
GENERATION_STRIDE = 1 << 40

_TEL_RECOVERY_RUNS = REGISTRY.counter(
    "server_recovery_runs_total", "Crash-recovery passes over a state directory"
)
_TEL_RECOVERY_REPLAYED = REGISTRY.counter(
    "server_recovery_replayed_records_total",
    "Journal records replayed into a recovered store",
)
_TEL_RECOVERY_DUPLICATES = REGISTRY.counter(
    "server_recovery_duplicate_records_total",
    "Journal records skipped during recovery as already applied",
)
_TEL_RECOVERY_TORN_BYTES = REGISTRY.counter(
    "server_recovery_torn_tail_bytes_total",
    "Torn journal-tail bytes discarded during recovery",
)
_TEL_RECOVERY_SNAPSHOTS = REGISTRY.counter(
    "server_recovery_snapshots_loaded_total", "Snapshots loaded during recovery"
)
_TEL_SNAPSHOT_WRITES = REGISTRY.counter(
    "server_snapshot_writes_total", "Durable state snapshots written"
)
_TEL_SNAPSHOT_BYTES = REGISTRY.counter(
    "server_snapshot_bytes_total", "Bytes written into state snapshots"
)


def journal_name(generation: int) -> str:
    return f"journal-{generation:08d}.log"


def journal_generation(name: str) -> int | None:
    """Generation number encoded in a journal file name, or None."""
    if not (name.startswith("journal-") and name.endswith(".log")):
        return None
    digits = name[len("journal-"):-len(".log")]
    return int(digits) if digits.isdigit() else None


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one recovery pass found and decided."""

    snapshot_loaded: bool
    snapshot_seq: int
    last_seq: int
    replayed_records: int
    duplicate_records: int
    torn_tail_bytes: int
    tail_reason: str | None
    journal_files: int
    epoch_base: int
    generation: int


@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Result of one explicit snapshot."""

    last_seq: int
    size_bytes: int
    path: str


def _apply_record(
    store: VolumeStore,
    resources: ResourceStore | None,
    kind: str,
    fields: dict[str, Any],
    record_obj: Any,
) -> None:
    if kind == "obs":
        store.observe(record_to_log_record(record_obj))
    elif kind == "cap":
        store.note_min_access(int(fields["min"]))
    elif kind == "res":
        if resources is not None:
            resources.add(
                str(fields["url"]),
                size=int(fields["sz"]),
                content_type=str(fields["ct"]),
                last_modified=float(fields["lm"]),
            )
    else:
        raise StateFormatError(f"unknown journal record kind {kind!r}")


def recover_state(
    state_dir: str | Path,
    store_factory: Callable[[], VolumeStore],
    resources: ResourceStore | None = None,
) -> tuple[VolumeStore, RecoveryReport]:
    """Rebuild the store a crashed process was serving, read-only.

    Loads the snapshot (if any) into a store built by *store_factory*,
    replays journal records past the snapshot's high-water mark in
    sequence order, and raises the store's epoch base one
    :data:`GENERATION_STRIDE` above every base any prior generation
    recorded.  The directory is not modified, so recovery can be
    repeated (and is: rerunning yields an identical store).

    *resources*, when given, receives the recovered resource records:
    the snapshot's replace its records and journaled updates are applied
    on top.  Pass a store nobody serves from; :class:`DurableState`
    passes a copy of its live one and swaps the result in under the
    store lock.

    Torn journal tails are tolerated and reported.  A damaged snapshot
    or meta file (bad JSON, unknown format or version, failed checksum,
    malformed layout) raises
    :class:`~repro.volumes.state.StateFormatError`, whose message names
    the file; so does a snapshot captured from another store type.
    """
    directory = Path(state_dir)
    bases = [0]
    generations = [0]

    meta = load_meta(directory)
    if meta is not None:
        bases.append(meta.epoch_base)
        generations.append(meta.generation)

    store = store_factory()
    snapshot = load_snapshot(directory)
    applied = 0
    if snapshot is not None:
        try:
            restore_store_state(store, snapshot.store_state)
            if resources is not None and snapshot.resources_state is not None:
                restore_resources(resources, snapshot.resources_state)
        except StateFormatError as exc:
            raise StateFormatError(f"{directory / SNAPSHOT_NAME}: {exc}") from exc
        applied = snapshot.last_seq
        bases.append(snapshot.state_epoch_base)
        generations.append(snapshot.generation)

    journal_files = sorted(
        (generation, entry)
        for entry in directory.iterdir()
        if (generation := journal_generation(entry.name)) is not None
    )

    replayed = 0
    duplicates = 0
    torn_bytes = 0
    tail_reason: str | None = None
    sequence_intact = True
    for generation, path in journal_files:
        generations.append(generation)
        # Files older than the snapshot's generation hold only records at
        # or below its high-water mark; skip reading them entirely.
        if snapshot is not None and generation < snapshot.generation:
            continue
        records, tail = read_journal(path)
        if not tail.clean:
            torn_bytes += tail.torn_bytes
            tail_reason = tail.reason
        for record in records:
            if record.kind == "begin":
                bases.append(int(record.fields["base"]))
                continue
            if not sequence_intact:
                continue
            if record.seq <= applied:
                duplicates += 1
                continue
            if record.seq != applied + 1:
                # A gap means records this state depends on are missing;
                # applying anything past it would fabricate history.
                sequence_intact = False
                tail_reason = f"sequence gap at seq {record.seq}"
                continue
            _apply_record(store, resources, record.kind, record.fields, record)
            applied = record.seq
            replayed += 1

    epoch_base = max(bases) + GENERATION_STRIDE
    store.raise_epoch_base(epoch_base)
    report = RecoveryReport(
        snapshot_loaded=snapshot is not None,
        snapshot_seq=snapshot.last_seq if snapshot is not None else 0,
        last_seq=applied,
        replayed_records=replayed,
        duplicate_records=duplicates,
        torn_tail_bytes=torn_bytes,
        tail_reason=tail_reason,
        journal_files=len(journal_files),
        epoch_base=epoch_base,
        generation=max(generations) + 1,
    )
    _TEL_RECOVERY_RUNS.inc()
    _TEL_RECOVERY_REPLAYED.inc(replayed)
    _TEL_RECOVERY_DUPLICATES.inc(duplicates)
    _TEL_RECOVERY_TORN_BYTES.inc(torn_bytes)
    if snapshot is not None:
        _TEL_RECOVERY_SNAPSHOTS.inc()
    return store, report


class JournaledVolumeStore(VolumeStore):
    """Write-ahead wrapper: journal first, then mutate the inner store.

    The wrapper owns the lock every user of the store serializes under;
    the inner store is wired to share the same lock object, so code that
    reaches the inner store directly still synchronizes correctly, and
    :meth:`swap_inner` (admin reload) can replace the state behind the
    lock without changing the lock identity anyone holds.
    """

    def __init__(self, inner: VolumeStore, journal: JournalWriter) -> None:
        self._inner = inner
        self._journal = journal
        self._store_lock = make_rlock("JournaledVolumeStore._store_lock")
        inner._store_lock = self._store_lock  # type: ignore[attr-defined]

    @property
    def inner(self) -> VolumeStore:
        return self._inner

    @property
    def journal(self) -> JournalWriter:
        return self._journal

    def swap_inner(self, inner: VolumeStore) -> None:
        """Replace the in-memory state (call under :attr:`lock`)."""
        inner._store_lock = self._store_lock  # type: ignore[attr-defined]
        self._inner = inner

    # -- write-ahead mutations ------------------------------------------

    def observe(self, record: LogRecord) -> None:
        # Write-ahead contract: the observation must be durable (journal
        # append + fsync) *before* the in-memory apply becomes visible,
        # and both must happen under the store lock so a concurrent
        # snapshot never sees state the journal cannot replay.  The
        # fsync-under-lock chain this creates is deliberate.
        # repro: allow[flow-lock-across-blocking]
        self._journal.append_observation(record)
        self._inner.observe(record)

    def note_min_access(self, min_access_count: int) -> None:
        # Ceiling raises change future epoch accounting, so they are
        # journaled too: replay reproduces the store exactly.
        if min_access_count > self._inner.count_ceiling:
            self._journal.append_ceiling(min_access_count)
        self._inner.note_min_access(min_access_count)

    # -- read delegation -------------------------------------------------

    def lookup(self, url: str) -> VolumeLookup | None:
        return self._inner.lookup(url)

    def lookup_version(self, url: str) -> VolumeVersion | None:
        return self._inner.lookup_version(url)

    @property
    def epoch(self) -> int:
        return self._inner.epoch

    @property
    def epoch_base(self) -> int:
        return self._inner.epoch_base

    def raise_epoch_base(self, base: int) -> None:
        self._inner.raise_epoch_base(base)

    @property
    def count_ceiling(self) -> int:
        return self._inner.count_ceiling

    def volume_count(self) -> int:
        return self._inner.volume_count()


class DurableState:
    """One process generation's handle on a durable state directory.

    Construction *is* recovery: the previous generation's snapshot and
    journal tail are folded into a fresh store, the new generation's
    meta floor is persisted (atomically, before anything is served), and
    a new journal file is opened.  The resulting :attr:`store` is a
    :class:`JournaledVolumeStore` ready to drop into a serving engine.
    """

    def __init__(
        self,
        state_dir: str | Path,
        store_factory: Callable[[], VolumeStore],
        *,
        resources: ResourceStore | None = None,
        sync: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._store_factory = store_factory
        self.resources = resources
        self._sync = sync
        self.invalidate_hooks: list[Callable[[], None]] = []

        # Recovery fills a copy of the resources; nothing serves yet, so
        # the copy is adopted straight away.
        recovered = None if resources is None else resources.copy()
        inner, report = recover_state(self.state_dir, store_factory, recovered)
        if resources is not None:
            resources.adopt(recovered)  # type: ignore[arg-type]
        self.recovery = report
        self.generation = report.generation
        # Persist the floor before the first request: if we crash right
        # after this, the next generation still raises its base past ours.
        write_meta(self.state_dir, StateMeta(self.generation, report.epoch_base))
        journal = JournalWriter(
            self.state_dir / journal_name(self.generation),
            next_seq=report.last_seq + 1,
            generation=self.generation,
            epoch_base=report.epoch_base,
            sync=sync,
        )
        self.store = JournaledVolumeStore(inner, journal)
        self._prune_journals(before_generation=self._covered_generation())

    # -- internals -------------------------------------------------------

    def _covered_generation(self) -> int:
        snapshot = load_snapshot(self.state_dir)
        return snapshot.generation if snapshot is not None else 0

    def _prune_journals(self, before_generation: int) -> None:
        """Delete journal files wholly covered by the current snapshot."""
        for entry in sorted(self.state_dir.iterdir()):
            generation = journal_generation(entry.name)
            if generation is not None and generation < before_generation:
                entry.unlink()

    # -- admin operations ------------------------------------------------

    def journal_resource(
        self, url: str, size: int, content_type: str, last_modified: float
    ) -> None:
        """Durably record a resource-store update, then apply it."""
        with self.store.lock:
            self.store.journal.append_resource(url, size, content_type, last_modified)
            if self.resources is not None:
                self.resources.add(
                    url, size=size, content_type=content_type,
                    last_modified=last_modified,
                )

    def snapshot_now(self) -> SnapshotInfo:
        """Fold journaled state into a fresh snapshot.

        Serializable with concurrent requests: the state is captured
        under the store lock (a consistent cut at one journal sequence),
        then written outside it — mutations keep flowing while the bytes
        hit disk, and recovery replays anything after the cut.
        """
        with self.store.lock:
            store_state = capture_store_state(self.store.inner)
            resources_state = (
                None if self.resources is None else capture_resources(self.resources)
            )
            last_seq = self.store.journal.last_seq
            epoch_base = self.store.epoch_base
        size = write_snapshot(
            self.state_dir,
            generation=self.generation,
            state_epoch_base=epoch_base,
            last_seq=last_seq,
            store_state=store_state,
            resources_state=resources_state,
        )
        _TEL_SNAPSHOT_WRITES.inc()
        _TEL_SNAPSHOT_BYTES.inc(size)
        # Earlier generations' journals are now folded in; ours keeps
        # growing and stays (replay skips records at or below last_seq).
        self._prune_journals(before_generation=self.generation)
        return SnapshotInfo(
            last_seq=last_seq,
            size_bytes=size,
            path=str(self.state_dir / SNAPSHOT_NAME),
        )

    def reload(self) -> RecoveryReport:
        """Rebuild the in-memory store from disk, in place.

        Exercises the recovery path without killing the process: a fresh
        store and a copy of the resources are recovered from the snapshot
        plus the live journal, the raised epoch base is persisted, and
        both are swapped in behind the store lock — a concurrent request
        sees the old resources or the recovered ones, never a half-filled
        table.  Registered invalidate hooks (piggyback cache clears) run
        after the swap.
        """
        with self.store.lock:
            recovered = None if self.resources is None else self.resources.copy()
        inner, report = recover_state(self.state_dir, self._store_factory, recovered)
        # New floor must be durable before any epoch above it is served.
        write_meta(self.state_dir, StateMeta(self.generation, report.epoch_base))
        with self.store.lock:
            self.store.swap_inner(inner)
            if recovered is not None:
                self.resources.adopt(recovered)  # type: ignore[union-attr]
        for hook in self.invalidate_hooks:
            hook()
        return report

    def status(self) -> dict[str, Any]:
        """JSON-safe introspection for the ``/.repro/status`` endpoint."""
        with self.store.lock:
            journal = self.store.journal
            return {
                "state_dir": str(self.state_dir),
                "generation": self.generation,
                "epoch_base": self.store.epoch_base,
                "journal": {
                    "path": str(journal.path),
                    "last_seq": journal.last_seq,
                    "bytes_written": journal.bytes_written,
                    "sync": self._sync,
                },
                "snapshot_exists": (self.state_dir / SNAPSHOT_NAME).exists(),
                "recovery": asdict(self.recovery),
            }

    def close(self, *, snapshot: bool = False) -> None:
        """Release the journal, optionally folding state into a snapshot."""
        if snapshot:
            self.snapshot_now()
        self.store.journal.close()
