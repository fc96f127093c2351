"""repro.server.durability — durable origin state with warm restart.

A serving origin accumulates volume state (FIFO orders, access counts,
pairwise counters) that the paper assumes survives for the duration of a
log.  This package makes that state crash-safe:

- :mod:`.journal` — append-only, CRC-framed, fsynced write-ahead journal
  of observations; tail-tolerant reader.
- :mod:`.state` — :func:`~.state.recover_state` (idempotent crash
  recovery), :class:`~.state.JournaledVolumeStore` (journal before
  mutate), :class:`~.state.DurableState` (per-process manager with
  snapshot-now / reload / status for the admin endpoints), journal file
  naming and :data:`~.state.GENERATION_STRIDE`.
- :mod:`.logflush` — buffered access logging with a background flusher.

The snapshot and meta documents, and the store and resource layouts
inside them, belong to the one state codec, :mod:`repro.volumes.state`;
its names are re-exported here.  The SIGKILL fault-injection switch the
crash-recovery tests drive via ``REPRO_DURABILITY_KILL`` is
:mod:`repro.devtools.chaos`.

Epochs published by a recovered store are offset by a per-generation
base (see :data:`~.state.GENERATION_STRIDE`), so piggyback cache
keys minted before a crash can never collide with keys minted after —
the epoch space is monotone across process generations.
"""

from ...devtools.chaos import KILL_ENV
from ...volumes.state import (
    META_NAME,
    SNAPSHOT_NAME,
    SnapshotPayload,
    StateFormatError,
    StateMeta,
    load_meta,
    load_snapshot,
    write_snapshot,
)
from .journal import JournalRecord, JournalTail, JournalWriter, read_journal
from .logflush import BufferedAccessLogger, FlushScheduler
from .state import (
    GENERATION_STRIDE,
    DurableState,
    JournaledVolumeStore,
    RecoveryReport,
    SnapshotInfo,
    recover_state,
)

__all__ = [
    "KILL_ENV",
    "JournalRecord",
    "JournalTail",
    "JournalWriter",
    "read_journal",
    "BufferedAccessLogger",
    "FlushScheduler",
    "GENERATION_STRIDE",
    "META_NAME",
    "SNAPSHOT_NAME",
    "SnapshotPayload",
    "StateFormatError",
    "StateMeta",
    "load_meta",
    "load_snapshot",
    "write_snapshot",
    "DurableState",
    "JournaledVolumeStore",
    "RecoveryReport",
    "SnapshotInfo",
    "recover_state",
]
