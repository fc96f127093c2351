"""Id-space volume stores for the fast replay core.

The fast replay engine (:mod:`repro.analysis.fastreplay`) maintains every
store on a compiled trace's integer ids.  A directory store needs no
separate class for that: :class:`~repro.volumes.directory.DirectoryVolumeStore`
built on the trace's id space is itself the replayed store.  Probability
volumes replay through :class:`InternedProbabilityStore`, which the
differential suites hold bit-identical to
:class:`~repro.volumes.probability.ProbabilityVolumeStore` under replay.
:func:`build_interned_store` maps what a caller passes the engine to the
store it replays.
"""

from __future__ import annotations

from ..traces.intern import ChunkedCompiledTrace, CompiledTrace
from .directory import DirectoryVolumeConfig, DirectoryVolumeStore
from .probability import ProbabilityVolumes, ProbabilityVolumeStore

__all__ = [
    "InternedProbabilityStore",
    "build_interned_store",
    "UnsupportedStoreError",
]


class UnsupportedStoreError(TypeError):
    """Raised when the fast engine cannot replay a store as given."""


class InternedProbabilityStore:
    """Integer-id counterpart of :class:`ProbabilityVolumeStore` for replay.

    The frozen volume artifact is translated to id space once; per-request
    maintenance is three list writes.  Changed sizes are queued in
    :attr:`size_dirty` so the replay engine can invalidate only the cached
    piggyback messages whose admission could have changed (and only for
    configurations that filter on resource size).
    """

    def __init__(
        self,
        compiled: CompiledTrace | ChunkedCompiledTrace,
        volumes: ProbabilityVolumes,
    ):
        self.compiled = compiled
        self.volumes = volumes
        members: dict[int, list[tuple[int, float]]] = {}
        ensure = compiled.ensure_url
        for url in sorted(volumes.antecedents()):
            pairs = volumes.members_of(url)
            members[ensure(url)] = [
                (ensure(consequent), probability) for consequent, probability in pairs
            ]
        self.members = members
        url_count = len(compiled.urls)
        self.sizes: list[int] = [0] * url_count
        self.access_counts: list[int] = [0] * url_count
        self.size_dirty: list[int] = []
        self._volume_ids: dict[int, int] = {}
        self._containing: dict[int, tuple[int, ...]] | None = None

    def volume_count(self) -> int:
        return len(self.volumes)

    def observe_id(self, url_id: int, size: int) -> None:
        """Account one request by value."""
        if size and self.sizes[url_id] != size:
            self.sizes[url_id] = size
            self.size_dirty.append(url_id)
        self.access_counts[url_id] += 1

    def volume_id_of(self, url_id: int) -> int:
        volume_id = self._volume_ids.get(url_id)
        if volume_id is None:
            volume_id = len(self._volume_ids)
            self._volume_ids[url_id] = volume_id
        return volume_id

    def containing(self, url_id: int) -> tuple[int, ...]:
        """Antecedent ids whose volume contains *url_id* (reverse index)."""
        if self._containing is None:
            containing: dict[int, list[int]] = {}
            for antecedent, pairs in self.members.items():
                for consequent, _ in pairs:
                    containing.setdefault(consequent, []).append(antecedent)
            self._containing = {
                url: tuple(owners) for url, owners in containing.items()
            }
        return self._containing.get(url_id, ())


def build_interned_store(compiled: CompiledTrace | ChunkedCompiledTrace, store_or_config):
    """The id-space store the fast engine replays for *store_or_config*.

    * a :class:`DirectoryVolumeConfig` gets a fresh
      :class:`DirectoryVolumeStore` built on *compiled*;
    * a :class:`DirectoryVolumeStore` instance (any subclass) is replayed
      itself, keying and state included.  One that holds no entries is
      moved onto *compiled*'s id space first; one that holds entries in
      another id space raises :class:`UnsupportedStoreError`, since
      replaying it would mean dropping or translating its state;
    * a :class:`ProbabilityVolumes` artifact, or a
      :class:`ProbabilityVolumeStore` holding one, gets an
      :class:`InternedProbabilityStore` over that artifact.

    Any other store kind raises :class:`UnsupportedStoreError`, so callers
    can fall back to the reference engine.
    """
    target = store_or_config
    if isinstance(target, DirectoryVolumeConfig):
        return DirectoryVolumeStore(target, id_space=compiled)
    if isinstance(target, DirectoryVolumeStore):
        if target.id_space is not compiled:
            try:
                target.adopt_id_space(compiled)
            except ValueError:
                kind = type(target).__name__
                plain = type(target) is DirectoryVolumeStore
                fresh = repr(target.config) if plain else f"a new {kind}"
                raise UnsupportedStoreError(
                    f"this {kind} holds entries in its own id space, which the fast "
                    f"engine cannot replay: pass {fresh} to replay from empty, build "
                    f"the store with id_space=compile_trace(trace) before warming "
                    f"it, or use engine='reference'"
                ) from None
        return target
    if isinstance(target, ProbabilityVolumeStore):
        target = target.volumes
    if isinstance(target, ProbabilityVolumes):
        return InternedProbabilityStore(compiled, target)
    raise UnsupportedStoreError(
        f"no interned fast path for {type(store_or_config).__name__}"
    )
