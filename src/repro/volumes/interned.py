"""Which store the fast replay core replays for what a caller passes it.

The fast replay engine (:mod:`repro.analysis.fastreplay`) maintains every
store on a compiled trace's integer ids.  Neither volume family needs a
separate class for that: a
:class:`~repro.volumes.directory.DirectoryVolumeStore` or a
:class:`~repro.volumes.probability.ProbabilityVolumeStore` built on the
trace's id space is itself the replayed store.  :func:`build_interned_store`
maps a config, an artifact or a store instance to that store.
"""

from __future__ import annotations

from ..traces.intern import CompiledLike
from .directory import DirectoryVolumeConfig, DirectoryVolumeStore
from .probability import ProbabilityVolumes, ProbabilityVolumeStore

__all__ = ["build_interned_store", "UnsupportedStoreError"]


class UnsupportedStoreError(TypeError):
    """Raised when the fast engine cannot replay a store as given."""


def build_interned_store(compiled: CompiledLike, store_or_config):
    """The id-space store the fast engine replays for *store_or_config*.

    * a :class:`DirectoryVolumeConfig` gets a fresh
      :class:`DirectoryVolumeStore` built on *compiled*, and a
      :class:`ProbabilityVolumes` artifact a fresh
      :class:`ProbabilityVolumeStore`;
    * a :class:`DirectoryVolumeStore` (any subclass) or a plain
      :class:`ProbabilityVolumeStore` instance is replayed itself, keying
      and state included.  One that holds no state is moved onto
      *compiled*'s id space first; one that holds state in another id
      space raises :class:`UnsupportedStoreError`, since replaying it
      would mean dropping or translating that state.

    Any other store kind raises :class:`UnsupportedStoreError` (the online
    probability store among them: its volumes change mid-trace), so
    callers can fall back to the reference engine.
    """
    target = store_or_config
    if isinstance(target, DirectoryVolumeConfig):
        return DirectoryVolumeStore(target, id_space=compiled)
    if isinstance(target, ProbabilityVolumes):
        return ProbabilityVolumeStore(target, id_space=compiled)
    if isinstance(target, DirectoryVolumeStore):
        plain = type(target) is DirectoryVolumeStore
        fresh = repr(target.config) if plain else f"a new {type(target).__name__}"
    elif type(target) is ProbabilityVolumeStore:
        fresh = "its volumes"
    else:
        raise UnsupportedStoreError(
            f"no interned fast path for {type(store_or_config).__name__}"
        )
    if target.id_space is not compiled:
        try:
            target.adopt_id_space(compiled)
        except ValueError:
            kind = type(target).__name__
            raise UnsupportedStoreError(
                f"this {kind} holds state in its own id space, which the fast "
                f"engine cannot replay: pass {fresh} to replay from empty, build "
                f"the store with id_space=compile_trace(trace) before warming "
                f"it, or use engine='reference'"
            ) from None
    return target
