"""Interned, columnar trace representation for the replay core.

The replay and estimation hot loops spend most of their time hashing URL
and source strings, re-parsing directory prefixes, and re-deriving content
types.  A :class:`ChunkedCompiledTrace` does all of that exactly once:
URLs, sources and methods are mapped to dense integer ids through
:class:`SymbolTable`, the records become parallel arrays of primitives in
:class:`TraceChunk` slabs, and per-URL derived columns (wire bytes,
content-type ids, directory-prefix ids per level, total access counts) are
computed on demand and then reused by every sweep point that replays the
same trace.  Chunks keep statuses and methods too, so a compiled trace
rebuilds its records exactly.

:func:`compile_trace` compiles an in-memory trace into a single chunk.
Chunks can also come from the compact on-disk format in
:mod:`repro.traces.chunked`, so compile -> store -> iterate never
materializes the whole trace, and one consumer runs over both: URLs are
interned in stream order either way, so the id spaces agree.

Compiling is cheap (one pass) and memoized per
:class:`~repro.traces.records.Trace` instance through a bounded
:class:`CompileCache` (LRU over weakly-referenced traces), so callers can
freely call :func:`compile_trace` wherever a fast path needs one without
leaking compilations in long-lived processes.
"""

from __future__ import annotations

import math
import weakref
from array import array
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Sequence

from .. import urls as url_utils
from ..core.piggyback import ELEMENT_FIXED_BYTES
from ..devtools.racecheck import share
from ..telemetry import REGISTRY
from .records import LogRecord, Trace

__all__ = [
    "SymbolTable",
    "TraceChunk",
    "ChunkedCompiledTrace",
    "CompileCache",
    "COMPILE_CACHE",
    "compile_trace",
    "growing_id_space",
    "DEFAULT_CHUNK_RECORDS",
]

_NAN = float("nan")

#: Default records per chunk: large enough that per-chunk overhead
#: (boundary syncs, frame headers) vanishes, small enough that one chunk's
#: columns are a few megabytes.
DEFAULT_CHUNK_RECORDS = 65536

_TEL_COMPILE_CACHE_HITS = REGISTRY.counter(
    "trace_compile_cache_hits_total",
    "compile_trace calls served from the bounded LRU cache",
)
_TEL_COMPILE_CACHE_MISSES = REGISTRY.counter(
    "trace_compile_cache_misses_total",
    "compile_trace calls that compiled a trace fresh",
)


class SymbolTable:
    """Bidirectional mapping between strings and dense integer ids.

    Ids are allocated in first-seen order starting at 0, so tables built
    from the same stream are identical and id arrays can index plain lists.
    """

    __slots__ = ("_ids", "_strings")

    def __init__(self, strings: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {}
        self._strings: list[str] = []
        for string in strings:
            self.intern(string)

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, string: str) -> bool:
        return string in self._ids

    def intern(self, string: str) -> int:
        """Return the id for *string*, allocating the next one if new."""
        existing = self._ids.get(string)
        if existing is not None:
            return existing
        next_id = len(self._strings)
        self._ids[string] = next_id
        self._strings.append(string)
        return next_id

    def intern_all(self, strings: Iterable[str]) -> list[int]:
        """:meth:`intern` each of *strings*, in order."""
        ids = self._ids
        intern = self.intern
        return [ids[string] if string in ids else intern(string) for string in strings]

    def id_of(self, string: str) -> int | None:
        """The id for *string*, or None if it was never interned."""
        return self._ids.get(string)

    def string(self, symbol_id: int) -> str:
        """The string for *symbol_id* (IndexError if unallocated)."""
        return self._strings[symbol_id]

    @property
    def strings(self) -> list[str]:
        """All interned strings, indexed by id.  Do not mutate."""
        return self._strings


class TraceChunk:
    """One fixed-size columnar slab of a :class:`ChunkedCompiledTrace`.

    Record columns (all indexed by position in the chunk):

    * ``timestamps`` — float seconds
    * ``source_ids`` / ``url_ids`` — dense ids into the owner's symbol tables
    * ``sizes`` — response bytes
    * ``mtimes`` — Last-Modified seconds, NaN when the record had none
    * ``statuses`` / ``method_ids`` — HTTP status and method id, so a chunk
      stream is a lossless container for
      :class:`~repro.traces.records.LogRecord` sequences

    ``start`` is the chunk's global record offset in the trace.
    """

    __slots__ = (
        "start", "timestamps", "source_ids", "url_ids", "sizes", "mtimes",
        "statuses", "method_ids",
    )

    def __init__(self, start: int = 0) -> None:
        self.start = start
        self.timestamps = array("d")
        self.source_ids = array("q")
        self.url_ids = array("q")
        self.sizes = array("q")
        self.mtimes = array("d")
        self.statuses = array("H")
        self.method_ids = array("B")

    def __len__(self) -> int:
        return len(self.url_ids)

    def __repr__(self) -> str:
        return f"TraceChunk(start={self.start}, {len(self)} records)"

    def records(
        self, urls: SymbolTable, sources: SymbolTable, methods: SymbolTable
    ) -> Iterator[LogRecord]:
        """Reconstruct the chunk's records (needs the owning tables)."""
        url_strings = urls.strings
        source_strings = sources.strings
        method_strings = methods.strings
        for index in range(len(self.url_ids)):
            mtime = self.mtimes[index]
            yield LogRecord(
                timestamp=self.timestamps[index],
                source=source_strings[self.source_ids[index]],
                url=url_strings[self.url_ids[index]],
                method=method_strings[self.method_ids[index]],
                status=self.statuses[index],
                size=self.sizes[index],
                last_modified=None if math.isnan(mtime) else mtime,
            )


class ChunkedCompiledTrace:
    """A compiled trace: symbol tables, per-URL columns, record chunks.

    The symbol tables and per-URL derived columns are whole-trace (they
    are O(urls), which every consumer needs anyway); only the O(records)
    columns are chunked.  Three ways to get one:

    * :func:`compile_trace` compiles a trace into one in-memory chunk;
    * :meth:`from_records` compiles an iterable into an in-memory chunk
      list (small chunks exercise the streaming paths in tests);
    * :func:`repro.traces.chunked.open_chunked_trace` binds one to an
      on-disk chunk file, where every :meth:`chunks` call re-reads the
      file sequentially and only one chunk is resident at a time.

    In every case the URL table is complete before any consumer runs (the
    builder interned every URL; the file trailer carries the full table),
    so url ids, derived columns, and whole-trace access counts do not
    depend on the chunking — the property the bit-identical streaming
    engines rely on.  Derived columns are built once over the full table
    and only extended by :meth:`ensure_url`.
    """

    __slots__ = (
        "urls", "sources", "methods", "content_types", "record_count",
        "_wire_bytes", "_content_type_ids", "_url_counts", "_prefix_columns",
        "_chunks", "_chunk_source", "__weakref__",
    )

    def __init__(
        self,
        chunk_source: Callable[[], Iterator[TraceChunk]] | None = None,
    ) -> None:
        self.urls = SymbolTable()
        self.sources = SymbolTable()
        self.methods = SymbolTable()
        self.content_types = SymbolTable()
        self.record_count = 0
        self._wire_bytes: list[int] | None = None
        self._content_type_ids: list[int] | None = None
        self._url_counts: list[int] = []  # maintained while chunks are built
        # level -> (SymbolTable of prefixes, list of prefix ids per url id)
        self._prefix_columns: dict[int, tuple[SymbolTable, list[int]]] = {}
        self._chunks: list[TraceChunk] = []
        self._chunk_source = chunk_source

    @classmethod
    def from_records(
        cls,
        records: Iterable[LogRecord],
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> "ChunkedCompiledTrace":
        """Compile *records* into an in-memory chunk list."""
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        chunked = cls()
        batch: list[LogRecord] = []
        for record in records:
            batch.append(record)
            if len(batch) >= chunk_records:
                chunked._chunks.append(chunked.compile_chunk(batch))
                batch.clear()
        if batch:
            chunked._chunks.append(chunked.compile_chunk(batch))
        return chunked

    def __len__(self) -> int:
        return self.record_count

    def __repr__(self) -> str:
        backing = "file-backed" if self._chunk_source is not None else "in-memory"
        return (
            f"ChunkedCompiledTrace({self.record_count} records, "
            f"{len(self.urls)} urls, {backing})"
        )

    def compile_chunk(self, records: Iterable[LogRecord]) -> TraceChunk:
        """Intern and columnarize one batch of records into a new chunk.

        Updates the symbol tables, whole-trace access counts, and record
        count; the caller decides where the chunk lives (in-memory list,
        on-disk frame).  Each column is built in one comprehension, which
        is what keeps compiling a whole trace cheap.
        """
        batch = records if isinstance(records, Sequence) else list(records)
        chunk = TraceChunk(start=self.record_count)
        url_ids = self.urls.intern_all([r.url for r in batch])
        chunk.timestamps.fromlist([r.timestamp for r in batch])
        chunk.source_ids.fromlist(self.sources.intern_all([r.source for r in batch]))
        chunk.url_ids.fromlist(url_ids)
        chunk.sizes.fromlist([r.size for r in batch])
        chunk.mtimes.fromlist([_NAN if (m := r.last_modified) is None else m for r in batch])
        chunk.statuses.fromlist([r.status for r in batch])
        chunk.method_ids.fromlist(self.methods.intern_all([r.method for r in batch]))
        counts = self._url_counts
        counts.extend([0] * (len(self.urls) - len(counts)))
        for url_id in url_ids:
            counts[url_id] += 1
        self.record_count += len(batch)
        return chunk

    def preload_urls(self, url_strings: Iterable[str], counts: Iterable[int]) -> None:
        """Install the complete URL table and access counts up front.

        Used by the chunk-file reader: the trailer carries the final URL
        table, so consumers see the full id space before the first chunk
        streams (matching in-memory compilation, where the table is
        complete before any derived column is read).
        """
        for url in url_strings:
            self.urls.intern(url)
        self._url_counts[:] = list(counts)
        if len(self._url_counts) != len(self.urls):
            raise ValueError(
                "url count column does not match the url table "
                f"({len(self._url_counts)} counts, {len(self.urls)} urls)"
            )

    def chunks(self) -> Iterator[TraceChunk]:
        """Iterate the trace's chunks in order (restartable).

        File-backed traces open a fresh sequential reader per call, so
        multi-pass consumers (estimator pass then replay pass; forked
        sweep workers) each stream the file independently.
        """
        if self._chunk_source is not None:
            return self._chunk_source()
        return iter(self._chunks)

    def records(self) -> Iterator[LogRecord]:
        """Reconstruct the full record stream (one chunk resident at a time)."""
        for chunk in self.chunks():
            yield from chunk.records(self.urls, self.sources, self.methods)

    def url_counts(self) -> list[int]:
        """Total access count per url id over the whole trace."""
        return self._url_counts

    # -- per-URL derived columns -------------------------------------------

    def wire_bytes(self) -> list[int]:
        """Piggyback-element wire bytes per url id (paper's byte model)."""
        if self._wire_bytes is None:
            self._wire_bytes = [
                _element_wire_bytes(url) for url in self.urls.strings
            ]
        return self._wire_bytes

    def content_type_ids(self) -> list[int]:
        """Coarse content-type id per url id (see :func:`repro.urls.content_type_of`)."""
        if self._content_type_ids is None:
            intern = self.content_types.intern
            self._content_type_ids = [
                intern(url_utils.content_type_of(url)) for url in self.urls.strings
            ]
        return self._content_type_ids

    def content_type_id_set(self, names: Iterable[str]) -> frozenset[int]:
        """Intern a set of content-type names to ids (for excluded-type sets)."""
        self.content_type_ids()  # ensure the table is populated first
        return frozenset(self.content_types.intern(name) for name in names)

    def directory_prefix_ids(self, level: int) -> list[int]:
        """Level-*level* directory-prefix id per url id.

        Prefixes get their own dense id space per level (one
        :class:`SymbolTable` each), so two URLs share a volume exactly when
        their prefix ids are equal — no string comparison in the hot loop.
        """
        column = self._prefix_columns.get(level)
        if column is None:
            table = SymbolTable()
            intern = table.intern
            ids = [
                intern(url_utils.directory_prefix(url, level))
                for url in self.urls.strings
            ]
            column = (table, ids)
            self._prefix_columns[level] = column
        return column[1]

    def directory_prefix_table(self, level: int) -> SymbolTable:
        """The prefix symbol table backing :meth:`directory_prefix_ids`."""
        self.directory_prefix_ids(level)
        return self._prefix_columns[level][0]

    def ensure_url(self, url: str) -> int:
        """Intern a URL that may not appear in the trace, extending columns.

        Volume artifacts occasionally reference resources outside the
        replayed window (thinned or combined volumes); derived columns
        grow in step so id-indexed lookups stay valid.
        """
        known = len(self.urls)
        url_id = self.urls.intern(url)
        if url_id >= known:  # a genuinely new URL: extend built columns
            if self._wire_bytes is not None:
                self._wire_bytes.append(_element_wire_bytes(url))
            if self._content_type_ids is not None:
                self._content_type_ids.append(
                    self.content_types.intern(url_utils.content_type_of(url))
                )
            self._url_counts.append(0)
            for level, (table, ids) in self._prefix_columns.items():
                ids.append(table.intern(url_utils.directory_prefix(url, level)))
        return url_id


def growing_id_space(name: str, level: int | None = None) -> ChunkedCompiledTrace:
    """An empty id space for an owner that interns URLs as they arrive.

    Its content-type column and (unless *level* is None) its level-*level*
    prefix column are built up front, so :meth:`ensure_url` extends them.
    The tables it grows are the owner's mutable state: with ``REPRO_RACE``
    on they are race-checked under *name*, like the owner's other shared
    containers.
    """
    space = ChunkedCompiledTrace()
    space.content_type_ids()
    tables = [space.urls, space.sources, space.content_types]
    if level is not None:
        tables.append(space.directory_prefix_table(level))
    for table in tables:
        table._ids = share(table._ids, f"{name}.ids")
        table._strings = share(table._strings, f"{name}.strings")
    if level is not None:
        space._prefix_columns[level] = (
            tables[-1], share(space.directory_prefix_ids(level), f"{name}.prefix_ids")
        )
    space._content_type_ids = share(space._content_type_ids, f"{name}.content_type_ids")
    space._url_counts = share(space._url_counts, f"{name}.url_counts")
    return space


def _element_wire_bytes(url: str) -> int:
    """Wire bytes of one piggyback element for *url* (host part omitted)."""
    host, slash, path = url.partition("/")
    length = len(path) if slash else len(host)
    return length + ELEMENT_FIXED_BYTES


class CompileCache:
    """Bounded LRU of ``Trace -> ChunkedCompiledTrace`` keyed by weak identity.

    Entries hold the trace only weakly (a dead trace's entry is removed by
    its weakref callback), and the cache is capped so long-lived processes
    compiling many streamed segments cannot accumulate compilations
    without bound.  :meth:`evict` drops a specific trace's entry — or
    everything — explicitly.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[weakref.ref[Trace], ChunkedCompiledTrace] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, trace: Trace) -> ChunkedCompiledTrace | None:
        """The cached compilation of *trace*, refreshing its LRU position.

        Raises TypeError for non-weakrefable inputs (the caller compiles
        fresh without caching).
        """
        key = weakref.ref(trace)
        compiled = self._entries.get(key)
        if compiled is not None:
            self._entries.move_to_end(key)
        return compiled

    def put(self, trace: Trace, compiled: ChunkedCompiledTrace) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over capacity."""
        key = weakref.ref(trace, self._entries_discard)
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _entries_discard(self, key: weakref.ref) -> None:
        self._entries.pop(key, None)

    def evict(self, trace: Trace | None = None) -> int:
        """Drop *trace*'s entry (or all entries when None); returns count dropped."""
        if trace is None:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped
        try:
            key = weakref.ref(trace)
        except TypeError:
            return 0
        return 1 if self._entries.pop(key, None) is not None else 0


#: Process-global compile cache used by :func:`compile_trace`.
COMPILE_CACHE = CompileCache()


def compile_trace(trace: Trace | ChunkedCompiledTrace) -> ChunkedCompiledTrace:
    """Compile *trace* once into one chunk; repeated calls return the cached compilation.

    Already-compiled inputs pass through.  The cache is the bounded
    :data:`COMPILE_CACHE` LRU; hits and misses are counted in the
    ``trace_compile_cache_*`` telemetry pair.
    """
    if isinstance(trace, ChunkedCompiledTrace):
        return trace
    try:
        compiled = COMPILE_CACHE.get(trace)
    except TypeError:  # unhashable/unweakrefable inputs: compile fresh
        _TEL_COMPILE_CACHE_MISSES.inc()
        return _compile_one_chunk(trace)
    if compiled is not None:
        _TEL_COMPILE_CACHE_HITS.inc()
        return compiled
    _TEL_COMPILE_CACHE_MISSES.inc()
    compiled = _compile_one_chunk(trace)
    COMPILE_CACHE.put(trace, compiled)
    return compiled


def _compile_one_chunk(records: Iterable[LogRecord]) -> ChunkedCompiledTrace:
    compiled = ChunkedCompiledTrace()
    compiled._chunks.append(compiled.compile_chunk(records))
    return compiled
