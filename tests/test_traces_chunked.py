"""Chunked compiled traces and the on-disk chunk format.

Covers the in-memory :class:`ChunkedCompiledTrace` (id-space agreement
across chunkings, restartable iteration), the file format
(roundtrip fidelity, string-delta encoding, trailer preloading), loud
failure on damaged files (CRC, truncation, bad magic/footer — always with
the damaged offset), and the bounded ``compile_trace`` memoization cache.
"""

from __future__ import annotations

import struct

import pytest

from repro.traces.chunked import (
    ChunkFileError,
    ChunkWriter,
    open_chunked_trace,
    verify_chunk_file,
    write_chunked_trace,
)
from repro.traces.intern import ChunkedCompiledTrace, CompileCache, compile_trace
from repro.traces.records import LogRecord, Trace


def _records(count: int = 300) -> list[LogRecord]:
    out = []
    for i in range(count):
        out.append(
            LogRecord(
                timestamp=float(i * 3),
                source=f"10.0.0.{i % 17}",
                url=f"www.site{i % 5}.example/d{i % 7}/r{i % 41}.html",
                method="GET" if i % 9 else "HEAD",
                status=304 if i % 11 == 0 else 200,
                size=0 if i % 11 == 0 else 100 + (i % 13) * 37,
                last_modified=float(i % 29) if i % 3 else None,
            )
        )
    return out


class TestChunkedCompiledTrace:
    def test_id_space_matches_compiled_trace(self):
        records = _records()
        whole = compile_trace(records)
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=7)
        assert chunked.urls.strings == whole.urls.strings
        assert chunked.sources.strings == whole.sources.strings
        assert list(chunked.url_counts()) == list(whole.url_counts())
        assert chunked.wire_bytes() == whole.wire_bytes()
        assert chunked.content_type_ids() == whole.content_type_ids()
        assert chunked.directory_prefix_ids(1) == whole.directory_prefix_ids(1)
        assert len(chunked) == len(whole) == len(records)

    def test_records_roundtrip_in_memory(self):
        records = _records()
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=13)
        assert list(chunked.records()) == records

    def test_chunk_starts_and_lengths(self):
        chunked = ChunkedCompiledTrace.from_records(_records(25), chunk_records=10)
        chunks = list(chunked.chunks())
        assert [c.start for c in chunks] == [0, 10, 20]
        assert [len(c) for c in chunks] == [10, 10, 5]

    def test_chunks_is_restartable(self):
        chunked = ChunkedCompiledTrace.from_records(_records(40), chunk_records=9)
        first = [len(c) for c in chunked.chunks()]
        second = [len(c) for c in chunked.chunks()]
        assert first == second


class TestChunkFileRoundtrip:
    def test_record_fidelity(self, tmp_path):
        records = _records()
        path = str(tmp_path / "t.rpchunk")
        count, chunks = write_chunked_trace(records, path, chunk_records=17)
        assert count == len(records)
        assert chunks == -(-len(records) // 17)
        trace = open_chunked_trace(path)
        assert list(trace.records()) == records

    def test_trailer_preloads_urls_and_counts(self, tmp_path):
        records = _records()
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(records, path, chunk_records=31)
        trace = open_chunked_trace(path)
        # Complete before any chunk is streamed: construction alone.
        whole = compile_trace(records)
        assert trace.urls.strings == whole.urls.strings
        assert list(trace.url_counts()) == list(whole.url_counts())

    def test_file_backed_iteration_matches_memory(self, tmp_path):
        records = _records()
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(records, path, chunk_records=23)
        trace = open_chunked_trace(path)
        mem = ChunkedCompiledTrace.from_records(records, chunk_records=23)
        for disk_chunk, mem_chunk in zip(trace.chunks(), mem.chunks()):
            assert disk_chunk.start == mem_chunk.start
            assert list(disk_chunk.timestamps) == list(mem_chunk.timestamps)
            assert list(disk_chunk.url_ids) == list(mem_chunk.url_ids)
            assert list(disk_chunk.source_ids) == list(mem_chunk.source_ids)
            assert list(disk_chunk.statuses) == list(mem_chunk.statuses)

    def test_two_passes_over_one_file(self, tmp_path):
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(_records(), path, chunk_records=11)
        trace = open_chunked_trace(path)
        assert sum(len(c) for c in trace.chunks()) == 300
        assert sum(len(c) for c in trace.chunks()) == 300

    def test_string_tables_are_delta_encoded(self, tmp_path):
        # A trace reusing the same few strings should not rewrite them in
        # every chunk: total file size must stay far below the naive
        # per-chunk-table encoding.
        records = [
            LogRecord(timestamp=float(i), source="s", url="www.x.example/a/p.html")
            for i in range(1000)
        ]
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(records, path, chunk_records=10)  # 100 chunks
        size = (tmp_path / "t.rpchunk").stat().st_size
        assert size < 60_000  # ~43B/record + framing; re-sent tables would triple it

    def test_writer_context_manager_and_counts(self, tmp_path):
        path = str(tmp_path / "t.rpchunk")
        with ChunkWriter(path, chunk_records=8) as writer:
            writer.extend(_records(20))
            assert writer.record_count == 20
        info = verify_chunk_file(path)
        assert info["records"] == 20
        assert info["chunks"] == 3

    def test_verify_reports_shape(self, tmp_path):
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(_records(), path, chunk_records=64)
        info = verify_chunk_file(path)
        assert info["records"] == 300
        assert info["chunks"] == 5
        assert info["urls"] == len({r.url for r in _records()})
        assert info["sources"] == 17


class TestDamagedFiles:
    def _write(self, tmp_path, chunk_records=16):
        path = str(tmp_path / "t.rpchunk")
        write_chunked_trace(_records(120), path, chunk_records=chunk_records)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(ChunkFileError) as info:
            open_chunked_trace(path)
        assert info.value.offset == 0

    @staticmethod
    def _frame_offsets(data: bytes) -> list[int]:
        """Start offsets of every frame, walked from the file structure."""
        header = struct.Struct("<4sII")
        offsets = []
        offset = 8  # len(MAGIC)
        while offset + header.size <= len(data) - 16:  # stop before footer
            offsets.append(offset)
            _, length, _ = header.unpack_from(data, offset)
            offset += header.size + length
        return offsets

    def test_corrupt_chunk_payload_fails_with_offset(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(open(path, "rb").read())
        second = self._frame_offsets(bytes(data))[1]
        data[second + 20] ^= 0x01  # a byte inside the second chunk's payload
        open(path, "wb").write(bytes(data))
        trace = open_chunked_trace(path)  # trailer still intact
        with pytest.raises(ChunkFileError) as info:
            list(trace.chunks())
        assert info.value.offset == second
        assert "crc" in str(info.value).lower()

    def test_corrupt_trailer_fails_at_open(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(open(path, "rb").read())
        (marker,) = struct.unpack_from("<Q", data, len(data) - 16)  # footer
        data[marker + 15] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.raises(ChunkFileError) as info:
            open_chunked_trace(path)
        assert info.value.offset == marker

    def test_truncated_file(self, tmp_path):
        path = self._write(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ChunkFileError):
            open_chunked_trace(path)

    def test_truncated_mid_stream(self, tmp_path):
        # Keep the footer bytes but cut a chunk frame short: the footer
        # offset then points past EOF or a frame read runs out of bytes.
        path = self._write(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:50] + data[-10:])
        with pytest.raises(ChunkFileError):
            open_chunked_trace(path)

    def test_verify_walks_all_frames(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(open(path, "rb").read())
        first = self._frame_offsets(bytes(data))[0]
        data[first + 16] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.raises(ChunkFileError) as info:
            verify_chunk_file(path)
        assert info.value.offset == first

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.rpchunk")
        open(path, "wb").close()
        with pytest.raises(ChunkFileError):
            open_chunked_trace(path)

    def test_empty_trace_roundtrips(self, tmp_path):
        path = str(tmp_path / "zero.rpchunk")
        count, chunks = write_chunked_trace([], path)
        assert (count, chunks) == (0, 0)
        trace = open_chunked_trace(path)
        assert len(trace) == 0
        assert list(trace.chunks()) == []


class TestCompileCache:
    def test_lru_eviction_bounds_entries(self):
        cache = CompileCache(capacity=2)
        traces = [Trace(_records(10)) for _ in range(3)]
        for trace in traces:
            cache.put(trace, compile_trace(list(trace)))
        assert len(cache) == 2
        assert cache.get(traces[0]) is None  # oldest evicted
        assert cache.get(traces[2]) is not None

    def test_get_refreshes_recency(self):
        cache = CompileCache(capacity=2)
        traces = [Trace(_records(10)) for _ in range(3)]
        cache.put(traces[0], compile_trace(list(traces[0])))
        cache.put(traces[1], compile_trace(list(traces[1])))
        cache.get(traces[0])  # now most recent
        cache.put(traces[2], compile_trace(list(traces[2])))
        assert cache.get(traces[0]) is not None
        assert cache.get(traces[1]) is None

    def test_explicit_evict(self):
        cache = CompileCache(capacity=4)
        trace = Trace(_records(10))
        cache.put(trace, compile_trace(list(trace)))
        assert cache.evict(trace) == 1
        assert cache.get(trace) is None
        assert cache.evict(trace) == 0

    def test_evict_all(self):
        cache = CompileCache(capacity=4)
        traces = [Trace(_records(10)) for _ in range(3)]
        for trace in traces:
            cache.put(trace, compile_trace(list(trace)))
        assert cache.evict() == 3
        assert len(cache) == 0

    def test_compile_trace_hits_telemetry(self):
        import repro.telemetry as telemetry
        from repro.traces import intern as intern_module

        trace = Trace(_records(20))
        telemetry.enable()
        try:
            hits_before = intern_module._TEL_COMPILE_CACHE_HITS.value
            misses_before = intern_module._TEL_COMPILE_CACHE_MISSES.value
            first = compile_trace(trace)
            second = compile_trace(trace)
        finally:
            telemetry.disable()
        assert first is second
        assert intern_module._TEL_COMPILE_CACHE_MISSES.value == misses_before + 1
        assert intern_module._TEL_COMPILE_CACHE_HITS.value >= hits_before + 1

    def test_compiled_forms_pass_through(self):
        records = _records(15)
        compiled = compile_trace(records)
        chunked = ChunkedCompiledTrace.from_records(records, chunk_records=4)
        assert len(list(compiled.chunks())) == 1
        assert compile_trace(compiled) is compiled
        assert compile_trace(chunked) is chunked
